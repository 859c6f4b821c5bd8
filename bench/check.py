"""Output checker: every job's files against the reference outputs.

Rules
-----
- Analytic numbers (``esr.json``, analytic ``sop_analytic`` columns, the
  ``analytic`` column of ``mc_validate.csv``) must lie within
  ``RTOL * |ref| + ATOL`` of the reference.
- Sampled columns (``sop_empirical``, ``empirical``, and ``sop_analytic`` where
  the file carries a ``stderr`` column because the worst-case multi-eve curve
  is itself sampled) must lie within 3 of their own reported standard errors
  of the reference.
- ``mc_validate.csv`` must have ``pass`` = 1 in every row.
- ``optimize-esr`` must end at or above the reference ESR minus the tolerance,
  with a non-decreasing objective trace. ``optimize-sop`` must end at or below
  both the reference SOP plus the tolerance and its own starting SOP.
- A job that failed at the reference commit has a ``null`` reference. It
  passes on exit 0, finite values, probabilities in [0, 1] and an SOP that
  does not decrease as R grows. Failing again with a clean nonzero exit is
  counted, not flagged; an uncaught exception is flagged.
- Every job is also held to those generic rules.

Only the standard library is used.
"""

from __future__ import annotations

import csv
import json
import math
import os

RTOL = 1e-6
ATOL = 1e-12
N_SIGMA = 3.0

OUTPUT_FILES = {
    "esr": ("esr.json",),
    "sop": ("sop.csv",),
    "sweep": ("sop_sweep.csv",),
    "mc-validate": ("mc_validate.csv",),
    "optimize-esr": ("optimize_esr_trace.csv", "optimize_esr_result.json"),
    "optimize-sop": ("optimize_sop_trace.csv", "optimize_sop_result.json"),
}


def _flatten(obj, prefix=""):
    """Numeric leaves of a JSON object as {dotted.path: float}."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}{i}."))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix[:-1]] = float(obj)
    return out


def _read_csv(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    table = {}
    for i, name in enumerate(header):
        cells = [r[i] for r in body]
        try:
            table[name] = [float(c) for c in cells]
        except ValueError:  # a label column such as mc_validate's quantity
            table[name] = cells
    return table


def read_outputs(subcommand: str, out_dir: str) -> dict:
    """Parsed output files of one job; raises OSError/ValueError if missing
    or malformed."""
    out = {}
    for name in OUTPUT_FILES[subcommand]:
        path = os.path.join(out_dir, name)
        if name.endswith(".csv"):
            out[name] = _read_csv(path)
        else:
            with open(path, encoding="utf-8") as fh:
                out[name] = json.load(fh)
    return out


def _csv_roles(table: dict) -> tuple:
    """(analytic columns, sampled columns) of one curve/validation table."""
    if "empirical" in table:  # mc_validate.csv
        return ["analytic"], ["empirical"]
    if "sop_empirical" in table:
        return ["sop_analytic"], ["sop_empirical"]
    if "stderr" in table:  # multi-eve curve: the sampler gives sop_analytic
        return [], ["sop_analytic"]
    return ["sop_analytic"], []


def reference_of(subcommand: str, outputs: dict) -> dict:
    """The part of a job's outputs that later runs are compared against."""
    ref = {}
    for name, data in outputs.items():
        if name == "esr.json":
            ref[name] = _flatten(data)
        elif name == "optimize_esr_result.json":
            ref[name] = {"esr_nats": data["esr_nats"]}
        elif name == "optimize_sop_result.json":
            ref[name] = {"sop": data["sop"]}
        elif name in ("sop.csv", "sop_sweep.csv", "mc_validate.csv"):
            analytic, sampled = _csv_roles(data)
            ref[name] = {c: data[c] for c in analytic + sampled}
    return ref


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= RTOL * abs(ref) + ATOL


def _generic(outputs: dict) -> list:
    """Finite values, probabilities in [0, 1], SOP non-decreasing in R."""
    reasons = []
    for name, data in outputs.items():
        values = _flatten(data) if name.endswith(".json") else {
            f"{c}[{i}]": v for c, col in data.items() for i, v in enumerate(col)
            if isinstance(v, float)}
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            reasons.append(f"{name}: non-finite values at {bad[:3]}")
    probs = []
    for name in ("sop.csv", "sop_sweep.csv"):
        if name in outputs:
            table = outputs[name]
            for col in ("sop_analytic", "sop_empirical"):
                if col in table:
                    probs.append((name, col, table[col], table.get("P_dbm")))
    for name, col, vals, powers in probs:
        if any(not 0.0 <= v <= 1.0 for v in vals):
            reasons.append(f"{name}: {col} outside [0, 1]")
        for i in range(1, len(vals)):
            same_curve = powers is None or powers[i] == powers[i - 1]
            if same_curve and vals[i] < vals[i - 1]:
                reasons.append(f"{name}: {col} decreases as R grows at row {i}")
                break
    if "optimize_sop_result.json" in outputs:
        p = outputs["optimize_sop_result.json"]["sop"]
        if not 0.0 <= p <= 1.0:
            reasons.append(f"optimize_sop_result.json: sop {p!r} outside [0, 1]")
    return reasons


def _against_reference(outputs: dict, ref: dict) -> list:
    reasons = []
    for name, expected in ref.items():
        data = outputs[name]
        if name == "esr.json":
            got = _flatten(data)
            for k, r in expected.items():
                if k not in got or not _close(got[k], r):
                    reasons.append(f"esr.json: {k} = {got.get(k)!r}, reference {r!r} "
                                   f"(rtol {RTOL:g})")
        elif name == "optimize_esr_result.json":
            got, r = data["esr_nats"], expected["esr_nats"]
            if got < r - (RTOL * abs(r) + ATOL):
                reasons.append(f"{name}: esr_nats {got!r} below reference {r!r}")
        elif name == "optimize_sop_result.json":
            got, r = data["sop"], expected["sop"]
            if got > r + RTOL * abs(r) + ATOL:
                reasons.append(f"{name}: sop {got!r} above reference {r!r}")
        else:
            analytic, sampled = _csv_roles(data)
            if any(len(data[c]) != len(expected[c]) for c in analytic + sampled):
                reasons.append(f"{name}: row count differs from the reference")
                continue
            for col in analytic:
                for i, (x, r) in enumerate(zip(data[col], expected[col])):
                    if not _close(x, r):
                        reasons.append(f"{name}: {col}[{i}] = {x!r}, reference {r!r} "
                                       f"(rtol {RTOL:g})")
                        break
            se_col = data.get("stderr", [])
            for col in sampled:
                for i, (x, r, se) in enumerate(zip(data[col], expected[col], se_col)):
                    if abs(x - r) > N_SIGMA * se:
                        reasons.append(f"{name}: {col}[{i}] = {x!r} is more than "
                                       f"{N_SIGMA:g} stderr ({se!r}) from reference {r!r}")
                        break
    return reasons


def _specific(subcommand: str, outputs: dict) -> list:
    reasons = []
    if subcommand == "mc-validate":
        rows = [i for i, p in enumerate(outputs["mc_validate.csv"]["pass"]) if p != 1.0]
        if rows:
            reasons.append(f"mc_validate.csv: pass = 0 in rows {rows}")
    elif subcommand == "optimize-esr":
        obj = outputs["optimize_esr_trace.csv"]["objective_nats"]
        for i in range(1, len(obj)):
            if obj[i] < obj[i - 1]:
                reasons.append(f"optimize_esr_trace.csv: objective decreases at iter {i}")
                break
    elif subcommand == "optimize-sop":
        start = outputs["optimize_sop_trace.csv"]["objective_nats"][0]
        end = outputs["optimize_sop_result.json"]["sop"]
        if end > start:
            reasons.append(f"optimize_sop_result.json: sop {end!r} above its start {start!r}")
    return reasons


def check_job(subcommand: str, rc, out_dir: str, ref, error: str = "") -> list:
    """Reasons the job's outputs are wrong; empty when it passes.

    ``ref`` is the job's reference entry: a dict, or None when the job failed
    at the reference commit. A nonzero exit is a check failure when the
    reference commit succeeded on the same job, and a crash (an exception the
    CLI let through) always is.
    """
    if rc == "crash":
        return [f"uncaught exception: {error.strip()[-300:]}"]
    if rc != 0:
        if ref is None:
            return []
        return [f"exit {rc} where the reference succeeded: {error.strip()[-300:]}"]
    try:
        outputs = read_outputs(subcommand, out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable outputs: {exc!r}"]
    reasons = _generic(outputs) + _specific(subcommand, outputs)
    if ref is not None:
        try:
            reasons += _against_reference(outputs, ref)
        except (KeyError, IndexError) as exc:
            reasons.append(f"outputs do not match the reference layout: {exc!r}")
    return reasons


def load_reference(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["jobs"]
