"""Output digests of the benchmark catalogue, for byte-identity checks.

``run`` runs every catalogue and probe job of ``bench/jobs.catalogue`` (or
only the jobs named with ``--job``) in-process through ``bench/runner.run_job``
against the ``src/`` of a given source tree, and writes one JSON object

    {job key: {"rc": exit code, "files": {file name: sha256},
               "columns": {file name: {column: [numbers]}},
               "reasons": [output-check failures from bench/check.py]}}

``columns`` holds each output file's numbers as ``check.read_outputs``
parses them: a CSV file's numeric columns, and a JSON file's numeric leaves,
one column per key path with list positions dropped (``theta.3`` is entry 3
of column ``theta``). ``compare`` reads two such files and exits 1 when any
job's exit code or output files differ, or when the two cover different
jobs. For each file that differs it prints the largest relative change
|b - a| / max(|a|, |b|) of each column that moved, and at the end the
largest change of each column over all jobs, by file name.

    python3 tools/output_digest.py run PARENT_TREE parent.json
    python3 tools/output_digest.py run . change.json
    python3 tools/output_digest.py compare parent.json change.json

The bench modules are this repository's, so both trees run one catalogue.
Nothing is written into the measured tree: bytecode is off, and configs and
outputs go to a temporary directory that is removed afterwards. Only the
standard library is used (the measured tree needs numpy).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile

sys.dont_write_bytecode = True

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
WORKLOADS = ("curves", "mc", "optimize")


def _import_cli(tree: str):
    """``irs_secrecy.cli`` from ``tree/src``; raises if another copy of the
    package would be imported instead."""
    src = os.path.realpath(os.path.join(tree, "src"))
    sys.path.insert(0, src)
    import irs_secrecy.cli as cli

    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"irs_secrecy was imported from {cli.__file__}, not {src}")
    return cli


def digest(tree: str, keys=None) -> dict:
    """{job key: {rc, files, reasons}} of the catalogue jobs, in catalogue
    order; ``keys`` (a set) keeps only the jobs it names."""
    cli = _import_cli(tree)
    sys.path.insert(0, BENCH)
    import check
    import jobs
    import runner

    out = {}
    with tempfile.TemporaryDirectory(prefix="output-digest-") as work:
        for workload in WORKLOADS:
            ws = runner.Workspace(os.path.join(work, workload), workload)
            reference = check.load_reference(os.path.join(BENCH, "reference", f"{workload}.json"))
            for index, job in enumerate(jobs.catalogue(workload)):
                if keys is not None and job.key not in keys:
                    continue
                result = runner.run_job(cli, index, job, ws.config(job), ws.out_dir("out", index))
                runner.check_results([result], reference)
                files = {name: hashlib.sha256(data).hexdigest()
                         for name, data in runner.output_bytes(result.out_dir).items()}
                try:
                    parsed = check.read_outputs(job.subcommand, result.out_dir)
                except (OSError, ValueError):  # a failed job may leave no files
                    parsed = {}
                out[job.key] = {"rc": result.rc, "files": files, "reasons": result.reasons,
                                "columns": {name: numeric_columns(name, data)
                                            for name, data in parsed.items()}}
                shutil.rmtree(result.out_dir, ignore_errors=True)
    missing = sorted(set(keys or ()) - set(out))
    if missing:
        raise SystemExit(f"not in the catalogue: {', '.join(missing)}")
    return out


def numeric_columns(name: str, data) -> dict:
    """{column: [numbers]} of the output file ``name`` as
    ``check.read_outputs`` parsed it (module docstring)."""
    if name.endswith(".csv"):  # {column: cells}, a label column as strings
        return {col: cells for col, cells in data.items()
                if all(isinstance(c, float) for c in cells)}
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(node, list):
            for v in node:
                walk(v, path)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out.setdefault(path, []).append(float(node))

    walk(data, "")
    return out


def relative_change(x: float, y: float) -> float:
    """|y - x| / max(|x|, |y|): 0 when equal, inf when a non-finite value
    changed."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(y - x) / max(abs(x), abs(y))


def column_changes(ca: dict, cb: dict) -> dict:
    """{column: largest relative change} of one file's columns, for the
    columns that moved; a column that only one side has, or whose length
    changed, reads inf."""
    out = {}
    for name in sorted(set(ca) | set(cb)):
        xs, ys = ca.get(name), cb.get(name)
        if xs is None or ys is None or len(xs) != len(ys):
            out[name] = math.inf
            continue
        worst = max(map(relative_change, xs, ys), default=0.0)
        if worst:
            out[name] = worst
    return out


def differences(a: dict, b: dict, worst: dict) -> list:
    """One line per job whose exit code or output files differ, or that
    only one digest covers; a differing file's line names the largest
    relative change of each column that moved. ``worst`` collects
    {(file name, column): largest change over all jobs}."""
    lines = [f"{key}: only in the first digest" for key in a if key not in b]
    lines += [f"{key}: only in the second digest" for key in b if key not in a]
    for key in a:
        if key not in b:
            continue
        if a[key]["rc"] != b[key]["rc"]:
            lines.append(f"{key}: exit code {a[key]['rc']!r} -> {b[key]['rc']!r}")
        fa, fb = a[key]["files"], b[key]["files"]
        cols_a, cols_b = a[key].get("columns", {}), b[key].get("columns", {})
        for name in sorted(set(fa) | set(fb)):
            if fa.get(name) == fb.get(name):
                continue
            line = f"{key}: {name} differs"
            if name in cols_a and name in cols_b:
                changes = column_changes(cols_a[name], cols_b[name])
                for col, x in changes.items():
                    worst[name, col] = max(worst.get((name, col), 0.0), x)
                line += " (" + (", ".join(f"{col} {x:.2g}" for col, x in changes.items())
                                or "no column moved") + ")"
            lines.append(line)
    return lines


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="digest the catalogue outputs of one tree")
    run.add_argument("tree", help="source tree whose src/ is run")
    run.add_argument("out", help="digest file to write (JSON)")
    run.add_argument("--job", action="append", help="catalogue key to run (repeatable)")
    cmp_ = sub.add_parser("compare", help="exit 1 when two digests differ")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)

    if args.mode == "run":
        result = digest(args.tree, set(args.job) if args.job else None)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        n_files = sum(len(r["files"]) for r in result.values())
        failed = sum(1 for r in result.values() if r["reasons"])
        print(f"{len(result)} jobs, {n_files} files, {failed} failing bench/check.py")
        return 0

    a, b = _load(args.first), _load(args.second)
    worst = {}
    lines = differences(a, b, worst)
    for line in lines:
        print(line)
    for (name, col), x in sorted(worst.items()):
        print(f"largest change: {name} {col} {x:.2g}")
    print(f"{len(a)} and {len(b)} jobs; {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
