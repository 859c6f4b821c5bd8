"""Command-line front end.

Parses a JSON scenario configuration, dispatches analyses or optimizations,
and writes plot-ready CSV/JSON files into an output directory. All outputs
are deterministic for a fixed ``--seed``: reruns produce byte-identical
files.

Subcommands
-----------
esr           Ergodic secrecy rate (per eavesdropper + worst case) -> esr.json
sop           Secrecy outage probability curve -> sop.csv
mc-validate   Analytic means/covariances vs Monte-Carlo -> mc_validate.csv
optimize-esr  Alternating covariance/phase ascent -> trace CSV + result JSON
optimize-sop  Outage-probability phase descent -> trace CSV + result JSON
sweep         SOP curves for a list of transmit powers -> sop_sweep.csv

The artificial-noise mode (``power.an``) and the sweep powers
(``sweep.P_dbm``) are read with the rest of the scenario by
``scenario.load_config`` and reach every subcommand as ``ScenarioConfig.an``
and ``ScenarioConfig.sweep_P_dbm``. Exit codes: 0 on success, 2 for a
malformed configuration or argument (``config error: <field>: ...``), which
includes an ``--out`` that cannot be made or written, a ``--trials`` or
``--r-steps`` whose arrays cannot be held and a threshold grid that overflows,
1 when the numerics fail or memory runs out on a valid configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateRegimeError,
    InvalidCovarianceError,
    ModelError,
)
from .scenario import Scenario, build_scenario, load_config
from .cltcov import joint_cov
from .fixedpoint import solve_all
from .secrecy import LN2, build_multi_eve_model, esr_an, secrecy_terms, sop_multi_eve
from .mcoracle import run_mc, thread_budget
from .optimize import algorithm2_ao, optimize_sop

DEFAULT_MC_TRIALS = 20000
DEFAULT_MVN_SAMPLES = 10 ** 6


def _fmt(x) -> str:
    """Fixed-width float cell; one format everywhere keeps files diffable."""
    return format(float(x), ".12e")


def _open_out(path: str):
    """``path`` in the output directory, opened for writing; a path that
    cannot be written is a ConfigError on ``--out``."""
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc.strerror}") from None


def _write_csv(path: str, header: list, rows: list) -> None:
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_json(path: str, obj: dict) -> None:
    with _open_out(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _eigenvalues(P: np.ndarray) -> list:
    """Real eigenvalues of a Hermitian covariance, descending."""
    vals = np.linalg.eigvalsh(np.asarray(P))
    return [float(v) for v in vals[::-1]]


def _threshold_grid(args) -> np.ndarray:
    if args.r_steps < 1:
        raise ConfigError("--r-steps: must be >= 1")
    if args.r_max < args.r_min:
        raise ConfigError("--r-max: must be >= --r-min")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            grid = np.linspace(args.r_min, args.r_max, args.r_steps)
    except (ValueError, MemoryError) as exc:  # numpy's refusals of the grid's size
        raise ConfigError(f"--r-steps: {args.r_steps} points cannot be held ({exc})") from None
    if not np.isfinite(grid).all():
        raise ConfigError(f"--r-max: the grid from --r-min {args.r_min} to --r-max "
                          f"{args.r_max} overflows the float range")
    return grid


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_mc(stats, descs: list, precs: dict, trials: int, seed: int, combiner=None):
    """``run_mc``; a ``--trials`` whose samples cannot be held is a
    ConfigError on the flag."""
    try:
        return run_mc(stats, descs, precs, n_trials=trials, seed=seed, combiner=combiner)
    except MemoryError as exc:
        raise ConfigError(f"--trials: {trials} trials cannot be held ({exc})") from None


def _cmd_esr(args, scenario: Scenario) -> int:
    stats = scenario.stats
    model = build_multi_eve_model(stats, *scenario.precoders())
    reports = [model.report(k) for k in range(model.n_eves)]
    # each entry holds the report's fields: esr_nats, esr_bits, mean_nats, variance
    eves = {tag: asdict(rep) for tag, rep in zip(stats.users()[1:], reports)}
    worst = min(reports, key=lambda rep: rep.esr_nats)  # the first minimum
    out = {
        "an": scenario.config.an,
        "model_kind": stats.model_kind,
        "p_budget_watts": float(scenario.p_budget),
        "esr_nats": float(worst.esr_nats),
        "esr_bits": float(worst.esr_bits),
        "eves": eves,
    }
    _write_json(os.path.join(args.out, "esr.json"), out)
    return 0


def _sop_curve(stats, pairs: list, grid_bits: np.ndarray, trials: int, seed: int):
    """Analytic SOP on a bit grid, one row per (P_W, P_V) pair; returns
    (values, stderr), with stderr None for a single eavesdropper. With
    several eavesdroppers the pairs share one set of worst-case draws."""
    if stats.K_eves > 1:
        models = [build_multi_eve_model(stats, P_W, P_V) for P_W, P_V in pairs]
        n = trials if trials > 0 else DEFAULT_MVN_SAMPLES
        return sop_multi_eve(models, grid_bits, n_samples=n, seed=seed)
    return [esr_an(stats, P_W, P_V).sop(grid_bits) for P_W, P_V in pairs], None


def _cmd_sop(args, scenario: Scenario) -> int:
    stats = scenario.stats
    P_W, P_V = scenario.precoders()
    grid_bits = _threshold_grid(args)
    (analytic,), mvn_se = _sop_curve(
        stats, [(P_W, P_V)], grid_bits, args.trials, args.seed
    )

    if mvn_se is not None:
        header = ["R_bits", "sop_analytic", "stderr"]
        rows = [
            [_fmt(r), _fmt(p), _fmt(s)]
            for r, p, s in zip(grid_bits, analytic, mvn_se[0])
        ]
    elif args.trials > 0:
        descs, precs, selectors = secrecy_terms(stats, P_W, P_V, eves=["E1"])
        run = _run_mc(stats, descs, precs, args.trials, args.seed, combiner=selectors[0])
        empirical = run.secrecy_cdf(grid_bits * LN2)
        se = np.sqrt(empirical * (1.0 - empirical) / run.n_trials)
        header = ["R_bits", "sop_analytic", "sop_empirical", "stderr"]
        rows = [
            [_fmt(r), _fmt(p), _fmt(e), _fmt(s)]
            for r, p, e, s in zip(grid_bits, analytic, empirical, se)
        ]
    else:
        header = ["R_bits", "sop_analytic"]
        rows = [[_fmt(r), _fmt(p)] for r, p in zip(grid_bits, analytic)]

    _write_csv(os.path.join(args.out, "sop.csv"), header, rows)
    return 0


def _cmd_mc_validate(args, scenario: Scenario) -> int:
    stats = scenario.stats
    descs, precs, _ = secrecy_terms(stats, *scenario.precoders())
    trials = args.trials if args.trials > 0 else DEFAULT_MC_TRIALS
    run = _run_mc(stats, descs, precs, trials, args.seed)

    sols = solve_all(stats, descs, precs)
    analytic_mean = np.array([s.mean for s in sols])
    analytic_cov = joint_cov(descs, sols)
    mean_se = run.mean_stderr()
    n = run.n_trials
    # Gaussian large-sample error of a sample covariance entry:
    # Var(c_ij) ~ (c_ii c_jj + c_ij^2) / n.
    diag = np.diag(run.mi_cov)
    cov_se = np.sqrt((np.outer(diag, diag).clip(min=0.0) + run.mi_cov ** 2) / n)

    # (quantity, analytic, empirical, stderr, tol): the means, then the
    # upper triangle of the covariance
    entries = [(f"mean_{d.label}", analytic_mean[i], run.mi_mean[i], mean_se[i],
                max(0.05, 3.0 * mean_se[i])) for i, d in enumerate(descs)]
    entries += [(f"cov_{descs[i].label}_{descs[j].label}", analytic_cov[i, j],
                 run.mi_cov[i, j], cov_se[i, j],
                 max(0.10 * abs(analytic_cov[i, j]), 3.0 * cov_se[i, j]))
                for i in range(len(descs)) for j in range(i, len(descs))]
    header = ["quantity", "analytic", "empirical", "stderr", "abs_diff", "tol", "pass"]
    rows = []
    for label, analytic, empirical, se, tol in entries:
        diff = abs(analytic - empirical)
        rows.append([label, _fmt(analytic), _fmt(empirical), _fmt(se), _fmt(diff), _fmt(tol),
                     "1" if diff <= tol else "0"])
    _write_csv(os.path.join(args.out, "mc_validate.csv"), header, rows)
    return 0


def _trace_rows(trace) -> list:
    return [
        [
            str(int(row.iteration)),
            _fmt(row.objective),
            _fmt(row.step_size),
            _fmt(row.grad_norm),
            _fmt(row.feasibility_violation),
        ]
        for row in trace
    ]


_TRACE_HEADER = [
    "iter",
    "objective_nats",
    "step_size",
    "grad_norm",
    "feasibility_violation",
]


def _cmd_optimize_esr(args, scenario: Scenario) -> int:
    stats = scenario.stats
    state = algorithm2_ao(stats, scenario.p_budget, *scenario.precoders())
    _write_csv(
        os.path.join(args.out, "optimize_esr_trace.csv"),
        _TRACE_HEADER,
        _trace_rows(state.trace),
    )
    result = {
        "an": scenario.config.an,
        "model_kind": stats.model_kind,
        "iterations": len(state.trace),
        "esr_nats": float(state.esr_nats),
        "esr_bits": float(state.esr_bits),
        "theta": [float(t) for t in state.theta],
        "p_w_eigenvalues": _eigenvalues(state.P_W),
        "p_v_eigenvalues": _eigenvalues(state.P_V),
    }
    _write_json(os.path.join(args.out, "optimize_esr_result.json"), result)
    return 0


def _cmd_optimize_sop(args, scenario: Scenario) -> int:
    stats = scenario.stats
    if scenario.config.an:
        raise ModelError(
            "optimize-sop handles the wiretap model only; set power.split_v to 0 "
            "and leave power.an unset or false"
        )
    P_W, _ = scenario.precoders()
    result = optimize_sop(stats, P_W, r_bits=args.r_min)
    _write_csv(
        os.path.join(args.out, "optimize_sop_trace.csv"),
        _TRACE_HEADER,
        _trace_rows(result.trace),
    )
    out = {
        "model_kind": stats.model_kind,
        "r_bits": float(args.r_min),
        "sop": float(result.prob),
        "converged": bool(result.converged),
        "iterations": len(result.trace),
        "theta": [float(t) for t in result.theta],
        "p_w_eigenvalues": _eigenvalues(P_W),
        "p_v_eigenvalues": [0.0] * stats.M,
    }
    _write_json(os.path.join(args.out, "optimize_sop_result.json"), out)
    return 0


def _cmd_sweep(args, scenario: Scenario) -> int:
    if scenario.stats.K_eves == 1 and args.trials > 0:
        raise ConfigError("--trials: a sweep with one eavesdropper is analytic only; "
                          f"pass 0, got {args.trials}")
    grid_bits = _threshold_grid(args)
    powers = scenario.config.sweep_P_dbm
    # the channel statistics do not depend on the power: only the precoders
    # change from one sweep point to the next
    pairs = [scenario.precoders(p_dbm) for p_dbm in powers]
    analytic, mvn_se = _sop_curve(scenario.stats, pairs, grid_bits, args.trials, args.seed)
    header = ["P_dbm", "R_bits", "sop_analytic"] + (["stderr"] if mvn_se is not None else [])
    rows = []
    for j, p_dbm in enumerate(powers):
        for i, r in enumerate(grid_bits):
            row = [_fmt(p_dbm), _fmt(r), _fmt(analytic[j][i])]
            if mvn_se is not None:
                row.append(_fmt(mvn_se[j][i]))
            rows.append(row)
    _write_csv(os.path.join(args.out, "sop_sweep.csv"), header, rows)
    return 0


_COMMANDS = {
    "esr": _cmd_esr,
    "sop": _cmd_sop,
    "mc-validate": _cmd_mc_validate,
    "optimize-esr": _cmd_optimize_esr,
    "optimize-sop": _cmd_optimize_sop,
    "sweep": _cmd_sweep,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later
    call in the process."""
    parser = argparse.ArgumentParser(
        prog="irs-secrecy",
        description="Secrecy-rate and outage analysis for reflecting-surface-aided "
        "MIMO wiretap channels.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
        ("esr", "ergodic secrecy rate at the configured precoders"),
        ("sop", "secrecy outage probability over a threshold grid"),
        ("mc-validate", "analytic means/covariances against Monte-Carlo"),
        ("optimize-esr", "alternating covariance/phase secrecy-rate ascent"),
        ("optimize-sop", "outage-probability phase descent"),
        ("sweep", "outage curves for a list of transmit powers"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="scenario JSON path")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        sp.add_argument(
            "--trials",
            type=int,
            default=0,
            help="Monte-Carlo trials: with several eavesdroppers the "
            "worst-case sample count of sop/sweep (0: 10^6); with one, sop's "
            "empirical-curve trials (0: analytic only), and sweep takes only 0; "
            "mc-validate's trials (0: 20000)",
        )
        sp.add_argument(
            "--r-min", type=float, default=0.0, help="threshold grid start, bits"
        )
        sp.add_argument(
            "--r-max", type=float, default=8.0, help="threshold grid end, bits"
        )
        sp.add_argument(
            "--r-steps", type=int, default=40, help="threshold grid points"
        )
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        for flag, value in (("--seed", args.seed), ("--trials", args.trials)):
            if value < 0:
                raise ConfigError(f"{flag}: must be nonnegative, got {value}")
        if args.seed >= 2**64:  # the samplers key a uint64 Philox on it
            raise ConfigError(f"--seed: must be below 2**64, got {args.seed}")
        for flag, value in (("--r-min", args.r_min), ("--r-max", args.r_max)):
            if not np.isfinite(value):
                raise ConfigError(f"{flag}: must be a finite number, got {value}")
        thread_budget()  # a malformed IRS_SECRECY_THREADS fails before --out is made
        scenario = build_scenario(load_config(args.config), seed=args.seed)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot make the directory {args.out}: "
                              f"{exc.strerror}") from None
        return _COMMANDS[args.subcommand](args, scenario)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error [{args.subcommand}, config {args.config}]: out of memory ({exc})",
              file=sys.stderr)
        return 1
    except (
        ModelError,
        ConvergenceError,
        InvalidCovarianceError,
        DegenerateRegimeError,
    ) as exc:
        print(
            f"error [{args.subcommand}, config {args.config}]: {exc}",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
