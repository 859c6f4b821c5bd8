"""Running jobs in-process, back to back.

A job is one call of ``irs_secrecy.cli.main(argv)``. Its stdout, stderr and
Python warnings are captured so that the benchmark's own output stays clean;
warning categories are counted per job.
"""

from __future__ import annotations

import contextlib
import io
import os
import time
import traceback
import warnings
from dataclasses import dataclass, field

import check
import jobs


@dataclass
class JobResult:
    index: int
    job: jobs.Job
    rc: object  # exit code, or "crash" for an exception the CLI let through
    seconds: float
    stderr: str
    out_dir: str
    warnings: dict = field(default_factory=dict)
    reasons: list = field(default_factory=list)  # failed output checks

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.reasons)


def _warning_tag(w) -> str:
    if w.category.__name__ == "CovarianceValidityWarning":
        return "covariance_validity"
    if "line search stalled" in str(w.message):
        return "line_search_stall"
    return w.category.__name__


def run_job(cli, index: int, job: jobs.Job, config_path: str, out_dir: str) -> JobResult:
    """Run one job through ``cli.main``, looked up at call time so that a
    traced ``main`` is used when one is installed."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            rc = cli.main(job.cli_argv(config_path, out_dir))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the CLI promises no traceback; record it as a failure
            rc = "crash"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    counts: dict = {}
    for w in caught:
        tag = _warning_tag(w)
        counts[tag] = counts.get(tag, 0) + 1
    return JobResult(index, job, rc, seconds, err.getvalue(), out_dir, counts)


class Workspace:
    """Config files of the whole catalogue, written up front, and per-job
    output directories under one root."""

    def __init__(self, root: str, workload: str):
        self.root = root
        self.configs = os.path.join(root, "configs")
        os.makedirs(self.configs, exist_ok=True)
        self._paths = {job.key: jobs.write_config(job, self.configs)
                       for job in jobs.catalogue(workload)}

    def config(self, job: jobs.Job) -> str:
        return self._paths[job.key]

    def out_dir(self, tag: str, index: int) -> str:
        return os.path.join(self.root, tag, f"{index:05d}")


def run_for(cli, stream, ws: Workspace, tag: str, seconds: float) -> tuple:
    """Run jobs from ``stream`` until ``seconds`` have passed; the job running
    at the deadline completes. Returns (results, wall seconds)."""
    results = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        job = next(stream)
        i = len(results)
        results.append(run_job(cli, i, job, ws.config(job), ws.out_dir(tag, i)))
    return results, time.perf_counter() - start


def check_results(results, reference: dict) -> None:
    """Fill ``reasons`` of every result from the output checker."""
    for r in results:
        if r.job.key not in reference:
            r.reasons = [f"no reference entry for {r.job.key}"]
            continue
        r.reasons = check.check_job(r.job.subcommand, r.rc, r.out_dir,
                                    reference[r.job.key], r.stderr)


def output_bytes(out_dir: str) -> dict:
    """{file name: bytes} of one job's output directory."""
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out
