"""Record the reference outputs of every catalogue job.

Runs each job of the chosen workloads once, in-process, and writes
``bench/reference/<workload>.json``: per job key, the checked part of its
outputs, or ``null`` when the job exits nonzero (it then has no reference).
Run from the repository root, on the commit whose outputs become the
reference:

    python3 bench/record_reference.py [curves] [mc] [optimize]
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import irs_secrecy.cli as cli  # noqa: E402

import check  # noqa: E402
import jobs  # noqa: E402
import runner  # noqa: E402
from environment import git_sha  # noqa: E402


def record(workload: str, work: str) -> dict:
    ws = runner.Workspace(os.path.join(work, workload), workload)
    entries = {}
    for i, job in enumerate(jobs.catalogue(workload)):
        r = runner.run_job(cli, i, job, ws.config(job), ws.out_dir("ref", i))
        if r.rc != 0:
            entries[job.key] = None
            print(f"{job.key}: exit {r.rc} ({r.stderr.strip()[-120:]})")
            continue
        reasons = check.check_job(job.subcommand, 0, r.out_dir, None)
        if reasons:
            print(f"{job.key}: fails the generic checks: {reasons}")
        entries[job.key] = check.reference_of(
            job.subcommand, check.read_outputs(job.subcommand, r.out_dir))
        print(f"{job.key}: ok {1e3 * r.seconds:.0f} ms")
    return entries


def main(argv: list) -> int:
    workloads = argv or list(jobs.WORKLOADS)
    work = os.path.join(ROOT, ".bench_work", "record")
    os.makedirs(os.path.join(BENCH, "reference"), exist_ok=True)
    try:
        for workload in workloads:
            doc = {"source_commit": git_sha(ROOT), "rtol": check.RTOL, "atol": check.ATOL,
                   "jobs": record(workload, work)}
            path = os.path.join(BENCH, "reference", f"{workload}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=0, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
