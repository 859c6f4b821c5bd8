"""Output digests of the benchmark catalogue, for byte-identity checks.

``run`` runs every catalogue and probe job of ``bench/jobs.catalogue`` (or
only the jobs named with ``--job``) in-process through ``bench/runner.run_job``
against the ``src/`` of a given source tree, and writes one JSON object

    {job key: {"rc": exit code, "files": {file name: sha256},
               "reasons": [output-check failures from bench/check.py]}}

``compare`` reads two such files and exits 1 when any job's exit code or
output files differ, or when the two cover different jobs.

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
                out[job.key] = {"rc": result.rc, "files": files, "reasons": result.reasons}
                shutil.rmtree(result.out_dir, ignore_errors=True)
    missing = sorted(set(keys or ()) - set(out))
    if missing:
        raise SystemExit(f"not in the catalogue: {', '.join(missing)}")
    return out


def differences(a: dict, b: dict) -> list:
    """One line per job whose exit code or output files differ, or that
    only one digest covers."""
    lines = [f"{key}: only in the first digest" for key in a if key not in b]
    lines += [f"{key}: only in the second digest" for key in b if key not in a]
    for key in a:
        if key not in b:
            continue
        if a[key]["rc"] != b[key]["rc"]:
            lines.append(f"{key}: exit code {a[key]['rc']!r} -> {b[key]['rc']!r}")
        fa, fb = a[key]["files"], b[key]["files"]
        for name in sorted(set(fa) | set(fb)):
            if fa.get(name) != fb.get(name):
                lines.append(f"{key}: {name} differs")
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
    lines = differences(a, b)
    for line in lines:
        print(line)
    print(f"{len(a)} and {len(b)} jobs; {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
