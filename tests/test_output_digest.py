"""Smoke test of ``tools/output_digest.py`` on two catalogue jobs."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "output_digest.py")
JOBS = ("curves/esr-lbi-K1-M4L8N2/P0-sv0-zeros-s0", "curves/sop-lbi-K1-M4L8N2/P40-sv0-zeros-s16")


def _tool(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True,
                          timeout=60)


def _tree_listing() -> set:
    return {os.path.join(d, f) for top in ("src", "bench", "tools")
            for d, _, files in os.walk(os.path.join(ROOT, top)) for f in files}


def test_digest_of_two_jobs_and_compare(tmp_path):
    before = _tree_listing()
    out = tmp_path / "digest.json"
    argv = ["run", ROOT, str(out)]
    for key in JOBS:
        argv += ["--job", key]
    run = _tool(*argv)
    assert run.returncode == 0, run.stderr
    assert _tree_listing() == before  # no bytecode, configs or outputs in the tree

    digest = json.loads(out.read_text())
    assert sorted(digest) == sorted(JOBS)
    for record in digest.values():
        assert record["rc"] == 0 and record["reasons"] == []
        assert record["files"] and all(len(h) == 64 for h in record["files"].values())

    same = _tool("compare", str(out), str(out))
    assert same.returncode == 0, same.stdout

    changed = json.loads(out.read_text())
    name = sorted(changed[JOBS[0]]["files"])[0]
    changed[JOBS[0]]["files"][name] = "0" * 64
    changed[JOBS[1]]["rc"] = 1
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(changed))
    differ = _tool("compare", str(out), str(other))
    assert differ.returncode == 1
    assert f"{JOBS[0]}: {name} differs" in differ.stdout
    assert f"{JOBS[1]}: exit code 0 -> 1" in differ.stdout
