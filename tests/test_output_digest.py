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


def test_compare_names_the_largest_change_of_each_column(tmp_path):
    out = tmp_path / "digest.json"
    run = _tool("run", ROOT, str(out), "--job", JOBS[1])
    assert run.returncode == 0, run.stderr
    digest = json.loads(out.read_text())
    columns = digest[JOBS[1]]["columns"]["sop.csv"]
    assert sorted(columns) == ["R_bits", "sop_analytic"]
    assert len(columns["R_bits"]) == len(columns["sop_analytic"]) > 1

    changed = json.loads(out.read_text())
    record = changed[JOBS[1]]
    record["files"]["sop.csv"] = "0" * 64
    sop = record["columns"]["sop.csv"]["sop_analytic"]
    k = max(range(len(sop)), key=lambda i: abs(sop[i]))
    sop[k] *= 1.0 + 2e-9
    other = tmp_path / "changed.json"
    other.write_text(json.dumps(changed))
    differ = _tool("compare", str(out), str(other))
    assert differ.returncode == 1
    assert f"{JOBS[1]}: sop.csv differs (sop_analytic 2e-09)" in differ.stdout
    assert "largest change: sop.csv sop_analytic 2e-09" in differ.stdout
    assert "R_bits" not in differ.stdout  # a column that did not move is not listed
