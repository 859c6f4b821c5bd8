"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import irs_secrecy.cli as cli  # noqa: E402

import check  # noqa: E402
import jobs  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402


def _job(workload, prefix):
    """First catalogue job whose key starts with ``prefix`` and that has a
    reference (it succeeded at the reference commit)."""
    ref = check.load_reference(os.path.join(BENCH, "reference", f"{workload}.json"))
    for job in jobs.catalogue(workload):
        if job.key.startswith(prefix) and ref[job.key] is not None:
            return job, ref[job.key]
    raise LookupError(prefix)


def ws_for(tmp_path, workload):
    return runner.Workspace(str(tmp_path / workload), workload)


@pytest.fixture
def ws(tmp_path):
    return ws_for(tmp_path, "curves")


# -- job generation ---------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_one_seed_generates_the_same_job_list(workload):
    n = 3 * jobs.round_size(workload)
    first = jobs.first_jobs(workload, 11, n)
    assert first == jobs.first_jobs(workload, 11, n)
    assert first != jobs.first_jobs(workload, 12, n)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_every_drawable_job_has_a_reference_entry(workload):
    ref = check.load_reference(os.path.join(BENCH, "reference", f"{workload}.json"))
    keys = [j.key for j in jobs.catalogue(workload)]
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(ref)
    drawn = jobs.first_jobs(workload, 3, 5 * jobs.round_size(workload))
    assert {j.key for j in drawn} <= set(keys)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_no_timed_job_failed_at_the_reference_commit_and_every_probe_did(workload):
    ref = check.load_reference(os.path.join(BENCH, "reference", f"{workload}.json"))
    probes = {j.key for j in jobs.probes(workload)}
    drawn = {j.key for j in jobs.first_jobs(workload, 3, 5 * jobs.round_size(workload))}
    assert not probes & drawn
    assert all(ref[key] is not None for key in drawn)
    assert all(ref[key] is None for key in probes)


def test_every_round_has_the_same_cells():
    size = jobs.round_size("mc")
    drawn = jobs.first_jobs("mc", 5, 3 * size)
    cells = [[j.key.split("/")[1] for j in drawn[r * size:(r + 1) * size]] for r in range(3)]
    assert cells[0] == cells[1] == cells[2]


# -- output checker ---------------------------------------------------------

def test_checker_passes_a_fresh_output_and_flags_a_perturbed_copy(ws, tmp_path):
    job, ref = _job("curves", "curves/esr-lbi-K1-M4L8N2/")
    r = runner.run_job(cli, 0, job, ws.config(job), ws.out_dir("a", 0))
    assert r.rc == 0
    assert check.check_job(job.subcommand, r.rc, r.out_dir, ref) == []

    bad = str(tmp_path / "perturbed")
    shutil.copytree(r.out_dir, bad)
    path = os.path.join(bad, "esr.json")
    with open(path) as fh:
        data = json.load(fh)
    data["esr_nats"] *= 1.0 + 1e-4
    with open(path, "w") as fh:
        json.dump(data, fh)
    reasons = check.check_job(job.subcommand, 0, bad, ref)
    assert any("esr_nats" in reason for reason in reasons)


def test_checker_flags_sampled_values_and_failed_validation_rows(tmp_path):
    job, ref = _job("mc", "mc/mc-validate-lbi-wiretap-M4L8N2/")
    w = ws_for(tmp_path, "mc")
    r = runner.run_job(cli, 0, job, w.config(job), w.out_dir("a", 0))
    assert check.check_job(job.subcommand, r.rc, r.out_dir, ref) == []
    path = os.path.join(r.out_dir, "mc_validate.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    emp, se = float(row[header.index("empirical")]), float(row[header.index("stderr")])
    row[header.index("empirical")] = format(emp + 4.0 * se, ".12e")
    row[header.index("pass")] = "0"
    lines[1] = ",".join(row)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    reasons = check.check_job(job.subcommand, 0, r.out_dir, ref)
    assert any("stderr" in reason for reason in reasons)
    assert any("pass = 0" in reason for reason in reasons)


def test_a_job_without_reference_may_fail_but_not_regress(ws):
    assert check.check_job("esr", 1, ws.out_dir("none", 0), None) == []
    crashed = check.check_job("esr", "crash", ws.out_dir("none", 0), None, "Traceback")
    assert crashed and "uncaught exception" in crashed[0]
    reasons = check.check_job("esr", 1, ws.out_dir("none", 0), {"esr.json": {}}, "boom")
    assert reasons and "reference succeeded" in reasons[0]


# -- tracing ----------------------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a, as spans from two threads can
        S("a.child", 2.0, 3.0, 1, 0),
        S("late", 9.0, 12.0, 0, 0),  # clipped to its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])
    assert tracing.covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_layer_metrics_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("cli.main", 0.0, 10.0, -1, 0),
        S("optimize.algorithm2_ao", 1.0, 9.0, 0, 0, {"rounds": 3}),
        S("fixedpoint.solve", 2.0, 3.0, 1, 0, {"iters": 5, "failed": 0}),
        S("fixedpoint.solve", 4.0, 6.0, 1, 0, {"iters": 10_000, "failed": 1}),
        S("fixedpoint.solve", 9.5, 10.0, 0, 0, {"iters": 7, "failed": 0}),
    ]
    m = tracing.layer_metrics(spans)
    assert (m["fixedpoint.solves"], m["fixedpoint.iters_total"], m["fixedpoint.iters_p50"],
            m["fixedpoint.solve_failures"]) == (3, 10_012, 7, 1)
    assert m["fixedpoint.solve_busy_ms"] == pytest.approx(3500.0)
    assert m["optimize.solves_per_ao_run"] == 2 and m["optimize.ao_rounds"] == 3
    assert m["cli.self_ms"] == pytest.approx(1500.0)


def test_traced_and_untraced_runs_write_identical_files(tmp_path):
    picks = [_job("curves", "curves/sop-lbi-K2-M4L8N2/")[0],
             _job("mc", "mc/sop-lbi-wiretap-M4L8N2/")[0]]
    originals = {name: getattr(cli, name) for name in ("main", "build_scenario", "run_mc")}
    counters = []
    for rep in range(2):
        tracer = tracing.Tracer()
        for i, job in enumerate(picks):
            w = ws_for(tmp_path / f"r{rep}", job.key.split("/")[0])
            plain = runner.run_job(cli, i, job, w.config(job), w.out_dir("plain", i))
            with tracer:
                tracer.job = i
                traced = runner.run_job(cli, i, job, w.config(job), w.out_dir("traced", i))
            assert plain.rc == traced.rc == 0
            assert runner.output_bytes(plain.out_dir) == runner.output_bytes(traced.out_dir)
        counters.append(tracing.job_counters(tracer.spans))
        names = {s.name for s in tracer.spans}
        assert {"cli.main", "scenario.build_scenario", "fixedpoint.solve",
                "secrecy.sop_multi_eve", "mcoracle.run_mc"} <= names
    assert {name: getattr(cli, name) for name in originals} == originals
    assert counters[0] == counters[1]
    assert counters[0][1]["mc_trials"] > 0 and counters[0][0]["mvn_samples"] > 0


def test_counters_are_compared_by_job_key_across_runs(tmp_path):
    import run

    path = str(tmp_path / "counters" / "mc-code.json")
    assert run._compare_counters({"a": {"iters": 3}}, path) == ([], 0)
    assert run._compare_counters({"a": {"iters": 3}, "b": {"iters": 1}}, path) == ([], 1)
    mismatches, compared = run._compare_counters({"b": {"iters": 2}}, path)
    assert compared == 1 and len(mismatches) == 1 and mismatches[0].startswith("b:")


# -- entry point ------------------------------------------------------------

def test_benchmark_json_lists_the_per_layer_metrics_the_run_reports():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = [(m["name"], m["unit"], m["better"]) for m in json.load(fh)["per_layer"]]
    assert listed == [(name, run._unit(name), better) for name, better in run.PER_LAYER]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "curves", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
