"""Benchmark of the irs-secrecy toolkit: CLI job throughput per workload.

One job is one call of ``irs_secrecy.cli.main(argv)`` on a generated scenario
file. Jobs run in-process, back to back, from one single-threaded client
(a closed loop). Usage, from the repository root:

    python3 bench/run.py --workload curves|mc|optimize --seed N \
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing installed:
set-up (import) time, job throughput, median job latency and peak memory.
``--trace 1`` runs the first round of the workload's jobs twice, untraced and
then with the layer wrappers of ``tracing.py`` installed, and reports
per-layer metrics, the tracing overhead and whether the two passes wrote
byte-identical files. Every job's outputs are checked against
``bench/reference/``. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# One BLAS thread, set before numpy loads (children inherit it). On these
# small matrices a second OpenBLAS thread gave the same throughput for twice
# the CPU, and its spinning made every run depend on the host's second vCPU.
# The program's own Monte-Carlo pool keeps its default size.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_program() -> float:
    """Import ``irs_secrecy.cli`` from the tree's ``src``; seconds taken.
    Runs before anything heavy is imported into this process."""
    if not os.path.isfile(os.path.join(SRC, "irs_secrecy", "cli.py")):
        sys.exit(f"bench: no program at {os.path.join(SRC, 'irs_secrecy')}; "
                 "run from the root of a full source tree")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import irs_secrecy.cli  # noqa: F401
    return time.perf_counter() - start


IMPORT_SECONDS = _import_program()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import irs_secrecy.cli as cli  # noqa: E402
from irs_secrecy import mcoracle  # noqa: E402

sys.path.insert(0, BENCH)
import check  # noqa: E402
import environment  # noqa: E402
import jobs  # noqa: E402
import runner  # noqa: E402
import tracing  # noqa: E402

SETUP_SUBPROCESSES = 6
_IMPORT_SNIPPET = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                   "t = time.perf_counter(); import irs_secrecy.cli; "
                   "print(repr(time.perf_counter() - t))")

# per-layer metrics in the JSON line, with the direction that is better. A
# layer that a workload never reaches reads 0 there.
PER_LAYER = (
    ("scenario.build_scenario.calls", "lower"),
    ("scenario.build_scenario.busy_ms", "lower"),
    ("scenario.build_correlation_matrix.calls", "lower"),
    ("scenario.build_correlation_matrix.busy_ms", "lower"),
    ("scenario.quadrature_entries", "lower"),
    ("fixedpoint.solves", "lower"),
    ("fixedpoint.solve_busy_ms", "lower"),
    ("fixedpoint.iters_total", "lower"),
    ("fixedpoint.iters_p50", "lower"),
    ("fixedpoint.iters_max", "lower"),
    ("fixedpoint.solve_failures", "lower"),
    ("fixedpoint.high_power_failures", "lower"),
    ("cltcov.joint_cov.calls", "lower"),
    ("cltcov.joint_cov.busy_ms", "lower"),
    ("cltcov.validity_warnings", "lower"),
    ("secrecy.esr.calls", "lower"),
    ("secrecy.esr.self_ms", "lower"),
    ("secrecy.sop_multi_eve.calls", "lower"),
    ("secrecy.sop_multi_eve.busy_ms", "lower"),
    ("secrecy.sop_multi_eve.samples", "lower"),
    ("mcoracle.run_mc.calls", "lower"),
    ("mcoracle.run_mc.busy_ms", "lower"),
    ("mcoracle.run_mc.trials", "lower"),
    ("mcoracle.us_per_trial", "lower"),
    ("mcoracle.threads", "higher"),
    ("mcoracle.us_per_trial_1thread", "lower"),
    ("optimize.ao_rounds", "lower"),
    ("optimize.solves_per_ao_run", "lower"),
    ("optimize.signed_an_mean.calls", "lower"),
    ("optimize.signed_an_mean.busy_ms", "lower"),
    ("optimize.solve_inner_p6.calls", "lower"),
    ("optimize.solve_inner_p6.busy_ms", "lower"),
    ("optimize.esr_phase_gradient.busy_ms", "lower"),
    ("optimize.sop_phase_gradient.calls", "lower"),
    ("optimize.sop_phase_gradient.busy_ms", "lower"),
    ("optimize.sop_ls_accept_ratio", "higher"),
    ("optimize.line_search_stalls", "lower"),
    ("cli.self_ms", "lower"),
    ("trace.overhead_pct", "lower"),
    ("bench.counter_mismatches", "lower"),
)

# order-of-magnitude baselines from ROADMAP item 1 (2-core box, no pinning)
BASELINES = (
    ("esr_an / esr_wiretap at M8L16 (ms per call)", "3-4"),
    ("build_correlation_matrix(n=64) (ms per call)", "about 137"),
    ("algorithm2_ao, lbi M8L16 (ms per run)", "about 1850"),
    ("mc-validate job scaled to 20k trials (ms)", "2100-2800"),
)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if "us_per_trial" in name:
        return "us"
    if name.endswith("_pct"):
        return "%"
    return "1" if name.endswith("_ratio") else "count"


def _time_import_subprocess() -> float:
    out = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET, SRC], cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _host_probe() -> dict:
    """Median wall and CPU milliseconds of a fixed pure-Python loop. It is
    printed next to the metrics and never folded into them: a slower probe
    means a slower host, and wall above CPU means the thread waited for a
    CPU that the host gave to someone else."""
    wall, cpu = [], []
    for _ in range(5):
        w, c = time.perf_counter(), time.thread_time()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        wall.append(1e3 * (time.perf_counter() - w))
        cpu.append(1e3 * (time.thread_time() - c))
    return {"wall_ms": statistics.median(wall), "cpu_ms": statistics.median(cpu)}


def _is_m8l16(job: jobs.Job) -> bool:
    dims = job.config["dimensions"]
    return (dims["M"], dims["L"]) == (8, 16)


def _report_failures(results) -> None:
    for r in results:
        if r.reasons:
            for reason in r.reasons:
                print(f"CHECK FAILED job {r.index} {r.job.key}: {reason}")
        elif r.rc != 0:
            last = r.stderr.strip().splitlines()[-1] if r.stderr.strip() else ""
            print(f"job failed (no reference at this job; known failure) "
                  f"{r.index} {r.job.key}: exit {r.rc}: {last}")


def _print_metric(name: str, value, unit: str) -> None:
    print(f"{name} = {value:.6g} {unit}" if isinstance(value, float)
          else f"{name} = {value} {unit}")


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(args, ws, reference) -> dict:
    # half the import samples before the timed loop and half after, so that
    # a slow stretch of the machine does not skew all of them
    half = SETUP_SUBPROCESSES // 2
    setup = [IMPORT_SECONDS] + [_time_import_subprocess() for _ in range(half)]
    warm_job = jobs.first_jobs(args.workload, args.seed, 1)[0]
    warm = runner.run_job(cli, 0, warm_job, ws.config(warm_job), ws.out_dir("warmup", 0))
    stream = jobs.job_stream(args.workload, args.seed)
    cpu_start = time.process_time()
    results, wall = runner.run_for(cli, stream, ws, "timed", args.seconds)
    cpu = time.process_time() - cpu_start
    setup += [_time_import_subprocess() for _ in range(SETUP_SUBPROCESSES - half)]
    runner.check_results([warm] + results, reference)

    lat_ms = [1e3 * r.seconds for r in results]
    failed = sum(r.failed for r in results)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(results) / wall, "jobs/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# end-to-end: workload {args.workload}, seed {args.seed}, "
          f"{len(results)} timed jobs in {wall:.2f} s (process CPU {cpu:.2f} s, "
          f"all threads) after 1 warm-up job")
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    print(f"setup_s samples = {[round(s, 4) for s in setup]}")
    print(f"job_p50_ms samples = {len(lat_ms)}")
    if len(lat_ms) >= 100:
        _print_metric("job_p90_ms", statistics.quantiles(lat_ms, n=10)[8], "ms")
    else:
        print(f"job_p90_ms = not reported ({len(lat_ms)} jobs < 100)")
    _print_metric("failed_frac", failed / len(results), "1")
    by_type: dict = {}
    for r in results:
        by_type.setdefault(r.job.subcommand, []).append(1e3 * r.seconds)
    for sub, vals in sorted(by_type.items()):
        print(f"  {sub}: {len(vals)} jobs, median {statistics.median(vals):.1f} ms, "
              f"range {min(vals):.1f}-{max(vals):.1f} ms")
    _report_failures([warm] + results)
    return {
        "correct": not any(r.reasons for r in [warm] + results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {"failed_frac": failed / len(results), "setup_samples": setup,
                  "timed_wall_s": wall, "timed_cpu_s": cpu,
                  "jobs": [{"key": r.job.key, "rc": str(r.rc), "ms": 1e3 * r.seconds,
                            "reasons": r.reasons} for r in results]},
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _retime_one_thread(calls) -> float:
    """Seconds to re-run the recorded ``run_mc`` inputs with one thread."""
    old = os.environ.get("IRS_SECRECY_THREADS")
    os.environ["IRS_SECRECY_THREADS"] = "1"
    try:
        start = time.perf_counter()
        for call_args, call_kwargs in calls:
            mcoracle.run_mc(*call_args, **call_kwargs)
        return time.perf_counter() - start
    finally:
        if old is None:
            del os.environ["IRS_SECRECY_THREADS"]
        else:
            os.environ["IRS_SECRECY_THREADS"] = old


def _counters(spans, results) -> dict:
    """Counters per catalogue job key; the key fixes every input of a job."""
    per_job = tracing.job_counters(spans)
    out = {}
    for r in results:
        c = dict(per_job.get(r.index, {}))
        c.update({f"warnings.{k}": v for k, v in sorted(r.warnings.items())})
        out[r.job.key] = c
    return out


def _compare_counters(counters: dict, path: str) -> tuple:
    """(mismatches, jobs compared) against every earlier traced run of the
    same code and workload, whatever its seed; jobs not seen before are added
    to the file."""
    earlier = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
    seen = [job for job in counters if job in earlier]
    mismatches = [f"{job}: {earlier[job]} then {counters[job]}" for job in seen
                  if earlier[job] != counters[job]]
    merged = {**counters, **earlier}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=1, sort_keys=True)
    return mismatches, len(seen)


def _cross_check(spans, job_list, results) -> list:
    m8l16 = {i for i, j in enumerate(job_list) if _is_m8l16(j)}
    esr = [s.duration for s in spans if s.name == "secrecy.esr" and s.job in m8l16]
    corr = [s.duration for s in spans if s.name == "scenario.build_correlation_matrix"
            and s.attrs.get("entries") == 64 * 36001]
    ao = [s.duration for s in spans if s.name == "optimize.algorithm2_ao" and s.job in m8l16]
    mcv = []
    for r in results:
        if r.job.subcommand == "mc-validate" and r.rc == 0:
            trials = int(r.job.argv[r.job.argv.index("--trials") + 1])
            mcv.append(r.seconds * 20000 / trials)
    rows = []
    for (label, base), vals in zip(BASELINES, (esr, corr, ao, mcv)):
        got = f"{1e3 * statistics.median(vals):.1f} (n={len(vals)})" if vals else "not exercised"
        rows.append((label, got, base))
    return rows


def traced_run(args, ws, reference, results_dir) -> dict:
    job_list = jobs.first_jobs(args.workload, args.seed, jobs.round_size(args.workload))
    warm = runner.run_job(cli, 0, job_list[0], ws.config(job_list[0]), ws.out_dir("warmup", 0))
    # each job runs untraced and traced back to back, in alternating order, so
    # that the machine's speed drifting during the run cancels out of the
    # overhead; the one-thread re-time of its run_mc calls follows the traced run
    tracer = tracing.Tracer()
    plain, traced, one_thread_s = [], [], 0.0
    for i, job in enumerate(job_list):
        path = ws.config(job)
        for tag in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            if tag == "plain":
                plain.append(runner.run_job(cli, i, job, path, ws.out_dir(tag, i)))
            else:
                first_call = len(tracer.calls)
                tracer.job = i
                with tracer:
                    traced.append(runner.run_job(cli, i, job, path, ws.out_dir(tag, i)))
                one_thread_s += _retime_one_thread(tracer.calls[first_call:])
    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)

    runner.check_results([warm] + plain + traced, reference)
    for p, t in zip(plain, traced):
        if runner.output_bytes(p.out_dir) != runner.output_bytes(t.out_dir):
            t.reasons.append("traced outputs differ from the untraced run's")

    layers = tracing.layer_metrics(tracer.spans)
    trials = layers["mcoracle.run_mc.trials"]
    layers["mcoracle.threads"] = mcoracle.thread_budget() if trials else 0
    layers["mcoracle.us_per_trial_1thread"] = 1e6 * one_thread_s / trials if trials else 0.0
    layers["cltcov.validity_warnings"] = sum(r.warnings.get("covariance_validity", 0)
                                             for r in traced)
    layers["optimize.line_search_stalls"] = sum(r.warnings.get("line_search_stall", 0)
                                                for r in traced)
    layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s

    # known-defect probes: outside the timed stream and outside attempted and
    # failed; they are checked like any job (a crash is a check failure)
    probe_results = [runner.run_job(cli, i, job, ws.config(job), ws.out_dir("probe", i))
                     for i, job in enumerate(jobs.probes(args.workload))]
    runner.check_results(probe_results, reference)
    layers["fixedpoint.high_power_failures"] = sum(r.rc != 0 for r in probe_results)

    counters = _counters(tracer.spans, traced)
    code = environment.tree_hash(SRC, BENCH)[:16]
    mismatches, compared = _compare_counters(counters, os.path.join(
        results_dir, "counters", f"{args.workload}-{code}.json"))
    layers["bench.counter_mismatches"] = len(mismatches)

    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-spans.json"),
              "w", encoding="utf-8") as fh:
        json.dump(tracing.spans_as_records(tracer.spans), fh)

    print(f"# traced run: workload {args.workload}, seed {args.seed}, {len(job_list)} jobs "
          f"(one round), untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"{len(tracer.spans)} spans")
    for name, value in layers.items():
        _print_metric(name, value, _unit(name))
    print("# cross-check against the ROADMAP re-anchor baselines (orders of magnitude)")
    for label, got, base in _cross_check(tracer.spans, job_list, traced):
        print(f"  {label}: measured {got}, baseline {base}")
    print(f"counters compared with earlier traced runs of this code: {compared} "
          f"of {len(counters)} jobs, {len(mismatches)} mismatches")
    for m in mismatches:
        print(f"COUNTER MISMATCH {m}")
    identical = all("traced outputs differ" not in " ".join(t.reasons) for t in traced)
    print(f"traced outputs byte-identical to untraced: {identical}")
    _report_failures([warm] + plain + traced + probe_results)

    return {
        "correct": not any(r.reasons for r in [warm] + plain + traced + probe_results),
        "attempted": len(traced),
        "failed": sum(r.failed for r in traced),
        "metrics": {name: {"value": layers[name], "unit": _unit(name)}
                    for name, _ in PER_LAYER},
        "extra": {"layers": layers, "untraced_s": untraced_s, "traced_s": traced_s,
                  "counters": counters, "counter_mismatches": mismatches,
                  "counters_compared": compared},
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    reference = check.load_reference(os.path.join(BENCH, "reference", f"{args.workload}.json"))

    work = os.path.join(ROOT, ".bench_work")
    results_dir = os.path.join(work, "results")
    os.makedirs(results_dir, exist_ok=True)
    run_dir = os.path.join(work, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    probe = {"start": _host_probe()}
    try:
        ws = runner.Workspace(run_dir, args.workload)
        if args.trace:
            result = traced_run(args, ws, reference, results_dir)
        else:
            result = end_to_end(args, ws, reference)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    probe["end"] = _host_probe()
    print("host_probe (fixed pure-Python loop, not folded into any metric): " + ", ".join(
        f"{when} wall {p['wall_ms']:.2f} ms cpu {p['cpu_ms']:.2f} ms" for when, p in probe.items()))
    result["extra"]["host_probe"] = probe

    env = environment.describe(ROOT)
    print("# environment: " + json.dumps(env, sort_keys=True))
    extra = result.pop("extra")
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, **result, **extra}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
