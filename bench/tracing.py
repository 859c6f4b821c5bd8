"""Out-of-program tracing of the toolkit's layers.

``Tracer.install`` wraps public functions of ``irs_secrecy`` and rebinds every
module-level name in ``irs_secrecy.*`` that refers to the original function
object (``cli`` and ``optimize`` import several of them by name), so calls
through any import path are seen. Each call records a span: name, start, end,
parent span, job id and a few attributes read from the arguments or the
result (iterations, trials, samples). Spans stay in memory until the run ends.

Only the standard library is used; the program's outputs are not touched.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    job: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its children cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                for c in children.get(i, ())]
        out.append(s.duration - covered([k for k in kids if k[1] > k[0]]))
    return out


# ---------------------------------------------------------------------------
# attribute extractors: (args, kwargs, result_or_exception) -> attrs
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _quadrature(args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    step = _arg(args, kwargs, 1, "step_deg", 0.01)
    points = int(round(360.0 / step)) + 1
    return {"entries": spec.n * points}


def _solve(max_iter_pos):
    def attrs(args, kwargs, result):
        if isinstance(result, BaseException):
            failed = type(result).__name__ == "ConvergenceError"
            max_iter = _arg(args, kwargs, max_iter_pos, "max_iter", 10_000)
            return {"failed": 1, "iters": max_iter if failed else 0}
        return {"failed": 0, "iters": int(result.n_iter)}
    return attrs


def _mvn(args, kwargs, result):
    return {"samples": int(_arg(args, kwargs, 2, "n_samples", 10 ** 6))}


def _mc(args, kwargs, result):
    return {"trials": int(_arg(args, kwargs, 3, "n_trials"))}


def _ao(args, kwargs, result):
    return {} if isinstance(result, BaseException) else {"rounds": int(result.t)}


def _sop_descent(args, kwargs, result):
    if isinstance(result, BaseException):
        return {}
    return {"accepted": sum(1 for row in result.trace[1:] if row.step_size > 0.0)}


# (module, function, span name, attribute extractor)
TARGETS = (
    ("scenario", "build_scenario", "scenario.build_scenario", None),
    ("scenario", "build_correlation_matrix", "scenario.build_correlation_matrix", _quadrature),
    ("fixedpoint", "solve_lbi", "fixedpoint.solve", _solve(5)),
    ("fixedpoint", "solve_ds", "fixedpoint.solve", _solve(7)),
    ("cltcov", "joint_cov", "cltcov.joint_cov", None),
    ("secrecy", "esr_an", "secrecy.esr", None),
    ("secrecy", "esr_wiretap", "secrecy.esr", None),
    ("secrecy", "sop_multi_eve", "secrecy.sop_multi_eve", _mvn),
    ("mcoracle", "run_mc", "mcoracle.run_mc", _mc),
    ("optimize", "algorithm2_ao", "optimize.algorithm2_ao", _ao),
    ("optimize", "signed_an_mean", "optimize.signed_an_mean", None),
    ("optimize", "solve_inner_p6", "optimize.solve_inner_p6", None),
    ("optimize", "esr_phase_gradient", "optimize.esr_phase_gradient", None),
    ("optimize", "sop_phase_gradient", "optimize.sop_phase_gradient", None),
    ("optimize", "optimize_sop", "optimize.optimize_sop", _sop_descent),
    ("cli", "main", "cli.main", None),
)

PACKAGE = "irs_secrecy"
# span whose call arguments are kept, so that the calls can be re-timed
KEPT_CALLS = "mcoracle.run_mc"


class Tracer:
    """Span recorder around the toolkit's public functions."""

    def __init__(self):
        self.spans: list = []
        self.job = -1
        self.calls: list = []  # (args, kwargs) of every KEPT_CALLS span
        self._local = threading.local()
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, fn_name, span_name, extract in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            wrapper = self._wrap(original, span_name, extract)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, extract):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job)
            index = len(tracer.spans)
            tracer.spans.append(span)
            if name == KEPT_CALLS:
                tracer.calls.append((args, kwargs))
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                stack.pop()
                span.attrs["raised"] = type(exc).__name__
                if extract is not None:
                    span.attrs.update(extract(args, kwargs, exc))
                raise
            span.end = time.perf_counter()
            stack.pop()
            if extract is not None:
                span.attrs.update(extract(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _has_ancestor(spans, span, name) -> bool:
    p = span.parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans) -> dict:
    """Per-layer counts and busy/self times (ms) from one traced pass."""
    by_name: dict = defaultdict(list)
    self_s: dict = defaultdict(float)
    for s, st in zip(spans, self_times(spans)):
        by_name[s.name].append(s)
        self_s[s.name] += st

    def calls(name):
        return len(by_name[name])

    def busy_ms(name):  # outermost spans only, so recursion is not counted twice
        return 1e3 * sum(s.duration for s in by_name[name] if not _has_ancestor(spans, s, name))

    def self_ms(name):
        return 1e3 * self_s[name]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    solves = by_name["fixedpoint.solve"]
    iters = [s.attrs.get("iters", 0) for s in solves]
    mc_trials = attr_sum("mcoracle.run_mc", "trials")
    ao_runs = calls("optimize.algorithm2_ao")
    solves_in_ao = sum(_has_ancestor(spans, s, "optimize.algorithm2_ao") for s in solves)
    grads = calls("optimize.sop_phase_gradient")

    return {
        "scenario.build_scenario.calls": calls("scenario.build_scenario"),
        "scenario.build_scenario.busy_ms": busy_ms("scenario.build_scenario"),
        "scenario.build_correlation_matrix.calls": calls("scenario.build_correlation_matrix"),
        "scenario.build_correlation_matrix.busy_ms": busy_ms("scenario.build_correlation_matrix"),
        "scenario.quadrature_entries": attr_sum("scenario.build_correlation_matrix", "entries"),
        "fixedpoint.solves": len(solves),
        "fixedpoint.solve_busy_ms": busy_ms("fixedpoint.solve"),
        "fixedpoint.iters_total": sum(iters),
        "fixedpoint.iters_p50": statistics.median(iters) if iters else 0,
        "fixedpoint.iters_max": max(iters, default=0),
        "fixedpoint.solve_failures": sum(s.attrs.get("failed", 0) for s in solves),
        "cltcov.joint_cov.calls": calls("cltcov.joint_cov"),
        "cltcov.joint_cov.busy_ms": busy_ms("cltcov.joint_cov"),
        "secrecy.esr.calls": calls("secrecy.esr"),
        "secrecy.esr.self_ms": self_ms("secrecy.esr"),
        "secrecy.sop_multi_eve.calls": calls("secrecy.sop_multi_eve"),
        "secrecy.sop_multi_eve.busy_ms": busy_ms("secrecy.sop_multi_eve"),
        "secrecy.sop_multi_eve.samples": attr_sum("secrecy.sop_multi_eve", "samples"),
        "mcoracle.run_mc.calls": calls("mcoracle.run_mc"),
        "mcoracle.run_mc.busy_ms": busy_ms("mcoracle.run_mc"),
        "mcoracle.run_mc.trials": mc_trials,
        "mcoracle.us_per_trial": 1e3 * busy_ms("mcoracle.run_mc") / mc_trials if mc_trials else 0.0,
        "optimize.ao_runs": ao_runs,
        "optimize.ao_rounds": attr_sum("optimize.algorithm2_ao", "rounds"),
        "optimize.solves_per_ao_run": solves_in_ao / ao_runs if ao_runs else 0.0,
        "optimize.signed_an_mean.calls": calls("optimize.signed_an_mean"),
        "optimize.signed_an_mean.busy_ms": busy_ms("optimize.signed_an_mean"),
        "optimize.solve_inner_p6.calls": calls("optimize.solve_inner_p6"),
        "optimize.solve_inner_p6.busy_ms": busy_ms("optimize.solve_inner_p6"),
        "optimize.esr_phase_gradient.busy_ms": busy_ms("optimize.esr_phase_gradient"),
        "optimize.sop_phase_gradient.calls": grads,
        "optimize.sop_phase_gradient.busy_ms": busy_ms("optimize.sop_phase_gradient"),
        "optimize.sop_ls_accepted": attr_sum("optimize.optimize_sop", "accepted"),
        "optimize.sop_ls_accept_ratio": (attr_sum("optimize.optimize_sop", "accepted") / grads
                                         if grads else 0.0),
        "cli.jobs": calls("cli.main"),
        "cli.self_ms": self_ms("cli.main"),
    }


def job_counters(spans) -> dict:
    """Machine-independent counters per job id, from one traced pass."""
    per_job: dict = {}
    for s in spans:
        c = per_job.setdefault(s.job, {"solves": 0, "iters": 0, "solve_failures": 0,
                                       "ao_rounds": 0, "sop_gradient_evals": 0,
                                       "an_mean_evals": 0, "mc_trials": 0,
                                       "mvn_samples": 0, "quadrature_entries": 0})
        if s.name == "fixedpoint.solve":
            c["solves"] += 1
            c["iters"] += s.attrs.get("iters", 0)
            c["solve_failures"] += s.attrs.get("failed", 0)
        elif s.name == "optimize.algorithm2_ao":
            c["ao_rounds"] += s.attrs.get("rounds", 0)
        elif s.name == "optimize.sop_phase_gradient":
            c["sop_gradient_evals"] += 1
        elif s.name == "optimize.signed_an_mean":
            c["an_mean_evals"] += 1
        elif s.name == "mcoracle.run_mc":
            c["mc_trials"] += s.attrs.get("trials", 0)
        elif s.name == "secrecy.sop_multi_eve":
            c["mvn_samples"] += s.attrs.get("samples", 0)
        elif s.name == "scenario.build_correlation_matrix":
            c["quadrature_entries"] += s.attrs.get("entries", 0)
    return per_job


def spans_as_records(spans) -> list:
    return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, **s.attrs} for s in spans]
