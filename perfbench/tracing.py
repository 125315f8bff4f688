"""Spans around the library's public functions, and the per-layer metrics.

The tracer wraps public functions of the ``specsplit`` modules from outside:
each wrapper records a span (name, start, end, parent span, job id) and, for a
few functions, a count read from the arguments or the result.  A wrapper is
installed on every module attribute that binds the function, because the
modules call each other through their own imported names
(``specsplit.analysis.integrate_A`` is the same function as
``specsplit.contour.integrate_A``).  Spans stay in memory until the run ends.

``cli`` only parses arguments and writes JSON, and ``errors`` does no work, so
neither gets spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

MODULES = ("specsplit", "specsplit.operators", "specsplit.contour", "specsplit.analysis",
           "specsplit.perturbation", "specsplit.corpus", "specsplit.cli")


def _nodes(args, kwargs, result):
    q = args[2] if len(args) > 2 else kwargs["q"]
    return {"nodes": len(result[0]), "q": int(q)}


def _points(args, kwargs, result):
    lams = args[1] if len(args) > 1 else kwargs["lams"]
    return {"points": int(np.asarray(lams).size)}


def _quad(args, kwargs, result):
    return {"est_error": float(result.est_error), "tail_bound": float(result.tail_bound)}


def _sweep_points(args, kwargs, result):
    return {"points": int(result.lambdas.size)}


# layer -> {function: count extractor or None}
TRACED = {
    "operators": {"resolvent_many": _points, "resolvent_norms": None, "oracle_projection": None},
    "contour": {"line_nodes": _nodes, "integrate_A": _quad, "integrate_B": _quad,
                "pv_axis_integral": _quad, "r_minus": None},
    "analysis": {"split": None, "pair_identity_residuals": None, "resolvent_sweep": _sweep_points},
    "perturbation": {"projection_diff_integral": None, "resolvent_diff_decay": None,
                     "p_subordination_fit": None, "perturb_pair_report": None},
    "corpus": {"run_case": None},
}

# The contour integrals whose time ``contour.nodes_per_s`` divides by.
INTEGRALS = ("contour.integrate_A", "contour.r_minus", "contour.integrate_B",
             "contour.pv_axis_integral")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top of a job
    job: int
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span.info = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, functions in TRACED.items():
            home = importlib.import_module(f"specsplit.{layer}")
            for fname, extract in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original, extract)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "job": s.job,
             **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass (counts and seconds are divided by
    the number of passes; maxima are taken over all of them)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
    own = self_times(spans)

    def seconds(name):
        return total.get(name, 0.0) / passes

    def self_seconds(name):
        return sum(t for s, t in zip(spans, own) if s.name == name) / passes

    def info(name, key):
        return [s.info[key] for s in spans if s.name == name and s.info]

    def under_integral(index):
        while index >= 0:
            if spans[index].name in INTEGRALS:
                return True
            index = spans[index].parent
        return False

    node_calls = info("contour.line_nodes", "nodes")
    integral_nodes = sum(s.info["nodes"] for s in spans
                         if s.name == "contour.line_nodes" and under_integral(s.parent))
    integral_s = sum(seconds(n) for n in INTEGRALS)
    return {
        "operators.resolvent_many.points": sum(info("operators.resolvent_many", "points")) / passes,
        "operators.resolvent_many.s": seconds("operators.resolvent_many"),
        "operators.resolvent_norms.s": seconds("operators.resolvent_norms"),
        "operators.oracle_projection.calls": calls.get("operators.oracle_projection", 0) / passes,
        "operators.oracle_projection.s": seconds("operators.oracle_projection"),
        "contour.passes": len(node_calls) / passes,
        "contour.nodes": sum(node_calls) / passes,
        "contour.max_q": max(info("contour.line_nodes", "q"), default=0),
        "contour.integrate_A.s": seconds("contour.integrate_A"),
        "contour.r_minus.s": seconds("contour.r_minus"),
        "contour.integrate_B.s": seconds("contour.integrate_B"),
        "contour.pv_axis_integral.s": seconds("contour.pv_axis_integral"),
        "contour.nodes_per_s": integral_nodes / passes / integral_s if integral_s > 0 else 0.0,
        "contour.est_error.max": max(
            [v for n in INTEGRALS for v in info(n, "est_error")], default=0.0),
        "contour.tail_bound.max": max(
            [v for n in INTEGRALS for v in info(n, "tail_bound")], default=0.0),
        "analysis.split.self_s": self_seconds("analysis.split"),
        "analysis.pair_identity_residuals.s": seconds("analysis.pair_identity_residuals"),
        "analysis.resolvent_sweep.s": seconds("analysis.resolvent_sweep"),
        "analysis.resolvent_sweep.points": sum(info("analysis.resolvent_sweep", "points")) / passes,
        "perturbation.projection_diff_integral.s": seconds("perturbation.projection_diff_integral"),
        "perturbation.resolvent_diff_decay.s": seconds("perturbation.resolvent_diff_decay"),
        "perturbation.p_subordination_fit.s": seconds("perturbation.p_subordination_fit"),
        "corpus.run_case.self_s": self_seconds("corpus.run_case"),
    }


KERNEL_DIMS = (8, 32, 64, 128)
KERNEL_POINTS = 1024
KERNEL_REPEATS = 3


def kernel_probe(ss) -> dict[str, float]:
    """Resolvent solves per second of ``resolvent_many`` on a fixed
    1024-point line Re lambda = 0, |Im lambda| <= 64, by dimension (median of
    three timings, each on a fresh operator)."""
    lams = 1j * np.linspace(-64.0, 64.0, KERNEL_POINTS)
    out = {}
    for dim in KERNEL_DIMS:
        base = ss.random_gap_operator(dim, 7)
        times = []
        for _ in range(KERNEL_REPEATS):
            op = ss.dense_operator(base.entries)
            start = time.perf_counter()
            ss.resolvent_many(op, lams)
            times.append(time.perf_counter() - start)
        out[f"operators.kernel.solves_per_s.d{dim}"] = KERNEL_POINTS / statistics.median(times)
    return out


UNITS = {
    **{f"operators.kernel.solves_per_s.d{d}": "1/s" for d in KERNEL_DIMS},
    "operators.resolvent_many.points": "count",
    "operators.resolvent_many.s": "s",
    "operators.resolvent_norms.s": "s",
    "operators.oracle_projection.calls": "count",
    "operators.oracle_projection.s": "s",
    "contour.passes": "count",
    "contour.nodes": "count",
    "contour.max_q": "count",
    "contour.integrate_A.s": "s",
    "contour.r_minus.s": "s",
    "contour.integrate_B.s": "s",
    "contour.pv_axis_integral.s": "s",
    "contour.nodes_per_s": "1/s",
    "contour.est_error.max": "norm",
    "contour.tail_bound.max": "norm",
    "analysis.split.self_s": "s",
    "analysis.pair_identity_residuals.s": "s",
    "analysis.resolvent_sweep.s": "s",
    "analysis.resolvent_sweep.points": "count",
    "perturbation.projection_diff_integral.s": "s",
    "perturbation.resolvent_diff_decay.s": "s",
    "perturbation.p_subordination_fit.s": "s",
    "corpus.run_case.self_s": "s",
    "trace.overhead_frac": "ratio",
}
