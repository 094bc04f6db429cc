"""In-memory span recorder for the traced benchmark run.

Only the traced run installs it.  It wraps public ``fracfield``
functions in the modules that bound them by name (``from .x import f``),
so each span sits at a layer boundary: ``fracfield.cli.simulate`` is the
CLI calling into ``quasilinear``, ``fracfield.covariance.spectral_integral``
is covariance assembly calling into the quadrature engine.  Nothing in
the package itself is edited.

Spans hold (id, name, parent, start, end, cpu, info).  ``cpu`` is the
CPU time of the span's own thread, which excludes time spent waiting
for the interpreter lock.  ``info`` carries the counts read off the
returned ``QuadResult``, ``PicardInfo``, ``PsdFactor`` and friends, so
counts are measured where the work happens.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    cpu_start: float
    end: float = 0.0
    cpu: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _quad_info(args, kwargs, res) -> dict:
    quad = args[2] if len(args) > 2 else kwargs["quad"]
    tol = quad.rel_tol * abs(res.value) + quad.abs_tol
    return {"panels": res.panels_used, "err_ratio": res.err_estimate / tol,
            "unconverged": int(not res.converged)}


def _solve_info(args, kwargs, res) -> dict:
    picard = res[1]  # quasilinear always asks for the PicardInfo
    return {"iterations": picard.iterations,
            "certified": int(picard.used_certificate)}


def _cov_info(args, kwargs, res) -> dict:
    k = len(res.points)
    return {"entries": k * (k + 1) // 2}


def _factor_info(args, kwargs, res) -> dict:
    return {"k": res.lower.shape[0], "jitter": res.jitter_used}


def _sample_info(args, kwargs, res) -> dict:
    return {"normals": res.values.size}


def _write_info(args, kwargs, res) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# Span name -> (modules whose binding of the function is wrapped, info
# extractor).  The function is the part of the name after the dot.
_TARGETS = {
    "quasilinear.simulate": (("fracfield.cli",), None),
    "covariance.cov_matrix": (("fracfield.cli", "fracfield.quasilinear"),
                              _cov_info),
    "covariance.conv_cov": (("fracfield.analysis",), None),
    "covariance.increment_moment2": (("fracfield.analysis",), None),
    "quadrature.spectral_integral": (("fracfield.covariance",
                                      "fracfield.analysis"), _quad_info),
    "sampler.factor_psd": (("fracfield.cli", "fracfield.quasilinear"),
                           _factor_info),
    "sampler.sample_field": (("fracfield.cli", "fracfield.quasilinear"),
                             _sample_info),
    "det_solver.solve_F": (("fracfield.quasilinear",), _solve_info),
    "det_solver.initial_term_grid": (("fracfield.quasilinear",), None),
    "analysis.fit_hoelder": (("fracfield.cli",), None),
    "analysis.verify_lemma_bound": (("fracfield.cli",), None),
    "analysis.h_convergence": (("fracfield.cli",), None),
    "report.write_csv": (("fracfield.cli",), _write_info),
    "report.write_json": (("fracfield.cli",), _write_info),
}

ROOT_SPAN = "cli.main"


class Recorder:
    """Thread-safe span store.

    A span opened on a thread with no open span of its own (a pool
    thread of ``simulate``) takes as parent the innermost open span of
    the thread that created the recorder, which is the thread that is
    waiting for the pool.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        outer = stack[-1:] or self._main_stack[-1:]
        with self._lock:
            span = Span(next(self._ids), name,
                        outer[0].id if outer else None, time.perf_counter(),
                        time.thread_time())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu_start
        self._stack().pop()

    def wrap(self, name: str, fn, info=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info = info(args, kwargs, res)
            return res
        return traced

    def install(self) -> list:
        """Wrap every target binding; return the ones that do not exist."""
        missing = []
        for name, (modules, info) in _TARGETS.items():
            attr = name.split(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self.wrap(name, fn, info))
        return missing

    def dump(self) -> list:
        return [[s.id, s.name, s.parent, s.start, s.end, s.cpu, s.info]
                for s in self.spans]


def _covered(children, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of child intervals."""
    total = 0.0
    reach = lo
    for s in sorted(children, key=lambda c: c.start):
        a, b = max(s.start, reach), min(s.end, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one repetition from its spans."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    ids = {}
    for s in spans:
        by_name[s.name].append(s)
        ids[s.id] = s
        if s.parent is not None:
            children[s.parent].append(s)

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_time(name):
        return sum(s.duration - _covered(children[s.id], s.start, s.end)
                   for s in by_name[name])

    def total(name, key):
        return sum(s.info.get(key, 0) for s in by_name[name])

    def under(span, ancestor_name):
        while span.parent is not None:
            span = ids[span.parent]
            if span.name == ancestor_name:
                return True
        return False

    quads = by_name["quadrature.spectral_integral"]
    solves = by_name["det_solver.solve_F"]
    solve_groups = defaultdict(list)
    for s in solves:
        solve_groups[s.parent].append(s)
    # Pool threads wait for the interpreter lock inside their spans, so
    # solver busy time is thread CPU time, not span duration.
    solve_busy = sum(s.cpu for s in solves)
    solve_wall = sum(max(s.end for s in g) - min(s.start for s in g)
                     for g in solve_groups.values())
    writes = by_name["report.write_csv"] + by_name["report.write_json"]
    analysis = ("analysis.fit_hoelder", "analysis.verify_lemma_bound",
                "analysis.h_convergence")
    return {
        "cli.self_s": self_time(ROOT_SPAN),
        "report.write_s": sum(s.duration for s in writes),
        "report.bytes": sum(s.info.get("bytes", 0) for s in writes),
        "report.files": len(writes),
        "quasilinear.simulate_s": busy("quasilinear.simulate"),
        "quasilinear.self_s": self_time("quasilinear.simulate"),
        "covariance.cov_matrix_s": busy("covariance.cov_matrix"),
        "covariance.self_s": self_time("covariance.cov_matrix"),
        "covariance.entries": total("covariance.cov_matrix", "entries"),
        "covariance.quads": sum(under(s, "covariance.cov_matrix")
                                for s in quads),
        "covariance.conv_cov_s": busy("covariance.conv_cov"),
        "covariance.increment_moment2_s":
            busy("covariance.increment_moment2"),
        "quadrature.spectral_integral_s":
            busy("quadrature.spectral_integral"),
        "quadrature.calls": len(quads),
        "quadrature.panels": total("quadrature.spectral_integral", "panels"),
        "quadrature.worst_err_ratio": max(
            (s.info["err_ratio"] for s in quads), default=0.0),
        "quadrature.unconverged": total("quadrature.spectral_integral",
                                        "unconverged"),
        "sampler.factor_psd_s": busy("sampler.factor_psd"),
        "sampler.k": total("sampler.factor_psd", "k"),
        "sampler.jitter_used": max(
            (s.info["jitter"] for s in by_name["sampler.factor_psd"]),
            default=0.0),
        "sampler.sample_field_s": busy("sampler.sample_field"),
        "sampler.normals": total("sampler.sample_field", "normals"),
        "det_solver.solve_F_s": solve_busy,
        "det_solver.solves": len(solves),
        "det_solver.iterations": total("det_solver.solve_F", "iterations"),
        "det_solver.certified": total("det_solver.solve_F", "certified"),
        "det_solver.parallelism": (solve_busy / solve_wall
                                   if solve_wall > 0.0 else 0.0),
        "det_solver.initial_term_grid_s":
            busy("det_solver.initial_term_grid"),
        "analysis.fit_hoelder_s": busy("analysis.fit_hoelder"),
        "analysis.verify_lemma_bound_s": busy("analysis.verify_lemma_bound"),
        "analysis.h_convergence_s": busy("analysis.h_convergence"),
        "analysis.calls": sum(len(by_name[n]) for n in analysis),
    }

