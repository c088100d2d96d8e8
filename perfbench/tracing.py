"""Span tracer for one neontrap CLI run, kept in the benchmark's own files.

`Tracer.install` wraps the public layer functions of neontrap in every module
namespace that binds them (the modules import them with `from .x import y`)
and `ResultTable.write` on its class.  Each span records its name, parent,
thread id, start, end, the exception type it raised and a few counts.  A
parent stack is kept per thread; a span opened in a thread-pool worker with
an empty stack is attributed to the span that was open in the thread that
submitted the work.  Spans stay in memory; sample.py writes them out when the
run ends, and `summarize` turns them into the per-layer metrics.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict


def _points_z(args, result):
    return {"points": int(getattr(args["z"], "size", 1))}


def _eigensolve_counts(args, result):
    return {"points": args["grid"].n_points,
            "nodecheck_fail": int(not all(result.converged))}


def _unbound(args, result):
    return {"unbound": int(not result.is_bound())}


def _points_radial(args, result):
    return {"points": args["n_points"]}


def _bytes_written(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# (module, attribute, span name, extra counts from bound args and result)
LAYERS = [
    ("neontrap.dielectric", "perpendicular_potential",
     "dielectric.perpendicular_potential", _points_z),
    ("neontrap.dielectric", "cached_perpendicular_potential",
     "dielectric.cached_perpendicular_potential", None),
    ("neontrap.dielectric", "external_potential", "dielectric.external_potential", None),
    ("neontrap.perpendicular", "solve_perpendicular", "perpendicular.solve_perpendicular",
     _unbound),
    ("neontrap.perpendicular", "ground_state_energy", "perpendicular.ground_state_energy", None),
    ("neontrap.perpendicular", "build_hamiltonian", "perpendicular.build_hamiltonian", None),
    ("neontrap.perpendicular", "solve_lowest", "perpendicular.solve_lowest", _eigensolve_counts),
    ("neontrap.lateral", "build_energy_curve", "lateral.build_energy_curve", None),
    ("neontrap.lateral", "lta_potential", "lateral.lta_potential", None),
    ("neontrap.lateral", "radial_spectrum", "lateral.radial_spectrum", _points_radial),
    ("neontrap.tables", "ResultTable.write", "tables.write", _bytes_written),
    ("neontrap.config", "load_config", "config.load_config", None),
    ("neontrap.cli", "main", "cli.main", None),
]

# per-layer metric -> unit; `summarize` fills all of them but trace.overhead_s,
# which run.py takes from the wall times of traced and untraced runs
METRICS = {
    "dielectric.perpendicular_potential.calls": "count",
    "dielectric.perpendicular_potential.busy_s": "s",
    "dielectric.perpendicular_potential.points": "count",
    "dielectric.cache.hit_ratio": "ratio",
    "dielectric.external_potential.busy_s": "s",
    "perpendicular.solve_perpendicular.calls": "count",
    "perpendicular.assembly.self_s": "s",
    "perpendicular.build_hamiltonian.busy_s": "s",
    "perpendicular.solve_lowest.busy_s": "s",
    "perpendicular.solve_lowest.points": "count",
    "perpendicular.unbound": "count",
    "perpendicular.nodecheck_fail": "count",
    "lateral.build_energy_curve.calls": "count",
    "lateral.build_energy_curve.busy_s": "s",
    "lateral.build_energy_curve.self_s": "s",
    "lateral.curve_solves": "count",
    "lateral.radial_spectrum.calls": "count",
    "lateral.radial_spectrum.busy_s": "s",
    "lateral.radial_spectrum.points": "count",
    "lateral.lta_potential.busy_s": "s",
    "tables.write.calls": "count",
    "tables.write.busy_s": "s",
    "tables.write.bytes": "bytes",
    "config.load_config.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# span fields, in the order each span list holds them
ID, PARENT, NAME, THREAD, START, END, ERROR, EXTRA = range(8)


class Tracer:
    """Collects spans of the current process in memory."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def wrap(self, name: str, fn, extra=None):
        sig = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._current()
            span_id = next(self._ids)
            stack.append(span_id)
            error, counts = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            else:
                if extra:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = extra(bound.arguments, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([span_id, parent, name, threading.get_ident(),
                                   start, end, error, counts])
        return traced

    def _wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(executor, fn, /, *args, **kwargs):
            caller = tracer._current()

            def run(*a, **kw):
                tracer._local.inherited = caller
                try:
                    return fn(*a, **kw)
                finally:
                    tracer._local.inherited = None
            return submit(executor, run, *args, **kwargs)
        return traced_submit

    def install(self):
        """Wrap every layer function in each neontrap namespace that binds it."""
        for module_name, attr, span_name, extra in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(span_name, getattr(cls, method), extra))
                continue
            original = getattr(module, attr)
            traced = self.wrap(span_name, original, extra)
            for name, mod in list(sys.modules.items()):
                if name == "neontrap" or name.startswith("neontrap."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, traced)
        pool = concurrent.futures.ThreadPoolExecutor
        pool.submit = self._wrap_submit(pool.submit)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans: list) -> dict:
    """Per-layer metrics of one traced run (all of METRICS but trace.overhead_s)."""
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)

    def busy(name):
        return sum(s[END] - s[START] for s in by_name[name])

    def self_time(name):
        return sum(s[END] - s[START]
                   - _covered([(c[START], c[END]) for c in children[s[ID]]],
                              s[START], s[END])
                   for s in by_name[name])

    def count(name, key):
        return sum((s[EXTRA] or {}).get(key, 0) for s in by_name[name])

    def under(span, name):
        parent = span[PARENT]
        while parent is not None:
            if by_id[parent][NAME] == name:
                return True
            parent = by_id[parent][PARENT]
        return False

    cached = by_name["dielectric.cached_perpendicular_potential"]
    hits = sum(1 for s in cached
               if not any(c[NAME] == "dielectric.perpendicular_potential"
                          for c in children[s[ID]]))
    return {
        "dielectric.perpendicular_potential.calls":
            len(by_name["dielectric.perpendicular_potential"]),
        "dielectric.perpendicular_potential.busy_s": busy("dielectric.perpendicular_potential"),
        "dielectric.perpendicular_potential.points":
            count("dielectric.perpendicular_potential", "points"),
        "dielectric.cache.hit_ratio": hits / len(cached) if cached else 0.0,
        "dielectric.external_potential.busy_s": busy("dielectric.external_potential"),
        "perpendicular.solve_perpendicular.calls":
            len(by_name["perpendicular.solve_perpendicular"]),
        "perpendicular.assembly.self_s": self_time("perpendicular.solve_perpendicular"),
        "perpendicular.build_hamiltonian.busy_s": busy("perpendicular.build_hamiltonian"),
        "perpendicular.solve_lowest.busy_s": busy("perpendicular.solve_lowest"),
        "perpendicular.solve_lowest.points": count("perpendicular.solve_lowest", "points"),
        "perpendicular.unbound": count("perpendicular.solve_perpendicular", "unbound"),
        "perpendicular.nodecheck_fail": count("perpendicular.solve_lowest", "nodecheck_fail"),
        "lateral.build_energy_curve.calls": len(by_name["lateral.build_energy_curve"]),
        "lateral.build_energy_curve.busy_s": busy("lateral.build_energy_curve"),
        "lateral.build_energy_curve.self_s": self_time("lateral.build_energy_curve"),
        "lateral.curve_solves": sum(1 for s in by_name["perpendicular.ground_state_energy"]
                                    if under(s, "lateral.build_energy_curve")),
        "lateral.radial_spectrum.calls": len(by_name["lateral.radial_spectrum"]),
        "lateral.radial_spectrum.busy_s": busy("lateral.radial_spectrum"),
        "lateral.radial_spectrum.points": count("lateral.radial_spectrum", "points"),
        "lateral.lta_potential.busy_s": busy("lateral.lta_potential"),
        "tables.write.calls": len(by_name["tables.write"]),
        "tables.write.busy_s": busy("tables.write"),
        "tables.write.bytes": count("tables.write", "bytes"),
        "config.load_config.busy_s": busy("config.load_config"),
        "cli.self_s": self_time("cli.main"),
    }
