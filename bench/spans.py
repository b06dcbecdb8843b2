"""Spans around the calls into each layer of the package.

``Tracer.install`` replaces every public function of the traced modules,
and the methods listed in ``METHODS``, with a wrapper that records a span
(name, start, end, parent) in memory.  Every module-level binding of the
original function is replaced, so calls through ``from .x import f`` and
through ``module.f`` are both seen.  Spans opened on a worker thread with
no open span of its own take the main thread's innermost open span as
parent, which is where the work was submitted from.

``layer_metrics`` turns the spans of a run into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import resource
import threading
import time
from dataclasses import fields
from types import SimpleNamespace

import numpy as np

import oracles

MODULES = (
    "params",
    "steady_state",
    "dynamics",
    "optimizer",
    "sweeps",
    "full_model",
    "figures",
    "svgplot",
    "cli",
)
METHODS = (
    ("full_model", "FullModel", "run"),
    ("svgplot", "LinePlot", "render"),
    ("svgplot", "Heatmap", "render"),
)
CLI_VERBS = ("g2", "optimize", "nonreciprocal", "sweep", "validate-full", "figure")


def rss_now_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def params_record(p) -> dict:
    out = {f.name: getattr(p, f.name) for f in fields(p)}
    out["direction"] = p.direction.value
    return out


def _size(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


def _sweep_cells(result) -> int:
    spec = result.spec
    if spec.axis2 is None:
        # axis value, direction, five statistics and the valid flag
        return spec.axis1.count * len(spec.directions) * 8
    return spec.axis1.count * spec.axis2.count * len(spec.directions)


def _csv_bytes(args, written) -> int:
    from pathlib import Path

    folder = Path(args[1]).parent
    return sum((folder / name).stat().st_size for name in written)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Work counts recorded with a span: name -> f(args, kwargs, result, before).
INFO = {
    "steady_state.amplitude_arrays": lambda a, k, r, b: {"points": _size(*a[:7])},
    "steady_state.stats_arrays": lambda a, k, r, b: {
        "points": int(np.prod(np.shape(a[0])[:-1]))
    },
    "optimizer.solve_optimal_arrays": lambda a, k, r, b: {"columns": _size(*a[:5])},
    "optimizer.find_roots": lambda a, k, r, b: {
        "params": params_record(a[0]),
        "fix": bool(_arg(a, k, 1, "fix_delta_c", False)),
        "default_starts": "j_starts" not in k and "theta_starts" not in k,
        "roots": [[p.J, p.theta, p.delta_c_opt] for p in r],
    },
    "sweeps.run_sweep": lambda a, k, r, b: {
        "points": int(np.prod(a[0].shape)) * len(a[0].directions),
        "rss_growth_mb": max(0.0, peak_rss_mb() - b),
    },
    "sweeps.write_sweep_csv": lambda a, k, r, b: {
        "cells": _sweep_cells(a[0]),
        "bytes": _csv_bytes(a, r),
    },
    "full_model.FullModel.run": lambda a, k, r, b: {
        "steps": int(round(a[1] / _arg(a, k, 2, "dt", 1e-3)))
    },
    "full_model.validate_effective": lambda a, k, r, b: {
        "params": params_record(a[0]),
        "tolerance": float(_arg(a, k, 1, "tolerance", 0.2)),
        "n_max": int(k.get("n_max", 2)),
        "g2_full": r.g2_full,
    },
    "dynamics.evolve": lambda a, k, r, b: {
        "steps": len(r) - 1,
        "unsteady": 0 if r.steady else 1,
    },
    "cli.main": lambda a, k, r, b: {"verb": (_arg(a, k, 0, "argv") or ["?"])[0]},
}
BEFORE = {"sweeps.run_sweep": lambda: rss_now_mb()}


class Tracer:
    """Collects spans from wrapped package functions, in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        info = INFO.get(name)
        before = BEFORE.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = {"name": name, "parent": parent, "info": None, "error": None}
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            state = before() if before else None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if info is not None:
                span["info"] = info(args, kwargs, result, state)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the public functions and listed methods of every module."""
        mods = {m: importlib.import_module(f"cavityblockade.{m}") for m in MODULES}
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))
        package = importlib.import_module("cavityblockade")
        for mod in list(mods.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# --------------------------------------------------------------------------
# aggregation


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span["start"]
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, cursor), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span["end"] - span["start"] - covered)
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _params_of(record: dict) -> SimpleNamespace:
    """A parameter record back as an object with the package's field names."""
    return SimpleNamespace(**{**record, "direction": SimpleNamespace(value=record["direction"])})


def find_roots_completeness(spans: list[dict]) -> tuple[int, int]:
    """(roots found, roots expected) inside |J| <= oracles.ROOT_WINDOW over every
    find_roots call made with the default multi-start grid."""
    found = expected = 0
    for span in spans:
        info = span["info"]
        if span["name"] != "optimizer.find_roots" or not info or not info["default_starts"]:
            continue
        p = _params_of(info["params"])
        truth = oracles.cancellation_roots(oracles.point_of(p), joint=not info["fix"])
        truth = [r for r in truth if abs(r[0]) <= oracles.ROOT_WINDOW]
        expected += len(truth)
        found += sum(any(oracles.same_root(r, q) for q in info["roots"]) for r in truth)
    return found, expected


def validation_failures(spans: list[dict]) -> int:
    """validate_effective calls that raised, or whose g2_full is further from
    the full-model eigenvector than the function's window tolerance."""
    failed = 0
    for span in spans:
        if span["name"] != "full_model.validate_effective":
            continue
        info = span["info"]
        if span["error"] or not info:
            failed += 1
            continue
        truth = oracles.full_model_g2(_params_of(info["params"]), info["n_max"])
        if abs(info["g2_full"] - truth) > info["tolerance"] / 10.0 * abs(truth):
            failed += 1
    return failed


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit)."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span["name"], []).append(i)

    def durations(name: str) -> list[float]:
        return [spans[i]["end"] - spans[i]["start"] for i in by_name.get(name, ())]

    def info_sum(name: str, key: str) -> float:
        return sum((spans[i]["info"] or {}).get(key, 0) for i in by_name.get(name, ()))

    m: dict[str, tuple[float, str]] = {}
    for mod in MODULES:
        idx = [i for i, s in enumerate(spans) if s["name"].split(".", 1)[0] == mod]
        m[f"{mod}.calls"] = (len(idx), "count")
        m[f"{mod}.self_s"] = (sum(own[i] for i in idx), "s")

    for verb in CLI_VERBS:
        times = [
            spans[i]["end"] - spans[i]["start"]
            for i in by_name.get("cli.main", ())
            if (spans[i]["info"] or {}).get("verb") == verb
        ]
        m[f"cli.{verb}.ms"] = (_mean(times) * 1e3, "ms")

    m["params.derive_effective.calls"] = (len(durations("params.derive_effective")), "count")
    m["params.derive_effective.us"] = (_mean(durations("params.derive_effective")) * 1e6, "us")

    pts = info_sum("steady_state.amplitude_arrays", "points")
    m["steady_state.amplitude_arrays.points"] = (pts, "count")
    m["steady_state.amplitude_arrays.ns_per_point"] = (
        _ratio(sum(durations("steady_state.amplitude_arrays")) * 1e9, pts), "ns/point")
    m["steady_state.stats_arrays.ns_per_point"] = (
        _ratio(sum(durations("steady_state.stats_arrays")) * 1e9,
               info_sum("steady_state.stats_arrays", "points")), "ns/point")
    m["steady_state.steady_stats.us"] = (_mean(durations("steady_state.steady_stats")) * 1e6, "us")

    found, expected = find_roots_completeness(spans)
    m["optimizer.find_roots.calls"] = (len(durations("optimizer.find_roots")), "count")
    m["optimizer.find_roots.ms"] = (_mean(durations("optimizer.find_roots")) * 1e3, "ms")
    m["optimizer.find_roots.roots_found"] = (found, "count")
    m["optimizer.find_roots.roots_expected"] = (expected, "count")
    m["optimizer.nonreciprocal_point.ms"] = (
        _mean(durations("optimizer.nonreciprocal_point")) * 1e3, "ms")
    m["optimizer.scan_j_theta.ms"] = (_mean(durations("optimizer.scan_j_theta")) * 1e3, "ms")
    cols = info_sum("optimizer.solve_optimal_arrays", "columns")
    m["optimizer.solve_optimal_arrays.columns"] = (cols, "count")
    m["optimizer.solve_optimal_arrays.us_per_column"] = (
        _ratio(sum(durations("optimizer.solve_optimal_arrays")) * 1e6, cols), "us/column")

    m["sweeps.effective_arrays.ms"] = (_mean(durations("sweeps.effective_arrays")) * 1e3, "ms")
    m["sweeps.run_sweep.ns_per_point"] = (
        _ratio(sum(durations("sweeps.run_sweep")) * 1e9, info_sum("sweeps.run_sweep", "points")),
        "ns/point")
    growth = [(spans[i]["info"] or {}).get("rss_growth_mb", 0.0) for i in by_name.get("sweeps.run_sweep", ())]
    m["sweeps.run_sweep.rss_growth_mb"] = (max(growth, default=0.0), "MB")
    m["sweeps.write_sweep_csv.ns_per_cell"] = (
        _ratio(sum(durations("sweeps.write_sweep_csv")) * 1e9,
               info_sum("sweeps.write_sweep_csv", "cells")), "ns/cell")
    m["sweeps.write_sweep_csv.mb"] = (info_sum("sweeps.write_sweep_csv", "bytes") / 1e6, "MB")

    n_fig = len(by_name.get("figures.figure", ()))
    fig_self = sum(own[i] for i, s in enumerate(spans) if s["name"].startswith("figures."))
    m["figures.figure.self_ms"] = (_ratio(fig_self * 1e3, n_fig), "ms")
    m["svgplot.render.ms"] = (
        _mean(durations("svgplot.LinePlot.render") + durations("svgplot.Heatmap.render")) * 1e3, "ms")

    m["full_model.validate_effective.s"] = (_mean(durations("full_model.validate_effective")), "s")
    steps = info_sum("full_model.FullModel.run", "steps")
    m["full_model.FullModel.run.steps"] = (steps, "count")
    m["full_model.FullModel.run.ns_per_step"] = (
        _ratio(sum(durations("full_model.FullModel.run")) * 1e9, steps), "ns/step")
    m["full_model.validate_effective.failed"] = (validation_failures(spans), "count")

    steps = info_sum("dynamics.evolve", "steps")
    m["dynamics.evolve.steps"] = (steps, "count")
    m["dynamics.evolve.ns_per_step"] = (
        _ratio(sum(durations("dynamics.evolve")) * 1e9, steps), "ns/step")
    m["dynamics.evolve.unsteady"] = (info_sum("dynamics.evolve", "unsteady"), "count")
    m["dynamics.steady_rk4.ms"] = (_mean(durations("dynamics.steady_rk4")) * 1e3, "ms")
    return {k: (float(v) if not isinstance(v, int) else v, u) for k, (v, u) in m.items()}


def import_breakdown(importtime_stderr: str) -> tuple[float, float]:
    """(total ms of ``import cavityblockade``, ms spent in scipy imports)
    from ``python -X importtime`` output.

    The scipy figure is the cumulative time of each scipy module whose
    importer is not itself a scipy module.
    """
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = next((c for d, c, n in rows if n == "cavityblockade"), math.nan)
    # importtime prints children before their parent, so walk backwards.
    scipy = 0
    ancestors: list[tuple[int, str]] = []
    for depth, cumulative, name in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(a[1].split(".")[0] == "scipy" for a in ancestors):
            scipy += cumulative
        ancestors.append((depth, name))
    return total / 1e3, scipy / 1e3
