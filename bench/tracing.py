"""Span tracing from outside the program.

`Tracer.install()` replaces each traced public function at the module
attribute its caller looks up with a wrapper that records a span, and
`Tracer.restore()` puts the originals back.  A span is
`(name, start, end, parent, invocation)`; parent is the index of the
enclosing span or -1.  Spans stay in memory until the run ends.

Span names are `<layer>.<function>`; the layer is the pgsurf module that
owns the work.  `core` has no function on a blocking path: its Motion
arithmetic runs inside `surface.scalar`.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


def _size(value) -> int:
    return int(np.size(value))


def _sweep_info(args, result) -> dict:
    grid = args[1]
    excluded = result["excluded"]
    return {"points": grid.n1 * grid.n2, "included": int(excluded.size - np.count_nonzero(excluded))}


def _jet_name(args, kwargs) -> str:
    return "factorable.jet_component_arrays." + kwargs.get("mode", "analytic")


def _integrate_info(args, result) -> dict:
    return {"steps": int(result[0].size - 1)}


def _probe_info(args, result) -> dict:
    return {"evaluations": int(result.evaluations)}


def _arrays_info(args, result) -> dict:
    return {"elements": _size(result["K"])}


def _evaluator_info(args, result) -> dict:
    return {"elements": _size(result)}


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is looked up and how to name its span."""

    modules: tuple
    attr: str
    name: object
    info: object = None


def default_targets():
    """The traced boundaries, at the attributes their callers look up."""
    from pgsurf import cli, factorable, reconstruct
    from pgsurf.factorable import ScalarC2

    return [
        Target((cli,), "main", "cli.main"),
        Target((cli, factorable), "pipeline_grid", "factorable.pipeline_grid", _sweep_info),
        Target((cli, factorable), "specialized_grid", "factorable.specialized_grid", _sweep_info),
        Target((cli, factorable), "cross_check", "factorable.cross_check"),
        Target((factorable,), "jet_component_arrays", _jet_name),
        Target((factorable,), "curvature_arrays", "surface.curvature_arrays", _arrays_info),
        Target((cli,), "gaussian_curvature", "surface.scalar"),
        Target((cli,), "mean_curvature", "surface.scalar"),
        Target((cli,), "transform_jet", "surface.scalar"),
        Target((reconstruct,), "integrate", "reconstruct.integrate", _integrate_info),
        Target((reconstruct,), "nonexistence_probe", "reconstruct.probe", _probe_info),
        Target((ScalarC2,), "__call__", "families.evaluator", _evaluator_info),
        Target((ScalarC2,), "deriv", "families.evaluator", _evaluator_info),
        Target((ScalarC2,), "deriv2", "families.evaluator", _evaluator_info),
    ]


@dataclass
class Tracer:
    """Records spans of the wrapped functions; one per call."""

    targets: list
    spans: list = field(default_factory=list)
    info: list = field(default_factory=list)
    invocation: int = -1
    _stack: list = field(default_factory=list)
    _saved: list = field(default_factory=list)

    def _wrap(self, target: Target, original):
        spans, info, stack = self.spans, self.info, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            name = target.name(args, kwargs) if callable(target.name) else target.name
            index = len(spans)
            spans.append(None)
            info.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.invocation)
            if target.info is not None:
                info[index] = target.info(args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        for target in self.targets:
            for owner in target.modules:
                original = owner.__dict__[target.attr]
                self._saved.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrap(target, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on one thread, so they never overlap
    each other and their sum is the part of the parent they cover.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans: list, info: list) -> dict:
    """Per-name totals: calls, inclusive seconds, self seconds and the sum
    of each recorded count."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(float))
    for (name, start, end, _, _), self_s, extra in zip(spans, own, info):
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += self_s
        for key, value in (extra or {}).items():
            row[key] += value
    return {name: dict(row) for name, row in out.items()}


def points_swept(spans: list, info: list) -> int:
    """Grid points per invocation, summed: every sweep of one CLI call uses
    the same grid, so each invocation counts its grid once."""
    per_invocation: dict = {}
    for (name, _, _, _, inv), extra in zip(spans, info):
        if extra and "points" in extra:
            per_invocation[inv] = max(per_invocation.get(inv, 0), extra["points"])
    return sum(per_invocation.values())
