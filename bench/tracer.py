"""Spans and counts around the public calls of each spreekit layer.

The tracer lives entirely in the benchmark: it replaces each traced
function (or dataclass ``__post_init__``) with a wrapper that records a
span ``(name, start, end, parent)`` and, where the layer's work can be
counted from arguments or return values, adds to a counter.  Every module
of the ``spreekit`` package that imported a traced function by name gets
the wrapper too, so calls are seen whichever module makes them.
``uninstall`` puts the originals back.

A missing traced attribute raises :class:`TraceError` at install time, so
a refactor that moves a name fails loudly instead of silently zeroing a
layer.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

PACKAGE = "spreekit"


class TraceError(RuntimeError):
    pass


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(size: Callable[[Any], int]) -> Callable:
    """Counter adding ``size(result)`` rows to ``io.rows_read``."""

    def count(c: Counter, args, kwargs, result) -> None:
        c["io.rows_read"] += size(result)

    return count


def _ipf_work(c: Counter, args, kwargs, result) -> None:
    a, j = result.fitted.counts.shape
    c["ipf.sweeps"] += result.iterations_used
    c["ipf.cell_sweeps"] += result.iterations_used * a * j


def _bootstrap_work(c: Counter, args, kwargs, result) -> None:
    c["bootstrap.replicates_completed"] += result.completed_replicates
    c["bootstrap.replicates_dropped"] += result.dropped_replicates


def _simulation_work(c: Counter, args, kwargs, result) -> None:
    c["simulation.updates_failed"] += sum(len(m.failures) for m in result.metrics.values())


def _households(c: Counter, args, kwargs, result) -> None:
    records = _arg(args, kwargs, 0, "records")
    subgroup = kwargs.get("subgroup", args[3] if len(args) > 3 else None)
    if subgroup is None:
        c["mpi.households_scored"] += len(records)
    else:
        c["mpi.households_scored"] += sum(1 for r in records if r.subgroup_id == subgroup)


def _pixel_areas(c: Counter, args, kwargs, result) -> None:
    px = _arg(args, kwargs, 0, "px")
    polys = _arg(args, kwargs, 1, "polys")
    c["geo.pixel_areas"] += len(px) * len(polys.area_ids)


@dataclass(frozen=True)
class Target:
    """One traced attribute: ``module.attr`` or ``module.Class.__post_init__``."""

    module: str
    attr: str
    count: Callable[[Counter, tuple, dict, Any], None] | None = None

    @property
    def span(self) -> str:
        return f"{self.module}.{self.attr}"


def _io(attr: str, size: Callable[[Any], int] | None = None) -> Target:
    return Target("io", attr, _rows(size) if size else None)


TARGETS: tuple[Target, ...] = (
    Target("cli", "main"),
    _io("load_composition", lambda r: r.counts.size),
    _io("load_margin", lambda r: len(r.ids)),
    _io("load_hierarchy", lambda r: len(r.assignments)),
    _io("load_households", len),
    _io("load_profile", lambda r: len(r.indicators)),
    _io("load_projections", lambda r: sum(len(m.ids) for m in r.values())),
    _io("load_aux_populations", lambda r: sum(len(m.ids) for m in r.values())),
    _io("load_pixels", len),
    _io("load_design", lambda r: len(r.weight)),
    _io("load_polygons", lambda r: len(r.area_ids)),
    # The pool's and the plan's rows are counted by the loads they call.
    _io("load_margin_pool"),
    _io("load_plan"),
    Target("composition", "Composition.__post_init__"),
    Target("composition", "MarginVector.__post_init__"),
    Target("composition", "ProbabilityMatrix.__post_init__"),
    Target("composition", "AreaHierarchy.__post_init__"),
    Target("margins", "fixed_shares"),
    Target("margins", "dynamic_shares"),
    Target("margins", "hybrid_shares"),
    Target("margins", "select_by_change"),
    Target("margins", "distribute"),
    Target("margins", "reconcile_margins"),
    Target("ipf", "ipf_fit", _ipf_work),
    Target("update", "spree_update"),
    Target("bootstrap", "bootstrap_mse", _bootstrap_work),
    Target("bootstrap", "resample_column_margin"),
    Target("bootstrap", "resample_aux_margin"),
    Target("bootstrap", "SurveyDesign.__post_init__"),
    Target("simulation", "run_simulation", _simulation_work),
    Target("simulation", "replicate_census"),
    Target("scenario", "build_scenario"),
    Target("rng", "stream"),
    Target("mpi", "compute_mpi", _households),
    Target("mpi", "tabulate_poverty", _households),
    Target("geo", "aggregate_pixels", _pixel_areas),
)

# Spans whose descendants are attributed to them when one function serves
# two layers (resample_column_margin runs under both).
CONTEXTS = ("bootstrap.bootstrap_mse", "simulation.run_simulation")


class Tracer:
    """Records spans and counts while installed; single-threaded use only."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        # (name, start, end, parent index or -1); None while open.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.span
        count = target.count
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._undo:
            raise TraceError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        try:
            for target in self.targets:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
                owner_path, _, attr = target.attr.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part, None)
                    if owner is None:
                        raise TraceError(f"{PACKAGE}.{target.module} has no {part!r}")
                original = owner.__dict__.get(attr)
                if original is None or not callable(original):
                    raise TraceError(
                        f"traced attribute {PACKAGE}.{target.module}.{target.attr} "
                        "no longer exists; update the benchmark's tracer targets"
                    )
                wrapper = self._wrap(target, original)
                self._set(owner, attr, wrapper)
                if owner is module:
                    for other in modules:
                        if other is not module and other.__dict__.get(attr) is original:
                            self._set(other, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> tuple[dict[tuple[str, str], list], list[str]]:
        """``{(context, span name): [self seconds, calls]}`` plus problems.

        A span's self time is its duration minus the durations of its
        direct children.  The context is the nearest enclosing span named
        in :data:`CONTEXTS` (or ``""``), so a function called from two
        layers can be told apart.  Problems list spans left open, children
        reaching outside their parent, and negative self times.
        """
        spans = self.spans
        if any(s is None for s in spans) or self._stack:
            return {}, ["a span was left open"]
        problems = []
        child = [0.0] * len(spans)
        context = [""] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                p_name, p_start, p_end, _ = spans[parent]
                if start < p_start or end > p_end:
                    problems.append(f"span {name} exceeds its parent {p_name}")
                child[parent] += end - start
                context[i] = context[parent]
            if name in CONTEXTS:
                context[i] = name
        out: dict[tuple[str, str], list] = {}
        for i, (name, start, end, _) in enumerate(spans):
            own = (end - start) - child[i]
            if own < 0:
                problems.append(f"span {name} has negative self time {own!r}")
            entry = out.setdefault((context[i], name), [0.0, 0])
            entry[0] += own
            entry[1] += 1
        return out, problems
