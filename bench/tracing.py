"""Span tracing of solves, recorded from outside the program.

``installed(tracer)`` swaps wrappers into the module namespaces where
each layer's caller looks its callee up, and puts the originals back on
exit:

- ``solver``: the five instance-pipeline steps, ``run_interior_point``
  (with a ``probe=`` hook that times the lift), ``crossover``, the
  in-solve ``verify_certificate`` and the ``BoundMonitor`` class;
- ``crossover``: its sub-steps;
- ``ipm_driver``: ``CenteringRun``;
- ``centering``: ``TreeForest``.

Every wrapped call that runs a few times per outer iteration or less
opens a span: name, start, end, parent span and solve id. The calls
that run about 10^6 times per suite (``sample_update``, ``refresh``,
``voltages``, ``condition_ceiling`` and the monitor's ``record`` and
``record_many``) are aggregated instead, as a count and a time on the
innermost open span, which for all but the monitor is the centering
run that made them. Wrappers call the real code with the real
arguments and hand back its result unchanged.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager
from time import perf_counter

PIPELINE_STEPS = ("normalize_costs", "downscale", "compute_scaling",
                  "scale_up", "build_auxiliary")
CROSSOVER_STEPS = ("build_perturbed", "nested_cut_crossover",
                   "lift_tree_duals", "admissible_max_flow",
                   "verify_aux_certificate")


class Span:
    __slots__ = ("id", "name", "parent", "solve", "start", "end", "attrs",
                 "agg")

    def __init__(self, sid: int, name: str, parent: int | None, solve: int,
                 start: float) -> None:
        self.id = sid
        self.name = name
        self.parent = parent
        self.solve = solve
        self.start = start
        self.end: float | None = None
        self.attrs: dict = {}
        # aggregated hot calls: key -> [count, seconds]
        self.agg: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of every traced solve, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.solve_id = -1
        self.monitors: list = []
        self.origin = perf_counter()

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.solve_id,
                    perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add(self, key: str, seconds: float, count: int = 1) -> None:
        slot = self.stack[-1].agg.get(key)
        if slot is None:
            self.stack[-1].agg[key] = [count, seconds]
        else:
            slot[0] += count
            slot[1] += seconds

    def to_json(self) -> list:
        """Spans as [id, name, parent, solve, start, end, attrs, agg]
        rows, times in seconds since the tracer was made."""
        return [[s.id, s.name, s.parent, s.solve,
                 round(s.start - self.origin, 9),
                 round(s.end - self.origin, 9), s.attrs, s.agg]
                for s in self.spans]


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if name == "instance_pipeline.build_auxiliary":
            span.attrs["aux_arcs"] = result[0].graph.m
        return result
    return wrapper


def _traced_interior_point(tracer: Tracer, outer_ceiling, fn):
    """Wrap run_interior_point; its probe hook marks centering entry
    (minor size) and the exit-to-lifted interval (the lift)."""
    @functools.wraps(fn)
    def wrapper(aux, cert, point, *args, probe=None, **kwargs):
        span = tracer.open("ipm_driver.run_interior_point")
        attrs = span.attrs
        attrs.update(ceiling=outer_ceiling(cert.m, point.mu0), lifts=0,
                     lift_s=0.0, enters=0, minor_frac_sum=0.0)
        aux_arcs = aux.graph.m
        exited_at = None

        def timing_probe(event, data):
            nonlocal exited_at
            now = perf_counter()
            if event == "centering_enter":
                attrs["enters"] += 1
                attrs["minor_frac_sum"] += len(data["arcs"]) / aux_arcs
            elif event == "centering_exit":
                exited_at = now
            elif event == "lifted":
                attrs["lifts"] += 1
                attrs["lift_s"] += now - exited_at
            if probe is not None:
                probe(event, data)

        try:
            return fn(aux, cert, point, *args, probe=timing_probe, **kwargs)
        finally:
            tracer.close(span)
    return wrapper


def _traced_monitor_class(tracer: Tracer, base):
    class TracedMonitor:
        """Stands in for one real monitor and times every call into it;
        the monitor's own loop over values stays unwrapped."""

        __slots__ = ("inner",)

        def __init__(self, *args, **kwargs) -> None:
            self.inner = base(*args, **kwargs)
            tracer.monitors.append(self.inner)

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def record(self, value):
            t0 = perf_counter()
            try:
                self.inner.record(value)
            finally:
                tracer.add("monitor", perf_counter() - t0)

        def record_many(self, values):
            # a generator is drawn out before the clock starts, so its
            # cost lands in the caller's time, not in the monitor's
            if not hasattr(values, "__len__"):
                values = list(values)
            t0 = perf_counter()
            try:
                self.inner.record_many(values)
            finally:
                tracer.add("monitor", perf_counter() - t0, len(values))

    return TracedMonitor


def _traced_centering_class(tracer: Tracer, base):
    class TracedCenteringRun(base):
        """One span per centering run, from construction to the end of
        run(); refreshes and updates are aggregated on it."""

        def __init__(self, *args, **kwargs):
            span = tracer.open("centering.run")
            t0 = perf_counter()
            try:
                super().__init__(*args, **kwargs)
            except BaseException:
                tracer.close(span)
                raise
            span.attrs["init_s"] = perf_counter() - t0
            self._span = span

        def run(self):
            try:
                return super().run()
            finally:
                self._span.attrs.update(m_h=len(self.arcs),
                                        stall_limit=self.stall_limit)
                tracer.close(self._span)

        def refresh(self):
            t0 = perf_counter()
            try:
                return super().refresh()
            finally:
                tracer.add("refresh", perf_counter() - t0)

        def sample_update(self):
            t0 = perf_counter()
            try:
                record = super().sample_update()
            finally:
                tracer.add("sample", perf_counter() - t0)
            if record.alpha:
                tracer.add("useful", 0.0)
            return record

    return TracedCenteringRun


def _traced_forest_class(tracer: Tracer, base):
    class TracedForest(base):
        """One span per forest build; the ceiling and voltage calls that
        the centering run makes later are aggregated on its span."""

        def __init__(self, *args, **kwargs):
            span = tracer.open("spanning_tree.build")
            try:
                super().__init__(*args, **kwargs)
            finally:
                tracer.close(span)
            span.attrs["off_tree"] = len(self.off_tree)
            self._span = span

        def condition_ceiling(self):
            t0 = perf_counter()
            try:
                tau = super().condition_ceiling()
            finally:
                tracer.add("ceiling", perf_counter() - t0)
            self._span.attrs["tau"] = tau
            return tau

        def voltages(self, phi):
            t0 = perf_counter()
            try:
                return super().voltages(phi)
            finally:
                tracer.add("voltages", perf_counter() - t0)

    return TracedForest


@contextmanager
def installed(tracer: Tracer):
    """Swap the tracing wrappers into the loaded ``latticeflow`` modules
    for the duration of the block."""
    solver = sys.modules["latticeflow.solver"]
    crossover = sys.modules["latticeflow.crossover"]
    ipm_driver = sys.modules["latticeflow.ipm_driver"]
    centering = sys.modules["latticeflow.centering"]
    saved: list[tuple[object, str, object]] = []

    def patch(module, name, wrap, *extra):
        original = getattr(module, name)
        saved.append((module, name, original))
        setattr(module, name, wrap(tracer, *extra, original))

    try:
        for step in PIPELINE_STEPS:
            patch(solver, step, _spanned, "instance_pipeline." + step)
        for step in CROSSOVER_STEPS:
            patch(crossover, step, _spanned, "crossover." + step)
        patch(solver, "crossover", _spanned, "crossover")
        patch(solver, "verify_certificate", _spanned,
              "reference_oracle.verify_certificate")
        patch(solver, "run_interior_point", _traced_interior_point,
              ipm_driver.outer_ceiling)
        patch(solver, "BoundMonitor", _traced_monitor_class)
        patch(ipm_driver, "CenteringRun", _traced_centering_class)
        patch(centering, "TreeForest", _traced_forest_class)
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def traced_solve(tracer: Tracer, solve_id: int, solve, *args, **kwargs):
    """Call ``solve`` under a root span tagged with ``solve_id``."""
    tracer.solve_id = solve_id
    span = tracer.open("solve")
    try:
        return solve(*args, **kwargs)
    finally:
        tracer.close(span)


def interior_point_counts(tracer: Tracer) -> dict[int, list[tuple]]:
    """Per solve id, (iterations, updates, refreshes) of each
    ``run_interior_point`` call in call order, as the wrappers saw them:
    centering runs opened under the call, and the ``sample_update`` and
    ``refresh`` calls those runs made."""
    calls: dict[int, list[int]] = {}
    per_solve: dict[int, list[list[int]]] = {}
    for span in tracer.spans:
        if span.name == "ipm_driver.run_interior_point":
            calls[span.id] = [0, 0, 0]
            per_solve.setdefault(span.solve, []).append(calls[span.id])
        elif span.name == "centering.run":
            counts = calls[span.parent]
            counts[0] += 1
            counts[1] += span.agg.get("sample", (0,))[0]
            counts[2] += span.agg.get("refresh", (0,))[0]
    return {sid: [tuple(c) for c in rows] for sid, rows in per_solve.items()}


def nearest_rank(values: list, q: float):
    """The q-quantile by nearest rank; 0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0


def layer_metrics(tracer: Tracer, solves: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures over every traced solve.

    Times and counts are means per solve; ratios, percentiles and
    extremes are taken over all centering runs, forests or interior
    point calls. Nested figures include what they call: ``sample_s``
    and ``refresh_s`` include their monitor calls, ``refresh_s``
    includes ``voltages_s``, ``init_s`` includes the forest build and
    the ceiling. Self times subtract only child spans.
    """
    n_spans = {}
    span_s = {}
    child_s: dict[int, float] = {}
    agg: dict[str, list] = {}
    runs_updates: list[int] = []
    stall_ratios: list[float] = []
    taus: list[int] = []
    off_tree: list[int] = []
    aux_arcs: list[int] = []
    init_s = lift_s = frac_sum = 0.0
    enters = 0
    iter_ratios: list[float] = []
    iterations: dict[int, int] = {}
    for span in tracer.spans:
        n_spans[span.name] = n_spans.get(span.name, 0) + 1
        span_s[span.name] = span_s.get(span.name, 0.0) + span.duration
        if span.parent is not None:
            child_s[span.parent] = (child_s.get(span.parent, 0.0)
                                    + span.duration)
        for key, (count, seconds) in span.agg.items():
            slot = agg.setdefault(key, [0, 0.0])
            slot[0] += count
            slot[1] += seconds
        attrs = span.attrs
        if span.name == "centering.run":
            updates = span.agg.get("sample", (0,))[0]
            runs_updates.append(updates)
            if "stall_limit" in attrs:
                stall_ratios.append(updates / attrs["stall_limit"])
            init_s += attrs.get("init_s", 0.0)
            iterations[span.parent] = iterations.get(span.parent, 0) + 1
        elif span.name == "spanning_tree.build":
            off_tree.append(attrs.get("off_tree", 0))
            if "tau" in attrs:
                taus.append(attrs["tau"])
        elif span.name == "ipm_driver.run_interior_point":
            lift_s += attrs["lift_s"]
            frac_sum += attrs["minor_frac_sum"]
            enters += attrs["enters"]
        elif span.name == "instance_pipeline.build_auxiliary":
            if "aux_arcs" in attrs:
                aux_arcs.append(attrs["aux_arcs"])
    ipm_self = solver_self = 0.0
    for span in tracer.spans:
        if span.name == "ipm_driver.run_interior_point":
            ipm_self += span.duration - child_s.get(span.id, 0.0)
            iter_ratios.append(iterations.get(span.id, 0)
                               / span.attrs["ceiling"])
        elif span.name == "solve":
            solver_self += span.duration - child_s.get(span.id, 0.0)

    def total(key, i):
        return agg.get(key, (0, 0.0))[i]

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    per = 1 / max(1, solves)
    runs = n_spans.get("centering.run", 0)
    updates = total("sample", 0)
    refreshes = total("refresh", 0)
    pipeline_s = sum(span_s.get("instance_pipeline." + s, 0.0)
                     for s in PIPELINE_STEPS)
    return {
        "centering.sample_s": (total("sample", 1) * per, "s"),
        "centering.updates": (updates * per, "count"),
        "centering.refreshes": (refreshes * per, "count"),
        "centering.useful_update_ratio": (
            total("useful", 0) / updates if updates else 0.0, "ratio"),
        "centering.updates_per_run.p50": (
            nearest_rank(runs_updates, 0.5), "count"),
        "centering.updates_per_run.p90": (
            nearest_rank(runs_updates, 0.9), "count"),
        "centering.init_s": (init_s * per, "s"),
        "centering.refresh_s": (total("refresh", 1) * per, "s"),
        "centering.exit_ratio": (runs / refreshes if refreshes else 0.0,
                                 "ratio"),
        "centering.stall_ratio.max": (max(stall_ratios, default=0.0),
                                      "ratio"),
        "exact_arith.monitor_s": (total("monitor", 1) * per, "s"),
        "exact_arith.values_recorded": (total("monitor", 0) * per, "count"),
        "exact_arith.peak_bits.max": (
            max((m.max_seen.bit_length() for m in tracer.monitors),
                default=0), "bits"),
        "spanning_tree.build_s": (
            span_s.get("spanning_tree.build", 0.0) * per, "s"),
        "spanning_tree.builds": (
            n_spans.get("spanning_tree.build", 0) * per, "count"),
        "spanning_tree.ceiling_s": (total("ceiling", 1) * per, "s"),
        "spanning_tree.voltages_s": (total("voltages", 1) * per, "s"),
        "spanning_tree.tau.p50": (nearest_rank(taus, 0.5), "count"),
        "spanning_tree.off_tree.mean": (mean(off_tree), "count"),
        "ipm_driver.iterations": (runs * per, "count"),
        "ipm_driver.iter_ratio.max": (max(iter_ratios, default=0.0),
                                      "ratio"),
        "ipm_driver.self_s": (ipm_self * per, "s"),
        "ipm_driver.lift_s": (lift_s * per, "s"),
        "ipm_driver.minor_frac.mean": (frac_sum / enters if enters else 0.0,
                                       "ratio"),
        "instance_pipeline.s": (pipeline_s * per, "s"),
        "instance_pipeline.aux_arcs": (mean(aux_arcs), "count"),
        "crossover.s": (span_s.get("crossover", 0.0) * per, "s"),
        "crossover.nested_cut_s": (
            span_s.get("crossover.nested_cut_crossover", 0.0) * per, "s"),
        "crossover.maxflow_s": (
            span_s.get("crossover.admissible_max_flow", 0.0) * per, "s"),
        "reference_oracle.verify_s": (
            span_s.get("reference_oracle.verify_certificate", 0.0) * per,
            "s"),
        "solver.self_s": (solver_self * per, "s"),
    }
