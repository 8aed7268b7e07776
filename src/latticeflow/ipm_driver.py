"""The outer path-following loop.

Starting from the constructed interior point at mu0, each iteration:

1. reclassifies arcs against the current point: an arc whose primal
   value has collapsed (9 m x_a < 7 beta) is deleted, one whose slack
   has collapsed (9 m s_a < 7 gamma) is contracted, and the survivors
   form the working minor;
2. stops once the duality-gap proxy over the minor is tiny
   (81 * sum x_a s_a < 4 beta gamma);
3. otherwise lowers mu by its fixed ratio step and recenters the minor
   with random integer cycle updates;
4. lifts the recentered point back to the full auxiliary instance:
   minor arcs take their new values, every node's dual moves by its
   class voltage, deleted arcs get their slack recomputed, and flow
   imbalances inside each contracted class are routed leaf-to-root
   along the arcs whose contraction built the class.

All checks are exact integer comparisons. The deletions and
contractions are permanent: the sets only grow, which is what makes the
per-class routing forests well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable

from .centering import CenteringRun
from .errors import InvariantError, IterationCeilingError
from .exact_arith import BoundMonitor, isqrt
from .graph_core import ContractionMap, MinorView, apply_incidence
from .instance_pipeline import AuxiliaryInstance, InitialPoint, ScalingCertificate

__all__ = ["IPMResult", "run_interior_point", "decrement_mu", "outer_ceiling"]


@dataclass
class IPMResult:
    x: list[int]
    s: list[int]
    y: dict[int, int]
    mu: int
    cmap: ContractionMap
    merge_edges: list[tuple[int, int, int]]  # (arc_id, tail, head)
    iterations: int
    updates: int
    refreshes: int


def decrement_mu(mu: int, m: int) -> int:
    """One path parameter step: mu falls by mu / (8 sqrt m), rounded
    down, but by at least 1 so progress never stalls at small mu."""
    return mu - max(1, isqrt(mu * mu // (64 * m)))


def outer_ceiling(m: int, mu0: int) -> int:
    """Iteration budget: the decrement shrinks mu by a (1 - 1/(8 sqrt m))
    factor, so ceil(16 sqrt(m) ln mu0) + m steps suffice to drive the
    proxy below its exit line; exceeding this is a bug, not bad luck.
    ln mu0 is bounded above through the bit length to stay exact."""
    ln_mu0 = mu0.bit_length() * math.log(2)
    return math.ceil(16 * math.sqrt(m) * ln_mu0) + m


def _classify(x: int, s: int, m: int, cert: ScalingCertificate) -> str:
    x_small = 9 * m * x < 7 * cert.beta
    s_small = 9 * m * s < 7 * cert.gamma
    if x_small and s_small:
        raise InvariantError(
            "arc qualifies for both deletion and contraction; the point "
            "cannot be centered")
    if x_small:
        return "delete"
    if s_small:
        return "contract"
    return "keep"


def run_interior_point(
    aux: AuxiliaryInstance,
    cert: ScalingCertificate,
    point: InitialPoint,
    *,
    rng: Random,
    monitor: BoundMonitor | None = None,
    probe: Callable[[str, dict], None] | None = None,
    check_invariants: bool = True,
) -> IPMResult:
    """Follow the central path down until the gap proxy clears, then
    hand the final point (plus the accumulated minor) to the crossover."""
    g = aux.graph
    m = cert.m
    x = list(point.x)
    s = list(point.s)
    y = dict(point.y)
    mu = point.mu0
    cmap = ContractionMap(g)
    merge_edges: list[tuple[int, int, int]] = []
    ceiling = outer_ceiling(m, point.mu0)
    mu0_bits = point.mu0.bit_length()
    iterations = updates = refreshes = 0

    while True:
        # 1. grow the deleted/contracted sets against the current point
        for aid in range(g.m):
            if aid in cmap.deleted or aid in cmap.contracted:
                continue
            kind = _classify(x[aid], s[aid], m, cert)
            if kind == "delete":
                cmap.delete(aid)
            elif kind == "contract":
                tail, head = g.arcs[aid]
                if cmap.contract(aid, tail, head):
                    merge_edges.append((aid, tail, head))
        minor = MinorView(g, cmap)

        if check_invariants:
            _check_iterate(aux, cert, x, s, y, mu, cmap, minor)

        gap_sum = sum(x[aid] * s[aid] for aid, _, _ in minor.arcs)
        if probe is not None:
            probe("iterate", {
                "iter": iterations, "mu": mu, "minor_arcs": minor.m_h,
                "contracted": len(cmap.contracted),
                "deleted": len(cmap.deleted), "gap_sum": gap_sum,
                "max_abs": monitor.max_seen if monitor else None})

        # 2. duality-gap proxy over the minor
        if 81 * gap_sum < 4 * cert.beta * cert.gamma:
            return IPMResult(x, s, y, mu, cmap, merge_edges, iterations,
                             updates, refreshes)

        if iterations >= ceiling:
            raise IterationCeilingError(
                f"proxy still large after {iterations} decrements "
                f"(ceiling {ceiling})")

        # 3. decrement and recenter the minor
        mu = decrement_mu(mu, m)
        minor_x = {aid: x[aid] for aid, _, _ in minor.arcs}
        minor_s = {aid: s[aid] for aid, _, _ in minor.arcs}
        if probe is not None:
            probe("centering_enter", {
                "iteration": iterations,
                "arcs": list(minor.arcs),
                "x": dict(minor_x),
                "s": dict(minor_s),
                "mu": mu,
            })
        run = CenteringRun(arcs=minor.arcs, x=minor_x, s=minor_s, mu=mu,
                           rng=rng, mu0_bits=mu0_bits, monitor=monitor)
        result = run.run()
        updates += result.updates
        refreshes += result.refreshes
        if probe is not None:
            probe("centering_exit", {
                "iteration": iterations,
                "arcs": list(minor.arcs),
                "x": dict(result.x),
                "s": dict(result.s),
                "mu": mu,
            })

        # 4. lift the recentered minor point back to the full instance
        _lift(aux, cmap, minor, merge_edges, result.x, result.s, result.pi,
              x, s, y)
        if probe is not None:
            probe("lifted", {
                "iteration": iterations,
                "x": list(x),
                "s": list(s),
                "y": dict(y),
            })
        if monitor is not None:
            monitor.record_many(x)
            monitor.record_many(s)
            monitor.record_many(y.values())
        iterations += 1


def _lift(aux: AuxiliaryInstance, cmap: ContractionMap, minor: MinorView,
          merge_edges: list[tuple[int, int, int]],
          new_x: dict[int, int], new_s: dict[int, int], pi: dict,
          x: list[int], s: list[int], y: dict[int, int]) -> None:
    g = aux.graph
    for aid, _, _ in minor.arcs:
        x[aid] = new_x[aid]
        s[aid] = new_s[aid]
    # every node inherits its class voltage; contracted arcs join equal
    # classes so their slack is untouched, deleted arcs pick up whatever
    # the new duals dictate
    for v in g.nodes:
        y[v] += pi.get(cmap.find(v), 0)
    for aid in cmap.deleted:
        tail, head = g.arcs[aid]
        s[aid] = aux.c[aid] - (y[head] - y[tail])

    # route per-class flow imbalance along the merge forest
    err = apply_incidence(g, x)
    for v in g.nodes:
        err[v] -= aux.b[v]
    if any(err.values()):
        _route_class_imbalance(g, cmap, merge_edges, err, x)
    if any(err.values()):
        raise InvariantError("class imbalance survived merge-forest routing")


def _route_class_imbalance(g, cmap: ContractionMap,
                           merge_edges: list[tuple[int, int, int]],
                           err: dict[int, int], x: list[int]) -> None:
    adj: dict[int, list[tuple[int, int]]] = {}
    for aid, tail, head in merge_edges:
        adj.setdefault(tail, []).append((aid, head))
        adj.setdefault(head, []).append((aid, tail))
    seen: set[int] = set()
    for aid, tail, head in merge_edges:
        rep = cmap.find(tail)
        if rep in seen:
            continue
        seen.add(rep)
        # BFS over the class's merge arcs, then clear errors leaf-first
        order = [rep]
        parent: dict[int, tuple[int, int]] = {}
        visited = {rep}
        qi = 0
        while qi < len(order):
            v = order[qi]
            qi += 1
            for arc, other in adj.get(v, ()):
                if other not in visited:
                    visited.add(other)
                    parent[other] = (arc, v)
                    order.append(other)
        for v in reversed(order[1:]):
            if err[v] == 0:
                continue
            arc, p = parent[v]
            t, _ = g.arcs[arc]
            if t == v:
                x[arc] += err[v]
            else:
                x[arc] -= err[v]
            if x[arc] <= 0:
                raise InvariantError(
                    f"contracted arc {arc} lost positivity while routing "
                    "class imbalance")
            err[p] += err[v]
            err[v] = 0


def _check_iterate(aux: AuxiliaryInstance, cert: ScalingCertificate,
                   x: list[int], s: list[int], y: dict[int, int], mu: int,
                   cmap: ContractionMap, minor: MinorView) -> None:
    g = aux.graph
    if apply_incidence(g, x) != aux.b:
        raise InvariantError("iterate violates flow conservation")
    for aid, (tail, head) in enumerate(g.arcs):
        if aux.c[aid] - (y[head] - y[tail]) != s[aid]:
            raise InvariantError(f"arc {aid}: duals and slack disagree")
    dev = 0
    for aid, _, _ in minor.arcs:
        if x[aid] <= 0 or s[aid] <= 0:
            raise InvariantError(f"arc {aid}: minor point is not interior")
        # survivors obey the two-sided magnitude fence around mu
        if 56 * cert.gamma * x[aid] > 81 * mu * cert.m:
            raise InvariantError(f"arc {aid}: primal value too large for minor")
        if 56 * cert.beta * s[aid] > 81 * mu * cert.m:
            raise InvariantError(f"arc {aid}: slack too large for minor")
        dev += abs(x[aid] * s[aid] - mu)
    if 8 * dev > mu:
        raise InvariantError("iterate lost centrality")
    for aid in cmap.deleted:
        if s[aid] <= 0:
            raise InvariantError(f"deleted arc {aid} lost dual feasibility")
    for aid in cmap.contracted:
        if x[aid] <= 0:
            raise InvariantError(f"contracted arc {aid} lost primal positivity")
