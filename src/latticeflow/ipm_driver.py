"""The outer path-following loop.

Starting from the constructed interior point at mu0, each iteration:

1. reclassifies arcs against the current point: an arc whose primal
   value has collapsed (9 m x_a < 7 beta) is deleted, one whose slack
   has collapsed (9 m s_a < 7 gamma) is contracted, and the survivors
   form the working minor. After any such change two rules decide the
   arcs whose value the new minor forces at every optimum, and repeat
   until neither fires:
   - a minor bridge carries the total demand of the side it cuts off,
     since every other arc leaving that side is deleted or lies inside
     a class. It is deleted when that demand is 0 and 9 x_a <= 2 beta,
     which keeps its frozen flow inside the crossover's demand fold;
   - a minor self-loop has the reduced cost c_a minus the cost of the
     merge-forest path between its endpoints, since contracted arcs
     are tight. It is contracted when that is 0; a negative one is an
     InvariantError.
   A bridge's flow and a loop's slack cannot move while the minor stays
   the same, so the rules run only after a change;
2. tries the caller's ``rounding`` (the crossover) on a fixed
   schedule: at iteration 0, at every power-of-two iteration, whenever
   the proxy's bit gap, the bit length of 81 * sum x_a s_a less that
   of 4 beta gamma, is at most half of what it was at the last try,
   and at the proxy exit, where the duality-gap proxy over the minor
   is tiny (81 * sum x_a s_a < 4 beta gamma). The optimal face is
   often identified well before that line (Ye, Math. Programming 57,
   1992; Mehrotra and Ye, Math. Programming 62, 1993). A try that
   certifies ends the path with its answer. A try refused before the
   exit, by RoundingRefusedError when the admissible arcs cannot route
   the demands, changes nothing, since the crossover copies what it
   changes, and the path goes on. At the exit, where the crossover is
   proven to certify, a refusal propagates, and any other
   InvariantError propagates from every try;
3. otherwise lowers mu and recenters the minor with random integer
   cycle updates. The proven short step cuts mu by mu / (8 sqrt m).
   One centering run first tries k times that cut, with a budget of
   4 m_h updates; k is 2, 4 and 8 at iterations 1, 2 and 3, and 8
   after that. A trial that stalls at an interior point is corrected:
   the run linearizes again at that point and centers at the trial
   target for another 4 m_h updates. It falls back to the short step
   when the exact exit test at the trial target passes in neither (the
   adaptive step of Mizuno, Todd and Ye, Math. Oper. Res. 18(4), 1993,
   on a fixed schedule for k, since with the corrector a trial is
   almost never rejected). At iteration 0 the run takes the short step
   alone.
   Every iteration lowers mu by at least the short step, so the
   iteration ceiling still holds. When step 1 deleted and contracted
   nothing, the minor is the previous one: the previous centering's
   spanning forest is offered for reuse, and the trial starts from the
   path's secant. The change of the minor arcs' flow over the previous
   centering is a circulation of the minor; scaled by the ratio of the
   trial's decrement to the previous one, it predicts the trial's
   point (the predictor of Mizuno, Todd and Ye; the corrector above is
   its other half). The short-step fallback starts from the driver's
   point;
4. lifts the recentered point back to the full auxiliary instance:
   minor arcs take their new flows, every node's dual moves by its
   class voltage, and flow imbalances inside each contracted class are
   routed leaf-to-root along its tree in the merge forest, naming the
   first merge arc in contraction order that is left without positive
   flow. When a deleted arc's slack would not be positive, each
   component of the minor shifts its duals by its own constant, which
   moves no minor or contracted slack; shortest paths over the
   constraints "slack >= 1" on the deleted arcs between components
   choose the constants. The slacks are read off the duals, never kept
   beside them: s = c - A^T y.

All checks are exact integer comparisons. The deletions and
contractions are permanent: the sets only grow, which is what makes the
merge forest well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import Callable

from .centering import CenteringRun
from .errors import (InvariantError, IterationCeilingError,
                     RoundingRefusedError)
from .exact_arith import BoundMonitor
from .graph_core import (ContractionMap, apply_incidence, bridges,
                         component_roots, minor_arcs, reduced_costs,
                         route_to_roots, tree_potentials)
from .instance_pipeline import AuxiliaryInstance, InitialPoint, ScalingCertificate

__all__ = ["IPMResult", "run_interior_point", "decrement_mu", "outer_ceiling"]


@dataclass
class IPMResult:
    x: list[int]
    s: list[int]
    y: dict[int, int]
    mu: int
    cmap: ContractionMap
    iterations: int
    updates: int
    refreshes: int
    rounding_tries: int = 0
    corrected: int = 0  # trials accepted through the corrector
    # the certified (x_star, y_t, s_t) of the try that ended the path;
    # None only while the rounding is looking at this result
    rounded: tuple[list[int], dict[int, int], list[int]] | None = None


def decrement_mu(mu: int, m: int) -> int:
    """One path parameter step: mu falls by mu / (8 sqrt m), rounded
    down, but by at least 1 so progress never stalls at small mu."""
    return mu - max(1, math.isqrt(mu * mu // (64 * m)))


def outer_ceiling(m: int, mu0: int) -> int:
    """Iteration budget: the decrement shrinks mu by a (1 - 1/(8 sqrt m))
    factor, so ceil(16 sqrt(m) ln mu0) + m steps suffice to drive the
    proxy below its exit line; exceeding this is a bug, not bad luck.
    ln mu0 is bounded above by bits * 0.6931472, with 0.6931472 > ln 2,
    and the ceiling of 16 sqrt(m) times that is exact in integers: with
    k = 16 * bits * 6931472, it is the least c with (c * 10^7)^2 >=
    m k^2, which is isqrt(m k^2 - 1) // 10^7 + 1."""
    k = 16 * mu0.bit_length() * 6931472
    return math.isqrt(m * k * k - 1) // 10**7 + 1 + m


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
    monitor: BoundMonitor,
    probe: Callable[[str, dict], None] | None = None,
    rounding: Callable[[AuxiliaryInstance, ScalingCertificate, IPMResult],
                       tuple],
) -> IPMResult:
    """Follow the central path down, handing the point (plus the
    accumulated minor) to ``rounding`` on the schedule of step 2, and
    return at the first try that certifies, with the answer in
    ``rounded``. A try refuses by raising RoundingRefusedError, and the
    path goes on; the proxy exit's try is the last, and its refusal
    propagates. Any other InvariantError from a try propagates at
    once."""
    g = aux.graph
    m = cert.m
    x = list(point.x)
    s = list(point.s)
    y = dict(point.y)
    mu = point.mu0
    cmap = ContractionMap(g)
    minor = minor_arcs(g, cmap)
    forest = None
    previous = None  # mu and the minor's x at the last centering's start
    ceiling = outer_ceiling(m, point.mu0)
    mu0_bits = point.mu0.bit_length()
    iterations = updates = refreshes = tries = corrected = 0
    exit_line = 4 * cert.beta * cert.gamma
    tried_gap = 0  # the proxy's bit gap at the last rounding try

    while True:
        # 1. grow the deleted/contracted sets against the current point;
        # only the previous minor's arcs are still undecided; if none is
        # decided now, the minor and its classes are unchanged
        changed = False
        for aid, _, _ in minor:
            kind = _classify(x[aid], s[aid], m, cert)
            if kind == "delete":
                cmap.delete(aid)
                changed = True
            elif kind == "contract":
                cmap.contract(aid)
                changed = True
        while changed:
            minor = minor_arcs(g, cmap)
            forest = previous = None
            forced = _forced_bridges(aux, cert, cmap, minor, x)
            for aid in forced:
                cmap.delete(aid)
            loops = _forced_loops(aux, cmap, minor)
            for aid in loops:
                cmap.contract(aid)
            changed = bool(forced or loops)

        _check_iterate(aux, cert, x, s, mu, cmap, minor)

        gap_sum = sum(x[aid] * s[aid] for aid, _, _ in minor)
        if probe is not None:
            probe("iterate", {
                "iter": iterations, "mu": mu, "minor_arcs": len(minor),
                "contracted": len(cmap.contracted),
                "deleted": len(cmap.deleted), "gap_sum": gap_sum,
                "max_abs": monitor.max_seen})

        # 2. a rounding try on the schedule, and always at the proxy exit
        at_exit = 81 * gap_sum < exit_line
        if not at_exit and iterations >= ceiling:
            raise IterationCeilingError(
                f"proxy still large after {iterations} decrements "
                f"(ceiling {ceiling})")
        gap = (81 * gap_sum).bit_length() - exit_line.bit_length()
        if (at_exit or iterations & (iterations - 1) == 0
                or 2 * gap <= tried_gap):
            tried_gap = gap
            tries += 1
            res = IPMResult(x, s, y, mu, cmap, iterations, updates,
                            refreshes, tries, corrected)
            try:
                res.rounded = rounding(aux, cert, res)
            except RoundingRefusedError:
                if at_exit:
                    raise
            else:
                return res

        # 3. decrement and recenter the minor, trying 2, 4, then 8
        # short steps first; a centering starts only above the proxy
        # exit, where mu > 2^40, and eight short steps leave more than
        # 0.4 mu, so the trial target is positive
        short_mu = decrement_mu(mu, m)
        trial_mu = (mu - (1 << min(3, iterations)) * (mu - short_mu)
                    if iterations else None)
        secant = None
        if trial_mu is not None and previous is not None:
            prev_mu, prev_x = previous
            secant = ({aid: x[aid] - prev_x[aid] for aid, _, _ in minor},
                      mu - trial_mu, prev_mu - mu)
        previous = (mu, {aid: x[aid] for aid, _, _ in minor})
        if probe is not None:
            probe("centering_enter", {
                "iteration": iterations,
                "arcs": list(minor),
                "x": {aid: x[aid] for aid, _, _ in minor},
                "s": {aid: s[aid] for aid, _, _ in minor},
                "mu": short_mu,
                "trial_mu": trial_mu,
            })
        run = CenteringRun(arcs=minor, x=x, s=s, mu=short_mu, rng=rng,
                           mu0_bits=mu0_bits, monitor=monitor, forest=forest,
                           trial_mu=trial_mu, secant=secant)
        run.run()
        mu = run.target
        forest = run.forest
        updates += run.updates
        refreshes += run.refreshes
        corrected += run.corrected
        if probe is not None:
            probe("centering_exit", {
                "iteration": iterations,
                "arcs": list(minor),
                "x": dict(run.x_cur),
                "s": dict(run.s_cur),
                "mu": mu,
            })

        # 4. lift the recentered minor point back to the full instance
        _lift(aux, cmap, minor, run.x_cur, run.pi, x, y)
        s = reduced_costs(g, aux.c, y)
        if probe is not None:
            probe("lifted", {
                "iteration": iterations,
                "x": list(x),
                "s": list(s),
                "y": dict(y),
            })
        monitor.record_many(chain(x, s, y.values()))
        iterations += 1


def _forced_bridges(aux: AuxiliaryInstance, cert: ScalingCertificate,
                    cmap: ContractionMap, minor: list[tuple[int, int, int]],
                    x: list[int]) -> list[int]:
    """The minor's bridges that carry no flow at any optimum and are
    small enough to delete: the side each cuts off demands nothing in
    total, and 9 x_a <= 2 beta."""
    demand: dict[int, int] = {}
    for v in aux.graph.nodes:
        rep = cmap.find(v)
        demand[rep] = demand.get(rep, 0) + aux.b[v]
    return [aid for aid, side in bridges(minor, demand)
            if side == 0 and 9 * x[aid] <= 2 * cert.beta]


def _forced_loops(aux: AuxiliaryInstance, cmap: ContractionMap,
                  minor: list[tuple[int, int, int]]) -> list[int]:
    """The minor's self-loops that are tight at every optimal dual: the
    merge forest's arcs are, so a loop's reduced cost there is c_a minus
    the cost of the forest path between its endpoints. Raises
    InvariantError when that is negative, since no optimal dual exists
    then."""
    loops = [aid for aid, tail, head in minor if tail == head]
    if not loops:
        return []
    g, c = aux.graph, aux.c
    cost = tree_potentials(cmap.order, cmap.parent, c)
    forced = []
    for aid in loops:
        tail, head = g.arcs[aid]
        reduced = c[aid] - (cost[head] - cost[tail])
        if reduced < 0:
            raise InvariantError(
                f"self-loop {aid} has negative reduced cost {reduced} "
                "around its class")
        if reduced == 0:
            forced.append(aid)
    return forced


def _shift_components(aux: AuxiliaryInstance, cmap: ContractionMap,
                      minor: list[tuple[int, int, int]],
                      y: dict[int, int]) -> None:
    """Shift each minor component's duals by a constant so that every
    deleted arc's slack under ``y`` is at least 1, when some is not
    positive and such constants exist; otherwise leave ``y`` alone.

    Minor and contracted arcs join nodes of one component, so their
    slacks do not move. A deleted arc from component K to component L
    asks shift_L - shift_K <= slack - 1, and Bellman-Ford from a virtual
    source finds the largest shifts, all <= 0, that meet every such
    constraint, or a negative cycle when none do.
    """
    g = aux.graph
    slack = {aid: aux.c[aid] - (y[g.arcs[aid][1]] - y[g.arcs[aid][0]])
             for aid in cmap.deleted}
    if all(sa > 0 for sa in slack.values()):
        return
    comp = component_roots(
        g, [aid for aid, _, _ in minor] + cmap.merges, g.nodes)
    limits = []
    for aid, sa in slack.items():
        tail, head = comp[g.arcs[aid][0]], comp[g.arcs[aid][1]]
        if tail != head:
            limits.append((tail, head, sa - 1))
        elif sa <= 0:
            return
    shift = dict.fromkeys(comp.values(), 0)
    for _ in shift:
        relaxed = False
        for tail, head, room in limits:
            if shift[tail] + room < shift[head]:
                shift[head] = shift[tail] + room
                relaxed = True
        if not relaxed:
            break
    else:
        return  # a negative cycle: the constraints cannot all hold
    for v in g.nodes:
        y[v] += shift[comp[v]]


def _lift(aux: AuxiliaryInstance, cmap: ContractionMap,
          minor: list[tuple[int, int, int]], new_x: dict[int, int],
          pi: dict, x: list[int], y: dict[int, int]) -> None:
    """Write the recentered minor flow into ``x``, move every node's
    dual in ``y`` by its class voltage in ``pi``, shift the minor
    components' duals when a deleted slack needs it (see
    ``_shift_components``), and route each class's flow imbalance along
    its tree in the merge forest.

    ``x`` must meet the demands ``aux.b`` on entry, as ``_check_iterate``
    proves each iteration, so the imbalance left behind is exactly the
    one the minor arcs' change makes.
    """
    g = aux.graph
    demand = dict.fromkeys(g.nodes, 0)
    for aid, _, _ in minor:
        tail, head = g.arcs[aid]
        change = new_x[aid] - x[aid]
        demand[tail] += change
        demand[head] -= change
        x[aid] = new_x[aid]
    for v in g.nodes:
        y[v] += pi.get(cmap.find(v), 0)
    _shift_components(aux, cmap, minor, y)

    # route per-class flow imbalance along the merge forest, leaf first;
    # a merge arc that lost positivity is named in contraction order
    if any(demand.values()):
        route_to_roots(cmap.order, cmap.parent, demand, x)
        for aid in cmap.merges:
            if x[aid] <= 0:
                raise InvariantError(
                    f"contracted arc {aid} lost positivity while "
                    "routing class imbalance")
    if any(demand.values()):
        raise InvariantError("class imbalance survived merge-forest routing")


def _check_iterate(aux: AuxiliaryInstance, cert: ScalingCertificate,
                   x: list[int], s: list[int], mu: int, cmap: ContractionMap,
                   minor: list[tuple[int, int, int]]) -> None:
    """The per-iteration invariants; ``s`` is read off the duals, so it
    needs no check against them."""
    if apply_incidence(aux.graph, x) != aux.b:
        raise InvariantError("iterate violates flow conservation")
    dev = 0
    for aid, _, _ in minor:
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
