"""Slow, independent min-cost flow reference implementations.

This module exists so the main solver can be checked against code that
shares none of its machinery: a textbook successive-shortest-path solver
whose one Bellman-Ford search on the residual network finds both its
augmenting paths and its final potentials, exhaustive checks of
optimality and infeasibility certificates, and a seeded random instance
generator.

Nothing here is performance-sensitive; clarity wins every trade-off.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .graph_core import MultiGraph
from .instance_pipeline import RawInstance, SolveResult

__all__ = [
    "CertificateReport",
    "ssp_solve",
    "verify_certificate",
    "verify_cut",
    "random_instance",
]

_INF = float("inf")


@dataclass
class CertificateReport:
    ok: bool
    failures: list[str]
    objective: int | None


def _net_inflow(inst: RawInstance, flow: Sequence[int]) -> dict[int, int]:
    """Each node's inflow minus outflow under ``flow``."""
    net = {v: 0 for v in inst.graph.nodes}
    for a, (v, w) in enumerate(inst.graph.arcs):
        net[v] -= flow[a]
        net[w] += flow[a]
    return net


def _residual_arcs(inst: RawInstance, flow: list[int],
                   source_cap: dict[int, int], sink_need: dict[int, int]):
    """Residual arcs as (tail, head, capacity, cost, arc_id, forward).

    Node 's' is the super source, 't' the super sink; arc_id is None for
    super arcs. Both super-arc capacity dicts shrink as flow is pushed.
    """
    res = []
    for a, (v, w) in enumerate(inst.graph.arcs):
        if flow[a] < inst.u[a]:
            res.append((v, w, inst.u[a] - flow[a], inst.c[a], a, True))
        if flow[a] > 0:
            res.append((w, v, flow[a], -inst.c[a], a, False))
    for v, cap in source_cap.items():
        if cap > 0:
            res.append(("s", v, cap, 0, None, True))
    for v, need in sink_need.items():
        if need > 0:
            res.append((v, "t", need, 0, None, True))
    return res


def _bellman_ford(nodes, res, source):
    dist = {v: _INF for v in nodes}
    pred = {}
    dist[source] = 0
    for _ in range(len(nodes)):
        changed = False
        for tail, head, cap, cost, aid, fwd in res:
            if dist[tail] is not _INF and dist[tail] + cost < dist[head]:
                dist[head] = dist[tail] + cost
                pred[head] = (tail, cap, aid, fwd)
                changed = True
        if not changed:
            break
    else:
        raise AssertionError("negative cycle in residual network")
    return dist, pred


def ssp_solve(inst: RawInstance) -> SolveResult:
    """Successive shortest paths from scratch, all integer arithmetic.

    Negative arc costs are handled by pre-saturating those arcs (flow
    starts at u_a there), which makes every residual network free of
    negative cycles; Bellman-Ford then finds exact shortest paths.
    Returned potentials satisfy the three-way complementary slackness
    conditions together with the returned flow.

    When no path from the super source reaches the super sink, the
    nodes that path search cannot reach are returned as ``cut``: every
    unmet demand lies among them, no supply is owed by them, and every
    arc entering them is saturated, so their demand exceeds the
    capacity entering them (Gale's condition, see ``verify_cut``).
    """
    inst.validate()
    flow = [inst.u[a] if inst.c[a] < 0 else 0 for a in range(inst.graph.m)]
    # supply still owed by each node after the pre-saturation, in the
    # order of inst.b, which fixes the order of the super arcs
    net = _net_inflow(inst, flow)
    owed = {v: net[v] - d for v, d in inst.b.items()}
    source_cap = {v: owe for v, owe in owed.items() if owe > 0}
    sink_need = {v: -owe for v, owe in owed.items() if owe < 0}

    nodes = list(inst.graph.nodes) + ["s", "t"]
    while sum(source_cap.values()) > 0:
        res = _residual_arcs(inst, flow, source_cap, sink_need)
        dist, pred = _bellman_ford(nodes, res, "s")
        if dist["t"] is _INF:
            cut = sorted(v for v in inst.graph.nodes if dist[v] is _INF)
            return SolveResult("infeasible", None, None, None, cut=cut)
        # walk the path backwards, find the bottleneck, then push
        path = []
        v = "t"
        while v != "s":
            tail, cap, aid, fwd = pred[v]
            path.append((tail, v, cap, aid, fwd))
            v = tail
        push = min(cap for _, _, cap, _, _ in path)
        for tail, head, _, aid, fwd in path:
            if aid is None:
                if tail == "s":
                    source_cap[head] -= push
                else:
                    sink_need[tail] -= push
            elif fwd:
                flow[aid] += push
            else:
                flow[aid] -= push

    potentials = _final_potentials(inst, flow)
    objective = sum(f * cost for f, cost in zip(flow, inst.c))
    return SolveResult("optimal", flow, potentials, objective)


def _final_potentials(inst: RawInstance, flow: list[int]) -> dict[int, int]:
    """Feasible node potentials for the final residual network.

    Runs the path search's Bellman-Ford from a virtual root tied to
    every node at cost 0; the resulting distances p satisfy
    p_w <= p_v + c for every residual arc (v, w, c), which is exactly
    three-way complementary slackness for (flow, p).
    """
    nodes = inst.graph.nodes
    res = [("r", v, 0, 0, None, True) for v in nodes]
    res += _residual_arcs(inst, flow, {}, {})
    dist, _ = _bellman_ford([*nodes, "r"], res, "r")
    return {v: dist[v] for v in nodes}


def verify_certificate(inst: RawInstance, flow: list[int],
                       potentials: dict[int, int]) -> CertificateReport:
    """Check a primal-dual optimality certificate exactly.

    Conditions: capacity bounds, flow conservation, and for each arc the
    three-way slackness on the reduced cost rc = c - (p_head - p_tail):
    rc > 0 forces flow 0, rc < 0 forces flow u, rc = 0 allows anything.
    """
    failures: list[str] = []
    g = inst.graph
    if len(flow) != g.m:
        return CertificateReport(False, ["flow vector has wrong length"], None)
    missing = [v for v in g.nodes if v not in potentials]
    if missing:
        return CertificateReport(
            False, [f"missing potentials for nodes {missing}"], None)
    for a in range(g.m):
        if not 0 <= flow[a] <= inst.u[a]:
            failures.append(f"arc {a}: flow {flow[a]} outside [0, {inst.u[a]}]")
    net = _net_inflow(inst, flow)
    for v in g.nodes:
        if net[v] != inst.b[v]:
            failures.append(f"node {v}: net inflow {net[v]} != demand {inst.b[v]}")
    for a, (v, w) in enumerate(g.arcs):
        rc = inst.c[a] - (potentials[w] - potentials[v])
        if rc > 0 and flow[a] != 0:
            failures.append(f"arc {a}: positive reduced cost {rc} but flow {flow[a]}")
        if rc < 0 and flow[a] != inst.u[a]:
            failures.append(f"arc {a}: negative reduced cost {rc} but slack capacity")
    objective = sum(f * cost for f, cost in zip(flow, inst.c))
    return CertificateReport(not failures, failures, objective)


def verify_cut(inst: RawInstance, cut: list[int]) -> CertificateReport:
    """Check an infeasibility certificate exactly.

    By Gale's theorem ("A theorem on flows in networks", Pacific J.
    Math. 7, 1957) an instance has no feasible flow exactly when some
    node set S demands more than its entering arcs can carry,
    b(S) > u(in(S)). Either that inequality or its mirror, a set that
    must ship out more than its leaving arcs carry, -b(S) > u(out(S)),
    certifies infeasibility.
    """
    members = set(cut)
    if len(members) != len(cut):
        return CertificateReport(False, ["cut lists a node twice"], None)
    unknown = sorted(members - set(inst.b))
    if unknown:
        return CertificateReport(
            False, [f"cut names unknown nodes {unknown}"], None)
    demand = sum(inst.b[v] for v in members)
    entering = leaving = 0
    for a, (v, w) in enumerate(inst.graph.arcs):
        if w in members and v not in members:
            entering += inst.u[a]
        elif v in members and w not in members:
            leaving += inst.u[a]
    if demand > entering or -demand > leaving:
        return CertificateReport(True, [], None)
    return CertificateReport(False, [
        f"cut's net demand {demand} exceeds neither its entering "
        f"capacity {entering} nor, negated, its leaving capacity "
        f"{leaving}"], None)


def random_instance(seed: int, n: int, m: int, U_max: int, C_max: int,
                    mode: str = "feasible") -> RawInstance:
    """Seeded random instance on nodes 1..n with m arcs.

    The first n-1 arcs form a random spanning tree with random
    orientations, so the graph is always weakly connected; the rest are
    uniform random pairs, occasionally producing self-loops and parallel
    arcs. Costs are uniform in [-C_max, C_max].

    mode "feasible" draws a random flow in the capacity box and uses its
    boundary as the demand vector, so a feasible flow exists by
    construction. mode "random" perturbs demands by random transfers and
    may be infeasible.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if m < n - 1:
        raise ValueError("need at least n - 1 arcs for weak connectivity")
    if U_max < 1:
        raise ValueError(f"U_max must be at least 1, got {U_max}")
    if C_max < 0:
        raise ValueError(f"C_max must be at least 0, got {C_max}")
    if mode not in ("feasible", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = random.Random(seed)
    arcs: list[tuple[int, int]] = []
    for v in range(2, n + 1):
        p = rng.randint(1, v - 1)
        arcs.append((p, v) if rng.random() < 0.5 else (v, p))
    for _ in range(m - (n - 1)):
        v = rng.randint(1, n)
        w = rng.randint(1, n)  # v == w is allowed: self-loop
        arcs.append((v, w))
    u = [rng.randint(1, U_max) for _ in range(m)]
    c = [rng.randint(-C_max, C_max) for _ in range(m)]
    b = {v: 0 for v in range(1, n + 1)}
    if mode == "feasible":
        for a, (v, w) in enumerate(arcs):
            f = rng.randint(0, u[a])
            b[v] -= f
            b[w] += f
    else:
        for _ in range(n):
            v = rng.randint(1, n)
            w = rng.randint(1, n)
            amt = rng.randint(0, U_max)
            b[v] -= amt
            b[w] += amt
    return RawInstance(MultiGraph(list(range(1, n + 1)), arcs), b, u, c)
