"""End-to-end solves: raw capacitated instance in, certified integral
optimum or certified infeasibility out.

A solve first decides feasibility with one exact max-flow over the whole
instance: a source feeds every supply node, every demand node drains to
a sink, and the arcs keep their capacities. If the flow falls short of
the total demand, the nodes that can still reach the sink in the
residual graph form a Gale cut, a set whose demand exceeds the capacity
of the arcs entering it, and the solve returns that cut at once.

Otherwise each weakly-connected component runs the whole pipeline
independently: cost normalization, gcd downscaling, choosing the scale
factors, the uncapacitated auxiliary build, path following, crossover,
and exact unscaling. Path following is handed the crossover, tries it
on a fixed schedule whose last try is at the proxy exit, and returns
the answer of the first try that certifies. The auxiliary instance's
balancing arcs still carry the constructed initial point, but the
instance is known to be feasible, so a balancing arc with flow at the
optimum contradicts the max-flow and raises InvariantError.

Every magnitude a component stores is recorded in a BoundMonitor whose
limit is 2^31 m^10 U^2 C^2 with m = 3 m0 and U, C measured after the
downscale (C clamped to 1); it raises the moment any value crosses the
limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import Callable

from .crossover import crossover
from .errors import InvariantError
from .exact_arith import BoundMonitor
from .graph_core import MultiGraph, component_roots, max_flow
from .instance_pipeline import (
    RawInstance,
    SolveResult,
    build_auxiliary,
    compute_scaling,
    downscale,
    normalize_costs,
    scale_up,
)
from .ipm_driver import run_interior_point
from .reference_oracle import verify_certificate, verify_cut

__all__ = ["SolveConfig", "SolveResult", "solve"]


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0


def _gale_cut(inst: RawInstance) -> list[int] | None:
    """Decide feasibility with one max-flow from the supply nodes to the
    demand nodes. Returns None when the flow meets every demand, else
    the sorted nodes that can still reach the sink in the residual
    graph: the smallest sink side of a minimum cut, whose demand exceeds
    the capacity of the arcs entering it."""
    g = inst.graph
    arcs = [(tail, head, cap) for (tail, head), cap in zip(g.arcs, inst.u)]
    unmet, _, sink_side = max_flow(g.nodes, arcs, inst.b)
    return sorted(sink_side) if unmet else None


def _split_components(inst: RawInstance) -> list[tuple[list[int], list[int]]]:
    """Weakly-connected components as (node list, arc id list), ordered
    by their lowest node, nodes and arcs in their original order."""
    g = inst.graph
    # every tree starts at its component's lowest node
    root = component_roots(g, range(g.m), sorted(g.nodes))
    groups: dict[int, tuple[list[int], list[int]]] = {
        r: ([], []) for r in root.values()}
    for v in g.nodes:
        groups[root[v]][0].append(v)
    for aid, (tail, _) in enumerate(g.arcs):
        groups[root[tail]][1].append(aid)
    return list(groups.values())


def _prepare(inst: RawInstance) -> tuple:
    """The front half of the pipeline on one component: (normalized
    instance, reversed arc ids, scaling certificate, monitor, auxiliary
    instance, initial point)."""
    norm, reversed_ids = normalize_costs(inst)
    down, info = downscale(norm)
    cert = compute_scaling(down.graph.m, info.U, info.C,
                           beta0=info.beta0, gamma0=info.gamma0)
    monitor = BoundMonitor(cert.limit)
    scaled = scale_up(down, cert)
    aux, point = build_auxiliary(scaled, cert, monitor=monitor)
    return norm, reversed_ids, cert, monitor, aux, point


def _solve_component(inst: RawInstance, arc_ids: list[int], rng: Random,
                     probe: Callable[[str, dict], None] | None
                     ) -> tuple[list[int], dict[int, int], dict]:
    """Run the full pipeline on one weakly-connected feasible instance."""
    norm, reversed_ids, cert, monitor, aux, point = _prepare(inst)
    res = run_interior_point(aux, cert, point, rng=rng, monitor=monitor,
                             probe=probe, rounding=crossover)
    if probe is not None:
        probe("component", {
            "instance": inst, "arc_ids": arc_ids, "normalized": norm,
            "reversed_ids": reversed_ids, "cert": cert, "aux": aux,
            "point": point, "result": res})
    x_star, y_t, s_t = res.rounded
    monitor.record_many(chain(x_star, s_t, y_t.values()))

    stats = {
        "nodes": inst.graph.n,
        "arcs": inst.graph.m,
        "beta": cert.beta,
        "gamma": cert.gamma,
        "mu0": point.mu0,
        "iterations": res.iterations,
        "updates": res.updates,
        "refreshes": res.refreshes,
        "corrected": res.corrected,
        "rounding_tries": res.rounding_tries,
        "deleted": len(res.cmap.deleted),
        "contracted": len(res.cmap.contracted),
        "max_abs": monitor.max_seen,
        "limit": cert.limit,
    }

    if any(x_star[h] for h in aux.hat_arc.values()):
        raise InvariantError(
            "balancing arcs carry flow at the optimum of a component the "
            "max-flow found feasible")

    flow: list[int] = []
    for i in range(norm.graph.m):
        up = x_star[aux.up_arc[i]]
        if up % cert.beta:
            raise InvariantError(f"arc {i}: optimal flow is not integral")
        flow.append(up // cert.beta * cert.beta0)
    for i in reversed_ids:
        flow[i] = inst.u[i] - flow[i]

    potentials: dict[int, int] = {}
    for v in inst.graph.nodes:
        if y_t[v] % cert.gamma:
            raise InvariantError(f"node {v}: potential is not gamma-integral")
        potentials[v] = y_t[v] // cert.gamma * cert.gamma0
    return flow, potentials, stats


def solve(inst: RawInstance, config: SolveConfig | None = None, *,
          probe: Callable[[str, dict], None] | None = None) -> SolveResult:
    """Solve a capacitated min-cost flow instance exactly.

    The returned flow is indexed like the instance's arcs; potentials
    certify optimality through three-way complementary slackness on the
    reduced costs. An infeasible instance is decided by one max-flow
    before any interior point work and comes back with ``cut``, a node
    set whose demand exceeds what can enter it (Gale's theorem). Both
    certificates are checked exactly before ``solve`` returns.

    ``probe(event, payload)`` observes each solved component: the
    interior point loop's events, then ``component`` (see the README).
    Payloads are live solver state and must not be mutated.
    """
    config = config or SolveConfig()
    inst.validate()
    cut = _gale_cut(inst)
    if cut is not None:
        report = verify_cut(inst, cut)
        if not report.ok:
            raise InvariantError(
                "infeasibility cut failed verification: "
                + "; ".join(report.failures))
        return SolveResult("infeasible", None, None, None, cut=cut)
    rng = Random(config.seed)

    flow = [0] * inst.graph.m
    potentials: dict[int, int] = {}
    components: list[dict] = []

    for nodes, arc_ids in _split_components(inst):
        if not arc_ids:
            # an isolated node; the max-flow met its demand, so it is zero
            potentials[nodes[0]] = 0
            components.append({"nodes": 1, "arcs": 0})
            continue
        sub = RawInstance(
            MultiGraph(nodes, [inst.graph.arcs[a] for a in arc_ids]),
            {v: inst.b[v] for v in nodes},
            [inst.u[a] for a in arc_ids],
            [inst.c[a] for a in arc_ids])
        sub_flow, sub_pot, stats = _solve_component(sub, arc_ids, rng, probe)
        components.append(stats)
        for local, aid in enumerate(arc_ids):
            flow[aid] = sub_flow[local]
        potentials.update(sub_pot)

    objective = sum(f * c for f, c in zip(flow, inst.c))
    report = verify_certificate(inst, flow, potentials)
    if not report.ok:
        raise InvariantError(
            "solution failed certificate verification: "
            + "; ".join(report.failures))
    return SolveResult("optimal", flow, potentials, objective, components)
