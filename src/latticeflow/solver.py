"""End-to-end solves: raw capacitated instance in, certified integral
optimum (or an infeasibility verdict) out.

Each weakly-connected component runs the whole pipeline independently:
cost normalization, gcd downscaling, choosing the scale factors, the
uncapacitated auxiliary build, path following, crossover, and exact
unscaling. A component whose balancing arcs carry flow at the optimum
has no feasible flow at all, which settles the original instance.

Every magnitude a component stores is recorded in a BoundMonitor whose
limit is 2^31 m^10 U^2 C^2 with m = 3 m0 and U, C measured after the
downscale (C clamped to 1); strict mode raises the moment any value
crosses the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Callable

from .crossover import crossover
from .errors import InvariantError
from .exact_arith import BoundMonitor
from .graph_core import MultiGraph
from .instance_pipeline import (
    RawInstance,
    build_auxiliary,
    compute_scaling,
    downscale,
    normalize_costs,
    scale_up,
)
from .ipm_driver import run_interior_point
from .reference_oracle import verify_certificate

__all__ = ["SolveConfig", "SolveResult", "solve"]


@dataclass(frozen=True)
class SolveConfig:
    seed: int = 0
    strict_gamma: bool = False
    monitor_mode: str = "strict"  # "strict" | "log"
    check_invariants: bool = True


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible"
    flow: list[int] | None
    potentials: dict[int, int] | None
    objective: int | None
    max_abs: int
    components: list[dict] = field(default_factory=list)


def _split_components(inst: RawInstance) -> list[tuple[list[int], list[int]]]:
    """Weakly-connected components as (node list, arc id list), nodes
    and arcs in their original order."""
    parent = {v: v for v in inst.graph.nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for tail, head in inst.graph.arcs:
        a, b = find(tail), find(head)
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for v in inst.graph.nodes:
        groups.setdefault(find(v), ([], []))[0].append(v)
    for aid, (tail, _) in enumerate(inst.graph.arcs):
        groups[find(tail)][1].append(aid)
    return [groups[k] for k in sorted(groups)]


def _solve_component(inst: RawInstance, arc_ids: list[int], rng: Random,
                     config: SolveConfig,
                     probe: Callable[[str, dict], None] | None
                     ) -> tuple[str, list[int], dict[int, int], dict]:
    """Run the full pipeline on one weakly-connected instance."""
    norm, reversed_ids = normalize_costs(inst)
    down, info = downscale(norm)
    cert = compute_scaling(down.graph.m, info.U, info.C,
                           strict_gamma=config.strict_gamma,
                           beta0=info.beta0, gamma0=info.gamma0)
    monitor = BoundMonitor(cert.limit, strict=(config.monitor_mode == "strict"))
    scaled = scale_up(down, cert)
    aux, point = build_auxiliary(scaled, cert, monitor=monitor)
    res = run_interior_point(
        aux, cert, point, rng=rng, monitor=monitor, probe=probe,
        check_invariants=config.check_invariants)
    if probe is not None:
        probe("component", {
            "instance": inst, "arc_ids": arc_ids, "normalized": norm,
            "reversed_ids": reversed_ids, "cert": cert, "aux": aux,
            "point": point, "result": res})
    x_star, y_t, s_t = crossover(aux, cert, res)
    monitor.record_many(x_star)
    monitor.record_many(s_t)
    monitor.record_many(y_t.values())

    stats = {
        "nodes": inst.graph.n,
        "arcs": inst.graph.m,
        "beta": cert.beta,
        "gamma": cert.gamma,
        "mu0": point.mu0,
        "iterations": res.iterations,
        "updates": res.updates,
        "refreshes": res.refreshes,
        "deleted": len(res.cmap.deleted),
        "contracted": len(res.cmap.contracted),
        "max_abs": monitor.max_seen,
        "limit": cert.limit,
    }

    if any(x_star[h] for h in aux.hat_arc.values()):
        return "infeasible", [], {}, stats

    flow: list[int] = []
    for i in range(down.graph.m):
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
    return "optimal", flow, potentials, stats


def solve(inst: RawInstance, config: SolveConfig | None = None, *,
          probe: Callable[[str, dict], None] | None = None) -> SolveResult:
    """Solve a capacitated min-cost flow instance exactly.

    The returned flow is indexed like the instance's arcs; potentials
    certify optimality through three-way complementary slackness on the
    reduced costs. Infeasibility is certified by the interior point
    method itself: its balancing arcs keep positive flow only when no
    real flow can meet the demands.

    ``probe(event, payload)`` observes each solved component: the
    interior point loop's events, then ``component`` (see the README).
    Payloads are live solver state and must not be mutated.
    """
    config = config or SolveConfig()
    inst.validate()
    rng = Random(config.seed)

    flow = [0] * inst.graph.m
    potentials: dict[int, int] = {}
    components: list[dict] = []
    max_abs = 0
    feasible = True

    for nodes, arc_ids in _split_components(inst):
        sub_b = {v: inst.b[v] for v in nodes}
        if sum(sub_b.values()) != 0:
            feasible = False
            components.append({"nodes": len(nodes), "arcs": len(arc_ids),
                               "unbalanced": True})
            continue
        if not arc_ids:
            # an isolated node: solvable exactly when it needs nothing
            if sub_b[nodes[0]] != 0:
                feasible = False
            potentials[nodes[0]] = 0
            components.append({"nodes": 1, "arcs": 0})
            continue
        sub = RawInstance(
            MultiGraph(nodes, [inst.graph.arcs[a] for a in arc_ids]),
            sub_b,
            [inst.u[a] for a in arc_ids],
            [inst.c[a] for a in arc_ids])
        status, sub_flow, sub_pot, stats = _solve_component(
            sub, arc_ids, rng, config, probe)
        components.append(stats)
        max_abs = max(max_abs, stats["max_abs"])
        if status == "infeasible":
            feasible = False
            continue
        for local, aid in enumerate(arc_ids):
            flow[aid] = sub_flow[local]
        potentials.update(sub_pot)

    if not feasible:
        return SolveResult("infeasible", None, None, None, max_abs,
                           components)
    objective = sum(f * c for f, c in zip(flow, inst.c))
    report = verify_certificate(inst, flow, potentials)
    if not report.ok:
        raise InvariantError(
            "solution failed certificate verification: "
            + "; ".join(report.failures))
    return SolveResult("optimal", flow, potentials, objective, max_abs,
                       components)
