"""Instance ingestion, scaling, the uncapacitated auxiliary instance,
the constructed initial interior point, and the answer record
``SolveResult`` that ``solve``, ``ssp_solve`` and ``parse_solution``
return.

The pipeline takes a capacitated instance through five stages:

1. ``normalize_costs``: reverse negative-cost arcs so costs are >= 0.
2. ``downscale``: divide out the input gcds (demands/capacities by
   beta0, costs by gamma0) and measure U and C on the result.
3. ``compute_scaling``: pick the up-scaling factors beta (a power of
   two) and gamma, plus the initial path parameter mu0 and the magnitude
   limit, all fixed before the auxiliary graph exists by using the arc
   bound m = 3 * m0.
4. ``scale_up``: multiply demands and capacities by beta and costs by
   gamma.
5. ``build_auxiliary``: split every arc through a fresh node to remove
   its capacity constraint, add one high-cost balancing arc per split
   where needed, and write down an exactly-central integer interior
   point for mu0.

Everything downstream operates on the auxiliary instance. The stages
are sequenced in one place, ``solver._prepare``, which runs this front
half for a component; ``solver._solve_component`` maps the solutions
back to the input arcs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from .errors import InvariantError
from .exact_arith import BoundMonitor
from .graph_core import (MultiGraph, apply_incidence, bfs_forest,
                         reduced_costs, route_to_roots)

__all__ = [
    "RawInstance",
    "SolveResult",
    "ScalingCertificate",
    "AuxiliaryInstance",
    "InitialPoint",
    "normalize_costs",
    "downscale",
    "compute_scaling",
    "scale_up",
    "build_auxiliary",
]


@dataclass
class RawInstance:
    """A capacitated min-cost flow instance.

    Demands follow the inflow-minus-outflow convention: b_v < 0 means
    node v must ship out a net of |b_v| units. Node ids, demands,
    capacities and costs must be ints (bools refused), capacities must be
    strictly positive and demands must sum to zero.
    """

    graph: MultiGraph
    b: dict[int, int]
    u: list[int]
    c: list[int]

    def validate(self) -> None:
        for name, values in (("node ids", self.graph.nodes),
                             ("b", self.b.values()), ("u", self.u),
                             ("c", self.c)):
            for value in values:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"{name} holds {value!r}, not an int")
        if set(self.b) != set(self.graph.nodes):
            raise ValueError("demand vector does not match node set")
        if sum(self.b.values()) != 0:
            raise ValueError("demands do not sum to zero")
        if len(self.u) != self.graph.m or len(self.c) != self.graph.m:
            raise ValueError("capacity/cost vectors do not match arc count")
        if any(cap <= 0 for cap in self.u):
            raise ValueError("capacities must be positive")


@dataclass
class SolveResult:
    """An answer to a RawInstance: an optimum with its potentials, or a
    Gale cut, a node set whose demand exceeds the capacity entering it.

    ``solve``, ``ssp_solve`` and ``parse_solution`` all return one.
    ``components`` holds ``solve``'s per-component stats; it is empty
    for the oracle's answer and for a parsed solution file.
    """

    status: str  # "optimal" | "infeasible"
    flow: list[int] | None
    potentials: dict[int, int] | None
    objective: int | None
    components: list[dict] = field(default_factory=list)
    cut: list[int] | None = None  # sorted Gale cut when infeasible


def normalize_costs(inst: RawInstance) -> tuple[RawInstance, list[int]]:
    """Reverse every negative-cost arc; return the new instance and the
    reversed arc ids.

    Reversing arc a = (v, w) with cost c < 0 replaces it by (w, v) with
    cost -c and pre-routes the saturating flow u_a, which shifts the
    demands: b_v += u_a, b_w -= u_a. A solution maps back through
    x_orig = u_a - x_rev.
    """
    reversed_ids: list[int] = []
    arcs = list(inst.graph.arcs)
    b = dict(inst.b)
    c = list(inst.c)
    for a, cost in enumerate(c):
        if cost < 0:
            tail, head = arcs[a]
            arcs[a] = (head, tail)
            c[a] = -cost
            b[tail] += inst.u[a]
            b[head] -= inst.u[a]
            reversed_ids.append(a)
    out = RawInstance(MultiGraph(inst.graph.nodes, arcs), b, list(inst.u), c)
    return out, reversed_ids


@dataclass
class DownscaleInfo:
    beta0: int
    gamma0: int
    U: int
    C: int


def downscale(inst: RawInstance) -> tuple[RawInstance, DownscaleInfo]:
    """Divide demands/capacities by their gcd and costs by theirs.

    Requires nonnegative costs. The gcd of an all-zero cost vector is
    defined as 0 by convention; it is replaced by 1 here so the division
    is well defined (the instance keeps its zero costs).
    """
    if any(cost < 0 for cost in inst.c):
        raise ValueError("downscale requires nonnegative costs")
    beta0 = math.gcd(*inst.b.values(), *inst.u) or 1
    gamma0 = math.gcd(*inst.c) or 1
    b = {v: d // beta0 for v, d in inst.b.items()}
    u = [cap // beta0 for cap in inst.u]
    c = [cost // gamma0 for cost in inst.c]
    U = max(max(u, default=0), sum(abs(d) for d in b.values()) // 2)
    C = max(c) if c else 0
    out = RawInstance(inst.graph, b, u, c)
    return out, DownscaleInfo(beta0, gamma0, U, C)


@dataclass(frozen=True)
class ScalingCertificate:
    """Up-scaling factors and derived parameters, fixed before the
    auxiliary graph exists.

    ``m`` is the a-priori bound 3 * m0 on the auxiliary arc count (two
    split arcs plus at most one balancing arc per original arc) and is
    the m used in every formula. ``C`` is clamped to at least 1 so that
    gamma, mu0 and the limit stay positive on all-zero-cost instances;
    the clamp only strengthens the preconditions.
    """

    beta0: int
    gamma0: int
    m: int
    U: int
    C: int
    beta: int
    gamma: int
    t: int
    mu0: int
    limit: int


def compute_scaling(m0: int, U: int, C: int, beta0: int = 1,
                    gamma0: int = 1) -> ScalingCertificate:
    """Choose beta and gamma large enough for exact integer path following.

    beta is 2^8 * m^3 rounded up to a power of two (so capacities scaled
    by beta are even and the half-capacity split is integral). gamma is
    2^15 * m^4 * beta * U * C.
    """
    if m0 < 1:
        raise ValueError("compute_scaling requires at least one arc")
    m = 3 * m0
    c_eff = max(C, 1)
    beta = 1 << ((1 << 8) * m**3 - 1).bit_length()
    gamma = (1 << 15) * m**4 * beta * U * c_eff
    mu0 = 24 * m * beta * gamma * U * c_eff
    t = mu0 - 2 * beta * gamma * U * c_eff
    limit = (1 << 31) * m**10 * U**2 * c_eff**2
    return ScalingCertificate(
        beta0=beta0,
        gamma0=gamma0,
        m=m,
        U=U,
        C=c_eff,
        beta=beta,
        gamma=gamma,
        t=t,
        mu0=mu0,
        limit=limit,
    )


def scale_up(inst: RawInstance, cert: ScalingCertificate) -> RawInstance:
    """Multiply demands and capacities by beta and costs by gamma."""
    return RawInstance(
        inst.graph,
        {v: d * cert.beta for v, d in inst.b.items()},
        [cap * cert.beta for cap in inst.u],
        [cost * cert.gamma for cost in inst.c],
    )


@dataclass
class AuxiliaryInstance:
    """The uncapacitated instance the interior point method runs on.

    Per original arc a = (v, w) there is a fresh node ``vw`` and two
    arcs pointing into it: the "up" arc (v, vw) carrying the original
    cost and the "down" arc (w, vw) with cost zero. The flow
    correspondence is f_a = x_up and x_down = u_a - f_a, with demand u_a
    at vw. A third "hat" arc between v and w balances the constructed
    initial point; positive optimal flow on any hat arc would certify
    infeasibility of the original instance, but the solver only builds
    instances a max-flow has found feasible, so for it such flow is a
    contradiction.
    """

    graph: MultiGraph
    b: dict[int, int]
    c: list[int]
    up_arc: dict[int, int]
    down_arc: dict[int, int]
    hat_arc: dict[int, int] = field(default_factory=dict)


@dataclass
class InitialPoint:
    x: list[int]
    s: list[int]
    y: dict[int, int]
    mu0: int


def _bfs_tree_solution(g: MultiGraph, b: dict[int, int]) -> list[int]:
    """Integral (possibly infeasible) tree solution z on a BFS spanning
    tree rooted at the lowest-numbered node; z is zero off the tree.

    Requires the graph to be weakly connected. Self-loops never enter
    the tree. z is computed leaf-to-root: the tree arc above node v
    carries the total demand of v's subtree, signed by the arc's
    orientation relative to the root.
    """
    order, parent = bfs_forest(g, range(g.m), [min(g.nodes)])
    if len(order) != g.n:
        raise InvariantError("auxiliary construction requires a weakly connected graph")
    z = [0] * g.m
    route_to_roots(order, parent, dict(b), z)
    return z


def build_auxiliary(
    scaled: RawInstance,
    cert: ScalingCertificate,
    monitor: BoundMonitor,
) -> tuple[AuxiliaryInstance, InitialPoint]:
    """Build the uncapacitated auxiliary instance and an exactly central
    initial interior point for mu0.

    The constructed point satisfies, exactly in integers: A x = b,
    A^T y + s = c, x > 0, s > 0, every product x_a s_a in [t, mu0], and
    8 * sum |x_a s_a - mu0| <= mu0. Balancing-arc costs are rounded up
    to multiples of gamma so the cost vector keeps gcd gamma; the dual
    value at each split node is -2 * ceil(t / u_a), which keeps the
    products inside the widened interval.
    """
    g = scaled.graph
    gamma, t, mu0 = cert.gamma, cert.t, cert.mu0
    base = max(g.nodes) + 1
    z = _bfs_tree_solution(g, scaled.b)

    nodes = list(g.nodes) + [base + i for i in range(g.m)]
    arcs: list[tuple[int, int]] = []
    costs: list[int] = []
    x: list[int] = []
    up_arc: dict[int, int] = {}
    down_arc: dict[int, int] = {}
    hat_arc: dict[int, int] = {}
    b_aux: dict[int, int] = {v: scaled.b[v] for v in g.nodes}
    y: dict[int, int] = {v: 0 for v in g.nodes}

    for i, (tail, head) in enumerate(g.arcs):
        half = scaled.u[i] // 2
        if scaled.u[i] % 2:
            raise InvariantError("scaled capacity is odd; beta must be even")
        vw = base + i
        up_arc[i] = len(arcs)
        arcs.append((tail, vw))
        costs.append(scaled.c[i])
        down_arc[i] = len(arcs)
        arcs.append((head, vw))
        costs.append(0)
        x.extend((half, half))
        b_aux[vw] = scaled.u[i]
        b_aux[head] -= scaled.u[i]
        y[vw] = -2 * -(-t // scaled.u[i])  # -2 ceil(t / u_a)

    for i, (tail, head) in enumerate(g.arcs):
        half = scaled.u[i] // 2
        imbalance = z[i] - half
        if imbalance == 0:
            continue
        hat_arc[i] = len(arcs)
        if imbalance > 0:
            arcs.append((tail, head))
        else:
            arcs.append((head, tail))
        x.append(abs(imbalance))
        # the least multiple of gamma whose product with the flow reaches t
        costs.append(gamma * -(-t // (gamma * abs(imbalance))))

    aux_graph = MultiGraph(nodes, arcs)
    aux = AuxiliaryInstance(
        graph=aux_graph,
        b=b_aux,
        c=costs,
        up_arc=up_arc,
        down_arc=down_arc,
        hat_arc=hat_arc,
    )
    s = reduced_costs(aux_graph, costs, y)
    point = InitialPoint(x=x, s=s, y=y, mu0=mu0)

    _check_initial_point(aux, point, cert)
    monitor.record_many(chain(x, s, y.values(), z))
    return aux, point


def _check_initial_point(aux: AuxiliaryInstance, point: InitialPoint,
                         cert: ScalingCertificate) -> None:
    if apply_incidence(aux.graph, point.x) != aux.b:
        raise InvariantError("initial point violates flow conservation")
    if any(v <= 0 for v in point.x) or any(v <= 0 for v in point.s):
        raise InvariantError("initial point is not interior")
    lo, hi = cert.t, cert.mu0
    dev = 0
    for xa, sa in zip(point.x, point.s):
        p = xa * sa
        if not lo <= p <= hi:
            raise InvariantError(f"initial product {p} outside [{lo}, {hi}]")
        dev += abs(p - cert.mu0)
    if 8 * dev > cert.mu0:
        raise InvariantError("initial point is not centered for mu0")
    hat_costs = [aux.c[a] for a in aux.hat_arc.values()]
    plain = sum(aux.c) - sum(hat_costs)
    if any(ch < plain for ch in hat_costs):
        raise InvariantError("balancing arc cost below total path cost")
