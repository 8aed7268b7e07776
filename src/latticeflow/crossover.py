"""Rounding the near-optimal interior point to an exact optimum.

The interior point method stops with a tiny duality gap on a perturbed
version of the instance: deleted arcs have their (negligible) flow
folded into the demands, contracted arcs their (negligible) slack folded
into the costs. This module finishes the job in three exact moves:

1. nested cuts: starting from the lowest node, grow a set S one node at
   a time, shifting the duals uniformly on S until some crossing arc's
   perturbed reduced cost hits zero; that arc joins a spanning tree T
   as the parent arc of the node it brings into S, so T leaves the cuts
   rooted at the lowest node. The perturbed dual objective never
   decreases, so T is tight at an optimal perturbed dual. Only T is
   kept, not the duals.
2. tree lift: price the rooted T against the *original* costs, which
   are multiples of gamma; the perturbation is smaller than gamma, so
   the lifted reduced costs are still nonnegative, now exactly
   complementary to T.
3. admissible flow: one max-flow over the zero-reduced-cost arcs routes
   the original demands; saturation yields an exactly optimal integral
   pair, checked by a four-point certificate on the flow and the duals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError, RoundingRefusedError
from .graph_core import (adjacency, apply_incidence, max_flow, reduced_costs,
                         tree_potentials)
from .instance_pipeline import AuxiliaryInstance, ScalingCertificate
from .ipm_driver import IPMResult

__all__ = [
    "PerturbedPoint",
    "build_perturbed",
    "nested_cut_crossover",
    "lift_tree_duals",
    "admissible_max_flow",
    "verify_aux_certificate",
    "crossover",
]


@dataclass
class PerturbedPoint:
    b_hat: dict[int, int]
    s_hat: list[int]


def build_perturbed(aux: AuxiliaryInstance, cert: ScalingCertificate,
                    res: IPMResult) -> PerturbedPoint:
    """Fold the residue of deleted and contracted arcs into demands and
    costs, and check the folds stay below the crossover's tolerance:
    the demand shift under 2 * (7/9) beta, the cost shift under
    (7/9) gamma, both as exact cross-multiplied comparisons."""
    g = aux.graph
    deleted = res.cmap.deleted
    shift = apply_incidence(g, [res.x[a] if a in deleted else 0
                                for a in range(g.m)])
    b_hat = {v: aux.b[v] - shift[v] for v in g.nodes}
    s_hat = list(res.s)
    for a in res.cmap.contracted:
        s_hat[a] = 0

    demand_shift = sum(abs(shift[v]) for v in g.nodes)
    if 9 * demand_shift > 14 * cert.beta:
        raise InvariantError(
            f"deleted flow moved the demands by {demand_shift}, beyond the "
            "crossover tolerance")
    cost_shift = sum(res.s[a] for a in res.cmap.contracted)
    if 9 * cost_shift > 7 * cert.gamma:
        raise InvariantError(
            f"contracted slack moved the costs by {cost_shift}, beyond the "
            "crossover tolerance")
    for a in range(g.m):
        if s_hat[a] < 0:
            raise InvariantError(f"arc {a}: perturbed reduced cost negative")
        if res.x[a] < 0 and a not in deleted:
            raise InvariantError(f"arc {a}: perturbed flow negative")
    return PerturbedPoint(b_hat, s_hat)


def nested_cut_crossover(aux: AuxiliaryInstance, pert: PerturbedPoint,
                         objective_log: list[int] | None = None,
                         ) -> tuple[list[int], dict[int, tuple[int, int, int]]]:
    """Grow S from the lowest node to an optimal perturbed dual, and
    return the spanning tree of the arcs that tightened, as ``(order,
    parent)`` in ``graph_core``'s rooted-forest form: the lowest node is
    the root, and the nodes follow in the order they joined S, each with
    the arc that brought it in as its parent arc.

    Each step shifts the duals uniformly on S: up when S wants net
    inflow (b_hat(S) >= 0, tightening an entering arc), down when it
    wants net outflow (tightening a leaving arc). Only the arcs that
    cross the cut change their reduced cost. The tightened arc joins the
    tree and its far endpoint joins S. Ties break to the smallest arc
    id. The steps read only s_hat and b_hat, so no duals are taken: the
    perturbed dual objective is counted from 0, relative to whatever
    duals priced s_hat, moves by sign * theta * b_hat(S) per step, and
    is checked to never decrease. When given, objective_log receives
    that objective before the first step and after every step.
    """
    g = aux.graph
    arcs = g.arcs
    s_hat = list(pert.s_hat)
    at = adjacency((a, *arc) for a, arc in enumerate(arcs))
    start = min(g.nodes)
    in_s = {start: None}  # insertion-ordered set
    # the arcs with exactly one end in S; self-loops never are
    crossing = {a for a, _ in at.get(start, ())}
    parent: dict[int, tuple[int, int, int]] = {}
    objective = 0
    if objective_log is not None:
        objective_log.append(objective)
    b_s = pert.b_hat[start]
    while len(in_s) < g.n:
        entering = [a for a in crossing if arcs[a][1] in in_s]
        leaving = [a for a in crossing if arcs[a][0] in in_s]
        if b_s >= 0 and entering:
            sign, cands = 1, entering
        elif b_s > 0:
            raise InvariantError(
                "cut wants inflow but no arc enters it; the perturbed "
                "instance cannot be feasible")
        elif leaving:
            sign, cands = -1, leaving
        else:
            raise InvariantError(
                "cut wants outflow but no arc leaves it; the perturbed "
                "instance cannot be feasible")
        theta = min(s_hat[a] for a in cands)
        if theta < 0:
            raise InvariantError("negative reduced cost reached the crossover")
        chosen = min(a for a in cands if s_hat[a] == theta)
        for a in entering:
            s_hat[a] -= sign * theta
        for a in leaving:
            s_hat[a] += sign * theta
        new_objective = objective + sign * theta * b_s
        if new_objective < objective:
            raise InvariantError("perturbed dual objective decreased")
        objective = new_objective
        if objective_log is not None:
            objective_log.append(objective)
        t, h = arcs[chosen]
        joined = t if h in in_s else h
        parent[joined] = (h, chosen, -1) if joined == t else (t, chosen, 1)
        in_s[joined] = None
        crossing ^= {a for a, _ in at.get(joined, ())}
        b_s += pert.b_hat[joined]
    for _, a, _ in parent.values():
        if s_hat[a] != 0:
            raise InvariantError(f"tree arc {a} drifted off its tight cut")
    return list(in_s), parent


def lift_tree_duals(aux: AuxiliaryInstance, cert: ScalingCertificate,
                    tree: tuple[list[int], dict[int, tuple[int, int, int]]]
                    ) -> tuple[dict[int, int], list[int]]:
    """Duals priced on the rooted spanning tree of
    :func:`nested_cut_crossover` against the original costs, 0 at its
    root.

    Original costs are multiples of gamma while the cost perturbation is
    smaller than gamma, so rounding the perturbed-optimal duals to the
    tree keeps every reduced cost nonnegative; this is checked exactly,
    along with gamma-integrality and tightness on the tree."""
    g = aux.graph
    order, parent = tree
    y_t = tree_potentials(order, parent, aux.c)
    s_t = reduced_costs(g, aux.c, y_t)
    for a in range(g.m):
        if s_t[a] < 0:
            raise InvariantError(
                f"arc {a}: tree dual lift left a negative reduced cost")
        if s_t[a] % cert.gamma:
            raise InvariantError(
                f"arc {a}: lifted reduced cost is not a gamma multiple")
    for _, a, _ in parent.values():
        if s_t[a] != 0:
            raise InvariantError(f"tree arc {a} is not tight after the lift")
    return y_t, s_t


def admissible_max_flow(aux: AuxiliaryInstance, s_t: list[int]) -> list[int]:
    """Route the original demands through the arcs the lifted duals
    price at zero. The demands must saturate exactly; integral flows
    come out of the max-flow for free."""
    g = aux.graph
    admissible = [a for a in range(g.m) if s_t[a] == 0]
    supply = sum(-d for d in aux.b.values() if d < 0)
    unmet, flows, _ = max_flow(
        g.nodes, [(*g.arcs[a], supply) for a in admissible], aux.b)
    if unmet:
        raise RoundingRefusedError(
            f"admissible arcs carry only {supply - unmet} of {supply} "
            "demand units")
    x_star = [0] * g.m
    for a, f in zip(admissible, flows):
        x_star[a] = f
    return x_star


def verify_aux_certificate(aux: AuxiliaryInstance, x_star: list[int],
                           y_t: dict[int, int]) -> None:
    """The four exact optimality checks on the rounded pair, the reduced
    costs read off ``y_t``."""
    g = aux.graph
    s_t = reduced_costs(g, aux.c, y_t)
    if apply_incidence(g, x_star) != aux.b:
        raise InvariantError("rounded flow violates conservation")
    if any(v < 0 for v in s_t):
        raise InvariantError("rounded reduced cost negative")
    if any(v < 0 for v in x_star):
        raise InvariantError("rounded flow negative")
    if any(x_star[a] * s_t[a] for a in range(g.m)):
        raise InvariantError("rounded pair is not complementary")


def crossover(aux: AuxiliaryInstance, cert: ScalingCertificate,
              res: IPMResult) -> tuple[list[int], dict[int, int], list[int]]:
    """Full rounding: perturb, nested cuts, tree lift, admissible flow,
    certificate. Returns (x_star, y_t, s_t) on the auxiliary instance."""
    pert = build_perturbed(aux, cert, res)
    tree = nested_cut_crossover(aux, pert)
    y_t, s_t = lift_tree_duals(aux, cert, tree)
    x_star = admissible_max_flow(aux, s_t)
    verify_aux_certificate(aux, x_star, y_t)
    return x_star, y_t, s_t
