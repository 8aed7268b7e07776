"""Checks that only the tests use, kept out of the shipped package:
the small instance E1 and its DIMACS text, the tokens of the DIMACS
fuzz tests, bare auxiliary instances for unit tests, the acceptance
suite's instance sizes, the brute-force optimum of a tiny instance,
whether an oracle optimum's support is unique,
the exact energy gap of a centering run and the energy drop of one
update, point edits for the guard tests, a rounding, a component path
and solves that run to the proxy exit, and ``round_nearest``, the
reference for the package's inline round-to-nearest forms."""

import itertools
from fractions import Fraction
from random import Random

from hypothesis import strategies as st

from latticeflow import solver
from latticeflow.centering import CenteringRun, UpdateRecord
from latticeflow.crossover import crossover
from latticeflow.errors import RoundingRefusedError
from latticeflow.graph_core import MultiGraph, minor_arcs
from latticeflow.instance_pipeline import AuxiliaryInstance, RawInstance
from latticeflow.ipm_driver import run_interior_point
from latticeflow.reference_oracle import ssp_solve


# a triangle whose optimum sends both units along the path 1 -> 2 -> 3
E1 = RawInstance(MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
                 {1: -2, 2: 0, 3: 2}, [2, 2, 1], [1, 1, 3])

# E1 as DIMACS text
TRIANGLE = """\
c tiny example
p min 3 3
n 1 2
n 3 -2
a 1 2 0 2 1
a 2 3 0 2 1
a 1 3 0 1 3
"""

# one token of the DIMACS fuzz tests: record keywords, integers and
# near-numbers. A 'p' line may declare up to 10^9 nodes: the parser
# refuses a count its records cannot name before allocating any node
DIMACS_TOKENS = st.one_of(
    st.sampled_from(["p", "min", "n", "a", "s", "f", "y", "c"]),
    st.integers(-3, 20).map(str),
    st.integers(0, 10**9).map(str),
    st.sampled_from(["x", "min0", "1.5", "-", "+4", "07", "0x1", "\t",
                     "1_0", "\uff12", "\u0661", "\x0c", "\u2028"]),
)


def aux_instance(graph: MultiGraph, b: dict[int, int],
                 c: list[int]) -> AuxiliaryInstance:
    """An auxiliary instance with no arc maps, for the pieces that read
    only its graph, demands and costs."""
    return AuxiliaryInstance(graph=graph, b=b, c=c, up_arc={}, down_arc={})


def suite_params(seed: int) -> tuple[int, int, int, int, str]:
    """Sizes skewed small within the caps n <= 8, m <= 16, U, C <= 10."""
    rng = Random(seed * 7919 + 13)
    n = rng.choice([2, 2, 3, 3, 3, 4, 4, 5, 6, 8])
    m = min(16, n - 1 + rng.choice([0, 1, 1, 2, 2, 3, 4, 6, 9]))
    u_max = rng.choice([1, 2, 3, 5, 10])
    c_max = rng.choice([0, 1, 2, 3, 5, 10])
    mode = "feasible" if seed % 3 else "random"
    return n, m, u_max, c_max, mode


def brute_force_optimum(inst: RawInstance) -> tuple[int | None,
                                                   list[list[int]]]:
    """Enumerate every integer flow in the capacity box; return the
    optimal objective (None if infeasible) and all optimal flows.

    Exponential in sum(u); meant for instances with a handful of arcs
    and single-digit capacities. It sums each node's net inflow itself,
    so it stays independent of ``graph_core``.
    """
    inst.validate()
    best: int | None = None
    argbest: list[list[int]] = []
    for candidate in itertools.product(*(range(cap + 1) for cap in inst.u)):
        net = {v: 0 for v in inst.graph.nodes}
        for f, (v, w) in zip(candidate, inst.graph.arcs):
            net[v] -= f
            net[w] += f
        if any(net[v] != inst.b[v] for v in inst.graph.nodes):
            continue
        obj = sum(f * cost for f, cost in zip(candidate, inst.c))
        if best is None or obj < best:
            best, argbest = obj, [list(candidate)]
        elif obj == best:
            argbest.append(list(candidate))
    return best, argbest


def _drop_arc(inst: RawInstance, a: int) -> RawInstance:
    arcs = [arc for i, arc in enumerate(inst.graph.arcs) if i != a]
    u = [cap for i, cap in enumerate(inst.u) if i != a]
    c = [cost for i, cost in enumerate(inst.c) if i != a]
    return RawInstance(MultiGraph(inst.graph.nodes, arcs), dict(inst.b), u, c)


def has_unique_support(inst: RawInstance, sol: solver.SolveResult) -> bool:
    """True when every optimal flow has the same support as sol.flow.

    For each arc in the support, re-solve with the arc removed; for each
    arc outside it, re-solve with one unit forced through the arc. Any
    re-solve that matches the optimal objective exhibits an optimum with
    a different support.
    """
    assert sol.status == "optimal" and sol.flow is not None
    for a, (v, w) in enumerate(inst.graph.arcs):
        if sol.flow[a] > 0:
            sub = _drop_arc(inst, a)
            alt = ssp_solve(sub)
            if alt.status == "optimal" and alt.objective == sol.objective:
                return False
        else:
            # pre-route one unit: demands shift and the arc shrinks
            b = dict(inst.b)
            b[v] += 1
            b[w] -= 1
            if inst.u[a] == 1:
                sub = _drop_arc(inst, a)
                sub = RawInstance(sub.graph, b, sub.u, sub.c)
            else:
                u = list(inst.u)
                u[a] -= 1
                sub = RawInstance(MultiGraph(inst.graph.nodes, inst.graph.arcs),
                                  b, u, list(inst.c))
            alt = ssp_solve(sub)
            if alt.status == "optimal" and alt.objective + inst.c[a] == sol.objective:
                return False
    return True


def energy_gap(run: CenteringRun) -> Fraction:
    """The run's electrical energy above the optimum, exactly: the sum
    over off-tree arcs of Lambda_a^2 / r(C_a), read from
    ``run.forest.cycles`` and ``run.phi``."""
    total = Fraction(0)
    for _, coefs, cycle_r in run.forest.cycles:
        lam = sum(c * run.phi[b] for b, _, c in coefs)
        total += Fraction(lam * lam, cycle_r)
    return total


def energy_decrease(rec: UpdateRecord) -> int:
    """The exact drop in the energy sum r_a phi_a^2 that the update
    ``rec`` made, 2 alpha lam - alpha^2 r(C_a)."""
    return 2 * rec.alpha * rec.lam - rec.alpha * rec.alpha * rec.cycle_r


def changed_point(x: list[int], s: list[int],
                  changes: dict[tuple[str, int], int]
                  ) -> tuple[list[int], list[int]]:
    """Copies of x and s with ``changes`` applied, each keyed by
    ("x" or "s", arc id)."""
    vecs = {"x": list(x), "s": list(s)}
    for (name, a), v in changes.items():
        vecs[name][a] = v
    return vecs["x"], vecs["s"]


def round_at_the_proxy_exit(aux, cert, res):
    """A ``rounding`` for the driver that refuses every try above the
    proxy exit line and runs the real crossover at it, so the path runs
    to the proxy exit."""
    gap_sum = sum(res.x[aid] * res.s[aid]
                  for aid, _, _ in minor_arcs(aux.graph, res.cmap))
    if 81 * gap_sum >= 4 * cert.beta * cert.gamma:
        raise RoundingRefusedError("above the proxy exit line")
    return crossover(aux, cert, res)


def follow_path(inst: RawInstance, seed=0, rounding=round_at_the_proxy_exit,
                **kw):
    """One component's path on its auxiliary instance from
    ``solver._prepare``, ended by the first try of ``rounding`` that
    certifies, by default the one at the proxy exit: (aux, cert, res)."""
    _, _, cert, monitor, aux, point = solver._prepare(inst)
    res = run_interior_point(aux, cert, point, rng=Random(seed),
                             monitor=monitor, rounding=rounding, **kw)
    return aux, cert, res


def solve_to_the_proxy_exit(inst: RawInstance, config: solver.SolveConfig,
                            probe=None) -> solver.SolveResult:
    """``solve`` with every rounding try before the proxy exit refused:
    each component's path runs to the proxy exit and is rounded there.
    Tests of path states and of former path defects use it, so what
    they reach does not depend on when a rounding first certifies."""
    real = solver.crossover
    solver.crossover = round_at_the_proxy_exit
    try:
        return solver.solve(inst, config, probe=probe)
    finally:
        solver.crossover = real


def round_nearest(p: int, q: int) -> int:
    """Return the integer nearest to p/q for q > 0.

    Ties (fractional part exactly 1/2) round toward +infinity, so
    ``round_nearest(7, 2) == 4`` and ``round_nearest(-3, 2) == -1``.
    Computed as floor((2p + q) / (2q)), which is exact for any signed p;
    ``centering`` writes this form inline.
    """
    if q <= 0:
        raise ValueError(f"round_nearest requires q > 0, got {q}")
    return (2 * p + q) // (2 * q)
