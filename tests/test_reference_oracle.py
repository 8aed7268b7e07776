"""The oracle is the ground truth for everything else, so it gets its
own ground truth: hand-checked instances and a brute-force enumerator."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow.graph_core import MultiGraph
from latticeflow.instance_pipeline import RawInstance
from latticeflow.reference_oracle import (
    brute_force_optimum,
    random_instance,
    ssp_solve,
    verify_certificate,
    verify_cut,
)

from helpers import E1, has_unique_support


def test_triangle_optimum():
    sol = ssp_solve(E1)
    assert sol.status == "optimal"
    assert sol.objective == 4
    assert sol.flow == [2, 2, 0]
    report = verify_certificate(E1, sol.flow, sol.potentials)
    assert report.ok, report.failures
    assert report.objective == 4


def test_triangle_wrong_flow_fails_verification():
    # feasible but suboptimal: potentials certifying cost 4 must reject it
    sol = ssp_solve(E1)
    report = verify_certificate(E1, [1, 1, 1], sol.potentials)
    assert not report.ok
    # a flow vector one entry short is refused before any other check
    report = verify_certificate(E1, sol.flow[:-1], sol.potentials)
    assert report.failures == ["flow vector has wrong length"]


def test_infeasible_capacity_cut():
    g = MultiGraph([1, 2], [(1, 2)])
    inst = RawInstance(g, {1: -5, 2: 5}, [3], [1])
    sol = ssp_solve(inst)
    assert sol.status == "infeasible"
    assert sol.cut == [2]


def test_missing_potential_fails_verification():
    # a feasible flow whose certificate gives node 2 no potential
    g = MultiGraph([1, 2], [(1, 2)])
    inst = RawInstance(g, {1: -1, 2: 1}, [1], [1])
    report = verify_certificate(inst, [1], {1: 0})
    assert not report.ok
    assert report.failures == ["missing potentials for nodes [2]"]


def test_negative_costs_pull_flow():
    # the negative arc is saturated even though demands are zero
    g = MultiGraph([1, 2], [(1, 2), (2, 1)])
    inst = RawInstance(g, {1: 0, 2: 0}, [4, 5], [-3, 1])
    sol = ssp_solve(inst)
    assert sol.status == "optimal"
    assert sol.flow == [4, 4]
    assert sol.objective == 4 * -3 + 4 * 1
    assert verify_certificate(inst, sol.flow, sol.potentials).ok


def test_negative_self_loop_saturates():
    g = MultiGraph([1, 2], [(1, 2), (1, 1)])
    inst = RawInstance(g, {1: -1, 2: 1}, [1, 3], [2, -5])
    sol = ssp_solve(inst)
    assert sol.status == "optimal"
    assert sol.flow == [1, 3]
    assert sol.objective == 2 - 15


def test_brute_force_triangle():
    best, flows = brute_force_optimum(E1)
    assert best == 4
    assert [2, 2, 0] in flows
    assert len(flows) == 1


def test_unique_support_detection():
    assert has_unique_support(E1, ssp_solve(E1))
    # two identical parallel arcs: either one can carry the unit
    g = MultiGraph([1, 2], [(1, 2), (1, 2)])
    tie = RawInstance(g, {1: -1, 2: 1}, [1, 1], [1, 1])
    assert not has_unique_support(tie, ssp_solve(tie))


def test_zero_cost_alternative_breaks_uniqueness():
    # a zero-cost cycle lets flow circulate without changing the objective
    g = MultiGraph([1, 2], [(1, 2), (2, 1)])
    inst = RawInstance(g, {1: 0, 2: 0}, [1, 1], [0, 0])
    sol = ssp_solve(inst)
    assert sol.objective == 0
    assert not has_unique_support(inst, sol)


def test_random_instance_shape_and_determinism():
    a = random_instance(7, 4, 6, 5, 5)
    b = random_instance(7, 4, 6, 5, 5)
    assert a.graph.arcs == b.graph.arcs and a.u == b.u and a.c == b.c and a.b == b.b
    assert a.graph.m == 6
    a.validate()
    assert ssp_solve(a).status == "optimal"  # feasible by construction


def test_random_instance_minimal():
    inst = random_instance(0, 2, 1, 3, 3)
    assert inst.graph.n == 2 and inst.graph.m == 1
    with pytest.raises(ValueError):
        random_instance(0, 2, 0, 3, 3)
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        random_instance(0, 2, 1, 3, 3, "bogus")


@pytest.mark.parametrize("U_max,C_max,name", [(0, 3, "U_max"),
                                              (3, -2, "C_max")])
def test_random_instance_rejects_empty_ranges(U_max, C_max, name):
    with pytest.raises(ValueError, match=name):
        random_instance(1, 4, 6, U_max, C_max)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 4), st.integers(0, 3),
       st.integers(1, 3), st.integers(0, 3),
       st.sampled_from(["feasible", "random"]))
def test_ssp_matches_brute_force(seed, n, extra, U_max, C_max, mode):
    inst = random_instance(seed, n, n - 1 + extra, U_max, C_max, mode)
    sol = ssp_solve(inst)
    best, flows = brute_force_optimum(inst)
    if best is None:
        assert sol.status == "infeasible"
        assert verify_cut(inst, sol.cut).ok
    else:
        assert sol.status == "optimal"
        assert sol.objective == best
        assert sol.flow in flows
        assert verify_certificate(inst, sol.flow, sol.potentials).ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 6), st.integers(0, 6),
       st.integers(1, 8), st.integers(0, 8))
def test_ssp_certificates_always_verify(seed, n, extra, U_max, C_max):
    inst = random_instance(seed, n, n - 1 + extra, U_max, C_max, "random")
    sol = ssp_solve(inst)
    if sol.status == "optimal":
        report = verify_certificate(inst, sol.flow, sol.potentials)
        assert report.ok, report.failures


def _subsets(nodes):
    return itertools.chain.from_iterable(
        itertools.combinations(nodes, k) for k in range(len(nodes) + 1))


def test_cut_checker_hand_cases():
    # node 1 must ship 5 units and 3 can leave; node 2 must take 5 and
    # 3 can enter; together they are balanced and closed
    inst = RawInstance(MultiGraph([1, 2], [(1, 2)]), {1: -5, 2: 5}, [3], [1])
    assert verify_cut(inst, [2]).ok       # 5 > u(in) = 3
    assert verify_cut(inst, [1]).ok       # mirror: 5 > u(out) = 3
    assert not verify_cut(inst, [1, 2]).ok
    assert not verify_cut(inst, []).ok
    assert verify_cut(inst, [2, 2]).failures == ["cut lists a node twice"]
    assert verify_cut(inst, [3]).failures == ["cut names unknown nodes [3]"]
    wide = RawInstance(inst.graph, inst.b, [5], [1])
    assert not verify_cut(wide, [2]).ok
    assert not verify_cut(wide, [1]).ok


@st.composite
def _small_instances(draw, feasible):
    """Up to six nodes, arcs with self-loops and parallels, capacities
    1-3; with ``feasible`` the demands are the boundary of a flow in the
    capacity box, otherwise any balanced vector."""
    n = draw(st.integers(1, 6))
    node = st.integers(1, n)
    arcs = draw(st.lists(st.tuples(node, node), max_size=7))
    u = [draw(st.integers(1, 3)) for _ in arcs]
    b = dict.fromkeys(range(1, n + 1), 0)
    if feasible:
        for (v, w), cap in zip(arcs, u):
            f = draw(st.integers(0, cap))
            b[v] -= f
            b[w] += f
    else:
        for v in b:
            b[v] = draw(st.integers(-3, 3))
        b[n] -= sum(b.values())
    return RawInstance(MultiGraph(range(1, n + 1), arcs), b, u, [0] * len(u))


@settings(max_examples=80, deadline=None)
@given(_small_instances(feasible=True))
def test_feasible_instances_have_no_cut(inst):
    """Gale's theorem, one direction: when a feasible flow exists, none
    of the 2^n node sets certifies infeasibility."""
    assert ssp_solve(inst).status == "optimal"
    for cut in _subsets(inst.graph.nodes):
        assert not verify_cut(inst, list(cut)).ok, cut


@settings(max_examples=80, deadline=None)
@given(_small_instances(feasible=False))
def test_some_cut_certifies_exactly_the_infeasible_instances(inst):
    """Gale's theorem, both directions, by enumeration; the oracle's
    own cut is one of the certifying sets."""
    certified = any(verify_cut(inst, list(cut)).ok
                    for cut in _subsets(inst.graph.nodes))
    sol = ssp_solve(inst)
    assert certified == (sol.status == "infeasible")
    if certified:
        assert verify_cut(inst, sol.cut).ok
    else:
        assert sol.cut is None
