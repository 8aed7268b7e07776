"""The oracle is the ground truth for everything else, so it gets its
own ground truth: hand-checked instances and a brute-force enumerator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow.graph_core import MultiGraph
from latticeflow.instance_pipeline import RawInstance
from latticeflow.reference_oracle import (
    brute_force_optimum,
    has_unique_support,
    random_instance,
    ssp_solve,
    verify_certificate,
)


def _tri():
    # two cheap serial arcs vs one expensive direct arc, demand 2 at node 3
    g = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    return RawInstance(g, {1: -2, 2: 0, 3: 2}, [2, 2, 1], [1, 1, 3])


def test_triangle_optimum():
    sol = ssp_solve(_tri())
    assert sol.status == "optimal"
    assert sol.objective == 4
    assert sol.flow == [2, 2, 0]
    report = verify_certificate(_tri(), sol.flow, sol.potentials)
    assert report.ok, report.failures
    assert report.objective == 4


def test_triangle_wrong_flow_fails_verification():
    # feasible but suboptimal: potentials certifying cost 4 must reject it
    sol = ssp_solve(_tri())
    report = verify_certificate(_tri(), [1, 1, 1], sol.potentials)
    assert not report.ok


def test_infeasible_capacity_cut():
    g = MultiGraph([1, 2], [(1, 2)])
    inst = RawInstance(g, {1: -5, 2: 5}, [3], [1])
    assert ssp_solve(inst).status == "infeasible"


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
    best, flows = brute_force_optimum(_tri())
    assert best == 4
    assert [2, 2, 0] in flows
    assert len(flows) == 1


def test_unique_support_detection():
    assert has_unique_support(_tri(), ssp_solve(_tri()))
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
