"""Hand-simulated nested cuts, the admissible flow, and a full
pipeline-to-certificate run checked against the reference oracle."""

import re

import pytest

from latticeflow.crossover import (
    admissible_max_flow,
    build_perturbed,
    crossover,
    lift_tree_duals,
    nested_cut_crossover,
    verify_aux_certificate,
    PerturbedPoint,
)
from latticeflow.errors import InvariantError
from latticeflow.graph_core import ContractionMap, MultiGraph
from latticeflow.instance_pipeline import compute_scaling
from latticeflow.ipm_driver import IPMResult
from latticeflow.reference_oracle import ssp_solve

from helpers import E1, aux_instance, follow_path

GAMMA = compute_scaling(1, 1, 1).gamma


def _path_pert():
    aux = aux_instance(E1.graph, dict(E1.b),
                       [3 * GAMMA, 5 * GAMMA, 10 * GAMMA])
    pert = PerturbedPoint(b_hat=dict(aux.b), s_hat=list(aux.c))
    return aux, pert


def test_nested_cuts_hand_simulation():
    # S = {1} wants outflow, so y drops on S until arc 0 is tight; then
    # S = {1, 2} drops again until arc 1 is tight
    aux, pert = _path_pert()
    order, parent = nested_cut_crossover(aux, pert)
    assert order == [1, 2, 3]
    assert parent == {2: (1, 0, 1), 3: (2, 1, 1)}


def test_nested_cuts_objective_log_is_monotone():
    aux, pert = _path_pert()
    log = []
    nested_cut_crossover(aux, pert, objective_log=log)
    # one entry before the walk plus one per grown node; the duals end
    # at y = (-8g, -5g, 0), so the objective is -2 * -8g + 2 * 0 = 16g
    assert len(log) == aux.graph.n
    assert log == sorted(log)
    assert log[0] == 0 and log[-1] == 16 * GAMMA


def test_nested_cuts_tie_breaks_to_lowest_arc_id():
    aux = aux_instance(MultiGraph([1, 2], [(1, 2), (1, 2)]), {1: -1, 2: 1},
                       [GAMMA, GAMMA])
    pert = PerturbedPoint(dict(aux.b), list(aux.c))
    _, parent = nested_cut_crossover(aux, pert)
    assert parent == {2: (1, 0, 1)}


def test_tree_lift_and_admissible_flow():
    aux, pert = _path_pert()
    tree = nested_cut_crossover(aux, pert)
    y_t, s_t = lift_tree_duals(aux, compute_scaling(1, 1, 1), tree)
    assert y_t == {1: 0, 2: 3 * GAMMA, 3: 8 * GAMMA}
    assert s_t == [0, 0, 2 * GAMMA]
    x_star = admissible_max_flow(aux, s_t)
    assert x_star == [2, 2, 0]
    verify_aux_certificate(aux, x_star, y_t)


def test_admissible_flow_requires_saturation():
    # only the expensive arc is admissible and it points the wrong way
    aux = aux_instance(MultiGraph([1, 2], [(1, 2), (2, 1)]), {1: -1, 2: 1},
                       [GAMMA, 0])
    with pytest.raises(InvariantError):
        admissible_max_flow(aux, [GAMMA, 0])


def test_verify_rejects_noncomplementary_pairs():
    aux, pert = _path_pert()
    tree = nested_cut_crossover(aux, pert)
    y_t, s_t = lift_tree_duals(aux, compute_scaling(1, 1, 1), tree)
    with pytest.raises(InvariantError,
                       match="^rounded pair is not complementary$"):
        verify_aux_certificate(aux, [1, 1, 1], y_t)


@pytest.mark.parametrize("x_star, y3, y2, message", [
    ([3, 2, 0], 8, None, "rounded flow violates conservation"),
    ([2, 2, 0], 8, 4, "rounded reduced cost negative"),
    ([2, 2, 0], 11, None, "rounded reduced cost negative"),
    # one unit less around the cycle 1 -> 2 -> 3 against arc 2
    ([-1, -1, 3], 8, None, "rounded flow negative"),
])
def test_verify_names_each_broken_certificate_check(x_star, y3, y2, message):
    """Each case breaks one more of the four checks (the test above
    breaks complementarity) on the path's optimal pair x* = (2, 2, 0),
    y = (0, 3g, 8g): the flow or the duals of nodes 3 and 2 (None keeps
    3g), in units of gamma, which the reduced costs follow."""
    aux, _ = _path_pert()
    verify_aux_certificate(aux, [2, 2, 0], {1: 0, 2: 3 * GAMMA, 3: 8 * GAMMA})
    y_t = {1: 0, 2: (3 if y2 is None else y2) * GAMMA, 3: y3 * GAMMA}
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        verify_aux_certificate(aux, x_star, y_t)


def test_full_crossover_matches_oracle():
    # E1's costs are nonnegative and its gcds are 1, so the auxiliary
    # instance splits E1's own arcs
    aux, cert, res = follow_path(E1)
    x_star, y_t, s_t = crossover(aux, cert, res)
    # no balancing arc carries flow: the instance is feasible
    assert all(x_star[h] == 0 for h in aux.hat_arc.values())
    # per original arc, the up/down pair splits the scaled capacity
    flow = []
    for i in range(E1.graph.m):
        up = x_star[aux.up_arc[i]]
        dn = x_star[aux.down_arc[i]]
        assert up % cert.beta == 0
        assert up + dn == E1.u[i] * cert.beta
        flow.append(up // cert.beta)
    oracle = ssp_solve(E1)
    got = sum(f * c for f, c in zip(flow, E1.c))
    assert got == oracle.objective


def test_build_perturbed_folds_and_checks():
    aux, cert, res = follow_path(E1)
    pert = build_perturbed(aux, cert, res)
    g = aux.graph
    # a contracted arc's slack moves into its cost, so its perturbed
    # reduced cost is 0
    for a in range(g.m):
        if a in res.cmap.contracted:
            assert pert.s_hat[a] == 0
        else:
            assert pert.s_hat[a] == res.s[a]
    # folds stay inside the stated tolerances
    bshift = sum(abs(aux.b[v] - pert.b_hat[v]) for v in g.nodes)
    assert 9 * bshift <= 14 * cert.beta
    cshift = sum(res.s[a] for a in res.cmap.contracted)
    assert 9 * cshift <= 7 * cert.gamma
    assert bshift > 0 or not res.cmap.deleted


def test_build_perturbed_rejects_oversized_residue():
    g = MultiGraph([1, 2], [(1, 2)])
    aux = aux_instance(g, {1: -4, 2: 4}, [GAMMA])
    cmap = ContractionMap(g)
    cmap.delete(0)
    cert = compute_scaling(1, 1, 1)
    res = IPMResult(x=[cert.beta], s=[GAMMA], y={1: 0, 2: 0}, mu=1,
                    cmap=cmap, iterations=0, updates=0, refreshes=0)
    with pytest.raises(InvariantError):
        build_perturbed(aux, cert, res)
