"""End-to-end solves checked against the reference oracle, including
infeasible, disconnected, negative-cost, and self-loop instances, and
what a probe sees of a solve."""

import json

import pytest

from latticeflow.cli import main
from latticeflow.dimacs import format_instance, parse_instance
from latticeflow.errors import InvariantError
from latticeflow.graph_core import MultiGraph
from latticeflow.instance_pipeline import RawInstance
from latticeflow.reference_oracle import random_instance, ssp_solve, verify_certificate
from latticeflow.solver import SolveConfig, solve


def _check_optimal(inst, result):
    oracle = ssp_solve(inst)
    assert oracle.status == "optimal"
    assert result.status == "optimal"
    assert result.objective == oracle.objective
    report = verify_certificate(inst, result.flow, result.potentials)
    assert report.ok, report.failures


def test_triangle():
    inst = RawInstance(MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
                       {1: -2, 2: 0, 3: 2}, [2, 2, 1], [1, 1, 3])
    result = solve(inst)
    _check_optimal(inst, result)
    assert result.objective == 4
    assert result.flow == [2, 2, 0]


def test_negative_costs():
    inst = RawInstance(MultiGraph([1, 2], [(1, 2), (2, 1)]),
                       {1: 0, 2: 0}, [4, 5], [-3, 1])
    result = solve(inst)
    _check_optimal(inst, result)
    assert result.objective == -8
    assert result.flow == [4, 4]


def test_self_loop_negative_cost():
    inst = RawInstance(MultiGraph([1, 2], [(1, 2), (1, 1)]),
                       {1: -1, 2: 1}, [1, 3], [2, -5])
    result = solve(inst)
    _check_optimal(inst, result)
    assert result.flow == [1, 3]


def test_infeasible_cut():
    inst = RawInstance(MultiGraph([1, 2], [(1, 2)]), {1: -5, 2: 5}, [3], [1])
    result = solve(inst)
    assert result.status == "infeasible"
    assert result.flow is None and result.objective is None


def test_infeasible_wrong_direction():
    inst = RawInstance(MultiGraph([1, 2], [(2, 1)]), {1: -1, 2: 1}, [5], [0])
    assert solve(inst).status == "infeasible"


def test_disconnected_components_solve_independently():
    g = MultiGraph([1, 2, 3, 4], [(1, 2), (3, 4)])
    inst = RawInstance(g, {1: -1, 2: 1, 3: -2, 4: 2}, [1, 2], [1, 7])
    result = solve(inst)
    _check_optimal(inst, result)
    assert result.objective == 1 + 14
    assert len(result.components) == 2


def test_disconnected_unbalanced_component_is_infeasible():
    g = MultiGraph([1, 2, 3, 4], [(1, 2), (3, 4)])
    inst = RawInstance(g, {1: -1, 2: 2, 3: -1, 4: 0}, [2, 2], [1, 1])
    assert solve(inst).status == "infeasible"


def test_isolated_node():
    g = MultiGraph([1, 2, 3], [(1, 2)])
    inst = RawInstance(g, {1: -1, 2: 1, 3: 0}, [1], [1])
    result = solve(inst)
    _check_optimal(inst, result)
    assert result.potentials[3] == 0


def test_zero_demands_zero_costs():
    inst = RawInstance(MultiGraph([1, 2], [(1, 2), (2, 1)]),
                       {1: 0, 2: 0}, [2, 3], [0, 0])
    result = solve(inst)
    _check_optimal(inst, result)
    assert result.objective == 0


def test_parallel_arcs_pick_cheap_first():
    inst = RawInstance(MultiGraph([1, 2], [(1, 2), (1, 2)]),
                       {1: -3, 2: 3}, [2, 2], [5, 1])
    result = solve(inst)
    _check_optimal(inst, result)
    assert result.objective == 2 * 1 + 1 * 5


def test_strict_gamma_mode_agrees():
    inst = RawInstance(MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
                       {1: -2, 2: 0, 3: 2}, [2, 2, 1], [1, 1, 3])
    a = solve(inst, SolveConfig(strict_gamma=False))
    b = solve(inst, SolveConfig(strict_gamma=True))
    assert a.objective == b.objective == 4


def test_monitor_stays_under_limit():
    inst = random_instance(11, 4, 7, 6, 6, "feasible")
    result = solve(inst, SolveConfig(monitor_mode="strict"))
    for comp in result.components:
        if "limit" in comp:
            assert comp["max_abs"] <= comp["limit"]


def test_determinism_same_seed():
    inst = random_instance(5, 4, 6, 5, 5, "feasible")
    a = solve(inst, SolveConfig(seed=9))
    b = solve(inst, SolveConfig(seed=9))
    assert a.flow == b.flow and a.potentials == b.potentials
    assert a.components == b.components


def test_validation_errors_surface():
    inst = RawInstance(MultiGraph([1, 2], [(1, 2)]), {1: -1, 2: 2}, [1], [1])
    with pytest.raises(ValueError):
        solve(inst)


@pytest.mark.parametrize("seed", range(12))
def test_random_small_instances_match_oracle(seed):
    mode = "feasible" if seed % 2 else "random"
    n = 3 + seed % 3
    inst = random_instance(seed, n, n - 1 + seed % 4, 4, 4, mode)
    result = solve(inst)
    oracle = ssp_solve(inst)
    if oracle.status == "infeasible":
        assert result.status == "infeasible"
    else:
        _check_optimal(inst, result)


def _components_instance(unbalanced):
    """Two solvable components (nodes 1-3 and 4-5) and node 6 with no
    arcs; with ``unbalanced``, node 6 needs a unit that only the arc
    component 7-8 has to spare."""
    arcs = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 4)]
    b = {1: -2, 2: 0, 3: 2, 4: -1, 5: 1, 6: 0}
    u, c = [2, 2, 1, 3, 1], [1, 1, 3, 2, -1]
    nodes = [1, 2, 3, 4, 5, 6]
    if unbalanced:
        nodes += [7, 8]
        arcs.append((7, 8))
        b.update({6: 1, 7: -2, 8: 1})
        u.append(2)
        c.append(1)
    return RawInstance(MultiGraph(nodes, arcs), b, u, c)


@pytest.mark.parametrize("unbalanced", [False, True])
def test_probe_observes_without_changing_the_solve(unbalanced):
    inst = _components_instance(unbalanced)
    events = []
    observed = solve(inst, SolveConfig(seed=4),
                     probe=lambda event, payload: events.append(
                         (event, payload)))
    plain = solve(inst, SolveConfig(seed=4))
    assert observed.status == plain.status
    assert observed.flow == plain.flow
    assert observed.potentials == plain.potentials
    assert observed.components == plain.components
    if not unbalanced:
        _check_optimal(inst, observed)
    # component fires once per solved component, never for node 6 or
    # the unbalanced component
    comps = [payload for event, payload in events if event == "component"]
    assert [p["arc_ids"] for p in comps] == [[0, 1, 2], [3, 4]]
    assert [p["reversed_ids"] for p in comps] == [[], [1]]
    stats = [c for c in observed.components if "iterations" in c]
    assert [p["result"].iterations for p in comps] == \
        [s["iterations"] for s in stats]
    assert {"instance", "arc_ids", "normalized", "reversed_ids", "cert",
            "aux", "point", "result"} == set(comps[0])
    # each component's iterate rows start over at 0 and end right
    # before its component event
    for k, (event, payload) in enumerate(events):
        if event == "component":
            assert events[k - 1][0] == "iterate"
            assert events[k - 1][1]["iter"] == payload["result"].iterations
    iters = [p["iter"] for e, p in events if e == "iterate"]
    assert iters.count(0) == 2


def test_iterate_payloads_are_the_trace_rows(tmp_path, capsys):
    inst = _components_instance(False)
    path = tmp_path / "components.dimacs"
    path.write_text(format_instance(inst))
    assert main(["trace", str(path), "--seed", "2"]) == 0
    printed = [json.loads(line)
               for line in capsys.readouterr().out.splitlines()]
    rows = []
    solve(inst, SolveConfig(seed=2),
          probe=lambda event, payload: rows.append(payload)
          if event == "iterate" else None)
    assert printed == rows
    assert [list(row) for row in rows] == [
        ["iter", "mu", "minor_arcs", "contracted", "deleted", "gap_sum",
         "max_abs"]] * len(rows)


# Known defect, pinned until it is fixed. This is
# random_instance(1174, 3, 3, 2, 10, "random"). Auxiliary arc 4 (the up
# arc of arc 2) leaves the lift of outer iteration 73 with x = 21844 and
# is deleted by the next classification, its flow frozen. Its slack is
# then recomputed from the duals after every lift and falls by about
# 4.08e-5 of each mu decrement, slightly more than the 4.07e-5 share of
# mu it held when deleted, so it reaches zero with mu: it is negative
# after the lift of iteration 205 and the invariant check stops the solve.
@pytest.mark.xfail(strict=True, raises=InvariantError,
                   reason="deleted arc 4 lost dual feasibility")
def test_deleted_arc_keeps_dual_feasibility():
    inst = parse_instance("p min 3 3\nn 2 -1\nn 3 1\na 1 2 0 2 9\n"
                          "a 2 3 0 1 3\na 1 2 0 2 2\n")
    result = solve(inst, SolveConfig(seed=1))
    oracle = ssp_solve(inst)
    assert (result.status, result.objective) == (oracle.status,
                                                 oracle.objective)
