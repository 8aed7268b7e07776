"""End-to-end solves checked against the reference oracle, including
infeasible, disconnected, negative-cost, and self-loop instances, and
what a probe sees of a solve."""

import hashlib
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latticeflow import solver
from latticeflow.cli import main
from latticeflow.dimacs import format_instance, format_solution, parse_instance
from latticeflow.errors import InvariantError
from latticeflow.graph_core import MultiGraph, apply_incidence
from latticeflow.instance_pipeline import RawInstance
from latticeflow.reference_oracle import (random_instance, ssp_solve,
                                          verify_certificate, verify_cut)
from latticeflow.solver import SolveConfig, _split_components, solve

from helpers import (E1, brute_force_optimum, solve_to_the_proxy_exit,
                     suite_params)


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
    # node 2 demands 5 units and only 3 can enter it
    assert result.cut == [2]
    assert result.components == []


def test_infeasible_wrong_direction():
    inst = RawInstance(MultiGraph([1, 2], [(2, 1)]), {1: -1, 2: 1}, [5], [0])
    result = solve(inst)
    assert result.status == "infeasible"
    assert result.cut == [2]


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
    result = solve(inst)
    assert result.status == "infeasible"
    # component {1, 2} demands 1 unit and no arc enters it
    assert result.cut == [1, 2]
    assert verify_cut(inst, result.cut).ok


@st.composite
def multi_component_instances(draw):
    """Up to three groups of up to three nodes, arcs only inside a group
    (so a group may itself split), parallel arcs and self-loops drawn
    freely, demands in [-4, 4] balanced only overall, so groups are
    often unbalanced. Capacities start at 1, since the solver rejects
    zero capacities at validation."""
    nodes, arcs = [], []
    for _ in range(draw(st.integers(1, 3))):
        group = list(range(len(nodes) + 1,
                           len(nodes) + 1 + draw(st.integers(1, 3))))
        nodes += group
        pair = st.tuples(st.sampled_from(group), st.sampled_from(group))
        arcs += draw(st.lists(pair, max_size=4))
    if arcs and draw(st.booleans()):
        arcs.append(draw(st.sampled_from(arcs)))  # one more parallel arc
    b = {v: draw(st.integers(-4, 4)) for v in nodes}
    b[nodes[-1]] -= sum(b.values())
    u = [draw(st.integers(1, 4)) for _ in arcs]
    c = [draw(st.integers(-3, 3)) for _ in arcs]
    return RawInstance(MultiGraph(nodes, arcs), b, u, c)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(multi_component_instances())
def test_verdict_matches_the_oracle_with_a_checked_cut(inst):
    oracle = ssp_solve(inst)
    result = solve(inst)
    assert result.status == oracle.status
    if oracle.status == "optimal":
        assert result.objective == oracle.objective
        assert result.cut is None
    else:
        assert result.cut == sorted(set(result.cut))
        assert verify_cut(inst, result.cut).ok


HUGE = st.integers(10**9, 10**12)
SMALL_OR_HUGE = st.one_of(st.integers(-3, 3), HUGE, HUGE.map(lambda d: -d))


@st.composite
def extreme_instances(draw):
    """Two to four nodes and one to six arcs, parallel arcs and
    self-loops drawn freely, in one of three families: every cost zero;
    capacities of 10^9 to 10^12 beside capacity 1; or costs of +-10^9 to
    10^12 beside small ones, every capacity 1. Half the draws take the
    demands of a hidden flow in the capacity box, so they are feasible;
    the rest draw balanced demands, as large as the capacities."""
    nodes = list(range(1, draw(st.integers(2, 4)) + 1))
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    g = MultiGraph(nodes, draw(st.lists(pair, min_size=1, max_size=6)))
    family = draw(st.sampled_from(["zero-cost", "huge-cap", "huge-cost"]))
    demand = st.integers(-3, 3)
    if family == "zero-cost":
        u = [draw(st.integers(1, 3)) for _ in g.arcs]
        c = [0] * g.m
    elif family == "huge-cap":
        u = [draw(st.one_of(st.just(1), HUGE)) for _ in g.arcs]
        c = [draw(st.integers(-3, 3)) for _ in g.arcs]
        demand = SMALL_OR_HUGE
    else:
        u = [1] * g.m
        c = [draw(SMALL_OR_HUGE) for _ in g.arcs]
    if draw(st.booleans()):
        b = apply_incidence(g, [draw(st.integers(0, cap)) for cap in u])
    else:
        b = {v: draw(demand) for v in nodes}
        b[nodes[-1]] -= sum(b.values())
    return RawInstance(g, b, u, c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extreme_instances())
def test_extreme_magnitudes_and_zero_costs_match_the_oracles(inst):
    """Verdict and objective equal ``ssp_solve``'s, and, with at most
    five arcs of capacity at most 3, the exhaustive optimum."""
    oracle = ssp_solve(inst)
    result = solve(inst)
    assert result.status == oracle.status
    assert result.objective == oracle.objective
    if result.status == "infeasible":
        assert verify_cut(inst, result.cut).ok
    if inst.graph.m <= 5 and max(inst.u) <= 3:
        assert result.objective == brute_force_optimum(inst)[0]


@settings(max_examples=100, deadline=None)
@given(multi_component_instances(), st.data())
def test_tampered_cut_is_accepted_only_when_it_still_certifies(inst, data):
    """Adding or removing one node keeps the cut valid only when the
    Gale inequality, computed here independently, still holds in one of
    its two forms."""
    assume(ssp_solve(inst).status == "infeasible")
    cut = set(solve(inst).cut)
    cut ^= {data.draw(st.sampled_from(inst.graph.nodes))}
    demand = sum(d for v, d in inst.b.items() if v in cut)
    entering = sum(cap for (t, h), cap in zip(inst.graph.arcs, inst.u)
                   if h in cut and t not in cut)
    leaving = sum(cap for (t, h), cap in zip(inst.graph.arcs, inst.u)
                  if t in cut and h not in cut)
    holds = demand > entering or -demand > leaving
    assert verify_cut(inst, sorted(cut)).ok == holds


def test_hat_flow_at_the_optimum_contradicts_the_max_flow(monkeypatch):
    """Once the max-flow has found an instance feasible, balancing arcs
    carrying flow after the crossover is a broken invariant, not a
    verdict."""
    real = solver.crossover

    def crossover_with_hat_flow(aux, cert, res):
        x_star, y_t, s_t = real(aux, cert, res)
        assert aux.hat_arc
        x_star[min(aux.hat_arc.values())] += 1
        return x_star, y_t, s_t

    monkeypatch.setattr(solver, "crossover", crossover_with_hat_flow)
    inst = RawInstance(MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
                       {1: -2, 2: 0, 3: 2}, [2, 2, 1], [1, 1, 3])
    with pytest.raises(InvariantError, match="balancing arcs carry flow"):
        solve(inst)


def test_split_components_order():
    # node list deliberately unsorted; components {2, 5, 9}, {3, 7}, {4}
    g = MultiGraph([9, 3, 7, 5, 2, 4],
                   [(5, 9), (7, 3), (9, 9), (2, 5), (3, 7), (5, 2)])
    inst = RawInstance(g, {v: 0 for v in g.nodes}, [1] * g.m, [0] * g.m)
    assert _split_components(inst) == [
        ([9, 5, 2], [0, 2, 3, 5]),  # lowest node 2
        ([3, 7], [1, 4]),           # lowest node 3
        ([4], []),                  # lowest node 4
    ]


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


def test_capacity_of_10_to_the_200_matches_the_oracle():
    # the feasibility max-flow pushes the whole 10^200 units at once
    big = 10**200
    inst = parse_instance(f"p min 2 1\nn 1 {big}\nn 2 -{big}\n"
                          f"a 1 2 0 {big} 1\n")
    result = solve(inst)
    _check_optimal(inst, result)
    assert result.flow == [big]


def test_monitor_stays_under_limit():
    inst = random_instance(11, 4, 7, 6, 6, "feasible")
    result = solve(inst, SolveConfig())
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
    # a non-integer value fails before any max-flow runs, naming its
    # field; a bool capacity is not read as 1
    for u, c, message in [([2, 2, 1], [1, 1.5, 3], "c holds 1.5"),
                          ([2, 2, 1], [1, "1", 3], "c holds '1'"),
                          ([2, True, 1], [1, 1, 3], "u holds True")]:
        with pytest.raises(ValueError, match=f"^{message}, not an int$"):
            solve(RawInstance(E1.graph, E1.b, u, c))


@pytest.mark.parametrize("seed", range(12))
def test_random_small_instances_match_oracle(seed):
    mode = "feasible" if seed % 2 else "random"
    n = 3 + seed % 3
    inst = random_instance(seed, n, n - 1 + seed % 4, 4, 4, mode)
    result = solve(inst)
    oracle = ssp_solve(inst)
    if oracle.status == "infeasible":
        assert result.status == "infeasible"
        assert verify_cut(inst, result.cut).ok
    else:
        _check_optimal(inst, result)


# families the seeded generator rarely draws (ROADMAP item 5)
DEGENERATE = {
    # three tied parallel arcs 1 -> 2, two tied 2 -> 3, negative-cost
    # self-loops, which the optimum saturates, and a zero-cost one,
    # which may carry any flow
    "tied-parallel-self-loops": RawInstance(
        MultiGraph([1, 2, 3], [(1, 2), (1, 2), (1, 2), (2, 3), (2, 3),
                               (1, 1), (3, 3), (2, 2), (1, 3)]),
        {1: -5, 2: 0, 3: 5}, [2, 3, 1, 4, 4, 2, 3, 1, 2],
        [2, 2, 2, 1, 1, 0, -4, -1, 3]),
    # every flow meeting the demands is optimal
    "zero-costs-4-cycle-chords": RawInstance(
        MultiGraph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3),
                                  (2, 4), (3, 1)]),
        {1: -3, 2: 0, 3: 2, 4: 1}, [3, 2, 3, 2, 1, 2, 1],
        [0, 0, 0, 0, 0, 0, 0]),
    # 10^12 capacities and costs beside capacity-1 arcs
    "huge-beside-unit": RawInstance(
        MultiGraph([1, 2, 3, 4], [(1, 2), (1, 2), (2, 3), (2, 3), (3, 4),
                                  (1, 4), (4, 2)]),
        {1: -10**12, 2: 0, 3: 0, 4: 10**12},
        [10**12, 1, 1, 10**12, 10**12, 1, 1],
        [10**12, 1, 0, 3, -10**12, 10**12, 5]),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("family", sorted(DEGENERATE))
def test_degenerate_families_match_oracle(family, seed):
    inst = DEGENERATE[family]
    _check_optimal(inst, solve(inst, SolveConfig(seed=seed)))


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
    assert observed.cut == plain.cut
    if unbalanced:
        # node 6 needs a unit that cannot reach it; the max-flow decides
        # that before any component runs, so the probe sees nothing, and
        # the nodes that can still reach the sink form the cut
        assert observed.status == "infeasible"
        assert observed.components == [] and events == []
        assert observed.cut == [6]
        return
    _check_optimal(inst, observed)
    # component fires once per solved component, never for node 6
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


@pytest.mark.parametrize("draw", [(1, 16, 48, 10, 10), (3, 8, 16, 10, 10),
                                  (26, 8, 16, 10**12, 10**12)],
                         ids=["n16-m48", "n8-m16", "n8-m16-1e12"])
def test_probe_may_clear_every_payload_but_component(draw):
    """Only the ``component`` payload is live solver state: a probe that
    clears every list and dict of the other payloads leaves the answer
    and its stats as a plain solve gives them."""
    cleared = set()

    def clear(event, payload):
        if event != "component":
            for value in payload.values():
                if isinstance(value, (list, dict)):
                    value.clear()
            cleared.add(event)

    inst = random_instance(*draw)
    observed = solve(inst, SolveConfig(seed=draw[0]), probe=clear)
    plain = solve(inst, SolveConfig(seed=draw[0]))
    assert cleared == {"iterate", "centering_enter", "centering_exit",
                       "lifted"}
    assert observed.flow == plain.flow
    assert observed.potentials == plain.potentials
    assert observed.components == plain.components


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


# Golden bytes: sha256 of the solution text and of the trace rows (one
# JSON line each, as `latticeflow trace` prints them) for fixed seeded
# instances, solved with the instance seed. Three acceptance-mix shapes,
# one U = C = 10^12 case and one sparse 32-node case. Any change to the
# random-number stream, the rounding or the path moves them; a change
# that means to do so must record new values and say why, and re-pin
# SUITE_DIGESTS below and the gate's GATE_BYTES in test_acceptance.py
# with them.
GOLDEN = [
    ((7, 8, 16, 10, 10, "feasible"),
     "4f25d533f4b81dd8ad3d1be841c4bd07baac6d245726e6746364d95b4a00de30",
     "d374e1db4265386d8ef7c5ecee8af0d50d3da16d8e0228cf09c9c3b00f4d1be4"),
    ((11, 6, 12, 5, 3, "feasible"),
     "b869a84bba4973e8c985bc4f7c6b5c9924e996a42bd58d454e43dd185aa39523",
     "a0c879eb38e19ed6992020db4779c495dee9b783b6064d6ad6adac24f6d01c3d"),
    ((20, 5, 9, 10, 10, "random"),
     "c80392c3d41e7ed889e22a7511b03051d8ab38d730dced6c600adb557829a5e1",
     "2b59ccae72a6c1788b309cf432de61a578aa71d41ef5c39e055561e7bcbf2db1"),
    ((3, 4, 6, 10**12, 10**12, "feasible"),
     "e860f1786a5ae9054b639d0278cac4bd396a28edef223ecffdca372077e08694",
     "460bd711f9ecc79ff94c76a640a087f661745d06aa509134938a1dca58e4ccce"),
    ((1, 32, 40, 10, 10, "feasible"),
     "3aea65df2d817e9b6b90239b30b7e466e5bd85c88ba775614694cce28f8313d7",
     "36526cf454e358fbe59bc47b654724ce30f5d9d5d1afd5c6136469f7f898715d"),
]


@pytest.mark.parametrize(
    "case,solution_sha,trace_sha", GOLDEN,
    ids=["-".join(map(str, case)) for case, _, _ in GOLDEN])
def test_golden_solution_and_trace_bytes(case, solution_sha, trace_sha):
    inst = random_instance(*case)
    rows = []
    result = solve(inst, SolveConfig(seed=case[0]),
                   probe=lambda event, payload: rows.append(payload)
                   if event == "iterate" else None)
    solution = format_solution(inst, result.objective, result.flow,
                               result.potentials)
    trace = "".join(json.dumps(row) + "\n" for row in rows)
    assert hashlib.sha256(solution.encode()).hexdigest() == solution_sha
    assert hashlib.sha256(trace.encode()).hexdigest() == trace_sha


# The benchmark's seed-1 suites, as bench/run.py draws them: instance i
# has instance and solve seed 1000 + i, and the solver reads the parsed
# DIMACS text. Each digest is one sha256 over the suite's answers, each
# the solution text (or "<status>\n") followed by its components'
# [iterations, updates, refreshes] as JSON, the digest that
# `bench/run.py --seed 1` prints. It is computed here, not by loading
# bench/run.py, so the pin rests on the solver's answers alone.
SUITE_DIGESTS = {
    "mix-small": (
        200, suite_params,
        "1c963f3a9780aa801ee079b7e05032a0d85a219bd2a2827e4e2001f50acdd4dc"),
    "dense-m48": (
        4, lambda i: (16, 48, 10, 10, "feasible"),
        "6558213a6b5d9d1ee00ce17495211142c5dc7cda14382cf5715715aff2f20601"),
    "bigint-1e12": (
        6, lambda i: (8, 16, 10**12, 10**12, "feasible"),
        "a848fb158a941e7d2e2a806ffa07d553a368ad96de024fcc40fa84cff1ab6fdb"),
}


@pytest.mark.parametrize("workload", SUITE_DIGESTS)
def test_benchmark_suite_answer_digests(workload):
    size, params, pinned = SUITE_DIGESTS[workload]
    h = hashlib.sha256()
    for i in range(size):
        seed = 1000 + i
        inst = parse_instance(format_instance(random_instance(seed,
                                                              *params(i))))
        result = solve(inst, SolveConfig(seed=seed))
        if result.status == "optimal":
            text = format_solution(inst, result.objective, result.flow,
                                   result.potentials)
        else:
            text = f"{result.status}\n"
        counts = [(c["iterations"], c["updates"], c["refreshes"])
                  for c in result.components if "iterations" in c]
        h.update(text.encode())
        h.update(json.dumps(counts).encode())
    assert h.hexdigest() == pinned, \
        f"{workload} answers moved: digest {h.hexdigest()}"


@pytest.mark.parametrize("case", [
    (1027, *suite_params(1027)), (7, 8, 16, 10, 10, "feasible"),
    (20, 5, 9, 10, 10, "random"), (3, 4, 6, 10**12, 10**12, "feasible")])
def test_early_rounding_stops_on_the_path_it_would_have_followed(case):
    """The rounding tries draw no random numbers and change no driver
    state, so a solve's iterate, centering-exit and lifted rows are a
    prefix of those of the path followed to the proxy exit, and the
    objective is the same."""
    inst = random_instance(*case)
    runs = []
    for run in (solve, solve_to_the_proxy_exit):
        rows = []
        result = run(inst, SolveConfig(seed=case[0]),
                     probe=lambda event, payload: rows.append(payload)
                     if event in ("iterate", "centering_exit", "lifted")
                     else None)
        runs.append((rows, result.objective))
    (early, objective), (full, full_objective) = runs
    assert len(early) < len(full) and early == full[:len(early)]
    assert objective == full_objective == ssp_solve(inst).objective


# Sparse graphs, with m0 close to n: fundamental cycles run about twice
# as long as on 16-node shapes, and the forests are deep.
@pytest.mark.parametrize("seed,n,m0", [(4, 24, 30), (1, 32, 40), (3, 40, 40)])
def test_sparse_instances_match_the_oracle(seed, n, m0):
    inst = random_instance(seed, n, m0, 10, 10, "feasible")
    result = solve(inst, SolveConfig(seed=1))
    assert result.objective == ssp_solve(inst).objective


# Two former defect pins (ROADMAP item 1). In random_instance(9055, 4, 4,
# 2, 2, "feasible"), auxiliary arc 4 was deleted with its flow frozen,
# and the slack that the lifts recomputed from the moving duals fell
# below zero at outer iteration 39. Minor bridge 6 had to carry arc 4's
# frozen flow, so it stayed above the deletion line, and the centering
# drove its slack, and with it the duals, past arc 4. The bridge rule
# now deletes bridge 6, and the per-component dual shift keeps deleted
# slacks positive. A rounding now certifies at iteration 0, so the pin
# follows the path to the proxy exit. Since stalled trials are
# corrected, that path ends at iteration 28, before the iteration where
# the defect showed; the lift from the state it reached there is
# replayed, with no random numbers, from PIN_9055 in test_ipm_driver.py.
def test_deleted_arc_keeps_dual_feasibility():
    inst = random_instance(9055, 4, 4, 2, 2, "feasible")
    result = solve_to_the_proxy_exit(inst, SolveConfig(seed=9055))
    oracle = ssp_solve(inst)
    assert (result.status, result.objective) == (oracle.status,
                                                 oracle.objective)
    assert result.components[0]["iterations"] == 28


# In random_instance(4003, 5, 10, 10, 0, "random"), auxiliary arc 11 was
# contracted and each later lift routed its class's flow imbalance
# through it in the same direction, until its flow fell below zero at
# iteration 70. The imbalance came from minor self-loops 2, 8 and 16,
# whose flow the centering moves freely; the loop rule now contracts
# them as soon as they become loops. A rounding now certifies at
# iteration 0, so the pin follows the path to the proxy exit.
def test_contracted_arc_keeps_positive_flow():
    inst = random_instance(4003, 5, 10, 10, 0, "random")
    result = solve_to_the_proxy_exit(inst, SolveConfig(seed=4003))
    oracle = ssp_solve(inst)
    assert (result.status, result.objective) == (oracle.status,
                                                 oracle.objective)


# Every instance that failed one of the two defect modes under some
# random stream: acceptance-size draws, and the two pins above. Each is
# solved as shipped, and again with its path followed to the proxy exit,
# where the defects showed; early rounding stops most of them within
# 32 iterations.
FORMER_FAILURES = [
    *((seed, suite_params(seed)) for seed in (
        1027, 1053, 1118, 1129, 1174, 1176, 1178, 1289, 1338, 1344, 1379)),
    (4003, (5, 10, 10, 0, "random")),
    (9055, (4, 4, 2, 2, "feasible")),
]


@pytest.mark.parametrize("seed,params", FORMER_FAILURES,
                         ids=[str(seed) for seed, _ in FORMER_FAILURES])
def test_former_failures_match_the_oracle(seed, params):
    inst = random_instance(seed, *params)
    oracle = ssp_solve(inst)
    for run in (solve, solve_to_the_proxy_exit):
        result = run(inst, SolveConfig(seed=seed))
        assert (result.status, result.objective) == (oracle.status,
                                                     oracle.objective)
