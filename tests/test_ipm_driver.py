"""Unit tests for the outer-loop pieces (decrement, classification,
imbalance routing) and an end-to-end run of the path following on a
small instance built through the real pipeline."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow import SolveConfig, centering
from latticeflow.crossover import crossover
from latticeflow.errors import InvariantError, RoundingRefusedError
from latticeflow.graph_core import (ContractionMap, MultiGraph, apply_incidence,
                                    bfs_forest, minor_arcs, reduced_costs)
from latticeflow.instance_pipeline import RawInstance, compute_scaling
from latticeflow.ipm_driver import (
    _check_iterate,
    _classify,
    _forced_bridges,
    _forced_loops,
    _lift,
    _shift_components,
    decrement_mu,
    outer_ceiling,
)
from latticeflow.reference_oracle import random_instance
from latticeflow.solver import _prepare

from helpers import (E1, aux_instance, changed_point, follow_path,
                     solve_to_the_proxy_exit, suite_params)


def test_decrement_frozen_value():
    # mu = 800, m = 4: the step is isqrt(640000 / 256) = 50
    assert decrement_mu(800, 4) == 750


def test_decrement_floors_at_one():
    assert decrement_mu(5, 100) == 4
    assert decrement_mu(2, 9) == 1


def test_classification_thresholds():
    cert = compute_scaling(1, 1, 1)  # m = 3, beta = 8192
    m = cert.m
    # 9 * 3 * 2000 = 54000 < 7 * 8192 = 57344: the arc is deleted
    assert _classify(2000, cert.gamma, m, cert) == "delete"
    assert _classify(2125, cert.gamma, m, cert) == "keep"  # 57375 >= 57344
    # 7 gamma is divisible by 9 m here, so the line itself stays strict
    s_line = 7 * cert.gamma // (9 * m)
    assert 9 * m * s_line == 7 * cert.gamma
    assert _classify(cert.beta, s_line - 1, m, cert) == "contract"
    assert _classify(cert.beta, s_line, m, cert) == "keep"


def test_classification_rejects_double_qualifiers():
    cert = compute_scaling(1, 1, 1)
    with pytest.raises(InvariantError):
        _classify(1, 1, cert.m, cert)


# a valid iterate: arcs 0 and 1 form the minor, arc 2 is deleted and arc
# 3 contracted. Minor flows and slacks are K = 56 (gamma + beta) at
# mu = K^2, so x_a s_a = mu and both magnitude fences hold
ITER_CERT = compute_scaling(1, 1, 1)
K = 56 * (ITER_CERT.gamma + ITER_CERT.beta)


@pytest.mark.parametrize("before, after, message", [
    ({}, {("x", 0): K + 1}, "iterate violates flow conservation"),
    ({("s", 0): 0}, {}, "arc 0: minor point is not interior"),
    ({("x", 0): 0}, {}, "arc 0: minor point is not interior"),
    ({("s", 1): 0}, {}, "arc 1: minor point is not interior"),
    ({("x", 0): 81 * K * K * ITER_CERT.m // (56 * ITER_CERT.gamma) + 1}, {},
     "arc 0: primal value too large for minor"),
    ({("s", 1): 81 * K * K * ITER_CERT.m // (56 * ITER_CERT.beta) + 1}, {},
     "arc 1: slack too large for minor"),
    ({("x", 0): 2 * K}, {}, "iterate lost centrality"),
    ({("s", 2): 0}, {}, "deleted arc 2 lost dual feasibility"),
    ({("x", 3): 0}, {}, "contracted arc 3 lost primal positivity"),
])
def test_check_iterate_names_each_broken_invariant(before, after, message):
    """Each case breaks one invariant of a valid iterate: ``before``
    changes x or s and the demands and costs follow, so the rest still
    holds; ``after`` changes them once the demands and costs are set."""
    g = MultiGraph([1, 2, 3], [(1, 2), (2, 1), (1, 3), (3, 1)])
    cmap = ContractionMap(g)
    cmap.delete(2)
    cmap.contract(3)
    minor = minor_arcs(g, cmap)
    base = [K, K, 0, 1], [K, K, 1, 0]
    x, s = base
    _check_iterate(aux_instance(g, apply_incidence(g, x), s), ITER_CERT, x, s,
                   K * K, cmap, minor)
    x, s = changed_point(*base, before)
    aux = aux_instance(g, apply_incidence(g, x), s)
    x, s = changed_point(*base, {**before, **after})
    with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
        _check_iterate(aux, ITER_CERT, x, s, K * K, cmap, minor)


def test_lift_routes_class_imbalance():
    # arc 0 = (1, 2) is contracted; recentering moves flow between the
    # two class-to-node arcs, and the merge arc absorbs the difference
    g = MultiGraph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    aux = aux_instance(g, {1: -4, 2: 0, 3: 4}, [1, 5, 5])
    cmap = ContractionMap(g)
    cmap.contract(0)
    assert cmap.merges == [0]
    minor = minor_arcs(g, cmap)
    x = [2, 2, 2]
    y = {1: 0, 2: 0, 3: 0}
    rep = cmap.find(1)
    _lift(aux, cmap, minor, {1: 3, 2: 1}, {rep: 0, 3: 0}, x, y)
    assert x == [1, 3, 1]
    assert apply_incidence(g, x) == aux.b


def test_lift_shifts_duals_by_class_voltage():
    # the costs give the slacks (1, 5, 5) at y = (10, 20, 30)
    g = MultiGraph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    aux = aux_instance(g, {1: -4, 2: 0, 3: 4}, [11, 25, 15])
    cmap = ContractionMap(g)
    cmap.contract(0)
    minor = minor_arcs(g, cmap)
    x = [2, 2, 2]
    y = {1: 10, 2: 20, 3: 30}
    assert reduced_costs(g, aux.c, y) == [1, 5, 5]
    rep = cmap.find(1)
    _lift(aux, cmap, minor, {1: 2, 2: 2}, {rep: 7, 3: -1}, x, y)
    # both members of the contracted class move together, so the
    # contracted arc keeps its slack and each minor arc's falls by the
    # class voltage across it, 5 - (-1 - 7)
    assert y == {1: 17, 2: 27, 3: 29}
    assert reduced_costs(g, aux.c, y) == [1, 13, 13]


def test_lift_detects_positivity_loss():
    g = MultiGraph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    aux = aux_instance(g, {1: -4, 2: 0, 3: 4}, [0, 0, 0])
    cmap = ContractionMap(g)
    cmap.contract(0)
    minor = minor_arcs(g, cmap)
    # shifting 2 units of class outflow from arc 2 to arc 1 drives the
    # merge arc (currently carrying 1) to -1
    x = [1, 2, 2]
    y = {1: 0, 2: 0, 3: 0}
    b = apply_incidence(g, x)
    aux = aux_instance(g, b, [0, 0, 0])
    rep = cmap.find(1)
    with pytest.raises(InvariantError, match="contracted arc 0 lost positivity"):
        _lift(aux, cmap, minor, {1: 4, 2: 0 + 2 - 2}, {rep: 0, 3: 0}, x, y)


@pytest.mark.parametrize("merge_edges,arc", [([0, 1], 0), ([1, 0], 1)])
def test_lift_names_the_first_merged_class_losing_positivity(merge_edges, arc):
    # classes {1, 2} and {3, 4}; moving 2 units from minor arc 3 to minor
    # arc 2 drives both merge arcs to -1, and the class merged first is
    # the one reported
    g = MultiGraph([1, 2, 3, 4], [(1, 2), (4, 3), (1, 3), (2, 4)])
    x = [1, 1, 2, 2]
    aux = aux_instance(g, apply_incidence(g, x), [0, 0, 0, 0])
    cmap = ContractionMap(g)
    for aid in merge_edges:
        cmap.contract(aid)
    assert cmap.merges == merge_edges
    y = {v: 0 for v in g.nodes}
    with pytest.raises(InvariantError, match=f"contracted arc {arc} lost"):
        _lift(aux, cmap, minor_arcs(g, cmap), {2: 4, 3: 0},
              {cmap.find(1): 0, cmap.find(3): 0}, x, y)


@pytest.mark.parametrize("merge_edges,arc", [([0, 1], 0), ([1, 0], 1)])
def test_lift_names_the_first_contracted_arc_of_a_class_losing_positivity(
        merge_edges, arc):
    # one class {1, 2, 3} on the path 1 - 2 - 3; moving 2 units from
    # minor arc 3 to minor arc 2 drives both merge arcs to -1, and the
    # one contracted first is the one reported
    g = MultiGraph([1, 2, 3, 4], [(1, 2), (2, 3), (1, 4), (3, 4)])
    x = [1, 1, 2, 2]
    aux = aux_instance(g, apply_incidence(g, x), [0, 0, 0, 0])
    cmap = ContractionMap(g)
    for aid in merge_edges:
        cmap.contract(aid)
    assert cmap.merges == merge_edges
    with pytest.raises(InvariantError, match=f"contracted arc {arc} lost"):
        _lift(aux, cmap, minor_arcs(g, cmap), {2: 4, 3: 0}, {1: 0, 4: 0},
              x, {v: 0 for v in g.nodes})


def _draw_state(data):
    """A graph of up to 5 nodes and 8 arcs, self-loops and parallel arcs
    allowed, with each arc kept, deleted or contracted in a drawn
    order."""
    n = data.draw(st.integers(2, 5))
    node = st.integers(1, n)
    arcs = data.draw(st.lists(st.tuples(node, node), min_size=1, max_size=8))
    g = MultiGraph(range(1, n + 1), arcs)
    cmap = ContractionMap(g)
    for a in data.draw(st.permutations(range(g.m))):
        kind = data.draw(st.sampled_from(["keep", "delete", "contract"]))
        if kind == "delete":
            cmap.delete(a)
        elif kind == "contract":
            cmap.contract(a)
    return g, cmap


def _ints(data, size, lo, hi):
    return data.draw(st.lists(st.integers(lo, hi), min_size=size,
                              max_size=size))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lift_leaves_the_demands_met_or_raises(data):
    """From any contraction state whose x meets the demands, ``_lift``
    either raises one of its two errors or leaves A x = b; the
    imbalance error comes only when some class's net change is not
    zero, since routing can move flow only inside a class. Every
    deleted slack starts at 0, so the dual shift runs each time."""
    g, cmap = _draw_state(data)
    x = _ints(data, g.m, 1, 6)
    aux = aux_instance(g, apply_incidence(g, x), [0] * g.m)
    minor = minor_arcs(g, cmap)
    new_x = {a: x[a] + data.draw(st.integers(-2, 2)) for a, _, _ in minor}
    class_change = {}
    for a, t, h in minor:
        class_change[t] = class_change.get(t, 0) - (new_x[a] - x[a])
        class_change[h] = class_change.get(h, 0) + (new_x[a] - x[a])
    imbalanced = any(class_change.values())
    try:
        _lift(aux, cmap, minor, new_x, {}, x, {v: 0 for v in g.nodes})
    except InvariantError as exc:
        assert ("lost positivity" in str(exc)
                or imbalanced and "imbalance survived" in str(exc))
    else:
        assert apply_incidence(g, x) == aux.b


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lifted_slacks_move_by_the_class_voltage(data):
    """When no deleted slack needs a shift, the slacks read off the
    lifted duals are s_a - (pi[class of head] - pi[class of tail]) on
    every arc, with a class that ``pi`` does not name at 0: contracted
    arcs keep their slack and minor arcs get the centering's s_cur. So
    s = c - A^T y holds after every lift with no second copy of s."""
    g, cmap = _draw_state(data)
    find = cmap.find
    x = _ints(data, g.m, 1, 6)
    y = dict(zip(g.nodes, _ints(data, g.n, -5, 5)))
    pi = {rep: data.draw(st.integers(-5, 5))
          for rep in sorted({find(v) for v in g.nodes})
          if data.draw(st.booleans())}
    voltage = {v: pi.get(find(v), 0) for v in g.nodes}
    # deleted arcs cost enough that every lifted slack is at least 1
    c = []
    for aid, (tail, head) in enumerate(g.arcs):
        lo = -5
        if aid in cmap.deleted:
            lo = y[head] + voltage[head] - y[tail] - voltage[tail] + 1
        c.append(data.draw(st.integers(lo, lo + 10)))
    aux = aux_instance(g, apply_incidence(g, x), c)
    minor = minor_arcs(g, cmap)
    s = reduced_costs(g, c, y)
    s_cur = {aid: s[aid] - (pi.get(h, 0) - pi.get(t, 0))
             for aid, t, h in minor}
    _lift(aux, cmap, minor, {aid: x[aid] for aid, _, _ in minor}, pi, x, y)
    lifted = reduced_costs(g, c, y)
    assert lifted == [s[aid] - (voltage[head] - voltage[tail])
                      for aid, (tail, head) in enumerate(g.arcs)]
    assert all(lifted[aid] == s[aid] for aid in cmap.contracted)
    assert {aid: lifted[aid] for aid, _, _ in minor} == s_cur

def _reached(g, arc_ids, root):
    return set(bfs_forest(g, arc_ids, [root])[0])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bridge_rule_deletes_only_bridges_that_cut_off_no_demand(data):
    """Every deleted arc is a bridge between classes, with 9 x <= 2 beta
    and a side that demands nothing, and every such bridge whose two
    sides both demand nothing is deleted; the classes are the merge
    forest's trees."""
    g, cmap = _draw_state(data)
    cert = compute_scaling(1, 1, 1)  # beta = 8192: the line is x = 1820
    b = dict(zip(g.nodes, _ints(data, g.n, -2, 2)))
    x = _ints(data, g.m, 1, 3000)
    minor = minor_arcs(g, cmap)
    forced = _forced_bridges(aux_instance(g, b, [0] * g.m), cert, cmap, minor, x)
    assert len(forced) == len(set(forced))
    for aid, _, _ in minor:
        tail, head = g.arcs[aid]
        rest = [a for a, _, _ in minor if a != aid] + cmap.merges
        near, far = _reached(g, rest, tail), _reached(g, rest, head)
        bridge = head not in near
        quiet = bridge and sum(b[v] for v in near) == 0 == sum(
            b[v] for v in far)
        if aid in forced:
            assert bridge and 9 * x[aid] <= 2 * cert.beta
            assert sum(b[v] for v in near) == 0 or sum(b[v] for v in far) == 0
        else:
            assert not (quiet and 9 * x[aid] <= 2 * cert.beta)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_loop_rule_contracts_only_loops_of_zero_class_reduced_cost(data):
    """A minor self-loop is contracted exactly when c_a equals the cost
    of the merge-forest path between its endpoints, found here by a
    search; a loop that costs less than that path raises."""
    g, cmap = _draw_state(data)
    c = _ints(data, g.m, 0, 3)
    minor = minor_arcs(g, cmap)

    def path_cost(tail, head):
        stack, seen = [(tail, 0)], {tail}
        while stack:
            v, cost = stack.pop()
            if v == head:
                return cost
            for a in cmap.merges:
                at, ah = g.arcs[a]
                for u, w, sign in ((at, ah, 1), (ah, at, -1)):
                    if u == v and w not in seen:
                        seen.add(w)
                        stack.append((w, cost + sign * c[a]))
        raise AssertionError("a loop's endpoints share a class")

    reduced = {aid: c[aid] - path_cost(*g.arcs[aid])
               for aid, tail, head in minor if tail == head}
    aux = aux_instance(g, dict.fromkeys(g.nodes, 0), c)
    if any(r < 0 for r in reduced.values()):
        with pytest.raises(InvariantError, match="negative reduced cost"):
            _forced_loops(aux, cmap, minor)
    else:
        assert _forced_loops(aux, cmap, minor) == [
            aid for aid, r in reduced.items() if r == 0]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dual_shift_moves_no_minor_or_contracted_slack(data):
    """The shift leaves every minor and contracted slack as it was. It
    moves the duals only when a deleted slack is not positive, and then
    leaves every deleted slack at least 1."""
    g, cmap = _draw_state(data)
    c = _ints(data, g.m, -3, 3)
    y = dict(zip(g.nodes, _ints(data, g.n, -3, 3)))
    before = dict(y)

    def slack(aid, duals):
        tail, head = g.arcs[aid]
        return c[aid] - (duals[head] - duals[tail])

    _shift_components(aux_instance(g, {}, c), cmap, minor_arcs(g, cmap), y)
    for aid in range(g.m):
        if aid not in cmap.deleted:
            assert slack(aid, y) == slack(aid, before)
    if y != before:
        assert any(slack(aid, before) <= 0 for aid in cmap.deleted)
        assert all(slack(aid, y) >= 1 for aid in cmap.deleted)


def test_dual_shift_separates_components_when_it_can():
    # components {1, 2} and {3} (arc 0 is the minor); deleted arc 1
    # enters 3 at slack -4, and deleted arc 2 leaves it at slack 13
    g = MultiGraph([1, 2, 3], [(1, 2), (2, 3), (3, 1)])
    cmap = ContractionMap(g)
    cmap.delete(1)
    cmap.delete(2)
    aux = aux_instance(g, {}, [0, 0, 9])
    y = {1: 0, 2: 0, 3: 4}
    assert reduced_costs(g, aux.c, y) == [0, -4, 13]
    _shift_components(aux, cmap, minor_arcs(g, cmap), y)
    # the least shift: arc 1 reaches slack 1, arc 2 keeps 8
    assert y == {1: 0, 2: 0, 3: -1}
    assert reduced_costs(g, aux.c, y) == [0, 1, 8]
    # with arc 2 at slack 2, slacks -4 and 2 cannot both reach 1
    aux = aux_instance(g, {}, [0, 0, -2])
    y = {1: 0, 2: 0, 3: 4}
    assert reduced_costs(g, aux.c, y) == [0, -4, 2]
    _shift_components(aux, cmap, minor_arcs(g, cmap), y)
    assert y == {1: 0, 2: 0, 3: 4}


def test_outer_ceiling_scales():
    assert outer_ceiling(3, 1 << 54) > 1000
    assert outer_ceiling(3, 1 << 54) < 2000


def test_path_following_reaches_proxy_exit():
    trace = []

    def probe(event, payload):
        if event == "iterate":
            trace.append(payload)

    aux, cert, res = follow_path(E1, probe=probe)
    live = minor_arcs(aux.graph, res.cmap)
    gap = sum(res.x[aid] * res.s[aid] for aid, _, _ in live)
    assert 81 * gap < 4 * cert.beta * cert.gamma
    assert res.iterations <= outer_ceiling(cert.m, res.mu)
    assert trace[0]["iter"] == 0
    assert trace[-1]["gap_sum"] == gap
    assert {"iter", "mu", "minor_arcs", "contracted", "deleted", "gap_sum",
            "max_abs"} == set(trace[0])
    # mu is strictly decreasing along the trace
    mus = [row["mu"] for row in trace]
    assert all(a > b for a, b in zip(mus, mus[1:]))
    assert trace[-1]["max_abs"] > 0


def test_path_following_is_deterministic():
    _, _, a = follow_path(E1, seed=42)
    _, _, b = follow_path(E1, seed=42)
    assert a.x == b.x and a.s == b.s and a.y == b.y and a.mu == b.mu
    _, _, c = follow_path(E1, seed=43)
    assert (a.x, a.iterations) != (c.x, c.iterations) or a.updates != c.updates


def test_probe_sees_centering_entries_and_exits():
    seen = []

    def probe(event, payload):
        seen.append((event, payload))

    aux, _, _ = follow_path(E1, probe=probe)
    assert seen
    enters = [p for ev, p in seen if ev == "centering_enter"]
    exits = [p for ev, p in seen if ev == "centering_exit"]
    lifted = [p for ev, p in seen if ev == "lifted"]
    iterates = [p for ev, p in seen if ev == "iterate"]
    assert len(enters) == len(exits) == len(lifted) and enters
    # one row per outer iteration, the last one where the loop stops
    assert len(iterates) == len(enters) + 1
    assert {ev for ev, _ in seen} == {"iterate", "centering_enter",
                                      "centering_exit", "lifted"}
    payload = enters[0]
    assert set(payload) == {"iteration", "arcs", "x", "s", "mu", "trial_mu"}
    assert payload["mu"] > 0
    assert all(payload["x"][aid] > 0 for aid, _, _ in payload["arcs"])
    # every exit satisfies the strict centrality bound it was run for
    for payload in exits:
        dev = sum(abs(payload["x"][aid] * payload["s"][aid] - payload["mu"])
                  for aid, _, _ in payload["arcs"])
        assert 8 * dev < payload["mu"]
    # every lifted point is feasible on the full auxiliary instance
    for payload in lifted:
        assert apply_incidence(aux.graph, payload["x"]) == aux.b
        y = payload["y"]
        for a, (t, h) in enumerate(aux.graph.arcs):
            assert y[h] - y[t] + payload["s"][a] == aux.c[a]


def test_trial_steps_follow_the_iteration_schedule():
    """Each centering first tries 2, 4, then 8 short steps at once, by
    the iteration count, and ends at the trial target or at the short
    one; iteration 0 takes the short step alone. A rejected trial does
    not shrink the next one, and a trial accepted through the corrector
    ends at the trial target."""
    # acceptance-mix draw 26, followed to the proxy exit with seed 26:
    # 46 of its 47 trials are accepted, 5 of them through the corrector,
    # and the one at iteration 3 falls back to the short step
    seen = []
    _, cert, res = follow_path(random_instance(26, *suite_params(26)),
                               seed=26,
                               probe=lambda ev, p: seen.append((ev, p)))
    rows = [p for ev, p in seen if ev == "iterate"]
    enters = [p for ev, p in seen if ev == "centering_enter"]
    exits = [p for ev, p in seen if ev == "centering_exit"]
    outcomes = []
    for row, enter, exit_, after in zip(rows, enters, exits, rows[1:]):
        it, mu = row["iter"], row["mu"]
        short = decrement_mu(mu, cert.m)
        trial = mu - (1 << min(3, it)) * (mu - short)
        assert enter["iteration"] == it
        assert enter["mu"] == short
        if it == 0:
            assert enter["trial_mu"] is None
            assert exit_["mu"] == short
        else:
            assert enter["trial_mu"] == trial
            accepted = exit_["mu"] == trial
            assert accepted or exit_["mu"] == short
            outcomes.append(accepted)
        assert after["mu"] == exit_["mu"]
    assert len(rows) == len(enters) + 1
    assert True in outcomes and False in outcomes
    assert res.corrected > 0


def test_invariants_hold_throughout():
    # the per-iteration checks raise on any lapse; a clean run is the assertion
    aux, cert, res = follow_path(E1)
    dev = 0
    live = minor_arcs(aux.graph, res.cmap)
    for aid, _, _ in live:
        dev += abs(res.x[aid] * res.s[aid] - res.mu)
    assert 8 * dev <= res.mu


def test_centerings_reuse_the_forest(monkeypatch):
    # an outer iteration that deletes and contracts nothing keeps the
    # minor, and the forest is rebuilt only when the new resistances
    # change the minimum tree; this path, run to the proxy exit, builds
    # 39 forests in 134 centerings, and would build one per centering
    # without reuse
    builds = 0

    class CountingForest(centering.TreeForest):
        def __init__(self, *args, **kwargs):
            nonlocal builds
            builds += 1
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(centering, "TreeForest", CountingForest)
    enters = []
    inst = random_instance(3, 8, 16, 10, 10, "feasible")
    result = solve_to_the_proxy_exit(
        inst, SolveConfig(seed=3),
        probe=lambda event, payload: enters.append(payload)
        if event == "centering_enter" else None)
    assert result.status == "optimal"
    assert 1 <= builds <= len(enters) // 3


def _scheduled_tries(rows, cert):
    """The iterations among ``rows`` (iterate payloads) that the
    schedule tries: 0, every power of two, and each whose bit gap is at
    most half of the last tried one's."""
    line = (4 * cert.beta * cert.gamma).bit_length()
    tries, last = [], None  # iteration 0 is always tried
    for row in rows:
        it = row["iter"]
        gap = (81 * row["gap_sum"]).bit_length() - line
        if it & (it - 1) == 0 or 2 * gap <= last:
            tries.append(it)
            last = gap
    return tries


def test_rounding_tries_follow_the_schedule_and_a_refused_one_changes_nothing():
    """The driver tries the rounding at iteration 0, at every power of
    two, and when the proxy's bit gap is at most half of what it was at
    the last try. On this m0 = 48 draw every try but the last is
    refused, the one at iteration 1 among them, and a refused try
    leaves the point and the minor as it found them; the last try
    certifies and ends the path."""
    tried, refused, rows = [], [], []

    def rounding(aux, cert, res):
        before = (list(res.x), list(res.s), dict(res.y),
                  set(res.cmap.deleted), set(res.cmap.contracted))
        tried.append(res.iterations)
        try:
            return crossover(aux, cert, res)
        except InvariantError:
            refused.append(res.iterations)
            assert (res.x, res.s, res.y, res.cmap.deleted,
                    res.cmap.contracted) == before
            raise

    inst = random_instance(1, 16, 48, 10, 10, "feasible")
    _, cert, res = follow_path(
        inst, seed=1, rounding=rounding,
        probe=lambda ev, p: rows.append(p) if ev == "iterate" else None)
    assert tried == _scheduled_tries(rows, cert)
    assert 1 in refused and refused == tried[:-1]
    assert res.iterations == tried[-1] == rows[-1]["iter"]
    assert res.rounding_tries == len(tried)
    assert res.rounded is not None


def test_a_refusal_at_the_proxy_exit_propagates():
    """The proxy exit's try is the last one: when the rounding refuses
    there too, the driver raises the refusal. It neither returns an
    unrounded point nor runs on to its iteration ceiling, and it calls
    the rounding once per scheduled try plus once at the exit."""
    tried, rows, certs = [], [], []

    def refuse(aux, cert, res):
        tried.append(res.iterations)
        certs.append(cert)
        raise RoundingRefusedError("refused")

    with pytest.raises(RoundingRefusedError, match="^refused$"):
        follow_path(E1, rounding=refuse, probe=lambda ev, p: rows.append(p)
                   if ev == "iterate" else None)
    cert = certs[0]
    exit_line = 4 * cert.beta * cert.gamma
    at_exit = [81 * row["gap_sum"] < exit_line for row in rows]
    assert at_exit == [False] * (len(rows) - 1) + [True]
    assert tried == _scheduled_tries(rows[:-1], cert) + [rows[-1]["iter"]]


def test_only_a_refused_rounding_lets_the_path_go_on():
    """Before the proxy exit the driver catches only a refusal, the
    crossover's failed demand check. Any other InvariantError from a
    try is a defect and propagates, even when a later try would
    certify."""
    tried = []

    def broken_then_crossover(aux, cert, res):
        tried.append(res.iterations)
        if res.iterations == 0:
            raise InvariantError("tree arc 0 is not tight after the lift")
        return crossover(aux, cert, res)

    with pytest.raises(InvariantError, match="^tree arc 0 is not tight"):
        follow_path(E1, rounding=broken_then_crossover)
    assert tried == [0]


# The driver state of random_instance(9055, 4, 4, 2, 2, "feasible"),
# solved with seed 9055, right before the lift of outer iteration 39:
# the instance, the deleted arcs (nothing is contracted), the point, the
# target mu the centering reached, and the centering's x_cur, s_cur and
# pi over the five minor arcs. Replaying the lift from here needs no
# random numbers, so this pin does not move when the centering stream
# changes. The bridge rule now deletes arc 6 before this state is
# reached; from the state itself, the lift passes.
PIN_9055 = {
    "instance": RawInstance(MultiGraph([1, 2, 3, 4],
                                       [(1, 2), (3, 1), (2, 4), (1, 2)]),
                            {1: -2, 2: 4, 3: -2, 4: 0}, [2, 2, 2, 2],
                            [1, 0, 0, -1]),
    "deleted": [1, 3, 4, 8, 9, 10, 11],
    "x": [490837, 33451, 490721, 33567, 33567, 490721, 34119, 490169,
          33792, 33567, 33567, 33778],
    "s": [85563393948019, 518327723598103, 85583690547263,
          98427453131563668, 347740599019523, 85583613100017,
          1230927879314405, 85680014865473, 202981284855421020,
          105428421511454123, 203508133966551022, 202981284855421020],
    "y": {1: 0, 2: 789006097049508, 3: -98341869441016405,
          4: 526849111130002, 5: 270678373451405, 6: -98427453131563668,
          7: 441265498029985, 8: -85680014865473},
    "mu": 29874029746470893356,
    "x_cur": {0: 490837, 2: 490721, 5: 490721, 6: 34119, 7: 490169},
    "s_cur": {0: 60863445855835, 2: 60877798561033, 5: 60877743354250,
              6: 875600680875647, 7: 60946430151860},
    "pi": {1: 0, 5: 24699948092184, 8: 24733584713613,
           2: -330593613725145, 3: 0, 6: 24705891986230, 4: 0,
           7: 24705869745767},
}


# The lift moved the duals so far that deleted arc 4's slack, recomputed
# from them, fell from 3.5e14 to below zero. Minor bridge 6 cuts off
# the nodes of no demand and carries the deleted arcs' frozen flow, so
# the bridge rule deletes it; the lift's per-component dual shift then
# keeps every deleted slack positive.
def test_frozen_lift_keeps_deleted_arc_slack_positive():
    pin = PIN_9055
    _, _, cert, _, aux, _ = _prepare(pin["instance"])
    cmap = ContractionMap(aux.graph)
    for aid in pin["deleted"]:
        cmap.delete(aid)
    minor = minor_arcs(aux.graph, cmap)
    assert [aid for aid, _, _ in minor] == sorted(pin["x_cur"])
    assert reduced_costs(aux.graph, aux.c, pin["y"]) == pin["s"]
    x, y = list(pin["x"]), dict(pin["y"])
    _lift(aux, cmap, minor, pin["x_cur"], pin["pi"], x, y)
    s = reduced_costs(aux.graph, aux.c, y)
    # the shift moved no minor slack off the centering's
    assert {aid: s[aid] for aid, _, _ in minor} == pin["s_cur"]
    # the next iteration's classification deletes and contracts nothing
    assert all(_classify(x[aid], s[aid], cert.m, cert) == "keep"
               for aid, _, _ in minor)
    _check_iterate(aux, cert, x, s, pin["mu"], cmap, minor)
    assert _forced_bridges(aux, cert, cmap, minor, x) == [6]


# The driver state of random_instance(4003, 5, 10, 10, 0, "random"),
# solved with seed 4003, right before the lift of outer iteration 70:
# the deleted arcs, the contracted arcs in the order they were
# contracted (which fixes the merge forest and the class names), the
# point, the target mu the centering reached, and the centering's x_cur,
# s_cur and pi over the six minor arcs. Like PIN_9055, replaying from
# here needs no random numbers.
PIN_4003 = {
    "instance": random_instance(4003, 5, 10, 10, 0, "random"),
    "deleted": [20, 23, 26, 21, 25, 27, 24, 28, 22],
    "contracted": [1, 7, 13, 0, 10, 11, 18, 19, 3, 6, 12, 17, 14, 9],
    "x": [42743619, 41142461, 5801359, 36141681, 4625101, 3763507, 25871986,
          49625486, 6020140, 10757076, 57037156, 1683100, 24457526, 34262730,
          12143904, 4633312, 5509363, 36433677, 31334941, 27385315, 181608,
          202522, 178316, 198983, 207075, 180452, 194311, 181506, 206981],
    "s": [55802134421421069, 49701443245039582, 62773922579761850,
          55666052884614274, 79293236878478010, 95402260642678028,
          47183395132648770, 57098168080496777, 60492630091022405,
          47284069219493342, 54657410057220578, 47549540362073002,
          50478198119388989, 53285101372089420, 56942275834778707,
          79151990775360212, 66100937590520682, 52892376718991619,
          47553105670901350, 54660975366048926, 31972691516228608852424,
          10658292269357752599982, 3553521544582202248007,
          15986336103488280470937, 4568793559027917652424,
          6394536917916408099569, 15986371521764092581505,
          6394526516258789270937, 4568807774767307947576],
    "y": {1: -6100691176381487, 2: 0, 3: -13208560871529063,
          4: -22209714940581505, 5: -3293787923681056, 6: -55802134421421069,
          7: -68874613756143337, 8: -101502951819059515,
          9: -60391956004177833, 10: -60492630091022405,
          11: -60758101233602065, 12: -56578889295770476,
          13: -79151990775360212, 14: -66100937590520682,
          15: -60761666542430413},
    "mu": 297685298934418023874960,
    "x_cur": {2: 4742181, 4: 4398017, 5: 3990591, 8: 4921018, 15: 4406228,
              16: 4503496},
    "s_cur": {2: 62773922579761850, 4: 68256133642638170,
              5: 73341426673978658, 8: 60492630091022405,
              15: 68128260042500682, 16: 66100937590520682},
    "pi": {1: 0, 4: 11023730732859530, 8: 22060833968699370},
}


# The lift routed class imbalance through contracted arc 11 in the
# direction earlier lifts did, until its flow fell below zero. The
# imbalance came from minor self-loops 2, 8 and 16, which the centering
# moves freely; their class reduced cost is 0, so the loop rule
# contracts them, and this state is no longer reached.
def test_frozen_state_contracts_the_forced_loops():
    pin = PIN_4003
    _, _, _, _, aux, _ = _prepare(pin["instance"])
    cmap = ContractionMap(aux.graph)
    for aid in pin["deleted"]:
        cmap.delete(aid)
    for aid in pin["contracted"]:
        cmap.contract(aid)
    minor = minor_arcs(aux.graph, cmap)
    assert [aid for aid, _, _ in minor] == sorted(pin["x_cur"])
    assert _forced_loops(aux, cmap, minor) == [2, 8, 16]
