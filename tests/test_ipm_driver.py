"""Unit tests for the outer-loop pieces (decrement, classification,
imbalance routing) and an end-to-end run of the path following on a
small instance built through the real pipeline."""

from random import Random

import pytest

from latticeflow.errors import InvariantError
from latticeflow.exact_arith import BoundMonitor
from latticeflow.graph_core import ContractionMap, MinorView, MultiGraph, apply_incidence
from latticeflow.instance_pipeline import (
    AuxiliaryInstance,
    RawInstance,
    build_auxiliary,
    compute_scaling,
    downscale,
    normalize_costs,
    scale_up,
)
from latticeflow.ipm_driver import (
    _classify,
    _lift,
    decrement_mu,
    outer_ceiling,
    run_interior_point,
)


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


def _tiny_aux(graph, b, c):
    return AuxiliaryInstance(graph=graph, b=b, c=c,
                             provenance=[("up", i) for i in range(graph.m)],
                             arc_node={}, up_arc={}, down_arc={})


def test_lift_routes_class_imbalance():
    # arc 0 = (1, 2) is contracted; recentering moves flow between the
    # two class-to-node arcs, and the merge arc absorbs the difference
    g = MultiGraph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    aux = _tiny_aux(g, {1: -4, 2: 0, 3: 4}, [0, 0, 0])
    cmap = ContractionMap(g)
    assert cmap.contract(0, 1, 2)
    minor = MinorView(g, cmap)
    x = [2, 2, 2]
    s = [1, 5, 5]
    y = {1: 0, 2: 0, 3: 0}
    rep = cmap.find(1)
    _lift(aux, cmap, minor, [(0, 1, 2)], {1: 3, 2: 1}, {1: 5, 2: 5},
          {rep: 0, 3: 0}, x, s, y)
    assert x == [1, 3, 1]
    assert apply_incidence(g, x) == aux.b


def test_lift_shifts_duals_by_class_voltage():
    g = MultiGraph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    aux = _tiny_aux(g, {1: -4, 2: 0, 3: 4}, [0, 0, 0])
    cmap = ContractionMap(g)
    cmap.contract(0, 1, 2)
    minor = MinorView(g, cmap)
    x = [2, 2, 2]
    s = [1, 5, 5]
    y = {1: 10, 2: 20, 3: 30}
    rep = cmap.find(1)
    _lift(aux, cmap, minor, [(0, 1, 2)], {1: 2, 2: 2}, {1: 5, 2: 5},
          {rep: 7, 3: -1}, x, s, y)
    # both members of the contracted class move together
    assert y == {1: 17, 2: 27, 3: 29}
    assert s[0] == 1  # contracted arc slack untouched


def test_lift_detects_positivity_loss():
    g = MultiGraph([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    aux = _tiny_aux(g, {1: -4, 2: 0, 3: 4}, [0, 0, 0])
    cmap = ContractionMap(g)
    cmap.contract(0, 1, 2)
    minor = MinorView(g, cmap)
    # shifting 2 units of class outflow from arc 2 to arc 1 drives the
    # merge arc (currently carrying 1) to -1
    x = [1, 2, 2]
    s = [1, 5, 5]
    y = {1: 0, 2: 0, 3: 0}
    b = apply_incidence(g, x)
    aux = _tiny_aux(g, b, [0, 0, 0])
    rep = cmap.find(1)
    with pytest.raises(InvariantError):
        _lift(aux, cmap, minor, [(0, 1, 2)], {1: 4, 2: 0 + 2 - 2},
              {1: 5, 2: 5}, {rep: 0, 3: 0}, x, s, y)


def test_outer_ceiling_scales():
    assert outer_ceiling(3, 1 << 54) > 1000
    assert outer_ceiling(3, 1 << 54) < 2000


def _solve_aux(inst: RawInstance, seed=0, **kw):
    norm, _ = normalize_costs(inst)
    down, info = downscale(norm)
    cert = compute_scaling(down.graph.m, info.U, info.C,
                           beta0=info.beta0, gamma0=info.gamma0)
    scaled = scale_up(down, cert)
    monitor = kw.pop("monitor", None)
    aux, point = build_auxiliary(scaled, cert, monitor=monitor)
    res = run_interior_point(aux, cert, point, rng=Random(seed),
                             monitor=monitor, **kw)
    return aux, cert, res


E1 = RawInstance(MultiGraph([1, 2, 3], [(1, 2), (2, 3), (1, 3)]),
                 {1: -2, 2: 0, 3: 2}, [2, 2, 1], [1, 1, 3])


def test_path_following_reaches_proxy_exit():
    monitor = BoundMonitor(10**100, strict=True)
    trace = []

    def probe(event, payload):
        if event == "iterate":
            trace.append(payload)

    aux, cert, res = _solve_aux(E1, monitor=monitor, probe=probe)
    live = [(aid, t, h) for aid, t, h in
            MinorView(aux.graph, res.cmap).arcs]
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
    assert monitor.max_seen > 0


def test_path_following_is_deterministic():
    _, _, a = _solve_aux(E1, seed=42)
    _, _, b = _solve_aux(E1, seed=42)
    assert a.x == b.x and a.s == b.s and a.y == b.y and a.mu == b.mu
    _, _, c = _solve_aux(E1, seed=43)
    assert (a.x, a.iterations) != (c.x, c.iterations) or a.updates != c.updates


def test_probe_sees_centering_entries_and_exits():
    seen = []

    def probe(event, payload):
        seen.append((event, payload))

    aux, _, _ = _solve_aux(E1, probe=probe)
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
    assert set(payload) == {"iteration", "arcs", "x", "s", "mu"}
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


def test_invariants_hold_throughout():
    # check_invariants raises on any lapse; a clean run is the assertion
    aux, cert, res = _solve_aux(E1, check_invariants=True)
    dev = 0
    live = MinorView(aux.graph, res.cmap).arcs
    for aid, _, _ in live:
        dev += abs(res.x[aid] * res.s[aid] - res.mu)
    assert 8 * dev <= res.mu
