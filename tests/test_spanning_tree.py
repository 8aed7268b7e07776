"""Hand-checked forests plus the cycle/voltage identity that the
centering step depends on."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow.spanning_tree import TreeForest

TRI = [(0, 1, 2), (1, 2, 3), (2, 1, 3)]  # triangle on nodes 1, 2, 3


def _tree_arcs(f):
    return sorted(set(f.arcs) - set(f.off_tree))


def _roots(f):
    return [v for v in f.order if v not in f.parent]


def _weights(f):
    """The sampling weights, as the differences of ``prefix``."""
    return [b - a for a, b in zip([0, *f.prefix], f.prefix)]


def test_prim_picks_cheap_arcs():
    f = TreeForest(TRI, {0: 1, 1: 1, 2: 5})
    assert _tree_arcs(f) == [0, 1]
    assert f.off_tree == [2]
    # cycle: arc 2 forward, then back 3 -> 2 -> 1 against arcs 1 and 0
    assert f.cycles == [(2, [(2, 1, 5), (1, -1, -1), (0, -1, -1)], 5 + 1 + 1)]
    assert _weights(f) == [2]  # ceil(7 / 5)
    assert f.condition_ceiling() == 2  # ceil(7/5)


def test_arc_id_tie_break():
    # equal resistances: the lower arc id wins
    f = TreeForest([(0, 1, 2), (1, 1, 2)], {0: 3, 1: 3})
    assert _tree_arcs(f) == [0]
    assert f.off_tree == [1]
    assert f.cycles == [(1, [(1, 1, 3), (0, -1, -3)], 6)]


def test_self_loop_is_its_own_cycle():
    f = TreeForest([(0, 1, 2), (1, 2, 2)], {0: 1, 1: 4})
    assert f.off_tree == [1]
    assert f.cycles == [(1, [(1, 1, 4)], 4)]
    assert _weights(f) == [1]


def test_forest_spans_components_separately():
    arcs = [(0, 1, 2), (1, 3, 4)]
    f = TreeForest(arcs, {0: 1, 1: 1})
    assert _roots(f) == [1, 3]
    assert _tree_arcs(f) == [0, 1]
    assert f.off_tree == []
    assert f.cycles == []
    assert f.condition_ceiling() == 1  # floor for a bare forest


def test_roots_follow_first_appearance():
    # each component's first endpoint in arc order is its root, not its
    # smallest node
    arcs = [(0, 9, 2), (1, 2, 5), (2, 7, 3), (3, 1, 9)]
    f = TreeForest(arcs, {0: 1, 1: 1, 2: 1, 3: 1})
    assert _roots(f) == [9, 7]
    assert f.order == [9, 2, 5, 1, 7, 3]


def test_voltages_follow_tree_flow():
    # path 1 -> 2 -> 3 with arc 1 reversed: (0, 1, 2), (1, 3, 2)
    f = TreeForest([(0, 1, 2), (1, 3, 2)], {0: 2, 1: 3})
    pi = f.voltages({0: 5, 1: 7})
    assert pi[1] == 0
    assert pi[2] - pi[1] == 2 * 5
    assert pi[2] - pi[3] == 3 * 7  # arc 1 points 3 -> 2


def _random_network(draw_nodes, arcs, rs):
    arc_list = [(i, 1 + t % draw_nodes, 1 + h % draw_nodes)
                for i, (t, h) in enumerate(arcs)]
    r = {i: rs[i % len(rs)] for i in range(len(arc_list))}
    return TreeForest(arc_list, r)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                max_size=12),
       st.lists(st.integers(1, 9), min_size=1, max_size=5),
       st.data())
def test_cycle_voltage_identity(n, arcs, rs, data):
    """For every off-tree arc a = (v, w):
    sum of sign * r * phi over the cycle equals r_a phi_a - (pi_w - pi_v)."""
    f = _random_network(n, arcs, rs)
    phi = {aid: data.draw(st.integers(-50, 50)) for aid in f.arcs}
    pi = f.voltages(phi)
    for aid, coefs, _ in f.cycles:
        tail, head = f.arcs[aid]
        lam_cycle = sum(c * phi[b] for b, _, c in coefs)
        lam_direct = f.r[aid] * phi[aid] - (pi[head] - pi[tail])
        assert lam_cycle == lam_direct


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 7),
       st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1,
                max_size=12),
       st.lists(st.integers(1, 9), min_size=1, max_size=5))
def test_cycle_is_a_circulation(n, arcs, rs):
    """Pushing one unit around any fundamental cycle changes no node's
    net flow, the table lists the off-tree arcs in order, each cycle's
    resistance and coefficients match its arcs, and ``prefix`` holds the
    running sums of the weights ceil(r(C_a) / r_a)."""
    f = _random_network(n, arcs, rs)
    assert [aid for aid, _, _ in f.cycles] == f.off_tree
    assert len(f.prefix) == len(f.off_tree)
    for (aid, coefs, cycle_r), weight in zip(f.cycles, _weights(f)):
        assert coefs[0] == (aid, 1, f.r[aid])
        net = {v: 0 for v in f.order}
        for b, sign, c in coefs:
            assert c == sign * f.r[b]
            tail, head = f.arcs[b]
            net[tail] -= sign
            net[head] += sign
        assert all(v == 0 for v in net.values())
        assert cycle_r == sum(f.r[b] for b, _, _ in coefs)
        assert weight * f.r[aid] >= cycle_r > (weight - 1) * f.r[aid]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 6),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1,
                max_size=10),
       st.lists(st.integers(1, 9), min_size=1, max_size=4))
def test_condition_ceiling_bounds_tau(n, arcs, rs):
    f = _random_network(n, arcs, rs)
    tau = sum((Fraction(cycle_r, f.r[aid]) for aid, _, cycle_r in f.cycles),
              Fraction(0))
    ceil = f.condition_ceiling()
    assert ceil >= tau
    assert ceil - 1 < tau or ceil == 1


def test_reweight_keeps_or_rejects_the_tree():
    f = TreeForest(TRI, {0: 1, 1: 1, 2: 5})
    # arc 2 still outranks both tree arcs: the tree stays, the table moves
    assert f.reweight({0: 2, 1: 3, 2: 4})
    assert _tree_arcs(f) == [0, 1]
    assert f.cycles == [(2, [(2, 1, 4), (1, -1, -3), (0, -1, -2)], 9)]
    assert f.prefix == [3]  # ceil(9 / 4)
    # a tie with arc 1 goes to the lower id, which is the tree arc
    assert f.reweight({0: 2, 1: 4, 2: 4})
    # arc 2 now beats arc 1 on its cycle: rejected, nothing changes
    before = (f.r, f.cycles, f.prefix)
    assert not f.reweight({0: 2, 1: 5, 2: 4})
    assert (f.r, f.cycles, f.prefix) == before


# two groups of node labels, so the arcs can fall into several
# components; parallel arcs and self-loops come up often
_GROUPED_ARCS = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4),
                                   st.integers(0, 4)),
                         min_size=1, max_size=12).map(
    lambda arcs: [(i, 10 * g + t, 10 * g + h)
                  for i, (g, t, h) in enumerate(arcs)])


@settings(max_examples=200, deadline=None)
@given(_GROUPED_ARCS, st.data())
def test_reweight_matches_a_fresh_build(arc_list, data):
    """A reweighted forest is the fresh forest for the new resistances
    whenever ``reweight`` accepts, and the fresh forest has another tree
    whenever it refuses. Small resistances make ties common."""
    res = st.integers(1, 4)
    r1 = {aid: data.draw(res) for aid, _, _ in arc_list}
    r2 = {aid: data.draw(st.one_of(st.just(r1[aid]), res))
          for aid, _, _ in arc_list}
    f = TreeForest(arc_list, r1)
    before = (f.r, f.cycles, f.prefix)
    fresh = TreeForest(arc_list, r2)
    if f.reweight(r2):
        assert f.parent == fresh.parent
        assert f.off_tree == fresh.off_tree
        assert f.cycles == fresh.cycles
        assert f.prefix == fresh.prefix
        assert f.condition_ceiling() == fresh.condition_ceiling()
        phi = {aid: data.draw(st.integers(-20, 20)) for aid in f.arcs}
        assert f.voltages(phi) == fresh.voltages(phi)
    else:
        assert (f.r, f.cycles, f.prefix) == before
        assert _tree_arcs(fresh) != _tree_arcs(f)


@given(_GROUPED_ARCS, st.data())
def test_reweight_rejects_nonpositive_resistance(arc_list, data):
    r = {aid: 1 for aid, _, _ in arc_list}
    f = TreeForest(arc_list, r)
    bad = dict(r)
    bad[data.draw(st.sampled_from(sorted(r)))] = data.draw(st.integers(-3, 0))
    with pytest.raises(ValueError, match="resistance must be positive"):
        TreeForest(arc_list, bad)
    with pytest.raises(ValueError, match="resistance must be positive"):
        f.reweight(bad)
    assert f.r is r
    with pytest.raises(ValueError, match="^duplicate arc ids$"):
        TreeForest(arc_list + arc_list[:1], r)
