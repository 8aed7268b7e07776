from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow.errors import InvariantError
from latticeflow.graph_core import (
    ContractionMap,
    MultiGraph,
    adjacency,
    apply_incidence,
    bfs_forest,
    bridges,
    component_roots,
    forest_roots,
    fundamental_cycles,
    grow_forest,
    max_flow,
    minor_arcs,
    reduced_costs,
    route_to_roots,
    tree_path,
)

from helpers import E1


@pytest.mark.parametrize("nodes, arcs, message", [
    ([1, 2, 1], [(1, 2)], "duplicate node ids"),
    ([1, 2], [(1, 2), (2, 3)], r"arc \(2, 3\) references unknown node"),
    ([1, 2], [(0, 1)], r"arc \(0, 1\) references unknown node"),
])
def test_multigraph_rejects_bad_node_ids(nodes, arcs, message):
    with pytest.raises(ValueError, match=message):
        MultiGraph(nodes, arcs)


class TestApplyIncidence:
    def test_single_arc(self):
        g = MultiGraph([1, 2], [(1, 2)])
        assert apply_incidence(g, [3]) == {1: -3, 2: 3}

    def test_self_loop(self):
        g = MultiGraph([1], [(1, 1)])
        assert apply_incidence(g, [7]) == {1: 0}

    def test_triangle(self):
        assert apply_incidence(E1.graph, [2, 2, 0]) == {1: -2, 2: 0, 3: 2}

    @given(
        x=st.lists(st.integers(min_value=-(2**64), max_value=2**64), min_size=3, max_size=3)
    )
    @settings(max_examples=100)
    def test_output_sums_to_zero(self, x):
        b = apply_incidence(E1.graph, x)
        assert sum(b.values()) == 0


class TestReducedCosts:
    def test_forward_arc(self):
        g = MultiGraph([1, 2], [(1, 2)])
        assert reduced_costs(g, [7], {1: 0, 2: 5}) == [2]

    def test_self_loop(self):
        g = MultiGraph([1], [(1, 1)])
        assert reduced_costs(g, [7], {1: 99}) == [7]

    def test_reversed_arc(self):
        g = MultiGraph([1, 2], [(2, 1)])
        assert reduced_costs(g, [7], {1: 0, 2: 5}) == [12]


class TestContractionMap:
    def test_contract_merges_classes(self):
        g = E1.graph
        cmap = ContractionMap(g)
        cmap.contract(0)
        assert cmap.merges == [0]
        assert cmap.find(1) == cmap.find(2)
        assert cmap.find(3) != cmap.find(1)
        # surviving arcs become parallel arcs from class {1,2} to class {3}
        assert [(t, h) for _, t, h in minor_arcs(g, cmap)] == [
            (cmap.find(1), cmap.find(3)),
            (cmap.find(1), cmap.find(3)),
        ]

    def test_delete(self):
        g = E1.graph
        cmap = ContractionMap(g)
        cmap.delete(2)
        assert [a for a, _, _ in minor_arcs(g, cmap)] == [0, 1]

    def test_chain_contraction_makes_self_loop(self):
        g = E1.graph
        cmap = ContractionMap(g)
        cmap.contract(0)
        cmap.contract(1)
        assert cmap.merges == [0, 1]
        # one class is left
        assert cmap.find(1) == cmap.find(2) == cmap.find(3)
        (arc,) = minor_arcs(g, cmap)
        assert arc == (2, cmap.find(1), cmap.find(1))  # a self-loop

    def test_chord_contraction_is_not_a_merge(self):
        g = MultiGraph([1, 2], [(1, 2), (1, 2)])
        cmap = ContractionMap(g)
        cmap.contract(0)
        cmap.contract(1)
        assert cmap.merges == [0]
        assert cmap.contracted == {0, 1}

    def test_merges_list_merging_arcs_in_contraction_order(self):
        # arcs 3 and 1 make {1,2} and {3,4}, arc 2 joins the two, and
        # arcs 0 and 4 are chords by the time they are contracted
        g = MultiGraph([1, 2, 3, 4],
                       [(1, 3), (4, 3), (2, 4), (2, 1), (3, 2)])
        cmap = ContractionMap(g)
        for a in (3, 1, 2, 0, 4):
            cmap.contract(a)
        assert cmap.merges == [3, 1, 2]
        assert cmap.contracted == {0, 1, 2, 3, 4}

    def test_double_application_rejected(self):
        g = E1.graph
        cmap = ContractionMap(g)
        cmap.delete(0)
        with pytest.raises(InvariantError):
            cmap.delete(0)
        with pytest.raises(InvariantError):
            cmap.contract(0)
        cmap.contract(1)
        with pytest.raises(InvariantError, match="^arc 1 already contracted$"):
            cmap.contract(1)

    def test_arc_ids_stable(self):
        g = E1.graph
        cmap = ContractionMap(g)
        cmap.delete(0)
        assert [a for a, _, _ in minor_arcs(g, cmap)] == [1, 2]


class TestMinorCounts:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["delete", "contract"]), st.integers(0, 5)),
            max_size=6,
        )
    )
    @settings(max_examples=100)
    def test_arc_counts_partition(self, ops):
        g = MultiGraph(
            [1, 2, 3, 4],
            [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 2)],
        )
        cmap = ContractionMap(g)
        for kind, a in ops:
            if a in cmap.deleted or a in cmap.contracted:
                continue
            if kind == "delete":
                cmap.delete(a)
            else:
                cmap.contract(a)
        minor = minor_arcs(g, cmap)
        assert len(minor) + len(cmap.deleted) + len(cmap.contracted) == g.m
        # every surviving arc joins the classes of its endpoints
        for a, t, h in minor:
            tail, head = g.arcs[a]
            assert (t, h) == (cmap.find(tail), cmap.find(head))
        # every contracted arc has both endpoints in one class
        for a in cmap.contracted:
            tail, head = g.arcs[a]
            assert cmap.find(tail) == cmap.find(head)
        assert not (cmap.deleted & cmap.contracted)


def test_adjacency_lists_nodes_by_first_appearance():
    arcs = [(4, "b", "a"), (7, "c", "c"), (2, "a", "c"), (0, "a", "b")]
    # the self-loop adds its node but no neighbour
    assert adjacency(arcs) == {
        "b": [(4, "a"), (0, "a")],
        "a": [(4, "b"), (2, "c"), (0, "b")],
        "c": [(2, "a")],
    }
    assert list(adjacency(arcs)) == ["b", "a", "c"]


def test_forest_roots_label_each_node_by_its_tree_root():
    # a tree rooted at 5 (2 and 1 its children, 7 below 2), a lone root
    # 3, and "b" below "a"
    order = [5, 2, 1, 3, 7, "a", "b"]
    parent = {2: (5, 0, 1), 1: (5, 1, -1), 7: (2, 2, 1), "b": ("a", 3, 1)}
    roots = forest_roots(order, parent)
    assert roots == {5: 5, 2: 5, 1: 5, 3: 3, 7: 5, "a": "a", "b": "a"}
    assert list(roots) == order
    assert forest_roots([], {}) == {}


def test_component_roots_label_each_tree_by_its_root():
    g = MultiGraph([1, 2, 3, 4, 5, 6], [(2, 1), (4, 3), (5, 4), (6, 6)])
    roots = component_roots(g, range(g.m), [3, 1, 5, 2, 6])
    assert roots == {3: 3, 4: 3, 5: 3, 1: 1, 2: 1, 6: 6}
    assert list(roots) == [3, 4, 5, 1, 2, 6]
    # a node no root reaches gets no label
    assert component_roots(g, [0], [2]) == {2: 2, 1: 2}


# (n, arcs): a multigraph on nodes 0..n-1 as (arc_id, tail, head)
# triples, self-loops and parallel arcs included
_MULTIGRAPHS = st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             min_size=1, max_size=14).map(
        lambda ends: [(a, t, h) for a, (t, h) in enumerate(ends)])))


def _partition(n, arcs, contracted):
    """Each node of 0..n-1 mapped to the smallest node it reaches over
    the ``contracted`` arcs, direction ignored: found by relabelling
    until nothing changes."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for a in contracted:
            _, t, h = arcs[a]
            low = min(label[t], label[h])
            if label[t] != low or label[h] != low:
                label[t] = label[h] = low
                changed = True
    return label


@given(_MULTIGRAPHS, st.data())
@settings(max_examples=300)
def test_contraction_map_agrees_with_brute_force_partition(graph, data):
    """After any delete / contract sequence, each class is named by its
    smallest node, ``merges`` lists the contracted arcs that joined two
    classes, in order, and ``(order, parent)`` is a forest in the
    rooted-forest form whose arcs are exactly ``merges``, one tree per
    class rooted at its name."""
    n, arcs = graph
    g = MultiGraph(range(n), [(t, h) for _, t, h in arcs])
    cmap = ContractionMap(g)
    contracted, merges = [], []
    for a in data.draw(st.permutations(range(g.m))):
        kind = data.draw(st.sampled_from(["keep", "delete", "contract"]))
        if kind == "delete":
            cmap.delete(a)
        elif kind == "contract":
            label = _partition(n, arcs, contracted)
            if label[arcs[a][1]] != label[arcs[a][2]]:
                merges.append(a)
            contracted.append(a)
            cmap.contract(a)
    label = _partition(n, arcs, contracted)
    assert [cmap.find(v) for v in range(n)] == label
    assert cmap.merges == merges
    assert cmap.contracted == set(contracted)
    assert sorted(cmap.order) == list(range(n))
    for v, (p, a, direction) in cmap.parent.items():
        assert cmap.order.index(p) < cmap.order.index(v)
        assert g.arcs[a] == ((p, v) if direction == 1 else (v, p))
    assert sorted(a for _, a, _ in cmap.parent.values()) == sorted(merges)
    assert forest_roots(cmap.order, cmap.parent) == {v: label[v]
                                                     for v in range(n)}


class TestGrowForest:
    @given(_MULTIGRAPHS, st.data())
    @settings(max_examples=200)
    def test_key_gives_kruskals_forest(self, graph, data):
        """With a key, the forest is the unique minimum spanning forest
        under (key, arc id): the arcs that join two components when
        Kruskal takes them in that order, as the merges of contracting
        every arc."""
        n, arcs = graph
        key = {a: data.draw(st.integers(1, 4)) for a, _, _ in arcs}
        order, parent = grow_forest(arcs, key=key)
        cmap = ContractionMap(MultiGraph(range(n), [(t, h) for _, t, h in arcs]))
        for a, _, _ in sorted(arcs, key=lambda arc: (key[arc[0]], arc[0])):
            cmap.contract(a)
        assert {a for _, a, _ in parent.values()} == set(cmap.merges)
        # the rooted-forest form: every endpoint once, each node after
        # its parent, each direction read off its arc
        assert sorted(order) == sorted({v for _, t, h in arcs for v in (t, h)})
        ends = {a: (t, h) for a, t, h in arcs}
        for v, (p, a, direction) in parent.items():
            assert order.index(p) < order.index(v)
            assert ends[a] == ((p, v) if direction == 1 else (v, p))

    @given(_MULTIGRAPHS, st.data())
    @settings(max_examples=200)
    def test_tree_path_carries_one_unit(self, graph, data):
        """One unit pushed along ``tree_path``'s signed arcs leaves u and
        enters v, and no tree arc is used twice."""
        n, arcs = graph
        order, parent = grow_forest(arcs)
        root, depth = {}, {}
        for w in order:
            p = parent[w][0] if w in parent else None
            root[w] = w if p is None else root[p]
            depth[w] = 0 if p is None else depth[p] + 1
        u = data.draw(st.sampled_from(order))
        v = data.draw(st.sampled_from([w for w in order if root[w] == root[u]]))
        path = tree_path(parent, depth, u, v)
        used = [a for a, _ in path]
        assert len(used) == len(set(used))
        assert set(used) <= {a for _, a, _ in parent.values()}
        g = MultiGraph(range(n), [(t, h) for _, t, h in arcs])
        flow = [0] * g.m
        for a, sign in path:
            flow[a] += sign
        expected = dict.fromkeys(g.nodes, 0)
        expected[u] -= 1
        expected[v] += 1
        assert apply_incidence(g, flow) == expected


class TestBfsForest:
    def test_single_root_visits_in_arc_order(self):
        g = MultiGraph([1, 2, 3, 4], [(1, 3), (2, 1), (3, 4), (2, 4)])
        order, parent = bfs_forest(g, range(g.m), [1])
        assert order == [1, 3, 2, 4]
        assert parent == {3: (1, 0, 1), 2: (1, 1, -1), 4: (3, 2, 1)}

    def test_arc_ids_choose_and_order_the_neighbours(self):
        g = MultiGraph([1, 2, 3, 4], [(1, 3), (2, 1), (3, 4), (2, 4)])
        order, parent = bfs_forest(g, [3, 1, 0], [4])
        assert order == [4, 2, 1, 3]
        assert parent == {2: (4, 3, -1), 1: (2, 1, 1), 3: (1, 0, 1)}

    def test_several_roots(self):
        g = MultiGraph([1, 2, 3, 4, 5], [(1, 2), (4, 3), (5, 4)])
        order, parent = bfs_forest(g, range(g.m), [3, 1, 4, 5, 2])
        # 4 and 5 are reached from 3, 2 from 1: only 3 and 1 start trees
        assert order == [3, 4, 5, 1, 2]
        assert parent == {4: (3, 1, -1), 5: (4, 2, -1), 2: (1, 0, 1)}

    def test_self_loops_and_parallel_arcs(self):
        g = MultiGraph([1, 2], [(1, 1), (2, 1), (1, 2), (2, 2)])
        order, parent = bfs_forest(g, range(g.m), [1])
        # the self-loops never join; the first parallel arc wins
        assert order == [1, 2]
        assert parent == {2: (1, 1, -1)}

    def test_unreachable_nodes_are_left_out(self):
        g = MultiGraph([1, 2, 3, 4], [(1, 2), (3, 3), (3, 4)])
        order, parent = bfs_forest(g, [0, 1], [1])
        assert order == [1, 2]
        assert parent == {2: (1, 0, 1)}
        assert bfs_forest(g, [], [3]) == ([3], {})



@pytest.mark.parametrize("prim", [False, True])
@given(graph=_MULTIGRAPHS, data=st.data())
@settings(max_examples=200)
def test_fundamental_cycles_are_circulations(prim, graph, data):
    """Over the breadth-first forest and the Prim forest alike, with
    the arcs given in any order: the forest is ``grow_forest``'s, each
    arc outside it has one cycle, by increasing id, that starts with
    the arc itself at sign +1, runs through forest arcs only and is a
    circulation; a self-loop's cycle is itself."""
    n, arcs = graph
    arcs = data.draw(st.permutations(arcs))
    key = None
    if prim:
        key = dict(enumerate(data.draw(st.lists(
            st.integers(1, 5), min_size=len(arcs), max_size=len(arcs)))))
    order, parent, cycles = fundamental_cycles(arcs, key=key)
    assert (order, parent) == grow_forest(arcs, key=key)
    tree = {a for _, a, _ in parent.values()}
    assert [aid for aid, _ in cycles] == sorted(
        a for a, _, _ in arcs if a not in tree)
    ends = {a: (t, h) for a, t, h in arcs}
    g = MultiGraph(range(n), [ends[a] for a in range(len(arcs))])
    for aid, cycle in cycles:
        assert cycle[0] == (aid, 1)
        assert {a for a, _ in cycle[1:]} <= tree
        if ends[aid][0] == ends[aid][1]:
            assert cycle == [(aid, 1)]
        flow = [0] * g.m
        for a, sign in cycle:
            flow[a] += sign
        assert apply_incidence(g, flow) == dict.fromkeys(g.nodes, 0)

class TestBridges:
    def test_path_with_a_cycle(self):
        # 1 - 2 is a bridge, 2 - 3 - 4 a cycle, 4 - 5 a bridge; the
        # search starts at 1, so each bridge cuts off its far side
        arcs = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 2), (4, 4, 5)]
        weight = {1: 1, 2: 10, 3: 100, 4: 1000, 5: 10000}
        assert bridges(arcs, weight) == [(4, 10000), (0, 11110)]

    def test_parallel_arcs_and_self_loops_are_never_bridges(self):
        arcs = [(0, "a", "b"), (1, "b", "a"), (2, "b", "b"), (3, "b", "c")]
        assert bridges(arcs, {"c": 7}) == [(3, 7)]

    @given(
        n=st.integers(1, 6),
        arcs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      max_size=10),
        weight=st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    )
    @settings(max_examples=200)
    def test_agrees_with_removing_each_arc(self, n, arcs, weight):
        """An arc is a bridge exactly when removing it leaves its tail
        unable to reach its head; its side is what the component of the
        search's root, the component's first node in ``arcs``, loses."""
        triples = [(a, t % n, h % n) for a, (t, h) in enumerate(arcs)]
        g = MultiGraph(range(n), [(t, h) for _, t, h in triples])

        def reached(arc_ids, root):
            return set(bfs_forest(g, arc_ids, [root])[0])

        first = []
        for _, t, h in triples:
            first += [v for v in (t, h) if v not in first]
        found = dict(bridges(triples, dict(enumerate(weight))))
        for a, t, h in triples:
            rest = [b for b in range(g.m) if b != a]
            if t in reached(rest, h):
                assert a not in found
                continue
            whole = reached(range(g.m), t)
            root = next(v for v in first if v in whole)
            side = whole - reached(rest, root)
            assert found.pop(a) == sum(weight[v] for v in side)
        assert not found


class TestRouteToRoots:
    def test_tree_solution(self):
        # a path 1 - 2 - 3 rooted at 1, the middle arc pointing rootward
        g = MultiGraph([1, 2, 3], [(1, 2), (3, 2)])
        order, parent = bfs_forest(g, range(g.m), [1])
        demand = {1: -5, 2: 2, 3: 3}
        flow = [0, 0]
        route_to_roots(order, parent, demand, flow)
        assert flow == [5, -3]
        assert demand == {1: 0, 2: 0, 3: 0}

    def test_corrects_an_existing_flow(self):
        # 10 units ship 2 -> 1 where 4 should; the demand left over is
        # b minus the current inflow
        g = MultiGraph([1, 2], [(2, 1)])
        b = {1: 4, 2: -4}
        flow = [10]
        inflow = apply_incidence(g, flow)
        demand = {v: b[v] - inflow[v] for v in g.nodes}
        assert demand == {1: -6, 2: 6}
        order, parent = bfs_forest(g, [0], [1])
        route_to_roots(order, parent, demand, flow)
        assert flow == [4]
        assert apply_incidence(g, flow) == b

    @given(
        n=st.integers(1, 7),
        arcs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                      max_size=12),
        b=st.lists(st.integers(-50, 50), min_size=7, max_size=7),
        roots=st.permutations(range(7)),
    )
    @settings(max_examples=100)
    def test_only_roots_keep_demand(self, n, arcs, b, roots):
        nodes = list(range(n))
        g = MultiGraph(nodes, [(t % n, h % n) for t, h in arcs])
        order, parent = bfs_forest(g, range(g.m), [v for v in roots if v < n])
        assert sorted(order) == nodes
        demand = {v: b[v] for v in nodes}
        flow = [0] * g.m
        route_to_roots(order, parent, demand, flow)
        assert all(demand[v] == 0 for v in parent)
        # each tree's root holds the total its tree could not absorb
        tree_of = {}
        for v in order:
            tree_of[v] = tree_of[parent[v][0]] if v in parent else v
        for root in set(tree_of.values()):
            assert demand[root] == sum(b[v] for v in nodes
                                       if tree_of[v] == root)
        # the flow delivers every routed unit: inflow = b - what is left
        inflow = apply_incidence(g, flow)
        assert all(inflow[v] == b[v] - demand[v] for v in nodes)
        # only tree arcs carry flow
        tree_arcs = {a for _, a, _ in parent.values()}
        assert all(flow[a] == 0 for a in range(g.m) if a not in tree_arcs)


def test_max_flow_bottleneck():
    # two parallel source arcs into one capacity-4 pipe
    unmet, flows, sink_side = max_flow(
        ["s", "a", "t"], [("s", "a", 2), ("s", "a", 3), ("a", "t", 4)],
        {"s": -5, "a": 0, "t": 5})
    assert unmet == 1
    assert flows[0] + flows[1] == 4
    assert flows[2] == 4
    # the pipe is saturated, so only the sink is on the sink side
    assert sink_side == {"t"}


def test_max_flow_diamond():
    arcs = [("s", 1, 3), ("s", 2, 3), (1, "t", 2), (2, "t", 2), (1, 2, 5)]
    unmet, flows, sink_side = max_flow(["s", 1, 2, "t"], arcs,
                                       {"s": -6, "t": 6})
    assert unmet == 2
    assert all(f >= 0 for f in flows)
    assert sink_side == {"t"}


def test_max_flow_long_path_does_not_recurse():
    # one augmenting path through 3000 nodes, far deeper than the
    # interpreter's recursion limit; the thinnest arc sits in the middle
    n = 3000
    arcs = [(i, i + 1, 7) for i in range(n - 1)]
    arcs[n // 2] = (n // 2, n // 2 + 1, 3)
    unmet, flows, sink_side = max_flow(range(n), arcs, {0: -7, n - 1: 7})
    assert unmet == 4
    assert flows == [3] * (n - 1)
    assert sink_side == set(range(n // 2 + 1, n))


def test_max_flow_pushes_a_huge_capacity_in_one_augmentation():
    # each augmentation pushes the path's bottleneck in full; an
    # augmentation capped at 2^512 would need 2^88 of them here
    cap = 1 << 600
    unmet, flows, sink_side = max_flow(
        ["s", "a", "t"], [("s", "a", cap), ("a", "t", cap + 1)],
        {"s": -cap, "t": cap})
    assert unmet == 0
    assert flows == [cap, cap]
    assert sink_side == set()


# up to six nodes, a demand vector in [-9, 9] per node that need not
# balance, and up to twelve arcs of capacity 0-9, self-loops included
transshipments = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                       st.integers(0, 9)), max_size=12),
    st.lists(st.integers(-9, 9), min_size=n, max_size=n)))


@settings(max_examples=100, deadline=None)
@given(transshipments)
def test_max_flow_value_equals_its_cut(case):
    """Max-flow min-cut, exactly, in Gale's form: the flows are
    feasible, every node receives at most its demand or ships at most
    its supply, and the unmet demand is the sink side's demand less the
    capacity entering it. Arcs entering the sink side are saturated,
    arcs leaving it empty, and every supply inside it and demand
    outside it is met in full."""
    n, arcs, b = case
    unmet, flows, sink_side = max_flow(range(n), arcs, dict(enumerate(b)))
    net = [0] * n
    for (t, h, cap), f in zip(arcs, flows):
        assert 0 <= f <= cap
        net[t] -= f
        net[h] += f
    for v in range(n):
        assert min(b[v], 0) <= net[v] <= max(b[v], 0)
        if (b[v] < 0) == (v in sink_side) and b[v]:
            assert net[v] == b[v]
    assert unmet == sum(d for d in b if d > 0) - sum(
        net[v] for v in range(n) if b[v] > 0)
    entering = 0
    for (t, h, cap), f in zip(arcs, flows):
        if h in sink_side and t not in sink_side:
            assert f == cap
            entering += cap
        elif t in sink_side and h not in sink_side:
            assert f == 0
    assert unmet == sum(b[v] for v in sink_side) - entering


@settings(max_examples=100, deadline=None)
@given(transshipments, st.data())
def test_max_flow_cut_ignores_the_arc_order(case, data):
    """The unmet demand and the smallest sink side are properties of the
    network, not of the order its arcs are wired in."""
    n, arcs, b = case
    unmet, _, sink_side = max_flow(range(n), arcs, dict(enumerate(b)))
    shuffled = data.draw(st.permutations(arcs))
    again, _, side = max_flow(range(n), shuffled, dict(enumerate(b)))
    assert (again, side) == (unmet, sink_side)


def _edmonds_karp(n, arcs, demand):
    """Edmonds and Karp's max flow (J. ACM 19(2), 1972) on ``max_flow``'s
    wiring: super arcs in ``demand`` order, then ``arcs``. Each round
    searches breadth first from the super source with a FIFO queue,
    reading each node's edges in wiring order, and pushes the found
    path's bottleneck. Returns ``max_flow``'s (unmet, flows, sink_side)."""
    source, sink = "source", "sink"
    graph = {v: [] for v in (*range(n), source, sink)}
    flat = []  # edge i is [to, residual cap]; its reverse is edge i ^ 1
    wired = [(source, v, -d) if d < 0 else (v, sink, d)
             for v, d in demand.items() if d]
    for tail, head, cap in (*wired, *arcs):
        graph[tail].append(len(flat))
        flat.append([head, cap])
        graph[head].append(len(flat))
        flat.append([tail, 0])
    total = 0
    while True:
        via = {source: None}  # the edge each reached node was reached by
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for ei in graph[v]:
                to, cap = flat[ei]
                if cap > 0 and to not in via:
                    via[to] = ei
                    queue.append(to)
        if sink not in via:
            break
        path, v = [], sink
        while via[v] is not None:
            path.append(via[v])
            v = flat[via[v] ^ 1][0]
        pushed = min(flat[ei][1] for ei in path)
        for ei in path:
            flat[ei][1] -= pushed
            flat[ei ^ 1][1] += pushed
        total += pushed
    side = {sink}
    grew = True
    while grew:  # every tail of a residual edge into the side joins it
        grew = False
        for ei, (to, cap) in enumerate(flat):
            tail = flat[ei ^ 1][0]
            if cap > 0 and to in side and tail not in side:
                side.add(tail)
                grew = True
    needed = sum(d for d in demand.values() if d > 0)
    flows = [edge[1] for edge in flat[2 * len(wired) + 1::2]]
    return needed - total, flows, side - {sink}


_HUGE = st.integers(0, 2**600)


@st.composite
def _wide_transshipments(draw):
    """A ``transshipments`` draw with parallel copies of some arcs, in a
    drawn order, and some capacities and demands up to 2^600."""
    n, arcs, b = draw(transshipments)
    if arcs:
        arcs = draw(st.permutations(
            arcs + draw(st.lists(st.sampled_from(arcs), max_size=6))))
    arcs = [(t, h, draw(st.one_of(st.just(cap), _HUGE)))
            for t, h, cap in arcs]
    b = [draw(st.one_of(st.just(d), _HUGE, _HUGE.map(lambda x: -x)))
         for d in b]
    return n, arcs, b


@settings(max_examples=200, deadline=None)
@given(_wide_transshipments())
def test_max_flow_returns_the_edmonds_karp_flow(case):
    """Which maximum flow comes back is pinned: the one Edmonds and
    Karp's method gives on the same wiring, reading each node's edges in
    wiring order, with the same unmet demand and smallest sink side."""
    n, arcs, b = case
    demand = dict(enumerate(b))
    assert max_flow(range(n), arcs, demand) == _edmonds_karp(n, arcs,
                                                              demand)
