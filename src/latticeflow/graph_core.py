"""Directed multigraph with stable arc ids, incidence operators, minors,
every graph walk and the one max-flow the solver needs.

Arcs are identified by their dense index into the arc list and keep that
identity forever: deleting or contracting arcs never renumbers the
survivors. :class:`ContractionMap` keeps the contraction classes as a
merge forest, each class a tree rooted at and named by its smallest
node; :func:`minor_arcs` maps the surviving arcs onto the classes.

Every rooted forest has one form: ``order`` lists its nodes, each after
its parent, and ``parent[v] = (p, arc, direction)`` for each non-root v,
with direction +1 when the arc points from p to v and -1 otherwise.
:func:`grow_forest` is the one loop that grows such a forest, breadth
first or, given a key per arc, by Prim's rule (``spanning_tree``'s
forest), over the one undirected :func:`adjacency`; :func:`bfs_forest`
grows one over a graph's arcs. Reading no graph, :func:`tree_path`
walks a forest between two nodes, :func:`route_to_roots` routes a
demand vector along it leaf to root, :func:`tree_potentials` prices its
arcs tight and :func:`forest_roots` labels each node with its tree's
root; :func:`fundamental_cycles`, the one place that computes forest
depths, walks the cycle of each arc outside a forest. Together they
build tree solutions and cycle tables, route class imbalances, lift
tree potentials, split an instance into its weakly-connected components
and find :func:`bridges`: the arcs of a minor whose removal splits its
component, with the weight of the side each one cuts off.

:func:`max_flow` is the exact transshipment over any hashable nodes: it
meets a demand vector from a super source and into a super sink, in
Dinic's phases, each steered by one search for distances to the sink;
the last search gives the smallest sink side of a minimum cut. It
routes the crossover's admissible flow and decides, before any interior
point work, whether an instance is feasible at all.

Sign convention for the incidence operator: the column of arc a = (v, w)
has -1 at the tail v and +1 at the head w, so a vector b with
``b = apply_incidence(g, x)`` reads "inflow minus outflow", and
:func:`reduced_costs` gives c - A^T y.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InvariantError

__all__ = [
    "MultiGraph",
    "ContractionMap",
    "minor_arcs",
    "apply_incidence",
    "reduced_costs",
    "adjacency",
    "grow_forest",
    "bfs_forest",
    "tree_path",
    "fundamental_cycles",
    "component_roots",
    "bridges",
    "route_to_roots",
    "tree_potentials",
    "forest_roots",
    "max_flow",
]


class MultiGraph:
    """Directed multigraph; parallel arcs and self-loops are permitted."""

    __slots__ = ("nodes", "arcs")

    def __init__(self, nodes: Iterable[int], arcs: Iterable[tuple[int, int]]) -> None:
        self.nodes: list[int] = list(nodes)
        node_set = frozenset(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValueError("duplicate node ids")
        self.arcs: list[tuple[int, int]] = []
        for tail, head in arcs:
            if tail not in node_set or head not in node_set:
                raise ValueError(f"arc ({tail}, {head}) references unknown node")
            self.arcs.append((tail, head))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.arcs)


def apply_incidence(g: MultiGraph, x: Sequence[int]) -> dict[int, int]:
    """Return b with b_v = sum of x over arcs into v minus arcs out of v.

    Self-loops contribute zero. The output always sums to zero because
    every arc contributes +x_a once and -x_a once.
    """
    b = {v: 0 for v in g.nodes}
    for a, (tail, head) in enumerate(g.arcs):
        xa = x[a]
        b[tail] -= xa
        b[head] += xa
    return b


def reduced_costs(g: MultiGraph, c: Sequence[int],
                  y: Mapping[int, int]) -> list[int]:
    """Return c - A^T y: the entry c_a - (y_head - y_tail) per arc."""
    return [ca - (y[head] - y[tail]) for ca, (tail, head) in zip(c, g.arcs)]


class ContractionMap:
    """The deleted / contracted arc sets and the contraction classes, as
    the merge forest.

    Deletion and contraction are never revoked. A contracted arc whose
    endpoints were already in one class (a chord) is recorded in
    ``contracted`` all the same; an arc that joined two classes is also
    appended to ``merges``, the forest's arcs in contraction order.
    ``order`` / ``parent`` hold the forest in the module's form, grown
    breadth first from the nodes in increasing order and regrown at each
    merge, so each class is a tree rooted at its smallest node.
    """

    __slots__ = ("_g", "_root", "order", "parent", "deleted", "contracted",
                 "merges")

    def __init__(self, g: MultiGraph) -> None:
        self._g = g
        self.deleted: set[int] = set()
        self.contracted: set[int] = set()
        self.merges: list[int] = []
        self._grow()

    def _grow(self) -> None:
        self.order, self.parent = bfs_forest(self._g, self.merges,
                                             sorted(self._g.nodes))
        self._root = forest_roots(self.order, self.parent)

    def find(self, v: int) -> int:
        """The name of v's class: its smallest node."""
        return self._root[v]

    def _check_fresh(self, a: int) -> None:
        if a in self.deleted:
            raise InvariantError(f"arc {a} already deleted")
        if a in self.contracted:
            raise InvariantError(f"arc {a} already contracted")

    def delete(self, a: int) -> None:
        self._check_fresh(a)
        self.deleted.add(a)

    def contract(self, a: int) -> None:
        """Record arc a as contracted; when its endpoints' classes were
        distinct, a joins ``merges`` and the forest is regrown."""
        self._check_fresh(a)
        self.contracted.add(a)
        tail, head = self._g.arcs[a]
        if self._root[tail] != self._root[head]:
            self.merges.append(a)
            self._grow()


def minor_arcs(g: MultiGraph, cmap: ContractionMap) -> list[tuple[int, int, int]]:
    """The minor induced by a ContractionMap, as (arc_id, tail_class,
    head_class) per surviving arc in arc-id order, classes named by their
    smallest nodes; an arc inside one class appears as a self-loop."""
    find, dead_d, dead_c = cmap.find, cmap.deleted, cmap.contracted
    return [(a, find(tail), find(head))
            for a, (tail, head) in enumerate(g.arcs)
            if a not in dead_d and a not in dead_c]


def adjacency(arcs: Iterable[tuple[int, Hashable, Hashable]]
              ) -> dict[Hashable, list[tuple[int, Hashable]]]:
    """The undirected adjacency of (arc_id, tail, head) triples: every
    endpoint, in order of first appearance, maps to (arc_id, other end)
    for each of its arcs in input order. A self-loop adds its node and
    no neighbour."""
    adj: dict[Hashable, list[tuple[int, Hashable]]] = {}
    for aid, tail, head in arcs:
        at_tail = adj.setdefault(tail, [])
        at_head = adj.setdefault(head, [])
        if tail != head:
            at_tail.append((aid, head))
            at_head.append((aid, tail))
    return adj


def grow_forest(arcs: Sequence[tuple[int, Hashable, Hashable]],
                roots: Iterable[Hashable] | None = None,
                key: Mapping[int, int] | None = None
                ) -> tuple[list, dict[Hashable, tuple[Hashable, int, int]]]:
    """A rooted forest over the (arc_id, tail, head) triples ``arcs``,
    direction ignored, as ``(order, parent)`` in the module's form.

    Each root not yet reached starts a tree (``roots`` defaults to every
    endpoint in order of first appearance) and grows it one frontier arc
    at a time, an arc from a reached node to an unreached one: with
    ``key``, the least by (key[arc_id], arc_id), so each tree is its
    component's unique minimum spanning tree (Prim); without, the one
    found first, each node's arcs read in input order (breadth first).
    Self-loops never join. ``order`` keeps every tree contiguous.
    """
    adj = adjacency(arcs)
    heads = {aid: head for aid, _, head in arcs}
    # entries (key, arc, from, to) never tie: an arc is queued only once
    if key is None:
        frontier, put, take = deque(), deque.append, deque.popleft
    else:
        frontier, put, take = [], heappush, heappop
    order: list = []
    parent: dict = {}
    reached: set = set()
    for root in (adj if roots is None else roots):
        if root in reached:
            continue
        put(frontier, (None, None, None, root))  # reached by no arc
        while frontier:
            _, aid, p, v = take(frontier)
            if v in reached:
                continue
            reached.add(v)
            order.append(v)
            if aid is not None:
                parent[v] = (p, aid, 1 if heads[aid] == v else -1)
            for bid, w in adj.get(v, ()):
                if w not in reached:
                    put(frontier,
                        (None if key is None else key[bid], bid, v, w))
    return order, parent


def bfs_forest(g: MultiGraph, arc_ids: Iterable[int], roots: Iterable[int]
               ) -> tuple[list[int], dict[int, tuple[int, int, int]]]:
    """The breadth-first :func:`grow_forest` from ``roots`` over the
    arcs ``arc_ids`` of ``g``, in that order."""
    arcs = g.arcs
    return grow_forest([(a, *arcs[a]) for a in arc_ids], roots)


def tree_path(parent: Mapping[Hashable, tuple[Hashable, int, int]],
              depth: Mapping[Hashable, int], u: Hashable, v: Hashable
              ) -> list[tuple[int, int]]:
    """The path from u to v in one tree of a rooted forest, ``depth``
    giving each node's distance from its root, as (arc, sign) pairs in
    traversal order: sign +1 where the path follows the arc and -1
    where it goes against it."""
    up: list[tuple[int, int]] = []
    down: list[tuple[int, int]] = []  # from v, so reversed at the end
    while depth[u] > depth[v]:
        u, arc, direction = parent[u]
        up.append((arc, -direction))
    while depth[v] > depth[u]:
        v, arc, direction = parent[v]
        down.append((arc, direction))
    while u != v:
        u, arc, direction = parent[u]
        up.append((arc, -direction))
        v, arc, direction = parent[v]
        down.append((arc, direction))
    up.extend(reversed(down))
    return up


def fundamental_cycles(arcs: Sequence[tuple[int, Hashable, Hashable]],
                       key: Mapping[int, int] | None = None
                       ) -> tuple[list, dict, list[tuple[int, list]]]:
    """``(order, parent, cycles)``: the :func:`grow_forest` over ``arcs``
    and, by increasing id, ``(arc_id, [(arc_id, 1)] + tree_path(parent,
    depth, head, tail))`` for each arc outside it, a circulation; a
    self-loop's cycle is itself."""
    order, parent = grow_forest(arcs, key=key)
    depth: dict[Hashable, int] = {}
    for v in order:
        depth[v] = depth[parent[v][0]] + 1 if v in parent else 0
    tree = {a for _, a, _ in parent.values()}
    cycles = [(aid, [(aid, 1)] + tree_path(parent, depth, head, tail))
              for aid, tail, head in sorted(arcs, key=lambda arc: arc[0])
              if aid not in tree]
    return order, parent, cycles


def component_roots(g: MultiGraph, arc_ids: Iterable[int],
                    roots: Iterable[int]) -> dict[int, int]:
    """Map every node that :func:`bfs_forest` reaches over ``arc_ids``
    from ``roots`` to the root of its tree, in visiting order; the nodes
    one root labels form a weakly-connected component of those arcs."""
    return forest_roots(*bfs_forest(g, arc_ids, roots))


def bridges(arcs: Sequence[tuple[int, Hashable, Hashable]],
            weight: Mapping[Hashable, int]) -> list[tuple[int, int]]:
    """The bridges of the multigraph ``arcs``, direction ignored.

    ``arcs`` are (arc_id, tail, head) triples, as :func:`minor_arcs`
    gives them; a bridge is an arc on no cycle, so parallel arcs and
    self-loops never are: it is an arc of the breadth-first forest that
    lies on none of its :func:`fundamental_cycles`. Returns (arc_id,
    side) per bridge, leaves first within each tree (the forest's
    ``order`` reversed), where side sums ``weight`` (0 for a node it
    does not list) over the nodes the bridge cuts off from its tree's
    root, the component's first node in ``arcs``.
    """
    order, parent, cycles = fundamental_cycles(arcs)
    covered = {a for _, cycle in cycles for a, _ in cycle}
    side = {v: weight.get(v, 0) for v in order}
    found: list[tuple[int, int]] = []
    for v in reversed(order):
        if v in parent:
            p, a, _ = parent[v]
            side[p] += side[v]
            if a not in covered:
                found.append((a, side[v]))
    return found


def route_to_roots(order: Sequence[Hashable],
                   parent: Mapping[Hashable, tuple[Hashable, int, int]],
                   demand: dict[Hashable, int], flow: list[int]) -> None:
    """Meet every non-root node's demand through its parent arc.

    Leaves first, the demand of v (net inflow still needed) is added to
    the flow of its parent arc, times the arc's direction, and passed
    up to the parent. Afterwards only roots hold demand: each root keeps
    its tree's total. ``demand`` and ``flow`` are updated in place.
    """
    for v in reversed(order):
        d = demand[v]
        if d == 0 or v not in parent:
            continue
        p, a, direction = parent[v]
        flow[a] += direction * d
        demand[p] += d
        demand[v] = 0


def tree_potentials(order: Sequence[Hashable],
                    parent: Mapping[Hashable, tuple[Hashable, int, int]],
                    cost: Sequence[int]) -> dict[Hashable, int]:
    """Potentials on a rooted forest that make every forest arc tight:
    each root gets 0, and every arc a = (v, w) joining a node to its
    parent gets pi_w - pi_v = cost[a]."""
    pi: dict[Hashable, int] = {}
    for v in order:
        if v in parent:
            p, a, direction = parent[v]
            pi[v] = pi[p] + direction * cost[a]
        else:
            pi[v] = 0
    return pi


def forest_roots(order: Sequence[Hashable],
                 parent: Mapping[Hashable, tuple[Hashable, int, int]]
                 ) -> dict[Hashable, Hashable]:
    """Map each node of a rooted forest to its tree's root, in order."""
    root: dict[Hashable, Hashable] = {}
    for v in order:
        root[v] = root[parent[v][0]] if v in parent else v
    return root


def max_flow(nodes: Iterable[Hashable],
             arcs: Sequence[tuple[Hashable, Hashable, int]],
             demand: Mapping[Hashable, int]) -> tuple[int, list[int], set]:
    """Exact transshipment by Dinic's phases, each steered by distances
    to the sink.

    ``arcs`` are (tail, head, capacity) with nonnegative integer
    capacities of any size; ``demand`` maps a node to the net inflow it
    needs, as :func:`apply_incidence` reads it. A super source feeds
    each node of negative demand and each node of positive demand
    drains into a super sink; these arcs are wired ahead of ``arcs``, in
    ``demand`` order, and each node reads its edges in wiring order.

    Each phase measures every node's distance to the super sink with
    one breadth-first search over the residual edges, walked backward,
    and pushes a blocking flow depth first along edges one step nearer
    the sink. So every augmentation follows the lexicographically first
    remaining shortest path, edges compared by their place in their
    tail's list, and pushes its bottleneck: the flow that comes back is
    the one Edmonds and Karp's method gives, searching breadth first
    with a FIFO queue and reading each node's edges in wiring order.
    Returns the positive demand that a maximum flow leaves unmet, the
    flow on each input arc, and the nodes that the last search reached,
    less the sink: those that can still reach the super sink in the
    final residual graph, the smallest sink side of a minimum cut.
    The number of phases and augmentations depends only on the node and
    arc counts, not on the capacities.
    """
    source, sink = object(), object()
    # adjacency lists of edge indices; edge i is [to, residual cap] and
    # its reverse is edge i ^ 1
    graph: dict = {v: [] for v in nodes}
    graph[source], graph[sink] = [], []
    flat: list[list] = []
    wired = [(source, v, -d) if d < 0 else (v, sink, d)
             for v, d in demand.items() if d]
    needed = sum(d for d in demand.values() if d > 0)
    for tail, head, cap in (*wired, *arcs):
        graph[tail].append(len(flat))
        flat.append([head, cap])
        graph[head].append(len(flat))
        flat.append([tail, 0])

    total = 0
    while True:
        # edge j leads from v to u, so its reverse j ^ 1 leads from u to v
        dist = {sink: 0}
        queue = [sink]
        for v in queue:
            for j in graph[v]:
                u = flat[j][0]
                if flat[j ^ 1][1] > 0 and u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        if source not in dist:
            break
        # each augmenting path is found depth first from the source;
        # it[v] skips each edge of v that is saturated or led to a dead end
        it = dict.fromkeys(dist, 0)
        path: list[int] = []  # edge indices from the source
        v = source
        while True:
            edges = graph[v]
            while it[v] < len(edges):
                ei = edges[it[v]]
                to, cap = flat[ei]
                if cap > 0 and dist.get(to) == dist[v] - 1:
                    break
                it[v] += 1
            else:
                if not path:
                    break  # the source is a dead end: the flow is blocking
                v = flat[path.pop() ^ 1][0]  # back to the edge's tail
                it[v] += 1
                continue
            path.append(ei)
            v = to
            if v is sink:
                pushed = min(flat[ei][1] for ei in path)
                for ei in path:
                    flat[ei][1] -= pushed
                    flat[ei ^ 1][1] += pushed
                total += pushed
                path.clear()
                v = source
    # an input arc's flow is the residual of its reverse edge
    flows = [edge[1] for edge in flat[2 * len(wired) + 1::2]]
    del dist[sink]
    return needed - total, flows, set(dist)
