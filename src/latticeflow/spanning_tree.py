"""Spanning forests over resistance-weighted multigraphs.

The centering step treats the current minor as an electrical network
with integer resistances r_a and works relative to a spanning forest:
off-tree arcs define fundamental cycles, tree arcs define node voltages,
and each cycle's total resistance both weights the random arc choice and
bounds the stall ceiling through the forest's condition number.

Arcs are identified by their stable ids in the enclosing graph, so a
forest can be built directly over a minor's surviving arcs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from .exact_arith import ceil_div

__all__ = ["TreeForest"]


class TreeForest:
    """A minimum-resistance spanning forest with cycle bookkeeping.

    Built by Prim's algorithm per weakly-connected component, smallest
    resistance first with arc id as the tie-break, so construction is
    deterministic. Self-loops never join the forest. ``order`` lists the
    nodes as Prim reached them, each root before its tree, so every
    node comes after its parent ``parent[v] = (p, arc, direction)``.
    """

    __slots__ = (
        "nodes", "arcs", "r", "roots", "order", "parent", "depth",
        "tree_arcs", "off_tree", "cycle_resistance", "weights", "_cycles",
    )

    def __init__(self, nodes: list, arcs: list[tuple[int, object, object]],
                 r: dict[int, int]):
        """nodes: component node labels; arcs: (arc_id, tail, head);
        r: arc_id -> positive integer resistance."""
        self.nodes = list(nodes)
        self.arcs = {aid: (tail, head) for aid, tail, head in arcs}
        if len(self.arcs) != len(arcs):
            raise ValueError("duplicate arc ids")
        self.r = dict(r)
        for aid in self.arcs:
            if self.r.get(aid, 0) <= 0:
                raise ValueError(f"arc {aid}: resistance must be positive")

        adj: dict[object, list[tuple[int, object]]] = {v: [] for v in self.nodes}
        for aid, (tail, head) in self.arcs.items():
            if tail == head:
                continue
            adj[tail].append((aid, head))
            adj[head].append((aid, tail))

        self.roots: list = []
        self.order: list = []
        self.parent: dict = {}
        self.depth: dict = {}
        tree: set[int] = set()
        seen: set = set()
        for start in self.nodes:
            if start in seen:
                continue
            self.roots.append(start)
            self.order.append(start)
            seen.add(start)
            self.depth[start] = 0
            heap = [(self.r[aid], aid, start, other) for aid, other in adj[start]]
            heapq.heapify(heap)
            while heap:
                _, aid, frm, to = heapq.heappop(heap)
                if to in seen:
                    continue
                seen.add(to)
                direction = 1 if self.arcs[aid] == (frm, to) else -1
                self.parent[to] = (frm, aid, direction)
                self.depth[to] = self.depth[frm] + 1
                self.order.append(to)
                tree.add(aid)
                for bid, other in adj[to]:
                    if other not in seen:
                        heapq.heappush(heap, (self.r[bid], bid, to, other))

        self.tree_arcs = sorted(tree)
        self.off_tree = sorted(set(self.arcs) - tree)
        self._cycles: dict[int, list[tuple[int, int]]] = {}
        self.cycle_resistance = {
            aid: sum(self.r[b] for b, _ in self.fundamental_cycle(aid))
            for aid in self.off_tree
        }
        # sampling weight per off-tree arc: ceil(r(C_a) / r_a)
        self.weights = [ceil_div(self.cycle_resistance[aid], self.r[aid])
                        for aid in self.off_tree]

    def fundamental_cycle(self, aid: int) -> list[tuple[int, int]]:
        """The cycle closed by off-tree arc aid, as (arc_id, sign) pairs.

        The cycle is traversed in the arc's own direction, so aid itself
        appears with sign +1; a tree arc gets +1 when the traversal
        follows its orientation and -1 against. A self-loop is its own
        cycle. The forest never changes after construction, so walks are
        cached.
        """
        cached = self._cycles.get(aid)
        if cached is not None:
            return cached
        if aid not in self.arcs:
            raise KeyError(f"arc {aid} not in forest")
        tail, head = self.arcs[aid]
        cycle = [(aid, 1)]
        if tail == head:
            self._cycles[aid] = cycle
            return cycle
        # walk both endpoints up to their meeting point; the cycle runs
        # head -> lca -> tail, so climbing from head keeps traversal
        # order and climbing from tail is reversed
        up_from_head: list[tuple[int, int]] = []
        up_from_tail: list[tuple[int, int]] = []
        a, b = head, tail
        while self.depth[a] > self.depth[b]:
            p, arc, d = self.parent[a]
            up_from_head.append((arc, -d))
            a = p
        while self.depth[b] > self.depth[a]:
            p, arc, d = self.parent[b]
            up_from_tail.append((arc, d))
            b = p
        while a != b:
            p, arc, d = self.parent[a]
            up_from_head.append((arc, -d))
            a = p
            p, arc, d = self.parent[b]
            up_from_tail.append((arc, d))
            b = p
        cycle.extend(up_from_head)
        cycle.extend(reversed(up_from_tail))
        self._cycles[aid] = cycle
        return cycle

    def voltages(self, phi: dict[int, int]) -> dict:
        """Node voltages induced by the tree flow: each root sits at 0
        and every tree arc a = (v, w) satisfies pi_w - pi_v = r_a phi_a."""
        pi: dict = {}
        parent, r = self.parent, self.r
        for v in self.order:
            if v in parent:
                p, arc, d = parent[v]
                pi[v] = pi[p] + d * r[arc] * phi.get(arc, 0)
            else:
                pi[v] = 0
        return pi

    def condition_ceiling(self) -> int:
        """ceil(tau(T)) where tau(T) = sum over off-tree arcs of
        r(C_a) / r_a, computed exactly; at least 1 even for a bare tree."""
        tau = sum((Fraction(self.cycle_resistance[aid], self.r[aid])
                   for aid in self.off_tree), Fraction(0))
        ceiling = -((-tau.numerator) // tau.denominator)
        return max(1, ceiling)
