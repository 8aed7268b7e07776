"""Spanning forests over resistance-weighted multigraphs, their
electrical part.

The centering step treats the current minor as an electrical network
with integer resistances r_a and works relative to a spanning forest:
off-tree arcs define fundamental cycles, tree arcs define node voltages,
and each cycle's total resistance both weights the random arc choice and
bounds the stall ceiling through the forest's stretch.
``graph_core.fundamental_cycles`` grows the forest and walks its cycles;
this module keeps the resistances, the cycle table, voltages and
stretch.

Arcs are identified by their stable ids in the enclosing graph, so a
forest can be built directly over a minor's surviving arcs. A forest
outlives one set of resistances: when the arcs are unchanged,
``TreeForest.reweight`` keeps the tree for new resistances if it is
still their minimum forest, and rebuilds only the resistance-dependent
part of the cycle table; a fresh forest builds that part the same way.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantError
from .graph_core import fundamental_cycles, tree_potentials

__all__ = ["TreeForest"]


class TreeForest:
    """A minimum-resistance spanning forest and its cycle table.

    Built by ``graph_core.fundamental_cycles`` with the resistances as
    key: Prim's algorithm per weakly-connected component, smallest
    resistance first with arc id as the tie-break, so construction is
    deterministic. Nodes are taken from ``arcs`` in order of first
    appearance, and each unreached node starts a new tree. Self-loops
    never join the forest. ``order`` lists the nodes as Prim reached
    them, each root before its tree, so every node comes after its
    parent ``parent[v] = (p, arc, direction)``: the rooted-forest form
    of :mod:`latticeflow.graph_core`. The roots are the nodes without a
    parent.

    ``off_tree`` lists the off-tree arcs by id, and ``walks``, in the
    same order, ``(arc_id, [(b, sign)])`` for each one's fundamental
    cycle. The cycle is traversed in the arc's own direction, so the arc
    itself comes first with sign +1, and returns through the tree from
    head to tail (``graph_core.tree_path``); a tree arc gets +1 when the
    traversal follows its orientation and -1 against. A self-loop is its
    own cycle. ``cycles`` adds the coefficients, ``(arc_id, [(b, sign,
    sign * r_b)], r(C_a))`` per walk, and ``prefix`` holds the running
    sums of the sampling weights ceil(r(C_a) / r_a), each at least 1,
    which the centering step draws a cycle from.

    ``r`` is the current resistances. ``reweight`` is the one builder of
    ``cycles`` and ``prefix``: the constructor walks each cycle once and
    then reweights to ``r``, so a Prim tree that fails the cycle
    property raises ``InvariantError``; a later ``reweight`` replaces
    ``r``, ``cycles`` and ``prefix`` when the tree stays the one Prim
    would build. ``order``, ``parent``, ``off_tree`` and ``walks`` never
    change after construction.
    """

    __slots__ = ("arcs", "r", "order", "parent", "off_tree", "walks",
                 "cycles", "prefix")

    def __init__(self, arcs: list[tuple[int, object, object]],
                 r: dict[int, int]):
        """arcs: (arc_id, tail, head); r: arc_id -> positive integer
        resistance, read and never modified."""
        self.arcs = {aid: (tail, head) for aid, tail, head in arcs}
        if len(self.arcs) != len(arcs):
            raise ValueError("duplicate arc ids")
        self._check_positive(r)

        self.order, self.parent, self.walks = fundamental_cycles(arcs, key=r)
        self.off_tree = [aid for aid, _ in self.walks]
        if not self.reweight(r):
            raise InvariantError("Prim forest fails the cycle property")

    def _check_positive(self, r: dict[int, int]) -> None:
        for aid in self.arcs:
            if r.get(aid, 0) <= 0:
                raise ValueError(f"arc {aid}: resistance must be positive")

    def reweight(self, r: dict[int, int]) -> bool:
        """Move to resistances ``r`` if this tree is still their Prim
        forest, and report whether it is.

        The key (r_a, arc id) orders arcs strictly, so each component has
        one minimum spanning forest; this tree is it exactly when every
        off-tree arc's key exceeds that of every tree arc on its
        fundamental cycle. If so, the coefficients, r(C_a) and ``prefix``
        are computed for ``r`` and the tree is kept, which leaves
        everything a fresh ``TreeForest(arcs, r)`` would build except
        the discovery order of ``order``. If not, nothing
        changes and the caller builds a fresh forest. ``r`` is read and
        never modified.
        """
        self._check_positive(r)
        cycles = []
        prefix = []
        total = 0
        for aid, walk in self.walks:
            ra = r[aid]
            new = []
            cycle_r = 0
            for b, sign in walk:
                rb = r[b]
                # the arc itself is the one entry with an equal key
                if rb > ra or (rb == ra and b > aid):
                    return False
                cycle_r += rb
                new.append((b, sign, sign * rb))
            cycles.append((aid, new, cycle_r))
            total += -(-cycle_r // ra)  # ceil(r(C_a) / r_a)
            prefix.append(total)
        self.r = r
        self.cycles = cycles
        self.prefix = prefix
        return True

    def voltages(self, phi: dict[int, int]) -> dict:
        """Node voltages induced by the tree flow: each root sits at 0
        and every tree arc a = (v, w) satisfies pi_w - pi_v = r_a phi_a,
        that is ``tree_potentials`` with cost r_a phi_a."""
        return tree_potentials(self.order, self.parent,
                               {a: self.r[a] * phi.get(a, 0)
                                for _, a, _ in self.parent.values()})

    def condition_ceiling(self) -> int:
        """ceil(tau(T)) where tau(T) = sum over off-tree arcs of
        r(C_a) / r_a, computed exactly; at least 1 even for a bare tree."""
        tau = sum((Fraction(cycle_r, self.r[aid])
                   for aid, _, cycle_r in self.cycles), Fraction(0))
        ceiling = -((-tau.numerator) // tau.denominator)
        return max(1, ceiling)
