"""Randomized exact recentering of an interior point on a minor.

Given a point whose products x_a s_a hover near an old path parameter
and a smaller target mu, this module drives the point toward the target
with integer cycle updates: the minor is read as an electrical network
with resistances ceil(s_a / x_a), a random fundamental cycle is chosen
with probability proportional to its relative resistance, and the tree
flow deviation phi is shifted by the rounded electrically-optimal amount
around that cycle. Node voltages are folded into the duals at periodic
refreshes, and the loop exits as soon as the refreshed point satisfies
the exact centrality test 8 * sum |x_a s_a - mu| < mu.

Every quantity is an integer except the energy gap diagnostics, which
are exact fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .errors import CenteringStallError, InvariantError
from .exact_arith import BoundMonitor, ceil_div, round_nearest
from .spanning_tree import TreeForest

__all__ = ["CenteringRun", "CenteringResult", "UpdateRecord"]


@dataclass
class UpdateRecord:
    arc: int
    lam: int
    cycle_r: int
    alpha: int
    energy_decrease: int


@dataclass
class CenteringResult:
    x: dict[int, int]
    s: dict[int, int]
    pi: dict
    updates: int
    refreshes: int
    stall_limit: int


@dataclass
class CenteringRun:
    """One invocation of the recentering loop, exposed stepwise.

    ``run()`` is the whole loop; ``refresh()`` and ``sample_update()``
    are public so tests can replay single updates from a frozen state.

    arcs: (arc_id, tail_class, head_class) for the surviving minor arcs;
    x, s: the current point restricted to those arcs; mu: the target.
    ``mu0_bits`` feeds the stall ceiling, which scales with the bit
    length of the initial path parameter.
    """

    arcs: list[tuple[int, object, object]]
    x: dict[int, int]
    s: dict[int, int]
    mu: int
    rng: Random
    mu0_bits: int
    monitor: BoundMonitor | None = None

    forest: TreeForest = field(init=False)
    r: dict[int, int] = field(init=False)
    base: dict[int, int] = field(init=False)
    phi: dict[int, int] = field(init=False)
    pi: dict = field(init=False, default_factory=dict)
    s_cur: dict[int, int] = field(init=False)
    x_cur: dict[int, int] = field(init=False)
    updates: int = field(init=False, default=0)
    refreshes: int = field(init=False, default=0)
    stall_limit: int = field(init=False)
    _weight_prefix: list[int] = field(init=False)

    def __post_init__(self) -> None:
        if self.mu <= 0:
            raise ValueError("target mu must be positive")
        for aid, _, _ in self.arcs:
            if self.x[aid] <= 0 or self.s[aid] <= 0:
                raise InvariantError(f"arc {aid}: recentering needs an interior point")
        nodes: list = []
        seen: set = set()
        for _, tail, head in self.arcs:
            for v in (tail, head):
                if v not in seen:
                    seen.add(v)
                    nodes.append(v)
        self.r = {aid: ceil_div(self.s[aid], self.x[aid])
                  for aid, _, _ in self.arcs}
        self.forest = TreeForest(nodes, self.arcs, self.r)
        self.base = {aid: round_nearest(self.mu, self.s[aid])
                     for aid, _, _ in self.arcs}
        self.phi = {aid: self.x[aid] - self.base[aid] for aid, _, _ in self.arcs}
        self.s_cur = dict(self.s)
        self.x_cur = dict(self.x)
        self.stall_limit = max(
            1, 64 * len(self.arcs) * self.forest.condition_ceiling() * self.mu0_bits)
        # cumulative sampling weights over off-tree arcs, exact integers
        total = 0
        self._weight_prefix = []
        for w in self.forest.weights:
            total += w
            self._weight_prefix.append(total)
        if self.monitor is not None:
            self.monitor.record_many(self.r.values())
            self.monitor.record_many(self.base.values())
            self.monitor.record_many(self.phi.values())
            self.monitor.record_many(self.forest.weights)
            self.monitor.record_many(self.forest.cycle_resistance.values())

    # -- the two primitive moves ------------------------------------

    def refresh(self) -> bool:
        """Fold tree voltages into the duals and test the exit criterion.

        Recomputes pi from the current phi, rebuilds s' = s - A^T pi and
        x' = base + phi, and returns True when 8 sum |x' s' - mu| < mu.
        """
        self.refreshes += 1
        self.pi = self.forest.voltages(self.phi)
        dev = 0
        for aid, tail, head in self.arcs:
            self.s_cur[aid] = self.s[aid] - (self.pi[head] - self.pi[tail])
            self.x_cur[aid] = self.base[aid] + self.phi[aid]
            dev += abs(self.x_cur[aid] * self.s_cur[aid] - self.mu)
        if self.monitor is not None:
            self.monitor.record_many(self.pi.values())
            self.monitor.record_many(self.s_cur.values())
            self.monitor.record_many(self.x_cur.values())
        return 8 * dev < self.mu

    def sample_update(self) -> UpdateRecord:
        """Pick a random off-tree arc and push the rounded optimal
        circulation around its fundamental cycle."""
        off = self.forest.off_tree
        if not off:
            raise InvariantError("no off-tree arcs to sample")
        total = self._weight_prefix[-1]
        ticket = self.rng.randrange(total)
        lo, hi = 0, len(off) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if ticket < self._weight_prefix[mid]:
                hi = mid
            else:
                lo = mid + 1
        aid = off[lo]
        cycle = self.forest.fundamental_cycle(aid)
        lam = sum(sign * self.r[b] * self.phi[b] for b, sign in cycle)
        cycle_r = self.forest.cycle_resistance[aid]
        alpha = round_nearest(lam, cycle_r)
        if alpha:
            for b, sign in cycle:
                self.phi[b] -= alpha * sign
        self.updates += 1
        decrease = 2 * alpha * lam - alpha * alpha * cycle_r
        if self.monitor is not None:
            self.monitor.record(lam)
            self.monitor.record(alpha)
            if alpha:
                self.monitor.record_many(self.phi[b] for b, _ in cycle)
        return UpdateRecord(aid, lam, cycle_r, alpha, decrease)

    # -- diagnostics --------------------------------------------------

    def gap(self) -> Fraction:
        """Current electrical energy above the optimum, exactly:
        sum over off-tree arcs of Lambda_a^2 / r(C_a)."""
        total = Fraction(0)
        for aid in self.forest.off_tree:
            cycle = self.forest.fundamental_cycle(aid)
            lam = sum(sign * self.r[b] * self.phi[b] for b, sign in cycle)
            total += Fraction(lam * lam, self.forest.cycle_resistance[aid])
        return total

    # -- the loop ------------------------------------------------------

    def run(self) -> CenteringResult:
        """Alternate refreshes and batches of one random cycle update
        per minor arc until the exit test passes; raise after the stall
        ceiling."""
        while True:
            if self.refresh():
                return CenteringResult(
                    x=dict(self.x_cur), s=dict(self.s_cur), pi=dict(self.pi),
                    updates=self.updates, refreshes=self.refreshes,
                    stall_limit=self.stall_limit)
            if not self.forest.off_tree:
                raise InvariantError(
                    "forest minor failed the centrality exit at first refresh")
            for _ in range(max(1, len(self.arcs))):
                if self.updates >= self.stall_limit:
                    raise CenteringStallError(
                        f"no centered point after {self.updates} cycle updates "
                        f"(ceiling {self.stall_limit})")
                self.sample_update()
