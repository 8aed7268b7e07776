"""Randomized exact recentering of an interior point on a minor.

Given a point whose products x_a s_a hover near an old path parameter
and a smaller target mu, this module drives the point toward the target
with integer cycle updates: the minor is read as an electrical network
with resistances ceil(s_a / x_a), a random fundamental cycle is chosen
with probability proportional to its relative resistance, and the tree
flow deviation phi is shifted by the rounded electrically-optimal amount
around that cycle. Node voltages are folded into the duals at periodic
refreshes. One leg loop does all the centering, with one exit rule: it
stops at the first refresh whose point is interior and satisfies the
exact centrality test 8 * sum |x_a s_a - target| < target. A run may
first try a smaller target for a short budget of updates. One
linearization leaves a second-order error that more updates cannot
remove, so a trial that stalls at an interior point is corrected: the
minor is read again as a network at that point and centered once more
at the trial target, for the same budget (a predictor-corrector step).
When neither passes, the run falls back to mu, the proven short step,
and the loop runs there until it exits or reaches the stall ceiling.
The trial, the corrector and the short step are thus one centering
procedure run at different targets, as in Mizuno, Todd and Ye's
adaptive step.

Every quantity is an integer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from random import Random

from .errors import CenteringStallError, InvariantError
from .exact_arith import BoundMonitor
from .spanning_tree import TreeForest

__all__ = ["CenteringRun", "UpdateRecord"]


@dataclass(slots=True)
class UpdateRecord:
    arc: int
    lam: int
    cycle_r: int
    alpha: int


@dataclass
class CenteringRun:
    """One invocation of the recentering loop, exposed stepwise.

    ``run()`` is the whole loop; ``refresh()`` and ``sample_update()``
    are public so tests can replay single updates from a frozen state.

    arcs: (arc_id, tail_class, head_class) for the surviving minor arcs.
    x, s: the entry point, indexed by arc id and read only, so the
    driver passes its full vectors.
    mu: the proven short-step target.
    mu0_bits: at least 1, the bit length of the initial path parameter,
    which scales the stall ceiling.
    forest: optionally an earlier run's forest over the same arcs, kept
    only while it is still the Prim forest of this run's resistances, so
    the run is the same either way.
    trial_mu: an optional smaller target, tried first.
    secant: optional, read only with a trial: (d, num, den), where d is
    the path's flow change over the previous step, a circulation of the
    minor, and num / den scales it to the trial's step.

    ``target`` is the one ``refresh()`` tests against, and after
    ``run()`` the one the run reached; ``base`` and
    ``phi`` hold the current linearization, and ``pi_start`` the
    voltages its point already carries (None at the entry point).
    ``pi``, ``x_cur`` and ``s_cur`` hold the last refresh's point, and
    ``updates``, ``refreshes`` and ``corrected`` the run's counts.

    Invariants: ``forest`` is the minimum spanning forest of the arcs
    under the linearization's resistances r_a = ceil(s_a / x_a), which
    it holds as ``forest.r``. x_cur = base + phi meets the demands, as
    updates move phi only around cycles. s_cur = s - A^T pi against the
    entry slacks. Every stored value is recorded in ``monitor``; of the
    cycle table's running sums, the total bounds the rest and is the
    one recorded. The stall ceiling, max(1, 64 m_h ceil(tau) mu0_bits),
    counts only the updates made at ``mu``; it is never below the floor
    max(1, 64 m_h mu0_bits), which exceeds the 8 m_h updates the trial
    and the corrector may make together.
    """

    arcs: list[tuple[int, object, object]]
    x: list[int] | dict[int, int]
    s: list[int] | dict[int, int]
    mu: int
    rng: Random
    mu0_bits: int
    monitor: BoundMonitor
    forest: TreeForest | None = None
    trial_mu: int | None = None
    secant: tuple[dict[int, int], int, int] | None = None

    target: int = field(init=False)
    base: dict[int, int] = field(init=False)
    phi: dict[int, int] = field(init=False)
    pi: dict = field(init=False, default_factory=dict)
    pi_start: dict | None = field(init=False, default=None)
    s_cur: dict[int, int] = field(init=False, default_factory=dict)
    x_cur: dict[int, int] = field(init=False, default_factory=dict)
    updates: int = field(init=False, default=0)
    refreshes: int = field(init=False, default=0)
    corrected: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        if self.mu <= 0 or (self.trial_mu is not None and self.trial_mu <= 0):
            raise ValueError("target mu must be positive")
        if self.mu0_bits < 1:
            raise ValueError("mu0_bits must be positive")
        self._linearize(self.x, self.s, self.trial_mu or self.mu)
        if self.trial_mu is not None and self.secant is not None:
            self._predict(*self.secant)

    def _linearize(self, x, s, target: int, pi_start=None) -> None:
        """Read the minor as a network at the point (x, s) and aim it at
        ``target``: resistances r_a = ceil(s_a / x_a), kept by
        reweighting the forest when it is still their Prim forest and
        else by a fresh one, and the tree flow deviation phi = x - base,
        where base_a = round(target / s_a) is the centered flow, rounded
        to nearest with ties up. ``pi_start`` is the voltages that
        (x, s) already carries against the entry slacks, None at the
        entry point itself. Records r, base, phi, the cycle table's
        total weight and every r(C_a) as one monitor batch."""
        r = {}
        base = {}
        phi = {}
        twice = 2 * target
        for aid, _, _ in self.arcs:
            xa, sa = x[aid], s[aid]
            if xa <= 0 or sa <= 0:
                raise InvariantError(f"arc {aid}: recentering needs an interior point")
            r[aid] = -(-sa // xa)  # ceil(s_a / x_a)
            b = base[aid] = (twice + sa) // (2 * sa)
            phi[aid] = xa - b
        if self.forest is None or not self.forest.reweight(r):
            self.forest = TreeForest(self.arcs, r)
        self.target, self.base, self.phi = target, base, phi
        self.pi_start = pi_start
        self.monitor.record_many(chain(
            r.values(), base.values(), phi.values(), self.forest.prefix[-1:],
            (cycle_r for _, _, cycle_r in self.forest.cycles)))

    def _predict(self, d: dict[int, int], num: int, den: int) -> None:
        """Move the trial's start along the secant: push
        round(d_a num / den), rounded to nearest with ties up, around the
        fundamental cycle of each off-tree arc a, then record phi."""
        phi = self.phi
        twice = 2 * den
        for aid, coefs, _ in self.forest.cycles:
            step = (2 * d[aid] * num + den) // twice
            if step:
                for b, sign, _ in coefs:
                    phi[b] += step * sign
        self.monitor.record_many(phi.values())

    @cached_property
    def stall_limit(self) -> int:
        """The exact stall ceiling, computed on first use."""
        return max(1, 64 * len(self.arcs) * self.forest.condition_ceiling()
                   * self.mu0_bits)

    # -- the two primitive moves ------------------------------------

    def refresh(self) -> bool:
        """Fold tree voltages into the duals and test the exit criterion.

        Recomputes pi as the current phi's tree voltages, plus
        ``pi_start`` in the corrector, rebuilds s' = s - A^T pi and
        x' = base + phi, records pi, s' and x' as one monitor batch,
        and returns True when 8 sum |x' s' - target| < target.
        """
        self.refreshes += 1
        pi = self.pi = self.forest.voltages(self.phi)
        if self.pi_start is not None:
            pi_start = self.pi_start
            for v in pi:
                pi[v] += pi_start[v]
        s, base, phi = self.s, self.base, self.phi
        s_cur, x_cur = self.s_cur, self.x_cur
        target = self.target
        dev = 0
        for aid, tail, head in self.arcs:
            sv = s_cur[aid] = s[aid] - (pi[head] - pi[tail])
            xv = x_cur[aid] = base[aid] + phi[aid]
            dev += abs(xv * sv - target)
        self.monitor.record_many(chain(pi.values(), s_cur.values(),
                                       x_cur.values()))
        return 8 * dev < target

    def sample_update(self) -> UpdateRecord:
        """Pick a random off-tree arc and push the rounded optimal
        circulation around its fundamental cycle.

        The arc is drawn with probability proportional to its weight.
        A uniform draw below the weights' total W comes straight from
        ``rng.getrandbits`` through the rejection loop that
        ``Random.randrange(W)`` runs itself (take W.bit_length() bits,
        take them again while the draw is >= W), so the draws, and the
        generator state after them, are those of ``randrange``. The
        update stores lam, alpha and the phi values it changes. Since
        alpha rounds lam / r(C_a) with r(C_a) >= 1, |alpha| <= |lam|,
        so the largest of |lam| and the changed |phi|, found while the
        two loops compute them, bounds all of it and is checked with
        one ``monitor.record`` call.
        """
        forest = self.forest
        prefix = forest.prefix
        if not prefix:
            raise InvariantError("no off-tree arcs to sample")
        total = prefix[-1]
        getrandbits = self.rng.getrandbits
        bits = total.bit_length()
        draw = getrandbits(bits)
        while draw >= total:
            draw = getrandbits(bits)
        aid, coefs, cycle_r = forest.cycles[bisect_right(prefix, draw)]
        phi = self.phi
        lam = 0
        for b, _, c in coefs:
            lam += c * phi[b]
        alpha = (2 * lam + cycle_r) // (2 * cycle_r)  # nearest, ties up
        hi = abs(lam)
        if alpha:
            for b, sign, _ in coefs:
                v = phi[b] = phi[b] - alpha * sign
                if abs(v) > hi:
                    hi = abs(v)
        self.updates += 1
        self.monitor.record(hi)
        return UpdateRecord(aid, lam, cycle_r, alpha)

    # -- the loop ------------------------------------------------------

    def run(self) -> None:
        """Center at ``trial_mu``, if given, then correct a stalled
        trial at it, then fall back to ``mu``: three legs of one leg
        loop. The first leg that exits leaves the recentered point in
        ``x_cur``, ``s_cur`` and ``pi`` and its target in ``target``."""
        if self.trial_mu is not None:
            budget = 4 * max(1, len(self.arcs))
            if self._center(budget):
                return
            if self.forest.off_tree and self._interior():
                self._linearize(self.x_cur, self.s_cur, self.trial_mu,
                                pi_start=self.pi)
                if self._center(budget):
                    self.corrected = True
                    return
            self._linearize(self.x, self.s, self.mu)
        self._center(None)

    def _center(self, budget: int | None) -> bool:
        """Refresh, and again after each batch of one random cycle
        update per minor arc, until a refresh passes the exit test at an
        interior point (True).

        The leg's update count is tested once per batch, before it. A
        trial or corrector leg returns False once it has made ``budget``
        updates or when the forest has no off-tree arcs. The short-step
        leg (``budget`` None) raises instead: with no off-tree arcs at
        once, and after the stall ceiling. Its limit starts at the floor
        max(1, 64 m_h mu0_bits) and, once reached, rises to the exact
        ceiling ``stall_limit``. The floor, the ceiling and the count
        are multiples of the batch size, as ``mu0_bits`` >= 1, so the
        count meets each limit exactly, as a test before every update
        would."""
        batch = range(max(1, len(self.arcs)))
        sample = self.sample_update
        start = self.updates
        limit = budget or max(1, 64 * len(self.arcs) * self.mu0_bits)
        while True:
            if self.refresh() and self._interior():
                return True
            made = self.updates - start
            if budget is not None:
                if made >= limit or not self.forest.off_tree:
                    return False
            elif not self.forest.off_tree:
                raise InvariantError(
                    "forest minor failed the centrality exit at first refresh")
            elif made >= limit:
                limit = self.stall_limit
                if made >= limit:
                    raise CenteringStallError(
                        f"no centered point after {made} cycle "
                        f"updates (ceiling {limit})")
            for _ in batch:
                sample()

    def _interior(self) -> bool:
        """Whether every ``x_cur`` and ``s_cur`` is positive."""
        return (all(v > 0 for v in self.x_cur.values())
                and all(v > 0 for v in self.s_cur.values()))
