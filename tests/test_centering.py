"""A fully hand-simulated recentering run plus properties that hold for
every update sequence: conservation, dual consistency, nonnegative
energy decrease, and determinism under a fixed seed."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow import centering
from latticeflow.centering import CenteringRun
from latticeflow.errors import (BoundViolationError, CenteringStallError,
                                InvariantError)
from latticeflow.exact_arith import BoundMonitor
from latticeflow.graph_core import (MultiGraph, apply_incidence, bfs_forest,
                                    route_to_roots)
from latticeflow.reference_oracle import random_instance
from latticeflow.solver import SolveConfig

from helpers import (energy_decrease, energy_gap, round_nearest,
                     solve_to_the_proxy_exit)

TWO_CYCLE = [(0, "A", "B"), (1, "B", "A")]
# magnitude limit for the hand-sized states here, far above any value
# they reach
LIMIT = 10**9


def _two_cycle_run():
    return CenteringRun(arcs=TWO_CYCLE, x={0: 3, 1: 3}, s={0: 2, 1: 2},
                        mu=4, rng=Random(1), mu0_bits=8,
                        monitor=BoundMonitor(LIMIT))


def test_hand_simulated_two_cycle():
    run = _two_cycle_run()
    assert run.forest.r == {0: 1, 1: 1}
    assert run.base == {0: 2, 1: 2}
    assert run.phi == {0: 1, 1: 1}
    assert run.forest.off_tree == [1]
    assert set(run.forest.arcs) - set(run.forest.off_tree) == {0}

    # first refresh: voltages fold phi into s, but the point is still
    # off target (products 3 and 9 against mu = 4)
    assert run.refresh() is False
    assert run.pi == {"A": 0, "B": 1}
    assert run.s_cur == {0: 1, 1: 3}
    assert run.x_cur == {0: 3, 1: 3}

    # the only off-tree arc is 1; its cycle shifts both arcs by alpha=1
    rec = run.sample_update()
    assert (rec.arc, rec.lam, rec.cycle_r, rec.alpha) == (1, 2, 2, 1)
    assert energy_decrease(rec) == 2 * 1 * 2 - 1 * 2
    assert run.phi == {0: 0, 1: 0}

    # second refresh lands exactly on the target products
    assert run.refresh() is True
    assert run.x_cur == {0: 2, 1: 2}
    assert run.s_cur == {0: 2, 1: 2}
    assert run.pi == {"A": 0, "B": 0}


def test_run_reaches_exact_exit():
    run = _two_cycle_run()
    assert run.run() is None
    assert run.x_cur == {0: 2, 1: 2}
    assert run.s_cur == {0: 2, 1: 2}
    assert run.updates >= 1
    dev = sum(abs(run.x_cur[a] * run.s_cur[a] - 4) for a in (0, 1))
    assert 8 * dev < 4


def test_tree_only_minor_exits_immediately():
    run = CenteringRun(arcs=[(0, "A", "B")], x={0: 2}, s={0: 2}, mu=4,
                       rng=Random(0), mu0_bits=4, monitor=BoundMonitor(LIMIT))
    run.run()
    assert run.updates == 0
    assert run.refreshes == 1
    assert run.x_cur == {0: 2}


def test_tree_only_minor_off_target_is_an_invariant_error():
    # on a tree x never moves, so x * s' = 3 * 499 lands far from 1000
    # and there are no cycles to fix it with
    run = CenteringRun(arcs=[(0, "A", "B")], x={0: 3}, s={0: 2}, mu=1000,
                       rng=Random(0), mu0_bits=4, monitor=BoundMonitor(LIMIT))
    with pytest.raises(InvariantError):
        run.run()


DRAW_TOTALS = sorted({1, 2, 3} | {t for k in range(2, 71)
                                   for t in (2**k - 1, 2**k, 2**k + 1)})


@pytest.mark.parametrize("seed", [0, 1, 2024, 2**64 + 3])
def test_draws_are_randrange_draws(monkeypatch, seed):
    """The cycle draw reads ``rng.getrandbits`` directly; for any
    total weight it must give what ``Random.randrange(total)`` gives,
    draw for draw, and leave the generator in the same state, so the
    random stream does not depend on which of the two is called."""
    drawn = []

    def bisect_spy(prefix, value):
        drawn.append(value)
        return 0

    monkeypatch.setattr(centering, "bisect_right", bisect_spy)
    for total in DRAW_TOTALS:
        run = _two_cycle_run()
        run.rng = Random(seed)
        run.forest.prefix = [total]  # one cycle carrying the whole weight
        drawn.clear()
        for _ in range(8):
            run.sample_update()
        reference = Random(seed)
        assert drawn == [reference.randrange(total) for _ in range(8)], total
        assert run.rng.getstate() == reference.getstate(), total


def test_stall_ceiling_raises():
    # products (10, 2) against mu = 4: far off center, and the optimal
    # cycle shift rounds to zero, so no progress is possible
    run = CenteringRun(arcs=TWO_CYCLE, x={0: 5, 1: 1}, s={0: 2, 1: 2},
                       mu=4, rng=Random(3), mu0_bits=3,
                       monitor=BoundMonitor(LIMIT))
    # r = (1, 2), so arc 0 is the tree and tau = r(C_1) / r_1 = 3/2:
    # the ceiling is 64 * 2 * ceil(3/2) * 3 = 768, twice the floor, so
    # the loop passes the floor before it stops
    with pytest.raises(CenteringStallError, match=r"after 768 .*ceiling 768"):
        run.run()
    assert run.updates == run.stall_limit == 768


def _solve_states(case, every):
    """Every ``every``-th centering entry of a seeded solve whose path
    runs to the proxy exit, with its component's mu0 bit length and
    magnitude limit."""
    states = []
    pending = []
    mu0_bits = []

    def probe(event, payload):
        if event == "iterate" and payload["iter"] == 0:
            mu0_bits.append(payload["mu"].bit_length())
        elif event == "centering_enter" and payload["iteration"] % every == 0:
            pending.append((payload, mu0_bits[-1]))
        elif event == "component":
            states.extend((state, bits, payload["cert"].limit)
                          for state, bits in pending)
            pending.clear()

    solve_to_the_proxy_exit(random_instance(*case),
                            SolveConfig(seed=case[0]), probe=probe)
    return states


@pytest.mark.parametrize("case", [(11, 6, 12, 5, 3, "feasible"),
                                  (3, 4, 6, 10**12, 10**12, "feasible")])
def test_stall_limit_is_the_proven_ceiling(case):
    """On real centering states the ceiling read from a run is
    max(1, 64 m_h ceil(tau) mu0_bits), the same whether it is read
    before or after the run, and reading it early changes nothing."""
    def outcome(run):
        return run.x_cur, run.s_cur, run.pi, run.updates, run.refreshes

    states = _solve_states(case, every=5)
    assert len(states) >= 10
    for state, mu0_bits, limit in states:
        def fresh():
            return CenteringRun(arcs=state["arcs"], x=dict(state["x"]),
                                s=dict(state["s"]), mu=state["mu"],
                                rng=Random(0), mu0_bits=mu0_bits,
                                monitor=BoundMonitor(limit))

        late = fresh()
        ceiling = max(1, 64 * len(state["arcs"])
                      * late.forest.condition_ceiling() * mu0_bits)
        late.run()
        assert late.stall_limit == ceiling
        assert late.updates < ceiling
        early = fresh()
        assert early.stall_limit == ceiling
        early.run()
        assert outcome(early) == outcome(late)


# a frozen state centered at 36000: every product x_a s_a is 36000
FROZEN_ARCS = [(0, "A", "B"), (1, "B", "C"), (2, "C", "A"), (3, "A", "C"),
               (4, "B", "D"), (5, "D", "A")]
FROZEN_X = {0: 30, 1: 40, 2: 50, 3: 20, 4: 60, 5: 25}
FROZEN_S = {0: 1200, 1: 900, 2: 720, 3: 1800, 4: 600, 5: 1440}


def _frozen_run(mu, rng, trial_mu=None, run_class=CenteringRun):
    return run_class(arcs=FROZEN_ARCS, x=dict(FROZEN_X), s=dict(FROZEN_S),
                     mu=mu, rng=rng, mu0_bits=16,
                     monitor=BoundMonitor(LIMIT), trial_mu=trial_mu)


def _centered_at(run, mu):
    dev = sum(abs(run.x_cur[a] * run.s_cur[a] - mu) for a, _, _ in run.arcs)
    return 8 * dev < mu


def test_without_a_trial_the_loop_is_unchanged():
    # the values the loop gave before trial targets existed
    run = _frozen_run(28800, Random(2))
    run.run()
    assert run.mu == run.target == 28800
    assert run.x_cur == {0: 21, 1: 36, 2: 42, 3: 16, 4: 55, 5: 20}
    assert run.s_cur == {0: 1322, 1: 808, 2: 690, 3: 1830, 4: 530, 5: 1388}
    assert run.pi == {"A": 0, "C": -30, "B": -122, "D": -52}
    assert (run.updates, run.refreshes) == (12, 3)
    assert run.monitor.max_seen == 1950


def test_accepted_trial_ends_at_the_trial_target():
    run = _frozen_run(34560, Random(0), trial_mu=28800)
    assert run.target == 28800
    assert run.base == {a: round_nearest(28800, FROZEN_S[a]) for a in FROZEN_S}
    assert run.phi == {a: FROZEN_X[a] - run.base[a] for a in FROZEN_X}
    run.run()
    assert run.mu == run.target == 28800
    assert 0 < run.updates <= 4 * len(FROZEN_ARCS)
    assert _centered_at(run, 28800)
    assert all(v > 0 for v in run.x_cur.values())
    assert all(v > 0 for v in run.s_cur.values())


# a state found by search whose trial at 24000 stalls at an interior
# point under Random(0); the corrector there builds a forest of another
# tree, and fails too
FAILED_ARCS = [(0, "B", "A"), (1, "C", "A"), (2, "B", "D"), (3, "A", "D")]
FAILED_X = {0: 13, 1: 20, 2: 62, 3: 13}
FAILED_S = {0: 2808, 1: 1758, 2: 583, 3: 2851}


def _failed_run(x, s, mu, rng, trial_mu=None):
    return CenteringRun(arcs=FAILED_ARCS, x=dict(x), s=dict(s), mu=mu,
                        rng=rng, mu0_bits=16, monitor=BoundMonitor(LIMIT),
                        trial_mu=trial_mu)


def test_rejected_trial_centers_at_mu_as_a_fresh_run():
    budget = 4 * len(FROZEN_ARCS)
    run = _frozen_run(34560, Random(0), trial_mu=3600)
    run.run()
    assert run.mu == run.target == 34560
    assert _centered_at(run, 34560)
    # the trial ends with x_cur[0] = -9, so no corrector runs, and after
    # the trial's budget of draws the run is a plain run at mu
    rng = Random(0)
    spent = _frozen_run(3600, rng)
    for _ in range(budget):
        spent.sample_update()
    plain = _frozen_run(34560, rng)
    plain.run()
    assert (run.x_cur, run.s_cur, run.pi) == (plain.x_cur, plain.s_cur,
                                               plain.pi)
    assert run.updates == budget + plain.updates
    assert run.refreshes == 5 + plain.refreshes

    # a failed corrector: the run linearizes again at x for mu, so after
    # the trial's and the corrector's 8 m_h draws it is a plain run at
    # mu, on the entry resistances' forest
    budget = 4 * len(FAILED_ARCS)
    run = _failed_run(FAILED_X, FAILED_S, 34500, Random(0), trial_mu=24000)
    run.run()
    assert run.mu == run.target == 34500
    assert not run.corrected
    rng = Random(0)
    trial = _failed_run(FAILED_X, FAILED_S, 24000, rng)
    for _ in range(budget):
        trial.sample_update()
    trial.refresh()
    corrector = _failed_run(trial.x_cur, trial.s_cur, 24000, rng)
    assert corrector.forest.off_tree != trial.forest.off_tree
    for _ in range(budget):
        corrector.sample_update()
    plain = _failed_run(FAILED_X, FAILED_S, 34500, rng)
    plain.run()
    assert (run.x_cur, run.s_cur, run.pi) == (plain.x_cur, plain.s_cur,
                                               plain.pi)
    assert run.forest.cycles == plain.forest.cycles
    assert run.updates == 2 * budget + plain.updates
    assert run.refreshes == 10 + plain.refreshes



class _NegatedTrialRun(CenteringRun):
    """At every refresh made at the trial target, flips the signs of
    both x_cur[3] and s_cur[3]: their product, and so the exit test's
    verdict, is unchanged, and only the positivity test can reject. The
    trial's point is then not interior, so no corrector runs."""

    def refresh(self) -> bool:
        passed = super().refresh()
        if self.target == self.trial_mu:
            self.x_cur[3] = -self.x_cur[3]
            self.s_cur[3] = -self.s_cur[3]
        return passed


def test_trial_with_a_nonpositive_value_is_rejected():
    # the state of test_accepted_trial_ends_at_the_trial_target, whose
    # trial passes the exit test
    run = _frozen_run(34560, Random(0), trial_mu=28800,
                      run_class=_NegatedTrialRun)
    run.run()
    assert run.mu == run.target == 34560
    assert run.updates > 4 * len(FROZEN_ARCS)  # the whole trial budget
    assert _centered_at(run, 34560)
    assert all(v > 0 for v in run.x_cur.values())
    assert all(v > 0 for v in run.s_cur.values())


class _NegatedShortStepRun(CenteringRun):
    """At every refresh made at ``mu``, flips the signs of both x_cur[0]
    and s_cur[0], as ``_NegatedTrialRun`` does at the trial target."""

    def refresh(self) -> bool:
        passed = super().refresh()
        if self.target == self.mu:
            self.x_cur[0] = -self.x_cur[0]
            self.s_cur[0] = -self.s_cur[0]
        return passed


def test_short_step_exits_only_at_an_interior_point():
    """The short step at ``mu`` has the trial's exit rule: a refresh
    that passes the centrality test at a point with a nonpositive value
    does not end it. The entry point here is centered, products (4, 4)
    at mu = 4, so every refresh passes the test, and only the sign flip
    keeps the run going, through the floor of 128 to the ceiling."""
    run = _NegatedShortStepRun(arcs=TWO_CYCLE, x={0: 2, 1: 2},
                               s={0: 2, 1: 2}, mu=4, rng=Random(0),
                               mu0_bits=1, monitor=BoundMonitor(LIMIT))
    with pytest.raises(CenteringStallError, match=r"after 256 .*ceiling 256"):
        run.run()
    assert run.updates == run.stall_limit == 256
    assert run.refreshes == 1 + 256 // len(TWO_CYCLE)


# The minor of acceptance-mix draw 52 of the seed-1 benchmark suite,
# random_instance(1052, 2, 5, 5, 5, "feasible") solved with seed 1052,
# at the centering of outer iteration 25, with its trial started from x.
# Under Random(0) the trial's 8 dev / trial_mu reads 5.05, 1.89, 1.41,
# 1.43 and 1.43 at its five refreshes, a floor above 1 with every value
# positive; the corrector's refreshes read 1.05, then 0.15.
STALL_ARCS = [(0, 2, 3), (1, 1, 3), (2, 2, 4), (3, 1, 4), (4, 1, 5),
              (5, 2, 5), (6, 2, 6), (7, 1, 6), (8, 1, 7), (9, 2, 7)]
STALL_X = {0: 1326321, 1: 2867983, 2: 836213, 3: 1260939, 4: 1823416,
           5: 2370888, 6: 960717, 7: 2185011, 8: 3344697, 9: 1898183}
STALL_S = {0: 348234107809810745, 1: 158010750344071579,
           2: 549615833906738700, 3: 359392476440999534,
           4: 261836147157821353, 5: 191140241391560519,
           6: 484596782931295198, 7: 207400337721556032,
           8: 135489710698642837, 9: 238739980420382003}
STALL_MU = 438546021404361521269632
STALL_TRIAL_MU = 336163557747709915805889


def test_stalled_trial_is_corrected_at_the_trial_target():
    """The corrector re-linearizes at the stalled trial's point and
    centers there at the trial target. The run's pi sums both
    linearizations' voltages, so s_cur is read off the entry slacks as
    s - A^T pi, which is what the driver's lift moves the duals by."""
    run = CenteringRun(arcs=STALL_ARCS, x=dict(STALL_X), s=dict(STALL_S),
                       mu=STALL_MU, rng=Random(0), mu0_bits=89,
                       monitor=BoundMonitor(1 << 128),
                       trial_mu=STALL_TRIAL_MU)
    run.run()
    assert run.mu == run.target == STALL_TRIAL_MU
    assert run.corrected
    assert run.updates > 4 * len(STALL_ARCS)  # past the trial's budget
    assert _centered_at(run, STALL_TRIAL_MU)
    assert all(v > 0 for v in run.x_cur.values())
    assert all(v > 0 for v in run.s_cur.values())
    pi = run.pi
    boundary = {}
    for aid, tail, head in STALL_ARCS:
        assert run.s_cur[aid] == STALL_S[aid] - (pi[head] - pi[tail])
        change = run.x_cur[aid] - STALL_X[aid]
        boundary[tail] = boundary.get(tail, 0) - change
        boundary[head] = boundary.get(head, 0) + change
    assert not any(boundary.values())  # x_cur meets x's demands
    assert run.monitor.max_seen >= max(abs(v) for v in pi.values())


def test_stall_count_starts_after_a_rejected_trial():
    # the stalling state of test_stall_ceiling_raises: its trial spends
    # 4 m_h = 8 updates, and the ceiling of 768 counts only the updates
    # made at mu after it
    run = CenteringRun(arcs=TWO_CYCLE, x={0: 5, 1: 1}, s={0: 2, 1: 2},
                       mu=4, rng=Random(3), mu0_bits=3,
                       monitor=BoundMonitor(LIMIT), trial_mu=2)
    with pytest.raises(CenteringStallError, match=r"after 768 .*ceiling 768"):
        run.run()
    assert run.mu == run.target == 4
    assert run.updates == 8 + run.stall_limit


def test_trial_target_must_be_positive():
    with pytest.raises(ValueError):
        _frozen_run(34560, Random(0), trial_mu=0)


def test_mu0_bits_must_be_positive():
    with pytest.raises(ValueError, match="mu0_bits must be positive"):
        CenteringRun(arcs=TWO_CYCLE, x={0: 3, 1: 3}, s={0: 2, 1: 2}, mu=4,
                     rng=Random(0), mu0_bits=0, monitor=BoundMonitor(LIMIT))


def test_entry_point_must_be_interior():
    with pytest.raises(InvariantError):
        CenteringRun(arcs=TWO_CYCLE, x={0: 0, 1: 1}, s={0: 1, 1: 1},
                     mu=4, rng=Random(0), mu0_bits=4,
                     monitor=BoundMonitor(LIMIT))


def test_determinism_under_seed():
    a, b = _two_cycle_run(), _two_cycle_run()
    a.run()
    b.run()
    assert (a.x_cur, a.s_cur, a.updates, a.refreshes) == (
        b.x_cur, b.s_cur, b.updates, b.refreshes)


# a state found by search whose largest stored magnitude, 1824, is the
# lam of an update made at mu after the rejected trial's 16 updates and
# the failed corrector's 16, not a value that a refresh stores
STRICT_ARCS = [(0, "A", "B"), (1, "A", "B"), (2, "B", "A"), (3, "A", "B")]


def _strict_run(limit):
    return CenteringRun(arcs=STRICT_ARCS, x={0: 1, 1: 12, 2: 21, 3: 102},
                        s={0: 138, 1: 24, 2: 99, 3: 163}, mu=2078,
                        rng=Random(20), mu0_bits=1,
                        monitor=BoundMonitor(limit), trial_mu=1558)


def test_monitor_raises_at_the_update_that_stores_the_maximum():
    """With its limit one below the largest magnitude a run stores, the
    monitor raises inside the update that stores it, the 35th, after
    that update has pushed its flow, and keeps the violator in
    ``max_seen``."""
    full = _strict_run(LIMIT)
    full.run()
    assert (full.updates, full.refreshes, full.mu) == (48, 15, 2078)
    assert full.monitor.max_seen == 1824
    run = _strict_run(1823)
    with pytest.raises(BoundViolationError,
                       match="magnitude 1824 exceeds monitor limit 1823"):
        run.run()
    assert (run.updates, run.refreshes) == (35, 11)
    assert run.monitor.max_seen == 1824
    assert run.phi == {0: -1, 1: -67, 2: 21, 3: 89}


def test_monitor_checks_the_flow_an_update_pushes():
    # r = (1, 3) puts arc 0 in the tree; from phi = (-100, 34) the cycle
    # of arc 1 has lam = 3 * 34 - 100 = 2 and alpha = 1, so the largest
    # value the update stores is the pushed phi_0 = -101, not lam
    run = CenteringRun(arcs=TWO_CYCLE, x={0: 3, 1: 3}, s={0: 2, 1: 8},
                       mu=4, rng=Random(0), mu0_bits=8,
                       monitor=BoundMonitor(LIMIT))
    run.phi = {0: -100, 1: 34}
    run.monitor = BoundMonitor(100)
    with pytest.raises(BoundViolationError, match="magnitude 101 exceeds"):
        run.sample_update()
    assert run.monitor.max_seen == 101
    assert run.phi == {0: -101, 1: 33}


def test_monitor_sees_the_sampling_total():
    # five parallel arcs at r = 1: arc 0 is the tree, and each other
    # arc's cycle has r(C_a) = 2 and weight 2. Every single value stored
    # is at most 2, but the draw compares against the total, 8.
    arcs = [(aid, 1, 2) for aid in range(5)]
    ones = dict.fromkeys(range(5), 1)
    with pytest.raises(BoundViolationError,
                       match="magnitude 8 exceeds monitor limit 5"):
        CenteringRun(arcs=arcs, x=ones, s=ones, mu=1, rng=Random(0),
                     mu0_bits=1, monitor=BoundMonitor(5))


def test_monitor_sees_centering_state():
    run = _two_cycle_run()
    run.run()
    assert run.monitor.max_seen >= 3  # at least the entry x values


def _random_state(seed: int, n_nodes: int, n_arcs: int):
    rng = Random(seed)
    nodes = list(range(n_nodes))
    arcs = []
    for i in range(n_arcs):
        t = rng.randrange(n_nodes)
        h = rng.randrange(n_nodes)
        arcs.append((i, t, h))
    # chain the nodes so the minor is connected
    for j in range(n_nodes - 1):
        arcs.append((n_arcs + j, j, j + 1))
    x = {aid: rng.randint(1, 9) for aid, _, _ in arcs}
    s = {aid: rng.randint(1, 9) for aid, _, _ in arcs}
    return arcs, x, s


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 6),
       st.integers(1, 25), st.integers(1, 40))
def test_updates_preserve_conservation_and_duals(seed, n_nodes, n_arcs, mu,
                                                 n_updates):
    """However many updates run, x' = base + phi keeps the same node
    boundary as the entry point, s' stays s - A^T pi, and every energy
    decrease is nonnegative."""
    arcs, x, s = _random_state(seed, n_nodes, n_arcs)
    run = CenteringRun(arcs=arcs, x=x, s=s, mu=mu, rng=Random(seed + 1),
                       mu0_bits=8, monitor=BoundMonitor(LIMIT))

    def boundary(values):
        net = {}
        for aid, t, h in arcs:
            net[t] = net.get(t, 0) - values[aid]
            net[h] = net.get(h, 0) + values[aid]
        return net

    entry = boundary(x)
    run.refresh()
    for _ in range(n_updates):
        rec = run.sample_update()
        assert energy_decrease(rec) >= 0
        assert rec.cycle_r >= run.forest.r[rec.arc]
    run.refresh()
    assert boundary(run.x_cur) == entry
    for aid, t, h in arcs:
        assert run.s_cur[aid] == s[aid] - (run.pi[h] - run.pi[t])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 6),
       st.lists(st.integers(-30, 30), min_size=10, max_size=10),
       st.integers(1, 7), st.integers(1, 7))
def test_predicted_trial_start_meets_the_demands(seed, n_nodes, n_arcs, w,
                                                 num, den):
    """The secant moves the trial's start by a circulation whose value
    on each off-tree arc is round(d_a num / den); without a trial, the
    run starts from x."""
    arcs, x, s = _random_state(seed, n_nodes, n_arcs)
    g = MultiGraph(range(n_nodes), [(t, h) for _, t, h in arcs])
    # a random circulation: any flow, with its imbalance routed away
    d = w[:g.m]
    order, parent = bfs_forest(g, range(g.m), [0])
    inflow = apply_incidence(g, d)
    route_to_roots(order, parent, {v: -inflow[v] for v in g.nodes}, d)
    assert not any(apply_incidence(g, d).values())
    secant = (dict(enumerate(d)), num, den)

    def start(trial_mu):
        run = CenteringRun(arcs=arcs, x=x, s=s, mu=20, rng=Random(seed),
                           mu0_bits=8, monitor=BoundMonitor(LIMIT),
                           trial_mu=trial_mu, secant=secant)
        run.refresh()
        return run, [run.x_cur[a] - x[a] for a in range(g.m)]

    run, change = start(10)
    assert not any(apply_incidence(g, change).values())
    for aid in run.forest.off_tree:
        assert change[aid] == round_nearest(d[aid] * num, den)
    assert not any(start(None)[1])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_energy_accounting_is_exact(seed):
    """sum r phi^2 drops by exactly the reported decrease per update,
    and the gap diagnostic is zero exactly when every cycle is settled."""
    arcs, x, s = _random_state(seed, 4, 5)
    run = CenteringRun(arcs=arcs, x=x, s=s, mu=6, rng=Random(seed), mu0_bits=8,
                       monitor=BoundMonitor(LIMIT))
    run.refresh()

    def energy():
        return sum(run.forest.r[aid] * run.phi[aid] ** 2 for aid, _, _ in arcs)

    e = energy()
    for _ in range(20):
        rec = run.sample_update()
        e2 = energy()
        assert e - e2 == energy_decrease(rec)
        e = e2
    if energy_gap(run) == 0:
        for _, coefs, _ in run.forest.cycles:
            assert sum(sg * run.forest.r[b] * run.phi[b] for b, sg, _ in coefs) == 0
