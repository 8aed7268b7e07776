"""Shipping gate: one test and one printed PASS/FAIL line per criterion.

The module fixture solves each instance of a 240-instance seeded suite
twice, once through ``solve`` and once through
``helpers.solve_to_the_proxy_exit``, with a probe attached to each run,
so the interior invariants (initial point, post-centering centrality,
lifted feasibility, perturbation bounds, crossover monotonicity and
reproduction, minor legitimacy) are checked on the real runs,
independently of the solver's own assertions. Every criterion checks
both runs. Run with ``pytest -s`` to see the lines as they print; they
also appear in failure output.

Most ``solve`` paths round early, often at iteration 0, so they see few
path states. The second run refuses every rounding try before the proxy
exit, so each path runs as long as every path did before early
rounding; the floors below hold the gate at that coverage however early
``solve`` rounds.
"""

import json
import math
import time
from collections import Counter
from fractions import Fraction
from random import Random

import pytest

from latticeflow.centering import CenteringRun
from latticeflow.crossover import (build_perturbed, crossover,
                                   nested_cut_crossover)
from latticeflow.dimacs import format_infeasible, format_solution
from latticeflow.errors import InvariantError
from latticeflow.exact_arith import BoundMonitor
from latticeflow.graph_core import apply_incidence
from latticeflow.reference_oracle import (random_instance, ssp_solve,
                                          verify_certificate, verify_cut)
from latticeflow.solver import SolveConfig, solve

from helpers import (energy_decrease, energy_gap, has_unique_support,
                     solve_to_the_proxy_exit, suite_params)

# 240 draws, so that the proxy-exit paths, which the trial corrector
# shortened, still meet the floors below; 235 is the least that does
SUITE_SIZE = 240
# each suite instance is solved by both; the criterion 5 and 6 lines
# report each run's share of the checks
RUNS = {"solve": solve, "proxy exit": solve_to_the_proxy_exit}
# the path coverage the gate had before early rounding: post-centering
# and lifted points, delete/contract decisions and the unique-support
# instances they were checked on
PATH_POINTS_FLOOR = 9524
DECISIONS_FLOOR = 1807
UNIQUE_FLOOR = 117
LATE_ITERATION = 40  # criterion 10 captures states from here on
SUITE_BUDGET_SECONDS = 600.0
STATES_WANTED = 5
STATES_PER_SEED = 2
TRIALS_PER_STATE = 1000
BOOTSTRAP_RESAMPLES = 1000
# magnitude limit for the centering runs replayed from captured states;
# the solves they come from already held every value under their own
# component's limit, far below this one
REPLAY_LIMIT = 1 << 512


def _check_initial_point(seed, cert, aux, point, data):
    """Every product in [t, t + 2*beta*gamma*U*C] and 8-fold centrality."""
    hi = cert.t + 2 * cert.beta * cert.gamma * cert.U * cert.C
    assert hi == point.mu0
    data["initial_checked"] += 1
    dev = 0
    for a in range(aux.graph.m):
        prod = point.x[a] * point.s[a]
        if not cert.t <= prod <= hi:
            data["initial_violations"].append((seed, a))
        dev += abs(prod - point.mu0)
    if 8 * dev > point.mu0:
        data["initial_violations"].append((seed, "centrality"))


def _make_probe(seed, run, oracle, unique, data):
    """Checks on the events of one solve, made by ``RUNS[run]``; lifted
    points wait for their component's auxiliary instance, and a check
    that raises is recorded while the solve goes on."""
    lifts = []
    mu0_bits = None

    def on_event(event, payload):
        nonlocal lifts, mu0_bits
        if event == "iterate":
            if payload["iter"] == 0:
                mu0_bits = payload["mu"].bit_length()
        elif event == "centering_exit":
            data["exit_checks"][run] += 1
            dev = sum(abs(payload["x"][a] * payload["s"][a] - payload["mu"])
                      for a, _, _ in payload["arcs"])
            if not 8 * dev < payload["mu"]:
                data["exit_violations"].append((seed, payload["iteration"]))
        elif event == "lifted":
            lifts.append(payload)
        elif event == "component":
            pending, lifts = lifts, []
            _check_component(seed, run, oracle, unique, payload, pending,
                             data)
        elif event == "centering_enter":
            states = data["states"]
            it = payload["iteration"]
            if (len(states) >= STATES_WANTED or it < LATE_ITERATION
                    or it % 20
                    or data["state_seeds"].get(seed, 0) >= STATES_PER_SEED
                    or len(payload["arcs"]) < 2):
                return
            m_h = len(payload["arcs"])
            trial = CenteringRun(arcs=payload["arcs"], x=dict(payload["x"]),
                                 s=dict(payload["s"]), mu=payload["mu"],
                                 rng=Random(0), mu0_bits=mu0_bits,
                                 monitor=BoundMonitor(REPLAY_LIMIT))
            if energy_gap(trial) * 16384 * m_h >= payload["mu"]:
                states.append({"seed": seed, "iteration": it,
                               "arcs": payload["arcs"], "x": payload["x"],
                               "s": payload["s"], "mu": payload["mu"],
                               "mu0_bits": mu0_bits})
                data["state_seeds"][seed] = \
                    data["state_seeds"].get(seed, 0) + 1

    def probe(event, payload):
        t0 = time.perf_counter()
        try:
            on_event(event, payload)
        except Exception as exc:
            data["deep_errors"].append((seed, repr(exc)))
        data["wall_probe"] += time.perf_counter() - t0
    return probe


def _check_crossover(seed, cert, aux, res, data):
    pert = build_perturbed(aux, cert, res)
    db = sum(abs(aux.b[v] - pert.b_hat[v]) for v in aux.graph.nodes)
    # the cost fold moves each contracted arc's cost by its slack
    dc = sum(abs(res.s[a]) for a in res.cmap.contracted)
    data["perturb_checks"] += 1
    if not (9 * db <= 14 * cert.beta and 9 * dc <= 7 * cert.gamma):
        data["perturb_violations"].append(seed)
    log = []
    data["crossover_runs"] += 1
    try:
        nested_cut_crossover(aux, pert, objective_log=log)
        # the whole rounding, rerun, must reproduce the answer it certified
        reproduced = crossover(aux, cert, res) == res.rounded
    except InvariantError:
        # a rerun that raises fails this criterion, not the deep checks
        reproduced = False
    data["crossover_steps"] += len(log) - 1
    if not reproduced or any(a > b for a, b in zip(log, log[1:])):
        data["crossover_violations"].append(seed)


def _check_minors(seed, run, oracle, comp, data):
    """Deleted arcs carry no flow and contracted arcs have zero slack in
    the oracle optimum, mapped onto the auxiliary instance.

    The mapping keeps original-node potentials and ties each arc node to
    whichever of its two incoming arcs carries flow; complementary
    slackness of the oracle certificate makes the pair optimal for the
    auxiliary instance, so the membership claims of deletion and
    contraction are checkable against it directly. Zero-slack tests are
    cross-multiplied by gamma/gamma0 to stay in integers.
    """
    sub, norm, cert, aux, res = (comp["instance"], comp["normalized"],
                                 comp["cert"], comp["aux"], comp["result"])
    f_norm = [oracle.flow[a] for a in comp["arc_ids"]]
    for j in comp["reversed_ids"]:
        f_norm[j] = sub.u[j] - f_norm[j]
    yhat = {v: oracle.potentials[v] for v in norm.graph.nodes}
    for i, (v, w) in enumerate(norm.graph.arcs):
        vw = aux.graph.arcs[aux.up_arc[i]][1]  # the split node
        if f_norm[i] < norm.u[i]:
            yhat[vw] = yhat[w]
        else:
            yhat[vw] = norm.c[i] + yhat[v]

    # the oracle's flow on the split arcs; every hat arc carries none
    aux_flow = [0] * aux.graph.m
    for i, a in aux.up_arc.items():
        aux_flow[a] = f_norm[i]
    for i, a in aux.down_arc.items():
        aux_flow[a] = norm.u[i] - f_norm[i]

    # the mapped pair must itself be an exact certificate
    for a, (t, h) in enumerate(aux.graph.arcs):
        slack = aux.c[a] * cert.gamma0 - (yhat[h] - yhat[t]) * cert.gamma
        assert slack >= 0, f"seed {seed}: mapped dual infeasible on arc {a}"
        assert aux_flow[a] == 0 or slack == 0, \
            f"seed {seed}: mapped pair not complementary on arc {a}"

    for a in sorted(res.cmap.deleted):
        data["minor_checks"][run] += 1
        if aux_flow[a] != 0:
            data["minor_violations"].append((seed, a, "deleted-flow"))
    for a in sorted(res.cmap.contracted):
        data["minor_checks"][run] += 1
        t, h = aux.graph.arcs[a]
        if aux.c[a] * cert.gamma0 != (yhat[h] - yhat[t]) * cert.gamma:
            data["minor_violations"].append((seed, a, "contracted-slack"))


def _check_component(seed, run, oracle, unique, comp, lifts, data):
    cert, aux, point, res = (comp["cert"], comp["aux"], comp["point"],
                             comp["result"])
    _check_initial_point(seed, cert, aux, point, data)
    for lift in lifts:
        data["lift_checks"][run] += 1
        y = lift["y"]
        if (apply_incidence(aux.graph, lift["x"]) != aux.b
                or any(y[h] - y[t] + lift["s"][a] != aux.c[a]
                       for a, (t, h) in enumerate(aux.graph.arcs))):
            data["lift_violations"].append((seed, lift["iteration"]))
    bound = 16 * math.sqrt(cert.m) * math.log(point.mu0) + cert.m
    data["iteration_counts"].append((seed, res.iterations, bound))
    if unique:
        _check_minors(seed, run, oracle, comp, data)
    _check_crossover(seed, cert, aux, res, data)


def _determinism_check(seed, inst, data):
    outs = []
    for _ in range(2):
        events = []
        try:
            result = solve(inst, SolveConfig(seed=seed),
                           probe=lambda *event: events.append(event))
        except Exception:
            return  # criterion 1 already records the failure
        if result.status == "optimal":
            text = format_solution(inst, result.objective, result.flow,
                                   result.potentials)
        else:
            text = format_infeasible(result.cut)
        text += "".join(json.dumps(row) + "\n"
                        for event, row in events if event == "iterate")
        outs.append(text.encode())
    data["determinism_checked"] += 1
    if outs[0] != outs[1]:
        data["determinism_violations"].append(seed)


@pytest.fixture(scope="module")
def suite():
    data = {
        "wall_solve": 0.0, "wall_probe": 0.0, "wall_total": 0.0,
        "n_optimal": 0, "n_infeasible": 0,
        "mismatches": [], "solve_errors": [],
        "cert_checked": 0, "cert_failures": [],
        "cuts_checked": 0, "cut_failures": [],
        "monitor_pairs": [], "monitor_violations": [],
        "initial_checked": 0, "initial_violations": [],
        "exit_checks": Counter(), "exit_violations": [],
        "lift_checks": Counter(), "lift_violations": [],
        "unique_instances": 0, "minor_checks": Counter(),
        "minor_violations": [],
        "perturb_checks": 0, "perturb_violations": [],
        "crossover_runs": 0, "crossover_steps": 0, "crossover_violations": [],
        "iteration_counts": [], "deep_errors": [],
        "states": [], "state_seeds": {},
        "determinism_checked": 0, "determinism_violations": [],
    }
    t_start = time.perf_counter()
    for seed in range(SUITE_SIZE):
        inst = random_instance(seed, *suite_params(seed))
        oracle = ssp_solve(inst)
        unique = oracle.status == "optimal" and has_unique_support(inst,
                                                                   oracle)
        if unique:
            data["unique_instances"] += 1
        if oracle.status == "optimal":
            data["n_optimal"] += 1
        else:
            data["n_infeasible"] += 1
        for run, runner in RUNS.items():
            _check_run(seed, run, runner, inst, oracle, unique, data)
        if seed % 17 == 0:
            _determinism_check(seed, inst, data)
    # criterion 1 times the solver, not the checks its probe runs
    data["wall_solve"] -= data["wall_probe"]
    data["wall_total"] = time.perf_counter() - t_start
    return data


def _check_run(seed, run, runner, inst, oracle, unique, data):
    """One solve of ``inst`` by ``runner`` under its probe, and the
    checks on its answer."""
    probe = _make_probe(seed, run, oracle, unique, data)
    t0 = time.perf_counter()
    try:
        result = runner(inst, SolveConfig(seed=seed), probe=probe)
        status, objective = result.status, result.objective
    except Exception as exc:
        # the probe's checks observed this very run, so they fail too
        data["solve_errors"].append((seed, run, repr(exc)))
        data["deep_errors"].append((seed, repr(exc)))
        result, status, objective = None, "error", None
    data["wall_solve"] += time.perf_counter() - t0

    if status != oracle.status or (status == "optimal"
                                   and objective != oracle.objective):
        data["mismatches"].append(
            (seed, run, oracle.status, oracle.objective, status, objective))
    if result is not None and status == "optimal":
        data["cert_checked"] += 1
        report = verify_certificate(inst, result.flow, result.potentials)
        if not report.ok:
            data["cert_failures"].append((seed, run, report.failures))
    if result is not None and status == "infeasible":
        data["cuts_checked"] += 1
        report = verify_cut(inst, result.cut)
        if not report.ok:
            data["cut_failures"].append((seed, run, report.failures))
    if result is not None:
        for comp in result.components:
            if "max_abs" in comp:
                data["monitor_pairs"].append(
                    (comp["max_abs"], comp["limit"]))
                if comp["max_abs"] > comp["limit"]:
                    data["monitor_violations"].append((seed, run))


def _shares(counts):
    """A per-run counter's total and its split by run."""
    split = " + ".join(f"{counts[run]} {run}" for run in RUNS)
    return f"{counts.total()} ({split})"


def _report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_oracle_equivalence(suite):
    ok = (not suite["mismatches"] and not suite["solve_errors"]
          and suite["wall_solve"] <= SUITE_BUDGET_SECONDS)
    _report(1, ok,
            f"{SUITE_SIZE} seeded instances ({suite['n_optimal']} optimal, "
            f"{suite['n_infeasible']} infeasible), each solved once through "
            f"solve and once to the proxy exit, matched the oracle exactly "
            f"in {suite['wall_solve']:.1f}s; "
            f"mismatches={suite['mismatches'][:3]} "
            f"errors={suite['solve_errors'][:3]}")


def test_criterion_02_certificates(suite):
    ok = (suite["cert_checked"] > 0 and not suite["cert_failures"]
          and suite["cuts_checked"] > 0 and not suite["cut_failures"])
    _report(2, ok,
            f"{suite['cert_checked']} optimal outputs passed all five exact "
            f"complementary-slackness checks and {suite['cuts_checked']} "
            f"infeasible outputs carried a cut whose demand exceeds its "
            f"entering capacity; failures={suite['cert_failures'][:3]} "
            f"cut_failures={suite['cut_failures'][:3]}")


def test_criterion_03_number_size(suite):
    pairs = suite["monitor_pairs"]
    ok = bool(pairs) and not suite["monitor_violations"]
    worst = max((Fraction(a, l) for a, l in pairs), default=Fraction(0))
    bits = max((a.bit_length() for a, _ in pairs), default=0)
    limit_bits = min((l.bit_length() for _, l in pairs), default=0)
    _report(3, ok,
            f"strict bound monitor clean on {len(pairs)} component runs; "
            f"largest magnitude {bits} bits, tightest limit {limit_bits} "
            f"bits, worst ratio {float(worst):.3g}; "
            f"violations={suite['monitor_violations'][:3]}")


def test_criterion_04_initial_point(suite):
    ok = suite["initial_checked"] > 0 and not suite["initial_violations"]
    _report(4, ok,
            f"{suite['initial_checked']} constructed starting points kept "
            f"every product inside [t, t + 2*beta*gamma*U*C] with "
            f"8-fold centrality; violations={suite['initial_violations'][:3]}")


def test_criterion_05_centrality_and_feasibility(suite):
    ok = (suite["exit_checks"].total() >= PATH_POINTS_FLOOR
          and not suite["exit_violations"]
          and suite["lift_checks"].total() >= PATH_POINTS_FLOOR
          and not suite["lift_violations"]
          and not suite["deep_errors"])
    _report(5, ok,
            f"{_shares(suite['exit_checks'])} post-centering points "
            f"satisfied strict 8-fold centrality and "
            f"{_shares(suite['lift_checks'])} lifted points "
            f"stayed exactly feasible (floor {PATH_POINTS_FLOOR} each); "
            f"exit_violations={suite['exit_violations'][:3]} "
            f"lift_violations={suite['lift_violations'][:3]} "
            f"errors={suite['deep_errors'][:3]}")


def test_criterion_06_minor_legitimacy(suite):
    ok = (suite["unique_instances"] >= UNIQUE_FLOOR
          and suite["minor_checks"].total() >= DECISIONS_FLOOR
          and not suite["minor_violations"])
    _report(6, ok,
            f"{_shares(suite['minor_checks'])} delete/contract decisions on "
            f"{suite['unique_instances']} unique-support instances all "
            f"consistent with the oracle optimum (floors {DECISIONS_FLOOR} "
            f"on {UNIQUE_FLOOR}); violations={suite['minor_violations'][:3]}")


def test_criterion_07_perturbation_bounds(suite):
    ok = suite["perturb_checks"] > 0 and not suite["perturb_violations"]
    _report(7, ok,
            f"{suite['perturb_checks']} perturbed instances kept "
            f"9*|b - b_hat| <= 14*beta and 9*|c - c_hat| <= 7*gamma; "
            f"violations={suite['perturb_violations'][:3]}")


def test_criterion_08_crossover_monotonicity(suite):
    ok = suite["crossover_runs"] > 0 and not suite["crossover_violations"]
    _report(8, ok,
            f"perturbed dual objective non-decreasing across "
            f"{suite['crossover_steps']} nested-cut steps in "
            f"{suite['crossover_runs']} crossovers, each rerun to its "
            f"certified answer; "
            f"violations={suite['crossover_violations'][:3]}")


def test_criterion_09_iteration_sanity(suite):
    over = [(seed, iters, bound)
            for seed, iters, bound in suite["iteration_counts"]
            if iters > bound]
    ok = (bool(suite["iteration_counts"]) and not over
          and not suite["deep_errors"])
    worst = max((iters / bound
                 for _, iters, bound in suite["iteration_counts"]),
                default=0.0)
    _report(9, ok,
            f"{len(suite['iteration_counts'])} runs stayed within "
            f"16*sqrt(m)*ln(mu0) + m decrements (worst ratio {worst:.2f}) "
            f"and no centering run stalled; over={over[:3]} "
            f"errors={suite['deep_errors'][:3]}")


def _bootstrap_lcb(values, rng):
    n = len(values)
    sums = sorted(sum(values[rng.randrange(n)] for _ in range(n))
                  for _ in range(BOOTSTRAP_RESAMPLES))
    return Fraction(sums[BOOTSTRAP_RESAMPLES // 100 - 1], n)


def test_criterion_10_energy_decrease(suite):
    states = suite["states"]
    rng = Random(987654321)
    lcbs = []
    for state in states:
        decreases = []
        for trial in range(TRIALS_PER_STATE):
            run = CenteringRun(arcs=state["arcs"], x=dict(state["x"]),
                               s=dict(state["s"]), mu=state["mu"],
                               rng=Random(trial * 2654435761 + 17),
                               mu0_bits=state["mu0_bits"],
                               monitor=BoundMonitor(REPLAY_LIMIT))
            decreases.append(energy_decrease(run.sample_update()))
        lcbs.append(_bootstrap_lcb(decreases, rng))
    ok = (len(states) == STATES_WANTED
          and all(s["iteration"] >= LATE_ITERATION for s in states)
          and all(lcb > 0 for lcb in lcbs))
    origin = [(s["seed"], s["iteration"]) for s in states]
    _report(10, ok,
            f"bootstrap 99% lower bound on mean energy decrease positive "
            f"for all {len(states)} captured states "
            f"(1000 sampled updates each) from {origin}; "
            f"positive={[lcb > 0 for lcb in lcbs]}")


def test_criterion_11_determinism(suite):
    ok = (suite["determinism_checked"] >= 10
          and not suite["determinism_violations"])
    _report(11, ok,
            f"{suite['determinism_checked']} instances re-solved with the "
            f"same seed produced byte-identical solution and trace output; "
            f"violations={suite['determinism_violations'][:3]}")
