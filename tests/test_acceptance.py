"""Shipping gate: one test and one printed PASS/FAIL line per criterion.

The module fixture solves a 200-instance seeded suite once, with a probe
attached to each solve, so the interior invariants (initial point,
post-centering centrality, lifted feasibility, perturbation bounds,
crossover monotonicity, minor legitimacy) are checked on the real run,
independently of the solver's own assertions. Run with ``pytest -s`` to
see the lines as they print; they also appear in failure output.
"""

import json
import math
import time
from fractions import Fraction
from random import Random

import pytest

from latticeflow.centering import CenteringRun
from latticeflow.crossover import (admissible_max_flow, build_perturbed,
                                   lift_tree_duals, nested_cut_crossover,
                                   verify_aux_certificate)
from latticeflow.dimacs import format_solution
from latticeflow.graph_core import apply_incidence
from latticeflow.reference_oracle import (has_unique_support, random_instance,
                                          ssp_solve, verify_certificate)
from latticeflow.solver import SolveConfig, solve

SUITE_SIZE = 200
SUITE_BUDGET_SECONDS = 600.0
STATES_WANTED = 5
STATES_PER_SEED = 2
TRIALS_PER_STATE = 1000
BOOTSTRAP_RESAMPLES = 1000


def _suite_params(seed: int) -> tuple[int, int, int, int, str]:
    """Sizes skewed small within the caps n <= 8, m <= 16, U, C <= 10."""
    rng = Random(seed * 7919 + 13)
    n = rng.choice([2, 2, 3, 3, 3, 4, 4, 5, 6, 8])
    m = min(16, n - 1 + rng.choice([0, 1, 1, 2, 2, 3, 4, 6, 9]))
    u_max = rng.choice([1, 2, 3, 5, 10])
    c_max = rng.choice([0, 1, 2, 3, 5, 10])
    mode = "feasible" if seed % 3 else "random"
    return n, m, u_max, c_max, mode


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


def _make_probe(seed, oracle, unique, data):
    """Checks on one solve's events; lifted points wait for their
    component's auxiliary instance, and a check that raises is recorded
    while the solve goes on."""
    lifts = []
    mu0_bits = None

    def on_event(event, payload):
        nonlocal lifts, mu0_bits
        if event == "iterate":
            if payload["iter"] == 0:
                mu0_bits = payload["mu"].bit_length()
        elif event == "centering_exit":
            data["exit_checks"] += 1
            dev = sum(abs(payload["x"][a] * payload["s"][a] - payload["mu"])
                      for a, _, _ in payload["arcs"])
            if not 8 * dev < payload["mu"]:
                data["exit_violations"].append((seed, payload["iteration"]))
        elif event == "lifted":
            lifts.append(payload)
        elif event == "component":
            pending, lifts = lifts, []
            _check_component(seed, oracle, unique, payload, pending, data)
        elif event == "centering_enter":
            states = data["states"]
            it = payload["iteration"]
            if (len(states) >= STATES_WANTED or it < 40 or it % 20
                    or data["state_seeds"].get(seed, 0) >= STATES_PER_SEED
                    or len(payload["arcs"]) < 2):
                return
            m_h = len(payload["arcs"])
            trial = CenteringRun(arcs=payload["arcs"], x=dict(payload["x"]),
                                 s=dict(payload["s"]), mu=payload["mu"],
                                 rng=Random(0), mu0_bits=mu0_bits)
            if trial.gap() * 16384 * m_h >= payload["mu"]:
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
    dc = sum(abs(aux.c[a] - pert.c_hat[a]) for a in range(aux.graph.m))
    data["perturb_checks"] += 1
    if not (9 * db <= 14 * cert.beta and 9 * dc <= 7 * cert.gamma):
        data["perturb_violations"].append(seed)
    log = []
    _, tree = nested_cut_crossover(aux, pert, res.y, objective_log=log)
    data["crossover_runs"] += 1
    data["crossover_steps"] += len(log) - 1
    if any(a > b for a, b in zip(log, log[1:])):
        data["crossover_violations"].append(seed)
    y_t, s_t = lift_tree_duals(aux, cert, tree)
    x_star = admissible_max_flow(aux, s_t)
    verify_aux_certificate(aux, x_star, y_t, s_t)


def _check_minors(seed, oracle, comp, data):
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
        if f_norm[i] < norm.u[i]:
            yhat[aux.arc_node[i]] = yhat[w]
        else:
            yhat[aux.arc_node[i]] = norm.c[i] + yhat[v]

    def aux_flow(a):
        kind, i = aux.provenance[a]
        if kind == "up":
            return f_norm[i]
        if kind == "down":
            return norm.u[i] - f_norm[i]
        return 0

    # the mapped pair must itself be an exact certificate
    for a, (t, h) in enumerate(aux.graph.arcs):
        slack = aux.c[a] * cert.gamma0 - (yhat[h] - yhat[t]) * cert.gamma
        assert slack >= 0, f"seed {seed}: mapped dual infeasible on arc {a}"
        assert aux_flow(a) == 0 or slack == 0, \
            f"seed {seed}: mapped pair not complementary on arc {a}"

    for a in sorted(res.cmap.deleted):
        data["minor_checks"] += 1
        if aux_flow(a) != 0:
            data["minor_violations"].append((seed, a, "deleted-flow"))
    for a in sorted(res.cmap.contracted):
        data["minor_checks"] += 1
        t, h = aux.graph.arcs[a]
        if aux.c[a] * cert.gamma0 != (yhat[h] - yhat[t]) * cert.gamma:
            data["minor_violations"].append((seed, a, "contracted-slack"))


def _check_component(seed, oracle, unique, comp, lifts, data):
    cert, aux, point, res = (comp["cert"], comp["aux"], comp["point"],
                             comp["result"])
    _check_initial_point(seed, cert, aux, point, data)
    for lift in lifts:
        data["lift_checks"] += 1
        y = lift["y"]
        if (apply_incidence(aux.graph, lift["x"]) != aux.b
                or any(y[h] - y[t] + lift["s"][a] != aux.c[a]
                       for a, (t, h) in enumerate(aux.graph.arcs))):
            data["lift_violations"].append((seed, lift["iteration"]))
    bound = 16 * math.sqrt(cert.m) * math.log(point.mu0) + cert.m
    data["iteration_counts"].append((seed, res.iterations, bound))
    _check_crossover(seed, cert, aux, res, data)
    if unique:
        _check_minors(seed, oracle, comp, data)


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
            text = "infeasible\n"
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
        "monitor_pairs": [], "monitor_violations": [],
        "initial_checked": 0, "initial_violations": [],
        "exit_checks": 0, "exit_violations": [],
        "lift_checks": 0, "lift_violations": [],
        "unique_instances": 0, "minor_checks": 0, "minor_violations": [],
        "perturb_checks": 0, "perturb_violations": [],
        "crossover_runs": 0, "crossover_steps": 0, "crossover_violations": [],
        "iteration_counts": [], "deep_errors": [],
        "states": [], "state_seeds": {},
        "determinism_checked": 0, "determinism_violations": [],
    }
    t_start = time.perf_counter()
    for seed in range(SUITE_SIZE):
        n, m, u_max, c_max, mode = _suite_params(seed)
        inst = random_instance(seed, n, m, u_max, c_max, mode)
        oracle = ssp_solve(inst)
        unique = oracle.status == "optimal" and has_unique_support(inst,
                                                                   oracle)
        if unique:
            data["unique_instances"] += 1
        probe = _make_probe(seed, oracle, unique, data)
        t0 = time.perf_counter()
        try:
            result = solve(inst, SolveConfig(seed=seed), probe=probe)
            status, objective = result.status, result.objective
        except Exception as exc:
            # the probe's checks observed this very run, so they fail too
            data["solve_errors"].append((seed, repr(exc)))
            data["deep_errors"].append((seed, repr(exc)))
            result, status, objective = None, "error", None
        data["wall_solve"] += time.perf_counter() - t0

        if oracle.status == "optimal":
            data["n_optimal"] += 1
        else:
            data["n_infeasible"] += 1
        if status != oracle.status or (status == "optimal"
                                       and objective != oracle.objective):
            data["mismatches"].append(
                (seed, oracle.status, oracle.objective, status, objective))
        if result is not None and status == "optimal":
            data["cert_checked"] += 1
            report = verify_certificate(inst, result.flow, result.potentials)
            if not report.ok:
                data["cert_failures"].append((seed, report.failures))
        if result is not None:
            for comp in result.components:
                if "max_abs" in comp:
                    data["monitor_pairs"].append(
                        (comp["max_abs"], comp["limit"]))
                    if comp["max_abs"] > comp["limit"]:
                        data["monitor_violations"].append(seed)
        if seed % 17 == 0:
            _determinism_check(seed, inst, data)
    # criterion 1 times the solver, not the checks its probe runs
    data["wall_solve"] -= data["wall_probe"]
    data["wall_total"] = time.perf_counter() - t_start
    return data


def _report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_oracle_equivalence(suite):
    ok = (not suite["mismatches"] and not suite["solve_errors"]
          and suite["wall_solve"] <= SUITE_BUDGET_SECONDS)
    _report(1, ok,
            f"{SUITE_SIZE} seeded instances ({suite['n_optimal']} optimal, "
            f"{suite['n_infeasible']} infeasible) matched the oracle exactly "
            f"in {suite['wall_solve']:.1f}s; "
            f"mismatches={suite['mismatches'][:3]} "
            f"errors={suite['solve_errors'][:3]}")


def test_criterion_02_certificates(suite):
    ok = suite["cert_checked"] > 0 and not suite["cert_failures"]
    _report(2, ok,
            f"{suite['cert_checked']} optimal outputs passed all five exact "
            f"complementary-slackness checks; "
            f"failures={suite['cert_failures'][:3]}")


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
    ok = (suite["exit_checks"] > 0 and not suite["exit_violations"]
          and suite["lift_checks"] > 0 and not suite["lift_violations"]
          and not suite["deep_errors"])
    _report(5, ok,
            f"{suite['exit_checks']} post-centering points satisfied strict "
            f"8-fold centrality and {suite['lift_checks']} lifted points "
            f"stayed exactly feasible; "
            f"exit_violations={suite['exit_violations'][:3]} "
            f"lift_violations={suite['lift_violations'][:3]} "
            f"errors={suite['deep_errors'][:3]}")


def test_criterion_06_minor_legitimacy(suite):
    ok = (suite["unique_instances"] > 0 and suite["minor_checks"] > 0
          and not suite["minor_violations"])
    _report(6, ok,
            f"{suite['minor_checks']} delete/contract decisions on "
            f"{suite['unique_instances']} unique-support instances all "
            f"consistent with the oracle optimum; "
            f"violations={suite['minor_violations'][:3]}")


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
            f"{suite['crossover_runs']} crossovers; "
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
                               mu0_bits=state["mu0_bits"])
            decreases.append(run.sample_update().energy_decrease)
        lcbs.append(_bootstrap_lcb(decreases, rng))
    ok = len(states) == STATES_WANTED and all(lcb > 0 for lcb in lcbs)
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
