"""The benchmark's span tracer against the solver surface it wraps.

``bench/tracing.py`` swaps wrappers into the solver's module namespaces
and subclasses its centering and forest classes, so a change to any of
the names it swaps breaks only traced benchmark runs. These checks load
it by path and solve a few draws untraced and traced, as ``bench/run.py
--trace 1`` does.
"""

import importlib.util
import json
from pathlib import Path

from latticeflow.reference_oracle import random_instance
from latticeflow.solver import SolveConfig, solve

from helpers import suite_params

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_tracing",
                                               ROOT / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# (seed, random_instance parameters): the first reuses its spanning
# forest across centerings, so the traced forest subclass runs the
# inherited reweight path; the second has U = C = 10^12; acceptance-mix
# draw 4 has trials that fall back to the short step (7 of its 15, as a
# probe on centering_enter's trial_mu and centering_exit's mu shows)
DRAWS = [(1, (16, 48, 10, 10)),
         (3, (8, 16, 10**12, 10**12)),
         (4, suite_params(4))]
# run.py computes these two itself, outside the tracer
OUTSIDE_TRACER = {"dimacs.parse_s", "trace.overhead"}


def _fallbacks(trials):
    """A probe that appends, per centering run with a trial target,
    whether the run fell back to the short step."""
    trial = {}

    def probe(event, data):
        if event == "centering_enter":
            trial["mu"] = data["trial_mu"]
        elif event == "centering_exit" and trial["mu"] is not None:
            trials.append(data["mu"] != trial["mu"])
    return probe


def test_traced_solves_match_untraced_ones():
    plain, trials = [], []
    for seed, params in DRAWS:
        trials.append([])
        plain.append(solve(random_instance(seed, *params),
                           SolveConfig(seed=seed),
                           probe=_fallbacks(trials[-1])))
    assert any(trials[2])  # the acceptance-mix draw falls back

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = [tracing.traced_solve(tracer, k, solve,
                                       random_instance(seed, *params),
                                       SolveConfig(seed=seed))
                  for k, (seed, params) in enumerate(DRAWS)]
    assert traced == plain

    counts = tracing.interior_point_counts(tracer)
    for k, result in enumerate(plain):
        assert counts[k] == [(c["iterations"], c["updates"], c["refreshes"])
                             for c in result.components
                             if "iterations" in c]
    builds = sum(1 for span in tracer.spans
                 if span.name == "spanning_tree.build" and span.solve == 0)
    assert builds < counts[0][0][0]  # the first draw reuses its forest

    metrics = tracing.layer_metrics(tracer, len(DRAWS))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {layer["name"] for layer in spec["per_layer"]}
    assert names - OUTSIDE_TRACER <= set(metrics)
    assert metrics["crossover.maxflow_s"][0] > 0
