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

from latticeflow import ipm_driver
from latticeflow.centering import CenteringRun
from latticeflow.reference_oracle import random_instance
from latticeflow.solver import SolveConfig, solve

from helpers import solve_to_the_proxy_exit, suite_params

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_tracing",
                                               ROOT / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# (seed, random_instance parameters, runner): the first reuses its
# spanning forest across centerings, so the traced forest subclass runs
# the inherited reweight path; the second has U = C = 10^12, and its
# corrector accepts 12 stalled trials; acceptance-mix draw 26, followed
# to the proxy exit, has a corrector that fails and falls back to the
# short step, the only one on the 240 gate draws' proxy-exit paths
# (solve paths correct every stalled trial seen so far)
DRAWS = [(1, (16, 48, 10, 10), solve),
         (3, (8, 16, 10**12, 10**12), solve),
         (26, suite_params(26), solve_to_the_proxy_exit)]
# run.py computes these two itself, outside the tracer
OUTSIDE_TRACER = {"dimacs.parse_s", "trace.overhead"}


def _corrector_outcomes(log):
    """A CenteringRun that appends to ``log``, per run whose corrector
    ran, whether the corrector's trial was accepted."""
    class LoggedRun(CenteringRun):
        corrector_ran = False

        def refresh(self):
            self.corrector_ran |= self.pi_start is not None
            return super().refresh()

        def run(self):
            super().run()
            if self.corrector_ran:
                log.append(self.corrected)

    return LoggedRun


def test_traced_solves_match_untraced_ones(monkeypatch):
    plain, corrections = [], []
    for seed, params, runner in DRAWS:
        corrections.append([])
        monkeypatch.setattr(ipm_driver, "CenteringRun",
                            _corrector_outcomes(corrections[-1]))
        plain.append(runner(random_instance(seed, *params),
                            SolveConfig(seed=seed)))
    monkeypatch.undo()
    assert True in corrections[1]  # a corrector accepts
    assert False in corrections[2]  # a corrector fails

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = [tracing.traced_solve(tracer, k, runner,
                                       random_instance(seed, *params),
                                       SolveConfig(seed=seed))
                  for k, (seed, params, runner) in enumerate(DRAWS)]
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
