"""Seeded end-to-end and per-layer benchmark of exact min-cost flow solves.

Run from the repository root:

    python3 bench/run.py --workload mix-small --seed 1 --seconds 30 --trace 0

The workload's suite is drawn from ``--seed`` with the public
``random_instance`` and turned into DIMACS text; the solver sees only
that text, read back with ``parse_instance``. ``solve`` runs with the
shipped ``SolveConfig``, only ``seed`` set, in this one process: a
closed loop with one caller.

``--trace 0`` solves the suite back to back, pass after pass, until
every instance has been solved once and ``--seconds`` have gone by, and
reports the end-to-end metrics. ``--trace 1`` solves each instance of
the first half of the suite once untraced and once under the span
tracer of ``tracing.py`` and reports the per-layer metrics; it runs
exactly that one pass, so its counters repeat exactly for a seed.

Every answer is checked outside the timed region: the status and
objective against ``ssp_solve``, the flow and potentials with
``verify_certificate``, and every repeat of an instance against its
first answer. ``attempted`` counts the suite's instances, and
``failed`` those of them with a solve that raised or gave a wrong
answer, with its seed and error class recorded; the run goes on.
``correct`` is false when an answer was wrong or, in a traced run, when
a traced answer or counter differs from the untraced solve's.

The figures are printed by name on the lines before the last; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A report (and a traced run's spans) goes under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15
P90_MIN_SOLVES = 100  # ten samples beyond the 90th percentile
REFERENCE_LOOP_S = 0.005
SAMPLE_INTERVAL_S = 0.25

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402


def acceptance_mix(i: int) -> tuple[int, int, int, int, str]:
    """Instance parameters of the acceptance suite's i-th seed: n <= 8,
    m <= 16, U, C <= 10, every third instance in "random" mode."""
    rng = Random(i * 7919 + 13)
    n = rng.choice([2, 2, 3, 3, 3, 4, 4, 5, 6, 8])
    m = min(16, n - 1 + rng.choice([0, 1, 1, 2, 2, 3, 4, 6, 9]))
    u_max = rng.choice([1, 2, 3, 5, 10])
    c_max = rng.choice([0, 1, 2, 3, 5, 10])
    return n, m, u_max, c_max, "feasible" if i % 3 else "random"


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    params: Callable[[int], tuple[int, int, int, int, str]]
    shape: str
    why: str


# Suite sizes make one pass take 20 to 30 s on a 2-core box with
# Python 3.11, so a 30 s run covers each suite about once.
WORKLOADS = {w.name: w for w in (
    Workload(
        "mix-small", 200, acceptance_mix,
        "acceptance mix: n <= 8, m <= 16, U, C <= 10, 1/3 random mode",
        "acceptance mix (n<=8, m<=16, U,C<=10, 1/3 random mode): "
        "~10-update centerings, so per-iteration fixed costs dominate; "
        "infeasible verdicts; p90"),
    Workload(
        "dense-m48", 4, lambda i: (16, 48, 10, 10, "feasible"),
        "n = 16, m = 48, U = C = 10, feasible",
        "ROADMAP reference shape n=16, m=48, U=C=10: ~125-update "
        "centerings, so sample_update and the magnitude monitor do most "
        "of the work"),
    Workload(
        "bigint-1e12", 6, lambda i: (8, 16, 10**12, 10**12, "feasible"),
        "n = 8, m = 16, U = C = 10^12, feasible",
        "n=8, m=16, U=C=10^12: ~200-bit magnitudes and a longer path, "
        "so iteration-count and integer-size changes show here first"),
)}


def loop_s() -> float:
    """Time of one fixed pure-Python loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(50_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - t0


class SpeedSampler:
    """The machine's speed over a run, read from a fixed loop.

    On a shared 2-core box the same work runs up to 15% slower or faster
    for minutes at a time, and the loop drifts with it. While the sampler
    is entered, a SIGALRM timer times the loop every SAMPLE_INTERVAL_S,
    in the middle of whatever runs, and adds the time it took to
    ``spent`` so that callers can take it back out of their own timings.
    ``scaled`` turns such a timing into reference seconds: seconds on a
    machine where the loop takes REFERENCE_LOOP_S.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.loop: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.loop.append(loop_s())
        self.at.append(time.perf_counter())
        self.spent += self.at[-1] - t0

    def __enter__(self) -> SpeedSampler:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, wall: float, start: float, end: float) -> float:
        """``wall``, timed from ``start`` to ``end``, scaled by
        REFERENCE_LOOP_S over the median loop time from the last sample
        before ``start`` to the first one after ``end``."""
        lo = max(0, bisect.bisect_right(self.at, start) - 1)
        hi = bisect.bisect_left(self.at, end) + 1
        return wall * REFERENCE_LOOP_S / statistics.median(self.loop[lo:hi])


@dataclass
class Case:
    seed: int
    params: tuple
    inst: object  # the generated RawInstance, used only by the checks
    text: str
    oracle: object


@dataclass
class Timing:
    wall: float  # perf_counter time less the sampler's share
    start: float
    end: float
    seconds: float = 0.0  # wall in reference seconds


@dataclass
class Outcome:
    timing: Timing
    status: str  # "optimal" | "infeasible" | "error" | "wrong"
    text: str  # canonical answer, compared across repeats and tracing
    counts: list  # (iterations, updates, refreshes) per solved component
    headroom: int | None
    error: str | None = None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args


def make_suite(lf, workload: Workload, seed: int) -> list[Case]:
    """Instance i has seed seed * 1000 + i, so seed 0 of mix-small is
    the acceptance suite itself."""
    cases = []
    for i in range(workload.size):
        inst_seed = seed * 1000 + i
        params = workload.params(i)
        inst = lf.random_instance(inst_seed, *params)
        cases.append(Case(inst_seed, params, inst,
                          lf.format_instance(inst), lf.ssp_solve(inst)))
    return cases


def timed(sampler: SpeedSampler, fn, *args):
    """Call fn; return its result, the exception it raised (or None) and
    its Timing."""
    result = error = None
    spent = sampler.spent
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # handed back, counted by the caller
        error = exc
    end = time.perf_counter()
    return result, error, Timing(end - start - (sampler.spent - spent),
                                 start, end)


def measure_setup(texts: list[str], sampler: SpeedSampler):
    """Import latticeflow afresh and parse the suite, SETUP_REPEATS
    times after one warm-up; return the set-up and parse timings, the
    last import and its parsed instances."""
    setup, parse = [], []
    for rep in range(SETUP_REPEATS + 1):
        for name in [n for n in sys.modules
                     if n == "latticeflow" or n.startswith("latticeflow.")]:
            del sys.modules[name]
        lf, error, imported = timed(sampler, importlib.import_module,
                                    "latticeflow")
        if error is None:
            parsed, error, parsing = timed(
                sampler, lambda: [lf.parse_instance(text) for text in texts])
        if error is not None:
            raise error
        if rep:
            setup.append(Timing(imported.wall + parsing.wall,
                                imported.start, parsing.end))
            parse.append(parsing)
    return setup, parse, lf, parsed


def solve_once(lf, case: Case, inst, solve, sampler: SpeedSampler) -> Outcome:
    """One timed solve plus its checks, which run after the clock stops."""
    config = lf.SolveConfig(seed=case.seed)
    # start each solve with an empty young heap; freezing keeps the
    # benchmark's own objects (and a traced run's spans) out of the
    # collections that run during the solve
    gc.collect()
    gc.freeze()
    result, error, timing = timed(sampler, solve, inst, config)
    if error is not None:
        name = type(error).__name__
        return Outcome(timing, "error", f"error {name}\n", [], None,
                       f"{name}: {error}")
    comps = [c for c in result.components if "iterations" in c]
    counts = [(c["iterations"], c["updates"], c["refreshes"]) for c in comps]
    headroom = min((c["limit"].bit_length() - c["max_abs"].bit_length()
                    for c in comps), default=None)
    if result.status == "optimal":
        text = lf.format_solution(inst, result.objective, result.flow,
                                  result.potentials)
    else:
        text = f"{result.status}\n"
    out = Outcome(timing, result.status, text, counts, headroom)
    oracle = case.oracle
    if result.status != oracle.status or result.objective != oracle.objective:
        out.error = (f"mismatch: oracle {oracle.status} {oracle.objective}, "
                     f"solve {result.status} {result.objective}")
    elif result.status == "optimal":
        report = lf.verify_certificate(case.inst, result.flow,
                                       result.potentials)
        if not report.ok:
            out.error = "certificate rejected: " + "; ".join(report.failures)
    return out


def measure(args, lf, cases: list[Case], parsed: list, sampler: SpeedSampler,
            tracer: tracing.Tracer):
    """The closed loop: returns the first answer per instance, every
    untraced attempt, and in a traced run each instance's traced answer.

    An untraced run stops at the end of the first pass or, after it, at
    the solve boundary nearest to ``--seconds``. A traced run solves
    each instance it is given once, untraced then traced."""
    first: list[Outcome] = []
    attempts: list[Outcome] = []
    traced: list[Outcome] = []
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if i >= len(cases) and (
                args.trace or elapsed * (1 + 0.5 / i) >= args.seconds):
            break
        k = i % len(cases)
        out = solve_once(lf, cases[k], parsed[k], lf.solve, sampler)
        if i < len(cases):
            first.append(out)
        elif out.text != first[k].text and out.error is None:
            out.status = "wrong"
            out.error = "repeat solve gave a different answer"
        attempts.append(out)
        if args.trace:
            with tracing.installed(tracer):
                traced.append(solve_once(
                    lf, cases[k], parsed[k],
                    lambda *a: tracing.traced_solve(tracer, k, lf.solve, *a),
                    sampler))
        i += 1
    return first, attempts, traced


def check_traced(cases: list[Case], first: list[Outcome],
                 traced: list[Outcome], tracer: tracing.Tracer) -> list[str]:
    """Traced answers must equal untraced ones, and the wrappers' counts
    must equal what each solve reports in ``components``."""
    counts = tracing.interior_point_counts(tracer)
    notes = []
    for k, (plain, seen) in enumerate(zip(first, traced)):
        if seen.text != plain.text:
            notes.append(f"seed {cases[k].seed}: traced answer differs")
        elif plain.status != "error" and counts.get(k, []) != plain.counts:
            notes.append(f"seed {cases[k].seed}: wrapper counts "
                         f"{counts.get(k)} != components {plain.counts}")
    return notes


def is_wrong(out: Outcome) -> bool:
    """A returned answer that is wrong, as against a solve that raised."""
    return out.error is not None and out.status != "error"


def digest(outcomes: list[Outcome]) -> str:
    h = hashlib.sha256()
    for out in outcomes:
        h.update(out.text.encode())
        h.update(json.dumps(out.counts).encode())
    return h.hexdigest()


def solves_per_s(attempts: list[Outcome], wall: bool = False) -> float:
    """Successful solves per second of solve time, failed ones included."""
    ok = sum(1 for a in attempts if a.error is None)
    return ok / sum(a.timing.wall if wall else a.timing.seconds
                    for a in attempts)


def latency(attempts: list[Outcome], q: float, wall: bool = False) -> float:
    # a failed solve misses every latency limit
    return tracing.nearest_rank(
        [float("inf") if a.error is not None
         else a.timing.wall if wall else a.timing.seconds
         for a in attempts], q)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latticeflow" / "__init__.py").is_file():
        print(f"bench: no latticeflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    lf = importlib.import_module("latticeflow")
    cases = make_suite(lf, workload, args.seed)
    tracer = tracing.Tracer()
    with SpeedSampler() as sampler:
        setup, parse, lf, parsed = measure_setup([c.text for c in cases],
                                                 sampler)
        if args.trace:
            # the first half of the suite keeps a traced run, which solves
            # everything twice, about as long as an untraced one
            cases = cases[:(len(cases) + 1) // 2]
            parsed = parsed[:len(cases)]
        first, attempts, traced = measure(args, lf, cases, parsed, sampler,
                                          tracer)
    for t in setup + parse + [o.timing for o in attempts + traced]:
        t.seconds = sampler.scaled(t.wall, t.start, t.end)
    setup_s = statistics.median(t.seconds for t in setup)

    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "calibration_s": statistics.median(sampler.loop),
           "calibration_samples": len(sampler.loop)}
    # attempted and failed count instances, not solves: how many repeats
    # fit in --seconds depends on the machine, whether an instance fails
    # does not; an instance fails if any of its solves does
    failed_at: dict[int, Outcome] = {}
    for j, a in enumerate(attempts):
        if a.error is not None:
            failed_at.setdefault(j % len(cases), a)
    failures = [{"seed": cases[k].seed, "error": a.error.split(":")[0],
                 "detail": a.error} for k, a in sorted(failed_at.items())]
    correct = not any(is_wrong(a) for a in attempts)
    notes: list[str] = []
    human: dict[str, tuple[float, str]] = {}
    if args.trace:
        notes = check_traced(cases, first, traced, tracer)
        correct = correct and not notes
        # per-layer times get the run's median speed correction
        scale = REFERENCE_LOOP_S / env["calibration_s"]
        metrics = {name: (value * scale if unit == "s" else value, unit)
                   for name, (value, unit)
                   in tracing.layer_metrics(tracer, len(traced)).items()}
        metrics["dimacs.parse_s"] = (
            statistics.median(t.seconds for t in parse), "s")
        metrics["trace.overhead"] = (
            sum(t.timing.seconds for t in traced)
            / sum(a.timing.seconds for a in first), "ratio")
        human.update(metrics)
    else:
        headrooms = [o.headroom for o in first if o.headroom is not None]
        metrics = {
            "solves_per_s": (solves_per_s(attempts), "1/s"),
            "solve_s.p50": (latency(attempts, 0.5), "s"),
            "headroom_bits.min": (min(headrooms, default=0), "bits"),
            "peak_rss_mib": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (setup_s, "s"),
        }
        human.update(metrics)
        if len(attempts) >= P90_MIN_SOLVES:
            human["solve_s.p90"] = (latency(attempts, 0.9), "s")
        human["solves_per_s.wall"] = (solves_per_s(attempts, wall=True),
                                      "1/s")
        human["solve_s.p50.wall"] = (latency(attempts, 0.5, wall=True), "s")
        human["setup_s.wall"] = (
            statistics.median(t.wall for t in setup), "s")
    human["fail_rate"] = (len(failures) / len(first), "ratio")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": {"name": workload.name, "shape": workload.shape,
                     "why": workload.why, "size": workload.size},
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": correct,
        "attempted": len(first), "failed": len(failures),
        "solves": len(attempts),
        "failures": failures, "trace_mismatches": notes,
        "digest": digest(first), "digest_instances": len(first),
        "instances": [{"seed": c.seed, "params": list(c.params),
                       "status": o.status, "wall_s": o.timing.wall,
                       "counts": o.counts} for c, o in zip(cases, first)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in human.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        with gzip.open(OUT / f"{stem}.spans.json.gz", "wt",
                       compresslevel=1) as fh:
            fh.write(json.dumps(tracer.to_json()))

    print(f"workload {workload.name}: {workload.shape}; seed {args.seed}; "
          f"{len(attempts)} solves of {len(cases)} instances, closed loop, "
          f"one caller")
    print(f"environment: python {env['python']}, nproc {env['nproc']}, "
          f"calibration loop {env['calibration_s']:.6f} s; times below are "
          f"scaled to a {REFERENCE_LOOP_S} s loop, .wall ones are not")
    for name, (value, unit) in human.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"digest {report['digest']}")
    for failure in failures:
        print(f"failed seed {failure['seed']}: {failure['detail']}")
    for note in notes:
        print(f"trace mismatch: {note}")
    print(json.dumps({
        "correct": correct, "attempted": len(first),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
