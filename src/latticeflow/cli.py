"""Command line front end.

Subcommands: solve (interior point + crossover), oracle (the slow
reference solver, same output format), verify (check a solution file's
certificate against its instance), gen (seeded random instances), and
trace (solve while streaming per-iteration JSON records).

Exit codes: 0 success, 1 usage or input format problems, 2 proven
infeasible, 3 internal guard tripped (iteration ceiling, centering
stall, magnitude bound, invariant failure).
"""

from __future__ import annotations

import argparse
import json
import sys

from .dimacs import (
    format_instance,
    format_solution,
    parse_instance,
    parse_solution,
)
from .errors import (
    BoundViolationError,
    CenteringStallError,
    FormatError,
    InvariantError,
    IterationCeilingError,
)
from .reference_oracle import random_instance, ssp_solve, verify_certificate
from .solver import SolveConfig, SolveResult, solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_GUARD = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(self._usage_exit(message))

    def _usage_exit(self, message) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="latticeflow",
        description="Exact integer min-cost flow via interior point "
                    "path following.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_args(p):
        p.add_argument("instance", help="DIMACS min-cost-flow file")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized centering (default 0)")
        p.add_argument("--strict-gamma", action="store_true",
                       help="use the larger cost scale factor")
        p.add_argument("--monitor", choices=["strict", "log"],
                       default="strict",
                       help="magnitude monitor mode: strict raises on "
                            "overruns, log only records (default strict)")
        p.add_argument("--no-invariant-checks", action="store_true",
                       help="skip per-iteration exact invariant checks")

    p_solve = sub.add_parser(
        "solve", help="solve an instance and print the certified optimum",
        description="Solve a DIMACS instance. Note the sign convention: "
                    "'n <node> <supply>' gives the amount the node ships "
                    "out; printed 'y' lines are dual potentials.")
    add_solver_args(p_solve)

    p_trace = sub.add_parser(
        "trace", help="solve while streaming per-iteration JSON records",
        description="Each line is one outer iteration: iter, mu, "
                    "minor_arcs, contracted, deleted, gap_sum, max_abs.")
    add_solver_args(p_trace)

    p_oracle = sub.add_parser(
        "oracle", help="solve with the slow reference implementation")
    p_oracle.add_argument("instance")

    p_verify = sub.add_parser(
        "verify", help="check a solution file against its instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--nodes", type=int, default=4)
    p_gen.add_argument("--arcs", type=int, default=6)
    p_gen.add_argument("--max-cap", type=int, default=5)
    p_gen.add_argument("--max-cost", type=int, default=5)
    p_gen.add_argument("--mode", choices=["feasible", "random"],
                       default="feasible",
                       help="feasible instances carry a hidden flow; "
                            "random ones may be infeasible")
    return parser


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _cmd_solve(args, trace: bool) -> int:
    inst = parse_instance(_read(args.instance))
    config = SolveConfig(
        seed=args.seed,
        strict_gamma=args.strict_gamma,
        monitor_mode=args.monitor,
        check_invariants=not args.no_invariant_checks,
    )
    rows: list[dict] = []

    def keep_row(event: str, payload: dict) -> None:
        if event == "iterate":
            rows.append(payload)

    result: SolveResult = solve(inst, config,
                                probe=keep_row if trace else None)
    for row in rows:
        print(json.dumps(row))
    if result.status == "infeasible":
        print("latticeflow: instance is infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    if not trace:
        sys.stdout.write(format_solution(inst, result.objective, result.flow,
                                         result.potentials))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    inst = parse_instance(_read(args.instance))
    sol = ssp_solve(inst)
    if sol.status == "infeasible":
        print("latticeflow: instance is infeasible", file=sys.stderr)
        return EXIT_INFEASIBLE
    sys.stdout.write(format_solution(inst, sol.objective, sol.flow,
                                     sol.potentials))
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    objective, flow, potentials = parse_solution(_read(args.solution), inst)
    report = verify_certificate(inst, flow, potentials)
    if report.ok and report.objective == objective:
        print("certificate ok")
        return EXIT_OK
    for failure in report.failures:
        print(f"certificate failure: {failure}", file=sys.stderr)
    if report.objective != objective:
        print(f"certificate failure: stated objective {objective} != "
              f"actual {report.objective}", file=sys.stderr)
    return EXIT_GUARD


def _cmd_gen(args) -> int:
    if args.nodes < 2 or args.arcs < args.nodes - 1:
        print("latticeflow: gen needs nodes >= 2 and arcs >= nodes - 1",
              file=sys.stderr)
        return EXIT_USAGE
    inst = random_instance(args.seed, args.nodes, args.arcs, args.max_cap,
                           args.max_cost, args.mode)
    sys.stdout.write(format_instance(
        inst, comment=f"seed {args.seed} mode {args.mode}"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "solve":
            return _cmd_solve(args, trace=False)
        if args.command == "trace":
            return _cmd_solve(args, trace=True)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gen":
            return _cmd_gen(args)
        raise AssertionError(f"unhandled command {args.command}")
    except FormatError as exc:
        print(f"latticeflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"latticeflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BoundViolationError, CenteringStallError, InvariantError,
            IterationCeilingError) as exc:
        print(f"latticeflow: internal guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
