"""Command line front end.

Subcommands: solve (interior point + crossover), oracle (the slow
reference solver, same output format), verify (check a solution file's
optimality or infeasibility certificate against its instance), gen
(seeded random instances), and
trace (solve while streaming per-iteration JSON records). solve and
trace take an instance file and ``--seed``; the magnitude monitor and
the invariant checks always run.

Exit codes: 0 success, 1 usage or input format problems, 2 proven
infeasible (``verify``: a valid infeasibility certificate), 3 internal
guard tripped (iteration ceiling, centering stall, magnitude bound,
invariant failure) or a certificate that fails verification.
"""

from __future__ import annotations

import argparse
import json
import sys

from .dimacs import (
    format_infeasible,
    format_instance,
    format_solution,
    parse_instance,
    parse_solution,
)
from .errors import FormatError, LatticeFlowError
from .reference_oracle import (random_instance, ssp_solve, verify_certificate,
                               verify_cut)
from .solver import SolveConfig, SolveResult, solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_GUARD = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeflow",
        description="Exact integer min-cost flow via interior point "
                    "path following.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_args(p):
        p.add_argument("instance", help="DIMACS min-cost-flow file")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for the randomized centering (default 0)")

    p_solve = sub.add_parser(
        "solve", help="solve an instance and print the certified optimum",
        description="Solve a DIMACS instance. Note the sign convention: "
                    "'n <node> <supply>' gives the amount the node ships "
                    "out; printed 'y' lines are dual potentials.")
    add_solver_args(p_solve)
    p_solve.set_defaults(run=_cmd_solve, trace=False)

    p_trace = sub.add_parser(
        "trace", help="solve while streaming per-iteration JSON records",
        description="Each line is one outer iteration: iter, mu, "
                    "minor_arcs, contracted, deleted, gap_sum, max_abs.")
    add_solver_args(p_trace)
    p_trace.set_defaults(run=_cmd_solve, trace=True)

    p_oracle = sub.add_parser(
        "oracle", help="solve with the slow reference implementation")
    p_oracle.add_argument("instance")
    p_oracle.set_defaults(run=_cmd_oracle)

    p_verify = sub.add_parser(
        "verify", help="check a solution file against its instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("solution")
    p_verify.set_defaults(run=_cmd_verify)

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
    p_gen.set_defaults(run=_cmd_gen)
    return parser


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _cmd_solve(args) -> int:
    inst = parse_instance(_read(args.instance))

    def print_row(event: str, payload: dict) -> None:
        if event == "iterate":
            print(json.dumps(payload), flush=True)

    result = solve(inst, SolveConfig(seed=args.seed),
                   probe=print_row if args.trace else None)
    return _report(inst, result, write=not args.trace)


def _cmd_oracle(args) -> int:
    inst = parse_instance(_read(args.instance))
    return _report(inst, ssp_solve(inst), write=True)


def _report(inst, result: SolveResult, write: bool) -> int:
    """Note an infeasible verdict on stderr, print the cut or solution
    text when ``write``, and return the verdict's exit code."""
    infeasible = result.status == "infeasible"
    if infeasible:
        print("latticeflow: instance is infeasible", file=sys.stderr)
    if write:
        sys.stdout.write(format_infeasible(result.cut) if infeasible else
                         format_solution(inst, result.objective, result.flow,
                                         result.potentials))
    return EXIT_INFEASIBLE if infeasible else EXIT_OK


def _cmd_verify(args) -> int:
    inst = parse_instance(_read(args.instance))
    claim = parse_solution(_read(args.solution), inst)
    if claim.status == "infeasible":
        report = verify_cut(inst, claim.cut)
        if report.ok:
            print("infeasibility certificate ok")
            return EXIT_INFEASIBLE
    else:
        report = verify_certificate(inst, claim.flow, claim.potentials)
        if report.ok and report.objective == claim.objective:
            print("certificate ok")
            return EXIT_OK
        if report.objective != claim.objective:
            report.failures.append(f"stated objective {claim.objective} != "
                                   f"actual {report.objective}")
    for failure in report.failures:
        print(f"certificate failure: {failure}", file=sys.stderr)
    return EXIT_GUARD


def _cmd_gen(args) -> int:
    inst = random_instance(args.seed, args.nodes, args.arcs, args.max_cap,
                           args.max_cost, args.mode)
    sys.stdout.write(format_instance(
        inst, comment=f"seed {args.seed} mode {args.mode}"))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage errors exit with 2
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.run(args)
    except (FormatError, ValueError) as exc:
        print(f"latticeflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LatticeFlowError as exc:  # every other one is a guard
        print(f"latticeflow: internal guard tripped: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
