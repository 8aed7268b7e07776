"""Command line entry points: exit codes, output shape, determinism."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow import errors
from latticeflow.cli import main

from helpers import DIMACS_TOKENS, TRIANGLE, round_at_the_proxy_exit

INFEASIBLE = """\
p min 2 1
n 1 5
n 2 -5
a 1 2 0 3 1
"""


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.dimacs"
    path.write_text(TRIANGLE)
    return str(path)


def test_solve_triangle(triangle_file, capsys):
    assert main(["solve", triangle_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "s 4" in lines
    assert "f 1 2 2" in lines
    assert "f 2 3 2" in lines
    assert "f 1 3 0" in lines


def test_solve_infeasible(tmp_path, capsys):
    path = tmp_path / "bad.dimacs"
    path.write_text(INFEASIBLE)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert "infeasible" in captured.err
    # node 2 demands 5 units and only 3 can enter it
    assert captured.out == "s infeasible\nx 2\n"
    # trace prints rows only, and no component ran
    assert main(["trace", str(path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cut,code,message", [
    ("x 2\n", 2, "infeasibility certificate ok"),
    ("x 1\n", 2, "infeasibility certificate ok"),  # mirror form
    ("x 1\nx 2\n", 3, "certificate failure: cut's net demand 0"),
    ("", 3, "certificate failure: cut's net demand 0"),
])
def test_verify_checks_an_infeasibility_cut(tmp_path, capsys, cut, code,
                                            message):
    inst_path = tmp_path / "bad.dimacs"
    inst_path.write_text(INFEASIBLE)
    sol_path = tmp_path / "bad.sol"
    sol_path.write_text("s infeasible\n" + cut)
    assert main(["verify", str(inst_path), str(sol_path)]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err


def test_solve_then_verify_infeasible(tmp_path, capsys):
    inst_path = tmp_path / "bad.dimacs"
    inst_path.write_text(INFEASIBLE)
    assert main(["solve", str(inst_path)]) == 2
    sol_path = tmp_path / "bad.sol"
    sol_path.write_text(capsys.readouterr().out)
    assert main(["verify", str(inst_path), str(sol_path)]) == 2
    assert capsys.readouterr().out == "infeasibility certificate ok\n"


def test_oracle_then_verify_infeasible(tmp_path, capsys):
    # the oracle prints the nodes its last path search cannot reach, a
    # Gale cut that verify accepts; both exit with code 2
    inst_path = tmp_path / "bad.dimacs"
    inst_path.write_text(INFEASIBLE)
    assert main(["oracle", str(inst_path)]) == 2
    captured = capsys.readouterr()
    assert "infeasible" in captured.err
    assert captured.out == "s infeasible\nx 2\n"
    sol_path = tmp_path / "bad.sol"
    sol_path.write_text(captured.out)
    assert main(["verify", str(inst_path), str(sol_path)]) == 2
    assert capsys.readouterr().out == "infeasibility certificate ok\n"


def test_verify_rejects_a_cut_for_a_feasible_instance(triangle_file,
                                                      tmp_path, capsys):
    sol_path = tmp_path / "tri.sol"
    sol_path.write_text("s infeasible\nx 3\n")
    assert main(["verify", triangle_file, str(sol_path)]) == 3
    assert "certificate failure" in capsys.readouterr().err


def test_missing_file():
    assert main(["solve", "/nonexistent/nope.dimacs"]) == 1


def test_malformed_file(tmp_path):
    path = tmp_path / "junk.dimacs"
    path.write_text("this is not dimacs\n")
    assert main(["solve", str(path)]) == 1


def test_usage_error(triangle_file, capsys):
    # argparse's usage errors exit 1, not argparse's 2
    assert main(["solve"]) == 1
    assert ("error: the following arguments are required: instance"
            in capsys.readouterr().err)
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    # the solver subcommands take only INSTANCE [--seed N]
    assert main(["solve", triangle_file, "--strict-gamma"]) == 1
    assert main(["solve", triangle_file, "--monitor", "log"]) == 1
    assert main(["trace", triangle_file, "--no-invariant-checks"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: latticeflow")


def test_huge_node_count_fails_at_once_naming_its_line(tmp_path, capsys):
    # no record names any of the 10^9 nodes, so the parser refuses the
    # count before allocating a node
    path = tmp_path / "huge.dimacs"
    path.write_text("p min 1000000000 0\n")
    assert main(["solve", str(path)]) == 1
    assert ("line 1: problem line declares 1000000000 nodes"
            in capsys.readouterr().err)


def test_capacity_of_10_to_the_200_solves_and_verifies(tmp_path, capsys):
    # each max-flow augmentation pushes its whole bottleneck at once
    big = 10**200
    inst = tmp_path / "big.dimacs"
    inst.write_text(f"p min 2 1\nn 1 {big}\nn 2 -{big}\na 1 2 0 {big} 1\n")
    assert main(["solve", str(inst)]) == 0
    sol = tmp_path / "big.sol"
    sol.write_text(capsys.readouterr().out)
    assert f"s {big}" in sol.read_text().splitlines()
    assert main(["verify", str(inst), str(sol)]) == 0
    assert capsys.readouterr().out == "certificate ok\n"


# generated instances: gen's default shape; a sparse one, 40 nodes and
# 48 arcs, so long fundamental cycles and deep forests; one at
# U = C = 10^12, where the rounding certifies mid-path, well before the
# proxy exit; and an infeasible one
GENERATED = {
    "default": ["--seed", "1"],
    "sparse-40": ["--seed", "2", "--nodes", "40", "--arcs", "48",
                  "--max-cap", "10", "--max-cost", "10"],
    "bigint-1e12": ["--seed", "1", "--nodes", "8", "--arcs", "16",
                    "--max-cap", str(10**12), "--max-cost", str(10**12)],
    "infeasible": ["--seed", "3", "--mode", "random"],
}


@pytest.mark.parametrize("flags", GENERATED.values(), ids=GENERATED)
def test_generated_instance_round_trip(tmp_path, capsys, flags):
    """solve and oracle answers both verify and state the same 's'
    line, and two traces with one seed are the same bytes. The
    infeasible instance exits 2 at every step: each solver prints a cut
    that verify accepts, and its trace prints no row."""
    infeasible = "random" in flags
    code = 2 if infeasible else 0
    verdict = ("infeasibility certificate ok\n" if infeasible
               else "certificate ok\n")
    assert main(["gen", *flags]) == 0
    inst = tmp_path / "inst.dimacs"
    inst.write_text(capsys.readouterr().out)
    stated = []
    for command in ("solve", "oracle"):
        assert main([command, str(inst)]) == code
        sol = tmp_path / f"{command}.sol"
        sol.write_text(capsys.readouterr().out)
        assert main(["verify", str(inst), str(sol)]) == code
        assert capsys.readouterr().out == verdict
        stated.append([line for line in sol.read_text().splitlines()
                       if line.startswith("s ")])
    assert len(stated[0]) == 1 and stated[0] == stated[1]
    traces = []
    for _ in range(2):
        assert main(["trace", str(inst), "--seed", "1"]) == code
        traces.append(capsys.readouterr().out)
    assert traces[0] == traces[1]
    assert (traces[0] == "") == infeasible


def test_solve_then_verify(triangle_file, tmp_path, capsys):
    assert main(["solve", triangle_file]) == 0
    solution = capsys.readouterr().out
    sol_path = tmp_path / "tri.sol"
    sol_path.write_text(solution)
    assert main(["verify", triangle_file, str(sol_path)]) == 0
    assert "certificate ok" in capsys.readouterr().out


def test_verify_rejects_bare_objective_line(triangle_file, tmp_path, capsys):
    sol_path = tmp_path / "tri.sol"
    sol_path.write_text("s\n")
    assert main(["verify", triangle_file, str(sol_path)]) == 1
    assert "expected 's <objective>'" in capsys.readouterr().err


@pytest.mark.parametrize("potentials,error", [
    ("y 1 0\ny 2 3\ny 99 7\n", "line 5: node 99 out of range"),
    ("y 1 9\ny 1 0\ny 2 3\n", "line 4: duplicate potential for node 1"),
    # int() alone would read this as 10
    ("y 1 0\ny 2 1_0\n", "line 4: record holds '_' or a non-ASCII character"),
])
def test_verify_rejects_bad_potential_lines(tmp_path, capsys, potentials,
                                            error):
    inst_path = tmp_path / "two.dimacs"
    inst_path.write_text("p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 2 3\n")
    sol_path = tmp_path / "two.sol"
    sol_path.write_text("s 3\nf 1 2 1\n" + potentials)
    assert main(["verify", str(inst_path), str(sol_path)]) == 1
    captured = capsys.readouterr()
    assert "certificate ok" not in captured.out
    assert f"latticeflow: {error}" in captured.err


def test_verify_rejects_corrupted(triangle_file, tmp_path, capsys):
    assert main(["solve", triangle_file]) == 0
    solution = capsys.readouterr().out
    # claim a better objective than possible
    solution = solution.replace("s 4", "s 3")
    sol_path = tmp_path / "tri.sol"
    sol_path.write_text(solution)
    assert main(["verify", triangle_file, str(sol_path)]) == 3


def test_oracle_subcommand(triangle_file, capsys):
    assert main(["oracle", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "s 4" in out.splitlines()


def test_trace_emits_json(triangle_file, capsys):
    assert main(["trace", triangle_file]) == 0
    out = capsys.readouterr().out
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows
    keys = {"iter", "mu", "minor_arcs", "contracted", "deleted",
            "gap_sum", "max_abs"}
    for row in rows:
        assert set(row) == keys
    mus = [row["mu"] for row in rows]
    assert mus == sorted(mus, reverse=True)


def test_trace_streams_rows_before_a_guard(triangle_file, capsys,
                                          monkeypatch):
    # the path runs to the proxy exit, so no rounding ends it before the
    # guard trips after iteration 3
    monkeypatch.setattr("latticeflow.solver.crossover",
                        round_at_the_proxy_exit)
    monkeypatch.setattr("latticeflow.ipm_driver.outer_ceiling",
                        lambda m, mu0: 3)
    assert main(["trace", triangle_file]) == 3
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert [row["iter"] for row in rows] == [0, 1, 2, 3]
    assert "internal guard tripped" in captured.err


@pytest.mark.parametrize("error, code", [
    (errors.BoundViolationError, 3), (errors.CenteringStallError, 3),
    (errors.IterationCeilingError, 3), (errors.InvariantError, 3),
    (errors.RoundingRefusedError, 3), (errors.FormatError, 1),
    (errors.UnsupportedFeatureError, 1)])
def test_error_classes_map_to_exit_codes(triangle_file, capsys, monkeypatch,
                                         error, code):
    """Every guard class exits 3 as a tripped guard; the input-format
    classes exit 1."""
    def raising(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr("latticeflow.cli.solve", raising)
    assert main(["solve", triangle_file]) == code
    err = capsys.readouterr().err
    assert "planted" in err
    assert ("internal guard tripped" in err) == (code == 3)


def test_gen_roundtrip(tmp_path, capsys):
    assert main(["gen", "--seed", "7", "--nodes", "4", "--arcs", "6"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.dimacs"
    path.write_text(text)
    code = main(["solve", str(path), "--seed", "1"])
    assert code in (0, 2)


@pytest.mark.parametrize("flags,message", [
    (["--max-cap", "0"], "U_max must be at least 1, got 0"),
    (["--max-cost", "-2"], "C_max must be at least 0, got -2"),
    (["--nodes", "1"], "need at least two nodes"),
    (["--nodes", "5", "--arcs", "3"], "need at least n - 1 arcs"),
])
def test_gen_rejects_bad_sizes(capsys, flags, message):
    assert main(["gen", "--seed", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_solve_deterministic_bytes(triangle_file, capsys):
    assert main(["solve", triangle_file, "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["solve", triangle_file, "--seed", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


_SMALL = st.integers(-3, 9).map(str)
# a 'p' line's node count may be huge: the parser refuses a count its
# records cannot use before allocating any node
_COUNT = st.one_of(_SMALL, st.integers(0, 10**9).map(str))
# soup lines, plus lines with a real keyword
_LINE = st.one_of(
    st.lists(DIMACS_TOKENS, max_size=7).map(" ".join),
    st.tuples(st.sampled_from(["n", "a", "s", "f", "y"]),
              st.lists(_SMALL, min_size=1, max_size=5)).map(
        lambda line: " ".join([line[0], *line[1]])),
    st.tuples(_COUNT, st.lists(_SMALL, max_size=4)).map(
        lambda line: " ".join(["p min", line[0], *line[1]])),
)
_SOUP = st.lists(_LINE, max_size=10).map("\n".join)


@st.composite
def _near_instance(draw):
    """A well-formed instance of up to 3 nodes, half the time with one
    soup line spliced in, so that many texts reach the solver."""
    n = draw(st.integers(1, 3))
    arcs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n),
                                   st.integers(0, 4), st.integers(-3, 9)),
                         max_size=4))
    supply = draw(st.integers(-3, 3))
    lines = [f"p min {n} {len(arcs)}", f"n 1 {supply}", f"n {n} {-supply}"]
    lines += [f"a {t} {h} 0 {cap} {cost}" for t, h, cap, cost in arcs]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_LINE))
    return "\n".join(lines)


# the triangle's solution shape with arbitrary numbers, so that some
# texts reach the certificate check
_NEAR_SOLUTION = st.lists(st.integers(-3, 9), min_size=7, max_size=7).map(
    lambda v: "s {}\nf 1 2 {}\nf 2 3 {}\nf 1 3 {}\ny 1 {}\ny 2 {}\n"
              "y 3 {}\n".format(*v))


@settings(max_examples=150, deadline=None)
@given(instance=st.one_of(_SOUP, _near_instance(), st.just(TRIANGLE)),
       solution=st.one_of(_SOUP, _NEAR_SOLUTION))
def test_any_text_gives_an_exit_code(tmp_path_factory, instance, solution):
    folder = tmp_path_factory.mktemp("fuzz")
    inst_path = folder / "instance.dimacs"
    sol_path = folder / "solution.txt"
    inst_path.write_text(instance)
    sol_path.write_text(solution)
    assert main(["solve", str(inst_path)]) in (0, 1, 2, 3)
    assert main(["verify", str(inst_path), str(sol_path)]) in (0, 1, 2, 3)
