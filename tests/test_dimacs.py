"""DIMACS min-cost-flow text format: parsing, formatting, round trips."""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeflow.dimacs import (format_infeasible, format_instance,
                                format_solution, parse_instance,
                                parse_solution)
from latticeflow.errors import FormatError, UnsupportedFeatureError
from latticeflow.graph_core import MultiGraph
from latticeflow.instance_pipeline import RawInstance, SolveResult
from latticeflow.reference_oracle import ssp_solve
from latticeflow.solver import solve

from helpers import DIMACS_TOKENS, E1, TRIANGLE


def test_parse_triangle():
    inst = parse_instance(TRIANGLE)
    assert inst.graph.nodes == [1, 2, 3]
    assert inst.graph.arcs == [(1, 2), (2, 3), (1, 3)]
    # supply 2 at node 1 means it ships out: b is negative there
    assert inst.b == {1: -2, 2: 0, 3: 2}
    assert inst.u == [2, 2, 1]
    assert inst.c == [1, 1, 3]


def test_roundtrip_through_format():
    inst = parse_instance(TRIANGLE)
    again = parse_instance(format_instance(inst, comment="roundtrip"))
    assert again.graph.nodes == inst.graph.nodes
    assert again.graph.arcs == inst.graph.arcs
    assert again.b == inst.b and again.u == inst.u and again.c == inst.c


def test_format_skips_zero_supply_nodes():
    # node 2 has no supply and an arc names it; no arc names node 4
    inst = RawInstance(MultiGraph([1, 2, 3, 4], [(1, 2), (2, 3)]),
                       {1: -1, 2: 0, 3: 1, 4: 0}, [1, 1], [4, 4])
    lines = format_instance(inst).splitlines()
    assert "n 2 0" not in lines
    assert "n 1 1" in lines and "n 3 -1" in lines and "n 4 0" in lines


_HUGE = st.integers(-10**30, 10**30)


@st.composite
def _instances(draw):
    """Instances on nodes 1..n in any order, with arc-less nodes,
    self-loops, parallel arcs and values up to 10^30 in size."""
    n = draw(st.integers(1, 6))
    nodes = draw(st.permutations(range(1, n + 1)))
    arcs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n),
                                   st.integers(1, 10**30), _HUGE), max_size=8))
    supplies = [draw(_HUGE) for _ in nodes[1:]]
    b = dict(zip(nodes, [-sum(supplies), *supplies]))
    return RawInstance(MultiGraph(nodes, [a[:2] for a in arcs]), b,
                       [a[2] for a in arcs], [a[3] for a in arcs])


@settings(max_examples=200, deadline=None)
@given(_instances(), st.one_of(st.none(), st.text()))
def test_every_formatted_instance_reads_back(inst, comment):
    again = parse_instance(format_instance(inst, comment=comment))
    assert set(again.graph.nodes) == set(inst.graph.nodes)
    assert again.graph.arcs == inst.graph.arcs
    assert again.b == inst.b and again.u == inst.u and again.c == inst.c


@pytest.mark.parametrize("nodes", [[2, 5, 9], [0, 1], [1, 3]])
def test_format_refuses_node_ids_other_than_one_to_n(nodes):
    inst = RawInstance(MultiGraph(nodes, []), {v: 0 for v in nodes}, [], [])
    with pytest.raises(ValueError, match="exactly 1..n"):
        format_instance(inst)


def test_negative_costs_allowed():
    inst = parse_instance("p min 2 1\na 1 2 0 4 -7\n")
    assert inst.c == [-7]


def test_nonzero_lower_bound_rejected():
    with pytest.raises(UnsupportedFeatureError):
        parse_instance("p min 2 1\na 1 2 1 4 0\n")


MALFORMED = [
    ("p min 2 1\na 1 2 0 0 5\n", "^line 2: capacity must be at least 1$"),
    ("p min 2 1\na 1 2 0 -3 5\n", "^line 2: capacity must be at least 1$"),
    ("p min 2 2\na 1 2 0 1 0\n", "^problem line promises 2 arcs, found 1$"),
    ("p min 2 1\nn 1 1\na 1 2 0 1 0\n", "^supplies do not sum to zero$"),
    ("p min 2 1\nn 1 1\nn 1 -1\na 1 2 0 1 0\n",
     "^line 3: duplicate supply for node 1$"),
    ("p min 2 1\nn 7 0\na 1 2 0 1 0\n", "^line 2: node 7 out of range$"),
    ("p min 2 1\na 1 5 0 1 0\n", "^line 2: arc endpoint out of range$"),
    ("p min 2 1\np min 2 1\na 1 2 0 1 0\n", "^line 2: second problem line$"),
    ("a 1 2 0 1 0\n", "^line 1: arc line before problem line$"),
    ("p max 2 1\na 1 2 0 1 0\n", "^line 1: expected 'p min <n> <m>'$"),
    ("p min 2 1\na 1 2 0 1\n",
     "^line 2: expected 'a <tail> <head> <low> <cap> <cost>'$"),
    ("p min 2 1\nq nonsense\na 1 2 0 1 0\n",
     "^line 2: unknown record type 'q'$"),
    ("", "^missing problem line$"),
    # more nodes than records name
    ("p min 1000000 0\n", "^line 1: problem line declares 1000000 nodes"),
    ("p min 2 1\nn 1\na 1 2 0 1 0\n", "^line 2: expected 'n <node> <supply>'$"),
    # int() writes the message of a field that is not a number
    ("p min 2 1\na 1 2 0 x 3\n", "^line 2: "),
]


@pytest.mark.parametrize("text,message", MALFORMED,
                         ids=[text for text, _ in MALFORMED])
def test_malformed_inputs(text, message):
    with pytest.raises(FormatError, match=message):
        parse_instance(text)


# node 2 demands 5 units and only 4 can enter it
UNMET = RawInstance(MultiGraph([1, 2, 3], [(1, 2), (3, 2)]),
                    {1: -4, 2: 5, 3: -1}, [3, 1], [1, 2])


def _answer_text(inst: RawInstance, result: SolveResult) -> str:
    if result.status == "infeasible":
        return format_infeasible(result.cut)
    return format_solution(inst, result.objective, result.flow,
                           result.potentials)


def test_solution_roundtrip():
    inst = parse_instance(TRIANGLE)
    text = format_solution(inst, 4, [2, 2, 0], {1: 0, 2: 1, 3: 2})
    assert parse_solution(text, inst) == SolveResult(
        "optimal", [2, 2, 0], {1: 0, 2: 1, 3: 2}, 4)
    # an answer reads back as the same record, less solve's stats
    for result in (solve(E1), ssp_solve(E1)):
        assert parse_solution(_answer_text(E1, result), E1) == (
            dataclasses.replace(result, components=[]))


def test_infeasible_solution_roundtrip():
    inst = parse_instance(TRIANGLE)
    text = format_infeasible([3, 1])
    assert text == "s infeasible\nx 3\nx 1\n"
    assert parse_solution(text, inst) == SolveResult(
        "infeasible", None, None, None, cut=[3, 1])
    # a cut may be empty in the file; the certificate check rejects it
    assert parse_solution("s infeasible\n", inst).cut == []
    for result in (solve(UNMET), ssp_solve(UNMET)):
        assert result.status == "infeasible"
        assert parse_solution(_answer_text(UNMET, result), UNMET) == (
            dataclasses.replace(result, components=[]))


@pytest.mark.parametrize("text,message", [
    ("s infeasible\nx 1\nx 4\n", "line 3: node 4 out of range"),
    ("s infeasible\nx 2\nx 2\n", "line 3: duplicate cut node 2"),
    ("s infeasible\nx 1 2\n", "line 2: expected 'x <node>'"),
    ("s infeasible\ns 4\n", "line 2: second objective line"),
    ("s infeasible\nx 1\ny 1 0\n", "no 'f' or 'y' lines"),
    ("s 4\nf 1 2 2\nf 2 3 2\nf 1 3 0\ny 1 0\ny 2 1\ny 3 2\nx 1\n",
     "'x' lines belong only to an infeasible solution"),
    # a solution file holds no other kind, an instance's neither
    ("s 4\nq 1\n", "^line 2: unknown record type 'q'$"),
    ("s 4\np min 3 3\n", "^line 2: unknown record type 'p'$"),
])
def test_parse_solution_rejects_bad_cut_lines(text, message):
    with pytest.raises(FormatError, match=message):
        parse_solution(text, parse_instance(TRIANGLE))


# per record kind: its form as the error names it, the lines a text
# needs before it, and one valid record of that kind
RECORD_FORMS = [
    ("p", "p min <n> <m>", "", "p min 3 3"),
    ("n", "n <node> <supply>", "p min 3 3\n", "n 1 2"),
    ("a", "a <tail> <head> <low> <cap> <cost>", "p min 3 3\n", "a 1 2 0 2 1"),
    ("s", "s <objective>' or 's infeasible", "", "s 4"),
    ("f", "f <tail> <head> <flow>", "s 4\n", "f 1 2 2"),
    ("y", "y <node> <potential>", "s 4\n", "y 1 0"),
    ("x", "x <node>", "s infeasible\n", "x 1"),
]


@pytest.mark.parametrize("words", [-1, 1], ids=["too-few", "too-many"])
@pytest.mark.parametrize("kind,form,before,record", RECORD_FORMS,
                         ids=[kind for kind, *_ in RECORD_FORMS])
def test_record_with_the_wrong_field_count_names_its_form(kind, form, before,
                                                          record, words):
    fields = record.split()
    fields = fields[:-1] if words < 0 else fields + ["1"]
    text = before + " ".join(fields) + "\n"
    line = before.count("\n") + 1
    parse = (parse_instance if kind in "pna"
             else lambda t: parse_solution(t, parse_instance(TRIANGLE)))
    with pytest.raises(FormatError,
                       match=f"^line {line}: expected '{re.escape(form)}'$"):
        parse(text)


def test_solution_lines_present():
    inst = parse_instance(TRIANGLE)
    text = format_solution(inst, 4, [2, 2, 0], {1: 0, 2: 1, 3: 2})
    lines = text.splitlines()
    assert lines[0] == "s 4"
    assert "f 1 2 2" in lines
    assert "f 1 3 0" in lines
    assert "y 3 2" in lines


def test_parse_solution_requires_arc_order():
    inst = parse_instance(TRIANGLE)
    shuffled = "s 4\nf 2 3 2\nf 1 2 2\nf 1 3 0\ny 1 0\ny 2 1\ny 3 2\n"
    with pytest.raises(FormatError):
        parse_solution(shuffled, inst)


def test_parse_solution_missing_potential():
    inst = parse_instance(TRIANGLE)
    text = "s 4\nf 1 2 2\nf 2 3 2\nf 1 3 0\ny 1 0\ny 2 1\n"
    with pytest.raises(FormatError, match=r"^missing potentials for nodes \[3\]$"):
        parse_solution(text, inst)
    # a missing flow line is refused the same way
    text = "s 4\nf 1 2 2\nf 2 3 2\ny 1 0\ny 2 1\ny 3 2\n"
    with pytest.raises(FormatError, match="^expected 3 flow lines, found 2$"):
        parse_solution(text, inst)


TWO_NODES = "p min 2 1\nn 1 1\nn 2 -1\na 1 2 0 2 3\n"


@pytest.mark.parametrize("potentials,message", [
    ("y 1 0\ny 2 3\ny 99 7\n", "line 5: node 99 out of range"),
    ("y 0 0\ny 1 0\ny 2 3\n", "line 3: node 0 out of range"),
    ("y 1 9\ny 1 0\ny 2 3\n", "line 4: duplicate potential for node 1"),
])
def test_parse_solution_rejects_bad_potential_lines(potentials, message):
    inst = parse_instance(TWO_NODES)
    # without the bad line this is the optimum: 1 unit at cost 3
    assert parse_solution("s 3\nf 1 2 1\ny 1 0\ny 2 3\n",
                          inst).potentials == {1: 0, 2: 3}
    with pytest.raises(FormatError, match=message):
        parse_solution("s 3\nf 1 2 1\n" + potentials, inst)


# int() alone would read 1_0 as 10 and the fullwidth 2 and the
# Arabic-Indic 1 as numbers, and str.split() splits at a no-break space
@pytest.mark.parametrize("bad", ["1_0", "\uff12", "\u0661", "1\u00a00"])
def test_parsers_take_only_ascii_decimals(bad):
    message = "record holds '_' or a non-ASCII character"
    with pytest.raises(FormatError, match=f"^line 2: {message}$"):
        parse_instance(f"p min 2 1\na 1 2 0 {bad} 3\nn 1 1\nn 2 -1\n")
    inst = parse_instance(TWO_NODES)
    with pytest.raises(FormatError, match=f"^line 4: {message}$"):
        parse_solution(f"s 3\nf 1 2 1\ny 1 0\ny 2 {bad}\n", inst)


def test_parsers_take_signs_leading_zeros_and_any_comment():
    inst = parse_instance(
        "c caf\u00e9 \uff12\np min 2 1\nn 1 +1\nn 2 -1\na 1 2 0 07 +3\n")
    assert (inst.b, inst.u, inst.c) == ({1: -1, 2: 1}, [7], [3])
    sol = parse_solution("c \u0661\ns +3\nf 1 2 01\ny 1 0\ny 2 +3\n", inst)
    assert sol == SolveResult("optimal", [1], {1: 0, 2: 3}, 3)


# str.splitlines() also breaks lines at these; the parsers break them
# only at universal newlines, so each is a format error on its own line,
# also where it only separates two fields of one record
@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                  "\x85", "\u2028", "\u2029"])
def test_parsers_break_lines_only_at_newlines(char):
    with pytest.raises(FormatError, match="^line 2: "):
        parse_instance(f"p min 2 2\na 1 2 0 1 1{char}a 2 1 0 1 1\n")
    with pytest.raises(FormatError, match="^line 2: "):
        parse_instance(f"p min 2 1\na 1 2 0 1{char}1\n")
    inst = parse_instance(TWO_NODES)
    with pytest.raises(FormatError, match="^line 2: "):
        parse_solution(f"s 3\nf 1 2 1{char}y 1 0\ny 2 3\n", inst)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_parsers_read_universal_newlines(newline):
    inst = parse_instance(TRIANGLE)
    # a tab is the one control character a record may hold
    assert parse_instance("p min 2 1\na\t1 2 0 1\t1\n").c == [1]
    again = parse_instance(TRIANGLE.replace("\n", newline))
    assert again.graph.nodes == inst.graph.nodes
    assert again.graph.arcs == inst.graph.arcs
    assert again.b == inst.b and again.u == inst.u and again.c == inst.c
    text = format_solution(inst, 4, [2, 2, 0], {1: 0, 2: 1, 3: 2})
    assert (parse_solution(text.replace("\n", newline), inst)
            == parse_solution(text, inst))


_TEXT = st.lists(st.lists(DIMACS_TOKENS, max_size=7), max_size=10).map(
    lambda lines: "\n".join(" ".join(tokens) for tokens in lines))


@settings(max_examples=300, deadline=None)
@given(_TEXT)
def test_parsers_raise_only_format_errors(text):
    try:
        parse_instance(text)
    except FormatError:
        pass
    try:
        parse_solution(text, parse_instance(TRIANGLE))
    except FormatError:
        pass
