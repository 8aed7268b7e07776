"""DIMACS min-cost-flow text format.

Instances::

    c comment
    p min <nodes> <arcs>
    n <node> <supply>
    a <tail> <head> <low> <cap> <cost>

Nodes are 1..<nodes>, at most one more than the ``a`` (two each) and
``n`` (one each) lines can name. A positive supply means the node
produces flow, a negative one means it consumes; internally demands are
stored as net inflow, so b_v = -supply_v. Lower bounds must be 0 and
capacities must be at least 1. ``format_instance`` writes an ``n`` line
for every node with a nonzero supply or that no arc names, so its text
always reads back; it refuses node ids other than 1..n. Solutions::

    s <objective>
    f <tail> <head> <flow>
    y <node> <potential>

``f`` lines appear in the instance's arc order, which is what makes
parallel arcs unambiguous. An infeasible instance's solution is::

    s infeasible
    x <node>

with one ``x`` line per node of a cut whose demand exceeds the capacity
of the arcs entering it.

Numbers are optionally signed ASCII decimals: a record line with ``_``,
a non-ASCII character or a control character other than tab is a format
error; a comment may hold any text. Lines end at ``\\n``, ``\\r\\n`` or
``\\r``.
"""

from __future__ import annotations

from typing import Iterator

from .errors import FormatError, UnsupportedFeatureError
from .graph_core import MultiGraph
from .instance_pipeline import RawInstance, SolveResult

__all__ = [
    "parse_instance",
    "format_instance",
    "parse_solution",
    "format_solution",
    "format_infeasible",
]


def _records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) for each line of ``text`` that is neither
    blank nor a ``c`` comment, which must be printable ASCII, tabs
    aside, without ``_``: ``int`` would read ``1_0`` and non-ASCII
    digits as numbers. Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only,
    the universal newlines the CLI reads files with; ``str.splitlines``
    would also end one at a form feed or U+2028, which an editor shows
    inside the line."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw_line in enumerate(lines, 1):
        line = raw_line.strip()
        if line and not line.startswith("c"):
            if not raw_line.isascii() or "_" in line:
                raise FormatError(f"line {lineno}: record holds '_' or "
                                  "a non-ASCII character")
            if not raw_line.replace("\t", " ").isprintable():
                raise FormatError(
                    f"line {lineno}: record holds a control character")
            yield lineno, line.split()


def parse_instance(text: str) -> RawInstance:
    n_nodes = n_arcs = None
    supplies: dict[int, int] = {}
    arcs: list[tuple[int, int]] = []
    caps: list[int] = []
    costs: list[int] = []
    for lineno, fields in _records(text):
        kind = fields[0]
        try:
            if kind == "p":
                if n_nodes is not None:
                    raise FormatError(f"line {lineno}: second problem line")
                if len(fields) != 4 or fields[1] != "min":
                    raise FormatError(f"line {lineno}: expected 'p min <n> <m>'")
                n_nodes, n_arcs = int(fields[2]), int(fields[3])
                p_line = lineno
                if n_nodes < 1 or n_arcs < 0:
                    raise FormatError(f"line {lineno}: bad problem dimensions")
            elif kind == "n":
                if n_nodes is None:
                    raise FormatError(f"line {lineno}: node line before problem line")
                if len(fields) != 3:
                    raise FormatError(f"line {lineno}: expected 'n <node> <supply>'")
                v, supply = int(fields[1]), int(fields[2])
                if not 1 <= v <= n_nodes:
                    raise FormatError(f"line {lineno}: node {v} out of range")
                if v in supplies:
                    raise FormatError(f"line {lineno}: duplicate supply for node {v}")
                supplies[v] = supply
            elif kind == "a":
                if n_nodes is None:
                    raise FormatError(f"line {lineno}: arc line before problem line")
                if len(fields) != 6:
                    raise FormatError(
                        f"line {lineno}: expected 'a <tail> <head> <low> <cap> <cost>'")
                tail, head, low, cap, cost = map(int, fields[1:])
                if not (1 <= tail <= n_nodes and 1 <= head <= n_nodes):
                    raise FormatError(f"line {lineno}: arc endpoint out of range")
                if low != 0:
                    raise UnsupportedFeatureError(
                        f"line {lineno}: nonzero lower bounds are not supported")
                if cap < 1:
                    raise FormatError(
                        f"line {lineno}: capacity must be at least 1")
                arcs.append((tail, head))
                caps.append(cap)
                costs.append(cost)
            else:
                raise FormatError(f"line {lineno}: unknown record type {kind!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if n_nodes is None:
        raise FormatError("missing problem line")
    if len(arcs) != n_arcs:
        raise FormatError(f"problem line promises {n_arcs} arcs, found {len(arcs)}")
    if sum(supplies.values()) != 0:
        raise FormatError("supplies do not sum to zero")
    # refuse nodes no record can name (a lone node aside) before
    # allocating any
    if n_nodes > 2 * len(arcs) + len(supplies) + 1:
        raise FormatError(
            f"line {p_line}: problem line declares {n_nodes} nodes, more "
            f"than {len(arcs)} arc and {len(supplies)} node lines can name")
    b = {v: -supplies.get(v, 0) for v in range(1, n_nodes + 1)}
    return RawInstance(MultiGraph(list(range(1, n_nodes + 1)), arcs), b,
                       caps, costs)


def format_instance(inst: RawInstance, comment: str | None = None) -> str:
    """Text that ``parse_instance`` reads back equal; nodes must be 1..n."""
    g = inst.graph
    if sorted(g.nodes) != list(range(1, g.n + 1)):
        raise ValueError("DIMACS node ids must be exactly 1..n")
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"c {row}")
    lines.append(f"p min {g.n} {g.m}")
    named = {v for arc in g.arcs for v in arc}
    for v in g.nodes:
        if inst.b[v] or v not in named:
            lines.append(f"n {v} {-inst.b[v]}")
    for a, (tail, head) in enumerate(g.arcs):
        lines.append(f"a {tail} {head} 0 {inst.u[a]} {inst.c[a]}")
    return "\n".join(lines) + "\n"


def format_solution(inst: RawInstance, objective: int, flow: list[int],
                    potentials: dict[int, int]) -> str:
    lines = [f"s {objective}"]
    for a, (tail, head) in enumerate(inst.graph.arcs):
        lines.append(f"f {tail} {head} {flow[a]}")
    for v in inst.graph.nodes:
        lines.append(f"y {v} {potentials[v]}")
    return "\n".join(lines) + "\n"


def format_infeasible(cut: list[int]) -> str:
    lines = ["s infeasible"] + [f"x {v}" for v in cut]
    return "\n".join(lines) + "\n"


def parse_solution(text: str, inst: RawInstance) -> SolveResult:
    """Read a solution against its instance into a ``SolveResult`` with
    empty ``components``; flow lines are matched to arcs in order of
    appearance."""
    objective = None
    infeasible = False
    flow: list[int] = []
    potentials: dict[int, int] = {}
    cut: dict[int, None] = {}  # insertion-ordered set
    for lineno, fields in _records(text):
        try:
            if fields[0] == "s":
                if objective is not None or infeasible:
                    raise FormatError(f"line {lineno}: second objective line")
                if len(fields) != 2:
                    raise FormatError(
                        f"line {lineno}: expected 's <objective>' or "
                        "'s infeasible'")
                if fields[1] == "infeasible":
                    infeasible = True
                else:
                    objective = int(fields[1])
            elif fields[0] == "f":
                if len(fields) != 4:
                    raise FormatError(f"line {lineno}: expected 'f <tail> <head> <flow>'")
                tail, head, value = int(fields[1]), int(fields[2]), int(fields[3])
                a = len(flow)
                if a >= inst.graph.m or inst.graph.arcs[a] != (tail, head):
                    raise FormatError(
                        f"line {lineno}: flow lines must follow the instance's "
                        "arc order")
                flow.append(value)
            elif fields[0] == "y":
                if len(fields) != 3:
                    raise FormatError(f"line {lineno}: expected 'y <node> <potential>'")
                v, potential = int(fields[1]), int(fields[2])
                if v not in inst.b:  # b holds one entry per node
                    raise FormatError(f"line {lineno}: node {v} out of range")
                if v in potentials:
                    raise FormatError(f"line {lineno}: duplicate potential for node {v}")
                potentials[v] = potential
            elif fields[0] == "x":
                if len(fields) != 2:
                    raise FormatError(f"line {lineno}: expected 'x <node>'")
                v = int(fields[1])
                if v not in inst.b:
                    raise FormatError(f"line {lineno}: node {v} out of range")
                if v in cut:
                    raise FormatError(f"line {lineno}: duplicate cut node {v}")
                cut[v] = None
            else:
                raise FormatError(f"line {lineno}: unknown record type {fields[0]!r}")
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if infeasible:
        if flow or potentials:
            raise FormatError("an infeasible solution has no 'f' or 'y' lines")
        return SolveResult("infeasible", None, None, None, cut=list(cut))
    if objective is None:
        raise FormatError("missing objective line")
    if cut:
        raise FormatError("'x' lines belong only to an infeasible solution")
    if len(flow) != inst.graph.m:
        raise FormatError(f"expected {inst.graph.m} flow lines, found {len(flow)}")
    missing = [v for v in inst.graph.nodes if v not in potentials]
    if missing:
        raise FormatError(f"missing potentials for nodes {missing}")
    return SolveResult("optimal", flow, potentials, objective)
