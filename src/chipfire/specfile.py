"""Line-oriented input files for the CLI.

Grammar (one directive per line, ``#`` starts a comment):

    banana N0 N1 ...          theta A B C          cycle A B
    graph                     chain
    vertex NAME               component banana|theta|cycle PARAMS...
    edge A B
    mark u VTX                mark v VTX
    divisor VTX:INT [VTX:INT ...]

``graph`` bodies take vertex/edge lines; ``chain`` bodies take component lines,
each component owning the mark lines that follow it.  Banana-family vertices
are addressed as ``s<strand>.<offset>`` with ``L``/``R`` hub aliases.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .divisors import Divisor
from .errors import InvalidGraphError, SpecParseError
from .graphs import Graph, MarkedGraph, build_banana

_FAMILY_KINDS = ("banana", "theta", "cycle")


@dataclass(frozen=True)
class SpecDocument:
    """What a spec file describes, built once at parse time: the graph with its
    marks as written and its resolved divisor, or, with ``graph`` None, the
    marked components of a chain."""

    graph: Graph | None
    chain: tuple[MarkedGraph, ...] = ()
    mark_u: str | None = None
    mark_v: str | None = None
    divisor: Divisor = Divisor()

    def build_graph(self) -> Graph:
        if self.graph is None:
            raise SpecParseError("chain files describe components, not a single graph")
        return self.graph

    def build_marked(self) -> MarkedGraph:
        if self.mark_u is None or self.mark_v is None:
            raise SpecParseError("this command needs both 'mark u' and 'mark v' lines")
        return MarkedGraph(self.build_graph(), self.mark_u, self.mark_v)

    def build_chain(self) -> list[MarkedGraph]:
        if self.graph is not None:
            raise SpecParseError("not a chain file")
        return list(self.chain)

    def canonical_text(self) -> str:
        g = self.graph
        if g is None:
            lines = ["chain"]
            for mg in self.chain:
                lengths = " ".join(map(str, mg.graph.banana.lengths))
                lines += [f"component banana {lengths}", f"mark u {mg.u}", f"mark v {mg.v}"]
        elif g.banana is not None:
            lines = ["banana " + " ".join(map(str, g.banana.lengths))]
        else:
            lines = ["graph", *(f"vertex {v}" for v in g.vertices)]
            lines += [f"edge {a} {b}" for (a, b), m in g.edges.items() for _ in range(m)]
        lines += [f"mark {m} {name}" for m, name in (("u", self.mark_u), ("v", self.mark_v))
                  if name is not None]
        if self.divisor.coeffs:
            lines.append(f"divisor {self.divisor}")
        return "\n".join(lines) + "\n"


def _int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise SpecParseError(f"expected an integer, got {tok!r}", line) from None


def _lengths(kind: str, toks: list[str], line: int) -> tuple[int, ...]:
    vals = tuple(_int(t, line) for t in toks)
    if kind == "theta" and len(vals) != 3:
        raise SpecParseError("theta takes exactly three strand lengths", line)
    if kind == "cycle" and len(vals) != 2:
        raise SpecParseError("cycle takes exactly two arc lengths", line)
    if kind == "banana" and len(vals) < 2:
        raise SpecParseError("banana needs at least two strand lengths", line)
    if any(v < 1 for v in vals):
        raise SpecParseError("lengths must be positive", line)
    return vals


def parse_divisor_tokens(toks: list[str], line: int | None = None) -> list[tuple[str, int]]:
    out = []
    for tok in toks:
        name, sep, num = tok.rpartition(":")
        if not sep or not name:
            raise SpecParseError(f"divisor term must look like VTX:INT, got {tok!r}", line)
        out.append((name, _int(num, line)))
    return out


def divisor_on(g: Graph, tokens: Iterable[tuple[str, int]]) -> Divisor:
    """The divisor of (vertex name, chips) tokens on g; repeated names add up."""
    return Divisor((g.resolve(name), c) for name, c in tokens)


def parse_spec(text: str) -> SpecDocument:
    kind: str | None = None
    lengths: tuple[int, ...] = ()
    vertices: list[str] = []
    edges: list[tuple[str, str]] = []
    components: list[tuple[tuple[int, ...], dict[str, str]]] = []
    marks: dict[str, str] = {}
    divisor_tokens: list[tuple[str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        toks = body.split()
        head, rest = toks[0], toks[1:]

        if head in _FAMILY_KINDS or head in ("graph", "chain"):
            if kind is not None:
                raise SpecParseError(f"duplicate graph declaration {head!r}", lineno)
            kind = head
            if head in _FAMILY_KINDS:
                lengths = _lengths(head, rest, lineno)
            elif rest:
                raise SpecParseError(f"{head!r} takes no arguments on its line", lineno)
            continue
        if kind is None:
            raise SpecParseError("file must start with a graph declaration", lineno)

        if head == "vertex":
            if kind != "graph" or len(rest) != 1:
                raise SpecParseError("vertex lines belong to 'graph' bodies", lineno)
            if rest[0] in vertices:
                raise SpecParseError(f"duplicate vertex {rest[0]!r}", lineno)
            vertices.append(rest[0])
        elif head == "edge":
            if kind != "graph" or len(rest) != 2:
                raise SpecParseError("edge lines take two endpoints", lineno)
            edges.append((rest[0], rest[1]))
        elif head == "component":
            if kind != "chain" or not rest:
                raise SpecParseError("component lines belong to 'chain' bodies", lineno)
            ckind = rest[0]
            if ckind not in _FAMILY_KINDS:
                raise SpecParseError(f"chain components must be one of {_FAMILY_KINDS}", lineno)
            components.append((_lengths(ckind, rest[1:], lineno), {}))
        elif head == "mark":
            if len(rest) != 2 or rest[0] not in ("u", "v"):
                raise SpecParseError("mark lines look like 'mark u VTX'", lineno)
            if kind == "chain" and not components:
                raise SpecParseError("mark before any component", lineno)
            owner = components[-1][1] if kind == "chain" else marks
            if rest[0] in owner:
                raise SpecParseError(f"duplicate mark {rest[0]}", lineno)
            owner[rest[0]] = rest[1]
        elif head == "divisor":
            if kind == "chain":
                raise SpecParseError("divisor lines are not supported in chain files", lineno)
            divisor_tokens.extend(parse_divisor_tokens(rest, lineno))
        else:
            raise SpecParseError(f"unknown directive {head!r}", lineno)

    if kind is None:
        raise SpecParseError("empty spec file")
    # build the graph and resolve every referenced vertex, so errors surface
    # at parse time; the commands run on what is built here
    try:
        if kind == "chain":
            return SpecDocument(None, tuple(
                MarkedGraph(build_banana(lengths), cmarks.get("u", "L"), cmarks.get("v", "R"))
                for lengths, cmarks in components))
        g = Graph(vertices, edges) if kind == "graph" else build_banana(lengths)
        mark_u, mark_v = marks.get("u"), marks.get("v")
        for name in (mark_u, mark_v):
            if name is not None:
                g.resolve(name)
        return SpecDocument(g, mark_u=mark_u, mark_v=mark_v,
                            divisor=divisor_on(g, divisor_tokens))
    except InvalidGraphError as err:
        raise SpecParseError(str(err)) from None
