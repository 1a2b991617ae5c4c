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
from dataclasses import dataclass, field

from .divisors import Divisor
from .errors import InvalidGraphError, SpecParseError
from .graphs import Graph, MarkedGraph, build_banana, build_general

_FAMILY_KINDS = ("banana", "theta", "cycle")


@dataclass(frozen=True)
class ComponentSpec:
    kind: str
    lengths: tuple[int, ...]
    mark_u: str | None
    mark_v: str | None

    def build(self) -> MarkedGraph:
        g = build_banana(self.lengths)
        u = self.mark_u if self.mark_u is not None else "L"
        v = self.mark_v if self.mark_v is not None else "R"
        return MarkedGraph(g, u, v)


@dataclass(frozen=True)
class SpecDocument:
    kind: str
    lengths: tuple[int, ...] = ()
    vertices: tuple[str, ...] = ()
    edge_list: tuple[tuple[str, str], ...] = ()
    components: tuple[ComponentSpec, ...] = ()
    mark_u: str | None = None
    mark_v: str | None = None
    divisor_tokens: tuple[tuple[str, int], ...] = ()
    # the graph, or the chain's components, built once on first use
    _built: Graph | tuple[MarkedGraph, ...] | None = field(
        default=None, init=False, compare=False, repr=False)

    def build_graph(self) -> Graph:
        if self.kind == "chain":
            raise SpecParseError("chain files describe components, not a single graph")
        if self._built is None:
            g = (build_general(self.vertices, list(self.edge_list)) if self.kind == "graph"
                 else build_banana(self.lengths))
            object.__setattr__(self, "_built", g)
        return self._built

    def build_marked(self) -> MarkedGraph:
        if self.mark_u is None or self.mark_v is None:
            raise SpecParseError("this command needs both 'mark u' and 'mark v' lines")
        return MarkedGraph(self.build_graph(), self.mark_u, self.mark_v)

    def build_chain(self) -> list[MarkedGraph]:
        if self.kind != "chain":
            raise SpecParseError("not a chain file")
        if self._built is None:
            object.__setattr__(self, "_built", tuple(c.build() for c in self.components))
        return list(self._built)

    def build_divisor(self, g: Graph) -> Divisor:
        return divisor_on(g, self.divisor_tokens)

    def canonical_text(self) -> str:
        lines: list[str] = []
        if self.kind == "graph":
            lines.append("graph")
            lines.extend(f"vertex {v}" for v in self.vertices)
            lines.extend(f"edge {a} {b}" for a, b in self.edge_list)
        elif self.kind == "chain":
            lines.append("chain")
            for comp in self.components:
                lines.append(f"component {comp.kind} " + " ".join(map(str, comp.lengths)))
                if comp.mark_u is not None:
                    lines.append(f"mark u {comp.mark_u}")
                if comp.mark_v is not None:
                    lines.append(f"mark v {comp.mark_v}")
        else:
            lines.append(f"{self.kind} " + " ".join(map(str, self.lengths)))
        if self.kind != "chain":
            if self.mark_u is not None:
                lines.append(f"mark u {self.mark_u}")
            if self.mark_v is not None:
                lines.append(f"mark v {self.mark_v}")
        if self.divisor_tokens:
            lines.append("divisor " + " ".join(f"{v}:{c}" for v, c in self.divisor_tokens))
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
    components: list[dict] = []
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
            components.append({"kind": ckind,
                               "lengths": _lengths(ckind, rest[1:], lineno),
                               "u": None, "v": None})
        elif head == "mark":
            if len(rest) != 2 or rest[0] not in ("u", "v"):
                raise SpecParseError("mark lines look like 'mark u VTX'", lineno)
            if kind == "chain":
                if not components:
                    raise SpecParseError("mark before any component", lineno)
                if components[-1][rest[0]] is not None:
                    raise SpecParseError(f"duplicate mark {rest[0]}", lineno)
                components[-1][rest[0]] = rest[1]
            else:
                if rest[0] in marks:
                    raise SpecParseError(f"duplicate mark {rest[0]}", lineno)
                marks[rest[0]] = rest[1]
        elif head == "divisor":
            if kind == "chain":
                raise SpecParseError("divisor lines are not supported in chain files", lineno)
            divisor_tokens.extend(parse_divisor_tokens(rest, lineno))
        else:
            raise SpecParseError(f"unknown directive {head!r}", lineno)

    if kind is None:
        raise SpecParseError("empty spec file")
    doc = SpecDocument(
        kind=kind,
        lengths=lengths,
        vertices=tuple(vertices),
        edge_list=tuple(edges),
        components=tuple(ComponentSpec(c["kind"], c["lengths"], c["u"], c["v"])
                         for c in components),
        mark_u=marks.get("u"),
        mark_v=marks.get("v"),
        divisor_tokens=tuple(divisor_tokens),
    )
    _validate(doc)
    return doc


def _validate(doc: SpecDocument) -> None:
    """Build the graph and resolve every referenced vertex, so errors surface
    at parse time; the commands reuse the graph built here."""
    try:
        if doc.kind == "chain":
            doc.build_chain()
        else:
            g = doc.build_graph()
            for name in (doc.mark_u, doc.mark_v):
                if name is not None:
                    g.resolve(name)
            doc.build_divisor(g)
    except InvalidGraphError as err:
        raise SpecParseError(str(err)) from None
