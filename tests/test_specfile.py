"""Property tests for the spec format: canonical text round-trips, and a
malformed line is reported at its own line number."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire.errors import SpecParseError
from chipfire.graphs import build_banana
from chipfire.specfile import ComponentSpec, SpecDocument, parse_spec

FAMILY_ARITY = {"banana": (2, 4), "theta": (3, 3), "cycle": (2, 2)}

# one line per kind of mistake, each malformed wherever it is inserted
MALFORMED = ["frobnicate 1 2", "mark w x", "divisor a:b", "theta 1 2", "edge a",
             "vertex", "component banana 0 1", "graph extra"]

names = st.text(alphabet="abcdxyz0123", min_size=1, max_size=3)


@st.composite
def family(draw, kind):
    """Strand lengths of a banana, theta or cycle and the names its marks and
    divisor terms may use (hub aliases included)."""
    lo, hi = FAMILY_ARITY[kind]
    lengths = tuple(draw(st.lists(st.integers(1, 4), min_size=lo, max_size=hi)))
    return lengths, build_banana(lengths).vertices + ("L", "R")


@st.composite
def plain_graph(draw):
    """Vertex names and a connected loopless edge list over them."""
    vertices = draw(st.lists(names, min_size=1, max_size=6, unique=True))
    n = len(vertices)
    edges = []
    for i in range(1, n):
        pair = (vertices[draw(st.integers(0, i - 1))], vertices[i])
        edges.append(pair if draw(st.booleans()) else pair[::-1])
    if n > 1:
        extra = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda p: p[0] != p[1]), max_size=3)
        edges += [(vertices[a], vertices[b]) for a, b in draw(extra)]
    return tuple(vertices), tuple(edges)


def marks(vnames):
    return st.none() | st.sampled_from(vnames)


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(["banana", "theta", "cycle", "graph", "chain"]))
    if kind == "chain":
        comps = []
        for _ in range(draw(st.integers(1, 3))):
            ckind = draw(st.sampled_from(list(FAMILY_ARITY)))
            lengths, vnames = draw(family(ckind))
            comps.append(ComponentSpec(ckind, lengths, draw(marks(vnames)),
                                       draw(marks(vnames))))
        return SpecDocument(kind="chain", components=tuple(comps))
    if kind == "graph":
        vertices, edges = draw(plain_graph())
        fields = {"vertices": vertices, "edge_list": edges}
        vnames = vertices
    else:
        lengths, vnames = draw(family(kind))
        fields = {"lengths": lengths}
    tokens = draw(st.lists(st.tuples(st.sampled_from(vnames), st.integers(-20, 20)),
                           max_size=4))
    return SpecDocument(kind=kind, mark_u=draw(marks(vnames)), mark_v=draw(marks(vnames)),
                        divisor_tokens=tuple(tokens), **fields)


@settings(max_examples=150, deadline=None)
@given(documents())
def test_canonical_text_round_trips(doc):
    text = doc.canonical_text()
    parsed = parse_spec(text)
    assert parsed == doc
    assert parsed.canonical_text() == text


@settings(max_examples=150, deadline=None)
@given(documents(), st.sampled_from(MALFORMED), st.data())
def test_malformed_line_reports_its_line(doc, bad, data):
    lines = doc.canonical_text().splitlines()
    n = data.draw(st.integers(1, len(lines) + 1), label="line")
    lines.insert(n - 1, bad)
    with pytest.raises(SpecParseError) as err:
        parse_spec("\n".join(lines) + "\n")
    assert str(err.value).startswith(f"line {n}:")
