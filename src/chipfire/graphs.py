"""Finite connected loopless multigraphs, with the banana family as a first-class
citizen.

Vertex ids are strings.  Banana graphs (two hubs joined by parallel strands) use
the canonical names ``s<strand>.<position>``; the two hubs are ``s0.0`` and
``s0.<n0>``, with accepted aliases ``L`` and ``R``.  Every other constructor
keeps whatever names the caller supplies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import prod
from operator import index
from typing import Iterable, Mapping

from .errors import AlgorithmError, InvalidGraphError, WrongShapeError


@dataclass(frozen=True)
class BananaSpec:
    """Strand lengths of a banana graph, in the order the strands were built."""

    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(index(n) for n in self.lengths))
        if len(self.lengths) < 2:
            raise InvalidGraphError("a banana graph needs at least two strands")
        if any(n < 1 for n in self.lengths):
            raise InvalidGraphError("strand lengths must be positive")

    @property
    def genus(self) -> int:
        return len(self.lengths) - 1

    @property
    def left(self) -> str:
        return "s0.0"

    @property
    def right(self) -> str:
        return f"s0.{self.lengths[0]}"

    def vertex_id(self, alpha: int, i: int) -> str:
        """Canonical id of the vertex at distance i along strand alpha."""
        n = self.lengths[alpha]
        if not 0 <= i <= n:
            raise InvalidGraphError(f"position {i} outside strand {alpha} (length {n})")
        if i == 0:
            return self.left
        if i == n:
            return self.right
        return f"s{alpha}.{i}"

    def resolve(self, name: str) -> str:
        """Normalize a user-facing vertex name (L/R aliases, hub synonyms)."""
        if name == "L":
            return self.left
        if name == "R":
            return self.right
        alpha, i = self._parse(name)
        return self.vertex_id(alpha, i)

    def position(self, vid: str) -> tuple[int, int]:
        """Inverse of vertex_id: (strand, offset), hubs reported on strand 0."""
        alpha, i = self._parse(self.resolve(vid))
        return alpha, i

    def _parse(self, name: str) -> tuple[int, int]:
        if not name.startswith("s") or "." not in name:
            raise WrongShapeError(f"not a banana vertex name: {name!r}")
        head, _, tail = name[1:].partition(".")
        try:
            alpha, i = int(head), int(tail)
        except ValueError:
            raise WrongShapeError(f"not a banana vertex name: {name!r}") from None
        if not 0 <= alpha < len(self.lengths):
            raise WrongShapeError(f"no strand {alpha} in {self}")
        return alpha, i

    def vertex_ids(self) -> list[str]:
        out = [self.left, self.right]
        for alpha, n in enumerate(self.lengths):
            out.extend(f"s{alpha}.{i}" for i in range(1, n))
        return out


def _canon_edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class Graph:
    """Immutable connected loopless multigraph.

    Edges are stored as a multiplicity counter on unordered vertex pairs, so
    set-firing moves can weight chip flow by the number of parallel edges.
    """

    __slots__ = (
        "vertices", "edges", "banana", "_vindex", "_adj", "_val",
        "_rank_caches", "_rds", "_jac_order", "_reduce_plans",
    )

    def __init__(self, vertices: Iterable[str],
                 edges: Iterable[tuple[str, str]] | Mapping[tuple[str, str], int],
                 banana: BananaSpec | None = None):
        vlist = sorted(set(vertices))
        if not vlist:
            raise InvalidGraphError("graph needs at least one vertex")
        vset = set(vlist)
        counter: Counter = Counter()
        if isinstance(edges, Mapping):
            items = edges.items()
        else:
            items = ((e, 1) for e in edges)
        for (a, b), m in items:
            if a not in vset or b not in vset:
                raise InvalidGraphError(f"edge endpoint not a vertex: {(a, b)}")
            if a == b:
                raise InvalidGraphError(f"self-loop at {a!r} not allowed")
            m = index(m)
            if m < 1:
                raise InvalidGraphError("edge multiplicity must be positive")
            counter[_canon_edge(a, b)] += m

        object.__setattr__(self, "vertices", tuple(vlist))
        object.__setattr__(self, "edges", dict(sorted(counter.items())))
        object.__setattr__(self, "banana", banana)
        object.__setattr__(self, "_vindex", {v: i for i, v in enumerate(vlist)})
        adj: list[list[tuple[int, int]]] = [[] for _ in vlist]
        for (a, b), m in self.edges.items():
            ia, ib = self._vindex[a], self._vindex[b]
            adj[ia].append((ib, m))
            adj[ib].append((ia, m))
        object.__setattr__(self, "_adj", [tuple(row) for row in adj])
        object.__setattr__(self, "_val", tuple(sum(m for _, m in row) for row in adj))
        object.__setattr__(self, "_rank_caches", {})
        object.__setattr__(self, "_rds", None)
        object.__setattr__(self, "_jac_order", None)
        object.__setattr__(self, "_reduce_plans", {})
        self._check_connected()

    def __setattr__(self, *args):
        raise AttributeError("Graph is immutable")

    def _check_connected(self):
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w, _ in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(self.vertices):
            raise InvalidGraphError("graph is not connected")

    @property
    def num_edges(self) -> int:
        return sum(self.edges.values())

    @property
    def genus(self) -> int:
        return self.num_edges - len(self.vertices) + 1

    @property
    def base_vertex(self) -> str:
        """Global base for reduced forms: the lexicographically least vertex id."""
        return self.vertices[0]

    def valence(self, v: str) -> int:
        return self._val[self._vindex[v]]

    def multiplicity(self, a: str, b: str) -> int:
        return self.edges.get(_canon_edge(a, b), 0)

    def index(self, v: str) -> int:
        try:
            return self._vindex[v]
        except KeyError:
            raise InvalidGraphError(f"unknown vertex {v!r}") from None

    def resolve(self, name: str) -> str:
        """Map aliases (banana L/R, hub synonyms) onto a canonical vertex id."""
        if name in self._vindex:
            return name
        if self.banana is not None:
            try:
                vid = self.banana.resolve(name)
            except WrongShapeError:
                vid = None
            if vid in self._vindex:
                return vid
        raise InvalidGraphError(f"unknown vertex {name!r}")

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.vertices == other.vertices
                and self.edges == other.edges)

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {self.num_edges} edges, genus {self.genus})"


@dataclass(frozen=True)
class MarkedGraph:
    """A graph with an ordered pair of distinguished vertices.

    u == v is legal but degenerate; operations that need distinct marks say so.
    """

    graph: Graph
    u: str
    v: str
    # the order of [u - v], computed once by transmission.torsion_order
    _torsion: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u", self.graph.resolve(self.u))
        object.__setattr__(self, "v", self.graph.resolve(self.v))

    @property
    def degenerate(self) -> bool:
        return self.u == self.v

    def swapped(self) -> "MarkedGraph":
        return MarkedGraph(self.graph, self.v, self.u)


def build_banana(lengths: Iterable[int]) -> Graph:
    """Two hub vertices joined by one path per entry of lengths."""
    spec = BananaSpec(tuple(lengths))
    edges: Counter = Counter()
    for alpha, n in enumerate(spec.lengths):
        for i in range(n):
            a = spec.vertex_id(alpha, i)
            b = spec.vertex_id(alpha, i + 1)
            edges[_canon_edge(a, b)] += 1
    return Graph(spec.vertex_ids(), edges, banana=spec)


def build_theta(a: int, b: int, c: int) -> Graph:
    return build_banana([a, b, c])


def build_cycle(a: int, b: int) -> MarkedGraph:
    """Cycle of length a+b, marked at the two vertices the arcs join."""
    g = build_banana([a, b])
    return MarkedGraph(g, "L", "R")


def vertex_glue(g1: MarkedGraph, g2: MarkedGraph) -> MarkedGraph:
    """Disjoint union with g1's out-mark identified to g2's in-mark.

    The result is marked (u1, v2) and its genus is the sum of the parts.
    """
    return chain_glue([g1, g2])


def chain_glue(components: list[MarkedGraph]) -> MarkedGraph:
    """Iterated vertex gluing of a sequence of twice-marked graphs.

    Component i's vertices are renamed "c<i>.<name>"; each glued pair keeps the
    left-hand name so witnesses stay traceable.
    """
    return chain_glue_maps(components)[0]


def chain_glue_maps(components: list[MarkedGraph]):
    """chain_glue plus the per-component vertex rename maps."""
    if not components:
        raise InvalidGraphError("cannot glue an empty chain")
    vertices: list[str] = []
    edges: Counter = Counter()
    maps: list[dict[str, str]] = []
    prev_out = None
    first_in = None
    for i, comp in enumerate(components):
        prefix = f"c{i}."
        rename = {v: prefix + v for v in comp.graph.vertices}
        if prev_out is not None:
            rename[comp.u] = prev_out
        maps.append(rename)
        for v in comp.graph.vertices:
            vertices.append(rename[v])
        for (a, b), m in comp.graph.edges.items():
            edges[_canon_edge(rename[a], rename[b])] += m
        if i == 0:
            first_in = rename[comp.u]
        prev_out = rename[comp.v]
    return MarkedGraph(Graph(vertices, edges), first_in, prev_out), maps


def _branch_walks(g: Graph, hub: str) -> list[list[str]]:
    """The walks hub, x, ... through valence-2 vertices to the first vertex of
    another valence, one per edge out of hub in sorted adjacency order."""
    walks = []
    for nbr, mult in sorted(g._adj[g.index(hub)]):
        for _ in range(mult):
            path = [hub, g.vertices[nbr]]
            while g.valence(path[-1]) == 2:
                nxts = [g.vertices[w] for w, m in g._adj[g.index(path[-1])] for _ in range(m)]
                nxts.remove(path[-2])
                path.append(nxts[0])
            walks.append(path)
    return walks


def _bridges(g: Graph) -> list[tuple[str, str]]:
    """All bridges; a parallel pair is never a bridge."""
    out = []
    for (a, b), m in g.edges.items():
        if m > 1:
            continue
        # connectivity of g minus this edge, from a; multiplicity 1 means the
        # (ia, ib) hop can be skipped wholesale
        ia, ib = g.index(a), g.index(b)
        seen = {ia}
        stack = [ia]
        while stack:
            v = stack.pop()
            for w, _ in g._adj[v]:
                if w in seen or (v, w) in ((ia, ib), (ib, ia)):
                    continue
                seen.add(w)
                stack.append(w)
        if ib not in seen:
            out.append((a, b))
    return out


def contract_bridges(g: Graph):
    """Contract every bridge, returning (bridgeless graph, vertex retraction map).

    Rank computations are unaffected by the retraction, so marked vertices can
    be pushed through the returned map.  Never applied implicitly by other ops.
    """
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # Contracting a bridge never makes another edge a bridge, so one pass over
    # the bridges of g suffices; each contracted tree is named by its least
    # vertex id, and a bridgeless g comes back as itself (banana spec kept).
    bridges = _bridges(g)
    for a, b in bridges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    vertex_map = {v: find(v) for v in g.vertices}
    if not bridges:
        return g, vertex_map
    edges: Counter = Counter()
    for (a, b), m in g.edges.items():
        if vertex_map[a] != vertex_map[b]:
            edges[_canon_edge(vertex_map[a], vertex_map[b])] += m
    return Graph(vertex_map.values(), edges), vertex_map


def _laplacian_solve(g: Graph, b: list[int]) -> tuple[int, list[int]]:
    """det L0 and y = det * L0^-1 b, for L0 the Laplacian without the base
    vertex (index 0): a fraction-free (Bareiss) forward pass on [L0 | b] and
    back-substitution, whose divisions are exact (y is integral by Cramer's
    rule).  L0 is positive definite on a connected graph, so every pivot is a
    positive leading minor and no row exchange is needed."""
    n = len(g.vertices) - 1
    m = [[0] * n + [c] for c in b]
    for i, row in enumerate(m, 1):
        row[i - 1] = g._val[i]
        for j, mult in g._adj[i]:
            if j:
                row[j - 1] -= mult
    det = 1
    for k, row_k in enumerate(m):
        pivot = row_k[k]
        if pivot <= 0:
            raise AlgorithmError("reduced Laplacian pivot is not positive; this is a bug")
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * pivot - lead * row_k[j]) // det
            row[k] = 0
        det = pivot
    y = [0] * n
    for i in reversed(range(n)):
        y[i] = (det * m[i][n] - sum(m[i][j] * y[j] for j in range(i + 1, n))) // m[i][i]
    return det, y


def jacobian_order(g: Graph) -> int:
    """Number of spanning trees = order of the degree-0 class group = det L0;
    on a banana e_g of the lengths (one strand whole, one edge cut per other)."""
    if g._jac_order is None:
        if g.banana is None:
            order, _ = _laplacian_solve(g, [0] * (len(g.vertices) - 1))
        else:
            whole = prod(g.banana.lengths)
            order = sum(whole // n for n in g.banana.lengths)
        object.__setattr__(g, "_jac_order", order)
    return g._jac_order
