"""Chip configurations and the exact engine underneath everything else:
reduced forms via the burning algorithm, Baker-Norine rank, linear equivalence,
and enumeration of the degree-0 class group.

All arithmetic is plain Python integers; reduced divisors at a fixed base
vertex double as canonical class representatives throughout the library.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import index

from . import graphs
from .errors import AlgorithmError, ChipfireError, EnumerationCapError
from .graphs import Graph, _branch_walks

DEFAULT_CLASS_CAP = 10 ** 7
_MAX_FIRING_ROUNDS = 10 ** 6


class Divisor:
    """Integer chip assignment on vertex ids.  Zero entries are not stored."""

    __slots__ = ("coeffs", "degree")

    def __init__(self, coeffs: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data: dict[str, int] = {}
        for v, c in items:
            c = index(c)
            if c:
                data[v] = data.get(v, 0) + c
                if not data[v]:
                    del data[v]
        object.__setattr__(self, "coeffs", data)
        object.__setattr__(self, "degree", sum(data.values()))

    def __setattr__(self, *a):
        raise AttributeError("Divisor is immutable")

    @staticmethod
    def at(v: str, count: int = 1) -> "Divisor":
        return Divisor({v: count})

    def __getitem__(self, v: str) -> int:
        return self.coeffs.get(v, 0)

    def __add__(self, other: "Divisor") -> "Divisor":
        data = dict(self.coeffs)
        for v, c in other.coeffs.items():
            data[v] = data.get(v, 0) + c
        return Divisor(data)

    def __sub__(self, other: "Divisor") -> "Divisor":
        data = dict(self.coeffs)
        for v, c in other.coeffs.items():
            data[v] = data.get(v, 0) - c
        return Divisor(data)

    def __neg__(self) -> "Divisor":
        return Divisor({v: -c for v, c in self.coeffs.items()})

    def __mul__(self, n: int) -> "Divisor":
        return Divisor({v: n * c for v, c in self.coeffs.items()})

    __rmul__ = __mul__

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    def items(self):
        return sorted(self.coeffs.items())

    def __eq__(self, other):
        return isinstance(other, Divisor) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "Divisor(0)"
        body = " ".join(f"{v}:{c}" for v, c in self.items())
        return f"Divisor({body})"


@dataclass(frozen=True)
class ReducedForm:
    """A base-reduced divisor together with a replayable set-firing certificate.

    Each certificate entry is (vertex ids fired simultaneously, repeat count);
    applying them in order to the original input reproduces ``divisor`` exactly.
    """

    divisor: Divisor
    base: str
    firing_certificate: tuple[tuple[tuple[str, ...], int], ...]

    def replay(self, graph: Graph, start: Divisor) -> Divisor:
        vec = _vec(graph, start)
        for names, count in self.firing_certificate:
            _fire_set(graph, vec, [graph.index(v) for v in names], count)
        return _from_vec(graph, vec)


def _check_cap(g: Graph) -> int:
    """The class count of g, or EnumerationCapError if it exceeds the limit.

    The limit is the CHIPFIRE_CLASS_CAP environment variable, else
    DEFAULT_CLASS_CAP; every class sweep checks it here before any work.
    """
    env = os.environ.get("CHIPFIRE_CLASS_CAP")
    try:
        limit = int(env) if env else DEFAULT_CLASS_CAP
    except ValueError:
        raise ChipfireError(f"CHIPFIRE_CLASS_CAP={env!r} is not an integer") from None
    order = graphs.jacobian_order(g)
    if order > limit:
        raise EnumerationCapError(
            f"{order} classes exceeds the cap of {limit} (set CHIPFIRE_CLASS_CAP to raise)")
    return order


def _vec(g: Graph, d: Divisor) -> list[int]:
    vec = [0] * len(g.vertices)
    for v, c in d.coeffs.items():
        vec[g.index(v)] = c
    return vec


def _from_vec(g: Graph, vec: Iterable[int]) -> Divisor:
    return Divisor({g.vertices[i]: c for i, c in enumerate(vec) if c})


def _fire_set(g: Graph, vec: list[int], members: Iterable[int], count: int) -> None:
    inside = set(members)
    for v in inside:
        for w, m in g._adj[v]:
            if w not in inside:
                vec[v] -= count * m
                vec[w] += count * m


def _bfs_layers(g: Graph, q: int) -> list[list[int]]:
    dist = {q: 0}
    layers = [[q]]
    frontier = [q]
    while frontier:
        nxt = []
        for v in frontier:
            for w, _ in g._adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        if nxt:
            layers.append(nxt)
        frontier = nxt
    return layers


def _reduction_plan(g: Graph, q: int):
    """Stage 1 of ``_reduce_vec`` at base q as data, built once per graph and base.

    Returns (steps, order).  order is the vertex names in BFS order from q, so
    each ball of closer vertices is a prefix of it.  steps has one entry per
    BFS layer but q's own, outermost first: (each layer vertex with its edge
    count into the ball, the ball's cut edges as (inside, outside,
    multiplicity), the ball's size).  By BFS only the ball's last layer has
    edges leaving the ball.
    """
    plan = g._reduce_plans.get(q)
    if plan is None:
        layers = _bfs_layers(g, q)
        ball: set[int] = set()
        steps = []
        for i in range(1, len(layers)):
            ball.update(layers[i - 1])
            inflows = tuple((v, sum(m for w, m in g._adj[v] if w in ball)) for v in layers[i])
            cut = tuple((v, w, m) for v in layers[i - 1] for w, m in g._adj[v] if w not in ball)
            steps.append((inflows, cut, len(ball)))
        order = tuple(g.vertices[v] for lay in layers for v in lay)
        plan = (tuple(reversed(steps)), order)
        g._reduce_plans[q] = plan
    return plan


def _reduce_vec(g: Graph, vec: list[int], q: int, record: bool = False):
    """Reduce vec at base q in place; returns the certificate list (or None).

    Stage 1 clears debt off q layer by layer from the outside in, firing the
    ball of closer vertices as often as the worst debtor needs; the layers,
    inflows and cut edges come from the per-graph plan (``_reduction_plan``),
    so only the debtor scan and the firing depend on vec.  Stage 2 is the
    burning algorithm: fire the maximal unburnt set until everything burns.
    """
    cert: list[tuple[tuple[str, ...], int]] | None = [] if record else None
    n = len(vec)
    adj = g._adj
    steps, order = _reduction_plan(g, q)

    for inflows, cut, size in steps:
        need = 0
        for v, inflow in inflows:
            c = vec[v]
            if c < 0:
                if inflow <= 0:
                    raise AlgorithmError("BFS layer without inflow")
                need = max(need, (inflow - 1 - c) // inflow)
        if need:
            for v, w, m in cut:
                vec[v] -= need * m
                vec[w] += need * m
            if record:
                cert.append((tuple(sorted(order[:size])), need))

    for _ in range(_MAX_FIRING_ROUNDS):
        burnt = [False] * n
        burnt[q] = True
        nburnt = 1
        incoming = [0] * n
        queue = [q]
        while queue:
            v = queue.pop()
            for w, m in adj[v]:
                if burnt[w]:
                    continue
                incoming[w] += m
                if incoming[w] > vec[w]:
                    burnt[w] = True
                    nburnt += 1
                    queue.append(w)
        if nburnt == n:
            return cert
        unburnt = [v for v in range(n) if not burnt[v]]
        count = min(vec[v] // incoming[v] for v in unburnt if incoming[v] > 0)
        if count < 1:
            raise AlgorithmError("burning found an unfireable set")
        for v in unburnt:
            if incoming[v]:
                vec[v] -= count * incoming[v]
                for w, m in adj[v]:
                    if burnt[w]:
                        vec[w] += count * m
        if record:
            cert.append((tuple(sorted(g.vertices[v] for v in unburnt)), count))
    raise AlgorithmError("reduction did not terminate; this is a bug")


def _reduced_key(g: Graph, vec: list[int], q: int) -> tuple[int, ...]:
    work = list(vec)
    _reduce_vec(g, work, q)
    return tuple(work)


def dhar_reduce(g: Graph, d: Divisor, q: str) -> ReducedForm:
    """Unique q-reduced divisor linearly equivalent to d, with certificate."""
    qi = g.index(g.resolve(q))
    vec = _vec(g, d)
    cert = _reduce_vec(g, vec, qi, record=True)
    return ReducedForm(_from_vec(g, vec), g.vertices[qi], tuple(cert))


def _vec_is_reduced(g: Graph, vec: list[int], q: int) -> bool:
    if any(c < 0 for i, c in enumerate(vec) if i != q):
        return False
    return tuple(vec) == _reduced_key(g, vec, q)


def is_reduced(g: Graph, d: Divisor, q: str) -> bool:
    """True iff d is already q-reduced: nonnegative off q and nothing to fire."""
    return _vec_is_reduced(g, _vec(g, d), g.index(g.resolve(q)))


def canonical_divisor(g: Graph) -> Divisor:
    """valence - 2 at every vertex; degree 2g - 2."""
    return Divisor({v: g._val[i] - 2 for i, v in enumerate(g.vertices)})


def _resolve_rds(g: Graph):
    """The vertex indices the rank descent visits: the vertex set of a
    loopless model of g, computed once per graph.

    That is every vertex of valence other than 2, one vertex of each
    valence-2 walk that comes back to its start (the smaller of its two
    vertices next to the start, so the walks in both directions agree), and
    vertices 0 and 1 when g is a single cycle.
    """
    if g._rds is None:
        keep = {i for i, val in enumerate(g._val) if val != 2}
        for i in list(keep):
            keep.update(g.index(min(walk[1], walk[-2]))
                        for walk in _branch_walks(g, g.vertices[i]) if walk[-1] == walk[0])
        object.__setattr__(g, "_rds", tuple(sorted(keep)) or (0, 1))
    return g._rds


def rank(g: Graph, d: Divisor | Sequence[int]) -> int:
    """Baker-Norine rank by descent over a rank-determining set A.

    d is a Divisor or its coefficient sequence in vertex-index order (the
    order of ``g.vertices``).  r(D) >= 0 iff the reduced form has a
    nonnegative base coefficient, and then r(D) = 1 + min over v in A of
    r(D - v).  A is the vertex set of a loopless model of g (see
    ``_resolve_rds``), which is rank-determining on the metric graph (Luo,
    "Rank-determining sets of metric graphs", JCTA 2011); graph and metric
    rank agree on loopless graphs (Hladky-Kral-Norine, "Rank of divisors on
    tropical curves", JCTA 2013).  On bananas A is the two hubs.
    """
    if isinstance(d, Divisor):
        vec = _vec(g, d)
    else:
        vec = list(d)
        if len(vec) != len(g.vertices):
            raise ValueError(f"{len(vec)} coefficients for {len(g.vertices)} vertices")
    if sum(vec) < 0:
        return -1
    cache = g._rank_caches.setdefault("rds", {})
    return _descend(g, _reduced_key(g, vec, 0), _resolve_rds(g), cache)


def _descend(g: Graph, key: tuple[int, ...], rds, cache: dict) -> int:
    """Rank of the 0-reduced vector key by descent over rds, memoized in cache."""
    val = cache.get(key)
    if val is not None:
        return val
    if key[0] < 0:
        val = -1
    else:
        deg = sum(key)
        genus = g.genus
        if deg > 2 * genus - 2:
            val = deg - genus
        else:
            best = deg  # above every r(D - v)
            for v in rds:
                child = list(key)
                child[v] -= 1
                # Taking a chip off the base, or off a vertex that has one,
                # raises no coefficient, so no set gains a legal firing and
                # the child is still 0-reduced.
                child = _reduced_key(g, child, 0) if key[v] == 0 and v != 0 else tuple(child)
                best = min(best, _descend(g, child, rds, cache))
                if best == -1:
                    break
            val = 1 + best
    cache[key] = val
    return val


def linear_equivalent(g: Graph, d1: Divisor, d2: Divisor) -> bool:
    """Same degree and identical reduced forms at the global base vertex."""
    if d1.degree != d2.degree:
        return False
    return _reduced_key(g, _vec(g, d1), 0) == _reduced_key(g, _vec(g, d2), 0)


def enumerate_jacobian(g: Graph) -> list[Divisor]:
    """All degree-0 divisors reduced at the base vertex, one per class of the
    Jacobian, sorted by coefficient vector: c - deg(c)*base for the
    superstables c, the G-parking functions (Postnikov-Shapiro, Trans. AMS
    2004).  They form an order ideal, so a walk from zero that moves one chip
    at a time off the base, never onto a coordinate before the last one
    raised, meets each exactly once.  The class count is checked before any
    work (see ``_check_cap``) and against the number the walk finds.
    """
    order = _check_cap(g)
    n = len(g.vertices)
    classes = [(0,) * n]
    stack = [(classes[0], 1)]
    while stack:
        cur, lo = stack.pop()
        for j in range(lo, n):
            child = list(cur)
            child[j] += 1
            child[0] -= 1
            if _vec_is_reduced(g, child, 0):
                classes.append(tuple(child))
                stack.append((classes[-1], j))
    if len(classes) != order:
        raise AlgorithmError(
            f"class enumeration found {len(classes)} classes, expected {order}")
    classes.sort()
    for i, key in enumerate(classes):  # in place: each key is freed as its divisor is made
        classes[i] = _from_vec(g, key)
    return classes
