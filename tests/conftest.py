import itertools
import random

import pytest

from chipfire.divisors import Divisor, _descend, _reduced_key, _vec, dhar_reduce
from chipfire.graphs import Graph


def random_connected_multigraph(rng: random.Random, max_vertices=6, max_extra=4) -> Graph:
    """Random tree plus extra (possibly parallel) edges; connected and loopless."""
    n = rng.randint(2, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((names[rng.randrange(i)], names[i]))
    for _ in range(rng.randint(1, max_extra)):
        a, b = rng.sample(names, 2) if n > 1 else (names[0], names[0])
        edges.append((a, b))
    return Graph(names, edges)


def random_divisor(rng: random.Random, g: Graph, lo=-3, hi=4) -> Divisor:
    support = rng.sample(g.vertices, rng.randint(1, min(4, len(g.vertices))))
    return Divisor({v: rng.randint(lo, hi) for v in support})


def spanning_trees_brute(g: Graph) -> int:
    """Count spanning trees by expanding the edge multiset and testing subsets."""
    expanded = []
    for (a, b), m in g.edges.items():
        expanded.extend([(a, b)] * m)
    n = len(g.vertices)
    count = 0
    for subset in itertools.combinations(range(len(expanded)), n - 1):
        parent = {v: v for v in g.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for idx in subset:
            a, b = expanded[idx]
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            count += 1
    return count


# (graph, cache) of the last graph full_rank saw; callers rank many
# divisors on one graph before moving to the next
_FULL_CACHE: list = [None, {}]


def full_rank(g: Graph, d) -> int:
    """Rank by descent over every vertex of g: the reference for the
    loopless-model descent of ``rank``.  d is a Divisor or a coefficient
    sequence; the descent cache is shared across calls on the same graph."""
    vec = _vec(g, d) if isinstance(d, Divisor) else list(d)
    if sum(vec) < 0:
        return -1
    if _FULL_CACHE[0] is not g:
        _FULL_CACHE[:] = [g, {}]
    return _descend(g, _reduced_key(g, vec, 0), range(len(g.vertices)), _FULL_CACHE[1])


def definitional_rank(g: Graph, d: Divisor, max_r=None) -> int:
    """Rank straight from the definition: the largest r such that subtracting
    any effective degree-r divisor leaves an effective class.  Exponential; for
    tiny graphs only."""
    base = g.base_vertex

    def effective_class(div):
        return dhar_reduce(g, div, base).divisor[base] >= 0 if div.degree >= 0 else False

    if not effective_class(d):
        return -1
    limit = max_r if max_r is not None else d.degree
    r = 0
    while r < limit:
        need = r + 1
        all_ok = True
        for combo in itertools.combinations_with_replacement(g.vertices, need):
            e = Divisor()
            for v in combo:
                e = e + Divisor.at(v)
            if not effective_class(d - e):
                all_ok = False
                break
        if not all_ok:
            return r
        r += 1
    return r


@pytest.fixture
def rng():
    return random.Random(20240817)
