import gc
import itertools
from pathlib import Path

import pytest

from chipfire.divisors import (_MAX_FIRING_ROUNDS, Divisor, _from_vec, _reduce_vec,
                               _resolve_rds, _vec, canonical_divisor, dhar_reduce, enumerate_jacobian,
                               is_reduced, linear_equivalent, rank)
from chipfire.errors import AlgorithmError, EnumerationCapError, InvalidGraphError
from chipfire.graphs import Graph, build_banana, build_cycle, build_theta, jacobian_order
from chipfire.specfile import parse_spec

from conftest import definitional_rank, full_rank, random_connected_multigraph, random_divisor


def test_divisor_arithmetic():
    d = Divisor({"a": 2, "b": -1})
    e = Divisor({"b": 1, "c": 3})
    assert (d + e).coeffs == {"a": 2, "c": 3}
    assert (d - e).degree == d.degree - e.degree
    assert (2 * d)["a"] == 4
    assert (-d)["b"] == 1
    assert d["missing"] == 0
    assert not d.is_effective()
    assert Divisor({"a": 1}).is_effective()


@pytest.mark.parametrize("coeffs", [{"a": 2.5}, [("a", 1.9)], [("b", "3")], {"a": 2.0}])
def test_divisor_rejects_inexact_coefficients(coeffs):
    with pytest.raises(TypeError):
        Divisor(coeffs)


def test_divisor_accepts_integer_like_coefficients():
    class Chips:
        def __index__(self):
            return 3

    assert Divisor({"a": True, "b": Chips()}).coeffs == {"a": 1, "b": 3}


def test_dhar_four_cycle_hand_run():
    g = Graph(["q", "x1", "x2", "x3"],
              [("q", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "q")])
    form = dhar_reduce(g, Divisor({"x2": 2}), "q")
    assert form.divisor == Divisor({"q": 2})
    # the burning run fires {x2} and then the whole off-base set
    assert form.firing_certificate == ((("x2",), 1), (("x1", "x2", "x3"), 1))


@pytest.mark.parametrize("coeffs", [{"x1": -1, "q": 5}, {"x2": 2}])
def test_is_reduced_rejects_on_four_cycle(coeffs):
    # a debt off the base, or a vertex that can still fire on its own
    g = Graph(["q", "x1", "x2", "x3"],
              [("q", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "q")])
    assert not is_reduced(g, Divisor(coeffs), "q")


def test_dhar_idempotent_and_replayable(rng):
    for _ in range(25):
        g = random_connected_multigraph(rng)
        d = random_divisor(rng, g)
        q = rng.choice(g.vertices)
        form = dhar_reduce(g, d, q)
        assert form.replay(g, d) == form.divisor
        again = dhar_reduce(g, form.divisor, q)
        assert again.divisor == form.divisor
        assert again.firing_certificate == ()
        assert is_reduced(g, form.divisor, q)
        assert all(form.divisor[v] >= 0 for v in g.vertices if v != q)


# Reference copy of the reduction as it was before the per-graph plan: the
# BFS layers and the ball of closer vertices are rebuilt on every call.  The
# plan-driven _reduce_vec must match it vector for vector and firing for
# firing.

def _bfs_layers_reference(g, q):
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


def _fire_set_reference(g, vec, members, count):
    inside = set(members)
    for v in inside:
        for w, m in g._adj[v]:
            if w not in inside:
                vec[v] -= count * m
                vec[w] += count * m


def _reduce_vec_reference(g, vec, q, record=False):
    cert = [] if record else None
    n = len(vec)
    layers = _bfs_layers_reference(g, q)

    for i in range(len(layers) - 1, 0, -1):
        closer = set()
        for lay in layers[:i]:
            closer.update(lay)
        need = 0
        for v in layers[i]:
            if vec[v] < 0:
                inflow = sum(m for w, m in g._adj[v] if w in closer)
                if inflow <= 0:
                    raise AlgorithmError("BFS layer without inflow")
                need = max(need, (-vec[v] + inflow - 1) // inflow)
        if need:
            _fire_set_reference(g, vec, closer, need)
            if record:
                cert.append((tuple(sorted(g.vertices[v] for v in closer)), need))

    for _ in range(_MAX_FIRING_ROUNDS):
        burnt = [False] * n
        burnt[q] = True
        incoming = [0] * n
        queue = [q]
        while queue:
            v = queue.pop()
            for w, m in g._adj[v]:
                if burnt[w]:
                    continue
                incoming[w] += m
                if incoming[w] > vec[w]:
                    burnt[w] = True
                    queue.append(w)
        unburnt = [v for v in range(n) if not burnt[v]]
        if not unburnt:
            return cert
        count = min(vec[v] // incoming[v] for v in unburnt if incoming[v] > 0)
        if count < 1:
            raise AlgorithmError("burning found an unfireable set")
        for v in unburnt:
            if incoming[v]:
                vec[v] -= count * incoming[v]
                for w, m in g._adj[v]:
                    if burnt[w]:
                        vec[w] += count * m
        if record:
            cert.append((tuple(sorted(g.vertices[v] for v in unburnt)), count))
    raise AlgorithmError("reduction did not terminate; this is a bug")


def test_reduce_vec_matches_reference(rng):
    for _ in range(60):
        g = random_connected_multigraph(rng, max_vertices=7, max_extra=5)
        for q in range(len(g.vertices)):
            for record in (False, True):
                start = [rng.randint(-6, 8) for _ in g.vertices]
                got, want = list(start), list(start)
                cert = _reduce_vec(g, got, q, record)
                assert (got, cert) == (want, _reduce_vec_reference(g, want, q, record)), \
                    (g.edges, start, q)


def test_banana_tuple_divisors_are_reduced():
    # one chip per strand at interior positions, the rest at the base hub,
    # stays fixed under reduction
    g = build_banana([3, 4, 5])
    d = Divisor({"s0.1": 1, "s1.2": 1, "s0.0": -2})
    form = dhar_reduce(g, d, "L")
    assert form.divisor == d
    assert form.firing_certificate == ()


def test_reduced_tuple_divisors_are_fixed_points():
    # coset representatives translate to base-reduced divisors verbatim
    from chipfire.banana import BananaTuple, _key_divisor
    g = build_banana([2, 3, 2])
    spec = g.banana
    for cand in itertools.product(range(3), range(4), range(3)):
        if not BananaTuple(spec, cand).is_reduced():
            continue
        d = _key_divisor(spec, cand)
        assert dhar_reduce(g, d, "L").divisor == d


def test_reduced_means_no_legal_firing_set():
    # definitional check on a small graph: once reduced, every nonempty vertex
    # set avoiding the base leaves some member in debt if fired
    g = Graph(["q", "x1", "x2", "x3"],
              [("q", "x1"), ("x1", "x2"), ("x2", "x3"), ("x3", "q"), ("x1", "x3")])
    d = dhar_reduce(g, Divisor({"x2": 3, "x3": 1}), "q").divisor
    others = [v for v in g.vertices if v != "q"]
    for size in range(1, len(others) + 1):
        for combo in itertools.combinations(others, size):
            inside = set(combo)
            legal = all(
                d[v] >= sum(m for w, m in g._adj[g.index(v)]
                            if g.vertices[w] not in inside)
                for v in inside)
            assert not legal, combo


def test_rank_examples():
    b = build_banana([1, 1, 1, 1])
    assert rank(b, Divisor({"s0.0": 1, "s0.1": 1})) == 1      # hub pair
    assert rank(b, Divisor()) == 0
    assert rank(b, Divisor({"s0.0": -1})) == -1
    th = build_theta(2, 3, 4)
    assert rank(th, Divisor({"s0.0": 1, "s0.2": 1})) == 1


def test_rank_definitional_oracle(rng):
    for _ in range(10):
        g = random_connected_multigraph(rng, max_vertices=4, max_extra=3)
        d = random_divisor(rng, g, lo=-2, hi=3)
        if d.degree > 5:
            continue
        assert full_rank(g, d) == definitional_rank(g, d)


def test_rank_descent_with_zero_entries(rng):
    # a descent child skips reduction when its chip came off the base or off
    # a vertex that had one; zero entries elsewhere force a reduction
    for _ in range(6):
        g = random_connected_multigraph(rng, max_vertices=4, max_extra=3)
        for coeffs in itertools.product((-1, 0, 1, 2), repeat=len(g.vertices)):
            if not 0 <= sum(coeffs) <= 4 or 0 not in coeffs:
                continue
            d = Divisor(zip(g.vertices, coeffs))
            want = definitional_rank(g, d)
            assert rank(g, d) == full_rank(g, d) == want, (g.edges, d)


def test_rank_accepts_vectors(rng):
    for _ in range(20):
        g = random_connected_multigraph(rng)
        d = random_divisor(rng, g, lo=-2, hi=4)
        vec = _vec(g, d)
        assert rank(g, vec) == rank(g, d)
        assert full_rank(g, vec) == full_rank(g, d)
        assert rank(g, tuple(vec)) == rank(g, d)
        assert vec == _vec(g, d)  # the input is not reduced in place
    with pytest.raises(ValueError):
        rank(g, vec + [0])


def test_rank_effective_iff_reduced_base_nonnegative(rng):
    for _ in range(20):
        g = random_connected_multigraph(rng)
        d = random_divisor(rng, g)
        for q in g.vertices:
            form = dhar_reduce(g, d, q)
            assert (rank(g, d) >= 0) == (form.divisor[q] >= 0)


def test_rank_hub_pair_determines_banana_ranks(rng):
    # the two hubs act as a rank-determining set on bananas
    for _ in range(10):
        genus = rng.randint(1, 3)
        lengths = [rng.randint(1, 3) for _ in range(genus + 1)]
        g = build_banana(lengths)
        d = random_divisor(rng, g, lo=-2, hi=3)
        assert rank(g, d) == full_rank(g, d)


def _dressed_multigraph(rng) -> Graph:
    """A plain cycle, or a random multigraph with some edges subdivided,
    closed valence-2 loops of length 2-4 (length 2 is a double edge) and
    pendant paths hung on its vertices."""
    fresh = iter(f"x{i:02d}" for i in range(100))
    if rng.random() < 0.15:
        ring = [next(fresh) for _ in range(rng.randint(2, 6))]
        return Graph(ring, zip(ring, ring[1:] + ring[:1]))
    g = random_connected_multigraph(rng, max_vertices=4, max_extra=2)
    vertices, edges = list(g.vertices), []
    for (a, b), m in g.edges.items():
        for _ in range(m):
            path = [a] + [next(fresh) for _ in range(rng.choice((0, 0, 1, 2)))] + [b]
            edges += zip(path, path[1:])
    for _ in range(rng.randint(0, 2)):
        at = rng.choice(g.vertices)
        path = [at] + [next(fresh) for _ in range(rng.randint(1, 3))] + [at]
        edges += zip(path, path[1:])
    for _ in range(rng.randint(0, 1)):
        path = [rng.choice(g.vertices)] + [next(fresh) for _ in range(rng.randint(1, 2))]
        edges += zip(path, path[1:])
    vertices += {v for e in edges for v in e}
    return Graph(vertices, edges)


def test_rank_loopless_model_matches_full_descent(rng):
    # the default descent visits a loopless model's vertices only
    for _ in range(40):
        g = _dressed_multigraph(rng)
        for _ in range(4):
            d = random_divisor(rng, g, lo=-1, hi=3)
            assert rank(g, d) == full_rank(g, d), (g.edges, d)


def test_rank_determining_set_shapes():
    def names(g):
        return [g.vertices[i] for i in _resolve_rds(g)]

    assert names(build_banana([3, 1, 2, 2])) == ["s0.0", "s0.3"]
    assert names(Graph("pqrs", [("p", "q"), ("q", "r"), ("r", "s"), ("s", "p")])) == ["p", "q"]
    doubleloop = (Path(__file__).parent / "golden" / "inputs" / "doubleloop.graph").read_text()
    assert names(parse_spec(doubleloop).build_graph()) == ["a", "w", "x"]
    tree = Graph("rabcde", [("r", "a"), ("a", "b"), ("r", "c"), ("r", "d"), ("d", "e")])
    assert names(tree) == ["b", "c", "e", "r"]
    assert names(Graph(["a"], [])) == ["a"]


def test_rank_leaves_no_reference_cycles():
    g = build_theta(3, 4, 5)
    g = Graph(g.vertices, g.edges)
    gc.collect()
    gc.disable()
    try:
        for n in range(5):
            rank(g, Divisor({"s0.1": n, "s1.2": 1}))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rank_monotone_in_one_chip(rng):
    for _ in range(15):
        g = random_connected_multigraph(rng, max_vertices=5)
        d = random_divisor(rng, g, lo=-2, hi=3)
        r = rank(g, d)
        for w in g.vertices:
            assert rank(g, d + Divisor.at(w)) in (r, r + 1)


def test_riemann_roch(rng):
    for _ in range(40):
        g = random_connected_multigraph(rng)
        k = canonical_divisor(g)
        d = random_divisor(rng, g)
        assert rank(g, d) - rank(g, k - d) == d.degree - g.genus + 1


def test_rank_riemann_roch_step_matches_full_descent(rng):
    # rank ranks K - D at degree >= g; full_rank descends over every vertex
    # with no such step, so the two agree at every degree from -1 to 2g + 1
    # only if the step is right, and Riemann-Roch holds for full_rank itself
    for _ in range(40):
        g = random_connected_multigraph(rng)
        k = canonical_divisor(g)
        d = random_divisor(rng, g)
        for degree in range(-1, 2 * g.genus + 2):
            e = d + Divisor.at(rng.choice(g.vertices), degree - d.degree)
            assert rank(g, e) == full_rank(g, e), (g.edges, e)
            assert full_rank(g, e) - full_rank(g, k - e) == degree - g.genus + 1, (g.edges, e)


def test_canonical_divisor_shapes():
    b = build_banana([2, 3, 4, 5])
    k = canonical_divisor(b)
    assert k == Divisor({"s0.0": 2, "s0.2": 2})
    assert k.degree == 2 * b.genus - 2
    assert rank(b, k) == b.genus - 1

    cyc = build_cycle(3, 2).graph
    assert canonical_divisor(cyc) == Divisor()

    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert canonical_divisor(path) == Divisor({"a": -1, "c": -1})


def test_linear_equivalence_strand_shift():
    g = build_banana([3, 4, 5])
    for alpha, n in enumerate([3, 4, 5]):
        one = Divisor.at(g.banana.vertex_id(alpha, 1)) - Divisor.at("s0.0")
        for a in range(n + 1):
            lhs = a * one
            rhs = Divisor.at(g.banana.vertex_id(alpha, a)) - Divisor.at("s0.0")
            assert linear_equivalent(g, lhs, rhs)
    assert linear_equivalent(g, Divisor({"s0.1": 2}), Divisor({"s0.1": 2}))
    assert not linear_equivalent(g, Divisor({"s0.1": 2}), Divisor({"s0.1": 1}))


def test_enumerate_jacobian_counts():
    assert len(enumerate_jacobian(build_cycle(2, 1).graph)) == 3
    assert len(enumerate_jacobian(build_theta(1, 1, 1))) == 3
    assert len(enumerate_jacobian(build_theta(3, 4, 5))) == 47


def test_enumerate_jacobian_classes_distinct(rng):
    g = build_theta(2, 1, 3)
    classes = enumerate_jacobian(g)
    assert len(classes) == jacobian_order(g)
    for i, a in enumerate(classes):
        assert a.degree == 0
        for b in classes[i + 1:]:
            assert not linear_equivalent(g, a, b)


def _closure_jacobian(g):
    """Reference enumeration: the closure of {0} under the single-chip
    generators [w - base], deduplicated by reduced vector and sorted."""
    n = len(g.vertices)
    gens = []
    for w in range(1, n):
        vec = [0] * n
        vec[w] = 1
        vec[0] = -1
        gens.append(vec)
    start = tuple([0] * n)
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for gen in gens:
            child = [a + b for a, b in zip(cur, gen)]
            _reduce_vec(g, child, 0)
            key = tuple(child)
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return [_from_vec(g, key) for key in sorted(seen)]


def test_enumerate_jacobian_matches_closure(rng):
    names = "abcde"
    banana = build_banana([3, 2, 2, 1])
    graphs = [Graph(["a"], []),
              Graph(names, [(a, b) for a, b in zip(names, names[1:])]),
              Graph(names, itertools.combinations(names, 2)),
              Graph(banana.vertices, banana.edges)]
    graphs += [random_connected_multigraph(rng, max_vertices=7, max_extra=5) for _ in range(40)]
    assert any(m > 1 for g in graphs for m in g.edges.values())
    for g in graphs:
        classes = enumerate_jacobian(g)
        assert classes == _closure_jacobian(g)
        assert len(classes) == jacobian_order(g)
    assert [len(enumerate_jacobian(g)) for g in graphs[:3]] == [1, 1, 125]


def test_enumerate_jacobian_checks_the_class_count(monkeypatch):
    g = build_theta(3, 4, 5)
    monkeypatch.setattr("chipfire.graphs.jacobian_order", lambda g: 48)
    with pytest.raises(AlgorithmError, match="found 47 classes, expected 48"):
        enumerate_jacobian(g)


def test_enumeration_cap_env(monkeypatch):
    g = build_theta(3, 4, 5)
    monkeypatch.setenv("CHIPFIRE_CLASS_CAP", "5")
    with pytest.raises(EnumerationCapError):
        enumerate_jacobian(g)
    monkeypatch.setenv("CHIPFIRE_CLASS_CAP", "100")
    assert len(enumerate_jacobian(g)) == 47


def test_genus_zero_ranks():
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for d in (Divisor({"a": 2}), Divisor({"c": 1, "a": 1}), Divisor({"b": 3})):
        assert rank(path, d) == d.degree
    assert rank(path, Divisor({"a": -1})) == -1


def test_dhar_unknown_vertex():
    g = build_theta(1, 1, 1)
    with pytest.raises(InvalidGraphError):
        dhar_reduce(g, Divisor(), "nope")
