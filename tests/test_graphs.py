import pytest

from chipfire.divisors import Divisor, rank
from chipfire.errors import InvalidGraphError
from chipfire.graphs import (BananaSpec, Graph, MarkedGraph, build_banana, build_cycle,
                             build_theta, chain_glue, contract_bridges, jacobian_order,
                             vertex_glue)

from conftest import random_connected_multigraph, spanning_trees_brute


def test_banana_basic_shape():
    g = build_banana([3, 4, 5])
    assert len(g.vertices) == 11
    assert g.num_edges == 12
    assert g.genus == 2


def test_banana_genus9():
    g = build_banana([5, 4, 4, 3, 3, 3, 3, 3, 3, 3])
    assert g.genus == 9


def test_banana_two_cycle():
    g = build_banana([1, 1])
    assert g.genus == 1
    assert len(g.vertices) == 2
    assert g.multiplicity("s0.0", "s0.1") == 2


def test_banana_bad_lengths():
    with pytest.raises(InvalidGraphError):
        build_banana([0, 2])
    with pytest.raises(InvalidGraphError):
        build_banana([3])
    with pytest.raises(InvalidGraphError):
        build_banana([2, -1])


@pytest.mark.parametrize("build", [lambda: build_banana([2.5, 3]), lambda: build_banana(["2", 3]),
                                   lambda: BananaSpec((2, 3.0))])
def test_banana_rejects_inexact_lengths(build):
    with pytest.raises(TypeError):
        build()


def test_banana_vertex_naming():
    g = build_banana([2, 3])
    # shared endpoints resolve to one id each; interiors unique
    assert g.resolve("L") == "s0.0"
    assert g.resolve("R") == "s0.2"
    assert g.banana.vertex_id(1, 0) == "s0.0"
    assert g.banana.vertex_id(1, 3) == "s0.2"
    interiors = [v for v in g.vertices if v not in ("s0.0", "s0.2")]
    assert sorted(interiors) == ["s0.1", "s1.1", "s1.2"]


def test_build_general_examples():
    g = Graph(["a", "b"], [("a", "b"), ("a", "b")])
    assert g.genus == 1
    path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert path.genus == 0
    two_tri = Graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")])
    assert two_tri.genus == 2


def test_build_general_errors():
    with pytest.raises(InvalidGraphError):
        Graph(["a", "b"], [("a", "a")])
    with pytest.raises(InvalidGraphError):
        Graph(["a", "b", "c"], [("a", "b")])  # disconnected
    with pytest.raises(InvalidGraphError):
        Graph(["a"], [("a", "x")])


@pytest.mark.parametrize("m", [1.5, 2.0, "2"])
def test_graph_rejects_inexact_multiplicities(m):
    with pytest.raises(TypeError):
        Graph(["a", "b"], {("a", "b"): m})


def test_vertex_glue_examples():
    g = vertex_glue(build_cycle(3, 1), build_cycle(3, 2))
    assert g.graph.genus == 2
    g = vertex_glue(build_cycle(2, 1),
                    MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"))
    assert g.graph.genus == 3
    assert g.u == "c0.s0.0"
    assert g.v == "c1.s2.1"


def test_example_chain_genus8():
    comps = [
        build_cycle(3, 1),
        MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"),
        build_cycle(3, 2),
        MarkedGraph(build_theta(5, 2, 10), "s0.2", "s2.4"),
        MarkedGraph(build_theta(6, 2, 3), "s0.4", "s2.2"),
    ]
    glued = chain_glue(comps)
    assert glued.graph.genus == 8
    orders = [jacobian_order(c.graph) for c in comps]
    prod = 1
    for o in orders:
        prod *= o
    assert jacobian_order(glued.graph) == prod


def test_glue_genus_additive_random(rng):
    for _ in range(15):
        g1 = random_connected_multigraph(rng)
        g2 = random_connected_multigraph(rng)
        m1 = MarkedGraph(g1, *rng.sample(g1.vertices, 2) if len(g1.vertices) > 1
                         else (g1.vertices[0], g1.vertices[0]))
        m2 = MarkedGraph(g2, *rng.sample(g2.vertices, 2) if len(g2.vertices) > 1
                         else (g2.vertices[0], g2.vertices[0]))
        glued = vertex_glue(m1, m2)
        assert glued.graph.genus == g1.genus + g2.genus


def test_contract_bridges_two_cycles():
    g = Graph(
        ["a", "b", "c", "p", "d", "e", "f"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "p"), ("p", "d"),
         ("d", "e"), ("e", "f"), ("f", "d")])
    out, vmap = contract_bridges(g)
    assert out.genus == g.genus == 2
    assert len(out.vertices) == 5  # two triangles sharing one vertex
    assert vmap["c"] == vmap["p"] == vmap["d"] == "c"  # least id names the tree


def test_contract_bridges_identity_on_bridgeless():
    g = build_theta(2, 3, 4)
    out, vmap = contract_bridges(g)
    assert out == g
    assert all(vmap[v] == v for v in g.vertices)


def test_contract_bridges_marks_map():
    g = Graph(["a", "b", "x", "c", "d"],
              [("a", "b"), ("a", "b"), ("b", "x"), ("x", "c"),
               ("c", "d"), ("c", "d")])
    out, vmap = contract_bridges(g)
    assert out.genus == 2
    assert vmap["x"] == vmap["b"] == vmap["c"]


def test_contract_bridges_preserves_rank_small():
    # a 4-cycle with a pendant path; ranks agree through the retraction map
    g = Graph(["a", "b", "c", "d", "t1", "t2"],
              [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"),
               ("b", "t1"), ("t1", "t2")])
    out, vmap = contract_bridges(g)
    for d in (Divisor({"a": 1, "t2": 1}), Divisor({"t2": 3}),
              Divisor({"c": 2, "t1": -1})):
        mapped = Divisor({})
        for v, c in d.coeffs.items():
            mapped = mapped + c * Divisor.at(vmap[v])
        assert rank(g, d) == rank(out, mapped)


def test_jacobian_order_examples():
    assert jacobian_order(build_theta(3, 4, 5)) == 47  # ab + ac + bc
    for n in (3, 5, 7):
        assert jacobian_order(build_banana([n - 1, 1])) == n  # cycle of length n
    assert jacobian_order(build_banana([2, 2, 2])) == 12


def test_jacobian_order_vs_brute(rng):
    for _ in range(20):
        g = random_connected_multigraph(rng, max_vertices=5, max_extra=3)
        if g.num_edges <= 8:
            assert jacobian_order(g) == spanning_trees_brute(g)


def test_jacobian_order_banana_closed_form(rng):
    for _ in range(12):
        genus = rng.randint(1, 4)
        lengths = [rng.randint(1, 4) for _ in range(genus + 1)]
        g = build_banana(lengths)
        prod = 1
        for n in lengths:
            prod *= n
        closed = sum(prod // n for n in lengths)
        assert jacobian_order(g) == closed


def test_jacobian_order_banana_formula_matches_dense_solve(rng):
    # the same graph without its banana spec takes the dense determinant
    cases = [[rng.randint(1, 9) for _ in range(rng.randint(2, 8))] for _ in range(12)]
    for lengths in cases + [[1] * 1200]:
        g = build_banana(lengths)
        assert jacobian_order(g) == jacobian_order(Graph(g.vertices, g.edges))


def test_graph_immutable():
    g = build_theta(1, 1, 1)
    with pytest.raises(AttributeError):
        g.genus = 5
