import itertools

import pytest

from math import comb, lcm

from chipfire.certify import (CERTIFIED_GENERAL, INCONCLUSIVE, NOT_GENERAL,
                              _mark_case, _same_strand_twists, _two_loops,
                              banana_strands, bn_general_marked,
                              bn_general_unmarked, chain_certify,
                              classify_banana, classify_genus2,
                              divisor_census, rho, theta_nonsubmodular_set)
from chipfire.divisors import (Divisor, _from_vec, _reduced_key, _vec,
                               enumerate_jacobian, rank)
from chipfire.errors import (DegenerateMarksError, EnumerationCapError,
                             WrongShapeError)
from chipfire.graphs import (Graph, MarkedGraph, build_banana, build_cycle,
                             build_theta, chain_glue, vertex_glue)
from chipfire.perms import demazure, embed
from chipfire.specfile import parse_spec
from chipfire.transmission import (delta, kgt_check, torsion_order,
                                   transmission_permutation)


def example_110_components():
    return [
        build_cycle(3, 1),
        MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"),
        build_cycle(3, 2),
        MarkedGraph(build_theta(5, 2, 10), "s0.2", "s2.4"),
        MarkedGraph(build_theta(6, 2, 3), "s0.4", "s2.2"),
    ]


def test_rho_values():
    for g in range(8):
        assert rho(g, 1, 2) == 2 - g
        assert rho(g, 0, 5) == 5
    assert rho(4, 1, 3) == 0


def test_census_two_cycle():
    g = build_cycle(1, 1).graph
    entries = {e.d: e.r for e in divisor_census(g)}
    assert entries == {0: 0}
    assert bn_general_unmarked(g).verdict == CERTIFIED_GENERAL


def test_census_hyperelliptic_banana():
    g = build_banana([1, 1, 1, 1])
    entries = {e.d: e for e in divisor_census(g)}
    assert entries[2].r == 1                      # the hub pair has rank 1
    assert rank(g, entries[2].witness) >= 1
    cert = bn_general_unmarked(g)
    assert cert.verdict == NOT_GENERAL
    assert (cert.evidence["d"], cert.evidence["r"]) == (2, 1)
    assert cert.evidence["rho"] == rho(3, 1, 2) == -1


def test_census_genus_zero_path():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    entries = divisor_census(g)
    assert entries[0].d == 0 and entries[0].r == 0
    assert bn_general_unmarked(g).verdict == CERTIFIED_GENERAL


def test_bn_marked_examples():
    c21 = build_cycle(2, 1)
    assert bn_general_marked(c21.graph, c21.v).verdict == CERTIFIED_GENERAL
    cert = bn_general_marked(build_banana([1, 1, 1, 1]), "L")
    assert cert.verdict == NOT_GENERAL
    assert cert.evidence["size"] > 3


def test_bn_marked_chain_of_two_loops():
    chain = vertex_glue(build_cycle(2, 1), build_cycle(3, 1))
    cert = bn_general_marked(chain.graph, chain.v)
    assert cert.verdict == CERTIFIED_GENERAL


def brute_nonsubmodular_classes(g, u, v):
    mg = MarkedGraph(g, u, v)
    base = Divisor.at(g.base_vertex)
    out = set()
    for j in enumerate_jacobian(g):
        d = j + 2 * base
        if delta(mg, d) < 0:
            out.add(_from_vec(g, _reduced_key(g, _vec(g, d), 0)))
    return out


def test_theta_nonsubmodular_formula_instance():
    g = build_theta(3, 3, 3)
    ns = theta_nonsubmodular_set(g, "s0.1", "s0.2")
    assert len(ns) == 2
    expected = {
        _from_vec(g, _reduced_key(g, _vec(g, Divisor({"s0.1": 2})), 0)),
        _from_vec(g, _reduced_key(
            g, _vec(g, Divisor.at("s0.3") + Divisor.at("s0.1")), 0)),
    }
    assert ns == expected
    assert ns == brute_nonsubmodular_classes(g, "s0.1", "s0.2")


def test_theta_nonsubmodular_empty_cases():
    g = build_theta(3, 3, 3)
    assert theta_nonsubmodular_set(g, "s0.1", "s1.1") == set()
    assert theta_nonsubmodular_set(g, "L", "R") == set()
    g2 = build_theta(4, 2, 3)
    assert theta_nonsubmodular_set(g2, "s0.0", "s0.4") == set()


def test_theta_nonsubmodular_matches_brute_sweep():
    for a, b, c in [(2, 2, 2), (3, 2, 2), (3, 3, 1), (4, 1, 2)]:
        g = build_theta(a, b, c)
        for u, v in itertools.combinations(g.vertices, 2):
            assert theta_nonsubmodular_set(g, u, v) == \
                brute_nonsubmodular_classes(g, u, v), (a, b, c, u, v)


def test_theta_nonsubmodular_wrong_shape():
    with pytest.raises(WrongShapeError):
        theta_nonsubmodular_set(build_banana([1, 1, 1, 1]), "L", "R")
    g = build_theta(2, 2, 2)
    with pytest.raises(DegenerateMarksError):
        theta_nonsubmodular_set(g, "s0.1", "s0.1")


# ---------------------------------------------------------------------------
# shape recognition


def _graph_from(edges):
    return Graph({x for e in edges for x in e}, edges)


def test_banana_strands_of_graph_specs():
    # banana 3 2 1 1 under other names: each parallel hub edge is a strand
    g = _graph_from([("h", "b"), ("b", "a"), ("a", "k"), ("h", "c"), ("c", "k"),
                     ("h", "k"), ("h", "k")])
    assert banana_strands(g) == [["h", "k"], ["h", "k"], ["h", "c", "k"],
                                 ["h", "b", "a", "k"]]
    # strands of equal length are ordered by their vertex ids
    g = _graph_from([("p", "x"), ("x", "y"), ("y", "q"), ("p", "b"), ("b", "a"),
                     ("a", "q"), ("p", "m"), ("m", "q")])
    assert banana_strands(g) == [["p", "m", "q"], ["p", "b", "a", "q"],
                                 ["p", "x", "y", "q"]]
    # a theta with a triangle at either hub is no banana
    theta = [("h", "a"), ("a", "k"), ("h", "b"), ("b", "k"), ("h", "c"), ("c", "k")]
    for hub in ("h", "k"):
        g = _graph_from(theta + [(hub, "e"), ("e", "f"), ("f", hub)])
        assert banana_strands(g) is None


def test_banana_strands_sorted_on_built_bananas():
    # built in the order 1, 3, 1: both length-1 strands come first
    assert banana_strands(build_banana([1, 3, 1])) == [
        ["s0.0", "s0.1"], ["s0.0", "s0.1"], ["s0.0", "s1.1", "s1.2", "s0.1"]]


def test_two_loops_of_graph_specs():
    # each loop starts at the shared vertex and leaves through its smaller neighbour
    g = _graph_from([("w", "x"), ("w", "x"), ("w", "b"), ("b", "a"), ("a", "w")])
    assert _two_loops(g) == [["w", "a", "b"], ["w", "x"]]
    g = _graph_from([("w", "d"), ("d", "c"), ("c", "w"), ("w", "e"), ("e", "f"),
                     ("f", "g"), ("g", "w")])
    assert _two_loops(g) == [["w", "c", "d"], ["w", "e", "f", "g"]]
    assert _two_loops(build_theta(2, 2, 2)) is None


# ---------------------------------------------------------------------------
# genus-2 classification


def test_classify_genus2_examples():
    cert = classify_genus2(vertex_glue(build_cycle(2, 1), build_cycle(2, 1)))
    assert cert.verdict == "KGT" and cert.evidence["case"] == "1"

    cert = classify_genus2(MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"))
    assert cert.verdict == "KGT" and cert.evidence["case"] == "3c"
    assert cert.evidence["torsion"] == 4

    cert = classify_genus2(MarkedGraph(build_theta(3, 3, 3), "s0.1", "s0.2"))
    assert cert.verdict == "NOT_KGT"
    assert cert.evidence["reason"] == "non-submodular"


def test_classify_genus2_two_loop_cases():
    # marks on the two vertices of a length-2 loop
    chain = vertex_glue(build_cycle(1, 1), build_cycle(2, 1))
    mg = MarkedGraph(chain.graph, chain.u, chain.graph.resolve("c0.s0.1"))
    cert = classify_genus2(mg)
    assert cert.verdict == "KGT" and cert.evidence["case"] == "2"
    assert kgt_check(mg).passed

    # marks on one loop of length >= 3
    tri = vertex_glue(build_cycle(2, 1), build_cycle(2, 1))
    g = tri.graph
    mg = MarkedGraph(g, "c0.s0.0", "c0.s0.1")
    cert = classify_genus2(mg)
    assert cert.verdict == "NOT_KGT"
    assert delta(mg, cert.evidence["witness"]) < 0

    # unequal torsion orders
    cert = classify_genus2(vertex_glue(build_cycle(2, 1), build_cycle(3, 1)))
    assert cert.verdict == "NOT_KGT"
    assert cert.evidence["reason"] == "recurrent"


def test_classify_genus2_agrees_with_brute_sample():
    for a, b, c in [(2, 2, 2), (4, 1, 4), (3, 1, 2), (2, 1, 3)]:
        g = build_theta(a, b, c)
        for u, v in itertools.permutations(g.vertices, 2):
            mg = MarkedGraph(g, u, v)
            assert (classify_genus2(mg).verdict == "KGT") == kgt_check(mg).passed


def test_classify_theta_labels_ignore_vertex_names():
    # the one-off label is 3a when u is the hub mark and 3b when v is, so a
    # graph spec of the same theta whose names sort the hubs the other way
    # gets the same verdict and case on every ordered mark pair
    markings = 0
    for lengths in [(3, 3, 2), (1, 1, 2), (2, 1, 3), (4, 1, 4), (2, 2, 2)]:
        g = build_theta(*lengths)
        rename = {v: f"x{i:02d}" for i, v in enumerate(sorted(g.vertices, reverse=True))}
        text = "graph\n" + "".join(f"vertex {rename[v]}\n" for v in g.vertices)
        text += "".join(f"edge {rename[a]} {rename[b]}\n"
                        for (a, b), m in g.edges.items() for _ in range(m))
        h = parse_spec(text).build_graph()
        for u, v in itertools.permutations(g.vertices, 2):
            want = classify_genus2(MarkedGraph(g, u, v))
            got = classify_genus2(MarkedGraph(h, rename[u], rename[v]))
            assert (got.verdict, got.evidence["case"]) == \
                (want.verdict, want.evidence["case"]), (lengths, u, v)
            markings += 1
    assert markings == 144
    # the hub-flipped mirror of theta332a's marking (u on a hub) is 3a too
    mirror = classify_genus2(MarkedGraph(build_theta(3, 3, 2), "s0.3", "s0.1"))
    assert mirror.evidence["case"] == "3a"


def test_classify_genus2_two_loops_exhaustive():
    combos = [((1, 1), (1, 1)), ((2, 1), (2, 1)), ((2, 1), (3, 1)),
              ((1, 1), (2, 2)), ((3, 1), (2, 2))]
    for arcs1, arcs2 in combos:
        g = vertex_glue(build_cycle(*arcs1), build_cycle(*arcs2)).graph
        for u, v in itertools.permutations(g.vertices, 2):
            mg = MarkedGraph(g, u, v)
            assert (classify_genus2(mg).verdict == "KGT") == kgt_check(mg).passed


@pytest.mark.parametrize("call,error,message", [
    (lambda: classify_genus2(MarkedGraph(build_theta(2, 2, 2), "s0.1", "s0.1")),
     DegenerateMarksError, "marks must be distinct"),
    (lambda: classify_banana(MarkedGraph(build_banana([2, 2, 2, 2]), "s0.1", "s0.1")),
     DegenerateMarksError, "marks must be distinct"),
    (lambda: chain_certify([]), WrongShapeError, "empty chain"),
])
def test_certify_input_errors(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_classify_genus2_wrong_genus():
    with pytest.raises(WrongShapeError):
        classify_genus2(MarkedGraph(build_banana([1, 1, 1, 1]), "L", "R"))


def test_classify_genus2_rejects_bridges():
    g = Graph(["a", "b", "m", "c", "d"],
              [("a", "b"), ("a", "b"), ("b", "m"), ("m", "c"),
               ("c", "d"), ("c", "d")])
    with pytest.raises(WrongShapeError):
        classify_genus2(MarkedGraph(g, "a", "d"))


# ---------------------------------------------------------------------------
# banana classification


def test_classify_banana_kgt2():
    cert = classify_banana(MarkedGraph(build_banana([2, 2, 1, 1]), "s0.1", "s1.1"))
    assert cert.verdict == "KGT2"
    assert kgt_check(MarkedGraph(build_banana([2, 2, 1, 1]), "s0.1", "s1.1")).passed


def test_classify_banana_hub_pair_bound():
    cert = classify_banana(MarkedGraph(build_banana([3, 3, 3, 3]), "L", "R"))
    assert cert.verdict == "SUBMODULAR_NOT_KGT"
    assert cert.evidence["lower_bound"] == comb(4, 2) == 6 > 3
    assert cert.evidence["witness_inversions"] >= 6
    assert cert.evidence["submodularity_verified"]
    # the genus-4 sibling carries the larger bound
    cert = classify_banana(MarkedGraph(build_banana([3, 3, 3, 3, 3]), "L", "R"))
    assert cert.evidence["lower_bound"] == comb(5, 2) == 10 > 4


def test_classify_banana_nonsubmodular_witness():
    mg = MarkedGraph(build_banana([3, 3, 3, 3]), "s0.1", "s1.1")
    cert = classify_banana(mg)
    assert cert.verdict == "NON_SUBMODULAR"
    assert delta(mg, cert.evidence["witness"]) < 0


def test_same_strand_interval_formula_has_negative_candidate():
    # classify_banana's same-strand verdict comes from the interval formula:
    # on every same-strand marking of the genus-3 and genus-4 bananas with
    # strands of length at most 4, one of its candidates is negative, so the
    # full-sweep fallback is never needed there
    checked = 0
    for genus in (3, 4):
        for lengths in itertools.combinations_with_replacement(range(1, 5), genus + 1):
            g = build_banana(list(lengths))
            strands = banana_strands(g)
            for u, v in itertools.permutations(g.vertices, 2):
                case, (alpha, i), (_, j) = _mark_case(strands, u, v)
                if case != "same-strand":
                    continue
                mg = MarkedGraph(g, u, v)
                assert any(delta(mg, d) < 0
                           for d in _same_strand_twists(strands[alpha], i, j)), (lengths, u, v)
                checked += 1
    assert checked == 2100


def test_classify_banana_one_off():
    mg = MarkedGraph(build_banana([3, 2, 2, 2]), "s0.0", "s0.2")
    cert = classify_banana(mg)
    assert cert.verdict == "SUBMODULAR_NOT_KGT"
    assert cert.evidence["witness_inversions"] > 3
    assert cert.evidence["lower_bound"] <= cert.evidence["witness_inversions"]


def test_classify_banana_verdict_matches_kgt_sweep():
    from chipfire.transmission import all_submodular
    for lengths in [(2, 2, 1, 1), (2, 2, 2, 2), (1, 1, 1, 1), (3, 2, 1, 1),
                    (4, 2, 1, 1), (1, 1, 2, 4)]:
        g = build_banana(list(lengths))
        for u, v in itertools.combinations(g.vertices, 2):
            mg = MarkedGraph(g, u, v)
            cert = classify_banana(mg)
            passed = kgt_check(mg).passed
            assert (cert.verdict == "KGT2") == passed, (lengths, u, v, cert.verdict)
            if cert.verdict == "NON_SUBMODULAR":
                assert delta(mg, cert.evidence["witness"]) < 0
            else:
                assert all_submodular(mg).ok, (lengths, u, v, cert.verdict)


def test_classify_banana_midpoint_two_strand_family():
    # a mark at the midpoint of a length-2 strand leaves every divisor
    # submodular regardless of the other interior mark; with both marks
    # cutting their strands in half the torsion drops to 2 and transmission
    # is fully general
    mg = MarkedGraph(build_banana([4, 2, 1, 1]), "s0.2", "s1.1")
    cert = classify_banana(mg)
    assert cert.verdict == "KGT2"
    assert torsion_order(mg) == 2
    assert kgt_check(mg).passed
    # unequal ratios: still submodular throughout, but not general
    mg = MarkedGraph(build_banana([5, 2, 1, 1]), "s0.2", "s1.1")
    cert = classify_banana(mg)
    assert cert.verdict == "SUBMODULAR_NOT_KGT"
    assert cert.evidence["witness_inversions"] > 3
    assert not kgt_check(mg).passed


def test_classify_banana_fallback_sweep_honours_cap(monkeypatch):
    # no recipe candidate is negative here, so classify sweeps all 27 classes
    mg = MarkedGraph(build_banana([5, 2, 1, 1]), "s0.2", "s1.1")
    monkeypatch.setenv("CHIPFIRE_CLASS_CAP", "5")
    with pytest.raises(EnumerationCapError):
        classify_banana(mg)


def test_classify_banana_wrong_shape():
    with pytest.raises(WrongShapeError):
        classify_banana(MarkedGraph(build_theta(2, 2, 2), "s0.1", "s1.1"))
    with pytest.raises(WrongShapeError):
        classify_banana(MarkedGraph(
            vertex_glue(build_cycle(2, 1), build_cycle(2, 1)).graph,
            "c0.s0.0", "c1.s0.1"))


# ---------------------------------------------------------------------------
# chains


def test_chain_example_110():
    cert = chain_certify(example_110_components())
    assert cert.verdict == CERTIFIED_GENERAL
    torsions = [c["torsion"] for c in cert.evidence["components"]]
    # the evenly-split middle theta computes to order 4, not the summary's 5
    assert torsions == [4, 4, 5, 5, 3]
    genera = [c["genus"] for c in cert.evidence["components"]]
    assert genera == [1, 2, 1, 2, 2]


def test_chain_small_certified():
    cert = chain_certify([build_cycle(2, 1),
                          MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1")])
    assert cert.verdict == CERTIFIED_GENERAL


def test_chain_inconclusive():
    cert = chain_certify([build_cycle(2, 1),
                          MarkedGraph(build_theta(2, 1, 2), "s0.1", "s2.1")])
    assert cert.verdict == INCONCLUSIVE
    checks = cert.evidence["unmarked_criterion"]
    assert any(not c["ok"] for c in checks)


def test_chain_single_component_half_bound():
    cert = chain_certify([build_cycle(3, 1)])
    assert cert.verdict == CERTIFIED_GENERAL
    # torsion 2 on a genus-2 component: 2*k >= g + 2 via the sharper bound only
    mg = MarkedGraph(build_banana([2, 2, 1]), "s0.1", "s1.1")
    assert torsion_order(mg) == 2
    cert = chain_certify([mg])
    assert cert.verdict == CERTIFIED_GENERAL
    assert cert.method == "half-genus-bound"


def test_chain_component_without_kgt():
    cert = chain_certify([build_cycle(2, 1),
                          MarkedGraph(build_banana([1, 1, 1, 1]), "L", "R")])
    assert cert.verdict == INCONCLUSIVE
    assert "component 1" in cert.evidence["reason"]


def test_chain_certified_implies_census_general():
    chains = [
        [build_cycle(2, 1), MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1")],
        [build_cycle(3, 1), build_cycle(3, 1)],
        [build_cycle(4, 1)],
    ]
    for comps in chains:
        cert = chain_certify(comps)
        glued = chain_glue(comps)
        if cert.verdict == CERTIFIED_GENERAL and glued.graph.genus <= 4:
            assert bn_general_unmarked(glued.graph).verdict == CERTIFIED_GENERAL


def test_chain_spec_container():
    assert chain_certify(tuple(example_110_components())).verdict == CERTIFIED_GENERAL


# ---------------------------------------------------------------------------
# gluing identities


def _split_divisor(maps, parts):
    total = Divisor()
    for rename, part in zip(maps, parts):
        for v, c in part.coeffs.items():
            total = total + c * Divisor.at(rename[v])
    return total


def test_glued_rank_formula(rng):
    from chipfire.graphs import chain_glue_maps
    c1 = build_cycle(2, 1)
    c2 = MarkedGraph(build_theta(2, 1, 2), "s0.1", "s2.1")
    glued, maps = chain_glue_maps([c1, c2])
    for _ in range(12):
        d1 = Divisor({v: rng.randint(-1, 2)
                      for v in rng.sample(c1.graph.vertices, 2)})
        d2 = Divisor({v: rng.randint(-1, 2)
                      for v in rng.sample(c2.graph.vertices, 2)})
        d = _split_divisor(maps, [d1, d2])
        window = range(-d.degree - 3, d.degree + 4)
        expected = min(
            rank(c1.graph, d1 + l * Divisor.at(c1.v))
            + rank(c2.graph, d2 - (l + 1) * Divisor.at(c2.u)) + 1
            for l in window)
        assert rank(glued.graph, d) == expected


def test_glued_tau_is_demazure_product(rng):
    from chipfire.graphs import chain_glue_maps
    comps = [build_cycle(2, 1), MarkedGraph(build_theta(2, 1, 2), "s0.1", "s2.1")]
    glued, maps = chain_glue_maps(comps)
    for _ in range(10):
        parts = []
        for comp in comps:
            parts.append(Divisor({v: rng.randint(-1, 2)
                                  for v in rng.sample(comp.graph.vertices, 2)}))
        taus = [transmission_permutation(comp, part)
                for comp, part in zip(comps, parts)]
        modulus = lcm(*(t.modulus for t in taus))
        expected = demazure(embed(taus[0], modulus), embed(taus[1], modulus))
        got = transmission_permutation(glued, _split_divisor(maps, parts))
        assert got.window == expected.window
