import pytest

import chipfire.transmission as tr
from chipfire.divisors import (Divisor, canonical_divisor, linear_equivalent,
                               rank)
from chipfire.errors import (DegenerateMarksError, EnumerationCapError,
                             InvalidGraphError, NonSubmodularError)
from chipfire.graphs import (Graph, MarkedGraph, build_banana, build_cycle,
                             build_theta, jacobian_order, vertex_glue)
from chipfire.perms import inv_k, sci
from chipfire.transmission import (all_submodular, delta,
                                   is_submodular_divisor, kgt_check,
                                   non_recurrent, recurrence_witness,
                                   torsion_order, transmission_permutation,
                                   weierstrass_partition, _class_reps,
                                   _rep_divisor, _class_rank, _twist_divisor)

from conftest import full_rank, random_connected_multigraph


def two_triangles():
    """Chain of two loops of length 3 sharing the vertex w."""
    return Graph(
        ["w", "a1", "a2", "b1", "b2"],
        [("w", "a1"), ("a1", "a2"), ("a2", "w"),
         ("w", "b1"), ("b1", "b2"), ("b2", "w")])


def hub_pair(lengths):
    return MarkedGraph(build_banana(lengths), "L", "R")


# ---------------------------------------------------------------------------
# delta


def test_delta_hub_multiples():
    mg = hub_pair([1, 1, 1, 1])
    g = mg.graph.genus
    for a in range(2 * g + 2):
        d = a * (Divisor.at("s0.0") + Divisor.at("s0.1"))
        assert delta(mg, d) == (1 if a <= g else 0)


def test_delta_negative_degree_vanishes():
    mg = hub_pair([2, 3])
    assert delta(mg, Divisor({"s0.1": -1})) == 0
    assert delta(mg, Divisor({"s0.0": -2, "s0.1": 1})) == 0


def test_delta_same_loop_is_negative():
    g = two_triangles()
    mg = MarkedGraph(g, "a1", "a2")
    assert delta(mg, Divisor({"a1": 1, "w": 1})) == -1


def test_delta_degenerate_marks():
    g = build_theta(2, 2, 2)
    mg = MarkedGraph(g, "s0.1", "s0.1")
    # second difference along a doubled mark
    d = Divisor({"s0.1": 2})
    expected = (_class_rank(g, d) - 2 * _class_rank(g, d - Divisor.at("s0.1"))
                + _class_rank(g, d - 2 * Divisor.at("s0.1")))
    assert delta(mg, d) == expected


# ---------------------------------------------------------------------------
# submodularity


def test_is_submodular_same_strand_failure():
    mg = MarkedGraph(build_theta(3, 3, 3), "s0.1", "s0.2")
    verdict = is_submodular_divisor(mg, Divisor({"s0.1": 2}))
    assert not verdict.ok
    assert verdict.value < 0
    assert delta(mg, verdict.witness) < 0


def test_is_submodular_cycles_always(rng):
    mg = build_cycle(3, 2)
    for _ in range(10):
        d = Divisor({v: rng.randint(-2, 2)
                     for v in rng.sample(mg.graph.vertices, 3)})
        assert is_submodular_divisor(mg, d).ok


def test_is_submodular_distinct_strands(rng):
    mg = MarkedGraph(build_theta(3, 1, 4), "s0.2", "s2.1")
    for _ in range(8):
        d = Divisor({v: rng.randint(-2, 2)
                     for v in rng.sample(mg.graph.vertices, 3)})
        assert is_submodular_divisor(mg, d).ok


def test_all_submodular_examples():
    assert all_submodular(MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1")).ok
    bad = all_submodular(MarkedGraph(build_theta(3, 3, 3), "s0.1", "s0.2"))
    assert not bad.ok and bad.value < 0
    assert all_submodular(MarkedGraph(build_banana([2, 2, 1, 1]), "s0.1", "s1.1")).ok


# ---------------------------------------------------------------------------
# torsion order


def test_torsion_examples():
    assert torsion_order(build_cycle(3, 1)) == 4
    assert torsion_order(MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1")) == 4
    fig6 = build_banana([5, 4, 4, 3, 3, 3, 3, 3, 3, 3])
    assert torsion_order(MarkedGraph(fig6, "s0.0", "s0.4")) == 91


def test_torsion_degenerate_and_generic_agree():
    th = build_theta(4, 1, 4)
    assert torsion_order(MarkedGraph(th, "s0.1", "s0.1")) == 1
    # same graph through the generic engine (no banana annotation)
    plain = Graph(th.vertices, th.edges)
    for u, v in [("s0.1", "s2.1"), ("s0.0", "s0.4"), ("s0.1", "s0.2")]:
        assert (torsion_order(MarkedGraph(th, u, v))
                == torsion_order(MarkedGraph(plain, u, v)))


def test_torsion_cycle_formula(rng):
    from math import gcd
    for _ in range(10):
        a, b = rng.randint(1, 6), rng.randint(1, 6)
        assert torsion_order(build_cycle(a, b)) == (a + b) // gcd(a, b)


def _walk_order(g, d0):
    """Reference class order: the first n with n*d0 reducing to the zero key,
    walked one reduction at a step (the class order divides the class count)."""
    eng = tr._engine(g)
    step = eng.raw(g, d0)
    zero = (0,) * len(step)
    key = eng.reduce(g, step)
    for n in range(1, jacobian_order(g) + 1):
        if key == zero:
            return n
        key = eng.reduce(g, [c + s for c, s in zip(key, step)])
    raise AssertionError("walk exceeded the class count")


def _degree0_divisor(rng, g):
    """A random degree-0 divisor with entries in -9..9."""
    while True:
        support = rng.sample(g.vertices, min(len(g.vertices), rng.randint(2, 4)))
        coeffs = {v: rng.randint(-9, 9) for v in support[1:]}
        last = -sum(coeffs.values())
        if -9 <= last <= 9:
            return Divisor({support[0]: last, **coeffs})


def test_class_order_matches_walk(rng):
    graphs = []
    for _ in range(12):
        g = build_banana([rng.randint(1, 5) for _ in range(rng.randint(2, 5))])
        graphs += [g, Graph(g.vertices, g.edges)]   # tuple and vector engines
    graphs += [random_connected_multigraph(rng, 7, 5) for _ in range(12)]
    for g in graphs:
        for _ in range(4):
            d0 = _degree0_divisor(rng, g)
            assert tr._class_order(g, d0) == _walk_order(g, d0)


def test_class_order_edge_cases():
    point = Graph(["x"], [])
    assert tr._class_order(point, Divisor()) == _walk_order(point, Divisor()) == 1
    tree = Graph("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    d0 = Divisor({"a": 5, "c": -9, "d": 4})
    assert tr._class_order(tree, d0) == _walk_order(tree, d0) == 1
    fig6 = build_banana([5, 4, 4, 3, 3, 3, 3, 3, 3, 3])
    for u, v, k in [("s0.0", "s0.4", 91), ("L", "R", 182), ("s0.1", "s1.3", 728)]:
        d0 = Divisor.at(fig6.resolve(u)) - Divisor.at(fig6.resolve(v))
        assert tr._class_order(fig6, d0) == _walk_order(fig6, d0) == k


def test_torsion_order_reduces_nothing(monkeypatch):
    import chipfire.banana as bn
    import chipfire.divisors as dv
    import chipfire.graphs as gr

    def forbidden(*args):
        raise AssertionError("the torsion order reduced a class or counted classes")

    for module, name in [(bn, "_reduce_entries"), (dv, "_reduce_vec"), (tr, "_reduced_key"),
                         (tr, "jacobian_order"), (gr, "jacobian_order")]:
        monkeypatch.setattr(module, name, forbidden)
    fig6 = build_banana([5, 4, 4, 3, 3, 3, 3, 3, 3, 3])
    plain = Graph(fig6.vertices, fig6.edges)
    assert torsion_order(MarkedGraph(fig6, "s0.1", "s1.3")) == 728
    assert torsion_order(MarkedGraph(plain, "s0.1", "s1.3")) == 728


def test_kgt_computes_the_order_once(monkeypatch):
    calls = []
    real = tr._class_order

    def counting(g, d0):
        calls.append(d0)
        return real(g, d0)

    monkeypatch.setattr(tr, "_class_order", counting)
    g = build_banana([2, 2, 2])
    for mg in [MarkedGraph(g, "L", "R"),
               MarkedGraph(Graph(g.vertices, g.edges), "s0.0", "s0.2")]:
        calls.clear()
        cert = kgt_check(mg, exhaustive=True)
        assert cert.orbits_checked == 4 and cert.torsion == 3
        assert len(calls) == 1
        assert torsion_order(mg) == 3 and len(calls) == 1


# ---------------------------------------------------------------------------
# transmission permutations


def test_tau_countdown_window():
    mg = hub_pair([1, 1, 1, 1])
    tau = transmission_permutation(mg, Divisor({"s0.1": 3}))
    assert tau.modulus == 4
    assert tau.window == (3, 2, 1, 0)
    assert inv_k(tau) == 6


def test_tau_cycle_small():
    mg = build_cycle(2, 1)
    tau = transmission_permutation(mg, Divisor())
    assert tau(0) == 0
    assert inv_k(tau) <= mg.graph.genus


def test_tau_nonsubmodular_raises():
    mg = MarkedGraph(build_theta(3, 3, 3), "s0.1", "s0.2")
    with pytest.raises(NonSubmodularError) as err:
        transmission_permutation(mg, Divisor({"s0.1": 2}))
    assert delta(mg, err.value.witness) < 0


def test_tau_degenerate_marks_refused():
    mg = MarkedGraph(build_theta(2, 2, 2), "s0.1", "s0.1")
    with pytest.raises(DegenerateMarksError):
        transmission_permutation(mg, Divisor())
    with pytest.raises(DegenerateMarksError):
        kgt_check(mg)


def test_tau_characterization_identities(rng):
    cases = [
        (MarkedGraph(build_theta(2, 1, 2), "s0.1", "s2.1"), Divisor({"s0.1": 1})),
        (build_cycle(3, 1), Divisor({"s0.0": 2})),
        (hub_pair([1, 1, 1, 1]), Divisor({"s0.1": 3})),
        (MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"), Divisor({"s2.2": 2})),
    ]
    for mg, d in cases:
        g = mg.graph
        tau = transmission_permutation(mg, d)
        kdiv = canonical_divisor(g)
        genus = g.genus
        du, dv = Divisor.at(mg.u), Divisor.at(mg.v)
        mn, mx = tau.displacement()
        for b in range(-2, tau.modulus + 2):
            for a in range(b - d.degree - 2, b - d.degree + 2 * genus + 3):
                r1 = _class_rank(g, d + a * du - b * dv)
                assert r1 + 1 == sum(1 for l in range(b, a - mn + 1) if tau(l) <= a)
                r2 = _class_rank(g, kdiv - d - a * du + b * dv)
                lo = min(b, a - mx - tau.modulus)
                assert r2 + 1 == sum(1 for l in range(lo, b) if tau(l) > a)


def test_tau_window_riemann_roch_bounds(rng):
    mg = MarkedGraph(build_theta(3, 2, 4), "s0.1", "s2.2")
    for _ in range(6):
        d = Divisor({v: rng.randint(-1, 2)
                     for v in rng.sample(mg.graph.vertices, 3)})
        tau = transmission_permutation(mg, d)
        for b in range(tau.modulus):
            assert b - d.degree <= tau(b) <= 2 * mg.graph.genus + b - d.degree


def test_class_reps_generate_reduced_tuples_in_product_order():
    from itertools import product
    from chipfire.banana import BananaTuple
    for lengths in [(1, 1), (1, 1, 1, 1), (2, 1), (1, 3, 1), (2, 2, 2),
                    (3, 4, 5), (2, 3, 2, 2), (4, 1, 2, 3), (1,) * 12,
                    (2, 1, 1, 1, 1, 1, 1, 1, 1)]:
        g = build_banana(list(lengths))
        filtered = [cand for cand in product(*[range(n + 1) for n in lengths])
                    if BananaTuple(g.banana, cand).is_reduced()]
        assert list(_class_reps(g)) == filtered
        assert len(filtered) == jacobian_order(g)


def test_tau_inv_twist_invariant():
    mg = MarkedGraph(build_theta(3, 1, 2), "s0.1", "s2.1")
    g = mg.graph
    for rep in _class_reps(g):
        j = _rep_divisor(g, rep)
        base = inv_k(transmission_permutation(mg, j))
        for a, b in [(1, 0), (0, 1), (2, 1), (3, 0), (1, 2)]:
            d = j + a * Divisor.at(mg.u) - b * Divisor.at(mg.v)
            assert inv_k(transmission_permutation(mg, d)) == base


def test_tau_modulus_is_torsion(rng):
    for mg in (build_cycle(2, 3), MarkedGraph(build_theta(2, 1, 2), "s0.1", "s2.1"),
               hub_pair([2, 2])):
        tau = transmission_permutation(mg, Divisor())
        assert tau.modulus == torsion_order(mg)


# ---------------------------------------------------------------------------
# k-general transmission


def test_kgt_examples():
    cert = kgt_check(build_cycle(3, 1))
    assert cert.passed and cert.torsion == 4
    cert = kgt_check(MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"))
    assert cert.passed and cert.torsion == 4
    cert = kgt_check(hub_pair([1, 1, 1, 1]))
    assert not cert.passed
    assert cert.max_inversions >= 6 > cert.genus == 3


def test_kgt_symmetric_in_marks():
    for mg in (MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"),
               MarkedGraph(build_theta(3, 3, 3), "s0.1", "s0.2"),
               hub_pair([2, 2, 2]),
               MarkedGraph(build_theta(3, 2, 4), "s0.1", "s2.2")):
        assert kgt_check(mg).passed == kgt_check(mg.swapped()).passed


def test_kgt_nonsubmodular_witness():
    cert = kgt_check(MarkedGraph(build_theta(3, 3, 3), "s0.1", "s0.2"))
    assert not cert.passed
    assert cert.nonsubmodular_witness is not None
    mg = MarkedGraph(build_theta(3, 3, 3), "s0.1", "s0.2")
    assert delta(mg, cert.nonsubmodular_witness) < 0


def test_kgt_exhaustive_flag():
    mg = hub_pair([1, 1, 1])
    fast = kgt_check(mg)
    full = kgt_check(mg, exhaustive=True)
    assert not fast.passed and not full.passed
    assert full.exhaustive
    assert full.max_inversions >= fast.max_inversions


def test_kgt_checks_the_cap_before_any_work(monkeypatch):
    import chipfire.transmission as tr

    def torsion_walk(mg):
        raise AssertionError("torsion order walked before the cap check")

    monkeypatch.setenv("CHIPFIRE_CLASS_CAP", "10")
    monkeypatch.setattr(tr, "torsion_order", torsion_walk)
    with pytest.raises(EnumerationCapError):
        kgt_check(MarkedGraph(build_theta(3, 4, 5), "L", "R"))


def test_torsion_two_submodular_implies_kgt():
    # every torsion-2 all-submodular marking encountered must certify
    cases = [MarkedGraph(build_banana([2, 2, 1, 1]), "s0.1", "s1.1"),
             MarkedGraph(build_banana([2, 2, 2, 2]), "s0.1", "s1.1"),
             MarkedGraph(build_banana([2, 2]), "s0.1", "s1.1")]
    for mg in cases:
        assert torsion_order(mg) == 2
        assert all_submodular(mg).ok
        assert kgt_check(mg).passed


# ---------------------------------------------------------------------------
# non-recurrence


def test_non_recurrent_examples():
    th = build_theta(4, 1, 4)
    assert non_recurrent(th, Divisor())
    assert non_recurrent(th, Divisor.at("s0.1") - Divisor.at("s2.1"))
    chain = vertex_glue(build_cycle(2, 1), build_cycle(3, 1))
    d0 = Divisor.at(chain.u) - Divisor.at(chain.v)
    # the two effective twists exhibited by the unequal-torsion argument
    g = chain.graph
    assert rank(g, 1 * d0 + Divisor.at(chain.v)) >= 0
    assert rank(g, 3 * d0 + Divisor.at(chain.v)) >= 0
    assert not non_recurrent(g, d0)
    w, n1, n2 = recurrence_witness(g, d0)
    assert rank(g, n1 * d0 + Divisor.at(w)) >= 0
    assert rank(g, n2 * d0 + Divisor.at(w)) >= 0


def _divisor_walk_recurrence_witness(g, d0):
    """Test oracle: recurrence_witness as a walk of Divisors, n*D + v built
    and ranked at every step."""
    hits = {}
    cur = Divisor()
    for n in range(1, tr._class_order(g, d0)):
        cur = cur + d0
        for v in g.vertices:
            if _class_rank(g, cur + Divisor.at(v)) >= 0:
                if v in hits:
                    return v, hits[v], n
                hits[v] = n
    return None


def test_recurrence_witness_matches_divisor_walk():
    graphs = [build_theta(*ls) for ls in [(1, 1, 1), (2, 1, 2), (3, 2, 2), (4, 1, 4)]]
    graphs += [vertex_glue(build_cycle(*a), build_cycle(*b)).graph
               for a, b in [((1, 1), (2, 1)), ((2, 1), (3, 1)), ((2, 2), (1, 3))]]
    graphs += [Graph(g.vertices, g.edges) for g in graphs if g.banana is not None]
    for g in graphs:
        for u in g.vertices:
            for v in g.vertices:
                d0 = Divisor.at(u) - Divisor.at(v)
                assert (recurrence_witness(g, d0)
                        == _divisor_walk_recurrence_witness(g, d0)), (g.vertices, u, v)


def test_non_recurrent_rejects_nonzero_degree():
    g = build_theta(1, 1, 1)
    with pytest.raises(InvalidGraphError):
        non_recurrent(g, Divisor({"s0.0": 1}))


# ---------------------------------------------------------------------------
# Weierstrass partitions


def test_partition_zero_divisor():
    c21 = build_cycle(2, 1)
    lam = weierstrass_partition(c21.graph, c21.v, Divisor())
    assert lam.parts == (1,)
    assert lam.pole_orders == (0,)
    b = build_banana([2, 3, 2])
    lam = weierstrass_partition(b, "R", Divisor())
    assert lam.parts[0] == b.genus


def test_partition_matches_sign_changes():
    mg = hub_pair([1, 1, 1, 1])
    d = Divisor({"s0.0": 1, "s0.1": 1})
    lam = weierstrass_partition(mg.graph, mg.v, d)
    tau = transmission_permutation(mg, d)
    assert lam.size == sci(tau) == 4


def test_partition_invariant_under_mark_multiples():
    mg = MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1")
    g = mg.graph
    for rep in list(_class_reps(g))[:6]:
        d = _rep_divisor(g, rep)
        lam = weierstrass_partition(g, mg.v, d)
        for l in (1, 2, 5):
            shifted = weierstrass_partition(g, mg.v, d + l * Divisor.at(mg.v))
            assert shifted.parts == lam.parts


def test_sci_lambda_identity_sweep():
    graphs = [build_cycle(2, 1),
              MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"),
              vertex_glue(build_cycle(2, 1), build_cycle(2, 1))]
    for mg in graphs:
        g = mg.graph
        du = Divisor.at(mg.u)
        for rep in _class_reps(g):
            j = _rep_divisor(g, rep)
            for dd in (0, 1, 3):
                d = j + dd * du
                assert sci(transmission_permutation(mg, d)) == \
                    weierstrass_partition(g, mg.v, d).size


# ---------------------------------------------------------------------------
# mark-swap and automorphism identities


def test_mark_swap_identities():
    cases = [
        (MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"), Divisor({"s0.1": 2})),
        (build_cycle(3, 2), Divisor({"s0.1": 1})),
        (hub_pair([1, 1, 1, 1]), Divisor({"s0.1": 3})),
    ]
    for mg, d in cases:
        g = mg.graph
        kdiv = canonical_divisor(g)
        swap = mg.swapped()
        tau = transmission_permutation(mg, d)
        tau_swap = transmission_permutation(swap, d)
        tau_iota = transmission_permutation(
            swap, kdiv - d + Divisor.at(mg.u) + Divisor.at(mg.v))
        for b in range(tau.modulus):
            a = tau(b)
            assert tau_swap(-a) == -b
            assert tau_iota(a) == b


def test_self_inverse_from_strand_swap():
    # strand-reversal plus swapping the two marked strands transposes the
    # marks; (g-1)L + u is then self-paired and its permutation an involution
    for lengths in [(2, 2, 2, 2), (3, 3, 2, 2)]:
        g = build_banana(list(lengths))
        genus = g.genus
        mg = MarkedGraph(g, "s0.1", f"s1.{lengths[1] - 1}")
        d = Divisor({"s0.0": genus - 1, "s0.1": 1})
        tau = transmission_permutation(mg, d)
        for b in range(-tau.modulus, 2 * tau.modulus):
            assert tau(tau(b)) == b


def test_subdiagonal_lower_bound():
    for lengths in [(2, 2, 2, 2), (3, 3, 2, 2)]:
        g = build_banana(list(lengths))
        genus = g.genus
        mg = MarkedGraph(g, "s0.1", f"s1.{lengths[1] - 1}")
        d = Divisor({"s0.0": genus - 1, "s0.1": 1})
        tau = transmission_permutation(mg, d)
        du, dv = Divisor.at(mg.u), Divisor.at(mg.v)
        total = sum(_class_rank(g, d + (m - 1) * du - m * dv)
                    - _class_rank(g, d + (m - 2) * du - m * dv)
                    for m in range(tau.modulus))
        assert inv_k(tau) >= total


def test_hub_reversal_shift_symmetry():
    # reversing every strand fixes hub marks and sends g*R to g*L, giving the
    # shifted symmetry tau(g - a) = g - b whenever tau(b) = a
    mg = hub_pair([1, 1, 1, 1])
    genus = mg.graph.genus
    tau = transmission_permutation(mg, Divisor({"s0.1": genus}))
    for b in range(tau.modulus):
        a = tau(b)
        assert tau(genus - a) == genus - b


# ---------------------------------------------------------------------------
# genus-2 structure


def test_genus2_five_case_decomposition():
    for mg in (MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"),
               MarkedGraph(build_theta(3, 2, 2), "s0.1", "s1.1"),
               MarkedGraph(build_theta(2, 1, 2), "s0.1", "s2.1")):
        g = mg.graph
        kdiv = canonical_divisor(g)
        du, dv = Divisor.at(mg.u), Divisor.at(mg.v)
        for rep in _class_reps(g):
            d = _rep_divisor(g, rep) + 2 * Divisor.at(g.base_vertex)
            tau = transmission_permutation(mg, d)
            for t in range(tau.modulus):
                dt = d + t * du - t * dv
                offset = tau(t) - t
                assert offset in (-2, -1, 0, 1, 2)
                if linear_equivalent(g, dt, 2 * du):
                    expected = -2
                elif (rank(g, dt - du) >= 0
                      and not linear_equivalent(g, dt - du, du)
                      and not linear_equivalent(g, dt - du, dv)):
                    expected = -1
                elif linear_equivalent(g, dt, dv + kdiv - du):
                    expected = 2
                elif (rank(g, dt - dv) >= 0
                      and not linear_equivalent(g, dt - dv, kdiv - du)
                      and not linear_equivalent(g, dt - dv, kdiv - dv)):
                    expected = 1
                else:
                    expected = 0
                assert offset == expected


def test_genus2_inversion_count_formula():
    for mg in (MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"),
               MarkedGraph(build_theta(2, 2, 2), "s0.1", "s1.1"),
               vertex_glue(build_cycle(2, 1), build_cycle(2, 1))):
        g = mg.graph
        kdiv = canonical_divisor(g)
        marks = Divisor.at(mg.u) + Divisor.at(mg.v)
        k = torsion_order(mg)

        def twists(d, degree):
            """The k twist classes of d in the given degree, walked by u - v."""
            return [_twist_divisor(mg, d, degree - d.degree + n, n) for n in range(k)]

        for rep in _class_reps(g):
            for dd in (0, 1, 2, 3):
                d = _rep_divisor(g, rep) + dd * Divisor.at(g.base_vertex)
                tau = transmission_permutation(mg, d)
                eff = sum(1 for e in twists(d, 1) if rank(g, e) >= 0)
                zero_hit = any(linear_equivalent(g, e, Divisor()) for e in twists(d, 0))
                corr = 1 if zero_hit and linear_equivalent(g, marks, kdiv) else 0
                assert inv_k(tau) == eff + corr


def test_class_rank_banana_huge_twist():
    # banana 3 3 3 3 marked s0.0/s1.2 has torsion 6, so adding n(u - v) to D
    # leaves the rank at its value for n mod 6.  `chipfire rank` answers
    # through _class_rank; the generic reduction would stop on its
    # firing-round guard at this n
    mg = MarkedGraph(build_banana([3, 3, 3, 3]), "s0.0", "s1.2")
    g = mg.graph
    k = torsion_order(mg)
    assert k == 6
    d0 = Divisor.at(mg.u) - Divisor.at(mg.v)
    d = Divisor({"s0.1": 5})
    n = 3 * 10 ** 6
    small = full_rank(g, d + (n % k) * d0)
    assert _class_rank(g, d + n * d0) == small
