"""Acceptance suite: every criterion is exact (integer equality); the graphs,
divisors, and expected values are pinned below.  Each test prints one
pass/fail line (run with -s to see them stream)."""

import itertools
import random
import time
from math import lcm

from chipfire.banana import (ONE_OFF, divisor_to_tuple,
                             inversion_lower_bound, predicted_tau,
                             rank_of_tuple)
from chipfire.certify import (CERTIFIED_GENERAL, bn_general_unmarked,
                              chain_certify, classify_genus2, divisor_census,
                              rho, theta_nonsubmodular_set)
from chipfire.divisors import (Divisor, canonical_divisor, dhar_reduce,
                               enumerate_jacobian, linear_equivalent, rank)
from chipfire.graphs import (MarkedGraph, build_banana, build_cycle,
                             build_theta, chain_glue_maps,
                             jacobian_order, vertex_glue)
from chipfire.perms import EafPerm, demazure, embed, inv_k, sci
from chipfire.transmission import (_class_rank, _class_reps, _rep_divisor,
                                   delta, kgt_check, torsion_order,
                                   transmission_permutation,
                                   weierstrass_partition)

from conftest import random_connected_multigraph, random_divisor

FIG6_LENGTHS = [5, 4, 4, 3, 3, 3, 3, 3, 3, 3]


def _report(number, description):
    print(f"criterion {number:2d} PASS: {description}", flush=True)


def test_criterion_01_fig6_reproduction():
    started = time.monotonic()
    g = build_banana(FIG6_LENGTHS)
    mg = MarkedGraph(g, "s0.0", "s0.4")
    assert torsion_order(mg) == 91
    tau = transmission_permutation(mg, Divisor({"s0.5": 9}))
    assert tau.modulus == 91
    assert inv_k(tau) == 217
    for b in range(12):  # the closed form covers exactly b <= 11 here
        expected = predicted_tau(ONE_OFF, FIG6_LENGTHS, b)
        assert expected is not None
        assert tau(b) == expected
    assert predicted_tau(ONE_OFF, FIG6_LENGTHS, 12) is None
    # recorded, not asserted: whether b = 12 happens to extend the pattern
    extrapolated = 9 + 2 * (12 // 5) - 12 + 1
    note = ("matches" if tau(12) == extrapolated else
            f"does not match (tau(12) = {tau(12)}, pattern value {extrapolated})")
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(1, f"fig6 torsion 91, 217 inversions, window formula on b <= 11 "
               f"({elapsed:.2f}s); b = 12 {note}")


def test_criterion_02_inversion_lower_bound():
    bound = inversion_lower_bound(ONE_OFF, FIG6_LENGTHS)
    assert bound == 38
    g = build_banana(FIG6_LENGTHS)
    tau = transmission_permutation(MarkedGraph(g, "s0.0", "s0.4"),
                                   Divisor({"s0.5": 9}))
    assert bound <= inv_k(tau) == 217
    _report(2, "one-off inversion bound equals 38 and 38 <= 217")


def test_criterion_03_jacobian_orders():
    started = time.monotonic()
    theta = build_theta(3, 4, 5)
    assert jacobian_order(theta) == 47
    assert len(enumerate_jacobian(theta)) == 47
    rng = random.Random(345)
    for _ in range(10):
        genus = rng.randint(1, 4)
        lengths = [rng.randint(1, 4) for _ in range(genus + 1)]
        g = build_banana(lengths)
        prod = 1
        for n in lengths:
            prod *= n
        assert jacobian_order(g) == sum(prod // n for n in lengths)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(3, f"47 classes two ways; closed form on 10 random bananas ({elapsed:.2f}s)")


def test_criterion_04_banana_rank_oracle():
    started = time.monotonic()
    bananas = []
    for total in range(2, 11):
        for strands in range(2, total + 1):
            for combo in itertools.combinations_with_replacement(range(1, total), strands):
                if sum(combo) == total:
                    bananas.append(combo)
    checks = 0
    for lengths in bananas:
        g = build_banana(list(lengths))
        genus = g.genus
        base = Divisor.at(g.base_vertex)
        for rep in _class_reps(g):
            j = _rep_divisor(g, rep)
            for degree in range(0, 2 * genus + 1):
                d = j + degree * base
                fast = rank_of_tuple(divisor_to_tuple(g.banana, d), degree)
                assert fast == rank(g, d), (lengths, degree, d)
                checks += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(4, f"closed-form rank equals descent rank on {len(bananas)} bananas, "
               f"{checks} class/degree pairs ({elapsed:.2f}s)")


def test_criterion_05_theta_nonsubmodular_bijection():
    g = build_theta(3, 3, 3)
    base = Divisor.at(g.base_vertex)
    strands = [[g.banana.vertex_id(alpha, i) for i in range(4)] for alpha in range(3)]

    def brute_count(u, v):
        mg = MarkedGraph(g, u, v)
        return sum(1 for j in enumerate_jacobian(g)
                   if delta(mg, j + 2 * base) < 0)

    same_strand_pairs = set()
    for path in strands:
        for u, v in itertools.permutations(path, 2):
            same_strand_pairs.add((u, v))
    for u, v in sorted(same_strand_pairs):
        formula = theta_nonsubmodular_set(g, u, v)
        assert len(formula) == brute_count(u, v), (u, v)
    hubs = {"s0.0", "s0.3"}
    distinct = 0
    for u, v in itertools.permutations(g.vertices, 2):
        if (u, v) in same_strand_pairs or u in hubs or v in hubs:
            continue
        assert theta_nonsubmodular_set(g, u, v) == set()
        assert brute_count(u, v) == 0
        distinct += 1
    _report(5, f"bijection count on {len(same_strand_pairs)} same-strand pairs; "
               f"{distinct} distinct-strand pairs all empty")


def test_criterion_06_genus2_classification_vs_brute():
    started = time.monotonic()
    thetas = []
    for total in range(3, 9):
        for combo in itertools.combinations_with_replacement(range(1, total + 1), 3):
            if sum(combo) == total:
                thetas.append(combo)
    pairs = 0
    for a, b, c in thetas:
        g = build_theta(a, b, c)
        for u, v in itertools.permutations(g.vertices, 2):
            mg = MarkedGraph(g, u, v)
            assert (classify_genus2(mg).verdict == "KGT") == kgt_check(mg).passed, \
                (a, b, c, u, v)
            pairs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    _report(6, f"classification equals exhaustive check on {len(thetas)} thetas, "
               f"{pairs} ordered mark pairs ({elapsed:.2f}s)")


def test_criterion_07_evenly_marked_components():
    cert = kgt_check(MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"))
    assert cert.passed and cert.torsion == 4
    cert = kgt_check(MarkedGraph(build_theta(6, 2, 3), "s0.4", "s2.2"))
    assert cert.passed and cert.torsion == 3
    cert = kgt_check(build_cycle(3, 1))
    assert cert.passed and cert.torsion == 4
    _report(7, "evenly marked components certify at computed orders 4, 3, 4; "
               "the summary-sentence order 5 for the second component is a "
               "known discrepancy and is logged, not asserted")


def test_criterion_08_countdown_window():
    g = build_banana([1, 1, 1, 1])
    mg = MarkedGraph(g, "L", "R")
    tau = transmission_permutation(mg, Divisor({"s0.1": 3}))
    assert tau.window == (3, 2, 1, 0)
    for b in range(4):
        assert tau(b) == 3 - b
    assert inv_k(tau) == 6 > g.genus == 3
    cert = kgt_check(mg)
    assert not cert.passed
    assert cert.max_inversions >= 6
    _report(8, "hub countdown window (3,2,1,0) has 6 > 3 inversions; check fails")


def _random_component(rng):
    if rng.random() < 0.5:
        return build_cycle(rng.randint(1, 3), rng.randint(1, 3))
    a, c = rng.randint(2, 3), rng.randint(2, 3)
    b = rng.randint(1, 3)
    th = build_theta(a, b, c)
    return MarkedGraph(th, f"s0.{rng.randint(1, a - 1)}", f"s2.{rng.randint(1, c - 1)}")


def test_criterion_09_demazure_gluing():
    rng = random.Random(909)
    done = 0
    while done < 20:
        c1, c2 = _random_component(rng), _random_component(rng)
        if c1.graph.genus + c2.graph.genus > 4:
            continue
        glued, maps = chain_glue_maps([c1, c2])
        parts = []
        for comp in (c1, c2):
            parts.append(Divisor({v: rng.randint(-1, 2)
                                  for v in rng.sample(comp.graph.vertices,
                                                      min(2, len(comp.graph.vertices)))}))
        taus = [transmission_permutation(comp, part)
                for comp, part in zip((c1, c2), parts)]
        modulus = lcm(taus[0].modulus, taus[1].modulus)
        expected = demazure(embed(taus[0], modulus), embed(taus[1], modulus))
        total = Divisor()
        for rename, part in zip(maps, parts):
            for v, coeff in part.coeffs.items():
                total = total + coeff * Divisor.at(rename[v])
        got = transmission_permutation(glued, total)
        assert got.modulus == modulus
        assert got.window == expected.window
        done += 1
    _report(9, "glued permutations equal Demazure products on 20 random gluings")


def test_criterion_10_sci_lambda_identity():
    graphs = [
        build_cycle(2, 1),
        build_cycle(3, 1),
        MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"),
        MarkedGraph(build_theta(2, 1, 2), "s0.1", "s2.1"),
        vertex_glue(build_cycle(2, 1), build_cycle(2, 1)),
    ]
    classes = 0
    for mg in graphs:
        g = mg.graph
        du = Divisor.at(mg.u)
        for rep in _class_reps(g):
            j = _rep_divisor(g, rep)
            for shift in (0, 1, 3):
                d = j + shift * du
                assert sci(transmission_permutation(mg, d)) == \
                    weierstrass_partition(g, mg.v, d).size
            classes += 1
    _report(10, f"sign-change count equals partition size on {classes} classes "
                f"across 5 graphs")


def test_criterion_11_chain_certificates():
    started = time.monotonic()
    comps = [
        build_cycle(3, 1),
        MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"),
        build_cycle(3, 2),
        MarkedGraph(build_theta(5, 2, 10), "s0.2", "s2.4"),
        MarkedGraph(build_theta(6, 2, 3), "s0.4", "s2.2"),
    ]
    assert chain_certify(comps).verdict == CERTIFIED_GENERAL

    small = [build_cycle(2, 1), MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1")]
    assert chain_certify(small).verdict == CERTIFIED_GENERAL
    glued, _ = chain_glue_maps(small)
    g = glued.graph
    assert g.genus == 3
    assert jacobian_order(g) == 72
    census = {entry.d: entry.r for entry in divisor_census(g)}
    census_pairs = {(d, r) for d, top in census.items() for r in range(0, top + 1)}
    formula_pairs = {(d, r) for d in range(0, 2 * 3 - 1) for r in range(0, d + 1)
                     if rho(3, r, d) >= 0}
    assert census_pairs == formula_pairs
    assert bn_general_unmarked(g).verdict == CERTIFIED_GENERAL
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _report(11, f"five-component chain and 72-class chain both certified; "
                f"census equals the nonnegative-rho set ({elapsed:.2f}s)")


def _all_eaf_windows(k, disp):
    out = []
    for cand in itertools.product(*[range(i - disp, i + disp + 1) for i in range(k)]):
        if len({x % k for x in cand}) == k:
            out.append(EafPerm(k, cand))
    return out


def test_criterion_12_property_suites():
    rng = random.Random(1212)

    # Riemann-Roch on 500 random (graph, divisor) pairs
    pairs = 0
    while pairs < 500:
        g = random_connected_multigraph(rng)
        k = canonical_divisor(g)
        for _ in range(5):
            d = random_divisor(rng, g)
            assert rank(g, d) - rank(g, k - d) == d.degree - g.genus + 1
            pairs += 1

    # burning reduction: idempotence and certificate replay
    for _ in range(40):
        g = random_connected_multigraph(rng)
        d = random_divisor(rng, g)
        q = rng.choice(g.vertices)
        form = dhar_reduce(g, d, q)
        assert form.replay(g, d) == form.divisor
        assert dhar_reduce(g, form.divisor, q).divisor == form.divisor
        assert linear_equivalent(g, d, form.divisor)

    # permutation characterization identities
    for mg, d in [(MarkedGraph(build_theta(2, 1, 2), "s0.1", "s2.1"), Divisor({"s0.1": 1})),
                  (build_cycle(3, 1), Divisor({"s0.0": 2})),
                  (MarkedGraph(build_banana([1, 1, 1, 1]), "L", "R"), Divisor({"s0.1": 3}))]:
        g = mg.graph
        tau = transmission_permutation(mg, d)
        kdiv = canonical_divisor(g)
        genus = g.genus
        du, dv = Divisor.at(mg.u), Divisor.at(mg.v)
        mn, mx = tau.displacement()
        for b in range(-1, tau.modulus + 1):
            for a in range(b - d.degree - 1, b - d.degree + 2 * genus + 2):
                assert _class_rank(g, d + a * du - b * dv) + 1 == \
                    sum(1 for l in range(b, a - mn + 1) if tau(l) <= a)
                assert _class_rank(g, kdiv - d - a * du + b * dv) + 1 == \
                    sum(1 for l in range(min(b, a - mx - tau.modulus), b) if tau(l) > a)

    # mark-swap symmetry identities
    for mg, d in [(MarkedGraph(build_theta(4, 1, 4), "s0.1", "s2.1"), Divisor({"s0.1": 2})),
                  (build_cycle(3, 2), Divisor({"s0.1": 1}))]:
        g = mg.graph
        kdiv = canonical_divisor(g)
        swap = mg.swapped()
        tau = transmission_permutation(mg, d)
        tau_swap = transmission_permutation(swap, d)
        tau_iota = transmission_permutation(
            swap, kdiv - d + Divisor.at(mg.u) + Divisor.at(mg.v))
        for b in range(tau.modulus):
            assert tau_swap(-tau(b)) == -b
            assert tau_iota(tau(b)) == b

    # Demazure associativity: exhaustive for k <= 3, displacement <= 3
    triples = 0
    for k in (1, 2, 3):
        perms = _all_eaf_windows(k, 3)
        pair_product: dict = {}

        def star(x, y):
            key = (x.window, y.window)
            got = pair_product.get(key)
            if got is None:
                got = demazure(x, y)
                pair_product[key] = got
            return got

        for a in perms:
            for b in perms:
                ab = star(a, b)
                for c in perms:
                    assert star(ab, c).window == star(a, star(b, c)).window
                    triples += 1

    # sign-change bounds on random elements
    def rand_eaf(k, disp=3):
        while True:
            cand = tuple(i + rng.randint(-disp, disp) for i in range(k))
            if len({x % k for x in cand}) == k:
                return EafPerm(k, cand)

    for _ in range(300):
        k = rng.randint(3, 6)
        a = rand_eaf(k)
        if sci(a) <= k - 2:
            assert sci(demazure(a, EafPerm.simple(k, rng.randint(0, k - 1)))) <= sci(a) + 1
        b = rand_eaf(k)
        if k > sci(a) + inv_k(b):
            assert sci(demazure(a, b)) <= sci(a) + inv_k(b)

    _report(12, f"property suites: 500 Riemann-Roch pairs, burning replay, "
                f"characterization and symmetry identities, {triples} "
                f"associativity triples, sign-change bounds")
