"""The twist grid and the class sweeps against copies of their Divisor-based
forms, which rank every twist and every degree separately: one full tuple
reduction (or one burning reduction) per rank query, with no class memo, no
profiles and no column folding."""

from itertools import combinations, combinations_with_replacement
import random

import pytest

import chipfire.banana as bn
import chipfire.certify as certify
from chipfire.banana import (_profile_ranks, _raw_entries, _reduce_entries,
                             _reduced_profile)
from chipfire.certify import (CensusEntry, bn_general_marked, divisor_census,
                              rho)
from chipfire.divisors import Divisor, _vec, rank
from chipfire.errors import AlgorithmError, NonSubmodularError
from chipfire.graphs import (Graph, MarkedGraph, build_banana, build_theta,
                             jacobian_order)
from chipfire.perms import EafPerm, inv_k
from chipfire.transmission import (_class_reps, _engine, _orbit_keys,
                                   _ordered_orbit_reps, _permutation,
                                   _rep_divisor, _second_differences,
                                   _twist_columns, _twist_divisor,
                                   all_submodular, delta,
                                   is_submodular_divisor, kgt_check,
                                   torsion_order, transmission_permutation,
                                   weierstrass_partition)

from conftest import random_connected_multigraph, random_divisor


# ---------------------------------------------------------------------------
# the Divisor-based forms


def _old_raw(g, d):
    return _vec(g, d) if g.banana is None else _raw_entries(g.banana, d)


def _old_rank_raw(g, raw, degree):
    if g.banana is None:
        return rank(g, raw)
    lengths = g.banana.lengths
    profile = _reduced_profile(lengths, _reduce_entries(lengths, raw))
    return _profile_ranks(g.genus, profile, range(degree, degree + 1))[0]


def _old_rank(g, d):
    return _old_rank_raw(g, _old_raw(g, d), d.degree)


def _old_twist_rank_fn(mg, d):
    g = mg.graph
    base, du, dv = (_old_raw(g, x) for x in (d, Divisor.at(mg.u), Divisor.at(mg.v)))
    cache = {}

    def r(a, b):
        if (a, b) not in cache:
            raw = [x + a * y - b * z for x, y, z in zip(base, du, dv)]
            cache[(a, b)] = _old_rank_raw(g, raw, d.degree + a - b)
        return cache[(a, b)]
    return r


def _old_second_differences(mg, d, k):
    r = _old_twist_rank_fn(mg, d)
    deg = d.degree
    for b in range(k):
        for a in range(b - deg, b - deg + 2 * mg.graph.genus + 1):
            yield a, b, r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)


def _old_delta(mg, d):
    r = _old_twist_rank_fn(mg, d)
    return r(0, 0) - r(-1, 0) - r(0, 1) + r(-1, 1)


def _old_is_submodular(mg, d):
    for a, b, val in _old_second_differences(mg, d, torsion_order(mg)):
        if val < 0:
            return False, _twist_divisor(mg, d, a, b), val
    return True, None, None


def _old_transmission_permutation(mg, d):
    k = torsion_order(mg)
    window = [None] * k
    for a, b, val in _old_second_differences(mg, d, k):
        if val == 0:
            continue
        if val != 1 or window[b] is not None:
            raise NonSubmodularError(_twist_divisor(mg, d, a, b), val)
        window[b] = a
    if None in window:
        raise AlgorithmError("no window value")
    return EafPerm(k, tuple(window))


def _old_all_submodular(mg):
    g = mg.graph
    base = Divisor.at(g.base_vertex)
    for rep in _class_reps(g):
        j = _rep_divisor(g, rep)
        for degree in range(0, 2 * g.genus + 1):
            d = j + degree * base
            val = _old_delta(mg, d)
            if val < 0:
                return False, d, val
    return True, None, None


def _old_census(g):
    base = Divisor.at(g.base_vertex)
    best = {}
    for rep in _class_reps(g):
        j = _rep_divisor(g, rep)
        for degree in range(0, max(2 * g.genus - 1, 1)):
            d = j + degree * base
            r = _old_rank(g, d)
            if degree not in best or r > best[degree][0]:
                best[degree] = (r, d)
    return [CensusEntry(degree, r, rho(g.genus, r, degree), w)
            for degree, (r, w) in sorted(best.items())]


def _old_partition(g, v, d):
    parts, orders = [], []
    for l in range(-d.degree, 2 * g.genus - d.degree + 1):
        i = len(parts)
        if _old_rank(g, d + Divisor.at(v, l)) < i:
            continue
        lam = i - l + g.genus - d.degree
        if lam == 0:
            break
        parts.append(lam)
        orders.append(l)
    return tuple(parts), tuple(orders)


def _old_bn_marked(g, v):
    v = g.resolve(v)
    worst = 0
    for rep in _class_reps(g):
        d = _rep_divisor(g, rep)
        parts, _ = _old_partition(g, v, d)
        if sum(parts) > g.genus:
            return "NOT_GENERAL", d, list(parts), sum(parts)
        worst = max(worst, sum(parts))
    return "CERTIFIED_GENERAL", None, None, worst


def _old_ordered_orbit_reps(mg, k):
    g = mg.graph
    eng = _engine(g)
    heads = []
    if g.banana is not None:
        hubs = Divisor.at(g.banana.right) - Divisor.at(g.banana.left)
        heads.append(eng.reduce(g, eng.raw(g, g.genus * hubs)))
    seen = set()
    for rep in [*heads, *_class_reps(g)]:
        if rep not in seen:
            seen.update(_orbit_keys(mg, rep, k))
            yield eng.divisor(g, rep)


def _old_kgt(mg):
    """(max inversions, extremal, non-submodular witness, orbits checked) of
    kgt_check without and with exhaustive, from one walk over the orbits."""
    genus = mg.graph.genus
    k = torsion_order(mg)
    max_inv = extremal = nonsub = None
    orbits = 0
    first_fail = None
    for rep in _old_ordered_orbit_reps(mg, k):
        orbits += 1
        try:
            inv = inv_k(_old_transmission_permutation(mg, rep))
        except NonSubmodularError as err:
            nonsub = err.witness
            break
        if max_inv is None or inv > max_inv:
            max_inv, extremal = inv, rep
        if inv > genus and first_fail is None:
            first_fail = (max_inv, extremal, None, orbits)
    full = (max_inv, extremal, nonsub, orbits)
    return {False: full if nonsub is not None or first_fail is None else first_fail,
            True: full}


# ---------------------------------------------------------------------------
# comparisons


def _outcome(fn, *args):
    """fn's value, or the witness and value of the NonSubmodularError it raises."""
    try:
        return fn(*args)
    except NonSubmodularError as err:
        return "raised", err.witness, err.value


def _check_twists(mg, divisors):
    for d in divisors:
        assert delta(mg, d) == _old_delta(mg, d)
        assert tuple(is_submodular_divisor(mg, d)) == _old_is_submodular(mg, d)
        if not mg.degenerate:
            assert (_outcome(transmission_permutation, mg, d)
                    == _outcome(_old_transmission_permutation, mg, d))


def _check_kgt(mg):
    k = torsion_order(mg)
    assert [(_rep_divisor(mg.graph, rep), len(keys))
            for rep, keys in _ordered_orbit_reps(mg, k)] == \
        [(d, k) for d in _old_ordered_orbit_reps(mg, k)]
    old = _old_kgt(mg)
    for exhaustive in (False, True):
        cert = kgt_check(mg, exhaustive)
        assert (cert.max_inversions, cert.extremal, cert.nonsubmodular_witness,
                cert.orbits_checked) == old[exhaustive]


def _check_marked(g, v):
    cert = bn_general_marked(g, v)
    ev = cert.evidence
    assert (cert.verdict, ev.get("witness"), ev.get("partition"),
            ev.get("size", ev.get("max_partition_size"))) == _old_bn_marked(g, v), v


def _genus3_bananas():
    """Every banana of genus 3 with strands of length at most 3."""
    return [build_banana(lengths)
            for lengths in combinations_with_replacement((3, 2, 1), 4)]


def _markings(g):
    """Every marking by two distinct vertices, once up to permuting strands
    of equal length: a vertex is known by its hub or its (strand length,
    offset), and a pair also by whether it shares a strand."""
    spec = g.banana
    seen = {}
    for u, v in combinations(g.vertices, 2):
        (a, i), (b, j) = spec.position(u), spec.position(v)
        kind = tuple(x if x in (spec.left, spec.right) else (spec.lengths[c], k)
                     for x, c, k in ((u, a, i), (v, b, j)))
        seen.setdefault(kind + (a == b,), (u, v))
    return list(seen.values())


def _mark_kinds(g):
    """Marks on the base vertex, the far hub and an interior vertex, and a
    repeated mark."""
    inner, far = g.vertices[-1], g.banana.right
    return ((g.base_vertex, far), (far, g.base_vertex), (inner, g.base_vertex),
            (inner, far), (inner, inner))


@pytest.mark.parametrize("g", _genus3_bananas(),
                         ids=lambda g: "-".join(map(str, g.banana.lengths)))
def test_genus3_banana_sweeps_match_divisor_form(g):
    # every marking for the transmission sweep, which runs the twist grid of
    # one divisor per orbit; each mark kind for the rest, and the plain
    # rebuild (the vector engine) on fewer, as burning costs more
    for u, v in _markings(g):
        _check_kgt(MarkedGraph(g, u, v))
    rng = random.Random(str(g.banana.lengths))
    divisors = [random_divisor(rng, g, lo=-2, hi=3)]
    plain = Graph(g.vertices, g.edges)
    for i, (u, v) in enumerate(_mark_kinds(g)):
        mg, plain_mg = MarkedGraph(g, u, v), MarkedGraph(plain, u, v)
        _check_twists(mg, divisors)
        if i in (0, 2, 4):
            _check_twists(plain_mg, divisors)
        # the sweep's lines run along the base vertex whatever the marks
        if i in (3, 4):
            assert tuple(all_submodular(mg)) == _old_all_submodular(mg)
        if i == 0:
            assert tuple(all_submodular(plain_mg)) == _old_all_submodular(plain_mg)
        if i == 2:
            _check_kgt(plain_mg)
    for h in (g, plain):
        assert divisor_census(h) == _old_census(h)
    for v in (g.base_vertex, g.banana.right, g.vertices[-1]):
        _check_marked(g, v)
    _check_marked(plain, g.vertices[-1])


@pytest.mark.parametrize("lengths", [(2, 2, 2, 2, 2), (4, 3, 3, 2, 2), (4, 4, 3, 3, 2),
                                     (3, 2, 2, 1, 1, 1), (2, 2, 2, 2, 2, 2),
                                     (3, 3, 3, 2, 2, 1)],
                         ids=lambda lengths: "-".join(map(str, lengths)))
def test_census_by_profile_matches_divisor_form(lengths):
    # genus 4-5 and at most 500 classes, where many classes share a profile
    g = build_banana(lengths)
    eng = _engine(g)
    profiles = {eng.key_profile(g, rep) for rep in _class_reps(g)}
    assert len(profiles) < jacobian_order(g) <= 500
    assert divisor_census(g) == _old_census(g)


def test_census_ranks_each_profile_once(monkeypatch):
    # banana 3 3 3 3 has 108 classes and 10 distinct profiles
    calls = []
    ranks = bn._profile_ranks
    monkeypatch.setattr(bn, "_profile_ranks", lambda *a: calls.append(a) or ranks(*a))
    g = build_banana((3, 3, 3, 3))
    assert jacobian_order(g) == 108
    divisor_census(g)
    assert len(calls) == 10


def test_random_multigraph_sweeps_match_divisor_form():
    rng = random.Random(20261018)
    for _ in range(50):
        g = random_connected_multigraph(rng, 5, 3)
        u, v = g.base_vertex, rng.choice(g.vertices[1:])
        if rng.random() < 0.5:
            u, v = v, u
        marks = [(u, v), (v, v), tuple(rng.sample(g.vertices, 2))]
        divisors = [random_divisor(rng, g)]
        for u, v in marks:
            mg = MarkedGraph(g, u, v)
            _check_twists(mg, divisors)
            assert tuple(all_submodular(mg)) == _old_all_submodular(mg)
            if not mg.degenerate:
                _check_kgt(mg)
        assert divisor_census(g) == _old_census(g)
        _check_marked(g, rng.choice(g.vertices))


def test_weierstrass_partition_matches_divisor_form():
    rng = random.Random(7)
    for lengths in ((3, 2, 2, 1), (4, 3, 3), (2, 2, 2, 2, 2)):
        g = build_banana(lengths)
        for plain in (g, Graph(g.vertices, g.edges)):
            for _ in range(10):
                d = random_divisor(rng, plain, lo=-2, hi=4)
                v = rng.choice(plain.vertices)
                lam = weierstrass_partition(plain, v, d)
                assert (lam.parts, lam.pole_orders) == _old_partition(plain, v, d)


# ---------------------------------------------------------------------------
# the twist-row rule against the slot rule and the scan it replaced


def _old_slot_permutation(mg, column, degree, d):
    """_permutation before the row rule: the first nonzero value of a row may
    be its 1, and any other nonzero value is a witness."""
    k = torsion_order(mg)
    window = [None] * k
    for b, vals in _second_differences(column, mg.graph.genus, degree, k):
        slots = [i for i, val in enumerate(vals) if val]
        if slots and vals[slots[0]] == 1:
            window[b] = b - degree + slots.pop(0)
        if slots:
            i = slots[0]
            raise NonSubmodularError(_twist_divisor(mg, d, b - degree + i, b), vals[i])
    if None in window:
        raise AlgorithmError("no window value")
    return EafPerm(k, tuple(window))


def _old_submodular_scan(mg, d):
    """is_submodular_divisor before the row rule: the first negative value."""
    g = mg.graph
    column = _twist_columns(mg, _engine(g).raw(g, d), d.degree)
    for b, vals in _second_differences(column, g.genus, d.degree, torsion_order(mg)):
        if min(vals) < 0:
            i = next(i for i, val in enumerate(vals) if val < 0)
            return False, _twist_divisor(mg, d, b - d.degree + i, b), vals[i]
    return True, None, None


def _row_divisor(rng, g):
    """A divisor of degree -1 to 2g + 1 with up to two negative chips."""
    degree = rng.randint(-1, 2 * g.genus + 1)
    negative = rng.choice((0, 0, 1, 2))
    coeffs = {}
    for sign, count in ((1, degree + negative), (-1, negative)):
        for _ in range(count):
            v = rng.choice(g.vertices)
            coeffs[v] = coeffs.get(v, 0) + sign
    return Divisor(coeffs)


def _row_graphs(rng):
    """Bananas of 2-6 strands of length 1-5, then random multigraphs."""
    for _ in range(25):
        yield build_banana([rng.randint(1, 5) for _ in range(rng.randint(2, 6))])
    for _ in range(20):
        yield random_connected_multigraph(rng, 5, 3)


def test_twist_rows_match_slot_rule():
    rng = random.Random(20261020)
    for g in _row_graphs(rng):
        u, v = rng.sample(g.vertices, 2)
        for marks in ((u, v), (v, u), (u, u)):
            mg = MarkedGraph(g, *marks)
            for _ in range(2):
                d = _row_divisor(rng, g)
                column = _twist_columns(mg, _engine(g).raw(g, d), d.degree)
                for _, vals in _second_differences(column, g.genus, d.degree,
                                                   torsion_order(mg)):
                    assert set(vals) <= {-1, 0, 1} and sum(vals) == 1, (g.edges, marks, d)
                assert (_outcome(_permutation, mg, column, d.degree, lambda: d)
                        == _outcome(_old_slot_permutation, mg, column, d.degree, d))
                assert tuple(is_submodular_divisor(mg, d)) == _old_submodular_scan(mg, d)


# ---------------------------------------------------------------------------
# once-marked generality by profile at the base vertex


@pytest.mark.parametrize("lengths", [(4, 3, 2), (2, 2, 2)],
                         ids=lambda lengths: "-".join(map(str, lengths)))
def test_bn_marked_on_thetas_matches_divisor_form(lengths):
    # at genus 2 a mark goes either way: (4, 3, 2) is general at its hubs and
    # not at s2.1, (2, 2, 2) not at s0.1; every mark, the base vertex included
    g = build_banana(lengths)
    for plain in (g, Graph(g.vertices, g.edges)):
        for v in g.vertices:
            _check_marked(plain, v)


def test_bn_marked_at_base_reads_each_profile_once(monkeypatch):
    # theta 4 1 4 marked at L: 24 classes with 6 distinct profiles
    calls = []
    partition = certify._partition
    monkeypatch.setattr(certify, "_partition", lambda *a: calls.append(a) or partition(*a))
    g = build_theta(4, 1, 4)
    assert jacobian_order(g) == 24
    assert bn_general_marked(g, "L").verdict == "CERTIFIED_GENERAL"
    assert len(calls) == 6
