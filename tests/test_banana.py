from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chipfire.banana as bn
from chipfire.banana import (BOTH_OFF, BOTH_OFF_MIN, MULTIVALENT_PAIR, ONE_OFF,
                             BananaTuple, _entries_profile, _key_divisor,
                             _profile_ranks, _raw_entries, _reduce_entries,
                             _reduced_profile, _reduced_tuples,
                             inversion_lower_bound, predicted_tau)
from chipfire.divisors import Divisor, dhar_reduce, linear_equivalent, rank
from chipfire.errors import AlgorithmError, InvalidGraphError, WrongShapeError
from chipfire.graphs import BananaSpec, MarkedGraph, build_banana
from chipfire.perms import inv_k
from chipfire.transmission import (_class_rank, torsion_order,
                                   transmission_permutation)

from conftest import random_divisor


def _tuple_class_divisor(g, key, degree):
    return _key_divisor(g.banana, key) + degree * Divisor.at(g.banana.left)


def _tuple_rank(spec, reduced, degree):
    """Test oracle: the rank of a reduced tuple at one degree, read off the
    tuple's own (strand, right-hub) profile."""
    assert BananaTuple(spec, reduced).is_reduced()
    return _profile_ranks(spec.genus, _reduced_profile(spec.lengths, reduced),
                          range(degree, degree + 1))[0]


def _banana_rank(a, b, e, g):
    """Rank of a base-reduced banana divisor with a/b hub chips and e strand chips."""
    return _profile_ranks(g, (e, b), range(a + b + e, a + b + e + 1))[0]


def _shape_divisor(spec, entries, degree):
    """Test oracle: the hub-and-interior shape object that _key_divisor
    replaced, built from a reduced tuple and turned into a divisor."""
    left, right, interior = degree, 0, []
    for alpha, a in enumerate(entries):
        if a:
            left -= 1
            if a == spec.lengths[alpha]:
                right += 1
            else:
                interior.append((alpha, a))
    chips = {}
    if left:
        chips[spec.left] = left
    if right:
        chips[spec.right] = chips.get(spec.right, 0) + right
    for alpha, i in interior:
        chips[spec.vertex_id(alpha, i)] = chips.get(spec.vertex_id(alpha, i), 0) + 1
    return Divisor(chips)


def test_key_divisor_matches_shape_oracle_and_is_reduced():
    for lengths in [(1, 1), (2, 1), (1, 3, 1), (2, 2, 2), (3, 4, 5), (2, 3, 2, 2)]:
        g = build_banana(list(lengths))
        spec = g.banana
        for key in _reduced_tuples(lengths):
            d = _key_divisor(spec, key)
            assert d == _shape_divisor(spec, key, 0), (lengths, key)
            assert d.degree == 0
            assert dhar_reduce(g, d, "L").divisor == d


def test_reduce_tuple_identity_cases():
    assert _reduce_entries((3, 4, 5), (0, 0, 0)) == (0, 0, 0)
    assert _reduce_entries((3, 4, 5), (1, 1, 1)) == (0, 0, 0)  # a single hub firing


def test_reduce_tuple_full_entry_coset():
    # (n0, 0, 0) and (0, n1, 0) are the same class; the reduced form keeps
    # full entries left of zeros, hence (3, 0, 0)
    g = build_banana([3, 4, 5])
    spec = g.banana
    a = _reduce_entries(spec.lengths, (3, 0, 0))
    b = _reduce_entries(spec.lengths, (0, 4, 0))
    assert a == b == (3, 0, 0)
    assert BananaTuple(spec, a).is_reduced()
    da = _tuple_class_divisor(g, a, 0)
    db = Divisor({"s1.1": 4, "s0.0": -4})  # 4 * [v_{1,1} - L]
    assert linear_equivalent(g, da, db)


def test_reduce_tuple_matches_burning_oracle(rng):
    for lengths in [(1, 1), (2, 1), (2, 2, 2), (2, 3, 2, 2), (3, 4, 5), (1, 1, 1, 1)]:
        g = build_banana(list(lengths))
        spec = g.banana
        for _ in range(30):
            d = random_divisor(rng, g, lo=-3, hi=3)
            t = _reduce_entries(spec.lengths, _raw_entries(spec, d))
            assert BananaTuple(spec, t).is_reduced()
            rebuilt = _tuple_class_divisor(g, t, d.degree)
            assert linear_equivalent(g, d, rebuilt)


def test_tuple_equivalence_criterion(rng):
    g = build_banana([2, 3, 2])
    spec = g.banana
    for _ in range(40):
        d1 = random_divisor(rng, g, lo=-2, hi=2)
        d2 = random_divisor(rng, g, lo=-2, hi=2)
        same_tuple = (_reduce_entries(spec.lengths, _raw_entries(spec, d1))
                      == _reduce_entries(spec.lengths, _raw_entries(spec, d2))
                      and d1.degree == d2.degree)
        assert same_tuple == linear_equivalent(g, d1, d2)


def _loop_reduce_entries(lengths, entries):
    """Test oracle: the strand-by-strand subtraction loop that the closed
    form replaced; its cost grows with the entries, so keep them small."""
    work = list(entries)
    for _ in range(10 ** 5):
        m = min(work)
        if m:
            work = [a - m for a in work]
        over = next((i for i, a in enumerate(work) if a > lengths[i]), None)
        if over is None:
            break
        zero = work.index(0)
        work[over] -= lengths[over]
        work[zero] = lengths[zero]
    else:
        raise AssertionError("oracle loop did not terminate")
    slots = [i for i, a in enumerate(work) if a == 0 or a == lengths[i]]
    nfull = sum(1 for i in slots if work[i] == lengths[i])
    for pos, i in enumerate(slots):
        work[i] = lengths[i] if pos < nfull else 0
    return tuple(work)


@st.composite
def _lengths_and_entries(draw, lo=-200, hi=200):
    lengths = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=8)))
    entries = tuple(draw(st.lists(st.integers(lo, hi), min_size=len(lengths),
                                  max_size=len(lengths))))
    return lengths, entries


@settings(max_examples=400, deadline=None)
@given(_lengths_and_entries())
@example(((3, 4, 5), (-7, -200, -1)))            # negative entries
@example(((2, 3, 2, 2), (9, 9, 9, 9)))           # all entries equal
@example(((1, 1, 1), (0, 0, 0)))                 # strands of length 1
@example(((5, 4, 4, 3, 3, 3, 3, 3), (0, 0, 4000, 0, 0, 0, 0, 0)))   # one huge entry
@example(((6, 1, 2), (-4000, 0, 0)))                 # one huge negative entry
def test_reduce_entries_matches_loop_oracle(case):
    lengths, entries = case
    out = _reduce_entries(lengths, entries)
    assert out == _loop_reduce_entries(lengths, entries)
    assert BananaTuple(BananaSpec(lengths), out).is_reduced()
    assert _reduce_entries(lengths, out) == out


def test_reduce_entries_fixes_exactly_the_reduced_tuples():
    for lengths in [(1, 1, 1), (2, 1), (2, 3, 2, 2), (3, 4, 5), (6, 1, 2)]:
        spec = BananaSpec(lengths)
        for cand in product(*[range(n + 1) for n in lengths]):
            fixed = _reduce_entries(lengths, cand) == cand
            assert fixed == BananaTuple(spec, cand).is_reduced(), (lengths, cand)


@settings(max_examples=200, deadline=None)
@given(_lengths_and_entries(), st.integers(-10 ** 30, 10 ** 30),
       st.integers(0, 7), st.integers(0, 7))
def test_reduce_entries_huge_relation_multiples(case, big, a, b):
    # adding big * (n_a e_a - n_b e_b) or big * (1, ..., 1) keeps the class
    lengths, entries = case
    a, b = a % len(lengths), b % len(lengths)
    out = _reduce_entries(lengths, entries)
    moved = list(entries)
    moved[a] += big * lengths[a]
    moved[b] -= big * lengths[b]
    assert _reduce_entries(lengths, moved) == out
    assert _reduce_entries(lengths, [e + big for e in entries]) == out


@st.composite
def _kernel_case(draw):
    """2-8 strands of length 1-6, entries up to 10^30 in size, a degree in
    -5..3g."""
    lengths = tuple(draw(st.lists(st.integers(1, 6), min_size=2, max_size=8)))
    bound = draw(st.sampled_from([10, 10 ** 4, 10 ** 30]))
    entries = draw(st.lists(st.integers(-bound, bound), min_size=len(lengths),
                            max_size=len(lengths)))
    degree = draw(st.integers(-5, 3 * (len(lengths) - 1)))
    return lengths, entries, degree


@settings(max_examples=400, deadline=None)
@given(_kernel_case())
@example(((5, 4, 4, 3, 3, 3, 3, 3, 3, 3), [0] * 10, 9))     # fig6, the zero class
@example(((1, 1), [10 ** 30, -10 ** 30], -5))
def test_rank_kernel_matches_reduced_tuple(case):
    # the fused kernel reads the rank off the shifted entries; the oracle
    # builds the reduced tuple first
    lengths, entries, degree = case
    reduced = _reduce_entries(lengths, entries)
    profile = _entries_profile(lengths, entries)
    assert profile == _reduced_profile(lengths, reduced)
    genus = len(lengths) - 1
    degrees = range(degree - 3, degree + 2 * genus + 3)
    spec = BananaSpec(lengths)
    assert _profile_ranks(genus, profile, degrees) == [
        _tuple_rank(spec, reduced, x) for x in degrees]


@settings(max_examples=200, deadline=None)
@given(_kernel_case())
@example(((1, 1), [10 ** 30, -10 ** 30], -5))
def test_rank_entries_matches_rank_of_reduced_tuple(case):
    # rank_entries reads the profile off the raw entries; the oracle ranks
    # the reduced tuple
    lengths, entries, degree = case
    spec = BananaSpec(lengths)
    reduced = _reduce_entries(lengths, entries)
    for x in range(degree - 3, degree + 3):
        assert bn.rank_entries(spec, entries, x) == _tuple_rank(spec, reduced, x)


def test_no_zero_entry_self_check_raises_on_a_bad_shift(monkeypatch):
    # one step past the least shift puts the quotient sum at or above the
    # number of zero residues: both the reduction and the kernel must refuse
    lengths, entries = (2, 3, 4), (1, 0, 0)
    least = bn._least_shift(lengths, entries)
    monkeypatch.setattr(bn, "_least_shift", lambda *_: least + 12)
    with pytest.raises(AlgorithmError, match="no zero entry"):
        _reduce_entries(lengths, entries)
    with pytest.raises(AlgorithmError, match="no zero entry"):
        _entries_profile(lengths, entries)


def test_class_rank_at_huge_coefficient():
    g = build_banana(FIG6)
    k = torsion_order(MarkedGraph(g, "s0.1", "s0.0"))
    step = Divisor({"s0.1": 1, "s0.0": -1})
    n = 10 ** 7
    for base in (Divisor(), Divisor({"s0.5": 9}), Divisor({"s2.2": 4, "s0.0": 1})):
        assert _class_rank(g, base + n * step) == _class_rank(g, base + (n % k) * step)


def test_divisor_to_tuple_single_chip():
    g = build_banana([3, 4, 5])
    spec = g.banana
    for alpha, n in enumerate(spec.lengths):
        for i in range(n + 1):
            d = Divisor({spec.vertex_id(alpha, i): 1, "s0.0": -1})
            t = _reduce_entries(spec.lengths, _raw_entries(spec, d))
            expected = [0, 0, 0]
            if 0 < i:
                expected[alpha if i < n else 0] = i if i < n else spec.lengths[0]
            assert _reduce_entries(spec.lengths, expected) == t


def test_divisor_to_tuple_zero_and_canonical(rng):
    g = build_banana([2, 2, 2])
    spec = g.banana
    assert _reduce_entries(spec.lengths, _raw_entries(spec, Divisor())) == (0, 0, 0)
    from chipfire.divisors import canonical_divisor
    k = canonical_divisor(g)
    t = _reduce_entries(spec.lengths, _raw_entries(spec, k))
    rebuilt = _tuple_class_divisor(g, t, k.degree)
    assert linear_equivalent(g, k, rebuilt)


def test_key_divisor_shapes():
    spec = build_banana([3, 4, 5]).banana
    assert _key_divisor(spec, (0, 0, 0)) == Divisor()
    assert _reduced_profile(spec.lengths, (0, 0, 0)) == (0, 0)
    full = _reduce_entries(spec.lengths, (3, 0, 0))
    assert _key_divisor(spec, full) == Divisor({"s0.3": 1, "s0.0": -1})
    assert _reduced_profile(spec.lengths, full) == (0, 1)
    mixed = (3, 2, 0)
    assert _key_divisor(spec, mixed) == Divisor({"s0.3": 1, "s1.2": 1, "s0.0": -2})
    assert _reduced_profile(spec.lengths, mixed) == (1, 1)


def test_banana_rank_values():
    assert _banana_rank(1, 1, 0, 2) == 1
    assert _banana_rank(3, 3, 0, 3) == 3
    assert _banana_rank(3, 1, 2, 3) == 3
    assert _banana_rank(-2, 0, 0, 3) == -1
    with pytest.raises(InvalidGraphError):
        _banana_rank(0, 3, 1, 3)  # b > g - e


def test_banana_rank_example_on_graph():
    # 3L + R + two strand chips on B_{2,2,2,2} has rank 3
    g = build_banana([2, 2, 2, 2])
    d = Divisor({"s0.0": 3, "s0.2": 1, "s1.1": 1, "s2.1": 1})
    assert rank(g, d) == 3


def test_banana_rank_matches_descent_small(rng):
    for lengths in [(2, 2, 2), (1, 1, 1, 1), (2, 3, 2)]:
        g = build_banana(list(lengths))
        for _ in range(25):
            d = random_divisor(rng, g, lo=-2, hi=3)
            assert _class_rank(g, d) == rank(g, d)


FIG6 = [5, 4, 4, 3, 3, 3, 3, 3, 3, 3]


def test_predicted_tau_values():
    assert predicted_tau(MULTIVALENT_PAIR, [1, 1, 1, 1], 1) == 2  # g - b
    assert [predicted_tau(MULTIVALENT_PAIR, [1, 1, 1, 1], b) for b in range(4)] == [3, 2, 1, 0]
    assert predicted_tau(MULTIVALENT_PAIR, [1, 1, 1, 1], 4) is None
    assert predicted_tau(ONE_OFF, FIG6, 3) == 7    # g + 2*floor(b/n0) - b + 1
    assert predicted_tau(ONE_OFF, FIG6, 4) == 10   # g + (b+1)/n0
    assert predicted_tau(ONE_OFF, FIG6, 5) == 1    # b/n0
    assert predicted_tau(ONE_OFF, FIG6, 11) == 3
    assert predicted_tau(ONE_OFF, FIG6, 12) is None  # outside n0*g/(n0-1)


def test_predicted_tau_agrees_with_computed(rng):
    cases = [tuple(FIG6)]
    for _ in range(10):
        genus = rng.randint(2, 4)
        cases.append(tuple(rng.randint(1, 4) for _ in range(genus + 1)))
    for lengths in cases:
        g = build_banana(list(lengths))
        genus = g.genus
        top = Divisor({f"s0.{lengths[0]}": genus})
        markings = [(MULTIVALENT_PAIR, MarkedGraph(g, "L", "R"))]
        if lengths[0] >= 2:
            markings.append((ONE_OFF, MarkedGraph(g, "s0.0", f"s0.{lengths[0]-1}")))
        if lengths[0] >= 2 and lengths[1] >= 2:
            markings.append((BOTH_OFF, MarkedGraph(g, "s0.1", f"s1.{lengths[1]-1}")))
        for case, mg in markings:
            tau = transmission_permutation(mg, top)
            for b in range(min(tau.modulus, 4 * genus + 2 * max(lengths) + 4)):
                p = predicted_tau(case, lengths, b)
                if p is not None:
                    assert p == tau(b), (lengths, case, b)


def test_predicted_tau_both_off_branches():
    # strands of length up to 4 never reach three of the four both-off
    # formulas; longer marked strands with short tails reach all four
    fired = set()
    for n0, n1, tail in product(range(2, 9), range(2, 9), [(1, 1), (2, 1), (1, 1, 1)]):
        lengths = (n0, n1) + tail
        g = build_banana(list(lengths))
        genus = g.genus
        tau = transmission_permutation(MarkedGraph(g, "s0.1", f"s1.{n1 - 1}"),
                                       Divisor({f"s0.{n0}": genus}))
        for b in range(min(tau.modulus, 4 * genus + 2 * max(lengths) + 4)):
            p = predicted_tau(BOTH_OFF, lengths, b)
            if p is None:
                continue
            assert p == tau(b), (lengths, b)
            if max(2, genus + 3 - n0) <= b <= min(genus - 1, n1 - 2):
                fired.add("g - b + 2")
            else:
                fired.add({0: "m + 1", n1 - 1: "g + (b+1)//n1"}.get(b % n1, "g + 2m - b + 2"))
    assert fired == {"g - b + 2", "m + 1", "g + (b+1)//n1", "g + 2m - b + 2"}


def test_inversion_lower_bound_values():
    assert inversion_lower_bound(ONE_OFF, FIG6) == 38
    assert inversion_lower_bound(MULTIVALENT_PAIR, [3, 3, 3]) == 3
    assert inversion_lower_bound(MULTIVALENT_PAIR, [1, 1, 1, 1]) == 6
    assert inversion_lower_bound(BOTH_OFF_MIN, [6, 6, 6, 6, 6, 6]) == 3
    with pytest.raises(WrongShapeError):
        inversion_lower_bound(BOTH_OFF_MIN, [2, 2, 2, 2])  # strands too short


def test_inversion_lower_bound_below_witness(rng):
    for lengths in [(3, 3, 3, 3), (2, 2, 2), (4, 4, 4, 4), tuple(FIG6)]:
        g = build_banana(list(lengths))
        genus = g.genus
        top = Divisor({f"s0.{lengths[0]}": genus})
        tau = transmission_permutation(MarkedGraph(g, "L", "R"), top)
        assert inversion_lower_bound(MULTIVALENT_PAIR, lengths) <= inv_k(tau)
        if lengths[0] >= 2:
            tau = transmission_permutation(
                MarkedGraph(g, "s0.0", f"s0.{lengths[0]-1}"), top)
            assert inversion_lower_bound(ONE_OFF, lengths) <= inv_k(tau)


def test_both_off_min_bound_below_witness():
    lengths = [5, 5, 1, 1]
    g = build_banana(lengths)
    tau = transmission_permutation(MarkedGraph(g, "s0.1", "s1.4"),
                                   Divisor({"s0.5": 3}))
    assert inversion_lower_bound(BOTH_OFF_MIN, lengths) <= inv_k(tau)


@pytest.mark.parametrize("call,message", [
    (lambda: predicted_tau("bogus", (2, 2, 2), 0), "unknown marking case 'bogus'"),
    (lambda: predicted_tau(ONE_OFF, (1, 2, 2), 0),
     "one-off marking needs strand 0 of length >= 2"),
    (lambda: predicted_tau(BOTH_OFF, (2, 1, 2), 0),
     "both-off marking needs strands 0,1 of length >= 2"),
    (lambda: inversion_lower_bound("bogus", (2, 2, 2)), "unknown marking case 'bogus'"),
    (lambda: inversion_lower_bound(ONE_OFF, (1, 2, 2)),
     "one-off marking needs strand 0 of length >= 2"),
])
def test_closed_form_input_errors(call, message):
    with pytest.raises(WrongShapeError) as err:
        call()
    assert str(err.value) == message
