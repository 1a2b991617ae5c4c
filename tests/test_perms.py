import json

import pytest

from chipfire.cli import _json_safe
from chipfire.errors import InvalidGraphError
from chipfire.perms import (EafPerm, count_below, demazure, embed, inv_k,
                            reduced_word, sci)


def rand_eaf(rng, k, disp=3):
    while True:
        cand = tuple(i + rng.randint(-disp, disp) for i in range(k))
        if len({x % k for x in cand}) == k:
            return EafPerm(k, cand)


def naive_inversion_classes(p: EafPerm, width=4):
    """Inversion classes by brute enumeration over a wide window, collapsing
    (a, b) ~ (a + k, b + k)."""
    k = p.modulus
    lo, hi = -width * k, width * k
    classes = set()
    for a in range(lo, hi):
        for b in range(a + 1, hi):
            if p(a) > p(b):
                classes.add((a % k, b - a))
    return classes


def naive_sci(p: EafPerm, width=6):
    k = p.modulus
    lo, hi = -width * k, width * k
    return sum(1 for u in range(lo, hi) for v in range(u + 1, hi)
               if p(u) > 0 >= p(v))


def test_validation():
    with pytest.raises(InvalidGraphError):
        EafPerm(2, (0, 2))  # residues collide
    with pytest.raises(InvalidGraphError):
        EafPerm(3, (0, 1))  # wrong length
    p = EafPerm(3, (2, 0, 4))
    assert p(0) == 2 and p(3) == 5 and p(-3) == -1


@pytest.mark.parametrize("build", [lambda: EafPerm(2, (0.0, 1.9)), lambda: EafPerm(2.0, (0, 1)),
                                   lambda: EafPerm("2", (0, 1)), lambda: EafPerm(2, ("1", 0))])
def test_rejects_inexact_modulus_and_window(build):
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize("build,message", [
    (lambda: EafPerm(0, ()), "modulus must be >= 1"),
    (lambda: EafPerm.identity(2).compose(EafPerm.identity(3)), "modulus mismatch"),
])
def test_eaf_input_errors(build, message):
    with pytest.raises(InvalidGraphError) as err:
        build()
    assert str(err.value) == message


def test_periodicity_round_trip(rng):
    for _ in range(20):
        k = rng.randint(1, 6)
        p = rand_eaf(rng, k)
        rebuilt = EafPerm(k, tuple(p(i) for i in range(k)))
        assert rebuilt.window == p.window
        for n in range(-2 * k, 2 * k):
            assert p(n + k) == p(n) + k


def test_inv_examples():
    for k in (1, 2, 5):
        assert inv_k(EafPerm.identity(k)) == 0
    assert inv_k(EafPerm.simple(4, 0)) == 1
    assert inv_k(EafPerm.simple(7, 6)) == 1
    # window counting down over 0..g then identity: all pairs invert
    assert inv_k(EafPerm(7, (3, 2, 1, 0, 4, 5, 6))) == 6


def test_inv_matches_naive(rng):
    for _ in range(30):
        k = rng.randint(1, 5)
        p = rand_eaf(rng, k)
        assert inv_k(p) == len(naive_inversion_classes(p))


def _call_scan_inv_k(p: EafPerm) -> int:
    """Test oracle: inv_k as it was written before it read the window
    directly, one EafPerm.__call__ per scanned pair."""
    _, max_disp = p.displacement()
    total = 0
    for b in range(p.modulus):
        tb = p(b)
        total += sum(1 for n in range(tb + 1 - max_disp, b) if p(n) > tb)
    return total


def test_inv_matches_call_scan_with_shifts(rng):
    # random residue orders, each value moved by a random multiple of k
    for k in range(1, 13):
        for _ in range(40):
            window = tuple(r + k * rng.randint(-3, 3) for r in rng.sample(range(k), k))
            p = EafPerm(k, window)
            assert inv_k(p) == _call_scan_inv_k(p), p
            assert p.shift * k == sum(p.window) - k * (k - 1) // 2


def test_sci_examples():
    assert sci(EafPerm.identity(5)) == 0
    assert sci(EafPerm.simple(50, 0)) == 1   # only the pair (0, 1)
    assert sci(EafPerm(7, (3, 2, 1, 0, 4, 5, 6))) == 3


def test_sci_matches_naive(rng):
    for _ in range(30):
        k = rng.randint(1, 5)
        p = rand_eaf(rng, k)
        assert sci(p) == naive_sci(p)


def test_demazure_identity_and_idempotents():
    for k in (2, 3, 5):
        ident = EafPerm.identity(k)
        s = EafPerm.simple(k, 1 % k)
        assert demazure(s, ident).window == s.window
        assert demazure(ident, s).window == s.window
        assert demazure(s, s).window == s.window


def test_demazure_modulus_mismatch():
    with pytest.raises(InvalidGraphError):
        demazure(EafPerm.identity(2), EafPerm.identity(3))


def test_demazure_minplus_law(rng):
    for _ in range(25):
        k = rng.randint(2, 5)
        a, b = rand_eaf(rng, k), rand_eaf(rng, k)
        c = demazure(a, b)
        width = max(abs(x) for x in a.displacement() + b.displacement()) + k + 3
        for _ in range(8):
            aa = rng.randint(-2, 2 * k)
            bb = rng.randint(-k, k)
            rhs = min(count_below(a, aa, l) + count_below(b, l, bb)
                      for l in range(bb - width, aa + width))
            assert count_below(c, aa, bb) == rhs


def test_demazure_associative_random(rng):
    for _ in range(150):
        k = rng.randint(2, 4)
        a, b, c = (rand_eaf(rng, k) for _ in range(3))
        assert (demazure(demazure(a, b), c).window
                == demazure(a, demazure(b, c)).window)


def test_demazure_inversion_subadditive(rng):
    for _ in range(80):
        k = rng.randint(2, 4)
        a, b = rand_eaf(rng, k), rand_eaf(rng, k)
        prod = demazure(a, b)
        assert inv_k(prod) <= inv_k(a) + inv_k(b)
        # additivity happens exactly when the ordinary product already
        # carries that many inversions (and then the two coincide)
        plain = a.compose(b)
        additive = inv_k(prod) == inv_k(a) + inv_k(b)
        assert additive == (inv_k(plain) == inv_k(a) + inv_k(b))
        if additive:
            assert prod.window == plain.window


def test_demazure_with_shift_is_composition(rng):
    for _ in range(40):
        k = rng.randint(2, 4)
        a = rand_eaf(rng, k)
        sh = EafPerm.shift_perm(k, rng.randint(-3, 3))
        assert demazure(a, sh).window == a.compose(sh).window
        assert demazure(sh, a).window == sh.compose(a).window


def test_sci_simple_reflection_bound(rng):
    for _ in range(200):
        k = rng.randint(3, 6)
        a = rand_eaf(rng, k)
        if sci(a) <= k - 2:
            n = rng.randint(0, k - 1)
            assert sci(demazure(a, EafPerm.simple(k, n))) <= sci(a) + 1


def test_sci_inv_star_bound(rng):
    for _ in range(200):
        k = rng.randint(3, 6)
        a, b = rand_eaf(rng, k), rand_eaf(rng, k)
        if k > sci(a) + inv_k(b):
            assert sci(demazure(a, b)) <= sci(a) + inv_k(b)


def test_reduced_word_length(rng):
    for _ in range(40):
        k = rng.randint(1, 5)
        p = rand_eaf(rng, k)
        d, word = reduced_word(p)
        assert len(word) == inv_k(p)
        cur = EafPerm.shift_perm(k, d)
        for i in word:
            cur = cur.compose(EafPerm.simple(k, i))
        assert cur.window == p.window


def test_embed_examples():
    assert embed(EafPerm.identity(3), 9).window == EafPerm.identity(9).window
    e = embed(EafPerm.simple(2, 0), 4)
    assert e.window == (1, 0, 3, 2)
    assert inv_k(e) == 2


def test_embed_scales_inversions(rng):
    for _ in range(25):
        k = rng.randint(1, 4)
        mult = rng.randint(1, 3)
        p = rand_eaf(rng, k)
        big = embed(p, k * mult)
        assert inv_k(big) == mult * inv_k(p)
        assert sci(big) == sci(p)
    with pytest.raises(InvalidGraphError):
        embed(EafPerm.identity(4), 6)


def test_json_round_trip(rng):
    for _ in range(10):
        p = rand_eaf(rng, rng.randint(1, 5))
        data = json.loads(json.dumps(_json_safe(p)))
        assert EafPerm(data["modulus"], tuple(data["window"])) == p
