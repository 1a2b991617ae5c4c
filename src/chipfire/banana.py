"""Closed-form machinery special to banana graphs.

Degree-0 classes on a banana correspond to integer (g+1)-tuples modulo the
relations (1,...,1) and n0*e0 - na*ea; each class has a unique reduced tuple
(entries in range, at least one zero, full entries left of zeros).  Reduced
tuples translate directly into base-reduced divisors (``_key_divisor``),
which makes rank a three-integer formula.  The tau fragments and inversion
lower bounds for the three special hub-adjacent markings live here too.

The reduced tuple is found in closed form.  Every na*ea is the same class t,
so a tuple a splits as r + Q*t with r = a mod n and Q = sum(a // n).  Adding
(1,...,1) m times gives (r + m) mod n plus W(m)*t, where the wrap count
W(m) = sum((r + m) // n) never decreases and rises at m by the number of
zero entries of (r + m) mod n.  At the least m with Q + W(m) >= 0 that
surplus is smaller than the number of zeros, and setting the leftmost
Q + W(m) zero slots to full gives the reduced tuple.  Since
Q + W(m) = sum((a + m) // n), the least m is bisected from a bracket of
width about (g+1)/sum(1/n) <= max(n), so a reduction costs O(g log max n)
integer operations whatever the size of the coefficients.

Rank needs less than the reduced tuple.  At the least m the nonzero
residues are the strand chips of the base-reduced divisor and Q + W(m) is
its count of right-hub chips, so ``_entries_profile`` reads this
(strand, right-hub) profile straight off the shifted entries, and the rank
at any degree is ``banana_rank`` arithmetic on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product, repeat
from math import comb, gcd, lcm
from operator import add, floordiv, mod, mul
from typing import Iterator

from .errors import AlgorithmError, InvalidGraphError, WrongShapeError
from .graphs import BananaSpec
from .divisors import Divisor

MULTIVALENT_PAIR = "multivalent_pair"
ONE_OFF = "one_off"
BOTH_OFF = "both_off"
BOTH_OFF_MIN = "both_off_min"


@dataclass(frozen=True)
class BananaTuple:
    """Coset representative: entries a_alpha plus the degree the class lives in."""

    spec: BananaSpec
    entries: tuple[int, ...]
    degree_offset: int = 0

    def __post_init__(self):
        if len(self.entries) != len(self.spec.lengths):
            raise WrongShapeError("entry count must match strand count")

    def is_reduced(self) -> bool:
        lengths = self.spec.lengths
        e = self.entries
        if any(not 0 <= a <= n for a, n in zip(e, lengths)):
            return False
        if 0 not in e:
            return False
        zeros = [i for i, a in enumerate(e) if a == 0]
        fulls = [i for i, a in enumerate(e) if a == lengths[i]]
        return not fulls or not zeros or max(fulls) < min(zeros)


@lru_cache(maxsize=64)
def _wrap_rate(lengths: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """sum(1/n) over the strands as num/den with den = lcm(lengths), and the
    weights den/n."""
    den = lcm(*lengths)
    weights = tuple(den // n for n in lengths)
    return sum(weights), den, weights


def _least_shift(lengths: tuple[int, ...], entries) -> int:
    """The least m with Q + W(m) = sum((entries + m) // lengths) >= 0 (see the
    module docstring), bisected from an integer bracket."""
    num, den, weights = _wrap_rate(lengths)
    # each floor loses at most (n-1)/n, so with x = (m*num + c)/den the sum
    # lies in [x - len + num/den, x]: it is < 0 at lo and >= 0 at hi
    c = sum(map(mul, entries, weights))
    lo = -(c // num) - 1
    hi = -((c + num - len(lengths) * den) // num)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if sum(map(floordiv, map(add, entries, repeat(mid)), lengths)) >= 0:
            hi = mid
        else:
            lo = mid
    return hi


def _least_residues(lengths: tuple[int, ...], entries) -> tuple[list[int], int]:
    """The entries mod lengths at the least shift, and their quotient sum,
    which must stay below the number of zero residues."""
    m = _least_shift(lengths, entries)
    shifted = [a + m for a in entries]
    residues = list(map(mod, shifted, lengths))
    full = sum(map(floordiv, shifted, lengths))
    if full >= residues.count(0):
        raise AlgorithmError("tuple reduction left no zero entry; this is a bug")
    return residues, full


def _reduce_entries(lengths: tuple[int, ...], entries) -> tuple[int, ...]:
    """Reduced tuple of the class of entries: the full values occupy the
    leftmost of the zero residues."""
    out, nfull = _least_residues(lengths, entries)
    for i in [i for i, x in enumerate(out) if x == 0][:nfull]:
        out[i] = lengths[i]
    return tuple(out)


def _entries_profile(lengths: tuple[int, ...], entries) -> tuple[int, int]:
    """(strand chips, right-hub chips) of the base-reduced divisor of the class
    of entries, read off the entries at the least shift without building the
    reduced tuple: the nonzero residues and the quotient sum."""
    residues, full = _least_residues(lengths, entries)
    return len(lengths) - residues.count(0), full


def _reduced_profile(lengths: tuple[int, ...], entries) -> tuple[int, int]:
    """(strand chips, right-hub chips) read off a reduced tuple: its entries
    strictly inside their strands and its full entries."""
    strand = full = 0
    for a, n in zip(entries, lengths):
        if a == n:
            full += 1
        elif a:
            strand += 1
    return strand, full


def _profile_ranks(genus: int, profile: tuple[int, int], degrees: range) -> list[int]:
    """Ranks at a range of degrees of a class with the given (strand,
    right-hub) profile, the rest of each degree on the left hub.  With a
    left-hub chips the rank is -1 for a < 0, else one per left-hub chip up to
    the right-hub count plus one per chip beyond genus - strand."""
    strand, full = profile
    free = genus - strand
    if strand < 0 or not 0 <= full <= free:
        raise InvalidGraphError(
            f"not a reduced banana shape: b={full} e={strand} g={genus}")
    n = strand + full
    return [-1 if a < 0 else min(a, full) + max(0, a - free)
            for a in range(degrees.start - n, degrees.stop - n)]


def _entries_order(lengths: tuple[int, ...], entries) -> int:
    """Order of the class of entries.  The relations are m*(1,...,1) +
    sum(c*n*e) with sum(c) = 0, so a is one exactly when m = s/num for
    s = sum(a*w) and every (m - a)/n is an integer: k*a is a relation exactly
    when num*n divides k*(s - a*num) on every strand."""
    num, _, weights = _wrap_rate(lengths)
    s = sum(map(mul, entries, weights))
    return lcm(*(num * n // gcd(num * n, s - a * num) for a, n in zip(entries, lengths)))


def reduce_tuple(t: BananaTuple) -> BananaTuple:
    """Unique reduced representative of the same coset; fixed point on reduced input."""
    return BananaTuple(t.spec, _reduce_entries(t.spec.lengths, t.entries), t.degree_offset)


def _reduced_tuples(lengths: tuple[int, ...]) -> Iterator[tuple]:
    """Reduced banana tuples in lexicographic order.  A full entry may only
    precede the first zero, so each zero-free prefix is followed by a 0 and
    then any entries below full; the prefixes are walked depth first, and
    the last slot must be 0 if no zero came before it."""
    stack = [()]
    while stack:
        prefix = stack.pop()
        i = len(prefix)
        head = prefix + (0,)
        for tail in product(*map(range, lengths[i + 1:])):
            yield head + tail
        if i + 1 < len(lengths):
            stack.extend(prefix + (a,) for a in range(lengths[i], 0, -1))


def divisor_to_tuple(spec: BananaSpec, d: Divisor) -> BananaTuple:
    """Reduced tuple of [d - deg(d) * L], carrying deg(d) as the offset."""
    return BananaTuple(spec, _reduce_entries(spec.lengths, _raw_entries(spec, d)), d.degree)


def _key_divisor(spec: BananaSpec, key) -> Divisor:
    """Degree-0 base-reduced divisor of the class with reduced tuple key: one
    right-hub chip per full entry, one chip at offset a of its strand per
    other nonzero entry, and minus their count on the left hub."""
    chips = [(spec.vertex_id(alpha, a), 1) for alpha, a in enumerate(key) if a]
    return Divisor([(spec.left, -len(chips))] + chips)


def banana_rank(a: int, b: int, e: int, g: int) -> int:
    """Rank of a base-reduced banana divisor with a/b hub chips and e strand chips."""
    return _profile_ranks(g, (e, b), range(a + b + e, a + b + e + 1))[0]


def rank_of_tuple(t: BananaTuple, degree: int) -> int:
    if not t.is_reduced():
        raise WrongShapeError("tuple must be reduced first")
    profile = _reduced_profile(t.spec.lengths, t.entries)
    return _profile_ranks(t.spec.genus, profile, range(degree, degree + 1))[0]


def _raw_entries(spec: BananaSpec, d: Divisor) -> list[int]:
    raw = [0] * len(spec.lengths)
    for v, c in d.coeffs.items():
        alpha, i = spec.position(v)
        raw[alpha] += c * i
    return raw


def rank_entries(spec: BananaSpec, raw_entries, degree: int) -> int:
    """Rank of the class with unreduced entry vector raw_entries at a degree."""
    return _profile_ranks(spec.genus, _entries_profile(spec.lengths, raw_entries),
                          range(degree, degree + 1))[0]


def predicted_tau(case: str, lengths, b: int) -> int | None:
    """Closed-form fragments of the transmission window for D = g*R.

    Cases name the marking: both hubs; hub plus the vertex one step short of
    the other hub (strand 0); or the two positions one step inside strands 0
    and 1.  Returns None outside the fragment's validity range rather than
    extrapolating.
    """
    lengths = tuple(lengths)
    g = len(lengths) - 1
    if case == MULTIVALENT_PAIR:
        return g - b if 0 <= b <= g else None

    if case == ONE_OFF:
        n0 = lengths[0]
        if n0 < 2:
            raise WrongShapeError("one-off marking needs strand 0 of length >= 2")
        if not 0 <= b * (n0 - 1) <= n0 * g:
            return None
        r = b % n0
        if r == 0:
            return b // n0
        if r == n0 - 1:
            return g + (b + 1) // n0
        return g + 2 * (b // n0) - b + 1

    if case == BOTH_OFF:
        n0, n1 = lengths[0], lengths[1]
        if n0 < 2 or n1 < 2:
            raise WrongShapeError("both-off marking needs strands 0,1 of length >= 2")
        # lower end needs g+3-n0, not g+2-n0: the interior chip at g-b+2 must
        # stay short of the far hub
        if max(2, g + 3 - n0) <= b <= min(g - 1, n1 - 2):
            return g - b + 2
        if b >= 1 and b * (n1 - 1) <= n1 * g:
            m, r = divmod(b, n1)
            if r == 0 and 1 <= m <= n0 - 1:
                return m + 1
            # the r = n1-1 family also needs ((b+1)/n1)(n1-1) >= 2: the walk must
            # drop the far-hub coefficient strictly below g-1
            if (r == n1 - 1 and b <= n1 * (n0 - 1 - g) - 1
                    and (m + 1) * (n1 - 1) >= 2):
                return g + (b + 1) // n1
            if 2 <= r <= n1 - 2 and b >= 2 and 2 * m - b <= n0 - 3 - g:
                return g + 2 * m - b + 2
        return None

    raise WrongShapeError(f"unknown marking case {case!r}")


def inversion_lower_bound(case: str, lengths) -> int:
    """Guaranteed minimum for the maximal inversion count over all divisors,
    for the marking cases where every divisor is submodular."""
    lengths = tuple(lengths)
    g = len(lengths) - 1
    if case == MULTIVALENT_PAIR:
        return comb(g + 1, 2)

    if case == ONE_OFF:
        n0 = lengths[0]
        if n0 < 2:
            raise WrongShapeError("one-off marking needs strand 0 of length >= 2")
        f = g // (n0 - 1)
        h = f * (n0 - 2) + min(n0 - 2, (n0 * g) // (n0 - 1) - n0 * f)
        return comb(f + 1, 2) + f * h + comb(h, 2)

    if case == BOTH_OFF_MIN:
        n0, n1 = lengths[0], lengths[1]
        if min(n0, n1) < g + 1:
            raise WrongShapeError("bound requires both marked strands longer than the genus")
        return comb(g - 2, 2)

    raise WrongShapeError(f"unknown marking case {case!r}")
