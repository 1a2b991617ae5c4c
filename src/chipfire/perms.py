"""Extended k-affine permutations: bijections of Z with tau(n+k) = tau(n)+k,
stored as the window of values on 0..k-1.

Everything downstream needs three counts on these: inversions up to the
k-shift equivalence, sign-changing inversions, and Demazure products computed
through reduced words of simple reflections.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import AlgorithmError, InvalidGraphError


@dataclass(frozen=True)
class EafPerm:
    modulus: int
    window: tuple[int, ...]

    def __post_init__(self):
        k = index(self.modulus)
        if k < 1:
            raise InvalidGraphError("modulus must be >= 1")
        window = tuple(index(x) for x in self.window)
        if len(window) != k:
            raise InvalidGraphError("window length must equal the modulus")
        if len({x % k for x in window}) != k:
            raise InvalidGraphError("window residues must be distinct: not a bijection")
        object.__setattr__(self, "modulus", k)
        object.__setattr__(self, "window", window)
        if (sum(window) - k * (k - 1) // 2) % k:
            raise AlgorithmError("window shift is not integral")

    def __call__(self, n: int) -> int:
        q, r = divmod(n, self.modulus)
        return self.window[r] + q * self.modulus

    @property
    def shift(self) -> int:
        k = self.modulus
        return (sum(self.window) - k * (k - 1) // 2) // k

    def displacement(self) -> tuple[int, int]:
        """(min, max) of tau(n) - n over all n."""
        disp = [w - i for i, w in enumerate(self.window)]
        return min(disp), max(disp)

    @staticmethod
    def identity(k: int) -> "EafPerm":
        return EafPerm(k, tuple(range(k)))

    @staticmethod
    def shift_perm(k: int, d: int) -> "EafPerm":
        return EafPerm(k, tuple(i + d for i in range(k)))

    @staticmethod
    def simple(k: int, n: int) -> "EafPerm":
        """The reflection swapping n+mk with n+1+mk for every m."""
        n %= k
        window = list(range(k))
        if n < k - 1:
            window[n], window[n + 1] = n + 1, n
        else:
            window[k - 1] = k
            window[0] = -1
        return EafPerm(k, tuple(window))

    def compose(self, other: "EafPerm") -> "EafPerm":
        """Function composition self after other (apply other first)."""
        if self.modulus != other.modulus:
            raise InvalidGraphError("modulus mismatch")
        return EafPerm(self.modulus, tuple(self(other(i)) for i in range(self.modulus)))

    def _times_simple(self, i: int) -> "EafPerm":
        """Right multiplication by the simple reflection at i (swap arguments)."""
        k = self.modulus
        i %= k
        w = list(self.window)
        if i < k - 1:
            w[i], w[i + 1] = w[i + 1], w[i]
        else:
            w[k - 1], w[0] = w[0] + k, w[k - 1] - k
        return EafPerm(k, tuple(w))

    def descents(self) -> list[int]:
        return [i for i in range(self.modulus) if self(i) > self(i + 1)]

    def __repr__(self):
        return f"EafPerm(k={self.modulus}, window={list(self.window)})"


def inv_k(p: EafPerm) -> int:
    """Number of inversion classes under simultaneous shifts by the modulus.

    Each class has a unique representative with 0 <= b < k; the scan over
    smaller arguments is finite because displacement is bounded.
    """
    k, window = p.modulus, p.window
    max_disp = max(w - i for i, w in enumerate(window))
    total = 0
    for b, tb in enumerate(window):
        total += sum(1 for n in range(tb + 1 - max_disp, b)
                     if window[n % k] + k * (n // k) > tb)
    return total


def sci(p: EafPerm) -> int:
    """Sign-changing inversions: pairs u < v with tau(u) > 0 >= tau(v)."""
    min_disp, max_disp = p.displacement()
    lo = 1 - max_disp          # any u with tau(u) > 0 satisfies u >= lo
    hi = -min_disp             # any v with tau(v) <= 0 satisfies v <= hi
    count = 0
    for v in range(lo + 1, hi + 1):
        if p(v) <= 0:
            count += sum(1 for u in range(lo, v) if p(u) > 0)
    return count


def count_below(p: EafPerm, a: int, b: int) -> int:
    """#{l >= b : tau(l) < a}; the counting matrix behind the min-plus law."""
    min_disp, _ = p.displacement()
    return sum(1 for l in range(b, a - min_disp) if p(l) < a)


def reduced_word(p: EafPerm) -> tuple[int, list[int]]:
    """Factor p as shift d followed by simple reflections.

    Returns (d, word) with p = shift(d) o simple(word[0]) o ... o simple(word[-1]);
    the word is reduced, of length inv_k(p).
    """
    d = p.shift
    cur = EafPerm(p.modulus, tuple(w - d for w in p.window))
    peeled: list[int] = []
    while True:
        desc = cur.descents()
        if not desc:
            break
        i = desc[0]
        cur = cur._times_simple(i)
        peeled.append(i)
    if cur.window != EafPerm.identity(p.modulus).window:
        raise AlgorithmError("descent peeling did not reach the identity")
    return d, peeled[::-1]


def demazure(a: EafPerm, b: EafPerm) -> EafPerm:
    """Demazure product: fold b's reduced word onto a, keeping only the
    reflections that increase a's inversion count.

    Callers with mixed moduli embed into a common multiple first.
    """
    if a.modulus != b.modulus:
        raise InvalidGraphError("modulus mismatch; embed to a common modulus first")
    d, word = reduced_word(b)
    cur = EafPerm(a.modulus, tuple(a(i + d) for i in range(a.modulus)))  # a o shift(d)
    for i in word:
        if cur(i) < cur(i + 1):
            cur = cur._times_simple(i)
    return cur


def embed(p: EafPerm, big_modulus: int) -> EafPerm:
    """Same function on Z, re-windowed at a multiple of the modulus."""
    if big_modulus % p.modulus:
        raise InvalidGraphError("target modulus must be a multiple of the current one")
    return EafPerm(big_modulus, tuple(p(i) for i in range(big_modulus)))
