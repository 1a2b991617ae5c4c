"""Computations attached to a twice-marked graph: the rank second difference
over the marks, submodularity sweeps, torsion order, transmission permutations,
k-general transmission certification, non-recurrence, and Weierstrass
partitions.

Nearly everything here walks the degree-0 class group, and ``_engine`` picks
its encoding once per graph: reduced strand tuples with the closed-form rank
on graphs built as bananas, base-reduced vertex vectors with burning and rank
descent otherwise.  Either way the walks see the same six operations (linear
coordinates, canonical key, rank, class order, one key per class, divisor of
a key), and the two encodings are pinned to each other by the oracle tests.
Class orders, torsion included, are closed forms in either lattice, not walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Callable, Iterator, NamedTuple

from . import banana as _bn
# _reduce_vec is unused here but stays importable by this path, where
# bench/tracer.py rebinds it
from .divisors import (Divisor, _check_cap, _from_vec, _reduce_vec,  # noqa: F401
                       _reduced_key, _vec, enumerate_jacobian, rank)
from .errors import (AlgorithmError, DegenerateMarksError, InvalidGraphError,
                     NonSubmodularError)
# jacobian_order is unused here but stays importable by this path, where
# bench/tracer.py rebinds it
from .graphs import Graph, MarkedGraph, _laplacian_solve, jacobian_order  # noqa: F401
from .perms import EafPerm, inv_k


class _Engine(NamedTuple):
    """One encoding of the degree-0 class group of a graph g.

    raw(g, d) gives linear coordinates of a divisor, reduce(g, raw) the
    canonical key of a degree-0 class, rank(g, raw, degree) the rank of the
    class at that degree, order(g, raw) the order of a degree-0 class in
    closed form, reps(g) one key per class and divisor(g, key) a divisor of
    the class.
    """

    raw: Callable[[Graph, Divisor], list[int]]
    reduce: Callable[[Graph, list[int]], tuple]
    rank: Callable[[Graph, list[int], int], int]
    order: Callable[[Graph, list[int]], int]
    reps: Callable[[Graph], Iterator[tuple]]
    divisor: Callable[[Graph, tuple], Divisor]


_TUPLES = _Engine(
    lambda g, d: _bn._raw_entries(g.banana, d),
    lambda g, raw: _bn._reduce_entries(g.banana.lengths, raw),
    lambda g, raw, degree: _bn.rank_entries(g.banana, raw, degree),
    lambda g, raw: _bn._entries_order(g.banana.lengths, raw),
    lambda g: _bn._reduced_tuples(g.banana.lengths),
    lambda g, key: _bn.tuple_to_reduced_divisor(
        _bn.BananaTuple(g.banana, key), 0).to_divisor(g.banana))


def _vector_order(g: Graph, raw: list[int]) -> int:
    """The class group is Z^(n-1)/L0 for the reduced Laplacian L0, so m*[d] = 0
    exactly when m*L0^-1 d is integral: the lcm of the denominators of y/det."""
    det, y = _laplacian_solve(g, raw[1:])
    return det // gcd(det, *y)


_VECTORS = _Engine(
    _vec,
    lambda g, raw: _reduced_key(g, raw, 0),
    lambda g, raw, degree: rank(g, raw),
    _vector_order,
    lambda g: (tuple(_vec(g, d)) for d in enumerate_jacobian(g)),
    _from_vec)


def _engine(g: Graph) -> _Engine:
    """Reduced strand tuples on bananas, base-reduced vectors otherwise."""
    return _VECTORS if g.banana is None else _TUPLES


def _class_rank(g: Graph, d: Divisor) -> int:
    eng = _engine(g)
    return eng.rank(g, eng.raw(g, d), d.degree)


class SubmodularityVerdict(NamedTuple):
    ok: bool
    witness: Divisor | None
    value: int | None


@dataclass(frozen=True)
class TwistOrbit:
    """The k twist classes of a divisor in one fixed degree."""

    base: Divisor
    degree: int
    representatives: tuple[Divisor, ...]


@dataclass(frozen=True)
class WeierstrassPartition:
    """How ranks grow along multiples of a marked vertex, recorded as the
    nonincreasing excess over the Riemann-Roch floor."""

    parts: tuple[int, ...]
    pole_orders: tuple[int, ...]

    @property
    def size(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class KgtCertificate:
    verdict: str                      # "PASS" | "FAIL"
    torsion: int
    genus: int
    max_inversions: int | None
    extremal: Divisor | None
    nonsubmodular_witness: Divisor | None
    orbits_checked: int
    class_count: int
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "torsion_order": self.torsion,
            "genus": self.genus,
            "max_inversions": self.max_inversions,
            "extremal_divisor": dict(self.extremal.items()) if self.extremal else None,
            "nonsubmodular_witness": (dict(self.nonsubmodular_witness.items())
                                      if self.nonsubmodular_witness else None),
            "orbits_checked": self.orbits_checked,
            "class_count": self.class_count,
            "exhaustive": self.exhaustive,
        }


def _twist_rank_fn(mg: MarkedGraph, d: Divisor) -> Callable[[int, int], int]:
    """Memoized (a, b) -> r(D + a*u - b*v)."""
    g = mg.graph
    eng = _engine(g)
    base, du, dv = (eng.raw(g, x) for x in (d, Divisor.at(mg.u), Divisor.at(mg.v)))
    deg0 = d.degree
    cache: dict[tuple[int, int], int] = {}

    def r(a: int, b: int) -> int:
        val = cache.get((a, b))
        if val is None:
            raw = [x + a * y - b * z for x, y, z in zip(base, du, dv)]
            val = eng.rank(g, raw, deg0 + a - b)
            cache[(a, b)] = val
        return val
    return r


def delta(mg: MarkedGraph, d: Divisor) -> int:
    """r(D) - r(D-u) - r(D-v) + r(D-u-v); for u = v that is r(D) - 2r(D-u) + r(D-2u)."""
    return _second_difference(_twist_rank_fn(mg, d), 0, 0)


def _second_difference(r: Callable[[int, int], int], a: int, b: int) -> int:
    """The second difference of the twist ranks r at D + a*u - b*v."""
    return r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)


def _second_differences(mg: MarkedGraph, d: Divisor,
                        k: int) -> Iterator[tuple[int, int, int]]:
    """(a, b, second difference at D + a*u - b*v) for each window slot b in
    0..k-1 and each a in its Riemann-Roch range.

    Only twist degrees 0..2g can carry a nonzero value (the four ranks cancel
    outside by Riemann-Roch), and within a degree only k twist classes exist,
    so this grid is finite and complete.
    """
    genus = mg.graph.genus
    r = _twist_rank_fn(mg, d)
    deg = d.degree
    for b in range(k):
        for a in range(b - deg, b - deg + 2 * genus + 1):
            yield a, b, _second_difference(r, a, b)


def _twist_divisor(mg: MarkedGraph, d: Divisor, a: int, b: int) -> Divisor:
    return d + a * Divisor.at(mg.u) - b * Divisor.at(mg.v)


def is_submodular_divisor(mg: MarkedGraph, d: Divisor) -> SubmodularityVerdict:
    """Check the second difference on every twist of d."""
    for a, b, val in _second_differences(mg, d, torsion_order(mg)):
        if val < 0:
            return SubmodularityVerdict(False, _twist_divisor(mg, d, a, b), val)
    return SubmodularityVerdict(True, None, None)


def torsion_order(mg: MarkedGraph) -> int:
    """Order of [u - v] in the degree-0 class group, computed once per marked
    graph."""
    if mg._torsion is None:
        k = _class_order(mg.graph, Divisor.at(mg.u) - Divisor.at(mg.v))
        object.__setattr__(mg, "_torsion", k)
    return mg._torsion


def transmission_permutation(mg: MarkedGraph, d: Divisor) -> EafPerm:
    """The permutation whose graph is the set of twists with second difference 1.

    Scans, for each window slot b, the Riemann-Roch range of candidate values;
    the same sweep doubles as the completeness check that every twist of d is
    submodular (anything negative raises with the offending twist).
    """
    if mg.degenerate:
        raise DegenerateMarksError("transmission is undefined for coincident marks")
    k = torsion_order(mg)
    window: list[int | None] = [None] * k
    for a, b, val in _second_differences(mg, d, k):
        if val == 0:
            continue
        if val != 1 or window[b] is not None:
            raise NonSubmodularError(_twist_divisor(mg, d, a, b), val)
        window[b] = a
    if None in window:
        raise AlgorithmError(
            f"no window value found at slot {window.index(None)}; this is a bug")
    return EafPerm(k, tuple(window))


def twist_orbit(mg: MarkedGraph, d: Divisor, degree: int) -> TwistOrbit:
    """The k classes of twists of d in the given degree, walked by u - v."""
    k = torsion_order(mg)
    offset = degree - d.degree
    reps = tuple(_twist_divisor(mg, d, offset + n, n) for n in range(k))
    return TwistOrbit(d, degree, reps)


def _class_reps(g: Graph, cap: int | None = None) -> Iterator[tuple]:
    """One canonical degree-0 key per class, after the class-count check."""
    _check_cap(g, cap)
    yield from _engine(g).reps(g)


def _rep_divisor(g: Graph, rep: tuple) -> Divisor:
    return _engine(g).divisor(g, rep)


def _orbit_keys(mg: MarkedGraph, rep: tuple, k: int) -> list[tuple]:
    """All k reduced keys in rep's orbit under repeatedly adding u - v."""
    g = mg.graph
    eng = _engine(g)
    step = eng.raw(g, Divisor.at(mg.u) - Divisor.at(mg.v))
    keys = [rep]
    for _ in range(k - 1):
        keys.append(eng.reduce(g, [c + s for c, s in zip(keys[-1], step)]))
    return keys


def all_submodular(mg: MarkedGraph) -> SubmodularityVerdict:
    """Second difference >= 0 for one representative of every class of every
    degree that can matter (0..2g)."""
    g = mg.graph
    genus = g.genus
    base = Divisor.at(g.base_vertex)
    for rep in _class_reps(g):
        j = _rep_divisor(g, rep)
        for degree in range(0, 2 * genus + 1):
            d = j + degree * base
            val = delta(mg, d)
            if val < 0:
                return SubmodularityVerdict(False, d, val)
    return SubmodularityVerdict(True, None, None)


def _ordered_orbit_reps(mg: MarkedGraph, k: int) -> Iterator[Divisor]:
    """One degree-0 divisor per orbit of the class group under [u - v].

    On bananas the orbit of [g(R - L)] comes first: it carries the known
    extremal permutations, so failing graphs fail fast.
    """
    g = mg.graph
    eng = _engine(g)
    heads = []
    if g.banana is not None:
        hubs = Divisor.at(g.banana.right) - Divisor.at(g.banana.left)
        heads.append(eng.reduce(g, eng.raw(g, g.genus * hubs)))
    seen: set[tuple] = set()
    for rep in chain(heads, _class_reps(g)):
        if rep not in seen:
            seen.update(_orbit_keys(mg, rep, k))
            yield eng.divisor(g, rep)


def kgt_check(mg: MarkedGraph, exhaustive: bool = False) -> KgtCertificate:
    """Certify or refute k-general transmission.

    Walks one representative per twist orbit (inversion counts are constant on
    orbits; that invariance is itself property-tested), computing each
    transmission permutation and its inversion count.  A FAIL returns as soon
    as a witness appears unless exhaustive is set.
    """
    if mg.degenerate:
        raise DegenerateMarksError("k-general transmission needs distinct marks")
    g = mg.graph
    genus = g.genus
    count = _check_cap(g)
    k = torsion_order(mg)
    max_inv = None
    extremal = None
    orbits = 0
    nonsub = None
    complete = True
    for rep in _ordered_orbit_reps(mg, k):
        orbits += 1
        try:
            tau = transmission_permutation(mg, rep)
        except NonSubmodularError as err:
            nonsub = err.witness
            complete = False
            break
        inv = inv_k(tau)
        if max_inv is None or inv > max_inv:
            max_inv, extremal = inv, rep
        if inv > genus and not exhaustive:
            complete = orbits == count // k
            break
    # the first orbit either raises or sets max_inv, and a PASS never breaks
    verdict = "PASS" if nonsub is None and max_inv <= genus else "FAIL"
    return KgtCertificate(verdict, k, genus, max_inv, extremal, nonsub,
                          orbits, count, complete)


def recurrence_witness(g: Graph, d0: Divisor):
    """First vertex seeing two effective divisors among n*D + v, 0 < n < order,
    as (vertex, n1, n2); None when the class is non-recurrent."""
    if d0.degree != 0:
        raise InvalidGraphError("non-recurrence is defined for degree-0 divisors")
    order = _class_order(g, d0)
    hits: dict[str, int] = {}
    cur = Divisor()
    for n in range(1, order):
        cur = cur + d0
        for v in g.vertices:
            if _class_rank(g, cur + Divisor.at(v)) >= 0:
                if v in hits:
                    return v, hits[v], n
                hits[v] = n
    return None


def non_recurrent(g: Graph, d0: Divisor) -> bool:
    """A degree-0 class of order k is non-recurrent when no vertex sees more
    than one effective divisor among n*D + v, 0 < n < k."""
    return recurrence_witness(g, d0) is None


def _class_order(g: Graph, d0: Divisor) -> int:
    """Order of the degree-0 class of d0: the first n with n*d0 ~ 0."""
    eng = _engine(g)
    return eng.order(g, eng.raw(g, d0))


def weierstrass_partition(g: Graph, v: str, d: Divisor) -> WeierstrassPartition:
    """Pole orders s_i = min{l : r(D + l*v) >= i} and their excess parts.

    Rank rises by at most one per added chip, so one upward scan of l meets
    s_0 < s_1 < ... in turn (hence nonincreasing parts), up to the first zero
    part, which Riemann-Roch places by l = 2g - deg D."""
    v = g.resolve(v)
    genus = g.genus
    deg = d.degree
    parts: list[int] = []
    orders: list[int] = []
    for l in range(-deg, 2 * genus - deg + 1):
        i = len(parts)
        if _class_rank(g, d + Divisor.at(v, l)) < i:
            continue
        lam = i - l + genus - deg
        if lam < 0:
            raise AlgorithmError("negative partition part; this is a bug")
        if lam == 0:
            break
        parts.append(lam)
        orders.append(l)
    else:
        raise AlgorithmError("no zero partition part by degree 2g; this is a bug")
    return WeierstrassPartition(tuple(parts), tuple(orders))
