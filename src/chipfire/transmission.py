"""Computations attached to a twice-marked graph: the rank second difference
over the marks, submodularity sweeps, torsion order, transmission permutations,
k-general transmission certification, non-recurrence, and Weierstrass
partitions.

Nearly everything here walks the degree-0 class group, and ``_engine`` picks
its encoding once per graph: reduced strand tuples with the closed-form rank
on graphs built as bananas, base-reduced vertex vectors with burning and rank
descent otherwise.  Either way the walks see the same eight operations
(linear coordinates in which the base vertex is zero, canonical key, rank
profile of coordinates and of a key, ranks of a profile at a range of
degrees, class order, one key per class, divisor of a key), and the two
encodings are pinned to each other by the oracle tests.  Class orders,
torsion included, are closed forms in either lattice, not walks.

Rank is split in two because the sweeps ask for many degrees of few
classes.  A profile is what rank needs of a class besides the degree: on
bananas the strand and right-hub chip counts of its reduced divisor, read off
the shifted tuple without building it; on other graphs the degree-0
coordinates themselves, which rank reduces and runs the cached descent on.
Every sweep ranks lines D + t*w of class coordinates.  The base vertex has
zero coordinates (on bananas it is the left hub L), so a line along it stays
in one class and one profile gives all its ranks: that is how the census
and ``all_submodular`` see the degrees of a class.  The twist grid behind
``delta``, ``transmission_permutation`` and ``kgt_check``, and the
Weierstrass partitions, go through ``_line_ranks``, which profiles each
class once per call by a memo keyed on the coordinates.  Only a reported
witness or extremal divisor is built as a ``Divisor``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import gcd
from typing import Callable, Iterator, NamedTuple, Sequence

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

    raw(g, d) gives linear coordinates of a divisor in which the base vertex
    is zero, so they do not see the degree, and reduce(g, raw) the canonical
    key of a degree-0 class.  Rank is split in two: profile(g, raw) is what
    the rank of the class of raw depends on besides the degree,
    key_profile(g, key) the same for a canonical key, and
    ranks(g, profile, degrees) the ranks at a range of degrees.  order(g, raw)
    is the order of a degree-0 class in closed form, reps(g) one key per
    class and divisor(g, key) a divisor of the class.
    """

    raw: Callable[[Graph, Divisor], list[int]]
    reduce: Callable[[Graph, list[int]], tuple]
    profile: Callable[[Graph, list[int]], tuple]
    key_profile: Callable[[Graph, tuple], tuple]
    ranks: Callable[[Graph, tuple, range], list[int]]
    order: Callable[[Graph, list[int]], int]
    reps: Callable[[Graph], Iterator[tuple]]
    divisor: Callable[[Graph, tuple], Divisor]


# The profile is (strand chips, right-hub chips) of the base-reduced divisor,
# read off the shifted entries or off the reduced tuple, and rank at a degree
# is arithmetic on it.
_TUPLES = _Engine(
    lambda g, d: _bn._raw_entries(g.banana, d),
    lambda g, raw: _bn._reduce_entries(g.banana.lengths, raw),
    lambda g, raw: _bn._entries_profile(g.banana.lengths, raw),
    lambda g, key: _bn._reduced_profile(g.banana.lengths, key),
    lambda g, profile, degrees: _bn._profile_ranks(g.banana.genus, profile, degrees),
    lambda g, raw: _bn._entries_order(g.banana.lengths, raw),
    lambda g: _bn._reduced_tuples(g.banana.lengths),
    lambda g, key: _bn._key_divisor(g.banana, key))


def _vector_raw(g: Graph, d: Divisor) -> list[int]:
    """The coefficient vector of d - deg(d)*base."""
    vec = _vec(g, d)
    vec[0] -= d.degree
    return vec


def _vector_ranks(g: Graph, profile: tuple, degrees: range) -> list[int]:
    """Ranks of profile + degree*base: rank reduces each and runs the cached
    descent."""
    rest = list(profile[1:])
    return [rank(g, [profile[0] + degree] + rest) for degree in degrees]


def _vector_order(g: Graph, raw: list[int]) -> int:
    """The class group is Z^(n-1)/L0 for the reduced Laplacian L0, so m*[d] = 0
    exactly when m*L0^-1 d is integral: the lcm of the denominators of y/det."""
    det, y = _laplacian_solve(g, raw[1:])
    return det // gcd(det, *y)


# A degree-0 coefficient vector, reduced or not, is its own profile.
_VECTORS = _Engine(
    _vector_raw,
    lambda g, raw: _reduced_key(g, raw, 0),
    lambda g, raw: tuple(raw),
    lambda g, key: key,
    _vector_ranks,
    _vector_order,
    lambda g: (tuple(_vec(g, d)) for d in enumerate_jacobian(g)),
    _from_vec)


def _engine(g: Graph) -> _Engine:
    """Reduced strand tuples on bananas, base-reduced vectors otherwise."""
    return _VECTORS if g.banana is None else _TUPLES


def _class_rank(g: Graph, d: Divisor) -> int:
    eng = _engine(g)
    return eng.ranks(g, eng.profile(g, eng.raw(g, d)), range(d.degree, d.degree + 1))[0]


def _line_ranks(g: Graph, raw, step, degree: int, ts: range, memo: dict) -> list[int]:
    """[r(raw + t*step) at degree + t for t in ts], each class profiled once
    per memo, which maps raw coordinate tuples to profiles.  A step with zero
    coordinates (the base vertex) keeps the line in one class."""
    eng = _engine(g)
    if not any(step):
        return eng.ranks(g, _profile(g, eng, raw, memo),
                         range(degree + ts.start, degree + ts.stop))
    return [eng.ranks(g, _profile(g, eng, [x + t * s for x, s in zip(raw, step)], memo),
                      range(degree + t, degree + t + 1))[0] for t in ts]


def _profile(g: Graph, eng: _Engine, raw, memo: dict) -> tuple:
    key = tuple(raw)
    prof = memo.get(key)
    if prof is None:
        prof = memo[key] = eng.profile(g, raw)
    return prof


class SubmodularityVerdict(NamedTuple):
    ok: bool
    witness: Divisor | None
    value: int | None


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
    torsion: int = field(metadata={"json": "torsion_order"})
    genus: int
    max_inversions: int | None
    extremal: Divisor | None = field(metadata={"json": "extremal_divisor"})
    nonsubmodular_witness: Divisor | None
    orbits_checked: int
    class_count: int
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"


def _twist_columns(mg: MarkedGraph, raw, degree: int,
                   keys: Sequence[tuple] = ()) -> Callable[[int, range], list[int]]:
    """(c, ts) -> [r(D + (c + t)*u - c*v) for t in ts] for the divisor D with
    coordinates raw and the given degree.

    Column c is the line from D + c*(u - v), at D's degree, in the direction
    of u.  The columns share one memo, so on a banana a column is one class
    when u is the left hub and a row is one class when v is.  keys, when
    given, are the reduced keys of the column origins (the orbit keys of a
    degree-0 class key D), and they seed the memo.
    """
    g = mg.graph
    eng = _engine(g)
    du, dv = eng.raw(g, Divisor.at(mg.u)), eng.raw(g, Divisor.at(mg.v))
    step = [x - y for x, y in zip(du, dv)]

    def origin(c: int) -> tuple:
        return tuple([x + c * s for x, s in zip(raw, step)])

    memo = {origin(c): eng.key_profile(g, key) for c, key in enumerate(keys)}
    return lambda c, ts: _line_ranks(g, origin(c), du, degree, ts, memo)


def delta(mg: MarkedGraph, d: Divisor) -> int:
    """r(D) - r(D-u) - r(D-v) + r(D-u-v); for u = v that is r(D) - 2r(D-u) + r(D-2u)."""
    g = mg.graph
    column = _twist_columns(mg, _engine(g).raw(g, d), d.degree)
    (r_u, r), (r_uv, r_v) = column(0, range(-1, 1)), column(1, range(-2, 0))
    return r - r_u - r_v + r_uv


def _second_differences(column: Callable[[int, range], list[int]], genus: int,
                        degree: int, k: int) -> Iterator[tuple[int, list[int]]]:
    """(b, second differences at D + a*u - b*v) for each window slot b in
    0..k-1, over a = b - degree .. b - degree + 2g (its Riemann-Roch range),
    from the twist columns of D.

    Only twist degrees 0..2g can carry a nonzero value (the four ranks cancel
    outside by Riemann-Roch), and within a degree only k twist classes exist,
    so this grid is finite and complete.  Every column is computed once, and
    column k is column 0, because k*(u - v) ~ 0 gives r(a, b + k) = r(a - k, b).
    """
    ts = range(-degree - 2, -degree + 2 * genus + 1)
    first = cur = column(0, ts)
    for b in range(k):
        nxt = column(b + 1, ts) if b + 1 < k else first
        # cur[j] = r(b - degree - 2 + j, b) and nxt[j] = r(b - degree - 1 + j, b + 1)
        yield b, [c2 - c1 - n1 + n0 for c2, c1, n1, n0 in zip(cur[2:], cur[1:], nxt[1:], nxt)]
        cur = nxt


def _twist_divisor(mg: MarkedGraph, d: Divisor, a: int, b: int) -> Divisor:
    return d + a * Divisor.at(mg.u) - b * Divisor.at(mg.v)


def is_submodular_divisor(mg: MarkedGraph, d: Divisor) -> SubmodularityVerdict:
    """Check the second difference on every twist of d, through the twist rows
    of ``_permutation`` (for u = v the torsion is 1 and there is one row)."""
    g = mg.graph
    column = _twist_columns(mg, _engine(g).raw(g, d), d.degree)
    try:
        _permutation(mg, column, d.degree, lambda: d)
    except NonSubmodularError as err:
        return SubmodularityVerdict(False, err.witness, err.value)
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
    g = mg.graph
    column = _twist_columns(mg, _engine(g).raw(g, d), d.degree)
    return _permutation(mg, column, d.degree, lambda: d)


def _permutation(mg: MarkedGraph, column: Callable[[int, range], list[int]],
                 degree: int, divisor: Callable[[], Divisor]) -> EafPerm:
    """The transmission permutation from the twist columns of a divisor D of
    the given degree; divisor() builds D only for a non-submodular witness.
    A chip raises rank by 0 or 1 and Riemann-Roch fixes a row's ends, so a
    row's values are -1, 0 or 1 and sum to 1: it is non-submodular at its
    first -1, or else its single 1 is the slot's window value."""
    window = []
    for b, vals in _second_differences(column, mg.graph.genus, degree, torsion_order(mg)):
        if -1 in vals:
            i = vals.index(-1)
            raise NonSubmodularError(_twist_divisor(mg, divisor(), b - degree + i, b), -1)
        if vals.count(1) != 1:
            raise AlgorithmError(f"twist row {b} has no single 1; this is a bug")
        window.append(b - degree + vals.index(1))
    return EafPerm(len(window), tuple(window))


def _class_reps(g: Graph) -> Iterator[tuple]:
    """One canonical degree-0 key per class, after the class-count check."""
    _check_cap(g)
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
    degree that can matter (0..2g).

    Adding the base vertex leaves the coordinates alone, so D, D-u, D-v and
    D-u-v each stay one class through the degrees: four profiles per class.
    """
    g = mg.graph
    eng = _engine(g)
    du, dv = eng.raw(g, Divisor.at(mg.u)), eng.raw(g, Divisor.at(mg.v))
    span = 2 * g.genus + 1
    for rep in _class_reps(g):
        r = eng.ranks(g, eng.key_profile(g, rep), range(span))
        r_u, r_v, r_uv = (
            eng.ranks(g, eng.profile(g, [x - i * y - j * z for x, y, z in zip(rep, du, dv)]),
                      range(-i - j, span - i - j)) for i, j in ((1, 0), (0, 1), (1, 1)))
        for degree in range(span):
            val = r[degree] - r_u[degree] - r_v[degree] + r_uv[degree]
            if val < 0:
                d = _rep_divisor(g, rep) + degree * Divisor.at(g.base_vertex)
                return SubmodularityVerdict(False, d, val)
    return SubmodularityVerdict(True, None, None)


def _ordered_orbit_reps(mg: MarkedGraph, k: int) -> Iterator[tuple[tuple, list[tuple]]]:
    """One degree-0 key per orbit of the class group under [u - v], with the
    orbit's keys (rep + c*(u - v) for c in 0..k-1).

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
            keys = _orbit_keys(mg, rep, k)
            seen.update(keys)
            yield rep, keys


def kgt_check(mg: MarkedGraph, exhaustive: bool = False) -> KgtCertificate:
    """Certify or refute k-general transmission.

    Walks one representative per twist orbit (inversion counts are constant on
    orbits; that invariance is itself property-tested), computing each
    transmission permutation and its inversion count from the class keys;
    the orbit keys already reduced are the twist columns' origins.  An orbit
    with more inversions than the genus ends the scan unless exhaustive is
    set; a non-submodular twist ends it either way.
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
    for rep, keys in _ordered_orbit_reps(mg, k):
        orbits += 1
        try:
            tau = _permutation(mg, _twist_columns(mg, rep, 0, keys), 0,
                               lambda: _rep_divisor(g, rep))
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
    if extremal is not None:
        extremal = _rep_divisor(g, extremal)
    return KgtCertificate(verdict, k, genus, max_inv, extremal, nonsub,
                          orbits, count, complete)


def recurrence_witness(g: Graph, d0: Divisor):
    """First vertex seeing two effective divisors among n*D + v, 0 < n < order,
    as (vertex, n1, n2); None when the class is non-recurrent.  Each n*D + v
    is ranked at degree 1 from its coordinates n*raw(D) + raw(v)."""
    if d0.degree != 0:
        raise InvalidGraphError("non-recurrence is defined for degree-0 divisors")
    eng = _engine(g)
    raw = eng.raw(g, d0)
    at = [(v, eng.raw(g, Divisor.at(v))) for v in g.vertices]
    hits: dict[str, int] = {}
    for n in range(1, eng.order(g, raw)):
        for v, dv in at:
            prof = eng.profile(g, [n * x + y for x, y in zip(raw, dv)])
            if eng.ranks(g, prof, range(1, 2))[0] >= 0:
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
    """Pole orders s_i = min{l : r(D + l*v) >= i} and their excess parts."""
    v = g.resolve(v)
    eng = _engine(g)
    return _partition(g, eng.raw(g, d), d.degree, eng.raw(g, Divisor.at(v)), {})


def _partition(g: Graph, raw, degree: int, dv, memo: dict) -> WeierstrassPartition:
    """The Weierstrass partition of the divisor with coordinates raw at a
    degree, for the mark with coordinates dv.

    Rank rises by at most one per added chip, so one upward scan of l meets
    s_0 < s_1 < ... in turn (hence nonincreasing parts), up to the first zero
    part, which Riemann-Roch places by l = 2g - deg D."""
    genus = g.genus
    parts: list[int] = []
    orders: list[int] = []
    for l in range(-degree, 2 * genus - degree + 1):
        i = len(parts)
        if _line_ranks(g, raw, dv, degree, range(l, l + 1), memo)[0] < i:
            continue
        lam = i - l + genus - degree
        if lam < 0:
            raise AlgorithmError("negative partition part; this is a bug")
        if lam == 0:
            break
        parts.append(lam)
        orders.append(l)
    else:
        raise AlgorithmError("no zero partition part by degree 2g; this is a bug")
    return WeierstrassPartition(tuple(parts), tuple(orders))
