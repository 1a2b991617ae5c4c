"""Computations attached to a twice-marked graph: the rank second difference
over the marks, submodularity sweeps, torsion order, transmission permutations,
k-general transmission certification, non-recurrence, and Weierstrass
partitions.

Rank queries go through the closed-form tuple calculus on graphs built as
bananas and through the generic burning/descent engine otherwise; the two
backends are pinned to each other by the oracle tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from . import banana as _bn
from .divisors import (Divisor, _from_vec, _reduce_vec, _vec, class_cap,
                       enumerate_jacobian, rank)
from .errors import (AlgorithmError, DegenerateMarksError, EnumerationCapError,
                     InvalidGraphError, NonSubmodularError)
from .graphs import Graph, MarkedGraph, jacobian_order
from .perms import EafPerm, inv_k


def _class_rank(g: Graph, d: Divisor) -> int:
    if g.banana is not None:
        return _bn.class_rank(g, d)
    return rank(g, d)


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
    cache: dict[tuple[int, int], int] = {}
    if g.banana is not None:
        spec = g.banana
        base = _bn._raw_entries(spec, d)
        deg0 = d.degree
        au, iu = spec.position(mg.u)
        av, iv = spec.position(mg.v)

        def r(a: int, b: int) -> int:
            val = cache.get((a, b))
            if val is None:
                raw = list(base)
                raw[au] += a * iu
                raw[av] -= b * iv
                val = _bn.rank_entries(spec, raw, deg0 + a - b)
                cache[(a, b)] = val
            return val
        return r

    du, dv = Divisor.at(mg.u), Divisor.at(mg.v)

    def r(a: int, b: int) -> int:
        val = cache.get((a, b))
        if val is None:
            val = rank(g, d + a * du - b * dv)
            cache[(a, b)] = val
        return val
    return r


def delta(mg: MarkedGraph, d: Divisor) -> int:
    """r(D) - r(D-u) - r(D-v) + r(D-u-v); the degenerate-mark form uses -2u."""
    g = mg.graph
    if mg.degenerate:
        u = Divisor.at(mg.u)
        return (_class_rank(g, d) - 2 * _class_rank(g, d - u)
                + _class_rank(g, d - 2 * u))
    r = _twist_rank_fn(mg, d)
    return r(0, 0) - r(-1, 0) - r(0, 1) + r(-1, 1)


def _twist_divisor(mg: MarkedGraph, d: Divisor, a: int, b: int) -> Divisor:
    return d + a * Divisor.at(mg.u) - b * Divisor.at(mg.v)


def is_submodular_divisor(mg: MarkedGraph, d: Divisor) -> SubmodularityVerdict:
    """Check the second difference on every twist of d.

    Only twist degrees 0..2g can carry a nonzero value (the four ranks cancel
    outside by Riemann-Roch), and within a degree only k twist classes exist,
    so the sweep below is finite and complete.
    """
    k = torsion_order(mg)
    g = mg.graph.genus
    r = _twist_rank_fn(mg, d)
    deg = d.degree
    for b in range(k):
        for a in range(b - deg, b - deg + 2 * g + 1):
            val = r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)
            if val < 0:
                return SubmodularityVerdict(False, _twist_divisor(mg, d, a, b), val)
    return SubmodularityVerdict(True, None, None)


def torsion_order(mg: MarkedGraph) -> int:
    """Order of [u - v] in the degree-0 class group."""
    if mg.degenerate:
        return 1
    return _class_order(mg.graph, Divisor.at(mg.u) - Divisor.at(mg.v))


def transmission_permutation(mg: MarkedGraph, d: Divisor) -> EafPerm:
    """The permutation whose graph is the set of twists with second difference 1.

    Scans, for each window slot b, the Riemann-Roch range of candidate values;
    the same sweep doubles as the completeness check that every twist of d is
    submodular (anything negative raises with the offending twist).
    """
    if mg.degenerate:
        raise DegenerateMarksError("transmission is undefined for coincident marks")
    k = torsion_order(mg)
    g = mg.graph.genus
    r = _twist_rank_fn(mg, d)
    deg = d.degree
    window = []
    for b in range(k):
        hit = None
        for a in range(b - deg, b - deg + 2 * g + 1):
            val = r(a, b) - r(a - 1, b) - r(a, b + 1) + r(a - 1, b + 1)
            if val == 0:
                continue
            if val < 0:
                raise NonSubmodularError(_twist_divisor(mg, d, a, b), val)
            if val > 1 or hit is not None:
                raise NonSubmodularError(_twist_divisor(mg, d, a, b), val)
            hit = a
        if hit is None:
            raise AlgorithmError(f"no window value found at slot {b}; this is a bug")
        window.append(hit)
    return EafPerm(k, tuple(window))


def twist_orbit(mg: MarkedGraph, d: Divisor, degree: int) -> TwistOrbit:
    """The k classes of twists of d in the given degree, walked by u - v."""
    k = torsion_order(mg)
    offset = degree - d.degree
    reps = tuple(_twist_divisor(mg, d, offset + n, n) for n in range(k))
    return TwistOrbit(d, degree, reps)


def _check_cap(g: Graph, cap: int | None) -> int:
    limit = class_cap(cap)
    order = jacobian_order(g)
    if order > limit:
        raise EnumerationCapError(
            f"{order} classes exceeds the cap of {limit} (set CHIPFIRE_CLASS_CAP to raise)")
    return order


def _class_reps(g: Graph, cap: int | None) -> Iterator[tuple]:
    """Degree-0 class representatives: reduced tuples on bananas, reduced
    coefficient vectors otherwise."""
    _check_cap(g, cap)
    if g.banana is not None:
        yield from _bn._reduced_tuples(g.banana.lengths)
    else:
        for d in enumerate_jacobian(g, cap=cap):
            yield tuple(_vec(g, d))


def _rep_divisor(g: Graph, rep: tuple) -> Divisor:
    if g.banana is not None:
        t = _bn.BananaTuple(g.banana, rep)
        return _bn.tuple_to_reduced_divisor(t, 0).to_divisor(g.banana)
    return _from_vec(g, rep)


def _orbit_keys(mg: MarkedGraph, rep: tuple, k: int) -> list[tuple]:
    """All k reduced keys in rep's orbit under repeatedly adding u - v."""
    g = mg.graph
    keys = [rep]
    if g.banana is not None:
        spec = g.banana
        au, iu = spec.position(mg.u)
        av, iv = spec.position(mg.v)
        step = [0] * len(spec.lengths)
        step[au] += iu
        step[av] -= iv
        cur = rep
        for _ in range(k - 1):
            cur = _bn._reduce_entries(spec.lengths, [c + s for c, s in zip(cur, step)])
            keys.append(cur)
        return keys
    step = _vec(g, Divisor.at(mg.u) - Divisor.at(mg.v))
    cur = list(rep)
    for _ in range(k - 1):
        cur = [c + s for c, s in zip(cur, step)]
        _reduce_vec(g, cur, 0)
        keys.append(tuple(cur))
    return keys


def all_submodular(mg: MarkedGraph, cap: int | None = None) -> SubmodularityVerdict:
    """Second difference >= 0 for one representative of every class of every
    degree that can matter (0..2g)."""
    g = mg.graph
    genus = g.genus
    base = Divisor.at(g.base_vertex)
    for rep in _class_reps(g, cap):
        j = _rep_divisor(g, rep)
        for degree in range(0, 2 * genus + 1):
            d = j + degree * base
            val = delta(mg, d)
            if val < 0:
                return SubmodularityVerdict(False, d, val)
    return SubmodularityVerdict(True, None, None)


def _ordered_orbit_reps(mg: MarkedGraph, k: int, cap: int | None) -> Iterator[Divisor]:
    """One degree-0 divisor per orbit of the class group under [u - v].

    On bananas the orbit of [g(R - L)] comes first: it carries the known
    extremal permutations, so failing graphs fail fast.
    """
    g = mg.graph
    seen: set[tuple] = set()

    def claim(rep: tuple) -> bool:
        if rep in seen:
            return False
        seen.update(_orbit_keys(mg, rep, k))
        return True

    if g.banana is not None:
        spec = g.banana
        head_raw = [0] * len(spec.lengths)
        head_raw[0] = spec.genus * spec.lengths[0]   # g * (R - L)
        head = _bn._reduce_entries(spec.lengths, head_raw)
        if claim(head):
            yield _rep_divisor(g, head)
    for rep in _class_reps(g, cap):
        if claim(rep):
            yield _rep_divisor(g, rep)


def kgt_check(mg: MarkedGraph, cap: int | None = None,
              exhaustive: bool = False) -> KgtCertificate:
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
    k = torsion_order(mg)
    count = _check_cap(g, cap)
    max_inv = None
    extremal = None
    orbits = 0
    nonsub = None
    complete = True
    for rep in _ordered_orbit_reps(mg, k, cap):
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
    if nonsub is not None:
        return KgtCertificate("FAIL", k, genus, max_inv, extremal, nonsub,
                              orbits, count, complete)
    verdict = "PASS" if (max_inv is not None and max_inv <= genus) or count == 0 else "FAIL"
    if max_inv is None:
        max_inv = 0
        verdict = "PASS"
    return KgtCertificate(verdict, k, genus, max_inv, extremal, None,
                          orbits, count, complete or verdict == "PASS")


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
    if g.banana is not None:
        spec = g.banana
        step = _bn._raw_entries(spec, d0)
        zero = tuple([0] * len(spec.lengths))
        cur = _bn._reduce_entries(spec.lengths, step)
        n = 1
        while cur != zero:
            cur = _bn._reduce_entries(spec.lengths, [c + s for c, s in zip(cur, step)])
            n += 1
        return n
    step = _vec(g, d0)
    zero = tuple([0] * len(g.vertices))
    work = list(step)
    _reduce_vec(g, work, 0)
    n = 1
    bound = jacobian_order(g)
    while tuple(work) != zero:
        work = [c + s for c, s in zip(work, step)]
        _reduce_vec(g, work, 0)
        n += 1
        if n > bound:
            raise AlgorithmError("order iteration exceeded the class count")
    return n


def weierstrass_partition(g: Graph, v: str, d: Divisor) -> WeierstrassPartition:
    """Pole orders s_i = min{l : r(D + l*v) >= i} and their excess parts."""
    v = g.resolve(v)
    genus = g.genus
    deg = d.degree
    unit = Divisor.at(v)
    parts: list[int] = []
    orders: list[int] = []
    i = 0
    lo = -deg
    while True:
        ceiling = i + genus - deg
        s_i = None
        for l in range(lo, ceiling + 1):
            if _class_rank(g, d + l * unit) >= i:
                s_i = l
                break
        if s_i is None:
            raise AlgorithmError("pole order search missed its Riemann-Roch ceiling")
        lam = i - s_i + genus - deg
        if lam < 0:
            raise AlgorithmError("negative partition part; this is a bug")
        if lam == 0:
            break
        parts.append(lam)
        orders.append(s_i)
        lo = s_i + 1
        i += 1
        if i > genus + 1:
            raise AlgorithmError("partition did not stabilize by genus; this is a bug")
    if any(parts[j] < parts[j + 1] for j in range(len(parts) - 1)):
        raise AlgorithmError("partition parts are not nonincreasing; this is a bug")
    return WeierstrassPartition(tuple(parts), tuple(orders))
