"""Top-level certification.

Divisor censuses, unmarked and once-marked Brill-Noether generality, the exact
genus-2 classification and its higher-genus banana counterpart, and the chain
criterion that turns per-component transmission certificates into a generality
certificate for the glued graph.

Theta and banana classification share one reading of where the marks sit
(``_mark_case``) and one interval formula for marks on a common strand.
Banana strands and two loops at a vertex are both read off
``graphs._branch_walks``, the walk that also picks the rank-determining set
of ``divisors.rank``.

Theorem-backed paths only ever return CERTIFIED_GENERAL or INCONCLUSIVE:
sufficient conditions must not over-claim.  NOT_GENERAL always carries an
explicit witness that the hidden verify-witness CLI path can re-check.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import comb

from . import banana as _bn
from .divisors import Divisor, _from_vec, _reduced_key, _vec
from .errors import (AlgorithmError, DegenerateMarksError, NonSubmodularError,
                     WrongShapeError)
from .graphs import Graph, MarkedGraph, _branch_walks, _bridges, jacobian_order
from .perms import inv_k
from .transmission import (_class_order, _class_reps, _engine, _partition,
                           _rep_divisor, all_submodular, delta, kgt_check,
                           recurrence_witness, torsion_order,
                           transmission_permutation)
# weierstrass_partition is unused here but stays importable by this path,
# where bench/tracer.py rebinds it
from .transmission import weierstrass_partition  # noqa: F401

CERTIFIED_GENERAL = "CERTIFIED_GENERAL"
NOT_GENERAL = "NOT_GENERAL"
INCONCLUSIVE = "INCONCLUSIVE"

# classify_banana re-checks submodularity by a full sweep up to this many classes
_VERIFY_CLASSES = 50_000


@dataclass(frozen=True)
class CensusEntry:
    """Maximal rank found in one degree, with a divisor achieving it."""

    d: int
    r: int
    rho: int
    witness: Divisor | None


@dataclass(frozen=True)
class Certificate:
    verdict: str
    method: str
    evidence: dict

    @property
    def passed(self) -> bool:
        return self.verdict in (CERTIFIED_GENERAL, "KGT", "KGT2")


def rho(g: int, r: int, d: int) -> int:
    """g - (r+1)(g-d+r), the expected codimension of having a (d, r) divisor."""
    return g - (r + 1) * (g - d + r)


def divisor_census(g: Graph) -> list[CensusEntry]:
    """Per-degree maximal ranks over 0..2g-2, each with a witness divisor:
    the first class in ``_class_reps`` order to reach the maximum.

    Degrees outside the window are determined by Riemann-Roch (rank -1 below
    zero, degree - genus above 2g-2) and are not listed.  Adding the base
    vertex leaves a class's coordinates alone, so its ranks at every degree
    come from one profile read off its key.  Classes of one profile share
    their ranks, so each distinct profile is ranked once, for its first
    class, which is the earliest witness it can give.
    """
    genus = g.genus
    eng = _engine(g)
    degrees = range(0, max(2 * genus - 1, 1))
    best = [-2] * len(degrees)      # below every rank, so the first class sets all
    witnesses: list[tuple] = [()] * len(degrees)
    firsts: dict[tuple, tuple] = {}
    for rep in _class_reps(g):
        firsts.setdefault(eng.key_profile(g, rep), rep)
    for profile, rep in firsts.items():
        ranks = eng.ranks(g, profile, degrees)
        for i in [i for i, r in enumerate(ranks) if r > best[i]]:
            best[i], witnesses[i] = ranks[i], rep
    base = Divisor.at(g.base_vertex)
    return [CensusEntry(degree, r, rho(genus, r, degree),
                        _rep_divisor(g, rep) + degree * base)
            for degree, r, rep in zip(degrees, best, witnesses)]


def bn_general_unmarked(g: Graph) -> Certificate:
    """A graph is general when no census pair beats its expected codimension."""
    genus = g.genus
    for entry in divisor_census(g):
        for r in range(0, entry.r + 1):
            if rho(genus, r, entry.d) < 0:
                return Certificate(NOT_GENERAL, "census", {
                    "genus": genus,
                    "d": entry.d,
                    "r": r,
                    "rho": rho(genus, r, entry.d),
                    "witness": entry.witness,
                    "witness_rank": entry.r,
                })
    return Certificate(CERTIFIED_GENERAL, "census", {"genus": genus})


def bn_general_marked(g: Graph, v: str) -> Certificate:
    """Once-marked generality: every Weierstrass partition has size <= genus.

    Partitions are invariant under adding multiples of the mark, so one
    representative per degree-0 class covers everything.  At the base vertex
    the line stays in one class, so classes of one profile share a partition:
    only the first of each, its earliest witness, is read.
    """
    v = g.resolve(v)
    genus = g.genus
    eng = _engine(g)
    dv = eng.raw(g, Divisor.at(v))
    at_base = not any(dv)
    seen: set[tuple] = set()
    worst = 0
    for rep in _class_reps(g):
        profile = eng.key_profile(g, rep)
        if profile in seen:
            continue
        if at_base:
            seen.add(profile)
        lam = _partition(g, rep, 0, dv, {rep: profile})
        if lam.size > genus:
            return Certificate(NOT_GENERAL, "partition-sweep", {
                "genus": genus,
                "mark": v,
                "witness": _rep_divisor(g, rep),
                "partition": list(lam.parts),
                "size": lam.size,
            })
        worst = max(worst, lam.size)
    return Certificate(CERTIFIED_GENERAL, "partition-sweep", {
        "genus": genus,
        "mark": v,
        "max_partition_size": worst,
    })


# ---------------------------------------------------------------------------
# shape recognition helpers


def banana_strands(g: Graph) -> list[list[str]] | None:
    """Decompose a banana-shaped graph into hub-to-hub vertex paths.

    Returns None when the graph is not a banana of three or more strands (a
    cycle has no hubs).  Strand order is sorted by (length, vertex ids) for
    determinism, on graphs built as bananas too, whatever their build order;
    each path starts at the smaller hub.
    """
    hubs = sorted(v for i, v in enumerate(g.vertices) if g._val[i] >= 3)
    if len(hubs) != 2:
        return None
    h1, h2 = hubs
    strands = _branch_walks(g, h1)
    if any(path[-1] != h2 for path in strands):
        return None
    # the walks are disjoint inside, so covering every vertex leaves no other edge
    if {v for path in strands for v in path} != set(g.vertices):
        return None
    strands.sort(key=lambda p: (len(p), p))
    return strands


def _mark_case(strands: list[list[str]], u: str,
               v: str) -> tuple[str, tuple[int, int], tuple[int, int]]:
    """Where two distinct marks sit on a banana: the case and the
    (strand, offset) of u and of v.

    "hubs" is the hub pair, "one-off" a hub with the vertex one step short of
    the other hub, and "same-strand" any other pair on one strand; these
    three place both marks on the lowest-numbered strand they share.
    "distinct" has the marks inside two different strands.
    """
    pos_u, pos_v = ({alpha: path.index(w) for alpha, path in enumerate(strands)
                     if w in path} for w in (u, v))
    shared = pos_u.keys() & pos_v.keys()
    if not shared:
        (at_u,), (at_v,) = pos_u.items(), pos_v.items()
        return "distinct", at_u, at_v
    alpha = min(shared)
    i, j = pos_u[alpha], pos_v[alpha]
    n = len(strands[alpha]) - 1
    ends = (min(i, j), max(i, j))
    case = {(0, n): "hubs", (0, n - 1): "one-off", (1, n): "one-off"}.get(ends, "same-strand")
    return case, (alpha, i), (alpha, j)


def _same_strand_twists(path: list[str], i: int, j: int) -> list[Divisor]:
    """The interval formula: degree-2 divisors with negative second difference
    when u and v sit at offsets i and j of one strand (none for the hub pair
    or one-off marks)."""
    n = len(path) - 1
    return [Divisor({path[k]: 1}) + Divisor({path[i]: 1})
            for k in range(max(0, j - i), min(n, j - i + n) + 1) if k not in (n - i, j)]


def _two_loops(g: Graph) -> list[list[str]] | None:
    """The two cycles of a chain of two loops at w, each read from w out
    through its smaller neighbour."""
    hubs = [v for i, v in enumerate(g.vertices) if g._val[i] >= 3]
    if len(hubs) != 1 or g.valence(hubs[0]) != 4:
        return None
    w = hubs[0]
    walks = _branch_walks(g, w)
    if any(walk[-1] != w for walk in walks):
        return None
    # each loop is walked both ways, a double edge twice the same way
    loops = {walk[1]: walk[:-1] for walk in walks if walk[1] <= walk[-2]}
    return list(loops.values())


# ---------------------------------------------------------------------------
# theta non-submodular classes


def theta_nonsubmodular_set(g: Graph, u: str, v: str) -> set[Divisor]:
    """Classes of degree-2 divisors with negative second difference, from the
    same-strand interval formula; empty when the marks sit on distinct strands.

    Each class is returned as its base-reduced representative divisor.
    """
    strands = banana_strands(g)
    if strands is None or len(strands) != 3 or g.genus != 2:
        raise WrongShapeError("theta classification needs a genus-2 banana graph")
    u, v = g.resolve(u), g.resolve(v)
    if u == v:
        raise DegenerateMarksError("marks must be distinct")
    case, (alpha, i), (_, j) = _mark_case(strands, u, v)
    if case == "distinct":
        return set()
    return {_from_vec(g, _reduced_key(g, _vec(g, d), 0))
            for d in _same_strand_twists(strands[alpha], i, j)}


# ---------------------------------------------------------------------------
# genus-2 classification


def classify_genus2(mg: MarkedGraph) -> Certificate:
    """Match a twice-marked genus-2 graph against the exact transmission
    classification: equal-torsion gluing of cycles, the short-loop marking, or
    a rigidly marked theta with a non-recurrent mark difference."""
    g = mg.graph
    if g.genus != 2:
        raise WrongShapeError(f"classification needs genus 2, got {g.genus}")
    if mg.degenerate:
        raise DegenerateMarksError("marks must be distinct")
    if _bridges(g):
        raise WrongShapeError("graph has bridges; contract them first")
    u, v = mg.u, mg.v

    strands = banana_strands(g)
    if strands is not None:
        return _classify_theta(mg, strands)

    loops = _two_loops(g)
    if loops is None:
        raise WrongShapeError("genus-2 graph is neither a theta nor two loops")
    for loop in loops:
        if u in loop and v in loop:
            if len(loop) == 2:
                return Certificate("KGT", "genus2-classification", {
                    "case": "2", "torsion": torsion_order(mg)})
            others = [x for x in loop if x not in (u, v)]
            witness, value = _verified_negative(mg, [Divisor({u: 1, x: 1}) for x in others])
            if witness is None:
                raise AlgorithmError("same-loop marking was predicted non-submodular")
            return Certificate("NOT_KGT", "genus2-classification", {
                "case": "same-loop", "reason": "non-submodular", "witness": witness,
                "delta": value})
    # no loop holds both marks, so neither is the shared vertex
    loop_u, loop_v = loops if u in loops[0] else loops[::-1]
    # each mark's cycle torsion is the order of [mark - w], w = loop[0]
    k1, k2 = (_class_order(g, Divisor({x: 1, loop_u[0]: -1})) for x in (u, v))
    if k1 == k2:
        return Certificate("KGT", "genus2-classification", {
            "case": "1", "torsion": k1, "component_torsions": [k1, k2]})
    wit = recurrence_witness(g, Divisor({u: 1, v: -1}))
    if wit is None:
        raise AlgorithmError("unequal cycle torsions must produce a recurrence")
    return Certificate("NOT_KGT", "genus2-classification", {
        "case": "unequal-gluing", "reason": "recurrent",
        "component_torsions": [k1, k2],
        "witness_vertex": wit[0], "witness_steps": [wit[1], wit[2]]})


def _classify_theta(mg: MarkedGraph, strands: list[list[str]]) -> Certificate:
    g = mg.graph
    u, v = mg.u, mg.v
    case, (alpha, i), (_, j) = _mark_case(strands, u, v)
    if case == "hubs":
        witness = Divisor({max(u, v): 2})
        tau = transmission_permutation(mg, witness)
        return Certificate("NOT_KGT", "genus2-classification", {
            "case": "multivalent-pair", "reason": "inversion-bound",
            "lower_bound": comb(3, 2), "genus": 2, "witness_divisor": witness,
            "witness_permutation": tau, "witness_inversions": inv_k(tau)})
    if case == "same-strand":
        witness, value = _verified_negative(mg, _same_strand_twists(strands[alpha], i, j))
        if witness is None:
            raise AlgorithmError("same-strand theta marking was predicted non-submodular")
        return Certificate("NOT_KGT", "genus2-classification", {
            "case": "same-strand", "reason": "non-submodular",
            "witness": witness, "delta": value})
    # one-off marks are case 3a with a mark on the left hub, 3b on the right
    case = "3c" if case == "distinct" else "3a" if min(i, j) == 0 else "3b"
    nonrec = recurrence_witness(g, Divisor({u: 1, v: -1}))
    if nonrec is None:
        return Certificate("KGT", "genus2-classification", {
            "case": case, "non_recurrent": True, "torsion": torsion_order(mg)})
    return Certificate("NOT_KGT", "genus2-classification", {
        "case": case, "non_recurrent": False, "reason": "recurrent",
        "witness_vertex": nonrec[0], "witness_steps": [nonrec[1], nonrec[2]]})


def _verified_negative(mg: MarkedGraph,
                       candidates: list[Divisor]) -> tuple[Divisor | None, int | None]:
    """First candidate with negative second difference, else a full-sweep
    witness, with its value; (None, None) only when every divisor really is
    submodular."""
    for d in candidates:
        value = delta(mg, d)
        if value < 0:
            return d, value
    sweep = all_submodular(mg)
    return sweep.witness, sweep.value


# ---------------------------------------------------------------------------
# banana classification (genus >= 3)


def classify_banana(mg: MarkedGraph) -> Certificate:
    """Sort a twice-marked banana of genus >= 3 into: the one torsion-2 family
    with general transmission, the non-submodular mark placements (witness
    divisor verified), or submodular-but-too-many-inversions (closed-form
    bound when one applies, plus a computed witness permutation)."""
    g = mg.graph
    strands = banana_strands(g)
    if strands is None:
        raise WrongShapeError("not a banana graph")
    if g.genus < 3:
        raise WrongShapeError("banana classification needs genus >= 3")
    if mg.degenerate:
        raise DegenerateMarksError("marks must be distinct")
    genus = g.genus
    lengths = [len(p) - 1 for p in strands]
    case, (alpha, i), (beta, j) = _mark_case(strands, mg.u, mg.v)
    if case in ("hubs", "one-off"):
        reordered = [lengths[alpha]] + lengths[:alpha] + lengths[alpha + 1:]
        case = _bn.MULTIVALENT_PAIR if case == "hubs" else _bn.ONE_OFF
        bound = _bn.inversion_lower_bound(case, reordered)
        return _submodular_not_kgt(mg, strands, case, bound)
    if case == "same-strand":
        witness, value = _verified_negative(mg, _same_strand_twists(strands[alpha], i, j))
        if witness is None:
            return _verified_general(mg, strands, "same-strand-surprise")
        return Certificate("NON_SUBMODULAR", "banana-classification", {
            "case": "same-strand", "witness": witness, "delta": value})

    na, nb = lengths[alpha], lengths[beta]
    both_off = (i == 1 and j == nb - 1) or (i == na - 1 and j == 1)
    if both_off:
        if na == 2 and nb == 2:
            if torsion_order(mg) != 2:
                raise AlgorithmError("middle marks on two 2-strands must have torsion 2")
            if not all_submodular(mg).ok:
                raise AlgorithmError("torsion-2 banana marking was expected to be submodular")
            return _verified_general(mg, strands, "both-off-2-strands")
        if min(na, nb) < genus + 1:
            return _submodular_not_kgt(mg, strands, "both-off", None)
        reordered = [na, nb] + [n for c, n in enumerate(lengths) if c not in (alpha, beta)]
        bound = _bn.inversion_lower_bound(_bn.BOTH_OFF_MIN, reordered)
        return _submodular_not_kgt(mg, strands, _bn.BOTH_OFF_MIN, bound)

    # Both marks are interior, so every offset below is too.  The family is
    # closed under reading all strands from the other hub (si -> la - si
    # swaps the two shapes), so it needs no mirrored copies.
    candidates = []
    for (sa, si, sb) in ((alpha, i, beta), (beta, j, alpha),
                         (alpha, na - i, beta), (beta, nb - j, alpha)):
        pa, pb = strands[sa], strands[sb]
        la, lb = len(pa) - 1, len(pb) - 1
        candidates.append(Divisor({pa[1]: 1}) + Divisor({pa[si]: 1})
                          + Divisor({pb[lb - 1]: 1}))
        candidates.append(Divisor({pa[si]: 1}) + Divisor({pa[la - 1]: 1})
                          + Divisor({pb[1]: 1}))
    witness, value = _verified_negative(mg, candidates)
    if witness is None:
        # a marking the recipe family does not cover but the sweep certifies:
        # a mark in the middle of a length-2 strand leaves every divisor
        # submodular no matter where the other mark sits
        return _verified_general(mg, strands, "distinct-strands-surprise")
    return Certificate("NON_SUBMODULAR", "banana-classification", {
        "case": "distinct-strands", "witness": witness, "delta": value})


def _verified_general(mg: MarkedGraph, strands: list[list[str]], case: str) -> Certificate:
    """Verdict for an all-submodular marking already verified by a full sweep:
    torsion 2 gives general transmission outright, anything larger is settled
    by a computed witness permutation."""
    if torsion_order(mg) == 2:
        return Certificate("KGT2", "banana-classification", {
            "case": case, "torsion": 2, "genus": mg.graph.genus,
            "submodularity_verified": True})
    return _submodular_not_kgt(mg, strands, case, None, verified=True)


def _submodular_not_kgt(mg: MarkedGraph, strands: list[list[str]], case: str,
                        bound: int | None, verified: bool | None = None) -> Certificate:
    """Verdict for a marking expected submodular with too many inversions,
    reported under case with the closed-form lower bound, if any."""
    g = mg.graph
    genus = g.genus
    hub_path = strands[0]
    hub_left, hub_right = Divisor.at(hub_path[0]), Divisor.at(hub_path[-1])
    best_tau = None
    best_div = None
    best_inv = -1
    for d in (genus * hub_right, genus * hub_left):
        try:
            tau = transmission_permutation(mg, d)
        except NonSubmodularError as err:
            return Certificate("NON_SUBMODULAR", "banana-classification", {
                "case": "hub-twist", "witness": err.witness, "delta": err.value})
        iv = inv_k(tau)
        if iv > best_inv:
            best_tau, best_inv, best_div = tau, iv, d
    if best_inv <= genus:
        cert = kgt_check(mg)
        if cert.passed:
            raise AlgorithmError("banana marking certified where inversions were expected")
        best_inv = cert.max_inversions
        best_div = cert.extremal
        best_tau = transmission_permutation(mg, best_div)
    if verified is None and jacobian_order(g) <= _VERIFY_CLASSES:
        sweep = all_submodular(mg)
        if not sweep.ok:
            return Certificate("NON_SUBMODULAR", "banana-classification", {
                "case": "sweep", "witness": sweep.witness, "delta": sweep.value})
        verified = True
    return Certificate("SUBMODULAR_NOT_KGT", "banana-classification", {
        "case": case,
        "lower_bound": bound,
        "genus": genus,
        "witness_divisor": best_div,
        "witness_permutation": best_tau,
        "witness_inversions": best_inv,
        "submodularity_verified": verified,
    })


# ---------------------------------------------------------------------------
# chains


def chain_certify(chain: Sequence[MarkedGraph]) -> Certificate:
    """Generality of an iterated vertex gluing from per-component certificates.

    Every component must have general transmission (computed, not trusted).
    The marked criterion needs k_i > g_1 + ... + g_i left to right; the
    unmarked one splits the chain at the balance point and certifies both
    halves by the marked criterion.  A single component also gets the sharper
    half-genus bound.  The criteria are sufficient only, so failing them
    yields INCONCLUSIVE, never NOT_GENERAL.
    """
    components = tuple(chain)
    if not components:
        raise WrongShapeError("empty chain")
    comps = []
    kgt_fail = None
    for idx, comp in enumerate(components):
        cert = kgt_check(comp)
        comps.append({
            "index": idx,
            "genus": comp.graph.genus,
            "torsion": cert.torsion,
            "kgt": cert.verdict,
        })
        if not cert.passed and kgt_fail is None:
            kgt_fail = idx
    if kgt_fail is not None:
        return Certificate(INCONCLUSIVE, "chain-components", {
            "components": comps,
            "reason": f"component {kgt_fail} lacks general transmission",
        })
    gs = [c["genus"] for c in comps]
    ks = [c["torsion"] for c in comps]
    l = len(gs)
    prefix = [sum(gs[:i + 1]) for i in range(l)]
    suffix = [sum(gs[i:]) for i in range(l)]

    marked_checks = [{"i": i, "torsion": ks[i], "bound": prefix[i],
                      "ok": ks[i] > prefix[i]} for i in range(l)]
    marked_ok = all(c["ok"] for c in marked_checks)

    split = max((i for i in range(l) if prefix[i] <= suffix[i]), default=-1)
    unmarked_checks = []
    for i in range(l):
        bound = prefix[i] if i <= split else suffix[i]
        unmarked_checks.append({"i": i, "torsion": ks[i], "bound": bound,
                                "ok": ks[i] > bound})
    unmarked_ok = all(c["ok"] for c in unmarked_checks)

    half_bound_ok = l == 1 and 2 * ks[0] >= gs[0] + 2

    evidence = {
        "components": comps,
        "total_genus": sum(gs),
        "marked_criterion": marked_checks,
        "marked_general": marked_ok,
        "split_index": split,
        "unmarked_criterion": unmarked_checks,
        "half_genus_bound": half_bound_ok if l == 1 else None,
    }
    if unmarked_ok:
        return Certificate(CERTIFIED_GENERAL, "chain-inequalities", evidence)
    if half_bound_ok:
        return Certificate(CERTIFIED_GENERAL, "half-genus-bound", evidence)
    return Certificate(INCONCLUSIVE, "chain-inequalities", evidence)
