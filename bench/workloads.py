"""Seeded op lists for the two benchmark workloads.

An op is one ``chipfire`` command line run on one generated spec file.  The
generator never calls chipfire: the program under test sees only the spec
files.  Every op carries the checks that do not need the engine (anchor
values, the independent reference op of a large-coefficient op, the input
degree), so that ``checks.py`` can judge its output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from lattice import BananaGroup, GraphGroup

WORKLOADS = ("banana_cli", "generic_cli")

# The paper's headline banana B_{5,4,4,3,3,3,3,3,3,3} (genus 9, J = 530,712).
FIG6 = (5, 4, 4, 3, 3, 3, 3, 3, 3, 3)


@dataclass
class Op:
    """One command on generated input files.

    ``argv`` names each input file as ``{key}`` for a key of ``files``; the
    runner writes the files and substitutes their paths.  ``expect`` holds
    what the benchmark knows about the answer without running the engine.
    """

    name: str
    argv: list[str]
    files: dict
    kind: str                      # "banana" | "graph" | "chain"
    expect: dict = field(default_factory=dict)
    large: int = 0                 # n of the added n*(u - v), 0 if none
    ref: "Op | None" = None        # the same op with n reduced mod the torsion


# ---------------------------------------------------------------------------
# spec text


def banana_spec(lengths, u, v, divisor=()) -> str:
    lines = ["banana " + " ".join(map(str, lengths)), f"mark u {u}", f"mark v {v}"]
    if divisor:
        lines.append("divisor " + " ".join(f"{x}:{c}" for x, c in divisor))
    return "\n".join(lines) + "\n"


def graph_spec(vertices, edges, u, v, divisor=()) -> str:
    lines = ["graph"] + [f"vertex {x}" for x in vertices]
    lines += [f"edge {a} {b}" for a, b in edges]
    lines += [f"mark u {u}", f"mark v {v}"]
    if divisor:
        lines.append("divisor " + " ".join(f"{x}:{c}" for x, c in divisor))
    return "\n".join(lines) + "\n"


def chain_spec(components) -> str:
    lines = ["chain"]
    for kind, lengths, u, v in components:
        lines.append(f"component {kind} " + " ".join(map(str, lengths)))
        if u is not None:
            lines += [f"mark u {u}", f"mark v {v}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# bananas


def banana_vertices(lengths) -> list[str]:
    out = ["s0.0", f"s0.{lengths[0]}"]
    for a, n in enumerate(lengths):
        out += [f"s{a}.{i}" for i in range(1, n)]
    return out


def banana_edges(lengths) -> list[tuple[str, str]]:
    """Edges of the banana under its canonical vertex names."""
    right = f"s0.{lengths[0]}"
    edges = []
    for a, n in enumerate(lengths):
        path = ["s0.0"] + [f"s{a}.{i}" for i in range(1, n)] + [right]
        edges += list(zip(path, path[1:]))
    return edges


MARKINGS = ("hub", "one_off", "both_off", "same_strand", "distinct")


def banana_marking(rng: random.Random, lengths, case: str):
    """Marks (u, v) of one of the paper's cases, or None if the shape has none."""
    right = f"s0.{lengths[0]}"
    long2 = [a for a, n in enumerate(lengths) if n >= 2]
    long3 = [a for a, n in enumerate(lengths) if n >= 3]
    if case == "hub":
        return "s0.0", right
    if case == "one_off":
        a = rng.choice(long2)
        return "s0.0", f"s{a}.{lengths[a] - 1}"
    if case == "both_off":
        a, b = rng.sample(long2, 2)
        return f"s{a}.1", f"s{b}.{lengths[b] - 1}"
    if case == "same_strand":
        if not long3:
            return None
        a = rng.choice(long3)
        i, j = sorted(rng.sample(range(1, lengths[a]), 2))
        return f"s{a}.{i}", f"s{a}.{j}"
    a, b = rng.sample(long2, 2)
    return f"s{a}.{rng.randint(1, lengths[a] - 1)}", f"s{b}.{rng.randint(1, lengths[b] - 1)}"


def random_divisor(rng: random.Random, vertices, degree: int, negatives: int = 0):
    chips: dict[str, int] = {}
    for _ in range(degree + negatives):
        x = rng.choice(vertices)
        chips[x] = chips.get(x, 0) + 1
    for _ in range(negatives):
        x = rng.choice(vertices)
        chips[x] = chips.get(x, 0) - 1
    return sorted((x, c) for x, c in chips.items() if c)


def add_twist(divisor, u: str, v: str, n: int):
    """divisor + n*(u - v), as a sorted chip list."""
    chips = dict(divisor)
    chips[u] = chips.get(u, 0) + n
    chips[v] = chips.get(v, 0) - n
    return sorted((x, c) for x, c in chips.items() if c)


# ---------------------------------------------------------------------------
# general graphs


def random_graph(rng: random.Random, nv: int, genus: int):
    """Connected loopless multigraph: a random tree plus genus extra edges."""
    names = [f"v{i}" for i in range(nv)]
    rng.shuffle(names)
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, nv)]
    for _ in range(genus):
        a, b = rng.sample(names, 2)
        edges.append((a, b))
    return sorted(names), edges


def relabelled_banana(rng: random.Random, lengths):
    """A banana written as a plain ``graph`` spec under shuffled names, so the
    generic engine handles it.  Returns (vertices, edges, name map)."""
    canon = banana_vertices(lengths)
    ids = list(range(len(canon)))
    rng.shuffle(ids)
    rename = {c: f"w{i}" for c, i in zip(canon, ids)}
    edges = [(rename[a], rename[b]) for a, b in banana_edges(lengths)]
    return sorted(rename.values()), edges, rename


# ---------------------------------------------------------------------------
# workload builders


def _draw(rng: random.Random, make, accept=lambda x: True, tries: int = 10_000):
    """Rejection sampling: the first value from make(rng) that accept() takes."""
    for _ in range(tries):
        x = make(rng)
        if x is not None and accept(x):
            return x
    raise RuntimeError("workload generator found no input in its window")


def _op(cmd, spec, kind, expect, extra=(), files=None):
    files = dict(files or {})
    files["spec"] = spec
    return Op("", [cmd, "{spec}", *extra, "--json"], files, kind, expect)


class _Banana:
    """A marked banana with its group data, drawn to order."""

    def __init__(self, lengths, u, v):
        self.lengths, self.u, self.v = tuple(lengths), u, v
        self.genus = len(lengths) - 1
        self.group = BananaGroup(self.lengths)
        self.torsion = self.group.order({u: 1, v: -1})

    @property
    def vertices(self):
        return banana_vertices(self.lengths)

    def spec(self, divisor=()):
        return banana_spec(self.lengths, self.u, self.v, divisor)

    def expect(self, **kw):
        out = {"genus": self.genus, "classes": self.group.size, "torsion": self.torsion}
        out.update(kw)
        return out


# fig6 marked one step short of the far hub: torsion 91, tau of 9*s0.5 has
# 217 inversions
FIG6_ONE_OFF = _Banana(FIG6, "s0.0", "s0.4")
# a genus-3 banana on which rank of 5*s0.1 + 3*10^6 (u - v) trips the
# firing-round guard of the generic reduction (torsion 6)
GUARD_RANK_BANANA = _Banana((3, 3, 3, 3), "s0.0", "s1.2")


def _random_banana(rng, gmin, gmax, lmin, lmax, case):
    g = rng.randint(gmin, gmax)
    lengths = tuple(rng.randint(lmin, lmax) for _ in range(g + 1))
    marks = banana_marking(rng, lengths, case)
    return None if marks is None else _Banana(lengths, *marks)


def _interleave(groups):
    """Spread each group evenly over the pass, so every stretch has the same mix."""
    keyed = [((j + 0.5) / len(g), gi, op) for gi, g in enumerate(groups)
             for j, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _finish(groups):
    ops = _interleave(groups)
    for i, op in enumerate(ops):
        op.name = f"{i:03d}-{op.argv[0]}"
        if op.ref is not None:
            op.ref.name = op.name + "-ref"
    return ops


def banana_cli(rng: random.Random) -> list[Op]:
    """The banana engine: torsion, tau, delta, submodular, kgt and rank on
    marked bananas of genus 3-9, strand lengths 2-5, over the paper's five
    marking cases; the fig6 anchors; a large-coefficient slice; and the
    banana-family sweeps of ``banana_sweeps``.

    Strata with fixed counts: 150 short ops (torsion, rank, delta), 20 tau or
    submodular on markings refuted in the first slots, 20 medium and 12 long
    twist sweeps on the three submodular markings, drawn in windows of k and
    g, 26 large-coefficient ops (one in ten), and 30 sweeps.  The median
    lands among the short ops, the p90 among the long ones.
    """
    fig6_one_off = FIG6_ONE_OFF
    fig6_hub = _Banana(FIG6, "s0.0", "s0.5")
    d9 = [("s0.5", 9)]
    anchors = [
        _op("tau", fig6_one_off.spec(d9), "banana",
            fig6_one_off.expect(torsion=91, inversions=217)),
        _op("tau", fig6_hub.spec(d9), "banana", fig6_hub.expect(torsion=182)),
        _op("torsion", fig6_one_off.spec(), "banana", fig6_one_off.expect(torsion=91)),
    ]

    def marked(case, accept=lambda b: True, gmin=3, gmax=9):
        return _draw(rng, lambda r: _random_banana(r, gmin, gmax, 2, 5, case), accept)

    def divisor(b):
        return random_divisor(rng, b.vertices, rng.randint(b.genus, 2 * b.genus))

    def twisty(cmd, b):
        return _op(cmd, b.spec(divisor(b)) if cmd != "kgt" else b.spec(), "banana",
                   b.expect())

    def torsion_in(lo, hi):
        return lambda b: lo <= b.torsion <= hi

    short, refuted, medium, long_ = [], [], [], []
    for i in range(50):
        case = MARKINGS[i % len(MARKINGS)]
        b = marked(case)
        short.append(_op("torsion", b.spec(), "banana", b.expect()))
        b = marked(case)
        d = random_divisor(rng, b.vertices, rng.randint(b.genus - 2, 2 * b.genus), 1)
        short.append(_op("rank", b.spec(d), "banana", b.expect(degree=sum(c for _, c in d))))
        b = marked(case)
        short.append(_op("delta", b.spec(divisor(b)), "banana", b.expect()))
    for i in range(20):
        # mostly refuted early: a non-submodular twist turns up in the first
        # slots.  No kgt here: a marking that passes costs a sweep of every orbit.
        refuted.append(twisty(("tau", "submodular")[i % 2],
                              marked(("same_strand", "distinct")[i // 2 % 2],
                                     lambda b: b.torsion * b.genus <= 200)))
    # kgt only where its first orbit, g*(R - L), already fails (hub and one-off)
    submodular_cases = ("hub", "one_off", "both_off")
    # A twist sweep costs about k^1.8 * g: genus 3-5 at k = 40-65 takes
    # 0.02-0.05 s, genus 4-5 at k = 85-120 takes 0.1-0.3 s.
    for stratum, count, (klo, khi), (gmin, gmax) in (
            (medium, 20, (40, 65), (3, 5)), (long_, 12, (85, 120), (4, 5))):
        for i in range(count):
            cmd = ("tau", "submodular", "kgt")[i % 3]
            case = submodular_cases[(i // 3) % (2 if cmd == "kgt" else 3)]
            stratum.append(twisty(cmd, marked(case, torsion_in(klo, khi), gmin, gmax)))

    # The large-coefficient slice, D + n*(u - v), each op checked against the
    # same op with n mod k.  rank and delta cost about n^0.9 (0.01 s at 10^3,
    # 0.5-2 s at 10^5 depending on the banana; rank reduces through the
    # generic _reduce_vec), so |n| is log-uniform on [10^3, 10^5], one draw
    # per equal slice of that range so that every seed spreads n alike.  tau
    # and submodular repeat the reduction over the twist grid (over 6 s at
    # 10^5 even for k <= 11), so they stay on genus 3, k <= 8 and |n| in
    # [10^3, 10^3.5].
    large = []
    for cmd, count, (elo, ehi), accept, gmax in (
            ("rank", 11, (3, 5), lambda b: True, 5),
            ("delta", 11, (3, 5), lambda b: True, 5),
            ("tau", 2, (3, 3.5), torsion_in(1, 8), 3),
            ("submodular", 2, (3, 3.5), torsion_in(1, 8), 3)):
        for j in range(count):
            b = marked(submodular_cases[j % 3], accept, 3, gmax)
            n = round(10 ** (elo + (ehi - elo) * (j + rng.random()) / count))
            n *= rng.choice((1, -1))
            d = divisor(b)
            deg = sum(c for _, c in d)
            op = _op(cmd, b.spec(add_twist(d, b.u, b.v, n)), "banana", b.expect(degree=deg))
            op.large = n
            op.ref = _op(cmd, b.spec(add_twist(d, b.u, b.v, n % b.torsion)), "banana",
                         b.expect(degree=deg))
            large.append(op)
    return _finish([anchors, short, refuted, medium, long_, large, banana_sweeps(rng, 4)])


class _General:
    """A marked general graph (``graph`` spec) with its group data."""

    def __init__(self, vertices, edges, u, v):
        self.vertices, self.edges, self.u, self.v = vertices, edges, u, v
        self.genus = len(edges) - len(vertices) + 1
        self.group = GraphGroup(vertices, edges)
        self.torsion = self.group.order({u: 1, v: -1})

    def spec(self, divisor=()):
        return graph_spec(self.vertices, self.edges, self.u, self.v, divisor)

    expect = _Banana.expect


def _random_general(rng, nmin, nmax, gmin, gmax):
    vs, es = random_graph(rng, rng.randint(nmin, nmax), rng.randint(gmin, gmax))
    u, v = rng.sample(vs, 2)
    return _General(vs, es, u, v)


def generic_cli(rng: random.Random) -> list[Op]:
    """The generic engine: rank, reduce, torsion, delta, tau and kgt on
    connected loopless graph specs (6-14 vertices, genus 3-6), verify-witness
    on kgt certificates of hub-marked bananas of genus 4-6, and the graph-spec
    sweeps of ``graph_sweeps``.  No op reaches the banana engine.

    Strata: 120 short ops, 20 twist sweeps (tau, kgt) on genus 3-4 at
    torsion 5-40, whose cost depends on how soon a non-submodular twist
    refutes them, 20 verify-witness ops drawn in windows of g and J, and 24
    sweeps.
    """
    def graph():
        return _draw(rng, lambda r: _random_general(r, 6, 14, 3, 6))

    short, medium, long_ = [], [], []
    # Generic rank descends over every vertex, so its cost grows like
    # (vertices)^rank: short ops keep the degree near g, where ranks are small.
    for _ in range(30):
        x = graph()
        d = random_divisor(rng, x.vertices, rng.randint(x.genus - 2, x.genus + 1), 1)
        short.append(_op("rank", x.spec(d), "graph", x.expect(degree=sum(c for _, c in d))))
        x = graph()
        d = random_divisor(rng, x.vertices, rng.randint(0, x.genus), 3)
        short.append(_op("reduce", x.spec(d), "graph",
                         x.expect(degree=sum(c for _, c in d), chips=dict(d), edges=x.edges),
                         ("--base", rng.choice(x.vertices))))
        x = graph()
        short.append(_op("torsion", x.spec(), "graph", x.expect()))
        x = graph()
        d = random_divisor(rng, x.vertices, rng.randint(x.genus - 2, x.genus + 1))
        short.append(_op("delta", x.spec(d), "graph", x.expect()))
    # Genus 3-4 only: on genus 5-6 a tau that passes every twist takes up to
    # 1 s, and how many pass differs from seed to seed.
    for i in range(20):
        khi = 40 if i % 5 < 3 else 25
        x = _draw(rng, lambda r: _random_general(r, 6, 14, 3, 4),
                  lambda x: 5 <= x.torsion <= khi)
        if i % 5 < 3:
            d = random_divisor(rng, x.vertices, rng.randint(x.genus - 1, 2 * x.genus))
            medium.append(_op("tau", x.spec(d), "graph", x.expect()))
        else:
            medium.append(_op("kgt", x.spec(), "graph", x.expect()))
    # The certificate is the one kgt emits for a hub-marked banana: its first
    # orbit, g*(R - L), has comb(g+1, 2) > g inversions.
    # Checking the certificate costs about J, more per class at higher genus:
    # genus 4 with four or five strands of length 3 (J = 297 or 405) takes
    # about 0.08 s, genus 5 with two (J = 384) about 0.18 s; the two
    # alternate.  Two genus-6 ops, about 1 s each, on the cheapest genus-6
    # shape (one strand of length 3), sit above the p90.
    for i in range(20):
        if i < 18:
            g, jlo, jhi = ((4, 290, 410), (5, 380, 400))[i % 2]
            b = _draw(rng, lambda r: _random_banana(r, g, g, 2, 3, "hub"),
                      lambda b: jlo <= b.group.size <= jhi)
        else:
            lengths = [2] * 7
            lengths[rng.randrange(7)] = 3
            b = _Banana(lengths, "s0.0", f"s0.{lengths[0]}")
        g = b.genus
        cert = {"command": "kgt", "certificate": {
            "verdict": "FAIL", "torsion_order": b.torsion, "genus": g,
            "extremal_divisor": {b.u: -g, b.v: g}, "nonsubmodular_witness": None,
            "class_count": b.group.size}}
        long_.append(Op("", ["verify-witness", "{spec}", "{cert}", "--json"],
                        {"spec": b.spec(), "cert": json.dumps(cert, sort_keys=True)},
                        "banana", b.expect()))
    return _finish([short, medium, long_, graph_sweeps(rng, 4)])


def _chain(rng):
    comps, expect = [], []
    for _ in range(rng.randint(3, 5)):
        kind = rng.choice(("cycle", "theta", "banana"))
        if kind == "cycle":
            lengths = (rng.randint(1, 4), rng.randint(1, 4))
            u, v = None, None
        elif kind == "theta":
            lengths = (rng.randint(2, 4), rng.randint(1, 4), rng.randint(2, 4))
            u, v = "s0.0", f"s0.{lengths[0]}"
        else:
            lengths = (2, 2) + tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 2)))
            u, v = "s0.1", "s1.1"
        comps.append((kind, lengths, u, v))
        grp = BananaGroup(lengths)
        mu, mv = (u, v) if u is not None else ("s0.0", f"s0.{lengths[0]}")
        expect.append([len(lengths) - 1, grp.order({mu: 1, mv: -1})])
    return chain_spec(comps), expect


def _passing_banana(rng, lo, hi, lmax=4):
    """Marks at the midpoints of two length-2 strands: torsion 2, kgt PASS
    after a sweep of every orbit."""
    return _draw(rng, lambda r: _Banana(
        (2, 2) + tuple(r.randint(2, lmax) for _ in range(r.randint(1, 5))), "s0.1", "s1.1"),
        lambda b: lo <= b.group.size <= hi)


def _sized_banana(rng, case, lo, hi, gmin=3, gmax=6, lmax=4):
    return _draw(rng, lambda r: _random_banana(r, gmin, gmax, 2, lmax, case),
                 lambda b: lo <= b.group.size <= hi)


def banana_sweeps(rng: random.Random, rounds: int) -> list[Op]:
    """census, bn, bn --marked, kgt on passing markings, classify and
    certify-chain on banana-family specs, plus the [2,2,4,4,4,4] and theta
    3 4 5 anchors.

    A sweep costs about J^1.2, so each is drawn in a J window sized for about
    0.1 s.  classify on a submodular marking runs kgt and a full
    submodularity sweep; on the other markings it stops at a witness.
    """
    ops = [
        _op("kgt", banana_spec((2, 2, 4, 4, 4, 4), "s0.1", "s1.1"), "banana",
            _Banana((2, 2, 4, 4, 4, 4), "s0.1", "s1.1").expect(verdict="PASS")),
        _op("kgt", banana_spec((3, 4, 5), "s0.0", "s0.3"), "banana",
            _Banana((3, 4, 5), "s0.0", "s0.3").expect(classes=47)),
    ]
    for i in range(rounds):
        case = MARKINGS[i % len(MARKINGS)]
        for cmd in ("census", "bn"):
            b = _sized_banana(rng, case, 300, 420)
            ops.append(_op(cmd, b.spec(), "banana", b.expect()))
        b = _sized_banana(rng, case, 50, 300)
        ops.append(_op("bn", b.spec(), "banana", b.expect(), ("--marked", b.u)))
        b = _passing_banana(rng, 220, 320)
        ops.append(_op("kgt", b.spec(), "banana", b.expect(verdict="PASS")))
        b = _sized_banana(rng, ("hub", "one_off", "both_off")[i % 3], 100, 160, 3, 5)
        ops.append(_op("classify", b.spec(), "banana", b.expect()))
        b = _sized_banana(rng, ("same_strand", "distinct")[i % 2], 50, 600, 3, 5)
        ops.append(_op("classify", b.spec(), "banana", b.expect()))
        spec, comps = _chain(rng)
        ops.append(_op("certify-chain", spec, "chain", {"components": comps}))
    return ops


def graph_sweeps(rng: random.Random, rounds: int) -> list[Op]:
    """census, bn, bn --marked, kgt on passing markings and classify on
    ``graph`` specs: random graphs, and bananas written out under shuffled
    names so that only the generic engine sees them."""
    def general(lo, hi):
        return _draw(rng, lambda r: _random_general(r, 5, 9, 2, 4),
                     lambda x: lo <= x.group.size <= hi)

    def relabelled(b):
        vs, es, rename = relabelled_banana(rng, b.lengths)
        return _General(vs, es, rename[b.u], rename[b.v])

    ops = []
    for i in range(rounds):
        for cmd in ("census", "bn"):
            x = general(80, 120)
            ops.append(_op(cmd, x.spec(), "graph", x.expect()))
        x = general(80, 120)
        ops.append(_op("bn", x.spec(), "graph", x.expect(), ("--marked", x.u)))
        x = relabelled(_passing_banana(rng, 70, 100, 3))
        ops.append(_op("kgt", x.spec(), "graph", x.expect(verdict="PASS")))
        for case, hi in ((("hub", "one_off", "both_off")[i % 3], 40),
                         (("same_strand", "distinct")[i % 2], 60)):
            x = relabelled(_sized_banana(rng, case, 20, hi, 3, 4, 3))
            ops.append(_op("classify", x.spec(), "graph", x.expect()))
    return ops


BUILDERS = {"banana_cli": banana_cli, "generic_cli": generic_cli}


def build(workload: str, seed: int) -> list[Op]:
    """The op list of one pass; the same (workload, seed) gives the same ops."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
