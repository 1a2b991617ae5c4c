"""Command-line front end.

Subcommands mirror the library: rank, reduce, tau, delta, submodular, torsion,
kgt, bn, census, certify-chain, classify, plus the hidden verify-witness that
re-derives any emitted witness from scratch through the generic engine (Dhar
reduction and rank descent over the loopless model of the graph stripped of
its banana annotation), never through the banana closed forms.

Exit codes: 0 passing/true/value, 1 failing/false with a witness, 2 errors
(unreadable or malformed input files, recursion, memory and overflow errors
included) and INCONCLUSIVE verdicts.  --json selects a stable machine schema;
output is byte-deterministic unless --timing is requested.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import operator
import sys
import time

from . import certify as _certify
from . import transmission as _tr
from .divisors import Divisor, dhar_reduce, rank
from .errors import ChipfireError, NonSubmodularError
from .graphs import Graph, MarkedGraph
from .perms import inv_k, sci
from .specfile import SpecDocument, divisor_on, parse_divisor_tokens, parse_spec

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _json_safe(obj):
    if isinstance(obj, Divisor):
        return {v: c for v, c in obj.items()}
    if dataclasses.is_dataclass(obj):
        return {f.metadata.get("json", f.name): _json_safe(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(x) for x in obj]
    return obj


class _Output:
    def __init__(self, command: str, digest: str, as_json: bool, timing: bool):
        self.command = command
        self.digest = digest
        self.as_json = as_json
        self.timing = timing
        self.started = time.monotonic()
        self.lines: list[str] = []
        self.result: dict = {}
        self.certificate = None

    def say(self, text: str):
        self.lines.append(text)

    def emit(self, code: int) -> int:
        if self.as_json:
            payload = {
                "command": self.command,
                "input_digest": self.digest,
                "result": _json_safe(self.result),
                "certificate": _json_safe(self.certificate),
            }
            if self.timing:
                payload["elapsed_ms"] = int((time.monotonic() - self.started) * 1000)
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        else:
            for line in self.lines:
                print(line)
            if self.timing:
                print(f"elapsed: {(time.monotonic() - self.started) * 1000:.0f} ms")
        return code


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        reason = err.strerror if isinstance(err, OSError) else "not UTF-8 text"
        raise ChipfireError(f"cannot read {path}: {reason}") from None


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _divisor_from_args(args, doc: SpecDocument, g: Graph) -> Divisor:
    if getattr(args, "divisor", None):
        raw = args.divisor
        if raw.startswith("@"):
            raw = " ".join(
                line.split("#", 1)[0] for line in _read_file(raw[1:]).splitlines())
        return divisor_on(g, parse_divisor_tokens(raw.split()))
    return doc.divisor


def _divisor_str(d: Divisor) -> str:
    return " ".join(f"{v}:{c}" for v, c in d.items()) if d.coeffs else "0"


def _strip_fast_paths(g: Graph) -> Graph:
    """Rebuild without the banana annotation so every recomputation is generic."""
    return Graph(g.vertices, g.edges)


# ---------------------------------------------------------------------------
# subcommand bodies; each returns the exit code


def _cmd_rank(args, doc, out):
    g = doc.build_graph()
    d = _divisor_from_args(args, doc, g)
    r = _tr._class_rank(g, d)
    out.result = {"rank": r, "degree": d.degree}
    out.say(str(r))
    return EXIT_PASS


def _cmd_reduce(args, doc, out):
    g = doc.build_graph()
    d = _divisor_from_args(args, doc, g)
    base = g.resolve(args.base) if args.base else g.base_vertex
    form = dhar_reduce(g, d, base)
    out.result = {
        "base": form.base,
        "divisor": form.divisor,
        "firings": [{"set": list(names), "count": count}
                    for names, count in form.firing_certificate],
    }
    out.say(f"base {form.base}")
    out.say(_divisor_str(form.divisor))
    return EXIT_PASS


def _cmd_tau(args, doc, out):
    mg = doc.build_marked()
    d = _divisor_from_args(args, doc, mg.graph)
    try:
        tau = _tr.transmission_permutation(mg, d)
    except NonSubmodularError as err:
        out.result = {"submodular": False, "witness": err.witness, "delta": err.value}
        out.say(f"no transmission permutation: delta({_divisor_str(err.witness)}) = {err.value}")
        return EXIT_FAIL
    out.result = {"permutation": tau, "inversions": inv_k(tau),
                  "sign_changing_inversions": sci(tau)}
    out.say(f"modulus {tau.modulus}")
    out.say("window " + " ".join(map(str, tau.window)))
    out.say(f"inversions {inv_k(tau)}")
    out.say(f"sign-changing {sci(tau)}")
    return EXIT_PASS


def _cmd_delta(args, doc, out):
    mg = doc.build_marked()
    d = _divisor_from_args(args, doc, mg.graph)
    val = _tr.delta(mg, d)
    out.result = {"delta": val}
    out.say(str(val))
    return EXIT_PASS


def _cmd_submodular(args, doc, out):
    mg = doc.build_marked()
    d = _divisor_from_args(args, doc, mg.graph)
    verdict = _tr.is_submodular_divisor(mg, d)
    out.result = {"submodular": verdict.ok, "witness": verdict.witness,
                  "delta": verdict.value}
    if verdict.ok:
        out.say("submodular")
        return EXIT_PASS
    out.say(f"not submodular: delta({_divisor_str(verdict.witness)}) = {verdict.value}")
    return EXIT_FAIL


def _cmd_torsion(args, doc, out):
    mg = doc.build_marked()
    k = _tr.torsion_order(mg)
    out.result = {"torsion_order": k}
    out.say(str(k))
    return EXIT_PASS


def _cmd_kgt(args, doc, out):
    mg = doc.build_marked()
    cert = _tr.kgt_check(mg, exhaustive=args.exhaustive)
    out.certificate = cert
    out.result = {"verdict": cert.verdict}
    if cert.passed:
        out.say(f"PASS: general transmission at torsion order {cert.torsion} "
                f"(max inversions {cert.max_inversions} <= genus {cert.genus})")
        return EXIT_PASS
    if cert.nonsubmodular_witness is not None:
        out.say(f"FAIL: non-submodular divisor {_divisor_str(cert.nonsubmodular_witness)}")
    else:
        out.say(f"FAIL: max inversions {cert.max_inversions} > genus {cert.genus} "
                f"(witness {_divisor_str(cert.extremal)})")
    return EXIT_FAIL


def _cmd_bn(args, doc, out):
    g = doc.build_graph()
    if args.marked:
        cert = _certify.bn_general_marked(g, args.marked)
    else:
        cert = _certify.bn_general_unmarked(g)
    out.certificate = cert
    out.result = {"verdict": cert.verdict}
    out.say(cert.verdict)
    if cert.verdict == _certify.NOT_GENERAL:
        ev = cert.evidence
        if "partition" in ev:
            out.say(f"witness {_divisor_str(ev['witness'])} has partition size "
                    f"{ev['size']} > genus {ev['genus']}")
        else:
            out.say(f"witness (d={ev['d']}, r={ev['r']}) with rho = {ev['rho']}: "
                    f"{_divisor_str(ev['witness'])}")
        return EXIT_FAIL
    return EXIT_PASS


def _cmd_census(args, doc, out):
    g = doc.build_graph()
    entries = _certify.divisor_census(g)
    out.result = {"genus": g.genus, "entries": entries}
    out.say(f"genus {g.genus}")
    for e in entries:
        out.say(f"d={e.d} r={e.r} rho={e.rho} witness={_divisor_str(e.witness)}")
    return EXIT_PASS


def _cmd_certify_chain(args, doc, out):
    comps = doc.build_chain()
    cert = _certify.chain_certify(comps)
    out.certificate = cert
    out.result = {"verdict": cert.verdict}
    out.say(cert.verdict)
    for comp in cert.evidence["components"]:
        out.say(f"component {comp['index']}: genus {comp['genus']} "
                f"torsion {comp['torsion']} kgt {comp['kgt']}")
    return EXIT_PASS if cert.verdict == _certify.CERTIFIED_GENERAL else EXIT_ERROR


def _cmd_classify(args, doc, out):
    mg = doc.build_marked()
    g = mg.graph
    if g.genus == 2:
        cert = _certify.classify_genus2(mg)
    elif _certify.banana_strands(g) is not None and g.genus >= 3:
        cert = _certify.classify_banana(mg)
    else:
        raise ChipfireError("no classification applies to this graph shape")
    out.certificate = cert
    out.result = {"verdict": cert.verdict, "case": cert.evidence.get("case")}
    out.say(f"{cert.verdict} (case {cert.evidence.get('case')})")
    return EXIT_PASS if cert.passed else EXIT_FAIL


def _witness_claim(path: str, resolve) -> tuple | None:
    """The witness a certificate file claims, decoded before anything is
    recomputed: (kind, witness, values...), or None when it carries none."""

    def as_divisor(data) -> Divisor:
        return Divisor({resolve(k): operator.index(v) for k, v in data.items()})

    try:
        cert = json.loads(_read_file(path))
        command = cert.get("command")
        result = cert.get("result") or {}
        certificate = cert.get("certificate") or {}
        ev = certificate.get("evidence") or {}
        if command in ("submodular", "tau") and result.get("witness"):
            return "delta", as_divisor(result["witness"])
        if command == "kgt" and certificate.get("verdict") == "FAIL":
            if certificate.get("nonsubmodular_witness"):
                return "delta", as_divisor(certificate["nonsubmodular_witness"])
            if certificate.get("extremal_divisor"):
                return "inversions", as_divisor(certificate["extremal_divisor"])
        if command == "bn" and certificate.get("verdict") == _certify.NOT_GENERAL:
            witness = as_divisor(ev["witness"])
            if "partition" in ev:
                return "partition", witness, resolve(ev["mark"])
            return "rank", witness, operator.index(ev["r"]), operator.index(ev["d"])
        if command == "classify":
            if ev.get("witness"):
                return "delta", as_divisor(ev["witness"])
            if ev.get("witness_divisor"):
                return "inversions", as_divisor(ev["witness_divisor"])
            if ev.get("witness_steps"):
                return ("steps", resolve(ev["witness_vertex"]),
                        [operator.index(n) for n in ev["witness_steps"]])
        return None
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise ChipfireError(f"malformed certificate {path}: "
                            f"{type(err).__name__}: {err}") from None


def _cmd_verify_witness(args, doc, out):
    if doc.graph is None:
        raise ChipfireError("chain certificates carry no refutation witness")
    original = doc.build_graph()
    graph = _strip_fast_paths(original)
    genus = graph.genus
    claim = _witness_claim(args.certificate, original.resolve)
    if claim is None:
        raise ChipfireError("certificate carries no witness to verify")
    kind, witness, *rest = claim
    if kind in ("delta", "inversions", "steps"):
        mg = MarkedGraph(graph, original.resolve(doc.mark_u), original.resolve(doc.mark_v))
    if kind == "delta":
        val = _tr.delta(mg, witness)
        out.say(f"recomputed delta({_divisor_str(witness)}) = {val}")
        ok = val < 0
    elif kind == "inversions":
        inv = inv_k(_tr.transmission_permutation(mg, witness))
        out.say(f"recomputed inversions {inv} vs genus {genus}")
        ok = inv > genus
    elif kind == "partition":
        lam = _tr.weierstrass_partition(graph, rest[0], witness)
        out.say(f"recomputed partition size {lam.size} vs genus {genus}")
        ok = lam.size > genus
    elif kind == "rank":
        r = rank(graph, witness)
        bad = _certify.rho(genus, *rest)
        out.say(f"recomputed rank {r} >= {rest[0]}, rho = {bad}")
        ok = r >= rest[0] and bad < 0 and witness.degree == rest[1]
    else:
        # a recurrence is two steps 0 < n1 < n2 < k, k the order of [u - v];
        # steps outside that range are refused before anything is ranked
        steps = rest[0]
        ok = len(steps) == 2 and 0 < steps[0] < steps[1] < _tr.torsion_order(mg)
        d0 = Divisor.at(mg.u) - Divisor.at(mg.v)
        for n in steps if ok else ():
            r = rank(graph, n * d0 + Divisor.at(witness))
            ok = ok and r >= 0
            out.say(f"recomputed rank({n}(u-v) + {witness}) = {r}")
    out.result = {"valid": bool(ok)}
    out.say("witness valid" if ok else "witness INVALID")
    return EXIT_PASS if ok else EXIT_FAIL


_COMMANDS = {
    "rank": _cmd_rank,
    "reduce": _cmd_reduce,
    "tau": _cmd_tau,
    "delta": _cmd_delta,
    "submodular": _cmd_submodular,
    "torsion": _cmd_torsion,
    "kgt": _cmd_kgt,
    "bn": _cmd_bn,
    "census": _cmd_census,
    "certify-chain": _cmd_certify_chain,
    "classify": _cmd_classify,
    "verify-witness": _cmd_verify_witness,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first command rather than at
    import, so importing the module stays cheap."""
    parser = argparse.ArgumentParser(
        prog="chipfire",
        description="Exact divisor theory on finite graphs: ranks, reduced "
                    "divisors, transmission permutations, and generality "
                    "certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, divisor=False):
        p.add_argument("file", help="spec file describing the graph")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--timing", action="store_true", help="include elapsed time")
        if divisor:
            p.add_argument("--divisor", help="chips as 'VTX:INT ...' or @file; "
                                             "overrides the file's divisor lines")

    common(sub.add_parser("rank", help="Baker-Norine rank of a divisor"), divisor=True)
    p = sub.add_parser("reduce", help="base-reduced form with firing certificate")
    common(p, divisor=True)
    p.add_argument("--base", help="base vertex (default: lexicographically least)")
    common(sub.add_parser("tau", help="transmission permutation of a divisor"), divisor=True)
    common(sub.add_parser("delta", help="rank second difference over the marks"), divisor=True)
    common(sub.add_parser("submodular", help="check every twist of a divisor"), divisor=True)
    common(sub.add_parser("torsion", help="order of [u - v] in the class group"))
    p = sub.add_parser("kgt", help="certify k-general transmission")
    common(p)
    p.add_argument("--exhaustive", action="store_true",
                   help="keep scanning after a failing orbit")
    p = sub.add_parser("bn", help="Brill-Noether generality certificate")
    common(p)
    p.add_argument("--marked", metavar="VTX", help="certify the once-marked form instead")
    common(sub.add_parser("census", help="per-degree maximal ranks with witnesses"))
    common(sub.add_parser("certify-chain", help="chain criterion for glued graphs"))
    common(sub.add_parser("classify", help="genus-2 or banana classification"))
    p = sub.add_parser("verify-witness", help="re-check an emitted witness from scratch")
    common(p)
    p.add_argument("certificate", help="JSON output previously produced with --json")
    return parser


def run_command(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _read_file(args.file)
        out = _Output(args.command, _digest(text), args.json, args.timing)
        doc = parse_spec(text)
        return out.emit(_COMMANDS[args.command](args, doc, out))
    except ChipfireError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as err:
        # any other exception (resource exhaustion included) is an error,
        # never a failure with a witness
        detail = f": {err}" if str(err) else ""
        print(f"error: {type(err).__name__}{detail}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
