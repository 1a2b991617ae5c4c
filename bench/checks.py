"""Output checks for benchmark ops.

Each check reads one op's exit code and ``--json`` stdout and compares them
with what the benchmark knows without the engine under test: the torsion
order and group order from ``lattice.py``, the input degree and genus, the
paper's anchor values, Riemann-Roch and Clifford bounds, inversion counts
recomputed from the emitted window, and the firing certificate replayed on
the input.  ``invariant`` projects an output onto the fields that depend only
on the divisor class, for comparing a large-coefficient op with its reference.
"""

from __future__ import annotations

import json

ALLOWED_EXIT = {
    "rank": {0}, "reduce": {0}, "torsion": {0}, "delta": {0}, "census": {0},
    "tau": {0, 1}, "submodular": {0, 1}, "kgt": {0, 1}, "bn": {0, 1},
    "classify": {0, 1}, "verify-witness": {0}, "certify-chain": {0, 2},
}


class CheckError(Exception):
    pass


def _need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def affine_inversions(window) -> int:
    """Inversion classes of the k-affine permutation with this window:
    pairs i < j, 0 <= i < k, with tau(i) > tau(j), where tau(b + m*k) =
    window[b] + m*k.  For each (i, b) the admissible m form an interval."""
    k = len(window)
    total = 0
    for i in range(k):
        for b in range(k):
            lo = (i - b) // k + 1                    # b + m*k > i
            hi = -((window[b] - window[i]) // k) - 1  # window[b] + m*k < window[i]
            if hi >= lo:
                total += hi - lo + 1
    return total


def sign_changing(window) -> int:
    """Pairs u < v with tau(u) > 0 >= tau(v)."""
    k = len(window)

    def tau(n):
        m, b = divmod(n, k)
        return window[b] + m * k
    disp = [w - b for b, w in enumerate(window)]
    span = range(1 - max(disp), 1 - min(disp))
    vals = [(n, tau(n)) for n in span]
    return sum(1 for iu, (u, tu) in enumerate(vals) if tu > 0
               for v, tv in vals[iu + 1:] if tv <= 0)


def _is_affine_window(window) -> bool:
    """Distinct residues mod k, and a shift that is a whole multiple of k."""
    k = len(window)
    return len({w % k for w in window}) == k and (sum(window) - sum(range(k))) % k == 0


def _replay(edges, chips: dict, firings) -> dict:
    out = dict(chips)
    for step in firings:
        inside = set(step["set"])
        for a, b in edges:
            if (a in inside) != (b in inside):
                src, dst = (a, b) if a in inside else (b, a)
                out[src] = out.get(src, 0) - step["count"]
                out[dst] = out.get(dst, 0) + step["count"]
    return {x: c for x, c in out.items() if c}


def check(op, code, stdout: str) -> None:
    """Raise CheckError if the op's outcome is wrong."""
    cmd = op.argv[0]
    _need(code in ALLOWED_EXIT[cmd], f"exit {code} not in {sorted(ALLOWED_EXIT[cmd])}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        raise CheckError("stdout is not one JSON document") from None
    res = doc.get("result") or {}
    cert = doc.get("certificate") or {}
    ex = op.expect
    g = ex.get("genus")
    if "exit" in ex:
        _need(code == ex["exit"], f"exit {code}, expected {ex['exit']}")
    if cmd == "rank":
        r, d = res["rank"], res["degree"]
        _need(d == ex["degree"], "degree")
        _need(r >= -1 and r >= d - g and (d < 0 or r <= d), f"rank {r} out of bounds")
        _need(d >= 0 or r == -1, "negative degree must give rank -1")
        _need(d <= 2 * g - 2 or r == d - g, "Riemann-Roch above 2g-2")
    elif cmd == "reduce":
        out = res["divisor"]
        _need(sum(out.values()) == ex["degree"], "degree")
        _need(all(c >= 0 for x, c in out.items() if x != res["base"]), "negative off base")
        _need(_replay(ex["edges"], ex["chips"], res["firings"]) == out,
              "firing certificate does not replay")
    elif cmd == "torsion":
        _need(res["torsion_order"] == ex["torsion"], "torsion order")
    elif cmd == "delta":
        _need(isinstance(res["delta"], int), "delta")
    elif cmd == "tau":
        if code == 0:
            perm = res["permutation"]
            window = perm["window"]
            _need(perm["modulus"] == ex["torsion"] == len(window), "modulus")
            _need(_is_affine_window(window), "window is not an affine permutation")
            _need(res["inversions"] == affine_inversions(window), "inversion count")
            _need(res["sign_changing_inversions"] == sign_changing(window), "sci count")
            if "inversions" in ex:
                _need(res["inversions"] == ex["inversions"], "anchor inversions")
        else:
            _need(res["submodular"] is False and res["delta"] < 0, "refutation")
    elif cmd == "submodular":
        _need(res["submodular"] is (code == 0), "verdict and exit code")
        _need(code == 0 or (res["delta"] < 0 and res["witness"]), "witness")
    elif cmd == "kgt":
        _need(cert["torsion_order"] == ex["torsion"], "torsion order")
        _need(cert["class_count"] == ex["classes"], "class count")
        _need(cert["genus"] == g, "genus")
        _need((cert["verdict"] == "PASS") is (code == 0), "verdict and exit code")
        if cert["nonsubmodular_witness"] is None:
            _need((cert["max_inversions"] <= g) is (code == 0), "inversions vs genus")
        if "verdict" in ex:
            _need(cert["verdict"] == ex["verdict"], f"verdict {cert['verdict']}")
    elif cmd == "census":
        entries = res["entries"]
        _need([e["d"] for e in entries] == list(range(max(2 * g - 1, 1))), "degrees")
        ranks = [e["r"] for e in entries]
        _need(all(a <= b for a, b in zip(ranks, ranks[1:])), "ranks not monotone")
        _need(all(max(0, e["d"] - g) <= e["r"] <= e["d"] // 2 for e in entries),
              "Riemann-Roch or Clifford bound")
        _need(all(e["rho"] == g - (e["r"] + 1) * (g - e["d"] + e["r"]) for e in entries),
              "rho")
    elif cmd == "bn":
        _need(res["verdict"] == ("CERTIFIED_GENERAL" if code == 0 else "NOT_GENERAL"),
              "verdict and exit code")
    elif cmd == "classify":
        _need(res["verdict"] in ("KGT", "KGT2", "NOT_KGT", "NON_SUBMODULAR",
                                 "SUBMODULAR_NOT_KGT"), "verdict")
        _need((res["verdict"] in ("KGT", "KGT2")) is (code == 0), "verdict and exit code")
    elif cmd == "certify-chain":
        _need(res["verdict"] == ("CERTIFIED_GENERAL" if code == 0 else "INCONCLUSIVE"),
              "verdict and exit code")
        comps = cert["evidence"]["components"]
        _need([[c["genus"], c["torsion"]] for c in comps] == ex["components"],
              "component genus or torsion")
    elif cmd == "verify-witness":
        _need(res["valid"] is True, "witness rejected")


def invariant(op, code, stdout: str):
    """The part of an output that depends only on the divisor class."""
    res = json.loads(stdout).get("result") or {}
    cmd = op.argv[0]
    if cmd == "rank":
        return code, res["rank"]
    if cmd == "delta":
        return code, res["delta"]
    if cmd == "tau":
        return (code, res["permutation"]["window"]) if code == 0 else (code, res["delta"])
    return code, res["submodular"], res["delta"]
