"""Layer timing for the traced run, installed from outside the program.

``install`` rebinds module attributes of chipfire (and two class attributes)
to wrappers.  Each wrapped call records a span (name, start, end, parent span,
op id) in flat arrays, kept in memory until ``write_spans`` runs at the end.
Aggregates per name (calls, inclusive time, self time) and a few
"calls of X while inside Y" counts are kept as the spans are made; self time
is a span's duration minus the durations of its direct child spans.

The wrappers see only the call boundaries that the program already has, so
the program's source is unchanged.  Rebinding reaches every caller because
chipfire's modules look these names up at call time; a name imported with
``from .x import y`` is rebound in the importing module too.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute) pairs to rebind; "Class.method" rebinds a
# class attribute.  Modules are chipfire submodules.
TARGETS = {
    "cli.run_command": [("cli", "run_command")],
    "specfile.parse": [("cli", "parse_spec")],
    "graphs.build": [("graphs", "Graph.__init__")],
    "graphs.jacobian_order": [("graphs", "jacobian_order"), ("transmission", "jacobian_order"),
                              ("certify", "jacobian_order")],
    "divisors.reduce": [("divisors", "_reduce_vec"), ("transmission", "_reduce_vec")],
    "divisors.reduced_key": [("divisors", "_reduced_key"), ("certify", "_reduced_key")],
    "divisors.rank": [("divisors", "rank"), ("transmission", "rank"), ("cli", "rank")],
    "divisors.dhar_reduce": [("cli", "dhar_reduce")],
    "divisors.enumerate_jacobian": [("divisors", "enumerate_jacobian"),
                                    ("transmission", "enumerate_jacobian")],
    "banana.reduce_entries": [("banana", "_reduce_entries")],
    "banana.rank_entries": [("banana", "rank_entries")],
    "banana.is_reduced": [("banana", "BananaTuple.is_reduced")],
    "transmission.delta": [("transmission", "delta"), ("certify", "delta")],
    "transmission.is_submodular_divisor": [("transmission", "is_submodular_divisor")],
    "transmission.tau": [("transmission", "transmission_permutation"),
                         ("certify", "transmission_permutation")],
    "transmission.torsion": [("transmission", "torsion_order"), ("certify", "torsion_order")],
    "transmission.kgt": [("transmission", "kgt_check"), ("certify", "kgt_check")],
    "transmission.orbit_keys": [("transmission", "_orbit_keys")],
    "transmission.class_reps": [("transmission", "_class_reps"), ("certify", "_class_reps")],
    "transmission.all_submodular": [("transmission", "all_submodular"),
                                    ("certify", "all_submodular")],
    "transmission.weierstrass": [("transmission", "weierstrass_partition"),
                                 ("certify", "weierstrass_partition")],
    "perms.inv_k": [("perms", "inv_k"), ("transmission", "inv_k"), ("certify", "inv_k"),
                    ("cli", "inv_k")],
    "perms.sci": [("perms", "sci"), ("cli", "sci")],
    "certify.census": [("certify", "divisor_census")],
    "certify.bn": [("certify", "bn_general_unmarked"), ("certify", "bn_general_marked")],
    "certify.classify": [("certify", "classify_genus2"), ("certify", "classify_banana")],
    "certify.chain": [("certify", "chain_certify")],
}

GENERATORS = {"transmission.class_reps"}

# (inner, outer): count calls of inner made while an outer span is open
NESTED = [
    ("divisors.reduced_key", "divisors.rank"),
    ("banana.rank_entries", "transmission.tau"),
    ("divisors.rank", "transmission.tau"),
    ("banana.is_reduced", "transmission.class_reps"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = list(TARGETS)
        nid = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.op_id = -1
        self.stack: list[list] = []          # [span index, child time]
        self.active = [0] * len(self.names)  # open spans per name
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.yields = [0] * n
        self.nested_by_inner = {nid[i]: [] for i, _ in NESTED}
        for inner, outer in NESTED:
            self.nested_by_inner[nid[inner]].append(nid[outer])
        self.nested = {pair: 0 for pair in NESTED}
        self._nested_keys = {(nid[i], nid[o]): (i, o) for i, o in NESTED}
        self._rank_id = nid["divisors.rank"]
        self.rank_cache_max = 0
        self.classes_enumerated = 0
        self.banana_yields = 0          # class_reps yielded on banana graphs
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append([idx, 0.0])
        self.active[nid] += 1
        for outer in self.nested_by_inner.get(nid, ()):
            if self.active[outer]:
                self.nested[self._nested_keys[(nid, outer)]] += 1
        t = perf_counter()
        self.span_start.append(t)
        return idx

    def _exit(self, nid: int, idx: int) -> None:
        t = perf_counter()
        self.span_end[idx] = t
        dur = t - self.span_start[idx]
        _, child = self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur
        self.active[nid] -= 1
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child

    def _wrap(self, name: str, fn):
        nid = self.names.index(name)
        enter, exit_ = self._enter, self._exit
        after = {"divisors.rank": self._after_rank,
                 "divisors.enumerate_jacobian": self._after_enumerate}.get(name)

        if name in GENERATORS:
            def gen_wrapper(*args, **kwargs):
                on_banana = args[0].banana is not None
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = enter(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            exit_(nid, idx)
                        self.yields[nid] += 1
                        self.banana_yields += on_banana
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(nid, idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _after_rank(self, args, result) -> None:
        if not self.active[self._rank_id]:
            size = sum(len(c) for c in args[0]._rank_caches.values())
            self.rank_cache_max = max(self.rank_cache_max, size)

    def _after_enumerate(self, args, result) -> None:
        self.classes_enumerated += len(result)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import chipfire.cli  # noqa: F401  (loads every submodule)
        for name, places in TARGETS.items():
            for modname, attr in places:
                mod = sys.modules[f"chipfire.{modname}"]
                owner, _, leaf = attr.rpartition(".")
                holder = getattr(mod, owner) if owner else mod
                original = getattr(holder, leaf)
                self._saved.append((holder, leaf, original))
                setattr(holder, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._saved):
            setattr(holder, leaf, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative per-name aggregates and derived counts so far."""
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": self.calls[i], "total_s": self.total[i],
                         "self_s": self.self_time[i], "yields": self.yields[i]}
        out["nested"] = {f"{i}<{o}": c for (i, o), c in self.nested.items()}
        out["rank_cache_max"] = self.rank_cache_max
        out["classes_enumerated"] = self.classes_enumerated
        out["banana_class_reps"] = self.banana_yields
        out["spans"] = len(self.span_start)
        return out

    def write_spans(self, path, first: int = 0, end: int | None = None) -> None:
        """Write spans first..end-1 as gzipped CSV; times are perf_counter seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op\n")
            names = self.names
            for i in range(first, len(self.span_start) if end is None else end):
                fh.write(f"{i},{names[self.span_name[i]]},{self.span_start[i]:.9f},"
                         f"{self.span_end[i]:.9f},{self.span_parent[i]},{self.span_op[i]}\n")
