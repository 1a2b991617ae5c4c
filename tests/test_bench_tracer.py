"""The traced benchmark rebinds chipfire names by (module, attribute) path,
so every name it lists must exist; a refactor that drops one would make
``Tracer.install`` fail.  The tracer is loaded from bench/ and not changed."""

import importlib
import importlib.util
from pathlib import Path

from chipfire import transmission
from chipfire.divisors import Divisor
from chipfire.graphs import Graph

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("chipfire_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    pairs = [pair for places in tracer.TARGETS.values() for pair in places]
    missing = []
    for modname, attr in pairs:
        holder = importlib.import_module(f"chipfire.{modname}")
        for part in attr.split("."):  # "Class.method" names a class attribute
            holder = getattr(holder, part, None)
        if holder is None:
            missing.append(f"chipfire.{modname}.{attr}")
    assert pairs and not missing


def test_vector_rank_is_traced():
    # the class-group engine hands rank a coefficient vector; the call must
    # still go through the name the tracer counts as divisors.rank
    g = Graph("pqrs", [("p", "q"), ("q", "r"), ("r", "s"), ("s", "p")])
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert transmission._class_rank(g, Divisor({"q": 1, "s": 1})) == 1
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert snap["divisors.rank"]["calls"] == 1
