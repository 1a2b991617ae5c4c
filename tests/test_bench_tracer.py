"""The traced benchmark rebinds chipfire names by (module, attribute) path,
so every name it lists must exist; a refactor that drops one would make
``Tracer.install`` fail.  The tracer is loaded from bench/ and not changed."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("chipfire_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    pairs = [pair for places in tracer.TARGETS.values() for pair in places]
    missing = []
    for modname, attr in pairs:
        holder = importlib.import_module(f"chipfire.{modname}")
        for part in attr.split("."):  # "Class.method" names a class attribute
            holder = getattr(holder, part, None)
        if holder is None:
            missing.append(f"chipfire.{modname}.{attr}")
    assert pairs and not missing
