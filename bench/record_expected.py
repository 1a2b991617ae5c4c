"""Record the expected outputs of the default seed, one file per workload.

    python3 bench/record_expected.py [WORKLOAD ...]

Runs each op of the default-seed pass once and stores its exit code and the
``result`` field of its ``--json`` output in ``bench/expected/<workload>.json``.
``run.py`` compares every run of the default seed with these records, so a
change in any result shows up as a failed op.  Re-record only for a change that is meant to
alter outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main(names) -> int:
    (run.BENCH / "expected").mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for workload in names or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="work-", dir=run.OUT) as tmp:
            cli, ops = run.prepare(workload, run.DEFAULT_SEED, Path(tmp))
            records = {}
            for op in ops:
                code, stdout, _ = run.run_op(cli, op)
                if not isinstance(code, int):
                    print(f"error: {op.name} raised {code}", file=sys.stderr)
                    return 1
                records[op.name] = [code, json.loads(stdout)["result"]]
        path = run.BENCH / "expected" / f"{workload}.json"
        path.write_text(json.dumps({"seed": run.DEFAULT_SEED, "ops": records},
                                   sort_keys=True, separators=(",", ":")).replace(
                                       '],"', '],\n"') + "\n")
        print(f"{path}: {len(records)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
