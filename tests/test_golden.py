"""Golden corpus: the ``--json`` output of every command on fixed inputs.

Each case runs ``chipfire <command> <input> --json`` in process and compares
its exit code, stdout and stderr byte for byte with the recording under
``tests/golden/``.  ``verify-witness`` cases check the recorded output of the
command named after the ``@`` in the case name.  To re-record after an
intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from chipfire.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
MANIFEST = GOLDEN / "manifest.json"

COMMANDS = ("rank", "reduce", "tau", "delta", "submodular", "torsion", "kgt",
            "bn", "bn-marked", "census", "certify-chain", "classify")
WITNESS_SOURCES = ("submodular", "tau", "kgt", "bn", "bn-marked", "classify")

# input -> (vertex for bn --marked, labels left out because they are slow)
INPUT_CASES = {
    "fig6.graph": ("L", {"bn", "bn-marked", "census"}),
    "banana3333.graph": ("L", set()),
    "hubs1111.graph": ("L", set()),
    "theta414.graph": ("L", set()),
    "theta333.graph": ("s0.1", set()),
    "cycle31.graph": ("R", set()),
    "k4.graph": ("a", set()),
    "example110.chain": ("L", set()),
    # one input per mark placement that classify tells apart
    "oneoff3222.graph": ("L", set()),
    "kgt2211.graph": ("L", set()),
    "surprise4211.graph": ("L", set()),
    "surprise5211.graph": ("L", set()),
    "bothoffmin4444.graph": ("L", set()),
    "bothoff3322.graph": ("L", set()),
    "samestrand3333.graph": ("L", set()),
    "theta332a.graph": ("L", set()),
    "theta332b.graph": ("L", set()),
    "hubs414.graph": ("L", set()),
    "sameloop34.graph": ("a", set()),
    "equal33.graph": ("a", set()),
    "unequal43.graph": ("a", set()),
    # graph specs that classify must recognise by shape: a banana with
    # parallel hub edges, a theta, a double-edge loop, a theta with a loop
    "bothoff3211.graph": ("h", set()),
    "samestrand332.graph": ("p", set()),
    "doubleloop.graph": ("w", set()),
    "thetaloop.graph": ("h", set()),
    # a banana as a plain graph whose [u - v] generates the class group, so
    # the vector engine finds the largest possible torsion order
    "plain6553.graph": ("h", set()),
}


def _argv(name: str, label: str) -> list[str]:
    marked, _ = INPUT_CASES[name]
    path = str(INPUTS / name)
    if label == "bn-marked":
        return ["bn", path, "--marked", marked, "--json"]
    if label.startswith("verify-witness@"):
        source = GOLDEN / f"{name}.{label.split('@', 1)[1]}.json"
        return ["verify-witness", path, str(source), "--json"]
    return [label, path, "--json"]


def _cases(verify: bool = True) -> list[tuple[str, str]]:
    """Every command on every input, then verify-witness on each recorded
    output of a command that can carry a witness."""
    cases = []
    for name, (_, slow) in INPUT_CASES.items():
        cases += [(name, label) for label in COMMANDS if label not in slow]
        if verify:
            cases += [(name, f"verify-witness@{src}") for src in WITNESS_SOURCES
                      if (GOLDEN / f"{name}.{src}.json").exists()]
    return cases


def _run(name: str, label: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(_argv(name, label))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name,label", _cases(), ids=lambda x: x)
def test_golden_output(name, label):
    manifest = json.loads(MANIFEST.read_text())
    key = f"{name}.{label}"
    got = _run(name, label)
    path = GOLDEN / f"{key}.json"
    assert got["stdout"] == (path.read_text() if path.exists() else "")
    assert {"exit": got["exit"], "stderr": got["stderr"]} == manifest[key]


def _record(name: str, label: str, manifest: dict) -> None:
    key = f"{name}.{label}"
    got = _run(name, label)
    path = GOLDEN / f"{key}.json"
    if got["stdout"]:
        path.write_text(got["stdout"])
    elif path.exists():
        path.unlink()
    manifest[key] = {"exit": got["exit"], "stderr": got["stderr"]}


def _stdout_files() -> set[Path]:
    return set(GOLDEN.glob("*.json")) - {MANIFEST}


def test_golden_files_belong_to_cases():
    manifest = json.loads(MANIFEST.read_text())
    assert {p.name[:-len(".json")] for p in _stdout_files()} <= manifest.keys()


def record() -> None:
    """Record every case afresh and delete stdout files no case wrote."""
    manifest: dict = {}
    for case in _cases(verify=False):
        _record(*case, manifest)
    # verify-witness cases exist only for the sources just recorded
    for case in _cases():
        if ".".join(case) not in manifest:
            _record(*case, manifest)
    for path in _stdout_files():
        if path.name[:-len(".json")] not in manifest:
            path.unlink()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
