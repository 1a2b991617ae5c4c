import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import chipfire
from chipfire.banana import _raw_entries, _reduce_entries
from chipfire.cli import _COMMANDS, _build_parser, run_command
from chipfire.divisors import Divisor
from chipfire.errors import SpecParseError
from chipfire.graphs import Graph, MarkedGraph, build_banana, contract_bridges
from chipfire.specfile import parse_spec

FIG6_TEXT = """\
# genus-9 banana, hub and one-off marks
banana 5 4 4 3 3 3 3 3 3 3
mark u s0.0
mark v s0.4
divisor s0.5:9
"""

THETA414_TEXT = """\
theta 4 1 4
mark u s0.1
mark v s2.1
"""

CYCLE31_TEXT = """\
cycle 3 1
mark u L
mark v R
"""

CHAIN110_TEXT = """\
chain
component cycle 3 1
mark u L
mark v R
component theta 4 1 4
mark u s0.1
mark v s2.1
component cycle 3 2
component theta 5 2 10
mark u s0.2
mark v s2.4
component theta 6 2 3
mark u s0.4
mark v s2.2
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("fig6.graph", FIG6_TEXT), ("theta414.graph", THETA414_TEXT),
                       ("cycle31.graph", CYCLE31_TEXT), ("example110.chain", CHAIN110_TEXT)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


# ---------------------------------------------------------------------------
# parsing


def test_parse_theta_example():
    doc = parse_spec(THETA414_TEXT)
    mg = doc.build_marked()
    assert mg.graph.genus == 2
    assert (mg.u, mg.v) == ("s0.1", "s2.1")


def test_parse_cycle_aliases():
    doc = parse_spec(CYCLE31_TEXT)
    mg = doc.build_marked()
    assert mg.graph.genus == 1
    assert (mg.u, mg.v) == ("s0.0", "s0.3")


def test_parse_fig6():
    doc = parse_spec(FIG6_TEXT)
    g = doc.build_graph()
    assert g.genus == 9
    d = doc.divisor
    assert d.degree == 9 and d["s0.5"] == 9


def test_parse_general_graph():
    doc = parse_spec("graph\nvertex a\nvertex b\nedge a b\nedge a b\n"
                     "mark u a\nmark v b\ndivisor a:2 b:-1\n")
    mg = doc.build_marked()
    assert mg.graph.genus == 1
    assert doc.divisor.degree == 1


def test_parse_round_trip_canonical():
    inputs = sorted((Path(__file__).parent / "golden" / "inputs").iterdir())
    assert inputs
    for path in inputs:
        doc = parse_spec(path.read_text())
        canon = doc.canonical_text()
        assert parse_spec(canon) == doc, path.name
        assert parse_spec(canon).canonical_text() == canon, path.name
    # a chain component with no mark lines is marked at its hubs
    (mg,) = parse_spec("chain\ncomponent theta 2 1 1\n").build_chain()
    assert (mg.u, mg.v) == ("s0.0", "s0.2")


def test_spec_graph_built_once(files, monkeypatch, capsys):
    # the graph validated at parse time is the one the command runs on
    built = []
    init = Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting_init)
    assert run_command(["rank", files["fig6.graph"], "--divisor", "s0.5:9 L:1 L:-1"]) == 0
    assert len(built) == 1
    doc = parse_spec(CHAIN110_TEXT)
    assert len(built) == 1 + len(doc.chain)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(SpecParseError) as err:
        parse_spec("theta 4 1 4\nmark u nowhere\n")
    assert "nowhere" in str(err.value)
    with pytest.raises(SpecParseError) as err:
        parse_spec("theta 4 1\n")
    assert "line 1" in str(err.value)
    with pytest.raises(SpecParseError) as err:
        parse_spec("theta 1 1 1\nmark u L\nmark u R\n")
    assert "line 3" in str(err.value)
    with pytest.raises(SpecParseError):
        parse_spec("")
    with pytest.raises(SpecParseError):
        parse_spec("banana 2 2\nfrobnicate\n")


# ---------------------------------------------------------------------------
# commands and exit codes


def test_cli_torsion_fig6(files, capsys):
    assert run_command(["torsion", files["fig6.graph"]]) == 0
    assert capsys.readouterr().out.strip() == "91"


def test_cli_torsion_long_strands(tmp_path):
    # [u - v] generates the whole class group, of order
    # k = 997*991 + 997*983 + 991*983 = 101 * 29131, so the answer must not
    # cost k reductions or an elimination on the 2,969 vertices; a separate
    # process bounds the wait if it does
    spec = tmp_path / "long.graph"
    spec.write_text("banana 997 991 983\nmark u s0.1\nmark v s1.1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(chipfire.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "chipfire.cli", "torsion", str(spec), "--json", "--timing"],
        capture_output=True, text=True, env=env, timeout=30)
    payload = json.loads(done.stdout)
    k = 2942231
    assert done.returncode == 0 and payload["result"] == {"torsion_order": k}
    assert payload["elapsed_ms"] < 1000
    # pinned independently: k(u - v) reduces to zero, (k/p)(u - v) does not
    g = build_banana([997, 991, 983])
    step = _raw_entries(g.banana, Divisor({"s0.1": 1, "s1.1": -1}))
    assert _reduce_entries(g.banana.lengths, [k * x for x in step]) == (0, 0, 0)
    for p in (101, 29131):
        assert _reduce_entries(g.banana.lengths, [k // p * x for x in step]) != (0, 0, 0)


def test_cli_kgt_exit_codes(files, capsys):
    assert run_command(["kgt", files["fig6.graph"]]) == 1
    out = capsys.readouterr().out
    assert "217" in out and "> genus 9" in out
    assert run_command(["kgt", files["theta414.graph"]]) == 0
    assert run_command(["kgt", files["cycle31.graph"]]) == 0


def test_cli_tau(files, capsys):
    assert run_command(["tau", files["fig6.graph"]]) == 0
    out = capsys.readouterr().out
    assert "modulus 91" in out
    assert "inversions 217" in out


def test_cli_rank_and_divisor_flag(files, capsys):
    assert run_command(["rank", files["theta414.graph"],
                        "--divisor", "L:1 R:1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_divisor_from_file(files, tmp_path, capsys):
    dfile = tmp_path / "d.txt"
    dfile.write_text("L:1\nR:1  # the hub pair\n")
    assert run_command(["rank", files["theta414.graph"],
                        "--divisor", f"@{dfile}"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_reduce(files, capsys):
    assert run_command(["reduce", files["theta414.graph"], "--base", "L",
                        "--divisor", "s2.3:2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("base s0.0")


def test_cli_delta_and_submodular(files, capsys):
    assert run_command(["delta", files["theta414.graph"],
                        "--divisor", "L:1 R:1"]) == 0
    capsys.readouterr()
    assert run_command(["submodular", files["theta414.graph"],
                        "--divisor", "L:1"]) == 0
    capsys.readouterr()
    # same-strand marks with a bad divisor: false-with-witness
    bad = "theta 3 3 3\nmark u s0.1\nmark v s0.2\ndivisor s0.1:2\n"
    p = files["theta414.graph"] + ".bad"
    with open(p, "w") as fh:
        fh.write(bad)
    assert run_command(["submodular", p]) == 1
    assert run_command(["tau", p]) == 1


def test_cli_delta_fig6_huge_twist(tmp_path, capsys):
    # D + 10^7 (u - v) on fig6 (torsion 91) matches D + (10^7 mod 91)(u - v)
    values = []
    for n in (10 ** 7, 10 ** 7 % 91):
        p = tmp_path / f"fig6-{n}.graph"
        p.write_text(FIG6_TEXT.replace("divisor s0.5:9",
                                       f"divisor s0.5:9 s0.0:{n} s0.4:{-n}"))
        assert run_command(["delta", str(p), "--json"]) == 0
        values.append(json.loads(capsys.readouterr().out)["result"])
    assert values[0] == values[1]


def test_cli_rank_banana_huge_twist(tmp_path, capsys):
    # rank of 5*s0.1 + 3*10^6 (u - v) on banana 3 3 3 3 (torsion 6) matches
    # the rank at n mod 6
    results = []
    for n in (3 * 10 ** 6, 3 * 10 ** 6 % 6):
        p = tmp_path / f"b3333-{n}.graph"
        p.write_text(f"banana 3 3 3 3\nmark u s0.0\nmark v s1.2\n"
                     f"divisor s0.1:5 s0.0:{n} s1.2:{-n}\n")
        assert run_command(["rank", str(p), "--json"]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0] == results[1]


def test_cli_bn(files, tmp_path, capsys):
    hyper = tmp_path / "hyper.graph"
    hyper.write_text("banana 1 1 1 1\n")
    assert run_command(["bn", str(hyper)]) == 1
    out = capsys.readouterr().out
    assert "NOT_GENERAL" in out
    small = tmp_path / "c21.graph"
    small.write_text("cycle 2 1\n")
    assert run_command(["bn", str(small)]) == 0
    capsys.readouterr()
    assert run_command(["bn", str(small), "--marked", "R"]) == 0


def test_cli_census(files, tmp_path, capsys):
    p = tmp_path / "b.graph"
    p.write_text("banana 1 1 1 1\n")
    assert run_command(["census", str(p)]) == 0
    out = capsys.readouterr().out
    assert "d=2 r=1 rho=-1" in out


def test_cli_certify_chain(files, capsys):
    assert run_command(["certify-chain", files["example110.chain"]]) == 0
    out = capsys.readouterr().out
    assert "CERTIFIED_GENERAL" in out


def test_cli_certify_chain_inconclusive(tmp_path, capsys):
    p = tmp_path / "weak.chain"
    p.write_text("chain\ncomponent cycle 2 1\ncomponent theta 2 1 2\n"
                 "mark u s0.1\nmark v s2.1\n")
    assert run_command(["certify-chain", str(p)]) == 2
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_cli_classify(files, tmp_path, capsys):
    assert run_command(["classify", files["theta414.graph"]]) == 0
    assert "3c" in capsys.readouterr().out
    p = tmp_path / "b.graph"
    p.write_text("banana 3 3 3 3\nmark u L\nmark v R\n")
    assert run_command(["classify", str(p)]) == 1
    assert "SUBMODULAR_NOT_KGT" in capsys.readouterr().out


def test_cli_error_exit(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("theta 4 1\n")
    assert run_command(["torsion", str(p)]) == 2
    assert run_command(["torsion", str(tmp_path / "missing.graph")]) == 2
    p2 = tmp_path / "degen.graph"
    p2.write_text("theta 2 2 2\nmark u s0.1\nmark v s0.1\n")
    assert run_command(["kgt", str(p2)]) == 2
    # unreadable or malformed input files are errors, reported on one line
    good = tmp_path / "good.graph"
    good.write_text("theta 2 2 2\nmark u s0.1\nmark v s1.1\n")
    (tmp_path / "latin1.graph").write_bytes(b"theta 2 2 2  # caf\xe9\n")
    certificates = {
        "text.json": "not json",
        "list.json": "[]",
        "no-witness.json": json.dumps({"command": "bn", "certificate": {
            "verdict": "NOT_GENERAL", "evidence": {"d": 2, "r": 1}}}),
        "chips.json": json.dumps({"command": "tau", "result": {"witness": {"s0.1": "x"}}}),
        "float.json": json.dumps({"command": "tau", "result": {"witness": {"s0.1": 2.5}}}),
    }
    for name, text in certificates.items():
        (tmp_path / name).write_text(text)
    cases = [["verify-witness", str(good), str(tmp_path / name)]
             for name in ["missing.json", *certificates]]
    cases += [["delta", str(good), "--divisor", "@" + str(tmp_path / "missing.div")],
              ["torsion", str(tmp_path / "latin1.graph")]]
    for argv in cases:
        capsys.readouterr()
        assert run_command(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    # a divisor given on the command line has no line number
    assert run_command(["delta", str(good), "--divisor", "L:x"]) == 2
    assert capsys.readouterr().err == "error: expected an integer, got 'x'\n"


def test_cli_json_schema_and_determinism(files, capsys):
    assert run_command(["kgt", files["theta414.graph"], "--json"]) == 0
    first = capsys.readouterr().out
    assert run_command(["kgt", files["theta414.graph"], "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-deterministic without --timing
    data = json.loads(first)
    assert set(data) == {"command", "input_digest", "result", "certificate"}
    assert data["command"] == "kgt"
    assert data["certificate"]["verdict"] == "PASS"
    assert len(data["input_digest"]) == 64


def test_cli_json_timing_opt_in(files, capsys):
    assert run_command(["torsion", files["theta414.graph"], "--json",
                        "--timing"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "elapsed_ms" in data


def test_cli_text_timing_opt_in(files, capsys):
    assert run_command(["torsion", files["theta414.graph"], "--timing"]) == 0
    assert re.fullmatch(r"elapsed: \d+ ms", capsys.readouterr().out.splitlines()[-1])


def test_cli_rank_plain_banana_genus_700(tmp_path, capsys):
    # 701 strands of length 2 written as a graph spec, so the generic descent
    # runs: one Riemann-Roch step starts it at degree 348, not 1,050, within
    # the recursion limit.  The banana spec reads the closed form.
    mids = [f"m{i:03d}" for i in range(701)]
    plain = tmp_path / "plain701.graph"
    plain.write_text("\n".join(["graph", "vertex L", "vertex R", *(f"vertex {m}" for m in mids),
                                *(f"edge {h} {m}" for m in mids for h in "LR"),
                                "divisor L:1050"]) + "\n")
    banana = tmp_path / "banana701.graph"
    banana.write_text("banana " + " ".join(["2"] * 701) + "\ndivisor L:1050\n")
    for spec in (plain, banana):
        assert run_command(["rank", str(spec)]) == 0
        assert capsys.readouterr() == ("350\n", "")


def test_cli_classify_bridges_names_contract_bridges(tmp_path, capsys):
    edges = [("a", "b"), ("a", "b"), ("b", "m"), ("m", "c"), ("c", "d"), ("c", "d")]
    spec = tmp_path / "bridged.graph"
    spec.write_text("graph\n" + "".join(f"vertex {v}\n" for v in "abmcd")
                    + "".join(f"edge {a} {b}\n" for a, b in edges) + "mark u a\nmark v d\n")
    assert run_command(["classify", str(spec)]) == 2
    assert capsys.readouterr().err == (
        "error: graph has bridges; contract them first with chipfire.contract_bridges, "
        "whose vertex map carries the marks\n")
    # the route the message names: the bridgeless graph, marks carried over
    g, vertex_map = contract_bridges(Graph("abmcd", edges))
    cert = chipfire.classify_genus2(MarkedGraph(g, vertex_map["a"], vertex_map["d"]))
    assert cert.method == "genus2-classification"


def test_cli_class_cap_env(tmp_path, monkeypatch, capsys):
    p = tmp_path / "t.graph"
    p.write_text("theta 3 4 5\nmark u s0.1\nmark v s1.1\n")
    monkeypatch.setenv("CHIPFIRE_CLASS_CAP", "10")
    assert run_command(["kgt", str(p)]) == 2
    err = capsys.readouterr().err
    assert "cap" in err
    # a limit that is not an integer is an error before any work
    monkeypatch.setenv("CHIPFIRE_CLASS_CAP", "abc")
    assert run_command(["kgt", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: CHIPFIRE_CLASS_CAP='abc' is not an integer\n"
    monkeypatch.delenv("CHIPFIRE_CLASS_CAP")
    assert run_command(["kgt", str(p)]) in (0, 1)


def test_cli_parser_built_once(files, capsys):
    argvs = [["torsion", files["theta414.graph"]],
             ["rank", files["fig6.graph"], "--json"],
             ["kgt", files["theta414.graph"]]]
    fresh = []
    for argv in argvs:
        _build_parser.cache_clear()
        fresh.append((run_command(argv), capsys.readouterr()))
    _build_parser.cache_clear()
    reused = []
    for argv in argvs:
        reused.append((run_command(argv), capsys.readouterr()))
    assert _build_parser.cache_info().misses == 1
    assert reused == fresh


def test_cli_threads_flag_rejected(files, capsys):
    # --threads did nothing and was removed; argparse now rejects it
    with pytest.raises(SystemExit) as exc:
        run_command(["torsion", files["theta414.graph"], "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("error", [RecursionError, MemoryError, OverflowError,
                                   ValueError, KeyError, ZeroDivisionError])
def test_cli_resource_errors_exit_2(files, monkeypatch, capsys, error):
    # running out of stack, memory or float range, or any other uncaught
    # exception, is an error, not a failure with a witness
    def boom(args, doc, out):
        raise error("simulated")
    monkeypatch.setitem(_COMMANDS, "torsion", boom)
    assert run_command(["torsion", files["theta414.graph"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # str() of a KeyError quotes its key
    assert captured.err == f"error: {error.__name__}: {error('simulated')}\n"


@pytest.mark.parametrize("command,code,verdict", [
    ("census", 0, None), ("bn", 1, "NOT_GENERAL"), ("classify", 1, "SUBMODULAR_NOT_KGT")])
def test_cli_sweeps_on_twelve_hundred_strands(tmp_path, capsys, command, code, verdict):
    # genus 1,199 and 1,200 classes: enumerating the reduced tuples must not
    # recurse once per strand (that ended in exit 2 with a RecursionError)
    spec = tmp_path / "wide.graph"
    spec.write_text("banana " + " ".join(["1"] * 1200) + "\nmark u L\nmark v R\n")
    assert run_command([command, str(spec), "--json"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    result = json.loads(captured.out)["result"]
    if verdict is None:
        assert len(result["entries"]) == 2 * 1199 - 1
    else:
        assert result["verdict"] == verdict


# ---------------------------------------------------------------------------
# verify-witness round trips


def _emit_json(args, capsys, tmp_path, name):
    code = run_command(args + ["--json"])
    payload = capsys.readouterr().out
    p = tmp_path / name
    p.write_text(payload)
    return code, str(p)


def test_verify_witness_kgt_failure(tmp_path, capsys):
    # a small graph keeps the deliberately generic recomputation fast
    p = tmp_path / "hubs.graph"
    p.write_text("banana 1 1 1 1\nmark u L\nmark v R\n")
    code, cert = _emit_json(["kgt", str(p)], capsys, tmp_path, "kgt.json")
    assert code == 1
    assert run_command(["verify-witness", str(p), cert]) == 0
    assert "witness valid" in capsys.readouterr().out


def test_verify_witness_nonsubmodular(tmp_path, capsys):
    p = tmp_path / "bad.graph"
    p.write_text("theta 3 3 3\nmark u s0.1\nmark v s0.2\ndivisor s0.1:2\n")
    code, cert = _emit_json(["submodular", str(p)], capsys, tmp_path, "sub.json")
    assert code == 1
    assert run_command(["verify-witness", str(p), cert]) == 0


def test_verify_witness_bn(tmp_path, capsys):
    p = tmp_path / "hyper.graph"
    p.write_text("banana 1 1 1 1\n")
    code, cert = _emit_json(["bn", str(p)], capsys, tmp_path, "bn.json")
    assert code == 1
    assert run_command(["verify-witness", str(p), cert]) == 0
    capsys.readouterr()
    code, cert = _emit_json(["bn", str(p), "--marked", "L"], capsys, tmp_path, "bnm.json")
    assert code == 1
    assert run_command(["verify-witness", str(p), cert]) == 0


def test_verify_witness_classify(tmp_path, capsys):
    p = tmp_path / "b.graph"
    p.write_text("banana 3 3 3 3\nmark u s0.1\nmark v s1.1\n")
    code, cert = _emit_json(["classify", str(p)], capsys, tmp_path, "cls.json")
    assert code == 1
    assert run_command(["verify-witness", str(p), cert]) == 0


def test_verify_witness_rejects_a_wrong_degree(tmp_path, capsys):
    # the witness a:2 has rank 0, but at degree 2: no degree -1 divisor has
    # rank 0, so a claim at d = -1 is forged
    p = tmp_path / "tri.graph"
    p.write_text("graph\nvertex a\nvertex b\nvertex c\n"
                 "edge a b\nedge a b\nedge b c\nedge b c\nedge a c\n")
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps({"command": "bn", "certificate": {
        "verdict": "NOT_GENERAL", "evidence": {"d": -1, "r": 0, "witness": {"a": 2}}}}))
    assert run_command(["verify-witness", str(p), str(cert)]) == 1
    assert "witness INVALID" in capsys.readouterr().out


@pytest.mark.parametrize("steps", [[0, 0], [1, 1], [4, 8], [1, 10 ** 12]])
def test_verify_witness_rejects_steps_that_are_no_recurrence(files, tmp_path, capsys, steps):
    # [u - v] has order 4 on theta414, and n(u - v) + v is effective for
    # every n = 0 or 1 mod 4; a recurrence needs 0 < n1 < n2 < 4, and a step
    # past the order is refused without ranking it
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps({"command": "classify", "certificate": {
        "verdict": "NOT_KGT", "evidence": {"witness_vertex": "s2.1",
                                           "witness_steps": steps}}}))
    assert run_command(["verify-witness", files["theta414.graph"], str(cert)]) == 1
    assert "witness INVALID" in capsys.readouterr().out


def test_verify_witness_nothing_to_check(files, tmp_path, capsys):
    code, cert = _emit_json(["kgt", files["theta414.graph"]], capsys, tmp_path, "ok.json")
    assert code == 0
    assert run_command(["verify-witness", files["theta414.graph"], cert]) == 2


@pytest.mark.parametrize("spec,command", [("fig6.graph", "tau"),
                                          ("example110.chain", "certify-chain")])
def test_verify_witness_without_witness_is_an_error(files, tmp_path, capsys, spec, command):
    # a certificate with nothing to re-check is an input error: exit 2, one
    # error line and no stdout, in text and --json mode alike
    _, cert = _emit_json([command, files[spec]], capsys, tmp_path, "cert.json")
    reason = ("chain certificates carry no refutation witness" if command == "certify-chain"
              else "certificate carries no witness to verify")
    for extra in ([], ["--json"]):
        assert run_command(["verify-witness", files[spec], cert] + extra) == 2
        assert capsys.readouterr() == ("", f"error: {reason}\n")


def test_verify_witness_adds_up_aliases_of_one_vertex(tmp_path, capsys):
    # L and s0.0 name one hub, so the certificate names s0.0:2 s0.2:1, whose
    # delta is 1: the claimed non-submodular witness is forged
    p = tmp_path / "b.graph"
    p.write_text("banana 3 3 2\nmark u s0.0\nmark v s0.1\n")
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps({"command": "submodular", "result": {
        "witness": {"s0.2": 1, "L": 1, "s0.0": 1}}}))
    assert run_command(["verify-witness", str(p), str(cert)]) == 1
    out = capsys.readouterr().out
    assert "recomputed delta(s0.0:2 s0.2:1) = 1" in out
    assert "witness INVALID" in out
    assert run_command(["delta", str(p), "--divisor", "s0.0:2 s0.2:1"]) == 0
    assert capsys.readouterr().out == "1\n"


@pytest.mark.parametrize("spec,vertex", [
    ("banana 3 3 2\n", "s0.1"),
    ("graph\nvertex a\nvertex b\nvertex c\n"
     "edge a b\nedge a b\nedge b c\nedge b c\nedge a c\n", "a")], ids=["banana", "graph"])
@pytest.mark.parametrize("claim", ["delta", "inversions", "steps"])
def test_verify_witness_needs_both_marks(tmp_path, capsys, spec, vertex, claim):
    # claims on the marked graph, checked against a spec with no mark lines
    p = tmp_path / "nomark.graph"
    p.write_text(spec)
    cert = {
        "delta": {"command": "submodular", "result": {"witness": {vertex: 1}}},
        "inversions": {"command": "kgt", "certificate": {
            "verdict": "FAIL", "extremal_divisor": {vertex: 1}}},
        "steps": {"command": "classify", "certificate": {"evidence": {
            "witness_vertex": vertex, "witness_steps": [1, 2]}}},
    }[claim]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert run_command(["verify-witness", str(p), str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: this command needs both 'mark u' and 'mark v' lines\n")
