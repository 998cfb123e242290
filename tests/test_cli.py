import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import freefusion
from freefusion.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("freefusion") / "schemas" / "report.schema.json"
    ).read_text()
    return json.loads(text)


def test_mul(capsys):
    code, out, _ = invoke(capsys, "mul", "10", "01", "10")
    assert code == 0
    assert out.strip() == '{"100110":1}'


def test_mul_with_unit(capsys):
    code, out, _ = invoke(capsys, "mul", "e", "0110")
    assert code == 0
    assert out.strip() == '{"0110":1}'


def test_dual_and_degree(capsys):
    assert invoke(capsys, "dual", "001")[1].strip() == "011"
    assert invoke(capsys, "degree", "100110")[1].strip() == "0"
    assert invoke(capsys, "degree", "0")[1].strip() == "1"


def test_enumerate(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--balanced", "--max-len", "2")
    assert code == 0
    assert out.split() == ["e", "01", "10"]


def test_usage_errors(capsys):
    assert invoke(capsys, "mul", "01x")[0] == 2
    assert invoke(capsys, "nonsense")[0] == 2
    assert invoke(capsys, "closure", "--gens", "01", "--work-len", "4",
                  "--report-len", "6")[0] == 2
    # An empty token in a word list is an error; the unit is spelled "e".
    assert invoke(capsys, "closure", "--gens", ",")[0] == 2
    assert invoke(capsys, "closure", "--gens", "")[0] == 2
    assert invoke(capsys, "ad-closure", "--seeds", ",", "--member", "01")[0] == 2
    assert invoke(capsys, "check-simple", "--ambient", "gen:01,,10",
                  "--seed-len", "2", "--work-len", "6", "--report-len", "2",
                  "--ad-len", "2")[0] == 2
    assert invoke(capsys, "closure", "--gens", "e", "--work-len", "2",
                  "--report-len", "2")[0] == 0


def test_closure_member(capsys):
    code, out, _ = invoke(
        capsys, "closure", "--gens", "01,10", "--work-len", "12", "--member", "0011"
    )
    assert code == 0
    assert "0011: absent-certified (run-bound)" in out


def test_closure_json_schema(capsys, schema):
    code, out, _ = invoke(
        capsys, "closure", "--gens", "01,10", "--work-len", "8",
        "--member", "100110", "--witness", "100110", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["timing"] is None
    assert doc["result"]["membership"]["status"] == "present"
    assert doc["result"]["witness"]["verified"] is True


def test_ad_closure(capsys):
    code, out, _ = invoke(
        capsys, "ad-closure", "--seeds", "01", "--ambient", "au",
        "--work-len", "8", "--ad-len", "4", "--member", "10",
    )
    assert code == 0
    assert "10: present" in out


def test_check_simple_pass_exit_zero(capsys):
    code, out, _ = invoke(
        capsys, "check-simple", "--ambient", "gen:01,10", "--seed-len", "4",
        "--report-len", "4", "--ad-len", "6", "--work-len", "10",
    )
    assert code == 0
    assert "verdict: pass" in out


def test_check_simple_inconclusive_exit_three(capsys):
    code, out, _ = invoke(
        capsys, "check-simple", "--ambient", "pu", "--seed-len", "2",
        "--report-len", "2", "--ad-len", "2", "--work-len", "4",
    )
    assert code == 3
    assert "verdict: inconclusive" in out


def test_check_simple_fail_exit_one(capsys):
    code, out, _ = invoke(
        capsys, "check-simple", "--ambient", "au", "--seed-len", "2",
        "--report-len", "2", "--ad-len", "4", "--work-len", "8",
    )
    assert code == 1
    assert "verdict: fail" in out


def test_check_circle(capsys, schema):
    code, out, _ = invoke(
        capsys, "check-circle", "--seed-len", "2", "--report-len", "4",
        "--ad-len", "4", "--work-len", "8", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["result"]["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "10", "01"],
        ["dual", "001"],
        ["degree", "0"],
        ["enumerate", "--balanced", "--max-len", "2"],
        ["closure", "--gens", "01", "--work-len", "6", "--member", "0011",
         "--witness", "0101"],
        ["ad-closure", "--seeds", "01", "--ambient", "pu", "--work-len", "6",
         "--ad-len", "2", "--report-len", "2", "--member", "1001",
         "--witness", "1001"],
        ["check-simple", "--ambient", "pu", "--seed-len", "2", "--work-len", "6",
         "--report-len", "2", "--ad-len", "2"],
        ["check-circle", "--seed-len", "1", "--work-len", "6",
         "--report-len", "2", "--ad-len", "2"],
        ["invertibles", "--max-len", "2"],
        ["verify-cert", "CERT"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_subcommand_json_matches_schema(tmp_path, capsys, schema, argv):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(
        {"generators": ["01"], "certificate": {"kind": "gen", "word": "01"}}
    ))
    argv = [str(cert) if a == "CERT" else a for a in argv]
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert doc["invocation"]["subcommand"] == argv[0]


def test_invertibles(capsys):
    code, out, _ = invoke(capsys, "invertibles", "--max-len", "4")
    assert code == 0
    assert out.split() == ["e"]


def test_verify_cert_round_trip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = invoke(
        capsys, "closure", "--gens", "01,10", "--work-len", "8",
        "--witness", "100110", "--json",
    )
    doc = json.loads(out)
    path.write_text(json.dumps(doc["result"]["witness"]))
    code, out, _ = invoke(capsys, "verify-cert", str(path))
    assert code == 0
    assert out.strip() == "valid"

    tampered = json.loads(path.read_text())
    node = tampered["certificate"]
    while node["kind"] != "prod":
        node = node.get("inner") or node["left"]
    node["term"] = "000000"
    path.write_text(json.dumps(tampered))
    code, out, _ = invoke(capsys, "verify-cert", str(path))
    assert code == 1
    assert out.startswith("invalid")


@pytest.mark.parametrize(
    "doc",
    [
        {"certificate": []},
        {"generators": 5, "certificate": {"kind": "unit"}},
        {"generators": ["01"]},
        [],
        {"certificate": {"kind": "prod", "left": {"kind": "unit"}}},
        {"certificate": {"kind": "gen", "word": 5}},
        # Written as text: json.dumps cannot encode this depth either.
        '{"certificate": ' + '{"kind": "ad", "inner": ' * 5000
        + '{"kind": "unit"}' + ', "conjugator": "0", "result": "0"}' * 5000
        + "}",
    ],
    ids=["list-node", "int-generators", "no-certificate", "list-document",
         "missing-node-keys", "int-word", "nested-5000-deep"],
)
def test_verify_cert_malformed_document(tmp_path, capsys, doc):
    path = tmp_path / "cert.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = invoke(capsys, "verify-cert", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check-simple", "--seed-len", "0"],
        ["check-simple", "--seed-len", "-2"],
        ["check-simple", "--seed-len", "2", "--report-len", "-3"],
        ["check-simple", "--seed-len", "2", "--ad-len", "-1"],
        ["check-circle", "--seed-len", "0"],
        ["check-circle", "--seed-len", "1", "--threads", "0"],
        ["check-simple", "--seed-len", "2", "--threads", "-1"],
        ["check-simple", "--seed-len", "2", "--cert-samples", "-1"],
        ["check-circle", "--seed-len", "1", "--cert-samples", "-1"],
        ["check-circle", "--seed-len", "7"],
    ],
)
def test_no_vacuous_sweeps(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--work-len", "6")
    assert code == 2
    assert "verdict" not in out
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--max-len", "-1"], ["invertibles", "--max-len", "-2"]],
    ids=["enumerate", "invertibles"],
)
def test_negative_max_len_exit_two(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_cert_missing_file(capsys, tmp_path):
    assert invoke(capsys, "verify-cert", str(tmp_path / "nope.json"))[0] == 2


def test_report_file_and_thread_determinism(tmp_path, capsys):
    args = [
        "check-circle", "--seed-len", "2", "--report-len", "4",
        "--ad-len", "4", "--work-len", "8",
    ]
    r1 = tmp_path / "a.json"
    r8 = tmp_path / "b.json"
    invoke(capsys, *args, "--threads", "1", "--report", str(r1))
    invoke(capsys, *args, "--threads", "8", "--report", str(r8))
    assert r1.read_bytes() == r8.read_bytes()


def test_timing_opt_in(capsys):
    _, out, _ = invoke(capsys, "degree", "01", "--json", "--timing")
    doc = json.loads(out)
    assert doc["timing"]["seconds"] >= 0


def _child_env():
    # A child process imports the same freefusion as this process,
    # installed or not.
    src = str(Path(freefusion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "freefusion.cli", "mul", "0", "1"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"e":1,"01":1}'


@pytest.mark.parametrize(
    "argv",
    [
        ["check-simple", "--ambient", "pu", "--seed-len", "2"],
        ["check-circle", "--seed-len", "2"],
    ],
    ids=["check-simple", "check-circle"],
)
def test_benchmark_trace_hooks_record(tmp_path, argv):
    # The benchmark's traced pass wraps library functions by module
    # attribute and exits 3 when one of them records nothing; a sweep must
    # keep calling each of them through its module global.
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(child), "--mode", "sweep", "--trace", "1",
         "--t0", "0", "--out", str(out), "--report", str(tmp_path / "r.json"),
         "--sweep-argv", *argv, "--work-len", "6", "--report-len", "2",
         "--ad-len", "2"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["exit_code"] == 0


def test_benchmark_replay_hooks_record(tmp_path):
    # The replayed verifier must call mul_simple and mul_many through the
    # closure module's globals, or the traced replay records nothing.
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    ad = {"kind": "ad", "conjugator": "10",
          "inner": {"kind": "gen", "word": "01"}, "result": "100110"}
    prod = {"kind": "prod", "left": {"kind": "gen", "word": "10"},
            "right": ad, "term": "0110"}
    corrupted = {**ad, "result": "0110"}
    docs = tmp_path / "docs.json"
    docs.write_text(json.dumps([
        {"generators": ["01", "10"], "certificate": cert}
        for cert in (prod, corrupted)
    ]))
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, str(child), "--mode", "replay", "--trace", "1",
         "--t0", "0", "--out", str(out), "--docs", str(docs)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["verdicts"] == [True, False]
