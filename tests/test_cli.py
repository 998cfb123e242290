import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

import freefusion
from freefusion import cli, closure, normality
from freefusion.cli import run
from freefusion.words import format_word, involute, parse_word

from helpers import bench_oracle


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
    _, out, _ = invoke(capsys, "enumerate", "--balanced", "--max-len", "2", "--json")
    assert json.loads(out)["invocation"]["args"] == {"filter": "balanced",
                                                     "max-len": 2}
    for flags in ([], ["--all"]):
        _, out, _ = invoke(capsys, "enumerate", *flags, "--max-len", "2", "--json")
        assert json.loads(out)["invocation"]["args"] == {"filter": "all",
                                                         "max-len": 2}
    assert invoke(capsys, "enumerate", "--all", "--balanced", "--max-len", "2")[0] == 2


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
    assert "0011: absent-certified (prefix-height)" in out


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
    # The sweep schema types every certificate node: an unknown kind fails.
    node = doc["result"]["seeds"][-1]["certificates"][0]["certificate"]
    while node["kind"] in ("prod", "ad"):
        node = node.get("inner") or node["right"]
    node.clear()
    node.update({"kind": "lemma", "word": "01"})
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


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


def test_schema_defs_are_all_referenced(schema):
    refs = set(re.findall(r'"\$ref": "([^"]*)"', json.dumps(schema)))
    assert {f"#/$defs/{name}" for name in schema["$defs"]} <= refs


def test_mul_result_is_typed(capsys, schema):
    doc = json.loads(invoke(capsys, "mul", "10", "01", "--json")[1])
    jsonschema.validate(doc, schema)
    doc["result"]["element"]["1001"] = 0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


@pytest.mark.parametrize(
    "argv, path, bad",
    [
        (["closure", "--gens", "01", "--work-len", "6"],
         ["closure", "member_count"], "3"),
        (["closure", "--gens", "01", "--work-len", "6", "--member", "10"],
         ["membership", "status"], "absent"),
        (["closure", "--gens", "01", "--work-len", "6"], ["ambient"], "au"),
        (["ad-closure", "--seeds", "01", "--work-len", "6", "--ad-len", "2",
          "--witness", "10"], ["witness", "generators"], "01"),
        (["verify-cert", "CERT"], ["valid"], "true"),
    ],
    ids=["closure", "membership", "closure-ambient", "ad-closure", "verify-cert"],
)
def test_closure_and_verify_cert_results_are_typed(tmp_path, capsys, schema,
                                                    argv, path, bad):
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(
        {"generators": ["01"], "certificate": {"kind": "gen", "word": "01"}}
    ))
    argv = [str(cert) if a == "CERT" else a for a in argv]
    doc = json.loads(invoke(capsys, *argv, "--json")[1])
    jsonschema.validate(doc, schema)
    node = doc["result"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = bad
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


@pytest.mark.parametrize(
    "argv, key, bad",
    [
        (["dual", "001"], "dual", 11),
        (["degree", "100110"], "degree", "0"),
        (["enumerate", "--balanced", "--max-len", "2"], "count", "3"),
        (["invertibles", "--max-len", "2"], "invertibles", "e"),
    ],
    ids=["dual", "degree", "enumerate", "invertibles"],
)
def test_word_results_are_typed(capsys, schema, argv, key, bad):
    doc = json.loads(invoke(capsys, *argv, "--json")[1])
    jsonschema.validate(doc, schema)
    doc["result"][key] = bad
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-simple", "--ambient", "pu", "--seed-len", "2", "--work-len",
         "10", "--report-len", "2", "--ad-len", "4"],
        ["closure", "--gens", "01", "--work-len", "8", "--witness", "0101"],
        ["ad-closure", "--seeds", "0011", "--ambient", "pu", "--work-len", "10",
         "--witness", "0101"],
    ],
    ids=lambda argv: argv[0],
)
def test_unverified_certificate_exits_one(capsys, monkeypatch, schema, argv):
    # A certificate that does not replay is a failed check, never a pass.
    monkeypatch.setattr(normality, "verify_certificate_detailed",
                        lambda cert, gens: (False, "root: rejected"))
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    result = doc["result"]
    if "seeds" in result:
        assert result["verdict"] == "fail"
        assert {r["status"] for r in result["seeds"]} == {"fail"}
        entries = [c for r in result["seeds"] for c in r["certificates"]]
    else:
        entries = [result["witness"]]
    assert entries
    for entry in entries:
        assert entry["verified"] is False and entry["error"] == "root: rejected"
    assert invoke(capsys, *argv)[0] == 1


# The bench-scale sweeps of perfbench/run.py and criterion 7's sweep.  A
# change that means to alter report bytes updates these prefixes.  The
# counters are the engine stats that the benchmark fingerprints, summed
# over the sweep's ad_closure calls: (calls, products, members, ad_steps).
# The work done is (Saturator.run calls, witness_entry calls): a seed and
# its dual share one run and one certificate replay, a generated ambient
# saturates its own simple set once more, and a seed outside a saturated
# root runs twice, to 01 and then from the root's fixpoint.
_CHECK_SIMPLE_PU = ["check-simple", "--ambient", "pu", "--seed-len", "6",
                    "--ad-len", "8"]
_CHECK_CIRCLE = ["check-circle", "--seed-len", "5", "--ad-len", "8"]
_AU_CIRCLE = _CHECK_CIRCLE + ["--report-len", "4", "--work-len", "10"]
_SWEEP_PINS = [
    (_CHECK_SIMPLE_PU + ["--report-len", "6", "--work-len", "10"], 3,
     "ea7b4fbe7e49", (28, 528, 1185, 71), (23, 63)),
    (_CHECK_SIMPLE_PU + ["--report-len", "4", "--work-len", "12"], 0,
     "148c1bca7b21", (28, 377, 819, 108), (21, 63)),
    (_AU_CIRCLE, 0, "3f847b053c4e", (62, 572, 2096, 444), (34, 102)),
    (["check-simple", "--ambient", "gen:01,10", "--seed-len", "6",
      "--report-len", "6", "--ad-len", "8", "--work-len", "12"], 0,
     "f3efc108ee38", (14, 100, 266, 40), (12, 33)),
]


def _run_sweep(tmp_path, argv) -> tuple[int, str]:
    """Exit code and report sha256 prefix of one in-process sweep."""
    report = tmp_path / "r.json"
    code = run(argv + ["--report", str(report)])
    return code, hashlib.sha256(report.read_bytes()).hexdigest()[:12]


@pytest.mark.parametrize(
    "argv,code,prefix,counters,work",
    _SWEEP_PINS,
    ids=["pu-fixpoint", "pu-targets", "au-circle", "criterion-7"],
)
def test_sweep_report_bytes_pinned(tmp_path, monkeypatch, argv, code, prefix,
                                   counters, work):
    stats = []
    runs = []
    witnessed = []
    ad_closure = normality.ad_closure
    saturator_run = closure.Saturator.run
    witness_entry = normality.witness_entry

    def counted(*args, **kwargs):
        result = ad_closure(*args, **kwargs)
        stats.append(result.stats)
        return result

    def counted_run(self, *args, **kwargs):
        runs.append(self.generators)
        return saturator_run(self, *args, **kwargs)

    def counted_witness(result, w):
        witnessed.append(w)
        return witness_entry(result, w)

    monkeypatch.setattr(normality, "ad_closure", counted)
    monkeypatch.setattr(closure.Saturator, "run", counted_run)
    monkeypatch.setattr(normality, "witness_entry", counted_witness)
    assert _run_sweep(tmp_path, argv) == (code, prefix)
    assert (len(stats), *(sum(s[k] for s in stats)
                          for k in ("products", "members", "ad_steps"))) == counters
    assert (len(runs), len(witnessed)) == work


def test_sweeps_back_to_back_match_each_alone():
    # ad_closure's memo belongs to one sweep.  These two sweeps share their
    # seeds and targets but not ad_len, and in au some seeds saturate on
    # their own; run in one process, in either order, each prints what it
    # prints alone in a fresh interpreter.
    argv = ["check-simple", "--ambient", "au", "--seed-len", "3",
            "--report-len", "2", "--work-len", "6", "--json", "--ad-len"]
    sweeps = [argv + ["0"], argv + ["2"]]
    alone = []
    for a in sweeps:
        proc = subprocess.run([sys.executable, "-m", "freefusion.cli", *a],
                              capture_output=True, text=True, env=_child_env())
        alone.append((proc.returncode, proc.stdout))
    assert alone[0] != alone[1]
    for order in ([0, 1], [1, 0]):
        for i in order:
            out = io.StringIO()
            with redirect_stdout(out):
                code = run(sweeps[i])
            assert (code, out.getvalue()) == alone[i], sweeps[i]


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["closure", "--gens", "01,10", "--work-len", "8", "--witness", "100110"],
         "e75d9babc359"),
        (["closure", "--gens", "001,0110", "--work-len", "12", "--no-dual-closure",
          "--witness", "0010110"], "cd3ed3ce54f6"),
        (["ad-closure", "--seeds", "0011", "--ambient", "pu", "--work-len", "10",
          "--member", "01", "--witness", "0101"], "62971d78836b"),
    ],
    ids=["closure", "no-dual-closure", "ad-closure"],
)
def test_closure_json_bytes_pinned(capsys, argv, prefix):
    # The closure payload (member cut and count) and the witness document.
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:12] == prefix


@pytest.mark.parametrize(
    "argv,resolved",
    [
        (["closure", "--gens", "01", "--work-len", "4"], {"report-len": 4}),
        (["ad-closure", "--seeds", "01", "--work-len", "6"],
         {"report-len": 6, "ad-len": 6}),
        (["check-simple", "--work-len", "4"],
         {"report-len": 4, "ad-len": 4, "seed-len": 4}),
        (["check-simple", "--work-len", "8"],
         {"report-len": 6, "ad-len": 8, "seed-len": 6}),
    ],
    ids=["closure", "ad-closure", "check-simple", "check-simple-8"],
)
def test_omitted_bounds_fit_work_len(capsys, argv, resolved):
    # An omitted bound is min(default, work_len), echoed as resolved.
    code, out, _ = invoke(capsys, *argv, "--json")
    assert code in (0, 3)
    args = json.loads(out)["invocation"]["args"]
    assert {k: args[k] for k in resolved} == resolved


def test_text_mode_never_renders(capsys, monkeypatch):
    # Without --report or --json the report is neither built nor encoded;
    # the run prints the same lines and exits with the same code.
    argv = ["check-circle", "--seed-len", "2", "--report-len", "4",
            "--ad-len", "4", "--work-len", "8"]
    expected = invoke(capsys, *argv)

    def refuse(*args, **kwargs):
        raise AssertionError("a text-mode run rendered its report")

    monkeypatch.setattr(cli.json, "dumps", refuse)
    monkeypatch.setattr(cli, "_invocation_echo", refuse)
    assert invoke(capsys, *argv) == expected
    assert expected[0] == 0 and "verdict: pass" in expected[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["check-circle", "--seed-len", "5", "--ad-len", "8",
         "--report-len", "4", "--work-len", "10"],
        ["check-simple", "--ambient", "pu", "--seed-len", "4", "--ad-len", "4",
         "--report-len", "4", "--work-len", "8"],
    ],
    ids=["au-circle", "pu"],
)
def test_sweep_report_round_trip(tmp_path, capsys, argv):
    # The report file and --json print the same compact JSON, and every
    # sampled certificate replays through verify-cert from the seed and
    # its dual.
    report = tmp_path / "r.json"
    code = run(argv + ["--report", str(report)])
    assert capsys.readouterr().out
    assert invoke(capsys, *argv, "--json")[:2] == (code, report.read_text())
    data = report.read_bytes()
    doc = json.loads(data)
    assert data == (json.dumps(doc, separators=(",", ":")) + "\n").encode()
    cert = tmp_path / "cert.json"
    replayed = 0
    for record in doc["result"]["seeds"]:
        seed = parse_word(record["seed"])
        gens = sorted({format_word(seed), format_word(involute(seed))})
        for entry in record["certificates"]:
            assert entry["verified"], entry
            cert.write_text(json.dumps(
                {"generators": gens, "certificate": entry["certificate"]}
            ))
            assert invoke(capsys, "verify-cert", str(cert)) == (0, "valid\n", "")
            replayed += 1
    assert replayed >= len(doc["result"]["seeds"])


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
        ["check-circle", "--seed-len", "1", "--threads", "x"],
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
    [["check-simple", "--ambient", "au"], ["check-simple", "--ambient", "pu"],
     ["check-circle"]],
    ids=["au", "pu", "circle"],
)
def test_huge_seed_len_is_refused_at_once(capsys, argv):
    # The seed_len guard is a closed form in seed_len: it neither counts nor
    # lists the ambient's simples up to it.
    code, out, err = invoke(capsys, *argv, "--seed-len", "1000000",
                            "--work-len", "10")
    assert code == 2 and out == ""
    assert err == "error: seed_len 1000000 exceeds work_len 10\n"


def test_huge_seed_len_in_a_generated_ambient(capsys):
    # Every simple of a generated ambient fits within work_len, so no
    # seed_len is refused there: the sweep is the one at seed_len = work_len.
    argv = ["check-simple", "--ambient", "gen:01,10", "--work-len", "6",
            "--report-len", "2", "--ad-len", "2", "--json"]
    huge = invoke(capsys, *argv, "--seed-len", "1000000")
    fits = invoke(capsys, *argv, "--seed-len", "6")
    assert huge[0] == fits[0] == 0
    assert (json.loads(huge[1])["result"]["seeds"]
            == json.loads(fits[1])["result"]["seeds"])


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


@pytest.mark.parametrize("target", ["missing-dir", "directory", "empty"])
def test_unwritable_report_exit_two(tmp_path, capsys, target):
    path = {
        "missing-dir": tmp_path / "missing" / "r.json",
        "directory": tmp_path,
        "empty": "",
    }[target]
    code, out, err = invoke(capsys, "dual", "01", "--report", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # Both cost start-up time on every run; the value types need neither.
    code = ("import sys; before = set(sys.modules); import freefusion.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "freefusion.normality" in added
    assert not added & {"dataclasses", "inspect"}


def test_console_entry_point(capsys, monkeypatch):
    proc = subprocess.run(
        [sys.executable, "-m", "freefusion.cli", "mul", "0", "1"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == '{"e":1,"01":1}'
    # In process, main exits with run's code.
    monkeypatch.setattr(sys, "argv", ["freefusion", "mul", "0", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert capsys.readouterr().out == proc.stdout


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check-simple", "--ambient", "pu", "--seed-len", "6",
         "--report-len", "6", "--ad-len", "8", "--work-len", "10"],
        ["check-simple", "--ambient", "gen:01,10", "--seed-len", "4",
         "--report-len", "4", "--ad-len", "4", "--work-len", "8"],
        ["check-circle", "--seed-len", "3", "--report-len", "4",
         "--ad-len", "4", "--work-len", "8"],
        ["check-simple", "--ambient", "au", "--seed-len", "1",
         "--report-len", "2", "--ad-len", "2", "--work-len", "6"],
        ["check-simple", "--ambient", "au", "--seed-len", "2",
         "--report-len", "0", "--ad-len", "0", "--work-len", "2"],
    ],
    ids=["pu", "gen", "circle", "no-root", "root-never-derived"],
)
def test_one_ad_closure_call_per_seed(tmp_path, monkeypatch, argv):
    # The benchmark times each seed as one normality.ad_closure call, and
    # fails a pass whose call count differs from its seed count.
    calls = []
    ad_closure = normality.ad_closure

    def counted(*args, **kwargs):
        calls.append(args[0])
        return ad_closure(*args, **kwargs)

    monkeypatch.setattr(normality, "ad_closure", counted)
    report = tmp_path / "r.json"
    assert run(argv + ["--report", str(report)]) in (0, 1, 3)
    seeds = json.loads(report.read_text())["result"]["seeds"]
    assert len(calls) == len(seeds)
    assert list(seeds[0]) == ["seed", "status", "end", "missing_certified",
                              "missing_within_bound", "certificates"]


def test_benchmark_sweep_times_one_op_per_seed(tmp_path):
    # The benchmark's untraced au-circle pass times one operation, and
    # fingerprints one stats entry, per seed of the report it checks.
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    out, report = tmp_path / "out.json", tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(child), "--mode", "sweep", "--trace", "0",
         "--t0", "0", "--out", str(out), "--report", str(report),
         "--sweep-argv", *_AU_CIRCLE],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    seeds = json.loads(report.read_text())["result"]["seeds"]
    assert result["exit_code"] == 0 and len(seeds) == 62
    assert len(result["ops_s"]) == len(result["stats"]) == len(seeds)


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

    # After the one-cut check only ad nodes reach mul_simple and mul_many;
    # the replay benchmark's own documents must still record both.
    bench_docs, expected = bench_oracle().synth_documents(1, 100, 8)
    docs.write_text(json.dumps(bench_docs))
    proc = subprocess.run(
        [sys.executable, str(child), "--mode", "replay", "--trace", "1",
         "--t0", "0", "--out", str(out), "--docs", str(docs)],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["verdicts"] == expected


# --------------------------------------------------------------------------
# random invocations, run in process: no input may end in a traceback


# Each invocation is either well formed, with bounds that fit work_len, or
# has one defect: a malformed value, a missing required argument or a
# stray one.  The report paths include a missing directory and a directory.
_GOOD = {
    "word": ["e", "0", "1", "01", "10", "0011", "001", "0110"],
    "words": ["01", "0011", "001", "01,10", "e,0011"],
    "ambient": ["au", "pu", "gen:01,10", "gen:0011"],
    "size": [str(n) for n in range(7)],
    "threads": ["1", "2", "8"],
    "report": ["REPORT", "MISSING-DIR/r.json", "DIR"],
    "file": ["CERT"],
}
_BAD = {
    "word": ["", "x", "0e1", "-1", "01,10"],
    "words": ["", ",", "01,,10", "x"],
    "ambient": ["gen:", "gen:01,,10", "gen:x", "zz", "01"],
    "size": ["-1", "-2", "x"],
    "bound": ["-1", "-2", "x"],
    "seed": ["0", "-1", "x"],
    "threads": ["0", "-1", "x"],
    "report": ["MISSING-DIR/r.json", "DIR"],
    "file": ["MISSING-DIR/c.json", "DIR"],
}
_BOUND_FLAGS = [("--report-len", "bound", True), ("--ad-len", "bound", True)]
_SWEEP_FLAGS = _BOUND_FLAGS + [("--seed-len", "seed", True),
                               ("--cert-samples", "size", False)]
# (flag, kind, required); flag None is a positional, kind None a switch.
_FLAGS = {
    "mul": [(None, "word", True), (None, "word", False), (None, "word", False)],
    "dual": [(None, "word", True)],
    "degree": [(None, "word", True)],
    "enumerate": [("--all", None, False), ("--balanced", None, False),
                  ("--max-len", "size", True)],
    "closure": [("--gens", "words", True), ("--member", "word", False),
                ("--witness", "word", False), ("--no-dual-closure", None, False),
                ("--report-len", "bound", True)],
    "ad-closure": [("--seeds", "words", True), ("--ambient", "ambient", False),
                   ("--member", "word", False), ("--witness", "word", False),
                   *_BOUND_FLAGS],
    "check-simple": [("--ambient", "ambient", False), *_SWEEP_FLAGS],
    "check-circle": _SWEEP_FLAGS,
    "invertibles": [("--max-len", "size", True)],
    "verify-cert": [(None, "file", True)],
}
_OUTPUT_FLAGS = [("--json", None, False), ("--timing", None, False),
                 ("--threads", "threads", False), ("--report", "report", False)]


@st.composite
def _argvs(draw):
    sub = draw(st.sampled_from(sorted(_FLAGS)))
    # The default work_len of 12 runs acceptance-scale work; keep it small.
    work_len = draw(st.integers(2, 6))
    groups = []
    for flag, kind, required in _FLAGS[sub] + _OUTPUT_FLAGS:
        if not (required or draw(st.booleans())):
            continue
        if kind in ("bound", "seed"):
            value = str(draw(st.integers(kind == "seed", work_len)))
        elif kind is not None:
            value = draw(st.sampled_from(_GOOD[kind]))
        groups.append((kind, [a for a in (flag, value if kind else None) if a]))
    if sub in ("closure", "ad-closure", "check-simple", "check-circle"):
        groups.append(("bound", ["--work-len", str(work_len)]))
    defect = draw(st.sampled_from(["none", "value", "drop", "stray"]))
    if defect == "stray":
        groups.append((None, [draw(st.sampled_from(["--bogus", "extra"]))]))
    elif defect != "none" and groups:
        i = draw(st.integers(0, len(groups) - 1))
        kind, tokens = groups[i]
        if defect == "drop" and tokens[0] != "--work-len":
            del groups[i]
        elif kind is not None:
            groups[i] = (kind, tokens[:-1] + [draw(st.sampled_from(_BAD[kind]))])
    return [sub] + [a for _, tokens in draw(st.permutations(groups)) for a in tokens]


_SCALARS = st.none() | st.booleans() | st.integers(-2, 2) | st.sampled_from(
    _GOOD["word"] + _BAD["word"]
)
_NODE_KEYS = st.sampled_from(
    ["kind", "word", "left", "right", "term", "inner", "conjugator", "result"]
)
_CERTS = st.recursive(
    st.just({"kind": "unit"})
    | st.builds(lambda w: {"kind": "gen", "word": w}, _SCALARS)
    | st.fixed_dictionaries({"kind": st.sampled_from(["unit", "gen", "prod", "ad", "x"])})
    | _SCALARS,
    lambda nodes: st.builds(
        lambda left, right, term: {"kind": "prod", "left": left, "right": right,
                                   "term": term},
        nodes, nodes, _SCALARS,
    )
    | st.builds(
        lambda y, inner, result: {"kind": "ad", "conjugator": y, "inner": inner,
                                  "result": result},
        _SCALARS, nodes, _SCALARS,
    )
    | st.dictionaries(_NODE_KEYS, nodes, max_size=3)
    | st.lists(nodes, max_size=2),
    max_leaves=6,
)
_AD = {"kind": "ad", "conjugator": "10", "inner": {"kind": "gen", "word": "01"},
       "result": "100110"}
_DOCUMENTS = (
    st.sampled_from([
        {"generators": ["01", "10"], "certificate": cert}
        for cert in ({"kind": "prod", "left": {"kind": "gen", "word": "10"},
                      "right": _AD, "term": "0110"},
                     _AD, {**_AD, "result": "0110"}, {"kind": "unit"})
    ]).map(json.dumps)
    | st.fixed_dictionaries({}, optional={
        "generators": st.lists(_SCALARS, max_size=3) | _SCALARS,
        "certificate": _CERTS,
    }).map(json.dumps)
    | _CERTS.map(json.dumps)
    | st.sampled_from(["", "{", "[1,", "nul", '{"certificate": }'])
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=20)
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "DIR").mkdir()
    return path


@settings(max_examples=200, deadline=None)
@given(argv=_argvs(), document=_DOCUMENTS)
@example(argv=["dual", "01", "--report", "MISSING-DIR/r.json"], document="")
@example(argv=["dual", "01", "--report", "DIR"], document="")
def test_random_invocations_never_escape(fuzz_dir, argv, document):
    (fuzz_dir / "CERT").write_text(document, encoding="utf-8")
    argv = [str(fuzz_dir / a) if a.split("/")[0] in ("CERT", "REPORT", "DIR",
            "MISSING-DIR") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv
