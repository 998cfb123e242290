"""The CLI equivalence grid: every invocation of it, run in process through
`freefusion.cli.run`, printed as one line each so that two trees' runs diff.

    PYTHONPATH=<tree>/src python tests/cli_grid.py DIR > grid.txt

Certificate and report files go to fixed paths under DIR, so two trees run
with the same DIR print the same bytes wherever their CLIs agree.  A line is
the argv (JSON), the exit code, and the sha-256 of stdout and of stderr; a
run with --report adds the sha-256 of the report file it wrote.  The last
line is the count.  pytest does not collect this file: its name has no test_
prefix.

argparse wraps --help to the terminal width, and at 80 columns Python 3.13
wraps the top-level usage line where 3.10-3.12 do not, so main pins COLUMNS
at a width where that line fits whole: the grid's bytes then depend on the
CLI, not on the terminal or the Python version.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

from freefusion.cli import run

_SWEEP_HEADS = [*(["check-simple", "--ambient", a]
                  for a in ("au", "pu", "gen:01,10", "gen:0011", "gen:001,0110")),
                ["check-circle"]]

# Six seeds and the words asked about, for ad-closure in four ambients.
_AD_SEEDS = ["0", "01", "10", "0011", "0110", "111000"]
_AD_QUERIES = [[], ["--member", "0011"], ["--witness", "1001"],
               ["--member", "0101", "--witness", "0110"]]

# A certificate of 0110 = 01 * 10 from {01, 10}, and the same with a wrong term.
_CERT = {"kind": "prod", "left": {"kind": "gen", "word": "01"},
         "right": {"kind": "gen", "word": "10"}, "term": "0110"}
_DOCUMENTS = {
    "valid.json": {"generators": ["01", "10"], "ambient": "pu", "certificate": _CERT},
    "invalid.json": {"generators": ["01", "10"], "certificate": {**_CERT, "term": "0101"}},
}

# Malformed certificate documents, as text: json.dumps cannot write the last.
_MALFORMED = {
    "list.json": "[]",
    "str-generators.json": json.dumps({"generators": "01", "certificate": _CERT}),
    "bogus-ambient.json": json.dumps({"generators": ["01", "10"], "ambient": "xx",
                                      "certificate": _CERT}),
    "deep.json": '{"certificate": ' + '{"kind": "ad", "inner": ' * 5000 + '{"kind": "unit"}'
                 + ', "conjugator": "0", "result": "0"}' * 5000 + "}",
}

# Documents whose replay ends at each verdict path, then malformed nodes.
_G01, _G11 = {"kind": "gen", "word": "01"}, {"kind": "gen", "word": "11"}
_AD = {"kind": "ad", "conjugator": "0", "inner": _G01, "result": "0011"}  # 0 * 01 * 1


def _doc(certificate, generators=("01",), **extra) -> dict:
    return {"generators": list(generators), **extra, "certificate": certificate}


_REPLAYS = {
    "ad.json": _doc(_AD),
    "ad-pu.json": _doc(_AD, ambient="pu"),
    "foreign-generator.json": _doc(_G01, ("0", "01"), ambient="pu"),
    "left-not-a-generator.json": _doc({**_CERT, "left": _G11, "right": _G01, "term": "1101"}),
    "right-not-a-generator.json": _doc({**_CERT, "left": _G01, "right": _G11, "term": "0111"}),
    "inner-not-a-generator.json": _doc({**_AD, "inner": _G11, "result": "0111"}),
    "not-single.json": _doc({**_AD, "conjugator": "1", "result": "1010"}),
    "unit.json": _doc({"kind": "unit"}),
    "kind-zz.json": _doc({"kind": "zz"}),
    "prod-without-right.json": _doc({"kind": "prod", "left": _G01, "term": "0110"}),
    "list-node.json": _doc({**_CERT, "left": []}),
    "word-0x.json": _doc({"kind": "gen", "word": "0x"}),
    "word-5.json": _doc({"kind": "gen", "word": 5}),
}


def _bounds(work_len, seed_len, report_len=None, ad_len=None) -> list[str]:
    named = {"--work-len": work_len, "--seed-len": seed_len,
             "--report-len": report_len, "--ad-len": ad_len}
    return [t for k, v in named.items() if v is not None for t in (k, str(v))]


def sweeps() -> list[list[str]]:
    """check-simple in five ambients and check-circle at every small bound
    (work_len 2-10, seed_len 1-5, report_len 0/2/4 and ad_len 0/2/4/6 each at
    most work_len); then the acceptance sweeps (criteria 6, its supplement, 8
    and 7), the bench's three sweep shapes, and seed_len 7 at work_len 6."""
    out = [head + _bounds(w, s, r, a)
           for head, w, s, r, a in product(_SWEEP_HEADS, range(2, 11), range(1, 6),
                                           (0, 2, 4), (0, 2, 4, 6))
           if r <= w and a <= w]
    au, pu, gen, *_, circle = _SWEEP_HEADS
    for head, w, s, r in [(pu, 12, 6, 6), (pu, 14, 6, 6), (circle, 12, 5, 6),
                          (gen, 12, 6, 6)]:
        out.append(head + _bounds(w, s, r, 8))
    out += bench_sweeps()
    out += [head + _bounds(6, 7) for head in (au, pu)]
    return out


def bench_sweeps() -> list[list[str]]:
    """The bench's three sweep shapes: pu-fixpoint, pu-targets and au-circle."""
    pu, circle = _SWEEP_HEADS[1], _SWEEP_HEADS[-1]
    return [head + _bounds(w, s, r, 8)
            for head, w, s, r in [(pu, 10, 6, 6), (pu, 12, 6, 4), (circle, 10, 5, 4)]]


def others() -> list[list[str]]:
    """ad-closure of six seeds in au, pu and two generated ambients at work_len
    4-10, bare and with --member and --witness; closure with --witness and
    --member, enumerate and invertibles."""
    out = [["ad-closure", "--seeds", seed, "--ambient", ambient, "--work-len", str(w), *q]
           for ambient, seed, w, q in product(("au", "pu", "gen:01,10", "gen:0011"),
                                              _AD_SEEDS, (4, 6, 8, 10), _AD_QUERIES)]
    return out + [
        ["closure", "--gens", "01,10", "--witness", "100110"],
        ["closure", "--gens", "01,10", "--member", "0011"],
        ["closure", "--gens", "0011", "--work-len", "8", "--member", "0101",
         "--witness", "0110"],
        ["enumerate", "--max-len", "4"],
        ["enumerate", "--balanced", "--max-len", "6"],
        ["invertibles", "--max-len", "4"],
    ]


def rendering(directory: Path) -> list[list[str]]:
    """Text-form runs of each call site that renders JSON into a text line,
    of verify-cert on a valid and an invalid document, a closure --report
    run, and the bench's sweep shapes with --report, whose report files
    hold the records a seed and its dual share."""
    return [
        ["mul", "0", "1"],
        ["mul", "01", "10", "0011"],
        ["closure", "--gens", "01,10", "--witness", "100110"],
        ["closure", "--gens", "01,10", "--witness", "0011"],
        ["ad-closure", "--seeds", "0011", "--ambient", "pu", "--witness", "01"],
        ["ad-closure", "--seeds", "01", "--ambient", "au", "--witness", "0"],
        *(["verify-cert", str(directory / name)] for name in _DOCUMENTS),
        ["closure", "--gens", "01,10", "--witness", "1001",
         "--report", str(directory / "report.json")],
        *(argv + ["--report", str(directory / "sweep.json")] for argv in bench_sweeps()),
    ]


def edges(directory: Path) -> list[list[str]]:
    """What the other families never reach: dual and degree; the whole-tree
    parser (no subcommand, an unknown one, --help, --version, a flag before
    the subcommand); argparse usage errors, --threads 0 among them; each
    ClosureConfig and AdConfig refusal; a negative --cert-samples and
    --max-len; an unknown --ambient; malformed verify-cert documents; an
    unwritable --report path; e, 0x and an empty token as words; verify-cert
    documents reaching each replay verdict (a valid ad node and unit, a
    foreign generator or conjugator, a non-generator at each child path, an
    ad product that is not one simple) and each malformed node; and --threads
    2 and x."""
    return [
        ["dual", "0011"], ["degree", "0011"], ["dual", "0011", "--json"],
        ["degree", "0011", "--json"],
        [], ["bogus"], ["--help"], ["--version"], ["--json", "dual", "01"],
        ["mul"], ["closure"], ["dual", "01", "10"], ["check-simple", "--work-len", "x"],
        ["enumerate", "--all", "--balanced", "--max-len", "2"],
        ["check-circle", "--threads", "0"],
        ["closure", "--gens", "01", "--work-len", "-1"],
        ["closure", "--gens", "01", "--work-len", "4", "--report-len", "6"],
        ["closure", "--gens", "01", "--report-len", "-1"],
        ["ad-closure", "--seeds", "01", "--work-len", "4", "--ad-len", "6"],
        ["ad-closure", "--seeds", "01", "--ad-len", "-1"],
        ["check-simple", "--seed-len", "-1"],
        ["check-circle", "--cert-samples", "-1"],
        ["check-simple", "--ambient", "bogus"],
        ["ad-closure", "--seeds", "01", "--ambient", "bogus"],
        ["enumerate", "--max-len", "-1"], ["invertibles", "--max-len", "-1"],
        *(["verify-cert", str(directory / name)] for name in _MALFORMED),
        ["closure", "--gens", "01,10", "--report", str(directory / "absent" / "report.json")],
        ["dual", "e"], ["degree", "e", "--json"], ["mul", "0", "e"],
        ["dual", "0x"], ["mul", "01", "0x"], ["ad-closure", "--seeds", "0x"],
        ["dual", ""], ["closure", "--gens", "01,,10"],
        ["closure", "--gens", "01", "--member", ""],
        *(["verify-cert", str(directory / name)] for name in _REPLAYS),
        ["check-circle", "--threads", "2"], ["check-circle", "--threads", "x"],
    ]


def families(directory: Path) -> dict[str, list[list[str]]]:
    return {"json": [a + ["--json"] for a in sweeps() + others()],
            "text": sweeps(), "edges": edges(directory), "rendering": rendering(directory)}


def write_documents(directory: Path) -> None:
    for name, doc in {**_DOCUMENTS, **_REPLAYS}.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, text in _MALFORMED.items():
        (directory / name).write_text(text, encoding="utf-8")


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def line(argv: list[str]) -> str:
    """argv run in process, as one line of the grid's output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse's --help and --version
            code = exc.code
    fields = [json.dumps(argv), str(code), _sha(out.getvalue()), _sha(err.getvalue())]
    report = Path(argv[argv.index("--report") + 1]) if "--report" in argv else None
    if report is not None and report.is_file():
        fields.append(_sha(report.read_bytes()))
    return " ".join(fields)


def main(args: list[str]) -> None:
    if len(args) != 1:
        sys.exit("usage: cli_grid.py DIR")
    directory = Path(args[0])
    os.environ["COLUMNS"] = "160"  # see the module docstring
    directory.mkdir(parents=True, exist_ok=True)
    write_documents(directory)
    argvs = [argv for family in families(directory).values() for argv in family]
    for argv in argvs:
        print(line(argv), flush=True)
    print(len(argvs))


if __name__ == "__main__":
    main(sys.argv[1:])
