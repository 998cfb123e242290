"""The CLI equivalence grid: every invocation of it, run in process through
`freefusion.cli.run`, printed as one line each so that two trees' runs diff.

    PYTHONPATH=<tree>/src python tests/cli_grid.py DIR > grid.txt

Certificate and report files go to fixed paths under DIR, so two trees run
with the same DIR print the same bytes wherever their CLIs agree.  A line is
the argv (JSON), the exit code, and the sha-256 of stdout and of stderr; a
run with --report adds the sha-256 of its report file.  The last line is the
count.  pytest does not collect this file: its name has no test_ prefix.
"""

from __future__ import annotations

import hashlib
import io
import json
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


def families(directory: Path) -> dict[str, list[list[str]]]:
    return {"json": [a + ["--json"] for a in sweeps() + others()],
            "text": sweeps(), "rendering": rendering(directory)}


def write_documents(directory: Path) -> None:
    for name, doc in _DOCUMENTS.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def _sha(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def line(argv: list[str]) -> str:
    """argv run in process, as one line of the grid's output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    fields = [json.dumps(argv), str(code), _sha(out.getvalue()), _sha(err.getvalue())]
    if "--report" in argv:
        fields.append(_sha(Path(argv[argv.index("--report") + 1]).read_bytes()))
    return " ".join(fields)


def main(args: list[str]) -> None:
    if len(args) != 1:
        sys.exit("usage: cli_grid.py DIR")
    directory = Path(args[0])
    directory.mkdir(parents=True, exist_ok=True)
    write_documents(directory)
    argvs = [argv for family in families(directory).values() for argv in family]
    for argv in argvs:
        print(line(argv), flush=True)
    print(len(argvs))


if __name__ == "__main__":
    main(sys.argv[1:])
