"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 is pinned at its stated bounds and is expected to be
red; see its docstring and test_criterion_6_supplement_sufficient_bounds
for the analysis and the passing configuration.
"""

import json
import time

from freefusion.closure import ClosureConfig, enumerate_words, generate, member
from freefusion.fusion import dual, mul, mul_many, mul_simple, trivial_multiplicity
from freefusion.normality import AdConfig, Ambient, ad_candidates, check_circle_corollary, check_simplicity, find_invertibles
from freefusion.words import degree, involute
from freefusion.cli import run as cli_run

from helpers import balanced_words_up_to, brute_force_product, search_valid_cuts, words_up_to


def _verdict(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} {detail}".rstrip())
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_fusion_oracle_equivalence():
    t0 = time.perf_counter()
    ws = words_up_to(6)
    pairs = 0
    for x in ws:
        for y in ws:
            assert mul_simple(x, y) == brute_force_product(x, y), (x, y)
            pairs += 1
    dt = time.perf_counter() - t0
    _verdict(1, pairs == 16129 and dt < 10, f"{pairs} pairs in {dt:.1f}s")


def test_criterion_2_associativity():
    t0 = time.perf_counter()
    ws = words_up_to(4)
    for x in ws:
        rx = {x: 1}
        for y in ws:
            rxy = mul(rx, {y: 1})
            for z in ws:
                assert mul(rxy, {z: 1}) == mul(rx, mul({y: 1}, {z: 1})), (x, y, z)
    dt = time.perf_counter() - t0
    _verdict(2, dt < 30, f"{len(ws)**3} triples in {dt:.1f}s")


def test_criterion_3_structural_laws():
    ws = words_up_to(6)
    for x in ws:
        dx = degree(x)
        ix = involute(x)
        for y in ws:
            p = mul_simple(x, y)
            assert set(p.values()) <= {1}, (x, y)  # multiplicity-free
            cuts = search_valid_cuts(x, y)
            assert cuts == list(range(len(cuts))), (x, y)  # interval
            lengths = sorted(len(t) for t in p)
            assert lengths == sorted(
                len(x) + len(y) - 2 * k for k in cuts
            ), (x, y)
            dy = degree(y)
            assert all(degree(t) == dx + dy for t in p), (x, y)
            assert trivial_multiplicity(p) == (1 if y == ix else 0), (x, y)
            assert dual(p) == mul_simple(involute(y), ix), (x, y)
    _verdict(3, True, "laws exact on all pairs up to length 6")


def test_criterion_4_triple_product_identity():
    got = mul_many([{"10": 1}, {"01": 1}, {"10": 1}])
    _verdict(4, got == {"100110": 1}, f"10*01*10 = {got}")


def test_criterion_5_balanced_counts():
    t0 = time.perf_counter()
    words = enumerate_words("balanced", 14)
    counts = [sum(1 for w in words if len(w) == 2 * n) for n in range(1, 8)]
    dt = time.perf_counter() - t0
    ok = counts == [2, 6, 20, 70, 252, 924, 3432] and dt < 5
    _verdict(5, ok, f"counts {counts} in {dt:.1f}s")


def test_criterion_6_theorem_desk_scale():
    """Theorem check on the balanced ambient at the pinned bounds.

    Expected red: with work_len 12 and conjugators confined to balanced
    ambient simples, any usable conjugation produces the concatenation
    y + x + involute(y) of length |x| + 2|y| <= 12, so |y| <= 5 and every
    usable conjugator has runs of at most two equal symbols.  Exhaustive
    saturation then reaches its fixpoint without ever deriving the
    report-length targets 000111 and 111000, whose shortest derivations
    pass through words of length 14.  work_len 14 suffices; see the
    supplement test below.
    """
    t0 = time.perf_counter()
    cfg = AdConfig(
        closure=ClosureConfig(work_len=12, report_len=6), ad_len=8, seed_len=6
    )
    report = check_simplicity(Ambient.projective_pu(), cfg)
    dt = time.perf_counter() - t0
    sampled = [c for r in report.seeds for c in r.certificates]
    ok = (
        report.passed
        and dt < 600
        and all(c["verified"] for c in sampled)
    )
    _verdict(
        6, ok,
        f"verdict {report.verdict}, {len(report.seeds)} seeds, "
        f"{len(sampled)} certificates, {dt:.1f}s",
    )


def test_criterion_6_supplement_sufficient_bounds():
    """Same check with work_len raised to 14: passes for every seed."""
    t0 = time.perf_counter()
    cfg = AdConfig(
        closure=ClosureConfig(work_len=14, report_len=6), ad_len=8, seed_len=6
    )
    report = check_simplicity(Ambient.projective_pu(), cfg)
    dt = time.perf_counter() - t0
    sampled = [c for r in report.seeds for c in r.certificates]
    ok = (
        report.passed
        and len(report.seeds) == len([w for w in balanced_words_up_to(6) if w])
        and all(c["verified"] for c in sampled)
        and dt < 600
    )
    _verdict(
        "6-supplement", ok,
        f"verdict {report.verdict}, {len(report.seeds)} seeds, {dt:.1f}s",
    )


def test_criterion_7_proposition_desk_scale():
    cfg = AdConfig(
        closure=ClosureConfig(work_len=12, report_len=6), ad_len=8, seed_len=6
    )
    report = check_simplicity(Ambient.generated({"01", "10"}), cfg)
    ambient_closure = generate({"01", "10"}, cfg.closure)
    m = member(ambient_closure, "0011")
    ok = (
        report.passed
        and m.status == "absent-certified"
        and m.reason == "prefix-height"
    )
    _verdict(
        7, ok,
        f"verdict {report.verdict}, 0011 membership {m.status} ({m.reason})",
    )


def test_criterion_8_corollary_desk_scale():
    t0 = time.perf_counter()
    cfg = AdConfig(
        closure=ClosureConfig(work_len=12, report_len=6), ad_len=8, seed_len=5
    )
    report = check_circle_corollary(cfg)
    dt = time.perf_counter() - t0
    expected_seeds = [w for w in words_up_to(5) if w]
    ok = (
        report.passed
        and [r.seed for r in report.seeds] == expected_seeds
        and dt < 600
    )
    _verdict(
        8, ok,
        f"verdict {report.verdict}, {len(report.seeds)} seeds, {dt:.1f}s",
    )


def test_criterion_9_non_finite_generation():
    gens = {w for w in balanced_words_up_to(4) if w}
    c = generate(gens, ClosureConfig(work_len=12, report_len=6))
    m = member(c, "000111")
    ok = m.status == "absent-certified" and m.reason == "prefix-height"
    _verdict(9, ok, f"000111 membership {m.status} ({m.reason})")


def test_criterion_10_invertibles():
    got = find_invertibles(8)
    _verdict(10, got == [""], f"invertibles up to length 8: {got}")


def test_criterion_11_property_f_counterexample():
    plain = generate({"01"}, ClosureConfig(work_len=12, report_len=6))
    cands = ad_candidates("01", Ambient.generated({"01", "10"}), 6)
    outside = sorted(z for _, z in cands if z not in plain.members)
    _verdict(11, bool(outside), f"results outside the plain closure: {outside[:3]}")


def test_criterion_12_thread_determinism(tmp_path):
    invocations = [
        ["check-simple", "--ambient", "pu", "--seed-len", "6",
         "--report-len", "6", "--ad-len", "8", "--work-len", "12"],
        ["check-simple", "--ambient", "gen:01,10", "--seed-len", "6",
         "--report-len", "6", "--ad-len", "8", "--work-len", "12"],
        ["check-circle", "--seed-len", "5", "--report-len", "6",
         "--ad-len", "8", "--work-len", "12"],
    ]
    ok = True
    for i, argv in enumerate(invocations):
        a = tmp_path / f"{i}-t1.json"
        b = tmp_path / f"{i}-t8.json"
        code_a = cli_run(argv + ["--threads", "1", "--report", str(a)])
        code_b = cli_run(argv + ["--threads", "8", "--report", str(b)])
        identical = a.read_bytes() == b.read_bytes()
        ok = ok and identical and code_a == code_b
        json.loads(a.read_text())  # well-formed
    _verdict(12, ok, "byte-identical reports for --threads 1 and 8")
