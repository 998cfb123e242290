import itertools
import json
from functools import lru_cache, partial, reduce

import pytest
from hypothesis import given, settings, strategies as st

from freefusion.closure import (
    ABSENT_WITHIN_BOUND,
    AdStep,
    ClosureConfig,
    Generator,
    ProductTerm,
    Saturator,
    Unit,
    certificate_from_json,
    certificate_to_json,
    enumerate_words,
    generate,
    member,
    verify_certificate,
    verify_certificate_detailed,
    witness,
)
from freefusion.normality import AdConfig, Ambient, AmbientView, ad_closure
from freefusion.words import (
    degree,
    format_word,
    involute,
    parse_word,
    shortlex_key,
)

import helpers
from helpers import (
    PairwiseSaturator,
    TwoIndexSaturator,
    balanced_words_up_to,
    bench_oracle as _bench_oracle,
    cut_depth,
    flip_letter,
    memo_terms,
    old_certificate_from_json,
    old_verify_certificate_detailed,
    one_runs,
    recording,
    saturate,
    words_up_to,
    zero_runs,
)


def test_generate_examples():
    c = generate({"01", "10"}, ClosureConfig(work_len=8, report_len=8))
    for w in ("1001", "0110", "100110"):
        assert w in c.members
    assert "0011" not in c.members
    assert "" in c.members
    assert c.generators <= c.members


def test_generate_empty():
    c = generate(set(), ClosureConfig(work_len=6, report_len=6))
    assert c.members == {""}


def test_generate_rejects_long_generator():
    with pytest.raises(ValueError):
        generate({"010101"}, ClosureConfig(work_len=4, report_len=4))


def test_config_validation():
    with pytest.raises(ValueError):
        ClosureConfig(work_len=4, report_len=6)
    with pytest.raises(ValueError):
        ClosureConfig(work_len=4, report_len=-3)
    with pytest.raises(ValueError, match="work_len must be nonnegative"):
        ClosureConfig(work_len=-2, report_len=-3)
    with pytest.raises(ValueError, match="work_len must be nonnegative"):
        ClosureConfig(work_len=-1)


def test_member_answers():
    c = generate({"01", "10"}, ClosureConfig(work_len=12, report_len=6))
    assert member(c, "100110").present
    m = member(c, "0011")
    assert m.status == "absent-certified" and m.reason == "prefix-height"
    m = member(c, "0")
    assert m.status == "absent-certified" and m.reason == "degree"


def test_member_within_bound():
    c = generate({"01", "10"}, ClosureConfig(work_len=2, report_len=2))
    assert c.members == {"", "01", "10"}
    m = member(c, "0101")
    assert m.status == "absent-within-bound"


def test_witness_examples():
    c = generate({"01", "10"}, ClosureConfig(work_len=12, report_len=6))
    assert isinstance(witness(c, ""), Unit)
    cert = witness(c, "1001")
    assert cert.word == "1001"
    assert verify_certificate(cert, c.generators)
    cert = witness(c, "100110")
    assert verify_certificate(cert, c.generators)
    assert witness(c, "0011") is None


def test_every_member_has_verifying_witness():
    c = generate({"01", "0011"}, ClosureConfig(work_len=8, report_len=8))
    for w in c.members:
        cert = witness(c, w)
        assert verify_certificate(cert, c.generators), w


def test_verify_rejects_tampering():
    c = generate({"01", "10"}, ClosureConfig(work_len=8, report_len=8))
    cert = witness(c, "1001")
    assert isinstance(cert, ProductTerm)
    bad = ProductTerm(cert.left, cert.right, "000000")
    ok, why = verify_certificate_detailed(bad, set(c.generators))
    assert not ok and "000000" in why
    assert not verify_certificate(Generator("0011"), c.generators)
    ok, why = verify_certificate_detailed(object(), set())
    assert not ok and why.startswith("root: malformed node ")


def test_verify_ad_step():
    cert = AdStep("10", Generator("01"), "100110")
    assert verify_certificate(cert, {"01", "10"})
    assert not verify_certificate(AdStep("10", Generator("01"), "0110"), {"01", "10"})
    # y * e * involute(y) is never a single simple for nonempty y
    assert not verify_certificate(AdStep("0", Unit(), "01"), {"01"})


def test_dual_step_witness_verifies():
    # Each member's dual is recorded by the dual step, whose certificate
    # refers to the duals of the members the step used.
    closures = [
        generate({"001"}, ClosureConfig(work_len=8, report_len=8)),
        ad_closure({"0011"}, Ambient.full_au(), AdConfig(
            closure=ClosureConfig(work_len=9, report_len=4), ad_len=4)),
        ad_closure({"01"}, Ambient.projective_pu(), AdConfig(
            closure=ClosureConfig(work_len=10, report_len=4), ad_len=4)),
    ]
    steps = {step[0] for c in closures for step in c.provenance.values()}
    assert {"gen", "prod", "ad"} <= steps
    for c in closures:
        for w in sorted(c.members):
            cert = witness(c, involute(w))
            assert cert.word == involute(w)
            assert verify_certificate(cert, c.generators), w


def test_certificate_json_round_trip():
    cert = ProductTerm(Generator("10"), AdStep("10", Generator("01"), "100110"), "1001")
    obj = certificate_to_json(cert)
    assert certificate_from_json(obj) == cert
    with pytest.raises(ValueError):
        certificate_from_json({"kind": "nope"})
    with pytest.raises(TypeError, match="not a certificate node"):
        certificate_to_json(object())


MALFORMED_NODES = [
    [],
    {"kind": "gen"},
    {"kind": "gen", "word": 5},
    {"kind": "prod", "left": {"kind": "unit"}, "term": "e"},
    {"kind": "ad", "conjugator": "0", "inner": "e", "result": "0"},
]


@pytest.mark.parametrize("obj", MALFORMED_NODES)
def test_certificate_from_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        certificate_from_json(obj)


def _replay(parse, verify, obj, gens):
    """(ok, why) of parsing and verifying obj, or the parse error's type
    and message."""
    try:
        cert = parse(obj)
    except ValueError as exc:
        return type(exc), str(exc)
    return verify(cert, gens)


def _corrupted(obj):
    """Copies of a certificate JSON tree with one word field of one node
    replaced, for every node and every field (term, result, gen word,
    conjugator) in turn: by a longer word, the unit, an empty token and
    a token that is not a word."""
    fields = {"gen": ("word",), "prod": ("term",), "ad": ("result", "conjugator")}
    paths = []

    def walk(node, path):
        for key in fields.get(node["kind"], ()):
            paths.append((path, key))
        for child in ("left", "right", "inner"):
            if child in node:
                walk(node[child], path + (child,))

    walk(obj, ())
    for path, key in paths:
        word = reduce(dict.__getitem__, path, obj)[key]
        for bad in ("0" + word.replace("e", ""), "e", "", "0x1"):
            copy = json.loads(json.dumps(obj))
            reduce(dict.__getitem__, path, copy)[key] = bad
            yield copy


def test_replay_matches_old_replay():
    # The parser and verifier, with type dispatch, a shared unit and
    # diagnostics built only on failure, answer every document, valid,
    # corrupted or malformed, with the same (ok, why) or the same error as
    # the code they replaced.
    closures = [
        generate({"01", "10"}, ClosureConfig(work_len=8, report_len=8)),
        generate({"001"}, ClosureConfig(work_len=8, report_len=8)),
        ad_closure({"0011"}, Ambient.full_au(), AdConfig(
            closure=ClosureConfig(work_len=9, report_len=4), ad_len=4)),
        ad_closure({"01"}, Ambient.projective_pu(), AdConfig(
            closure=ClosureConfig(work_len=10, report_len=4), ad_len=4)),
    ]
    cases = [(node, {"01"}) for node in MALFORMED_NODES]
    for c in closures:
        gens = set(c.generators)
        # The shortlex-largest members have the deepest certificates.
        for w in sorted(c.members, key=shortlex_key)[-8:]:
            obj = certificate_to_json(witness(c, w))
            cases.append((obj, gens))
            cases += [(bad, gens) for bad in _corrupted(obj)]
    failures = 0
    for obj, gens in cases:
        new = _replay(certificate_from_json, verify_certificate_detailed, obj, gens)
        old = _replay(old_certificate_from_json, old_verify_certificate_detailed,
                      obj, gens)
        assert new == old, obj
        failures += new[0] is not True
    assert failures > len(cases) // 2


def test_replay_matches_old_replay_at_bench_shape():
    # The replay benchmark's documents, with words of 16 to 40 letters and
    # every 8th one corrupted in one node, get the old replay's (ok, why)
    # and the verdict they were built to get.
    docs, expected = _bench_oracle().synth_documents(1, 100, 8)
    assert expected.count(False) == 12
    for doc, valid in zip(docs, expected):
        gens = {parse_word(g) for g in doc["generators"]}
        obj = doc["certificate"]
        new = _replay(certificate_from_json, verify_certificate_detailed, obj, gens)
        old = _replay(old_certificate_from_json, old_verify_certificate_detailed,
                      obj, gens)
        assert new == old, doc
        assert new[0] is valid, doc


_WORD_KEY = {"gen": "word", "prod": "term", "ad": "result"}


def _node_word(node):
    if node["kind"] == "unit":
        return ""
    return parse_word(node[_WORD_KEY[node["kind"]]])


def _wrong_terms(obj):
    """Copies of a certificate JSON tree with the term w of one product
    node x * y replaced, for every product node in turn: by the word at
    cut K + 1, one past the deepest valid cut, when both factors are that
    long, and by w with its middle letter flipped.  Each has the length of
    a term, so parity alone cannot refuse it."""
    paths = []

    def walk(node, path):
        if node["kind"] == "prod":
            paths.append(path)
        for child in ("left", "right", "inner"):
            if child in node:
                walk(node[child], path + (child,))

    walk(obj, ())
    for path in paths:
        node = reduce(dict.__getitem__, path, obj)
        x, y = _node_word(node["left"]), _node_word(node["right"])
        w = parse_word(node["term"])
        bad = []
        k = cut_depth(x, y) + 1
        if k <= min(len(x), len(y)):
            bad.append(x[:len(x) - k] + y[k:])
        if w:
            bad.append(flip_letter(w, len(w) // 2))
        for word in bad:
            copy = json.loads(json.dumps(obj))
            reduce(dict.__getitem__, path, copy)["term"] = format_word(word)
            yield copy


def test_replay_refuses_terms_of_the_right_length(monkeypatch):
    # A product term replaced by a word of a term's length, at an invalid
    # cut or one letter off, is refused by the one-cut check with the old
    # replay's (ok, why): in the closures of test_replay_matches_old_replay
    # and in the replay benchmark's documents.  The old replay asks for the
    # same products in every copy of a document, so its brute-force
    # product is memoised here.
    monkeypatch.setattr(helpers, "brute_force_product",
                        lru_cache(maxsize=None)(helpers.brute_force_product))
    closures = [
        generate({"01", "10"}, ClosureConfig(work_len=8, report_len=8)),
        generate({"001"}, ClosureConfig(work_len=8, report_len=8)),
        ad_closure({"0011"}, Ambient.full_au(), AdConfig(
            closure=ClosureConfig(work_len=9, report_len=4), ad_len=4)),
        ad_closure({"01"}, Ambient.projective_pu(), AdConfig(
            closure=ClosureConfig(work_len=10, report_len=4), ad_len=4)),
    ]
    docs = [
        (certificate_to_json(witness(c, w)), set(c.generators))
        for c in closures
        for w in sorted(c.members, key=shortlex_key)[-8:]
    ]
    docs += [
        (doc["certificate"], {parse_word(g) for g in doc["generators"]})
        for doc in _bench_oracle().synth_documents(1, 100, 8)[0]
    ]
    cases = 0
    for obj, gens in docs:
        for bad in _wrong_terms(obj):
            new = _replay(certificate_from_json, verify_certificate_detailed,
                          bad, gens)
            old = _replay(old_certificate_from_json,
                          old_verify_certificate_detailed, bad, gens)
            assert new == old, bad
            assert new[0] is False, bad
            cases += 1
    assert cases > 1000


def test_enumerate_words():
    assert enumerate_words("balanced", 2) == ["", "01", "10"]
    assert len(enumerate_words("balanced", 4)) == 9
    assert enumerate_words("all", 1) == ["", "0", "1"]
    with pytest.raises(ValueError):
        enumerate_words("odd", 2)
    with pytest.raises(ValueError, match="max_len"):
        enumerate_words("all", -1)


def _small_generator_sets():
    """Every 1- and 2-generator set of words of length 1-3."""
    pool = [w for w in words_up_to(3) if w]
    return itertools.chain(
        itertools.combinations(pool, 1), itertools.combinations(pool, 2)
    )


@pytest.mark.parametrize("dual", [True, False], ids=["dual", "no-dual"])
def test_new_term_engine_matches_pairwise(dual):
    # The engine that evaluates only the products with a new term derives
    # the same members in the same order, by the same steps, as multiplying
    # every pair.  The pairwise run stops once every word within work_len
    # is a member, which changes neither order nor provenance: no step can
    # add anything then.
    cfg = ClosureConfig(work_len=6, report_len=6, require_dual_closure=dual)
    # au holds every word, all 2**7 - 1 of them within work_len, so its
    # filter rejects nothing and only its full stop acts.
    au = AmbientView(Ambient.full_au(), cfg)
    for gens in _small_generator_sets():
        try:
            old = saturate(partial(PairwiseSaturator, ambient=au), gens, cfg)
        finally:
            memo_terms.cache_clear()
        new = generate(gens, cfg)
        assert list(new.provenance) == old.order, gens
        assert new.provenance == old.provenance, gens


def test_done_only_answers():
    # A run whose targets are met stopped short of its fixpoint, whether or
    # not anything has asked done() yet.
    sat = Saturator(ClosureConfig(4, 2), {"01"}, targets={"01"})
    assert sat.result(False).saturated is False
    assert sat.done()
    assert sat.result(False).saturated is False
    assert sat.result(False).stats["members"] == len(sat.provenance) == 2


def test_a_done_override_stop_is_saturated():
    # The pairwise run stops once its members fill the ambient: a fixpoint,
    # which only its own done() override sees.
    cfg = ClosureConfig(work_len=4, report_len=4)
    au = AmbientView(Ambient.full_au(), cfg)
    try:
        sat = saturate(partial(PairwiseSaturator, ambient=au), {"0"}, cfg)
    finally:
        memo_terms.cache_clear()
    assert len(sat.members) == sat.ambient_size and sat.done()
    assert not Saturator.done(sat)
    result = sat.result(False)
    assert result.saturated is True
    assert result.stats["members"] == sat.ambient_size


def _engine_trace(engine, gens, config):
    """Order, provenance, stats and the _partners list of every step of a
    plain saturation on the given Saturator class."""
    steps = []
    sat = saturate(recording(engine, steps), gens, config)
    return sat.order, sat.provenance, sat.stats, steps


@pytest.mark.parametrize("dual", [True, False], ids=["dual", "no-dual"])
def test_one_index_engine_matches_two_index(dual):
    # Under dual closure the engine files each member once, answers o * m
    # from the same index with m*, and runs no query for a dual step's
    # member; every step must still find the partners that a second index
    # of the members' duals finds.
    cfg = ClosureConfig(work_len=6, report_len=6, require_dual_closure=dual)
    for gens in _small_generator_sets():
        assert (_engine_trace(Saturator, gens, cfg)
                == _engine_trace(TwoIndexSaturator, gens, cfg)), gens
    sat = saturate(Saturator, {"001", "01"}, cfg)
    assert (sat._dual_tails is sat._tails) == dual


@settings(deadline=None, max_examples=60)
@given(
    st.sets(st.text(alphabet="01", min_size=1, max_size=5), max_size=3),
    st.booleans(),
    st.integers(min_value=5, max_value=9),
)
def test_one_index_engine_matches_two_index_random(gens, dual, work_len):
    cfg = ClosureConfig(work_len=work_len, report_len=5,
                        require_dual_closure=dual)
    assert (_engine_trace(Saturator, gens, cfg)
            == _engine_trace(TwoIndexSaturator, gens, cfg))


def test_monotone_in_work_len():
    small = generate({"01", "10"}, ClosureConfig(work_len=6, report_len=6))
    big = generate({"01", "10"}, ClosureConfig(work_len=10, report_len=6))
    assert small.members <= big.members


def test_members_dual_closed():
    c = generate({"0011", "01"}, ClosureConfig(work_len=10, report_len=6))
    assert {involute(w) for w in c.members} == c.members


def test_run_bound_invariant_all_small_generator_sets():
    pool = [w for w in balanced_words_up_to(4) if w]
    for r in range(1, len(pool) + 1):
        for gens in itertools.combinations(pool, r):
            c = generate(set(gens), ClosureConfig(work_len=8, report_len=8))
            zb = max(zero_runs(g)[1] for g in c.generators)
            ob = max(one_runs(g)[1] for g in c.generators)
            for w in c.members:
                assert zero_runs(w)[0] <= zb, (gens, w)
                assert one_runs(w)[0] <= ob, (gens, w)


def test_run_bound_invariant_work_len_12_spot_checks():
    for gens in ({"01"}, {"0011"}, {"01", "0011"}):
        c = generate(gens, ClosureConfig(work_len=12, report_len=6))
        zb = max(zero_runs(g)[1] for g in c.generators)
        ob = max(one_runs(g)[1] for g in c.generators)
        for w in c.members:
            assert zero_runs(w)[0] <= zb
            assert one_runs(w)[0] <= ob


def test_certified_absence_holds_at_every_larger_bound():
    # Certified absence speaks of the infinite closure, so no word that a
    # larger work_len derives may be certified absent at a smaller one.  The
    # leading-run rule that prefix height replaced failed this on 001, whose
    # square has the term 0001, and on the balanced 0010011011.
    # Height only applies to balanced generators, and in the first grid
    # those are 01 and 10, so a grid of balanced words follows.
    pool = [w for w in words_up_to(3) if w]
    cases = [(gens, 3, 7) for r in (1, 2, 3)
             for gens in itertools.combinations(pool, r)]
    pool = [w for w in balanced_words_up_to(4) if w]
    cases += [(gens, 4, 12) for r in (1, 2)
              for gens in itertools.combinations(pool, r)]
    cases.append((("0010011011",), 10, 14))
    for gens, small, large in cases:
        bounded = generate(gens, ClosureConfig(work_len=small, report_len=0))
        for w in generate(gens, ClosureConfig(work_len=large, report_len=0)).members:
            assert member(bounded, w).status != "absent-certified", (gens, w)
    assert member(generate({"001"}, ClosureConfig(work_len=3, report_len=3)),
                  "0001") == ABSENT_WITHIN_BOUND


def test_degree_invariant():
    c = generate({"001", "0011"}, ClosureConfig(work_len=9, report_len=6))
    # generator degrees are 1 and 0, so any integer degree is allowed,
    # but every member degree must be an integer combination reached by
    # products: check the gcd rule on a degree-2 generator set too
    c2 = generate({"0011", "00"}, ClosureConfig(work_len=8, report_len=6))
    for w in c2.members:
        assert degree(w) % 2 == 0


def test_determinism_same_serialization():
    cfg = ClosureConfig(work_len=8, report_len=6)
    a = generate({"0011", "01"}, cfg)
    b = generate({"01", "0011"}, cfg)
    assert a.to_json() == b.to_json()
    # to_json lists members up to report_len only: compare all of them,
    # with their derivation steps in discovery order.
    assert a.members == b.members
    assert list(a.provenance.items()) == list(b.provenance.items())


def test_no_dual_closure_flag():
    cfg = ClosureConfig(work_len=6, report_len=6, require_dual_closure=False)
    c = generate({"001"}, cfg)
    assert "011" not in c.members
    assert c.generators == {"001"}


@settings(deadline=None, max_examples=25)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=3), max_size=3))
def test_soundness_random_generator_sets(gens):
    c = generate(gens, ClosureConfig(work_len=6, report_len=6))
    assert "" in c.members
    assert {involute(w) for w in c.members} == c.members
    for w in c.members:
        assert verify_certificate(witness(c, w), c.generators)
