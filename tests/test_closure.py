import itertools
import json
import random
from functools import cache, lru_cache, partial, reduce

import pytest
from hypothesis import given, settings, strategies as st

from freefusion.closure import (
    CLOSED_FORMS,
    ABSENT_WITHIN_BOUND,
    ClosureConfig,
    ClosureResult,
    Saturator,
    certificate_from_json,
    certified_absence,
    enumerate_words,
    generate,
    member,
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
    BARE_STR,
    NOT_A_WORD,
    NOT_WORDS,
    PairwiseSaturator,
    TwoIndexSaturator,
    answer,
    balanced_words_up_to,
    bench_oracle as _bench_oracle,
    cut_depth,
    flip_letter,
    memo_terms,
    old_certificate_from_json,
    old_verify_certificate_detailed,
    one_runs,
    per_node_certificate_from_json,
    per_node_parse_word,
    per_node_verify_certificate_detailed,
    recording,
    refusal,
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


def test_saturation_refuses_generators_that_are_not_words():
    # generate, a Saturator and its fork: "" is the unit, "e" only its text form.
    assert generate([""], ClosureConfig(4, 2)).members == {""}
    base = Saturator(ClosureConfig(4, 2), ["01"])
    base.run()
    for bad in NOT_WORDS:
        for call in (lambda: generate(["01", bad], ClosureConfig(4, 2)),
                     lambda: Saturator(ClosureConfig(4, 2), [bad]),
                     lambda: base.fork([bad], None, {})):
            with pytest.raises(ValueError, match="^.* is not a word: .*unit$"):
                call()


@pytest.mark.parametrize("entry", ["generate", "Saturator", "fork"])
def test_saturation_refuses_a_bare_str(entry):
    # Read letter by letter, "0110" used to generate from {0, 1}.
    cfg = ClosureConfig(4, 2)
    base = Saturator(cfg, ["01"])
    base.run()
    call = {"generate": lambda: generate("0110", cfg),
            "Saturator": lambda: Saturator(cfg, "0110"),
            "fork": lambda: base.fork("0110", None, {})}[entry]
    assert refusal(call) == BARE_STR


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
    assert member(c, "100110").status == "present"
    m = member(c, "0011")
    assert m.status == "absent-certified" and m.reason == "prefix-height"
    m = member(c, "0")
    assert m.status == "absent-certified" and m.reason == "degree"


def test_member_refuses_what_is_not_a_word():
    # "abc" used to be answered absent-certified (degree).
    c = generate({"01", "10"}, ClosureConfig(work_len=4, report_len=2))
    assert member(c, "").status == "present"
    for bad in NOT_WORDS:
        with pytest.raises(ValueError, match="^.* is not a word: .*unit$"):
            member(c, bad)


def test_witness_refuses_what_is_not_a_word():
    # "0x" and "e" used to get None, as non-members, and ["0"] a TypeError.
    c = generate({"01", "10"}, ClosureConfig(work_len=4, report_len=2))
    assert witness(c, "") == UNIT
    for bad in NOT_WORDS:
        assert refusal(lambda: witness(c, bad)) == NOT_A_WORD.format(bad)


def test_saturator_refuses_a_bare_str_of_targets():
    # Read letter by letter, "0110" used to be the targets 0 and 1, which the
    # closure of 01 never derives, so done() never held.
    assert refusal(lambda: Saturator(ClosureConfig(6, 4), ["01"], targets="0110")) == BARE_STR
    sat = Saturator(ClosureConfig(6, 4), ["01"], targets=["0101"])
    sat.run()
    assert sat.done()


def test_certified_absence_refuses_a_bare_str_of_generators():
    # Read letter by letter, "0110" used to be the generators 0 and 1, of degree
    # gcd 1: no absence at all.  "0000" likewise lost the degree absence of 0.
    for gens in ("0110", "0000"):
        call = lambda: certified_absence(gens, "000111", False)
        assert refusal(call) == BARE_STR.replace("0110", gens)
    assert certified_absence({"0110"}, "000111", False) == "prefix-height"
    assert certified_absence({"0000"}, "0", False) == "degree"


def test_witness_refuses_an_unknown_provenance_step():
    # ClosureResult is public and takes any provenance.
    result = ClosureResult(frozenset({"01"}), ClosureConfig(4, 2), True, {},
                           {"": ("unit",), "01": ("bogus",)})
    assert refusal(lambda: witness(result, "01")) == "unknown provenance step ('bogus',)"


def test_member_within_bound():
    c = generate({"01", "10"}, ClosureConfig(work_len=2, report_len=2))
    assert c.members == {"", "01", "10"}
    m = member(c, "0101")
    assert m.status == "absent-within-bound"


UNIT = {"kind": "unit"}


def gen(word):
    return {"kind": "gen", "word": word}


def prod(left, right, term):
    return {"kind": "prod", "left": left, "right": right, "term": term}


def ad(conjugator, inner, result):
    return {"kind": "ad", "conjugator": conjugator, "inner": inner, "result": result}


def test_witness_examples():
    c = generate({"01", "10"}, ClosureConfig(work_len=12, report_len=6))
    assert witness(c, "") == UNIT
    cert = witness(c, "1001")
    assert _node_word(cert) == "1001"
    assert verify_certificate_detailed(cert, c.generators)[0]
    cert = witness(c, "100110")
    assert verify_certificate_detailed(cert, c.generators)[0]
    assert witness(c, "0011") is None


def test_every_member_has_verifying_witness():
    c = generate({"01", "0011"}, ClosureConfig(work_len=8, report_len=8))
    for w in c.members:
        cert = witness(c, w)
        assert verify_certificate_detailed(cert, c.generators)[0], w


def test_verify_rejects_tampering():
    c = generate({"01", "10"}, ClosureConfig(work_len=8, report_len=8))
    cert = witness(c, "1001")
    assert cert["kind"] == "prod"
    bad = {**cert, "term": "000000"}
    ok, why = verify_certificate_detailed(bad, set(c.generators))
    assert not ok and "000000" in why
    assert not verify_certificate_detailed(gen("0011"), c.generators)[0]
    ok, why = verify_certificate_detailed(object(), set())
    assert not ok and why.startswith("root: malformed node ")
    # A node that lacks a key of its kind is malformed at its path.
    assert verify_certificate_detailed({"kind": "prod"}, set()) == (
        False, "root: malformed node {'kind': 'prod'}")
    assert verify_certificate_detailed(ad("10", {"kind": "gen"}, "100110"), {"01"}) == (
        False, "root.inner: malformed node {'kind': 'gen'}")


def test_verify_refuses_a_bare_str_of_generators():
    # As a bare str, "11" in "0110" was a substring test and the gen node 11
    # replayed valid.
    eleven = {"kind": "gen", "word": "11"}
    message = BARE_STR.replace("words", "generators")
    assert refusal(lambda: verify_certificate_detailed(eleven, "0110")) == message
    assert verify_certificate_detailed(eleven, ("0110",)) == (False, "root: 11 is not a generator")
    assert verify_certificate_detailed(gen("0110"), ["0110"])[0]


@pytest.mark.parametrize("word", [None, 7])
def test_verify_calls_a_word_that_is_not_a_string_malformed(word):
    # Read as a word, None would print as e and 7 as 7; the node is malformed.
    for node in [{"kind": "gen", "word": word}, prod(gen("01"), gen("01"), word),
                 ad("10", gen("01"), word)]:
        assert verify_certificate_detailed(node, {"01"}) == (
            False, f"root: malformed node {node!r}")
    node = prod(gen("01"), {"kind": "gen", "word": word}, "01")
    assert verify_certificate_detailed(node, {"01"}) == (
        False, f"root.right: malformed node {node['right']!r}")


@pytest.mark.parametrize("word", [None, []])
def test_verify_calls_a_conjugator_or_term_of_the_wrong_type_malformed(word):
    # An ad node whose conjugator is no string stays malformed even when its
    # result is its inner word, the answer a conjugator of length 0 would
    # give; so does a product whose term is an empty list.
    node = ad(word, gen("01"), "01")
    assert verify_certificate_detailed(node, {"01"}) == (
        False, f"root: malformed node {node!r}")
    node = prod(UNIT, gen("01"), [])
    assert verify_certificate_detailed(node, {"01"}) == (
        False, f"root: malformed node {node!r}")


def test_verify_ad_step():
    cert = ad("10", gen("01"), "100110")
    assert verify_certificate_detailed(cert, {"01", "10"})[0]
    assert not verify_certificate_detailed(ad("10", gen("01"), "0110"), {"01", "10"})[0]
    # y * e * involute(y) is never a single simple for nonempty y
    assert not verify_certificate_detailed(ad("0", UNIT, "01"), {"01"})[0]
    # An ad node derives its result, also as the inner node of another.
    assert verify_certificate_detailed(ad("1", cert, "11001100"), {"01"})[0]


# The proof that criterion 6's bounds rule out: 00 is an au simple, not a pu one.
CONJUGATED_BY_00 = ad("00", gen("01"), "000111")


def test_verify_checks_generators_and_conjugators_against_the_ambient():
    au, pu = (AmbientView(Ambient(kind), ClosureConfig()) for kind in ("au", "pu"))
    assert verify_certificate_detailed(CONJUGATED_BY_00, {"01"}) == (True, None)
    assert verify_certificate_detailed(CONJUGATED_BY_00, {"01"}, ambient=au) == (True, None)
    assert verify_certificate_detailed(CONJUGATED_BY_00, {"01"}, ambient=pu) == (
        False, "root: 00 is not a pu simple")
    # The first offender in replay order, at its path; then the generators, first of all.
    outer = ad("10", CONJUGATED_BY_00, "1000011110")
    assert verify_certificate_detailed(outer, {"01"}, ambient=pu) == (
        False, "root.inner: 00 is not a pu simple")
    assert verify_certificate_detailed(gen("01"), {"0", "01", "1"}, ambient=pu) == (
        False, "generators: 0 is not a pu simple")
    # Generated ambients too.
    view = AmbientView(Ambient("gen", {"01", "10"}), ClosureConfig(work_len=8, report_len=4))
    conjugated_by_0110 = ad("0110", gen("01"), "0110011001")
    assert verify_certificate_detailed(conjugated_by_0110, {"01"}, ambient=view) == (True, None)
    assert verify_certificate_detailed(CONJUGATED_BY_00, {"01"}, ambient=view) == (
        False, "root: 00 is not a gen:01,10 simple")


def test_verify_reads_e_as_the_unit():
    # The text e is the empty word wherever the replay reads a word: a term,
    # a generator, and the word of a unit factor.
    assert verify_certificate_detailed(prod(gen("01"), gen("01"), "e"), {"01"})[0]
    assert verify_certificate_detailed(prod(UNIT, gen("01"), "01"), {"01"})[0]
    assert verify_certificate_detailed(prod(gen("e"), gen("01"), "01"), {"", "01"})[0]


def test_dual_step_witness_verifies():
    # Each member's dual is recorded by the dual step, whose certificate
    # refers to the duals of the members the step used.
    closures = [
        generate({"001"}, ClosureConfig(work_len=8, report_len=8)),
        ad_closure({"0011"}, Ambient("au"), AdConfig(
            closure=ClosureConfig(work_len=9, report_len=4), ad_len=4)),
        ad_closure({"01"}, Ambient("pu"), AdConfig(
            closure=ClosureConfig(work_len=10, report_len=4), ad_len=4)),
    ]
    steps = {step[0] for c in closures for step in c.provenance.values()}
    assert {"gen", "prod", "ad"} <= steps
    for c in closures:
        for w in sorted(c.members):
            cert = witness(c, involute(w))
            assert _node_word(cert) == involute(w)
            assert verify_certificate_detailed(cert, c.generators)[0], w


def test_certificate_json_round_trip():
    # A certificate is its JSON tree: the parser checks it and returns it.
    cert = prod(gen("10"), ad("10", gen("01"), "100110"), "1001")
    obj = json.loads(json.dumps(cert))
    assert certificate_from_json(obj) is obj
    assert obj == cert
    with pytest.raises(ValueError):
        certificate_from_json({"kind": "nope"})


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


FIRST_ERRORS = [
    (gen(""), 'empty word token; the unit is written "e"'),
    (gen("ee"), "invalid word 'ee': only '0' and '1' allowed"),
    (prod(gen("0e1"), gen(None), "ee"), "invalid word '0e1': only '0' and '1' allowed"),
    (prod(gen("01"), gen(None), "012"), "a word must be a string, not NoneType"),
    (ad("012", "e", "01"), "invalid word '012': only '0' and '1' allowed"),
    (ad("10", "e", "0x"), "certificate node must be an object, not str"),
    (prod(gen(""), {"kind": "nope"}, "01"), 'empty word token; the unit is written "e"'),
    (prod(gen("01"), {"kind": "gen"}, ""), "certificate node 'gen' lacks key 'word'"),
    (prod(gen("e"), ad("e", UNIT, "e"), {}), "a word must be a string, not dict"),
]


@pytest.mark.parametrize("obj, message", FIRST_ERRORS)
def test_certificate_from_json_raises_the_first_error_in_parse_order(obj, message):
    # One test over all of a tree's words must raise the error a node-by-node
    # parse meets first (left, right, term; conjugator, inner, result); a
    # malformed node raises only when every word before it is a word.
    try:
        certificate_from_json(obj)
    except ValueError as exc:
        assert str(exc) == message
    else:
        raise AssertionError(f"{obj!r} parsed")
    valid = prod(gen("e"), ad("e", UNIT, "e"), "e")
    assert certificate_from_json(valid) is valid


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
        ad_closure({"0011"}, Ambient("au"), AdConfig(
            closure=ClosureConfig(work_len=9, report_len=4), ad_len=4)),
        ad_closure({"01"}, Ambient("pu"), AdConfig(
            closure=ClosureConfig(work_len=10, report_len=4), ad_len=4)),
    ]
    cases = [(node, {"01"}) for node in MALFORMED_NODES]
    for c in closures:
        gens = set(c.generators)
        # The shortlex-largest members have the deepest certificates.
        for w in sorted(c.members, key=shortlex_key)[-8:]:
            obj = witness(c, w)
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


@cache
def _bench_documents():
    """The replay benchmark's 2,000 documents and their verdicts, built once
    for the tests below, which do not change them."""
    return _bench_oracle().synth_documents(1, 2000, 8)


def test_replay_matches_old_replay_at_bench_shape():
    # The replay benchmark's documents, with words of 16 to 40 letters and
    # every 8th one corrupted in one node, get the (ok, why) of the node
    # classes' replay, of the per-node parse and replay, and the verdict
    # they were built to get; the first 100 also get the old replay's.
    docs, expected = _bench_documents()
    assert expected.count(False) == 250
    for i, (doc, valid) in enumerate(zip(docs, expected)):
        gens = {parse_word(g) for g in doc["generators"]}
        obj = doc["certificate"]
        new = _replay(certificate_from_json, verify_certificate_detailed, obj, gens)
        nodes = _replay(helpers.certificate_from_json,
                        helpers.verify_certificate_detailed, obj, gens)
        assert new == nodes, doc
        assert new == _replay(per_node_certificate_from_json,
                              per_node_verify_certificate_detailed, obj, gens), doc
        assert new[0] is valid, doc
        if i < 100:
            old = _replay(old_certificate_from_json, old_verify_certificate_detailed,
                          obj, gens)
            assert new == old, doc


_BAD_WORDS = [None, 5, "", "0e1", "012", "ee", [], {}]
_KINDS = ["unit", "gen", "prod", "ad", "nope", None]
_NOT_OBJECTS = ["e", "01", None, 5, []]


def _faulted(obj, rng, faults):
    """A copy of a certificate JSON tree with `faults` faults, each at a
    random node: a word field set to a value that is no word, a key
    deleted, the kind changed, or a child replaced by a non-object.  Each
    fault is made in a fresh copy, whose objects are the candidate nodes."""
    for _ in range(faults):
        nodes = []
        obj = json.loads(json.dumps(obj), object_hook=lambda d: nodes.append(d) or d)
        node = rng.choice(nodes)
        words = [k for k in ("word", "term", "conjugator", "result") if k in node]
        children = [k for k in ("left", "right", "inner") if k in node]
        fault = rng.randrange(4)
        if fault == 0 and words:
            node[rng.choice(words)] = rng.choice(_BAD_WORDS)
        elif fault == 1 and node:
            del node[rng.choice(sorted(node))]
        elif fault == 2 or not children:
            node["kind"] = rng.choice(_KINDS)
        else:
            node[rng.choice(children)] = rng.choice(_NOT_OBJECTS)
    return obj


def test_replay_matches_per_node_replay_on_faults():
    # One- and two-fault copies of the replay benchmark's documents get the
    # per-node parser's error text, or its replay's (ok, why), and a replay
    # of the unchecked copy gets the per-node replay's (ok, why).
    rng = random.Random(2012)
    docs = _bench_documents()[0][:600]
    seen = set()
    for doc in docs:
        gens = {per_node_parse_word(g) for g in doc["generators"]}
        for faults in (1, 1, 2, 2, 2, 2):
            bad = _faulted(doc["certificate"], rng, faults)
            new = _replay(certificate_from_json, verify_certificate_detailed, bad, gens)
            old = _replay(per_node_certificate_from_json,
                          per_node_verify_certificate_detailed, bad, gens)
            assert new == old, bad
            assert (verify_certificate_detailed(bad, gens)
                    == per_node_verify_certificate_detailed(bad, gens)), bad
            verdict, detail = new
            seen.add(detail.split()[0] if verdict is ValueError else verdict)
    # Trees that parse and replay valid or invalid occur, and so do parse
    # errors of every kind, named by their first word.
    assert {True, False, "a", "empty", "invalid", "certificate", "unknown"} <= seen, seen


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
        ad_closure({"0011"}, Ambient("au"), AdConfig(
            closure=ClosureConfig(work_len=9, report_len=4), ad_len=4)),
        ad_closure({"01"}, Ambient("pu"), AdConfig(
            closure=ClosureConfig(work_len=10, report_len=4), ad_len=4)),
    ]
    docs = [
        (witness(c, w), set(c.generators))
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


@pytest.mark.parametrize("name", ["au", "pu"])
def test_closed_form_matches_brute_force(name):
    # The one definition of au and pu: its membership test, its filter's list
    # and its longest simple, for every word up to length 12.
    form = CLOSED_FORMS[name]
    words = words_up_to(12)
    simples = words if name == "au" else balanced_words_up_to(12)
    assert [w for w in words if w in form] == simples
    assert enumerate_words(form.filter, 12) == simples
    for n in range(13):
        assert form.longest(n) == max(len(w) for w in simples if len(w) <= n), n


def test_a_closed_form_holds_only_words():
    # degree counts only 0s, so pu used to hold 0x, and the verifier took it
    # as a pu generator; au held every string.  A value that is not a str
    # made both raise where a gen: view's set answers False; the first foreign
    # generator is the shortlex first by its str.
    for name in ("au", "pu"):
        view = AmbientView(Ambient(name), ClosureConfig())
        assert "" in CLOSED_FORMS[name] and "01" in CLOSED_FORMS[name]
        assert "0x" not in CLOSED_FORMS[name] and not view.contains("0x")
        assert verify_certificate_detailed(gen("0x"), {"0x"}, ambient=view) == (
            False, f"generators: 0x is not a {name} simple")
        assert answer(lambda: 5 in CLOSED_FORMS[name]) is False
        assert answer(lambda: view.contains(5)) is False
        for gens in ({5, "01"}, {5, "0x", "01"}):
            got = answer(lambda: verify_certificate_detailed(gen("01"), gens, ambient=view))
            assert got == (False, f"generators: 5 is not a {name} simple")


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


def test_new_term_engine_matches_pairwise():
    # The engine that evaluates only the products with a new term derives
    # the same members in the same order, by the same steps, as multiplying
    # every pair.  The pairwise run stops once every word within work_len
    # is a member, which changes neither order nor provenance: no step can
    # add anything then.
    cfg = ClosureConfig(work_len=6, report_len=6)
    # au holds every word, all 2**7 - 1 of them within work_len, so its
    # filter rejects nothing and only its full stop acts.
    au = AmbientView(Ambient("au"), cfg)
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
    au = AmbientView(Ambient("au"), cfg)
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


def test_one_index_engine_matches_two_index():
    # The engine files each member once, answers o * m from the same index
    # with m*, and runs no query for a dual step's member; every step must
    # still find the partners that a second index of the members' duals
    # finds.
    cfg = ClosureConfig(work_len=6, report_len=6)
    for gens in _small_generator_sets():
        assert (_engine_trace(Saturator, gens, cfg)
                == _engine_trace(TwoIndexSaturator, gens, cfg)), gens


@settings(deadline=None, max_examples=60)
@given(
    st.sets(st.text(alphabet="01", min_size=1, max_size=5), max_size=3),
    st.integers(min_value=5, max_value=9),
)
def test_one_index_engine_matches_two_index_random(gens, work_len):
    cfg = ClosureConfig(work_len=work_len, report_len=5)
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


@settings(deadline=None, max_examples=25)
@given(st.sets(st.text(alphabet="01", min_size=1, max_size=3), max_size=3))
def test_soundness_random_generator_sets(gens):
    c = generate(gens, ClosureConfig(work_len=6, report_len=6))
    assert "" in c.members
    assert {involute(w) for w in c.members} == c.members
    for w in c.members:
        assert verify_certificate_detailed(witness(c, w), c.generators)[0]
