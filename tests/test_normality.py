from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from freefusion.closure import (
    ClosureConfig,
    ClosureResult,
    Saturator,
    certified_absence,
    enumerate_words,
    generate,
    member,
    verify_certificate_detailed,
    witness,
)
from freefusion.fusion import mul_many
from freefusion import normality
from freefusion.normality import (
    ROOT,
    AdConfig,
    Ambient,
    AmbientView,
    _conjugations,
    ad_closure,
    check_circle_corollary,
    check_simplicity,
    find_invertibles,
)
from freefusion.words import degree, format_word, involute, shortlex_key

from helpers import (
    BARE_STR,
    IndexedSaturator,
    NOT_WORDS,
    ReplaySaturator,
    TwoIndexSaturator,
    balanced_words_up_to,
    bench_oracle,
    cold_check,
    direct_check,
    engine_ad_closure,
    flip,
    flip_free_ad_closure,
    memo_terms,
    pairwise_ad_closure,
    recording,
    refusal,
    scan_conjugations,
    search_ad_closure,
    search_check,
    unshared_check,
    witness_entry,
    words_up_to,
)


def conjugations(x, ambient, ad_len):
    """The ad rule's (conjugator, result) pairs for x, as ad_closure scans
    them, over the ambient's conjugators up to ad_len."""
    by_last = AmbientView(ambient, ClosureConfig()).conjugators_by_last(ad_len)
    return set(_conjugations(x, by_last, len(x) + 2 * ad_len))


def small_cfg(work_len=8, report_len=4, ad_len=4, seed_len=4):
    return AdConfig(
        closure=ClosureConfig(work_len=work_len, report_len=report_len),
        ad_len=ad_len,
        seed_len=seed_len,
    )


def test_ambient_parse_and_describe():
    assert Ambient.parse("au").kind == "au"
    assert Ambient.parse("pu").kind == "pu"
    a = Ambient.parse("gen:01,10")
    assert a.gens == {"01", "10"}
    assert a.describe() == "gen:01,10"
    with pytest.raises(ValueError, match="unknown ambient 'zz'; expected au, pu or gen:"):
        Ambient.parse("zz")
    with pytest.raises(ValueError):
        Ambient.parse("gen:")


@pytest.mark.parametrize("call", [
    lambda: check_simplicity(Ambient("xx")),
    lambda: ad_closure({"01"}, Ambient("xx")),
], ids=["check_simplicity", "ad_closure"])
def test_an_unknown_ambient_kind_is_refused_when_built(call):
    # It used to be built, then fail in AmbientView with a TypeError.
    with pytest.raises(ValueError, match="unknown ambient kind 'xx'; expected au, pu or gen$"):
        call()


@pytest.mark.parametrize("kind", ["au", "pu"])
def test_a_closed_form_ambient_refuses_generators(kind):
    # Built, it would describe itself as the bare kind and compare unequal to it.
    with pytest.raises(ValueError, match=f"^ambient {kind} takes no generators$"):
        Ambient(kind, frozenset({"01"}))


def test_a_generated_ambient_freezes_its_words():
    # Ambients are shared as defaults and hash, whatever collection the words came in.
    built, listed = Ambient("gen", {"01", "10"}), Ambient("gen", ["10", "01"])
    assert built == listed and hash(built) == hash(listed)
    assert type(built.gens) is frozenset and built.gens == {"01", "10"}


def test_a_generated_ambient_refuses_a_bare_string():
    # Read letter by letter, "0110" would build gen:0,1.
    assert refusal(lambda: Ambient("gen", "0110")) == BARE_STR


@pytest.mark.parametrize("kind", ["au", "pu"])
def test_ad_closure_refuses_a_bare_str(kind):
    # Read letter by letter, "0110" used to take generators {0, 1}.
    assert refusal(lambda: ad_closure("0110", Ambient(kind), small_cfg())) == BARE_STR


def test_ad_closure_refuses_a_bare_str_of_stop_targets():
    # Read letter by letter, "0110" used to be the targets 0 and 1, which no
    # closure of 0011 holds, so the run went on to its fixpoint.
    cfg = AdConfig(ClosureConfig(10, 4), 6, 4)
    call = lambda: ad_closure({"0011"}, Ambient("au"), cfg, stop_targets="0110")
    assert refusal(call) == BARE_STR
    stopped = ad_closure({"0011"}, Ambient("au"), cfg, stop_targets={"0110"})
    assert not stopped.saturated and "0110" in stopped.members


def test_witness_entries_refuses_a_bare_str():
    # Read letter by letter, "0110" used to give an entry for each of 0, 1, 1, 0.
    result = generate({"01", "10"}, ClosureConfig(work_len=6, report_len=4))
    assert refusal(lambda: normality.witness_entries(result, "0110")) == BARE_STR
    entry, = normality.witness_entries(result, ["0110"])
    assert entry["word"] == "0110" and entry["verified"]


@pytest.mark.parametrize("kind", ["au", "pu"])
def test_ad_closure_reads_one_shot_seeds_once(kind):
    # The word check used to use up an iterator, leaving the closure of nothing.
    cfg = AdConfig(ClosureConfig(6, 4), 4, 4)
    listed = ad_closure(["0011"], Ambient(kind), cfg)
    assert listed.generators == {"0011"} and len(listed.members) > 1  # 0011 is self-dual
    for seeds in (iter(["0011"]), (s for s in ["0011"])):
        got = ad_closure(seeds, Ambient(kind), cfg)
        assert (got.to_json(), got.provenance) == (listed.to_json(), listed.provenance)


def test_a_generated_ambient_refuses_what_is_not_a_word():
    # gen:0x used to build, and its sweep to fail with KeyError: 'x'.
    for bad in NOT_WORDS:
        with pytest.raises(ValueError, match="^.* is not a word: .*unit$"):
            Ambient("gen", ["01", bad])


@pytest.mark.parametrize("kind", ["au", "pu"])
def test_ad_closure_refuses_seeds_that_are_not_words(kind):
    # ad_closure({"0x"}, Ambient("au")) used to fail with KeyError: 'x'.
    for bad in NOT_WORDS:
        with pytest.raises(ValueError, match="^.* is not a word: .*unit$"):
            ad_closure([bad], Ambient(kind), small_cfg())


def test_ambient_views():
    au = AmbientView(Ambient("au"), ClosureConfig(work_len=6, report_len=4))
    pu = AmbientView(Ambient("pu"), ClosureConfig(work_len=6, report_len=4))
    assert au.contains("001") and not pu.contains("001")
    assert pu.simples(2) == ["", "01", "10"]
    assert au.count(4) == len(words_up_to(4))
    assert pu.count(6) == len(balanced_words_up_to(6))
    gen = AmbientView(
        Ambient("gen", {"01", "10"}), ClosureConfig(work_len=8, report_len=4)
    )
    assert gen.contains("1001") and not gen.contains("0011")
    assert gen.count(8) == len(gen.simples(8))


def test_ad_config_validation():
    with pytest.raises(ValueError):
        AdConfig(closure=ClosureConfig(work_len=6, report_len=4), ad_len=8)
    with pytest.raises(ValueError):
        AdConfig(ad_len=-1)
    with pytest.raises(ValueError):
        AdConfig(seed_len=-1)


def test_ad_rule_matches_scan_exhaustively():
    # y * x * y* is a single simple exactly when x[0] != x[-1] and y ends
    # in x[0]: all words x up to length 7, conjugators up to length 5.
    conjugators = [y for y in words_up_to(5) if y]
    for x in words_up_to(7):
        got = conjugations(x, Ambient("au"), 5)
        assert got == set(scan_conjugations(x, conjugators)), x
        assert got == {
            (y, y + x + involute(y))
            for y in conjugators
            if x and x[0] != x[-1] and y[-1] == x[0]
        }, x


def test_conjugator_table_built_once_per_sweep(monkeypatch):
    view = AmbientView(Ambient("pu"), ClosureConfig())
    table = view.conjugators_by_last(4)
    assert table == {"0": ["10", "0110", "1010", "1100"],
                     "1": ["01", "0011", "0101", "1001"]}
    assert view.conjugators_by_last(4) is table

    calls = []
    simples = AmbientView.simples

    def counted(self, max_len):
        calls.append(max_len)
        return simples(self, max_len)

    monkeypatch.setattr(AmbientView, "simples", counted)
    report = check_circle_corollary(small_cfg(seed_len=3))
    assert len(report["seeds"]) == 14
    assert calls == [3, 4]  # the seeds, then one table for all 14 seeds


_PU_ORACLE = AdConfig(
    closure=ClosureConfig(work_len=10, report_len=4), ad_len=8, seed_len=6
)
_AU_ORACLE = AdConfig(
    closure=ClosureConfig(work_len=8, report_len=4), ad_len=8, seed_len=3
)
_GEN_ORACLE = AdConfig(
    closure=ClosureConfig(work_len=10, report_len=4), ad_len=6, seed_len=4
)


@pytest.mark.parametrize("stop", [False, True], ids=["fixpoint", "targets"])
@pytest.mark.parametrize(
    "ambient, cfg",
    [
        (Ambient("pu"), _PU_ORACLE),
        (Ambient("au"), _AU_ORACLE),
        (Ambient("gen", {"01", "10"}), _GEN_ORACLE),
        # Neither au nor pu: 32 of the 2,047 words within work_len 10.
        (Ambient("gen", {"0011"}), _GEN_ORACLE),
    ],
    ids=["pu", "au", "gen", "gen-0011"],
)
def test_indexed_engine_matches_pairwise(ambient, cfg, stop):
    # The pairwise oracle filters every term by the ambient; the engine
    # filters none, so the gen ambients check that none leaves it.
    view = AmbientView(ambient, cfg.closure)
    targets = balanced_words_up_to(4) if stop else None
    # A seed and its dual start the same run: both engines dual-close them.
    seeds = [s for s in view.simples(cfg.seed_len)[1:] if s <= involute(s)]
    try:
        for seed in seeds:
            old = pairwise_ad_closure({seed}, ambient, cfg, targets)
            new = ad_closure({seed}, ambient, cfg, stop_targets=targets)
            assert list(new.provenance) == old.order, seed
            assert new.provenance == old.provenance, seed
            assert new.saturated == old.result(is_ad=True).saturated, seed
    finally:
        memo_terms.cache_clear()


@pytest.mark.parametrize("stop", [False, True], ids=["fixpoint", "targets"])
@pytest.mark.parametrize(
    "ambient",
    [Ambient("pu"), Ambient("au"), Ambient("gen", {"01", "10"})],
    ids=["pu", "au", "gen"],
)
def test_one_index_engine_matches_two_index_ad_closure(ambient, stop, monkeypatch):
    # ad_closure on the one-index engine and on the two-index one: the same
    # order, provenance, stats and _partners list at every step.
    cfg = AdConfig(
        closure=ClosureConfig(work_len=10, report_len=4), ad_len=8, seed_len=6
    )
    view = AmbientView(ambient, cfg.closure)
    targets = balanced_words_up_to(4) if stop else None
    # A seed and its dual start the same run: the engine dual-closes both.
    seeds = [s for s in view.simples(cfg.seed_len)[1:] if s <= involute(s)]
    assert seeds
    for seed in seeds:
        traces = []
        for engine in (Saturator, TwoIndexSaturator):
            steps = []
            monkeypatch.setattr(normality, "Saturator", recording(engine, steps))
            got = ad_closure({seed}, ambient, cfg, stop_targets=targets,
                             _view=view)
            traces.append((list(got.provenance.items()), got.stats,
                           got.saturated, steps))
        assert traces[0] == traces[1], seed


def test_indexed_engine_evaluates_fewer_products():
    cfg = AdConfig(
        closure=ClosureConfig(work_len=10, report_len=6), ad_len=8, seed_len=6
    )
    try:
        old = pairwise_ad_closure({"001110"}, Ambient("pu"), cfg)
    finally:
        memo_terms.cache_clear()
    new = ad_closure({"001110"}, Ambient("pu"), cfg)
    assert new.stats["members"] == len(old.provenance)
    assert new.stats["products"] < old.stats["products"]


def test_new_term_engine_evaluates_fewer_products_than_indexed():
    # Same fixpoint as the (length, prefix) indexed engine, which evaluates
    # every product with a term within work_len; this engine evaluates only
    # the products with a term that is not yet a member.
    cfg = AdConfig(
        closure=ClosureConfig(work_len=10, report_len=6), ad_len=8, seed_len=6
    )
    try:
        old = engine_ad_closure(
            IndexedSaturator, {"001110"}, Ambient("pu"), cfg
        )
    finally:
        memo_terms.cache_clear()
    new = ad_closure({"001110"}, Ambient("pu"), cfg)
    assert new.members == old.members
    assert new.stats["members"] == len(old.provenance)
    assert new.stats["products"] < old.stats["products"]


def test_ad_candidates_examples():
    got = conjugations("01", Ambient("au"), 2)
    assert ("10", "100110") in got
    got1 = conjugations("01", Ambient("au"), 1)
    assert ("0", "0011") in got1
    assert conjugations("", Ambient("au"), 2) == set()


def test_ad_candidates_sound():
    for x in ("01", "0011", "0"):
        for y, z in conjugations(x, Ambient("au"), 3):
            assert mul_many([{y: 1}, {x: 1}, {involute(y): 1}]) == {z: 1}


def test_ad_candidates_right_orientation_covered():
    # involute(y) * x * y results appear as left conjugations by involute(y)
    x = "01"
    got = conjugations(x, Ambient("au"), 3)
    for y, _ in got:
        prod = mul_many([{involute(y): 1}, {x: 1}, {y: 1}])
        if len(prod) == 1 and set(prod.values()) == {1}:
            (z,) = prod
            assert (involute(y), z) in got


def test_ad_closure_examples():
    cl = ad_closure({"01"}, Ambient("au"), small_cfg())
    assert "100110" in cl.members
    assert "10" in cl.members
    cl = ad_closure(set(), Ambient("au"), small_cfg())
    assert cl.members == {""}
    cl = ad_closure({"0011"}, Ambient("pu"), small_cfg(work_len=10))
    for w in balanced_words_up_to(4):
        assert w in cl.members


def test_ad_closure_rejects_bad_seed():
    with pytest.raises(ValueError):
        ad_closure({"001"}, Ambient("pu"), small_cfg())
    with pytest.raises(ValueError):
        ad_closure({"0101010101"}, Ambient("au"), small_cfg(work_len=8))


def test_ad_closure_ambient_confined():
    cl = ad_closure({"0011"}, Ambient("pu"), small_cfg(work_len=10))
    for w in cl.members:
        assert w.count("0") * 2 == len(w)
    amb = Ambient("gen", {"01", "10"})
    view = AmbientView(amb, ClosureConfig(work_len=10, report_len=4))
    cl = ad_closure({"01"}, amb, small_cfg(work_len=10))
    for w in cl.members:
        assert view.contains(w)


def test_ad_closure_monotone():
    base = ad_closure({"01"}, Ambient("pu"), small_cfg(work_len=10))
    more_seeds = ad_closure(
        {"01", "0011"}, Ambient("pu"), small_cfg(work_len=10)
    )
    assert base.members <= more_seeds.members
    longer_ad = ad_closure(
        {"01"}, Ambient("pu"), small_cfg(work_len=10, ad_len=6)
    )
    assert base.members <= longer_ad.members
    longer_work = ad_closure(
        {"01"}, Ambient("pu"), small_cfg(work_len=12)
    )
    assert base.members <= longer_work.members


def test_ad_closure_members_certified():
    cl = ad_closure({"01"}, Ambient("au"), small_cfg())
    for w in sorted(cl.members)[:20]:
        assert verify_certificate_detailed(witness(cl, w), cl.generators)[0]


# One bad step, 0101 claimed from 01 * 10 (cut 0 gives 0110 only), under
# a product node and an ad node that several samples share, and a second bad
# step, 0011 claimed by conjugating 01 by 1 (1 * 01 has two terms).
_BAD_PROVENANCE = {
    "01": ("gen",), "10": ("gen",),
    "0110": ("prod", "01", "10"), "011001": ("prod", "0110", "01"),
    "0101": ("prod", "01", "10"),
    "01010110": ("prod", "0101", "0110"),
    "0101011001": ("prod", "01010110", "01"),
    "1001010110": ("prod", "10", "01010110"),
    "001011": ("ad", "0", "0101"),
    "00101101": ("prod", "001011", "01"),
    "0011": ("ad", "1", "01"), "001101": ("prod", "0011", "01"),
    "100011": ("prod", "10", "0011"),
}


def test_shared_node_over_a_bad_step_fails_every_sample_through_it():
    # witness_entries replays a seed's samples as one DAG; each entry must
    # equal the tree replay and write of its word alone (helpers.witness_entry),
    # in every order of the samples, however often a failing node recurs.
    result = ClosureResult(frozenset({"01", "10"}), ClosureConfig(work_len=10),
                           True, {}, _BAD_PROVENANCE, is_ad=True)
    samples = ["0101011001", "1001010110", "00101101", "001011", "011001",
               "001101", "100011", "0101", "0011", "111"]
    for words in (samples, samples[::-1], samples[1::2] + samples[::2]):
        entries = normality.witness_entries(result, words)
        assert entries == [witness_entry(result, w) for w in words]
    entries = dict(zip(samples, normality.witness_entries(result, samples)))
    assert entries["111"] is None and entries["011001"]["verified"]
    assert {w for w, e in entries.items() if e and e["verified"]} == {"011001"}
    assert entries["0101011001"]["error"] == "root.left.left: 0101 does not occur in 01 * 10"
    assert entries["1001010110"]["error"] == "root.right.left: 0101 does not occur in 01 * 10"
    assert entries["00101101"]["error"] == "root.left.inner: 0101 does not occur in 01 * 10"
    assert entries["100011"]["error"] == (
        "root.right: 1 * 01 * 0 is not exactly the single simple 0011")
    # A shared node is written as one dict wherever it occurs.
    assert (entries["0101011001"]["certificate"]["left"]
            is entries["1001010110"]["certificate"]["right"])


def test_samples_replay_against_the_sweep_ambient():
    # A sample conjugated by 00 replays in au, but neither in pu nor in gen:01,10.
    result = ClosureResult(frozenset({"01", "10"}), ClosureConfig(work_len=8), True, {},
                           {"": ("unit",), "01": ("gen",), "10": ("gen",),
                            "000111": ("ad", "00", "01")}, is_ad=True)
    errors = {}
    for ambient in (Ambient("au"), Ambient("pu"), Ambient("gen", {"01", "10"})):
        view = AmbientView(ambient, result.config)
        entry, = normality.witness_entries(result, ["000111"], view)
        errors[view.name] = entry.get("error")
        assert entry["verified"] is (errors[view.name] is None)
    assert errors == {"au": None, "pu": "root: 00 is not a pu simple",
                      "gen:01,10": "root: 00 is not a gen:01,10 simple"}


def test_proof_milestones():
    # any nontrivial balanced seed reaches 01 and 10, then the two-block
    # words, then every balanced word up to the report bound; the
    # two-block words of length 6 force length-14 intermediates
    cfg = AdConfig(
        closure=ClosureConfig(work_len=14, report_len=6), ad_len=8, seed_len=6
    )
    targets = balanced_words_up_to(6)
    for seed in ("01", "0011", "010101"):
        cl = ad_closure(
            {seed}, Ambient("pu"), cfg, stop_targets=targets
        )
        for w in ("01", "10", "0011", "1100", "000111", "111000"):
            assert w in cl.members, (seed, w)
        for w in targets:
            assert w in cl.members, (seed, w)


def test_not_finitely_generated():
    for k in (1, 2):
        gens = {w for w in balanced_words_up_to(2 * k) if w}
        c = generate(gens, ClosureConfig(work_len=12, report_len=6))
        target = "0" * (k + 1) + "1" * (k + 1)
        m = member(c, target)
        assert m.status == "absent-certified" and m.reason == "prefix-height"


def test_property_f_counterexample():
    # The plain closure of 01 is not ad-stable in gen:01,10: its ad-closure holds
    # more, each word with a certificate that replays in that ambient.
    cfg = ClosureConfig(work_len=12, report_len=6)
    ambient = Ambient("gen", {"01", "10"})
    view = AmbientView(ambient, cfg)
    plain = generate({"01"}, cfg)
    stable = ad_closure({"01"}, ambient, AdConfig(cfg, 6), _view=view)
    outside = sorted((w for w in stable.members if w not in plain.members), key=shortlex_key)
    assert len(outside) == 120 and outside[:3] == ["10", "0110", "1001"]
    entries = normality.witness_entries(stable, outside[:3], view)
    assert all(e["verified"] for e in entries), entries


def test_find_invertibles():
    assert find_invertibles(0) == [""]
    assert find_invertibles(6) == [""]
    with pytest.raises(ValueError, match="max_len"):
        find_invertibles(-2)


def test_check_simplicity_generated_small():
    report = check_simplicity(
        Ambient("gen", {"01", "10"}),
        AdConfig(closure=ClosureConfig(work_len=10, report_len=4), ad_len=6,
                 seed_len=4),
    )
    assert report["verdict"] == "pass"
    assert all(r["status"] == "pass" for r in report["seeds"])
    for r in report["seeds"]:
        for entry in r["certificates"]:
            assert entry["verified"]


def test_check_simplicity_full_au_fails_on_unbalanced_targets():
    report = check_simplicity(
        Ambient("au"),
        AdConfig(closure=ClosureConfig(work_len=8, report_len=2), ad_len=4,
                 seed_len=2),
    )
    assert report["verdict"] == "fail"
    by_seed = {r["seed"]: r for r in report["seeds"]}
    # balanced seeds can never reach unbalanced targets: degree-certified
    assert set(by_seed["01"]["missing_certified"]) == {"0", "1", "00", "11"}
    assert by_seed["01"]["status"] == "fail"
    # unbalanced seeds reach everything of length <= 2
    assert by_seed["0"]["status"] == "pass"


def test_check_simplicity_inconclusive_is_not_pass():
    report = check_simplicity(
        Ambient("pu"),
        AdConfig(closure=ClosureConfig(work_len=4, report_len=2), ad_len=2,
                 seed_len=2),
    )
    assert report["verdict"] == "inconclusive"
    assert all(r["status"] in ("pass", "inconclusive") for r in report["seeds"])
    assert any(r["missing_within_bound"] for r in report["seeds"])


def test_check_circle_small():
    report = check_circle_corollary(
        AdConfig(closure=ClosureConfig(work_len=8, report_len=4), ad_len=4,
                 seed_len=2),
    )
    assert report["verdict"] == "pass"
    assert len(report["seeds"]) == 6  # 0,1,00,01,10,11


def test_each_seed_has_a_record_of_its_own():
    # A dual pair shares its record's fields, never the record dict: each
    # record names its own seed, first.
    report = check_circle_corollary(small_cfg(work_len=8, report_len=4, ad_len=4,
                                              seed_len=3))
    assert [r["seed"] for r in report["seeds"]] == [w for w in words_up_to(3) if w]
    assert all(next(iter(r)) == "seed" for r in report["seeds"])


def test_empty_seed_sweep_is_rejected():
    cfg = AdConfig(
        closure=ClosureConfig(work_len=8, report_len=4), ad_len=4, seed_len=0
    )
    with pytest.raises(ValueError, match="no seeds"):
        check_simplicity(Ambient("pu"), cfg)
    with pytest.raises(ValueError, match="no seeds"):
        check_circle_corollary(cfg)


def test_cert_samples_must_be_nonnegative():
    cfg = small_cfg(seed_len=1)
    with pytest.raises(ValueError, match="cert_samples"):
        check_circle_corollary(cfg, cert_samples=-1)
    with pytest.raises(ValueError, match="cert_samples"):
        check_simplicity(Ambient("pu"), small_cfg(seed_len=2),
                         cert_samples=-1)
    report = check_circle_corollary(cfg, cert_samples=0)
    assert report["seeds"] and all(r["certificates"] == [] for r in report["seeds"])


def test_an_odd_pu_seed_len_one_past_work_len_is_accepted():
    # The longest pu simple of at most 7 letters has 6, which fits work_len 6,
    # so the sweep at seed_len 7 is the sweep at seed_len 6.
    sweeps = [check_simplicity(Ambient("pu"), small_cfg(work_len=6, report_len=2, ad_len=2,
                                                        seed_len=n)) for n in (6, 7)]
    assert sweeps[0]["seeds"] == sweeps[1]["seeds"]


def test_circle_targets_are_the_pu_simples(monkeypatch):
    cfg = small_cfg(work_len=8, report_len=4, ad_len=4, seed_len=2)
    targets = []
    monkeypatch.setattr(normality, "_check", lambda *args: targets.append(args[3]))
    check_circle_corollary(cfg)
    assert targets == [AmbientView(Ambient("pu"), cfg.closure).simples(4)]


def test_seed_len_beyond_work_len_is_rejected_before_saturating(monkeypatch):
    # A pu seed of length 8 cannot be a generator at work_len 6, so the
    # sweep must stop before it enumerates or saturates any seed.
    def unreachable(*args, **kwargs):
        raise AssertionError("a seed was saturated")

    monkeypatch.setattr(normality, "ad_closure", unreachable)
    cfg = small_cfg(work_len=6, report_len=2, ad_len=2, seed_len=8)
    with pytest.raises(ValueError, match="seed_len 8 exceeds work_len 6"):
        check_simplicity(Ambient("pu"), cfg)


# --------------------------------------------------------------------------
# descent to the root seed 01, against the per-seed sweep it replaced


def _assert_matches_direct(report, direct):
    assert report["verdict"] == direct["verdict"]
    assert [r["seed"] for r in report["seeds"]] == [r["seed"] for r in direct["seeds"]]
    for got, want in zip(report["seeds"], direct["seeds"]):
        assert got["status"] == want["status"], got["seed"]
        assert got["missing_certified"] == want["missing_certified"], got["seed"]
        assert got["missing_within_bound"] == want["missing_within_bound"], got["seed"]
        assert ([c["word"] for c in got["certificates"]]
                == [c["word"] for c in want["certificates"]]), got["seed"]
        assert all(c["verified"] for c in got["certificates"]), got["seed"]


def _oracle_sweep(ambient, cfg, oracle):
    """The JSON of oracle(name, view, cfg, targets), a SimplicityReport, for
    check_simplicity in ambient, or for check_circle_corollary when ambient
    is None: the dict the library's sweep returns."""
    if ambient is None:
        view = AmbientView(Ambient("au"), cfg.closure)
        targets = enumerate_words("balanced", cfg.closure.report_len)
        return oracle("circle-corollary", view, cfg, targets).to_json()
    view = AmbientView(ambient, cfg.closure)
    return oracle("simplicity", view, cfg, view.simples(cfg.closure.report_len)).to_json()


def _library_sweep(ambient, cfg):
    if ambient is None:
        return check_circle_corollary(cfg)
    return check_simplicity(ambient, cfg)


def _sweep_and_direct(ambient, cfg):
    """The library's sweep and direct_check's, for check_simplicity in
    ambient, or for check_circle_corollary when ambient is None."""
    return (_library_sweep(ambient, cfg),
            _oracle_sweep(ambient, cfg, direct_check))


def _small_cfgs():
    """The grid of small sweep bounds, some of them invalid for a sweep."""
    for work_len in range(9):
        for seed_len in range(1, 5):
            for report_len in (0, 2, 4):
                for ad_len in (0, 2, 4):
                    if max(report_len, ad_len) <= work_len:
                        yield small_cfg(work_len, report_len, ad_len, seed_len)


_SMALL_SWEEPS = pytest.mark.parametrize(
    "ambient, sweeps",
    [
        (Ambient("au"), 201),
        (Ambient("pu"), 151),
        (Ambient("gen", {"01", "10"}), 159),
        (Ambient("gen", {"0011"}), 135),
        (None, 201),
    ],
    ids=["au", "pu", "gen-01-10", "gen-0011", "circle"],
)
_ACCEPTANCE_CASES = [
    pytest.param(Ambient("pu"), 12, 6, id="criterion-6"),
    pytest.param(Ambient("pu"), 14, 6, id="criterion-6-supplement"),
    pytest.param(None, 12, 5, id="criterion-8"),
]
_ACCEPTANCE_SWEEPS = pytest.mark.parametrize(
    "ambient, work_len, seed_len", _ACCEPTANCE_CASES
)


@_SMALL_SWEEPS
def test_descent_matches_direct_check(ambient, sweeps):
    # In au, a seed of nonzero degree reaches targets that the root 01
    # (degree 0) cannot, so it must not descend even where the root holds
    # every target of its own.
    done = 0
    for cfg in _small_cfgs():
        try:
            report, direct = _sweep_and_direct(ambient, cfg)
        except ValueError:  # no seeds, or seeds beyond work_len
            continue
        _assert_matches_direct(report, direct)
        done += 1
    assert done == sweeps


@_ACCEPTANCE_SWEEPS
def test_descent_matches_direct_check_at_acceptance_bounds(
    ambient, work_len, seed_len
):
    cfg = small_cfg(work_len, report_len=6, ad_len=8, seed_len=seed_len)
    _assert_matches_direct(*_sweep_and_direct(ambient, cfg))


def test_descent_record_ends():
    # The benchmark's pu-fixpoint sweep: the root runs to its fixpoint, and
    # 000111 and 111000 lie outside it and miss targets it holds, so they
    # run to their own fixpoints, each started from the root's (see
    # test_warm_start_matches_cold_check); every other seed descends.
    cfg = small_cfg(work_len=10, report_len=6, ad_len=8, seed_len=6)
    report = check_simplicity(Ambient("pu"), cfg)
    own = {"01", "000111", "111000"}
    assert {r["seed"]: r["end"] for r in report["seeds"]} == {
        r["seed"]: "fixpoint" if r["seed"] in own else "descent" for r in report["seeds"]
    }
    assert len(report["seeds"]) == 28


@pytest.mark.parametrize(
    "report_len, stop_10",
    [(0, {"01"}), (2, {"", "01", "10"})],
    ids=["descends", "direct"],
)
def test_descent_that_never_derives_root_is_exact(
    monkeypatch, report_len, stop_10
):
    # At work_len 2 the closure of 10 is {e, 10}: it never derives 01.
    # With report_len 0 the root holds every target, so 10 descends and its
    # closure runs to its fixpoint; with report_len 2 the root misses 10,
    # and 10 saturates on its own.
    stops = {}
    ad_closure = normality.ad_closure

    def recorded(seeds, *args, stop_targets=None, **kwargs):
        (seed,) = seeds
        stops[seed] = set(stop_targets)
        return ad_closure(seeds, *args, stop_targets=stop_targets, **kwargs)

    monkeypatch.setattr(normality, "ad_closure", recorded)
    cfg = small_cfg(work_len=2, report_len=report_len, ad_len=0, seed_len=2)
    report, direct = _sweep_and_direct(Ambient("au"), cfg)
    _assert_matches_direct(report, direct)
    assert stops["10"] == stop_10
    assert {r["seed"]: r["end"] for r in report["seeds"]}["10"] == "fixpoint"


# --------------------------------------------------------------------------
# dual pairs: a seed and its dual share one run, against the unshared sweep


def _json_or_error(sweep):
    """The report's JSON, or the message of the ValueError that refused it."""
    try:
        return sweep()
    except ValueError as exc:
        return str(exc)


def _flip_shared_seeds(monkeypatch) -> list:
    """The seeds, in call order, whose ad_closure call returns a closure
    that no Saturator run made (ad_closure keeps the run of the results it
    makes as _engine): a flip pair's shared run, derived in closed form."""
    shared = []
    ad_closure = normality.ad_closure

    def recorded(seeds, *args, **kwargs):
        result = ad_closure(seeds, *args, **kwargs)
        if not hasattr(result, "_engine"):
            shared.extend(seeds)
        return result

    monkeypatch.setattr(normality, "ad_closure", recorded)
    return shared


def _assert_dual_pairs_match_unshared(ambient, cfg, shared, oracle):
    """The library's sweep equals unshared_check's, every record byte for
    byte, but for the records of flip-shared seeds (shared, filled by
    _flip_shared_seeds): those are equal with certificate trees left out,
    and their certificates replay under the benchmark's oracle.  Every
    refusal too, with the same message.  Returns the flip-shared seeds, or
    None when both sweeps refuse alike."""
    shared.clear()
    got = _json_or_error(lambda: _library_sweep(ambient, cfg))
    want = _json_or_error(lambda: _oracle_sweep(ambient, cfg, unshared_check))
    if not isinstance(got, dict):
        assert got == want, cfg.to_json()
        return None
    assert _without_trees(got) == _without_trees(want), cfg.to_json()
    seeds = [r["seed"] for r in got["seeds"]]
    for rec, alone in zip(got["seeds"], want["seeds"]):
        if rec["seed"] not in shared:
            assert rec == alone, (cfg.to_json(), rec["seed"])
            continue
        # Only in au and pu, and only after the seed's flip or that flip's dual.
        assert ambient is None or ambient.kind != "gen", cfg.to_json()
        first = min(seeds.index(w) for w in (flip(rec["seed"]), involute(flip(rec["seed"]))))
        assert first < seeds.index(rec["seed"]), (cfg.to_json(), rec["seed"])
        _assert_certificates_replay(rec, oracle, cfg)
    return list(shared)


@_SMALL_SWEEPS
def test_dual_pairs_match_unshared_sweep(monkeypatch, ambient, sweeps):
    shared = _flip_shared_seeds(monkeypatch)
    oracle = bench_oracle()
    got = [_assert_dual_pairs_match_unshared(ambient, cfg, shared, oracle)
           for cfg in _small_cfgs()]
    assert sum(g is not None for g in got) == sweeps
    # Flip pairs share runs in au and pu, and never in a generated ambient.
    assert any(got) == (ambient is None or ambient.kind != "gen")


@pytest.mark.parametrize(
    "ambient, work_len, seed_len, flip_shared",
    [pytest.param(*case.values, ["111000"] if case.id == "criterion-6" else [],
                  id=case.id) for case in _ACCEPTANCE_CASES],
)
def test_dual_pairs_match_unshared_sweep_at_acceptance_bounds(
    monkeypatch, ambient, work_len, seed_len, flip_shared
):
    # At work_len 12 the pu root saturates, 000111 searches from its
    # fixpoint and 111000 takes the flipped closure.  At work_len 14 the
    # root reaches its targets, and in the circle check it holds them, so
    # every other seed descends to 01, whose stop {01} is not flip-closed.
    shared = _flip_shared_seeds(monkeypatch)
    cfg = small_cfg(work_len, report_len=6, ad_len=8, seed_len=seed_len)
    assert _assert_dual_pairs_match_unshared(
        ambient, cfg, shared, bench_oracle()) == flip_shared


_FLIP_SEEDS = st.one_of(
    st.lists(st.text("01", min_size=1, max_size=4), min_size=1, max_size=2)
    .map(lambda seeds: ("au", seeds)),
    st.lists(st.integers(1, 2).flatmap(lambda n: st.permutations("0" * n + "1" * n))
             .map("".join), min_size=1, max_size=2).map(lambda seeds: ("pu", seeds)),
)


@settings(max_examples=60, deadline=None)
@given(_FLIP_SEEDS, st.integers(0, 4), st.integers(0, 4))
@example(("pu", ["000111"]), 4, 4)  # the pu-fixpoint bench's warm seed
def test_flipped_closure_has_the_flipped_members(ambient_seeds, room, ad_len):
    # flip is an automorphism of the fusion rule and the ad rule, and au,
    # pu and their conjugators are flip-closed: the saturated ad-closure of
    # the flipped seeds holds exactly the flipped members.  The closed form
    # the memo files (normality._flipped) has them too, and replays.
    kind, seeds = ambient_seeds
    ambient = Ambient.parse(kind)
    work_len = max(map(len, seeds)) + room
    cfg = small_cfg(work_len, report_len=0, ad_len=min(ad_len, work_len), seed_len=0)
    closure = ad_closure(set(seeds), ambient, cfg)
    flipped = ad_closure({flip(s) for s in seeds}, ambient, cfg)
    assert closure.saturated and flipped.saturated
    assert {flip(w) for w in closure.members} == set(flipped.members)
    derived = normality._flipped(closure)
    assert derived.members == flipped.members and derived.saturated
    assert derived.generators == flipped.generators
    for w in sorted(derived.members, key=len)[-5:]:
        assert verify_certificate_detailed(witness(derived, w), derived.generators)[0], w


def _count_saturators(monkeypatch) -> list:
    built = []

    class Counted(Saturator):
        def __init__(self, config, generators=(), targets=None):
            built.append(set(generators))
            super().__init__(config, generators, targets)

    monkeypatch.setattr(normality, "Saturator", Counted)
    return built


def test_ad_closure_without_memo_builds_a_saturator_per_call(monkeypatch):
    built = _count_saturators(monkeypatch)
    cfg = small_cfg(work_len=8)
    view = AmbientView(Ambient("au"), cfg.closure)
    runs = [ad_closure(seeds, Ambient("au"), cfg, stop_targets={"01"}, _view=view)
            for seeds in ({"0110"}, {"1001"}, {"0110"})]
    assert built == [{"0110"}, {"1001"}, {"0110"}]
    assert runs[0] is not runs[1] and runs[0] is not runs[2]
    assert runs[0].to_json() == runs[1].to_json() == runs[2].to_json()


def test_memo_shares_one_run_per_dual_pair(monkeypatch):
    # The memo files a run under its generators, the seeds' dual closure:
    # a call from the same generators to the same stop targets builds no
    # Saturator, and other stop targets run and file in its place.
    built = _count_saturators(monkeypatch)
    cfg = small_cfg(work_len=8)
    view = AmbientView(Ambient("au"), cfg.closure)
    pairs = {}

    def run(seed, stop):
        return ad_closure({seed}, Ambient("au"), cfg, stop_targets=stop,
                          _view=view, _pairs=pairs)

    first = run("0110", {"01"})
    pair = frozenset({"0110", "1001"})
    assert pairs == {pair: ({"01"}, first)}
    assert run("1001", {"01"}) is first  # its dual
    assert run("0110", {"01"}) is first  # the entry stays
    assert len(built) == 1
    # Without the memo, a call never shares.
    assert ad_closure({"1001"}, Ambient("au"), cfg, stop_targets={"01"},
                      _view=view) is not first
    assert len(built) == 2
    own = run("0011", {"01"})  # self-dual: filed under its own generators
    assert len(built) == 3 and pairs[frozenset({"0011"})] == ({"01"}, own)
    other = run("1001", {"01", "0011"})  # other stop targets: a run of its own
    assert len(built) == 4 and other is not first
    assert pairs == {pair: ({"01", "0011"}, other), frozenset({"0011"}): ({"01"}, own)}


def test_memo_files_a_flip_pair_only_after_a_search_in_au_or_pu(monkeypatch):
    # After a run in au or pu to flip-closed stop targets, the memo files the
    # flipped closure once, under the flipped generators, where they differ.
    cfg = small_cfg(work_len=6, report_len=2, ad_len=0, seed_len=3)
    both = {"01", "10"}

    def memo(ambient, seeds, stop):
        pairs = {}
        result = ad_closure(seeds, ambient, cfg, stop_targets=stop, _pairs=pairs)
        return result, pairs

    au = Ambient("au")
    result, pairs = memo(au, {"001"}, both)
    gens, flips = frozenset({"001", "011"}), frozenset({"110", "100"})
    assert set(pairs) == {gens, flips}
    assert pairs[gens] == (both, result)
    stop, flipped = pairs[flips]
    assert stop == both
    assert set(flipped.members) == {flip(w) for w in result.members}
    assert flipped.generators == flips
    assert (flipped.saturated, flipped.stats) == (result.saturated, result.stats)
    # The flip and its dual both get the one flipped closure, and run nothing.
    built = _count_saturators(monkeypatch)
    for seed in ("110", "100"):
        assert ad_closure({seed}, au, cfg, stop_targets=both, _pairs=pairs) is flipped
    assert built == []
    # A stop that is not flip-closed, a run that takes the route to 01, a
    # generated ambient (gen:01,10 is flip-closed, but not by kind), a
    # palindrome, whose flip is its dual, and a seed set that flip keeps
    # file the run alone.
    for ambient, seeds, stop in [(au, {"001"}, {"0011"}), (au, {"001"}, {"01"}),
                                 (Ambient("gen", both), {"0101"}, both),
                                 (au, {"010"}, both), (au, {"0011", "1100"}, both)]:
        result, pairs = memo(ambient, seeds, stop)
        gens = frozenset({*seeds, *map(involute, seeds)})
        assert list(pairs) == [gens] and pairs[gens][0] == stop, seeds
        assert pairs[gens][1] is result, seeds  # not an equal flipped closure


def test_a_record_is_shared_only_with_its_closure(monkeypatch):
    # When ad_closure shares no run, the second seed of a pair builds and
    # replays its own record, which is the same as the shared one.
    cfg = small_cfg(work_len=8, report_len=4, ad_len=4, seed_len=3)
    witnessed = []
    witness_entries = normality.witness_entries

    def counted(result, words, view):
        witnessed.extend(words)
        return witness_entries(result, words, view)

    monkeypatch.setattr(normality, "witness_entries", counted)
    shared = check_circle_corollary(cfg)
    shared_witnessed = len(witnessed)
    ad_closure = normality.ad_closure

    def unshared(*args, _pairs=None, **kwargs):
        return ad_closure(*args, **kwargs)

    monkeypatch.setattr(normality, "ad_closure", unshared)
    witnessed.clear()
    assert check_circle_corollary(cfg) == shared
    assert len(witnessed) > shared_witnessed


def _ad_closure_ends(monkeypatch) -> list:
    """(seed, end) for each ad_closure call, in call order: "dual" when it
    returns an earlier call's closure, "flip" for a flipped closure in
    closed form (no Saturator run made it: no _engine), "fork" for a run
    that forked its base's run, else "run"."""
    ends, results, forks = [], [], []
    ad_closure, fork = normality.ad_closure, Saturator.fork

    def recorded(seeds, *args, **kwargs):
        forks.clear()
        result = ad_closure(seeds, *args, **kwargs)
        end = ("dual" if any(result is r for r in results)
               else "flip" if not hasattr(result, "_engine") else "fork" if forks else "run")
        results.append(result)
        ends.append((next(iter(seeds)), end))  # a sweep calls with one seed
        return result

    monkeypatch.setattr(normality, "ad_closure", recorded)
    monkeypatch.setattr(Saturator, "fork", lambda *args: forks.append(1) or fork(*args))
    return ends


@pytest.mark.parametrize(
    "ambient, work_len, report_len, seed_len, calls, shared, forked, flipped",
    [pytest.param(Ambient("pu"), 10, 6, 6, 28, 8, ["000111"], ["111000"],
                  id="pu-fixpoint"),
     pytest.param(Ambient("pu"), 12, 4, 6, 28, 7, [], [], id="pu-targets"),
     pytest.param(None, 10, 4, 5, 62, 28, [], [], id="au-circle")],
)
def test_bench_sweeps_share_their_runs(monkeypatch, ambient, work_len, report_len,
                                       seed_len, calls, shared, forked, flipped):
    # The benchmark's three sweep shapes (perfbench/run.py at ad_len 8): how
    # each ad_closure call ends, the root's included.  A change that stops
    # sharing runs fails here, not only in bench time.
    ends = _ad_closure_ends(monkeypatch)
    _library_sweep(ambient, small_cfg(work_len, report_len, ad_len=8, seed_len=seed_len))
    assert len(ends) == calls
    assert sum(end in ("dual", "flip") for _, end in ends) == shared
    assert [seed for seed, end in ends if end == "fork"] == forked
    assert [seed for seed, end in ends if end == "flip"] == flipped


# --------------------------------------------------------------------------
# warm start: a seed outside a saturated root starts from the root's
# fixpoint, against the sweep in which it saturates cold


def _without_trees(doc):
    """A report's JSON with the tree of every sampled certificate left out."""
    return {**doc, "seeds": [
        {**r, "certificates": [{k: v for k, v in c.items() if k != "certificate"}
                               for c in r["certificates"]]}
        for r in doc["seeds"]
    ]}


def _assert_certificates_replay(rec, oracle, cfg):
    """Every sampled certificate of a seed's JSON record reads verified and
    replays from the seed and its dual under the benchmark's oracle."""
    gens = {rec["seed"], oracle.dual(rec["seed"])}
    for c in rec["certificates"]:
        assert c["verified"] is True, (cfg.to_json(), rec["seed"])
        replayed = oracle.certificate_word(c["certificate"], gens)
        assert replayed is not None and format_word(replayed) == c["word"]


def _assert_warm_matches_cold(ambient, cfg, oracle):
    """The library's sweep equals cold_check's but for the certificate
    trees of warm-started seeds, and every sampled certificate replays
    under the benchmark's oracle.  Returns (warm-started records, records
    whose trees differ), or None when both sweeps refuse alike."""
    got = _json_or_error(lambda: _library_sweep(ambient, cfg))
    want = _json_or_error(lambda: _oracle_sweep(ambient, cfg, cold_check))
    if not isinstance(got, dict):
        assert got == want, cfg.to_json()
        return None
    assert _without_trees(got) == _without_trees(want), cfg.to_json()
    # The root's record ends at its fixpoint exactly when the root is saturated.
    root_saturated = any(r["seed"] == "01" and r["end"] == "fixpoint"
                         for r in got["seeds"])
    warm = changed = 0
    for rec, cold in zip(got["seeds"], want["seeds"]):
        _assert_certificates_replay(rec, oracle, cfg)
        if root_saturated and rec["seed"] != "01" and rec["end"] != "descent":
            warm += 1
        else:
            assert rec == cold, (cfg.to_json(), rec["seed"])
        changed += rec != cold
    return warm, changed


@_SMALL_SWEEPS
def test_warm_start_matches_cold_check(ambient, sweeps):
    # Every refusal too, with the same message.
    oracle = bench_oracle()
    done = warm = changed = 0
    for cfg in _small_cfgs():
        got = _assert_warm_matches_cold(ambient, cfg, oracle)
        if got is not None:
            warm, changed = warm + got[0], changed + got[1]
            done += 1
    assert done == sweeps
    # Every grid has warm-started seeds, and in au and pu some of their
    # trees differ from the cold run's; in the generated ambients none does.
    assert warm > 0
    assert changed > 0 or ambient.kind == "gen"


@pytest.mark.parametrize(
    "ambient, work_len, seed_len",
    _ACCEPTANCE_CASES
    + [pytest.param(Ambient("pu"), 10, 6, id="pu-fixpoint")],
)
def test_warm_start_matches_cold_check_at_acceptance_bounds(
    ambient, work_len, seed_len
):
    # At work_len 10 and 12 the pu root saturates and 000111 and 111000 are
    # warm-started; the sampled trees of both differ: each reaches 01 by the
    # closed-form route in the warm run and by the search in the cold one.
    # At work_len 14 the root reaches its targets, and in the circle check it
    # holds them.
    cfg = small_cfg(work_len, report_len=6, ad_len=8, seed_len=seed_len)
    got = _assert_warm_matches_cold(ambient, cfg, bench_oracle())
    assert got == ((2, 2) if ambient is not None and work_len < 14 else (0, 0))


def _recorded_runs(monkeypatch) -> tuple[list, list]:
    """(saturator, the steps its run processed, the products it evaluated)
    per Saturator run, and (the saturator forked, the fork) per fork.  A
    fork is recorded whichever saturator it copies, the root's included."""
    runs, forks = [], []

    class Recorded(Saturator):
        def run(self, ad_scan=None):
            runs.append((self, [], []))
            return super().run(ad_scan)

        def _partners(self, i):
            runs[-1][1].append(i)
            return super()._partners(i)

        def _absorb(self, x, y):
            runs[-1][2].append((x, y))
            return super()._absorb(x, y)

    fork = Saturator.fork

    def recorded_fork(self, generators, targets, steps):
        sat = fork(self, generators, targets, steps)
        sat.__class__ = Recorded
        forks.append((self, sat))
        return sat

    monkeypatch.setattr(normality, "Saturator", Recorded)
    monkeypatch.setattr(Saturator, "fork", recorded_fork)
    return runs, forks


@pytest.mark.parametrize(
    "ambient, seed, work_len, ad_len",
    [
        (Ambient("pu"), "000111", 10, 8),
        (Ambient("pu"), "111000", 10, 8),
        (Ambient("pu"), "000111", 12, 8),
        (Ambient("pu"), "111000", 12, 8),
        # Without conjugators the closure of 10 never derives 01.
        (Ambient("au"), "10", 8, 0),
    ],
    ids=["pu-000111-10", "pu-111000-10", "pu-000111-12", "pu-111000-12",
         "au-10-never-derives-01"],
)
def test_warm_closure_matches_cold(monkeypatch, ambient, seed, work_len, ad_len):
    cfg = small_cfg(work_len, report_len=6, ad_len=ad_len, seed_len=6)
    view = AmbientView(ambient, cfg.closure)
    targets = set(view.simples(6))
    root = ad_closure({"01"}, ambient, cfg, stop_targets=targets, _view=view)
    assert root.saturated
    cold = ad_closure({seed}, ambient, cfg, stop_targets=targets, _view=view)
    runs, forks = _recorded_runs(monkeypatch)
    warm = ad_closure({seed}, ambient, cfg, stop_targets=targets, _view=view,
                      _base=root)
    assert warm.members == cold.members and warm.saturated == cold.saturated
    (descent, _, _), *rest = runs
    if "01" not in cold.members:  # the first run is the exact fixpoint
        assert rest == [] and forks == [] and warm.provenance is descent.provenance
        assert warm.stats == cold.stats
        return
    # The second run is a fork of the root's run.  It lists the root's words
    # first, in the root's order, and processes none of them; stats count
    # the products of both runs.
    ((second, steps, _),) = rest
    assert forks == [(root._engine, second)]
    closed = len(root.provenance)
    assert list(second.provenance)[:closed] == list(root.provenance)
    assert steps[0] == closed
    assert warm.stats["products"] == sum(len(products) for *_, products in runs)
    assert warm.stats["products"] < cold.stats["products"]
    # 01 is derived from the seed, not a generator, and so are the words
    # derived from it.
    for w in ["01", *sorted(warm.members, key=len)[-20:]]:
        assert verify_certificate_detailed(witness(warm, w), warm.generators)[0], w


def test_two_forks_leave_their_root_untouched():
    # 000111 and 111000 in pu at work_len 10 each fork the saturated root's
    # run.  Each fork equals the rebuild it replaced (ReplaySaturator, which
    # replays the graft through add and indexes the root's words) before and
    # after its run, and reaches its cold closure; the root's run is as it was.
    cfg = small_cfg(work_len=10, report_len=6, ad_len=8, seed_len=6)
    pu = Ambient("pu")
    view = AmbientView(pu, cfg.closure)
    targets = set(view.simples(6))
    root = ad_closure({"01"}, pu, cfg, stop_targets=targets, _view=view)
    engine = root._engine
    state = lambda sat: (list(sat.order), set(sat.members), dict(sat.provenance),
                         sat.remaining, sat._closed, sat.stats,
                         {h: {n: dict(g) for n, g in by_len.items()}
                          for h, by_len in sat._tails.items()})
    before = state(engine)
    scan = partial(normality._conjugations, by_last=view.conjugators_by_last(8),
                   max_len=10)
    for seed in ("000111", "111000"):
        steps = ad_closure({seed}, pu, cfg, stop_targets=root.generators,
                           _view=view).provenance
        assert "01" in steps
        fork = engine.fork({seed}, targets, steps)
        rebuilt = ReplaySaturator(cfg.closure, {seed}, targets,
                                  {**root.provenance, **steps}, len(root.provenance))
        assert state(fork) == state(rebuilt) and fork.generators == rebuilt.generators
        fork.run(ad_scan=scan)
        rebuilt.run(ad_scan=scan)
        assert state(fork) == state(rebuilt)
        cold = ad_closure({seed}, pu, cfg, stop_targets=targets, _view=view)
        assert fork.members == set(cold.members)
        assert not fork.done() and cold.saturated
    assert state(engine) == before


def test_ad_closure_refuses_an_unsaturated_base():
    # Filing an open set as processed would drop the products of its pairs.
    cfg = small_cfg(work_len=10, report_len=6, ad_len=8, seed_len=6)
    pu = Ambient("pu")
    root = ad_closure({"01"}, pu, cfg, stop_targets={"0011"})
    assert not root.saturated
    with pytest.raises(ValueError, match="must be saturated"):
        ad_closure({"000111"}, pu, cfg, stop_targets={"000111"}, _base=root)


# --------------------------------------------------------------------------
# the closed-form route to 01, against the search it replaced


def _assert_route_matches_search(ambient, cfg, oracle) -> bool:
    """The library's sweep equals search_check's but for certificate trees,
    and every sampled certificate replays under the benchmark's oracle.
    Returns False when both sweeps refuse alike."""
    got = _json_or_error(lambda: _library_sweep(ambient, cfg))
    search = partial(search_check, cert_samples=3)
    want = _json_or_error(lambda: _oracle_sweep(ambient, cfg, search))
    if not isinstance(got, dict):
        assert got == want, cfg.to_json()
        return False
    assert _without_trees(got) == _without_trees(want), cfg.to_json()
    for rec in got["seeds"]:
        _assert_certificates_replay(rec, oracle, cfg)
    return True


@_SMALL_SWEEPS
def test_route_matches_search_check(ambient, sweeps):
    # Statuses, ends, missing lists and sampled words, and every refusal
    # with the same message.
    oracle = bench_oracle()
    assert sum(_assert_route_matches_search(ambient, cfg, oracle)
               for cfg in _small_cfgs()) == sweeps


@pytest.mark.parametrize(
    "ambient, work_len, report_len, seed_len",
    [
        pytest.param(Ambient("pu"), 12, 6, 6, id="criterion-6"),
        pytest.param(Ambient("pu"), 14, 6, 6, id="criterion-6-supplement"),
        pytest.param(None, 12, 6, 5, id="criterion-8"),
        # The benchmark's three sweeps (perfbench/run.py WORKLOADS argv).
        pytest.param(Ambient("pu"), 10, 6, 6, id="bench-pu-fixpoint"),
        pytest.param(Ambient("pu"), 12, 4, 6, id="bench-pu-targets"),
        pytest.param(None, 10, 4, 5, id="bench-au-circle"),
    ],
)
def test_route_matches_search_check_at_acceptance_and_bench_bounds(
    ambient, work_len, report_len, seed_len
):
    cfg = small_cfg(work_len, report_len, ad_len=8, seed_len=seed_len)
    assert _assert_route_matches_search(ambient, cfg, bench_oracle())


def _assert_route(seed, ambient, work_len, ad_len):
    """The closed-form route of a seed is absent exactly when 01 exceeds
    work_len, or the seed is 1...0 and 011001 exceeds work_len or 01 ad_len.
    Otherwise a run to 01 evaluates nothing, and its 01 replays from the seed
    and its dual under verify_certificate_detailed and the benchmark's oracle."""
    cfg = small_cfg(work_len, report_len=0, ad_len=ad_len, seed_len=0)
    view = AmbientView(ambient, cfg.closure)
    gens = {seed, involute(seed)}
    route = normality._route(gens, view.conjugators_by_last(ad_len), work_len)
    absent = work_len < 2 or (
        seed[0] == "1" and seed[-1] == "0" and (work_len < 6 or ad_len < 2))
    assert (route is None) == absent, (seed, work_len, ad_len)
    if absent:
        return
    if work_len <= 10:  # a search to the fixpoint derives 01 too
        searched = search_ad_closure({seed}, ambient, cfg, stop_targets={ROOT})
        assert ROOT in searched.members, (seed, work_len, ad_len)
    result = ad_closure({seed}, ambient, cfg, stop_targets={ROOT}, _view=view)
    stats = result.stats
    assert (stats["products"], stats["ad_steps"], result.saturated) == (0, 0, False)
    _assert_route_run_matches_replay(seed, view, cfg, route, result._engine)
    cert = witness(result, ROOT)
    assert verify_certificate_detailed(cert, gens)[0], seed
    assert bench_oracle().certificate_word(cert, gens) == ROOT


def _assert_route_run_matches_replay(seed, view, cfg, route, sat):
    """The run of ad_closure({seed}) to {01}, which lays the route after the
    generators, equals the run that replayed it as a base before them
    (ReplaySaturator) in members, generators, provenance, stats and remaining.
    Only order may differ: the route's words now follow the generators."""
    replay = ReplaySaturator(cfg.closure, {seed}, {ROOT}, base=route, closed=0)
    replay.run(ad_scan=partial(normality._conjugations, max_len=cfg.closure.work_len,
                               by_last=view.conjugators_by_last(cfg.ad_len)))
    assert sat.members == replay.members and sat.generators == replay.generators, seed
    assert sat.provenance == replay.provenance, seed
    assert (sat.stats, sat.remaining) == (replay.stats, replay.remaining), seed


@pytest.mark.parametrize("ambient, routes", [
    (Ambient("au"), 2227), (Ambient("pu"), 429),
    (Ambient("gen", {"01", "10"}), 366), (Ambient("gen", {"0011"}), 225),
], ids=["au", "pu", "gen-01-10", "gen-0011"])
def test_route_run_matches_replay_on_the_sweep_grid(ambient, routes):
    # Every seed of every small sweep bound (_small_cfgs) whose route fits.
    done = 0
    for cfg in _small_cfgs():
        try:
            view = AmbientView(ambient, cfg.closure)
        except ValueError:  # a generator beyond work_len
            continue
        by_last = view.conjugators_by_last(cfg.ad_len)
        for seed in view.simples(min(cfg.seed_len, cfg.closure.work_len))[1:]:
            route = normality._route({seed, involute(seed)}, by_last, cfg.closure.work_len)
            if route is not None:
                result = ad_closure({seed}, ambient, cfg, stop_targets={ROOT}, _view=view)
                _assert_route_run_matches_replay(seed, view, cfg, route, result._engine)
                done += 1
    assert done == routes


_AU_SEEDS = st.text("01", min_size=1, max_size=64).map(lambda s: ("au", s))
_PU_SEEDS = st.integers(1, 32).flatmap(
    lambda n: st.permutations("0" * n + "1" * n)).map(lambda p: ("pu", "".join(p)))


@settings(deadline=None)
@given(st.one_of(_AU_SEEDS, _PU_SEEDS), st.integers(0, 6), st.integers(0, 4))
@example(("au", "0"), 0, 0)  # 01 exceeds work_len 1
@example(("au", "10"), 3, 2)  # 011001 exceeds work_len 5
@example(("au", "10"), 4, 1)  # 01 exceeds ad_len 1
@example(("au", "10"), 4, 2)
@example(("pu", "111000"), 0, 2)
@example(("au", "01"), 0, 0)  # 01 is a generator: the route is empty
def test_route_replays_from_the_seed_and_its_dual(ambient_seed, room, ad_len):
    kind, seed = ambient_seed
    work_len = len(seed) + room
    _assert_route(seed, Ambient.parse(kind), work_len, min(ad_len, work_len))


def test_reachable_targets_are_computed_once_per_degree(monkeypatch):
    # An ad-closure's certified absences depend only on its seed's |degree|:
    # every word up to length 8 gets the answers of the first word of its
    # |degree| for every target up to length 6.  So the sweep asks once per
    # |degree| and target: six degrees for the seeds up to length 5.
    targets = words_up_to(6)
    by_degree = {}
    for s in words_up_to(8)[1:]:
        got = [certified_absence({s}, t, is_ad=True) for t in targets]
        assert by_degree.setdefault(abs(degree(s)), got) == got, s
    asked = []

    def counted(generators, w, is_ad):
        asked.append(w)
        return certified_absence(generators, w, is_ad)

    monkeypatch.setattr(normality, "certified_absence", counted)
    cfg = small_cfg(work_len=10, report_len=4, ad_len=8, seed_len=5)
    check_circle_corollary(cfg)
    assert len(asked) == 6 * len(balanced_words_up_to(4))


# --------------------------------------------------------------------------
# the flip step: the root's search grafts 10 and saturates modulo flip


def _assert_orbits_contiguous(order):
    """order runs through whole flip orbits {r, r*, flip r*, flip r}, each
    in that order, shorter where r is self-dual or a palindrome."""
    i = 0
    while i < len(order):
        r = order[i]
        orbit = list(dict.fromkeys([r, involute(r), flip(involute(r)), flip(r)]))
        assert order[i:i + len(orbit)] == orbit, (i, r)
        i += len(orbit)


@pytest.mark.parametrize("stop", [False, True], ids=["fixpoint", "targets"])
@pytest.mark.parametrize("work_len", [6, 8, 10, 12])
@pytest.mark.parametrize("kind", ["au", "pu"])
def test_root_flip_step_reaches_the_flip_free_fixpoint(monkeypatch, kind, work_len, stop):
    # The root's run from 01 takes the flip step.  It ends as the engine
    # before the flip step does: at the same fixpoint, or holding every
    # target, with fewer products.  Its order starts with the graft
    # and runs through whole orbits, it equals the two-index engine's step
    # by step, and every member's certificate replays from 01 alone.
    ambient = Ambient.parse(kind)
    cfg = small_cfg(work_len, report_len=4, ad_len=min(8, work_len), seed_len=0)
    targets = set(balanced_words_up_to(4)) if stop else None
    old = flip_free_ad_closure({ROOT}, ambient, cfg, targets)
    traces = []
    for engine in (Saturator, TwoIndexSaturator):
        steps = []
        monkeypatch.setattr(normality, "Saturator", recording(engine, steps))
        new = ad_closure({ROOT}, ambient, cfg, stop_targets=targets)
        traces.append((list(new.provenance.items()), new.stats, new.saturated, steps))
    assert traces[0] == traces[1]
    assert new.saturated == old.result(is_ad=True).saturated
    if new.saturated:
        assert new.members == old.members
    else:
        assert targets <= new.members and targets <= old.members
    assert new.stats["products"] < old.stats["products"]
    order = list(new.provenance)
    assert order[:5] == ["", ROOT, "10", "100110", "011001"]
    _assert_orbits_contiguous(order)
    oracle = bench_oracle()
    for w in order:
        cert = witness(new, w)
        assert oracle.certificate_word(cert, {ROOT}) == w, w


_GRAFT_CASES = [
    ("pu", {ROOT}, 6, 2, None, True),
    ("au", {ROOT}, 6, 2, {"0011"}, True),
    # The graft would derive every target: the run scans 01 instead.
    ("pu", {ROOT}, 6, 2, {"", ROOT, "10"}, False),
    ("pu", {ROOT}, 6, 2, {ROOT, "10"}, False),
    ("pu", {ROOT}, 5, 2, None, False),  # 100110 exceeds work_len
    ("pu", {ROOT}, 6, 1, None, False),  # 10 is no conjugator
    ("gen:01,10", {ROOT}, 6, 2, None, False),
    ("au", {"0011"}, 6, 2, None, False),
    ("au", {ROOT, "0011"}, 6, 2, None, False),
]


@pytest.mark.parametrize("kind, seeds, work_len, ad_len, targets, grafts", _GRAFT_CASES)
def test_only_a_search_from_the_root_grafts_10(kind, seeds, work_len, ad_len, targets,
                                                grafts):
    cfg = small_cfg(work_len, report_len=0, ad_len=ad_len, seed_len=0)
    result = ad_closure(seeds, Ambient.parse(kind), cfg, stop_targets=targets)
    assert (list(result.provenance)[:5] == ["", ROOT, "10", "100110", "011001"]) == grafts
    if targets:  # a run to targets scans a member: the bench's tracer needs one
        assert result.stats["ad_steps"] > 0
