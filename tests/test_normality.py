import pytest

from freefusion.closure import (
    ClosureConfig,
    Saturator,
    enumerate_words,
    generate,
    member,
    verify_certificate,
    witness,
)
from freefusion.fusion import mul_many
from freefusion import normality
from freefusion.normality import (
    AdConfig,
    Ambient,
    AmbientView,
    ad_candidates,
    ad_closure,
    check_circle_corollary,
    check_simplicity,
    find_invertibles,
)
from freefusion.words import format_word, involute

from helpers import (
    IndexedSaturator,
    TwoIndexSaturator,
    balanced_words_up_to,
    bench_oracle,
    cold_check,
    direct_check,
    engine_ad_closure,
    memo_terms,
    pairwise_ad_closure,
    recording,
    scan_conjugations,
    unshared_check,
    words_up_to,
)


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
    with pytest.raises(ValueError):
        Ambient.parse("zz")
    with pytest.raises(ValueError):
        Ambient.parse("gen:")


def test_ambient_views():
    au = AmbientView(Ambient.full_au(), ClosureConfig(work_len=6, report_len=4))
    pu = AmbientView(Ambient.projective_pu(), ClosureConfig(work_len=6, report_len=4))
    assert au.contains("001") and not pu.contains("001")
    assert pu.simples(2) == ["", "01", "10"]
    assert au.count(4) == len(words_up_to(4))
    assert pu.count(6) == len(balanced_words_up_to(6))
    gen = AmbientView(
        Ambient.generated({"01", "10"}), ClosureConfig(work_len=8, report_len=4)
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
    # Without dual closure an ad-closure can leave its ambient: in
    # gen:0,01 at work_len 8 the seed 0001 derives 000011.
    no_dual = ClosureConfig(work_len=8, report_len=4, require_dual_closure=False)
    with pytest.raises(ValueError, match="dual closure"):
        AdConfig(closure=no_dual, ad_len=4, seed_len=4)


def test_ad_rule_matches_scan_exhaustively():
    # y * x * y* is a single simple exactly when x[0] != x[-1] and y ends
    # in x[0]: all words x up to length 7, conjugators up to length 5.
    conjugators = [y for y in words_up_to(5) if y]
    for x in words_up_to(7):
        got = ad_candidates(x, Ambient.full_au(), 5)
        assert got == set(scan_conjugations(x, conjugators)), x
        assert got == {
            (y, y + x + involute(y))
            for y in conjugators
            if x and x[0] != x[-1] and y[-1] == x[0]
        }, x


def test_conjugator_table_built_once_per_sweep(monkeypatch):
    view = AmbientView(Ambient.projective_pu(), ClosureConfig())
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
    assert len(report.seeds) == 14
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
        (Ambient.projective_pu(), _PU_ORACLE),
        (Ambient.full_au(), _AU_ORACLE),
        (Ambient.generated({"01", "10"}), _GEN_ORACLE),
        # Neither au nor pu: 32 of the 2,047 words within work_len 10.
        (Ambient.generated({"0011"}), _GEN_ORACLE),
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
    [Ambient.projective_pu(), Ambient.full_au(), Ambient.generated({"01", "10"})],
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
        old = pairwise_ad_closure({"001110"}, Ambient.projective_pu(), cfg)
    finally:
        memo_terms.cache_clear()
    new = ad_closure({"001110"}, Ambient.projective_pu(), cfg)
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
            IndexedSaturator, {"001110"}, Ambient.projective_pu(), cfg
        )
    finally:
        memo_terms.cache_clear()
    new = ad_closure({"001110"}, Ambient.projective_pu(), cfg)
    assert new.members == old.members
    assert new.stats["members"] == len(old.provenance)
    assert new.stats["products"] < old.stats["products"]


def test_ad_candidates_examples():
    got = ad_candidates("01", Ambient.full_au(), 2)
    assert ("10", "100110") in got
    got1 = ad_candidates("01", Ambient.full_au(), 1)
    assert ("0", "0011") in got1
    assert ad_candidates("", Ambient.full_au(), 2) == set()


def test_ad_candidates_sound():
    for x in ("01", "0011", "0"):
        for y, z in ad_candidates(x, Ambient.full_au(), 3):
            assert mul_many([{y: 1}, {x: 1}, {involute(y): 1}]) == {z: 1}


def test_ad_candidates_right_orientation_covered():
    # involute(y) * x * y results appear as left conjugations by involute(y)
    x = "01"
    got = ad_candidates(x, Ambient.full_au(), 3)
    for y, _ in got:
        prod = mul_many([{involute(y): 1}, {x: 1}, {y: 1}])
        if len(prod) == 1 and set(prod.values()) == {1}:
            (z,) = prod
            assert (involute(y), z) in got


def test_ad_closure_examples():
    cl = ad_closure({"01"}, Ambient.full_au(), small_cfg())
    assert "100110" in cl.members
    assert "10" in cl.members
    cl = ad_closure(set(), Ambient.full_au(), small_cfg())
    assert cl.members == {""}
    cl = ad_closure({"0011"}, Ambient.projective_pu(), small_cfg(work_len=10))
    for w in balanced_words_up_to(4):
        assert w in cl.members


def test_ad_closure_rejects_bad_seed():
    with pytest.raises(ValueError):
        ad_closure({"001"}, Ambient.projective_pu(), small_cfg())
    with pytest.raises(ValueError):
        ad_closure({"0101010101"}, Ambient.full_au(), small_cfg(work_len=8))


def test_ad_closure_ambient_confined():
    cl = ad_closure({"0011"}, Ambient.projective_pu(), small_cfg(work_len=10))
    for w in cl.members:
        assert w.count("0") * 2 == len(w)
    amb = Ambient.generated({"01", "10"})
    view = AmbientView(amb, ClosureConfig(work_len=10, report_len=4))
    cl = ad_closure({"01"}, amb, small_cfg(work_len=10))
    for w in cl.members:
        assert view.contains(w)


def test_ad_closure_monotone():
    base = ad_closure({"01"}, Ambient.projective_pu(), small_cfg(work_len=10))
    more_seeds = ad_closure(
        {"01", "0011"}, Ambient.projective_pu(), small_cfg(work_len=10)
    )
    assert base.members <= more_seeds.members
    longer_ad = ad_closure(
        {"01"}, Ambient.projective_pu(), small_cfg(work_len=10, ad_len=6)
    )
    assert base.members <= longer_ad.members
    longer_work = ad_closure(
        {"01"}, Ambient.projective_pu(), small_cfg(work_len=12)
    )
    assert base.members <= longer_work.members


def test_ad_closure_members_certified():
    cl = ad_closure({"01"}, Ambient.full_au(), small_cfg())
    for w in sorted(cl.members)[:20]:
        assert verify_certificate(witness(cl, w), cl.generators)


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
            {seed}, Ambient.projective_pu(), cfg, stop_targets=targets
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
    plain = generate({"01"}, ClosureConfig(work_len=12, report_len=6))
    cands = ad_candidates("01", Ambient.generated({"01", "10"}), 6)
    assert any(z not in plain.members for _, z in cands)


def test_find_invertibles():
    assert find_invertibles(0) == [""]
    assert find_invertibles(6) == [""]
    with pytest.raises(ValueError, match="max_len"):
        find_invertibles(-2)


def test_check_simplicity_generated_small():
    report = check_simplicity(
        Ambient.generated({"01", "10"}),
        AdConfig(closure=ClosureConfig(work_len=10, report_len=4), ad_len=6,
                 seed_len=4),
    )
    assert report.passed
    assert all(r.status == "pass" for r in report.seeds)
    for r in report.seeds:
        for entry in r.certificates:
            assert entry["verified"]


def test_check_simplicity_full_au_fails_on_unbalanced_targets():
    report = check_simplicity(
        Ambient.full_au(),
        AdConfig(closure=ClosureConfig(work_len=8, report_len=2), ad_len=4,
                 seed_len=2),
    )
    assert report.verdict == "fail"
    by_seed = {r.seed: r for r in report.seeds}
    # balanced seeds can never reach unbalanced targets: degree-certified
    assert set(by_seed["01"].missing_certified) == {"0", "1", "00", "11"}
    assert by_seed["01"].status == "fail"
    # unbalanced seeds reach everything of length <= 2
    assert by_seed["0"].status == "pass"


def test_check_simplicity_inconclusive_is_not_pass():
    report = check_simplicity(
        Ambient.projective_pu(),
        AdConfig(closure=ClosureConfig(work_len=4, report_len=2), ad_len=2,
                 seed_len=2),
    )
    assert report.verdict == "inconclusive"
    assert all(r.status in ("pass", "inconclusive") for r in report.seeds)
    assert any(r.missing_within_bound for r in report.seeds)


def test_check_circle_small():
    report = check_circle_corollary(
        AdConfig(closure=ClosureConfig(work_len=8, report_len=4), ad_len=4,
                 seed_len=2),
    )
    assert report.passed
    assert len(report.seeds) == 6  # 0,1,00,01,10,11


def test_empty_seed_sweep_is_rejected():
    cfg = AdConfig(
        closure=ClosureConfig(work_len=8, report_len=4), ad_len=4, seed_len=0
    )
    with pytest.raises(ValueError, match="no seeds"):
        check_simplicity(Ambient.projective_pu(), cfg)
    with pytest.raises(ValueError, match="no seeds"):
        check_circle_corollary(cfg)


def test_cert_samples_must_be_nonnegative():
    cfg = small_cfg(seed_len=1)
    with pytest.raises(ValueError, match="cert_samples"):
        check_circle_corollary(cfg, cert_samples=-1)
    with pytest.raises(ValueError, match="cert_samples"):
        check_simplicity(Ambient.projective_pu(), small_cfg(seed_len=2),
                         cert_samples=-1)
    report = check_circle_corollary(cfg, cert_samples=0)
    assert report.seeds and all(r.certificates == [] for r in report.seeds)


def test_seed_len_beyond_work_len_is_rejected_before_saturating(monkeypatch):
    # A pu seed of length 8 cannot be a generator at work_len 6, so the
    # sweep must stop before it enumerates or saturates any seed.
    def unreachable(*args, **kwargs):
        raise AssertionError("a seed was saturated")

    monkeypatch.setattr(normality, "ad_closure", unreachable)
    cfg = small_cfg(work_len=6, report_len=2, ad_len=2, seed_len=8)
    with pytest.raises(ValueError, match="seed_len 8 exceeds work_len 6"):
        check_simplicity(Ambient.projective_pu(), cfg)


# --------------------------------------------------------------------------
# descent to the root seed 01, against the per-seed sweep it replaced


def _assert_matches_direct(report, direct):
    assert report.verdict == direct.verdict
    assert [r.seed for r in report.seeds] == [r.seed for r in direct.seeds]
    for got, want in zip(report.seeds, direct.seeds):
        assert got.status == want.status, got.seed
        assert got.missing_certified == want.missing_certified, got.seed
        assert got.missing_within_bound == want.missing_within_bound, got.seed
        assert ([c["word"] for c in got.certificates]
                == [c["word"] for c in want.certificates]), got.seed
        assert all(c["verified"] for c in got.certificates), got.seed


def _oracle_sweep(ambient, cfg, oracle):
    """oracle(name, view, cfg, targets) for check_simplicity in ambient, or
    for check_circle_corollary when ambient is None."""
    if ambient is None:
        view = AmbientView(Ambient.full_au(), cfg.closure)
        targets = enumerate_words("balanced", cfg.closure.report_len)
        return oracle("circle-corollary", view, cfg, targets)
    view = AmbientView(ambient, cfg.closure)
    return oracle("simplicity", view, cfg, view.simples(cfg.closure.report_len))


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
        (Ambient.full_au(), 201),
        (Ambient.projective_pu(), 151),
        (Ambient.generated({"01", "10"}), 159),
        (Ambient.generated({"0011"}), 135),
        (None, 201),
    ],
    ids=["au", "pu", "gen-01-10", "gen-0011", "circle"],
)
_ACCEPTANCE_CASES = [
    pytest.param(Ambient.projective_pu(), 12, 6, id="criterion-6"),
    pytest.param(Ambient.projective_pu(), 14, 6, id="criterion-6-supplement"),
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
    report = check_simplicity(Ambient.projective_pu(), cfg)
    own = {"01", "000111", "111000"}
    assert {r.seed: r.end for r in report.seeds} == {
        r.seed: "fixpoint" if r.seed in own else "descent" for r in report.seeds
    }
    assert len(report.seeds) == 28


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
    report, direct = _sweep_and_direct(Ambient.full_au(), cfg)
    _assert_matches_direct(report, direct)
    assert stops["10"] == stop_10
    assert {r.seed: r.end for r in report.seeds}["10"] == "fixpoint"


# --------------------------------------------------------------------------
# dual pairs: a seed and its dual share one run, against the unshared sweep


def _json_or_error(sweep):
    """The report's JSON, or the message of the ValueError that refused it."""
    try:
        return sweep().to_json()
    except ValueError as exc:
        return str(exc)


@_SMALL_SWEEPS
def test_dual_pairs_match_unshared_sweep(ambient, sweeps):
    # Every record, byte for byte, and every refusal (no seeds, or seeds
    # beyond work_len) with the same message.
    done = 0
    for cfg in _small_cfgs():
        got = _json_or_error(lambda: _library_sweep(ambient, cfg))
        assert got == _json_or_error(
            lambda: _oracle_sweep(ambient, cfg, unshared_check)), cfg.to_json()
        done += isinstance(got, dict)
    assert done == sweeps


@_ACCEPTANCE_SWEEPS
def test_dual_pairs_match_unshared_sweep_at_acceptance_bounds(
    ambient, work_len, seed_len
):
    cfg = small_cfg(work_len, report_len=6, ad_len=8, seed_len=seed_len)
    assert (_library_sweep(ambient, cfg).to_json()
            == _oracle_sweep(ambient, cfg, unshared_check).to_json())


def _count_saturators(monkeypatch) -> list:
    built = []

    class Counted(Saturator):
        def __init__(self, config, generators=(), targets=None, base=None,
                     closed=0):
            built.append(set(generators))
            super().__init__(config, generators, targets, base, closed)

    monkeypatch.setattr(normality, "Saturator", Counted)
    return built


def test_ad_closure_without_memo_builds_a_saturator_per_call(monkeypatch):
    built = _count_saturators(monkeypatch)
    cfg = small_cfg(work_len=8)
    view = AmbientView(Ambient.full_au(), cfg.closure)
    runs = [ad_closure(seeds, Ambient.full_au(), cfg, stop_targets={"01"}, _view=view)
            for seeds in ({"0110"}, {"1001"}, {"0110"})]
    assert built == [{"0110"}, {"1001"}, {"0110"}]
    assert runs[0] is not runs[1] and runs[0] is not runs[2]
    assert runs[0].to_json() == runs[1].to_json() == runs[2].to_json()


def test_memo_shares_one_run_per_dual_pair(monkeypatch):
    built = _count_saturators(monkeypatch)
    cfg = small_cfg(work_len=8)
    view = AmbientView(Ambient.full_au(), cfg.closure)
    pairs = {}

    def run(seed, stop):
        return ad_closure({seed}, Ambient.full_au(), cfg, stop_targets=stop,
                          _view=view, _pairs=pairs)

    first = run("0110", {"01"})
    assert len(pairs) == 1
    assert run("1001", {"01"}) is first  # its dual: no Saturator, entry used
    assert len(built) == 1 and pairs == {}
    run("0011", {"01"})  # self-dual: nothing to share
    assert len(built) == 2 and pairs == {}
    first = run("0110", {"01"})
    other = run("1001", {"01", "0011"})  # other stop targets: a run of its own
    assert len(built) == 4 and other is not first
    assert [r for _, r in pairs.values()] == [other]  # filed for a later dual


def test_a_record_is_shared_only_with_its_closure(monkeypatch):
    # When ad_closure shares no run, the second seed of a pair builds and
    # replays its own record, which is the same as the shared one.
    cfg = small_cfg(work_len=8, report_len=4, ad_len=4, seed_len=3)
    witnessed = []
    witness_entry = normality.witness_entry

    def counted(result, w):
        witnessed.append(w)
        return witness_entry(result, w)

    monkeypatch.setattr(normality, "witness_entry", counted)
    shared = check_circle_corollary(cfg).to_json()
    shared_witnessed = len(witnessed)
    ad_closure = normality.ad_closure

    def unshared(*args, _pairs=None, **kwargs):
        return ad_closure(*args, **kwargs)

    monkeypatch.setattr(normality, "ad_closure", unshared)
    witnessed.clear()
    assert check_circle_corollary(cfg).to_json() == shared
    assert len(witnessed) > shared_witnessed


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
        gens = {rec["seed"], oracle.dual(rec["seed"])}
        for c in rec["certificates"]:
            assert c["verified"] is True, (cfg.to_json(), rec["seed"])
            replayed = oracle.certificate_word(c["certificate"], gens)
            assert replayed is not None and format_word(replayed) == c["word"]
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
    + [pytest.param(Ambient.projective_pu(), 10, 6, id="pu-fixpoint")],
)
def test_warm_start_matches_cold_check_at_acceptance_bounds(
    ambient, work_len, seed_len
):
    # At work_len 10 and 12 the pu root saturates and 000111 and 111000 are
    # warm-started; only 000111's sampled trees differ.  At work_len 14 the
    # root reaches its targets, and in the circle check it holds them.
    cfg = small_cfg(work_len, report_len=6, ad_len=8, seed_len=seed_len)
    got = _assert_warm_matches_cold(ambient, cfg, bench_oracle())
    assert got == ((2, 1) if ambient is not None and work_len < 14 else (0, 0))


def _recorded_runs(monkeypatch) -> list:
    """(saturator, the steps its run processed, the products it evaluated)
    per Saturator run."""
    runs = []

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

    monkeypatch.setattr(normality, "Saturator", Recorded)
    return runs


@pytest.mark.parametrize(
    "ambient, seed, work_len, ad_len",
    [
        (Ambient.projective_pu(), "000111", 10, 8),
        (Ambient.projective_pu(), "111000", 10, 8),
        (Ambient.projective_pu(), "000111", 12, 8),
        (Ambient.projective_pu(), "111000", 12, 8),
        # Without conjugators the closure of 10 never derives 01.
        (Ambient.full_au(), "10", 8, 0),
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
    runs = _recorded_runs(monkeypatch)
    warm = ad_closure({seed}, ambient, cfg, stop_targets=targets, _view=view,
                      _base=root)
    assert warm.members == cold.members and warm.saturated == cold.saturated
    (descent, _, _), *rest = runs
    if "01" not in cold.members:  # the first run is the exact fixpoint
        assert rest == [] and warm.provenance is descent.provenance
        assert warm.stats == cold.stats
        return
    # The second run lists the root's words first, in the root's order, and
    # processes none of them; stats count the products of both runs.
    ((second, steps, _),) = rest
    closed = len(root.provenance)
    assert list(second.provenance)[:closed] == list(root.provenance)
    assert steps[0] == closed
    assert warm.stats["products"] == sum(len(products) for *_, products in runs)
    assert warm.stats["products"] < cold.stats["products"]
    # 01 is derived from the seed, not a generator, and so are the words
    # derived from it.
    for w in ["01", *sorted(warm.members, key=len)[-20:]]:
        assert verify_certificate(witness(warm, w), warm.generators), w


def test_ad_closure_refuses_an_unsaturated_base():
    # Filing an open set as processed would drop the products of its pairs.
    cfg = small_cfg(work_len=10, report_len=6, ad_len=8, seed_len=6)
    pu = Ambient.projective_pu()
    root = ad_closure({"01"}, pu, cfg, stop_targets={"0011"})
    assert not root.saturated
    with pytest.raises(ValueError, match="must be saturated"):
        ad_closure({"000111"}, pu, cfg, stop_targets={"000111"}, _base=root)
