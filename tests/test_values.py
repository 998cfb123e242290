"""The value types against the dataclasses they replaced (tests/helpers.py):
construction, validation, ==, hash and repr must agree.  SeedRecord and
SimplicityReport are the oracle sweeps' copies in tests/helpers.py, as the
library's sweep now returns its report as a JSON dict."""

import dataclasses
from types import SimpleNamespace

import pytest

from freefusion.closure import ClosureConfig, ClosureResult, Membership
from freefusion.normality import AdConfig, Ambient

import helpers
from helpers import SeedRecord, SimplicityReport

NAMES = ["ClosureConfig", "Membership", "ClosureResult", "Ambient", "AdConfig",
         "SeedRecord", "SimplicityReport"]
NEW = SimpleNamespace(
    ClosureConfig=ClosureConfig, Membership=Membership, ClosureResult=ClosureResult,
    Ambient=Ambient, AdConfig=AdConfig, SeedRecord=SeedRecord,
    SimplicityReport=SimplicityReport,
)
OLD = SimpleNamespace(**{name: getattr(helpers, "Old" + name) for name in NAMES})
FROZEN = ["ClosureConfig", "Membership", "Ambient", "AdConfig"]
GUARDED = ["ClosureConfig", "AdConfig", "Ambient", "Membership"]


def samples(t):
    """Representative instances of every type, built from the classes of t,
    positionally, by keyword and with the defaults."""
    prov = {"": ("unit",), "01": ("gen",), "10": ("gen",)}
    record = t.SeedRecord("01", "pass", "targets", [], [], [{"word": "e"}])
    return [
        t.ClosureConfig(),
        t.ClosureConfig(8),
        t.ClosureConfig(8, 4),
        t.ClosureConfig(work_len=6, report_len=6),
        t.Membership("present"),
        t.Membership("absent-certified", "degree"),
        t.Membership(status="absent-certified", reason="prefix-height"),
        t.ClosureResult(frozenset({"01", "10"}), t.ClosureConfig(), True,
                        {"members": 3}, prov),
        t.ClosureResult(frozenset({"01", "10"}), t.ClosureConfig(), True,
                        {"members": 3}, {"": ("unit",)}),
        t.ClosureResult(generators=frozenset(), config=t.ClosureConfig(4, 4),
                        saturated=False, stats={}, provenance={}, is_ad=True),
        t.Ambient("au"),
        t.Ambient("pu"),
        t.Ambient("gen", frozenset({"01", "10"})),
        t.Ambient(kind="gen", gens=frozenset()),
        t.AdConfig(),
        t.AdConfig(t.ClosureConfig(10, 4), 6),
        t.AdConfig(closure=t.ClosureConfig(8), ad_len=4, seed_len=2),
        t.AdConfig(seed_len=0),
        t.SeedRecord("01", "pass", "fixpoint"),
        record,
        t.SeedRecord(seed="0011", status="fail", end="descent",
                     missing_certified=["01"], missing_within_bound=["10"]),
        t.SimplicityReport("simplicity", "pu", t.AdConfig(), [record], "pass"),
        t.SimplicityReport(check="circle-corollary", ambient="au",
                           config=t.AdConfig(), seeds=[], verdict="fail"),
    ]


def old_repr(value) -> str:
    return repr(value).replace("Old", "")


def test_samples_cover_every_type():
    assert {type(v).__name__ for v in samples(NEW)} == set(NAMES)


def test_repr_and_fields_match_dataclasses():
    for new, old in zip(samples(NEW), samples(OLD)):
        assert repr(new) == old_repr(old)
        names = [f.name for f in dataclasses.fields(old)]
        assert list(type(new)._fields) == names
        for name in names:  # provenance too, which repr leaves out
            assert repr(getattr(new, name)) == old_repr(getattr(old, name))


class _Hashed(str):
    """A word with a hash of its own, so a set of them iterates in one order
    whatever PYTHONHASHSEED is."""

    def __new__(cls, w: str, h: int):
        word = super().__new__(cls, w)
        word.h = h
        return word

    def __hash__(self):
        return self.h


def test_ambient_keeps_the_order_of_a_set_of_gens():
    # 10 collides with 01 and is probed to an earlier slot; rebuilt from the
    # list of the set's words, 10 takes 01's slot and the order flips, and the
    # repr with it.  Which str hashes collide depends on PYTHONHASHSEED, so the
    # repr test above used to fail at some seeds.
    gens = frozenset([_Hashed("01", 7), _Hashed("10", 15)])
    assert list(gens) == ["10", "01"] and list(frozenset(list(gens))) == ["01", "10"]
    assert repr(Ambient("gen", gens)) == old_repr(helpers.OldAmbient("gen", gens))
    assert Ambient("gen", iter(["01", "10"])) == Ambient("gen", {"01", "10"})


def test_equality_matches_dataclasses_across_types():
    news, olds = samples(NEW), samples(OLD)
    # A second build gives equal values that are not the same objects.
    news2, olds2 = samples(NEW), samples(OLD)
    for i in range(len(news)):
        for j in range(len(news)):
            assert (news[i] == news2[j]) == (olds[i] == olds2[j]), (i, j)
            assert (news[i] != news2[j]) == (olds[i] != olds2[j]), (i, j)
            assert (news[i] == news[j]) == (olds[i] == olds[j]), (i, j)
    assert ClosureConfig() != helpers.OldClosureConfig()


def test_hash_matches_dataclasses():
    for new, old in zip(samples(NEW), samples(OLD)):
        if type(new).__name__ in FROZEN:
            assert hash(new) == hash(old)
        else:  # unhashable by type, whatever the fields hold
            assert type(old).__hash__ is None and type(new).__hash__ is None


def test_defaults_are_class_constants():
    for name in ("ClosureConfig", "AdConfig"):
        new, old = getattr(NEW, name), getattr(OLD, name)
        for f in new._fields:
            assert repr(getattr(new, f)) == old_repr(getattr(old, f))
    # Each record gets lists of its own, as default_factory=list gave it.
    first, second = (SeedRecord("01", "pass", "fixpoint") for _ in range(2))
    assert first.missing_certified is not second.missing_certified


@pytest.mark.parametrize(
    "name, args, kwargs",
    [
        pytest.param("ClosureConfig", (-1,), {}, id="ClosureConfig-args0-kwargs0"),
        pytest.param("ClosureConfig", (-1, -2), {}, id="ClosureConfig-args1-kwargs1"),
        pytest.param("ClosureConfig", (4, 5), {}, id="ClosureConfig-args2-kwargs2"),
        pytest.param("ClosureConfig", (), {"report_len": -1},
                     id="ClosureConfig-args3-kwargs3"),
        pytest.param("AdConfig", (), {"closure": "SHORT"}, id="AdConfig-args4-kwargs4"),
        pytest.param("AdConfig", ("SHORT", 6), {}, id="AdConfig-args5-kwargs5"),
        pytest.param("AdConfig", (), {"ad_len": -1}, id="AdConfig-args6-kwargs6"),
        pytest.param("AdConfig", (), {"seed_len": -1}, id="AdConfig-args7-kwargs7"),
        pytest.param("AdConfig", ("SHORT",), {"ad_len": 5, "seed_len": -1},
                     id="AdConfig-args8-kwargs8"),
    ],
)
def test_validation_messages_match_dataclasses(name, args, kwargs):
    def build(t):
        closures = {"SHORT": t.ClosureConfig(4, 4)}
        sub = [closures.get(a, a) for a in args]
        kw = {k: closures.get(v, v) for k, v in kwargs.items()}
        with pytest.raises(ValueError) as exc:
            getattr(t, name)(*sub, **kw)
        return str(exc.value)

    assert build(NEW) == build(OLD)


@pytest.mark.parametrize(
    "name, args, kwargs",
    [
        pytest.param("Ambient", (), {}, id="Ambient-args0-kwargs0"),
        pytest.param("AdConfig", (), {"closure_len": 3}, id="AdConfig-args1-kwargs1"),
        pytest.param("SimplicityReport", ("simplicity",), {},
                     id="SimplicityReport-args2-kwargs2"),
        pytest.param("Membership", ("present",), {"status": "present"},
                     id="Membership-args3-kwargs3"),
        pytest.param("ClosureConfig", (), {"max_len": 3},
                     id="ClosureConfig-args4-kwargs4"),
        pytest.param("ClosureResult", (frozenset(), None, True, {}), {},
                     id="ClosureResult-args5-kwargs5"),
        pytest.param("SeedRecord", ("01", "pass", "fixpoint", [], [], [], []), {},
                     id="SeedRecord-args6-kwargs6"),
        # Closures are always dual-closed: the option is gone, not ignored.
        pytest.param("ClosureConfig", (), {"require_dual_closure": False},
                     id="ClosureConfig-args7-kwargs7"),
        pytest.param("ClosureConfig", (8, 4, False), {},
                     id="ClosureConfig-args8-kwargs8"),
    ],
)
def test_bad_calls_raise_type_error_like_dataclasses(name, args, kwargs):
    for t in (NEW, OLD):
        with pytest.raises(TypeError):
            getattr(t, name)(*args, **kwargs)


@pytest.mark.parametrize("name", GUARDED)
def test_shared_defaults_refuse_assignment(name):
    for value in samples(NEW):
        if type(value).__name__ == name:
            for f in value._fields:
                with pytest.raises(AttributeError):
                    setattr(value, f, None)
                with pytest.raises(AttributeError):
                    delattr(value, f)
            with pytest.raises(AttributeError):
                value.extra = 1


def test_records_stay_mutable():
    for value in samples(NEW):
        if type(value).__name__ not in FROZEN:
            first = value._fields[0]
            setattr(value, first, "changed")
            assert getattr(value, first) == "changed"
