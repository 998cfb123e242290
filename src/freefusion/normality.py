"""Ad-saturated closures and the desk-scale simplicity checkers.

The fusion-level surrogate of ad-invariance: a sub-semiring is stable
under conjugating any of its simples x by an ambient simple y whenever
the triple product y * x * involute(y) collapses to a single simple with
multiplicity one.  In that situation the multiplication map on the
corresponding coalgebras is injective, so membership of the result is
forced; closures alternating fusion generation with such conjugation
steps reproduce, at bounded length, the inductive proofs that the
projective quotient has no proper normal quantum subgroups.
"""

from __future__ import annotations

from .closure import (
    ClosureConfig,
    ClosureResult,
    Saturator,
    _Frozen,
    _Value,
    certificate_to_json,
    certified_absence,
    enumerate_words,
    generate,
    verify_certificate_detailed,
    witness,
)
from .fusion import mul_simple
from .words import format_word, involute, is_balanced, parse_words, shortlex_key

# --------------------------------------------------------------------------
# ambients


class Ambient(_Frozen):
    """Which semiring the simples live in.

    kind "au": all binary words (the full free unitary semiring).
    kind "pu": balanced words only (the projective quotient).
    kind "gen": the bounded closure of a finite generating set.
    """

    _fields = ("kind", "gens")

    def __init__(self, kind: str, gens: frozenset[str] = frozenset()):
        self._set(kind, gens)

    @staticmethod
    def full_au() -> "Ambient":
        return Ambient("au")

    @staticmethod
    def projective_pu() -> "Ambient":
        return Ambient("pu")

    @staticmethod
    def generated(gens) -> "Ambient":
        return Ambient("gen", frozenset(gens))

    def describe(self) -> str:
        if self.kind == "gen":
            gens = ",".join(
                format_word(g) for g in sorted(self.gens, key=shortlex_key)
            )
            return f"gen:{gens}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "Ambient":
        if text == "au":
            return Ambient.full_au()
        if text == "pu":
            return Ambient.projective_pu()
        if text.startswith("gen:"):
            return Ambient.generated(parse_words(text[4:]))
        raise ValueError(f"unknown ambient {text!r}; expected au, pu or gen:...")


class AmbientView:
    """An ambient resolved against a length bound, answering membership and
    enumeration queries.  For a generated ambient the simple set is the
    bounded plain closure of its generators."""

    def __init__(self, ambient: Ambient, config: ClosureConfig):
        self.ambient = ambient
        self._members: frozenset[str] | None = None
        self._conjugators: dict[int, dict[str, list[str]]] = {}
        if ambient.kind == "gen":  # its own set, so the view holds no derivations
            self._members = frozenset(generate(ambient.gens, config).members)

    def contains(self, w: str) -> bool:
        if self.ambient.kind == "au":
            return True
        if self.ambient.kind == "pu":
            return is_balanced(w)
        return w in self._members

    def simples(self, max_len: int) -> list[str]:
        if self.ambient.kind == "au":
            return enumerate_words("all", max_len)
        if self.ambient.kind == "pu":
            return enumerate_words("balanced", max_len)
        return sorted(
            (w for w in self._members if len(w) <= max_len), key=shortlex_key
        )

    def count(self, max_len: int) -> int:
        return len(self.simples(max_len))

    def conjugators_by_last(self, ad_len: int) -> dict[str, list[str]]:
        """The nontrivial ambient simples up to ad_len, split by their last
        symbol, each list in shortlex order; built once per ad_len."""
        if ad_len not in self._conjugators:
            by_last: dict[str, list[str]] = {"0": [], "1": []}
            for y in self.simples(ad_len):
                if y:
                    by_last[y[-1]].append(y)
            self._conjugators[ad_len] = by_last
        return self._conjugators[ad_len]


# --------------------------------------------------------------------------
# configuration


class AdConfig(_Frozen):
    """Bounds for ad-saturation: conjugators up to ad_len, seed sweeps up
    to seed_len, plus the underlying closure bounds."""

    _fields = ("closure", "ad_len", "seed_len")
    closure = ClosureConfig()
    ad_len = 8
    seed_len = 6

    def __init__(self, closure: ClosureConfig = closure, ad_len: int = ad_len,
                 seed_len: int = seed_len):
        # Under dual closure no ad-closure leaves its ambient (see ad_closure).
        if not closure.require_dual_closure:
            raise ValueError("ad-closures require dual closure")
        if ad_len > closure.work_len:
            raise ValueError("ad_len must not exceed work_len")
        if ad_len < 0:
            raise ValueError("ad_len must be nonnegative")
        if seed_len < 0:
            raise ValueError("seed_len must be nonnegative")
        self._set(closure, ad_len, seed_len)

    def to_json(self) -> dict:
        return {
            **self.closure.to_json(),
            "ad_len": self.ad_len,
            "seed_len": self.seed_len,
        }


# --------------------------------------------------------------------------
# adjoint steps


def _conjugations(x: str, by_last: dict[str, list[str]], max_len: int):
    """Yield (y, z) with y * x * involute(y) equal to the single simple z,
    for the conjugators y of by_last with len(z) <= max_len.

    Closed form: for nonempty y the triple product is a single simple
    exactly when x is nonempty, x[0] != x[-1] and y ends in x[0]; that
    simple is y + x + involute(y): y * x has cut 1 unless y ends in x[0],
    and then (y + x) * involute(y) has cut 1 unless x ends in the other
    symbol.
    The conjugators ending in x[0] come in shortlex order, so the walk
    stops at the first one that is too long.
    """
    if not x or x[0] == x[-1]:
        return
    room = max_len - len(x)
    for y in by_last[x[0]]:
        if 2 * len(y) > room:
            return
        yield y, y + x + involute(y)


def ad_candidates(
    x: str, ambient: Ambient, ad_len: int, config: ClosureConfig = ClosureConfig()
) -> set[tuple[str, str]]:
    """All (conjugator, result) pairs forcing membership of result from x.

    Conjugators range over the nontrivial ambient simples of length at
    most ad_len.  The right-oriented form involute(y) * x * y is covered
    automatically: ambient simple sets are dual-closed, so it equals the
    left-oriented scan with conjugator involute(y).
    """
    by_last = AmbientView(ambient, config).conjugators_by_last(ad_len)
    return set(_conjugations(x, by_last, len(x) + 2 * ad_len))


def ad_closure(
    seeds,
    ambient: Ambient = Ambient.full_au(),
    config: AdConfig = AdConfig(),
    stop_targets=None,
    _view: AmbientView | None = None,
    _pairs: dict | None = None,
    _base: ClosureResult | None = None,
) -> ClosureResult:
    """Least fixpoint, within bounds, of fusion generation interleaved with
    adjoint steps, from seeds that must be ambient simples.  No derived
    term needs an ambient test: the Saturator dual-closes the seeds, and
    every ambient is closed under fusion and the ad rule within work_len
    (see "Ambient closure" in the README).

    With stop_targets, saturation halts as soon as every target word has
    been derived; the member set is then a sound under-approximation and
    the result is marked unsaturated.

    _pairs, one sweep's memo over one view and config, keeps the result
    of seeds that are not dual-closed for a later call with their duals,
    which start the same run; that call takes it out and returns it when
    its stop targets are equal.  _base, a saturated ad-closure over the
    same view and config whose generators the stop targets hold, stops the
    run at them; if it derived them, a second run from the graft of its steps
    over the base's files the base's words as processed.  stats count both.
    """
    if _base is not None and not _base.saturated:
        raise ValueError("a base closure must be saturated")
    view = _view if _view is not None else AmbientView(ambient, config.closure)
    work_len = config.closure.work_len
    # Every ambient is dual-closed: a seed is an ambient simple iff its dual is.
    for s in sorted(seeds, key=shortlex_key):
        if not view.contains(s):
            raise ValueError(f"{format_word(s)} is not an ambient simple")
    if _pairs is not None:
        shared = _pairs.pop(frozenset(seeds), None)
        if shared is not None and shared[0] == stop_targets:
            return shared[1]
    by_last = view.conjugators_by_last(config.ad_len)
    scan = lambda x: _conjugations(x, by_last, work_len)
    sat = Saturator(config.closure, seeds, _base.generators if _base else stop_targets)
    sat.run(ad_scan=scan)
    if _base is not None and sat.done():  # it derived the base's generators
        first = sat.stats
        sat = Saturator(config.closure, seeds, stop_targets,
                        {**_base.provenance, **sat.provenance}, len(_base.provenance))
        sat.run(ad_scan=scan)
        sat.stats = {key: n + first[key] for key, n in sat.stats.items()}
    result = sat.result(is_ad=True)
    if _pairs is not None and sat.generators != seeds:  # else no dual to share
        _pairs[frozenset(map(involute, seeds))] = stop_targets, result
    return result


# --------------------------------------------------------------------------
# reports


class SeedRecord(_Value):
    _fields = ("seed", "status", "end", "missing_certified",
               "missing_within_bound", "certificates")
    __hash__ = None  # mutable

    def __init__(self, seed: str, status: str, end: str,
                 missing_certified: list[str] | None = None,
                 missing_within_bound: list[str] | None = None,
                 certificates: list[dict] | None = None):
        self.seed = seed
        self.status = status  # "pass" | "fail" | "inconclusive"
        self.end = end  # "descent" | "targets" | "fixpoint": how its closure ended
        self.missing_certified = [] if missing_certified is None else missing_certified
        self.missing_within_bound = (
            [] if missing_within_bound is None else missing_within_bound)
        self.certificates = [] if certificates is None else certificates

    def to_json(self) -> dict:
        return {
            "seed": format_word(self.seed),
            "status": self.status,
            "end": self.end,
            "missing_certified": [
                format_word(w) for w in self.missing_certified
            ],
            "missing_within_bound": [
                format_word(w) for w in self.missing_within_bound
            ],
            "certificates": self.certificates,
        }


class SimplicityReport(_Value):
    _fields = ("check", "ambient", "config", "seeds", "verdict")
    __hash__ = None  # mutable

    def __init__(self, check: str, ambient: str, config: AdConfig,
                 seeds: list[SeedRecord], verdict: str):
        self.check = check  # "simplicity" | "circle-corollary"
        self.ambient = ambient
        self.config = config
        self.seeds = seeds
        self.verdict = verdict  # "pass" | "fail" | "inconclusive"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "ambient": self.ambient,
            "config": self.config.to_json(),
            "verdict": self.verdict,
            "seeds": [r.to_json() for r in self.seeds],
        }


def witness_entry(result: ClosureResult, w: str) -> dict | None:
    """The JSON entry for a derivation of w: its certificate, replayed
    against the result's generators; None when w has no derivation."""
    cert = witness(result, w)
    if cert is None:
        return None
    ok, why = verify_certificate_detailed(cert, set(result.generators))
    entry = {
        "word": format_word(w),
        "verified": ok,
        "certificate": certificate_to_json(cert),
    }
    if why is not None:
        entry["error"] = why
    return entry


ROOT = "01"  # the seed every descent stops at; see _check


def _status(fail: bool, inconclusive: bool) -> str:
    """A failure outranks an inconclusive result, which outranks a pass."""
    return "fail" if fail else "inconclusive" if inconclusive else "pass"


def _check(name, view, config, targets, cert_samples):
    """Check every nontrivial ambient simple up to seed_len as a seed: its
    ad-closure must contain every target.  Each seed keeps verified
    certificates for its cert_samples shortlex-largest derived targets,
    a spot-checkable sample rather than a full trace.

    Descent: cut |s|-1 of s * s* is 01 or 10, and a closure deriving 01
    contains the root closure of 01.  A seed whose targets the root holds,
    or that a saturated root holds, stops at 01 and grafts the root's steps.
    Any other seed starts from a saturated root's fixpoint (ad_closure's _base).

    Dual pairs: a seed and its dual reach the same targets, descend alike
    (the root's members are dual-closed) and start the same run, so their
    records differ only in seed.  The second of a pair gets the first's
    closure back from ad_closure's memo, and with it the first's record.
    """
    # The longest seed, seed_len in au and even in pu, must fit within
    # work_len to be a generator; every simple of a generated ambient does.
    n, work_len = config.seed_len, config.closure.work_len
    if {"au": n, "pu": n - n % 2}.get(view.ambient.kind, 0) > work_len:
        raise ValueError(f"seed_len {n} exceeds work_len {work_len}")
    seeds = [s for s in view.simples(config.seed_len) if s]
    # An empty sweep would pass without checking anything.
    if not seeds:
        raise ValueError(
            f"no seeds: the ambient has no nontrivial simple of length "
            f"<= {config.seed_len}"
        )
    if cert_samples < 0:
        raise ValueError("cert_samples must be nonnegative")

    def reachable(seed) -> set[str]:
        # Certified absence depends only on the seed's degree, which its dual
        # negates.  Targets it rules out can never appear, so they must not
        # keep the stop-at-targets saturation running to exhaustion.
        return {t for t in targets if certified_absence({seed}, t, is_ad=True) is None}

    root = None
    if ROOT in seeds:
        root = ad_closure(
            {ROOT}, view.ambient, config, stop_targets=reachable(ROOT), _view=view
        )
    pairs = {}  # ad_closure's memo
    unpaired = {}  # dual -> (closure, record fields) of a seed before it
    records = []
    for seed in seeds:
        reach = reachable(seed)
        descend = seed != ROOT and root is not None and (
            root.members >= reach or (root.saturated and seed in root.members)
        )
        cl = own = root if seed == ROOT else ad_closure(
            {seed}, view.ambient, config,
            stop_targets={ROOT} if descend else reach, _view=view, _pairs=pairs,
            _base=None if descend or root is None or not root.saturated else root,
        )
        dual_own, fields = unpaired.pop(seed, (None, None))
        if own is not dual_own:
            # A descent that never derives 01 ran to its fixpoint: exact as is.
            end = "fixpoint" if cl.saturated else "descent" if descend else "targets"
            if end == "descent":
                # Descent steps refer only to descent words: the graft is acyclic.
                cl = ClosureResult(cl.generators, cl.config, cl.saturated, cl.stats,
                                   {**root.provenance, **cl.provenance}, cl.is_ad)
            missing_certified = [t for t in targets if t not in reach]
            present = [t for t in targets if t in reach and t in cl.members]
            missing_within = [t for t in targets if t in reach and t not in cl.members]
            sample = sorted(present, key=shortlex_key, reverse=True)[:cert_samples]
            certificates = [witness_entry(cl, w) for w in sample]
            # A sample that does not replay is a failure, never a silent pass.
            unverified = not all(c["verified"] for c in certificates)
            fields = (_status(bool(missing_certified) or unverified,
                              bool(missing_within)),
                      end, missing_certified, missing_within, certificates)
            if involute(seed) != seed:
                unpaired[involute(seed)] = own, fields
        records.append(SeedRecord(seed, *fields))
    statuses = {r.status for r in records}
    return SimplicityReport(
        check=name,
        ambient=view.ambient.describe(),
        config=config,
        seeds=records,
        verdict=_status("fail" in statuses, "inconclusive" in statuses),
    )


def check_simplicity(
    ambient: Ambient,
    config: AdConfig = AdConfig(),
    cert_samples: int = 3,
) -> SimplicityReport:
    """For every nontrivial ambient simple up to seed_len, check that its
    ad-closure contains every ambient simple up to report_len.

    A pass proves, at these bounds, that no proper nontrivial ad-invariant
    sub-semiring exists.  Targets whose absence is certified make the seed
    a genuine failure; targets merely not found within bounds make it
    inconclusive, never a silent pass.
    """
    view = AmbientView(ambient, config.closure)
    targets = view.simples(config.closure.report_len)
    return _check("simplicity", view, config, targets, cert_samples)


def check_circle_corollary(
    config: AdConfig = AdConfig(),
    cert_samples: int = 3,
) -> SimplicityReport:
    """For every nonempty word up to seed_len, check that its ad-closure in
    the full ambient contains every balanced word up to report_len: any
    nontrivial ad-invariant sub-semiring contains the projective quotient's."""
    view = AmbientView(Ambient.full_au(), config.closure)
    targets = enumerate_words("balanced", config.closure.report_len)
    return _check("circle-corollary", view, config, targets, cert_samples)


# --------------------------------------------------------------------------
# invertibles


def find_invertibles(max_len: int) -> list[str]:
    """Words whose product with their dual is exactly the unit.

    For any nonempty w the empty cut contributes the nonempty term
    w + involute(w), so only the unit qualifies; scanned, not assumed.
    """
    return [
        w
        for w in enumerate_words("all", max_len)
        if mul_simple(w, involute(w)) == {"": 1}
    ]
