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
    CLOSED_FORMS,
    ClosureConfig,
    ClosureResult,
    Saturator,
    _Frozen,
    certified_absence,
    enumerate_words,
    generate,
    verify_certificate_detailed,
    witness,
)
from .fusion import mul_simple
from .words import check_words, degree, flip, format_word, involute, parse_words, shortlex_key

# --------------------------------------------------------------------------
# ambients


class Ambient(_Frozen):
    """Which semiring the simples live in.

    kind "au" or "pu": a closed form (closure.CLOSED_FORMS), with no gens.
    kind "gen": the bounded closure of gens, a collection of words, never one str.
    """

    _fields = ("kind", "gens")

    def __init__(self, kind: str, gens=frozenset()):
        if kind != "gen" and kind not in CLOSED_FORMS:
            raise ValueError(f"unknown ambient kind {kind!r}; expected au, pu or gen")
        ws = check_words(gens)  # a set goes in whole: rebuilt from ws it may iterate otherwise
        self._set(kind, frozenset(gens if isinstance(gens, set | frozenset) else ws))
        if self.gens and kind != "gen":
            raise ValueError(f"ambient {kind} takes no generators")

    def describe(self) -> str:
        if self.kind == "gen":
            return "gen:" + ",".join(map(format_word, sorted(self.gens, key=shortlex_key)))
        return self.kind

    @staticmethod
    def parse(text: str) -> "Ambient":
        if text in CLOSED_FORMS:
            return Ambient(text)
        if text.startswith("gen:"):
            return Ambient("gen", parse_words(text[4:]))
        raise ValueError(f"unknown ambient {text!r}; expected au, pu or gen:...")


class AmbientView:
    """An ambient resolved against a length bound, answering membership and
    enumeration queries.  Its simples are a closed form, which tests its own,
    or the members of its generators' bounded plain closure, not their steps."""

    def __init__(self, ambient: Ambient, config: ClosureConfig):
        self.ambient = ambient
        self.name = ambient.describe()
        self._conjugators: dict[int, dict[str, list[str]]] = {}
        self.closed_form = CLOSED_FORMS.get(ambient.kind)
        self._simples = self.closed_form or frozenset(generate(ambient.gens, config).members)

    def contains(self, w: str) -> bool:
        return w in self._simples

    def simples(self, max_len: int) -> list[str]:
        if self.closed_form is not None:
            return enumerate_words(self.closed_form.filter, max_len)
        return sorted((w for w in self._simples if len(w) <= max_len), key=shortlex_key)

    def count(self, max_len: int) -> int:
        return len(self.simples(max_len))

    def conjugators_by_last(self, ad_len: int) -> dict[str, list[str]]:
        """The nontrivial ambient simples up to ad_len, split by their last
        symbol, each list in shortlex order; built once per ad_len."""
        if ad_len not in self._conjugators:
            by_last: dict[str, list[str]] = {"0": [], "1": []}
            for y in filter(None, self.simples(ad_len)):
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
    symbol.  The right-oriented involute(y) * x * y is the scan's conjugation
    by involute(y), a conjugator too: ambients are dual-closed.
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


ROOT = "01"  # the seed every descent stops at; see _check


def _route(gens, by_last, work_len: int) -> dict | None:
    """Steps deriving ROOT from the dual-closed gens in closed form, or None where
    they do not fit: cut |g|-1 of g * g* is g[0] + flip(g[0]), 01 for the first g
    starting with 0, else 10; 10 conjugated by 01 is 011001; cut 5 of 011001^2 is 01."""
    zeros = [g for g in gens if g[:1] == "0"]
    g = min(zeros or filter(None, gens), key=shortlex_key, default=None)
    if g is None or work_len < 2:
        return None
    top = g[:1] + involute(g)[len(g) - 1:]
    route = {} if top in gens else {top: ("prod", g, involute(g))}
    if top != ROOT and work_len >= 6 and ROOT in by_last["1"]:
        x = ROOT + top + ROOT  # the ad rule: ROOT ends in top[0] != top[-1]
        return {**route, x: ("ad", ROOT, top), ROOT: ("prod", x, x)}
    return route if top == ROOT else None


# 10 in two nodes from ROOT: 100110 is ROOT conjugated by 10, and 10 is cut 5 of 100110^2.
FLIP_GRAFT = {"10": ("prod", "100110", "100110"), "100110": ("ad", "10", ROOT)}


def ad_closure(
    seeds,
    ambient: Ambient = Ambient("au"),
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
    the result is marked unsaturated.  A run stopping at {01} alone lays
    _route where it fits, evaluating nothing: a fixpoint then holds 01 too.
    A search from {01} in au or pu, whose conjugators are flip-closed,
    grafts 10 and takes the flip step where the graft fits and some target
    lies past it (README "Flip step").

    _pairs, one sweep's memo over one view and config, files the result
    under its generators, the seeds' dual closure, for a later call from the
    same generators to equal stop targets; after a run in au or pu to
    flip-closed stop targets, also the flipped result under the flipped
    generators where they differ.  _base, a saturated ad-closure over the
    same view and config whose generators the stop targets hold, stops the
    run at them; if it derived them, a fork of the base's run (kept as
    _engine) resumes from the base's fixpoint.  stats count both.
    """
    if _base is not None and not _base.saturated:
        raise ValueError("a base closure must be saturated")
    view = _view if _view is not None else AmbientView(ambient, config.closure)
    work_len = config.closure.work_len
    seeds = check_words(seeds)  # read once: seeds may be a one-shot iterator
    gens = frozenset({*seeds, *map(involute, seeds)})  # the run's generators
    shared = _pairs.get(gens) if _pairs is not None else None
    if shared is not None and shared[0] == stop_targets:
        return shared[1]  # filed by a run whose generators passed the test below
    # Every ambient is dual-closed: a seed is an ambient simple iff its dual is.
    for s in sorted(seeds, key=shortlex_key):
        if not view.contains(s):
            raise ValueError(f"{format_word(s)} is not an ambient simple")
    by_last = view.conjugators_by_last(config.ad_len)
    scan = lambda x: _conjugations(x, by_last, work_len)
    targets = _base.generators if _base else stop_targets
    route = None if targets is None or {*targets} != {ROOT} else _route(gens, by_last, work_len)
    sat = Saturator(config.closure, seeds, targets)
    sat.lay(route or {})
    if (_base is None and {*seeds} == {ROOT} and work_len >= 6
            and view.closed_form and "10" in by_last["0"]
            and (targets is None or not {*targets} <= {"", ROOT, "10"})):
        sat.start_flip(FLIP_GRAFT)
    sat.run(ad_scan=scan)
    if _base is not None and sat.done():  # it derived the base's generators
        first = sat.stats
        sat = _base._engine.fork(seeds, stop_targets, sat.provenance)
        sat.run(ad_scan=scan)
        sat.stats = {key: n + first[key] for key, n in sat.stats.items()}
    result = sat.result(is_ad=True)
    result._engine = sat  # what a fork of a saturated result copies
    if _pairs is not None:
        _pairs[gens] = stop_targets, result
        if (view.closed_form
                and (stop_targets is None or stop_targets.issuperset(map(flip, stop_targets)))
                and (flipped := frozenset(map(flip, gens))) != gens):
            _pairs[flipped] = stop_targets, _flipped(result)
    return result


def _flipped(result: ClosureResult) -> ClosureResult:
    """The closure from the flipped generators, in closed form: flip is an
    automorphism of the fusion and ad rules that keeps au, pu and their conjugators."""
    provenance = {flip(w): (step[0], *map(flip, step[1:]))
                  for w, step in result.provenance.items()}
    return ClosureResult(frozenset(map(flip, result.generators)), result.config,
                         result.saturated, result.stats, provenance, result.is_ad)


# --------------------------------------------------------------------------
# reports


def witness_entries(result: ClosureResult, words,
                    view: AmbientView | None = None) -> list[dict | None]:
    """The JSON entry for a derivation of each word: its certificate,
    replayed against the result's generators and, given the view of the
    result's ambient, against its simples; None for a word with no
    derivation.  The words' certificates share one witness memo, so they
    are one DAG: each node is replayed once and is one dict wherever it
    occurs, and a node's validity depends only on its subtree, so every
    entry equals the one a replay of its tree alone gives."""
    gens = set(result.generators)
    memo, replayed = {}, set()  # live together: ids stay unique
    entries = []
    for w in check_words(words):  # a bare str is refused, not read letter by letter
        cert = witness(result, w, memo)
        if cert is None:
            entries.append(None)
            continue
        ok, why = verify_certificate_detailed(cert, gens, replayed, view)
        entry = {"word": format_word(w), "verified": ok, "certificate": cert}
        if why is not None:
            entry["error"] = why
        entries.append(entry)
    return entries


def _status(fail: bool, inconclusive: bool) -> str:
    """A failure outranks an inconclusive result, which outranks a pass."""
    return "fail" if fail else "inconclusive" if inconclusive else "pass"


def _check(name, view, config, targets, cert_samples):
    """Check every nontrivial ambient simple up to seed_len as a seed: its
    ad-closure must contain every target.  Each seed keeps verified
    certificates for its cert_samples shortlex-largest derived targets,
    a spot-checkable sample rather than a full trace.  Returns the report:
    {"check", "ambient", "config", "verdict", "seeds"}, one record
    {"seed", "status", "end", "missing_certified", "missing_within_bound",
    "certificates"} per seed, words in text form: the CLI's "result" as is.

    Descent: a closure deriving 01 contains the root closure of 01.  A seed
    whose targets the root holds, or that a saturated root holds, stops at 01,
    by ad_closure's closed-form route where it fits, and grafts the root's steps.
    Any other seed starts from a saturated root's fixpoint (ad_closure's _base).

    Dual pairs: a seed and its dual reach the same targets, descend alike
    (the root's members are dual-closed) and run from the same generators,
    so their records differ only in seed: ad_closure's memo and the record
    table share both by generators, a record's fields only with the same
    closure, each seed getting a record dict of its own.
    """
    # The longest seed must fit within work_len to be a generator, as every gen: simple does.
    n, work_len = config.seed_len, config.closure.work_len
    if view.closed_form is not None and view.closed_form.longest(n) > work_len:
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

    reach_of = {}  # |degree| -> the targets a seed of that |degree| reaches

    def reachable(seed) -> set[str]:
        # Certified absence depends only on |degree|, which a dual keeps.  The
        # targets it rules out must not keep a stop-at-targets run going.
        d = abs(degree(seed))
        if d not in reach_of:
            reach_of[d] = {t for t in targets
                           if certified_absence({seed}, t, is_ad=True) is None}
        return reach_of[d]

    root = None
    if ROOT in seeds:
        root = ad_closure(
            {ROOT}, view.ambient, config, stop_targets=reachable(ROOT), _view=view
        )
    pairs = {}  # ad_closure's memo
    made = {}  # generators -> (closure, record fields) of a seed before it
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
        made_own, fields = made.get(own.generators, (None, None))
        if own is not made_own:
            # A descent that never derives 01 ran to its fixpoint: exact as is.
            end = "fixpoint" if cl.saturated else "descent" if descend else "targets"
            if end == "descent":
                # Descent steps refer only to descent words: the graft is acyclic.
                cl = ClosureResult(cl.generators, cl.config, cl.saturated, cl.stats,
                                   {**root.provenance, **cl.provenance}, cl.is_ad)
            missing_certified = [format_word(t) for t in targets if t not in reach]
            present = [t for t in targets if t in reach and t in cl.members]
            missing_within = [format_word(t) for t in targets
                              if t in reach and t not in cl.members]
            sample = sorted(present, key=shortlex_key, reverse=True)[:cert_samples]
            certificates = witness_entries(cl, sample, view)
            # A sample that does not replay is a failure, never a silent pass.
            unverified = not all(c["verified"] for c in certificates)
            fields = {"status": _status(bool(missing_certified) or unverified,
                                        bool(missing_within)),
                      "end": end, "missing_certified": missing_certified,
                      "missing_within_bound": missing_within, "certificates": certificates}
            made[own.generators] = own, fields
        records.append({"seed": format_word(seed), **fields})
    statuses = {r["status"] for r in records}
    return {"check": name, "ambient": view.name, "config": config.to_json(),
            "verdict": _status("fail" in statuses, "inconclusive" in statuses),
            "seeds": records}


def check_simplicity(
    ambient: Ambient,
    config: AdConfig = AdConfig(),
    cert_samples: int = 3,
) -> dict:
    """For every nontrivial ambient simple up to seed_len, check that its
    ad-closure contains every ambient simple up to report_len.

    A pass proves, at these bounds, that no proper nontrivial ad-invariant
    sub-semiring exists.  Targets whose absence is certified make the seed
    a genuine failure; targets merely not found within bounds make it
    inconclusive, never a silent pass.  Returns the report (see _check).
    """
    view = AmbientView(ambient, config.closure)
    targets = view.simples(config.closure.report_len)
    return _check("simplicity", view, config, targets, cert_samples)


def check_circle_corollary(
    config: AdConfig = AdConfig(),
    cert_samples: int = 3,
) -> dict:
    """For every nonempty word up to seed_len, check that its ad-closure in
    the full ambient contains every balanced word up to report_len: any
    nontrivial ad-invariant sub-semiring contains the projective quotient's.
    Returns the report (see _check)."""
    view = AmbientView(Ambient("au"), config.closure)
    targets = enumerate_words(CLOSED_FORMS["pu"].filter, config.closure.report_len)
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
