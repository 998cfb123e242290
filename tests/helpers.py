"""Shared test utilities, kept independent of the library's product path."""

from __future__ import annotations

import importlib.util
import json
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial
from itertools import product as iproduct
from pathlib import Path

from freefusion import __version__
from freefusion.cli import _add_bound_flags, _add_output_flags, _ArgumentParser
from freefusion.closure import (
    ClosureResult,
    Saturator,
    _Value,
    certified_absence,
    witness,
)
from freefusion.fusion import has_term, mul_many, mul_simple
from freefusion.normality import (
    FLIP_GRAFT,
    ROOT,
    AdConfig,
    Ambient,
    AmbientView,
    _conjugations,
    _status,
    ad_closure,
)
from freefusion.words import format_word, involute, parse_word, shortlex_key


@cache
def bench_oracle():
    """perfbench/oracle.py, loaded once by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Entries the library refuses as words, each with a one-line ValueError: a
# letter other than 0 and 1, the unit's text form "e" ("" is the unit), a
# newline, and values that are not strings.
NOT_WORDS = ["0x", "abc", "e", "01 ", "0\n1", 1, None, ["0"]]

# check_words's refusal of one str in place of a collection of words.
BARE_STR = "words must come as a collection, not the bare str '0110'"

# check_words's refusal of an entry w, as NOT_A_WORD.format(w).
NOT_A_WORD = "{!r} is not a word: a word is a str over 0 and 1, '' the unit"


def refusal(call) -> str | None:
    """The message of the ValueError that call() raises, or None if it
    returns; a check that must refuse asserts on this, so that a call that
    quietly returns fails with AssertionError."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


def answer(call):
    """What call() returns, or the exception it raises; a check that must get
    an answer compares this, so that a call that raises fails with AssertionError."""
    try:
        return call()
    except Exception as exc:  # any of them: the check reads it as a wrong answer
        return exc


def render(document) -> str:
    """The CLI's JSON rendering before it dropped the cycle check, verbatim:
    the oracle for cli._encode.  It raises ValueError on a cyclic document."""
    return json.dumps(document, separators=(",", ":"))


def flip_reverse(w: str) -> str:
    """Dual of a word, written without the library's translate table."""
    return "".join("1" if c == "0" else "0" for c in reversed(w))


def brute_force_product(x: str, y: str) -> dict[str, int]:
    """Independent oracle for the product of two simples: enumerate every
    split x = a + g and y = p + b and keep those with dual(g) == p."""
    out: dict[str, int] = {}
    for i in range(len(x) + 1):
        a, g = x[:i], x[i:]
        for j in range(len(y) + 1):
            p, b = y[:j], y[j:]
            if flip_reverse(g) == p:
                t = a + b
                out[t] = out.get(t, 0) + 1
    return out


def flip_letter(w: str, i: int) -> str:
    """w with its i-th letter swapped."""
    return w[:i] + ("1" if w[i] == "0" else "0") + w[i + 1:]


def zero_runs(w: str) -> tuple[int, int]:
    """(length of the leading run of '0's, longest run of '0's anywhere)."""
    leading = len(w) - len(w.lstrip("0"))
    longest = max((len(r) for r in w.split("1")), default=0)
    return leading, longest


def flip(w: str) -> str:
    """Swap 0 <-> 1 pointwise, without reversing."""
    return w.translate(str.maketrans("01", "10"))


def one_runs(w: str) -> tuple[int, int]:
    """Same as zero_runs but for '1's."""
    return zero_runs(flip(w))


def words_up_to(n: int) -> list[str]:
    """All binary words of length <= n, shortlex."""
    return ["".join(t) for k in range(n + 1) for t in iproduct("01", repeat=k)]


def balanced_words_up_to(n: int) -> list[str]:
    return [w for w in words_up_to(n) if w.count("0") * 2 == len(w)]


# --------------------------------------------------------------------------
# reference implementations replaced by closed forms in the library


def search_valid_cuts(x: str, y: str) -> list[int]:
    """The O(n^2) cut search: test every k up to min(|x|, |y|)."""
    return [
        k
        for k in range(min(len(x), len(y)) + 1)
        if flip_reverse(x[len(x) - k :]) == y[:k]
    ]


def search_terms(x: str, y: str) -> list[str]:
    """Terms of x * y, one per cut found by search_valid_cuts."""
    return [x[: len(x) - k] + y[k:] for k in search_valid_cuts(x, y)]


def cut_depth(x: str, y: str) -> int:
    """The deepest valid cut K of x * y: the length of the longest common
    prefix of reverse(x) and flip(y), as fusion computed it in a loop of
    its own before mul_simple took the cut law over."""
    n = min(len(x), len(y))
    last = len(x) - 1
    k = 0
    while k < n and x[last - k] != y[k]:
        k += 1
    return k


def old_simple_terms(x: str, y: str) -> list[str]:
    """The terms of x * y in cut order 0..K, as the list fusion built from
    cut_depth and copied into mul_simple's dict."""
    lx = len(x)
    return [x[: lx - k] + y[k:] for k in range(cut_depth(x, y) + 1)]


def brute_force_conjugate(y: str, x: str) -> dict[str, int]:
    """y * x * dual(y), expanded term by term with brute_force_product."""
    out: dict[str, int] = {}
    for t, m in brute_force_product(y, x).items():
        for u, n in brute_force_product(t, flip_reverse(y)).items():
            out[u] = out.get(u, 0) + m * n
    return out


def scan_conjugations(x: str, conjugators):
    """Yield (y, z) with y * x * involute(y) equal to the single simple z,
    found by pushing each conjugator through both fusion products."""
    for y in conjugators:
        t1 = memo_terms(y, x)
        if len(t1) != 1:
            continue
        t2 = memo_terms(t1[0], flip_reverse(y))
        if len(t2) != 1:
            continue
        yield y, t2[0]


@lru_cache(maxsize=None)
def memo_terms(x: str, y: str) -> tuple[str, ...]:
    """search_terms, memoised as the library's product once was; call
    memo_terms.cache_clear() when done."""
    return tuple(search_terms(x, y))


class PairwiseSaturator(Saturator):
    """The saturation loop before indexing: each member is multiplied, in
    both orders, with every member processed before it and itself, and
    every term is filtered by length and by the optional ambient (an
    AmbientView).  The run stops once the members are all of the ambient's
    simples within work_len: no step can add anything after that."""

    def __init__(self, config, generators=(), targets=None, ambient=None):
        self.ambient = ambient
        self.ambient_size = None if ambient is None else ambient.count(config.work_len)
        super().__init__(config, generators, targets)

    def done(self) -> bool:
        return super().done() or len(self.members) == self.ambient_size

    def run(self, ad_scan=None):
        work_len = self.config.work_len
        i = 0
        while i < len(self.order):
            if self.done():
                return
            m = self.order[i]
            for j in range(i + 1):
                o = self.order[j]
                self._absorb_all(m, o)
                if o != m:
                    self._absorb_all(o, m)
                if self.done():
                    return
            if ad_scan is not None:
                for y, z in ad_scan(m):
                    self.stats["ad_steps"] += 1
                    if len(z) <= work_len and (
                        self.ambient is None or self.ambient.contains(z)
                    ):
                        self.add(z, ("ad", y, m))
                if self.done():
                    return
            i += 1

    def _absorb_all(self, x: str, y: str):
        self.stats["products"] += 1
        for t in memo_terms(x, y):
            if len(t) <= self.config.work_len and (
                self.ambient is None or self.ambient.contains(t)
            ):
                self.add(t, ("prod", x, y))


class IndexedSaturator(Saturator):
    """The library's saturation loop on a (length, prefix) and (length,
    suffix) partner index: every product with a term within work_len is
    evaluated, whether or not that term is already a member."""

    def __init__(self, *args, **kwargs):
        self._by_prefix: dict[tuple[int, str], list[int]] = {}
        self._by_suffix: dict[tuple[int, str], list[int]] = {}
        super().__init__(*args, **kwargs)

    def _index(self, i: int):
        # For any partner m, kmin = ceil((|m| + |o| - work_len) / 2) is at
        # most ceil(|o| / 2), so only keys up to that length are needed.
        w = self.order[i]
        n = len(w)
        for k in range((n + 1) // 2 + 1):
            self._by_prefix.setdefault((n, w[:k]), []).append(i)
            self._by_suffix.setdefault((n, w[n - k :]), []).append(i)

    def _partners(self, i: int) -> list[tuple[int, int]]:
        work_len = self.config.work_len
        m = self.order[i]
        lm = len(m)
        d = flip_reverse(m)
        found: dict[int, int] = {}
        for n in range(work_len + 1):
            kmin = max(0, (lm + n - work_len + 1) // 2)
            for j in self._by_prefix.get((n, d[:kmin]), ()):
                found[j] = 1
            for j in self._by_suffix.get((n, d[lm - kmin :]), ()):
                found[j] = found.get(j, 0) | 2
        return sorted(found.items())


class ThreeArgumentSide:
    """Saturator._side before the engine kept one index, verbatim: the
    index and the member set it tests against are arguments."""

    def _side(self, index, m: str, members) -> set[int]:
        """The j of each o filed in index such that m * o has a term within
        work_len not in members.  Cut k is valid when o starts with m*[:k];
        its term m[:|m| - k] + o[k:] is within work_len when
        |o| <= work_len - |m| + 2k."""
        lm = len(m)
        d = involute(m)
        room = self.config.work_len - lm
        found: set[int] = set()
        for k in range(lm + 1):
            by_len = index.get(d[:k])
            if by_len is None:
                break  # every deeper cut extends this key
            prepend = m[: lm - k].__add__
            cap = room + 2 * k
            for n, group in by_len.items():
                if n <= cap and not members.issuperset(map(prepend, group)):
                    found.update(
                        j for tail, j in group.items() if prepend(tail) not in members
                    )
        return found


class TwoIndexSaturator(ThreeArgumentSide, Saturator):
    """The library's saturation loop with a second partner index that holds
    every processed member's dual, and both product orders queried at every
    step.  The members are dual-closed, so they are their own duals."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._dual_tails = {}

    def _index(self, j: int):
        """Index the processed member order[j] = o at every split
        o = head + tail as _tails[head][len(o)][tail] = j, and its dual
        the same way in _dual_tails."""
        o = self.order[j]
        if not o:
            return  # m * e = e * m = m is always a member
        n = len(o)
        for index, w in ((self._tails, o), (self._dual_tails, involute(o))):
            for k in range(n + 1):
                index.setdefault(w[:k], {}).setdefault(n, {})[w[k:]] = j

    def _partners(self, i: int) -> list[tuple[int, int]]:
        """(j, sides) for each indexed order[j] = o such that m * o (sides
        bit 1) or o * m (bit 2) has a term within work_len that is not yet
        a member, by increasing j, where m = order[i]."""
        m = self.order[i]
        left = self._side(self._tails, m, self.members)
        right = self._side(self._dual_tails, involute(m), self.members)
        return [(j, (j in left) | 2 * (j in right)) for j in sorted(left | right)]


class ReplaySaturator(Saturator):
    """Saturator.__init__ before forks, verbatim: a base provenance is
    replayed through add after the unit, and its first `closed` words, a
    fixpoint at the same bounds, are indexed as processed.  The warm start
    rebuilt the root's run this way; a fork must equal it.  A run to 01
    replayed its route as the base; the run that lays it (Saturator.lay)
    must equal that one but for order."""

    def __init__(self, config, generators=(), targets=None, base=None, closed=0):
        self.config = config
        gens = set(generators)
        self.generators = frozenset(gens | {involute(g) for g in gens})
        self.members: set[str] = set()
        self.order: list[str] = []
        self.provenance: dict[str, tuple] = {}
        self.remaining = None if targets is None else set(targets)
        self.stats = {"products": 0, "ad_steps": 0}
        self._tails: dict[str, dict[int, dict[str, int]]] = {}
        self.add("", ("unit",))
        if base is not None:
            for w, prov in base.items():
                self.add(w, prov)
        for g in sorted(self.generators, key=shortlex_key):
            if len(g) > config.work_len:
                raise ValueError(
                    f"generator {format_word(g)} exceeds work_len {config.work_len}"
                )
            self.add(g, ("gen",))
        self._closed = closed
        for j in range(closed):
            self._index(j)


class FlipFreeSaturator(ThreeArgumentSide, Saturator):
    """Saturator.add and _partners before the flip step, verbatim but for
    the branches of the removed no-dual mode: each member's dual is added
    right after it, and only the dual step's member skips the partner
    query.  The flip step must reach this engine's fixpoint from {01}."""

    def add(self, w: str, prov: tuple):
        if w in self.members:
            return
        self.members.add(w)
        self.order.append(w)
        self.provenance[w] = prov
        if self.remaining:
            self.remaining.discard(w)
        d = involute(w)
        if d not in self.members:
            kind = prov[0]
            if kind == "prod":
                prov = ("prod", involute(prov[2]), involute(prov[1]))
            elif kind == "ad":
                prov = ("ad", prov[1], involute(prov[2]))
            self.add(d, prov)

    def _partners(self, i: int) -> list[tuple[int, int]]:
        """(j, sides) for each indexed order[j] = o such that m * o (sides
        bit 1) or o * m (bit 2) has a term within work_len that is not yet
        a member, by increasing j, where m = order[i]."""
        order = self.order
        m = order[i]
        d = involute(m)
        if d == order[i - 1] != m:  # the dual step's member
            sides = self._fresh_square(m) | 2 * self._fresh_square(d)
            return [(i - 1, sides)] if sides else []
        left = self._side(self._tails, m, self.members)
        right = self._side(self._tails, d, self.members)
        # a hit p is o*, next to o; o = m shows only in left
        mates = (order.index(involute(order[p]), p - 1, p + 2) for p in right)
        right = {j for j in mates if j <= i} | (left & {i})
        return [(j, (j in left) | 2 * (j in right)) for j in sorted(left | right)]

    def _fresh_square(self, x: str) -> bool:
        """True when x * x* has a term within work_len that is not a member:
        every cut is valid, so the terms are h + h* over prefixes h of x."""
        return any(x[:n] + involute(x[:n]) not in self.members
                   for n in range(1, min(len(x), self.config.work_len // 2) + 1))


def flip_free_ad_closure(seeds, ambient, config, stop_targets=None):
    """ad_closure's search on FlipFreeSaturator, with no route and no graft;
    returns the saturator."""
    by_last = AmbientView(ambient, config.closure).conjugators_by_last(config.ad_len)
    sat = FlipFreeSaturator(config.closure, seeds, stop_targets)
    sat.run(ad_scan=lambda x: _conjugations(x, by_last, config.closure.work_len))
    return sat


def recording(engine, steps: list):
    """A subclass of the Saturator class engine that appends (i, the
    _partners list of step i) to steps at every step."""

    class Recording(engine):
        def _partners(self, i):
            got = super()._partners(i)
            steps.append((i, got))
            return got

    return Recording


def saturate(engine, gens, config):
    """generate() on the given Saturator class (or factory); returns the
    saturator."""
    sat = engine(config, gens)
    sat.run()
    return sat


def engine_ad_closure(engine, seeds, ambient, config, stop_targets=None):
    """ad_closure on the given Saturator class (or factory) with the
    conjugation scan and the library's start, the flip graft included;
    returns the saturator, whose order, provenance and stats the tests
    compare.  Call memo_terms.cache_clear() when done."""
    view = AmbientView(ambient, config.closure)
    sat = engine(config.closure, seeds, stop_targets)
    # A search from {01} in au or pu grafts 10 and takes the flip step where
    # 100110 and the conjugator 10 fit and some target lies past the graft.
    if ({*seeds} == {ROOT} and ambient.kind != "gen" and config.closure.work_len >= 6
            and config.ad_len >= 2
            and (stop_targets is None or not {*stop_targets} <= {"", ROOT, "10"})):
        sat.start_flip(FLIP_GRAFT)
    conjugators = [y for y in view.simples(config.ad_len) if y]
    sat.run(ad_scan=lambda x: scan_conjugations(x, conjugators))
    return sat


def pairwise_ad_closure(seeds, ambient, config, stop_targets=None):
    """engine_ad_closure on PairwiseSaturator, filtered by the ambient."""
    view = AmbientView(ambient, config.closure)
    engine = partial(PairwiseSaturator, ambient=view)
    return engine_ad_closure(engine, seeds, ambient, config, stop_targets)


# --------------------------------------------------------------------------
# the sweep's report before it was built as its JSON dict: the oracle sweeps
# below build these, and the library's report must equal their to_json()


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
    against the result's generators; None when w has no derivation.
    normality's per-word sampling before witness_entries, with the node
    classes: each word's tree is built as nodes, replayed and written
    back as a tree on its own."""
    tree = witness(result, w)
    if tree is None:
        return None
    cert = certificate_from_json(tree)
    ok, why = verify_certificate_detailed(cert, set(result.generators))
    entry = {
        "word": format_word(w),
        "verified": ok,
        "certificate": certificate_to_json(cert),
    }
    if why is not None:
        entry["error"] = why
    return entry


def direct_check(name, view, config, targets, cert_samples=3):
    """The seed sweep before descent: every seed saturates on its own,
    stopping once it holds every target whose absence is not certified.
    Returns the SimplicityReport that the library's sweep must match."""
    records = []
    for seed in view.simples(config.seed_len)[1:]:
        eff = {seed, involute(seed)}
        missing_certified = []
        reachable = []
        for t in targets:
            if certified_absence(eff, t, is_ad=True) is None:
                reachable.append(t)
            else:
                missing_certified.append(t)
        cl = ad_closure(
            {seed}, view.ambient, config, stop_targets=reachable, _view=view
        )
        present = [t for t in reachable if t in cl.members]
        missing_within = [t for t in reachable if t not in cl.members]
        sample = sorted(present, key=shortlex_key, reverse=True)[:cert_samples]
        records.append(SeedRecord(
            seed=seed,
            status=_status(bool(missing_certified), bool(missing_within)),
            end="fixpoint" if cl.saturated else "targets",
            missing_certified=missing_certified,
            missing_within_bound=missing_within,
            certificates=[witness_entry(cl, w) for w in sample],
        ))
    statuses = {r.status for r in records}
    return SimplicityReport(
        check=name,
        ambient=view.ambient.describe(),
        config=config,
        seeds=records,
        verdict=_status("fail" in statuses, "inconclusive" in statuses),
    )


def unshared_check(name, view, config, targets, cert_samples=3):
    """normality._check before dual pairs shared a run: every seed but the
    root makes its own ad_closure call, witnesses and replays, and the
    seed_len guard compares view.count at seed_len and at work_len.  A seed
    outside a saturated root starts from the root's fixpoint, as in the
    library's sweep.
    Returns the SimplicityReport whose JSON the library's sweep must equal."""
    # A seed that does not fit within work_len cannot be a generator.
    if view.count(config.seed_len) > view.count(config.closure.work_len):
        raise ValueError(
            f"seed_len {config.seed_len} exceeds work_len "
            f"{config.closure.work_len}"
        )
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
        return {t for t in targets if certified_absence({seed}, t, is_ad=True) is None}

    root = None
    if ROOT in seeds:
        root = ad_closure(
            {ROOT}, view.ambient, config, stop_targets=reachable(ROOT), _view=view
        )
    records = []
    for seed in seeds:
        reach = reachable(seed)
        descend = seed != ROOT and root is not None and (
            root.members >= reach or (root.saturated and seed in root.members)
        )
        # The library's warm start, so that only the memo differs.
        warm = not descend and root is not None and root.saturated
        cl = root if seed == ROOT else ad_closure(
            {seed}, view.ambient, config,
            stop_targets={ROOT} if descend else reach, _view=view,
            _base=root if warm else None,
        )
        end = "fixpoint" if cl.saturated else "descent" if descend else "targets"
        if end == "descent":
            cl = ClosureResult(cl.generators, cl.config, cl.saturated, cl.stats,
                               {**root.provenance, **cl.provenance}, cl.is_ad)
        missing_certified = [t for t in targets if t not in reach]
        present = [t for t in targets if t in reach and t in cl.members]
        missing_within = [t for t in targets if t in reach and t not in cl.members]
        sample = sorted(present, key=shortlex_key, reverse=True)[:cert_samples]
        certificates = [witness_entry(cl, w) for w in sample]
        unverified = not all(c["verified"] for c in certificates)
        records.append(SeedRecord(
            seed=seed,
            status=_status(bool(missing_certified) or unverified,
                           bool(missing_within)),
            end=end,
            missing_certified=missing_certified,
            missing_within_bound=missing_within,
            certificates=certificates,
        ))
    statuses = {r.status for r in records}
    return SimplicityReport(
        check=name,
        ambient=view.ambient.describe(),
        config=config,
        seeds=records,
        verdict=_status("fail" in statuses, "inconclusive" in statuses),
    )


def cold_check(name, view, config, targets, cert_samples=3):
    """normality._check before a seed outside a saturated root started from
    the root's fixpoint: such a seed saturates cold, from its own
    generators.  Returns the SimplicityReport whose JSON, certificate trees
    left out, the library's sweep must equal.

    Descent: cut |s|-1 of s * s* is 01 or 10, and a closure deriving 01
    contains the root closure of 01.  A seed whose targets the root holds,
    or that a saturated root holds, stops at 01 and grafts the root's steps.

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


# --------------------------------------------------------------------------
# normality.ad_closure and normality._check before a run stopping at 01 took
# the closed-form route: such a run saturates until it derives 01, and a
# warm start rebuilds the root's run (ReplaySaturator).  The library's sweep
# must equal search_check's JSON, certificate trees left out.


def search_ad_closure(
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
        sat = ReplaySaturator(config.closure, seeds, stop_targets,
                              {**_base.provenance, **sat.provenance},
                              len(_base.provenance))
        sat.run(ad_scan=scan)
        sat.stats = {key: n + first[key] for key, n in sat.stats.items()}
    result = sat.result(is_ad=True)
    if _pairs is not None and sat.generators != seeds:  # else no dual to share
        _pairs[frozenset(map(involute, seeds))] = stop_targets, result
    return result



def search_check(name, view, config, targets, cert_samples):
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
        root = search_ad_closure(
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
        cl = own = root if seed == ROOT else search_ad_closure(
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


# --------------------------------------------------------------------------
# certificates as node classes, before they were their JSON trees: the
# classes, the tree parser and writer, and the replay, as the library had them


class Unit(_Value):
    """Leaf deriving the trivial simple."""

    __slots__ = _fields = ()
    word = ""


class Generator(_Value):
    """Leaf deriving a generator."""

    __slots__ = _fields = ("word",)

    def __init__(self, word: str):
        self.word = word


class ProductTerm(_Value):
    """Internal node: term selected from the product of two derived simples."""

    __slots__ = _fields = ("left", "right", "word")

    def __init__(self, left: Certificate, right: Certificate, word: str):
        self.left = left
        self.right = right
        self.word = word


class AdStep(_Value):
    """Internal node: conjugation of a derived simple by an ambient simple.

    Valid only when conjugator * inner * involute(conjugator) is a single
    simple with multiplicity one; that simple is `word`.
    """

    __slots__ = _fields = ("conjugator", "inner", "word")

    def __init__(self, conjugator: str, inner: Certificate, word: str):
        self.conjugator = conjugator
        self.inner = inner
        self.word = word


Certificate = Unit | Generator | ProductTerm | AdStep
_UNIT = Unit()


def certificate_to_json(cert: Certificate, written: dict | None = None) -> dict:
    """A certificate as a JSON tree.  With written, a memo by node id kept
    no longer than the nodes it names, a node shared in a DAG is written as
    one dict wherever it occurs; it serialises to the same bytes."""
    if written is not None:
        got = written.get(id(cert))
        if got is not None:
            return got
    if isinstance(cert, Unit):
        out = {"kind": "unit"}
    elif isinstance(cert, Generator):
        out = {"kind": "gen", "word": format_word(cert.word)}
    elif isinstance(cert, ProductTerm):
        out = {
            "kind": "prod",
            "left": certificate_to_json(cert.left, written),
            "right": certificate_to_json(cert.right, written),
            "term": format_word(cert.word),
        }
    elif isinstance(cert, AdStep):
        out = {
            "kind": "ad",
            "conjugator": format_word(cert.conjugator),
            "inner": certificate_to_json(cert.inner, written),
            "result": format_word(cert.word),
        }
    else:
        raise TypeError(f"not a certificate node: {cert!r}")
    if written is not None:
        written[id(cert)] = out
    return out


def certificate_from_json(obj: dict) -> Certificate:
    """Parse a certificate tree; a malformed node raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"certificate node must be an object, not {type(obj).__name__}"
        )
    kind = obj.get("kind")
    try:
        if kind == "prod":
            return ProductTerm(
                certificate_from_json(obj["left"]),
                certificate_from_json(obj["right"]),
                parse_word(obj["term"]),
            )
        if kind == "gen":
            return Generator(parse_word(obj["word"]))
        if kind == "ad":
            return AdStep(
                parse_word(obj["conjugator"]),
                certificate_from_json(obj["inner"]),
                parse_word(obj["result"]),
            )
        if kind == "unit":
            return _UNIT
    except KeyError as exc:
        raise ValueError(f"certificate node {kind!r} lacks key {exc}") from None
    raise ValueError(f"unknown certificate node kind: {kind!r}")


def verify_certificate_detailed(cert, gens, replayed=None) -> tuple[bool, str | None]:
    """Replay a certificate against the fusion rule only.

    A product node is checked at the one cut its word lengths fix
    (fusion.has_term).  An ad node multiplies by involute(y) only when
    y * x is a single simple: two terms there give y * x * involute(y)
    total multiplicity at least 2, so it cannot be the simple claimed.

    Returns (True, None) on success, otherwise (False, diagnostic path).
    The path is built only on failure: a node reports its own failure at
    "root", and its parent extends that to "root.left" and so on.

    replayed, a set of the ids of product and ad nodes already replayed
    valid against these gens, skips them and gains every such node that
    passes, so a DAG replays each node once.  A node's validity depends
    only on its subtree, so the answer is the tree replay's.  The caller
    keeps the nodes alive as long as the set.
    """
    kind = type(cert)
    if kind is ProductTerm:
        if replayed is not None and id(cert) in replayed:
            return True, None
        ok, why = verify_certificate_detailed(cert.left, gens, replayed)
        if not ok:
            return ok, "root.left" + why[4:]
        ok, why = verify_certificate_detailed(cert.right, gens, replayed)
        if not ok:
            return ok, "root.right" + why[4:]
        lw = cert.left.word
        rw = cert.right.word
        if has_term(lw, rw, cert.word):
            if replayed is not None:
                replayed.add(id(cert))
            return True, None
        return False, (f"root: {format_word(cert.word)} does not occur in "
                       f"{format_word(lw)} * {format_word(rw)}")
    if kind is Generator:
        if cert.word in gens:
            return True, None
        return False, f"root: {format_word(cert.word)} is not a generator"
    if kind is AdStep:
        if replayed is not None and id(cert) in replayed:
            return True, None
        ok, why = verify_certificate_detailed(cert.inner, gens, replayed)
        if not ok:
            return ok, "root.inner" + why[4:]
        y = cert.conjugator
        x = cert.inner.word
        first = mul_simple(y, x)
        if len(first) == 1 and (mul_many([first, {involute(y): 1}])
                                == {cert.word: 1}):
            if replayed is not None:
                replayed.add(id(cert))
            return True, None
        return False, (f"root: {format_word(y)} * {format_word(x)} * "
                       f"{format_word(involute(y))} is not exactly the single "
                       f"simple {format_word(cert.word)}")
    if kind is Unit:
        return True, None
    return False, f"root: malformed node {cert!r}"


# --------------------------------------------------------------------------
# the certificate replay before type dispatch and failure-only diagnostics


def old_parse_word(text: str) -> str:
    """parse_word as it validated with a set of symbols per word."""
    if not isinstance(text, str):
        raise ValueError(f"a word must be a string, not {type(text).__name__}")
    if text == "e":
        return ""
    if not text:
        raise ValueError('empty word token; the unit is written "e"')
    if set(text) - {"0", "1"}:
        raise ValueError(f"invalid word {text!r}: only '0' and '1' allowed")
    return text


def old_certificate_from_json(obj):
    """certificate_from_json as it tested the unit first and built a fresh
    Unit per leaf."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"certificate node must be an object, not {type(obj).__name__}"
        )
    kind = obj.get("kind")
    try:
        if kind == "unit":
            return Unit()
        if kind == "gen":
            return Generator(old_parse_word(obj["word"]))
        if kind == "prod":
            return ProductTerm(
                old_certificate_from_json(obj["left"]),
                old_certificate_from_json(obj["right"]),
                old_parse_word(obj["term"]),
            )
        if kind == "ad":
            return AdStep(
                old_parse_word(obj["conjugator"]),
                old_certificate_from_json(obj["inner"]),
                old_parse_word(obj["result"]),
            )
    except KeyError as exc:
        raise ValueError(f"certificate node {kind!r} lacks key {exc}") from None
    raise ValueError(f"unknown certificate node kind: {kind!r}")


def old_verify_certificate_detailed(cert, gens, path="root"):
    """verify_certificate_detailed as it dispatched by isinstance and built
    every child's path on the way down.  Every product, the triple product
    of an ad step too, comes from brute_force_product, so the library's
    mul_simple and mul_many are checked too."""
    if isinstance(cert, Unit):
        return True, None
    if isinstance(cert, Generator):
        if cert.word in gens:
            return True, None
        return False, f"{path}: {format_word(cert.word)} is not a generator"
    if isinstance(cert, ProductTerm):
        ok, why = old_verify_certificate_detailed(cert.left, gens, path + ".left")
        if not ok:
            return ok, why
        ok, why = old_verify_certificate_detailed(cert.right, gens, path + ".right")
        if not ok:
            return ok, why
        lw = cert.left.word
        rw = cert.right.word
        if brute_force_product(lw, rw).get(cert.word, 0) > 0:
            return True, None
        return (
            False,
            f"{path}: {format_word(cert.word)} does not occur in "
            f"{format_word(lw)} * {format_word(rw)}",
        )
    if isinstance(cert, AdStep):
        ok, why = old_verify_certificate_detailed(cert.inner, gens, path + ".inner")
        if not ok:
            return ok, why
        y = cert.conjugator
        x = cert.inner.word
        if brute_force_conjugate(y, x) == {cert.word: 1}:
            return True, None
        return (
            False,
            f"{path}: {format_word(y)} * {format_word(x)} * "
            f"{format_word(involute(y))} is not exactly the single simple "
            f"{format_word(cert.word)}",
        )
    return False, f"{path}: malformed node {cert!r}"


# --------------------------------------------------------------------------
# the certificate parser and replay before one word check per tree: every
# word parsed where the walk meets it, each replayed word read through a
# call, parse_word without its fast path and has_term forming the dual of
# y[:k] by a call to involute


def per_node_parse_word(text: str) -> str:
    """Parse the textual form: "e" for the unit, otherwise a '0'/'1' string.

    The empty string is rejected as ambiguous; the unit must be spelled "e".
    """
    if not isinstance(text, str):
        raise ValueError(f"a word must be a string, not {type(text).__name__}")
    if text == "e":
        return ""
    if not text:
        raise ValueError('empty word token; the unit is written "e"')
    if text.strip("01"):
        raise ValueError(f"invalid word {text!r}: only '0' and '1' allowed")
    return text


def per_node_has_term(x: str, y: str, w: str) -> bool:
    """True iff w is a term of x * y.  The term at cut k has length
    |x| + |y| - 2k, so only cut k = (|x| + |y| - |w|) / 2 can give w, and
    that cut alone is checked: no loop, no other cut."""
    d = len(x) + len(y) - len(w)
    k = d >> 1
    if d < 0 or d & 1 or k > len(x) or k > len(y):
        return False
    return x.endswith(involute(y[:k])) and w == x[:len(x) - k] + y[k:]


def _per_node_word(text: str) -> str:
    """A word of a checked tree, from its text form."""
    return "" if text == "e" else text


def _per_node_shown(w) -> str:
    """format_word of a word that failed its check; TypeError if it is no string."""
    if not isinstance(w, str):
        raise TypeError
    return format_word(w)


def per_node_certificate_from_json(obj: dict) -> dict:
    """Check a certificate tree and return it; a malformed node raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"certificate node must be an object, not {type(obj).__name__}"
        )
    kind = obj.get("kind")
    try:
        if kind == "prod":
            per_node_certificate_from_json(obj["left"])
            per_node_certificate_from_json(obj["right"])
            per_node_parse_word(obj["term"])
        elif kind == "gen":
            per_node_parse_word(obj["word"])
        elif kind == "ad":
            per_node_parse_word(obj["conjugator"])
            per_node_certificate_from_json(obj["inner"])
            per_node_parse_word(obj["result"])
        elif kind != "unit":
            raise ValueError(f"unknown certificate node kind: {kind!r}")
    except KeyError as exc:
        raise ValueError(f"certificate node {kind!r} lacks key {exc}") from None
    return obj


def per_node_verify_certificate_detailed(cert, gens, replayed=None) -> tuple[bool, str | None]:
    """Replay a certificate tree against the fusion rule only.

    A product node is checked at the one cut its word lengths fix
    (fusion.has_term).  An ad node multiplies by involute(y) only when
    y * x is a single simple: two terms there give y * x * involute(y)
    total multiplicity at least 2, so it cannot be the simple claimed.

    Returns (True, None) on success, otherwise (False, diagnostic path).
    The path is built only on failure: a node reports its own failure at
    "root", and its parent extends that to "root.left" and so on.  A node
    that is not a dict, lacks its kind or a key of its kind, or holds a word
    that is not a string (tested only where its replay fails) is malformed.

    replayed, a set of the ids of product and ad nodes already replayed
    valid against these gens, skips them and gains every such node that
    passes, so a DAG replays each node once.  A node's validity depends
    only on its subtree, so the answer is the tree replay's.  The caller
    keeps the nodes alive as long as the set.
    """
    why = _per_node_replay(cert, gens, replayed)[1]
    return why is None, why


def _per_node_replay(cert, gens, replayed) -> tuple[str | None, str | None]:
    """(the word cert derives, None) if it replays, else (None, why)."""
    try:
        kind = cert["kind"]
        if kind == "prod":
            w = _per_node_word(cert["term"])
            if replayed is not None and id(cert) in replayed:
                return w, None
            lw, why = _per_node_replay(cert["left"], gens, replayed)
            if why is not None:
                return None, "root.left" + why[4:]
            rw, why = _per_node_replay(cert["right"], gens, replayed)
            if why is not None:
                return None, "root.right" + why[4:]
            if per_node_has_term(lw, rw, w):
                if replayed is not None:
                    replayed.add(id(cert))
                return w, None
            return None, (f"root: {_per_node_shown(w)} does not occur in "
                          f"{format_word(lw)} * {format_word(rw)}")
        if kind == "gen":
            w = _per_node_word(cert["word"])
            if w in gens:
                return w, None
            return None, f"root: {_per_node_shown(w)} is not a generator"
        if kind == "ad":
            y, w = _per_node_word(cert["conjugator"]), _per_node_word(cert["result"])
            if replayed is not None and id(cert) in replayed:
                return w, None
            x, why = _per_node_replay(cert["inner"], gens, replayed)
            if why is not None:
                return None, "root.inner" + why[4:]
            first = mul_simple(y, x)
            if len(first) == 1 and mul_many([first, {involute(y): 1}]) == {w: 1}:
                if replayed is not None:
                    replayed.add(id(cert))
                return w, None
            return None, (f"root: {format_word(y)} * {format_word(x)} * "
                          f"{format_word(involute(y))} is not exactly the single "
                          f"simple {_per_node_shown(w)}")
        if kind == "unit":
            return "", None
    except (KeyError, TypeError):
        pass
    return None, f"root: malformed node {cert!r}"


# --------------------------------------------------------------------------
# the value types as dataclasses, before they became plain classes; only
# construction, validation, ==, hash and repr are kept, the methods they
# share with the library's classes are left out


@dataclass(frozen=True)
class OldClosureConfig:
    work_len: int = 12
    report_len: int = 6

    def __post_init__(self):
        if self.work_len < 0:
            raise ValueError("work_len must be nonnegative")
        if self.report_len > self.work_len:
            raise ValueError("report_len must not exceed work_len")
        if self.report_len < 0:
            raise ValueError("report_len must be nonnegative")


@dataclass(frozen=True)
class OldMembership:
    status: str
    reason: str | None = None


@dataclass
class OldClosureResult:
    generators: frozenset[str]
    config: OldClosureConfig
    saturated: bool
    stats: dict[str, int]
    provenance: dict[str, tuple] = field(repr=False)
    is_ad: bool = False


@dataclass(frozen=True)
class OldAmbient:
    kind: str
    gens: frozenset[str] = frozenset()


@dataclass(frozen=True)
class OldAdConfig:
    closure: OldClosureConfig = OldClosureConfig()
    ad_len: int = 8
    seed_len: int = 6

    def __post_init__(self):
        if self.ad_len > self.closure.work_len:
            raise ValueError("ad_len must not exceed work_len")
        if self.ad_len < 0:
            raise ValueError("ad_len must be nonnegative")
        if self.seed_len < 0:
            raise ValueError("seed_len must be nonnegative")


@dataclass
class OldSeedRecord:
    seed: str
    status: str
    end: str
    missing_certified: list[str] = field(default_factory=list)
    missing_within_bound: list[str] = field(default_factory=list)
    certificates: list[dict] = field(default_factory=list)


@dataclass
class OldSimplicityReport:
    check: str
    ambient: str
    config: OldAdConfig
    seeds: list[OldSeedRecord]
    verdict: str


# --------------------------------------------------------------------------
# the command-line parser before it was built lazily


def build_parser() -> _ArgumentParser:
    """cli's parser before it added arguments only to the invoked subcommand:
    every subcommand with all of its arguments, built eagerly."""
    parser = _ArgumentParser(prog="freefusion")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mul", help="fusion product of simples")
    p.add_argument("words", nargs="+")
    _add_output_flags(p)

    p = sub.add_parser("dual", help="dual of a word")
    p.add_argument("word")
    _add_output_flags(p)

    p = sub.add_parser("degree", help="degree of a word (#0 - #1)")
    p.add_argument("word")
    _add_output_flags(p)

    p = sub.add_parser("enumerate", help="list words in shortlex order")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--all", dest="filter", action="store_const", const="all")
    g.add_argument("--balanced", dest="filter", action="store_const",
                   const="balanced")
    p.set_defaults(filter="all")
    p.add_argument("--max-len", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("closure", help="bounded closure of a generated sub-semiring")
    p.add_argument("--gens", required=True, help="comma-separated words")
    p.add_argument("--member", help="query membership of a word")
    p.add_argument("--witness", help="emit a derivation certificate for a member")
    _add_bound_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("ad-closure", help="ad-saturated closure of seeds")
    p.add_argument("--seeds", required=True, help="comma-separated words")
    p.add_argument("--ambient", default="au", help="au, pu, or gen:w1,w2,...")
    p.add_argument("--member", help="query membership of a word")
    p.add_argument("--witness", help="emit a derivation certificate for a member")
    _add_bound_flags(p, ad_len=True)
    _add_output_flags(p)

    p = sub.add_parser("check-simple", help="per-seed simplicity check")
    p.add_argument("--ambient", default="pu", help="au, pu, or gen:w1,w2,...")
    p.add_argument("--cert-samples", type=int, default=3)
    _add_bound_flags(p, seed_len=True, ad_len=True)
    _add_output_flags(p)

    p = sub.add_parser("check-circle",
                       help="every nonempty seed reaches all balanced words")
    p.add_argument("--cert-samples", type=int, default=3)
    _add_bound_flags(p, seed_len=True, ad_len=True)
    _add_output_flags(p)

    p = sub.add_parser("invertibles", help="scan for invertible simples")
    p.add_argument("--max-len", type=int, required=True)
    _add_output_flags(p)

    p = sub.add_parser("verify-cert", help="replay a certificate file")
    p.add_argument("file")
    _add_output_flags(p)

    return parser
