"""Shared test utilities, kept independent of the library's product path."""

import importlib.util
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import product as iproduct
from pathlib import Path

from freefusion.closure import (
    AdStep,
    ClosureResult,
    Generator,
    ProductTerm,
    Saturator,
    Unit,
    certified_absence,
)
from freefusion.normality import (
    ROOT,
    AmbientView,
    SeedRecord,
    SimplicityReport,
    _status,
    ad_closure,
    witness_entry,
)
from freefusion.words import format_word, involute, shortlex_key


def bench_oracle():
    """perfbench/oracle.py, loaded by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


class TwoIndexSaturator(Saturator):
    """The library's saturation loop with a second partner index that holds
    every processed member's dual, under dual closure too, and both product
    orders queried at every step."""

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
        right = self._side(self._dual_tails, involute(m), self._duals)
        return [(j, (j in left) | 2 * (j in right)) for j in sorted(left | right)]


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
    conjugation scan; returns the saturator, whose order, provenance and
    stats the tests compare.  Call memo_terms.cache_clear() when done."""
    view = AmbientView(ambient, config.closure)
    sat = engine(config.closure, seeds, stop_targets)
    conjugators = [y for y in view.simples(config.ad_len) if y]
    sat.run(ad_scan=lambda x: scan_conjugations(x, conjugators))
    return sat


def pairwise_ad_closure(seeds, ambient, config, stop_targets=None):
    """engine_ad_closure on PairwiseSaturator, filtered by the ambient."""
    view = AmbientView(ambient, config.closure)
    engine = partial(PairwiseSaturator, ambient=view)
    return engine_ad_closure(engine, seeds, ambient, config, stop_targets)


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
# the value types as dataclasses, before they became plain classes; only
# construction, validation, ==, hash and repr are kept, the methods they
# share with the library's classes are left out


@dataclass(frozen=True)
class OldClosureConfig:
    work_len: int = 12
    report_len: int = 6
    require_dual_closure: bool = True

    def __post_init__(self):
        if self.work_len < 0:
            raise ValueError("work_len must be nonnegative")
        if self.report_len > self.work_len:
            raise ValueError("report_len must not exceed work_len")
        if self.report_len < 0:
            raise ValueError("report_len must be nonnegative")


@dataclass(frozen=True)
class OldUnit:
    word = ""


@dataclass(frozen=True)
class OldGenerator:
    word: str


@dataclass(frozen=True)
class OldProductTerm:
    left: object
    right: object
    word: str


@dataclass(frozen=True)
class OldAdStep:
    conjugator: str
    inner: object
    word: str


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
        if not self.closure.require_dual_closure:
            raise ValueError("ad-closures require dual closure")
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
