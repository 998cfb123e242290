"""Bounded saturation of generated sub-semirings, with certificates.

The fusion semiring is infinite, so closures are computed up to a word
length bound (work_len).  Membership answers are three-valued: present
(with a replayable derivation certificate), certified absent (by an exact
invariant that holds in the full infinite closure), or merely not found
within the bound.
"""

from __future__ import annotations

import itertools
from math import gcd

from .fusion import has_term, mul_many, mul_simple
from .words import (
    degree,
    format_word,
    heights,
    involute,
    is_balanced,
    parse_word,
    shortlex_key,
)

# --------------------------------------------------------------------------
# value types and configuration


class _Value:
    """==, hash and repr over the fields named in _fields, minus _unshown in repr."""

    __slots__ = ()
    _unshown: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}"
                          for f in self._fields if f not in self._unshown)
        return f"{type(self).__qualname__}({shown})"


class _Frozen(_Value):
    """A value that refuses assignment: it is shared as a default argument."""

    def _set(self, *values):
        # Not __dict__.update: a materialised __dict__ makes every read slower.
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ClosureConfig(_Frozen):
    """Bounds for saturation: words longer than work_len are discarded,
    answers are reported up to report_len."""

    _fields = ("work_len", "report_len", "require_dual_closure")
    work_len = 12
    report_len = 6
    require_dual_closure = True

    def __init__(self, work_len: int = work_len, report_len: int = report_len,
                 require_dual_closure: bool = require_dual_closure):
        if work_len < 0:
            raise ValueError("work_len must be nonnegative")
        if report_len > work_len:
            raise ValueError("report_len must not exceed work_len")
        if report_len < 0:
            raise ValueError("report_len must be nonnegative")
        self._set(work_len, report_len, require_dual_closure)

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._key()))


# --------------------------------------------------------------------------
# certificates: immutable by contract, not by a guard, which would make
# each node of a parsed replay about three times as costly to build


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


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, Unit):
        return {"kind": "unit"}
    if isinstance(cert, Generator):
        return {"kind": "gen", "word": format_word(cert.word)}
    if isinstance(cert, ProductTerm):
        return {
            "kind": "prod",
            "left": certificate_to_json(cert.left),
            "right": certificate_to_json(cert.right),
            "term": format_word(cert.word),
        }
    if isinstance(cert, AdStep):
        return {
            "kind": "ad",
            "conjugator": format_word(cert.conjugator),
            "inner": certificate_to_json(cert.inner),
            "result": format_word(cert.word),
        }
    raise TypeError(f"not a certificate node: {cert!r}")


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


def verify_certificate_detailed(cert, gens) -> tuple[bool, str | None]:
    """Replay a certificate against the fusion rule only.

    A product node is checked at the one cut its word lengths fix
    (fusion.has_term).  An ad node multiplies by involute(y) only when
    y * x is a single simple: two terms there give y * x * involute(y)
    total multiplicity at least 2, so it cannot be the simple claimed.

    Returns (True, None) on success, otherwise (False, diagnostic path).
    The path is built only on failure: a node reports its own failure at
    "root", and its parent extends that to "root.left" and so on.
    """
    kind = type(cert)
    if kind is ProductTerm:
        ok, why = verify_certificate_detailed(cert.left, gens)
        if not ok:
            return ok, "root.left" + why[4:]
        ok, why = verify_certificate_detailed(cert.right, gens)
        if not ok:
            return ok, "root.right" + why[4:]
        lw = cert.left.word
        rw = cert.right.word
        if has_term(lw, rw, cert.word):
            return True, None
        return False, (f"root: {format_word(cert.word)} does not occur in "
                       f"{format_word(lw)} * {format_word(rw)}")
    if kind is Generator:
        if cert.word in gens:
            return True, None
        return False, f"root: {format_word(cert.word)} is not a generator"
    if kind is AdStep:
        ok, why = verify_certificate_detailed(cert.inner, gens)
        if not ok:
            return ok, "root.inner" + why[4:]
        y = cert.conjugator
        x = cert.inner.word
        first = mul_simple(y, x)
        if len(first) == 1 and (mul_many([first, {involute(y): 1}])
                                == {cert.word: 1}):
            return True, None
        return False, (f"root: {format_word(y)} * {format_word(x)} * "
                       f"{format_word(involute(y))} is not exactly the single "
                       f"simple {format_word(cert.word)}")
    if kind is Unit:
        return True, None
    return False, f"root: malformed node {cert!r}"


def verify_certificate(cert, gens) -> bool:
    """True iff the certificate replays correctly from the given generators."""
    ok, _ = verify_certificate_detailed(cert, set(gens))
    return ok


# --------------------------------------------------------------------------
# membership answers


ABSENT_HEIGHT = "prefix-height"
ABSENT_DEGREE = "degree"


class Membership(_Frozen):
    """Three-valued membership answer.

    status "present": in the computed closure, certificate available.
    status "absent-certified": provably absent from the full infinite
    closure (reason "prefix-height" or "degree").
    status "absent-within-bound": not among the retained members; no claim
    about the infinite closure.
    """

    _fields = ("status", "reason")

    def __init__(self, status: str, reason: str | None = None):
        self._set(status, reason)

    @property
    def present(self) -> bool:
        return self.status == "present"

    def to_json(self) -> dict:
        return {f: v for f, v in zip(self._fields, self._key()) if v is not None}


PRESENT = Membership("present")
ABSENT_WITHIN_BOUND = Membership("absent-within-bound")


# --------------------------------------------------------------------------
# saturation


class ClosureResult(_Value):
    """Bounded closure of a generated sub-semiring.

    `generators` is the effective generating set (dual-closed when the
    config asks for it); `provenance` maps each derived simple of length at
    most work_len to one derivation step, from which witness certificates
    are rebuilt on demand, and `members` is a read-only view of its keys.
    to_json counts every member and lists those up to report_len.
    """

    _fields = ("generators", "config", "saturated", "stats", "provenance", "is_ad")
    _unshown = ("provenance",)
    __hash__ = None  # mutable

    def __init__(self, generators: frozenset[str], config: ClosureConfig,
                 saturated: bool, stats: dict[str, int],
                 provenance: dict[str, tuple], is_ad: bool = False):
        self.generators = generators
        self.config = config
        self.saturated = saturated
        self.stats = stats
        self.provenance = provenance
        self.is_ad = is_ad

    @property
    def members(self):
        return self.provenance.keys()

    def to_json(self) -> dict:
        shown = [w for w in self.provenance if len(w) <= self.config.report_len]
        return {
            "generators": [
                format_word(g) for g in sorted(self.generators, key=shortlex_key)
            ],
            "config": self.config.to_json(),
            "ad": self.is_ad,
            "saturated": self.saturated,
            "stats": dict(sorted(self.stats.items())),
            "member_count": len(self.provenance),
            "members": [format_word(w) for w in sorted(shown, key=shortlex_key)],
        }


class Saturator:
    """Worklist fixpoint engine for fusion saturation.

    The engine starts from the unit, then the given generators (which it
    dual-closes under dual closure) in shortlex order; each must fit within
    work_len.  Members are processed in discovery order (breadth-first over
    the derivation DAG): processing a member multiplies it, in both orders,
    with every member processed so far, and optionally scans its adjoint
    conjugations.  Discovery order is itself deterministic, so the trace,
    the member set and every certificate are reproducible.  An optional
    target set allows stopping as soon as all targets have been derived (the
    member set is then a sound under-approximation of the fixpoint).

    Under dual closure each member's dual is added right after it by the
    dual step: x * y becomes y* * x*, y * m * y* becomes y * m* * y*, and a
    generator stays a generator.  The duals of x, y and m were added right
    after them, so the dual step only refers to earlier members.

    Only products that can add a member are evaluated.  The terms of x * y
    are x[:|x| - k] + y[k:] over the valid cuts k = 0..K (fusion.mul_simple),
    and the cut k is valid when the length-k prefix of y is the dual of the
    length-k suffix of x.  Each processed member is indexed at every split
    by head, then length, then tail.  For a new member m and a cut k, the
    partners o of m * o are one lookup, and all their terms within work_len
    are tested against the members in bulk.  The terms of o * m are the
    duals of those of m* * o*, so the same query with m*, tested against the
    members' duals, finds the duals p = o* of the partners of o * m: in the
    one index under dual closure, where o sits next to p in order, and in a
    second index of the duals without it.  The dual step's member m runs no
    query: its products with processed members are the duals of those that
    step i - 1 absorbed for m*, but for m * m* and m* * m.
    A pair is evaluated, in the usual order, only when one of its terms was
    not a member when the step began.  Any other pair would add nothing, and
    done() can only change after an add, so members, order and provenance
    are those of multiplying every pair.  An evaluated pair adds the terms
    of fusion's product that fit within work_len.  stats["products"] counts
    the products evaluated: those with a term that was not a member when
    their step began (fewer if the run stops early).
    A base provenance is replayed through add after the unit.  Its first
    `closed` words, a fixpoint at the same bounds, are indexed as processed.
    """

    def __init__(self, config: ClosureConfig, generators=(), targets=None,
                 base=None, closed=0):
        self.config = config
        self._dual = dual = config.require_dual_closure
        gens = set(generators)
        self.generators = frozenset(gens | {involute(g) for g in gens if dual})
        self.members: set[str] = set()
        self._duals = self.members if dual else set()  # the members' duals
        self.order: list[str] = []
        self.provenance: dict[str, tuple] = {}
        self.remaining = None if targets is None else set(targets)
        self.stats = {"products": 0, "ad_steps": 0}
        self._tails: dict[str, dict[int, dict[str, int]]] = {}
        self._dual_tails = self._tails if dual else {}  # filed duals
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

    def add(self, w: str, prov: tuple):
        if w in self.members:
            return
        self.members.add(w)
        self.order.append(w)
        self.provenance[w] = prov
        if self.remaining:
            self.remaining.discard(w)
        d = involute(w)
        if not self._dual:
            self._duals.add(d)
        elif d not in self.members:
            kind = prov[0]
            if kind == "prod":
                prov = ("prod", involute(prov[2]), involute(prov[1]))
            elif kind == "ad":
                prov = ("ad", prov[1], involute(prov[2]))
            self.add(d, prov)

    def done(self) -> bool:
        """True once every target is derived; it answers and writes nothing.
        The remaining work is then skipped, so the result is only an
        under-approximation of the fixpoint."""
        return self.remaining is not None and not self.remaining

    def _index(self, j: int):
        """Index the processed member order[j] = o at every split
        o = head + tail as _tails[head][len(o)][tail] = j.  Without dual
        closure its dual is filed the same way in _dual_tails."""
        o = self.order[j]
        if not o:
            return  # m * e = e * m = m is always a member
        n = len(o)
        filed = ((self._tails, o), (self._dual_tails, involute(o)))
        for index, w in filed[:1] if self._dual else filed:
            for k in range(n + 1):
                index.setdefault(w[:k], {}).setdefault(n, {})[w[k:]] = j

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

    def _partners(self, i: int) -> list[tuple[int, int]]:
        """(j, sides) for each indexed order[j] = o such that m * o (sides
        bit 1) or o * m (bit 2) has a term within work_len that is not yet
        a member, by increasing j, where m = order[i]."""
        order = self.order
        m = order[i]
        d = involute(m)
        if self._dual and d == order[i - 1] != m:  # the dual step's member
            sides = self._fresh_square(m) | 2 * self._fresh_square(d)
            return [(i - 1, sides)] if sides else []
        left = self._side(self._tails, m, self.members)
        right = self._side(self._dual_tails, d, self._duals)
        if self._dual:  # a hit p is o*, next to o; o = m shows only in left
            mates = (order.index(involute(order[p]), p - 1, p + 2) for p in right)
            right = {j for j in mates if j <= i} | (left & {i})
        return [(j, (j in left) | 2 * (j in right)) for j in sorted(left | right)]

    def _fresh_square(self, x: str) -> bool:
        """True when x * x* has a term within work_len that is not a member:
        every cut is valid, so the terms are h + h* over prefixes h of x."""
        return any(x[:n] + involute(x[:n]) not in self.members
                   for n in range(1, min(len(x), self.config.work_len // 2) + 1))

    def _absorb(self, x: str, y: str):
        """Add the terms of x * y within work_len."""
        self.stats["products"] += 1
        for t in mul_simple(x, y):
            if len(t) <= self.config.work_len and t not in self.members:
                self.add(t, ("prod", x, y))

    def run(self, ad_scan=None):
        """Process the worklist to fixpoint or target stop.

        ad_scan, when given, maps a member to (conjugator, result) pairs;
        results are added with an adjoint provenance step.
        """
        work_len = self.config.work_len
        i = self._closed
        while i < len(self.order):
            if self.done():
                return
            m = self.order[i]
            self._index(i)
            for j, sides in self._partners(i):
                o = self.order[j]
                if sides & 1:
                    self._absorb(m, o)
                if sides & 2 and j != i:
                    self._absorb(o, m)
                if self.done():
                    return
            if ad_scan is not None:
                for y, z in ad_scan(m):
                    self.stats["ad_steps"] += 1
                    if len(z) <= work_len:
                        self.add(z, ("ad", y, m))
                if self.done():
                    return
            i += 1

    def result(self, is_ad: bool) -> ClosureResult:
        # The base predicate: a done() override's stop (a full ambient) is a fixpoint.
        return ClosureResult(
            generators=self.generators,
            config=self.config,
            saturated=not Saturator.done(self),
            stats={**self.stats, "members": len(self.provenance)},
            provenance=self.provenance,
            is_ad=is_ad,
        )


def generate(gens, config: ClosureConfig = ClosureConfig()) -> ClosureResult:
    """Least fixpoint, within the length bound, of fusion generation from
    the given simples (plus the unit, plus duals by default)."""
    sat = Saturator(config, gens)
    sat.run()
    return sat.result(is_ad=False)


# --------------------------------------------------------------------------
# membership and witnesses


def certified_absence(generators, w: str, is_ad: bool) -> str | None:
    """Reason why w provably cannot lie in the full infinite closure, or None.

    Degree obstruction: degrees of derivable simples lie in the subgroup
    of the integers generated by the generator degrees (conjugation is
    degree-preserving, so this also holds for ad-closures).  Prefix height,
    when the generators, and so the members, are balanced: a prefix of a
    term a + b of x * y, x = a + g, y = g* + b, is a prefix of x or has the
    degree of a prefix of y, so no member is higher (words.heights), either
    way up, than the highest generator.  Not for ad steps, which can be.
    """
    g = 0
    for gen in generators:
        g = gcd(g, abs(degree(gen)))
    d = degree(w)
    if (d != 0 if g == 0 else d % g != 0):
        return ABSENT_DEGREE
    if not is_ad and g == 0:
        top, bottom = map(max, zip((0, 0), *map(heights, generators)))
        hi, lo = heights(w)
        if hi > top or lo > bottom:
            return ABSENT_HEIGHT
    return None


def member(result: ClosureResult, w: str) -> Membership:
    """Three-valued membership of a simple in the closure."""
    if w in result.members:
        return PRESENT
    reason = certified_absence(result.generators, w, result.is_ad)
    if reason is not None:
        return Membership("absent-certified", reason)
    return ABSENT_WITHIN_BOUND


def witness(result: ClosureResult, w: str) -> Certificate | None:
    """Derivation certificate for a member, or None for a non-member."""
    if w not in result.members:
        return None
    memo: dict[str, Certificate] = {}

    def build(u: str) -> Certificate:
        got = memo.get(u)
        if got is not None:
            return got
        step = result.provenance[u]
        kind = step[0]
        if kind == "unit":
            cert: Certificate = _UNIT
        elif kind == "gen":
            cert = Generator(u)
        elif kind == "prod":
            cert = ProductTerm(build(step[1]), build(step[2]), u)
        elif kind == "ad":
            cert = AdStep(step[1], build(step[2]), u)
        else:
            raise ValueError(f"unknown provenance step {step!r}")
        memo[u] = cert
        return cert

    return build(w)


# --------------------------------------------------------------------------
# enumeration


def enumerate_words(which: str = "all", max_len: int = 0) -> list[str]:
    """All words (or all balanced words) of length <= max_len, shortlex."""
    if which not in ("all", "balanced"):
        raise ValueError(f"unknown word filter {which!r}")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    out = []
    for n in range(max_len + 1):
        if which == "balanced" and n % 2:
            continue
        for t in itertools.product("01", repeat=n):
            w = "".join(t)
            if which == "balanced" and not is_balanced(w):
                continue
            out.append(w)
    return out
