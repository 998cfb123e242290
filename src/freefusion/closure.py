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
    all_words,
    check_words,
    degree,
    flip,
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

    _fields = ("work_len", "report_len")
    work_len = 12
    report_len = 6

    def __init__(self, work_len: int = work_len, report_len: int = report_len):
        if work_len < 0:
            raise ValueError("work_len must be nonnegative")
        if report_len > work_len:
            raise ValueError("report_len must not exceed work_len")
        if report_len < 0:
            raise ValueError("report_len must be nonnegative")
        self._set(work_len, report_len)

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._key()))


# --------------------------------------------------------------------------
# certificates: JSON trees, as reports and certificate files hold them.  A
# node is {"kind": "unit"}, {"kind": "gen", "word"}, {"kind": "prod",
# "left", "right", "term"} or {"kind": "ad", "conjugator", "inner",
# "result"}, with its words in their text form ("e" for the unit)


def _shown(w) -> str:
    """format_word of a word that failed its check; TypeError if it is no string."""
    if not isinstance(w, str):
        raise TypeError
    return format_word(w)


def certificate_from_json(obj: dict) -> dict:
    """Check a certificate tree and return it; a malformed node raises ValueError."""
    ws: list = []
    try:
        _collect_words(obj, ws)
    finally:  # parse one by one only for the first error, met before a malformed node too
        if not all_words(ws):
            for w in ws:
                parse_word(w)
    return obj


def _collect_words(obj, words: list):
    """Append obj's words to words in parse order; ValueError at a malformed node."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"certificate node must be an object, not {type(obj).__name__}"
        )
    kind = obj.get("kind")
    try:
        if kind == "prod":
            _collect_words(obj["left"], words)
            _collect_words(obj["right"], words)
            words.append(obj["term"])
        elif kind == "gen":
            words.append(obj["word"])
        elif kind == "ad":
            words.append(obj["conjugator"])
            _collect_words(obj["inner"], words)
            words.append(obj["result"])
        elif kind != "unit":
            raise ValueError(f"unknown certificate node kind: {kind!r}")
    except KeyError as exc:
        raise ValueError(f"certificate node {kind!r} lacks key {exc}") from None


def verify_certificate_detailed(cert, gens, replayed=None,
                                ambient=None) -> tuple[bool, str | None]:
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
    valid against these gens and ambient, skips them and gains every such
    node that passes, so a DAG replays each node once.  A node's validity
    depends only on its subtree, so the answer is the tree replay's.  The
    caller keeps the nodes alive as long as the set.

    ambient, when given, is a view of the semiring the proof lives in
    (normality.AmbientView): every generator and every conjugator of a valid
    ad node must be one of its simples.  The first that is not (generators
    first, shortlex by str) fails as "generators: w is not a pu simple" or at
    its node's path.  Without one every word is a simple (au), tested nowhere.
    gens as a bare str would be a substring test, so it is refused.
    """
    if isinstance(gens, str):
        raise ValueError(f"generators must come as a collection, not the bare str {gens!r}")
    if ambient is not None:
        foreign = [g for g in gens if not ambient.contains(g)]
        if foreign:
            first = format_word(min(map(str, foreign), key=shortlex_key))
            return False, f"generators: {first} is not a {ambient.name} simple"
    why = _replay(cert, gens, replayed, ambient)[1]
    return why is None, why


def _replay(cert, gens, replayed, ambient) -> tuple[str | None, str | None]:
    """(the word cert derives, None) if it replays, else (None, why)."""
    try:
        kind = cert["kind"]
        if kind == "prod":
            w = "" if (t := cert["term"]) == "e" else t
            if replayed is not None and id(cert) in replayed:
                return w, None
            lw, why = _replay(cert["left"], gens, replayed, ambient)
            if why is not None:
                return None, "root.left" + why[4:]
            rw, why = _replay(cert["right"], gens, replayed, ambient)
            if why is not None:
                return None, "root.right" + why[4:]
            if has_term(lw, rw, w):
                if replayed is not None:
                    replayed.add(id(cert))
                return w, None
            return None, (f"root: {_shown(w)} does not occur in "
                          f"{format_word(lw)} * {format_word(rw)}")
        if kind == "gen":
            w = "" if (t := cert["word"]) == "e" else t
            if w in gens:
                return w, None
            return None, f"root: {_shown(w)} is not a generator"
        if kind == "ad":
            y = "" if (t := cert["conjugator"]) == "e" else t
            w = "" if (t := cert["result"]) == "e" else t
            if replayed is not None and id(cert) in replayed:
                return w, None
            x, why = _replay(cert["inner"], gens, replayed, ambient)
            if why is not None:
                return None, "root.inner" + why[4:]
            first = mul_simple(y, x)
            if len(first) == 1 and mul_many([first, {involute(y): 1}]) == {w: 1}:
                if ambient is not None and not ambient.contains(y):
                    return None, f"root: {format_word(y)} is not a {ambient.name} simple"
                if replayed is not None:
                    replayed.add(id(cert))
                return w, None
            return None, (f"root: {format_word(y)} * {format_word(x)} * "
                          f"{format_word(involute(y))} is not exactly the single "
                          f"simple {_shown(w)}")
        if kind == "unit":
            return "", None
    except (KeyError, TypeError):
        pass
    return None, f"root: malformed node {cert!r}"


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

    def to_json(self) -> dict:
        return {f: v for f, v in zip(self._fields, self._key()) if v is not None}


PRESENT = Membership("present")
ABSENT_WITHIN_BOUND = Membership("absent-within-bound")


# --------------------------------------------------------------------------
# saturation


class ClosureResult(_Value):
    """Bounded closure of a generated sub-semiring.

    `generators` is the effective generating set: the given words and
    their duals.  `provenance` maps each derived simple of length at most
    work_len to one derivation step, from which witness certificates
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

    The engine starts from the unit, then the given generators and their
    duals in shortlex order; each must fit within work_len.  Members are
    processed in discovery order (breadth-first over the derivation DAG):
    processing a member multiplies it, in both orders, with every member
    processed so far, and optionally scans its adjoint conjugations.
    Discovery order is itself deterministic, so the trace, the member set
    and every certificate are reproducible.  An optional target set allows
    stopping as soon as all targets have been derived (the member set is
    then a sound under-approximation of the fixpoint).

    The dual step adds each member's dual right after it, so every closure
    is dual-closed: x * y becomes y* * x*, y * m * y* becomes y * m* * y*,
    and a generator stays a generator.  The duals of x, y and m were added
    right after them, so the dual step only refers to earlier members.

    Only products that can add a member are evaluated.  The terms of x * y
    are x[:|x| - k] + y[k:] over the valid cuts k = 0..K (fusion.mul_simple),
    and the cut k is valid when the length-k prefix of y is the dual of the
    length-k suffix of x.  Each processed member is indexed at every split
    by head, then length, then tail.  For a new member m and a cut k, the
    partners o of m * o are one lookup, and all their terms within work_len
    are tested against the members in bulk.  The terms of o * m are the
    duals of those of m* * o*, and the members are their own duals, so the
    same query with m* finds each p = o*, next to o in order.  After
    start_flip the flip step adds each member's flip right after it and its
    dual, by its step flipped, so an orbit {r, r*, flip r*, flip r} comes
    whole.  Only r queries: a later word's products with earlier orbits are
    duals or flips of r's, so it tests only its pairs with the orbit's
    earlier words (m* for the dual step's m).
    A pair is evaluated, in the usual order, only when one of its terms was
    not a member when the step began.  Any other pair would add nothing, and
    done() can only change after an add, so members, order and provenance
    are those of multiplying every pair.  An evaluated pair adds the terms
    of fusion's product that fit within work_len.  stats["products"] counts
    the products evaluated: those with a term that was not a member when
    their step began (fewer if the run stops early).
    Steps derived elsewhere enter a run only through lay.
    """

    _flip = False  # see start_flip

    def __init__(self, config: ClosureConfig, generators=(), targets=None):
        self.config = config
        gens = set(check_words(generators))
        self.generators = frozenset(gens | {involute(g) for g in gens})
        self.members: set[str] = set()
        self.order: list[str] = []
        self.provenance: dict[str, tuple] = {}
        self.remaining = None if targets is None else set(check_words(targets))
        self.stats = {"products": 0, "ad_steps": 0}
        self._tails: dict[str, dict[int, dict[str, int]]] = {}
        self._closed = 0
        self.add("", ("unit",))
        for g in sorted(self.generators, key=shortlex_key):
            if len(g) > config.work_len:
                raise ValueError(
                    f"generator {format_word(g)} exceeds work_len {config.work_len}"
                )
            self.add(g, ("gen",))

    def fork(self, generators, targets, steps: dict) -> Saturator:
        """A run from generators resuming after this saturated run, all of whose
        words count as processed: a copy of its members, order, provenance and
        index, with steps that must hold every generator laid over it by lay."""
        sat = Saturator(self.config, generators, targets)  # checks the generators
        sat.members, sat.order = set(self.members), self.order[:]
        sat.provenance = dict(self.provenance)
        sat._tails = {head: {n: {**group} for n, group in by_len.items()}
                      for head, by_len in self._tails.items()}
        sat.remaining = None if targets is None else set(targets) - sat.members
        sat._closed = len(self.order)
        sat.lay(steps)
        return sat

    def lay(self, steps: dict):
        """Add steps derived elsewhere through add, in their order; a word this
        run already holds keeps its place and takes the step."""
        for w, prov in steps.items():
            self.add(w, prov)
        self.provenance.update(steps)

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
            self.add(d, ("prod", involute(prov[2]), involute(prov[1])) if kind == "prod"
                     else ("ad", prov[1], involute(prov[2])) if kind == "ad" else prov)
        if self._flip and flip(w) not in self.members:
            self.add(flip(w), (prov[0], *map(flip, prov[1:])))

    def start_flip(self, steps: dict):
        """Take the flip step from here on, then lay steps: they must derive
        the flips of the members so far, as the flip of a generator is none."""
        self._flip = True
        self.lay(steps)

    def done(self) -> bool:
        """True once every target is derived; it answers and writes nothing.
        The remaining work is then skipped, so the result is only an
        under-approximation of the fixpoint."""
        return self.remaining is not None and not self.remaining

    def _index(self, j: int):
        """Index the processed member order[j] = o at every split
        o = head + tail as _tails[head][len(o)][tail] = j."""
        o = self.order[j]
        if not o:
            return  # m * e = e * m = m is always a member
        n = len(o)
        for k in range(n + 1):
            self._tails.setdefault(o[:k], {}).setdefault(n, {})[o[k:]] = j

    def _side(self, m: str) -> set[int]:
        """The j of each indexed o such that m * o has a term within work_len
        that is not a member.  Cut k is valid when o starts with m*[:k]; its
        term m[:|m| - k] + o[k:] is within work_len when
        |o| <= work_len - |m| + 2k."""
        index, members = self._tails, self.members
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
        prev = order[i - 1]
        # A later word of an orbit tests only its pairs with the earlier ones: m*
        # after the dual step; flip(m), and its dual if another word, after the flip step.
        if d == prev != m:
            orbit = (i - 1,)
        elif self._flip and flip(m) == prev:
            orbit = (i - 1,) if involute(prev) == prev else (i - 2, i - 1)
        else:
            left = self._side(m)
            right = self._side(d)  # a hit p is o*, next to o; o = m shows only in left
            mates = (order.index(involute(order[p]), p - 1, p + 2) for p in right)
            right = {j for j in mates if j <= i} | (left & {i})
            return [(j, (j in left) | 2 * (j in right)) for j in sorted(left | right)]
        return [(j, sides) for j in orbit
                if (sides := self._fresh(m, order[j]) | 2 * self._fresh(order[j], m))]

    def _fresh(self, x: str, y: str) -> bool:
        """True when x * y has a term within work_len that is not a member: the terms
        of x[:|x| - k] * y[k:], k = ceil((|x| + |y| - work_len) / 2), if cut k is valid."""
        k = max(0, (len(x) + len(y) - self.config.work_len + 1) // 2)
        return (x.endswith(involute(y[:k]))
                and not self.members.issuperset(mul_simple(x[:len(x) - k], y[k:])))

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
    the given simples, plus the unit and their duals."""
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
    generators = check_words(generators)
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
    check_words([w])
    if w in result.members:
        return PRESENT
    reason = certified_absence(result.generators, w, result.is_ad)
    if reason is not None:
        return Membership("absent-certified", reason)
    return ABSENT_WITHIN_BOUND


def witness(result: ClosureResult, w: str, _memo: dict | None = None) -> dict | None:
    """Derivation certificate tree for a member, or None for a non-member.
    _memo, word -> node, shared across calls on one result makes their
    certificates one DAG: a shared node is one dict wherever it occurs."""
    check_words([w])
    if w not in result.members:
        return None
    memo: dict[str, dict] = {} if _memo is None else _memo

    def build(u: str) -> dict:
        got = memo.get(u)
        if got is not None:
            return got
        step = result.provenance[u]
        kind = step[0]
        if kind == "unit":
            cert = {"kind": "unit"}
        elif kind == "gen":
            cert = {"kind": "gen", "word": format_word(u)}
        elif kind == "prod":
            cert = {"kind": "prod", "left": build(step[1]), "right": build(step[2]),
                    "term": format_word(u)}
        elif kind == "ad":
            cert = {"kind": "ad", "conjugator": format_word(step[1]),
                    "inner": build(step[2]), "result": format_word(u)}
        else:
            raise ValueError(f"unknown provenance step {step!r}")
        memo[u] = cert
        return cert

    return build(w)


# --------------------------------------------------------------------------
# enumeration and the closed-form ambients


class ClosedForm(_Frozen):
    """An ambient in closed form: `in` tests its simples, the strs over 0 and 1
    that _holds(w) keeps (no other value is one); enumerate_words lists them
    under filter, and longest(n) is the length of the longest of <= n letters."""

    _fields = ("filter",)

    def __init__(self, filter: str):
        self._set(filter)

    def __contains__(self, w) -> bool:
        return isinstance(w, str) and not w.strip("01") and self._holds(w)

    def _holds(self, w: str) -> bool:  # for a word w
        return self.filter == "all" or is_balanced(w)

    def longest(self, n: int) -> int:
        return n if self.filter == "all" else n - n % 2


# The one definition: au, the full free unitary semiring, and pu, its projective quotient.
CLOSED_FORMS = {"au": ClosedForm("all"), "pu": ClosedForm("balanced")}


def enumerate_words(which: str = "all", max_len: int = 0) -> list[str]:
    """All words, or all balanced words, of length <= max_len, shortlex."""
    form = next((f for f in CLOSED_FORMS.values() if f.filter == which), None)
    if form is None:
        raise ValueError(f"unknown word filter {which!r}")
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    # longest(n) == n exactly when some simple has length n.
    return [w for n in range(max_len + 1) if form.longest(n) == n
            for w in map("".join, itertools.product("01", repeat=n)) if form._holds(w)]
