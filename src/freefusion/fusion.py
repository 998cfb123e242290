"""The fusion semiring of the free unitary quantum group.

An Element is a finite formal sum of simples with positive integer
multiplicities, stored as a dict mapping word -> multiplicity.  The product
of two simples r_x r_y is the sum of r_{ab} over all ways of writing
x = a g and y = involute(g) b; the general product extends this bilinearly.
Python integers are unbounded, so multiplicities can never wrap around.
"""

from __future__ import annotations

from .words import FLIP, format_word, involute, shortlex_key

Element = dict[str, int]

UNIT: Element = {"": 1}


def mul_simple(x: str, y: str) -> Element:
    """Product of two simples: one term a + b per valid cut x = a g,
    y = involute(g) b.

    Cut k is valid when the length-k suffix g of x has involute(g) equal to
    the length-k prefix of y, that is when y[i] != x[-1 - i] for every
    i < k.  So the valid cuts are exactly 0..K, where K is the length of the
    longest common prefix of reverse(x) and flip(y), and this loop is where
    that law is stated.  Cut k gives the term x[:|x| - k] + y[k:], of length
    |x| + |y| - 2k, so the terms are distinct, each has multiplicity one,
    and the keys come in cut order 0..K.
    """
    out = {x + y: 1}
    k = 0
    for a, b in zip(reversed(x), y):
        if a == b:
            break
        k += 1
        out[x[:-k] + y[k:]] = 1
    return out


def has_term(x: str, y: str, w: str) -> bool:
    """True iff w is a term of x * y.  The term at cut k has length
    |x| + |y| - 2k, so only cut k = (|x| + |y| - |w|) / 2 can give w, and that
    cut alone is checked, with no loop: cut 0 is always valid, cut k > 0 when x
    ends with involute(y[:k]), formed in place as y[k - 1::-1] flipped."""
    d = len(x) + len(y) - len(w)
    k = d >> 1
    if d < 0 or d & 1 or k > len(x) or k > len(y):
        return False
    if not k:
        return w == x + y
    return x.endswith(y[k - 1::-1].translate(FLIP)) and w == x[:len(x) - k] + y[k:]


def mul(a: Element, b: Element) -> Element:
    """Bilinear extension of mul_simple."""
    out: Element = {}
    for x, mx in a.items():
        for y, my in b.items():
            mxy = mx * my
            for t in mul_simple(x, y):
                out[t] = out.get(t, 0) + mxy
    return out


def mul_many(factors: list[Element]) -> Element:
    """Left fold of mul over a nonempty list of factors."""
    if not factors:
        raise ValueError("mul_many requires at least one factor")
    acc = factors[0]
    for f in factors[1:]:
        acc = mul(acc, f)
    return acc


def dual(a: Element) -> Element:
    """Apply the dual involution to every term, keeping multiplicities."""
    return {involute(w): m for w, m in a.items()}


def trivial_multiplicity(a: Element) -> int:
    """Multiplicity of the trivial simple (the empty word)."""
    return a.get("", 0)


def element_to_json(a: Element) -> dict[str, int]:
    """JSON form: word strings to multiplicities, keys in shortlex order."""
    return {format_word(w): a[w] for w in sorted(a, key=shortlex_key)}
