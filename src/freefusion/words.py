"""Binary words: the free monoid on two generators.

A word is a plain Python string over the alphabet {'0', '1'}; '0' is the
fundamental generator, '1' its dual.  The empty string is the unit and is
rendered as "e" in the textual format so that it survives a trip through a
command line.  All functions here are pure and words are immutable, so
everything is trivially thread-safe.
"""

from __future__ import annotations

FLIP = str.maketrans("01", "10")
_DELETE_01 = str.maketrans("", "", "01")


def parse_word(text: str) -> str:
    """Parse the textual form: "e" for the unit, otherwise a '0'/'1' string.

    The empty string is rejected as ambiguous; the unit must be spelled "e".
    """
    if not isinstance(text, str):
        raise ValueError(f"a word must be a string, not {type(text).__name__}")
    if text and not text.strip("01"):
        return text
    if text == "e":
        return ""
    if not text:
        raise ValueError('empty word token; the unit is written "e"')
    raise ValueError(f"invalid word {text!r}: only '0' and '1' allowed")


def all_words(texts: list) -> bool:
    """True iff parse_word accepts every entry of texts, tested as one list."""
    try:  # strings, none empty, and no letter but 0 and 1 outside whole "e"s
        return "" not in texts and "".join(texts).translate(_DELETE_01) == "e" * texts.count("e")
    except TypeError:  # join met an entry that is not a string
        return False


def check_words(ws) -> list:
    """ws, an iterable of words, as a list, each entry a word as the library
    takes it: a str over '0' and '1', "" the unit ("e" is only its text form);
    else, or if ws is one str (read letter by letter), a one-line ValueError."""
    if isinstance(ws, str):
        raise ValueError(f"words must come as a collection, not the bare str {ws!r}")
    ws = list(ws)
    for w in ws:
        if not isinstance(w, str) or w.strip("01"):
            raise ValueError(f"{w!r} is not a word: a word is a str over 0 and 1, '' the unit")
    return ws


def parse_words(text: str) -> list[str]:
    """Parse a comma-separated list of words.  Every token must be a word,
    so an empty list or an empty token is rejected like an empty word."""
    return [parse_word(t) for t in text.split(",")]


def format_word(w: str) -> str:
    """Canonical textual form; the empty word prints as "e"."""
    return w if w else "e"


def involute(w: str) -> str:
    """Dual of a simple: reverse the word and flip every symbol.

    An involutive anti-automorphism: involute(involute(w)) == w and
    involute(x + y) == involute(y) + involute(x).
    """
    return w[::-1].translate(FLIP)


def flip(w: str) -> str:
    """Swap 0 and 1 letter by letter, without reversing (README "Flip pairs")."""
    return w.translate(FLIP)


def degree(w: str) -> int:
    """Count of '0's minus count of '1's.

    This is the image of the simple under the central circle quotient;
    degree 0 characterizes the simples of the projective quotient.
    """
    return 2 * w.count("0") - len(w)


def is_balanced(w: str) -> bool:
    """True iff the word has equally many '0's and '1's."""
    return degree(w) == 0


def heights(w: str) -> tuple[int, int]:
    """(largest degree of a prefix of w, largest negated degree of one).
    The empty prefix makes both at least 0."""
    running = [degree(w[:i]) for i in range(len(w) + 1)]
    return max(running), -min(running)


def shortlex_key(w: str) -> tuple[int, str]:
    """Sort key for the shortlex order: length first, then lexicographic."""
    return (len(w), w)
