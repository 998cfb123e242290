import pytest
from hypothesis import given, strategies as st

from freefusion.words import (
    degree,
    format_word,
    heights,
    involute,
    is_balanced,
    parse_word,
    shortlex_key,
)

from helpers import flip, one_runs, zero_runs

words = st.text(alphabet="01", max_size=8)


def test_parse_word():
    assert parse_word("e") == ""
    assert parse_word("0110") == "0110"
    with pytest.raises(ValueError):
        parse_word("01x")
    with pytest.raises(ValueError):
        parse_word("")


def test_format_word():
    assert format_word("") == "e"
    assert format_word("10") == "10"


@given(words)
def test_parse_format_round_trip(w):
    assert parse_word(format_word(w)) == w


def test_involute_examples():
    assert involute("") == ""
    assert involute("0") == "1"
    assert involute("001") == "011"
    # prefix schema: involute("0" + x) == involute(x) + "1"
    for x in ("01", "10", "0011"):
        assert involute("0" + x) == involute(x) + "1"


@given(words)
def test_involute_is_involution(w):
    assert involute(involute(w)) == w


@given(words, words)
def test_involute_anti_homomorphism(x, y):
    assert involute(x + y) == involute(y) + involute(x)


def test_degree_examples():
    assert degree("") == 0
    assert degree("0") == 1
    assert degree("100110") == 0


@given(words)
def test_degree_of_involute(w):
    assert degree(involute(w)) == -degree(w)


@given(words, words)
def test_degree_additive(x, y):
    assert degree(x + y) == degree(x) + degree(y)


def test_is_balanced():
    assert is_balanced("")
    assert is_balanced("0011")
    assert not is_balanced("001")


def test_zero_runs():
    assert zero_runs("") == (0, 0)
    assert zero_runs("0011") == (2, 2)
    assert zero_runs("1001") == (0, 2)
    assert zero_runs("0100011") == (1, 3)


@given(words)
def test_leading_one_run_is_leading_zero_run_of_flip(w):
    assert one_runs(w)[0] == zero_runs(flip(w))[0]
    # sanity against a direct count
    lead = 0
    for c in w:
        if c != "1":
            break
        lead += 1
    assert one_runs(w)[0] == lead


def test_heights():
    assert heights("") == (0, 0)
    assert heights("0011") == (2, 0)
    assert heights("100110") == (1, 1)
    assert heights("1100") == (0, 2)


@given(words)
def test_heights_are_the_extreme_running_degrees(w):
    d = hi = lo = 0
    for c in w:
        d += 1 if c == "0" else -1
        hi, lo = max(hi, d), max(lo, -d)
    assert heights(w) == (hi, lo)
    if is_balanced(w):
        assert heights(involute(w)) == heights(w)


def test_shortlex_order():
    ws = sorted(["", "1", "0", "10", "00", "010"], key=shortlex_key)
    assert ws == ["", "0", "1", "00", "10", "010"]
