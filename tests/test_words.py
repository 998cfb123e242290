import pytest
from hypothesis import given, strategies as st

from freefusion.words import (
    all_words,
    check_words,
    degree,
    format_word,
    heights,
    involute,
    is_balanced,
    parse_word,
    shortlex_key,
)

from helpers import (
    BARE_STR, NOT_WORDS, flip, one_runs, per_node_parse_word, refusal, zero_runs,
)

words = st.text(alphabet="01", max_size=8)


def test_parse_word():
    assert parse_word("e") == ""
    assert parse_word("0110") == "0110"
    with pytest.raises(ValueError):
        parse_word("01x")
    with pytest.raises(ValueError):
        parse_word("")


class _Text(str):
    pass


@pytest.mark.parametrize("text", [
    "e", "0", "0110", "", "ee", "0e1", "012", " 01", "01\n", "\u0660", None, 5, [],
    {}, _Text("01"), _Text("e"), _Text(""),
])
def test_parse_word_matches_per_node_parse_word(text):
    # Valid words are returned first, before the checks that name a fault;
    # every input still gets the per-node parser's value or error text.
    def parsed(parse):
        try:
            return parse(text)
        except ValueError as exc:
            return str(exc)

    assert parsed(parse_word) == parsed(per_node_parse_word)


@pytest.mark.parametrize("texts", [
    [], ["e"], ["0", "e", "10"], ["e", "e"], [""], ["0", ""], ["ee"], ["e0"],
    ["0e", "e"], ["012"], ["0", None], [5], [[]], ["0", "\u0660"],
])
def test_all_words_is_parse_word_on_every_entry(texts):
    def parses(t):
        try:
            return parse_word(t) is not None
        except ValueError:
            return False

    assert all_words(texts) == all(parses(t) for t in texts)


@pytest.mark.parametrize("bad", NOT_WORDS, ids=repr)
def test_check_words_refuses_what_is_not_a_word(bad):
    assert check_words(iter(["", "0", "0110"])) == ["", "0", "0110"]
    with pytest.raises(ValueError) as exc:
        check_words(["01", bad, "x"])
    assert str(exc.value) == f"{bad!r} is not a word: a word is a str over 0 and 1, '' the unit"


def test_check_words_refuses_a_bare_str():
    # Read letter by letter, "0110" was the words 0, 1, 1 and 0; "" was none.
    assert refusal(lambda: check_words("0110")) == BARE_STR
    assert refusal(lambda: check_words("")) == BARE_STR.replace("'0110'", "''")
    assert check_words(("0110",)) == check_words(w for w in ["0110"]) == ["0110"]


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
