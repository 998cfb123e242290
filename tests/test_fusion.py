import pytest
from hypothesis import given, strategies as st

from freefusion.fusion import (
    UNIT,
    dual,
    element_to_json,
    has_term,
    mul,
    mul_many,
    mul_simple,
    trivial_multiplicity,
)
from freefusion.words import involute

from helpers import (
    brute_force_product,
    cut_depth,
    flip_letter,
    old_simple_terms,
    search_valid_cuts,
    words_up_to,
)

words = st.text(alphabet="01", max_size=5)
long_words = st.text(alphabet="01", max_size=40)


def test_cut_depth_examples():
    assert cut_depth("10", "01") == 0
    assert cut_depth("01", "01") == 2
    assert cut_depth("0011", "0011") == 4
    assert cut_depth("", "0110") == 0


def test_cut_law_matches_search_exhaustively():
    # The valid cuts are exactly 0..cut_depth: all words up to length 7.
    ws = words_up_to(7)
    for x in ws:
        for y in ws:
            cuts = search_valid_cuts(x, y)
            assert cuts == list(range(cut_depth(x, y) + 1)), (x, y)
            assert len(mul_simple(x, y)) == len(cuts), (x, y)


def test_mul_simple_matches_old_terms_exhaustively():
    # The one cut loop gives the terms of the list it replaced, in its
    # order (cut order 0..K, which the Saturator adds in): all words up to
    # length 6.
    ws = words_up_to(6)
    for x in ws:
        for y in ws:
            assert list(mul_simple(x, y)) == old_simple_terms(x, y), (x, y)


@given(long_words, long_words, long_words)
def test_mul_simple_matches_old_terms_deep_cuts(a, g, b):
    # Words built to share a cut of depth at least |g|, up to 40 deep.
    x, y = a + g, involute(g) + b
    terms = list(mul_simple(x, y))
    assert terms == old_simple_terms(x, y)
    assert len(terms) > len(g)


def test_has_term_matches_brute_force_exhaustively():
    # The one-cut check accepts exactly the terms the split search finds:
    # all words x, y up to length 4 against every w up to length 8.
    small = words_up_to(4)
    targets = words_up_to(8)
    for x in small:
        for y in small:
            terms = brute_force_product(x, y)
            for w in targets:
                assert has_term(x, y, w) is (w in terms), (x, y, w)


@given(long_words, long_words, long_words, st.integers(min_value=0))
def test_has_term_deep_cuts(a, g, b, i):
    # Words built to share a cut of depth at least |g|, up to 40 deep: the
    # cut-|g| term is accepted; that term with one letter flipped, the word
    # at the invalid cut K + 1 and a word of the wrong parity are refused.
    x, y = a + g, involute(g) + b
    term = a + b
    assert has_term(x, y, term)
    if term:
        assert not has_term(x, y, flip_letter(term, i % len(term)))
    k = cut_depth(x, y) + 1
    if k <= min(len(x), len(y)):
        assert not has_term(x, y, x[:len(x) - k] + y[k:])
    assert not has_term(x, y, term + "0")


def test_mul_simple_examples():
    assert mul_simple("0", "1") == {"01": 1, "": 1}
    assert mul_simple("10", "01") == {"1001": 1}
    assert mul_simple("01", "01") == {"0101": 1, "01": 1, "": 1}
    assert mul_simple("", "0110") == {"0110": 1}


def test_mul_examples():
    assert mul(UNIT, {"0110": 2}) == {"0110": 2}
    assert mul({"0": 2}, {"1": 1}) == {"01": 2, "": 2}
    assert mul({"01": 1, "10": 1}, {"01": 1}) == {
        "0101": 1,
        "01": 1,
        "": 1,
        "1001": 1,
    }


def test_mul_annihilator():
    assert mul({}, {"01": 1}) == {}
    assert mul({"01": 1}, {}) == {}


def test_mul_many():
    assert mul_many([{"10": 1}, {"01": 1}, {"10": 1}]) == {"100110": 1}
    assert mul_many([UNIT]) == UNIT
    with pytest.raises(ValueError):
        mul_many([])


def test_mul_many_010_pinned_by_oracle():
    # regression value computed with the independent decomposition oracle
    via_oracle = brute_force_product("0", "1")
    acc = {}
    for t, m in via_oracle.items():
        for u, k in brute_force_product(t, "0").items():
            acc[u] = acc.get(u, 0) + m * k
    assert acc == {"010": 1, "0": 2}
    assert mul_many([{"0": 1}, {"1": 1}, {"0": 1}]) == {"010": 1, "0": 2}


def test_dual():
    assert dual(UNIT) == UNIT
    assert dual({"10": 1}) == {"10": 1}
    assert dual({"001": 3}) == {"011": 3}


def test_trivial_multiplicity():
    assert trivial_multiplicity(UNIT) == 1
    assert trivial_multiplicity(mul_simple("01", "01")) == 1
    assert trivial_multiplicity(mul_simple("01", "10")) == 0


def test_noncommutativity_witness():
    assert mul_simple("10", "01") != mul_simple("01", "10")


@pytest.mark.parametrize("n", [4])
def test_oracle_equivalence_small(n):
    for x in words_up_to(n):
        for y in words_up_to(n):
            assert mul_simple(x, y) == brute_force_product(x, y)


@given(words, words)
def test_oracle_equivalence_random(x, y):
    assert mul_simple(x, y) == brute_force_product(x, y)


@given(words, words)
def test_cut_interval_and_term_lengths(x, y):
    cuts = search_valid_cuts(x, y)
    assert cuts == list(range(len(cuts)))
    lengths = sorted(len(t) for t in mul_simple(x, y))
    assert lengths == sorted(len(x) + len(y) - 2 * k for k in cuts)


@given(words, words)
def test_multiplicity_free(x, y):
    assert set(mul_simple(x, y).values()) <= {1}


@given(words, words)
def test_degree_additivity_of_terms(x, y):
    d = (2 * x.count("0") - len(x)) + (2 * y.count("0") - len(y))
    for t in mul_simple(x, y):
        assert 2 * t.count("0") - len(t) == d


@given(words, words)
def test_frobenius(x, y):
    expected = 1 if y == involute(x) else 0
    assert trivial_multiplicity(mul_simple(x, y)) == expected


@given(words, words, words)
def test_associativity(x, y, z):
    rx, ry, rz = {x: 1}, {y: 1}, {z: 1}
    assert mul(mul(rx, ry), rz) == mul(rx, mul(ry, rz))


@given(words, words)
def test_dual_anti_homomorphism(x, y):
    a, b = {x: 1}, {y: 1}
    assert dual(mul(a, b)) == mul(dual(b), dual(a))


@given(words)
def test_no_nontrivial_invertibles(w):
    product = mul_simple(w, involute(w))
    if w:
        assert any(t for t in product)


def test_element_json_round_trip():
    e = {"0110": 2, "": 1, "0": 3}
    obj = element_to_json(e)
    assert list(obj) == ["e", "0", "0110"]  # shortlex keys
    assert obj == {"e": 1, "0": 3, "0110": 2}
