"""Text machinery: numerals, n-grams, sentences, normalization."""

from logboard.textutil import (
    canonical_numeral_token,
    canonicalize_numerals,
    capitalized_spans,
    count_gap_phrases,
    is_year_like,
    jaccard,
    names,
    normalize,
    parse_numerals,
    split_sentences,
    words,
)
from logboard.log import _dedup_key


def test_normalize_strips_case_and_punctuation():
    assert normalize("Revenue was $50M, in 2018!") == "revenue was 50m in 2018"


def test_ngrams_and_jaccard():
    words, grams = _dedup_key("A b, c d")
    assert words == ["a", "b", "c", "d"]
    assert grams == {("a", "b", "c"), ("b", "c", "d")}
    assert jaccard({1, 2}, {2, 3}) == 1 / 3
    assert jaccard(set(), set()) == 1.0


def test_split_sentences_keeps_decimals_whole():
    text = "Revenue hit 5.2 in Q1. It rose after. Done?"
    spans = split_sentences(text)
    assert [text[s:e].strip() for s, e in spans] == [
        "Revenue hit 5.2 in Q1.",
        "It rose after.",
        "Done?",
    ]


def test_parse_numerals_units_and_signs():
    mentions = parse_numerals("Revenue was $50M, then 5.2 and +3%, down -2, total 5,000,000.")
    got = [(m.raw, m.unit, m.value) for m in mentions]
    assert (50.0, "M", 50e6) in got
    assert (5.2, "", 5.2) in got
    assert (3.0, "%", 3.0) in got
    assert (-2.0, "", -2.0) in got
    assert (5000000.0, "", 5e6) in got


def test_word_units_scale():
    mentions = parse_numerals("about 5 million and 2 thousand and 1 billion")
    assert [m.value for m in mentions] == [5e6, 2e3, 1e9]


def test_year_like_detection():
    years = parse_numerals("from 2018 to 2019")
    assert all(is_year_like(m) for m in years)
    not_years = parse_numerals("cost 2018.5 and $2018M and $1950 and 150")
    assert not any(is_year_like(m) for m in not_years)


def test_canonical_tokens_distinguish_values():
    m52, m5p2 = parse_numerals("52 versus 5.2")
    assert canonical_numeral_token(m52) != canonical_numeral_token(m5p2)
    five_m, five_plain = parse_numerals("$5M versus 5000000")
    assert canonical_numeral_token(five_m) == canonical_numeral_token(five_plain)


def test_canonicalize_equivalent_numerals():
    assert words(canonicalize_numerals("$5M")) == words(canonicalize_numerals("5 million"))
    assert words(canonicalize_numerals("5,000,000")) == ["5000000"]
    assert words(canonicalize_numerals("The answer is 42.")) == ["the", "answer", "is", "42"]
    assert canonicalize_numerals("rose 5.2%").split() == ["rose", "5p2pct"]


def test_gap_phrase_count():
    assert count_gap_phrases("I don't have X; more data needed.") == 2
    assert count_gap_phrases("All set.") == 0


def test_capitalized_spans_are_maximal():
    assert capitalized_spans("Met New York City and Paris today") == [
        "Met New York City",
        "Paris",
    ]
    assert capitalized_spans("we saw New York City and Paris today") == [
        "New York City",
        "Paris",
    ]
    assert capitalized_spans("$5m increase, due to higher sales volume.") == []


def test_an_id_is_named_by_a_run_of_whole_words():
    def named(text, ident):
        return names(normalize(text), normalize(ident))

    assert named("Table 1 disagrees.", "Table 1")
    assert named("as TABLE 1's row shows", "Table 1")
    assert not named("Table 12 disagrees with the answer.", "Table 1")
    assert not named("Subtable 1 disagrees.", "Table 1")
    assert named("See image a.", "A") and not named("Bora grew.", "A")
    assert not named("Any text at all.", "--")  # an id with no word
