"""Retrieval: BM25 vs enumeration oracle, slicing, spans, visual text."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logboard.retrieval
from logboard.retrieval import (
    B,
    K1,
    index,
    render_visual_text,
    retrieve,
    select_table_slice,
    truncate_span,
)
from logboard.sources import Image, Passage, Table
from logboard.textutil import parse_numerals, tokenize

TOY = [
    Passage("d1", "revenue grew with higher sales volume"),
    Passage("d2", "sales of widgets fell while revenue held"),
    Passage("d3", "the weather was pleasant all year"),
]


def brute_force_bm25(passages, query, k1=1.2, b=0.75):
    """Independent direct-formula scorer over raw texts (no index reuse)."""
    docs = {p.id: tokenize(p.text) for p in passages}
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n if n else 0.0
    q_terms = tokenize(query)
    df = {t: sum(1 for tokens in docs.values() if t in tokens) for t in set(q_terms)}
    scores = {}
    for doc_id, tokens in docs.items():
        counts = Counter(tokens)
        s = 0.0
        for t in q_terms:
            f = counts.get(t, 0)
            if not f:
                continue
            idf = math.log(1.0 + (n - df[t] + 0.5) / (df[t] + 0.5))
            s += idf * f * (k1 + 1.0) / (f + k1 * (1 - b + b * len(tokens) / avgdl))
        scores[doc_id] = s
    ranked = [(d, s) for d, s in scores.items() if s > 0.0]
    ranked.sort(key=lambda pair: (-pair[1], pair[0]))
    return ranked


def hand_score(f, df, dl, n_docs, avg_dl):
    """One term's BM25 contribution from hand-counted statistics."""
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    return idf * f * (K1 + 1.0) / (f + K1 * (1.0 - B + B * dl / avg_dl))


def test_index_statistics_match_hand_counts():
    # Doc lengths 6, 7, 6 and 3 tokens; "sales" is in d1, d2 and twice in d4.
    passages = [*TOY, Passage("d4", "Sales, sales: revenue!")]
    idx = index(passages)
    assert idx.doc_count == 4
    avg = (6 + 7 + 6 + 3) / 4
    assert idx.avg_doc_len == avg
    d1, d2, d4 = (hand_score(f, 3, dl, 4, avg) for f, dl in ((1, 6), (1, 7), (2, 3)))
    assert retrieve(idx, "sales", 4) == sorted(
        [("d1", d1), ("d2", d2), ("d4", d4)], key=lambda pair: (-pair[1], pair[0])
    )
    assert retrieve(idx, "weather", 4) == [("d3", hand_score(1, 1, 6, 4, avg))]
    # A repeated query term adds its contribution once per occurrence.
    (top,) = retrieve(idx, "weather WEATHER", 1)
    assert top == ("d3", hand_score(1, 1, 6, 4, avg) + hand_score(1, 1, 6, 4, avg))
    # "revenue" (df 3) then "sales" (df 3), added in query order.
    revenue_sales = dict(retrieve(idx, "revenue sales", 4))
    assert revenue_sales["d4"] == hand_score(1, 3, 3, 4, avg) + d4


def test_index_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        index([Passage("d", "a"), Passage("d", "b")])


def test_empty_corpus():
    idx = index([])
    assert idx.doc_count == 0
    assert retrieve(idx, "anything", 3) == []


def test_reindex_is_deterministic():
    a, b = index(TOY), index(TOY)
    assert a == b
    for query in ("revenue sales", "weather", "the sales of widgets", "zzz"):
        assert retrieve(a, query, 3) == retrieve(b, query, 3)


def test_ranking_tokenizes_each_passage_once(monkeypatch):
    calls = []

    def counting_tokenize(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(logboard.retrieval, "tokenize", counting_tokenize)
    query = "revenue sales revenue"
    retrieve(index(TOY), query, 3)
    assert Counter(calls) == Counter([p.text for p in TOY] + [query])


# Mixed case, digits glued to words, a dotted capital I (lowercases to "i"
# plus a combining dot), the Kelvin sign (lowercases to "k") and words with
# no [a-z0-9] run at all.
WORDS = ["Revenue", "revenue", "REVENUE", "sales", "Firm0", "firm0", "v1", "2019",
         "\u0130stanbul", "istanbul", "\u212aelvin", "kelvin", "\u00e9t\u00e9", "--", "?!"]
words = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)


@st.composite
def corpora(draw):
    texts = draw(st.lists(words, min_size=1, max_size=6))
    if draw(st.booleans()):
        texts.append(texts[0])  # a second passage with the same text ties with the first
    return [Passage(f"p{i}", text) for i, text in enumerate(texts)]


@settings(max_examples=300, deadline=None)
@given(corpora(), words, st.integers(1, 8))
def test_retrieve_equals_brute_force_exactly(passages, query, n):
    assert retrieve(index(passages), query, n) == brute_force_bm25(passages, query)[:n]


def test_unique_match_ranks_first():
    idx = index(TOY)
    assert retrieve(idx, "weather", 3)[0][0] == "d3"


def test_no_indexed_terms_returns_empty():
    idx = index(TOY)
    assert retrieve(idx, "zzz qqq", 3) == []


def test_toy_ranking_equals_oracle():
    idx = index(TOY)
    got = retrieve(idx, "revenue sales", 3)
    expected = brute_force_bm25(TOY, "revenue sales")[:3]
    assert [d for d, _ in got] == [d for d, _ in expected]
    for (_, s1), (_, s2) in zip(got, expected):
        assert s1 == pytest.approx(s2)


def test_random_corpora_match_oracle():
    rng = random.Random(13)
    vocab = [f"w{i}" for i in range(50)]
    for trial in range(40):
        n_docs = rng.randint(1, 10)
        passages = [
            Passage(f"doc{j}", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 30))))
            for j in range(n_docs)
        ]
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        idx = index(passages)
        got = retrieve(idx, query, n_docs)
        assert got == brute_force_bm25(passages, query)[:n_docs]


TRACE_TABLE = Table(
    id="Table 1",
    header=["Year", "Revenue"],
    rows=[["2018", "$50M"], ["2019", "$55M"], ["2020", "$60M"]],
)


def test_slice_keeps_question_rows_and_revenue_column():
    slice_ = select_table_slice(TRACE_TABLE, "revenue increase from 2018 to 2019")
    assert 1 in slice_.kept_cols  # Revenue header overlaps the question
    assert slice_.kept_rows == [0, 1]


def test_slice_fallback_keeps_capped_rows():
    table = Table("t", ["colx"], [[f"cell{i}"] for i in range(80)])
    slice_ = select_table_slice(table, "nothing shared here")
    assert slice_.kept_rows == list(range(50))


def test_slice_single_row_kept():
    table = Table("t", ["a", "b"], [["only", "7"]])
    slice_ = select_table_slice(table, "unrelated question")
    assert slice_.kept_rows == [0]


def test_slice_cells_dereference():
    slice_ = select_table_slice(TRACE_TABLE, "revenue in 2019")
    for r in slice_.kept_rows:
        for c in slice_.kept_cols:
            assert TRACE_TABLE.rows[r][c] is not None


FIVE_SENTENCES = (
    "One thing happened. Two things followed. Three came later. "
    "Four wrapped up. Five closed the book."
)


def test_truncate_span_window():
    start = FIVE_SENTENCES.index("Three")
    got = truncate_span(FIVE_SENTENCES, (start, start + 5), 1)
    assert got == "Two things followed. Three came later. Four wrapped up."


def test_truncate_span_clamps_at_boundary():
    got = truncate_span(FIVE_SENTENCES, (0, 3), 2)
    assert got == "One thing happened. Two things followed. Three came later."


def test_truncate_span_single_sentence_passage():
    text = "The revenue increase in 2019 was primarily due to higher sales volume."
    for k in (0, 1, 5):
        assert truncate_span(text, (4, 11), k) == text


def test_truncate_span_idempotent():
    start = FIVE_SENTENCES.index("Three")
    once = truncate_span(FIVE_SENTENCES, (start, start + 5), 1)
    inner = once.index("Three")
    assert truncate_span(once, (inner, inner + 5), 1) == once


def test_truncate_span_rejects_bad_range():
    with pytest.raises(ValueError):
        truncate_span("short.", (0, 99), 1)


def test_visual_text_caption_only():
    assert render_visual_text(Image("i", caption="a pie chart")) == "a pie chart"


def test_visual_text_numeral_preservation_under_truncation():
    image = Image(
        "bar",
        caption="A long caption about the bar chart comparing two fiscal years in detail",
        ocr_text="2020 5.2 2021 6.1",
    )
    for budget in (200, 60, 30, 10):
        out = render_visual_text(image, max_chars=budget)
        assert "5.2" in out and "6.1" in out
    full_values = {m.text for m in parse_numerals(image.ocr_text)}
    out_values = {m.text for m in parse_numerals(render_visual_text(image, max_chars=10))}
    assert full_values <= out_values


def test_visual_text_empty_ocr():
    image = Image("i", caption="just a logo", ocr_text="")
    assert render_visual_text(image, max_chars=6) == "just a"
