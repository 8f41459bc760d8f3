"""Input filtering: BM25 over passages, table slicing, span truncation.

Lexical BM25 only. The tokenizer lowercases, splits on non-alphanumerics,
and keeps numerals intact.

A bundle's passage statistics belong to its documents, not to a question:
`SourceBundle` builds its passage index once, when it is built, so loading
(`setup_s` in the benchmark) pays for tokenizing the passages, and every
question asked of the bundle shares them. A ranking then tokenizes only
the question and reads each passage's counts for the question's distinct
terms, with each term's idf worked out once.

Table work stays per run. A table's slice depends only on the table and
the question, so the Table agent, which lives for one run, slices each
table once per run; a prompt ranks passages once, whatever its shrink
level. Slicing works once per row (one compiled search of the row's text)
and once per distinct value of a column. Nothing of it outlives the run:
a bundle with large tables is often asked one question (as in the
benchmark's `table_heavy`), so doing this at load time would only move
its cost into set-up. The one exception is the question's compiled
pattern, which `re` keeps in its module cache, so a repeated question
skips the compile that a new one pays.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .textutil import parse_numerals, split_sentences, tokenize

if TYPE_CHECKING:  # sources builds its passage index from this module
    from .sources import Image, Passage, Table


K1 = 1.2  # BM25 term-frequency saturation
B = 0.75  # BM25 document-length normalization
TOP_N = 3  # passages a Context prompt keeps
SENTENCE_WINDOW_K = 2  # sentences kept on each side of a passage's best match


@dataclass
class CorpusIndex:
    doc_ids: list[str]
    doc_lens: list[int]
    term_counts: list[Counter[str]]
    avg_doc_len: float

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


def index(passages: Sequence[Passage]) -> CorpusIndex:
    """Each passage's id, token count and token counts, tokenized once."""
    ids = [passage.id for passage in passages]
    repeated = [doc_id for doc_id, count in Counter(ids).items() if count > 1]
    if repeated:
        raise ValueError(f"duplicate passage id: {repeated[0]!r}")
    tokens = [tokenize(passage.text) for passage in passages]
    lens = list(map(len, tokens))
    return CorpusIndex(ids, lens, list(map(Counter, tokens)), sum(lens) / len(ids) if ids else 0.0)


def retrieve(index_: CorpusIndex, query: str, n: int = TOP_N) -> list[tuple[str, float]]:
    """Top-n (doc_id, score) by BM25, descending; ties break on doc_id.

    Only strictly positive scores are returned. Only the query is
    tokenized; each passage's counts are read for the query's distinct
    terms, and each term's idf is computed once. A score adds its terms in
    query order, repeats included.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = tokenize(query)
    distinct = set(terms)
    # The query terms each passage holds: a set smaller than the passage's
    # counts is intersected by looking its terms up in them.
    held = [counts.keys() & distinct for counts in index_.term_counts]
    doc_freq = Counter(chain.from_iterable(held))
    # Non-negative idf variant, so the score > 0 cutoff is meaningful.
    idf = {
        term: math.log(1.0 + (index_.doc_count - df + 0.5) / (df + 0.5))
        for term, df in doc_freq.items()
    }
    scored = []
    for doc_id, doc_len, counts, found in zip(
        index_.doc_ids, index_.doc_lens, index_.term_counts, held
    ):
        if not found:
            continue  # score 0; a passage with a term has tokens, so avg_doc_len > 0
        norm = K1 * (1.0 - B + B * doc_len / index_.avg_doc_len)
        score = 0.0
        for term in terms:
            if term in found:
                f = counts[term]
                score += idf[term] * f * (K1 + 1.0) / (f + norm)
        if score > 0.0:
            scored.append((doc_id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:n]


@dataclass(frozen=True)
class TableSlice:
    kept_rows: list[int]
    kept_cols: list[int]


def _is_numeric_column(table: Table, col: int) -> bool:
    """More than half the non-blank cells hold a digit; each distinct value is tested once."""
    numeric = total = 0
    for cell, count in Counter(map(itemgetter(col), table.rows)).items():
        if not cell.strip():
            continue
        total += count
        if any(map(str.isdigit, cell)):
            numeric += count
    return numeric * 2 > total


_FALLBACK_ROWS = 50


def select_table_slice(table: Table, question: str) -> TableSlice:
    """Columns matching the question plus numeric columns; rows that overlap.

    If no row shares a token with the question, the first 50 rows are
    kept. Original order is preserved; the header always survives.
    """
    q_tokens = set(tokenize(question))
    kept_cols = []
    for col, name in enumerate(table.header):
        if not q_tokens.isdisjoint(tokenize(name)) or _is_numeric_column(table, col):
            kept_cols.append(col)
    if not kept_cols:
        kept_cols = list(range(len(table.header)))
    kept_rows = []
    if q_tokens:
        # A row shares a token with the question when one of the question's
        # tokens stands in its lowered text as a whole [a-z0-9] run, which is
        # what tokenize would cut out of it. Tokens are [a-z0-9]+, so the
        # alternation needs no escaping; one search per row runs in C.
        shares_token = re.compile(
            r"(?<![a-z0-9])(?:%s)(?![a-z0-9])" % "|".join(sorted(q_tokens))
        ).search
        kept_rows = [i for i, row in enumerate(table.rows) if shares_token(" ".join(row).lower())]
    if not kept_rows:
        kept_rows = list(range(min(len(table.rows), _FALLBACK_ROWS)))
    return TableSlice(kept_rows=kept_rows, kept_cols=kept_cols)


def render_table_slice(table: Table, slice_: TableSlice) -> str:
    """The table's id line, then its header and kept rows, one line each.

    A line joins the row's kept cells with " | ". Rows are picked and cut
    by C-level `map` and `itemgetter`; `itemgetter` of one index gives the
    cell itself, not a tuple, and of none cannot be built, so one and zero
    kept columns render apart.
    """
    cols = slice_.kept_cols
    rows = chain((table.header,), map(table.rows.__getitem__, slice_.kept_rows))
    if len(cols) > 1:
        lines = map(" | ".join, map(itemgetter(*cols), rows))
    elif cols:
        lines = map(itemgetter(cols[0]), rows)
    else:
        lines = repeat("", 1 + len(slice_.kept_rows))
    return "\n".join(chain((f"Table {table.id}:",), lines))


def truncate_span(passage: str, match_char_range: tuple[int, int], k: int) -> str:
    """The sentences containing the match plus k sentences on each side."""
    start, end = match_char_range
    if start < 0 or end > len(passage) or start > end:
        raise ValueError("match range outside passage")
    spans = split_sentences(passage)
    if not spans:
        return passage
    touched = [
        i
        for i, (s, e) in enumerate(spans)
        if s < end and start < e or (start == end and s <= start <= e)
    ]
    if not touched:
        # Range falls on inter-sentence whitespace; snap to nearest sentence.
        touched = [min(range(len(spans)), key=lambda i: abs(spans[i][0] - start))]
    lo = max(0, touched[0] - k)
    hi = min(len(spans) - 1, touched[-1] + k)
    return passage[spans[lo][0] : spans[hi][1]].strip()


def render_visual_text(image: Image, max_chars: int | None = None) -> str:
    """Caption plus OCR text; truncation never drops an OCR numeral.

    When the budget is too small for the full OCR text, the caption is cut
    first and the OCR part collapses to its maximal numeric tokens, which
    are always kept whole even if they alone exceed the budget.
    """
    tail = f" OCR text: {image.ocr_text}" if image.ocr_text else ""
    full = image.caption + tail
    if max_chars is None or len(full) <= max_chars:
        return full
    if image.ocr_text:
        if len(tail) <= max_chars:
            head_budget = max_chars - len(tail)
            return image.caption[:head_budget].rstrip() + tail
        numerals = [m.text for m in parse_numerals(image.ocr_text)]
        tail = " OCR numbers: " + " ".join(numerals) if numerals else ""
        head_budget = max(0, max_chars - len(tail))
        return image.caption[:head_budget].rstrip() + tail
    return image.caption[:max_chars].rstrip()
