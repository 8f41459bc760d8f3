"""Input filtering: BM25 over passages, table slicing, span truncation.

Lexical BM25 only. The tokenizer lowercases, splits on non-alphanumerics,
and keeps numerals intact.

A bundle's passage statistics belong to its documents, not to a question:
`SourceBundle` builds its passage index once, when it is built, so loading
(`setup_s` in the benchmark) pays for tokenizing the passages, and every
question asked of the bundle shares them. The index is inverted: for each
term, the passages that hold it, in passage order, one entry per
occurrence. A ranking tokenizes only the question and counts the postings
of its distinct terms, with each term's idf worked out once, so it visits
only passages that share a term with the question. Quote anchoring
(`agents.extract_doc_spans`) picks its candidate passages from the same
postings.

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
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Sequence

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
    # term -> the position of the passage of each of its occurrences, in
    # passage order: a passage that holds the term f times is listed f times.
    postings: dict[str, tuple[int, ...]]
    avg_doc_len: float

    @property
    def doc_count(self) -> int:
        return len(self.doc_ids)


def index(passages: Sequence[Passage]) -> CorpusIndex:
    """Each passage's id and token count, and the postings of every term.

    Each passage is tokenized once, and each token appends its passage's
    position to its term's postings in C (`map` over the tokens), with no
    Python loop per token and no count per passage.
    """
    ids = [passage.id for passage in passages]
    repeated = [doc_id for doc_id, count in Counter(ids).items() if count > 1]
    if repeated:
        raise ValueError(f"duplicate passage id: {repeated[0]!r}")
    tokens = [tokenize(passage.text) for passage in passages]
    lens = list(map(len, tokens))
    postings: defaultdict[str, list[int]] = defaultdict(list)
    for doc, terms in enumerate(tokens):
        deque(map(list.append, map(postings.__getitem__, terms), repeat(doc)), maxlen=0)
    # A tuple holds its items in the object, where a list holds a second,
    # over-allocated block, and equal tuples are stored once: the terms met
    # once in a passage share one, so a one-passage bundle holds a few.
    tuples = list(map(tuple, postings.values()))
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    frozen = dict(zip(postings, map(shared.setdefault, tuples, tuples)))
    return CorpusIndex(ids, lens, frozen, sum(lens) / len(ids) if ids else 0.0)


def retrieve(index_: CorpusIndex, query: str, n: int = TOP_N) -> list[tuple[str, float]]:
    """Top-n (doc_id, score) by BM25, descending; ties break on doc_id.

    Only strictly positive scores are returned. Only the query is
    tokenized, and the postings of each distinct query term are looked up
    and counted once, so only passages holding a query term are scored;
    each term's idf is computed once. A score starts at 0.0 and adds its
    terms in query order, repeats included.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    terms = tokenize(query)
    held = {}  # query term -> (idf, {doc: count}), for the terms some passage holds
    for term in dict.fromkeys(terms):
        occurrences = index_.postings.get(term)
        if occurrences is not None:
            counts = Counter(occurrences)  # {doc: count}
            df = len(counts)
            # Non-negative idf variant, so the score > 0 cutoff is meaningful.
            held[term] = (math.log(1.0 + (index_.doc_count - df + 0.5) / (df + 0.5)), counts)
    lens, avg_doc_len = index_.doc_lens, index_.avg_doc_len
    scores: dict[int, float] = {}
    for term in terms:
        if term not in held:
            continue
        idf, counts = held[term]
        # A passage with a term has tokens, so avg_doc_len > 0.
        for doc, f in counts.items():
            norm = K1 * (1.0 - B + B * lens[doc] / avg_doc_len)
            scores[doc] = scores.get(doc, 0.0) + idf * f * (K1 + 1.0) / (f + norm)
    ids = index_.doc_ids
    scored = [(ids[doc], score) for doc, score in scores.items() if score > 0.0]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:n]


def quote_candidates(index_: CorpusIndex, quoted: str) -> Iterable[int]:
    """Positions, in passage order, of the passages that may hold a lowered quote.

    A word with whitespace on both sides inside the quote is a whole
    [a-z0-9] run of any lowered passage text that holds the quote, so a
    token of that passage when it is a token at all: only passages in its
    postings can hold the quote. The quote's words narrow the candidates to
    the shortest such postings, or to the first that names one passage.
    """
    count = index_.doc_count
    if count > 1:
        postings = index_.postings
        shortest = None
        for word in quoted.split()[1:-1]:
            occurrences = postings.get(word)
            if occurrences is not None:
                if occurrences[0] == occurrences[-1]:
                    return occurrences[:1]
                if shortest is None or len(occurrences) < len(shortest):
                    shortest = occurrences
        if shortest is not None:
            return dict.fromkeys(shortest)
    return range(count)


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
