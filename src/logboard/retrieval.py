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
only passages that share a term with the question.

What a source yields lives in a `SourceViews`, built on first use: a
table's distinct cell strings and their lowered text as one `bytes`,
which slicing searches, a passage's sentence spans and their tokens, and
an image's id phrase, numerals and tokens. The views are the only place
these live. A slice depends on the question too: the Table act works it
out once per table and hands it to both its prompt blocks and its
anchoring. (Anchoring reads no whole-table view: a Lookup cites only
cells of its slice, so `agents.extract_table_anchors` normalizes only
the slice's cells.) The views' lifetime is set in two places: a lone
`scheduler.run` builds its own, and `harness.run_benchmark` shares one
per bundle among the records of one call and drops it after the bundle's
last record, so a bundle asked four questions builds its cell view once
per pass. Nothing of it outlives the call, and nothing is kept on the
sources: a bundle with large tables is often asked one question (as in
the benchmark's `table_heavy`), so doing this at load time would only
move its cost into set-up, and views kept on a bundle would spare the
benchmark's repeated passes a build that every `logboard bench` run
pays.

A slice holds the question's most specific rows: of the rows that share
a token with the question, those whose set of question tokens no other
row's set strictly contains, with the columns whose cells matched beside
the header-matched and numeric ones. Slicing finds the cells that hold
each question token with `bytes.find` over the cells' text, so its
Python work grows with the cells hit, not the cells held; it works out a
row's token set once per distinct set of matching cells, and tests the
rows in C. A column that neither a hit nor its header keeps is read,
and its digit and non-blank cells are counted in C over its bytes, with
no Python call per cell unless it holds text outside ASCII or a NUL;
building the view makes no Python call per cell either. Slicing
compiles no pattern, so a question not asked before costs what a
repeated one does, and neither the view nor the slice holds anything
per cell or per row that the garbage collector tracks, since such
objects, made by the thousand, start its collections.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat, tee
from operator import add, itemgetter, not_
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .textutil import is_year_like, normalize, parse_numerals, split_sentences, tokenize

if TYPE_CHECKING:  # sources builds its passage index from this module
    from .sources import Image, Passage, Table


K1 = 1.2  # BM25 term-frequency saturation
B = 0.75  # BM25 document-length normalization
TOP_N = 3  # passages a Context prompt keeps
SENTENCE_WINDOW_K = 2  # sentences kept on each side of a passage's best match


@dataclass
class CorpusIndex:
    doc_ids: list[str]
    positions: dict[str, int]  # doc id -> its position in doc_ids
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
    positions = dict(zip(ids, range(len(ids))))
    if len(positions) < len(ids):
        repeated = next(doc_id for doc_id, count in Counter(ids).items() if count > 1)
        raise ValueError(f"duplicate passage id: {repeated!r}")
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
    return CorpusIndex(ids, positions, lens, frozen, sum(lens) / len(ids) if ids else 0.0)


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


@dataclass(frozen=True)
class TableSlice:
    kept_rows: list[int]
    kept_cols: list[int]


class TableCells(NamedTuple):
    """What slicing reads of a table's distinct cell strings.

    Every part is one flat object, so a view holds nothing per cell that
    the garbage collector tracks, however large the table. The cells are
    taken by a set, so their order differs between processes; no slice
    depends on it. Whether a column is numeric is not part of the view:
    a slice works it out only for a column that nothing else keeps.
    """

    cells: list[str]  # each distinct cell string, in a set's order
    # Each cell's offset in `text`, then the offset one past the last cell's end.
    starts: list[int]
    # The lowered cells, one byte per code point: [a-z0-9] kept, every other
    # byte a space, and a space before, between and after the cells. A
    # token " t " found here is a whole `tokenize` token of one cell.
    text: bytes


# Maps every byte but [a-z0-9] to a space.
_TOKEN_BYTES = bytes(
    byte if chr(byte) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32 for byte in range(256)
)


def table_cells(table: Table) -> TableCells:
    cells = list(set(chain.from_iterable(table.rows)))
    # Lowered one by one, so a cell's two-character lowering of "İ" stays
    # within that cell's length. "replace" encodes each code point outside
    # ASCII, lone surrogates too, as one "?", so offsets stay per code point.
    lowered = list(map(str.lower, cells))
    starts = list(accumulate(map(add, map(len, lowered), repeat(1)), initial=1))
    text = f" {' '.join(lowered)} ".encode("ascii", "replace").translate(_TOKEN_BYTES)
    return TableCells(cells, starts, text)


# A column's cells joined by NUL, each after a NUL, marks a cell that holds a
# digit, or one that is not blank, as a NUL followed by "1" once the bytes
# that do not tell are deleted: for the digits, all but NUL and [0-9]; for
# the rest, exactly the ASCII bytes that `str.strip` removes, which include
# "\x1c" to "\x1f" (`bytes.isspace` does not count them).
_DIGIT_MARKS = bytes.maketrans(b"0123456789", b"1" * 10)
_NOT_DIGIT = bytes(byte for byte in range(256) if byte not in b"\x000123456789")
_FILLED_MARKS = b"\x00" + b"1" * 255
_ASCII_SPACE = bytes(byte for byte in range(128) if chr(byte).isspace())


def _is_numeric_column(column: list[str]) -> bool:
    """Whether more than half the column's non-blank cells hold a digit.

    A digit is what `str.isdigit` calls one and a blank cell one that
    `str.strip` empties. An ASCII column with no NUL in a cell is counted in
    C over its bytes; any other column, whose bytes would not mark its cells
    exactly, is tested cell by cell.
    """
    joined = "\x00" + "\x00".join(column)
    if joined.isascii() and joined.count("\x00") == len(column):
        data = joined.encode()
        digits = data.translate(_DIGIT_MARKS, _NOT_DIGIT).count(b"\x001")
        filled = data.translate(_FILLED_MARKS, _ASCII_SPACE).count(b"\x001")
    else:
        digits = sum(any(map(str.isdigit, cell)) for cell in column)
        filled = sum(map(bool, map(str.strip, column)))
    return 2 * digits > filled


class Sentences(NamedTuple):
    """A passage's sentence spans, and the distinct tokens of each sentence."""

    spans: list[tuple[int, int]]
    tokens: list[frozenset[str]]


def passage_sentences(passage: Passage) -> Sentences:
    text = passage.text
    spans = split_sentences(text)
    return Sentences(spans, [frozenset(tokenize(text[start:end])) for start, end in spans])


class ImageFacts(NamedTuple):
    """What a reply is matched against: the image id's `normalize`, and the
    numeral values and distinct tokens of its caption and OCR text, years
    left out of both (a report's figures share its years)."""

    name: str
    values: frozenset[float]
    tokens: frozenset[str]


def image_facts(image: Image) -> ImageFacts:
    text = f"{image.caption} {image.ocr_text}"
    mentions = parse_numerals(text)
    years = {m.text for m in mentions if is_year_like(m)}
    values = frozenset(m.value for m in mentions if not is_year_like(m))
    return ImageFacts(normalize(image.id), values, frozenset(tokenize(text)).difference(years))


class SourceViews:
    """What a bundle's sources yield, each built on first use (lifetime: see the module).

    A table's `table_cells`, a passage's `passage_sentences` and an
    image's `image_facts` depend only on the source, so every question
    given the same views reads one build of each. Views are keyed by the
    source object, which they hold so that its id is not reused; they
    assume the sources do not change while the views live.
    """

    def __init__(self) -> None:
        self._built: dict[int, tuple[object, object]] = {}  # id(source) -> (source, view)

    def _view(self, source, build):
        held = self._built.get(id(source))
        if held is None:
            held = self._built[id(source)] = (source, build(source))
        return held[1]

    def table(self, table: Table) -> TableCells:
        return self._view(table, table_cells)

    def sentences(self, passage: Passage) -> Sentences:
        return self._view(passage, passage_sentences)

    def image(self, image: Image) -> ImageFacts:
        return self._view(image, image_facts)


_FALLBACK_ROWS = 50


def select_table_slice(table: Table, question: str, cells: TableCells) -> TableSlice:
    """The question's most specific rows, with the columns that name them.

    cells must be `table_cells(table)` of this table as it is now, whose
    byte text is searched for the question's tokens; that of other cells
    gives a wrong slice. A row's question tokens are
    the question's tokens that its cells hold. Of the rows that hold any,
    a row is kept unless another row's set strictly contains its own, so
    rows with equal sets stay together. If no row shares a token with the
    question, the first 50 rows are kept. A column is kept when a kept
    row's cell there holds a question token, when its header shares a
    token with the question, or when it is numeric: more than half its
    non-blank cells hold a digit. If that keeps no column, all are kept.
    Original order is preserved; the header always survives.

    Two limits follow. A row that only an aggregate over entities needs is
    dropped when its set is a strict subset of another row's: asked how
    Giva's revenue compares with the average, the slice keeps Giva's rows
    and drops the other revenue rows. And every question token counts,
    stop words too, so a row whose only match is a cell "the" stays
    beside the rows that hold "giva" and "revenue".
    """
    q_tokens = set(tokenize(question))
    distinct, starts, text = cells
    find = text.find
    # Each cell that holds a question token, mapped to the padded tokens it
    # holds. An occurrence of " t " is a whole token of the cell it starts
    # in; the search resumes at the next cell, so each hit cell costs one step.
    # The tokens are ASCII, so one encode of them all gives their bytes.
    matched: dict[str, list[bytes]] = {}
    for needle in map(b" %b ".__mod__, " ".join(q_tokens).encode().split()):
        at = find(needle)
        while at >= 0:
            k = bisect_right(starts, at + 1) - 1
            matched.setdefault(distinct[k], []).append(needle)
            at = find(needle, starts[k + 1] - 1)
    hits = frozenset(matched)
    rows = table.rows
    candidates = list(compress(range(len(rows)), map(not_, map(hits.isdisjoint, rows))))
    # A row's question tokens are those of its hit cells, worked out once per
    # distinct set of hit cells; those sets are few, so comparing them is cheap.
    # Equal sets are stored once, so the list holds a few sets, not one per row.
    shared: dict[frozenset[str], frozenset[str]] = {}
    made, same = tee(map(hits.intersection, map(rows.__getitem__, candidates)))
    cell_sets = list(map(shared.setdefault, made, same))
    token_sets = {cells: frozenset().union(*map(matched.__getitem__, cells)) for cells in shared}
    sets = token_sets.values()
    maximal = {cells for cells, tokens in token_sets.items() if not any(map(tokens.__lt__, sets))}
    kept_rows = list(compress(candidates, map(maximal.__contains__, cell_sets)))
    # A column is read, by `itemgetter` over the rows, only when the tests
    # before it have not kept it; the table is never transposed.
    kept = list(map(rows.__getitem__, kept_rows))
    kept_cols = [
        col
        for col, name in enumerate(table.header)
        if not hits.isdisjoint(map(itemgetter(col), kept))
        or not q_tokens.isdisjoint(tokenize(name))
        or _is_numeric_column(list(map(itemgetter(col), rows)))
    ]
    if not kept_cols:
        kept_cols = list(range(len(table.header)))
    if not kept_rows:
        kept_rows = list(range(min(len(rows), _FALLBACK_ROWS)))
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


def truncate_span(
    passage: str,
    match_char_range: tuple[int, int],
    k: int,
    spans: list[tuple[int, int]],
) -> str:
    """The sentences containing the match plus k sentences on each side.

    spans must be `split_sentences(passage)`.
    """
    start, end = match_char_range
    if start < 0 or end > len(passage) or start > end:
        raise ValueError("match range outside passage")
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
