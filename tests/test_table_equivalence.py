"""Table slicing, provenance anchors and source blocks against plain references.

The references below are the straightforward versions of each rule:
per-cell tokenizing, a set of question tokens per row of which only the
maximal sets are kept, and a per-cell digit test in select_table_slice, a
normalize and a scan of the reply's tokens for every cell of the
question's slice (its kept rows × kept columns), then a set of stated
cells per row of which only the maximal sets are cited, in
extract_table_anchors, and a fresh slice and BM25 ranking at every
prompt shrink level, a per-row join in render_table_slice, and the old
normalize formula (blank what is neither word nor whitespace, then split).
Of the code they check, they call only tokenize and split_sentences. The
faster code must give the same results on any input, a Table act must
slice each table once, a run must build each table's cell view
once, tokenize no cell and normalize only the cells its slices show, and
anchoring must build only the anchors it returns.
"""

import re
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logboard.agents
import logboard.retrieval
import logboard.textutil
from logboard import retrieval
from logboard.agents import (
    RETRIEVAL_ROLES,
    AgentRole,
    TableAgent,
    _passage_blocks,
    _passages_chosen,
    _table_blocks,
    build_agents,
    extract_table_anchors,
)
from logboard.backends import ScriptedBackend
from logboard.log import TableAnchor
from logboard.retrieval import (
    SourceViews,
    TableSlice,
    render_table_slice,
    select_table_slice,
    table_cells,
    truncate_span,
)
from logboard.scheduler import run
from logboard.sources import Image, Passage, SourceBundle, Table, bundle_from_dict
from logboard.textutil import TOKEN_RE, normalize, split_sentences, tokenize

from helpers import GOLDEN_QUESTION, golden_script, golden_sources, log_with

# --- references -------------------------------------------------------------


def reference_is_numeric_column(table, col):
    cells = [row[col] for row in table.rows if row[col].strip()]
    if not cells:
        return False
    numeric = sum(1 for cell in cells if any(ch.isdigit() for ch in cell))
    return numeric * 2 > len(cells)


def reference_select_table_slice(table, question, row_cap=50):
    q_tokens = set(tokenize(question))
    row_tokens = {}
    for i, row in enumerate(table.rows):
        tokens = set()
        for cell in row:
            tokens |= set(tokenize(cell)) & q_tokens
        if tokens:
            row_tokens[i] = tokens
    kept_rows = [
        i
        for i, tokens in row_tokens.items()
        if not any(tokens < other for other in row_tokens.values())
    ]
    kept_cols = []
    for col, name in enumerate(table.header):
        hit = any(set(tokenize(table.rows[r][col])) & q_tokens for r in kept_rows)
        if hit or set(tokenize(name)) & q_tokens or reference_is_numeric_column(table, col):
            kept_cols.append(col)
    if not kept_cols:
        kept_cols = list(range(len(table.header)))
    if not kept_rows:
        kept_rows = list(range(min(len(table.rows), row_cap)))
    return TableSlice(kept_rows=kept_rows, kept_cols=kept_cols)


def reference_contains_tokens(haystack, needle):
    if not needle or len(needle) > len(haystack):
        return False
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i : i + len(needle)] == needle:
            return True
    return False


def reference_normalize_tokens(text):
    return re.sub(r"[^\w\s]", " ", text.lower()).split()


def reference_extract_table_anchors(reply, sources, question):
    reply_tokens = reference_normalize_tokens(reply)
    question_tokens = reference_normalize_tokens(question)
    matched = []
    for table in sources.tables:
        slice_ = reference_select_table_slice(table, question)
        for r in slice_.kept_rows:
            for c in slice_.kept_cols:
                cell = table.rows[r][c]
                cell_tokens = reference_normalize_tokens(cell)
                if not cell_tokens:
                    continue
                if reference_contains_tokens(reply_tokens, cell_tokens):
                    echoes = reference_contains_tokens(question_tokens, cell_tokens)
                    matched.append((echoes, TableAnchor(table.id, r, c)))
    informative = [anchor for echoes, anchor in matched if not echoes]
    chosen = informative or [anchor for _, anchor in matched]
    # Of the rows holding a chosen anchor, keep those whose set of stated
    # cell strings no other row of the table strictly contains. Only cells
    # of the slice were matched, so a row's set holds only its shown cells.
    tables = {table.id: table for table in sources.tables}
    stated = {}  # (table id, row) -> the stated cell strings of the row
    for _, anchor in matched:
        cell = tables[anchor.table_id].rows[anchor.row][anchor.col]
        stated.setdefault((anchor.table_id, anchor.row), set()).add(cell)
    rows = {(anchor.table_id, anchor.row) for anchor in chosen}
    kept = {
        key
        for key in rows
        if not any(other[0] == key[0] and stated[key] < stated[other] for other in rows)
    }
    return [anchor for anchor in chosen if (anchor.table_id, anchor.row) in kept]


def reference_render_table_slice(table, slice_):
    def render_row(cells):
        return " | ".join(cells[c] for c in slice_.kept_cols)

    lines = [f"Table {table.id}:", render_row(table.header)]
    for r in slice_.kept_rows:
        lines.append(render_row(table.rows[r]))
    return "\n".join(lines)


def reference_best_match(text, question):
    q_tokens = set(tokenize(question))
    spans = split_sentences(text)
    if not spans:
        return (0, len(text))
    return max(spans, key=lambda span: len(set(tokenize(text[span[0] : span[1]])) & q_tokens))


def reference_sources_block(role, sources, question, shrink):
    parts = []
    if role is AgentRole.TABLE:
        row_cap = {0: 50, 1: 10, 2: 3}.get(shrink, 1)
        for table in sources.tables:
            slice_ = reference_select_table_slice(table, question, row_cap=row_cap)
            if shrink > 0:
                slice_ = TableSlice(slice_.kept_rows[:row_cap], slice_.kept_cols)
            parts.append(reference_render_table_slice(table, slice_))
    elif role is AgentRole.CONTEXT:
        window = max(0, retrieval.SENTENCE_WINDOW_K - shrink)
        idx = retrieval.index(sources.passages)
        ranked = retrieval.retrieve(idx, question, retrieval.TOP_N)
        chosen = [doc_id for doc_id, _ in ranked]
        if not chosen:
            chosen = [p.id for p in sources.passages[: retrieval.TOP_N]]
        for passage in sources.passages:
            if passage.id not in chosen:
                continue
            match = reference_best_match(passage.text, question)
            clipped = truncate_span(passage.text, match, window, split_sentences(passage.text))
            parts.append(f"Passage {passage.id}: {clipped}")
    elif role is AgentRole.VISUAL:
        budget = {0: None, 1: 400, 2: 160}.get(shrink, 80)
        for image in sources.images:
            parts.append(
                f"Image {image.id}: {retrieval.render_visual_text(image, max_chars=budget)}"
            )
    return "\n\n".join(parts)


def slice_of(table, question):
    return select_table_slice(table, question, table_cells(table))


def slices_of(sources, question):
    return [slice_of(table, question) for table in sources.tables]


def anchors_of(reply, sources, question):
    return extract_table_anchors(reply, sources, question, slices_of(sources, question))


def shown_cells(sources, question):
    """The distinct cells of each table's slice for the question, table by table."""
    shown = Counter()
    for table in sources.tables:
        slice_ = reference_select_table_slice(table, question)
        shown.update({table.rows[r][c] for r in slice_.kept_rows for c in slice_.kept_cols})
    return shown


class CountingPattern:
    """Stands in for `textutil.TOKEN_RE`, recording each (lowered) text it tokenizes."""

    def __init__(self, calls):
        self.calls = calls

    def findall(self, text):
        self.calls.append(text)
        return TOKEN_RE.findall(text)


# --- strategies -------------------------------------------------------------

# Besides plain words and numerals: "İ" lowers to "i" plus a combining dot,
# the Kelvin sign "\u212a" lowers to ASCII "k", "ſ" stays itself but is
# alphanumeric, a final "Σ" lowers by context, "\u0301" is a combining
# mark, and "_" is a word character that is not a token character. "20" and
# "rev" are prefixes of other words, "19" a suffix, "x" and "9" one-character
# tokens. A table's cell view holds one byte per code point, each outside
# ASCII encoded as "?", so free text and questions also hold a literal "?",
# a NUL, "²" (a digit to `isdigit` but not a decimal), the astral digit
# "𝟙" and a lone surrogate, which a JSON "\ud800" escape loads as.
# Besides space, tab and newline, blank cells hold the whitespace that
# `str.strip` removes but a rule over bytes could keep: "\x0b", and "\x1c"
# and "\x1f", which `bytes.isspace` does not count, in ASCII; "\x85",
# "\xa0" and the ideographic space "\u3000" outside it. Free text holds
# them too, so numeric columns are decided both over bytes and cell by cell.
SPACES = "\x0b\x1c\x1f\x85\xa0\u3000"
MAPPED = "?\x00²𝟙\ud800" + SPACES
WORDS = ["revenue", "2019", "Year", "total", "ünits", "straße", "σΣ", "ΟΔΟΣ", "İd", "Kelvin",
         "\u212am", "ſale", "cafe\u0301", "a_b", "snake_case", "line\nbreak",
         "20", "19", "rev", "x", "9"]
NUMERALS = ["$1,000.5M", "-3.2%", "$50M", "1,234", "0.5", "7 million", "(12)"]
PUNCT = [" ", "  ", ", ", ". ", "-", "_", "/", "$", "%", "(", ")", "'", "\t", "\n", ": "]
BLANKS = ["", " ", "\t", "\n", *SPACES]

word = st.sampled_from(WORDS + NUMERALS)
free_text = st.text(
    alphabet=st.sampled_from(list("abcXYZ019 .,$%-_'/éßΣİKſ\u212a\u0301 \t\n" + MAPPED)),
    max_size=10,
)
cell = st.one_of(
    st.sampled_from(BLANKS),
    word,
    st.lists(word, min_size=2, max_size=4).map(" ".join),
    free_text,
)


@st.composite
def tables(draw):
    n_cols = draw(st.integers(1, 4))
    header = draw(st.lists(cell, min_size=n_cols, max_size=n_cols))
    # Drawing cells from a small pool repeats cell strings across rows and
    # columns; repeated rows are drawn from the rows made so far.
    pool = draw(st.lists(cell, min_size=1, max_size=3))
    row = st.lists(st.one_of(cell, st.sampled_from(pool)), min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, max_size=8))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows).map(list), max_size=3))
        rows = draw(st.permutations(rows))
    for col in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):  # blank columns
        blanks = draw(st.lists(st.sampled_from(BLANKS), min_size=1, max_size=2))
        for i, r in enumerate(rows):
            r[col] = blanks[i % len(blanks)]
    return header, rows


@st.composite
def bundles(draw):
    specs = draw(st.lists(tables(), min_size=1, max_size=3))
    return SourceBundle(
        tables=[Table(f"t{i}", header, rows) for i, (header, rows) in enumerate(specs)]
    )


def phrase(draw, pieces):
    """Pieces joined by random punctuation, so tokens survive but text varies."""
    chosen = draw(st.lists(st.sampled_from(pieces), max_size=8))
    out = ""
    for piece in chosen:
        out += draw(st.sampled_from(PUNCT)) + piece
    return out


@st.composite
def bundle_question_reply(draw):
    sources = draw(bundles())
    cells = [c for t in sources.tables for row in [t.header, *t.rows] for c in row]
    if draw(st.integers(0, 4)) == 0:  # a question with no [a-z0-9] token
        question = draw(
            st.text(alphabet=st.sampled_from(list("ſΣσ .?_-\u0301\n" + MAPPED)), max_size=8)
        )
    else:
        question = phrase(draw, WORDS + NUMERALS + cells)
    reply = phrase(draw, WORDS + NUMERALS + cells + [question])
    if draw(st.booleans()):
        reply = question + draw(st.sampled_from(PUNCT)) + reply  # echoes the question
    return sources, question, reply


# --- equivalence -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(bundle_question_reply())
def test_select_table_slice_matches_per_cell_reference(case):
    sources, question, _ = case
    for table in sources.tables:
        assert slice_of(table, question) == reference_select_table_slice(table, question)


@settings(max_examples=300, deadline=None)
@given(bundle_question_reply())
def test_extract_table_anchors_matches_quadratic_reference(case):
    sources, question, reply = case
    assert anchors_of(reply, sources, question) == reference_extract_table_anchors(
        reply, sources, question
    )


def test_anchor_references_agree_on_long_cells_and_repeats():
    table = Table("t", ["text"], [["a b a b c"], ["b a"], ["a a a"], ["c"], ["a b c d e f"]])
    sources = SourceBundle(tables=[table])
    for reply in ["a b a b a b c", "a a", "c a b", "a b c d e f g", ""]:
        assert anchors_of(reply, sources, "b") == reference_extract_table_anchors(
            reply, sources, "b"
        )


def counting_table_cells(built):
    """Stands in for `retrieval.table_cells`, recording the id of each table it views."""

    def counted(table):
        built.append(table.id)
        return table_cells(table)

    return counted


def row_cells_tokenized(tokenized, tables):
    """The lowered row cells of tables, headers left out, that reached `TOKEN_RE`."""
    headers = {name.lower() for table in tables for name in table.header}
    cells = {cell.lower() for table in tables for cell in chain.from_iterable(table.rows)}
    return (cells - headers).intersection(tokenized)


def test_anchoring_normalizes_each_distinct_cell_once_per_table(monkeypatch):
    calls, tokenized, built = [], [], []

    def counting_normalize(text):
        calls.append(text)
        return normalize(text)

    monkeypatch.setattr(logboard.agents, "normalize", counting_normalize)
    monkeypatch.setattr(logboard.retrieval, "normalize", counting_normalize)
    monkeypatch.setattr(logboard.textutil, "TOKEN_RE", CountingPattern(tokenized))
    monkeypatch.setattr(logboard.retrieval, "table_cells", counting_table_cells(built))
    rows = [["widget", "$7M"], ["gadget", "$7M"], ["widget", "$7M"], ["", "$9M"]]
    sources = SourceBundle(
        tables=[
            Table("t1", ["Item", "Value"], rows),
            Table("t2", ["Item", "Value"], [["widget", "$9M"], ["widget", "$9M"]]),
        ]
    )
    views = SourceViews()
    for table in sources.tables:
        views.table(table)
    # A table's view is built once, and it tokenizes and normalizes no cell.
    assert built == ["t1", "t2"] and tokenized == [] and calls == []
    reply, question = "The widget line was $7M.", "What was the widget line?"
    slices = [select_table_slice(table, question, views.table(table)) for table in sources.tables]
    anchors = extract_table_anchors(reply, sources, question, slices)
    # Slicing tokenizes the question and headers alone; no view is built again.
    assert not row_cells_tokenized(tokenized, sources.tables) and built == ["t1", "t2"]
    assert anchors == reference_extract_table_anchors(reply, sources, question)
    # The slice of t1 holds the widget rows; the gadget row, $7M alone, is not shown.
    assert anchors == [TableAnchor("t1", 0, 1), TableAnchor("t1", 2, 1)]
    # Anchoring normalizes the reply, the question and each table's shown
    # distinct cells once: "widget" and "$7M" of t1, "widget" and "$9M" of t2.
    assert shown_cells(sources, question) == Counter({"widget": 2, "$7M": 1, "$9M": 1})
    assert Counter(calls) == Counter([reply, question]) + shown_cells(sources, question)


def _tag(i):
    """A distinct lowercase tag for each i, holding no digit."""
    return "".join("abcdefghij"[int(d)] for d in str(i))


@st.composite
def distinct_cell_tables(draw):
    """A table whose non-blank cells are all distinct, its columns heavy with blanks.

    Each column draws how many of its cells hold a numeral, a word or a
    blank, so the digit majority over the non-blank cells lands on either
    side of one half and on it.
    """
    n_cols, n_rows = draw(st.integers(1, 4)), draw(st.integers(0, 12))
    header = draw(st.lists(cell, min_size=n_cols, max_size=n_cols))
    plain = [w for w in WORDS if not any(map(str.isdigit, w))]
    columns = []
    for col in range(n_cols):
        kinds = draw(
            st.lists(st.sampled_from("dtbb"), min_size=n_rows, max_size=n_rows)
        )
        column = []
        for row, kind in enumerate(kinds):
            i = row * n_cols + col
            if kind == "d":
                column.append(f"{draw(st.sampled_from(NUMERALS))} {i}")
            elif kind == "t":
                column.append(f"{draw(st.sampled_from(plain))} {_tag(i)}")
            else:
                column.append(draw(st.sampled_from(BLANKS)))
        columns.append(column)
    rows = [list(row) for row in zip(*columns)]
    return Table("t", header, rows)


@settings(max_examples=300, deadline=None)
@given(distinct_cell_tables(), st.data())
def test_distinct_cell_tables_match_the_references(table, data):
    filled = [c for row in table.rows for c in row if c.strip()]
    assert len(set(filled)) == len(filled)
    question = phrase(data.draw, WORDS + NUMERALS + filled)
    reply = phrase(data.draw, WORDS + NUMERALS + filled + [question])
    sources = SourceBundle(tables=[table])
    assert slice_of(table, question) == reference_select_table_slice(table, question)
    assert anchors_of(reply, sources, question) == reference_extract_table_anchors(
        reply, sources, question
    )


def test_cells_after_ones_that_lower_longer_match_the_reference():
    # Each "İ" lowers to two characters, so cells after "İİİİ" sit further
    # into the view's text than the cells' own lengths put them.
    table = Table("t", ["name", "kind"], [["İİİİ", "a"], ["b", "x"], ["İd b", "c"], ["i", "b"]])
    for question in ("b", "Which x?", "i d", "c or a", "d"):
        assert slice_of(table, question) == reference_select_table_slice(table, question)


@pytest.mark.parametrize("space", SPACES)
def test_a_column_is_numeric_when_strip_empties_its_cell(space):
    # One digit cell and one that holds only `space`: counted blank, as
    # `str.strip` counts it, the Amount column is numeric; counted filled,
    # it is not.
    table = Table("t", ["Name", "Amount"], [["alpha", "7"], ["beta", space]])
    assert slice_of(table, "alpha") == reference_select_table_slice(table, "alpha")
    assert slice_of(table, "alpha").kept_cols == [0, 1]


def test_slicing_a_new_question_compiles_no_pattern(monkeypatch):
    rows = [[f"Firm{i}", "Revenue" if i % 3 else "Cost", f"${i}M"] for i in range(40)]
    table = Table("t", ["Company", "Metric", "Value"], rows)
    cells = table_cells(table)
    question = f"What was the revenue of Firm7 in {id(object())}?"  # not asked before

    def no_compile(*args, **kwargs):
        raise AssertionError(f"compiled {args[0]!r}")

    monkeypatch.setattr(re, "compile", no_compile)
    monkeypatch.setattr(re, "_compile", no_compile)
    slice_ = select_table_slice(table, question, cells)
    monkeypatch.undo()
    assert slice_ == reference_select_table_slice(table, question)
    # Row 7 holds {firm7, revenue}; the other Revenue rows only {revenue}.
    assert slice_ == TableSlice(kept_rows=[7], kept_cols=[0, 1, 2])


def table_heavy_table(target="Giva", n_rows=1200):
    """A `table_heavy`-shaped table: a third of its rows Revenue, two of them the target's."""
    fillers = [f"Firm{_tag(i)}" for i in range(48)]
    metrics = ["Revenue", "Cost", "Margin"]
    rows = [
        [fillers[i % 48], metrics[i % 3], str(2010 + i % 8), f"${i % 999 + 1}M"]
        for i in range(n_rows - 2)
    ]
    rows.insert(400, [target, "Revenue", "2018", "$310M"])
    rows.insert(900, [target, "Revenue", "2019", "$342M"])
    return Table("T", ["Company", "Metric", "Year", "Amount"], rows)


def test_table_heavy_prompt_holds_the_entitys_two_rows_and_all_columns():
    table = table_heavy_table()
    assert sum(row[1] == "Revenue" for row in table.rows) > len(table.rows) // 3
    question = "By how much did the revenue of Giva increase from 2018 to 2019?"
    sources = SourceBundle(tables=[table])
    blocks = _table_blocks(sources.tables, slices_of(sources, question))
    prompt = logboard.agents.build_prompt(AgentRole.TABLE, log_with(question), blocks)
    block = (
        "Table T:\nCompany | Metric | Year | Amount\n"
        "Giva | Revenue | 2018 | $310M\nGiva | Revenue | 2019 | $342M"
    )
    assert block in prompt.split("\n\n")
    assert prompt.count(" | Revenue | ") == 2


def test_a_lookup_cites_the_targets_rows_not_fillers_holding_its_amounts():
    table = table_heavy_table()
    # Filler rows that happen to hold the target's amounts.
    assert table.rows[309][1:] == ["Revenue", "2015", "$310M"] and table.rows[341][3] == "$342M"
    sources = SourceBundle(tables=[table])
    question = "By how much did the revenue of Giva increase from 2018 to 2019?"
    reply = "Giva revenue was $310M in 2018 and $342M in 2019, per the revenue table."
    anchors = anchors_of(reply, sources, question)
    assert anchors == reference_extract_table_anchors(reply, sources, question)
    assert anchors == [TableAnchor("T", 400, 3), TableAnchor("T", 900, 3)]
    reply = "The amount was $310M."
    anchors = anchors_of(reply, sources, question)
    assert anchors == reference_extract_table_anchors(reply, sources, question)
    # A reply that states a lone value cites every shown row that holds it:
    # the slice shows Giva's rows, so filler row 309 is not cited.
    assert anchors == [TableAnchor("T", 400, 3)]
    # Asked of the Revenue rows of 2015, the slice shows row 309 beside
    # the other 2015 Revenue rows, and the same reply cites it alone.
    question = "What was the revenue in 2015?"
    assert 309 in slice_of(table, question).kept_rows
    anchors = anchors_of(reply, sources, question)
    assert anchors == reference_extract_table_anchors(reply, sources, question)
    assert anchors == [TableAnchor("T", 309, 3)]


def test_rows_with_equal_token_sets_all_stay():
    table = table_heavy_table()
    question = "Which company had the highest 2019 revenue?"
    slice_ = slice_of(table, question)
    assert slice_ == reference_select_table_slice(table, question)
    # Filler years stop at 2017, so only the target's 2019 row holds {2019, revenue}.
    assert [table.rows[r][:3] for r in slice_.kept_rows] == [["Giva", "Revenue", "2019"]]
    table.rows[5][1:3] = ["Revenue", "2019"]
    slice_ = slice_of(table, question)
    assert slice_ == reference_select_table_slice(table, question)
    # "company" names the first column, so its header keeps it.
    assert slice_ == TableSlice(kept_rows=[5, 900], kept_cols=[0, 1, 2, 3])


@st.composite
def echo_and_informative_bundles(draw):
    """Tables that state only cells the question echoes, beside one showing a fact.

    Echoed cells are drawn from WORDS and facts from NUMERALS, whose tokens
    no word shares. The fact table's fact column holds only facts and
    blanks, so it is numeric, and its last row holds a fact beside a cell
    of every echo, so no row holds more of the question's tokens: the
    slice shows that fact, and the fact table always shows an informative
    cell.
    """
    echoes = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
    facts = draw(st.lists(st.sampled_from(NUMERALS), min_size=1, max_size=2))
    question = "What about " + " ".join(echoes) + "?"
    reply = phrase(draw, echoes + facts) + " " + " ".join(facts) + ". " + question
    echo_cell = st.one_of(st.sampled_from(echoes), st.sampled_from(BLANKS))
    fact_cell = st.one_of(st.sampled_from(facts), st.sampled_from(BLANKS))

    def rows_of(cell_):
        n_cols = draw(st.integers(1, 3))
        return n_cols, draw(st.lists(st.lists(cell_, min_size=n_cols, max_size=n_cols), max_size=6))

    specs = [rows_of(echo_cell) for _ in range(draw(st.integers(1, 2)))]
    n_cols, rows = rows_of(echo_cell)
    fact_col = draw(st.integers(0, n_cols))
    for row in rows:
        row.insert(fact_col, draw(fact_cell))
    last = [draw(st.sampled_from(facts)), " ".join(echoes)] + [""] * (n_cols - 1)
    rows.append(draw(st.permutations(last[1:])))
    rows[-1].insert(fact_col, last[0])
    n_cols += 1
    fact_at = draw(st.integers(0, len(specs)))
    specs.insert(fact_at, (n_cols, rows))
    tables_ = [Table(f"t{i}", [f"c{j}" for j in range(n)], r) for i, (n, r) in enumerate(specs)]
    return SourceBundle(tables=tables_), question, reply, f"t{fact_at}"


@settings(max_examples=200, deadline=None)
@given(echo_and_informative_bundles())
def test_informative_cell_in_one_table_drops_echoes_in_all(case):
    sources, question, reply, fact_table = case
    anchors = anchors_of(reply, sources, question)
    assert anchors == reference_extract_table_anchors(reply, sources, question)
    assert {anchor.table_id for anchor in anchors} == {fact_table}


def test_anchoring_builds_only_the_anchors_it_returns(monkeypatch):
    built = []

    def counting_anchor(*args):
        built.append(args)
        return TableAnchor(*args)

    monkeypatch.setattr(logboard.agents, "TableAnchor", counting_anchor)
    # The echoed cell "Revenue" fills every row; one row states the fact.
    rows = [["Revenue", f"Firm{i}", f"${i}M"] for i in range(300)]
    sources = SourceBundle(tables=[Table("t", ["Metric", "Company", "Value"], rows)])
    reply, question = "Firm7 revenue was $7M.", "What was the revenue of Firm7?"
    anchors = anchors_of(reply, sources, question)
    assert anchors == reference_extract_table_anchors(reply, sources, question)
    assert anchors == [TableAnchor("t", 7, 2)]
    assert len(built) == len(anchors)


# \x1c and \x85 are whitespace to both str.split and re, "_" is a word
# character, "İ" lowers to "i" and a combining dot, and a final "Σ" lowers
# to "ς".
NORMALIZE_CHARS = list("aZ9 _.,-'$\t\n\x1c\x85\u00a0\u2028\u0301\u0307İΣΑσς\u212a")


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(NORMALIZE_CHARS), st.characters()), max_size=16))
def test_normalize_matches_blank_and_split_formula(text):
    assert normalize(text) == " ".join(reference_normalize_tokens(text))


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(NORMALIZE_CHARS), st.characters()), max_size=16))
def test_a_normalized_text_keeps_its_tokens(text):
    # What lets a slice test a cell's tokens on its cell phrase.
    assert tokenize(normalize(text)) == tokenize(text)


ANY_CHAR = st.one_of(st.sampled_from(NORMALIZE_CHARS + list("?\n")), st.characters())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(alphabet=ANY_CHAR, max_size=12), max_size=8), st.data())
def test_rows_sharing_a_token_over_any_characters(texts, data):
    # Cells and questions of any characters, "?" and newlines among them.
    table = Table("t", ["c"], [[text] for text in texts])
    pieces = data.draw(st.lists(st.sampled_from(texts) if texts else st.just(""), max_size=3))
    question = data.draw(st.text(alphabet=ANY_CHAR, max_size=12)) + " ".join(pieces)
    assert slice_of(table, question) == reference_select_table_slice(table, question)


@st.composite
def table_slices(draw):
    """A table of 0-4 columns, sliced to none, one, some or all of them and any rows."""
    n_cols = draw(st.integers(0, 4))
    header = draw(st.lists(cell, min_size=n_cols, max_size=n_cols))
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), max_size=6))
    col_choices = [st.just([]), st.just(list(range(n_cols)))]
    if n_cols:
        col_choices.append(st.integers(0, n_cols - 1).map(lambda col: [col]))
        col_choices.append(st.sets(st.integers(0, n_cols - 1)).map(sorted))
    kept_cols = draw(st.one_of(col_choices))
    kept_rows = draw(st.sets(st.integers(0, len(rows) - 1)).map(sorted)) if rows else []
    return Table("t", header, rows), TableSlice(kept_rows, kept_cols)


@settings(max_examples=300, deadline=None)
@given(table_slices())
def test_render_table_slice_matches_per_row_reference(case):
    table, slice_ = case
    assert render_table_slice(table, slice_) == reference_render_table_slice(table, slice_)


def test_zero_column_json_table_renders_blank_lines():
    sources = bundle_from_dict({"tables": [{"id": "T", "header": [], "rows": [[], []]}]})
    table = sources.tables[0]
    slice_ = slice_of(table, "What was the revenue?")
    assert slice_ == TableSlice(kept_rows=[0, 1], kept_cols=[])
    assert render_table_slice(table, slice_) == "Table T:\n\n\n"


passage_text = st.lists(
    st.lists(st.sampled_from(WORDS + NUMERALS + ["sales", "grew"]), min_size=1, max_size=6).map(
        " ".join
    ),
    min_size=1,
    max_size=4,
).map(lambda sentences: ". ".join(sentences) + ".")


@settings(max_examples=150, deadline=None)
@given(
    bundle_question_reply(),
    st.lists(passage_text, max_size=5),
    st.lists(st.tuples(free_text, free_text), max_size=3),
)
def test_source_blocks_match_per_level_reference(case, texts, images):
    sources, question, _ = case
    sources = SourceBundle(
        tables=sources.tables,
        passages=[Passage(f"p{i}", text) for i, text in enumerate(texts)],
        images=[Image(f"i{i}", caption, ocr) for i, (caption, ocr) in enumerate(images)],
    )
    for role in (AgentRole.TABLE, AgentRole.CONTEXT, AgentRole.VISUAL):
        agent = build_agents(SourceViews())[RETRIEVAL_ROLES.index(role)]
        blocks = list(agent._show(sources, question)[0])
        assert blocks == [
            reference_sources_block(role, sources, question, shrink) for shrink in range(4)
        ]


# --- call counts --------------------------------------------------------------


def two_table_sources():
    sources = golden_sources()
    staff = Table("Table 2", ["Year", "Staff"], [["2018", "120"], ["2019", "130"]])
    return SourceBundle(tables=[*sources.tables, staff], passages=sources.passages)


def test_flag_reengaged_run_slices_each_table_once_per_act(monkeypatch):
    sliced = []
    acts = []
    indexed = []
    ranked = []
    context_prompts = []

    def counting_slice(table, question, cells):
        sliced.append(table.id)
        assert cells == table_cells(table)
        return select_table_slice(table, question, cells)

    def counting_prepare(agent, *args, **kwargs):
        acts.append(agent.role)
        return original_prepare(agent, *args, **kwargs)

    def counting_index(passages):
        indexed.append(len(passages))
        return original_index(passages)

    def counting_retrieve(index_, *args, **kwargs):
        ranked.append(index_)
        return original_retrieve(index_, *args, **kwargs)

    def counting_build_prompt(role, *args, **kwargs):
        if role is AgentRole.CONTEXT:
            context_prompts.append(role)
        return original_build_prompt(role, *args, **kwargs)

    sources = two_table_sources()  # indexes its passages here, before the run
    original_prepare = TableAgent.prepare
    original_index = logboard.retrieval.index
    original_retrieve = logboard.retrieval.retrieve
    original_build_prompt = logboard.agents.build_prompt
    monkeypatch.setattr(logboard.agents, "select_table_slice", counting_slice)
    monkeypatch.setattr(TableAgent, "prepare", counting_prepare)
    monkeypatch.setattr(logboard.retrieval, "index", counting_index)
    monkeypatch.setattr(logboard.retrieval, "retrieve", counting_retrieve)
    monkeypatch.setattr(logboard.agents, "build_prompt", counting_build_prompt)

    script = golden_script()
    script["verification agent"] = "Flagged incorrect calculation in the claim."
    result = run(GOLDEN_QUESTION, sources, ScriptedBackend(script))

    assert result.metrics.rounds == 2  # the Flag bought a re-engagement round
    assert len(acts) == 2  # the first act, and the one the Flag re-opened
    # Each act chooses its slices once, for its blocks and its anchors.
    assert sorted(sliced) == ["Table 1", "Table 1", "Table 2", "Table 2"]
    # The run ranks from the bundle's index: one ranking per Context prompt.
    assert indexed == []
    assert context_prompts and len(ranked) == len(context_prompts)
    assert all(index_ is sources.passage_index for index_ in ranked)


def test_a_table_run_normalizes_each_distinct_cell_once(monkeypatch):
    tokenized = []
    built = []
    cells = []
    texts = []

    def counting_cell_normalize(text):
        cells.append(text)
        return normalize(text)

    def counting_normalize(text):
        texts.append(text)
        return normalize(text)

    monkeypatch.setattr(logboard.textutil, "TOKEN_RE", CountingPattern(tokenized))
    monkeypatch.setattr(logboard.retrieval, "table_cells", counting_table_cells(built))
    monkeypatch.setattr(logboard.retrieval, "normalize", counting_cell_normalize)
    monkeypatch.setattr(logboard.agents, "normalize", counting_normalize)
    sources = two_table_sources()
    script = golden_script()
    script["verification agent"] = "Flagged incorrect calculation in the claim."
    result = run(GOLDEN_QUESTION, sources, ScriptedBackend(script))

    assert result.metrics.rounds == 2
    # The run's views build each table's cell view once, and no cell string
    # is tokenized or normalized to slice it.
    assert sorted(built) == ["Table 1", "Table 2"]
    assert not row_cells_tokenized(tokenized, sources.tables) and cells == []
    distinct = [cell for table in sources.tables for cell in set(chain.from_iterable(table.rows))]
    # Two Table acts each anchor a reply, normalizing it, the question and
    # each table's shown distinct cells, once per act: no cell outside the
    # slices is normalized.
    shown = shown_cells(sources, GOLDEN_QUESTION)
    assert texts.count(GOLDEN_QUESTION) == 2
    assert Counter(text for text in texts if text in distinct) == shown + shown
    assert len(texts) == 4 + 2 * sum(shown.values())


@pytest.mark.parametrize("question", ["What was the revenue count?", "Nothing shared here?"])
def test_large_table_blocks_match_reference(question):
    # 200 rows: more matching rows than any cap, and a fallback longer than 50.
    rows = [[f"item{i}", str(i), "revenue" if i % 3 else "cost"] for i in range(200)]
    sources = SourceBundle(tables=[Table("big", ["name", "count", "kind"], rows)])
    blocks = list(_table_blocks(sources.tables, slices_of(sources, question)))
    assert blocks == [
        reference_sources_block(AgentRole.TABLE, sources, question, shrink)
        for shrink in range(4)
    ]


def test_shrunk_context_prompt_ranks_passages_once(monkeypatch):
    # Sentences of about 2,000 characters: the three shown passages' windows
    # of three sentences overflow `CONTEXT_WINDOW`, and of two fit.
    sentence = " ".join(f"sales word{j} growth" for j in range(100))
    passages = [Passage(f"p{i}", ". ".join([sentence] * 8) + ".") for i in range(6)]
    sources = SourceBundle(passages=passages)
    indexed = []
    ranked = []
    original_index = logboard.retrieval.index
    original_retrieve = logboard.retrieval.retrieve

    def counting_index(passages):
        indexed.append(len(passages))
        return original_index(passages)

    def counting_retrieve(index_, *args, **kwargs):
        ranked.append(index_)
        return original_retrieve(index_, *args, **kwargs)

    monkeypatch.setattr(logboard.retrieval, "index", counting_index)
    monkeypatch.setattr(logboard.retrieval, "retrieve", counting_retrieve)
    question = "What happened to sales growth?"
    blocks = list(_passage_blocks(_passages_chosen(sources, question), question, SourceViews()))
    fresh = _passage_blocks(_passages_chosen(sources, question), question, SourceViews())
    prompt = logboard.agents.build_prompt(AgentRole.CONTEXT, log_with(question), fresh)
    assert blocks[0] not in prompt and blocks[1] in prompt  # shrunk one level
    # Once for the blocks above, once for the prompt, both from the bundle's index.
    assert indexed == []
    assert len(ranked) == 2 and all(index_ is sources.passage_index for index_ in ranked)
