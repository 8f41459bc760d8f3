"""Table slicing, provenance anchors and source blocks against the old code.

The references below are the straightforward versions the runtime used to
run on every call: per-cell tokenizing and a per-cell digit test in
select_table_slice, a normalize and a scan of the reply's tokens for every
cell in extract_table_anchors, and a fresh slice and BM25 ranking at every
prompt shrink level. Of the code they check, they call only tokenize. The
faster code must give the same results on any input, the Table agent must
slice each table once per run, and anchoring must normalize each distinct
cell string of a table once.
"""

import re
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logboard.agents
import logboard.retrieval
from logboard import retrieval
from logboard.agents import (
    AgentConfig,
    AgentRole,
    TableAgent,
    _best_match_range,
    _source_blocks,
    extract_table_anchors,
)
from logboard.backends import ScriptedBackend
from logboard.log import TableAnchor
from logboard.retrieval import TableSlice, render_table_slice, select_table_slice, truncate_span
from logboard.scheduler import run
from logboard.sources import Image, Passage, SourceBundle, Table
from logboard.textutil import normalize, tokenize

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
    kept_cols = []
    for col, name in enumerate(table.header):
        if set(tokenize(name)) & q_tokens or reference_is_numeric_column(table, col):
            kept_cols.append(col)
    if not kept_cols:
        kept_cols = list(range(len(table.header)))
    kept_rows = []
    for i, row in enumerate(table.rows):
        if any(set(tokenize(cell)) & q_tokens for cell in row):
            kept_rows.append(i)
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
        for r, row in enumerate(table.rows):
            for c, cell in enumerate(row):
                cell_tokens = reference_normalize_tokens(cell)
                if not cell_tokens:
                    continue
                if reference_contains_tokens(reply_tokens, cell_tokens):
                    echoes = reference_contains_tokens(question_tokens, cell_tokens)
                    matched.append((echoes, TableAnchor(table.id, r, c)))
    informative = [anchor for echoes, anchor in matched if not echoes]
    return informative or [anchor for _, anchor in matched]


def reference_sources_block(role, sources, question, shrink):
    parts = []
    if role is AgentRole.TABLE:
        row_cap = {0: 50, 1: 10, 2: 3}.get(shrink, 1)
        for table in sources.tables:
            slice_ = reference_select_table_slice(table, question, row_cap=row_cap)
            if shrink > 0:
                slice_ = TableSlice(slice_.kept_rows[:row_cap], slice_.kept_cols)
            parts.append(render_table_slice(table, slice_))
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
            clipped = truncate_span(passage.text, _best_match_range(passage.text, question), window)
            parts.append(f"Passage {passage.id}: {clipped}")
    elif role is AgentRole.VISUAL:
        budget = {0: None, 1: 400, 2: 160}.get(shrink, 80)
        for image in sources.images:
            parts.append(
                f"Image {image.id}: {retrieval.render_visual_text(image, max_chars=budget)}"
            )
    return "\n\n".join(parts)


# --- strategies -------------------------------------------------------------

# Besides plain words and numerals: "İ" lowers to "i" plus a combining dot,
# the Kelvin sign "\u212a" lowers to ASCII "k", "ſ" stays itself but is
# alphanumeric, a final "Σ" lowers by context, "\u0301" is a combining
# mark, and "_" is a word character that is not a token character.
WORDS = ["revenue", "2019", "Year", "total", "ünits", "straße", "σΣ", "ΟΔΟΣ", "İd", "Kelvin",
         "\u212am", "ſale", "cafe\u0301", "a_b", "snake_case", "line\nbreak"]
NUMERALS = ["$1,000.5M", "-3.2%", "$50M", "1,234", "0.5", "7 million", "(12)"]
PUNCT = [" ", "  ", ", ", ". ", "-", "_", "/", "$", "%", "(", ")", "'", "\t", "\n", ": "]
BLANKS = ["", " ", "\t", "\n"]

word = st.sampled_from(WORDS + NUMERALS)
free_text = st.text(
    alphabet=st.sampled_from(list("abcXYZ019 .,$%-_'/éßΣİKſ\u212a\u0301 \t\n")), max_size=10
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
        question = draw(st.text(alphabet=st.sampled_from(list("ſΣσ .?_-\u0301\n")), max_size=8))
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
        assert select_table_slice(table, question) == reference_select_table_slice(table, question)


@settings(max_examples=300, deadline=None)
@given(bundle_question_reply())
def test_extract_table_anchors_matches_quadratic_reference(case):
    sources, question, reply = case
    assert extract_table_anchors(reply, sources, question) == reference_extract_table_anchors(
        reply, sources, question
    )


def test_anchor_references_agree_on_long_cells_and_repeats():
    table = Table("t", ["text"], [["a b a b c"], ["b a"], ["a a a"], ["c"], ["a b c d e f"]])
    sources = SourceBundle(tables=[table])
    for reply in ["a b a b a b c", "a a", "c a b", "a b c d e f g", ""]:
        assert extract_table_anchors(reply, sources, "b") == reference_extract_table_anchors(
            reply, sources, "b"
        )


def test_anchoring_normalizes_each_distinct_cell_once_per_table(monkeypatch):
    calls = []

    def counting_normalize(text):
        calls.append(text)
        return normalize(text)

    monkeypatch.setattr(logboard.agents, "normalize", counting_normalize)
    rows = [["widget", "$7M"], ["gadget", "$7M"], ["widget", "$7M"], ["", "$9M"]]
    sources = SourceBundle(
        tables=[
            Table("t1", ["Item", "Value"], rows),
            Table("t2", ["Item", "Value"], [["widget", "$9M"], ["widget", "$9M"]]),
        ]
    )
    reply, question = "The widget line was $7M.", "What was the widget line?"
    anchors = extract_table_anchors(reply, sources, question)
    assert anchors == reference_extract_table_anchors(reply, sources, question)
    assert anchors == [TableAnchor("t1", 0, 1), TableAnchor("t1", 1, 1), TableAnchor("t1", 2, 1)]
    distinct = [cell for table in sources.tables for cell in set(chain.from_iterable(table.rows))]
    assert Counter(calls) == Counter([reply, question, *distinct])


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
        blocks = list(_source_blocks(role, sources, question, None))
        assert blocks == [
            reference_sources_block(role, sources, question, shrink) for shrink in range(4)
        ]


# --- call counts --------------------------------------------------------------


def two_table_sources():
    sources = golden_sources()
    staff = Table("Table 2", ["Year", "Staff"], [["2018", "120"], ["2019", "130"]])
    return SourceBundle(tables=[*sources.tables, staff], passages=sources.passages)


def test_flag_reengaged_run_slices_each_table_once(monkeypatch):
    sliced = []
    acts = []
    indexed = []
    context_prompts = []

    def counting_slice(table, question):
        sliced.append(table.id)
        return select_table_slice(table, question)

    def counting_act(agent, *args, **kwargs):
        acts.append(agent.role)
        return original_act(agent, *args, **kwargs)

    def counting_index(passages):
        indexed.append(len(passages))
        return original_index(passages)

    def counting_build_prompt(role, *args, **kwargs):
        if role is AgentRole.CONTEXT:
            context_prompts.append(role)
        return original_build_prompt(role, *args, **kwargs)

    original_act = TableAgent.act
    original_index = logboard.retrieval.index
    original_build_prompt = logboard.agents.build_prompt
    monkeypatch.setattr(logboard.agents, "select_table_slice", counting_slice)
    monkeypatch.setattr(TableAgent, "act", counting_act)
    monkeypatch.setattr(logboard.retrieval, "index", counting_index)
    monkeypatch.setattr(logboard.agents, "build_prompt", counting_build_prompt)

    script = golden_script()
    script["verification agent"] = "Flagged incorrect calculation in the claim."
    result = run(GOLDEN_QUESTION, two_table_sources(), ScriptedBackend(script))

    assert result.metrics.rounds == 2  # the Flag bought a re-engagement round
    assert len(acts) >= 2
    assert sorted(sliced) == ["Table 1", "Table 2"]
    assert context_prompts and len(indexed) == len(context_prompts)


@pytest.mark.parametrize("question", ["What was the revenue count?", "Nothing shared here?"])
def test_large_table_blocks_match_reference(question):
    # 200 rows: more matching rows than any cap, and a fallback longer than 50.
    rows = [[f"item{i}", str(i), "revenue" if i % 3 else "cost"] for i in range(200)]
    sources = SourceBundle(tables=[Table("big", ["name", "count", "kind"], rows)])
    blocks = list(_source_blocks(AgentRole.TABLE, sources, question, None))
    assert blocks == [
        reference_sources_block(AgentRole.TABLE, sources, question, shrink)
        for shrink in range(4)
    ]


def test_shrunk_context_prompt_ranks_passages_once(monkeypatch):
    indexed = []
    original_index = logboard.retrieval.index

    def counting_index(passages):
        indexed.append(len(passages))
        return original_index(passages)

    monkeypatch.setattr(logboard.retrieval, "index", counting_index)
    passages = [
        Passage(f"p{i}", ". ".join(f"sales word{j} growth" for j in range(60)) + ".")
        for i in range(6)
    ]
    sources = SourceBundle(passages=passages)
    question = "What happened to sales growth?"
    config = AgentConfig(AgentRole.CONTEXT, context_window=140)
    blocks = list(_source_blocks(AgentRole.CONTEXT, sources, question, None))
    prompt = logboard.agents.build_prompt(AgentRole.CONTEXT, log_with(question), sources, config)
    assert blocks[0] not in prompt and blocks[1] in prompt  # shrunk one level
    assert indexed == [6, 6]  # once for the blocks above, once for the prompt
