"""Agent triggers, act parsing, prompt building, verification layering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logboard.agents
from logboard.agents import (
    CONTEXT_WINDOW,
    RETRIEVAL_ROLES,
    SUMMARIZING_INSTRUCTIONS,
    AgentRole,
    ContextAgent,
    TableAgent,
    VisualAgent,
    _images_shown,
    _passages_chosen,
    build_agents,
    build_prompt,
    extract_doc_spans,
    extract_image_refs,
    summarize,
    verification_act,
)
from logboard.backends import (
    BACKEND_CALL_TICK_MS,
    DEFAULT_MAX_TOKENS,
    RequestRejected,
    ScriptedBackend,
    TransportError,
    UsageMixin,
)
from logboard.gating import extract_features
from logboard.scheduler import PER_AGENT_CAP, run
from logboard.log import (
    SUMMARIZING_AGENT,
    TABLE_AGENT,
    TARGET_AFTER,
    DocSpan,
    EntryType,
    ImageRef,
    LogEntry,
    TableAnchor,
    parse_answer,
    render_view,
    token_estimate,
)
from logboard.retrieval import TOP_N, SourceViews, retrieve
from logboard.sources import Image, Passage, SourceBundle, Table
from logboard.textutil import split_sentences, tokenize

from test_prompts import PerRoleBackend, role_of
from test_table_equivalence import (
    NUMERALS,
    WORDS,
    bundle_question_reply,
    free_text,
    passage_text,
    phrase,
    reference_select_table_slice,
)

from helpers import (
    GOLDEN_ANSWER,
    GOLDEN_QUESTION,
    act,
    delta_record,
    golden_script,
    golden_sources,
    log_with,
    lookup,
    shared_bundle_records,
)


def fresh_log(question=GOLDEN_QUESTION):
    return log_with(question)


def retrieval_prompt(role, log, sources):
    agent = build_agents(SourceViews())[RETRIEVAL_ROLES.index(role)]
    blocks, _ = agent._show(sources, log.question())
    return build_prompt(role, log, blocks)


def table_anchors(reply, sources, question):
    """What a Table act over sources cites of the reply, from the act's own slices."""
    _, cite = TableAgent(SourceViews())._show(sources, question)
    return cite(reply)


def test_visual_abstains_without_images():
    agent = VisualAgent(SourceViews())
    log = fresh_log("What does the figure show?")
    assert not agent.should_act(log, SourceBundle(), 0)


def test_visual_fires_on_image_mention():
    agent = VisualAgent(SourceViews())
    sources = SourceBundle(images=[Image("img1", caption="a chart")])
    assert agent.should_act(fresh_log("What does the figure show?"), sources, 0)
    assert not agent.should_act(fresh_log("What was the revenue?"), sources, 0)
    mentioned = log_with("What was it?", lookup("See the image in Table 1 appendix."))
    assert agent.should_act(mentioned, sources, 1)


# The four strings where a case-insensitive match and a lowercased
# substring test disagree, then one mention and one non-mention.
@pytest.mark.parametrize(
    ("question", "mentions"),
    [("İmage", True), ("fİgure", True), ("ımage", True), ("fıgure", True),
     ("What does the figure show?", True), ("What was the revenue?", False)],
)
def test_visual_trigger_and_gate_feature_agree_on_image_mentions(question, mentions):
    log = fresh_log(question)
    sources = SourceBundle(images=[Image("img1", caption="a chart")])
    assert VisualAgent(SourceViews()).should_act(log, sources, 0) is mentions
    assert extract_features(log.entries, 0).image_present == mentions


def test_context_round_zero_and_gap_trigger():
    agent = ContextAgent(SourceViews())
    sources = golden_sources()
    assert agent.should_act(fresh_log(), sources, 0)
    log = fresh_log()
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "All figures are present now."))
    assert not agent.should_act(log, sources, 1)
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "The 2020 figure is missing."))
    assert agent.should_act(log, sources, 2)
    assert not agent.should_act(fresh_log(), SourceBundle(), 0)


def test_table_tracks_reported_columns():
    agent = TableAgent(SourceViews())
    sources = golden_sources()
    log = fresh_log()
    assert agent.should_act(log, sources, 0)
    backend = ScriptedBackend(golden_script())
    entry = act(agent, log, sources, backend)
    assert entry is not None and entry.entry_type is EntryType.LOOKUP
    # Coverage recorded: no uncovered relevant columns remain.
    assert not agent.should_act(log, sources, 1)
    agent.notify_flag()
    assert agent.should_act(log, sources, 1)


@pytest.mark.parametrize(
    "tables",
    [[], [Table("t1", header=[], rows=[[], []]), Table("t2", header=[], rows=[])]],
    ids=["no tables", "headerless tables"],
)
def test_table_agent_never_acts_without_a_column(tables):
    agent = TableAgent(SourceViews())
    sources = SourceBundle(tables=tables, passages=golden_sources().passages)
    log = fresh_log()
    for round_idx in range(3):
        assert not agent.should_act(log, sources, round_idx)
        agent.notify_flag()
    result = run(GOLDEN_QUESTION, sources, ScriptedBackend(golden_script()))
    assert EntryType.LOOKUP not in [e.entry_type for e in result.log.entries]


def test_table_trigger_builds_no_slice(monkeypatch):
    calls = []
    real = logboard.agents.select_table_slice
    monkeypatch.setattr(
        logboard.agents, "select_table_slice", lambda *a: calls.append(a) or real(*a)
    )
    agent = TableAgent(SourceViews())
    sources = golden_sources()
    log = fresh_log()
    assert agent.should_act(log, sources, 0) and agent.should_act(log, sources, 1)
    assert calls == []
    act(agent, log, sources, ScriptedBackend(golden_script()))
    assert len(calls) == len(sources.tables)


def test_a_flag_reopens_one_table_act_within_the_cap(monkeypatch):
    acts = []
    real_prepare = TableAgent.prepare
    monkeypatch.setattr(
        TableAgent, "prepare", lambda self, *a: acts.append(1) or real_prepare(self, *a)
    )
    record, script = delta_record("FirmA", 50, 55)

    def corrupt_first_lookup(entry, log):
        if entry.entry_type is EntryType.LOOKUP and len(acts) == 1:
            entry.content = entry.content.replace("$55M", "$58M")
        return entry

    clean = run(record.question, record.sources, ScriptedBackend(script))
    assert len(acts) == 1 and clean.termination.value == "AnswerVerified"
    acts.clear()
    flagged = run(
        record.question, record.sources, ScriptedBackend(script), entry_mutator=corrupt_first_lookup
    )
    assert EntryType.FLAG in [e.entry_type for e in flagged.log.entries]
    assert len(acts) == PER_AGENT_CAP == 2


def test_table_act_extracts_two_anchors():
    agent = TableAgent(SourceViews())
    backend = ScriptedBackend(golden_script())
    entry = act(agent, fresh_log(), golden_sources(), backend)
    assert entry.provenance == [TableAnchor("Table 1", 0, 1), TableAnchor("Table 1", 1, 1)]


def test_context_act_quotes_span():
    agent = ContextAgent(SourceViews())
    backend = ScriptedBackend(golden_script())
    entry = act(agent, fresh_log(), golden_sources(), backend)
    assert entry is not None and entry.entry_type is EntryType.QUOTE
    (span,) = entry.provenance
    (passage,) = [p for p in golden_sources().passages if p.id == span.doc_id]
    quoted = passage.text[span.start_char : span.end_char]
    assert quoted == "The revenue increase in 2019 was primarily due to higher sales volume."


def test_context_abstains_on_no_relevant_info():
    agent = ContextAgent(SourceViews())
    backend = ScriptedBackend({"passage reader": "no relevant info found"})
    assert act(agent, fresh_log(), golden_sources(), backend) is None


def test_unparseable_reply_becomes_abstention_not_malformed_entry():
    agent = ContextAgent(SourceViews())
    backend = ScriptedBackend({"passage reader": "complete gibberish zebra quantum"})
    assert act(agent, fresh_log(), golden_sources(), backend) is None
    table_agent = TableAgent(SourceViews())
    backend = ScriptedBackend({"table analyst": "nothing matches any cell here"})
    assert act(table_agent, fresh_log(), golden_sources(), backend) is None


def test_summarizer_act_types():
    backend = ScriptedBackend({"summarizing agent": "Answer: 42"})
    entry = summarize(fresh_log(), backend)
    assert entry.entry_type is EntryType.ANSWER and parse_answer(entry.content) == "42"
    backend = ScriptedBackend({"summarizing agent": "Still missing the 2019 figure."})
    entry = summarize(fresh_log(), backend)
    assert entry.entry_type is EntryType.SUMMARY


def test_build_prompt_directives():
    log = fresh_log()
    summary_prompt = build_prompt(AgentRole.SUMMARIZING, log)
    assert "Only use information from the log" in summary_prompt
    assert "Answer:" in summary_prompt
    verify_prompt = build_prompt(AgentRole.VERIFICATION, log, answer_text="42")
    assert "reply with OK" in verify_prompt
    assert "Proposed answer: 42" in verify_prompt
    assert GOLDEN_QUESTION in summary_prompt


def test_table_prompt_contains_only_selected_rows():
    rows = [[f"item{i}", str(i)] for i in range(1000)]
    rows[17] = ["widget", "17"]
    sources = SourceBundle(tables=[Table("big", ["name", "count"], rows)])
    log = fresh_log("How many widget units are there?")
    prompt = retrieval_prompt(AgentRole.TABLE, log, sources)
    assert "widget" in prompt
    assert "item999" not in prompt


def test_prompt_fits_context_window():
    huge_passages = [
        Passage(f"p{i}", " ".join(f"sales word{j} growth" for j in range(400)) + ".")
        for i in range(8)
    ]
    sources = SourceBundle(passages=huge_passages)
    log = fresh_log("What happened to sales growth?")
    prompt = retrieval_prompt(AgentRole.CONTEXT, log, sources)
    assert token_estimate(prompt) <= CONTEXT_WINDOW
    # Every shrink level overflows, so the sources are cut to fit.
    assert "[sources truncated]" in prompt


def test_a_log_whose_citations_alone_overflow_is_cut_from_the_oldest_end():
    # Each Lookup cites 40 cells, so even the stub that folds every entry
    # keeps about 7,000 tokens of citations: the view stays above
    # TARGET_AFTER, and the prompt cuts the oldest part of it.
    log = log_with("What changed?")
    for i in range(40):
        anchors = [TableAnchor("t1", i, col) for col in range(40)]
        log.append(LogEntry(TABLE_AGENT, EntryType.LOOKUP, f"entry {i} value v{i}", provenance=anchors))
    view = render_view(log)
    assert view.startswith(f"{SUMMARIZING_AGENT} (Summary): [history: 40 earlier entries compressed]")
    assert token_estimate(view) > TARGET_AFTER
    prompt = build_prompt(AgentRole.SUMMARIZING, log)
    assert token_estimate(prompt) <= CONTEXT_WINDOW
    assert "[earlier log truncated] ..." in prompt
    assert prompt.startswith(SUMMARIZING_INSTRUCTIONS) and "Question: What changed?" in prompt
    assert view.endswith(prompt.split("[earlier log truncated] ...", 1)[1])


def test_empty_log_prompt_contains_question_verbatim():
    log = fresh_log()
    prompt = retrieval_prompt(AgentRole.TABLE, log, golden_sources())
    assert GOLDEN_QUESTION in prompt


def test_flag_reason_surfaces_in_retrieval_prompts():
    log = fresh_log()
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $9M"))
    log.append(
        LogEntry("VerificationAgent", EntryType.FLAG, "Flagged missing item: CEO in 2020 missing.")
    )
    prompt = retrieval_prompt(AgentRole.TABLE, log, golden_sources())
    assert "CEO in 2020 missing" in prompt
    assert "Target the missing or inconsistent item" in prompt


def test_anchor_extraction_excludes_question_echoes():
    sources = golden_sources()
    anchors = table_anchors(
        "Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1).",
        sources,
        GOLDEN_QUESTION,
    )
    assert anchors == [TableAnchor("Table 1", 0, 1), TableAnchor("Table 1", 1, 1)]
    # If only question echoes match, fall back to them rather than none.
    anchors = table_anchors("The years 2018 and 2019 are covered.", sources, GOLDEN_QUESTION)
    assert {(a.row, a.col) for a in anchors} == {(0, 0), (1, 0)}


def test_doc_span_paraphrase_fallback():
    sources = golden_sources()
    spans = extract_doc_spans(
        "The report attributes the revenue increase to higher sales volume in 2019.",
        _passages_chosen(sources, GOLDEN_QUESTION),
        SourceViews(),
    )
    assert len(spans) == 1 and spans[0].doc_id == "report"


def test_quote_span_indexes_the_original_text():
    # "İ" lowers to two characters, which shifted every later lowered offset.
    text = "İzmir office: Revenue grew to $55M in 2019."
    sources = [Passage("p0", "Costs fell."), Passage("p1", text)]
    views = SourceViews()
    for quoted in ("Revenue grew to $55M", "İzmir office", "zmir", "in 2019."):
        (span,) = extract_doc_spans(f"The report says '{quoted}'.", sources, views)
        assert span.doc_id == "p1"
        assert text[span.start_char : span.end_char] == quoted
    assert extract_doc_spans("It says 'Revenue grew to $55M'.", sources, views) == [
        DocSpan("p1", 14, 34)
    ]
    # A quote of a lowered "İ" finds the lowered text but no whole character.
    assert extract_doc_spans("It says 'i\u0307zmir'.", sources, views) == [DocSpan("p1", 0, 5)]
    assert extract_doc_spans("It says '\u0307zmir'.", sources, views) == []


def reference_quote_span(passages, quoted):
    """The first passage and first character offsets whose lowered text is the lowered quote.

    Every pair of character offsets is tried, each lowered in its place.
    """
    target = quoted.lower()
    for passage in passages:
        text = passage.text
        lowered = text.lower()
        starts = [0]  # where each character's lowering starts in the lowered text
        for char in text:
            starts.append(starts[-1] + len(char.lower()))
        for start in range(len(text) + 1):
            for end in range(start, len(text) + 1):
                if lowered[starts[start] : starts[end]] == target:
                    return DocSpan(passage.id, start, end)
    return None


def reference_paraphrase_span(passages, reply):
    """The sentence of any passage sharing most distinct tokens (at least 3) with the reply."""
    reply_tokens = set(tokenize(reply))
    best = None
    for passage in passages:
        for start, end in split_sentences(passage.text):
            overlap = len(set(tokenize(passage.text[start:end])) & reply_tokens)
            if overlap >= 3 and (best is None or overlap > best[0]):
                best = (overlap, DocSpan(passage.id, start, end))
    return [best[1]] if best else []


# Mixed case, a dotted capital I (lowers to "i" plus a combining dot), the
# Kelvin sign (lowers to "k"), punctuation glued to words and sentence ends.
SPAN_WORDS = ["Revenue", "revenue", "grew", "Sales", "sales", "Firm0", "v1", "2019", "$55M",
              "\u0130zmir", "izmir", "\u212aelvin", "kelvin", "\u00e9t\u00e9", "--", "office:",
              "growth.", "fell!"]
span_texts = st.lists(st.sampled_from(SPAN_WORDS), min_size=1, max_size=10).map(" ".join)


@st.composite
def span_passages(draw):
    texts = draw(st.lists(span_texts, min_size=1, max_size=6))
    if draw(st.booleans()):
        texts.insert(draw(st.integers(0, len(texts))), draw(st.sampled_from(texts)))
    return [Passage(f"p{i}", text) for i, text in enumerate(texts)]


@st.composite
def quotes(draw, passages):
    """Part of a passage, cut anywhere (mid-word too), or words found in none."""
    if draw(st.integers(0, 3)):
        text = draw(st.sampled_from(passages)).text
        start = draw(st.integers(0, len(text) - 1))
        return text[start : draw(st.integers(start + 1, len(text)))]
    return draw(span_texts)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_quote_spans_equal_a_first_match_scan(data):
    passages = data.draw(span_passages())
    quoted = data.draw(st.lists(quotes(passages), min_size=1, max_size=3))
    reply = "The report says " + " and ".join(f'"{q}"' for q in quoted)
    spans = [span for q in quoted if (span := reference_quote_span(passages, q))]
    got = extract_doc_spans(reply, passages, SourceViews())
    assert got == (spans or reference_paraphrase_span(passages, reply))
    texts = {p.id: p.text for p in passages}
    if spans:
        for q, span in zip((q for q in quoted if reference_quote_span(passages, q)), got):
            assert texts[span.doc_id][span.start_char : span.end_char].lower() == q.lower()


@settings(max_examples=300, deadline=None)
@given(span_passages(), span_texts)
def test_paraphrase_span_equals_the_full_sentence_scan(passages, reply):
    reply = reply.replace('"', "")  # no quote: the paraphrase fallback decides
    got = extract_doc_spans(reply, passages, SourceViews())
    assert got == reference_paraphrase_span(passages, reply)


class RecordingText(str):
    """Passage text that records each time it is lowered."""

    lowered: list[str] = []

    def lower(self):
        RecordingText.lowered.append(self)
        return super().lower()


def test_quote_anchoring_lowers_only_the_chosen_postings(monkeypatch):
    texts = [f"Passage {i} reports steady sales." for i in range(50)]
    texts[10] = "The zebra crossed the gate."
    texts[40] = "Then the zebra crossed the road."
    texts[45] = "Passage 45 says the zebra crossed the road."
    passages = [Passage(f"p{i}", RecordingText(text)) for i, text in enumerate(texts)]
    sources = SourceBundle(passages=passages)
    # "zebra" and "crossed" are in p10, p40 and p45 only, so a Context prompt
    # for the question shows those three, and only they are read.
    chosen = _passages_chosen(sources, "Where was the zebra crossed?")
    assert [passage.id for passage in chosen] == ["p10", "p40", "p45"]
    monkeypatch.setattr(RecordingText, "lowered", [])
    spans = extract_doc_spans("It says 'the zebra crossed the road'.", chosen, SourceViews())
    assert spans == [DocSpan("p40", 5, 31)]
    assert RecordingText.lowered == [texts[10], texts[40]]
    # A quote found only in a passage the prompt did not show is not cited.
    spans = extract_doc_spans("It says 'reports steady sales'.", chosen, SourceViews())
    assert spans == []


PASSAGE_WORDS = ["sales", "zebra", "road", "gate", "the", "2019"]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(PASSAGE_WORDS), max_size=6).map(" ".join), max_size=8),
    st.lists(st.sampled_from(PASSAGE_WORDS + ["absent"]), max_size=4).map(" ".join),
)
def test_chosen_passages_are_the_ranked_ones_in_passage_order(texts, question):
    # Ids out of passage order, so ranking by id and by position differ.
    passages = [Passage(f"p{i * 5 % 8}", text) for i, text in enumerate(texts)]
    sources = SourceBundle(passages=passages)
    ranked = {doc_id for doc_id, _ in retrieve(sources.passage_index, question)}
    expected = [p for p in passages if p.id in ranked] if ranked else passages[:TOP_N]
    assert _passages_chosen(sources, question) == expected


def test_a_visual_act_works_out_its_shown_images_once(monkeypatch):
    asked = []

    def counting(question, sources, views):
        asked.append(question)
        return original(question, sources, views)

    original = logboard.agents._images_shown
    monkeypatch.setattr(logboard.agents, "_images_shown", counting)
    images = [
        Image("Figure 1", "Revenue by year for Giva", "Giva 2018 $310M 2019 $342M"),
        Image("Figure 2", "Revenue by year for Bora", "Bora 2018 $120M 2019 $150M"),
    ]
    question = "According to Figure 2, how did Bora revenue change?"
    backend = ScriptedBackend({"Image Figure 2:": "Bora revenue rose from $120M to $150M."})
    entry = act(VisualAgent(SourceViews()), fresh_log(question), SourceBundle(images=images), backend)
    # One choice serves the prompt, which shows Figure 2 alone, and the refs.
    assert entry.provenance == [ImageRef("Figure 2")]
    assert asked == [question]


def image_refs(reply, sources, question, views):
    """What a Visual act over sources, asked question, cites for reply."""
    return extract_image_refs(reply, _images_shown(question, sources, views), views)


def test_image_id_is_named_as_a_whole_run_of_words():
    images = [
        Image("Figure 1", "Staff count by region", "North 120 South 80"),
        Image("Figure 12", "Cost by person", "Bo 2018 $7M"),
    ]
    reply = "Figure 12 shows Bo cost of $7M in 2018."
    refs = image_refs(reply, SourceBundle(images=images), "", SourceViews())
    assert refs == [ImageRef("Figure 12")]


def test_one_letter_image_id_is_not_named_by_its_letter():
    images = [Image("A", "Staff count", "Staff 120"), Image("B", "Cost by year", "Bo 2018 $7M")]
    sources, views = SourceBundle(images=images), SourceViews()
    reply = "Image B shows the cost was $7M."
    assert image_refs(reply, sources, "", views) == [ImageRef("B")]
    assert image_refs("See image a.", sources, "", views) == [ImageRef("A")]


def test_a_reply_naming_a_figure_cites_that_figure_alone():
    # Both figures hold the years and the word "revenue", as every figure of
    # a report does; the reply names one of them.
    images = [
        Image("Figure 1", "Revenue by year for Giva", "Giva 2018 $310M 2019 $342M"),
        Image("Figure 2", "Revenue by year for Bora", "Bora 2018 $120M 2019 $150M"),
    ]
    sources, views = SourceBundle(images=images), SourceViews()
    reply = "Figure 2 shows Bora revenue of $120M in 2018 and $150M in 2019."
    assert image_refs(reply, sources, "", views) == [ImageRef("Figure 2")]
    # A reply that names no figure cites each one it shares a numeral or two
    # tokens with, years left out: the year both figures hold cites neither.
    reply = "Giva revenue was $310M in 2018."
    assert image_refs(reply, sources, "", views) == [ImageRef("Figure 1")]
    # Such a reply is matched only against the figures its prompt showed: a
    # question naming Figure 2 shows Figure 2 alone.
    reply = "The chart plots revenue by year: $120M then $150M."
    both = [ImageRef("Figure 1"), ImageRef("Figure 2")]
    assert image_refs(reply, sources, "How did revenue change?", views) == both
    question = "According to Figure 2, how did Bora revenue change?"
    assert image_refs(reply, sources, question, views) == [ImageRef("Figure 2")]
    assert image_refs("No match.", sources, question, views) == [ImageRef("Figure 2")]


def test_a_reply_naming_only_an_unshown_figure_falls_back_to_the_shown_ones():
    images = [
        Image("Figure 1", "Revenue by year for Giva", "Giva 2018 $310M 2019 $342M"),
        Image("Figure 2", "Revenue by year for Bora", "Bora 2018 $120M 2019 $150M"),
    ]
    sources, views = SourceBundle(images=images), SourceViews()
    question = "According to Figure 2, how did Bora revenue change?"  # shows Figure 2 alone
    reply = "Figure 1 shows Giva revenue of $310M."
    # Figure 1 was not shown, so the reply is matched as one naming no
    # figure; it shares nothing with Figure 2, which is cited as the first shown.
    assert image_refs(reply, sources, question, views) == [ImageRef("Figure 2")]
    # Naming a shown and an unshown figure cites the shown one alone.
    reply = "Figure 1 and Figure 2 show revenue."
    assert image_refs(reply, sources, question, views) == [ImageRef("Figure 2")]
    # A question naming no figure shows both, so the reply cites both.
    assert image_refs(reply, sources, "How did revenue change?", views) == [
        ImageRef("Figure 1"),
        ImageRef("Figure 2"),
    ]


@settings(max_examples=200, deadline=None)
@given(
    bundle_question_reply(),
    st.lists(passage_text, max_size=5),
    st.lists(st.tuples(free_text, free_text), max_size=3),
    st.data(),
)
def test_every_provenance_item_lies_inside_what_the_level_zero_blocks_rendered(
    case, texts, images, data
):
    tables, question, reply = case
    sources = SourceBundle(
        tables=tables.tables,
        passages=[Passage(f"p{i}", text) for i, text in enumerate(texts)],
        images=[Image(f"i{i}", caption, ocr) for i, (caption, ocr) in enumerate(images)],
    )
    # The question may name an image, and the reply may name images and
    # quote or paraphrase any passage, shown or not.
    names = [f"Image i{i}" for i in range(len(images))]
    question = (question + " " + data.draw(st.sampled_from(["", *names]))).strip() or "What?"
    reply += phrase(data.draw, WORDS + NUMERALS + names + texts)
    if texts:
        text = data.draw(st.sampled_from(texts))
        start = data.draw(st.integers(0, len(text) - 1))
        reply += f' "{text[start : data.draw(st.integers(start + 1, len(text)))]}"'
    for agent in (TableAgent(SourceViews()), ContextAgent(SourceViews()), VisualAgent(SourceViews())):
        backend = PerRoleBackend({"Question:": reply})
        entry = act(agent, log_with(question), sources, backend)
        (prompt,) = backend.prompts
        level_zero = next(type(agent)(SourceViews())._show(sources, question)[0])
        assert level_zero in prompt
        for item in entry.provenance if entry else []:
            if isinstance(item, TableAnchor):
                table = next(t for t in sources.tables if t.id == item.table_id)
                slice_ = reference_select_table_slice(table, question)
                assert item.row in slice_.kept_rows and item.col in slice_.kept_cols
            elif isinstance(item, DocSpan):
                assert f"Passage {item.doc_id}: " in level_zero
            else:
                assert f"Image {item.image_id}: " in level_zero


def test_visual_entries_of_shared_bundles_cite_the_figure_their_question_names():
    records, script = shared_bundle_records()
    for record in records:
        figure = record.question.split(",")[0].removeprefix("According to ")
        result = run(record.question, record.sources, ScriptedBackend(script))
        visual = [e for e in result.log.entries if e.entry_type is EntryType.VISUAL]
        assert len(record.sources.images) == 3
        assert [e.citations() for e in visual] == [[f"image:{figure}"]]


def test_verification_act_clean_path_uses_backend():
    log = log_with(
        GOLDEN_QUESTION,
        lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1)."),
    )
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, f"Answer: {GOLDEN_ANSWER}"))
    backend = ScriptedBackend({"verification agent": "Verified. (No issues flagged.)"})
    entry = verification_act(log, backend)
    assert entry.entry_type is EntryType.OK
    assert backend.calls == 1


def test_verification_act_deterministic_finding_skips_backend():
    log = log_with(
        GOLDEN_QUESTION,
        lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1)."),
    )
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $6M increase"))
    backend = ScriptedBackend({"verification agent": "OK"})
    entry = verification_act(log, backend)
    assert entry.entry_type is EntryType.FLAG
    assert "ArithmeticMismatch" in entry.content
    assert "[steps: 1]" in entry.content
    assert backend.calls == 0  # deterministic findings override any backend OK


def test_verification_act_backend_flag():
    log = log_with(GOLDEN_QUESTION, lookup("Revenue held steady at $50M (Table 1)."))
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $50M, says the CEO"))
    backend = ScriptedBackend(
        {"verification agent": "The claim about the CEO is unsupported; name missing."}
    )
    entry = verification_act(log, backend)
    assert entry.entry_type is EntryType.FLAG


class FailingBackend(UsageMixin):
    def generate(self, prompt, temperature, max_tokens=512):
        raise TransportError("down")


def test_verification_fails_open_on_transport_error_when_clean():
    log = log_with(GOLDEN_QUESTION, lookup("Revenue held steady at $50M (Table 1)."))
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $50M"))
    entry = verification_act(log, FailingBackend())
    assert entry.entry_type is EntryType.OK
    assert "backend-unavailable" in entry.content


def test_verification_fails_closed_on_arithmetic_despite_backend_down():
    log = log_with(
        GOLDEN_QUESTION,
        lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1)."),
    )
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $7M increase"))
    entry = verification_act(log, FailingBackend())
    assert entry.entry_type is EntryType.FLAG


class ErrorsThenScript(UsageMixin):
    """Raises the given errors one per call, then replies from a script."""

    def __init__(self, errors, script):
        super().__init__()
        self.errors = list(errors)
        self.attempts = 0
        self.inner = ScriptedBackend(script)

    def generate(self, prompt, temperature, max_tokens=512):
        self.attempts += 1
        if self.errors:
            raise self.errors.pop(0)
        reply = self.inner.generate(prompt, temperature, max_tokens)
        self._record(prompt, reply)
        return reply


def clean_answer_log():
    log = log_with(GOLDEN_QUESTION, lookup("Revenue held steady at $50M (Table 1)."))
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $50M"))
    return log


@pytest.mark.parametrize(
    "reply, verdict",
    [
        ("Checked against Table 1. (No issues flagged.)", EntryType.OK),
        ("The figure is not the one in Table 1; recheck it.", EntryType.FLAG),
    ],
)
def test_verifier_retries_a_transient_error_and_the_backend_decides(reply, verdict):
    backend = ErrorsThenScript([TransportError("HTTP Error 503")], {"verification agent": reply})
    entry = verification_act(clean_answer_log(), backend)
    assert backend.attempts == 2
    assert (entry.entry_type, entry.content) == (verdict, reply)


def test_verifier_fails_open_when_every_attempt_fails():
    errors = [TransportError("HTTP Error 503")] * 3
    backend = ErrorsThenScript(errors, {"verification agent": "Flagged: recheck it."})
    entry = verification_act(clean_answer_log(), backend)
    assert backend.attempts == 3
    assert entry.entry_type is EntryType.OK
    assert "backend-unavailable" in entry.content


def test_verifier_fails_open_at_once_on_a_rejected_request():
    backend = ErrorsThenScript([RequestRejected("HTTP Error 404")], {"verification agent": "Flagged."})
    entry = verification_act(clean_answer_log(), backend)
    assert backend.attempts == 1
    assert entry.entry_type is EntryType.OK
    assert "backend-unavailable" in entry.content


@pytest.mark.parametrize("failures, replies", [(0, 1), (1, 1), (3, 0)])
def test_the_verifier_call_ticks_the_clock_once_per_reply(failures, replies):
    log = clean_answer_log()
    before = log.clock.now_ms()
    errors = [TransportError("HTTP Error 503")] * failures
    verification_act(log, ErrorsThenScript(errors, {"verification agent": "OK"}))
    assert log.clock.now_ms() - before == replies * BACKEND_CALL_TICK_MS


def test_verification_requires_answer():
    with pytest.raises(ValueError):
        verification_act(fresh_log(), ScriptedBackend({}))


def test_role_temperature_defaults():
    # The Summarizer and verifier decode greedily; the retrieval roles sample
    # a little. Every role asks for the backend's default reply budget.
    sent = set()

    class RecordingBackend(PerRoleBackend):
        def generate(self, prompt, temperature, max_tokens=DEFAULT_MAX_TOKENS):
            sent.add((role_of(prompt), temperature, max_tokens))
            return super().generate(prompt, temperature, max_tokens)

    records, script = shared_bundle_records(bundles=1, per_bundle=1)
    run(records[0].question, records[0].sources, RecordingBackend(script))
    run(GOLDEN_QUESTION, golden_sources(), RecordingBackend(golden_script()))
    expected = {role.value: 0.3 for role in RETRIEVAL_ROLES}
    expected.update(Summarizing=0.0, Verification=0.0)
    assert sent == {(role, t, DEFAULT_MAX_TOKENS) for role, t in expected.items()}


def test_role_type_discipline_through_act():
    backend = ScriptedBackend(golden_script())
    sources = golden_sources()
    log = fresh_log()
    for agent, expected in (
        (TableAgent(SourceViews()), EntryType.LOOKUP),
        (ContextAgent(SourceViews()), EntryType.QUOTE),
    ):
        entry = act(agent, log, sources, backend)
        assert entry.entry_type is expected
    assert summarize(log, backend).entry_type is EntryType.ANSWER


def test_scripted_determinism_of_act():
    sources = golden_sources()
    outs = []
    for _ in range(2):
        agent = TableAgent(SourceViews())
        backend = ScriptedBackend(golden_script())
        entry = act(agent, fresh_log(), sources, backend)
        outs.append((entry.content, tuple(p.cite() for p in entry.provenance)))
    assert outs[0] == outs[1]
