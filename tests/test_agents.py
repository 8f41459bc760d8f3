"""Agent triggers, act parsing, prompt building, verification layering."""

import pytest

from logboard.agents import (
    AgentConfig,
    AgentRole,
    ContextAgent,
    SummarizingAgent,
    TableAgent,
    VerificationAgent,
    VisualAgent,
    build_prompt,
    extract_doc_spans,
    extract_table_anchors,
    verification_act,
)
from logboard.backends import ScriptedBackend, TransportError, UsageMixin
from logboard.log import (
    SUMMARIZING_AGENT,
    EntryType,
    LogEntry,
    TableAnchor,
    parse_answer,
    token_estimate,
)
from logboard.sources import Image, Passage, SourceBundle, Table

from helpers import (
    GOLDEN_ANSWER,
    GOLDEN_QUESTION,
    golden_script,
    golden_sources,
    log_with,
    lookup,
)


def fresh_log(question=GOLDEN_QUESTION):
    return log_with(question)


def test_visual_abstains_without_images():
    agent = VisualAgent()
    log = fresh_log("What does the figure show?")
    assert not agent.should_act(log, SourceBundle(), 0)


def test_visual_fires_on_image_mention():
    agent = VisualAgent()
    sources = SourceBundle(images=[Image("img1", caption="a chart")])
    assert agent.should_act(fresh_log("What does the figure show?"), sources, 0)
    assert not agent.should_act(fresh_log("What was the revenue?"), sources, 0)
    mentioned = log_with("What was it?", lookup("See the image in Table 1 appendix."))
    assert agent.should_act(mentioned, sources, 1)


def test_context_round_zero_and_gap_trigger():
    agent = ContextAgent()
    sources = golden_sources()
    assert agent.should_act(fresh_log(), sources, 0)
    log = fresh_log()
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "All figures are present now."))
    assert not agent.should_act(log, sources, 1)
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "The 2020 figure is missing."))
    assert agent.should_act(log, sources, 2)
    assert not agent.should_act(fresh_log(), SourceBundle(), 0)


def test_table_tracks_reported_columns():
    agent = TableAgent()
    sources = golden_sources()
    log = fresh_log()
    assert agent.should_act(log, sources, 0)
    backend = ScriptedBackend(golden_script())
    entry = agent.act(log, sources, backend)
    assert entry is not None and entry.entry_type is EntryType.LOOKUP
    # Coverage recorded: no uncovered relevant columns remain.
    assert not agent.should_act(log, sources, 1)
    agent.notify_flag()
    assert agent.should_act(log, sources, 1)


def test_table_act_extracts_two_anchors():
    agent = TableAgent()
    backend = ScriptedBackend(golden_script())
    entry = agent.act(fresh_log(), golden_sources(), backend)
    assert entry.provenance == [TableAnchor("Table 1", 0, 1), TableAnchor("Table 1", 1, 1)]


def test_context_act_quotes_span():
    agent = ContextAgent()
    backend = ScriptedBackend(golden_script())
    entry = agent.act(fresh_log(), golden_sources(), backend)
    assert entry is not None and entry.entry_type is EntryType.QUOTE
    (span,) = entry.provenance
    (passage,) = [p for p in golden_sources().passages if p.id == span.doc_id]
    quoted = passage.text[span.start_char : span.end_char]
    assert quoted == "The revenue increase in 2019 was primarily due to higher sales volume."


def test_context_abstains_on_no_relevant_info():
    agent = ContextAgent()
    backend = ScriptedBackend({"passage reader": "no relevant info found"})
    assert agent.act(fresh_log(), golden_sources(), backend) is None


def test_unparseable_reply_becomes_abstention_not_malformed_entry():
    agent = ContextAgent()
    backend = ScriptedBackend({"passage reader": "complete gibberish zebra quantum"})
    assert agent.act(fresh_log(), golden_sources(), backend) is None
    table_agent = TableAgent()
    backend = ScriptedBackend({"table analyst": "nothing matches any cell here"})
    assert table_agent.act(fresh_log(), golden_sources(), backend) is None


def test_summarizer_act_types():
    agent = SummarizingAgent()
    backend = ScriptedBackend({"summarizing agent": "Answer: 42"})
    entry = agent.act(fresh_log(), golden_sources(), backend)
    assert entry.entry_type is EntryType.ANSWER and parse_answer(entry.content) == "42"
    backend = ScriptedBackend({"summarizing agent": "Still missing the 2019 figure."})
    entry = agent.act(fresh_log(), golden_sources(), backend)
    assert entry.entry_type is EntryType.SUMMARY


def test_build_prompt_directives():
    log = fresh_log()
    sources = golden_sources()
    summary_prompt = build_prompt(AgentRole.SUMMARIZING, log, sources, AgentConfig(AgentRole.SUMMARIZING))
    assert "Only use information from the log" in summary_prompt
    assert "Answer:" in summary_prompt
    verify_prompt = build_prompt(
        AgentRole.VERIFICATION, log, sources, AgentConfig(AgentRole.VERIFICATION), "42"
    )
    assert "reply with OK" in verify_prompt
    assert "Proposed answer: 42" in verify_prompt
    assert GOLDEN_QUESTION in summary_prompt


def test_table_prompt_contains_only_selected_rows():
    rows = [[f"item{i}", str(i)] for i in range(1000)]
    rows[17] = ["widget", "17"]
    sources = SourceBundle(tables=[Table("big", ["name", "count"], rows)])
    log = fresh_log("How many widget units are there?")
    prompt = build_prompt(AgentRole.TABLE, log, sources, AgentConfig(AgentRole.TABLE))
    assert "widget" in prompt
    assert "item999" not in prompt


def test_prompt_fits_context_window():
    huge_passages = [
        Passage(f"p{i}", " ".join(f"sales word{j} growth" for j in range(400)) + ".")
        for i in range(8)
    ]
    sources = SourceBundle(passages=huge_passages)
    log = fresh_log("What happened to sales growth?")
    config = AgentConfig(AgentRole.CONTEXT, context_window=1200)
    prompt = build_prompt(AgentRole.CONTEXT, log, sources, config)
    assert token_estimate(prompt) <= 1200


def test_empty_log_prompt_contains_question_verbatim():
    log = fresh_log()
    prompt = build_prompt(AgentRole.TABLE, log, golden_sources(), AgentConfig(AgentRole.TABLE))
    assert GOLDEN_QUESTION in prompt


def test_flag_reason_surfaces_in_retrieval_prompts():
    log = fresh_log()
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $9M"))
    log.append(
        LogEntry("VerificationAgent", EntryType.FLAG, "Flagged missing item: CEO in 2020 missing.")
    )
    prompt = build_prompt(AgentRole.TABLE, log, golden_sources(), AgentConfig(AgentRole.TABLE))
    assert "CEO in 2020 missing" in prompt
    assert "Target the missing or inconsistent item" in prompt


def test_anchor_extraction_excludes_question_echoes():
    sources = golden_sources()
    anchors = extract_table_anchors(
        "Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1).",
        sources,
        GOLDEN_QUESTION,
    )
    assert anchors == [TableAnchor("Table 1", 0, 1), TableAnchor("Table 1", 1, 1)]
    # If only question echoes match, fall back to them rather than none.
    anchors = extract_table_anchors("The years 2018 and 2019 are covered.", sources, GOLDEN_QUESTION)
    assert {(a.row, a.col) for a in anchors} == {(0, 0), (1, 0)}


def test_doc_span_paraphrase_fallback():
    sources = golden_sources()
    spans = extract_doc_spans(
        "The report attributes the revenue increase to higher sales volume in 2019.",
        sources,
    )
    assert len(spans) == 1 and spans[0].doc_id == "report"


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


def test_verification_requires_answer():
    with pytest.raises(ValueError):
        verification_act(fresh_log(), ScriptedBackend({}))


def test_role_temperature_defaults():
    assert AgentConfig(AgentRole.SUMMARIZING).temperature == 0.0
    assert AgentConfig(AgentRole.VERIFICATION).temperature == 0.0
    assert AgentConfig(AgentRole.TABLE).temperature == 0.3
    assert AgentConfig(AgentRole.CONTEXT, temperature=0.7).temperature == 0.7


def test_role_type_discipline_through_act():
    backend = ScriptedBackend(golden_script())
    sources = golden_sources()
    log = fresh_log()
    for agent, expected in (
        (TableAgent(), EntryType.LOOKUP),
        (ContextAgent(), EntryType.QUOTE),
        (SummarizingAgent(), EntryType.ANSWER),
    ):
        entry = agent.act(log, sources, backend)
        assert entry.entry_type is expected


def test_scripted_determinism_of_act():
    sources = golden_sources()
    outs = []
    for _ in range(2):
        agent = TableAgent()
        backend = ScriptedBackend(golden_script())
        entry = agent.act(fresh_log(), sources, backend)
        outs.append((entry.content, tuple(p.cite() for p in entry.provenance)))
    assert outs[0] == outs[1]
