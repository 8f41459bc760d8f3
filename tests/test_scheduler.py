"""Controller loop: golden run, re-engagement, stopping rules, guardrails."""

import dataclasses
import inspect
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logboard
import logboard.agents
import logboard.scheduler
from logboard.agents import (
    RETRIEVAL_ROLES,
    AgentRole,
    TableAgent,
    build_agents,
    build_prompt,
    extract_doc_spans,
    extract_image_refs,
    extract_table_anchors,
)
from logboard.backends import ScriptedBackend, TransportError, UsageMixin
from logboard.gating import extract_features
from logboard.harness import FaultType, inject_faults, run_benchmark
from logboard.log import (
    CONTEXT_AGENT,
    TABLE_AGENT,
    VISUAL_AGENT,
    EntryType,
    SharedLog,
    dump_trace,
    is_near_duplicate,
    parse_answer,
)
from logboard.retrieval import SourceViews, truncate_span
from logboard.scheduler import (
    PER_AGENT_CAP,
    SchedulerConfig,
    Termination,
    TransportAbort,
    offer_turns,
    run,
)
from logboard.sources import Image, SourceBundle, Table
from logboard.verify import verify_deterministic

from helpers import (
    FIGURE_QUESTION,
    FIGURE_SCRIPT,
    GOLDEN_ANSWER,
    GOLDEN_QUESTION,
    RandomReplyBackend,
    figure_sources,
    fuzz_sources,
    golden_script,
    golden_sources,
    run_golden,
)


def test_golden_run_terminates_verified_in_one_round():
    result = run_golden()
    assert result.termination is Termination.ANSWER_VERIFIED
    assert result.final_answer == GOLDEN_ANSWER
    assert result.metrics.rounds == 1
    sequence = [(e.agent, e.entry_type.value) for e in result.log.entries]
    assert sequence == [
        ("User", "Query"),
        ("TableAgent", "Lookup"),
        ("ContextAgent", "Quote"),
        ("SummarizingAgent", "Answer"),
        ("VerificationAgent", "OK"),
    ]


def test_golden_run_is_byte_deterministic():
    a = dump_trace(run_golden().log.entries)
    b = dump_trace(run_golden().log.entries)
    assert a == b


def always_flag_script():
    script = golden_script()
    script["verification agent"] = "Flagged incorrect calculation in the claim."
    return script


def test_always_flag_gives_exactly_one_extra_round():
    result = run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(always_flag_script()))
    assert result.termination is Termination.ANSWER_UNVERIFIED
    assert result.final_answer == GOLDEN_ANSWER
    # The second identical Flag is dedup-rejected, so one survives in the log.
    flags = [e for e in result.log.entries if e.entry_type is EntryType.FLAG]
    assert len(flags) >= 1
    assert result.metrics.rounds == 2


def test_flag_in_final_round_still_gets_reengagement():
    config = SchedulerConfig(max_rounds=1)
    result = run(
        GOLDEN_QUESTION, golden_sources(), ScriptedBackend(always_flag_script()), config=config
    )
    # The single re-engagement round may exceed max_rounds by one.
    assert result.metrics.rounds == 2
    assert result.termination is Termination.ANSWER_UNVERIFIED


def test_dedup_rejected_ok_verdict_does_not_verify():
    """A verdict dedup keeps out of the log is not the run's verdict.

    The second reply is the Flag plus " OK": parse_verdict reads it as OK,
    but it is a near-duplicate of the committed Flag, so it takes the Flag
    path, and with the re-engagement spent the run ends unverified.
    """
    flag = (
        "Flagged: the claimed increase does not follow from the revenue figures "
        "the table gives for 2018 and 2019, so the answer needs another look."
    )
    script = golden_script()
    script["verification agent"] = [flag, flag + " OK"]
    assert is_near_duplicate(flag, flag + " OK")
    result = run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(script))
    verdicts = [e for e in result.log.entries if e.entry_type in (EntryType.FLAG, EntryType.OK)]
    assert [(e.entry_type, e.content) for e in verdicts] == [(EntryType.FLAG, flag)]
    assert result.termination is Termination.ANSWER_UNVERIFIED
    assert result.final_answer == GOLDEN_ANSWER
    assert result.metrics.rounds == 2


def test_no_progress_after_two_nonanswer_summaries():
    sources = SourceBundle(
        tables=[Table("t", ["k", "v"], [["alpha", "1"]])],
    )
    script = {
        "table analyst": "no relevant info found",
        "summarizing agent": "Progress is stalled; the key figure is missing.",
    }
    result = run("What is the figure for omega?", sources, ScriptedBackend(script))
    assert result.termination is Termination.NO_PROGRESS
    assert result.final_answer is None
    assert result.metrics.rounds == 2
    last = result.audits[-1]
    assert not last.updated and last.consecutive_nonanswer_summaries >= 2 and not last.any_pending
    # The best partial summary is still in the log.
    assert result.log.latest(EntryType.SUMMARY) is not None


def test_max_rounds_without_answer():
    sources = fuzz_sources()
    script = {
        "table analyst": "The widget line was $7M according to Table 1.",
        "passage reader": [
            "According to the text: 'Demand for widgets rose sharply.'",
            "According to the text: 'Gadgets held flat.'",
        ],
        "summarizing agent": [
            "So far only partial data; the totals are missing.",
            "Numbers are incomplete; still not sure about gadgets.",
        ],
    }
    config = SchedulerConfig(max_rounds=2)
    result = run("How did widgets and gadgets do?", sources, ScriptedBackend(script), config=config)
    assert result.termination is Termination.MAX_ROUNDS
    assert result.final_answer is None
    assert result.metrics.rounds == 2


def test_max_rounds_with_unverified_answer_returns_it():
    script = golden_script()
    script["verification agent"] = "Flagged incorrect calculation in the claim."
    # Re-engagement consumes the only flag allowance; second flag ends the run
    # before max rounds, so instead disable the verifier and stall the rest.
    sources = golden_sources()
    script["summarizing agent"] = [
        "Looking at the table now; figures are missing.",
        f"All set. Answer: {GOLDEN_ANSWER}",
    ]
    config = SchedulerConfig(max_rounds=2, verifier_enabled=False)
    result = run(GOLDEN_QUESTION, sources, ScriptedBackend(script), config=config)
    assert result.termination is Termination.ANSWER_UNVERIFIED
    assert result.final_answer == GOLDEN_ANSWER


# A multi-sentence Answer, and the same text with another amount: long
# enough that dedup rejects the second as a near-duplicate of the first.
LONG_ANSWER = (
    "Table 1 gives revenue of $50M for 2018 and $55M for 2019. The report says the "
    "increase in 2019 was primarily due to higher sales volume. Both facts are in the "
    "shared log, one from the table lookup and one from the passage quote, and they agree "
    "with each other. Therefore revenue grew over the year, driven by sales volume. "
    f"Answer: {GOLDEN_ANSWER}"
)
WRONG_ANSWER = GOLDEN_ANSWER.replace("$5M", "$6M")


@pytest.mark.parametrize("verifier_enabled", [True, False])
def test_dedup_rejected_answer_returns_the_committed_answer(verifier_enabled):
    repeat = LONG_ANSWER.replace(GOLDEN_ANSWER, WRONG_ANSWER)
    assert is_near_duplicate(LONG_ANSWER, repeat)
    script = golden_script()
    script["summarizing agent"] = [LONG_ANSWER, repeat]
    script["verification agent"] = ["The answer is incorrect: the reason is not supported.", "OK"]
    config = SchedulerConfig(verifier_enabled=verifier_enabled)
    result = run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(script), config=config)
    answers = [e for e in result.log.entries if e.entry_type is EntryType.ANSWER]
    assert [e.content for e in answers] == [LONG_ANSWER]
    # The repeat was never committed, and the verifier would flag it if it were.
    assert verify_deterministic(result.log, WRONG_ANSWER)
    assert result.final_answer == GOLDEN_ANSWER
    if verifier_enabled:
        assert result.termination is Termination.ANSWER_VERIFIED
        assert result.metrics.rounds == 2
    else:
        assert result.termination is Termination.ANSWER_UNVERIFIED
        assert result.metrics.rounds == 1


@pytest.mark.parametrize("verifier_enabled", [True, False])
def test_rejected_answer_with_none_committed_is_a_nonanswer_summary(verifier_enabled):
    summary = (
        "The revenue was $50M in 2018 and $55M in 2019 according to Table 1, and the report "
        "attributes the increase to higher sales volume, so the log already holds both facts."
    )
    script = golden_script()
    script["summarizing agent"] = [summary, f"{summary} Answer: $5M increase."]
    config = SchedulerConfig(verifier_enabled=verifier_enabled)
    result = run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(script), config=config)
    assert result.log.latest(EntryType.ANSWER) is None
    assert result.termination is Termination.NO_PROGRESS
    assert result.final_answer is None
    assert result.audits[-1].consecutive_nonanswer_summaries == 2


def test_verifier_disabled_never_verifies():
    config = SchedulerConfig(verifier_enabled=False)
    result = run_golden(config=config)
    assert result.termination is Termination.ANSWER_UNVERIFIED
    assert result.final_answer == GOLDEN_ANSWER
    assert not [e for e in result.log.entries if e.entry_type in (EntryType.OK, EntryType.FLAG)]


def no_acts() -> dict:
    return {role: 0 for role in RETRIEVAL_ROLES}


def test_offer_turn_cap_blocks_without_backend_call():
    table, _, _ = build_agents(SourceViews())
    backend = ScriptedBackend(golden_script())
    acts = no_acts()
    acts[AgentRole.TABLE] = 2
    from logboard.log import USER, LogEntry, SharedLog

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, GOLDEN_QUESTION))
    committed = offer_turns([table], acts, log, golden_sources(), backend, 0)
    assert committed == 0 and backend.calls == 0
    assert acts == {**no_acts(), AgentRole.TABLE: 2}


def test_offer_turn_visual_idle_without_images():
    _, _, visual = build_agents(SourceViews())
    backend = ScriptedBackend({})
    acts = no_acts()
    from logboard.log import USER, LogEntry, SharedLog

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, "see the figure?"))
    committed = offer_turns([visual], acts, log, SourceBundle(), backend, 0)
    assert committed == 0 and backend.calls == 0
    assert acts == no_acts()


def test_offer_turn_appends_lookup():
    table, _, _ = build_agents(SourceViews())
    backend = ScriptedBackend(golden_script())
    acts = no_acts()
    from logboard.log import USER, LogEntry, SharedLog

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, GOLDEN_QUESTION))
    committed = offer_turns([table], acts, log, golden_sources(), backend, 0)
    assert committed == 1 and acts == {**no_acts(), AgentRole.TABLE: 1}
    assert log.entries[-1].entry_type is EntryType.LOOKUP


def test_dedup_rejected_append_counts_toward_cap_without_update():
    table, _, _ = build_agents(SourceViews())
    backend = ScriptedBackend(golden_script())
    acts = no_acts()
    from logboard.log import USER, LogEntry, SharedLog

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, GOLDEN_QUESTION))
    assert offer_turns([table], acts, log, golden_sources(), backend, 0) == 1
    table.notify_flag()  # re-open coverage; same reply comes back
    committed = offer_turns([table], acts, log, golden_sources(), backend, 1)
    assert committed == 0 and backend.calls == 2
    assert acts == {**no_acts(), AgentRole.TABLE: 2}


class FlakyBackend(UsageMixin):
    """Fails a fixed number of times, then delegates to a scripted backend.
    Like HttpBackend it counts replies, not attempts."""

    def __init__(self, failures: int, script: dict) -> None:
        super().__init__()
        self.failures = failures
        self.inner = ScriptedBackend(script)

    def generate(self, prompt, temperature, max_tokens=512):
        if self.failures > 0:
            self.failures -= 1
            raise TransportError("flaky")
        reply = self.inner.generate(prompt, temperature, max_tokens)
        self._record(prompt, reply)
        return reply


def test_transient_failures_are_retried():
    backend = FlakyBackend(2, golden_script())
    result = run(GOLDEN_QUESTION, golden_sources(), backend)
    assert result.termination is Termination.ANSWER_VERIFIED
    # Both failures fall on the first call's tries, which the third answers.
    clean = run(GOLDEN_QUESTION, golden_sources(), FlakyBackend(0, golden_script()))
    assert result.metrics == clean.metrics
    assert result.metrics.backend_calls == backend.calls == 4


def test_persistent_failure_aborts_with_partial_log():
    backend = FlakyBackend(99, golden_script())
    with pytest.raises(TransportAbort) as excinfo:
        run(GOLDEN_QUESTION, golden_sources(), backend)
    partial = excinfo.value.partial_log
    assert partial.entries[0].entry_type is EntryType.QUERY


class FailsOnceAt(UsageMixin):
    """Raises one TransportError at attempt k (none if k < 0), then replies
    from a script. Like HttpBackend it counts replies, not attempts, and it
    keeps every prompt it is sent."""

    def __init__(self, k: int, script: dict) -> None:
        super().__init__()
        self.k = k
        self.inner = ScriptedBackend(script)
        self.prompts: list[str] = []

    def generate(self, prompt, temperature, max_tokens=512):
        self.prompts.append(prompt)
        if len(self.prompts) - 1 == self.k:
            raise TransportError("HTTP Error 503")
        reply = self.inner.generate(prompt, temperature, max_tokens)
        self._record(prompt, reply)
        return reply


def test_a_transient_error_leaves_no_trace_in_the_outputs():
    # Every role's call, the verifier's included, is retried the same way:
    # the same prompt again, and the clock ticks once per reply.
    clean_backend = FailsOnceAt(-1, golden_script())
    clean = run(GOLDEN_QUESTION, golden_sources(), clean_backend)
    calls = clean.metrics.backend_calls
    assert calls == len(clean_backend.prompts) == 4
    for k in range(calls):
        backend = FailsOnceAt(k, golden_script())
        result = run(GOLDEN_QUESTION, golden_sources(), backend)
        assert dump_trace(result.log.entries) == dump_trace(clean.log.entries)
        assert result.metrics == clean.metrics
        assert result.termination is clean.termination
        assert backend.prompts[k] == backend.prompts[k + 1] == clean_backend.prompts[k]
        assert backend.prompts[:k] + backend.prompts[k + 1:] == clean_backend.prompts


def test_empty_question_rejected():
    with pytest.raises(ValueError):
        run("  ", golden_sources(), ScriptedBackend({}))


def test_scheduler_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(max_rounds=0)


def test_configuration_surface():
    # A setting needs a caller outside the tests: the CLI, run_benchmark or
    # the benchmark script. One that only tests set is a second code path;
    # make it a constant or delete it rather than add it here. So a Flag buys
    # one re-engagement round, and each role's temperature and the prompt's
    # context window are constants of `agents`, with no per-agent config.
    # The scheduler gates exactly when run is given a gate; log entries are
    # corrupted only in flight, so inject_faults takes sources alone.
    assert [f.name for f in dataclasses.fields(SchedulerConfig)] == [
        "max_rounds", "verifier_enabled",
    ]
    assert not hasattr(logboard, "AgentConfig")
    assert not hasattr(logboard.agents, "AgentConfig")
    # run_benchmark hands each run its bundle's views; a lone run builds its
    # own. Below run, views (and a passage's sentence spans) are required,
    # so nothing else builds them; prompts take their source text as blocks.
    assert list(inspect.signature(build_agents).parameters) == ["views"]
    required = inspect.Parameter.empty
    for fn in (build_agents, extract_doc_spans, extract_image_refs):
        assert inspect.signature(fn).parameters["views"].default is required
    # A Lookup is anchored in the slices its Table act chose, which it is handed.
    assert inspect.signature(extract_table_anchors).parameters["slices"].default is required
    assert inspect.signature(TableAgent).parameters["views"].default is required
    assert inspect.signature(truncate_span).parameters["spans"].default is required
    prompt_parameters = set(inspect.signature(build_prompt).parameters)
    assert not {"sources", "views", "table_slices"} & prompt_parameters
    assert list(inspect.signature(SharedLog.__init__).parameters) == ["self", "clock"]
    assert list(inspect.signature(run).parameters) == [
        "question", "sources", "backend", "config", "gate", "entry_mutator", "views",
    ]
    assert list(inspect.signature(offer_turns).parameters) == [
        "agents", "acts", "log", "sources", "backend", "round_idx", "mutator",
    ]
    # A run's state lives in run's locals; the scheduler holds only the loop.
    for gone in ("RunState", "_default_clock", "write_trace", "write_run_summary"):
        assert not hasattr(logboard.scheduler, gone)
    assert [agent.role for agent in build_agents(SourceViews())] == list(RETRIEVAL_ROLES)
    assert list(inspect.signature(extract_features).parameters) == ["entries", "new_entries"]
    assert list(inspect.signature(inject_faults).parameters) == ["bundle", "spec"]
    factory = inspect.signature(run_benchmark).parameters["backend_factory"]
    assert factory.kind is inspect.Parameter.KEYWORD_ONLY and factory.default is required
    assert [t.value for t in FaultType] == [
        "MissingRow", "RowOffByOne", "ArithmeticCorruption", "OcrMisread",
    ]


def test_termination_and_call_bound_under_chaos():
    config = SchedulerConfig()
    for seed in range(50):
        backend = RandomReplyBackend(seed)
        result = run("How did the widget figure move?", fuzz_sources(), backend, config=config)
        assert result.termination in Termination
        bound = config.max_rounds * 5 + 5  # plus one re-engagement round
        assert result.metrics.backend_calls <= bound
        flags = [e for e in result.log.entries if e.entry_type is EntryType.FLAG]
        assert len(flags) <= 2
        assert (result.final_answer is not None) == (
            result.termination in (Termination.ANSWER_VERIFIED, Termination.ANSWER_UNVERIFIED)
        )


SUMMARY_ROLE = "You are the summarizing agent"

# Reply pools keyed by each role's prompt opening. Every pool mixes
# abstentions or empty replies, near-duplicates that differ only in case and
# punctuation, and for the Summarizer and Verifier answers and Flags.
GUARDRAIL_REPLIES = {
    "You are a table analyst": [
        "no relevant info found",
        "",
        "The widget line was $7M according to Table 1.",
        "the widget line was $7M, according to table 1!",
        "The gadget line was $9M according to Table 1.",
    ],
    "You are a passage reader": [
        "no relevant info found",
        "According to the text: 'Demand for widgets rose sharply.'",
        "According to the text - 'demand for widgets rose sharply.'",
        "Nothing in the passages mentions it.",
    ],
    "You are an image interpreter": [
        "no relevant info found",
        "The chart shows 7 and 9 for the two lines.",
        "The chart shows 7 and 9, for the two lines!",
    ],
    SUMMARY_ROLE: [
        "Still missing the gadget figure. More data needed.",
        "Still missing the gadget figure; more data needed!",
        "Therefore, the widget line leads. Answer: $7M.",
        "Answer: $2M increase.",
        "",
    ],
    "You are the verification agent": [
        "OK",
        "Everything lines up. (No issues flagged.)",
        "Flagged incorrect calculation in the claim.",
        "The gadget value is missing from the evidence.",
    ],
}


@st.composite
def guardrail_cases(draw):
    script = {
        role: draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        for role, pool in GUARDRAIL_REPLIES.items()
    }
    config = SchedulerConfig(
        max_rounds=draw(st.integers(1, 4)),
        verifier_enabled=draw(st.booleans()),
    )
    return script, config, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(guardrail_cases())
def test_guardrails_hold_for_any_scripted_replies(case):
    script, config, with_images = case
    sources = fuzz_sources()
    if with_images:
        sources.images.append(Image("chart", caption="two lines", ocr_text="7 9"))
    # Retrieval entries offered to the log, and None at each Summarizer call,
    # which comes once per round after that round's retrieval turns.
    events = []

    class RecordingBackend(ScriptedBackend):
        def generate(self, prompt, temperature, max_tokens=512):
            if SUMMARY_ROLE in prompt:
                events.append(None)
            return super().generate(prompt, temperature, max_tokens)

    def record(entry, log):
        events.append(entry)
        return entry

    result = run(
        "How did the widget figure move?", sources, RecordingBackend(script),
        config=config, entry_mutator=record,
    )
    entries = result.log.entries

    flagged = any(e.entry_type is EntryType.FLAG for e in entries)
    extra = 1 if flagged else 0  # the round a Flag buys
    assert result.metrics.rounds <= config.max_rounds + extra

    offered = [e for e in events if e is not None]
    assert max(Counter(e.agent for e in offered).values(), default=0) <= PER_AGENT_CAP

    for a, b in combinations(entries, 2):
        assert not is_near_duplicate(a.content, b.content)

    # A round made progress when one of its retrieval entries was committed;
    # the Summarizer's n-th call gets the n-th scripted reply (the last repeats).
    committed = {id(e) for e in entries}
    rounds, current = [], []
    for event in events:
        if event is None:
            rounds.append(current)
            current = []
        else:
            current.append(event)
    assert len(rounds) == result.metrics.rounds == len(result.audits)
    summaries = script[SUMMARY_ROLE]
    nonanswers = 0
    for i, (offered_in_round, audit) in enumerate(zip(rounds, result.audits)):
        progress = any(id(e) in committed for e in offered_in_round)
        reply = summaries[min(i, len(summaries) - 1)]
        nonanswers = 0 if reply.strip() and parse_answer(reply) else nonanswers + 1
        assert audit.updated == progress
        assert audit.consecutive_nonanswer_summaries == nonanswers
        stalled = not progress and not audit.any_pending and nonanswers >= 2
        last = i == len(rounds) - 1
        assert not stalled or last  # a stalled round is the last one
        if last:
            assert stalled == (result.termination is Termination.NO_PROGRESS)


RETRIEVAL_AUTHORS = (TABLE_AGENT, CONTEXT_AGENT, VISUAL_AGENT)  # in role order
RETRIEVAL_OPENINGS = tuple(GUARDRAIL_REPLIES)[:3]


@settings(max_examples=100, deadline=None)
@given(guardrail_cases())
def test_a_rounds_retrieval_prompts_show_none_of_its_entries(case):
    script, config, with_images = case
    sources = fuzz_sources()
    if with_images:
        sources.images.append(Image("chart", caption="two lines", ocr_text="7 9"))
    prompts: list[list[str]] = [[]]  # each round's retrieval prompts
    offered: list[list] = [[]]  # each round's retrieval entries, as offered to the log

    class RecordingBackend(ScriptedBackend):
        def generate(self, prompt, temperature, max_tokens=512):
            if SUMMARY_ROLE in prompt:  # the round's retrieval turns are over
                prompts.append([])
                offered.append([])
            elif prompt.startswith(RETRIEVAL_OPENINGS):
                prompts[-1].append(prompt)
            return super().generate(prompt, temperature, max_tokens)

    def record(entry, log):
        offered[-1].append(entry)
        return entry

    result = run(
        "How did the widget figure move?", sources, RecordingBackend(script),
        config=config, entry_mutator=record,
    )
    committed = {id(e) for e in result.log.entries}
    for round_prompts, round_entries in zip(prompts, offered):
        entries = sorted((e for e in round_entries if id(e) in committed), key=lambda e: e.step)
        for entry in entries:
            assert not any(entry.content in prompt for prompt in round_prompts)
        # Committed in role order, each role at most once a round.
        authors = [RETRIEVAL_AUTHORS.index(e.agent) for e in entries]
        assert authors == sorted(set(authors))


def test_a_spent_call_commits_the_rounds_replies_before_it():
    # In process the calls go one after another in role order. Context's
    # tries are spent: Visual is still asked, but only the Lookup commits.
    class ContextDown(ScriptedBackend):
        def generate(self, prompt, temperature, max_tokens=512):
            if "passage reader" in prompt:
                raise TransportError("HTTP Error 503")
            return super().generate(prompt, temperature, max_tokens)

    backend = ContextDown(FIGURE_SCRIPT)
    with pytest.raises(TransportAbort, match="after 2 retries") as excinfo:
        run(FIGURE_QUESTION, figure_sources(), backend)
    partial = excinfo.value.partial_log
    assert [e.entry_type for e in partial.entries] == [EntryType.QUERY, EntryType.LOOKUP]
    assert backend.calls == 2


def test_visual_runs_and_anchors_image():
    sources = SourceBundle(
        images=[Image("chart-1", caption="bar chart of revenue", ocr_text="2020 5.2 2021 6.1")],
    )
    script = {
        "image interpreter": "The bar chart shows revenue in 2020 as $5.2M and in 2021 as $6.1M.",
        "summarizing agent": "Therefore revenue rose. Answer: $0.9M increase.",
        "verification agent": "Looks consistent. (No issues flagged.)",
    }
    result = run("What does the figure show about revenue?", sources, ScriptedBackend(script))
    visual_entries = [e for e in result.log.entries if e.entry_type is EntryType.VISUAL]
    assert len(visual_entries) == 1
    assert visual_entries[0].provenance[0].image_id == "chart-1"
    assert result.termination is Termination.ANSWER_VERIFIED


def test_run_summary_dict_shape():
    result = run_golden()
    summary = result.summary_dict()
    assert set(summary) == {"answer", "termination", "rounds", "backend_calls", "token_usage", "wall_ms"}
