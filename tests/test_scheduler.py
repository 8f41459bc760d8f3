"""Controller loop: golden run, re-engagement, stopping rules, guardrails."""

import dataclasses
import inspect
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logboard.agents import AgentConfig, AgentRole, TableAgent, build_agents
from logboard.backends import ScriptedBackend, TransportError, UsageMixin
from logboard.harness import FaultType, inject_faults
from logboard.log import EntryType, SharedLog, dump_trace, is_near_duplicate, parse_answer
from logboard.scheduler import (
    PER_AGENT_CAP,
    RunState,
    SchedulerConfig,
    Termination,
    TransportAbort,
    offer_turn,
    run,
)
from logboard.sources import Image, SourceBundle, Table
from logboard.verify import verify_deterministic

from helpers import (
    GOLDEN_ANSWER,
    GOLDEN_QUESTION,
    RandomReplyBackend,
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


def test_reengage_limit_zero_stops_at_first_flag():
    config = SchedulerConfig(reengage_limit=0)
    result = run(
        GOLDEN_QUESTION, golden_sources(), ScriptedBackend(always_flag_script()), config=config
    )
    assert result.termination is Termination.ANSWER_UNVERIFIED
    assert result.metrics.rounds == 1


def test_flag_in_final_round_still_gets_reengagement():
    config = SchedulerConfig(max_rounds=1)
    result = run(
        GOLDEN_QUESTION, golden_sources(), ScriptedBackend(always_flag_script()), config=config
    )
    # The single re-engagement round may exceed max_rounds by one.
    assert result.metrics.rounds == 2
    assert result.termination is Termination.ANSWER_UNVERIFIED


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


def test_offer_turn_cap_blocks_without_backend_call():
    agents = build_agents()
    backend = ScriptedBackend(golden_script())
    state = RunState()
    state.action_counts[AgentRole.TABLE] = 2
    from logboard.log import USER, LogEntry, SharedLog

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, GOLDEN_QUESTION))
    acted = offer_turn(
        agents[AgentRole.TABLE], state, log, golden_sources(), backend, 0, lambda fn: fn(),
    )
    assert not acted and backend.calls == 0


def test_offer_turn_visual_idle_without_images():
    agents = build_agents()
    backend = ScriptedBackend({})
    state = RunState()
    from logboard.log import USER, LogEntry, SharedLog

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, "see the figure?"))
    acted = offer_turn(
        agents[AgentRole.VISUAL], state, log, SourceBundle(), backend, 0, lambda fn: fn(),
    )
    assert not acted and backend.calls == 0


def test_offer_turn_appends_lookup():
    agents = build_agents()
    backend = ScriptedBackend(golden_script())
    state = RunState()
    from logboard.log import USER, LogEntry, SharedLog

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, GOLDEN_QUESTION))
    acted = offer_turn(
        agents[AgentRole.TABLE], state, log, golden_sources(), backend, 0, lambda fn: fn(),
    )
    assert acted and state.new_entries_this_round == 1 and state.action_counts[AgentRole.TABLE] == 1
    assert log.entries[-1].entry_type is EntryType.LOOKUP


def test_dedup_rejected_append_counts_toward_cap_without_update():
    agents = build_agents()
    backend = ScriptedBackend(golden_script())
    state = RunState()
    from logboard.log import USER, LogEntry, SharedLog

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, GOLDEN_QUESTION))
    offer_turn(agents[AgentRole.TABLE], state, log, golden_sources(), backend, 0, lambda fn: fn())
    agents[AgentRole.TABLE].notify_flag()  # re-open coverage; same reply comes back
    state.new_entries_this_round = 0
    acted = offer_turn(agents[AgentRole.TABLE], state, log, golden_sources(), backend, 1, lambda fn: fn())
    assert not acted and not state.new_entries_this_round
    assert state.action_counts[AgentRole.TABLE] == 2


class FlakyBackend(UsageMixin):
    """Fails a fixed number of times, then delegates to a scripted backend."""

    def __init__(self, failures: int, script: dict) -> None:
        super().__init__()
        self.failures = failures
        self.inner = ScriptedBackend(script)

    def generate(self, prompt, temperature, max_tokens=512):
        if self.failures > 0:
            self.failures -= 1
            self.calls += 1
            raise TransportError("flaky")
        reply = self.inner.generate(prompt, temperature, max_tokens)
        self._record(prompt, reply)
        return reply


def test_transient_failures_are_retried():
    backend = FlakyBackend(2, golden_script())
    result = run(GOLDEN_QUESTION, golden_sources(), backend)
    assert result.termination is Termination.ANSWER_VERIFIED


def test_persistent_failure_aborts_with_partial_log():
    backend = FlakyBackend(99, golden_script())
    with pytest.raises(TransportAbort) as excinfo:
        run(GOLDEN_QUESTION, golden_sources(), backend)
    partial = excinfo.value.partial_log
    assert partial.entries[0].entry_type is EntryType.QUERY


def test_empty_question_rejected():
    with pytest.raises(ValueError):
        run("  ", golden_sources(), ScriptedBackend({}))


def test_scheduler_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(max_rounds=0)
    with pytest.raises(ValueError):
        SchedulerConfig(reengage_limit=2)


def test_configuration_surface():
    # A setting needs a caller outside the tests: the CLI, run_benchmark or
    # the benchmark script. One that only tests set is a second code path;
    # make it a constant or delete it rather than add it here. The only
    # test-set fields kept (reengage_limit, temperature, context_window)
    # reach rules the runtime has: no re-engagement, prompt shrink levels.
    # The scheduler gates exactly when run is given a gate; log entries are
    # corrupted only in flight, so inject_faults takes sources alone.
    assert [f.name for f in dataclasses.fields(SchedulerConfig)] == [
        "max_rounds", "verifier_enabled", "reengage_limit",
    ]
    assert [f.name for f in dataclasses.fields(AgentConfig)] == [
        "role", "temperature", "context_window", "max_tokens",
    ]
    assert not inspect.signature(build_agents).parameters
    assert list(inspect.signature(SharedLog.__init__).parameters) == ["self", "clock"]
    assert list(inspect.signature(run).parameters) == [
        "question", "sources", "backend", "config", "gate", "entry_mutator",
    ]
    assert list(inspect.signature(inject_faults).parameters) == ["bundle", "spec"]
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
        reengage_limit=draw(st.sampled_from([0, 1])),
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

    def record(entry):
        events.append(entry)
        return entry

    result = run(
        "How did the widget figure move?", sources, RecordingBackend(script),
        config=config, entry_mutator=record,
    )
    entries = result.log.entries

    flagged = any(e.entry_type is EntryType.FLAG for e in entries)
    extra = config.reengage_limit if flagged else 0  # the round a Flag buys
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
