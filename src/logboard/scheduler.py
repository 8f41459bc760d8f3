"""Controller loop: turn offers, summarization, verification, stopping.

One run is a state machine over a fresh shared log. Each round offers
turns to Table, Context and Visual, then invokes the Summarizer, then the
Verifier on the committed Answer. The round rule: the retrieval roles
decide, and build their prompts, from the log as it stood at the round's
start; their backend calls go out together, and their entries are
committed in that fixed role order, so a run's trace does not depend on
which reply came back first. A Flag buys a single re-engagement round;
guardrails (max rounds, per-agent caps, dedup, no-progress detection)
bound every run regardless of backend behavior.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .agents import AgentRole, build_agents, generate_round, summarize, verification_act
from .backends import BACKEND_ATTEMPTS, HttpBackend, RequestRejected, TextBackend, TransportError
from .gating import LogisticGate, extract_features, predict_continue
from .log import USER, AppendResult, EntryType, LogEntry, RealClock, SharedLog, SimClock, parse_answer
from .retrieval import SourceViews
from .sources import SourceBundle

PER_AGENT_CAP = 2  # retrieval acts per role per run, re-engagement included


@dataclass
class SchedulerConfig:
    max_rounds: int = 6
    verifier_enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")


class Termination(Enum):
    ANSWER_VERIFIED = "AnswerVerified"
    ANSWER_UNVERIFIED = "AnswerUnverified"
    NO_PROGRESS = "NoProgress"
    MAX_ROUNDS = "MaxRounds"


@dataclass
class RoundAudit:
    """Per-round facts backing the stopping-rule assertions."""

    round_idx: int
    updated: bool
    consecutive_nonanswer_summaries: int
    any_pending: bool
    retrieval_ran: bool


@dataclass
class RunMetrics:
    rounds: int
    backend_calls: int
    token_usage: int
    wall_ms: int

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class RunResult:
    final_answer: Optional[str]
    log: SharedLog
    termination: Termination
    metrics: RunMetrics
    audits: list[RoundAudit]

    def summary_dict(self) -> dict:
        return {
            "answer": self.final_answer,
            "termination": self.termination.value,
            **self.metrics.to_dict(),
        }


class TransportAbort(RuntimeError):
    """A retrieval or Summarizer call got no reply; carries the partial log."""

    def __init__(self, message: str, partial_log: SharedLog) -> None:
        super().__init__(message)
        self.partial_log = partial_log


EntryMutator = Callable[[LogEntry, SharedLog], LogEntry]


def _takes_turn(agent, acts: dict[AgentRole, int], log: SharedLog, sources: SourceBundle,
                round_idx: int) -> bool:
    """The turn rule: a role under its cap whose trigger fires in this round."""
    return acts[agent.role] < PER_AGENT_CAP and agent.should_act(log, sources, round_idx)


def offer_turns(agents: list, acts: dict[AgentRole, int], log: SharedLog, sources: SourceBundle,
                backend: TextBackend, round_idx: int,
                mutator: EntryMutator | None = None) -> int:
    """Offer one round's retrieval turns; return how many entries it committed.

    Each agent, in the given (role) order, decides whether to act
    (`_takes_turn`) and builds its prompt and citation closure from the log
    as it stands on entry, so no turn sees an entry of its own round. The
    prompts then go to the backend together (`generate_round`), and the
    replies become entries committed in the agents' order. Each append
    adds one to its role's count in `acts`, a dedup-rejected one too, but
    only an accepted one counts toward the returned number. Abstentions
    cost a backend call but no act. When a call's tries are spent, the
    replies before it are committed and its TransportError is raised.
    """
    turns = [
        (agent, *agent.prepare(log, sources))
        for agent in agents
        if _takes_turn(agent, acts, log, sources, round_idx)
    ]
    calls = [(agent.role, prompt) for agent, prompt, _ in turns]
    replies, failure = generate_round(log, backend, calls)
    committed = 0
    for (agent, _, cite), reply in zip(turns, replies):
        entry = agent.entry(reply, cite)
        if entry is None:
            continue
        if mutator is not None:
            entry = mutator(entry, log)
        acts[agent.role] += 1
        committed += log.append(entry) is AppendResult.ACCEPTED
    if failure is not None:
        raise failure
    return committed


def run(
    question: str,
    sources: SourceBundle,
    backend: TextBackend,
    config: SchedulerConfig | None = None,
    gate: LogisticGate | None = None,
    entry_mutator: EntryMutator | None = None,
    views: SourceViews | None = None,
) -> RunResult:
    """Execute one question to termination and return the full accounting.

    Each round's retrieval turns are offered together (`offer_turns`): an
    HttpBackend gets their calls on up to three threads at once, any other
    backend in process in role order. Under the SimClock that every
    in-process backend runs on, the round's retrieval replies cost one
    BACKEND_CALL_TICK_MS between them, so `wall_ms` is the latency a live
    user would wait for if every reply took that long.

    gate, when given, may stop retrieval after a round that the gate deems
    not worth continuing. entry_mutator, when given, rewrites retrieval
    entries just before they are committed (the fault-injection hook); it
    is given each entry and the run's log, whose `numerals` it may read.
    views, when given, hold what other runs over the same bundle already
    worked out of its sources (`run_benchmark` shares one per bundle);
    without them the run builds its own.
    """
    if not question or not question.strip():
        raise ValueError("question must be non-empty")
    config = config or SchedulerConfig()
    agents = build_agents(SourceViews() if views is None else views)
    # Only a live HTTP backend gets wall time; everything in-process is
    # simulated so traces and latency stats reproduce byte-for-byte.
    log = SharedLog(clock=RealClock() if isinstance(backend, HttpBackend) else SimClock())
    log.append(LogEntry(USER, EntryType.QUERY, question))
    acts = {agent.role: 0 for agent in agents}  # retrieval acts per role, for PER_AGENT_CAP
    idle_summaries = 0  # consecutive Summarizer turns without an Answer
    reengaged = False  # a Flag has bought the run's one re-engagement round
    calls_before = backend.calls
    tokens_before = backend.prompt_tokens + backend.completion_tokens

    termination: Termination | None = None
    audits: list[RoundAudit] = []
    retrieval_frozen = False
    allowed_rounds = config.max_rounds
    round_idx = 0

    try:
        while round_idx < allowed_rounds and termination is None:
            new_entries = 0
            flag_granted = False
            retrieval_ran = not retrieval_frozen

            if not retrieval_frozen:
                new_entries = offer_turns(
                    agents, acts, log, sources, backend, round_idx, entry_mutator
                )

            summary_entry = summarize(log, backend)
            if summary_entry is not None:
                log.append(summary_entry)
            # A dedup-rejected Answer stands for the committed Answer it repeats,
            # so the verifier checks log.latest(ANSWER) either way.
            if (
                summary_entry is not None
                and summary_entry.entry_type is EntryType.ANSWER
                and log.latest(EntryType.ANSWER) is not None
            ):
                idle_summaries = 0
                if config.verifier_enabled:
                    verdict = verification_act(log, backend)
                    # Only a committed OK verifies; a dedup-rejected verdict is a Flag.
                    committed = log.append(verdict) is AppendResult.ACCEPTED
                    if committed and verdict.entry_type is EntryType.OK:
                        termination = Termination.ANSWER_VERIFIED
                    elif not reengaged:
                        reengaged = True
                        allowed_rounds = max(allowed_rounds, round_idx + 2)
                        retrieval_frozen = False
                        flag_granted = True
                        for agent in agents:
                            agent.notify_flag()
                    else:
                        termination = Termination.ANSWER_UNVERIFIED
                else:
                    termination = Termination.ANSWER_UNVERIFIED
            else:
                idle_summaries += 1

            updated = new_entries > 0
            any_pending = any(
                _takes_turn(agent, acts, log, sources, round_idx + 1) for agent in agents
            )
            audits.append(
                RoundAudit(
                    round_idx=round_idx,
                    updated=updated,
                    consecutive_nonanswer_summaries=idle_summaries,
                    any_pending=any_pending,
                    retrieval_ran=retrieval_ran,
                )
            )
            if (
                termination is None
                and not updated
                and not any_pending
                and idle_summaries >= 2
            ):
                termination = Termination.NO_PROGRESS

            if (
                termination is None
                and gate is not None
                and not flag_granted
                and not retrieval_frozen
            ):
                features = extract_features(log.entries, new_entries)
                if predict_continue(gate, features) < gate.threshold:
                    retrieval_frozen = True

            round_idx += 1
    except TransportError as exc:  # a call's tries are spent, or it was refused
        if isinstance(exc, RequestRejected):
            reason = "backend refused the request, not retried"
        else:
            reason = f"backend transport failed after {BACKEND_ATTEMPTS - 1} retries"
        raise TransportAbort(f"{reason}: {exc}", log) from exc

    # The run's answer is the committed Answer, the one the verifier checked.
    answer = log.latest(EntryType.ANSWER)
    if termination is None:
        # Round budget exhausted; an Answer that was never verified still counts.
        termination = Termination.MAX_ROUNDS if answer is None else Termination.ANSWER_UNVERIFIED
    answered = termination in (Termination.ANSWER_VERIFIED, Termination.ANSWER_UNVERIFIED)
    final_answer = parse_answer(answer.content) if answered else None

    metrics = RunMetrics(
        rounds=round_idx,
        backend_calls=backend.calls - calls_before,
        token_usage=backend.prompt_tokens + backend.completion_tokens - tokens_before,
        wall_ms=log.clock.now_ms(),
    )
    return RunResult(
        final_answer=final_answer,
        log=log,
        termination=termination,
        metrics=metrics,
        audits=audits,
    )

