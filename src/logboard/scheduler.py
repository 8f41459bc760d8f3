"""Controller loop: turn offers, summarization, verification, stopping.

One run is a sequential state machine over a fresh shared log. Each round
offers turns to Table, Context, Visual in that fixed order, then invokes
the Summarizer, then the Verifier on the committed Answer. A Flag buys a
single re-engagement round; guardrails (max rounds, per-agent caps, dedup,
no-progress detection) bound every run regardless of backend behavior.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from .agents import RETRIEVAL_ROLES, AgentRole, build_agents, summarize, verification_act
from .backends import BACKEND_ATTEMPTS, HttpBackend, RequestRejected, TextBackend, TransportError
from .gating import LogisticGate, extract_features, predict_continue
from .log import (
    USER,
    Clock,
    EntryType,
    LogEntry,
    RealClock,
    AppendResult,
    SharedLog,
    SimClock,
    dump_trace,
    parse_answer,
)
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
class RunState:
    consecutive_nonanswer_summaries: int = 0
    action_counts: dict[AgentRole, int] = field(
        default_factory=lambda: {role: 0 for role in RETRIEVAL_ROLES}
    )
    new_entries_this_round: int = 0
    reengaged: bool = False  # a Flag has bought the run's one re-engagement round


@dataclass
class RunMetrics:
    rounds: int
    backend_calls: int
    token_usage: int
    wall_ms: int

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "backend_calls": self.backend_calls,
            "token_usage": self.token_usage,
            "wall_ms": self.wall_ms,
        }


@dataclass
class RunResult:
    final_answer: Optional[str]
    log: SharedLog
    termination: Termination
    metrics: RunMetrics
    audits: list[RoundAudit] = field(default_factory=list)

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


def offer_turn(agent, state: RunState, log: SharedLog, sources: SourceBundle,
               backend: TextBackend, round_idx: int,
               mutator: EntryMutator | None = None) -> bool:
    """Offer one retrieval turn; True iff an entry was accepted.

    A dedup-rejected append still counts toward the role's cap but not
    toward the round's new entries. Abstentions cost a backend call
    but no cap.
    """
    role = agent.role
    if state.action_counts[role] >= PER_AGENT_CAP:
        return False
    if not agent.should_act(log, sources, round_idx):
        return False
    entry = agent.act(log, sources, backend)
    if entry is None:
        return False
    if mutator is not None:
        entry = mutator(entry, log)
    result = log.append(entry)
    state.action_counts[role] += 1
    if result is AppendResult.ACCEPTED:
        state.new_entries_this_round += 1
        return True
    return False


def _default_clock(backend: TextBackend) -> Clock:
    # Only a live HTTP backend gets wall time; everything in-process is
    # simulated so traces and latency stats reproduce byte-for-byte.
    return RealClock() if isinstance(backend, HttpBackend) else SimClock()


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
    log = SharedLog(clock=_default_clock(backend))
    log.append(LogEntry(USER, EntryType.QUERY, question))
    state = RunState()
    calls_before = backend.calls
    tokens_before = backend.prompt_tokens + backend.completion_tokens

    termination: Termination | None = None
    audits: list[RoundAudit] = []
    retrieval_frozen = False
    allowed_rounds = config.max_rounds
    round_idx = 0

    def pending_roles(next_round: int) -> bool:
        return any(
            state.action_counts[role] < PER_AGENT_CAP
            and agents[role].should_act(log, sources, next_round)
            for role in RETRIEVAL_ROLES
        )

    try:
        while round_idx < allowed_rounds and termination is None:
            state.new_entries_this_round = 0
            flag_granted = False
            retrieval_ran = not retrieval_frozen

            if not retrieval_frozen:
                for role in RETRIEVAL_ROLES:
                    offer_turn(agents[role], state, log, sources, backend, round_idx, entry_mutator)

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
                state.consecutive_nonanswer_summaries = 0
                if config.verifier_enabled:
                    verdict = verification_act(log, backend)
                    # Only a committed OK verifies; a dedup-rejected verdict is a Flag.
                    committed = log.append(verdict) is AppendResult.ACCEPTED
                    if committed and verdict.entry_type is EntryType.OK:
                        termination = Termination.ANSWER_VERIFIED
                    elif not state.reengaged:
                        state.reengaged = True
                        allowed_rounds = max(allowed_rounds, round_idx + 2)
                        retrieval_frozen = False
                        flag_granted = True
                        for role in RETRIEVAL_ROLES:
                            agents[role].notify_flag()
                    else:
                        termination = Termination.ANSWER_UNVERIFIED
                else:
                    termination = Termination.ANSWER_UNVERIFIED
            else:
                state.consecutive_nonanswer_summaries += 1

            updated = state.new_entries_this_round > 0
            any_pending = pending_roles(round_idx + 1)
            audits.append(
                RoundAudit(
                    round_idx=round_idx,
                    updated=updated,
                    consecutive_nonanswer_summaries=state.consecutive_nonanswer_summaries,
                    any_pending=any_pending,
                    retrieval_ran=retrieval_ran,
                )
            )
            if (
                termination is None
                and not updated
                and not any_pending
                and state.consecutive_nonanswer_summaries >= 2
            ):
                termination = Termination.NO_PROGRESS

            if (
                termination is None
                and gate is not None
                and not flag_granted
                and not retrieval_frozen
            ):
                features = extract_features(log.entries, state.new_entries_this_round)
                if predict_continue(gate, features) < gate.threshold:
                    retrieval_frozen = True

            round_idx += 1
    except TransportError as exc:  # _generate's tries are spent, or it was refused
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


def write_trace(result: RunResult, path: str | Path) -> None:
    Path(path).write_text(dump_trace(result.log.entries), encoding="utf-8")


def write_run_summary(result: RunResult, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(result.summary_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
