"""Learned continue/stop policy over log-derived features.

Features: image presence, confidence of the latest summary, evidence
entries accepted this round, and the change in pending needs between the
last two summaries. A small logistic classifier over those four values
decides whether the next retrieval round is worth its cost. Training data
is mined from recorded run traces: a round is a positive example when
evidence appended after it ends up cited in the final answer.
"""

from __future__ import annotations

import json
import logging
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .log import EVIDENCE_TYPES, EntryType, LogEntry, SharedLog, load_trace, parse_answer
from .sources import JSON_NUMBER, SourceBundle, json_field, json_value
from .textutil import count_gap_phrases, mentions_image, numeral_values

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GateFeatures:
    image_present: int
    summary_confidence: float
    new_entries: int
    pending_needs_delta: int

    def as_vector(self) -> tuple[float, float, float, float]:
        return (
            float(self.image_present),
            float(self.summary_confidence),
            float(self.new_entries),
            float(self.pending_needs_delta),
        )


@dataclass
class LogisticGate:
    weights: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0)
    bias: float = 0.0
    threshold: float = 0.5

    def __post_init__(self) -> None:
        """Accept any sequence of 4 finite real numbers (a string is not one)."""
        params = (*self.weights, self.bias, self.threshold)
        if any(isinstance(p, bool) or not isinstance(p, numbers.Real) for p in params):
            raise ValueError("gate parameters must be numbers")
        try:
            self.weights = tuple(map(float, self.weights))
            self.bias = float(self.bias)
            self.threshold = float(self.threshold)
        except OverflowError:  # an integer too large for a float
            raise ValueError("gate parameters must be finite") from None
        if len(self.weights) != 4:
            raise ValueError("gate expects exactly 4 feature weights")
        if not all(map(math.isfinite, (*self.weights, self.bias, self.threshold))):
            raise ValueError("gate parameters must be finite")

    def to_dict(self) -> dict:
        return {"weights": list(self.weights), "bias": self.bias, "threshold": self.threshold}

    @classmethod
    def from_dict(cls, data: dict) -> "LogisticGate":
        """A gate from parsed JSON; ValueError names a missing or mistyped field."""
        json_value(data, dict, "gate")
        return cls(
            weights=json_field(data, "weights", "gate", list),
            bias=json_field(data, "bias", "gate", JSON_NUMBER),
            threshold=json_field(data, "threshold", "gate", JSON_NUMBER, default=0.5),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "LogisticGate":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except ValueError as exc:  # JSONDecodeError is one too
                raise ValueError(f"gate file {path}: {exc}") from None


@dataclass(frozen=True)
class GateSample:
    features: GateFeatures
    label: int  # 1 = continuing past this round was necessary for the answer

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")


def _entries_of(log_or_entries) -> list[LogEntry]:
    if isinstance(log_or_entries, SharedLog):
        return log_or_entries.entries
    return list(log_or_entries)


def _latest_summaries(entries: Sequence[LogEntry]) -> list[LogEntry]:
    return [
        e for e in entries if e.entry_type in (EntryType.SUMMARY, EntryType.ANSWER)
    ]


def extract_features(log, new_entries: int, sources: SourceBundle | None = None) -> GateFeatures:
    """Features of the live run at the end of a round.

    new_entries is the number of evidence entries accepted in the round
    just finished.
    """
    entries = _entries_of(log)
    image_present = 0
    if sources is not None and sources.images:
        image_present = 1
    elif any(mentions_image(e.content) for e in entries):
        image_present = 1
    summaries = _latest_summaries(entries)
    if not summaries:
        confidence = 0.5
    elif summaries[-1].entry_type is EntryType.ANSWER:
        confidence = 1.0
    elif count_gap_phrases(summaries[-1].content) > 0:
        confidence = 0.0
    else:
        confidence = 0.5
    gaps_latest = count_gap_phrases(summaries[-1].content) if summaries else 0
    gaps_previous = count_gap_phrases(summaries[-2].content) if len(summaries) > 1 else 0
    delta = gaps_latest - gaps_previous if summaries else 0
    return GateFeatures(
        image_present=image_present,
        summary_confidence=confidence,
        new_entries=new_entries,
        pending_needs_delta=delta,
    )


def sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def _dot(w: Sequence[float], x: Sequence[float]) -> float:
    return w[0] * x[0] + w[1] * x[1] + w[2] * x[2] + w[3] * x[3]


def predict_continue(gate: LogisticGate, features: GateFeatures) -> float:
    """Probability that another retrieval round is worthwhile."""
    return sigmoid(_dot(gate.weights, features.as_vector()) + gate.bias)


def _clipped_logistic(z: float) -> float:
    """The training-time logistic, with z clipped to +-500 so exp stays finite."""
    return 1.0 / (1.0 + math.exp(-min(max(z, -500.0), 500.0)))


def train(
    samples: Sequence[GateSample],
    epochs: int = 500,
    learning_rate: float = 0.1,
    l2: float = 1e-3,
) -> tuple[LogisticGate, float]:
    """Full-batch gradient descent on L2-regularized log-loss.

    Zero initialization, deterministic. Returns the fitted gate and the
    final training loss. Single-class data is an error: fit nothing and
    gate on a fixed threshold instead.
    """
    labels = {s.label for s in samples}
    if labels != {0, 1}:
        raise ValueError(
            "training needs both labels present; use threshold-only gating "
            "for single-class data"
        )
    xs = [s.features.as_vector() for s in samples]
    ys = [float(s.label) for s in samples]
    n = len(samples)
    w = [0.0, 0.0, 0.0, 0.0]
    b = 0.0
    for _ in range(epochs):
        residuals = [_clipped_logistic(_dot(w, x) + b) - y for x, y in zip(xs, ys)]
        grad_w = [
            sum(r * x[j] for r, x in zip(residuals, xs)) / n + l2 * w[j] for j in range(4)
        ]
        grad_b = sum(residuals) / n
        w = [wj - learning_rate * g for wj, g in zip(w, grad_w)]
        b -= learning_rate * grad_b
    gate = LogisticGate(weights=w, bias=b)
    return gate, training_loss(samples, gate, l2=l2)


def training_loss(samples: Sequence[GateSample], gate: LogisticGate, l2: float = 1e-3) -> float:
    total = 0.0
    for s in samples:
        p = _clipped_logistic(_dot(gate.weights, s.features.as_vector()) + gate.bias)
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        y = float(s.label)
        total += y * math.log(p) + (1.0 - y) * math.log(1.0 - p)
    return -total / len(samples) + 0.5 * l2 * _dot(gate.weights, gate.weights)


# --- mining samples from traces ----------------------------------------------

@dataclass
class _Round:
    entries: list[LogEntry] = field(default_factory=list)


def split_rounds(entries: Sequence[LogEntry]) -> list[_Round]:
    """Group trace entries into rounds.

    The JSONL trace carries no explicit round marker, so rounds are
    delimited by Summarizing entries (each optionally followed by a
    verification verdict). The seeding Query entry belongs to no round.
    """
    rounds: list[_Round] = []
    current = _Round()
    closed = False
    for entry in entries:
        if entry.entry_type is EntryType.QUERY and not rounds and not current.entries:
            continue
        if closed and entry.entry_type in (EntryType.FLAG, EntryType.OK):
            rounds[-1].entries.append(entry)
            continue
        closed = False
        current.entries.append(entry)
        if entry.entry_type in (EntryType.SUMMARY, EntryType.ANSWER):
            rounds.append(current)
            current = _Round()
            closed = True
    if current.entries:
        rounds.append(current)
    return rounds


def _cited_in_answer(entry: LogEntry, answer_text: str) -> bool:
    answer_values = set(numeral_values(answer_text))
    if answer_values & set(numeral_values(entry.content)):
        return True
    lowered = answer_text.lower()
    for anchor in entry.provenance:
        for attr in ("table_id", "doc_id", "image_id"):
            ident = getattr(anchor, attr, None)
            if ident and ident.lower() in lowered:
                return True
    return False


def mine_samples(traces: Iterable[Sequence[LogEntry]]) -> list[GateSample]:
    """One sample per non-final round of each trace.

    Label 1 when any evidence entry appended after the round is cited in
    the final Answer (numeral overlap or provenance id mention); else 0.
    Traces without Summarizing entries or without a final Answer carry no
    round markers or no target and are skipped with a warning.
    """
    samples: list[GateSample] = []
    for trace_idx, entries in enumerate(traces):
        entries = list(entries)
        answers = [e for e in entries if e.entry_type is EntryType.ANSWER]
        rounds = split_rounds(entries)
        if not answers or not rounds:
            logger.warning(
                "trace %d lacks round markers or a final answer; skipped", trace_idx
            )
            continue
        answer_text = parse_answer(answers[-1].content) or answers[-1].content
        prefix: list[LogEntry] = [e for e in entries if e.entry_type is EntryType.QUERY][:1]
        for idx, round_ in enumerate(rounds[:-1]):
            prefix = prefix + round_.entries
            later_evidence = [
                e
                for later in rounds[idx + 1 :]
                for e in later.entries
                if e.entry_type in EVIDENCE_TYPES
            ]
            label = int(any(_cited_in_answer(e, answer_text) for e in later_evidence))
            new_entries = sum(e.entry_type in EVIDENCE_TYPES for e in round_.entries)
            samples.append(GateSample(extract_features(prefix, new_entries), label))
    return samples


def mine_samples_from_dir(path: str | Path) -> list[GateSample]:
    """Mine samples from every *.jsonl trace under a directory.

    The per-record `report.jsonl` that `run_benchmark` writes beside its
    traces is not a trace and is skipped.
    """
    traces = []
    for file in sorted(Path(path).glob("**/*.jsonl")):
        if file.name != "report.jsonl":
            traces.append(load_trace(file.read_text(encoding="utf-8")))
    return mine_samples(traces)
