"""The shared log: typed, provenance-anchored entries with deterministic order.

This is the single coordination medium between agents. It owns entry
validation (type vocabulary, role discipline, provenance requirements),
near-duplicate rejection, token-budgeted rendering with history compression,
and the Answer/Flag marker parsers. Entries serialize to a JSONL trace,
which is the interchange format for the harness and the CLI.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from . import textutil
from .sources import json_field, json_value


class EntryType(Enum):
    QUERY = "Query"
    LOOKUP = "Lookup"
    QUOTE = "Quote"
    VISUAL = "Visual"
    SUMMARY = "Summary"
    ANSWER = "Answer"
    FLAG = "Flag"
    OK = "OK"


# Canonical agent names, matching the trace presentation.
USER = "User"
TABLE_AGENT = "TableAgent"
CONTEXT_AGENT = "ContextAgent"
VISUAL_AGENT = "VisualAgent"
SUMMARIZING_AGENT = "SummarizingAgent"
VERIFICATION_AGENT = "VerificationAgent"

# Which entry types each known writer may emit. Unknown agent names are
# accepted (foreign traces from other systems are analyzable), but the type
# vocabulary itself is closed.
PERMITTED_TYPES: dict[str, frozenset[EntryType]] = {
    USER: frozenset({EntryType.QUERY}),
    TABLE_AGENT: frozenset({EntryType.LOOKUP}),
    CONTEXT_AGENT: frozenset({EntryType.QUOTE}),
    VISUAL_AGENT: frozenset({EntryType.VISUAL}),
    SUMMARIZING_AGENT: frozenset({EntryType.SUMMARY, EntryType.ANSWER}),
    VERIFICATION_AGENT: frozenset({EntryType.FLAG, EntryType.OK}),
}

EVIDENCE_TYPES = frozenset({EntryType.LOOKUP, EntryType.QUOTE, EntryType.VISUAL})


class ValidationError(ValueError):
    """An entry violated a log invariant; the message names the invariant."""


@dataclass(frozen=True)
class TableAnchor:
    table_id: str
    row: int
    col: int

    def cite(self) -> str:
        return f"table:{self.table_id}@{self.row},{self.col}"


@dataclass(frozen=True)
class DocSpan:
    doc_id: str
    start_char: int
    end_char: int

    def cite(self) -> str:
        return f"doc:{self.doc_id}@{self.start_char}-{self.end_char}"


@dataclass(frozen=True)
class ImageRef:
    image_id: str

    def cite(self) -> str:
        return f"image:{self.image_id}"


Provenance = TableAnchor | DocSpan | ImageRef


@dataclass
class LogEntry:
    agent: str
    entry_type: EntryType
    content: str
    step: int = -1
    ts_ms: int = 0
    provenance: list[Provenance] = field(default_factory=list)

    def citations(self) -> list[str]:
        return [p.cite() for p in self.provenance]


# Context budget for rendered views, in token_estimate tokens: a view above
# COMPRESS_TRIGGER has its history folded until it is at most TARGET_AFTER.
COMPRESS_TRIGGER = 3600
TARGET_AFTER = 3900


def token_estimate(text: str) -> int:
    """Token estimate of a text: ceil(chars / 4)."""
    return math.ceil(len(text) / 4)


class AppendResult(Enum):
    ACCEPTED = "Accepted"
    REJECTED_DUPLICATE = "RejectedDuplicate"


_DedupKey = tuple[list[str], set[tuple[str, ...]]]


def _dedup_key(text: str) -> _DedupKey:
    """Normalized words and their word 3-grams."""
    words = textutil.normalize(text).split()
    return words, textutil.word_ngrams(words, 3)


def _keys_near_duplicate(a: _DedupKey, b: _DedupKey) -> bool:
    (wa, ga), (wb, gb) = a, b
    if len(wa) < 3 or len(wb) < 3:
        return wa == wb
    return textutil.jaccard(ga, gb) >= 0.85


def is_near_duplicate(a: str, b: str) -> bool:
    """Word-3-gram Jaccard >= 0.85 after lowercasing and punctuation stripping.

    Texts shorter than three words fall back to normalized exact equality.
    """
    return _keys_near_duplicate(_dedup_key(a), _dedup_key(b))


def _required_provenance(entry_type: EntryType) -> Optional[type]:
    if entry_type is EntryType.LOOKUP:
        return TableAnchor
    if entry_type is EntryType.QUOTE:
        return DocSpan
    if entry_type is EntryType.VISUAL:
        return ImageRef
    return None


def validate_entry(entry: LogEntry) -> None:
    """Raise ValidationError naming the violated invariant, if any."""
    if not entry.content or not entry.content.strip():
        raise ValidationError("content must be non-empty")
    if not isinstance(entry.entry_type, EntryType):
        raise ValidationError("entry_type must be one of the fixed vocabulary")
    permitted = PERMITTED_TYPES.get(entry.agent)
    if permitted is not None and entry.entry_type not in permitted:
        raise ValidationError(
            f"role/type mismatch: {entry.agent} may not emit {entry.entry_type.value}"
        )
    required = _required_provenance(entry.entry_type)
    if required is not None and not any(isinstance(p, required) for p in entry.provenance):
        raise ValidationError(
            f"{entry.entry_type.value} entries require >=1 {required.__name__}"
        )


class Clock:
    """Milliseconds since run start. Subclasses decide real vs simulated."""

    def now_ms(self) -> int:
        raise NotImplementedError

    def advance(self, ms: int) -> None:  # pragma: no cover - overridden
        pass


class RealClock(Clock):
    def __init__(self) -> None:
        self._t0 = time.monotonic()

    def now_ms(self) -> int:
        return int((time.monotonic() - self._t0) * 1000)


class SimClock(Clock):
    """Deterministic clock: time moves only when advance() is called.

    Used with scripted backends so traces and latency stats are
    byte-reproducible across executions.
    """

    def __init__(self) -> None:
        self._now = 0

    def now_ms(self) -> int:
        return self._now

    def advance(self, ms: int) -> None:
        self._now += ms


class SharedLog:
    """Append-only, globally visible log with deterministic total order.

    Appends serialize through the step counter under a lock; the committed
    order is the step order. Reads are pure and freely shareable.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self.entries: list[LogEntry] = []
        self.next_step = 0
        self.clock = clock or SimClock()
        self._lock = threading.Lock()
        self._norm_cache: list[_DedupKey] = []  # one per committed entry

    def append(self, entry: LogEntry) -> AppendResult:
        """Validate, dedup, and commit an entry with the next step index."""
        validate_entry(entry)
        key = _dedup_key(entry.content)
        with self._lock:
            if any(_keys_near_duplicate(key, other) for other in self._norm_cache):
                return AppendResult.REJECTED_DUPLICATE
            entry.step = self.next_step
            entry.ts_ms = self.clock.now_ms()
            self.next_step += 1
            self.entries.append(entry)
            self._norm_cache.append(key)
            self.clock.advance(1)
        return AppendResult.ACCEPTED

    def question(self) -> str:
        for entry in self.entries:
            if entry.entry_type is EntryType.QUERY:
                return entry.content
        return ""

    def latest(self, *types: EntryType) -> Optional[LogEntry]:
        wanted = set(types) or set(EntryType)
        for entry in reversed(self.entries):
            if entry.entry_type in wanted:
                return entry
        return None

    def evidence_entries(self) -> list[LogEntry]:
        return [e for e in self.entries if e.entry_type in EVIDENCE_TYPES]


def format_entry(entry: LogEntry) -> str:
    line = f"{entry.agent} ({entry.entry_type.value}): {entry.content}"
    cites = entry.citations()
    if cites:
        line += " [cite: " + " | ".join(cites) + "]"
    return line


def _stub_line(replaced: list[LogEntry]) -> str:
    cites: list[str] = []
    for entry in replaced:
        cites.extend(entry.citations())
    line = f"{SUMMARIZING_AGENT} (Summary): [history: {len(replaced)} earlier entries compressed]"
    if cites:
        line += " [cite: " + " | ".join(cites) + "]"
    return line


def render_view(log: SharedLog) -> str:
    """Render the log newest-last, compressing history to fit the budget.

    If the verbatim estimate exceeds the compress trigger, the oldest
    entries are folded (one more per iteration) into a single Summary stub
    that keeps every replaced entry's provenance citation, until the
    estimate is at or below the post-compression target.
    """
    entries = log.entries
    lines = [format_entry(e) for e in entries]
    view = "\n".join(lines)
    if token_estimate(view) <= COMPRESS_TRIGGER:
        return view
    for k in range(1, len(entries) + 1):
        stub = _stub_line(entries[:k])
        view = "\n".join([stub] + lines[k:])
        if token_estimate(view) <= TARGET_AFTER:
            return view
    return view


_CITE_RE = re.compile(r"\[cite: ([^\]]+)\]")


def view_citations(view: str) -> list[str]:
    """All provenance citation strings reachable from a rendered view."""
    cites: list[str] = []
    for match in _CITE_RE.finditer(view):
        cites.extend(part.strip() for part in match.group(1).split(" | "))
    return cites


_ANSWER_RE = re.compile(r"answer\s*:\s*", re.IGNORECASE)


def parse_answer(content: str) -> Optional[str]:
    """Extract the final answer text, if the content carries one.

    An "Answer:" marker (case-insensitive, last occurrence) wins; otherwise
    content opening with "Therefore"/"In conclusion" yields that sentence.
    """
    matches = list(_ANSWER_RE.finditer(content))
    if matches:
        tail = content[matches[-1].end():].strip()
        if tail:
            return tail
    stripped = content.strip()
    lowered = stripped.lower()
    if lowered.startswith("therefore") or lowered.startswith("in conclusion"):
        return textutil.first_sentence(stripped)
    return None


_OK_TOKEN_RE = re.compile(r"\bOK\b")
_NO_ISSUES_RE = re.compile(r"no issues flagged", re.IGNORECASE)


def parse_verdict(content: str) -> bool:
    """True when verification text says OK; anything else is a Flag."""
    return bool(_OK_TOKEN_RE.search(content) or _NO_ISSUES_RE.search(content))


# --- JSONL trace interchange -------------------------------------------------

def provenance_to_dict(p: Provenance) -> dict:
    if isinstance(p, TableAnchor):
        return {"kind": "table", "id": p.table_id, "row": p.row, "col": p.col}
    if isinstance(p, DocSpan):
        return {"kind": "doc", "id": p.doc_id, "start": p.start_char, "end": p.end_char}
    return {"kind": "image", "id": p.image_id}


def provenance_from_dict(d: dict) -> Provenance:
    json_value(d, dict, "provenance")
    kind = d.get("kind")
    what = f"{kind} provenance"
    if kind == "table":
        return TableAnchor(
            json_field(d, "id", what), json_field(d, "row", what, int), json_field(d, "col", what, int)
        )
    if kind == "doc":
        return DocSpan(
            json_field(d, "id", what), json_field(d, "start", what, int), json_field(d, "end", what, int)
        )
    if kind == "image":
        return ImageRef(json_field(d, "id", what))
    raise ValidationError(f"unknown provenance kind: {kind!r}")


def entry_to_json(entry: LogEntry) -> str:
    record = {
        "agent": entry.agent,
        "type": entry.entry_type.value,
        "content": entry.content,
        "step": entry.step,
        "ts_ms": entry.ts_ms,
        "provenance": [provenance_to_dict(p) for p in entry.provenance],
    }
    return json.dumps(record, ensure_ascii=False)


def entry_from_json(line: str) -> LogEntry:
    """Parse one trace line; ValueError names a missing or mistyped field."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"trace line is not a JSON object: {line[:80]!r}")
    what = f"trace entry {line[:80]!r}"
    return LogEntry(
        agent=json_field(record, "agent", what),
        entry_type=EntryType(json_field(record, "type", what)),
        content=json_field(record, "content", what),
        step=json_field(record, "step", what, int),
        ts_ms=json_field(record, "ts_ms", what, int, 0),
        provenance=[provenance_from_dict(p) for p in json_field(record, "provenance", what, list, [])],
    )


def dump_trace(entries: Iterable[LogEntry]) -> str:
    return "".join(entry_to_json(e) + "\n" for e in entries)


def load_trace(text: str) -> list[LogEntry]:
    """Parse a JSONL trace leniently (foreign traces are analyzable)."""
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            entries.append(entry_from_json(line))
    return entries
