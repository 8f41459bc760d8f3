"""The shared log: typed, provenance-anchored entries with deterministic order.

This is the single coordination medium between agents. It owns entry
validation (type vocabulary, role discipline, provenance requirements),
near-duplicate rejection, token-budgeted rendering with history compression,
and the Answer/Flag marker parsers. Each entry is rendered once, as it
commits; a view joins the kept lines. Entries serialize to a JSONL trace,
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

    # Members are singletons compared by identity; Enum's own hash is a
    # Python-level hash of the name, paid on every set and dict lookup.
    __hash__ = object.__hash__


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
    """Normalized words (`textutil.words`) and their word 3-grams."""
    words = textutil.words(text)
    return words, set(zip(words, words[1:], words[2:]))


def _keys_near_duplicate(a: _DedupKey, b: _DedupKey) -> bool:
    (wa, ga), (wb, gb) = a, b
    if len(wa) < 3 or len(wb) < 3:
        return wa == wb
    # Jaccard is at most min/max of the set sizes, so a pair whose sizes
    # differ by more than 17:20 cannot reach 0.85; integers keep it exact.
    na, nb = len(ga), len(gb)
    return 20 * min(na, nb) >= 17 * max(na, nb) and textutil.jaccard(ga, gb) >= 0.85


def is_near_duplicate(a: str, b: str) -> bool:
    """Word-3-gram Jaccard >= 0.85 after lowercasing and punctuation stripping.

    Texts shorter than three words fall back to normalized exact equality.
    """
    return _keys_near_duplicate(_dedup_key(a), _dedup_key(b))


_REQUIRED_PROVENANCE = {
    EntryType.LOOKUP: TableAnchor, EntryType.QUOTE: DocSpan, EntryType.VISUAL: ImageRef
}


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
    required = _REQUIRED_PROVENANCE.get(entry.entry_type)
    if required is not None and not any(isinstance(p, required) for p in entry.provenance):
        raise ValidationError(
            f"{entry.entry_type.value} entries require >=1 {required.__name__}"
        )


class RealClock:
    """Wall-clock milliseconds since run start."""

    def __init__(self) -> None:
        self._t0 = time.monotonic()

    def now_ms(self) -> int:
        return int((time.monotonic() - self._t0) * 1000)

    def advance(self, ms: int) -> None:
        """Wall time moves by itself; a backend call's tick adds nothing."""


class SimClock:
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

    A committed entry is rendered once, as it commits: the log keeps
    `format_entry` of each non-Query entry, which `render_view` joins, and
    the text of the first Query, which `question` returns. An entry changes
    only before it commits (the fault injector rewrites it in flight), so
    a kept line never goes stale.
    """

    def __init__(self, clock: RealClock | SimClock | None = None) -> None:
        self.entries: list[LogEntry] = []
        self.next_step = 0
        self.clock = clock or SimClock()
        self._lock = threading.Lock()
        self._norm_cache: list[_DedupKey] = []  # one per committed entry
        self._lines: list[str] = []  # one per committed non-Query entry
        self._question = ""
        self._numerals: dict[str, tuple[textutil.NumericMention, ...]] = {}

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
            if entry.entry_type is not EntryType.QUERY:
                self._lines.append(format_entry(entry))
            elif not self._question:
                self._question = entry.content
            self.clock.advance(1)
        return AppendResult.ACCEPTED

    def numerals(self, text: str) -> tuple[textutil.NumericMention, ...]:
        """The numerals of a text, parsed once per log: a run's readers
        (verification, groundedness, catch/repair) re-read the same texts."""
        mentions = self._numerals.get(text)
        if mentions is None:
            mentions = self._numerals[text] = tuple(textutil.parse_numerals(text))
        return mentions

    def question(self) -> str:
        """The text of the first committed Query, or "" before one commits."""
        return self._question

    def latest(self, *types: EntryType) -> Optional[LogEntry]:
        """The newest committed entry of one of types."""
        for entry in reversed(self.entries):
            if entry.entry_type in types:
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


def render_view(log: SharedLog) -> str:
    """Render the log newest-last, compressing history to fit the budget.

    The Query entry is left out: a prompt states the question on its own
    line. If the verbatim estimate exceeds the compress trigger, the oldest
    entries are folded (one more per iteration) into a single Summary stub
    that keeps every replaced entry's provenance citation, until the
    estimate is at or below the post-compression target.
    """
    lines = log._lines
    view = "\n".join(lines)
    if token_estimate(view) <= COMPRESS_TRIGGER:
        return view
    entries = [e for e in log.entries if e.entry_type is not EntryType.QUERY]
    cites: list[str] = []  # those of the k folded entries
    for k, entry in enumerate(entries, 1):
        cites.extend(entry.citations())
        stub = f"{SUMMARIZING_AGENT} (Summary): [history: {k} earlier entries compressed]"
        if cites:
            stub += " [cite: " + " | ".join(cites) + "]"
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


# A standalone "OK", with the "not" or "...n't" word right before it, if any.
_OK_TOKEN_RE = re.compile(r"(?:\b((?i:not)|\w+n['’]t)\s+)?\bOK\b")
_NO_ISSUES_RE = re.compile(r"no issues flagged", re.IGNORECASE)


def parse_verdict(content: str) -> bool:
    """True when verification text says OK; anything else is a Flag.

    An "OK" directly after "not" (any case) or a word ending in "n't" is
    no verdict: "Not OK: 55 - 50 is 5." and "This isn't OK." are Flags.
    """
    return any(match[1] is None for match in _OK_TOKEN_RE.finditer(content)) or bool(
        _NO_ISSUES_RE.search(content)
    )


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
        doc_id = json_field(d, "id", what)
        start, end = json_field(d, "start", what, int), json_field(d, "end", what, int)
        if not 0 <= start <= end:
            raise ValidationError(f"doc provenance needs 0 <= start <= end, not {start}..{end}")
        return DocSpan(doc_id, start, end)
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
    """Parse a JSONL trace leniently (foreign traces are analyzable).

    A bad line is a ValueError that starts with "line <n>: ".
    """
    entries = []
    # Lines end at "\n" only: `splitlines` would also end one at a U+2028
    # inside a JSON string, which entry_to_json writes raw.
    for number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if line:
            try:
                entries.append(entry_from_json(line))
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from exc
    return entries
