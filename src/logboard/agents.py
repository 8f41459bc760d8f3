"""The five agent roles: trigger heuristics, prompts, and typed entries.

Retrieval roles (Table, Context, Visual) are agents that decide for
themselves whether to act on the current log; the Summarizing and
Verification roles are the functions summarize and verification_act, which
the scheduler calls. Each builds a role prompt over the rendered log and
truncated sources, makes exactly one backend call, and parses the reply
into a typed entry with provenance extracted from source references. An
abstention is a parsed outcome, not an error.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress
from operator import not_

from . import retrieval
from .backends import DEFAULT_MAX_TOKENS, TextBackend, TransportError
from .log import (
    CONTEXT_AGENT,
    SUMMARIZING_AGENT,
    TABLE_AGENT,
    VERIFICATION_AGENT,
    VISUAL_AGENT,
    DocSpan,
    EntryType,
    ImageRef,
    LogEntry,
    SharedLog,
    TableAnchor,
    parse_answer,
    parse_verdict,
    render_view,
    token_estimate,
)
from .retrieval import (
    SENTENCE_WINDOW_K,
    TOP_N,
    TableSlice,
    render_table_slice,
    select_table_slice,
    truncate_span,
)
from .sources import SourceBundle, Table
from .textutil import GAP_PHRASES, mentions_image, normalize, parse_numerals, tokenize
from .verify import Finding, verify_deterministic

logger = logging.getLogger(__name__)

ABSTAIN_MARKER = "no relevant info"


class AgentRole(Enum):
    TABLE = "Table"
    CONTEXT = "Context"
    VISUAL = "Visual"
    SUMMARIZING = "Summarizing"
    VERIFICATION = "Verification"


_DETERMINISTIC_ROLES = frozenset({AgentRole.SUMMARIZING, AgentRole.VERIFICATION})


@dataclass
class AgentConfig:
    role: AgentRole
    temperature: float | None = None
    context_window: int = 4096
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self) -> None:
        if self.temperature is None:
            self.temperature = 0.0 if self.role in _DETERMINISTIC_ROLES else 0.3


def _latest_flag_reason(log: SharedLog) -> str | None:
    """Content of the most recent Flag with no later OK."""
    for entry in reversed(log.entries):
        if entry.entry_type is EntryType.OK:
            return None
        if entry.entry_type is EntryType.FLAG:
            return entry.content
    return None


def _latest_gap_text(log: SharedLog) -> str | None:
    """The latest Summary or Flag naming a missing item, if any."""
    latest = log.latest(EntryType.SUMMARY, EntryType.ANSWER, EntryType.FLAG)
    if latest is None or latest.entry_type is EntryType.ANSWER:
        return None
    lowered = latest.content.lower()
    if any(phrase in lowered for phrase in GAP_PHRASES):
        return latest.content
    return None


# --- prompt templates --------------------------------------------------------

TABLE_INSTRUCTIONS = (
    "You are a table analyst in a team that shares one log. "
    "Extract the relevant cells from the table to answer the query. "
    "If calculations are needed, do them. Provide the result in one sentence "
    "with a reference to the table. If the tables hold nothing relevant, "
    f"reply exactly: {ABSTAIN_MARKER} found."
)

CONTEXT_INSTRUCTIONS = (
    "You are a passage reader in a team that shares one log. "
    "Identify any piece of text that helps answer the question. Quote it or "
    "paraphrase concisely, and only log something if you are confident it is "
    f"relevant. If nothing helps, reply exactly: {ABSTAIN_MARKER} found."
)

VISUAL_INSTRUCTIONS = (
    "You are an image interpreter in a team that shares one log. The image "
    "content below was extracted in advance (caption and OCR text). State "
    "what it shows that bears on the question, keeping every number exact. "
    f"If the images hold nothing relevant, reply exactly: {ABSTAIN_MARKER} found."
)

SUMMARIZING_INSTRUCTIONS = (
    "You are the summarizing agent. You will see a log of information "
    "gathered by other agents. Based on the log, either (a) provide the "
    "final answer with a short explanation, or (b) if information is "
    "missing or unclear, summarize what is known and state what is needed. "
    "Only use information from the log; if something is not in the log, "
    "state that it is unknown. Reason step by step if needed. When you give "
    "a final answer, start the concluding sentence with 'Therefore' or "
    "'In conclusion' and end with a line of the form 'Answer: <final answer>'."
)

VERIFICATION_INSTRUCTIONS = (
    "You are the verification agent. The question, proposed answer, and "
    "supporting log are below. Verify each part of the answer: recompute "
    "any calculations, check units, and check that every claim is supported "
    "by log entries. If any part seems incorrect or unsupported, explain "
    "and flag it. If everything is consistent, reply with OK."
)


def _best_match_range(passage_text: str, question: str) -> tuple[int, int]:
    """Char range of the passage sentence overlapping the question most."""
    q_tokens = set(tokenize(question))
    spans = retrieval.split_sentences(passage_text)
    if not spans:
        return (0, len(passage_text))
    best = max(
        spans,
        key=lambda span: len(set(tokenize(passage_text[span[0] : span[1]])) & q_tokens),
    )
    return best


def _source_blocks(
    role: AgentRole,
    sources: SourceBundle,
    question: str,
    table_slices: Sequence[TableSlice] | None,
) -> Iterator[str]:
    """Role-specific source text at shrink levels 0 (full) to 3, lazily.

    What does not depend on the level (the table slices, the BM25 ranking
    and each passage's best-matching sentence) is worked out once.
    """
    if role is AgentRole.TABLE:
        if table_slices is None:
            table_slices = [select_table_slice(table, question) for table in sources.tables]
        for row_cap in (None, 10, 3, 1):
            yield "\n\n".join(
                render_table_slice(table, TableSlice(slice_.kept_rows[:row_cap], slice_.kept_cols))
                for table, slice_ in zip(sources.tables, table_slices)
            )
    elif role is AgentRole.CONTEXT:
        chosen = [doc_id for doc_id, _ in retrieval.retrieve(sources.passage_index, question)]
        if not chosen:
            chosen = [p.id for p in sources.passages[:TOP_N]]
        matches = [
            (passage, _best_match_range(passage.text, question))
            for passage in sources.passages
            if passage.id in chosen
        ]
        for shrink in range(4):
            window = max(0, SENTENCE_WINDOW_K - shrink)
            yield "\n\n".join(
                f"Passage {passage.id}: {truncate_span(passage.text, match, window)}"
                for passage, match in matches
            )
    elif role is AgentRole.VISUAL:
        for budget in (None, 400, 160, 80):
            yield "\n\n".join(
                f"Image {image.id}: {retrieval.render_visual_text(image, max_chars=budget)}"
                for image in sources.images
            )
    else:
        yield ""


def build_prompt(
    role: AgentRole,
    log: SharedLog,
    sources: SourceBundle,
    config: AgentConfig,
    answer_text: str | None = None,
    table_slices: Sequence[TableSlice] | None = None,
) -> str:
    """Instantiate the role template within the configured context window.

    Sources are truncated before the log view; as a last resort the oldest
    part of the view is dropped. table_slices, one per table of sources,
    saves slicing again what the caller has sliced for this run.
    """
    question = log.question()
    instructions = {
        AgentRole.TABLE: TABLE_INSTRUCTIONS,
        AgentRole.CONTEXT: CONTEXT_INSTRUCTIONS,
        AgentRole.VISUAL: VISUAL_INSTRUCTIONS,
        AgentRole.SUMMARIZING: SUMMARIZING_INSTRUCTIONS,
        AgentRole.VERIFICATION: VERIFICATION_INSTRUCTIONS,
    }[role]
    view = render_view(log)
    flag_line = ""
    if role in (AgentRole.TABLE, AgentRole.CONTEXT, AgentRole.VISUAL):
        reason = _latest_flag_reason(log)
        if reason:
            flag_line = (
                f"\nA verifier flagged the last answer: {reason}\n"
                "Target the missing or inconsistent item."
            )

    def compose(block_text: str, view_text: str) -> str:
        pieces = [instructions, f"Question: {question}"]
        if role is AgentRole.VERIFICATION and answer_text is not None:
            pieces.append(f"Proposed answer: {answer_text}")
        if block_text:
            pieces.append(block_text)
        pieces.append(f"Shared log:\n{view_text}")
        if flag_line:
            pieces.append(flag_line)
        return "\n\n".join(pieces)

    for block in _source_blocks(role, sources, question, table_slices):
        prompt = compose(block, view)
        if token_estimate(prompt) <= config.context_window:
            return prompt

    def overshoot_chars(prompt: str) -> int:
        return 4 * (token_estimate(prompt) - config.context_window) + 8

    # Shrink levels exhausted: hard-truncate sources first, then the log.
    cut = overshoot_chars(prompt)
    if cut > 0 and block:
        marker = " [sources truncated]"
        keep = max(0, len(block) - cut - len(marker))
        block = block[:keep].rstrip() + marker if keep else ""
        prompt = compose(block, view)
    cut = overshoot_chars(prompt)
    if cut > 0:
        marker = "[earlier log truncated] ..."
        keep = max(0, len(view) - cut - len(marker))
        view = marker + view[len(view) - keep :]
        prompt = compose(block, view)
    return prompt


# --- provenance extraction ---------------------------------------------------

def extract_table_anchors(
    reply: str, sources: SourceBundle, question: str
) -> list[TableAnchor]:
    """Anchors for table cells the reply states, in (table, row, col) order.

    A cell is stated when its normalized text is a run of consecutive
    normalized reply tokens. Each table's distinct cell strings are
    normalized once and looked up in the set of the reply's runs, built
    only up to the longest phrase met. Cells whose text merely echoes the
    question are left out (they are the lookup key, not the retrieved
    fact) unless no table states another cell. Stated cells are sorted into
    these two sets before any anchor is built, so anchors are built only
    for the chosen cells, on the rows that hold one (found in C).
    """
    reply_tokens = normalize(reply).split()
    runs: set[str] = set()  # space-joined runs of up to `built` reply tokens
    built = 0
    # Tokens hold no spaces, so a padded phrase occurs in the padded
    # question exactly when it is a run of the question's tokens.
    padded_question = f" {normalize(question)} "
    # Per table, the stated cells that the question does not echo, and those it does.
    informative: list[set[str]] = []
    echoed: list[set[str]] = []
    for table in sources.tables:
        phrases = {cell: normalize(cell) for cell in set(chain.from_iterable(table.rows))}
        longest = max((phrase.count(" ") + 1 for phrase in phrases.values() if phrase), default=0)
        while built < longest and built < len(reply_tokens):
            built += 1
            runs.update(
                " ".join(reply_tokens[i : i + built])
                for i in range(len(reply_tokens) - built + 1)
            )
        informative.append(set())
        echoed.append(set())
        for cell, phrase in phrases.items():
            if phrase in runs:
                (echoed if f" {phrase} " in padded_question else informative)[-1].add(cell)
    # A stated cell is taken from its table's rows, so some table states an
    # informative cell exactly when some informative anchor exists.
    anchors: list[TableAnchor] = []
    for table, cells in zip(sources.tables, informative if any(informative) else echoed):
        rows = table.rows
        for r in compress(range(len(rows)), map(not_, map(cells.isdisjoint, rows))):
            anchors.extend(
                TableAnchor(table.id, r, c) for c, cell in enumerate(rows[r]) if cell in cells
            )
    return anchors


_QUOTED_RE = re.compile(
    r"\"([^\"]+)\"|“([^”]+)”|'([^']+)'|‘([^’]+)’"
)


def extract_doc_spans(reply: str, sources: SourceBundle) -> list[DocSpan]:
    """Spans for the passage text the reply quotes or paraphrases."""
    spans: list[DocSpan] = []
    for match in _QUOTED_RE.finditer(reply):
        quoted = next(g for g in match.groups() if g)
        for passage in sources.passages:
            idx = passage.text.lower().find(quoted.lower())
            if idx >= 0:
                spans.append(DocSpan(passage.id, idx, idx + len(quoted)))
                break
    if spans:
        return spans
    # Paraphrase: best-overlapping sentence, if the overlap is substantive.
    reply_tokens = set(tokenize(reply))
    best: tuple[int, DocSpan] | None = None
    for passage in sources.passages:
        for start, end in retrieval.split_sentences(passage.text):
            overlap = len(set(tokenize(passage.text[start:end])) & reply_tokens)
            if overlap >= 3 and (best is None or overlap > best[0]):
                best = (overlap, DocSpan(passage.id, start, end))
    return [best[1]] if best else []


def extract_image_refs(reply: str, sources: SourceBundle) -> list[ImageRef]:
    """Refs for images whose extracted text the reply draws on."""
    reply_tokens = set(tokenize(reply))
    reply_values = {m.value for m in parse_numerals(reply)}
    refs = []
    for image in sources.images:
        text = f"{image.caption} {image.ocr_text}"
        if image.id.lower() in reply.lower():
            refs.append(ImageRef(image.id))
            continue
        values = {m.value for m in parse_numerals(text)}
        if values & reply_values or len(set(tokenize(text)) & reply_tokens) >= 2:
            refs.append(ImageRef(image.id))
    if not refs and sources.images:
        refs = [ImageRef(sources.images[0].id)]
    return refs


def _is_abstention(reply: str) -> bool:
    return not reply.strip() or ABSTAIN_MARKER in reply.lower()


# --- agent implementations ---------------------------------------------------

class TableAgent:
    """Posts cell-level facts; remembers which columns it has reported."""

    role = AgentRole.TABLE

    def __init__(self, config: AgentConfig | None = None) -> None:
        self.config = config or AgentConfig(AgentRole.TABLE)
        self.reported: set[tuple[str, int]] = set()
        # (id(table), question) -> (table, slice). The agent set lives for
        # one run, so each table is sliced once per run and never across
        # runs; holding the table keeps its id from being reused.
        self._slices: dict[tuple[int, str], tuple[Table, TableSlice]] = {}

    def _table_slices(self, sources: SourceBundle, question: str) -> list[TableSlice]:
        slices = []
        for table in sources.tables:
            key = (id(table), question)
            if key not in self._slices:
                self._slices[key] = (table, select_table_slice(table, question))
            slices.append(self._slices[key][1])
        return slices

    def _relevant_columns(self, sources: SourceBundle, question: str):
        for table, slice_ in zip(sources.tables, self._table_slices(sources, question)):
            for col in slice_.kept_cols:
                yield (table.id, col)

    def should_act(self, log: SharedLog, sources: SourceBundle, round_idx: int) -> bool:
        if not sources.tables:
            return False
        question = log.question()
        return any(
            key not in self.reported for key in self._relevant_columns(sources, question)
        )

    def notify_flag(self) -> None:
        """A verification Flag re-opens coverage for the re-engagement round."""
        self.reported.clear()

    def act(self, log: SharedLog, sources: SourceBundle, backend: TextBackend) -> LogEntry | None:
        question = log.question()
        prompt = build_prompt(
            self.role, log, sources, self.config,
            table_slices=self._table_slices(sources, question),
        )
        reply = backend.generate(prompt, self.config.temperature, self.config.max_tokens)
        self.reported.update(self._relevant_columns(sources, question))
        if _is_abstention(reply):
            return None
        anchors = extract_table_anchors(reply, sources, question)
        if not anchors:
            logger.debug("TableAgent reply matched no table cell; treated as abstention")
            return None
        return LogEntry(TABLE_AGENT, EntryType.LOOKUP, reply.strip(), provenance=list(anchors))


class ContextAgent:
    """Quotes or paraphrases passage text; runs first round or on named gaps."""

    role = AgentRole.CONTEXT

    def __init__(self, config: AgentConfig | None = None) -> None:
        self.config = config or AgentConfig(AgentRole.CONTEXT)

    def should_act(self, log: SharedLog, sources: SourceBundle, round_idx: int) -> bool:
        if not sources.passages:
            return False
        if round_idx == 0:
            return True
        return _latest_gap_text(log) is not None

    def notify_flag(self) -> None:
        pass

    def act(self, log: SharedLog, sources: SourceBundle, backend: TextBackend) -> LogEntry | None:
        prompt = build_prompt(self.role, log, sources, self.config)
        reply = backend.generate(prompt, self.config.temperature, self.config.max_tokens)
        if _is_abstention(reply):
            return None
        spans = extract_doc_spans(reply, sources)
        if not spans:
            logger.debug("ContextAgent reply matched no passage span; treated as abstention")
            return None
        return LogEntry(CONTEXT_AGENT, EntryType.QUOTE, reply.strip(), provenance=list(spans))


class VisualAgent:
    """Restates pre-extracted image text; fires only when images matter."""

    role = AgentRole.VISUAL

    def __init__(self, config: AgentConfig | None = None) -> None:
        self.config = config or AgentConfig(AgentRole.VISUAL)

    def should_act(self, log: SharedLog, sources: SourceBundle, round_idx: int) -> bool:
        # The question is the log's Query entry, so it is among those searched.
        return bool(sources.images) and any(mentions_image(e.content) for e in log.entries)

    def notify_flag(self) -> None:
        pass

    def act(self, log: SharedLog, sources: SourceBundle, backend: TextBackend) -> LogEntry | None:
        prompt = build_prompt(self.role, log, sources, self.config)
        reply = backend.generate(prompt, self.config.temperature, self.config.max_tokens)
        if _is_abstention(reply):
            return None
        refs = extract_image_refs(reply, sources)
        if not refs:
            logger.debug("VisualAgent reply referenced no image; treated as abstention")
            return None
        return LogEntry(VISUAL_AGENT, EntryType.VISUAL, reply.strip(), provenance=list(refs))


def flag_content(finding: Finding) -> str:
    """Render a finding as Flag entry content, keeping implicated steps
    recoverable for the harness."""
    steps = ",".join(str(s) for s in finding.implicated_steps)
    suffix = f" [steps: {steps}]" if steps else ""
    return f"Flagged {finding.kind.value}: {finding.detail}{suffix}"


_FLAG_STEPS_RE = re.compile(r"\[steps: ([0-9, ]*)\]")


def flagged_steps(content: str) -> list[int]:
    match = _FLAG_STEPS_RE.search(content)
    if not match:
        return []
    return [int(part) for part in match.group(1).split(",") if part.strip()]


# The Summarizer's and verifier's prompts show the log, not the sources;
# built once, never changed.
_NO_SOURCES = SourceBundle()


def summarize(log: SharedLog, backend: TextBackend) -> LogEntry | None:
    """A progress Summary or the final Answer, synthesized from the log."""
    config = AgentConfig(AgentRole.SUMMARIZING)
    prompt = build_prompt(AgentRole.SUMMARIZING, log, _NO_SOURCES, config)
    reply = backend.generate(prompt, config.temperature, config.max_tokens)
    if not reply.strip():
        logger.debug("Summarizer returned an empty reply")
        return None
    entry_type = EntryType.ANSWER if parse_answer(reply) else EntryType.SUMMARY
    return LogEntry(SUMMARIZING_AGENT, entry_type, reply.strip())


def verification_act(log: SharedLog, backend: TextBackend) -> LogEntry:
    """Verify the latest Answer: Flag on any deterministic finding, else
    defer to the backend verdict.

    Deterministic findings always override a backend OK (they are checked
    first and skip the backend entirely). If the backend is unreachable
    while the deterministic checks are clean, the verdict fails open to OK
    with a note; arithmetic failures can never be masked this way.
    """
    config = AgentConfig(AgentRole.VERIFICATION)
    answer_entry = log.latest(EntryType.ANSWER)
    if answer_entry is None:
        raise ValueError("verification requires a prior Answer entry")
    answer_text = parse_answer(answer_entry.content) or answer_entry.content
    findings = verify_deterministic(log, answer_text)
    if findings:
        return LogEntry(VERIFICATION_AGENT, EntryType.FLAG, flag_content(findings[0]))
    prompt = build_prompt(AgentRole.VERIFICATION, log, _NO_SOURCES, config, answer_text)
    try:
        reply = backend.generate(prompt, config.temperature, config.max_tokens)
    except TransportError:
        return LogEntry(
            VERIFICATION_AGENT,
            EntryType.OK,
            "OK (backend-unavailable; deterministic checks passed)",
        )
    if not reply.strip() or parse_verdict(reply):
        return LogEntry(VERIFICATION_AGENT, EntryType.OK, reply.strip() or "OK")
    return LogEntry(VERIFICATION_AGENT, EntryType.FLAG, reply.strip())


RETRIEVAL_ROLES = (AgentRole.TABLE, AgentRole.CONTEXT, AgentRole.VISUAL)


def build_agents() -> dict[AgentRole, object]:
    """Fresh per-run retrieval agents with standard per-role temperatures."""
    return {
        AgentRole.TABLE: TableAgent(),
        AgentRole.CONTEXT: ContextAgent(),
        AgentRole.VISUAL: VisualAgent(),
    }
