"""The five agent roles: trigger heuristics, prompts, and typed entries.

Retrieval roles (Table, Context, Visual) are agents that decide for
themselves whether to act on the current log; the Summarizing and
Verification roles are the functions summarize and verification_act, which
the scheduler calls. Each builds a role prompt over the rendered log and
truncated sources, makes one backend call through _send, and parses the
reply into a typed entry with provenance extracted from source references.
A retrieval act is split in two, `prepare` and `entry`, so that a round's
calls can go out together (`generate_round`) between them. An abstention
is a parsed outcome, not an error.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from functools import partial
from itertools import accumulate, chain

from . import retrieval
from .backends import (
    BACKEND_ATTEMPTS,
    BACKEND_CALL_TICK_MS,
    DEFAULT_MAX_TOKENS,
    HttpBackend,
    RequestRejected,
    TextBackend,
    TransportError,
)
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
    SourceViews,
    TableSlice,
    render_table_slice,
    select_table_slice,
    truncate_span,
)
from .sources import Image, Passage, SourceBundle, Table
from .textutil import (
    count_gap_phrases,
    is_year_like,
    mentions_image,
    names,
    normalize,
    parse_numerals,
    tokenize,
)
from .verify import Finding, verify_deterministic

logger = logging.getLogger(__name__)

ABSTAIN_MARKER = "no relevant info"


class AgentRole(Enum):
    TABLE = "Table"
    CONTEXT = "Context"
    VISUAL = "Visual"
    SUMMARIZING = "Summarizing"
    VERIFICATION = "Verification"

    __hash__ = object.__hash__  # identity, as for `log.EntryType`


# Each role's sampling temperature: the Summarizer and verifier decode greedily.
_TEMPERATURES = {
    AgentRole.TABLE: 0.3,
    AgentRole.CONTEXT: 0.3,
    AgentRole.VISUAL: 0.3,
    AgentRole.SUMMARIZING: 0.0,
    AgentRole.VERIFICATION: 0.0,
}

CONTEXT_WINDOW = 4096  # estimated tokens (`log.token_estimate`) a prompt may take


def _latest_flag_reason(log: SharedLog) -> str | None:
    """Content of the most recent Flag with no later OK."""
    latest = log.latest(EntryType.OK, EntryType.FLAG)
    return latest.content if latest is not None and latest.entry_type is EntryType.FLAG else None


def _gap_named(log: SharedLog) -> bool:
    """Whether the latest Summary or Flag names a missing item, with no
    Answer after it."""
    latest = log.latest(EntryType.SUMMARY, EntryType.ANSWER, EntryType.FLAG)
    return (
        latest is not None
        and latest.entry_type is not EntryType.ANSWER
        and count_gap_phrases(latest.content) > 0
    )


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

_INSTRUCTIONS = {
    AgentRole.TABLE: TABLE_INSTRUCTIONS,
    AgentRole.CONTEXT: CONTEXT_INSTRUCTIONS,
    AgentRole.VISUAL: VISUAL_INSTRUCTIONS,
    AgentRole.SUMMARIZING: SUMMARIZING_INSTRUCTIONS,
    AgentRole.VERIFICATION: VERIFICATION_INSTRUCTIONS,
}


def _table_blocks(tables: list[Table], slices: list[TableSlice]) -> Iterator[str]:
    """The Table blocks at shrink levels 0 (full) to 3, lazily: each table's
    slice for the question, cut to fewer rows per level."""
    for row_cap in (None, 10, 3, 1):
        yield "\n\n".join(
            render_table_slice(table, TableSlice(slice_.kept_rows[:row_cap], slice_.kept_cols))
            for table, slice_ in zip(tables, slices)
        )


def _passages_chosen(sources: SourceBundle, question: str) -> list[Passage]:
    """The passages a Context prompt shows, in passage order: the question's
    BM25 top `TOP_N`, or the first `TOP_N` when no passage scores. Only
    the ranked passages are visited, by their positions in the index."""
    index_ = sources.passage_index
    ranked = retrieval.retrieve(index_, question)
    if not ranked:
        return sources.passages[:TOP_N]
    return [sources.passages[i] for i in sorted(index_.positions[doc_id] for doc_id, _ in ranked)]


def _passage_blocks(passages: list[Passage], question: str, views: SourceViews) -> Iterator[str]:
    """The Context blocks of the shown passages at shrink levels 0 to 3: each
    passage's window around its sentence sharing most of the question's
    tokens, narrowed by one sentence a side per level."""
    q_tokens = set(tokenize(question))
    matches = []  # (passage, char range of its best sentence, its sentence spans)
    for passage in passages:
        spans, tokens = views.sentences(passage)
        best = (0, len(passage.text))
        if spans:  # the first sentence sharing most of the question's tokens
            best = max(zip(spans, tokens), key=lambda pair: len(pair[1] & q_tokens))[0]
        matches.append((passage, best, spans))
    for shrink in range(4):
        window = max(0, SENTENCE_WINDOW_K - shrink)
        yield "\n\n".join(
            f"Passage {passage.id}: {truncate_span(passage.text, match, window, spans)}"
            for passage, match, spans in matches
        )


def _image_blocks(shown: list[Image]) -> Iterator[str]:
    """The Visual blocks of the shown images at shrink levels 0 to 3: each
    image's caption and OCR text, cut to a smaller budget per level."""
    for budget in (None, 400, 160, 80):
        yield "\n\n".join(
            f"Image {image.id}: {retrieval.render_visual_text(image, max_chars=budget)}"
            for image in shown
        )


def build_prompt(
    role: AgentRole,
    log: SharedLog,
    blocks: Iterable[str] = ("",),
    answer_text: str | None = None,
) -> str:
    """Instantiate the role template within `CONTEXT_WINDOW` estimated tokens.

    blocks is the source text at each shrink level, fullest first, as a
    retrieval agent's `_show` yields it; the Summarizer's and verifier's
    prompts show the log alone. Sources are truncated before the log view;
    as a last resort the oldest part of the view is dropped.
    """
    question = log.question()
    instructions = _INSTRUCTIONS[role]
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

    for block in blocks:
        prompt = compose(block, view)
        if token_estimate(prompt) <= CONTEXT_WINDOW:
            return prompt

    def overshoot_chars(prompt: str) -> int:
        return 4 * (token_estimate(prompt) - CONTEXT_WINDOW) + 8

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
    reply: str, sources: SourceBundle, question: str, slices: list[TableSlice]
) -> list[TableAnchor]:
    """Anchors for the shown table cells the reply states, in (table, row, col) order.

    A Lookup cites only what its prompt showed: each table's slice for the
    question (slices, one per table, as the Table act chose them), its
    kept rows × kept columns. The rule takes the whole slice, though the
    prompt's shrink levels show only its first 10, 3 or 1 kept rows; no
    workload shrinks a Table prompt. Only the slices' distinct cells are
    normalized. A cell is stated by the reply, or echoed by the question,
    when its normalized phrase is not blank and, padded with spaces, occurs
    in the padded normalized reply, or question. Echoed cells are left out
    (they are the lookup key, not the retrieved fact) unless no table
    states another cell; anchors are built only for the chosen cells.

    Of the rows that hold a stated cell, only the most specific are cited
    (`retrieval.most_specific_rows`, each stated cell weighed by itself): a
    row is kept unless another row states a strict superset of its stated
    cells. So a row that only happens to hold a stated amount is passed over
    beside the rows that also hold the question's entity and year, while a
    reply that states a lone value cites every shown row that holds it. A
    row stating only echoed cells cites nothing and passes over no other.
    """
    # Tokens hold no spaces, so a padded phrase occurs in a padded text
    # exactly when it is a run of the text's tokens.
    padded_reply = f" {normalize(reply)} "
    padded_question = f" {normalize(question)} "
    # Per table: its id, slice, kept rows' shown cells, and stated cells.
    shown: list[tuple[str, TableSlice, list[list[str]], dict[str, tuple[str]]]] = []
    echoed: set[str] = set()
    for table, slice_ in zip(sources.tables, slices):
        cut = [[table.rows[r][c] for c in slice_.kept_cols] for r in slice_.kept_rows]
        stated = {}
        for cell in dict.fromkeys(chain.from_iterable(cut)):
            padded = f" {normalize(cell)} "
            if padded != "  " and padded in padded_reply:
                stated[cell] = (cell,)
                if padded in padded_question:
                    echoed.add(cell)
        shown.append((table.id, slice_, cut, stated))
    informative = any(stated.keys() - echoed for *_, stated in shown)
    anchors: list[TableAnchor] = []
    for table_id, slice_, cut, stated in shown:
        cells = stated.keys() - echoed if informative else stated.keys()
        anchors.extend(
            TableAnchor(table_id, slice_.kept_rows[i], col)
            for i in retrieval.most_specific_rows(cut, stated)
            for col, cell in zip(slice_.kept_cols, cut[i])
            if cell in cells
        )
    return anchors


_QUOTED_RE = re.compile(
    r"\"([^\"]+)\"|“([^”]+)”|'([^']+)'|‘([^’]+)’"
)


def _find_quote(text: str, quoted: str) -> tuple[int, int] | None:
    """Offsets into text of the first place where its lowered form holds quoted.

    quoted is already lowered. Lowering keeps every offset except at U+0130
    (İ), the one code point that lowers to two characters. In a text that
    holds one, offsets are mapped back to the text's own, and a match that
    starts or ends inside a lowered İ is passed over.
    """
    lowered = text.lower()
    idx = lowered.find(quoted)
    if idx < 0:
        return None
    if len(lowered) == len(text):
        return idx, idx + len(quoted)
    position = {
        offset: i
        for i, offset in enumerate(accumulate(map(len, map(str.lower, text)), initial=0))
    }
    while idx >= 0:
        start, end = position.get(idx), position.get(idx + len(quoted))
        if start is not None and end is not None:
            return start, end
        idx = lowered.find(quoted, idx + 1)
    return None


def extract_doc_spans(reply: str, passages: list[Passage], views: SourceViews) -> list[DocSpan]:
    """Spans for the shown passage text the reply quotes or paraphrases.

    passages are those the Context prompt showed (`_passages_chosen`), in
    passage order; no other passage is read. A quote is anchored in the
    first of them whose lowered text holds it, lowered, at offsets into the
    passage's own text. Without an anchored quote, the span is the sentence
    sharing most distinct tokens (at least 3) with the reply, read from
    each passage's sentences in views.
    """
    spans: list[DocSpan] = []
    for match in _QUOTED_RE.finditer(reply):
        quoted = match.group(match.lastindex).lower()  # the one alternative that matched
        for passage in passages:
            found = _find_quote(passage.text, quoted)
            if found is not None:
                spans.append(DocSpan(passage.id, *found))
                break
    if spans:
        return spans
    # Paraphrase: best-overlapping sentence, if the overlap is substantive.
    reply_tokens = set(tokenize(reply))
    best: tuple[int, DocSpan] | None = None
    for passage in passages:
        sentences = views.sentences(passage)
        for (start, end), tokens in zip(sentences.spans, sentences.tokens):
            overlap = len(tokens & reply_tokens)
            if overlap >= 3 and (best is None or overlap > best[0]):
                best = (overlap, DocSpan(passage.id, start, end))
    return [best[1]] if best else []


def _images_named(text: str, images: list[Image], views: SourceViews) -> list[Image]:
    """The given images that the text names (`textutil.names`), in their
    order; each id's normalized words are read from views."""
    words = normalize(text)
    return [image for image in images if names(words, views.image(image).name)]


def _images_shown(question: str, sources: SourceBundle, views: SourceViews) -> list[Image]:
    """The images a Visual prompt shows: those the question names, or all
    when it names none."""
    return _images_named(question, sources.images, views) or sources.images


def extract_image_refs(reply: str, shown: list[Image], views: SourceViews) -> list[ImageRef]:
    """Refs for the shown images the reply names, or else for those whose text it draws on.

    shown are the images the Visual prompt showed (`_images_shown`), in
    bundle order; no other image is cited. A reply that names some of them
    (`_images_named`) cites those alone. One that names none of them cites
    each that shares a numeral or two tokens with it, years left out, so a
    word that every shown image holds still cites them all; failing that,
    the first image shown. Each image's numerals and tokens are read from
    views.
    """
    named = _images_named(reply, shown, views)
    if named:
        return [ImageRef(image.id) for image in named]
    reply_tokens = set(tokenize(reply))
    reply_values = {m.value for m in parse_numerals(reply) if not is_year_like(m)}
    refs = [
        ImageRef(image.id)
        for image in shown
        if (facts := views.image(image)).values & reply_values
        or len(facts.tokens & reply_tokens) >= 2
    ]
    if not refs and shown:
        refs = [ImageRef(shown[0].id)]
    return refs


def _send(backend: TextBackend, role: AgentRole, prompt: str) -> str:
    """The backend's reply to prompt: the one call path of every role.

    Up to BACKEND_ATTEMPTS tries send the same prompt, at the role's
    temperature and with DEFAULT_MAX_TOKENS. RequestRejected is raised at
    once, since sent again it would be refused again; the last
    TransportError is raised once the tries are spent.
    """
    for attempt in range(1, BACKEND_ATTEMPTS + 1):
        try:
            return backend.generate(prompt, _TEMPERATURES[role], DEFAULT_MAX_TOKENS)
        except TransportError as exc:
            if isinstance(exc, RequestRejected) or attempt == BACKEND_ATTEMPTS:
                raise


def _generate(log: SharedLog, backend: TextBackend, role: AgentRole, prompt: str) -> str:
    """The reply to a call sent on its own (the Summarizer's, the verifier's),
    which advances the log's clock by BACKEND_CALL_TICK_MS."""
    reply = _send(backend, role, prompt)
    log.clock.advance(BACKEND_CALL_TICK_MS)
    return reply


def generate_round(
    log: SharedLog, backend: TextBackend, calls: list[tuple[AgentRole, str]]
) -> tuple[list[str], TransportError | None]:
    """The replies to a round's retrieval prompts, sent together.

    calls are (role, prompt) pairs in role order, and every one is made.
    An HttpBackend gets two or more on one thread each, all in flight at
    once; any other backend answers them in process, one after another. The
    replies come back in call order, up to the first call whose tries are
    spent, with that call's TransportError (None when every call got a
    reply); no worker thread outlives the call. The replies advance the
    log's clock by one BACKEND_CALL_TICK_MS, the slowest reply's, as they
    were sent together.
    """
    if isinstance(backend, HttpBackend) and len(calls) > 1:
        # Imported here, as only a live backend waits on its replies.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(calls)) as pool:  # joins its workers
            futures = [pool.submit(_send, backend, role, prompt) for role, prompt in calls]
        outcomes = (future.result for future in futures)
    else:
        outcomes = (partial(_send, backend, role, prompt) for role, prompt in calls)
    replies: list[str] = []
    failure = None
    for outcome in outcomes:
        try:
            reply = outcome()
        except TransportError as exc:
            failure = failure or exc
            continue
        if failure is None:
            replies.append(reply)
    if replies:
        log.clock.advance(BACKEND_CALL_TICK_MS)
    return replies, failure


def _is_abstention(reply: str) -> bool:
    return not reply.strip() or ABSTAIN_MARKER in reply.lower()


# --- agent implementations ---------------------------------------------------

Cite = Callable[[str], list]  # a reply's provenance in what its prompt showed


class _RetrievalAgent:
    """One act of a retrieval role: a prompt (`prepare`), one backend call
    that the scheduler makes, and an entry (`entry`) whose provenance points
    into what the prompt showed of the sources. A reply that abstains or
    points at nothing shown is an abstention."""

    role: AgentRole
    author: str
    entry_type: EntryType

    def __init__(self, views: SourceViews) -> None:
        # The run's views, shared with its other agents (see `retrieval`).
        self.views = views

    def notify_flag(self) -> None:
        """Most roles keep no coverage for a verification Flag to re-open."""

    def _show(self, sources: SourceBundle, question: str) -> tuple[Iterator[str], Cite]:
        """The prompt's source blocks, and what cites a reply in what they
        show: what the reply states of it, empty when it states nothing."""
        raise NotImplementedError

    def prepare(self, log: SharedLog, sources: SourceBundle) -> tuple[str, Cite]:
        """The act's prompt over log, and what cites a reply to it."""
        blocks, cite = self._show(sources, log.question())
        return build_prompt(self.role, log, blocks), cite

    def entry(self, reply: str, cite: Cite) -> LogEntry | None:
        """The act's entry for the backend's reply, or None for an abstention."""
        if _is_abstention(reply):
            return None
        provenance = cite(reply)
        if not provenance:
            logger.debug("%s reply cites nothing in the sources; an abstention", self.author)
            return None
        return LogEntry(self.author, self.entry_type, reply.strip(), provenance=provenance)


class TableAgent(_RetrievalAgent):
    """Posts cell-level facts; acts once, and once more after each Flag: an
    act reports every relevant column of the run's fixed sources (a slice
    keeps a column of each table that has any), so the trigger reads no slice."""

    role = AgentRole.TABLE
    author = TABLE_AGENT
    entry_type = EntryType.LOOKUP
    covered = False  # an act reported every relevant column since the last Flag

    def should_act(self, log: SharedLog, sources: SourceBundle, round_idx: int) -> bool:
        return not self.covered and any(table.header for table in sources.tables)

    def notify_flag(self) -> None:
        """A verification Flag re-opens coverage for the re-engagement round."""
        self.covered = False

    def prepare(self, log: SharedLog, sources: SourceBundle) -> tuple[str, Cite]:
        self.covered = True
        return super().prepare(log, sources)

    def _show(self, sources: SourceBundle, question: str):
        # One choice of slices serves the blocks and the anchors.
        slices = [
            select_table_slice(table, question, self.views.table(table))
            for table in sources.tables
        ]
        blocks = _table_blocks(sources.tables, slices)
        return blocks, lambda reply: extract_table_anchors(reply, sources, question, slices)


class ContextAgent(_RetrievalAgent):
    """Quotes or paraphrases passage text; runs first round or on named gaps."""

    role = AgentRole.CONTEXT
    author = CONTEXT_AGENT
    entry_type = EntryType.QUOTE

    def should_act(self, log: SharedLog, sources: SourceBundle, round_idx: int) -> bool:
        if not sources.passages:
            return False
        if round_idx == 0:
            return True
        return _gap_named(log)

    def _show(self, sources: SourceBundle, question: str):
        # One ranking serves the blocks and the spans.
        chosen = _passages_chosen(sources, question)
        blocks = _passage_blocks(chosen, question, self.views)
        return blocks, lambda reply: extract_doc_spans(reply, chosen, self.views)


class VisualAgent(_RetrievalAgent):
    """Restates pre-extracted image text; fires only when images matter."""

    role = AgentRole.VISUAL
    author = VISUAL_AGENT
    entry_type = EntryType.VISUAL

    def should_act(self, log: SharedLog, sources: SourceBundle, round_idx: int) -> bool:
        # The question is the log's Query entry, so it is among those searched.
        return bool(sources.images) and any(mentions_image(e.content) for e in log.entries)

    def _show(self, sources: SourceBundle, question: str):
        # One choice of images serves the blocks and the refs.
        shown = _images_shown(question, sources, self.views)
        return _image_blocks(shown), lambda reply: extract_image_refs(reply, shown, self.views)


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


def summarize(log: SharedLog, backend: TextBackend) -> LogEntry | None:
    """A progress Summary or the final Answer, synthesized from the log."""
    prompt = build_prompt(AgentRole.SUMMARIZING, log)
    reply = _generate(log, backend, AgentRole.SUMMARIZING, prompt)
    if not reply.strip():
        logger.debug("Summarizer returned an empty reply")
        return None
    entry_type = EntryType.ANSWER if parse_answer(reply) else EntryType.SUMMARY
    return LogEntry(SUMMARIZING_AGENT, entry_type, reply.strip())


def verification_act(log: SharedLog, backend: TextBackend) -> LogEntry:
    """Verify the latest Answer: Flag on any deterministic finding, else
    defer to the backend verdict.

    Deterministic findings always override a backend OK (they are checked
    first and skip the backend entirely). The backend call is _generate,
    as for every role; if its tries all fail, or the request is refused,
    while the deterministic checks are clean, the verdict fails open to OK
    with a note; arithmetic failures can never be masked this way.
    """
    answer_entry = log.latest(EntryType.ANSWER)
    if answer_entry is None:
        raise ValueError("verification requires a prior Answer entry")
    answer_text = parse_answer(answer_entry.content) or answer_entry.content
    findings = verify_deterministic(log, answer_text)
    if findings:
        return LogEntry(VERIFICATION_AGENT, EntryType.FLAG, flag_content(findings[0]))
    prompt = build_prompt(AgentRole.VERIFICATION, log, answer_text=answer_text)
    try:
        reply = _generate(log, backend, AgentRole.VERIFICATION, prompt)
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


def build_agents(views: SourceViews) -> list:
    """Fresh per-run retrieval agents sharing views, in RETRIEVAL_ROLES order."""
    return [TableAgent(views), ContextAgent(views), VisualAgent(views)]
