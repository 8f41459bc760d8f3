"""Deterministic answer verification over the shared log.

The checks recompute arithmetic claims from Lookup and Visual numerals,
compare unit suffixes, and require every answer numeral to be present in
(or derivable from) evidence entries, and every run applies all of them.
They are exact by construction: an arithmetic lie about a difference of
Lookup values is always flagged, independent of any backend model.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, combinations
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from .log import EntryType, ImageRef, LogEntry, SharedLog, TableAnchor
from .textutil import NumericMention, is_year_like, words


class FindingKind(Enum):
    ARITHMETIC_MISMATCH = "ArithmeticMismatch"
    UNIT_MISMATCH = "UnitMismatch"
    UNSUPPORTED_CLAIM = "UnsupportedClaim"


@dataclass
class Finding:
    kind: FindingKind
    detail: str
    implicated_steps: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.detail:
            raise ValueError("finding detail must be non-empty")


_CONNECTOR = r"(?:of|by|was|is|:)?"

# Each claim kind's phrasing, in the order classify_claim tries them, as
# three patterns built from one stem: anywhere in the answer, right before
# a numeral, and right after one.
_CLAIM_KINDS = {
    kind: (
        re.compile(stem, re.IGNORECASE),
        re.compile(stem + r"\w*\s+" + _CONNECTOR + r"\s*$", re.IGNORECASE),
        re.compile(r"^\s*" + stem, re.IGNORECASE),
    )
    for kind, stem in (
        ("delta", r"(?:increas|decreas|differen|chang|delta|drop|gain|grew|rose|fell|los|declin|shrank)"),
        ("sum", r"(?:total|sum|combined|altogether)"),
        ("ratio", r"(?:ratio|times)"),
    )
}

_WINDOW = 24  # chars of context inspected on each side of a numeral


def classify_claim(text: str, mention: NumericMention) -> str:
    """delta / sum / ratio when a numeral is attached to such phrasing."""
    before = text[max(0, mention.start - _WINDOW) : mention.start]
    after = text[mention.end : mention.end + _WINDOW]
    for kind, (_, re_before, re_after) in _CLAIM_KINDS.items():
        if re_before.search(before) or re_after.search(after):
            return kind
    return "plain"


def _tolerance(reference: float) -> float:
    return 1e-6 * max(1.0, abs(reference))


def _value_match(value: float, refs) -> bool:
    """Whether value is within the tolerance of a ref, or a ref within the
    value's, so that 0-vs-0 style comparisons are symmetric."""
    slack = _tolerance(value)
    return any(abs(value - ref) <= max(_tolerance(ref), slack) for ref in refs)


class _Candidate(NamedTuple):
    value: float
    raw: float
    unit: str  # common explicit unit of the pair, or ""
    steps: tuple[int, ...]


# Lookup and Visual entries supply arithmetic operands (both carry
# extracted data values); Quote numerals stay out so prose numbers cannot
# launder a bad calculation.
_OPERAND_TYPES = (EntryType.LOOKUP, EntryType.VISUAL)


def _cited_ids(entry: LogEntry) -> set[str]:
    """The ids, lowercased, of the tables and images the entry cites."""
    return {
        p.table_id.lower() if isinstance(p, TableAnchor) else p.image_id.lower()
        for p in entry.provenance
        if isinstance(p, (TableAnchor, ImageRef))
    }


@lru_cache(maxsize=1024)
def _label_re(label: str) -> re.Pattern | None:
    """What an id's occurrences in a lowered text match: its `textutil.words`
    as a run of the text's words, so "figure-2" is one of "Figure 2" and
    "fig. 2" one of "Fig 2". The left edge is tested after the first word,
    so the search looks for that word's text before it tests anything
    else. None for an id with no word, which no text names."""
    parts = words(label)
    if not parts:
        return None
    first, rest = parts[0], "".join(rf"\W+{word}" for word in parts[1:])
    return re.compile(rf"{first}(?<!\w{first}){rest}(?!\w)")


def _label_spans(text: str, ids: set[str]) -> list[tuple[int, int]]:
    """Where text names one of ids (`textutil.names`, with offsets into text).

    The text is lowered as `textutil.words` lowers it, so "İ" reads as "i"
    and a combining dot, and offsets are mapped back to the text's own. A
    span that ends between a lowered İ's two characters ends after the İ.
    """
    lowered = text.lower()
    spans = [
        match.span()
        for label in ids
        if (pattern := _label_re(label)) is not None
        for match in pattern.finditer(lowered)
    ]
    if not spans or len(lowered) == len(text):  # only İ lowers to two characters
        return spans
    ends = list(accumulate(map(len, map(str.lower, text)), initial=0))
    return [(bisect_left(ends, start), bisect_left(ends, end)) for start, end in spans]


def _in_label(mention: NumericMention, spans: list[tuple[int, int]]) -> bool:
    """Whether the numeral overlaps one of the label spans: the 2 of "Figure
    2", and the $4M of an id "$4M-Table" whose span starts at its 4, are
    labels, not values."""
    for start, end in spans:
        if start < mention.end and mention.start < end:
            return True
    return False


def _pair_candidates(operands, op: str) -> list[_Candidate]:
    out = []
    for (a, step_a), (b, step_b) in combinations(operands, 2):
        unit = a.unit if a.unit == b.unit and a.explicit_unit else ""
        if op == "delta":
            out.append(_Candidate(b.value - a.value, b.raw - a.raw, unit, (step_a, step_b)))
        elif op == "sum":
            out.append(_Candidate(a.value + b.value, a.raw + b.raw, unit, (step_a, step_b)))
        elif op == "ratio" and a.value != 0 and b.value != 0:
            out.append(_Candidate(b.value / a.value, b.value / a.value, "", (step_a, step_b)))
            out.append(_Candidate(a.value / b.value, a.value / b.value, "", (step_a, step_b)))
    return out


def _unit_clashes(mention: NumericMention, pool: Iterable[_Candidate]) -> Iterator[_Candidate]:
    """The items of pool whose number is the numeral's as written but whose
    unit differs from its; none when either carries no unit. Ratio
    candidates carry none."""
    if mention.explicit_unit:
        for cand in pool:
            if (
                cand.unit
                and cand.unit != mention.unit
                and abs(mention.raw - cand.raw) <= _tolerance(cand.raw)
            ):
                yield cand


@dataclass
class NumeralAssessment:
    mention: NumericMention
    claim_kind: str
    supported: bool
    finding: Finding | None = None


def assess_answer_numerals(answer_text: str, log: SharedLog) -> list[NumeralAssessment]:
    """Check every answer numeral against evidence and Lookup arithmetic.

    Numerals attached to difference/sum/ratio phrasing are recomputed
    strictly from in-order Lookup operand pairs and are never rescued by a
    coincidental evidence match. Plain numerals must appear in evidence,
    or be derivable when the answer uses such phrasing anywhere. A kind's
    operand pairs are built the first time the answer needs that kind.
    """
    ev_mentions: list[tuple[NumericMention, int]] = []
    operands: list[tuple[NumericMention, int]] = []  # in log order, years and labels excluded
    for entry in log.evidence_entries():
        spans = None
        if entry.entry_type in _OPERAND_TYPES:
            spans = _label_spans(entry.content, _cited_ids(entry))
        for mention in log.numerals(entry.content):
            ev_mentions.append((mention, entry.step))
            if spans is not None and not is_year_like(mention) and not (
                spans and _in_label(mention, spans)
            ):
                operands.append((mention, entry.step))
    built: dict[str, list[_Candidate]] = {}

    def candidates(kind: str) -> list[_Candidate]:
        pairs = built.get(kind)
        if pairs is None:
            pairs = built[kind] = _pair_candidates(operands, kind)
        return pairs

    assessments = []
    for mention in log.numerals(answer_text):
        kind = classify_claim(answer_text, mention)
        pool = candidates(kind) if kind in _CLAIM_KINDS else []
        refs = (cand.value for cand in pool) if pool else chain(
            (ev.value for ev, _ in ev_mentions),
            (
                cand.value
                for op, (anywhere, _, _) in _CLAIM_KINDS.items()
                if anywhere.search(answer_text)
                for cand in candidates(op)
            ),
        )
        finding = None
        if not _value_match(mention.value, refs):
            clashes = _unit_clashes(
                mention,
                pool or (_Candidate(ev.value, ev.raw, ev.unit, (step,)) for ev, step in ev_mentions),
            )
            if pool and (clash := next(clashes, None)) is not None:
                finding = Finding(
                    FindingKind.UNIT_MISMATCH,
                    f"claimed {mention.text} uses unit {mention.unit} but the "
                    f"matching {kind} of Lookup values carries unit {clash.unit}",
                    list(clash.steps),
                )
            elif pool:
                closest = min(pool, key=lambda c: abs(mention.value - c.value))
                finding = Finding(
                    FindingKind.ARITHMETIC_MISMATCH,
                    f"claimed {kind} {mention.text} but Lookup values support "
                    f"{closest.value:g}",
                    sorted({step for _, step in operands}),
                )
            elif clash_steps := sorted({clash.steps[0] for clash in clashes}):
                finding = Finding(
                    FindingKind.UNIT_MISMATCH,
                    f"claimed {mention.text} disagrees in unit with evidence values",
                    clash_steps,
                )
            else:
                finding = Finding(
                    FindingKind.UNSUPPORTED_CLAIM,
                    f"answer numeral {mention.text} appears in no evidence entry",
                )
        assessments.append(NumeralAssessment(mention, kind, finding is None, finding))
    return assessments


def verify_deterministic(log: SharedLog, answer_text: str) -> list[Finding]:
    """All deterministic findings for an answer, in answer order; empty when clean."""
    return [a.finding for a in assess_answer_numerals(answer_text, log) if a.finding]
