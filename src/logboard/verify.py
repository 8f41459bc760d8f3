"""Deterministic answer verification over the shared log.

The checks recompute arithmetic claims from Lookup and Visual numerals,
compare unit suffixes, and require every answer numeral to be present in
(or derivable from) evidence entries, and every run applies all of them.
They are exact by construction: an arithmetic lie about a difference of
Lookup values is always flagged, independent of any backend model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .log import EntryType, SharedLog
from .textutil import NumericMention, is_year_like


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


_DIFF_STEM = r"(?:increas|decreas|differen|chang|delta|drop|gain|grew|rose|fell|los|declin|shrank)"
_SUM_STEM = r"(?:total|sum|combined|altogether)"
_RATIO_STEM = r"(?:ratio|times)"

_CONNECTOR = r"(?:of|by|was|is|:)?"

_DIFF_ANY_RE = re.compile(_DIFF_STEM, re.IGNORECASE)
_SUM_ANY_RE = re.compile(_SUM_STEM, re.IGNORECASE)
_RATIO_ANY_RE = re.compile(_RATIO_STEM, re.IGNORECASE)


def _attach_res(stem: str) -> tuple[re.Pattern, re.Pattern]:
    before = re.compile(stem + r"\w*\s+" + _CONNECTOR + r"\s*$", re.IGNORECASE)
    after = re.compile(r"^\s*" + stem, re.IGNORECASE)
    return before, after


_DIFF_BEFORE, _DIFF_AFTER = _attach_res(_DIFF_STEM)
_SUM_BEFORE, _SUM_AFTER = _attach_res(_SUM_STEM)
_RATIO_BEFORE, _RATIO_AFTER = _attach_res(_RATIO_STEM)

_WINDOW = 24  # chars of context inspected on each side of a numeral


def classify_claim(text: str, mention: NumericMention) -> str:
    """delta / sum / ratio when a numeral is attached to such phrasing."""
    before = text[max(0, mention.start - _WINDOW) : mention.start]
    after = text[mention.end : mention.end + _WINDOW]
    for kind, re_before, re_after in (
        ("delta", _DIFF_BEFORE, _DIFF_AFTER),
        ("sum", _SUM_BEFORE, _SUM_AFTER),
        ("ratio", _RATIO_BEFORE, _RATIO_AFTER),
    ):
        if re_before.search(before) or re_after.search(after):
            return kind
    return "plain"


def _tolerance(reference: float) -> float:
    return 1e-6 * max(1.0, abs(reference))


@dataclass(frozen=True)
class _Candidate:
    value: float
    raw: float
    unit: str  # common explicit unit of the pair, or ""
    steps: tuple[int, ...]


# Lookup and Visual entries supply arithmetic operands (both carry
# extracted data values); Quote numerals stay out so prose numbers cannot
# launder a bad calculation.
_OPERAND_TYPES = (EntryType.LOOKUP, EntryType.VISUAL)


def _pair_candidates(operands, op: str) -> list[_Candidate]:
    out = []
    for i in range(len(operands)):
        for j in range(i + 1, len(operands)):
            (a, step_a), (b, step_b) = operands[i], operands[j]
            unit = a.unit if a.unit == b.unit and a.explicit_unit else ""
            if op == "delta":
                out.append(_Candidate(b.value - a.value, b.raw - a.raw, unit, (step_a, step_b)))
            elif op == "sum":
                out.append(_Candidate(a.value + b.value, a.raw + b.raw, unit, (step_a, step_b)))
            elif op == "ratio" and a.value != 0 and b.value != 0:
                out.append(_Candidate(b.value / a.value, b.value / a.value, "", (step_a, step_b)))
                out.append(_Candidate(a.value / b.value, a.value / b.value, "", (step_a, step_b)))
    return out


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
    or be derivable when the answer uses such phrasing anywhere.
    """
    ev_mentions: list[tuple[NumericMention, int]] = []
    operands: list[tuple[NumericMention, int]] = []  # in log order, years excluded
    for entry in log.evidence_entries():
        is_operand = entry.entry_type in _OPERAND_TYPES
        for mention in log.numerals(entry.content):
            ev_mentions.append((mention, entry.step))
            if is_operand and not is_year_like(mention):
                operands.append((mention, entry.step))
    candidates = {
        op: _pair_candidates(operands, op) for op in ("delta", "sum", "ratio")
    }
    operand_steps = sorted({step for _, step in operands})

    has_phrase = {
        "delta": bool(_DIFF_ANY_RE.search(answer_text)),
        "sum": bool(_SUM_ANY_RE.search(answer_text)),
        "ratio": bool(_RATIO_ANY_RE.search(answer_text)),
    }

    def value_match(value: float, pool) -> tuple[bool, tuple[int, ...]]:
        for item in pool:
            ref = item.value if isinstance(item, _Candidate) else item[0].value
            if abs(value - ref) <= _tolerance(ref):
                steps = item.steps if isinstance(item, _Candidate) else (item[1],)
                return True, steps
            # Also accept the claim-side tolerance so 0-vs-0 style
            # comparisons are symmetric.
            if abs(value - ref) <= _tolerance(value):
                return True, item.steps if isinstance(item, _Candidate) else (item[1],)
        return False, ()

    assessments = []
    for mention in log.numerals(answer_text):
        kind = classify_claim(answer_text, mention)
        assessment = NumeralAssessment(mention, kind, supported=True)
        if kind in ("delta", "sum", "ratio") and candidates[kind]:
            ok, _ = value_match(mention.value, candidates[kind])
            if not ok:
                unit_clash = None
                if mention.explicit_unit and kind != "ratio":
                    for cand in candidates[kind]:
                        if (
                            cand.unit
                            and cand.unit != mention.unit
                            and abs(mention.raw - cand.raw) <= _tolerance(cand.raw)
                        ):
                            unit_clash = cand
                            break
                if unit_clash is not None:
                    assessment.supported = False
                    assessment.finding = Finding(
                        FindingKind.UNIT_MISMATCH,
                        f"claimed {mention.text} uses unit {mention.unit} but the "
                        f"matching {kind} of Lookup values carries unit {unit_clash.unit}",
                        list(unit_clash.steps),
                    )
                else:
                    closest = min(
                        candidates[kind], key=lambda c: abs(mention.value - c.value)
                    )
                    assessment.supported = False
                    assessment.finding = Finding(
                        FindingKind.ARITHMETIC_MISMATCH,
                        f"claimed {kind} {mention.text} but Lookup values support "
                        f"{closest.value:g}",
                        operand_steps,
                    )
            assessments.append(assessment)
            continue

        ok, _ = value_match(mention.value, ev_mentions)
        if ok:
            assessments.append(assessment)
            continue
        derived = False
        for op in ("delta", "sum", "ratio"):
            if has_phrase[op] and candidates[op]:
                if value_match(mention.value, candidates[op])[0]:
                    derived = True
                    break
        if derived:
            assessments.append(assessment)
            continue
        clash_steps: list[int] = []
        if mention.explicit_unit:
            for ev, step in ev_mentions:
                if (
                    ev.explicit_unit
                    and ev.unit != mention.unit
                    and abs(mention.raw - ev.raw) <= _tolerance(ev.raw)
                ):
                    clash_steps.append(step)
        assessment.supported = False
        if clash_steps:
            assessment.finding = Finding(
                FindingKind.UNIT_MISMATCH,
                f"claimed {mention.text} disagrees in unit with evidence values",
                sorted(set(clash_steps)),
            )
        else:
            assessment.finding = Finding(
                FindingKind.UNSUPPORTED_CLAIM,
                f"answer numeral {mention.text} appears in no evidence entry",
            )
        assessments.append(assessment)
    return assessments


def verify_deterministic(log: SharedLog, answer_text: str) -> list[Finding]:
    """All deterministic findings for an answer, in answer order; empty when clean."""
    return [a.finding for a in assess_answer_numerals(answer_text, log) if a.finding]
