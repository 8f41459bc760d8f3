"""The verifier builds operand pairs per claim kind, only when an answer
needs that kind; its findings equal those of the eager reference below,
which builds every kind's pairs before it reads the answer."""

from __future__ import annotations

import re
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

import logboard.verify as verify
from logboard.log import EntryType
from logboard.textutil import is_year_like
from logboard.verify import (
    Finding,
    FindingKind,
    NumeralAssessment,
    _tolerance,
    assess_answer_numerals,
    classify_claim,
    verify_deterministic,
)

from helpers import GOLDEN_ANSWER, log_with, lookup, quote, run_golden, visual

# --- the eager reference -----------------------------------------------------

# Literal copies of the verifier's claim stems, so the reference does not
# read the table it checks.
_DIFF_ANY_RE = re.compile(
    r"(?:increas|decreas|differen|chang|delta|drop|gain|grew|rose|fell|los|declin|shrank)",
    re.IGNORECASE,
)
_SUM_ANY_RE = re.compile(r"(?:total|sum|combined|altogether)", re.IGNORECASE)
_RATIO_ANY_RE = re.compile(r"(?:ratio|times)", re.IGNORECASE)


@dataclass(frozen=True)
class _Candidate:
    value: float
    raw: float
    unit: str
    steps: tuple[int, ...]


def _pair_candidates(operands, op):
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


def reference_assess(answer_text, log):
    ev_mentions = []
    operands = []
    for entry in log.evidence_entries():
        is_operand = entry.entry_type in (EntryType.LOOKUP, EntryType.VISUAL)
        for mention in log.numerals(entry.content):
            ev_mentions.append((mention, entry.step))
            if is_operand and not is_year_like(mention):
                operands.append((mention, entry.step))
    candidates = {op: _pair_candidates(operands, op) for op in ("delta", "sum", "ratio")}
    operand_steps = sorted({step for _, step in operands})
    has_phrase = {
        "delta": bool(_DIFF_ANY_RE.search(answer_text)),
        "sum": bool(_SUM_ANY_RE.search(answer_text)),
        "ratio": bool(_RATIO_ANY_RE.search(answer_text)),
    }

    def value_match(value, pool):
        for item in pool:
            ref = item.value if isinstance(item, _Candidate) else item[0].value
            if abs(value - ref) <= _tolerance(ref):
                return True, item.steps if isinstance(item, _Candidate) else (item[1],)
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
                assessment.supported = False
                if unit_clash is not None:
                    assessment.finding = Finding(
                        FindingKind.UNIT_MISMATCH,
                        f"claimed {mention.text} uses unit {mention.unit} but the "
                        f"matching {kind} of Lookup values carries unit {unit_clash.unit}",
                        list(unit_clash.steps),
                    )
                else:
                    closest = min(candidates[kind], key=lambda c: abs(mention.value - c.value))
                    assessment.finding = Finding(
                        FindingKind.ARITHMETIC_MISMATCH,
                        f"claimed {kind} {mention.text} but Lookup values support "
                        f"{closest.value:g}",
                        operand_steps,
                    )
            assessments.append(assessment)
            continue
        if value_match(mention.value, ev_mentions)[0]:
            assessments.append(assessment)
            continue
        if any(
            has_phrase[op] and candidates[op] and value_match(mention.value, candidates[op])[0]
            for op in ("delta", "sum", "ratio")
        ):
            assessments.append(assessment)
            continue
        clash_steps = []
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


# --- generated logs and answers ---------------------------------------------

UNITS = ("", "M", "K", "%", " million")


@st.composite
def amounts(draw, unit):
    """(text, mantissa, unit) of an amount: an integer or one-decimal
    mantissa, sometimes with "$"."""
    mantissa = draw(st.one_of(st.integers(0, 3000), st.integers(1, 999).map(lambda n: n / 10)))
    dollar = "$" if draw(st.booleans()) and unit != "%" else ""
    return f"{dollar}{mantissa:g}{unit}", mantissa, unit


def numeral(value: float, unit: str) -> str:
    body = f"{abs(value):.9f}".rstrip("0").rstrip(".")
    return ("-" if value < 0 else "") + body + unit


@st.composite
def evidence(draw):
    """One Lookup, Visual or Quote over two amounts and their years; the
    amounts share a unit half the time."""
    unit_a = draw(st.sampled_from(UNITS))
    unit_b = unit_a if draw(st.booleans()) else draw(st.sampled_from(UNITS))
    (text_a, raw_a, unit_a), (text_b, raw_b, unit_b) = draw(amounts(unit_a)), draw(amounts(unit_b))
    year = draw(st.integers(1990, 2030))
    content = f"Metric was {text_a} in {year} and {text_b} in {year + 1}."
    make = draw(st.sampled_from((lookup, lookup, visual, quote)))
    return make(content), [(raw_a, unit_a), (raw_b, unit_b)]


CLAIM_PHRASES = {
    "delta": ("an increase of {}", "a {} drop", "changed by {}"),
    "sum": ("a total of {}", "{} combined"),
    "ratio": ("{} times", "a ratio of {}"),
    "plain": ("It was {}.", "The increase amounted to exactly {}.", "In total it reached {}."),
}


@st.composite
def answers(draw, values):
    """One to three claims, each exact (from a pair of the values, or one
    value) or shifted off it, and phrased as any kind of claim."""
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(CLAIM_PHRASES)))
        phrasing = draw(st.sampled_from(sorted(CLAIM_PHRASES)))
        (a, unit_a), (b, unit_b) = draw(st.sampled_from(values)), draw(st.sampled_from(values))
        value = {"delta": b - a, "sum": a + b, "ratio": b / a if a else b, "plain": a}[kind]
        unit = draw(st.sampled_from((unit_a, unit_b, "", "K", "M")))
        if draw(st.booleans()):
            value += draw(st.sampled_from((1, -1, 0.5, 2018)))
        phrase = draw(st.sampled_from(CLAIM_PHRASES[phrasing]))
        clauses.append(phrase.format(numeral(value, "" if kind == "ratio" else unit)))
    return " ".join(clauses)


@st.composite
def logs_and_answers(draw):
    entries = draw(st.lists(evidence(), min_size=1, max_size=4))
    values = [value for _, pair in entries for value in pair]
    log = log_with("How did the metric change?", *(entry for entry, _ in entries))
    return log, draw(answers(values))


def outcome(assessments):
    return [
        (a.mention, a.claim_kind, a.supported)
        + ((a.finding.kind, a.finding.detail, a.finding.implicated_steps) if a.finding else ())
        for a in assessments
    ]


@settings(max_examples=400, deadline=None)
@given(logs_and_answers())
def test_findings_equal_the_eager_reference(case):
    log, answer = case
    expected = outcome(reference_assess(answer, log))
    assert outcome(assess_answer_numerals(answer, log)) == expected
    assert [
        (f.kind, f.detail, f.implicated_steps) for f in verify_deterministic(log, answer)
    ] == [finding[3:] for finding in expected if len(finding) > 3]


def test_pairs_are_built_only_for_the_kinds_an_answer_needs(monkeypatch):
    built = []
    original = verify._pair_candidates

    def recording(operands, op):
        built.append(op)
        return original(operands, op)

    monkeypatch.setattr(verify, "_pair_candidates", recording)
    result = run_golden()
    assert result.final_answer == GOLDEN_ANSWER
    assert built == ["delta"]  # one verification, one claimed delta
    log = result.log
    built.clear()
    assert verify_deterministic(log, "Revenue was $55M in 2019.") == []
    assert built == []  # a plain numeral found in evidence
    assert verify_deterministic(log, "The total grew to $105M.") == []
    assert built == ["delta", "sum"]  # rescued by a phrase: only the kinds it names
