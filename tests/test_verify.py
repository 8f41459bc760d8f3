"""Deterministic verifier: arithmetic recomputation, units, support."""

import random

from logboard.verify import (
    _CLAIM_KINDS,
    FindingKind,
    _pair_candidates,
    classify_claim,
    verify_deterministic,
)
from logboard.textutil import parse_numerals

from helpers import GOLDEN_QUESTION, log_with, lookup, quote, visual


def kinds(findings):
    return [f.kind for f in findings]


def test_golden_delta_claim_is_clean():
    log = log_with(
        GOLDEN_QUESTION,
        lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1)."),
        quote("The revenue increase in 2019 was primarily due to higher sales volume."),
    )
    assert verify_deterministic(log, "$5M increase, due to higher sales volume.") == []


def test_wrong_delta_flagged():
    log = log_with(
        GOLDEN_QUESTION,
        lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1)."),
    )
    findings = verify_deterministic(log, "$6M increase, due to higher sales volume.")
    assert kinds(findings) == [FindingKind.ARITHMETIC_MISMATCH]
    assert findings[0].implicated_steps == [1]


def test_unsupported_numeral_flagged():
    log = log_with("What share grew?", lookup("The table lists a share of 17."))
    findings = verify_deterministic(log, "Answer is 42%.")
    assert kinds(findings) == [FindingKind.UNSUPPORTED_CLAIM]


def test_plain_numeral_present_in_evidence_is_clean():
    log = log_with("Revenue in 2019?", lookup("Revenue in 2019 was $55M."))
    assert verify_deterministic(log, "$55M.") == []


def test_delta_attachment_not_rescued_by_coincidental_evidence():
    # Lookup values 3 and 4; claimed delta 3 equals a lookup value but not 4-3.
    log = log_with(
        "How much did it change?",
        lookup("Metric alpha was 3 in the first period."),
        lookup("Metric alpha was 4 in the second period."),
    )
    findings = verify_deterministic(log, "The value changed by 3.")
    assert kinds(findings) == [FindingKind.ARITHMETIC_MISMATCH]
    assert sorted(findings[0].implicated_steps) == [1, 2]


def test_delta_direction_is_order_sensitive():
    log = log_with(
        "How much did it change?",
        lookup("Metric alpha was 5 in the first period."),
        lookup("Metric alpha was 4 in the second period."),
    )
    assert verify_deterministic(log, "The value changed by -1.") == []
    assert kinds(verify_deterministic(log, "The value changed by 1.")) == [
        FindingKind.ARITHMETIC_MISMATCH
    ]


def test_small_grid_soundness():
    rng = random.Random(5)
    for _ in range(60):
        a, b = rng.randint(1, 20), rng.randint(1, 20)
        d = b - a + rng.randint(-2, 2)
        log = log_with(
            "How much did metric alpha change between the periods?",
            lookup(f"Metric alpha was {a} in the first period."),
            lookup(f"Metric alpha was {b} in the second period."),
        )
        findings = verify_deterministic(log, f"The value changed by {d}.")
        if d == b - a:
            assert findings == [], (a, b, d)
        else:
            assert kinds(findings) == [FindingKind.ARITHMETIC_MISMATCH], (a, b, d)


def test_sum_claims():
    log = log_with(
        "What was the combined revenue?",
        lookup("Revenue was $50M in segment one."),
        lookup("Revenue was $55M in segment two."),
    )
    assert verify_deterministic(log, "A combined total of $105M.") == []
    assert kinds(verify_deterministic(log, "A combined total of $104M.")) == [
        FindingKind.ARITHMETIC_MISMATCH
    ]


def test_unit_mismatch_on_delta():
    log = log_with(
        "How much did revenue increase?",
        lookup("Revenue was $50M then $55M."),
    )
    findings = verify_deterministic(log, "An increase of $5B.")
    assert kinds(findings) == [FindingKind.UNIT_MISMATCH]


def test_unit_mismatch_on_plain_value():
    log = log_with("Revenue now?", lookup("Revenue reached $55M this year."))
    findings = verify_deterministic(log, "Answer: $55B.")
    assert kinds(findings) == [FindingKind.UNIT_MISMATCH]
    assert findings[0].implicated_steps == [1]


def test_years_excluded_from_arithmetic_operands():
    # 2019-2018 = 1 must not justify a claimed delta of 1.
    log = log_with(
        "How much did it grow from 2018 to 2019?",
        lookup("In 2018 the value was 10; in 2019 it was 14."),
    )
    findings = verify_deterministic(log, "It grew by 1 between the years.")
    assert kinds(findings) == [FindingKind.ARITHMETIC_MISMATCH]
    assert verify_deterministic(log, "It grew by 4 between the years.") == []


def test_dollar_amounts_in_the_year_range_are_operands():
    log = log_with(
        "How much did revenue change?",
        lookup("Revenue was $1950 in 2018 and $2000 in 2019."),
    )
    assert verify_deterministic(log, "Revenue saw an increase of $50.") == []
    findings = verify_deterministic(log, "Revenue saw an increase of $60.")
    assert kinds(findings) == [FindingKind.ARITHMETIC_MISMATCH]
    assert findings[0].implicated_steps == [1]


def test_a_cited_table_or_figure_label_is_not_an_operand():
    # With the figure's label 2 as an operand, $129M - 2 falls within the
    # tolerance of $129M, so a wrong delta would pass.
    table = lookup(
        "Rudedan revenue was $129M in 2018 and $135M in 2019, per the revenue table.",
        table_id="Table 4",
    )
    figure = visual(
        "Figure 2 shows Rudedan revenue of $129M in 2018 and $135M in 2019.",
        image_id="Figure 2",
    )
    for entries in ((table,), (table, figure)):
        log = log_with("How did Rudedan revenue change?", *entries)
        for wrong in ("$129M increase.", "$135M increase."):
            assert kinds(verify_deterministic(log, wrong)) == [FindingKind.ARITHMETIC_MISMATCH]
        assert verify_deterministic(log, "$6M increase.") == []
    # The label is matched as a whole word in any case, and stays evidence.
    log = log_with(
        "What does table 4 show?",
        lookup("TABLE 4 lists revenue of $129M in 2018 and $135M in 2019.", table_id="Table 4"),
    )
    assert kinds(verify_deterministic(log, "$129M increase.")) == [FindingKind.ARITHMETIC_MISMATCH]
    assert verify_deterministic(log, "It is table 4.") == []
    # Only a whole-word occurrence of the label holds one: not "Table 41",
    # nor "Subtable 4".
    for source, total in (("Table 41", "44"), ("Subtable 4", "7"), ("Table 4", "7")):
        log = log_with(
            "What was the total?",
            lookup(f"It was 3 in 2018 and 5 in 2019 ({source}).", table_id="Table 4"),
        )
        findings = verify_deterministic(log, f"A total of {total}.")
        assert kinds(findings) == ([FindingKind.ARITHMETIC_MISMATCH] if source == "Table 4" else [])


def test_derivation_rescues_unattached_numeral():
    log = log_with(
        GOLDEN_QUESTION,
        lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M."),
    )
    # "$5M" is not adjacent to the keyword here, but the answer talks about
    # an increase and the value is derivable.
    assert verify_deterministic(log, "The increase amounted to exactly $5M.") == []


def test_visual_numerals_count_as_evidence():
    log = log_with(
        "What does the chart show for 2021?",
        visual("The bar chart shows revenue in 2020 as $5.2M and in 2021 as $6.1M."),
    )
    assert verify_deterministic(log, "Answer: $6.1M.") == []


def test_classify_claim_patterns():
    text = "It increased by $5M from $50M to $55M."
    mentions = parse_numerals(text)
    assert classify_claim(text, mentions[0]) == "delta"
    assert classify_claim(text, mentions[1]) == "plain"
    text2 = "A $7M drop in sales."
    assert classify_claim(text2, parse_numerals(text2)[0]) == "delta"
    text3 = "The ratio was 2 to 1."
    assert classify_claim(text3, parse_numerals(text3)[0]) == "ratio"


def test_every_claim_kind_has_pairs_and_phrasings():
    operands = [(mention, step) for step, mention in enumerate(parse_numerals("3 and 5"), 1)]
    for kind, (anywhere, _, _) in _CLAIM_KINDS.items():
        assert _pair_candidates(operands, kind), kind
        stems = anywhere.pattern.removeprefix("(?:").removesuffix(")").split("|")
        for stem in stems:
            text = f"A {stem} of 7."
            assert classify_claim(text, parse_numerals(text)[0]) == kind, text


def test_quote_near_miss_is_not_flagged():
    # Only answer numerals are checked: a Quote that disagrees with a Lookup
    # the answer does not use, or an answer naming a gap, is no finding.
    log = log_with(
        "Revenue?",
        lookup("Revenue in 2019 was $55M."),
        quote("A footnote puts the 2019 figure at $56M."),
    )
    assert verify_deterministic(log, "Answer: $55M.") == []
    assert verify_deterministic(log, "Answer: $55M; the CEO name is missing.") == []
