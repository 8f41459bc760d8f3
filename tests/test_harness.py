"""Harness: fault mutations, metrics oracles, bootstrap, benchmark runs."""

import json
import math
import random

import numpy as np
import pytest

import logboard.retrieval
from logboard import harness, scheduler
from logboard.backends import ScriptedBackend, TransportError
from logboard.harness import (
    BenchmarkRecord,
    FaultLabel,
    FaultSpec,
    FaultType,
    bootstrap_ci,
    catch_and_repair,
    exact_match,
    inject_faults,
    load_benchmark,
    log_groundedness,
    perturb_numeral,
    rouge,
    run_benchmark,
)
from logboard.log import (
    VERIFICATION_AGENT,
    EntryType,
    LogEntry,
    TableAnchor,
    load_trace,
)
from logboard.retrieval import retrieve
from logboard.scheduler import SchedulerConfig
from logboard.sources import Image, SourceBundle, Table
from logboard.textutil import numeral_values, parse_numerals

from helpers import (
    FIXTURES,
    GOLDEN_ANSWER,
    delta_record,
    log_with,
    lookup,
    quote,
    run_golden,
)


# --- fault injection ----------------------------------------------------------

def test_perturb_numeral_one_unit():
    rng = random.Random(3)
    out = perturb_numeral("Revenue was $55M this year.", rng)
    assert out is not None
    new_text, old, new = out
    old_val = 55.0
    new_val = float(new.strip("$M"))
    assert abs(new_val - old_val) == 1.0
    assert "$" in new and new.endswith("M")


def test_perturb_keeps_decimals_and_commas():
    rng = random.Random(1)
    new_text, old, new = perturb_numeral("The chart shows 5.2 units.", rng)
    assert new in ("6.2", "4.2")
    new_text, old, new = perturb_numeral("Total of 5,000,000 units.", rng)
    assert new in ("5,000,001", "4,999,999")


def test_perturb_keeps_one_sign_below_one():
    # A negative numeral below 1 used to gain a second minus ("--0.5%").
    for text, expected in (("-0.5%", "-1.5%"), ("-$0.25M", "-$1.25M"), ("−0.3 million", "−1.3 million")):
        for seed in range(8):
            new_text, old, new = perturb_numeral(f"Margin was {text}.", random.Random(seed))
            assert (old, new) == (text, expected)
            assert new_text == f"Margin was {expected}."


def test_perturb_steps_away_from_zero():
    # A shift that would land on zero used to write "-1" as "-0".
    for text, expected in (("-1", "-2"), ("−$1M", "−$2M"), ("+1", "+2"), ("1%", "2%"), ("-1.0", "-2.0")):
        for seed in range(21):
            new_text, old, new = perturb_numeral(f"Margin was {text}.", random.Random(seed))
            assert (old, new) == (text, expected)
            assert new_text == f"Margin was {expected}."


def test_injection_is_seed_deterministic():
    bundle = SourceBundle(
        tables=[Table("t1", ["row", "v"], [[chr(65 + i), f"${10 + i}M"] for i in range(10)])]
    )
    spec = FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=0.3, seed=42)
    first = inject_faults(bundle, spec)
    second = inject_faults(bundle, spec)
    assert len(first[1]) == math.ceil(0.3 * 10)
    assert [l.to_dict() for l in first[1]] == [l.to_dict() for l in second[1]]
    assert first[0].tables[0].rows == second[0].tables[0].rows
    # The input bundle is left as it was.
    assert bundle.tables[0].rows == [[chr(65 + i), f"${10 + i}M"] for i in range(10)]


def test_missing_row_deletes_rows():
    bundle = SourceBundle(
        tables=[Table("t1", ["y", "v"], [["2018", "1"], ["2019", "2"], ["2020", "3"]])]
    )
    corrupted, labels = inject_faults(bundle, FaultSpec(FaultType.MISSING_ROW, 0.34, seed=2))
    assert len(labels) == math.ceil(0.34 * 3) == 2
    assert len(corrupted.tables[0].rows) == 1
    assert bundle.tables[0].rows != corrupted.tables[0].rows


def test_row_off_by_one_rotates_table():
    bundle = SourceBundle(tables=[Table("t1", ["y", "v"], [["2018", "1"], ["2019", "2"]])])
    corrupted, labels = inject_faults(bundle, FaultSpec(FaultType.ROW_OFF_BY_ONE, 1.0, seed=0))
    assert corrupted.tables[0].rows == [["2019", "2"], ["2018", "1"]]
    assert labels[0].target == "t1"


def test_ocr_misread_swaps_numerals():
    bundle = SourceBundle(images=[Image("bar", caption="chart", ocr_text="2020 5.2 2021 6.1")])
    corrupted, labels = inject_faults(bundle, FaultSpec(FaultType.OCR_MISREAD, 1.0, seed=5))
    assert corrupted.images[0].ocr_text != "2020 5.2 2021 6.1"
    assert sorted(corrupted.images[0].ocr_text.split()) == sorted("2020 5.2 2021 6.1".split())


def test_run_benchmark_refuses_source_faults():
    records, script = _delta_suite(2)
    with pytest.raises(ValueError, match="source-level faults"):
        run_benchmark(
            records,
            backend_factory=lambda: ScriptedBackend(script),
            fault_spec=FaultSpec(FaultType.MISSING_ROW, 0.5),
        )


def test_zero_eligible_targets_is_an_error():
    no_numbers = SourceBundle(tables=[Table("t1", ["name"], [["alpha"], ["beta"]])])
    with pytest.raises(ValueError, match="zero targets"):
        inject_faults(no_numbers, FaultSpec(FaultType.ARITHMETIC_CORRUPTION, 0.5))
    with pytest.raises(ValueError, match="zero targets"):
        inject_faults(SourceBundle(), FaultSpec(FaultType.OCR_MISREAD, 0.5))


def test_rate_validation():
    with pytest.raises(ValueError):
        FaultSpec(FaultType.MISSING_ROW, 0.0)
    with pytest.raises(ValueError):
        FaultSpec(FaultType.MISSING_ROW, 1.5)


# --- metric oracles -------------------------------------------------------------

def test_exact_match_numeric_canonicalization():
    assert exact_match("$5M", ["5 million"])
    assert exact_match("42", ["42"])
    assert not exact_match("higher sales volume", ["lower sales volume"])
    assert exact_match("The answer is 5,000,000", ["the answer is $5M"])
    assert exact_match("A $5M increase.", ["$5m increase"])


def test_exact_match_symmetry():
    pairs = [("$5M", "5 million"), ("abc", "abd"), ("42%", "42 percent")]
    for a, b in pairs:
        assert exact_match(a, [b]) == exact_match(b, [a])


def test_rouge_bounds_and_cases():
    full = rouge("identical words here", "identical words here")
    assert full == {"rouge1": 1.0, "rouge2": 1.0, "rougeL": 1.0}
    none = rouge("alpha beta", "gamma delta")
    assert none == {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}
    # LCS of "a b c d" vs "a b x d" is 3; F1 = 2*(3/4)*(3/4)/(3/2) = 0.75.
    scores = rouge("a b c d", "a b x d")
    assert scores["rougeL"] == pytest.approx(0.75)
    assert scores["rouge1"] == pytest.approx(0.75)
    assert scores["rouge2"] >= 0.0
    assert scores["rouge1"] >= scores["rouge2"]


def test_rouge1_never_below_rouge2_random():
    rng = random.Random(11)
    vocab = list("abcdef")
    for _ in range(100):
        a = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        b = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 8)))
        scores = rouge(a, b)
        assert 0.0 <= scores["rouge2"] <= scores["rouge1"] <= 1.0


def test_groundedness_golden_trace_is_fully_supported():
    result = run_golden()
    assert log_groundedness(GOLDEN_ANSWER, result.log) == 1.0


def test_groundedness_drops_after_unsupported_numeral():
    result = run_golden()
    tainted = GOLDEN_ANSWER + " Margin was 99%."
    assert log_groundedness(tainted, result.log) < 1.0


def test_groundedness_hand_computed_fractions():
    log = log_with(
        "Who led Acme and what was 2019 revenue?",
        lookup("Acme revenue in 2019 was $55M (from Table 1)."),
        quote("Jane Doe served as chief executive through 2019."),
    )
    # Units: numeral 55M (supported), numeral 7M (not), span "Jane Doe"
    # (supported), span "Paris" (not) -> 2/4.
    answer = "Jane Doe took revenue to $55M; the Paris office added $7M."
    assert log_groundedness(answer, log) == pytest.approx(2 / 4)
    # 55M supported, span "Acme" supported -> 2/2.
    assert log_groundedness("Acme made $55M.", log) == pytest.approx(1.0)
    # One unsupported numeral only -> 0/1.
    assert log_groundedness("It was 12%.", log) == 0.0


def test_groundedness_no_checkable_units_scores_one():
    log = log_with("Did it grow?", lookup("value 5 here (t)."))
    assert log_groundedness("yes, it grew somewhat", log) == 1.0


def test_groundedness_rejects_empty_answer():
    with pytest.raises(ValueError):
        log_groundedness("  ", run_golden().log)


# --- catch and repair -----------------------------------------------------------

def _labels(n):
    return [
        FaultLabel(i, FaultType.ARITHMETIC_CORRUPTION, f"was ${50+i}M", f"was ${51+i}M")
        for i in range(n)
    ]


def test_catch_rate_twenty_of_fortyfive():
    labels = _labels(45)
    log = log_with("q?")
    flagged = ",".join(str(i) for i in range(20))
    log.append(
        LogEntry(VERIFICATION_AGENT, EntryType.FLAG, f"Flagged ArithmeticMismatch: off [steps: {flagged}]")
    )
    outcome = catch_and_repair(labels, log, final_answer_ok=False)
    assert outcome.catch_rate == pytest.approx(20 / 45, abs=1e-4)
    assert round(outcome.catch_rate, 3) == 0.444
    assert outcome.repair_rate == 0.0


def test_zero_flags_zero_rates():
    log = log_with("q?")
    outcome = catch_and_repair(_labels(5), log, final_answer_ok=True)
    assert (outcome.catch_rate, outcome.repair_rate) == (0.0, 0.0)


def test_oracle_verifier_catches_everything_exactly():
    labels = _labels(9)
    log = log_with("q?")
    all_steps = ",".join(str(label.target) for label in labels)
    log.append(
        LogEntry(VERIFICATION_AGENT, EntryType.FLAG, f"Flagged ArithmeticMismatch: all [steps: {all_steps}]")
    )
    assert catch_and_repair(labels, log, final_answer_ok=False).catch_rate == 1.0


def test_repair_requires_restoration_and_verified_end():
    label = FaultLabel(1, FaultType.ARITHMETIC_CORRUPTION, "Revenue was $55M.", "Revenue was $56M.")
    log = log_with(
        "q?",
        lookup("Revenue was $56M."),
    )
    log.append(LogEntry(VERIFICATION_AGENT, EntryType.FLAG, "Flagged ArithmeticMismatch: bad [steps: 1]"))
    log.append(lookup("Audited figure: revenue was $55M after all."))
    caught_only = catch_and_repair([label], log, final_answer_ok=False)
    assert caught_only.catch_rate == 1.0 and caught_only.repair_rate == 0.0
    repaired = catch_and_repair([label], log, final_answer_ok=True)
    assert repaired.repair_rate == 1.0


def test_source_id_targets_catch_via_flag_text():
    label = FaultLabel("Table 7", FaultType.MISSING_ROW, "2019 | 55", "<row 1 deleted>")
    log = log_with("q?")
    log.append(
        LogEntry(VERIFICATION_AGENT, EntryType.FLAG, "Flagged MissingItem: Table 7 row absent.")
    )
    assert catch_and_repair([label], log, final_answer_ok=False).catch_rate == 1.0


def test_catch_and_repair_requires_labels():
    with pytest.raises(ValueError):
        catch_and_repair([], log_with("q?"), False)


# --- bootstrap -------------------------------------------------------------------

def test_bootstrap_constant_degenerate():
    assert bootstrap_ci([0.8] * 100) == (0.8, 0.8)


def test_bootstrap_deterministic_by_seed():
    rng = random.Random(2)
    values = [rng.random() for _ in range(50)]
    assert bootstrap_ci(values, seed=7) == bootstrap_ci(values, seed=7)
    assert bootstrap_ci(values, seed=7) != bootstrap_ci(values, seed=8)


def test_bootstrap_contains_mean():
    rng = random.Random(3)
    for _ in range(25):
        values = [rng.random() for _ in range(rng.randint(1, 60))]
        low, high = bootstrap_ci(values, seed=1)
        mean = sum(values) / len(values)
        assert low <= mean + 1e-12 and mean - 1e-12 <= high


def test_bootstrap_matches_normal_approximation_width():
    rng = np.random.default_rng(12)
    values = rng.binomial(1, 0.5, size=100).astype(float)
    low, high = bootstrap_ci(values, resamples=1000, level=0.95, seed=4)
    p_hat = values.mean()
    analytic = 2 * 1.96 * math.sqrt(p_hat * (1 - p_hat) / 100)
    width = high - low
    assert abs(width - analytic) / analytic < 0.25


def test_bootstrap_empty_is_error():
    with pytest.raises(ValueError):
        bootstrap_ci([])


# --- benchmark runner -------------------------------------------------------------

def _delta_suite(n=6):
    values = [(50, 55), (30, 34), (120, 128), (70, 71), (10, 16), (90, 97)]
    records, script = [], {}
    for i in range(n):
        a, b = values[i % len(values)]
        record, s = delta_record(f"Firm{i}", a, b)
        records.append(record)
        script.update(s)
    return records, script


def test_benchmark_all_correct_fixture():
    records, script = _delta_suite(5)
    metrics, reports = run_benchmark(
        records, backend_factory=lambda: ScriptedBackend(script)
    )
    assert metrics.em == 1.0
    assert (metrics.ci_low, metrics.ci_high) == (1.0, 1.0)
    assert metrics.rouge1 == 1.0
    assert metrics.log_groundedness == 1.0
    assert all(r["termination"] == "AnswerVerified" for r in reports)


def test_benchmark_counts_failures_and_completes():
    records, script = _delta_suite(3)
    # One record whose scripted summarizer never answers (and names no gap,
    # so retrieval stays idle and no-progress can trigger).
    broken, _ = delta_record("Silent", 5, 9)
    script["summarizing agent&&Silent"] = "Nothing to conclude so far."
    script["table analyst&&Silent"] = "no relevant info found"
    script["passage reader&&Silent"] = "no relevant info found"
    records.append(broken)
    metrics, reports = run_benchmark(records, backend_factory=lambda: ScriptedBackend(script))
    assert metrics.em == pytest.approx(3 / 4)
    assert reports[-1]["answer"] is None
    assert reports[-1]["termination"] == "NoProgress"


def test_benchmark_metrics_invariants():
    records, script = _delta_suite(4)
    metrics, _ = run_benchmark(records, backend_factory=lambda: ScriptedBackend(script))
    for rate in (metrics.em, metrics.rouge1, metrics.rouge2, metrics.rougeL,
                 metrics.log_groundedness, metrics.catch_rate, metrics.repair_rate):
        assert 0.0 <= rate <= 1.0
    assert metrics.ci_low <= metrics.em <= metrics.ci_high
    assert metrics.latency_ms_p50 <= metrics.latency_ms_p95


def test_benchmark_fault_injection_catch_and_repair():
    records, script = _delta_suite(6)
    spec = FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=0.5, seed=3)
    metrics, reports = run_benchmark(
        records,
        backend_factory=lambda: ScriptedBackend(script),
        fault_spec=spec,
    )
    # Eligible targets: one numeral-bearing Lookup per record.
    assert metrics.catch_rate == 1.0
    assert metrics.repair_rate == 1.0  # scripted replies restore originals
    # Faulted runs re-engage, which pushes their traces into the 7-8 bucket.
    assert "7-8" in metrics.em_by_log_bucket


def test_benchmark_noop_verifier_catches_nothing():
    records, script = _delta_suite(6)
    spec = FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=0.5, seed=3)
    metrics, _ = run_benchmark(
        records,
        config=SchedulerConfig(verifier_enabled=False),
        backend_factory=lambda: ScriptedBackend(script),
        fault_spec=spec,
    )
    assert metrics.catch_rate == 0.0 and metrics.repair_rate == 0.0


def _golden_bench():
    records = load_benchmark(FIXTURES / "golden_bench.jsonl")
    script = json.loads((FIXTURES / "golden_bench_script.json").read_text())
    return records, script


def test_in_flight_row_off_by_one_shifts_committed_anchor(tmp_path):
    records, script = _golden_bench()
    run_benchmark(
        records,
        backend_factory=lambda: ScriptedBackend(script),
        fault_spec=FaultSpec(FaultType.ROW_OFF_BY_ONE, 1.0, seed=3),
        out_dir=tmp_path,
    )
    faults = json.loads((tmp_path / "faults.json").read_text())
    assert [row["record"] for row in faults] == list(range(len(records)))
    for row in faults:
        assert row["fault_type"] == "RowOffByOne"
        assert (row["original"], row["corrupted"]) == ("table:Table 1@0,1", "table:Table 1@1,1")
        trace = load_trace((tmp_path / f"trace_{row['record']:03d}.jsonl").read_text())
        entry = next(e for e in trace if e.step == row["target"])
        assert entry.entry_type is EntryType.LOOKUP
        assert entry.provenance[0] == TableAnchor("Table 1", 1, 1)
        assert "table:Table 1@0,1" not in entry.citations()


def test_in_flight_ocr_misread_swaps_visual_numerals(tmp_path):
    reply = "The bar chart shows revenue in 2020 as $5.2M and in 2021 as $6.1M."
    record = BenchmarkRecord(
        question="What does the figure show about revenue?",
        sources=SourceBundle(
            images=[Image("chart-1", caption="bar chart of revenue", ocr_text="2020 5.2 2021 6.1")]
        ),
        gold_answers=["$0.9M increase"],
    )
    script = {
        "image interpreter": reply,
        "summarizing agent": "Therefore revenue rose. Answer: $0.9M increase.",
        "verification agent": "Looks consistent. (No issues flagged.)",
    }
    run_benchmark(
        [record],
        backend_factory=lambda: ScriptedBackend(script),
        fault_spec=FaultSpec(FaultType.OCR_MISREAD, 1.0, seed=0),
        out_dir=tmp_path,
    )
    faults = json.loads((tmp_path / "faults.json").read_text())
    assert len(faults) == 1
    row = faults[0]
    assert row["fault_type"] == "OcrMisread"
    assert row["original"] == reply
    # The same numerals, two of different value in each other's place.
    numerals = [m.text for m in parse_numerals(reply)]
    assert sorted(m.text for m in parse_numerals(row["corrupted"])) == sorted(numerals)
    assert numeral_values(row["corrupted"]) != numeral_values(reply)
    trace = load_trace((tmp_path / "trace_000.jsonl").read_text())
    entry = next(e for e in trace if e.step == row["target"])
    assert entry.entry_type is EntryType.VISUAL
    assert entry.content == row["corrupted"]


def test_in_flight_ocr_misread_without_visual_reads_selects_nothing():
    records, script = _golden_bench()
    with pytest.raises(ValueError, match="zero targets"):
        run_benchmark(
            records,
            backend_factory=lambda: ScriptedBackend(script),
            fault_spec=FaultSpec(FaultType.OCR_MISREAD, 1.0, seed=3),
        )


def test_benchmark_outputs_are_byte_deterministic(tmp_path):
    records, script = _delta_suite(4)
    spec = FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=0.4, seed=11)
    outputs = []
    for name in ("one", "two"):
        out = tmp_path / name
        run_benchmark(
            records,
            backend_factory=lambda: ScriptedBackend(script),
            fault_spec=spec,
            out_dir=out,
            seed=5,
        )
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
            }
        )
    assert outputs[0] == outputs[1]


def test_benchmark_writes_expected_files(tmp_path):
    records, script = _delta_suite(2)
    run_benchmark(
        records,
        backend_factory=lambda: ScriptedBackend(script),
        fault_spec=FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=1.0, seed=0),
        out_dir=tmp_path,
    )
    names = {p.name for p in tmp_path.iterdir()}
    assert {"metrics.json", "report.jsonl", "faults.json", "trace_000.jsonl", "trace_001.jsonl"} <= names
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert "em" in metrics and "ci_low" in metrics and "em_by_log_bucket" in metrics
    faults = json.loads((tmp_path / "faults.json").read_text())
    assert all({"record", "target", "caught", "repaired"} <= set(row) for row in faults)


class _CountingRuns:
    """Counts scheduler.run calls per question and backends made."""

    def __init__(self, monkeypatch, make_backend):
        self.runs: dict[str, int] = {}
        self.backends = 0
        run = scheduler.run

        def counted_run(question, *args, **kwargs):
            self.runs[question] = self.runs.get(question, 0) + 1
            return run(question, *args, **kwargs)

        monkeypatch.setattr(scheduler, "run", counted_run)
        self._make_backend = make_backend

    def factory(self):
        self.backends += 1
        return self._make_backend()


def _labeled_records(out_dir) -> set[int]:
    return {row["record"] for row in json.loads((out_dir / "faults.json").read_text())}


def test_fault_mode_runs_each_clean_record_once(tmp_path, monkeypatch):
    records, script = _delta_suite(6)
    counting = _CountingRuns(monkeypatch, lambda: ScriptedBackend(script))
    spec = FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=0.5, seed=3)
    run_benchmark(records, backend_factory=counting.factory, fault_spec=spec, out_dir=tmp_path)
    labeled = _labeled_records(tmp_path)
    assert 0 < len(labeled) < len(records)
    expected_runs = len(records) + len(labeled)
    assert sum(counting.runs.values()) == expected_runs
    assert counting.backends == expected_runs
    for i, record in enumerate(records):
        assert counting.runs[record.question] == (2 if i in labeled else 1)


def test_reused_clean_runs_match_fault_free_outputs(tmp_path):
    records, script = _delta_suite(6)
    spec = FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=0.5, seed=3)
    for name, fault_spec in (("faulted", spec), ("clean", None)):
        run_benchmark(
            records,
            backend_factory=lambda: ScriptedBackend(script),
            fault_spec=fault_spec,
            out_dir=tmp_path / name,
        )
    labeled = _labeled_records(tmp_path / "faulted")
    reports = {
        name: (tmp_path / name / "report.jsonl").read_text().splitlines()
        for name in ("faulted", "clean")
    }
    unlabeled = [i for i in range(len(records)) if i not in labeled]
    assert unlabeled
    for i in unlabeled:
        assert reports["faulted"][i] == reports["clean"][i]
        trace = f"trace_{i:03d}.jsonl"
        assert (tmp_path / "faulted" / trace).read_bytes() == (tmp_path / "clean" / trace).read_bytes()
    for i in labeled:
        assert reports["faulted"][i] != reports["clean"][i]


class _DownFor(ScriptedBackend):
    """A scripted backend whose transport fails for prompts holding every needle."""

    def __init__(self, script, *needles):
        super().__init__(script)
        self.needles = needles

    def generate(self, prompt, temperature, max_tokens=512):
        if all(needle in prompt for needle in self.needles):
            raise TransportError("connection refused")
        return super().generate(prompt, temperature, max_tokens)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_record_whose_dry_run_raised_reports_its_error(tmp_path, monkeypatch, seed):
    # Firm2's Summarizer is down, so its dry run raises only after its
    # Lookup, an eligible append, has entered the log. Were that append
    # counted, seeds 4 and 5 would choose it for a run that cannot commit.
    records, script = _delta_suite(6)
    counting = _CountingRuns(monkeypatch, lambda: _DownFor(script, "summarizing agent", "Firm2"))
    spec = FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=0.5, seed=seed)
    _, reports = run_benchmark(
        records, backend_factory=counting.factory, fault_spec=spec, out_dir=tmp_path
    )
    assert counting.runs[records[2].question] == 1  # the dry run's error is reported
    assert reports[2]["error"].startswith("TransportAbort")
    assert reports[2]["termination"] == "Error"
    assert all("error" not in r for i, r in enumerate(reports) if i != 2)
    # Only the five records that completed their dry run offer targets.
    labeled = _labeled_records(tmp_path)
    assert 2 not in labeled
    assert len(labeled) == math.ceil(spec.rate * 5)
    assert sum(counting.runs.values()) == len(records) + len(labeled)


def test_load_benchmark_fixture_roundtrip():
    records = load_benchmark(FIXTURES / "golden_bench.jsonl")
    assert len(records) == 5
    assert all(r.gold_answers for r in records)
    assert records[0].sources.tables[0].id == "Table 1"


def test_load_benchmark_shares_one_bundle_per_sources_path(tmp_path, monkeypatch):
    bundle = {"passages": [{"id": "p1", "text": "Revenue rose."}, {"id": "p2", "text": "Costs fell."}]}
    (tmp_path / "bundle.json").write_text(json.dumps(bundle), encoding="utf-8")
    inline = {"passages": [{"id": "p1", "text": "Revenue rose."}]}
    lines = [
        {"question": "q1?", "gold_answers": ["a"], "sources_path": "bundle.json"},
        {"question": "q2?", "gold_answers": ["a"], "sources": inline},
        {"question": "q3?", "gold_answers": ["a"], "sources_path": "bundle.json"},
        {"question": "q4?", "gold_answers": ["a"], "sources": inline},
        {"question": "q5?", "gold_answers": ["a"], "sources_path": "bundle.json"},
    ]
    path = tmp_path / "bench.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    parsed, indexed = [], []
    original_load, original_index = harness.load_sources, logboard.retrieval.index

    def counting_load(sources_path):
        parsed.append(sources_path)
        return original_load(sources_path)

    def counting_index(passages):
        indexed.append(len(passages))
        return original_index(passages)

    monkeypatch.setattr(harness, "load_sources", counting_load)
    monkeypatch.setattr(logboard.retrieval, "index", counting_index)
    records = load_benchmark(path)

    shared = records[0].sources
    assert records[2].sources is shared and records[4].sources is shared
    assert parsed == [tmp_path / "bundle.json"]
    assert records[1].sources is not records[3].sources  # inline sources: one bundle each
    assert records[1].sources is not shared
    assert indexed == [2, 1, 1]
    assert [doc_id for doc_id, _ in retrieve(shared.passage_index, "revenue")] == ["p1"]


@pytest.mark.parametrize("field", ["question", "gold_answers"])
def test_load_benchmark_names_missing_field(tmp_path, field):
    record = {"question": "q?", "gold_answers": ["a"], "sources": {}}
    del record[field]
    path = tmp_path / "bench.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"no '{field}' field"):
        load_benchmark(path)


@pytest.mark.parametrize(
    "record, message",
    [
        ([], "benchmark record must be a JSON object"),
        ({"question": 1, "gold_answers": ["a"]}, "'question' must be a string, not a number"),
        ({"question": "q?", "gold_answers": "a"}, "'gold_answers' must be a JSON array, not a string"),
        ({"question": "q?", "gold_answers": [1]}, "gold_answers item 0 must be a string"),
        ({"question": "q?", "gold_answers": ["a"], "sources": []}, "'sources' must be a JSON object"),
    ],
)
def test_load_benchmark_names_mistyped_field(tmp_path, record, message):
    path = tmp_path / "bench.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_benchmark(path)
