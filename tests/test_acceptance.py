"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS line (visible under pytest -s; the -v test names
carry the criterion number either way) and enforces the stated runtime
budget.
"""

import itertools
import json
import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from logboard.backends import ScriptedBackend
from logboard.cli import main as cli_main
from logboard.gating import mine_samples, train
from logboard.harness import (
    BOOTSTRAP_LEVEL,
    BOOTSTRAP_RESAMPLES,
    FaultSpec,
    FaultType,
    bootstrap_ci,
    log_groundedness,
    run_benchmark,
)
from logboard.log import (
    COMPRESS_TRIGGER,
    TARGET_AFTER,
    TABLE_AGENT,
    USER,
    EntryType,
    LogEntry,
    SharedLog,
    TableAnchor,
    format_entry,
    load_trace,
    render_view,
    token_estimate,
    view_citations,
)
from logboard.retrieval import index, retrieve
from logboard.scheduler import SchedulerConfig, Termination, run
from logboard.sources import Image, Passage
from logboard.verify import FindingKind, verify_deterministic
from logboard.agents import verification_act

from helpers import (
    FIXTURES,
    GOLDEN_ANSWER,
    GOLDEN_QUESTION,
    RandomReplyBackend,
    delta_record,
    fuzz_sources,
    gate_fixture,
    log_with,
    lookup,
)


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"runtime {elapsed:.2f}s exceeds {self.seconds}s budget"
        return elapsed


def _announce(n, name, elapsed):
    print(f"ACCEPTANCE {n:02d} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_01_golden_trace_conformance(tmp_path):
    budget = Budget(1.0)
    args = [
        "ask",
        GOLDEN_QUESTION,
        "--sources",
        str(FIXTURES / "golden_sources.json"),
        "--scripted",
        str(FIXTURES / "golden_script.json"),
        "--out",
    ]
    assert cli_main(args + [str(tmp_path / "a")]) == 0
    assert cli_main(args + [str(tmp_path / "b")]) == 0
    trace_bytes = (tmp_path / "a" / "trace.jsonl").read_bytes()
    assert trace_bytes == (tmp_path / "b" / "trace.jsonl").read_bytes()  # byte-exact
    entries = load_trace(trace_bytes.decode("utf-8"))
    assert [(e.agent, e.entry_type.value) for e in entries] == [
        ("User", "Query"),
        ("TableAgent", "Lookup"),
        ("ContextAgent", "Quote"),
        ("SummarizingAgent", "Answer"),
        ("VerificationAgent", "OK"),
    ]
    summary = json.loads((tmp_path / "a" / "run.json").read_text())
    assert summary["answer"] == GOLDEN_ANSWER
    assert summary["termination"] == "AnswerVerified"
    assert summary["rounds"] == 1
    _announce(1, "golden-trace conformance", budget.check())


def test_criterion_02_termination_and_guardrails():
    budget = Budget(30.0)
    config = SchedulerConfig()
    call_bound = config.max_rounds * 5 + 5  # one re-engagement round of overhead
    plain = fuzz_sources()
    with_images = fuzz_sources()
    with_images.images.append(Image("chart", caption="two lines", ocr_text="7 9"))
    for seed in range(1000):
        result = run(
            "How did the widget figure move?",
            with_images if seed % 2 else plain,
            RandomReplyBackend(seed),
            config=config,
        )
        assert result.termination in Termination  # every run terminates
        assert result.metrics.backend_calls <= call_bound
        assert result.metrics.rounds <= config.max_rounds + 1
        flags = sum(1 for e in result.log.entries if e.entry_type is EntryType.FLAG)
        assert flags <= 2  # Flag-driven re-engagement <= 1
        # No-progress triggers exactly at its definition: the final audit of a
        # NoProgress run satisfies all three conditions, and no earlier round
        # of any run satisfied them while the run continued.
        conditions = [
            a.updated is False and a.consecutive_nonanswer_summaries >= 2 and not a.any_pending
            for a in result.audits
        ]
        if result.termination is Termination.NO_PROGRESS:
            assert conditions[-1]
        for c in conditions[:-1]:
            assert not c
        if conditions and conditions[-1]:
            assert result.termination is Termination.NO_PROGRESS
    _announce(2, "termination and guardrails over 1000 randomized runs", budget.check())


def test_criterion_03_verifier_arithmetic_soundness():
    budget = Budget(5.0)
    checked = 0
    for a, b in itertools.product(range(1, 21), repeat=2):
        log = log_with(
            "How much did metric alpha change between the periods?",
            lookup(f"Metric alpha was {a} in the first period."),
            lookup(f"Metric alpha was {b} in the second period."),
        )
        for d in range(b - a - 2, b - a + 3):
            findings = verify_deterministic(log, f"The value changed by {d}.")
            if d == b - a:
                assert findings == [], (a, b, d)
            else:
                assert [f.kind for f in findings] == [FindingKind.ARITHMETIC_MISMATCH], (a, b, d)
            checked += 1
    assert checked == 2000
    # The full verification act maps findings onto Flag/OK the same way.
    backend = ScriptedBackend({"verification agent": "OK"})
    for a, b, d in [(1, 20, 19), (1, 20, 21), (7, 3, -4), (7, 3, -2), (5, 5, 0), (5, 5, 1)]:
        log = log_with(
            "How much did metric alpha change between the periods?",
            lookup(f"Metric alpha was {a} in the first period."),
            lookup(f"Metric alpha was {b} in the second period."),
        )
        log.append(
            LogEntry("SummarizingAgent", EntryType.ANSWER, f"Answer: the value changed by {d}.")
        )
        verdict = verification_act(log, backend)
        expected = EntryType.OK if d == b - a else EntryType.FLAG
        assert verdict.entry_type is expected, (a, b, d)
    _announce(3, "verifier arithmetic soundness on the exhaustive grid", budget.check())


def _fault_suite(n=15):
    values = [(50, 55), (30, 34), (120, 128), (70, 71), (10, 16)]
    records, script = [], {}
    for i in range(n):
        a, b = values[i % len(values)]
        record, s = delta_record(f"Firm{chr(65 + i)}", a, b)
        records.append(record)
        script.update(s)
    return records, script


def test_criterion_04_fault_injection_pipeline(tmp_path):
    budget = Budget(10.0)
    records, script = _fault_suite(15)
    for rate in (0.10, 0.20, 0.30):
        out = tmp_path / f"rate{int(rate * 100)}"
        spec = FaultSpec(FaultType.ARITHMETIC_CORRUPTION, rate=rate, seed=7)
        metrics, _ = run_benchmark(
            records,
            backend_factory=lambda: ScriptedBackend(script),
            fault_spec=spec,
            out_dir=out,
        )
        assert metrics.catch_rate == 1.0  # exact, deterministic verifier
        faults = json.loads((out / "faults.json").read_text())
        assert len(faults) == math.ceil(rate * 15)
        # Label/flag consistency: each caught row's target step is implicated
        # by a Flag in that record's trace; uncaught rows are not.
        for row in faults:
            trace = load_trace((out / f"trace_{row['record']:03d}.jsonl").read_text())
            implicated = set()
            for entry in trace:
                if entry.entry_type is EntryType.FLAG and "[steps:" in entry.content:
                    steps = entry.content.rsplit("[steps:", 1)[1].rstrip("]").strip()
                    implicated.update(int(s) for s in steps.split(",") if s.strip())
            assert row["caught"] == (row["target"] in implicated)
        # A disabled verifier catches nothing.
        metrics_off, _ = run_benchmark(
            records,
            config=SchedulerConfig(verifier_enabled=False),
            backend_factory=lambda: ScriptedBackend(script),
            fault_spec=spec,
        )
        assert metrics_off.catch_rate == 0.0
    _announce(4, "fault-injection pipeline catch rates", budget.check())


def test_criterion_05_log_budget():
    budget = Budget(5.0)
    rng = random.Random(3)

    def adversarial_log(n_entries, tokens_each):
        log = SharedLog()
        log.append(LogEntry(USER, EntryType.QUERY, "What happened across all the years?"))
        for i in range(n_entries):
            words = " ".join(f"w{i}x{j}" for j in range(tokens_each))
            anchors = [
                TableAnchor(f"t{i}", i, c) for c in range(rng.randint(1, 3))
            ]
            log.append(LogEntry(TABLE_AGENT, EntryType.LOOKUP, f"entry {i} {words}", provenance=anchors))
        return log

    shapes = [(50, 400), (50, 100), (30, 400), (12, 380), (50, 10)]
    for n_entries, tokens_each in shapes:
        log = adversarial_log(n_entries, tokens_each)
        verbatim = "\n".join(format_entry(e) for e in log.entries)
        pre = token_estimate(verbatim)
        view = render_view(log)
        if pre > COMPRESS_TRIGGER:
            assert token_estimate(view) <= TARGET_AFTER, (n_entries, tokens_each)
        else:
            assert token_estimate(view) <= pre
        # 100% provenance-anchor preservation.
        assert sorted(view_citations(view)) == sorted(
            c for e in log.entries for c in e.citations()
        ), (n_entries, tokens_each)
    _announce(5, "log budget under adversarial logs", budget.check())


def test_criterion_06_bm25_oracle_equivalence():
    budget = Budget(10.0)
    rng = random.Random(99)
    vocab = [f"term{i}" for i in range(50)]
    for trial in range(200):
        n_docs = rng.randint(1, 10)
        passages = [
            Passage(
                f"doc{j:02d}",
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 40))),
            )
            for j in range(n_docs)
        ]
        query = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6)))
        idx = index(passages)
        got = retrieve(idx, query, n_docs)
        # Independent direct-formula enumeration with k1=1.2, b=0.75.
        docs = {p.id: p.text.split() for p in passages}
        avgdl = sum(len(t) for t in docs.values()) / n_docs
        expected = []
        for doc_id, tokens in docs.items():
            counts = Counter(tokens)
            score = 0.0
            for term in query.split():
                f = counts.get(term, 0)
                if not f:
                    continue
                df = sum(1 for t in docs.values() if term in t)
                idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
                score += idf * f * 2.2 / (f + 1.2 * (0.25 + 0.75 * len(tokens) / avgdl))
            if score > 0.0:
                expected.append((doc_id, score))
        expected.sort(key=lambda pair: (-pair[1], pair[0]))
        assert [d for d, _ in got] == [d for d, _ in expected], trial
        for (_, s1), (_, s2) in zip(got, expected):
            assert s1 == pytest.approx(s2, rel=1e-12)
    _announce(6, "BM25 oracle equivalence over 200 random corpora", budget.check())


def test_criterion_07_gate_efficacy(tmp_path):
    budget = Budget(60.0)
    records, script = gate_fixture()
    factory = lambda: ScriptedBackend(script)  # noqa: E731

    base_out = tmp_path / "base"
    base_metrics, base_reports = run_benchmark(
        records, backend_factory=factory, out_dir=base_out
    )
    traces = [
        load_trace((base_out / f"trace_{i:03d}.jsonl").read_text())
        for i in range(len(records))
    ]
    samples = mine_samples(traces)
    assert {s.label for s in samples} == {0, 1}
    gate, _ = train(samples, epochs=1500, learning_rate=0.5, l2=1e-4)

    gated_metrics, gated_reports = run_benchmark(
        records,
        backend_factory=factory,
        gate=gate,
    )
    assert [r["answer"] for r in gated_reports] == [r["answer"] for r in base_reports]
    assert gated_metrics.em == base_metrics.em == 1.0
    assert gated_metrics.backend_calls_mean < base_metrics.backend_calls_mean
    _announce(
        7,
        f"gate efficacy (turns {base_metrics.backend_calls_mean:.2f} -> "
        f"{gated_metrics.backend_calls_mean:.2f}, accuracy kept)",
        budget.check(),
    )


def test_criterion_08_bootstrap_statistics():
    budget = Budget(5.0)
    assert (BOOTSTRAP_RESAMPLES, BOOTSTRAP_LEVEL) == (1000, 0.95)
    assert bootstrap_ci([0.8] * 100) == (0.8, 0.8)
    rng = random.Random(17)
    for _ in range(40):
        values = [rng.random() for _ in range(rng.randint(1, 80))]
        low, high = bootstrap_ci(values, seed=rng.randint(0, 9999))
        mean = sum(values) / len(values)
        assert low <= mean + 1e-12 and mean - 1e-12 <= high
    draws = np.random.default_rng(21).binomial(1, 0.5, size=100).astype(float)
    low, high = bootstrap_ci(draws, seed=2)
    p_hat = draws.mean()
    analytic = 2 * 1.96 * math.sqrt(p_hat * (1 - p_hat) / 100)
    assert abs((high - low) - analytic) / analytic < 0.25
    assert bootstrap_ci([0.3, 0.9, 0.4], seed=5) == bootstrap_ci([0.3, 0.9, 0.4], seed=5)
    _announce(8, "bootstrap statistics protocol", budget.check())


def test_criterion_09_benchmark_determinism(tmp_path):
    budget = Budget(30.0)
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            [
                "bench",
                str(FIXTURES / "golden_bench.jsonl"),
                "--scripted",
                str(FIXTURES / "golden_bench_script.json"),
                "--fault-type",
                "arithmetic",
                "--fault-rate",
                "0.3",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    assert "metrics.json" in outputs[0] and "trace_000.jsonl" in outputs[0]
    _announce(9, "byte-identical benchmark outputs", budget.check())


def test_criterion_10_groundedness_sanity():
    budget = Budget(1.0)
    from helpers import run_golden

    golden = run_golden()
    assert log_groundedness(GOLDEN_ANSWER, golden.log) == 1.0
    assert log_groundedness(GOLDEN_ANSWER + " Margin was 37%.", golden.log) < 1.0
    # Three constructed cases with hand-computed fractions.
    log = log_with(
        "Who led Acme and what was revenue?",
        lookup("Acme revenue in 2019 was $55M, per the filing."),
    )
    # numerals: 55M yes, 9M no; spans: Acme yes, Zurich no -> 2/4
    assert log_groundedness(
        "Acme posted $55M while the Zurich unit added $9M.", log
    ) == pytest.approx(0.5)
    # numerals: 55M yes; spans: Acme yes -> 2/2
    assert log_groundedness("Acme reached $55M.", log) == pytest.approx(1.0)
    # numerals: 12% no; spans: none -> 0/1
    assert log_groundedness("about 12% overall", log) == pytest.approx(0.0)
    _announce(10, "log-groundedness metric sanity", budget.check())
