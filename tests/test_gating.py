"""Gate: features, logistic training, trace mining, scheduler integration."""

import math

import numpy as np
import pytest

from logboard.gating import (
    GateFeatures,
    GateSample,
    LogisticGate,
    extract_features,
    mine_samples,
    predict_continue,
    sigmoid,
    split_rounds,
    train,
    training_loss,
)
from logboard.log import (
    SUMMARIZING_AGENT,
    VERIFICATION_AGENT,
    EntryType,
    LogEntry,
)
from logboard.scheduler import Termination, run
from logboard.backends import ScriptedBackend

from helpers import (
    GOLDEN_QUESTION,
    golden_script,
    golden_sources,
    log_with,
    lookup,
    quote,
    run_golden,
)


def test_features_defaults_without_summary():
    log = log_with("plain question")
    feats = extract_features(log, 0)
    assert feats.summary_confidence == 0.5
    assert feats.pending_needs_delta == 0
    assert feats.image_present == 0


def test_features_gap_summary_zero_confidence():
    log = log_with("q?")
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "I don't have X yet."))
    feats = extract_features(log, 1)
    assert feats.summary_confidence == 0.0


def test_features_answer_full_confidence_and_counts():
    log = log_with("q?")
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: 42"))
    feats = extract_features(log, 3)
    assert feats.summary_confidence == 1.0
    assert feats.new_entries == 3


def test_pending_needs_delta_between_summaries():
    log = log_with("q?")
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "Figures are missing; more data needed."))
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "One figure is still missing."))
    feats = extract_features(log, 0)
    assert feats.pending_needs_delta == 1 - 2


def test_image_presence_from_sources_or_log():
    from logboard.sources import Image, SourceBundle

    log = log_with("what does the figure show?")
    feats = extract_features(log, 0, SourceBundle(images=[Image("i")]))
    assert feats.image_present == 1
    feats = extract_features(log, 0, SourceBundle())
    assert feats.image_present == 1  # the question mentions a figure
    plain = log_with("no visuals at all")
    assert extract_features(plain, 0, SourceBundle()).image_present == 0


def test_predict_continue_matches_sigmoid():
    zero = LogisticGate()
    anything = GateFeatures(1, 0.7, 5, -2)
    assert predict_continue(zero, anything) == 0.5
    gate = LogisticGate(weights=np.array([0.0, 4.0, 0.0, 0.0]), bias=-2.0)
    confident = GateFeatures(0, 1.0, 0, 0)
    unsure = GateFeatures(0, 0.0, 0, 0)
    assert predict_continue(gate, confident) == pytest.approx(1 / (1 + math.exp(-2)), abs=1e-4)
    assert predict_continue(gate, unsure) == pytest.approx(1 / (1 + math.exp(2)), abs=1e-4)
    assert 0.0 < predict_continue(gate, GateFeatures(1, 1.0, 100, 50)) < 1.0


@pytest.mark.parametrize("z", [-800.0, -2.0, -1e-9, 0.0, 2.0, 800.0])
def test_sigmoid_returns_a_python_float(z):
    p = sigmoid(z)
    assert type(p) is float
    assert 0.0 <= p <= 1.0


def separable_samples():
    return [
        GateSample(GateFeatures(0, 0.0, 3, 2), 1),
        GateSample(GateFeatures(1, 0.1, 2, 1), 1),
        GateSample(GateFeatures(0, 0.9, 0, -2), 0),
        GateSample(GateFeatures(1, 1.0, 1, -1), 0),
    ]


def test_train_separates_fixture():
    gate, loss = train(separable_samples(), epochs=2000, learning_rate=0.5, l2=1e-4)
    for sample in separable_samples():
        p = predict_continue(gate, sample.features)
        assert (p >= 0.5) == bool(sample.label)
    assert loss < 0.5


def test_train_is_duplication_invariant():
    once, _ = train(separable_samples(), epochs=300, learning_rate=0.1, l2=1e-3)
    twice, _ = train(separable_samples() * 2, epochs=300, learning_rate=0.1, l2=1e-3)
    assert np.allclose(once.weights, twice.weights)
    assert once.bias == pytest.approx(twice.bias)


def test_train_learns_sign_of_driving_feature():
    samples = [
        GateSample(GateFeatures(0, c, 0, 0), int(c > 0.5))
        for c in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    ]
    gate, _ = train(samples, epochs=500, learning_rate=0.5)
    assert gate.weights[1] > 0


def test_loss_non_increasing_per_epoch():
    samples = separable_samples()
    losses = []
    for epochs in range(1, 30):
        _, loss = train(samples, epochs=epochs, learning_rate=0.1, l2=1e-3)
        losses.append(loss)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_single_class_training_is_an_error():
    with pytest.raises(ValueError, match="threshold-only"):
        train([GateSample(GateFeatures(0, 0.5, 1, 0), 1)] * 3)


def test_gate_json_roundtrip(tmp_path):
    gate, _ = train(separable_samples(), epochs=50, learning_rate=0.1)
    path = tmp_path / "gate.json"
    gate.save(path)
    loaded = LogisticGate.load(path)
    assert np.allclose(loaded.weights, gate.weights)
    assert loaded.bias == pytest.approx(gate.bias)
    assert loaded.threshold == gate.threshold


def test_gate_rejects_nonfinite():
    with pytest.raises(ValueError):
        LogisticGate(weights=np.array([np.nan, 0, 0, 0]))
    with pytest.raises(ValueError):
        LogisticGate(threshold=math.nan)  # would never stop a run


def test_split_rounds_on_golden_trace():
    trace = run_golden().log.entries
    rounds = split_rounds(trace)
    assert len(rounds) == 1
    assert [e.entry_type for e in rounds[0].entries] == [
        EntryType.LOOKUP,
        EntryType.QUOTE,
        EntryType.ANSWER,
        EntryType.OK,
    ]


def test_mine_samples_golden_trace_has_no_nonfinal_rounds():
    assert mine_samples([run_golden().log.entries]) == []


def test_mined_features_match_the_scheduler_features(monkeypatch):
    # The gate is trained on features mined from traces and applied to the
    # features the scheduler computes; both must see the same values. The
    # golden sources hold no image, so image_present agrees without them.
    import logboard.scheduler

    seen = []

    def recording(log, new_entries, sources=None):
        features = extract_features(log, new_entries, sources)
        seen.append(features)
        return features

    monkeypatch.setattr(logboard.scheduler, "extract_features", recording)
    script = golden_script()
    script["summarizing agent"] = [
        "Partial take; the source of the increase is missing.",
        script["summarizing agent"],
    ]
    never_stop = LogisticGate(bias=5.0)
    result = run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(script), gate=never_stop)
    assert result.metrics.rounds == 2
    mined = [s.features for s in mine_samples([result.log.entries])]
    assert mined == seen
    assert seen[0].new_entries == 2  # the round's Lookup and Quote, not its Summary


def _multi_round_trace(cite_round_one: bool):
    """Two-round trace; the answer cites round-1 evidence when asked to."""
    log = log_with(
        "How much revenue came from widgets?",
        lookup("Widget revenue was $40M in the ledger (from Table 7)."),
    )
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "The services figure is missing."))
    log.append(quote("Services brought in $12M according to the notes."))
    answer = (
        "Answer: $40M widgets plus $12M services."
        if cite_round_one
        else "Answer: $40M from widgets."
    )
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, answer))
    log.append(LogEntry(VERIFICATION_AGENT, EntryType.OK, "OK"))
    return log.entries


def test_mine_samples_labels_by_citation():
    cited = mine_samples([_multi_round_trace(cite_round_one=True)])
    assert [s.label for s in cited] == [1]
    uncited = mine_samples([_multi_round_trace(cite_round_one=False)])
    assert [s.label for s in uncited] == [0]


def test_mine_samples_skips_traces_without_markers(caplog):
    import logging

    bare = [LogEntry("User", EntryType.QUERY, "q?")]
    with caplog.at_level(logging.WARNING):
        assert mine_samples([bare]) == []
    assert "skipped" in caplog.text


def test_reengagement_round_that_fixed_a_flag_is_positive():
    # The answer cites the re-engaged Lookup by its table anchor id.
    log = log_with(
        "What was the 2019 revenue delta?",
        lookup("Revenue was $50M then $56M.", table_id="Table 1"),
    )
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $5M increase"))
    log.append(LogEntry(VERIFICATION_AGENT, EntryType.FLAG, "Flagged ArithmeticMismatch: off [steps: 1]"))
    log.append(lookup("Corrected reading: revenue was $50M then $55M, audited.", table_id="Table 1"))
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $5M increase, per Table 1"))
    log.append(LogEntry(VERIFICATION_AGENT, EntryType.OK, "OK"))
    samples = mine_samples([log.entries])
    assert samples and samples[0].label == 1


def test_always_stop_gate_limits_retrieval_to_one_round():
    gate = LogisticGate(weights=np.zeros(4), bias=-5.0)  # p ~ 0.007 always
    script = golden_script()
    script["summarizing agent"] = [
        "Partial take; something is missing.",
        "Still incomplete; data needed.",
        "No answer can be formed.",
    ]
    result = run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(script), gate=gate)
    retrieval_rounds = sum(1 for audit in result.audits if audit.retrieval_ran)
    assert retrieval_rounds <= 1
    assert result.termination in (Termination.NO_PROGRESS, Termination.MAX_ROUNDS)


def test_flag_overrides_gate_freeze():
    gate = LogisticGate(weights=np.zeros(4), bias=-5.0)
    script = golden_script()
    script["verification agent"] = "Flagged incorrect calculation in the claim."
    result = run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(script), gate=gate)
    # Flag forces the re-engagement round's retrieval even though the gate
    # would freeze it.
    assert result.metrics.rounds == 2
    assert [a.retrieval_ran for a in result.audits] == [True, True]


def test_training_loss_helper_matches_train_output():
    samples = separable_samples()
    gate, final_loss = train(samples, epochs=200, learning_rate=0.1, l2=1e-3)
    assert training_loss(samples, gate, l2=1e-3) == pytest.approx(final_loss, rel=1e-6)
