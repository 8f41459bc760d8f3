"""Every logboard name the benchmark's tracer rebinds still exists.

`benchmarks/tracing.py` rebinds functions and methods by "module:name"
strings, so a rename in `src/` would otherwise show only when the traced
benchmark runs. The file is loaded read-only and only its target tables
are read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for _, target, _ in tracing.SPANNED]
    targets += [target for _, target in tracing.COUNTED]
    targets += [only_in for _, _, only_in in tracing.SPANNED if only_in is not None]
    return [target for target in dict.fromkeys(targets) if target.startswith("logboard.")]


@pytest.mark.parametrize("target", tracer_targets())
def test_tracer_target_resolves(target):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    if not attr:  # a module that a span is confined to
        return
    if "." in attr:
        class_name, attr = attr.split(".")
        owner = getattr(owner, class_name)
        assert isinstance(owner, type), target
    assert callable(getattr(owner, attr, None)), target


def test_agents_still_binds_select_table_slice():
    # The Table act calls the slice through this binding, which the tracer
    # rebinds; the benchmark's own tests check that it does and restores it.
    import logboard.agents
    import logboard.retrieval

    assert logboard.agents.select_table_slice is logboard.retrieval.select_table_slice


def test_groundedness_calls_assess_answer_numerals_through_the_harness_once(monkeypatch):
    # The tracer's `verify.assess_answer_numerals` span is confined to
    # `logboard.harness`, so groundedness must keep calling that binding.
    import logboard.harness as harness

    from helpers import GOLDEN_ANSWER, run_golden

    calls = []
    original = harness.assess_answer_numerals

    def counting(answer, log):
        calls.append(answer)
        return original(answer, log)

    log = run_golden().log
    monkeypatch.setattr(harness, "assess_answer_numerals", counting)
    assert harness.log_groundedness(GOLDEN_ANSWER, log) == 1.0
    assert calls == [GOLDEN_ANSWER]
