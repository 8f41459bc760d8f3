"""Tests of the benchmark itself: generator, replay backend, tracing.

    python -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import logboard
import run
from replay import ReplayBackend, question_of
from tracing import Tracer
from workloads import WORKLOADS, generate

BENCH_DIR = Path(run.__file__).resolve().parent
SMALL = {"table_heavy": 2, "passage_heavy": 4, "faulted_small": 5}


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_output_depends_only_on_seed(tmp_path, workload):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        generate(workload, seed, tmp_path / name, SMALL[workload])
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_replay_routes_by_question_line():
    scripts = {"Q one?": {"You are a table analyst": "one"}, "Q two?": {"You are a table analyst": "two"}}
    backend = ReplayBackend(scripts)
    prompt = "You are a table analyst in a team.\n\nQuestion: Q two?\n\nShared log:\nUser (Query): Q two?"
    assert question_of(prompt) == "Q two?"
    assert backend.generate(prompt, 0.0) == "two"
    assert backend.generate(prompt.replace("Q two?", "Q three?"), 0.0) == ""
    assert backend.calls == 2 and backend.prompt_tokens > 0


def _logboard_bindings() -> dict[tuple[str, str], object]:
    bindings = {}
    for name, module in sys.modules.items():
        if name == "logboard" or name.startswith("logboard."):
            for key, value in vars(module).items():
                bindings[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        bindings[(name, f"{key}.{attr}")] = member
    bindings[("replay", "ReplayBackend.generate")] = ReplayBackend.__dict__["generate"]
    return bindings


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_pass_matches_untraced_and_restores_wrappers(tmp_path, workload):
    generate(workload, 3, tmp_path, SMALL[workload])
    bench = run.Bench(workload, 3, tmp_path)
    untraced = bench.digest_pass("untraced")
    before = _logboard_bindings()

    tracer = Tracer({r.question: i for i, r in enumerate(bench.records)})
    tracer.install()
    try:
        assert logboard.agents.select_table_slice is not before[("logboard.agents", "select_table_slice")]
        traced = bench.digest_pass("traced")
    finally:
        tracer.restore()

    after = _logboard_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert traced == untraced
    assert not bench.failures
    selfs = tracer.self_times()
    assert selfs["scheduler.run"][0] == len(bench.records) * (2 if bench.fault_spec else 1)
    assert all(seconds >= 0 for _, seconds in selfs.values())
    assert tracer.counts["textutil.tokenize"] > 0
    assert {span[4] for span in tracer.spans} == set(range(len(bench.records)))


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    generate("faulted_small", 1, tmp_path, SMALL["faulted_small"])
    bench = run.Bench("faulted_small", 1, tmp_path)
    bench.digest_pass("digest_first")
    setup = [{"import_s": 0.2, "load_s": 0.01, "backends_s": 0.001}] * run.SETUP_PROBES
    passes = run._timed_run(bench, 0.0, 1)
    tracer = Tracer({r.question: i for i, r in enumerate(bench.records)})
    tracer.install()
    try:
        traced = [bench.one_pass()]
    finally:
        tracer.restore()
    tracer.fold()
    for key, metrics in (
        ("end_to_end", run._end_to_end(bench, passes, setup)),
        ("per_layer", run._per_layer(bench, tracer, traced, passes, setup, 0.0)),
    ):
        assert {m["name"]: m["unit"] for m in spec[key]} == {k: unit for k, (_, unit) in metrics.items()}
    assert not bench.failures


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "faulted_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
