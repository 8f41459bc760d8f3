"""CLI subcommands end to end against the golden fixtures."""

import json

import pytest

from logboard.cli import main
from logboard.log import load_trace

from logboard.harness import run_benchmark
from logboard.backends import ScriptedBackend

from helpers import FIXTURES, GOLDEN_ANSWER, GOLDEN_QUESTION, gate_fixture


def ask_args(out_dir, *extra):
    return [
        "ask",
        GOLDEN_QUESTION,
        "--sources",
        str(FIXTURES / "golden_sources.json"),
        "--scripted",
        str(FIXTURES / "golden_script.json"),
        "--out",
        str(out_dir),
        *extra,
    ]


def test_ask_prints_answer_and_writes_trace(tmp_path, capsys):
    code = main(ask_args(tmp_path / "run"))
    out, err = capsys.readouterr()
    assert code == 0
    assert out.strip() == GOLDEN_ANSWER
    assert "AnswerVerified" in err
    trace = load_trace((tmp_path / "run" / "trace.jsonl").read_text())
    assert [e.entry_type.value for e in trace] == ["Query", "Lookup", "Quote", "Answer", "OK"]
    summary = json.loads((tmp_path / "run" / "run.json").read_text())
    assert summary["answer"] == GOLDEN_ANSWER
    assert summary["rounds"] == 1


def test_ask_empty_question_is_usage_error(tmp_path, capsys):
    code = main(
        [
            "ask",
            "   ",
            "--sources",
            str(FIXTURES / "golden_sources.json"),
            "--scripted",
            str(FIXTURES / "golden_script.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "non-empty" in capsys.readouterr().err


def test_ask_no_verify_skips_verification(tmp_path, capsys):
    code = main(ask_args(tmp_path, "--no-verify"))
    out, err = capsys.readouterr()
    assert code == 0
    assert "AnswerUnverified" in err
    trace = load_trace((tmp_path / "trace.jsonl").read_text())
    assert all(e.entry_type.value not in ("OK", "Flag") for e in trace)


def test_ask_no_answer_exits_two(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {
                "table analyst": "no relevant info found",
                "passage reader": "no relevant info found",
                "summarizing agent": "Nothing conclusive found so far.",
            }
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "ask",
            "What is unknowable?",
            "--sources",
            str(FIXTURES / "golden_sources.json"),
            "--scripted",
            str(script),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    out, err = capsys.readouterr()
    assert code == 2
    assert out.strip() == ""


def test_ask_missing_fixture_is_error(tmp_path, capsys):
    code = main(ask_args(tmp_path, "--scripted", str(tmp_path / "nope.json")))
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bench_writes_metrics_and_prints_summary(tmp_path, capsys):
    code = main(
        [
            "bench",
            str(FIXTURES / "golden_bench.jsonl"),
            "--scripted",
            str(FIXTURES / "golden_bench_script.json"),
            "--out",
            str(tmp_path),
            "--seed",
            "3",
        ]
    )
    out, _ = capsys.readouterr()
    assert code == 0
    assert "em=1.000" in out
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["em"] == 1.0
    assert (tmp_path / "report.jsonl").exists()
    assert (tmp_path / "trace_000.jsonl").exists()


def test_bench_with_faults_writes_faults_json(tmp_path):
    code = main(
        [
            "bench",
            str(FIXTURES / "golden_bench.jsonl"),
            "--scripted",
            str(FIXTURES / "golden_bench_script.json"),
            "--fault-type",
            "arithmetic",
            "--fault-rate",
            "0.2",
            "--seed",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    faults = json.loads((tmp_path / "faults.json").read_text())
    assert len(faults) == 1  # ceil(0.2 * 5 eligible lookups)
    assert faults[0]["caught"] is True


def test_train_gate_from_traces(tmp_path, capsys):
    traces_dir = tmp_path / "traces"
    traces_dir.mkdir()
    # Build two traces with informative and uninformative later rounds.
    from logboard.log import SUMMARIZING_AGENT, VERIFICATION_AGENT, EntryType, LogEntry, dump_trace
    from helpers import log_with, lookup, quote

    cited = log_with("q one?", lookup("Widget revenue was $40M in the ledger."))
    cited.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "The services number is missing."))
    cited.append(quote("Services brought in $12M per the notes."))
    cited.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $40M plus $12M."))
    cited.append(LogEntry(VERIFICATION_AGENT, EntryType.OK, "OK"))
    uncited = log_with("q two?", lookup("Gadget revenue was $9M in the ledger."))
    uncited.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "A second figure is missing."))
    uncited.append(quote("An unrelated aside about staffing levels."))
    uncited.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $9M."))
    uncited.append(LogEntry(VERIFICATION_AGENT, EntryType.OK, "OK"))
    (traces_dir / "a.jsonl").write_text(dump_trace(cited.entries), encoding="utf-8")
    (traces_dir / "b.jsonl").write_text(dump_trace(uncited.entries), encoding="utf-8")

    gate_path = tmp_path / "gate.json"
    code = main(["train-gate", str(traces_dir), "--out", str(gate_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "final loss" in out
    gate = json.loads(gate_path.read_text())
    assert set(gate) == {"weights", "bias", "threshold"}
    assert len(gate["weights"]) == 4


def test_train_gate_on_bench_output_dir(tmp_path, capsys):
    records, script = gate_fixture(quick=1, slow=2)
    bench_dir = tmp_path / "bench"
    run_benchmark(records, backend_factory=lambda: ScriptedBackend(script), out_dir=bench_dir)
    assert (bench_dir / "report.jsonl").exists()
    gate_path = tmp_path / "gate.json"
    code = main(["train-gate", str(bench_dir), "--out", str(gate_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "final loss" in out
    assert len(json.loads(gate_path.read_text())["weights"]) == 4


@pytest.mark.parametrize("command", ["ask", "bench"])
@pytest.mark.parametrize(
    "content, message",
    [
        ("{}", "gate has no 'weights' field"),
        ("[]", "gate must be a JSON object, not a JSON array"),
        ('{"weights": [1, 2, 3, 4], "bias": null}', "gate field 'bias' must be a number, not null"),
        ('{"weights": {"a": 1}, "bias": 0}', "gate field 'weights' must be a JSON array, not a JSON object"),
        ('{"weights": "1234", "bias": 0}', "gate field 'weights' must be a JSON array, not a string"),
        ('{"weights": [1, 2, "3", 4], "bias": 0}', "gate parameters must be numbers"),
        ('{"weights": [1, 2, 3], "bias": 0}', "exactly 4 feature weights"),
    ],
    ids=["empty", "array", "null-bias", "object-weights", "string-weights", "string-weight", "3-weights"],
)
def test_malformed_gate_file_is_one_error_line(tmp_path, capsys, command, content, message):
    gate = tmp_path / "gate.json"
    gate.write_text(content, encoding="utf-8")
    if command == "ask":
        argv = ask_args(tmp_path / "run", "--gate", str(gate))
    else:
        argv = [
            "bench",
            str(FIXTURES / "golden_bench.jsonl"),
            "--scripted",
            str(FIXTURES / "golden_bench_script.json"),
            "--out",
            str(tmp_path / "run"),
            "--gate",
            str(gate),
        ]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: gate file {gate}: ") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_inject_writes_corrupted_sources_and_labels(tmp_path, capsys):
    code = main(
        [
            "inject",
            str(FIXTURES / "golden_sources.json"),
            "--type",
            "arithmetic",
            "--rate",
            "0.5",
            "--seed",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    faults = json.loads((tmp_path / "faults.json").read_text())
    assert faults and all(row["original"] != row["corrupted"] for row in faults)
    corrupted = json.loads((tmp_path / "sources.json").read_text())
    original = json.loads((FIXTURES / "golden_sources.json").read_text())
    assert corrupted["tables"] != original["tables"]


def test_inject_unknown_type_is_refused(tmp_path, capsys):
    for name in ("contradiction", "bogus"):
        with pytest.raises(SystemExit) as exc:
            main(["inject", str(FIXTURES / "golden_sources.json"), "--type", name,
                  "--rate", "0.5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_trace_renders_markdown_table(tmp_path, capsys):
    main(ask_args(tmp_path))
    capsys.readouterr()
    code = main(["trace", str(tmp_path / "trace.jsonl")])
    out, _ = capsys.readouterr()
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "| Agent (Type) | Log Entry Content |"
    assert lines[1] == "| --- | --- |"
    assert lines[2].startswith("| User (Query) |")
    assert any(line.startswith("| VerificationAgent (OK) |") for line in lines)


def test_trace_missing_content_is_clean_error(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"agent": "User", "type": "Query", "step": 0}\n', encoding="utf-8")
    code = main(["trace", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'content'" in err


def test_inject_table_without_id_is_clean_error(tmp_path, capsys):
    sources = json.loads((FIXTURES / "golden_sources.json").read_text())
    del sources["tables"][0]["id"]
    path = tmp_path / "sources.json"
    path.write_text(json.dumps(sources), encoding="utf-8")
    code = main(["inject", str(path), "--type", "arithmetic", "--rate", "0.5",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "'id'" in err
    assert not (tmp_path / "out").exists()


def test_inject_mistyped_tables_is_clean_error(tmp_path, capsys):
    path = tmp_path / "sources.json"
    path.write_text(json.dumps({"tables": "abc"}), encoding="utf-8")
    code = main(["inject", str(path), "--type", "arithmetic", "--rate", "0.5",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "'tables'" in err and "JSON array" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_trace_null_step_is_clean_error(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"agent": "User", "type": "Query", "content": "q?", "step": null}\n',
                    encoding="utf-8")
    code = main(["trace", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'step' must be an integer, not null" in err
    assert "Traceback" not in err


def test_config_file_supplies_defaults_flags_win(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "scripted": str(FIXTURES / "golden_script.json"),
                "out": str(tmp_path / "from-config"),
                "max_rounds": 4,
            }
        ),
        encoding="utf-8",
    )
    code = main(
        [
            "--config",
            str(config),
            "ask",
            GOLDEN_QUESTION,
            "--sources",
            str(FIXTURES / "golden_sources.json"),
        ]
    )
    assert code == 0
    assert (tmp_path / "from-config" / "trace.jsonl").exists()
    # Explicit flag overrides the config value.
    code = main(
        [
            "--config",
            str(config),
            "ask",
            GOLDEN_QUESTION,
            "--sources",
            str(FIXTURES / "golden_sources.json"),
            "--out",
            str(tmp_path / "flag-wins"),
        ]
    )
    assert code == 0
    assert (tmp_path / "flag-wins" / "trace.jsonl").exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file"),
        ("max_rounds = 4\n", "is not JSON"),
        ("[1, 2]", "must be a JSON object, not a JSON array"),
        ('{"no_verify": "false"}', "config key 'no_verify' must be a boolean, not a string"),
        ('{"max_rounds": "4"}', "config key 'max_rounds' must be an integer, not a string"),
        ('{"max_round": 1, "no-verify": true}', "has unknown keys: 'max_round', 'no-verify'"),
    ],
)
def test_bad_config_file_is_one_error_line(tmp_path, capsys, content, message):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_text(content, encoding="utf-8")
    code = main(["--config", str(config), *ask_args(tmp_path / "run")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and message in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "run").exists()


def test_cli_determinism_across_invocations(tmp_path, capsys):
    main(ask_args(tmp_path / "a"))
    main(ask_args(tmp_path / "b"))
    capsys.readouterr()
    assert (tmp_path / "a" / "trace.jsonl").read_bytes() == (
        tmp_path / "b" / "trace.jsonl"
    ).read_bytes()
    assert (tmp_path / "a" / "run.json").read_bytes() == (
        tmp_path / "b" / "run.json"
    ).read_bytes()
