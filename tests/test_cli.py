"""CLI subcommands end to end against the golden fixtures."""

import json

import pytest

from logboard.cli import main
from logboard.log import dump_trace, load_trace

from logboard.gating import LogisticGate
from logboard.harness import run_benchmark
from logboard.backends import BASE_URL_ENV, ScriptedBackend
from logboard.sources import bundle_to_dict

from helpers import (
    FIXTURES,
    GOLDEN_ANSWER,
    GOLDEN_QUESTION,
    bom_copy,
    gate_fixture,
    log_with,
    lookup,
    quote,
    run_golden,
)


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


def test_a_scripted_fixture_with_a_byte_order_mark_loads_as_one_without(tmp_path, capsys):
    marked = bom_copy(FIXTURES / "golden_script.json", tmp_path / "marked")
    code = main(ask_args(tmp_path / "run", "--scripted", str(marked)))
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.strip() == GOLDEN_ANSWER


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


def test_bench_without_a_backend_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(BASE_URL_ENV, raising=False)
    code = main(["bench", str(FIXTURES / "golden_bench.jsonl"), "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "no base URL given" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "report.jsonl").exists()


_GOOD_RECORD = '{"question": "q?", "gold_answers": ["a"], "sources": {}}'


@pytest.mark.parametrize(
    "lines, message",
    [
        (["not json"], "line 1: Expecting value: line 1 column 1 (char 0)"),
        ([_GOOD_RECORD, '{"gold_answers": ["a"]}'], "line 2: benchmark record has no 'question' field"),
        ([_GOOD_RECORD, "", '{"question": "", "gold_answers": ["a"], "sources": {}}'],
         "line 3: a benchmark record's question must be non-empty"),
        (['{"question": "   ", "gold_answers": ["a"], "sources": {}}'],
         "line 1: a benchmark record's question must be non-empty"),
    ],
    ids=["not-json", "no-question", "empty-question", "blank-question"],
)
def test_malformed_benchmark_file_is_one_error_line(tmp_path, capsys, lines, message):
    dataset = tmp_path / "bench.jsonl"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["bench", str(dataset), "--scripted", str(FIXTURES / "golden_bench_script.json"),
                 "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: {dataset} {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_gate_bench_fixtures_are_gate_fixture_3_3():
    records, script = gate_fixture(quick=3, slow=3)
    lines = (FIXTURES / "gate_bench.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == [
        {"question": r.question, "gold_answers": r.gold_answers, "sources": bundle_to_dict(r.sources)}
        for r in records
    ]
    assert json.loads((FIXTURES / "gate_bench_script.json").read_text(encoding="utf-8")) == script


def test_readme_bench_train_gate_and_gated_bench_on_fixtures(tmp_path, capsys):
    bench = ["bench", str(FIXTURES / "gate_bench.jsonl"),
             "--scripted", str(FIXTURES / "gate_bench_script.json"), "--seed", "11"]
    assert main([*bench, "--out", str(tmp_path / "bench")]) == 0
    assert "em=1.000" in capsys.readouterr().out
    gate_path = tmp_path / "gate.json"
    code = main(["train-gate", str(tmp_path / "bench"), "--out", str(gate_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.startswith("trained on 6 samples")
    LogisticGate.load(gate_path)
    assert main([*bench, "--gate", str(gate_path), "--out", str(tmp_path / "gated")]) == 0
    assert "em=1.000" in capsys.readouterr().out
    assert json.loads((tmp_path / "gated" / "metrics.json").read_text())["em"] == 1.0


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


@pytest.mark.parametrize(
    "content, message",
    [
        ("[]", "a backend script must be a JSON object, not a JSON array"),
        ('{"x": 5}', "the replies of pattern 'x' must be a JSON array, not a number"),
        ('{"x": [1]}', "the replies of pattern 'x' item 0 must be a string, not a number"),
        ("not json", "is not JSON: Expecting value"),
    ],
    ids=["array", "number-reply", "number-in-replies", "not-json"],
)
def test_malformed_scripted_fixture_is_one_error_line(tmp_path, capsys, content, message):
    script = tmp_path / "script.json"
    script.write_text(content, encoding="utf-8")
    argv = ask_args(tmp_path / "run")
    argv[argv.index("--scripted") + 1] = str(script)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err
    if content == "not json":
        assert str(script) in err
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


def test_a_trace_with_a_byte_order_mark_renders_as_one_without(tmp_path, capsys):
    main(ask_args(tmp_path))
    capsys.readouterr()
    rendered = []
    for path in (tmp_path / "trace.jsonl", bom_copy(tmp_path / "trace.jsonl", tmp_path / "marked")):
        for fmt in ("markdown", "jsonl"):
            code = main(["trace", str(path), "--format", fmt])
            out, err = capsys.readouterr()
            assert code == 0, err
            rendered.append(out)
    assert rendered[2:] == rendered[:2]


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


@pytest.mark.parametrize(("start", "end"), [(9, 2), (-1, 4)])
def test_trace_bad_doc_span_is_clean_error(tmp_path, capsys, start, end):
    entry = {"agent": "ContextAgent", "type": "Quote", "content": "Revenue grew.", "step": 1,
             "provenance": [{"kind": "doc", "id": "report", "start": start, "end": end}]}
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
    code = main(["trace", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and f"0 <= start <= end, not {start}..{end}" in err
    assert len(err.strip().splitlines()) == 1


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


def test_a_config_file_with_a_byte_order_mark_loads_as_one_without(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max_rounds": 4, "no_verify": True}), encoding="utf-8")
    marked = bom_copy(config, tmp_path / "marked")
    for path in (config, marked):
        code = main(["--config", str(path), *ask_args(tmp_path / path.parent.name)])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert out.strip() == GOLDEN_ANSWER and "AnswerUnverified" in err


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


def test_ask_writes_the_trace_and_summary_of_the_same_run_in_process(tmp_path, capsys):
    code = main(ask_args(tmp_path))
    capsys.readouterr()
    assert code == 0
    result = run_golden()
    assert (tmp_path / "trace.jsonl").read_bytes() == dump_trace(result.log.entries).encode()
    summary = json.dumps(result.summary_dict(), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "run.json").read_bytes() == summary.encode()


def _ask_or_bench(command, sources, tmp_path):
    if command == "ask":
        return ["ask", GOLDEN_QUESTION, "--sources", str(sources),
                "--scripted", str(FIXTURES / "golden_script.json"), "--out", str(tmp_path / "out")]
    dataset = tmp_path / "bench.jsonl"
    record = {"question": GOLDEN_QUESTION, "gold_answers": [GOLDEN_ANSWER], "sources_path": str(sources)}
    dataset.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return ["bench", str(dataset), "--scripted", str(FIXTURES / "golden_script.json"),
            "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("command", ["ask", "bench"])
def test_a_csv_cell_over_the_field_limit_is_one_error_line(tmp_path, capsys, command):
    sources = tmp_path / "sources"
    sources.mkdir()
    table = sources / "notes.csv"
    table.write_text("Year,Note\n2019,ok\n2020," + "x" * 131_073 + "\n", encoding="utf-8")
    code = main(_ask_or_bench(command, sources, tmp_path))
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith(f"{table} line 3: field larger than field limit (131072)\n")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ask", "bench"])
@pytest.mark.parametrize(
    "name, content, message",
    [
        ("bad.json", "{'tables': []}",
         "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ("dir/tables.json", "5", "table must be a JSON object, not a number"),
        ("dir/images.json", '{"id": "i"}', "images must be a JSON array, not a JSON object"),
    ],
    ids=["bundle-not-json", "directory-table-not-object", "directory-images-not-array"],
)
def test_a_bad_sources_file_names_itself(tmp_path, capsys, command, name, content, message):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(content, encoding="utf-8")
    sources = path if path.parent == tmp_path else path.parent
    code = main(_ask_or_bench(command, sources, tmp_path))
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.endswith(f"{path}: {message}\n")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "content, cell",
    [
        ("a\rb\r\nc|d", "a b c\\|d"),  # json.dumps escapes these; the row must too
        ("a\u2028b\u2029c\x85d", "a b c d"),  # entry_to_json writes these raw
    ],
)
def test_trace_renders_an_entry_holding_line_breaks_on_one_row(tmp_path, capsys, content, cell):
    path = tmp_path / "trace.jsonl"
    path.write_text(dump_trace(log_with("q?", quote(content)).entries), encoding="utf-8")
    code = main(["trace", str(path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out.split("\n")[3:] == [f"| ContextAgent (Quote) | {cell} |", ""]


def test_trace_that_is_not_json_names_the_file_and_line(tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text("[1", encoding="utf-8")
    code = main(["trace", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: {path} line 1: Expecting ',' delimiter: line 1 column 3 (char 2)\n"


def test_train_gate_reads_entries_holding_line_breaks_and_names_a_bad_trace(tmp_path, capsys):
    from logboard.log import SUMMARIZING_AGENT, VERIFICATION_AGENT, EntryType, LogEntry

    traces_dir = tmp_path / "traces"
    traces_dir.mkdir()
    for name, later in (("a", "Services brought in\u2028$12M per the notes."),
                        ("b", "An unrelated aside\u2029about staffing levels.")):
        log = log_with(f"q {name}?", lookup(f"Revenue {name} was $40M in the ledger."))
        log.append(LogEntry(SUMMARIZING_AGENT, EntryType.SUMMARY, "A second number is missing."))
        log.append(quote(later))
        log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: $40M plus $12M."))
        log.append(LogEntry(VERIFICATION_AGENT, EntryType.OK, "OK"))
        (traces_dir / f"{name}.jsonl").write_text(dump_trace(log.entries), encoding="utf-8")
    gate_path = tmp_path / "gate.json"
    code = main(["train-gate", str(traces_dir), "--out", str(gate_path)])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert "final loss" in out

    bad = traces_dir / "c.jsonl"
    bad.write_text(dump_trace(log.entries) + "[1\n", encoding="utf-8")
    code = main(["train-gate", str(traces_dir), "--out", str(gate_path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert err == f"error: {bad} line 7: Expecting ',' delimiter: line 1 column 3 (char 2)\n"


@pytest.mark.parametrize("command", ["ask", "bench"])
@pytest.mark.parametrize(
    "content, line",
    [("Year,Revenue\n2019,$5M,extra\n", 2), ("Year,Revenue\n\n2019,$5M\n\n2020\n", 5)],
    ids=["wide", "narrow-after-blank-lines"],
)
def test_a_csv_row_of_the_wrong_width_names_its_file_and_line(tmp_path, capsys, command, content, line):
    sources = tmp_path / "sources"
    sources.mkdir()
    table = sources / "t.csv"
    table.write_text(content, encoding="utf-8")
    code = main(_ask_or_bench(command, sources, tmp_path))
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    cells = len(content.rstrip("\n").split("\n")[-1].split(","))
    assert err.endswith(f"{table} line {line}: row has {cells} cells, header has 2\n")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["trace", "train-gate"])
def test_a_trace_that_is_not_utf8_names_its_file(tmp_path, capsys, command):
    path = tmp_path / "traces" / "a.jsonl"
    path.parent.mkdir()
    path.write_bytes(b"\xff\xfe{}\n")
    if command == "trace":
        code = main(["trace", str(path)])
    else:
        code = main(["train-gate", str(path.parent), "--out", str(tmp_path / "gate.json")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"error: {path} 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"


def test_ask_whose_backend_never_answers_is_one_error_line(tmp_path, capsys, monkeypatch):
    import urllib.error
    import urllib.request

    def urlopen(request, timeout):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    args = ["ask", GOLDEN_QUESTION, "--sources", str(FIXTURES / "golden_sources.json"),
            "--backend-url", "http://stub.invalid", "--out", str(tmp_path / "out")]
    code = main(args)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == (
        "error: backend transport failed after 2 retries: "
        "chat completion request failed: <urlopen error connection refused>\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("given", [["--fault-type", "arithmetic"], ["--fault-rate", "0.5"]])
def test_bench_with_half_a_fault_spec_is_one_error_line(tmp_path, capsys, given):
    code = main(["bench", str(FIXTURES / "golden_bench.jsonl"), "--scripted",
                 str(FIXTURES / "golden_bench_script.json"), "--out", str(tmp_path / "out"), *given])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: --fault-type and --fault-rate go together\n"
    assert not (tmp_path / "out").exists()


def test_train_gate_over_a_directory_without_traces_is_one_error_line(tmp_path, capsys):
    (tmp_path / "report.jsonl").write_text("", encoding="utf-8")
    code = main(["train-gate", str(tmp_path), "--out", str(tmp_path / "gate.json")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == "error: no usable traces found\n"
    assert not (tmp_path / "gate.json").exists()
