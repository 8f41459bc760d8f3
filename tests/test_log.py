"""Shared log: append/dedup, budgeted rendering, markers, JSONL trace."""

import itertools
import json
import random
import threading

import pytest

from logboard.log import (
    SUMMARIZING_AGENT,
    TABLE_AGENT,
    USER,
    VERIFICATION_AGENT,
    COMPRESS_TRIGGER,
    TARGET_AFTER,
    AppendResult,
    DocSpan,
    EntryType,
    ImageRef,
    LogEntry,
    SharedLog,
    TableAnchor,
    ValidationError,
    dump_trace,
    entry_from_json,
    entry_to_json,
    format_entry,
    is_near_duplicate,
    load_trace,
    parse_answer,
    parse_verdict,
    render_view,
    token_estimate,
    view_citations,
)

from helpers import GOLDEN_QUESTION, lookup, quote


def test_append_assigns_monotone_steps():
    log = SharedLog()
    assert log.append(LogEntry(USER, EntryType.QUERY, GOLDEN_QUESTION)) is AppendResult.ACCEPTED
    assert log.entries[0].step == 0
    log.append(lookup("Revenue in 2018 was $50M (from Table 1)."))
    log.append(quote("The report cites higher sales volume."))
    steps = [e.step for e in log.entries]
    assert steps == sorted(steps) and len(set(steps)) == len(steps)


def test_exact_duplicate_rejected():
    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, "What grew?"))
    entry = lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1).")
    twin = lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M (from Table 1).")
    assert log.append(entry) is AppendResult.ACCEPTED
    assert log.append(twin) is AppendResult.REJECTED_DUPLICATE
    assert len(log.entries) == 2


def test_whitespace_and_case_duplicates_rejected():
    log = SharedLog()
    log.append(lookup("Revenue in 2018 was $50M, revenue in 2019 was $55M."))
    shouty = lookup("REVENUE in 2018   was $50m, revenue IN 2019 was $55M.")
    assert log.append(shouty) is AppendResult.REJECTED_DUPLICATE


def test_validation_errors_name_invariant():
    log = SharedLog()
    with pytest.raises(ValidationError, match="non-empty"):
        log.append(LogEntry(USER, EntryType.QUERY, "   "))
    with pytest.raises(ValidationError, match="role/type mismatch"):
        log.append(LogEntry(TABLE_AGENT, EntryType.ANSWER, "nope"))
    with pytest.raises(ValidationError, match="TableAnchor"):
        log.append(LogEntry(TABLE_AGENT, EntryType.LOOKUP, "no anchors"))
    with pytest.raises(ValidationError, match="DocSpan"):
        log.append(LogEntry("ContextAgent", EntryType.QUOTE, "no span"))
    with pytest.raises(ValidationError, match="ImageRef"):
        log.append(LogEntry("VisualAgent", EntryType.VISUAL, "no ref"))


def test_foreign_agents_allowed_with_fixed_types():
    log = SharedLog()
    assert log.append(LogEntry("Planner", EntryType.SUMMARY, "external trace row")) is AppendResult.ACCEPTED


def test_near_duplicate_predicate():
    assert is_near_duplicate("abc", "abc")
    assert not is_near_duplicate("Revenue was $50M in 2018", "Profit fell in 2020")
    # 40-word text vs the same text plus one word: Jaccard by direct count.
    s = " ".join(f"tok{i}" for i in range(40))
    grams_a = {tuple(s.split()[i : i + 3]) for i in range(38)}
    extended = s + " indeed"
    grams_b = {tuple(extended.split()[i : i + 3]) for i in range(39)}
    expected = len(grams_a & grams_b) / len(grams_a | grams_b)
    assert expected >= 0.85
    assert is_near_duplicate(s, extended)


def test_short_texts_compare_exactly():
    assert not is_near_duplicate("hi there", "hi here")
    assert is_near_duplicate("hi  there", "HI THERE")


def test_dedup_soundness_over_random_sequences():
    rng = random.Random(7)
    vocab = ["alpha", "beta", "gamma", "delta", "sales", "rose", "fell", "2019"]
    log = SharedLog()
    rejected = 0
    for _ in range(120):
        content = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 12)))
        committed = list(log.entries)
        if log.append(LogEntry("Planner", EntryType.SUMMARY, content)) is AppendResult.ACCEPTED:
            continue
        rejected += 1
        assert any(is_near_duplicate(content, e.content) for e in committed)
    assert rejected > 0
    for a, b in itertools.combinations(log.entries, 2):
        assert not is_near_duplicate(a.content, b.content)


def test_concurrent_appends_serialize():
    log = SharedLog()
    def worker(k):
        for i in range(25):
            log.append(LogEntry("Planner", EntryType.SUMMARY, f"worker {k} item {i} unique"))
    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    steps = [e.step for e in log.entries]
    assert steps == list(range(len(log.entries)))


def test_token_estimate():
    assert token_estimate("") == 0
    assert token_estimate("x" * 4000) == 1000
    assert token_estimate("abcde") == 2


def test_render_view_below_trigger_is_verbatim():
    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, "short?"))
    log.append(lookup("Revenue was $50M (from Table 1)."))
    view = render_view(log)
    assert "[history:" not in view
    assert view.endswith(format_entry(log.entries[-1]))


def _busy_log(n_entries: int, tokens_each: int) -> SharedLog:
    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, "What happened across the years?"))
    for i in range(n_entries):
        filler = f"entry {i} " + " ".join(f"w{i}x{j}" for j in range(tokens_each))
        log.append(
            LogEntry(
                TABLE_AGENT,
                EntryType.LOOKUP,
                filler,
                provenance=[TableAnchor(f"t{i}", i, 0), TableAnchor(f"t{i}", i, 1)],
            )
        )
    return log


def test_render_view_compresses_to_target():
    log = _busy_log(20, 300)
    assert token_estimate("\n".join(format_entry(e) for e in log.entries)) > COMPRESS_TRIGGER
    view = render_view(log)
    assert token_estimate(view) <= TARGET_AFTER
    assert "[history:" in view


def test_render_view_preserves_anchor_multiset():
    log = _busy_log(20, 300)
    view = render_view(log)
    rendered = sorted(view_citations(view))
    original = sorted(c for e in log.entries for c in e.citations())
    assert rendered == original


def test_render_view_stub_keeps_specific_anchor():
    log = _busy_log(20, 300)
    view = render_view(log)
    # The first (oldest) entry is certainly compressed; its anchor survives.
    assert "table:t0@0,0" in view
    assert "entry 0 " not in view


def test_parse_answer_marker():
    content = (
        "The revenue increased by $5 million from 2018 to 2019, and this increase was "
        "mainly driven by higher sales volume. Answer: $5M increase, due to higher sales volume."
    )
    assert parse_answer(content) == "$5M increase, due to higher sales volume."
    assert parse_answer("We still need the 2019 figure.") is None
    assert parse_answer("Therefore, the answer is 42.") == "Therefore, the answer is 42."
    assert parse_answer("In conclusion, margins fell. Details follow.") == "In conclusion, margins fell."
    assert parse_answer("answer:   spaced  ") == "spaced"


def test_parse_answer_roundtrip_through_template():
    for answer in ["$5M increase", "42", "higher sales volume in 2019"]:
        assert parse_answer(f"Reasoning here. Answer: {answer}") == answer


def test_parse_verdict():
    assert parse_verdict("Verified. The table checks out. (No issues flagged.)").ok
    assert parse_verdict("OK").ok
    v = parse_verdict("Flagged incorrect calculation: 55-50 is not 6.")
    assert not v.ok and "Flagged incorrect" in v.reason
    v = parse_verdict("The table value is unsupported; CEO in 2020 missing.")
    assert not v.ok and "missing" in v.reason
    assert parse_verdict("gibberish").reason == "unparseable verdict"
    # Standalone token only: lowercase or embedded "ok" is not a verdict.
    assert not parse_verdict("it is broken, not okay").ok


def test_jsonl_roundtrip():
    entry = LogEntry(
        TABLE_AGENT,
        EntryType.LOOKUP,
        "Revenue was $50M (from Table 1).",
        step=3,
        ts_ms=17,
        provenance=[TableAnchor("Table 1", 0, 1), ImageRef("chart"), DocSpan("d", 2, 9)],
    )
    line = entry_to_json(entry)
    back = entry_from_json(line)
    assert back == entry
    record = __import__("json").loads(line)
    assert list(record) == ["agent", "type", "content", "step", "ts_ms", "provenance"]
    assert record["provenance"][0] == {"kind": "table", "id": "Table 1", "row": 0, "col": 1}


def test_dump_and_load_trace():
    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, "q?"))
    log.append(LogEntry(SUMMARIZING_AGENT, EntryType.ANSWER, "Answer: 42"))
    log.append(LogEntry(VERIFICATION_AGENT, EntryType.OK, "OK"))
    text = dump_trace(log.entries)
    assert [e.entry_type for e in load_trace(text)] == [
        EntryType.QUERY,
        EntryType.ANSWER,
        EntryType.OK,
    ]


@pytest.mark.parametrize("field", ["agent", "type", "content", "step"])
def test_load_trace_names_missing_field(field):
    record = json.loads(entry_to_json(LogEntry(USER, EntryType.QUERY, "q?", step=0)))
    del record[field]
    with pytest.raises(ValueError, match=repr(field)):
        load_trace(json.dumps(record) + "\n")


def test_load_trace_rejects_non_object_line():
    with pytest.raises(ValueError, match="not a JSON object"):
        load_trace("[1, 2]\n")


def test_load_trace_names_missing_provenance_field():
    record = json.loads(entry_to_json(lookup("Revenue was $50M.")))
    del record["provenance"][0]["row"]
    with pytest.raises(ValueError, match="table provenance has no 'row' field"):
        load_trace(json.dumps(record))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("step", None, "'step' must be an integer, not null"),
        ("step", "3", "'step' must be an integer, not a string"),
        ("ts_ms", 1.5, "'ts_ms' must be an integer, not a number"),
        ("content", 5, "'content' must be a string, not a number"),
        ("agent", ["User"], "'agent' must be a string, not a JSON array"),
        ("provenance", "doc", "'provenance' must be a JSON array, not a string"),
        ("provenance", ["doc"], "provenance must be a JSON object, not a string"),
        ("provenance", [{"kind": "table", "id": "t", "row": True, "col": 0}],
         "table provenance field 'row' must be an integer, not a boolean"),
        ("provenance", [{"kind": "doc", "id": 1, "start": 0, "end": 1}],
         "doc provenance field 'id' must be a string, not a number"),
    ],
)
def test_load_trace_names_mistyped_field(field, value, message):
    record = json.loads(entry_to_json(LogEntry(USER, EntryType.QUERY, "q?", step=0)))
    record[field] = value
    with pytest.raises(ValueError, match=message):
        load_trace(json.dumps(record) + "\n")
