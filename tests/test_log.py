"""Shared log: append/dedup, budgeted rendering, markers, JSONL trace."""

import itertools
import json
import pickle
import random
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logboard.agents import AgentRole
from logboard.log import (
    CONTEXT_AGENT,
    SUMMARIZING_AGENT,
    TABLE_AGENT,
    USER,
    VERIFICATION_AGENT,
    VISUAL_AGENT,
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
    _dedup_key,
    _keys_near_duplicate,
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


def _trigram_rule(a: list[str], b: list[str]) -> bool:
    """The dedup rule as stated: equality under three words, else word
    3-gram Jaccard >= 0.85, from sets built one run at a time."""
    if len(a) < 3 or len(b) < 3:
        return a == b
    ga, gb = ({tuple(w[i : i + 3]) for i in range(len(w) - 2)} for w in (a, b))
    return len(ga & gb) / len(ga | gb) >= 0.85


@st.composite
def word_list_pairs(draw):
    """Two word lists: random ones over a small vocabulary, or a list of n
    distinct 3-grams beside one of its prefixes with m of them, m near
    17/20 of n, where the 3-gram counts decide the rule, a few words of the
    prefix perhaps replaced."""
    vocab = st.sampled_from("abcdefgh")
    if draw(st.booleans()):
        return draw(st.lists(vocab, max_size=14)), draw(st.lists(vocab, max_size=14))
    n = draw(st.integers(1, 60))
    m = draw(st.integers((4 * n) // 5, n))
    longer = [f"w{i}" for i in range(n + 2)]
    shorter = longer[: m + 2]
    for _ in range(draw(st.integers(0, 2))):
        shorter[draw(st.integers(0, len(shorter) - 1))] = draw(vocab)
    return (shorter, longer) if draw(st.booleans()) else (longer, shorter)


@settings(max_examples=400, deadline=None)
@given(word_list_pairs())
@example(([f"w{i}" for i in range(19)], [f"w{i}" for i in range(22)]))  # 17 of 20 3-grams
def test_the_dedup_size_bound_keeps_the_rule(pair):
    a, b = pair
    assert _keys_near_duplicate(_dedup_key(" ".join(a)), _dedup_key(" ".join(b))) is _trigram_rule(a, b)


@pytest.mark.parametrize("kind", [EntryType, AgentRole])
def test_enum_members_pickle_look_up_and_hash_as_themselves(kind):
    by_member = {member: member.value for member in kind}
    members = set(kind)
    for member in kind:
        assert pickle.loads(pickle.dumps(member)) is member
        assert kind(member.value) is member
        assert by_member[member] == member.value and member in members
        assert member in frozenset([member]) and hash(member) == hash(kind(member.value))
    assert EntryType("Lookup") is EntryType.LOOKUP


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


def _reference_render_view(log: SharedLog) -> str:
    """`render_view` as it was when it formatted every entry on each call."""
    entries = [e for e in log.entries if e.entry_type is not EntryType.QUERY]
    lines = [format_entry(e) for e in entries]
    view = "\n".join(lines)
    if token_estimate(view) <= COMPRESS_TRIGGER:
        return view
    for k in range(1, len(entries) + 1):
        cites = [c for e in entries[:k] for c in e.citations()]
        stub = f"{SUMMARIZING_AGENT} (Summary): [history: {k} earlier entries compressed]"
        if cites:
            stub += " [cite: " + " | ".join(cites) + "]"
        view = "\n".join([stub] + lines[k:])
        if token_estimate(view) <= TARGET_AFTER:
            return view
    return view


_WRITERS = [
    (USER, EntryType.QUERY, lambda i: []),
    (TABLE_AGENT, EntryType.LOOKUP, lambda i: [TableAnchor("t1", i, 0), TableAnchor("t1", i, 1)]),
    (CONTEXT_AGENT, EntryType.QUOTE, lambda i: [DocSpan("p1", i, i + 5)]),
    (VISUAL_AGENT, EntryType.VISUAL, lambda i: [ImageRef(f"img{i}")]),
    (SUMMARIZING_AGENT, EntryType.SUMMARY, lambda i: []),
    (SUMMARIZING_AGENT, EntryType.ANSWER, lambda i: []),
    (VERIFICATION_AGENT, EntryType.FLAG, lambda i: []),
    (VERIFICATION_AGENT, EntryType.OK, lambda i: []),
]

# (writer, tag, words): equal tags and sizes repeat a text, so dedup rejects
# some appends; a few long entries pass COMPRESS_TRIGGER.
appends = st.lists(
    st.tuples(
        st.integers(0, len(_WRITERS) - 1),
        st.integers(0, 3),
        st.one_of(st.integers(1, 12), st.integers(300, 900)),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None)
@given(appends)
def test_kept_lines_render_as_the_entries_do(plan):
    log = SharedLog()
    for writer, tag, size in plan:
        agent, entry_type, provenance = _WRITERS[writer]
        content = " ".join(f"w{tag}x{j}" for j in range(size))
        log.append(LogEntry(agent, entry_type, content, provenance=provenance(tag)))
        assert render_view(log) == _reference_render_view(log)
        queries = [e.content for e in log.entries if e.entry_type is EntryType.QUERY]
        assert log.question() == (queries[0] if queries else "")
        for types in [(EntryType.ANSWER,), (EntryType.SUMMARY, EntryType.FLAG, EntryType.OK)]:
            newest = [e for e in log.entries if e.entry_type in types][-1:]
            assert log.latest(*types) is (newest[0] if newest else None)


def test_kept_lines_reach_the_compress_path():
    log = _busy_log(20, 300)
    assert "[history:" in render_view(log)
    assert render_view(log) == _reference_render_view(log)


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
    assert parse_verdict("Verified. The table checks out. (No issues flagged.)")
    assert parse_verdict("OK")
    assert not parse_verdict("Flagged incorrect calculation: 55-50 is not 6.")
    assert not parse_verdict("The table value is unsupported; CEO in 2020 missing.")
    assert not parse_verdict("gibberish")
    # An OK right after "not" or a word ending in "n't" is a rejection.
    assert not parse_verdict("Not OK: 55 - 50 is 5, not 6.")
    assert not parse_verdict("The answer is NOT OK.")
    assert not parse_verdict("This isn't OK: the unit is wrong.")
    assert parse_verdict("Everything checks out. OK.")
    # Standalone token only: lowercase or embedded "ok" is not a verdict.
    assert not parse_verdict("it is broken, not okay")


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


def test_load_trace_ends_lines_at_newline_only():
    # entry_to_json writes these three raw; `str.splitlines` ends a line at each.
    contents = ["a\u2028b", "c\u2029d", "e\x85f"]
    entries = [lookup(text) for text in contents]
    assert [e.content for e in load_trace(dump_trace(entries))] == contents


def test_load_trace_names_the_bad_line():
    good = entry_to_json(LogEntry(USER, EntryType.QUERY, "q?", step=0))
    with pytest.raises(ValueError, match="^line 3: Expecting ',' delimiter"):
        load_trace(f"{good}\n\n[1\n")


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
