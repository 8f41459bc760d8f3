"""Source views shared by the records of one bundle within a run_benchmark call.

A bundle's prepared facts (each table's distinct cells and their text,
each passage's sentences, each image's id phrase, numerals and tokens)
are built once per bundle in each pass and dropped with the call.
Sharing them must change no report, trace or metric, and a lone run
builds exactly one views object.
"""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logboard.agents
import logboard.harness
import logboard.retrieval
import logboard.textutil
from logboard.agents import (
    RETRIEVAL_ROLES,
    AgentRole,
    _images_shown,
    _passages_chosen,
    build_agents,
    extract_doc_spans,
    extract_image_refs,
    summarize,
    verification_act,
)
from logboard.backends import ScriptedBackend
from logboard.harness import BenchmarkRecord, FaultSpec, FaultType, run_benchmark
from logboard.log import dump_trace
from logboard.retrieval import SourceViews, select_table_slice
from logboard.scheduler import run
from logboard.sources import Image, Passage, SourceBundle, bundle_from_dict, bundle_to_dict
from logboard.textutil import normalize, parse_numerals, split_sentences

from helpers import (
    GOLDEN_ANSWER,
    GOLDEN_QUESTION,
    golden_script,
    golden_sources,
    shared_bundle_records,
)
from test_table_equivalence import (
    NUMERALS,
    WORDS,
    CountingPattern,
    bundle_question_reply,
    counting_table_cells,
    free_text,
    passage_text,
    phrase,
    row_cells_tokenized,
    shown_cells,
)


def copied(sources):
    return bundle_from_dict(bundle_to_dict(sources))


def bundles_of(records):
    return list({id(record.sources): record.sources for record in records}.values())


def run_all(records, script, fault_spec=None, out_dir=None):
    return run_benchmark(
        records,
        backend_factory=lambda: ScriptedBackend(script),
        fault_spec=fault_spec,
        out_dir=out_dir,
    )


def written(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("fault_spec", [None, FaultSpec(FaultType.ARITHMETIC_CORRUPTION, 0.5, 3)])
def test_shared_bundles_write_what_unshared_copies_write(tmp_path, fault_spec):
    records, script = shared_bundle_records()
    assert len(bundles_of(records)) == 2 and len(records) == 6
    alone = [BenchmarkRecord(r.question, copied(r.sources), r.gold_answers) for r in records]
    metrics, _ = run_all(records, script, fault_spec, tmp_path / "shared")
    run_all(alone, script, fault_spec, tmp_path / "alone")
    assert metrics.em == 1.0
    shared = written(tmp_path / "shared")
    assert shared == written(tmp_path / "alone")
    assert len(shared) == len(records) + (3 if fault_spec else 2)  # traces, metrics, report, faults


def test_each_record_reports_what_its_lone_run_gives(tmp_path):
    records, script = shared_bundle_records()
    _, reports = run_all(records, script, out_dir=tmp_path)
    for i, (record, report) in enumerate(zip(records, reports)):
        result = run(record.question, copied(record.sources), ScriptedBackend(script))
        assert (tmp_path / f"trace_{i:03d}.jsonl").read_text() == dump_trace(result.log.entries)
        assert report["answer"] == result.final_answer
        assert report["termination"] == result.termination.value
        assert report["log_entries"] == len(result.log.entries)
        assert {key: report[key] for key in result.metrics.to_dict()} == result.metrics.to_dict()


def counting(calls, fn):
    def counted(text):
        calls.append(text)
        return fn(text)

    return counted


def source_work(records):
    """Per pass: each table's cell view built, each image id normalized,
    each image text parsed."""
    tables, names, texts = Counter(), Counter(), Counter()
    for sources in bundles_of(records):
        tables.update(table.id for table in sources.tables)
        names.update(image.id for image in sources.images)
        texts.update(f"{image.caption} {image.ocr_text}" for image in sources.images)
    return tables, names, texts


@pytest.mark.parametrize("fault_spec", [None, FaultSpec(FaultType.ARITHMETIC_CORRUPTION, 1.0, 3)])
def test_each_bundle_is_prepared_once_per_pass(monkeypatch, fault_spec):
    records, script = shared_bundle_records()
    tokenized, viewed, normalized, anchored, parsed, split = [], [], [], [], [], []
    monkeypatch.setattr(logboard.textutil, "TOKEN_RE", CountingPattern(tokenized))
    monkeypatch.setattr(logboard.retrieval, "table_cells", counting_table_cells(viewed))
    monkeypatch.setattr(logboard.retrieval, "normalize", counting(normalized, normalize))
    monkeypatch.setattr(logboard.agents, "normalize", counting(anchored, normalize))
    monkeypatch.setattr(logboard.retrieval, "split_sentences", counting(split, split_sentences))
    for module in (logboard.retrieval, logboard.agents):
        monkeypatch.setattr(module, "parse_numerals", counting(parsed, parse_numerals))
    _, reports = run_all(records, script, fault_spec)

    # At rate 1.0 every record runs again live, so each bundle is prepared in both passes.
    passes = 1 if fault_spec is None else 2
    assert all(report["rounds"] >= 1 for report in reports)
    tables, names, texts = source_work(records)
    assert Counter(viewed) == Counter({table: n * passes for table, n in tables.items()})
    all_tables = [t for s in bundles_of(records) for t in s.tables]
    assert not row_cells_tokenized(tokenized, all_tables)
    assert Counter(normalized) == Counter({text: n * passes for text, n in names.items()})
    # Anchoring normalizes only cells that a record's slices show.
    table_cells = {c for t in all_tables for r in t.rows for c in r}
    shown = set().union(*(shown_cells(r.sources, r.question) for r in records))
    anchored_cells = {text for text in anchored if text in table_cells}
    assert anchored_cells and anchored_cells <= shown < table_cells
    image_texts = [text for text in parsed if text in texts]
    assert Counter(image_texts) == Counter({text: n * passes for text, n in texts.items()})
    # Each chosen passage is split once per pass, for its best match and its window alike.
    passage_texts = {p.text for sources in bundles_of(records) for p in sources.passages}
    assert split and set(split) <= passage_texts
    assert max(Counter(split).values()) == passes


def test_no_view_outlives_the_call_and_a_second_call_rebuilds(monkeypatch):
    made = []

    class TrackedViews(SourceViews):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    normalized = []
    monkeypatch.setattr(logboard.harness, "SourceViews", TrackedViews)
    monkeypatch.setattr(logboard.retrieval, "table_cells", counting_table_cells(normalized))
    monkeypatch.setattr(logboard.retrieval, "normalize", counting(normalized, normalize))
    records, script = shared_bundle_records()
    sources = bundles_of(records)
    parts = [*sources, *(x for s in sources for x in (*s.tables, *s.passages, *s.images))]
    fields = [sorted(vars(part)) for part in parts]

    run_all(records, script)
    gc.collect()
    assert len(made) == len(sources)  # one per bundle
    assert all(ref() is None for ref in made)
    first = Counter(normalized)

    normalized.clear()
    run_all(records, script)
    gc.collect()
    assert len(made) == 2 * len(sources) and all(ref() is None for ref in made)
    assert Counter(normalized) == first  # built again, not kept from the first call
    # Nothing was stored on the sources themselves.
    assert [sorted(vars(part)) for part in parts] == fields


@settings(max_examples=150, deadline=None)
@given(
    bundle_question_reply(),
    st.lists(passage_text, max_size=4),
    st.lists(st.tuples(free_text, free_text), max_size=3),
    st.data(),
)
def test_one_view_shared_by_several_questions_matches_fresh_views(case, texts, images, data):
    tables, question, reply = case
    sources = SourceBundle(
        tables=tables.tables,
        passages=[Passage(f"p{i}", text) for i, text in enumerate(texts)],
        images=[Image(f"i{i}", caption, ocr) for i, (caption, ocr) in enumerate(images)],
    )
    cells = [c for t in sources.tables for row in t.rows for c in row]
    pieces = WORDS + NUMERALS + cells + texts + [f"image i{i}" for i in range(len(images))]
    shared = SourceViews()
    asked = [(question, reply)] + [
        (phrase(data.draw, pieces), phrase(data.draw, pieces)) for _ in range(2)
    ]
    for question, reply in asked:
        fresh = SourceViews()
        for table in sources.tables:
            expected = select_table_slice(table, question, fresh.table(table))
            assert select_table_slice(table, question, shared.table(table)) == expected
        pair = (shared, fresh)
        cites = [build_agents(v)[AgentRole.TABLE]._show(sources, question)[1] for v in pair]
        assert cites[0](reply) == cites[1](reply)
        for role in RETRIEVAL_ROLES:
            blocks = [list(build_agents(v)[role]._show(sources, question)[0]) for v in pair]
            assert blocks[0] == blocks[1]
        chosen = _passages_chosen(sources, question)
        assert extract_doc_spans(reply, chosen, shared) == extract_doc_spans(reply, chosen, fresh)
        shown = [_images_shown(question, sources, views) for views in (shared, fresh)]
        assert shown[0] == shown[1]
        assert extract_image_refs(reply, shown[0], shared) == extract_image_refs(
            reply, shown[1], fresh
        )


def test_a_lone_run_builds_one_views(monkeypatch):
    built = []
    original = SourceViews.__init__

    def counting_init(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(SourceViews, "__init__", counting_init)
    result = run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(golden_script()))
    assert result.final_answer == GOLDEN_ANSWER
    assert len(built) == 1
    # The Summarizer's and verifier's prompts show the log alone.
    built.clear()
    backend = ScriptedBackend(golden_script())
    assert summarize(result.log, backend) is not None
    verification_act(result.log, backend)
    assert backend.calls == 2 and built == []
