"""Evaluation harness: fault injection, metrics, and the benchmark runner.

Faults reproduce the observed error taxonomy (missing rows, off-by-one row
references, arithmetic corruption, OCR misreads) as seeded, labeled
mutations. `inject_faults` corrupts a copy of a source bundle; the
benchmark runner corrupts retrieval entries in flight, as they are
appended, so verification and re-engagement react to them.
Metrics cover exact match, ROUGE, log-groundedness, catch/repair rates,
efficiency accounting, and percentile-bootstrap confidence intervals.
"""

from __future__ import annotations

import json
import logging
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import scheduler as sched  # sched.run, not a bound name: timers may rebind it
from .agents import flagged_steps
from .backends import TextBackend
from .gating import LogisticGate
from .log import (
    EVIDENCE_TYPES,
    EntryType,
    LogEntry,
    SharedLog,
    TableAnchor,
    dump_trace,
)
from .retrieval import SourceViews
from .sources import (
    SourceBundle,
    bundle_from_dict,
    bundle_to_dict,
    json_field,
    json_strings,
    json_value,
    load_sources,
)
from .textutil import (
    ARTICLES,
    NumericMention,
    canonical_numeral_token,
    canonicalize_numerals,
    capitalized_spans,
    is_year_like,
    names,
    normalize,
    parse_numerals,
    words,
)
from .verify import assess_answer_numerals

logger = logging.getLogger(__name__)


class FaultType(Enum):
    MISSING_ROW = "MissingRow"
    ROW_OFF_BY_ONE = "RowOffByOne"
    ARITHMETIC_CORRUPTION = "ArithmeticCorruption"
    OCR_MISREAD = "OcrMisread"


@dataclass(frozen=True)
class FaultSpec:
    fault_type: FaultType
    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")


@dataclass
class FaultLabel:
    target: int | str  # entry step or source id
    fault_type: FaultType
    original: str
    corrupted: str
    record_index: int = -1

    def __post_init__(self) -> None:
        if self.original == self.corrupted:
            raise ValueError("a fault must change its target")

    def to_dict(self) -> dict:
        return {
            "record": self.record_index,
            "target": self.target,
            "fault_type": self.fault_type.value,
            "original": self.original,
            "corrupted": self.corrupted,
        }


def _corruptible(mentions: Iterable[NumericMention]) -> list[NumericMention]:
    # Years are labels, not amounts. From 2**53 up floats skip integers, so a
    # one-unit shift could parse to the value it had: such numerals are refused.
    return [m for m in mentions if not is_year_like(m) and abs(m.value) < 2**53]


def perturb_numeral(
    text: str, mentions: Sequence[NumericMention], rng: random.Random
) -> tuple[str, str, str] | None:
    """Shift one numeral by one leading unit; returns (new_text, old, new).

    mentions must be `parse_numerals(text)`, which callers hold already.
    The written sign is kept, so a shift never reaches or crosses zero;
    such a shift steps away from zero instead: "-0.5" becomes "-1.5", not
    "--0.5", and "-1" becomes "-2", not "-0".
    """
    eligible = _corruptible(mentions)
    if not eligible:
        return None
    mention = eligible[rng.randrange(len(eligible))]
    delta = rng.choice((-1.0, 1.0))  # shift of the value
    step = delta if mention.raw >= 0 else -delta  # the same shift of the magnitude
    if abs(mention.raw) + step <= 0:
        step = 1.0
    new_raw = abs(mention.raw) + step
    body_match = re.search(r"[\d,]+(?:\.\d+)?", mention.text)
    assert body_match is not None
    body = body_match.group()
    decimals = len(body.split(".")[1]) if "." in body else 0
    grouping = "," if "," in body else ""
    new_body = f"{new_raw:{grouping}.{decimals}f}"
    new_mention = mention.text.replace(body, new_body, 1)
    new_text = text[: mention.start] + text[mention.start : mention.end].replace(
        body, new_body, 1
    ) + text[mention.end :]
    return new_text, mention.text, new_mention


def _swap_two_numerals(
    text: str, mentions: Sequence[NumericMention], rng: random.Random
) -> str | None:
    """Swap two numerals of different value; None when the text has none.

    mentions must be `parse_numerals(text)`.
    """
    distinct = [
        (a, b)
        for i, a in enumerate(mentions)
        for b in mentions[i + 1 :]
        if a.value != b.value
    ]
    if not distinct:
        return None
    a, b = distinct[rng.randrange(len(distinct))]
    return text[: a.start] + b.text + text[a.end : b.start] + a.text + text[b.end :]


def _select(count_from: int, spec: FaultSpec) -> list[int]:
    count = math.ceil(spec.rate * count_from)
    rng = random.Random(spec.seed)
    return sorted(rng.sample(range(count_from), count))


def inject_faults(bundle: SourceBundle, spec: FaultSpec) -> tuple[SourceBundle, list[FaultLabel]]:
    """Apply ceil(rate * |eligible|) seeded mutations to a copy of the sources.

    MissingRow deletes table rows, RowOffByOne rotates a table's rows by one,
    ArithmeticCorruption shifts a numeral in a table cell, and OcrMisread
    swaps two numerals of an image's OCR text. Every mutation is labeled.
    Log entries are corrupted in flight instead, by `run_benchmark`.
    """
    out = bundle_from_dict(bundle_to_dict(bundle))  # deep copy
    labels: list[FaultLabel] = []
    rng = random.Random(spec.seed)
    ft = spec.fault_type

    if ft is FaultType.MISSING_ROW:
        targets = [
            (t_idx, r_idx)
            for t_idx, table in enumerate(out.tables)
            for r_idx in range(len(table.rows))
        ]
        _require_targets(targets, "tables with rows")
        chosen = _select(len(targets), spec)
        for t_idx, r_idx in sorted((targets[i] for i in chosen), reverse=True):
            table = out.tables[t_idx]
            row = table.rows.pop(r_idx)
            labels.append(
                FaultLabel(table.id, ft, " | ".join(row), f"<row {r_idx} deleted>")
            )
    elif ft is FaultType.ROW_OFF_BY_ONE:
        targets = [i for i, t in enumerate(out.tables) if len(t.rows) >= 2]
        _require_targets(targets, "tables with >=2 rows")
        for i in _select(len(targets), spec):
            table = out.tables[targets[i]]
            original = " | ".join(table.rows[0])
            table.rows[:] = table.rows[1:] + table.rows[:1]
            labels.append(FaultLabel(table.id, ft, original, " | ".join(table.rows[0])))
    elif ft is FaultType.ARITHMETIC_CORRUPTION:
        targets = [
            (t_idx, r, c)
            for t_idx, table in enumerate(out.tables)
            for r, row in enumerate(table.rows)
            for c, cell in enumerate(row)
            if _corruptible(parse_numerals(cell))
        ]
        _require_targets(targets, "numeric table cells")
        for i in _select(len(targets), spec):
            t_idx, r, c = targets[i]
            table = out.tables[t_idx]
            cell = table.rows[r][c]
            mutated = perturb_numeral(cell, parse_numerals(cell), rng)
            assert mutated is not None
            new_cell, _, _ = mutated
            labels.append(FaultLabel(table.id, ft, cell, new_cell))
            table.rows[r][c] = new_cell
    else:  # OcrMisread
        targets = [
            i for i, img in enumerate(out.images) if _swappable(parse_numerals(img.ocr_text))
        ]
        _require_targets(targets, "images with two OCR numerals of different value")
        for i in _select(len(targets), spec):
            image = out.images[targets[i]]
            swapped = _swap_two_numerals(image.ocr_text, parse_numerals(image.ocr_text), rng)
            assert swapped is not None
            labels.append(FaultLabel(image.id, ft, image.ocr_text, swapped))
            image.ocr_text = swapped
    return out, labels


def _swappable(mentions: Iterable[NumericMention]) -> bool:
    # Values, not texts: swapping "5" and "5.0" would change no value.
    return len({m.value for m in mentions}) >= 2


def _require_targets(targets, description: str) -> None:
    if not targets:
        raise ValueError(f"fault rate selects zero targets: no {description}")


# Faults that mutate a single log entry, in flight.
_ENTRY_FAULTS = frozenset(
    {FaultType.ARITHMETIC_CORRUPTION, FaultType.ROW_OFF_BY_ONE, FaultType.OCR_MISREAD}
)


def _anchor_index(entry: LogEntry) -> int | None:
    return next(
        (k for k, p in enumerate(entry.provenance) if isinstance(p, TableAnchor)), None
    )


def _mutate_entry(
    entry: LogEntry, fault_type: FaultType, rng: random.Random, log: SharedLog
) -> tuple[str, str]:
    """Apply one entry fault in place to an eligible entry; returns (original, corrupted).

    ArithmeticCorruption and OcrMisread rewrite the content, whose numerals
    are read through the run's log, as `_entry_eligible` read them;
    RowOffByOne moves the first table anchor down one row.
    """
    if fault_type is FaultType.ROW_OFF_BY_ONE:
        pos = _anchor_index(entry)
        assert pos is not None
        anchor = entry.provenance[pos]
        shifted = TableAnchor(anchor.table_id, anchor.row + 1, anchor.col)
        entry.provenance[pos] = shifted
        return anchor.cite(), shifted.cite()
    if fault_type is FaultType.ARITHMETIC_CORRUPTION:
        mutated = perturb_numeral(entry.content, log.numerals(entry.content), rng)
        new_content = mutated[0] if mutated else None
    else:  # OcrMisread
        new_content = _swap_two_numerals(entry.content, log.numerals(entry.content), rng)
    assert new_content is not None
    original, entry.content = entry.content, new_content
    return original, new_content


# --- metrics ------------------------------------------------------------------

def _answer_words(text: str) -> list[str]:
    """The words of the text with each numeral canonicalized ("$5M" and "5
    million" give "5000000"): the words ROUGE reads; exact match reads them
    without the articles."""
    return words(canonicalize_numerals(text))


def _exact_match_words(pred: list[str], golds: Iterable[list[str]]) -> bool:
    content = [w for w in pred if w not in ARTICLES]
    return any(content == [w for w in gold if w not in ARTICLES] for gold in golds)


def exact_match(pred: str, golds: Sequence[str]) -> bool:
    """Normalized equality against any gold answer."""
    return _exact_match_words(_answer_words(pred), map(_answer_words, golds))


def _lcs_len(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def _f1(overlap: int, pred_n: int, gold_n: int) -> float:
    if pred_n == 0 and gold_n == 0:
        return 1.0
    if overlap == 0:
        return 0.0
    precision = overlap / pred_n
    recall = overlap / gold_n
    return 2 * precision * recall / (precision + recall)


def rouge(pred: str, gold: str) -> dict[str, float]:
    """Unigram/bigram overlap F1 and LCS F1 over normalized tokens."""
    return _rouge_words(_answer_words(pred), _answer_words(gold))


def _rouge_words(pred_tokens: list[str], gold_tokens: list[str]) -> dict[str, float]:
    scores = {}
    for n, name in ((1, "rouge1"), (2, "rouge2")):
        pred_ngrams = [tuple(pred_tokens[i : i + n]) for i in range(len(pred_tokens) - n + 1)]
        gold_ngrams = [tuple(gold_tokens[i : i + n]) for i in range(len(gold_tokens) - n + 1)]
        if not pred_ngrams and not gold_ngrams:
            # Texts too short for this order: identical texts score 1, else 0.
            scores[name] = 1.0 if pred_tokens == gold_tokens else 0.0
            continue
        overlap = 0
        remaining = {}
        for g in gold_ngrams:
            remaining[g] = remaining.get(g, 0) + 1
        for p in pred_ngrams:
            if remaining.get(p, 0) > 0:
                remaining[p] -= 1
                overlap += 1
        scores[name] = _f1(overlap, len(pred_ngrams), len(gold_ngrams))
    scores["rougeL"] = _f1(
        _lcs_len(pred_tokens, gold_tokens), len(pred_tokens), len(gold_tokens)
    )
    return scores


def log_groundedness(answer: str, log: SharedLog) -> float:
    """Fraction of checkable answer units supported by evidence entries.

    Units are unique canonicalized numerals (supported when present in
    evidence or derivable from Lookup arithmetic the answer invokes) plus
    maximal capitalized spans (supported by case-insensitive containment).
    Zero checkable units scores 1.0 by convention.
    """
    if not answer or not answer.strip():
        raise ValueError("answer must be non-empty")
    supported = 0
    total = 0
    numeral_ok: dict[str, bool] = {}
    assessments = assess_answer_numerals(answer, log)
    for assessment in assessments:
        key = canonical_numeral_token(assessment.mention)
        numeral_ok[key] = numeral_ok.get(key, False) or assessment.supported
    total += len(numeral_ok)
    supported += sum(1 for ok in numeral_ok.values() if ok)
    # Blank numeral spans so unit suffixes ("M" in "$55M") are not spans.
    chars = list(answer)
    for assessment in assessments:
        for i in range(assessment.mention.start, assessment.mention.end):
            chars[i] = " "
    evidence_texts = [e.content.lower() for e in log.evidence_entries()]
    for span in sorted({s.lower() for s in capitalized_spans("".join(chars))}):
        total += 1
        if any(span in text for text in evidence_texts):
            supported += 1
    if total == 0:
        return 1.0
    return supported / total


@dataclass
class CatchRepair:
    catch_rate: float
    repair_rate: float
    caught: int
    repaired: int
    total: int
    caught_targets: list[int | str] = field(default_factory=list)
    repaired_targets: list[int | str] = field(default_factory=list)


def catch_and_repair(
    labels: Sequence[FaultLabel], final_log: SharedLog, final_answer_ok: bool
) -> CatchRepair:
    """Catch: a Flag implicates the fault's step or names (`textutil.names`)
    its source id, so a Flag naming "Table 12" does not catch "Table 1".
    Repair: a caught fault whose original value reappears in a later
    evidence entry that is not itself labeled, in a run that ends verified;
    when the fault changed no numeral value (an OCR swap), its original text
    must reappear as whole words."""
    if not labels:
        raise ValueError("catch_and_repair needs labels from inject_faults")
    flags = [e for e in final_log.entries if e.entry_type is EntryType.FLAG]
    implicated: set[int] = set()
    first_flag_step = None
    for flag in flags:
        implicated.update(flagged_steps(flag.content))
        if first_flag_step is None:
            first_flag_step = flag.step
    caught_targets: list[int | str] = []
    repaired_targets: list[int | str] = []
    # A labeled entry is a fault, so it repairs nothing, even when it
    # restates another fault's original value.
    faulted_steps = {label.target for label in labels if isinstance(label.target, int)}

    def values(text: str) -> set[float]:
        return {m.value for m in final_log.numerals(text)}

    for label in labels:
        if isinstance(label.target, int):
            caught = label.target in implicated
        else:
            target = normalize(str(label.target))
            caught = any(names(normalize(flag.content), target) for flag in flags)
        if not caught:
            continue
        caught_targets.append(label.target)
        if not final_answer_ok or first_flag_step is None:
            continue
        restored = values(label.original) - values(label.corrupted)
        for entry in final_log.entries:
            if (
                entry.step <= first_flag_step
                or entry.entry_type not in EVIDENCE_TYPES
                or entry.step in faulted_steps
            ):
                continue
            if restored and restored <= values(entry.content):
                repaired_targets.append(label.target)
                break
            if not restored and names(normalize(entry.content), normalize(label.original)):
                repaired_targets.append(label.target)
                break
    total = len(labels)
    return CatchRepair(
        catch_rate=len(caught_targets) / total,
        repair_rate=len(repaired_targets) / total,
        caught=len(caught_targets),
        repaired=len(repaired_targets),
        total=total,
        caught_targets=caught_targets,
        repaired_targets=repaired_targets,
    )


def bootstrap_ci(
    values: Sequence[float],
    resamples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Seeded percentile bootstrap of the mean (resampled with random.Random(seed))."""
    if len(values) == 0:
        raise ValueError("bootstrap_ci needs at least one value")
    if min(values) == max(values):
        # Degenerate distribution: the interval is the point itself, without
        # float-summation noise from resampled means.
        return float(values[0]), float(values[0])
    rng = random.Random(seed)
    n = len(values)
    means = [statistics.fmean(rng.choices(values, k=n)) for _ in range(resamples)]
    alpha = (1.0 - level) / 2.0
    return _percentile(means, 100 * alpha), _percentile(means, 100 * (1 - alpha))


def _percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100) of values, as numpy's default "linear" method.

    Same virtual index and the same two-sided interpolation, so the result
    is the one `np.percentile(values, q)` gives, to the bit.
    """
    xs = sorted(values)
    index = q / 100 * (len(xs) - 1)
    lo = math.floor(index)
    a, b = xs[lo], xs[min(lo + 1, len(xs) - 1)]
    t = index - lo
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


# --- benchmark runner ---------------------------------------------------------

@dataclass
class BenchmarkRecord:
    question: str
    sources: SourceBundle
    gold_answers: list[str]

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValueError("a benchmark record's question must be non-empty")
        if not self.gold_answers:
            raise ValueError("a benchmark record needs at least one gold answer")


def load_benchmark(path: str | Path) -> list[BenchmarkRecord]:
    """Read records from JSONL: {"question","gold_answers","sources"}.

    A record names its sources inline or by "sources_path" (relative to the
    JSONL file). Each distinct path is loaded once, so records naming one
    path share one bundle, and with it one passage index. A bad record is
    a ValueError that starts with "<path> line <n>: ".
    """
    records = []
    base = Path(path).parent
    loaded: dict[Path, SourceBundle] = {}
    kind = "benchmark record"
    # Lines end at "\n" only: `splitlines` would also end one at a U+2028
    # inside a JSON string, which json.dumps(ensure_ascii=False) writes raw.
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json_value(json.loads(line), dict, kind)
            question = json_field(data, "question", kind)
            gold_answers = json_strings(
                json_field(data, "gold_answers", kind, list), "gold_answers"
            )
            if "sources_path" in data:
                sources_path = base / json_field(data, "sources_path", kind)
                if sources_path not in loaded:
                    loaded[sources_path] = load_sources(sources_path)
                bundle = loaded[sources_path]
            else:
                bundle = bundle_from_dict(json_field(data, "sources", kind, dict, {}))
            records.append(
                BenchmarkRecord(question=question, sources=bundle, gold_answers=gold_answers)
            )
        except ValueError as exc:
            raise ValueError(f"{path} line {number}: {exc}") from exc
    return records


@dataclass
class Metrics:
    em: float
    rouge1: float
    rouge2: float
    rougeL: float
    log_groundedness: float
    catch_rate: float
    repair_rate: float
    ci_low: float
    ci_high: float
    backend_calls_mean: float
    token_mean: float
    latency_ms_p50: float
    latency_ms_p95: float
    em_by_log_bucket: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "em": self.em,
            "rouge1": self.rouge1,
            "rouge2": self.rouge2,
            "rougeL": self.rougeL,
            "log_groundedness": self.log_groundedness,
            "catch_rate": self.catch_rate,
            "repair_rate": self.repair_rate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "backend_calls_mean": self.backend_calls_mean,
            "token_mean": self.token_mean,
            "latency_ms_p50": self.latency_ms_p50,
            "latency_ms_p95": self.latency_ms_p95,
            "em_by_log_bucket": dict(self.em_by_log_bucket),
        }


class _InFlightInjector:
    """Mutates selected retrieval appends of one record during a live run.

    `occurrence` counts the eligible appends seen so far; with an empty
    chosen set the injector mutates nothing and only counts (the dry pass).
    """

    def __init__(self, spec: FaultSpec, record_index: int, chosen: set[int]) -> None:
        self.spec = spec
        self.record_index = record_index
        self.chosen = chosen
        self.occurrence = 0
        self.mutated: list[tuple[LogEntry, str, str]] = []

    def __call__(self, entry: LogEntry, log: SharedLog) -> LogEntry:
        if not _entry_eligible(entry, self.spec.fault_type, log):
            return entry
        occ = self.occurrence
        self.occurrence += 1
        if occ not in self.chosen:
            return entry
        rng = random.Random(f"{self.spec.seed}:{self.record_index}:{occ}")
        self.mutated.append((entry, *_mutate_entry(entry, self.spec.fault_type, rng, log)))
        return entry

    def labels(self) -> list[FaultLabel]:
        """One label per mutated entry the log committed. A mutated entry
        rejected as a duplicate never entered the log (its step stays -1),
        so it is no fault of the run."""
        return [
            FaultLabel(entry.step, self.spec.fault_type, original, corrupted, self.record_index)
            for entry, original, corrupted in self.mutated
            if entry.step >= 0
        ]


def _entry_eligible(entry: LogEntry, fault_type: FaultType, log: SharedLog) -> bool:
    """Whether the fault can corrupt the entry. Its numerals are read through
    the run's log, where the verifier reads them again once it is committed."""
    if entry.entry_type not in EVIDENCE_TYPES:
        return False
    if fault_type is FaultType.ARITHMETIC_CORRUPTION:
        return bool(_corruptible(log.numerals(entry.content)))
    if fault_type is FaultType.OCR_MISREAD:
        return entry.entry_type is EntryType.VISUAL and _swappable(log.numerals(entry.content))
    return _anchor_index(entry) is not None  # RowOffByOne


def _bundle_views(records: Sequence[BenchmarkRecord]) -> Iterator[SourceViews]:
    """The views for each record in turn: one per distinct bundle, shared by
    its records, and forgotten after its last record."""
    last = {id(record.sources): i for i, record in enumerate(records)}
    held: dict[int, SourceViews] = {}
    for i, record in enumerate(records):
        key = id(record.sources)
        views = held.pop(key, None) or SourceViews()
        if last[key] != i:
            held[key] = views
        yield views


def run_benchmark(
    records: Sequence[BenchmarkRecord],
    config: sched.SchedulerConfig | None = None,
    *,
    backend_factory: Callable[[], TextBackend],
    fault_spec: FaultSpec | None = None,
    gate: LogisticGate | None = None,
    out_dir: str | Path | None = None,
    seed: int = 0,
) -> tuple[Metrics, list[dict]]:
    """Run every record, aggregate Metrics, and optionally write reports.

    With a fault spec, a dry pass first runs every record unmutated to
    enumerate eligible retrieval appends across the whole benchmark, so that
    exactly ceil(rate * N) targets are selected by seed; the live pass then
    corrupts those appends in flight, letting verification, re-engagement,
    and repair react. A record with no selected target keeps its dry run,
    which is the run the live pass would repeat, so it runs once; a record
    with a target runs again live. A record whose dry run raised is not run
    again: its report carries the dry run's error text, and its dry-pass
    appends are not eligible, since no committed run could carry their
    labels. Individual run failures score EM 0 with an error note; the
    benchmark always completes.

    Each run is scored as soon as it ends, the dry runs too, and its
    `RunResult` is then dropped, so the call holds at most one. Per
    finished record it holds only what it will write: the report line, the
    ROUGE scores and groundedness that `metrics.json` folds, the fault rows,
    and, when `out_dir` is given, the trace entries. The dry outcome of a
    record with a selected target is discarded once targets are chosen.

    In each pass, the records of one bundle share one `SourceViews`,
    built as the pass goes and dropped after the bundle's last record, so
    a bundle's question-independent source work is done once per pass. A
    bundle's sources must not change during the call.

    The metrics are a fold of what is written: the reports, and with a
    fault spec the fault rows.
    """
    if not records:
        raise ValueError("run_benchmark needs at least one record")
    config = config or sched.SchedulerConfig()

    def run_one(i: int, views: SourceViews, mutator: _InFlightInjector | None):
        """(result, None), or (None, error text) for a run that raised."""
        try:
            return sched.run(
                records[i].question, records[i].sources, backend_factory(),
                config=config, gate=gate, entry_mutator=mutator, views=views,
            ), None
        except Exception as exc:  # a failed run scores zero; the bench goes on
            logger.exception("run failed for record %d", i)
            return None, f"{type(exc).__name__}: {exc}"

    def score(i: int, injector: _InFlightInjector | None,
              result: sched.RunResult | None, error: str | None):
        """What a finished run adds to the outputs: (report, ROUGE scores,
        groundedness or None, fault rows, trace entries). The trace is
        kept only when it will be written."""
        record = records[i]
        answer = result.final_answer if result else None
        em = False
        best_rouge = {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}
        groundedness = None
        if answer:
            # Each text is normalized once for both scores.
            answer_words = _answer_words(answer)
            gold_words = list(map(_answer_words, record.gold_answers))
            em = _exact_match_words(answer_words, gold_words)
            for gold in gold_words:
                scores = _rouge_words(answer_words, gold)
                if scores["rougeL"] >= best_rouge["rougeL"]:
                    best_rouge = scores
            groundedness = log_groundedness(answer, result.log)
        report = {
            "question": record.question,
            "answer": answer,
            "em": em,
            "termination": result.termination.value if result else "Error",
            **(result.metrics if result else sched.RunMetrics(0, 0, 0, 0)).to_dict(),
            "log_entries": len(result.log.entries) if result else 0,
        }
        if error:
            report["error"] = error
        labels = injector.labels() if injector is not None and result else []
        fault_rows = []
        if labels:
            outcome = catch_and_repair(
                labels, result.log, result.termination is sched.Termination.ANSWER_VERIFIED
            )
            fault_rows = [
                {
                    **label.to_dict(),
                    "caught": label.target in outcome.caught_targets,
                    "repaired": label.target in outcome.repaired_targets,
                }
                for label in labels
            ]
        trace = result.log.entries if result and out_dir is not None else []
        return report, best_rouge, groundedness, fault_rows, trace

    # Each record's scored outcome, by record: its run is dropped once scored.
    scored: dict[int, tuple] = {}
    chosen_by_record: dict[int, set[int]] = {}
    if fault_spec is not None:
        if fault_spec.fault_type not in _ENTRY_FAULTS:
            raise ValueError(
                f"in-run injection supports {sorted(t.value for t in _ENTRY_FAULTS)}; "
                "apply source-level faults to records before the benchmark"
            )
        eligible: list[tuple[int, int]] = []
        for i, views in enumerate(_bundle_views(records)):
            counter = _InFlightInjector(fault_spec, i, set())  # counts, labels nothing
            scored[i] = score(i, counter, *run_one(i, views, counter))
            if "error" not in scored[i][0]:
                eligible.extend((i, occ) for occ in range(counter.occurrence))
        _require_targets(eligible, "eligible retrieval entries in the benchmark")
        for pos in _select(len(eligible), fault_spec):
            rec, occ = eligible[pos]
            chosen_by_record.setdefault(rec, set()).add(occ)
            scored.pop(rec, None)

    for i, views in enumerate(_bundle_views(records)):
        if i not in scored:
            injector = None
            if fault_spec is not None:
                injector = _InFlightInjector(fault_spec, i, chosen_by_record[i])
            scored[i] = score(i, injector, *run_one(i, views, injector))

    # Folded in record order, so every sum adds in the same order.
    reports, rouges, groundedness, rows_by_record, traces = map(
        list, zip(*(scored.pop(i) for i in range(len(records))))
    )
    groundedness_values = [value for value in groundedness if value is not None]
    fault_rows = [row for rows in rows_by_record for row in rows]
    rouge_sums = {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}
    for scores in rouges:
        for key in rouge_sums:
            rouge_sums[key] += scores[key]

    em_values = [float(report["em"]) for report in reports]
    ran = [report for report in reports if "error" not in report]
    wall = [report["wall_ms"] for report in ran]
    labeled = len(fault_rows) or 1  # without labels both rates are 0.0
    ci_low, ci_high = bootstrap_ci(em_values, seed=seed)
    buckets: dict[str, list[float]] = {}
    for report, em in zip(reports, em_values):
        n = report["log_entries"]
        bucket = "1-6" if n <= 6 else ("7-8" if n <= 8 else "9+")
        buckets.setdefault(bucket, []).append(em)
    metrics = Metrics(
        em=statistics.fmean(em_values),
        rouge1=rouge_sums["rouge1"] / len(records),
        rouge2=rouge_sums["rouge2"] / len(records),
        rougeL=rouge_sums["rougeL"] / len(records),
        log_groundedness=(
            statistics.fmean(groundedness_values) if groundedness_values else 0.0
        ),
        catch_rate=sum(row["caught"] for row in fault_rows) / labeled,
        repair_rate=sum(row["repaired"] for row in fault_rows) / labeled,
        ci_low=ci_low,
        ci_high=ci_high,
        backend_calls_mean=statistics.fmean(r["backend_calls"] for r in ran) if ran else 0.0,
        token_mean=statistics.fmean(r["token_usage"] for r in ran) if ran else 0.0,
        latency_ms_p50=_percentile(wall, 50) if wall else 0.0,
        latency_ms_p95=_percentile(wall, 95) if wall else 0.0,
        em_by_log_bucket={k: statistics.fmean(v) for k, v in sorted(buckets.items())},
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "metrics.json").write_text(
            json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        with open(out / "report.jsonl", "w", encoding="utf-8") as fh:
            for report in reports:
                fh.write(json.dumps(report, ensure_ascii=False) + "\n")
        for i, entries in enumerate(traces):
            (out / f"trace_{i:03d}.jsonl").write_text(
                dump_trace(entries), encoding="utf-8"
            )
        if fault_spec is not None:
            (out / "faults.json").write_text(
                json.dumps(fault_rows, indent=2, ensure_ascii=False) + "\n",
                encoding="utf-8",
            )
    return metrics, reports
