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
from typing import Callable, Sequence

from . import scheduler as sched
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
    NumericMention,
    canonical_numeral_token,
    capitalized_spans,
    is_year_like,
    numeral_values,
    parse_numerals,
    qa_normalize,
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


def _corruptible_numerals(text: str) -> list[NumericMention]:
    # Years are labels, not amounts. From 2**53 up floats skip integers, so a
    # one-unit shift could parse to the value it had: such numerals are refused.
    return [m for m in parse_numerals(text) if not is_year_like(m) and abs(m.value) < 2**53]


def perturb_numeral(text: str, rng: random.Random) -> tuple[str, str, str] | None:
    """Shift one numeral by one leading unit; returns (new_text, old, new).

    The written sign is kept, so a shift never reaches or crosses zero; such
    a shift steps away from zero instead: "-0.5" becomes "-1.5", not
    "--0.5", and "-1" becomes "-2", not "-0".
    """
    eligible = _corruptible_numerals(text)
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
    if decimals:
        new_body = f"{new_raw:.{decimals}f}"
    elif "," in body:
        new_body = f"{int(new_raw):,}"
    else:
        new_body = str(int(new_raw))
    new_mention = mention.text.replace(body, new_body, 1)
    new_text = text[: mention.start] + text[mention.start : mention.end].replace(
        body, new_body, 1
    ) + text[mention.end :]
    return new_text, mention.text, new_mention


def _swap_two_numerals(text: str, rng: random.Random) -> str | None:
    """Swap two numerals of different value; None when the text has none."""
    mentions = parse_numerals(text)
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
            if _corruptible_numerals(cell)
        ]
        _require_targets(targets, "numeric table cells")
        for i in _select(len(targets), spec):
            t_idx, r, c = targets[i]
            table = out.tables[t_idx]
            mutated = perturb_numeral(table.rows[r][c], rng)
            assert mutated is not None
            new_cell, _, _ = mutated
            labels.append(FaultLabel(table.id, ft, table.rows[r][c], new_cell))
            table.rows[r][c] = new_cell
    else:  # OcrMisread
        targets = [
            i for i, img in enumerate(out.images) if _swappable(img.ocr_text)
        ]
        _require_targets(targets, "images with two OCR numerals of different value")
        for i in _select(len(targets), spec):
            image = out.images[targets[i]]
            swapped = _swap_two_numerals(image.ocr_text, rng)
            assert swapped is not None
            labels.append(FaultLabel(image.id, ft, image.ocr_text, swapped))
            image.ocr_text = swapped
    return out, labels


def _swappable(text: str) -> bool:
    # Values, not texts: swapping "5" and "5.0" would change no value.
    return len({m.value for m in parse_numerals(text)}) >= 2


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
    entry: LogEntry, fault_type: FaultType, rng: random.Random
) -> tuple[str, str]:
    """Apply one entry fault in place to an eligible entry; returns (original, corrupted).

    ArithmeticCorruption and OcrMisread rewrite the content; RowOffByOne
    moves the first table anchor down one row.
    """
    if fault_type is FaultType.ROW_OFF_BY_ONE:
        pos = _anchor_index(entry)
        assert pos is not None
        anchor = entry.provenance[pos]
        shifted = TableAnchor(anchor.table_id, anchor.row + 1, anchor.col)
        entry.provenance[pos] = shifted
        return anchor.cite(), shifted.cite()
    if fault_type is FaultType.ARITHMETIC_CORRUPTION:
        mutated = perturb_numeral(entry.content, rng)
        new_content = mutated[0] if mutated else None
    else:  # OcrMisread
        new_content = _swap_two_numerals(entry.content, rng)
    assert new_content is not None
    original, entry.content = entry.content, new_content
    return original, new_content


# --- metrics ------------------------------------------------------------------

def exact_match(pred: str, golds: Sequence[str]) -> bool:
    """Normalized equality against any gold answer."""
    norm_pred = qa_normalize(pred)
    return any(norm_pred == qa_normalize(g) for g in golds)


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
    pred_tokens = qa_normalize(pred, strip_articles=False).split()
    gold_tokens = qa_normalize(gold, strip_articles=False).split()
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
    """Catch: a Flag implicates the fault's step or names its source id.
    Repair: a caught fault whose original value reappears in a later entry
    of a run that ends verified."""
    if not labels:
        raise ValueError("catch_and_repair needs labels from inject_faults")
    flags = [e for e in final_log.entries if e.entry_type is EntryType.FLAG]
    implicated: set[int] = set()
    flag_texts = []
    first_flag_step = None
    for flag in flags:
        implicated.update(flagged_steps(flag.content))
        flag_texts.append(flag.content.lower())
        if first_flag_step is None:
            first_flag_step = flag.step
    caught_targets: list[int | str] = []
    repaired_targets: list[int | str] = []
    for label in labels:
        if isinstance(label.target, int):
            caught = label.target in implicated
        else:
            caught = any(str(label.target).lower() in text for text in flag_texts)
        if not caught:
            continue
        caught_targets.append(label.target)
        if not final_answer_ok or first_flag_step is None:
            continue
        restored = set(numeral_values(label.original)) - set(numeral_values(label.corrupted))
        for entry in final_log.entries:
            if entry.step <= first_flag_step or entry.entry_type not in EVIDENCE_TYPES:
                continue
            entry_values = set(numeral_values(entry.content))
            if restored and restored <= entry_values:
                repaired_targets.append(label.target)
                break
            if not restored and label.original.lower() in entry.content.lower():
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
        if not self.gold_answers:
            raise ValueError("a benchmark record needs at least one gold answer")


def load_benchmark(path: str | Path) -> list[BenchmarkRecord]:
    """Read records from JSONL: {"question","gold_answers","sources"}.

    A record names its sources inline or by "sources_path" (relative to the
    JSONL file). Each distinct path is loaded once, so records naming one
    path share one bundle, and with it one passage index.
    """
    records = []
    base = Path(path).parent
    loaded: dict[Path, SourceBundle] = {}
    kind = "benchmark record"
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        data = json_value(json.loads(line), dict, kind)
        question = json_field(data, "question", kind)
        gold_answers = json_strings(json_field(data, "gold_answers", kind, list), "gold_answers")
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
        out = {
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
            "em_by_log_bucket": self.em_by_log_bucket,
        }
        return out


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

    def __call__(self, entry: LogEntry) -> LogEntry:
        if not _entry_eligible(entry, self.spec.fault_type):
            return entry
        occ = self.occurrence
        self.occurrence += 1
        if occ not in self.chosen:
            return entry
        rng = random.Random(f"{self.spec.seed}:{self.record_index}:{occ}")
        self.mutated.append((entry, *_mutate_entry(entry, self.spec.fault_type, rng)))
        return entry

    def labels(self) -> list[FaultLabel]:
        out = []
        for entry, original, corrupted in self.mutated:
            out.append(
                FaultLabel(
                    target=entry.step,
                    fault_type=self.spec.fault_type,
                    original=original,
                    corrupted=corrupted,
                    record_index=self.record_index,
                )
            )
        return out


def _entry_eligible(entry: LogEntry, fault_type: FaultType) -> bool:
    if entry.entry_type not in EVIDENCE_TYPES:
        return False
    if fault_type is FaultType.ARITHMETIC_CORRUPTION:
        return bool(_corruptible_numerals(entry.content))
    if fault_type is FaultType.OCR_MISREAD:
        return entry.entry_type is EntryType.VISUAL and _swappable(entry.content)
    return _anchor_index(entry) is not None  # RowOffByOne


def _run_record(
    record: BenchmarkRecord,
    config: sched.SchedulerConfig,
    backend_factory: Callable[[], TextBackend],
    gate: LogisticGate | None,
    mutator,
) -> sched.RunResult:
    return sched.run(
        record.question,
        record.sources,
        backend_factory(),
        config=config,
        gate=gate,
        entry_mutator=mutator,
    )


def run_benchmark(
    records: Sequence[BenchmarkRecord],
    config: sched.SchedulerConfig | None = None,
    backend_factory: Callable[[], TextBackend] | None = None,
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
    """
    if not records:
        raise ValueError("run_benchmark needs at least one record")
    if backend_factory is None:
        raise ValueError("run_benchmark needs a backend factory")
    config = config or sched.SchedulerConfig()

    chosen_by_record: dict[int, set[int]] = {}
    clean_runs: dict[int, sched.RunResult] = {}
    errors: dict[int, str] = {}  # error text of a record's failed run
    if fault_spec is not None:
        if fault_spec.fault_type not in _ENTRY_FAULTS:
            raise ValueError(
                f"in-run injection supports {sorted(t.value for t in _ENTRY_FAULTS)}; "
                "apply source-level faults to records before the benchmark"
            )
        eligible: list[tuple[int, int]] = []
        for i, record in enumerate(records):
            counter = _InFlightInjector(fault_spec, i, set())
            try:
                clean_runs[i] = _run_record(record, config, backend_factory, gate, counter)
            except Exception as exc:  # the record is reported failed, not run again
                logger.exception("dry pass failed for record %d", i)
                errors[i] = f"{type(exc).__name__}: {exc}"
                continue
            eligible.extend((i, occ) for occ in range(counter.occurrence))
        _require_targets(eligible, "eligible retrieval entries in the benchmark")
        for pos in _select(len(eligible), fault_spec):
            rec, occ = eligible[pos]
            chosen_by_record.setdefault(rec, set()).add(occ)
            clean_runs.pop(rec, None)

    reports: list[dict] = []
    traces: list[list[LogEntry]] = []
    all_labels: list[FaultLabel] = []
    em_values: list[float] = []
    rouge_sums = {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}
    groundedness_values: list[float] = []
    calls: list[int] = []
    tokens: list[int] = []
    wall: list[int] = []
    caught = repaired = label_total = 0
    fault_rows: list[dict] = []

    for i, record in enumerate(records):
        injector = None
        result = clean_runs.pop(i, None)
        if result is None and i not in errors:
            if fault_spec is not None:
                injector = _InFlightInjector(fault_spec, i, chosen_by_record.get(i, set()))
            try:
                result = _run_record(record, config, backend_factory, gate, injector)
            except Exception as exc:  # a failed run scores zero; the bench goes on
                logger.exception("run failed for record %d", i)
                errors[i] = f"{type(exc).__name__}: {exc}"
        error = errors.get(i)

        answer = result.final_answer if result else None
        em = bool(answer) and exact_match(answer, record.gold_answers)
        em_values.append(1.0 if em else 0.0)
        best_rouge = {"rouge1": 0.0, "rouge2": 0.0, "rougeL": 0.0}
        if answer:
            for gold in record.gold_answers:
                scores = rouge(answer, gold)
                if scores["rougeL"] >= best_rouge["rougeL"]:
                    best_rouge = scores
        for key in rouge_sums:
            rouge_sums[key] += best_rouge[key]

        report = {
            "question": record.question,
            "answer": answer,
            "em": em,
            "termination": result.termination.value if result else "Error",
            "rounds": result.metrics.rounds if result else 0,
            "backend_calls": result.metrics.backend_calls if result else 0,
            "token_usage": result.metrics.token_usage if result else 0,
            "wall_ms": result.metrics.wall_ms if result else 0,
            "log_entries": len(result.log.entries) if result else 0,
        }
        if error:
            report["error"] = error
        if result is not None:
            traces.append(result.log.entries)
            calls.append(result.metrics.backend_calls)
            tokens.append(result.metrics.token_usage)
            wall.append(result.metrics.wall_ms)
            if answer:
                groundedness_values.append(log_groundedness(answer, result.log))
            if injector is not None:
                labels = injector.labels()
                all_labels.extend(labels)
                if labels:
                    outcome = catch_and_repair(
                        labels,
                        result.log,
                        result.termination is sched.Termination.ANSWER_VERIFIED,
                    )
                    caught += outcome.caught
                    repaired += outcome.repaired
                    label_total += outcome.total
                    for label in labels:
                        fault_rows.append(
                            {
                                **label.to_dict(),
                                "caught": label.target in outcome.caught_targets,
                                "repaired": label.target in outcome.repaired_targets,
                            }
                        )
        else:
            traces.append([])
        reports.append(report)

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
        catch_rate=caught / label_total if label_total else 0.0,
        repair_rate=repaired / label_total if label_total else 0.0,
        ci_low=ci_low,
        ci_high=ci_high,
        backend_calls_mean=statistics.fmean(calls) if calls else 0.0,
        token_mean=statistics.fmean(tokens) if tokens else 0.0,
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
