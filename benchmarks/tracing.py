"""Span tracing of logboard from outside, by rebinding its public functions.

A traced function is replaced wherever a caller looks its name up: in every
``logboard`` module that binds it (``agents`` imports ``select_table_slice``,
``render_view`` and ``tokenize`` by name) or, for a method, on its class.
Each call then records a span ``[name, start, end, parent, record]``;
``restore`` puts every original back. Functions that run once per table
cell only count calls, since a span each would swamp the trace. Spans stay
in memory until ``fold`` adds them to per-name totals after each pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

from logboard.log import AppendResult

# (span name, "module:attribute" or "module:Class.method", only rebind in).
SPANNED: tuple[tuple[str, str, str | None], ...] = (
    ("retrieval.select_table_slice", "logboard.retrieval:select_table_slice", None),
    ("retrieval.index", "logboard.retrieval:index", None),
    ("retrieval.retrieve", "logboard.retrieval:retrieve", None),
    ("retrieval.truncate_span", "logboard.retrieval:truncate_span", None),
    ("retrieval.render_visual_text", "logboard.retrieval:render_visual_text", None),
    ("agents.build_prompt", "logboard.agents:build_prompt", None),
    ("agents.extract_table_anchors", "logboard.agents:extract_table_anchors", None),
    ("agents.extract_doc_spans", "logboard.agents:extract_doc_spans", None),
    ("agents.extract_image_refs", "logboard.agents:extract_image_refs", None),
    ("agents.should_act", "logboard.agents:TableAgent.should_act", None),
    ("agents.should_act", "logboard.agents:ContextAgent.should_act", None),
    ("agents.should_act", "logboard.agents:VisualAgent.should_act", None),
    ("log.append", "logboard.log:SharedLog.append", None),
    ("log.render_view", "logboard.log:render_view", None),
    ("verify.verify_deterministic", "logboard.verify:verify_deterministic", None),
    # Inside verify_deterministic this is the verifier's own work; only the
    # harness's groundedness call gets a span of its own.
    ("verify.assess_answer_numerals", "logboard.verify:assess_answer_numerals", "logboard.harness"),
    ("scheduler.run", "logboard.scheduler:run", None),
    ("harness.score.exact_match", "logboard.harness:exact_match", "logboard.harness"),
    ("harness.score.rouge", "logboard.harness:rouge", "logboard.harness"),
    ("harness.score.log_groundedness", "logboard.harness:log_groundedness", "logboard.harness"),
    ("harness.score.catch_and_repair", "logboard.harness:catch_and_repair", "logboard.harness"),
    ("harness.score.bootstrap_ci", "logboard.harness:bootstrap_ci", "logboard.harness"),
    # The benchmark's replay backend: routing plus the scripted reply.
    ("backends.generate", "replay:ReplayBackend.generate", None),
)

COUNTED: tuple[tuple[str, str], ...] = (
    ("textutil.tokenize", "logboard.textutil:tokenize"),
    ("textutil.normalize", "logboard.textutil:normalize"),
    ("textutil.parse_numerals", "logboard.textutil:parse_numerals"),
)

# Per-span result tallies: accepted appends, non-empty findings, rounds run.
TALLIES: dict[str, Callable[[object], int]] = {
    "log.append": lambda result: result is AppendResult.ACCEPTED,
    "verify.verify_deterministic": lambda findings: bool(findings),
    "scheduler.run": lambda result: result.metrics.rounds,
}


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Patches:
    """Rebinds originals to replacements and undoes it in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, target: str, make: Callable[[Callable], Callable], only_in: str | None = None) -> None:
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        replacement = make(original)
        if isinstance(owner, type):
            self._set(owner, attr, replacement)
            return
        for name in sorted(sys.modules):
            if name != "logboard" and not name.startswith("logboard."):
                continue
            if only_in is not None and name != only_in:
                continue
            module = sys.modules[name]
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)

    def _set(self, owner: object, key: str, value: object) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self, record_ids: dict[str, int]) -> None:
        self.record_ids = record_ids
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.tallies: Counter[str] = Counter()
        self.totals: dict[str, list] = {}  # name -> [calls, self seconds], over folded passes
        self.last_spans: list[list] = []
        self.record = -1
        self._stack = [-1]
        self._patches = Patches()

    def install(self) -> None:
        for name, target, only_in in SPANNED:
            self._patches.rebind(target, functools.partial(self._spanned, name), only_in)
        for name, target in COUNTED:
            self._patches.rebind(target, functools.partial(self._counted, name))

    def restore(self) -> None:
        self._patches.restore()

    def reset(self) -> None:
        """Forget what was recorded so far (the stack is empty between calls)."""
        self.spans.clear()
        self.counts.clear()
        self.tallies.clear()
        self.totals.clear()
        self.last_spans = []

    def fold(self) -> None:
        """Add the spans so far to the totals, keeping them only for ``write``."""
        for name, (calls, seconds) in self.self_times().items():
            total = self.totals.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
        self.last_spans = list(self.spans)
        self.spans.clear()

    def _spanned(self, name: str, fn: Callable) -> Callable:
        tally = TALLIES.get(name)
        spans, stack = self.spans, self._stack
        is_run = name == "scheduler.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_run:
                # Later spans, scoring included, belong to this record.
                self.record = self.record_ids.get(args[0], -1)
            span = [name, 0.0, 0.0, stack[-1], self.record]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tally is not None:
                self.tallies[name] += tally(result)
            return result

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start - child[i]
        return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}

    def write(self, path: Path) -> None:
        """Write the spans of the last folded pass as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, record in self.last_spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "record": record}) + "\n")
