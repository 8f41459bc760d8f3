"""Shared fixture builders for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

from logboard import (
    BenchmarkRecord,
    Image,
    LogEntry,
    Passage,
    ScriptedBackend,
    SharedLog,
    SourceBundle,
    Table,
    run,
)
from logboard.backends import UsageMixin
from logboard.log import (
    CONTEXT_AGENT,
    TABLE_AGENT,
    VISUAL_AGENT,
    DocSpan,
    EntryType,
    ImageRef,
    TableAnchor,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

GOLDEN_QUESTION = (
    "By how much did the revenue increase from 2018 to 2019, "
    "and what is the source of this increase according to the report?"
)
GOLDEN_ANSWER = "$5M increase, due to higher sales volume."


def golden_sources() -> SourceBundle:
    from logboard.sources import load_sources

    return load_sources(FIXTURES / "golden_sources.json")


def golden_script() -> dict:
    with open(FIXTURES / "golden_script.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_golden(**kwargs):
    return run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(golden_script()), **kwargs)


def lookup(content: str, table_id: str = "t1") -> LogEntry:
    return LogEntry(
        TABLE_AGENT, EntryType.LOOKUP, content, provenance=[TableAnchor(table_id, 0, 0)]
    )


def quote(content: str, doc_id: str = "d1") -> LogEntry:
    return LogEntry(
        CONTEXT_AGENT, EntryType.QUOTE, content, provenance=[DocSpan(doc_id, 0, 1)]
    )


def visual(content: str, image_id: str = "img1") -> LogEntry:
    return LogEntry(
        VISUAL_AGENT, EntryType.VISUAL, content, provenance=[ImageRef(image_id)]
    )


def log_with(question: str, *entries: LogEntry) -> SharedLog:
    from logboard.log import USER

    log = SharedLog()
    log.append(LogEntry(USER, EntryType.QUERY, question))
    for entry in entries:
        log.append(entry)
    return log


def delta_record(name: str, a: int, b: int) -> tuple[BenchmarkRecord, dict]:
    """One benchmark record whose scripted answer claims the true delta."""
    d = b - a
    question = f"By how much did the revenue of {name} increase from 2018 to 2019?"
    sources = SourceBundle(
        tables=[
            Table(
                id="Table 1",
                header=["Year", "Revenue"],
                rows=[["2018", f"${a}M"], ["2019", f"${b}M"]],
            )
        ],
        passages=[
            Passage(
                id="report",
                text=f"The {name} growth was driven by new contracts. Margins held steady.",
            )
        ],
    )
    script = {
        f"table analyst&&{name}": (
            f"{name} revenue was ${a}M in the earlier year and ${b}M in the later "
            "year, per the revenue table."
        ),
        f"passage reader&&{name}": (
            f"According to the report: 'The {name} growth was driven by new contracts.'"
        ),
        f"summarizing agent&&{name}": (
            f"The figures show ${a}M rising to ${b}M. Therefore the revenue grew. "
            f"Answer: ${d}M increase."
        ),
        "verification agent": "Checks out against the log. (No issues flagged.)",
    }
    record = BenchmarkRecord(question=question, sources=sources, gold_answers=[f"${d}M increase"])
    return record, script


def gate_fixture(quick: int = 25, slow: int = 25) -> tuple[list[BenchmarkRecord], dict]:
    """Questions that resolve in one round (quick) or need three (slow).

    A slow question's trace yields both gate labels: its first round is
    followed by cited evidence, its second is not.
    """
    records, script = [], {}
    for i in range(quick):
        record, s = delta_record(f"Quick{chr(65 + i)}", 40 + i, 45 + i)
        records.append(record)
        script.update(s)
    for i in range(slow):
        name = f"Slow{chr(65 + i)}"
        later = 46 + i
        question = f"How did the {name} revenue figure change across the two periods?"
        sources = SourceBundle(
            tables=[
                Table(
                    id="periods",
                    header=["Period", "Revenue"],
                    rows=[["earlier", "$40M"], ["later", f"${later}M"]],
                )
            ],
            passages=[
                Passage("report", f"The later figure was ${later}M. Other remarks follow.")
            ],
            images=[Image("chart", caption="revenue chart", ocr_text="")],
        )
        records.append(
            BenchmarkRecord(
                question=question,
                sources=sources,
                gold_answers=[f"${later}M for the later period"],
            )
        )
        script[f"table analyst&&{name}"] = (
            f"{name} revenue was $40M in the earlier period, per the revenue table."
        )
        script[f"passage reader&&{name}"] = [
            "no relevant info found",
            f"According to the report: 'The later figure was ${later}M.'",
        ]
        script[f"image interpreter&&{name}"] = "no relevant info found"
        script[f"summarizing agent&&{name}"] = [
            "I have the earlier figure only; the later figure is missing.",
            "Both figures are in the log now; finalizing.",
            f"Therefore the later figure stands. Answer: ${later}M for the later period.",
        ]
    script.setdefault("verification agent", "Checks out against the log. (No issues flagged.)")
    return records, script


class RandomReplyBackend(UsageMixin):
    """Seeded chaos backend: role-aware random behaviors for fuzzing runs."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self.rng = random.Random(seed)

    def generate(self, prompt: str, temperature: float, max_tokens: int = 512) -> str:
        r = self.rng
        if "table analyst" in prompt:
            reply = r.choice(
                [
                    "no relevant info found",
                    "The widget line was $7M according to Table 1.",
                    "The gadget line was $9M according to Table 1.",
                    "Numbers unclear, maybe check the appendix.",
                ]
            )
        elif "passage reader" in prompt:
            reply = r.choice(
                [
                    "no relevant info found",
                    "According to the text: 'Demand for widgets rose sharply.'",
                    "Nothing in the passages mentions it.",
                ]
            )
        elif "image interpreter" in prompt:
            reply = r.choice(
                ["no relevant info found", "The chart shows 7 and 9 for the two lines."]
            )
        elif "summarizing agent" in prompt:
            reply = r.choice(
                [
                    "Still missing the gadget figure. More data needed.",
                    "The picture is incomplete; totals are not sure yet.",
                    "Therefore, the widget line leads. Answer: $7M.",
                    "Answer: $2M increase.",
                    "",
                ]
            )
        elif "verification agent" in prompt:
            reply = r.choice(
                [
                    "OK",
                    "Everything lines up. (No issues flagged.)",
                    "Flagged incorrect calculation in the claim.",
                    "The gadget value is missing from the evidence.",
                    "hmm",
                ]
            )
        else:
            reply = ""
        self._record(prompt, reply)
        return reply


def fuzz_sources() -> SourceBundle:
    return SourceBundle(
        tables=[
            Table(
                id="Table 1",
                header=["Item", "Value"],
                rows=[["widget", "$7M"], ["gadget", "$9M"]],
            )
        ],
        passages=[
            Passage(id="p1", text="Demand for widgets rose sharply. Gadgets held flat."),
            Passage(id="p2", text="The figure caption mentions two product lines."),
        ],
        images=[],
    )
