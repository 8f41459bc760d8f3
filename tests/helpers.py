"""Shared fixture builders for the test suite."""

from __future__ import annotations

import codecs
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
from logboard.agents import _generate
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


def bom_copy(path: Path, folder: Path) -> Path:
    """A copy, in folder, of the UTF-8 file at path with a byte-order mark put before it."""
    folder.mkdir(parents=True, exist_ok=True)
    copy = folder / path.name
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


def golden_sources() -> SourceBundle:
    from logboard.sources import load_sources

    return load_sources(FIXTURES / "golden_sources.json")


def golden_script() -> dict:
    with open(FIXTURES / "golden_script.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_golden(**kwargs):
    return run(GOLDEN_QUESTION, golden_sources(), ScriptedBackend(golden_script()), **kwargs)


# A passage-shaped bundle whose question names its figure, so that Table,
# Context and Visual all act in the first round; FIGURE_SCRIPT answers every
# role (patterns are each role prompt's own words, as in golden_script).
FIGURE_QUESTION = "According to Figure 1, by how much did Giva revenue grow from 2018 to 2019?"
FIGURE_SCRIPT = {
    "table analyst": "Giva revenue was $310M in 2018 and $342M in 2019 (Table 1).",
    "passage reader": "The annual report says: 'Giva revenue grew on strong demand.'",
    "image interpreter": "Figure 1 plots Giva at $310M for 2018, then $342M for 2019.",
    "summarizing agent": "Therefore Giva revenue grew by $32M. Answer: $32M increase",
    "verification agent": "OK",
}


def figure_sources() -> SourceBundle:
    return SourceBundle(
        tables=[
            Table(
                "Table 1",
                header=["Company", "Year", "Revenue"],
                rows=[["Giva", "2018", "$310M"], ["Giva", "2019", "$342M"]],
            )
        ],
        passages=[
            Passage("report", "Giva revenue grew on strong demand. Costs held steady."),
            Passage("notes", "Headcount was flat across the period."),
        ],
        images=[Image("Figure 1", "Revenue by year for Giva", "Giva 2018 $310M 2019 $342M")],
    )


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


def act(agent, log: SharedLog, sources: SourceBundle, backend) -> LogEntry | None:
    """One retrieval act on its own: the agent's prompt over log, one reply
    from backend, and the entry that the reply makes."""
    prompt, cite = agent.prepare(log, sources)
    return agent.entry(_generate(log, backend, agent.role, prompt), cite)


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


_FILLER_WORDS = "margin cost volume region segment product order backlog channel partner".split()


def shared_bundle_records(
    bundles: int = 2, per_bundle: int = 3
) -> tuple[list[BenchmarkRecord], dict]:
    """Records that ask several questions of each bundle, in bundle order.

    A bundle holds a 24-row table (a third of its rows Revenue), six
    three-sentence passages and one figure per question. Each question
    names its company and its figure; the scripted replies state the gold
    answer and cite cells, a passage sentence and the figure.
    """
    rng = random.Random(7)
    records, script = [], {}
    for b in range(bundles):
        names = [f"Kor{chr(97 + b)}{chr(97 + k)}" for k in range(per_bundle)]
        values = {name: (40 + 3 * k + b, 47 + 5 * k + b) for k, name in enumerate(names)}
        metrics = ("Revenue", "Cost", "Margin")
        rows = [
            [f"Fil{chr(97 + i % 6)}", metrics[i % 3], str(2010 + i % 8), f"${i + 1}M"]
            for i in range(24 - 2 * per_bundle)
        ]
        for name, pair in values.items():
            for year, value in zip(("2018", "2019"), pair):
                rows.insert(rng.randrange(len(rows) + 1), [name, "Revenue", year, f"${value}M"])
        passages = [
            [" ".join(rng.choices(_FILLER_WORDS, k=8)).capitalize() + "." for _ in range(3)]
            for _ in range(6)
        ]
        for k, name in enumerate(names):
            passages[2 * k % 6].insert(1, f"The {name} growth was driven by new contracts.")
        images = [
            Image(
                f"Figure {k + 1}",
                caption=f"Revenue by year for {name}",
                ocr_text=f"{name} 2018 ${values[name][0]}M 2019 ${values[name][1]}M",
            )
            for k, name in enumerate(names)
        ]
        sources = SourceBundle(
            tables=[Table("Table 1", ["Company", "Metric", "Year", "Amount"], rows)],
            passages=[Passage(f"p{i}", " ".join(text)) for i, text in enumerate(passages)],
            images=images,
        )
        for k, name in enumerate(names):
            rev18, rev19 = values[name]
            key = f"of {name} increase"  # in the question; the figures name every company
            question = (
                f"According to Figure {k + 1}, by how much did the revenue of {name} "
                "increase from 2018 to 2019?"
            )
            script[f"table analyst&&{key}"] = (
                f"{name} revenue was ${rev18}M in 2018 and ${rev19}M in 2019, "
                "per the revenue table."
            )
            script[f"passage reader&&{key}"] = (
                f"According to the report: 'The {name} growth was driven by new contracts.'"
            )
            script[f"image interpreter&&{key}"] = (
                f"Figure {k + 1} shows {name} revenue of ${rev18}M in 2018 and ${rev19}M in 2019."
            )
            script[f"summarizing agent&&{key}"] = (
                f"The figures show ${rev18}M rising to ${rev19}M. Therefore the revenue grew. "
                f"Answer: ${rev19 - rev18}M increase."
            )
            records.append(
                BenchmarkRecord(question, sources, gold_answers=[f"${rev19 - rev18}M increase"])
            )
    script["verification agent"] = "Checks out against the log. (No issues flagged.)"
    return records, script


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
