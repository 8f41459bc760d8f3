"""Seeded workload generator for the logboard benchmark.

Each workload is a directory holding ``records.jsonl`` (read back through
``logboard.load_benchmark``), the source bundles those records point at,
and ``script.json``: for every question, the reply each agent role gives.
The replies state the gold answer and cite cells, passages and figures that
exist, so every record should end with an exact match.

Sizes are spread evenly over their range (stratified, then shuffled by the
seed), so seeds change names, values, text and order but hardly the total
work in a workload. The same seed always writes the same bytes.

    python3 benchmarks/workloads.py --workload table_heavy --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import random
from pathlib import Path

# Role needles: the first words of each agent's prompt template.
TABLE_ROLE = "You are a table analyst"
CONTEXT_ROLE = "You are a passage reader"
VISUAL_ROLE = "You are an image interpreter"
SUMMARY_ROLE = "You are the summarizing agent"
VERIFY_ROLE = "You are the verification agent"

VERIFIER_REPLY = "Checks out against the log. (No issues flagged.)"

FAULT_TYPE = "ArithmeticCorruption"
FAULT_RATE = 0.3

# Workload parameters; the reasons are the ``why`` lines in BENCHMARK.json.
WORKLOADS: dict[str, dict] = {
    "table_heavy": {
        "records": 24,
        "questions_per_bundle": 1,
        "table_rows": (1000, 2500),
        "passages": (3, 6),
        "sentences": 2,
        "figures": (0, 0),
        "fault": None,
    },
    "passage_heavy": {
        "records": 24,
        "questions_per_bundle": 4,
        "table_rows": (20, 60),
        "passages": (150, 250),
        "sentences": 6,
        "figures": (2, 4),
        "fault": None,
    },
    "faulted_small": {
        "records": 100,
        "questions_per_bundle": 1,
        "table_rows": (2, 2),
        "passages": (1, 1),
        "sentences": 2,
        "figures": (0, 0),
        "fault": (FAULT_TYPE, FAULT_RATE),
    },
}

_ONSETS = ["b", "c", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z"]
_VOWELS = ["a", "e", "i", "o", "u"]
_CODAS = ["", "", "n", "r", "l", "x", "s"]

_WORDS = (
    "market demand supply margin cost revenue volume region segment product "
    "customer contract pricing quarter year growth decline outlook guidance "
    "inventory capacity plant shipment order backlog channel partner service "
    "subscription license hardware software retail wholesale export import "
    "currency exchange rate interest debt equity cash flow capital spending "
    "investment return dividend share buyback acquisition divestiture merger "
    "integration synergy restructuring charge impairment tax expense income "
    "operating gross net adjusted reported organic constant basis points "
    "north south east west central europe asia americas domestic international "
    "management board committee audit risk compliance regulation policy "
    "energy freight labor wage material component logistics network digital "
    "platform pipeline launch trial approval patent research development team "
    "steady strong weak higher lower stable modest significant gradual sharp "
    "improved reduced expanded delayed accelerated offset driven supported "
    "partly mainly largely across during within against following compared"
).split()

_REASONS = [
    "new contracts",
    "higher volumes in the central region",
    "price increases on core products",
    "the integration of an acquired distributor",
    "stronger subscription renewals",
    "a recovery in export orders",
    "the launch of a new product line",
    "lower churn among large customers",
]

_OTHER_METRICS = ["Cost", "Margin"]


def _spread(rng: random.Random, bounds: tuple[int, int], n: int) -> list[int]:
    """n sizes covering [lo, hi] evenly, jittered within strata and shuffled."""
    lo, hi = bounds
    values = [lo + int((i + rng.random()) * (hi - lo + 1) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def _names(rng: random.Random, count: int) -> list[str]:
    """Distinct capitalized pseudo-words to name companies."""
    seen = {"figure"}  # a company named Figure would blur the question's figure reference
    names: list[str] = []
    while len(names) < count:
        syllables = rng.randint(2, 3)
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        word += rng.choice(_CODAS)
        if word in seen:
            continue
        seen.add(word)
        names.append(word.capitalize())
    return names


def _sentence(rng: random.Random) -> str:
    words = [rng.choice(_WORDS) for _ in range(rng.randint(8, 16))]
    if rng.random() < 0.3:
        words.insert(rng.randrange(1, len(words)), f"{rng.randint(2, 40)}%")
    return " ".join(words).capitalize() + "."


def _filler_passage(rng: random.Random, sentences: int) -> list[str]:
    return [_sentence(rng) for _ in range(sentences)]


def _question(name: str, figure: str | None) -> str:
    lead = f"According to {figure}, by" if figure else "By"
    return f"{lead} how much did the revenue of {name} increase from 2018 to 2019?"


def _script(name: str, rev18: int, rev19: int, reason_sentence: str, figure: str | None) -> dict:
    script = {
        TABLE_ROLE: (
            f"{name} revenue was ${rev18}M in 2018 and ${rev19}M in 2019, per the revenue table."
        ),
        CONTEXT_ROLE: f"According to the report: '{reason_sentence}'",
        SUMMARY_ROLE: (
            f"The figures show ${rev18}M rising to ${rev19}M. Therefore the revenue grew. "
            f"Answer: ${rev19 - rev18}M increase."
        ),
        VERIFY_ROLE: VERIFIER_REPLY,
    }
    if figure:
        script[VISUAL_ROLE] = f"{figure} shows {name} revenue of ${rev18}M in 2018 and ${rev19}M in 2019."
    return script


def _filler_rows(rng: random.Random, fillers: list[str], n: int) -> list[list[str]]:
    # Metric is Revenue in about a third of the rows, so about a third share a
    # token with the question; filler years stay clear of 2018 and 2019.
    rows = []
    for _ in range(n):
        metric = rng.choice(["Revenue"] + _OTHER_METRICS)
        rows.append([rng.choice(fillers), metric, str(rng.randint(2010, 2017)), f"${rng.randint(1, 999)}M"])
    return rows


def generate(workload: str, seed: int, out: Path, records: int | None = None) -> None:
    """Write one workload into ``out`` (which must not exist or be empty)."""
    params = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    n_records = records or params["records"]
    per_bundle = params["questions_per_bundle"]
    n_bundles = -(-n_records // per_bundle)
    out.mkdir(parents=True, exist_ok=True)
    bundle_dir = out / "bundles"

    names = _names(rng, n_records + 48)
    targets, fillers = names[:n_records], names[n_records:]
    row_counts = _spread(rng, params["table_rows"], n_bundles)
    passage_counts = _spread(rng, params["passages"], n_bundles)
    figure_counts = _spread(rng, params["figures"], n_bundles)

    lines: list[str] = []
    scripts: dict[str, dict] = {}
    for i in range(n_bundles):
        companies = targets[i * per_bundle : (i + 1) * per_bundle]
        values = {}
        for name in companies:
            rev18 = rng.randint(10, 900)
            values[name] = (rev18, rev18 + rng.randint(1, 60))
        reasons = {name: f"The {name} growth was driven by {rng.choice(_REASONS)}." for name in companies}

        if workload == "faulted_small":
            rev18, rev19 = values[companies[0]]
            header = ["Year", "Revenue"]
            rows = [["2018", f"${rev18}M"], ["2019", f"${rev19}M"]]
        else:
            header = ["Company", "Metric", "Year", "Amount"]
            rows = _filler_rows(rng, fillers, row_counts[i] - 2 * len(companies))
            for name in companies:
                for year, value in zip(("2018", "2019"), values[name]):
                    rows.insert(rng.randrange(len(rows) + 1), [name, "Revenue", year, f"${value}M"])

        passages = [_filler_passage(rng, params["sentences"]) for _ in range(passage_counts[i])]
        slots = rng.sample(range(len(passages)), len(companies))
        for name, slot in zip(companies, slots):
            if workload == "passage_heavy":
                passages[slot].insert(rng.randrange(len(passages[slot]) + 1), reasons[name])
            else:
                passages[slot] = [reasons[name], "Margins held steady."]
        passage_items = [{"id": f"p{i:03d}", "text": " ".join(text)} for i, text in enumerate(passages)]

        figures = [f"Figure {k + 1}" for k in range(figure_counts[i])]
        images = []
        for k, figure in enumerate(figures):
            shown = companies[k :: len(figures)]
            images.append(
                {
                    "id": figure,
                    "caption": "Revenue by year for " + ", ".join(shown),
                    "ocr_text": " ".join(
                        f"{name} 2018 ${values[name][0]}M 2019 ${values[name][1]}M" for name in shown
                    ),
                }
            )

        if workload == "table_heavy":
            # A directory bundle: the CSV loader reads the table.
            source_ref = {"sources_path": f"bundles/b{i:03d}"}
            bdir = bundle_dir / f"b{i:03d}"
            bdir.mkdir(parents=True)
            with open(bdir / "segments.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows(rows)
            (bdir / "passages.json").write_text(json.dumps(passage_items), encoding="utf-8")
        else:
            bundle = {
                "tables": [{"id": "Table 1", "header": header, "rows": rows}],
                "passages": passage_items,
                "images": images,
            }
            if workload == "passage_heavy":
                # One bundle file shared by every question about this report.
                source_ref = {"sources_path": f"bundles/b{i:03d}.json"}
                bundle_dir.mkdir(exist_ok=True)
                (bundle_dir / f"b{i:03d}.json").write_text(json.dumps(bundle), encoding="utf-8")
            else:
                source_ref = {"sources": bundle}

        for k, name in enumerate(companies):
            figure = figures[k % len(figures)] if figures else None
            question = _question(name, figure)
            rev18, rev19 = values[name]
            scripts[question] = _script(name, rev18, rev19, reasons[name], figure)
            record = {"question": question, "gold_answers": [f"${rev19 - rev18}M increase"], **source_ref}
            lines.append(json.dumps(record))

    (out / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "script.json").write_text(json.dumps(scripts, indent=1), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
