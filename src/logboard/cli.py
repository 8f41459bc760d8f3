"""Command-line entry point.

Subcommands: ask (one question), bench (benchmark with metrics), train-gate
(fit the continue/stop policy from traces), inject (corrupt sources),
trace (render a JSONL trace as a markdown table). A JSON config file can
supply defaults; explicit flags win. Stdout carries only the answer (ask)
or a one-line summary (bench); everything else goes to files or stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from pathlib import Path

from .backends import BASE_URL_ENV, HttpBackend, ScriptedBackend, TextBackend
from .gating import LogisticGate, mine_samples_from_dir, train
from .harness import FaultSpec, FaultType, inject_faults, load_benchmark, run_benchmark
from .log import load_trace
from .scheduler import SchedulerConfig, TransportAbort, run, write_run_summary, write_trace
from .sources import bundle_to_dict, json_value, load_sources

FAULT_NAMES = {
    "missing-row": FaultType.MISSING_ROW,
    "row-off-by-one": FaultType.ROW_OFF_BY_ONE,
    "arithmetic": FaultType.ARITHMETIC_CORRUPTION,
    "ocr": FaultType.OCR_MISREAD,
}

# Config file keys and the JSON type of the flag each one defaults.
_CONFIG_TYPES = {
    "max_rounds": int,
    "no_verify": bool,
    "seed": int,
    "out": str,
    "scripted": str,
    "backend_url": str,
    "gate": str,
    "model": str,
}


def _build_parser() -> tuple[argparse.ArgumentParser, list[argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(prog="logboard")
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--max-rounds", type=int, default=6)
        p.add_argument("--no-verify", action="store_true")
        p.add_argument("--gate", help="path to a trained gate JSON")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--backend-url", help=f"chat-completion base URL (or ${BASE_URL_ENV})")
        p.add_argument("--model", default="default")
        p.add_argument("--scripted", help="scripted backend JSON fixture")
        p.add_argument("--out", default="out", help="output directory")

    ask = sub.add_parser("ask", help="answer one question")
    ask.add_argument("question")
    ask.add_argument("--sources", required=True, help="SourceBundle JSON file or directory")
    add_common(ask)

    bench = sub.add_parser("bench", help="run a benchmark")
    bench.add_argument("dataset", help="JSONL of benchmark records")
    bench.add_argument("--fault-type", choices=sorted(FAULT_NAMES))
    bench.add_argument("--fault-rate", type=float)
    add_common(bench)

    train_p = sub.add_parser("train-gate", help="fit the continue/stop gate from traces")
    train_p.add_argument("traces_dir")
    train_p.add_argument("--out", default="gate.json", help="gate JSON output path")
    train_p.add_argument("--epochs", type=int, default=500)
    train_p.add_argument("--lr", type=float, default=0.1)
    train_p.add_argument("--l2", type=float, default=1e-3)

    inject = sub.add_parser("inject", help="corrupt sources per a fault spec")
    inject.add_argument("sources", help="SourceBundle JSON file or directory")
    inject.add_argument("--type", required=True, choices=sorted(FAULT_NAMES))
    inject.add_argument("--rate", type=float, required=True)
    inject.add_argument("--seed", type=int, default=0)
    inject.add_argument("--out", default="out")

    trace = sub.add_parser("trace", help="render a JSONL trace")
    trace.add_argument("trace_path")
    trace.add_argument("--format", choices=("markdown", "jsonl"), default="markdown")
    return parser, [ask, bench, train_p, inject, trace]


def _apply_config_file(
    parser: argparse.ArgumentParser,
    subparsers: list[argparse.ArgumentParser],
    argv: list[str],
) -> argparse.Namespace:
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        with open(probe.config, encoding="utf-8") as fh:
            try:
                defaults = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {probe.config} is not JSON: {exc}") from None
        defaults = json_value(defaults, dict, f"config file {probe.config}")
        unknown = sorted(defaults.keys() - _CONFIG_TYPES.keys())
        if unknown:
            raise ValueError(
                f"config file {probe.config} has unknown keys: {', '.join(map(repr, unknown))}"
            )
        accepted = {
            key: json_value(value, _CONFIG_TYPES[key], f"config key {key!r}")
            for key, value in defaults.items()
        }
        # Subparsers re-apply their own defaults over the parent namespace,
        # so config-supplied defaults must land on every subparser too.
        for p in [parser, *subparsers]:
            p.set_defaults(**accepted)
    return parser.parse_args(argv)


def _backend_factory(args: argparse.Namespace) -> Callable[[], TextBackend]:
    """Fresh backends for ask or bench; one is built here, so a missing
    fixture or base URL is an error before the first question."""
    if args.scripted:
        path = Path(args.scripted)
        if not path.exists():
            raise FileNotFoundError(f"scripted fixture not found: {path}")
        with open(path, encoding="utf-8") as fh:
            script = json.load(fh)
        factory = lambda: ScriptedBackend(script)  # noqa: E731
    else:
        factory = lambda: HttpBackend(base_url=args.backend_url, model=args.model)  # noqa: E731
    factory()
    return factory


def _scheduler_config(args: argparse.Namespace) -> SchedulerConfig:
    return SchedulerConfig(
        max_rounds=args.max_rounds,
        verifier_enabled=not args.no_verify,
    )


def cmd_ask(args: argparse.Namespace) -> int:
    if not args.question.strip():
        print("error: question must be non-empty", file=sys.stderr)
        return 1
    sources = load_sources(args.sources)
    backend = _backend_factory(args)()
    gate = LogisticGate.load(args.gate) if args.gate else None
    try:
        result = run(
            args.question,
            sources,
            backend,
            config=_scheduler_config(args),
            gate=gate,
        )
    except TransportAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(result, out / "trace.jsonl")
    write_run_summary(result, out / "run.json")
    print(f"termination: {result.termination.value}", file=sys.stderr)
    if result.final_answer is not None:
        print(result.final_answer)
        return 0
    return 2


def cmd_bench(args: argparse.Namespace) -> int:
    records = load_benchmark(args.dataset)
    backend_factory = _backend_factory(args)
    fault_spec = None
    if args.fault_type or args.fault_rate is not None:
        if not (args.fault_type and args.fault_rate is not None):
            print("error: --fault-type and --fault-rate go together", file=sys.stderr)
            return 1
        fault_spec = FaultSpec(FAULT_NAMES[args.fault_type], args.fault_rate, args.seed)
    gate = LogisticGate.load(args.gate) if args.gate else None
    metrics, reports = run_benchmark(
        records,
        config=_scheduler_config(args),
        backend_factory=backend_factory,
        fault_spec=fault_spec,
        gate=gate,
        out_dir=args.out,
        seed=args.seed,
    )
    print(
        f"em={metrics.em:.3f} ci=[{metrics.ci_low:.3f},{metrics.ci_high:.3f}] "
        f"n={len(reports)} calls/q={metrics.backend_calls_mean:.2f} -> {args.out}"
    )
    return 0


def cmd_train_gate(args: argparse.Namespace) -> int:
    samples = mine_samples_from_dir(args.traces_dir)
    if not samples:
        print("error: no usable traces found", file=sys.stderr)
        return 1
    gate, loss = train(samples, epochs=args.epochs, learning_rate=args.lr, l2=args.l2)
    gate.save(args.out)
    print(f"trained on {len(samples)} samples, final loss {loss:.4f} -> {args.out}")
    return 0


def cmd_inject(args: argparse.Namespace) -> int:
    bundle = load_sources(args.sources)
    spec = FaultSpec(FAULT_NAMES[args.type], args.rate, args.seed)
    corrupted, labels = inject_faults(bundle, spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sources.json").write_text(
        json.dumps(bundle_to_dict(corrupted), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    (out / "faults.json").write_text(
        json.dumps([label.to_dict() for label in labels], indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    print(f"{len(labels)} faults -> {out}", file=sys.stderr)
    return 0


def _markdown_escape(text: str) -> str:
    return text.replace("|", "\\|").replace("\n", " ")


def cmd_trace(args: argparse.Namespace) -> int:
    text = Path(args.trace_path).read_text(encoding="utf-8")
    entries = load_trace(text)
    if args.format == "jsonl":
        sys.stdout.write(text)
        return 0
    print("| Agent (Type) | Log Entry Content |")
    print("| --- | --- |")
    for entry in entries:
        label = f"{entry.agent} ({entry.entry_type.value})"
        print(f"| {label} | {_markdown_escape(entry.content)} |")
    return 0


_COMMANDS = {
    "ask": cmd_ask,
    "bench": cmd_bench,
    "train-gate": cmd_train_gate,
    "inject": cmd_inject,
    "trace": cmd_trace,
}


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = _build_parser()
    try:
        args = _apply_config_file(parser, subparsers, list(sys.argv[1:] if argv is None else argv))
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
