"""Planner-free multi-agent QA over a shared, typed, provenance-carrying log.

Specialized agents (table, context, visual, summarizing, verification)
coordinate exclusively by reading and appending typed entries to a shared
log; a lightweight scheduler handles turn-taking, verification with a
single re-engagement round, and stopping. The harness measures robustness
(fault injection, catch/repair rates), efficiency, and faithfulness
(exact match, ROUGE, log-groundedness) of the resulting runs.
"""

from .agents import (
    AgentRole,
    build_agents,
    build_prompt,
    verification_act,
)
from .backends import HttpBackend, ScriptedBackend, TextBackend, TransportError
from .gating import (
    GateFeatures,
    GateSample,
    LogisticGate,
    extract_features,
    mine_samples,
    predict_continue,
    train,
)
from .harness import (
    BenchmarkRecord,
    FaultLabel,
    FaultSpec,
    FaultType,
    Metrics,
    bootstrap_ci,
    catch_and_repair,
    exact_match,
    inject_faults,
    load_benchmark,
    log_groundedness,
    rouge,
    run_benchmark,
)
from .log import (
    AppendResult,
    DocSpan,
    EntryType,
    ImageRef,
    LogEntry,
    SharedLog,
    TableAnchor,
    dump_trace,
    is_near_duplicate,
    load_trace,
    parse_answer,
    parse_verdict,
    render_view,
    token_estimate,
)
from .retrieval import (
    CorpusIndex,
    SourceViews,
    index,
    render_visual_text,
    retrieve,
    select_table_slice,
    table_cells,
    truncate_span,
)
from .scheduler import (
    RunResult,
    SchedulerConfig,
    Termination,
    TransportAbort,
    offer_turns,
    run,
)
from .sources import Image, Passage, SourceBundle, Table, load_sources
from .verify import Finding, FindingKind, verify_deterministic

__version__ = "0.1.0"
