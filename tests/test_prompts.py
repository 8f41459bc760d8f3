"""What each prompt states: the question once, and only the figures it names.

The last test pins the prompt tokens per role of the golden bench, so a
prompt that grows fails here and not only in the benchmark.
"""

import json

import pytest

from logboard.agents import (
    CONTEXT_INSTRUCTIONS,
    SUMMARIZING_INSTRUCTIONS,
    TABLE_INSTRUCTIONS,
    VERIFICATION_INSTRUCTIONS,
    VISUAL_INSTRUCTIONS,
    AgentRole,
    VisualAgent,
    build_prompt,
)
from logboard.backends import DEFAULT_MAX_TOKENS, ScriptedBackend, UsageMixin
from logboard.harness import load_benchmark, run_benchmark
from logboard.retrieval import SourceViews
from logboard.scheduler import run
from logboard.sources import Image, SourceBundle

from helpers import (
    FIXTURES,
    GOLDEN_QUESTION,
    golden_script,
    golden_sources,
    log_with,
    shared_bundle_records,
)

ROLE_INSTRUCTIONS = {
    "Table": TABLE_INSTRUCTIONS,
    "Context": CONTEXT_INSTRUCTIONS,
    "Visual": VISUAL_INSTRUCTIONS,
    "Summarizing": SUMMARIZING_INSTRUCTIONS,
    "Verification": VERIFICATION_INSTRUCTIONS,
}


def role_of(prompt: str) -> str:
    return next(role for role, text in ROLE_INSTRUCTIONS.items() if prompt.startswith(text))


class PerRoleBackend(UsageMixin):
    """Sends each prompt to its role's own ScriptedBackend and keeps the prompts."""

    def __init__(self, script: dict) -> None:
        super().__init__()
        self.by_role = {role: ScriptedBackend(script) for role in ROLE_INSTRUCTIONS}
        self.prompts: list[str] = []

    def generate(self, prompt: str, temperature: float, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        self.prompts.append(prompt)
        reply = self.by_role[role_of(prompt)].generate(prompt, temperature, max_tokens)
        self._record(prompt, reply)
        return reply


def _question_runs():
    """(question, prompts) of the golden run and of runs that read figures."""
    backend = PerRoleBackend(golden_script())
    run(GOLDEN_QUESTION, golden_sources(), backend)
    yield GOLDEN_QUESTION, backend.prompts
    records, script = shared_bundle_records(bundles=1, per_bundle=2)
    for record in records:
        backend = PerRoleBackend(script)
        run(record.question, record.sources, backend)
        yield record.question, backend.prompts


def test_every_prompt_states_its_question_once():
    roles = set()
    for question, prompts in _question_runs():
        assert prompts
        for prompt in prompts:
            roles.add(role_of(prompt))
            assert prompt.count(question) == 1
            assert f"\n\nQuestion: {question}\n\n" in prompt
            view = prompt.split("\n\nShared log:\n", 1)[1]
            assert "(Query):" not in view
    assert roles == set(ROLE_INSTRUCTIONS)  # every role's prompt was seen


FIGURES = [
    Image("Figure 1", "Revenue by year for Giva", "Giva 2018 $310M 2019 $342M"),
    Image("Figure 2", "Revenue by year for Bora", "Bora 2018 $120M 2019 $150M"),
    Image("Figure 12", "Revenue by year for Tamo", "Tamo 2018 $80M 2019 $90M"),
]


def _visual_prompt(question: str) -> str:
    sources = SourceBundle(images=FIGURES)
    blocks, _ = VisualAgent(SourceViews())._show(sources, question)
    return build_prompt(AgentRole.VISUAL, log_with(question), blocks)


@pytest.mark.parametrize(
    "question, shown",
    [
        ("According to Figure 2, how much did Bora's revenue grow?", ["Figure 2"]),
        ("Does Figure 12 agree with Figure 1?", ["Figure 1", "Figure 12"]),
        ("How much did revenue grow according to the chart?", ["Figure 1", "Figure 2", "Figure 12"]),
    ],
)
def test_a_visual_prompt_shows_the_figures_its_question_names(question, shown):
    # "Figure 12" does not name "Figure 1"; a question naming none shows all.
    prompt = _visual_prompt(question)
    assert [image.id for image in FIGURES if f"Image {image.id}:" in prompt] == shown


# Calls and prompt tokens (token_estimate of each prompt) per role over the
# five golden bench records, with no faults. When each prompt also held a
# "User (Query): ..." view line, the tokens were 652, 850, 0, 1241 and 1161.
# Context was 751 while its prompt showed the Lookup of its own round; a
# round's retrieval prompts now show only the log of the rounds before.
# A change that means to move them re-pins them here and says why.
GOLDEN_BENCH_USAGE = {
    "Table": (5, 554),
    "Context": (5, 551),
    "Visual": (0, 0),
    "Summarizing": (5, 1142),
    "Verification": (5, 1061),
}


def test_golden_bench_prompt_tokens_per_role_are_pinned():
    records = load_benchmark(FIXTURES / "golden_bench.jsonl")
    script = json.loads((FIXTURES / "golden_bench_script.json").read_text())
    made: list[PerRoleBackend] = []

    def factory():
        made.append(PerRoleBackend(script))
        return made[-1]

    metrics, _ = run_benchmark(records, backend_factory=factory)
    assert metrics.em == 1.0
    usage = {
        role: (
            sum(b.by_role[role].calls for b in made),
            sum(b.by_role[role].prompt_tokens for b in made),
        )
        for role in ROLE_INSTRUCTIONS
    }
    assert usage == GOLDEN_BENCH_USAGE
