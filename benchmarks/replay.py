"""Per-record replay backend for the benchmark.

One shared ``ScriptedBackend`` script scans every pattern on every call, so
its cost grows with the record count. Here the prompt's ``Question:`` line
picks the record's own small script, and a ``ScriptedBackend`` replays that.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

from logboard.backends import DEFAULT_MAX_TOKENS, ScriptedBackend, UsageMixin

_QUESTION_LINE = "\nQuestion: "


def question_of(prompt: str) -> str:
    """The text of the prompt's ``Question:`` line, or "" if it has none."""
    start = prompt.find(_QUESTION_LINE)
    if start < 0:
        return ""
    start += len(_QUESTION_LINE)
    end = prompt.find("\n", start)
    return prompt[start:] if end < 0 else prompt[start:end]


def load_scripts(path: str | Path) -> dict[str, dict[str, str]]:
    """Read ``{question: {role pattern: reply}}`` as written by the generator."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class ReplayBackend(UsageMixin):
    """Routes each prompt to the scripted replies of its own question.

    Unknown questions get an empty reply, which agents treat as an
    abstention, as ScriptedBackend does for an unmatched prompt.
    """

    def __init__(self, scripts: Mapping[str, Mapping[str, str]]) -> None:
        super().__init__()
        self._scripts = scripts
        self._routes: dict[str, ScriptedBackend] = {}

    def generate(self, prompt: str, temperature: float, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        question = question_of(prompt)
        route = self._routes.get(question)
        if route is None:
            route = self._routes[question] = ScriptedBackend(dict(self._scripts.get(question, {})))
        reply = route.generate(prompt, temperature, max_tokens)
        self._record(prompt, reply)
        return reply
