"""Text-generation backends.

The runtime talks to any object with generate(prompt, temperature,
max_tokens) plus call/token counters. Two implementations ship: an HTTP
client speaking the common chat-completion JSON protocol, and a scripted
backend replaying canned replies keyed by prompt substrings (the golden
trace mechanism). At temperature 0 a conforming backend must return
identical text for identical prompts; the scripted backend guarantees it.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from pathlib import Path
from typing import Protocol, runtime_checkable

from .log import token_estimate

API_KEY_ENV = "LOGBOARD_API_KEY"
BASE_URL_ENV = "LOGBOARD_BASE_URL"

DEFAULT_MAX_TOKENS = 512


class TransportError(RuntimeError):
    """The backend could not produce a reply; the scheduler may retry."""


@runtime_checkable
class TextBackend(Protocol):
    calls: int
    prompt_tokens: int
    completion_tokens: int

    def generate(self, prompt: str, temperature: float, max_tokens: int) -> str:
        ...


class UsageMixin:
    """Call and token accounting shared by backend implementations."""

    def __init__(self) -> None:
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0

    def _record(self, prompt: str, reply: str) -> None:
        self.calls += 1
        self.prompt_tokens += token_estimate(prompt)
        self.completion_tokens += token_estimate(reply)


class HttpBackend(UsageMixin):
    """Chat-completion HTTP client.

    Base URL and API key default to the LOGBOARD_BASE_URL / LOGBOARD_API_KEY
    environment variables. Any network, HTTP, or payload failure raises
    TransportError; retries are the caller's policy.
    """

    def __init__(
        self,
        base_url: str | None = None,
        model: str = "default",
        api_key: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        super().__init__()
        self.base_url = (base_url or os.environ.get(BASE_URL_ENV, "")).rstrip("/")
        if not self.base_url:
            raise ValueError(f"no base URL given and {BASE_URL_ENV} is unset")
        self.model = model
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self.timeout = timeout

    def generate(self, prompt: str, temperature: float, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        body = json.dumps(
            {
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": temperature,
                "max_tokens": max_tokens,
            }
        ).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + "/chat/completions",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        if self.api_key:
            request.add_header("Authorization", f"Bearer {self.api_key}")
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                payload = json.loads(response.read().decode("utf-8"))
            reply = payload["choices"][0]["message"]["content"]
        except (urllib.error.URLError, OSError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise TransportError(f"chat completion request failed: {exc}") from exc
        if not isinstance(reply, str):
            raise TransportError(f"chat completion content is not text: {reply!r}")
        self._record(prompt, reply)
        return reply


class ScriptedBackend(UsageMixin):
    """Deterministic replay backend for golden traces and benchmarks.

    The script maps prompt substrings to canned replies. Patterns are tried
    in file order; the first matching pattern wins. A pattern may join
    several substrings with "&&" (all must occur), which keys a reply on
    role template plus question at once. A value may be a list, consumed
    one reply per matching call (the last reply repeats). Unmatched prompts
    yield an empty reply, which agents treat as an abstention.
    """

    def __init__(self, script: dict[str, str | list[str]]) -> None:
        super().__init__()
        self._patterns: list[tuple[str, list[str], list[str]]] = []
        for pattern, reply in script.items():
            replies = list(reply) if isinstance(reply, list) else [reply]
            if not replies:
                raise ValueError(f"pattern {pattern!r} has no replies")
            needles = [part for part in pattern.split("&&") if part]
            self._patterns.append((pattern, needles, replies))
        self._cursor: dict[str, int] = {}

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def generate(self, prompt: str, temperature: float, max_tokens: int = DEFAULT_MAX_TOKENS) -> str:
        reply = ""
        for pattern, needles, replies in self._patterns:
            if all(needle in prompt for needle in needles):
                index = self._cursor.get(pattern, 0)
                reply = replies[min(index, len(replies) - 1)]
                self._cursor[pattern] = index + 1
                break
        self._record(prompt, reply)
        return reply
