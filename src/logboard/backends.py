"""Text-generation backends.

The runtime talks to any object with generate(prompt, temperature,
max_tokens) plus call/token counters. Two implementations ship: an HTTP
client speaking the common chat-completion JSON protocol, and a scripted
backend replaying canned replies keyed by prompt substrings (the golden
trace mechanism). At temperature 0 a conforming backend must return
identical text for identical prompts; the scripted backend guarantees it.
A generate call is one attempt; retries are the caller's policy, which
agents._generate applies for every role with the two constants below.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Protocol, runtime_checkable

from .log import token_estimate
from .sources import json_strings, json_value

API_KEY_ENV = "LOGBOARD_API_KEY"
BASE_URL_ENV = "LOGBOARD_BASE_URL"

DEFAULT_MAX_TOKENS = 512
BACKEND_ATTEMPTS = 3  # tries per backend call: the first plus two retries
BACKEND_CALL_TICK_MS = 5  # simulated latency per backend reply


class TransportError(RuntimeError):
    """The backend could not produce a reply; the caller may retry."""


class RequestRejected(TransportError):
    """The backend refused the request itself (an HTTP 4xx other than 408
    or 429); sending it again would be refused again, so it is not retried."""


@runtime_checkable
class TextBackend(Protocol):
    """calls counts replies, not attempts: a generate call that raises adds
    nothing to it or to the token counters, so a run's `backend_calls` is
    the same whether or not some attempt failed."""

    calls: int
    prompt_tokens: int
    completion_tokens: int

    def generate(self, prompt: str, temperature: float, max_tokens: int) -> str:
        ...


class UsageMixin:
    """Call and token accounting shared by backend implementations; the
    counters stay exact when calls run on several threads at once."""

    def __init__(self) -> None:
        self.calls = 0
        self.prompt_tokens = 0
        self.completion_tokens = 0
        self._lock = threading.Lock()

    def _record(self, prompt: str, reply: str) -> None:
        prompt_tokens, completion_tokens = token_estimate(prompt), token_estimate(reply)
        with self._lock:
            self.calls += 1
            self.prompt_tokens += prompt_tokens
            self.completion_tokens += completion_tokens


class HttpBackend(UsageMixin):
    """Chat-completion HTTP client.

    Base URL and API key default to the LOGBOARD_BASE_URL / LOGBOARD_API_KEY
    environment variables. Any network, HTTP, or payload failure raises
    TransportError; retries are the caller's policy. An HTTP 4xx other than
    408 (timeout) or 429 (rate limit) raises its subclass RequestRejected.
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
        # Imported here, the only place that sends: it costs tens of ms at
        # import time, which no scripted run needs.
        import urllib.error
        import urllib.request

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
        except urllib.error.HTTPError as exc:
            exc.close()  # the error is also the reply: release its connection now
            if 400 <= exc.code < 500 and exc.code not in (408, 429):
                raise RequestRejected(f"chat completion request rejected: {exc}") from exc
            raise TransportError(f"chat completion request failed: {exc}") from exc
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
        """ValueError names a script that is not a JSON object, or a pattern
        whose reply is neither a string nor a non-empty array of strings."""
        super().__init__()
        self._patterns: list[tuple[str, list[str], list[str]]] = []
        for pattern, reply in json_value(script, dict, "a backend script").items():
            if type(reply) is str:
                replies = [reply]
            else:
                replies = json_strings(reply, f"the replies of pattern {pattern!r}")
            if not replies:
                raise ValueError(f"pattern {pattern!r} has no replies")
            needles = [part for part in pattern.split("&&") if part]
            self._patterns.append((pattern, needles, replies))
        self._cursor: dict[str, int] = {}

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
