"""Backends: scripted matching/sequencing and the HTTP chat client."""

import io
import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

import logboard
from logboard.backends import (
    API_KEY_ENV,
    BASE_URL_ENV,
    HttpBackend,
    RequestRejected,
    ScriptedBackend,
    TransportError,
)
from logboard.log import EntryType, token_estimate
from logboard.scheduler import Termination, TransportAbort, run

from helpers import (
    FIGURE_QUESTION,
    FIGURE_SCRIPT,
    GOLDEN_QUESTION,
    figure_sources,
    golden_sources,
)


def test_scripted_first_match_wins_in_file_order():
    backend = ScriptedBackend({"alpha": "first", "alph": "second"})
    assert backend.generate("the alpha pattern", 0.0) == "first"


def test_scripted_compound_patterns():
    backend = ScriptedBackend({"alpha&&beta": "both", "alpha": "single"})
    assert backend.generate("alpha only", 0.0) == "single"
    assert backend.generate("beta then alpha", 0.0) == "both"


def test_scripted_sequenced_replies_last_repeats():
    backend = ScriptedBackend({"go": ["one", "two"]})
    outs = [backend.generate("go", 0.0) for _ in range(4)]
    assert outs == ["one", "two", "two", "two"]


def test_scripted_unmatched_is_empty_abstention():
    backend = ScriptedBackend({"x": "y"})
    assert backend.generate("nothing here", 0.0) == ""


def test_scripted_usage_accounting():
    backend = ScriptedBackend({"q": "a reply of some length"})
    backend.generate("q" * 40, 0.0)
    assert backend.calls == 1
    assert backend.prompt_tokens == 10
    assert backend.completion_tokens > 0


def test_scripted_deterministic_at_temperature_zero():
    script = {"k": "fixed"}
    a = ScriptedBackend(script)
    b = ScriptedBackend(script)
    assert a.generate("k", 0.0) == b.generate("k", 0.0)


class _StubHandler(BaseHTTPRequestHandler):
    requests: list = []
    status = 200

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        _StubHandler.requests.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        if _StubHandler.status != 200:
            self.send_error(_StubHandler.status)
            return
        _reply_with(self, f"echo:{body['messages'][0]['content']}")

    def log_message(self, *args):
        pass


def _reply_with(handler: BaseHTTPRequestHandler, content: str) -> None:
    """Send a 200 chat-completion reply whose message is content."""
    raw = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(raw)))
    handler.end_headers()
    handler.wfile.write(raw)


@pytest.fixture()
def stub_server():
    _StubHandler.requests = []
    _StubHandler.status = 200
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_http_backend_roundtrip(stub_server):
    backend = HttpBackend(base_url=stub_server, model="m1", api_key="secret")
    reply = backend.generate("ping", temperature=0.3, max_tokens=64)
    assert reply == "echo:ping"
    request = _StubHandler.requests[0]
    assert request["path"] == "/chat/completions"
    assert request["auth"] == "Bearer secret"
    assert request["body"]["model"] == "m1"
    assert request["body"]["temperature"] == 0.3
    assert request["body"]["max_tokens"] == 64
    assert backend.calls == 1


def test_http_backend_env_configuration(stub_server, monkeypatch):
    monkeypatch.setenv(BASE_URL_ENV, stub_server)
    monkeypatch.setenv(API_KEY_ENV, "from-env")
    backend = HttpBackend()
    backend.generate("hi", 0.0)
    assert _StubHandler.requests[-1]["auth"] == "Bearer from-env"


def test_http_backend_error_is_transport_error(stub_server):
    _StubHandler.status = 500
    backend = HttpBackend(base_url=stub_server)
    with pytest.raises(TransportError):
        backend.generate("boom", 0.0)


def test_http_backend_requires_base_url(monkeypatch):
    monkeypatch.delenv(BASE_URL_ENV, raising=False)
    with pytest.raises(ValueError):
        HttpBackend()


def loaded_by_import(modules: tuple[str, ...]) -> str:
    """Which of modules a fresh `import logboard` loads, as a printed sorted list."""
    env = dict(os.environ, PYTHONPATH=str(Path(logboard.__file__).parents[1]))
    code = f"import sys, logboard; print(sorted(m for m in {modules!r} if m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return out.stdout.strip()


def test_import_leaves_urllib_request_unloaded():
    # Only HttpBackend.generate sends, so only it imports urllib.request;
    # and the runtime has no third-party dependency, numpy included.
    assert loaded_by_import(("urllib.request", "numpy")) == "[]"


def test_import_leaves_concurrent_futures_unloaded():
    # Only a round's calls to an HttpBackend run on threads, so only they
    # import concurrent.futures.
    assert loaded_by_import(("concurrent.futures",)) == "[]"


def _serve_payload(monkeypatch, payload):
    def urlopen(request, timeout):
        return io.BytesIO(json.dumps(payload).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)


def test_usage_counters_stay_exact_over_concurrent_generate_calls(monkeypatch):
    # More threads than cores and a short switch interval, so that an
    # unlocked read-modify-write of a counter would lose updates.
    _serve_payload(monkeypatch, {"choices": [{"message": {"content": "four"}}]})
    backend = HttpBackend(base_url="http://stub.invalid")
    threads_n, calls_n = 8, 500

    def work():
        for _ in range(calls_n):
            backend.generate("ping" * 4, 0.0)

    threads = [threading.Thread(target=work) for _ in range(threads_n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert backend.calls == threads_n * calls_n
    assert backend.prompt_tokens == 4 * backend.calls
    assert backend.completion_tokens == backend.calls


@pytest.mark.parametrize(
    "payload",
    [
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": 7}}]},
        {"choices": [{"message": {"content": ["text"]}}]},
        {"choices": ["not a message"]},
        ["not", "an", "object"],
    ],
)
def test_http_backend_non_text_content_is_transport_error(monkeypatch, payload):
    _serve_payload(monkeypatch, payload)
    backend = HttpBackend(base_url="http://stub.invalid")
    with pytest.raises(TransportError):
        backend.generate("ping", 0.0)
    assert backend.calls == 0


def test_http_backend_null_content_aborts_run_after_retries(monkeypatch):
    _serve_payload(monkeypatch, {"choices": [{"message": {"content": None}}]})
    with pytest.raises(TransportAbort):
        run(GOLDEN_QUESTION, golden_sources(), HttpBackend(base_url="http://stub.invalid"))


@pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
def test_http_client_error_is_request_rejected(stub_server, status):
    _StubHandler.status = status
    with pytest.raises(RequestRejected, match=str(status)):
        HttpBackend(base_url=stub_server).generate("ping", 0.0)


@pytest.mark.parametrize("status", [408, 429, 500, 503])
def test_http_retryable_status_is_plain_transport_error(stub_server, status):
    _StubHandler.status = status
    with pytest.raises(TransportError) as exc:
        HttpBackend(base_url=stub_server).generate("ping", 0.0)
    assert not isinstance(exc.value, RequestRejected)


@pytest.mark.parametrize("status, attempts", [(400, 1), (401, 1), (404, 1), (408, 3), (429, 3), (503, 3)])
def test_run_sends_a_rejected_request_once_and_retries_the_rest(stub_server, status, attempts):
    _StubHandler.status = status
    with pytest.raises(TransportAbort) as exc:
        run(GOLDEN_QUESTION, golden_sources(), HttpBackend(base_url=stub_server))
    # The first round's Table and Context prompts go out together, each on its own tries.
    sent = Counter(request["body"]["messages"][0]["content"] for request in _StubHandler.requests)
    assert len(sent) == 2 and set(sent.values()) == {attempts}
    if attempts == 1:
        assert "not retried" in str(exc.value) and str(status) in str(exc.value)
    else:
        assert "after 2 retries" in str(exc.value)


@pytest.mark.parametrize(
    "error",
    [urllib.error.URLError("connection refused"), TimeoutError("timed out"), None],
    ids=["url-error", "timeout", "malformed-payload"],
)
def test_unreachable_backend_or_malformed_reply_is_retried(monkeypatch, error):
    attempts = []

    def urlopen(request, timeout):
        attempts.append(request)
        if error is None:
            return io.BytesIO(b'{"choices": []}')
        raise error

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(TransportAbort, match="after 2 retries"):
        run(GOLDEN_QUESTION, golden_sources(), HttpBackend(base_url="http://stub.invalid"))
    # Each of the first round's two prompts (Table, Context) is tried three times.
    sent = Counter(request.data for request in attempts)
    assert len(sent) == 2 and set(sent.values()) == {3}


class _RoundStub(BaseHTTPRequestHandler):
    """Serves each request on its own thread with FIGURE_SCRIPT's reply for
    the prompt's role, once `hold(role)` returns the status to send. Every
    prompt received is kept in `prompts`."""

    hold = staticmethod(lambda role: 200)
    prompts: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["messages"][0]["content"]
        _RoundStub.prompts.append(prompt)
        role = next(pattern for pattern in FIGURE_SCRIPT if pattern in prompt)
        status = _RoundStub.hold(role)
        if status != 200:
            self.send_error(status)
            return
        _reply_with(self, FIGURE_SCRIPT[role])

    def log_message(self, *args):
        pass


@pytest.fixture()
def round_stub():
    _RoundStub.hold = staticmethod(lambda role: 200)
    _RoundStub.prompts = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RoundStub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


RETRIEVAL_PATTERNS = ("table analyst", "passage reader", "image interpreter")


def executor_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")]


def test_a_rounds_three_retrieval_calls_are_in_flight_at_once(round_stub):
    # No retrieval request is answered until all three are in flight; then
    # Visual is answered first, Context next and Table last.
    all_in_flight = threading.Barrier(3, timeout=5)
    answered: list[str] = []
    answering = {role: threading.Event() for role in RETRIEVAL_PATTERNS}
    after = dict(zip(RETRIEVAL_PATTERNS, RETRIEVAL_PATTERNS[1:]))  # whom each role waits for

    def hold(role):
        if role in RETRIEVAL_PATTERNS:
            all_in_flight.wait()
            if role in after and not answering[after[role]].wait(timeout=5):
                return 504
            answered.append(role)
            answering[role].set()
        return 200

    _RoundStub.hold = staticmethod(hold)
    backend = HttpBackend(base_url=round_stub)
    result = run(FIGURE_QUESTION, figure_sources(), backend)

    assert answered == list(reversed(RETRIEVAL_PATTERNS))
    assert result.termination is Termination.ANSWER_VERIFIED and result.metrics.rounds == 1
    assert [e.entry_type for e in result.log.entries] == [
        EntryType.QUERY, EntryType.LOOKUP, EntryType.QUOTE, EntryType.VISUAL,
        EntryType.ANSWER, EntryType.OK,
    ]
    # The counters stay exact over the round's concurrent generate calls;
    # each of the five roles was asked once.
    assert backend.calls == len(_RoundStub.prompts) == 5
    assert backend.prompt_tokens == sum(map(token_estimate, _RoundStub.prompts))
    assert backend.completion_tokens == sum(map(token_estimate, FIGURE_SCRIPT.values()))
    assert executor_threads() == []


def test_a_spent_call_commits_the_replies_before_it_once_its_peers_are_joined(round_stub):
    # Context's tries are all refused with 503; Visual's reply comes back
    # only after that, and late. Table's Lookup is committed, Visual's reply
    # is not, and run raises only once Visual's worker has finished.
    context_spent = threading.Event()

    def hold(role):
        if role == "passage reader":
            if sum("passage reader" in prompt for prompt in _RoundStub.prompts) == 3:
                context_spent.set()
            return 503
        if role == "image interpreter":
            context_spent.wait(timeout=5)
            time.sleep(0.2)
        return 200

    _RoundStub.hold = staticmethod(hold)
    backend = HttpBackend(base_url=round_stub)
    with pytest.raises(TransportAbort, match="after 2 retries") as excinfo:
        run(FIGURE_QUESTION, figure_sources(), backend)
    partial = excinfo.value.partial_log
    assert [e.entry_type for e in partial.entries] == [EntryType.QUERY, EntryType.LOOKUP]
    assert backend.calls == 2  # Table's and Visual's replies, both counted before the raise
    assert executor_threads() == []
