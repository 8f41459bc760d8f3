"""Backends: scripted matching/sequencing and the HTTP chat client."""

import io
import json
import os
import subprocess
import sys
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import logboard
from logboard.backends import (
    API_KEY_ENV,
    BASE_URL_ENV,
    HttpBackend,
    ScriptedBackend,
    TransportError,
)
from logboard.scheduler import TransportAbort, run

from helpers import GOLDEN_QUESTION, golden_sources


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


def test_scripted_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"hello": "world"}), encoding="utf-8")
    assert ScriptedBackend.from_file(path).generate("hello", 0.0) == "world"


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
        payload = {
            "choices": [{"message": {"content": f"echo:{body['messages'][0]['content']}"}}]
        }
        raw = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    _StubHandler.requests = []
    _StubHandler.status = 200
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


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


def test_import_leaves_urllib_request_unloaded():
    # Only HttpBackend.generate sends, so only it imports urllib.request;
    # and the runtime has no third-party dependency, numpy included.
    env = dict(os.environ, PYTHONPATH=str(Path(logboard.__file__).parents[1]))
    code = (
        "import sys, logboard; "
        "print(sorted(m for m in ('urllib.request', 'numpy') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def _serve_payload(monkeypatch, payload):
    def urlopen(request, timeout):
        return io.BytesIO(json.dumps(payload).encode("utf-8"))

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)


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
