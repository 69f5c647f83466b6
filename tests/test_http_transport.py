"""``HttpEngine`` over a real socket: a loopback server plays the provider.

The retry and status policy itself is tested against scripted transports in
``test_engines.py``; these tests check what ``engines._post_json`` puts on the
wire and what it makes of each kind of reply.
"""

import contextlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from alloyforge.engines import (
    AuthError,
    ContextTooLong,
    EngineError,
    EngineRequest,
    HttpEngine,
    _post_json,
)

from tests.test_solver_load import _run

GARBAGE = None  # a scripted reply whose status line is not HTTP


class _Provider:
    """Answers each request with the next scripted ``(status, body bytes, *headers)``."""

    def __init__(self):
        self.replies, self.seen = [], []
        provider = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                provider.seen.append((self.headers, body))
                status, reply, *headers = provider.replies.pop(0)
                if status is GARBAGE:
                    self.wfile.write(b"garbage\r\n\r\n")
                    return
                self.send_response(status)
                for name, value in headers:
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}/v1"

    def engine(self, sleeps, **kw):
        return HttpEngine(endpoint=self.url, model_name="m", max_retries=2,
                          sleep=sleeps.append, **kw)


@contextlib.contextmanager
def _serving():
    provider = _Provider()
    thread = threading.Thread(target=provider.server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield provider
    finally:
        provider.server.shutdown()
        provider.server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def provider():
    with _serving() as provider:
        yield provider


def req(user="extract the data"):
    return EngineRequest(system_text="system", user_text=user)


def answer(text="ok"):
    return 200, json.dumps({"text": text, "input_tokens": 3, "output_tokens": 2}).encode()


def test_body_and_headers(provider, monkeypatch):
    monkeypatch.setenv("ALLOYFORGE_FORWARD_API_KEY", "s3cret")
    provider.replies.append(answer())
    sleeps = []
    response = provider.engine(sleeps, name="forward").complete(req("Å ünï"))
    assert (response.text, response.input_tokens, response.output_tokens) == ("ok", 3, 2)
    [(headers, body)] = provider.seen
    payload = {"model": "m", "system": "system", "user": "Å ünï", "temperature": 0.0,
               "attachments": [], "options": {}}
    # the bytes requests.post(url, json=payload) sends
    assert body == json.dumps(payload).encode("utf-8")
    assert headers["Content-Type"] == "application/json"
    assert headers["Authorization"] == "Bearer s3cret"
    assert sleeps == []


def test_no_key_sends_no_authorization(provider, monkeypatch):
    monkeypatch.delenv("ALLOYFORGE_DEFAULT_API_KEY", raising=False)
    provider.replies.append(answer())
    provider.engine([]).complete(req())
    assert "Authorization" not in provider.seen[0][0]


def test_throttled_then_busy_then_answered(provider):
    provider.replies += [(429, b'{"error": "slow down"}'), (503, b"<html>busy</html>"), answer()]
    sleeps = []
    assert provider.engine(sleeps).complete(req()).text == "ok"
    assert len(provider.seen) == 3
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status, reply, error", [
    (401, b"", AuthError),
    (413, b'{"error": "request too large"}', ContextTooLong),
    (400, b'{"error": "maximum context length is 8192 tokens"}', ContextTooLong),
    (404, b"<html>no such route</html>", EngineError),
])
def test_permanent_failures_are_not_retried(provider, status, reply, error):
    provider.replies.append((status, reply))
    sleeps = []
    with pytest.raises(EngineError) as info:
        provider.engine(sleeps).complete(req())
    assert type(info.value) is error
    assert len(provider.seen) == 1 and sleeps == []


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_a_redirect_is_not_followed(provider, monkeypatch, status):
    # following it would hand the API key to whatever host Location names
    monkeypatch.setenv("ALLOYFORGE_DEFAULT_API_KEY", "s3cret")
    sleeps = []
    with _serving() as elsewhere:
        elsewhere.replies.append(answer())
        provider.replies.append((status, b"", ("Location", elsewhere.url)))
        with pytest.raises(EngineError, match=f"returned {status}") as info:
            provider.engine(sleeps).complete(req())
        assert elsewhere.seen == []
    assert type(info.value) is EngineError
    assert len(provider.seen) == 1 and sleeps == []


def test_a_garbage_status_line_is_retried(provider):
    provider.replies += [(GARBAGE, b""), answer()]
    sleeps = []
    assert provider.engine(sleeps).complete(req()).text == "ok"
    assert len(provider.seen) == 2
    assert sleeps == [0.5]


def test_a_refused_connection_is_retried():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # nothing listens on the port once the probe is closed
    sleeps = []
    engine = HttpEngine(endpoint=f"http://127.0.0.1:{port}/v1", model_name="m",
                        max_retries=2, sleep=sleeps.append)
    with pytest.raises(EngineError, match="failed after retries") as info:
        engine.complete(req())
    assert type(info.value) is EngineError
    assert sleeps == [0.5, 1.0]


@pytest.mark.parametrize("status, reply, body", [
    (200, b'{"text": "ok"}', {"text": "ok"}),
    (200, b"not json", {"error": "not json"}),
    (500, b"<html>oops</html>", {"error": "<html>oops</html>"}),
    (401, b"", {"error": ""}),
    (429, b'["slow"]', ["slow"]),
])
def test_post_json_decodes_every_reply(provider, status, reply, body):
    provider.replies.append((status, reply))
    assert _post_json(provider.url, {"user": "u"}, {}, 5.0) == (status, body)


def test_post_json_refuses_non_finite_numbers(provider):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _post_json(provider.url, {"temperature": float("inf")}, {}, 5.0)
    assert provider.seen == []


def test_a_loopback_call_needs_no_requests():
    seen = _run("""
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        sys.modules["requests"] = None  # any import of requests fails

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = json.dumps({"text": "ok", "input_tokens": 1, "output_tokens": 1})
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body.encode())

            def log_message(self, *args):
                pass

        from alloyforge.engines import EngineRequest, HttpEngine

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        try:
            engine = HttpEngine(f"http://127.0.0.1:{server.server_address[1]}/v1", "m")
            text = engine.complete(EngineRequest(system_text="", user_text="u")).text
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        print(json.dumps({"text": text}))
    """)
    assert seen == {"text": "ok"}
