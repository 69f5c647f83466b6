"""Uniform interface to language-model backends.

Engines share one ``complete(request)`` surface: a remote HTTP engine with
retry and rate limiting, and a recording wrapper that answers from a transcript
store first and records what the store lacks; a replay engine is one with no
network behind it, for offline runs. Forward, backward, and evaluator roles are
just separately configured handles. How many calls are in flight is up to the
caller (``pipeline.run_documents``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote


# HttpEngine: the retry delay doubles from the base up to the cap; one call's timeout
BACKOFF_BASE_S = 0.5
BACKOFF_CAP_S = 30.0
TIMEOUT_S = 120.0


class EngineError(Exception):
    pass


class AuthError(EngineError):
    pass


class ContextTooLong(EngineError):
    """The document cannot fit the engine context; callers reject the document."""


@dataclass(frozen=True)
class EngineRequest:
    system_text: str
    user_text: str
    attachments: tuple = ()        # ((doc_id, pdf_bytes), ...)
    temperature: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "attachments", tuple((doc_id, pdf) for doc_id, pdf in self.attachments)
        )
        if not self.user_text:
            raise ValueError("user_text must be non-empty")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and nonnegative, got {self.temperature}")
        ids = [doc_id for doc_id, _ in self.attachments]
        if len(ids) != len(set(ids)):
            raise ValueError("attachment document ids must be unique")


@dataclass(frozen=True)
class EngineResponse:
    text: str
    input_tokens: int = 0
    output_tokens: int = 0
    latency_s: float = 0.0

    def __post_init__(self):
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("token counts must be nonnegative")


def _normalize_whitespace(text: str) -> str:
    return " ".join(text.split())


def _attachment_digests(request: EngineRequest) -> list[dict]:
    # every attachment is a PDF; "kind" keeps transcript keys and the wire format
    return [{"id": doc_id, "kind": "pdf", "sha256": hashlib.sha256(pdf).hexdigest()}
            for doc_id, pdf in request.attachments]


def transcript_key(request: EngineRequest) -> str:
    """Content hash of the canonicalized request.

    Insensitive to attachment ordering and to whitespace-only differences in
    the user text, so trivially reformatted requests replay the same entry.
    ``model`` and ``options`` stay as constants from when requests carried
    them, so recorded keys still replay; ``engine_from_config`` gives each
    model a store of its own instead.
    """
    attachments = sorted(_attachment_digests(request), key=lambda a: a["id"])
    canonical = {
        "model": "",
        "system": request.system_text,
        "user": _normalize_whitespace(request.user_text),
        "temperature": repr(float(request.temperature)),
        "options": [],
        "attachments": attachments,
    }
    blob = json.dumps(canonical, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TranscriptStore:
    """Directory of <key>.request / <key>.response files, UTF-8, write-once;
    the directory is created once, when the store records its first transcript."""

    def __init__(self, root):
        self.root = Path(root)
        self._lock = threading.Lock()
        self._made = False  # whether this store has created its directory

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.request", self.root / f"{key}.response"

    def get(self, key: str) -> EngineResponse | None:
        path = self._paths(key)[1]
        if not path.exists():
            return None
        blob = json.loads(path.read_text(encoding="utf-8"))
        return EngineResponse(
            text=blob["text"],
            input_tokens=int(blob["input_tokens"]),
            output_tokens=int(blob["output_tokens"]),
            latency_s=float(blob["latency_s"]),
        )

    def put(self, key: str, request: EngineRequest, response: EngineResponse) -> None:
        """Record a transcript; repeated puts for the same key are no-ops."""
        req_path, resp_path = self._paths(key)
        with self._lock:
            if resp_path.exists():
                return
            if not self._made:
                self.root.mkdir(parents=True, exist_ok=True)
                self._made = True
            # constant "model" and "options" for the reason given in transcript_key
            request_blob = {
                "model": "",
                "system": request.system_text,
                "user": request.user_text,
                "temperature": request.temperature,
                "options": [],
                "attachments": _attachment_digests(request),
            }
            response_blob = {
                "text": response.text,
                "input_tokens": response.input_tokens,
                "output_tokens": response.output_tokens,
                "latency_s": response.latency_s,
            }
            for path, blob in ((req_path, request_blob), (resp_path, response_blob)):
                tmp = path.with_suffix(path.suffix + ".tmp")
                tmp.write_text(
                    json.dumps(blob, indent=1, sort_keys=True, ensure_ascii=False),
                    encoding="utf-8",
                )
                tmp.replace(path)


class RecordingEngine:
    """Wraps another engine, persisting every exchange into a transcript store.

    A request already in the store is answered from it without touching the
    inner engine, which also makes interrupted runs resumable at the engine
    level.
    """

    supports_attachments = True

    def __init__(self, inner, store: TranscriptStore):
        self.inner = inner
        self.store = store

    def complete(self, request: EngineRequest) -> EngineResponse:
        key = transcript_key(request)
        cached = self.store.get(key)
        if cached is not None:
            return cached
        response = self.inner.complete(request)
        self.store.put(key, request, response)
        return response


class _NoNetwork:
    """The inner engine of a replay engine: a request the store lacks is a miss."""

    def complete(self, request: EngineRequest) -> EngineResponse:
        raise EngineError(f"no transcript for key {transcript_key(request)}")


class ReplayEngine(RecordingEngine):
    """Serves recorded responses only; any novel request raises an ``EngineError``
    naming its transcript key."""

    def __init__(self, store: TranscriptStore):
        super().__init__(_NoNetwork(), store)


class TokenBucket:
    """Thread-safe token bucket holding up to a second of tokens (at least one);
    acquire() blocks until a token is free."""

    def __init__(self, rate_per_s: float, clock=time.monotonic, sleep=time.sleep):
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_per_s
        self.capacity = max(1.0, rate_per_s)
        self._tokens = self.capacity
        self._stamp = clock()
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self.capacity, self._tokens + (now - self._stamp) * self.rate)
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            self._sleep(wait)


def _post_json(url, payload, headers, timeout):
    """POST ``payload`` as JSON; the reply's status and its body decoded as JSON.

    A body that is not JSON is ``{"error": text}``. A reply that breaks HTTP
    (``http.client.HTTPException``, a bad status line say) raises
    ``ConnectionError``, so the engine retries it like any network failure. A
    redirect is returned, not followed, so ``headers`` (the API key) go to
    ``url``'s host alone. The modules load on the first call: they bring
    ``ssl``, which commands that call nothing never need.
    """
    import http.client
    import urllib.request
    from urllib.error import HTTPError

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None  # the 3xx then raises HTTPError like any other status

    request = urllib.request.Request(
        url, data=json.dumps(payload, allow_nan=False).encode("utf-8"), method="POST",
        headers={**headers, "Content-Type": "application/json"})
    try:
        try:
            with urllib.request.build_opener(NoRedirect).open(request, timeout=timeout) as reply:
                status, raw = reply.status, reply.read()
        except HTTPError as exc:
            with exc:
                status, raw = exc.code, exc.read()
    except http.client.HTTPException as exc:
        raise ConnectionError(f"{type(exc).__name__}: {exc}") from exc
    try:
        return status, json.loads(raw)
    except ValueError:
        return status, {"error": raw.decode("utf-8", errors="replace")}


def _response_from_body(body, latency_s: float) -> EngineResponse:
    """The response a 200 body describes; a malformed body is an ``EngineError``."""
    if isinstance(body, dict):
        text = body.get("text")
        tokens = [body.get("input_tokens", 0), body.get("output_tokens", 0)]
        if isinstance(text, str) and all(type(t) is int and t >= 0 for t in tokens):
            return EngineResponse(text, *tokens, latency_s=latency_s)
    raise EngineError(f"malformed reply body: {body!r:.200}")


class HttpEngine:
    """JSON-over-HTTP engine with exponential-backoff retry.

    Expects the endpoint to accept ``{model, system, user, temperature,
    attachments, options}`` and answer ``{text, input_tokens, output_tokens}``.
    Credentials come from the environment variable ``ALLOYFORGE_<NAME>_API_KEY``
    for the engine's configured name.
    """

    def __init__(
        self,
        endpoint: str,
        model_name: str,
        name: str = "default",
        max_retries: int = 5,
        rate_limit: TokenBucket | None = None,
        transport=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.name = name
        self.max_retries = max_retries
        self.rate_limit = rate_limit
        self._transport = transport or _post_json
        self._sleep = sleep

    @property
    def api_key_env(self) -> str:
        return f"ALLOYFORGE_{self.name.upper()}_API_KEY"

    def _payload(self, request: EngineRequest) -> dict:
        return {
            "model": self.model_name,
            "system": request.system_text,
            "user": request.user_text,
            "temperature": request.temperature,
            "attachments": [dict(digest, bytes=pdf.hex()) for digest, (_, pdf)
                            in zip(_attachment_digests(request), request.attachments)],
            "options": {},
        }

    def complete(self, request: EngineRequest) -> EngineResponse:
        payload = self._payload(request)
        api_key = os.environ.get(self.api_key_env, "")
        headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}

        last_status = None
        for attempt in range(self.max_retries + 1):
            if self.rate_limit is not None:
                self.rate_limit.acquire()
            started = time.monotonic()
            try:
                status, body = self._transport(self.endpoint, payload, headers, TIMEOUT_S)
            except OSError as exc:
                status, body = None, {"error": str(exc)}
            elapsed = time.monotonic() - started
            if status == 200:
                return _response_from_body(body, elapsed)
            error = (str(body.get("error", f"status {status}")) if isinstance(body, dict)
                     else str(body))
            if status in (401, 403):
                raise AuthError(f"{self.endpoint} returned {status} (env {self.api_key_env})")
            if status == 413 or (status == 400 and "context" in error.lower()):
                raise ContextTooLong(error)
            if status not in (None, 408, 429) and not 500 <= status < 600:
                raise EngineError(f"{self.endpoint} returned {status}: {error}")
            last_status = status
            if attempt < self.max_retries:
                self._sleep(min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2**attempt))
        if last_status == 429:
            raise EngineError(f"{self.endpoint} still throttling after {self.max_retries} retries")
        raise EngineError(
            f"{self.endpoint} failed after retries (last status {last_status}): {error}")


# --- configuration ------------------------------------------------------------------


def engine_from_config(cfg, role: str):
    """Build a role's engine from a loaded ``config.Config``: its endpoint, if
    set, behind its transcript store, if set."""
    prefix = f"engine.{role}."
    endpoint, store_dir = cfg[prefix + "endpoint"], cfg[prefix + "transcript_dir"]
    model = cfg[prefix + "model"]
    if not endpoint and not store_dir:
        raise ValueError(f"engine role {role!r} needs {prefix}endpoint or {prefix}transcript_dir")
    if store_dir and model:
        # keys do not name the model, so each model gets a store of its own:
        # percent-encoding is one-to-one and leaves no "/", and the prefix
        # keeps "." and ".." from naming transcript_dir or its parent
        store_dir = Path(store_dir) / ("model=" + quote(model, safe=""))
    if not endpoint:
        return ReplayEngine(TranscriptStore(store_dir))
    rate = cfg[prefix + "rate_limit_per_s"]
    engine = HttpEngine(
        endpoint=endpoint,
        model_name=model,
        name=role,
        max_retries=cfg[prefix + "max_retries"],
        rate_limit=TokenBucket(rate) if rate is not None else None,
    )
    return RecordingEngine(engine, TranscriptStore(store_dir)) if store_dir else engine
