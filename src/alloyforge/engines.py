"""Uniform interface to language-model backends.

Three engine flavors share one ``complete(request)`` surface: a remote HTTP
engine with retry and rate limiting; a replay engine that serves recorded
transcripts byte-for-byte for offline runs; and a recording wrapper that
captures any engine's traffic into a transcript store. Forward, backward, and
evaluator roles are just separately configured handles. How many calls are in
flight is up to the caller (``pipeline.run_documents``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path


class EngineError(Exception):
    pass


class AuthError(EngineError):
    pass


class RateLimited(EngineError):
    """Retries were exhausted while the backend kept throttling."""


class ContextTooLong(EngineError):
    """The document cannot fit the engine context; callers reject the document."""


class ReplayMiss(EngineError):
    """The replay store has no transcript for this request."""


class UnknownModel(KeyError):
    pass


@dataclass(frozen=True)
class EngineRequest:
    system_text: str
    user_text: str
    attachments: tuple = ()        # ((DocumentId, bytes | str), ...)
    temperature: float = 0.0
    model_name: str = ""
    options: tuple = ()            # opaque engine options, ((key, value), ...)

    def __post_init__(self):
        object.__setattr__(
            self, "attachments", tuple((doc, content) for doc, content in self.attachments)
        )
        options = self.options.items() if isinstance(self.options, dict) else self.options
        object.__setattr__(self, "options", tuple(sorted(tuple(pair) for pair in options)))
        if not self.user_text:
            raise ValueError("user_text must be non-empty")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        ids = [doc.id for doc, _ in self.attachments]
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


def _content_digest(content) -> str:
    data = content.encode("utf-8") if isinstance(content, str) else bytes(content)
    return hashlib.sha256(data).hexdigest()


def transcript_key(request: EngineRequest) -> str:
    """Content hash of the canonicalized request.

    Insensitive to attachment ordering and to whitespace-only differences in
    the user text, so trivially reformatted requests replay the same entry.
    """
    attachments = sorted(
        (
            {"id": doc.id, "kind": doc.kind, "sha256": _content_digest(content)}
            for doc, content in request.attachments
        ),
        key=lambda a: a["id"],
    )
    canonical = {
        "model": request.model_name,
        "system": request.system_text,
        "user": _normalize_whitespace(request.user_text),
        "temperature": repr(float(request.temperature)),
        "options": list(request.options),
        "attachments": attachments,
    }
    blob = json.dumps(canonical, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TranscriptStore:
    """Directory of <key>.request / <key>.response files, UTF-8, write-once."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

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
            request_blob = {
                "model": request.model_name,
                "system": request.system_text,
                "user": request.user_text,
                "temperature": request.temperature,
                "options": list(request.options),
                "attachments": [
                    {"id": doc.id, "kind": doc.kind, "sha256": _content_digest(content)}
                    for doc, content in request.attachments
                ],
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


class ReplayEngine:
    """Serves recorded responses only; any novel request is a ReplayMiss."""

    supports_attachments = True

    def __init__(self, store: TranscriptStore | str):
        self.store = store if isinstance(store, TranscriptStore) else TranscriptStore(store)

    def complete(self, request: EngineRequest) -> EngineResponse:
        key = transcript_key(request)
        response = self.store.get(key)
        if response is None:
            raise ReplayMiss(f"no transcript for key {key}")
        return response


class RecordingEngine:
    """Wraps another engine, persisting every exchange into a transcript store.

    A request already in the store is answered from it without touching the
    inner engine, which also makes interrupted runs resumable at the engine
    level.
    """

    supports_attachments = True

    def __init__(self, inner, store: TranscriptStore | str):
        self.inner = inner
        self.store = store if isinstance(store, TranscriptStore) else TranscriptStore(store)

    def complete(self, request: EngineRequest) -> EngineResponse:
        key = transcript_key(request)
        cached = self.store.get(key)
        if cached is not None:
            return cached
        response = self.inner.complete(request)
        self.store.put(key, request, response)
        return response


class TokenBucket:
    """Simple thread-safe token bucket; acquire() blocks until a token is free."""

    def __init__(self, rate_per_s: float, capacity: float | None = None,
                 clock=time.monotonic, sleep=time.sleep):
        if rate_per_s <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate_per_s
        self.capacity = capacity if capacity is not None else max(1.0, rate_per_s)
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


def _requests_transport(url, payload, headers, timeout):
    import requests

    reply = requests.post(url, json=payload, headers=headers, timeout=timeout)
    try:
        body = reply.json()
    except ValueError:
        body = {"error": reply.text}
    return reply.status_code, body


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
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        timeout_s: float = 120.0,
        rate_limit: TokenBucket | None = None,
        max_context_chars: int | None = None,
        transport=None,
        sleep=time.sleep,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.name = name
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.timeout_s = timeout_s
        self.rate_limit = rate_limit
        self.max_context_chars = max_context_chars
        self._transport = transport or _requests_transport
        self._sleep = sleep

    @property
    def api_key_env(self) -> str:
        return f"ALLOYFORGE_{self.name.upper()}_API_KEY"

    def _payload(self, request: EngineRequest) -> dict:
        attachments = []
        for doc, content in request.attachments:
            entry = {"id": doc.id, "kind": doc.kind}
            if isinstance(content, str):
                entry["text"] = content
            else:
                entry["sha256"] = _content_digest(content)
                entry["bytes"] = content.hex()
            attachments.append(entry)
        return {
            "model": request.model_name or self.model_name,
            "system": request.system_text,
            "user": request.user_text,
            "temperature": request.temperature,
            "attachments": attachments,
            "options": dict(request.options),
        }

    def complete(self, request: EngineRequest) -> EngineResponse:
        size = len(request.user_text) + sum(
            len(c) for _, c in request.attachments
        )
        if self.max_context_chars is not None and size > self.max_context_chars:
            raise ContextTooLong(
                f"request of {size} chars exceeds limit {self.max_context_chars}"
            )
        api_key = os.environ.get(self.api_key_env, "")
        headers = {"Authorization": f"Bearer {api_key}"} if api_key else {}
        payload = self._payload(request)

        last_status = None
        for attempt in range(self.max_retries + 1):
            if self.rate_limit is not None:
                self.rate_limit.acquire()
            started = time.monotonic()
            try:
                status, body = self._transport(self.endpoint, payload, headers, self.timeout_s)
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
                self._sleep(min(self.backoff_cap_s, self.backoff_base_s * 2**attempt))
        if last_status == 429:
            raise RateLimited(f"{self.endpoint} still throttling after {self.max_retries} retries")
        raise EngineError(f"{self.endpoint} failed after retries (last status {last_status})")


# --- cost accounting ---------------------------------------------------------------


@dataclass(frozen=True)
class PriceTable:
    prices: dict[str, tuple[float, float]]  # model -> (input $/token, output $/token)

    def __post_init__(self):
        for model, (p_in, p_out) in self.prices.items():
            if p_in < 0 or p_out < 0:
                raise ValueError(f"negative price for {model!r}")

    @classmethod
    def from_csv(cls, path) -> "PriceTable":
        prices = {}
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            needed = {"model", "input_price_per_token", "output_price_per_token"}
            if not needed.issubset(reader.fieldnames or []):
                raise ValueError(f"{path}: price table needs columns {sorted(needed)}")
            for row in reader:
                prices[row["model"].strip()] = (
                    float(row["input_price_per_token"]),
                    float(row["output_price_per_token"]),
                )
        return cls(prices)


def cost_of(responses: list[EngineResponse], prices: PriceTable, model: str) -> float:
    """Total USD cost of a list of responses under a model's token prices."""
    if model not in prices.prices:
        raise UnknownModel(model)
    p_in, p_out = prices.prices[model]
    return sum(r.input_tokens * p_in + r.output_tokens * p_out for r in responses)


# --- configuration ------------------------------------------------------------------


def engine_from_config(cfg, role: str):
    """Build an engine handle for a role from a loaded ``config.Config``."""
    prefix = f"engine.{role}."
    kind, store_dir = cfg[prefix + "kind"], cfg[prefix + "transcript_dir"]
    record = cfg[prefix + "record"]
    if kind not in ("http", "replay"):
        raise ValueError(f"unknown engine kind {kind!r} for role {role!r}")
    if (kind == "replay" or record) and not store_dir:
        raise ValueError(f"{prefix}transcript_dir is required to replay or record")
    if kind == "replay":
        return ReplayEngine(TranscriptStore(store_dir))
    rate = cfg[prefix + "rate_limit_per_s"]
    engine = HttpEngine(
        endpoint=cfg[prefix + "endpoint"],
        model_name=cfg[prefix + "model"],
        name=role,
        max_retries=cfg[prefix + "max_retries"],
        rate_limit=TokenBucket(rate) if rate is not None else None,
        max_context_chars=cfg[prefix + "max_context_chars"],
    )
    return RecordingEngine(engine, TranscriptStore(store_dir)) if record else engine
