import json
import threading

import pytest

from alloyforge.config import load_config
from alloyforge.engines import (
    AuthError,
    ContextTooLong,
    EngineError,
    EngineRequest,
    EngineResponse,
    HttpEngine,
    PriceTable,
    RateLimited,
    RecordingEngine,
    ReplayEngine,
    ReplayMiss,
    TokenBucket,
    TranscriptStore,
    UnknownModel,
    cost_of,
    engine_from_config,
    transcript_key,
)
from alloyforge.records import DocumentId


def req(user="extract the data", **kw):
    return EngineRequest(system_text="system", user_text=user, **kw)


class TestEngineRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineRequest(system_text="s", user_text="")
        with pytest.raises(ValueError):
            EngineRequest(system_text="s", user_text="u", temperature=-1)
        doc = DocumentId("a")
        with pytest.raises(ValueError):
            EngineRequest(system_text="s", user_text="u",
                          attachments=((doc, "x"), (doc, "y")))

    def test_response_validation(self):
        with pytest.raises(ValueError):
            EngineResponse(text="t", input_tokens=-1)


class TestTranscriptKey:
    def test_attachment_order_insensitive(self):
        a = (DocumentId("a"), "alpha")
        b = (DocumentId("b"), b"beta")
        assert transcript_key(req(attachments=(a, b))) == transcript_key(
            req(attachments=(b, a))
        )

    def test_whitespace_insensitive_user_text(self):
        assert transcript_key(req("hello   world\n")) == transcript_key(req(" hello world"))

    def test_sensitive_to_content(self):
        assert transcript_key(req("one")) != transcript_key(req("two"))
        assert transcript_key(req(temperature=0.0)) != transcript_key(req(temperature=1.0))
        assert transcript_key(req(model_name="m1")) != transcript_key(req(model_name="m2"))
        a = (DocumentId("a"), "alpha")
        a2 = (DocumentId("a"), "ALPHA")
        assert transcript_key(req(attachments=(a,))) != transcript_key(req(attachments=(a2,)))


class _StaticEngine:
    def __init__(self, text="pong"):
        self.text = text
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        return EngineResponse(text=self.text, input_tokens=10, output_tokens=5)


class TestReplayAndRecording:
    def test_record_then_replay_bitwise(self, tmp_path):
        store = TranscriptStore(tmp_path)
        recorder = RecordingEngine(_StaticEngine("the completion"), store)
        request = req()
        recorded = recorder.complete(request)
        replayed = ReplayEngine(store).complete(request)
        assert replayed == recorded

    def test_replay_miss(self, tmp_path):
        engine = ReplayEngine(TranscriptStore(tmp_path))
        with pytest.raises(ReplayMiss):
            engine.complete(req("never seen"))

    def test_recording_is_idempotent(self, tmp_path):
        store = TranscriptStore(tmp_path)
        key = transcript_key(req())
        store.put(key, req(), EngineResponse(text="first"))
        store.put(key, req(), EngineResponse(text="second"))
        assert len(list(tmp_path.glob("*.response"))) == 1
        assert store.get(key).text == "first"

    def test_reuse_cached_skips_inner(self, tmp_path):
        store = TranscriptStore(tmp_path)
        inner = _StaticEngine()
        recorder = RecordingEngine(inner, store)
        recorder.complete(req())
        recorder.complete(req())
        assert inner.calls == 1

    def test_load_transcript(self, tmp_path):
        store = TranscriptStore(tmp_path)
        request = req("inspect me")
        RecordingEngine(_StaticEngine("answer"), store).complete(request)
        key = transcript_key(request)
        request_blob, response_blob = (
            json.loads((tmp_path / f"{key}.{suffix}").read_text(encoding="utf-8"))
            for suffix in ("request", "response")
        )
        assert response_blob["text"] == "answer"
        assert request_blob["user"] == "inspect me"
        assert store.get("0" * 64) is None


class _FakeTransport:
    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def __call__(self, url, payload, headers, timeout):
        self.calls += 1
        step = self.script.pop(0) if self.script else self.script_exhausted()
        if isinstance(step, OSError):
            raise step
        return step

    @staticmethod
    def script_exhausted():
        raise AssertionError("transport called more times than scripted")


OK = {"text": "ok", "input_tokens": 1, "output_tokens": 1}


def http_engine(script, sleep=lambda s: None, **kw):
    transport = _FakeTransport(script)
    engine = HttpEngine(
        endpoint="http://fake/v1", model_name="m", transport=transport,
        sleep=sleep, **kw,
    )
    return engine, transport


class TestHttpEngine:
    def test_success(self):
        engine, _ = http_engine(
            [(200, {"text": "ok", "input_tokens": 7, "output_tokens": 3})]
        )
        response = engine.complete(req())
        assert (response.text, response.input_tokens, response.output_tokens) == ("ok", 7, 3)

    def test_auth_error(self):
        engine, _ = http_engine([(401, {"error": "bad key"})])
        with pytest.raises(AuthError):
            engine.complete(req())

    def test_retry_then_success(self):
        engine, transport = http_engine(
            [(429, {"error": "slow down"}), (500, {"error": "oops"}),
             (200, {"text": "ok", "input_tokens": 1, "output_tokens": 1})]
        )
        assert engine.complete(req()).text == "ok"
        assert transport.calls == 3

    def test_rate_limited_after_exhaustion(self):
        engine, _ = http_engine([(429, {"error": "slow"})] * 3, max_retries=2)
        with pytest.raises(RateLimited):
            engine.complete(req())

    def test_context_too_long_status(self):
        engine, _ = http_engine([(413, {"error": "too large"})])
        with pytest.raises(ContextTooLong):
            engine.complete(req())

    def test_context_length_error_on_400(self):
        engine, transport = http_engine(
            [(400, {"error": "This model's maximum context length is 8192 tokens"})])
        with pytest.raises(ContextTooLong):
            engine.complete(req())
        assert transport.calls == 1

    def test_context_deadline_is_retried(self):
        engine, transport = http_engine(
            [(503, {"error": "upstream context deadline exceeded"})] * 2
            + [(200, {"text": "ok", "input_tokens": 1, "output_tokens": 1})]
        )
        assert engine.complete(req()).text == "ok"
        assert transport.calls == 3

    def test_transport_error_mentioning_context_is_retried(self):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(url)
            if len(calls) == 1:
                raise OSError("connection reset: context canceled")
            return 200, {"text": "ok", "input_tokens": 1, "output_tokens": 1}

        engine = HttpEngine(endpoint="http://fake/v1", model_name="m", transport=transport,
                            sleep=lambda s: None)
        assert engine.complete(req()).text == "ok"
        assert len(calls) == 2

    def test_context_guard(self):
        engine, transport = http_engine([], max_context_chars=10)
        with pytest.raises(ContextTooLong):
            engine.complete(req("x" * 50))
        assert transport.calls == 0

    def test_oversized_attachment(self):
        engine, _ = http_engine([], max_context_chars=100)
        attachment = (DocumentId("big", "pdf"), b"0" * 500)
        with pytest.raises(ContextTooLong):
            engine.complete(req(attachments=(attachment,)))

    def test_generic_failure(self):
        engine, _ = http_engine([(500, {"error": "boom"})] * 2, max_retries=1)
        with pytest.raises(EngineError):
            engine.complete(req())

    @pytest.mark.parametrize("script, expected, calls", [
        ([(200, OK)], None, 1),
        ([(401, {"error": "bad key"})], AuthError, 1),
        ([(403, {"error": "forbidden"})], AuthError, 1),
        ([(413, {"error": "too large"})], ContextTooLong, 1),
        ([(400, {"error": "maximum context length exceeded"})], ContextTooLong, 1),
        ([(400, {"error": "malformed payload"})], EngineError, 1),
        ([(404, {"error": "no such model"})], EngineError, 1),
        ([(422, {"error": "unprocessable"})], EngineError, 1),
        ([(302, {})], EngineError, 1),
        ([(408, {"error": "timeout"})] * 2 + [(200, OK)], None, 3),
        ([(408, {"error": "timeout"})] * 3, EngineError, 3),
        ([(429, {"error": "slow down"})] * 3, RateLimited, 3),
        ([(500, {"error": "boom"}), (502, {}), (599, {})], EngineError, 3),
        ([(503, {"error": "busy"}), (200, OK)], None, 2),
        ([OSError("connection reset")] * 3, EngineError, 3),
        ([OSError("connection reset"), (200, OK)], None, 2),
        ([(200, ["ok"])], EngineError, 1),
        ([(200, "ok")], EngineError, 1),
        ([(200, {"text": None})], EngineError, 1),
        ([(200, {"input_tokens": 1})], EngineError, 1),
        ([(200, {"text": "ok", "input_tokens": "n/a"})], EngineError, 1),
        ([(200, {"text": "ok", "output_tokens": -1})], EngineError, 1),
        ([(503, ["busy"]), (200, OK)], None, 2),
        ([(503, "busy")] * 3, EngineError, 3),
        ([(400, "maximum context length exceeded")], ContextTooLong, 1),
        ([(401, ["denied"])], AuthError, 1),
        ([(404, "not found")], EngineError, 1),
    ])
    def test_status_table(self, script, expected, calls):
        sleeps = []
        engine, transport = http_engine(script, sleep=sleeps.append, max_retries=2)
        if expected is None:
            assert engine.complete(req()).text == "ok"
        else:
            with pytest.raises(EngineError) as info:
                engine.complete(req())
            assert type(info.value) is expected
        assert transport.calls == calls
        assert sleeps == [0.5, 1.0][:calls - 1]

    def test_api_key_env_name(self):
        engine, _ = http_engine([], )
        assert engine.api_key_env == "ALLOYFORGE_DEFAULT_API_KEY"
        engine2 = HttpEngine(endpoint="e", model_name="m", name="forward")
        assert engine2.api_key_env == "ALLOYFORGE_FORWARD_API_KEY"

    def test_payload_shape(self):
        captured = {}

        def transport(url, payload, headers, timeout):
            captured.update(payload)
            return 200, {"text": "ok", "input_tokens": 1, "output_tokens": 1}

        engine = HttpEngine(endpoint="http://fake", model_name="default-model",
                            transport=transport, sleep=lambda s: None)
        request = req(
            attachments=((DocumentId("doc", "pdf"), b"\x00\x01"),
                         (DocumentId("txt"), "inline text")),
            options={"reasoning_budget": "1024"},
        )
        engine.complete(request)
        assert captured["model"] == "default-model"  # request had no model override
        assert captured["options"] == {"reasoning_budget": "1024"}
        by_id = {a["id"]: a for a in captured["attachments"]}
        assert by_id["doc"]["bytes"] == "0001" and "sha256" in by_id["doc"]
        assert by_id["txt"]["text"] == "inline text"


class TestTokenBucket:
    def test_blocks_when_drained(self):
        now = [0.0]
        sleeps = []

        def clock():
            return now[0]

        def sleep(duration):
            sleeps.append(duration)
            now[0] += duration

        bucket = TokenBucket(rate_per_s=2.0, capacity=1.0, clock=clock, sleep=sleep)
        bucket.acquire()
        bucket.acquire()
        assert sleeps and sleeps[0] == pytest.approx(0.5)

    def test_thread_safety_smoke(self):
        bucket = TokenBucket(rate_per_s=10000.0, capacity=10000.0)
        taken = []

        def worker():
            for _ in range(100):
                bucket.acquire()
                taken.append(1)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(taken) == 400


class TestCosts:
    def test_cost_of(self):
        prices = PriceTable({"m": (3e-6, 15e-6)})
        responses = [EngineResponse(text="", input_tokens=1000, output_tokens=500)]
        assert cost_of(responses, prices, "m") == pytest.approx(0.0105)
        assert cost_of([], prices, "m") == 0.0

    def test_unknown_model(self):
        with pytest.raises(UnknownModel):
            cost_of([], PriceTable({}), "nope")

    def test_price_table_csv(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text(
            "model,input_price_per_token,output_price_per_token\nm,3e-6,15e-6\n",
            encoding="utf-8",
        )
        table = PriceTable.from_csv(path)
        assert table.prices["m"] == (3e-6, 15e-6)


def loaded(tmp_path, pairs):
    """Write ``pairs`` as a config file and load it through the key table."""
    path = tmp_path / "engine.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()),
                    encoding="utf-8")
    return load_config(path)


class TestEngineFromConfig:
    def test_replay(self, tmp_path):
        cfg = loaded(tmp_path, {"engine.forward.kind": "replay",
                                "engine.forward.transcript_dir": str(tmp_path)})
        assert isinstance(engine_from_config(cfg, "forward"), ReplayEngine)

    def test_http_with_recording(self, tmp_path):
        cfg = loaded(tmp_path, {
            "engine.forward.kind": "http",
            "engine.forward.endpoint": "http://fake",
            "engine.forward.model": "m",
            "engine.forward.record": "true",
            "engine.forward.transcript_dir": str(tmp_path),
        })
        engine = engine_from_config(cfg, "forward")
        assert isinstance(engine, RecordingEngine)
        assert isinstance(engine.inner, HttpEngine)

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            engine_from_config(loaded(tmp_path, {"engine.x.kind": "carrier-pigeon"}), "x")
