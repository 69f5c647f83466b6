import hashlib
import json
import math
import threading
from pathlib import Path

import pytest

from alloyforge import engines
from alloyforge.config import Config, load_config
from alloyforge.engines import (
    AuthError,
    ContextTooLong,
    EngineError,
    EngineRequest,
    EngineResponse,
    HttpEngine,
    RecordingEngine,
    ReplayEngine,
    TokenBucket,
    TranscriptStore,
    engine_from_config,
    transcript_key,
)


def req(user="extract the data", **kw):
    return EngineRequest(system_text="system", user_text=user, **kw)


class TestEngineRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineRequest(system_text="s", user_text="")
        with pytest.raises(ValueError):
            EngineRequest(system_text="s", user_text="u", temperature=-1)
        with pytest.raises(ValueError, match="finite and nonnegative, got inf"):
            EngineRequest(system_text="s", user_text="u", temperature=math.inf)
        with pytest.raises(ValueError):
            EngineRequest(system_text="s", user_text="u",
                          attachments=(("a", b"x"), ("a", b"y")))

    def test_response_validation(self):
        with pytest.raises(ValueError):
            EngineResponse(text="t", input_tokens=-1)


class TestTranscriptKey:
    def test_attachment_order_insensitive(self):
        a = ("a", b"alpha")
        b = ("b", b"beta")
        assert transcript_key(req(attachments=(a, b))) == transcript_key(
            req(attachments=(b, a))
        )

    def test_whitespace_insensitive_user_text(self):
        assert transcript_key(req("hello   world\n")) == transcript_key(req(" hello world"))

    def test_sensitive_to_content(self):
        assert transcript_key(req("one")) != transcript_key(req("two"))
        assert transcript_key(req(temperature=0.0)) != transcript_key(req(temperature=1.0))
        a = ("a", b"alpha")
        a2 = ("a", b"ALPHA")
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
        key = transcript_key(req("never seen"))
        with pytest.raises(EngineError, match=f"no transcript for key {key}"):
            engine.complete(req("never seen"))

    def test_recording_is_idempotent(self, tmp_path):
        store = TranscriptStore(tmp_path)
        key = transcript_key(req())
        store.put(key, req(), EngineResponse(text="first"))
        store.put(key, req(), EngineResponse(text="second"))
        assert len(list(tmp_path.glob("*.response"))) == 1
        assert store.get(key).text == "first"

    def test_a_store_makes_its_directory_once_and_only_to_record(self, tmp_path, monkeypatch):
        made = []
        mkdir = Path.mkdir

        def counting_mkdir(path, *args, **kwargs):
            made.append(path)
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        store = TranscriptStore(tmp_path / "store")
        with pytest.raises(EngineError, match="no transcript for key"):
            ReplayEngine(store).complete(req("never seen"))
        assert made == [] and not (tmp_path / "store").exists()
        for text in ("one", "two", "three"):
            store.put(transcript_key(req(text)), req(text), EngineResponse(text=text))
        assert made == [tmp_path / "store"]
        assert len(list((tmp_path / "store").glob("*.response"))) == 3

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
        self.payloads = []

    def __call__(self, url, payload, headers, timeout):
        self.calls += 1
        self.payloads.append(payload)
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
        with pytest.raises(EngineError, match="still throttling after 2 retries"):
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

    def test_oversized_attachment(self):
        # only the provider says what fits its context: a 1 MB PDF is sent,
        # and the 413 it draws is not retried
        engine, transport = http_engine([(413, {"error": "too large"}), (200, OK)])
        pdf = b"\xff" * 1_000_000
        with pytest.raises(ContextTooLong, match="too large"):
            engine.complete(req(attachments=(("big", pdf),)))
        assert transport.calls == 1
        assert transport.payloads[0]["attachments"][0]["bytes"] == pdf.hex()

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
        ([(429, {"error": "slow down"})] * 3, EngineError, 3),
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
            if isinstance(script[-1], OSError):
                # retries ran out: the error keeps the last failure's cause
                assert str(script[-1]) in str(info.value)
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
        engine.complete(req(attachments=(("doc", b"\x00\x01"),)))
        assert captured["model"] == "default-model"
        assert captured["options"] == {}
        assert captured["attachments"] == [{
            "id": "doc", "kind": "pdf",
            "sha256": hashlib.sha256(b"\x00\x01").hexdigest(), "bytes": "0001",
        }]


class TestTokenBucket:
    def test_blocks_when_drained(self):
        now = [0.0]
        sleeps = []

        def clock():
            return now[0]

        def sleep(duration):
            sleeps.append(duration)
            now[0] += duration

        bucket = TokenBucket(rate_per_s=1.0, clock=clock, sleep=sleep)
        bucket.acquire()
        bucket.acquire()
        assert sleeps and sleeps[0] == pytest.approx(1.0)

    def test_thread_safety_smoke(self):
        bucket = TokenBucket(rate_per_s=10000.0)
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


def loaded(tmp_path, pairs):
    """Write ``pairs`` as a config file and load it through the key table."""
    path = tmp_path / "engine.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in pairs.items()),
                    encoding="utf-8")
    return load_config(path)


def _no_network(url, payload, headers, timeout):
    raise AssertionError(f"a role without an endpoint reached {url}")


class TestEngineFromConfig:
    # the engine follows from what a role names: an endpoint, a transcript
    # store, both, or neither (an error)

    def test_replay(self, tmp_path, monkeypatch):
        monkeypatch.setattr(engines, "_post_json", _no_network)
        cfg = loaded(tmp_path, {"engine.forward.transcript_dir": str(tmp_path / "store")})
        engine = engine_from_config(cfg, "forward")
        with pytest.raises(EngineError, match=f"no transcript for key {transcript_key(req())}"):
            engine.complete(req())
        # a miss records nothing, so the store's directory is never created
        assert not (tmp_path / "store").exists()
        assert isinstance(engine, ReplayEngine)

    def test_http_with_recording(self, tmp_path):
        cfg = loaded(tmp_path, {
            "engine.forward.endpoint": "http://fake",
            "engine.forward.model": "m",
            "engine.forward.transcript_dir": str(tmp_path),
        })
        engine = engine_from_config(cfg, "forward")
        assert type(engine) is RecordingEngine
        assert isinstance(engine.inner, HttpEngine)
        assert engine.inner.endpoint == "http://fake"

    def test_http_alone(self, tmp_path):
        cfg = loaded(tmp_path, {"engine.forward.endpoint": "https://llm.example/v1",
                                "engine.forward.max_retries": "2"})
        engine = engine_from_config(cfg, "forward")
        assert isinstance(engine, HttpEngine)
        assert (engine.endpoint, engine.max_retries, engine.name) == \
            ("https://llm.example/v1", 2, "forward")

    def test_a_role_with_neither_endpoint_nor_store_is_an_error(self, tmp_path):
        # network settings alone name no engine
        cfg = loaded(tmp_path, {"engine.critic.model": "m", "engine.critic.max_retries": "1"})
        with pytest.raises(ValueError, match="'critic' needs engine.critic.endpoint "
                                             "or engine.critic.transcript_dir"):
            engine_from_config(cfg, "critic")
        with pytest.raises(ValueError, match="'forward'"):
            engine_from_config(Config(), "forward")

    # "replay" is a role with no endpoint, "http" a role with one
    @pytest.mark.parametrize("endpoint", [None, "http://fake"], ids=["replay", "http"])
    def test_without_a_model_the_store_is_transcript_dir(self, tmp_path, monkeypatch, endpoint):
        monkeypatch.setattr(engines, "_post_json", _no_network)
        # a store recorded before stores were kept per model replays unchanged
        RecordingEngine(_StaticEngine("recorded"), TranscriptStore(tmp_path)).complete(req())
        cfg = Config({"engine.forward.endpoint": endpoint,
                      "engine.forward.transcript_dir": str(tmp_path)})
        engine = engine_from_config(cfg, "forward")
        assert engine.store.root == tmp_path
        assert engine.complete(req()).text == "recorded"

    @pytest.mark.parametrize("endpoint", [None, "http://fake"], ids=["replay", "http"])
    def test_with_a_model_the_store_is_its_subdirectory(self, tmp_path, monkeypatch, endpoint):
        monkeypatch.setattr(engines, "_post_json",
                            lambda url, payload, headers, timeout: (200, {"text": "answered"}))
        cfg = Config({"engine.forward.endpoint": endpoint,
                      "engine.forward.model": "claude-3.5-sonnet",
                      "engine.forward.transcript_dir": str(tmp_path)})
        engine = engine_from_config(cfg, "forward")
        root = tmp_path / "model=claude-3.5-sonnet"
        assert engine.store.root == root
        # the directory is created by the first recorded transcript
        assert not root.exists()
        if endpoint is None:
            RecordingEngine(_StaticEngine("answered"), engine.store).complete(req())
        else:
            engine.complete(req())
        assert sorted(path.suffix for path in root.iterdir()) == [".request", ".response"]
        assert engine.complete(req()).text == "answered"

    def test_model_stores_stay_inside_and_are_never_shared(self, tmp_path):
        models = ["..", ".", "../up", "a/b", "a_b", "a%2Fb", "a%252Fb", "/abs", "a b",
                  "model=x", "x", "gemini-2.5-flash", "ünï"]
        roots = []
        for model in models:
            cfg = Config({"engine.forward.model": model,
                          "engine.forward.transcript_dir": str(tmp_path)})
            engine = engine_from_config(cfg, "forward")
            engine.store.put(transcript_key(req()), req(), EngineResponse(text=model))
            assert engine.complete(req()).text == model
            root = engine.store.root
            assert root.resolve().parent == tmp_path.resolve(), model
            roots.append(root.resolve())
        assert len(set(roots)) == len(models)
        assert sorted(path.resolve() for path in tmp_path.iterdir()) == sorted(roots)

    def test_a_model_never_answers_from_another_models_store(self, tmp_path, monkeypatch):
        calls = []

        def transport(url, payload, headers, timeout):
            calls.append(payload["model"])
            return 200, {"text": f"answer from {payload['model']}"}

        monkeypatch.setattr(engines, "_post_json", transport)

        def engine_for(model):
            return engine_from_config(Config({
                "engine.forward.endpoint": "http://fake", "engine.forward.model": model,
                "engine.forward.transcript_dir": str(tmp_path),
            }), "forward")

        assert engine_for("model-A").complete(req()).text == "answer from model-A"
        assert engine_for("model-B").complete(req()).text == "answer from model-B"
        assert engine_for("model-A").complete(req()).text == "answer from model-A"
        assert calls == ["model-A", "model-B"]
