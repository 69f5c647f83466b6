import re
import time

import pytest

from alloyforge.engines import (
    AuthError,
    EngineError,
    EngineResponse,
    RecordingEngine,
    ReplayEngine,
    TranscriptStore,
)
from alloyforge.optimizer import (
    ALIGNED,
    MISALIGNED,
    Feedback,
    OptimizationConfig,
    Prompt,
    backward_update,
    default_evaluation_template,
    extraction_loss,
    forward_extract,
    optimize,
)
from alloyforge.pipeline import CorpusMiss
from alloyforge.records import serialize_record_set

from tests.scripted import (
    INITIAL_PROMPT_TEXT,
    MARKERS,
    ScriptedBackwardEngine,
    ScriptedEvaluatorEngine,
    ScriptedForwardEngine,
    marker_count,
)


def scripted_config(truth_by_doc, **overrides):
    return OptimizationConfig(
        forward_engine=ScriptedForwardEngine(truth_by_doc),
        backward_engine=ScriptedBackwardEngine(),
        evaluator_engine=ScriptedEvaluatorEngine(),
        **overrides,
    )


class TestForwardExtract:
    def test_initial_prompt_reveals_threshold_zero(self, corpus7, truth_by_doc):
        engine = ScriptedForwardEngine(truth_by_doc)
        records = forward_extract(Prompt(INITIAL_PROMPT_TEXT), "d01", engine, corpus7)
        assert records == truth_by_doc["d01"][:1]

    def test_full_prompt_reveals_everything_below_cap(self, corpus7, truth_by_doc):
        engine = ScriptedForwardEngine(truth_by_doc)
        loaded_prompt = Prompt(INITIAL_PROMPT_TEXT + "\n" + "\n".join(MARKERS))
        records = forward_extract(loaded_prompt, "d03", engine, corpus7)
        assert records == truth_by_doc["d03"][:2]  # threshold-99 row never appears

    def test_rejection_sentinel_empty(self, corpus8, truth_by_doc):
        engine = ScriptedForwardEngine(truth_by_doc)
        assert forward_extract(Prompt(INITIAL_PROMPT_TEXT), "d08", engine, corpus8) == []

    def test_missing_doc(self, corpus7, truth_by_doc):
        engine = ScriptedForwardEngine(truth_by_doc)
        with pytest.raises(CorpusMiss):
            forward_extract(Prompt(INITIAL_PROMPT_TEXT), "nope", engine, corpus7)


class TestExtractionLoss:
    def test_aligned_when_identical(self, corpus7, truth_by_doc):
        feedback = extraction_loss(
            Prompt("p"), "d01", truth_by_doc["d01"], truth_by_doc["d01"],
            ScriptedEvaluatorEngine(), corpus7,
        )
        assert feedback.verdict == ALIGNED
        assert feedback.prompt_version == 0

    def test_misaligned_names_missing_entries(self, corpus7, truth_by_doc):
        truth = truth_by_doc["d01"]
        feedback = extraction_loss(
            Prompt("p"), "d01", truth, truth[:1], ScriptedEvaluatorEngine(), corpus7
        )
        assert feedback.verdict == MISALIGNED
        assert "Missing entry" in feedback.text
        assert "HfNbTiZr" in feedback.text

    def test_unparseable_verdict_is_misaligned(self, corpus7, truth_by_doc):
        class MumblingEvaluator:
            def complete(self, request):
                return EngineResponse(text="It is complicated.")

        feedback = extraction_loss(
            Prompt("p"), "d01", truth_by_doc["d01"], [], MumblingEvaluator(), corpus7
        )
        assert feedback.verdict == MISALIGNED
        assert not feedback.verdict_parsed

    def test_template_embeds_all_four_inputs(self, corpus7, truth_by_doc):
        captured = {}

        class CapturingEvaluator:
            def complete(self, request):
                captured["text"] = request.user_text
                return EngineResponse(text="VERDICT: ALIGNED")

        prompt = Prompt("THE PROMPT TEXT")
        truth = truth_by_doc["d02"]
        extraction_loss(prompt, "d02", truth, truth, CapturingEvaluator(), corpus7)
        body = captured["text"]
        assert "THE PROMPT TEXT" in body
        assert "MoNbTaW" in body                      # document text
        assert serialize_record_set(truth) in body    # expert block
        assert default_evaluation_template().split("<<PROMPT>>")[0].strip() in body


class TestBackwardUpdate:
    def test_rewrite_appends_rule(self):
        prompt = Prompt(INITIAL_PROMPT_TEXT)
        feedback = Feedback(text="Missing entries.", doc="d01",
                            prompt_version=0, verdict=MISALIGNED)
        engine = ScriptedBackwardEngine()
        updated = backward_update(prompt, [feedback], engine)
        assert updated.version == 1 and updated.parent_version == 0
        assert marker_count(updated.text) == 1
        assert engine.calls == 1

    def test_all_aligned_skips_engine(self):
        prompt = Prompt(INITIAL_PROMPT_TEXT)
        feedback = Feedback(text="All good.", doc="d01", prompt_version=0, verdict=ALIGNED)
        engine = ScriptedBackwardEngine()
        updated = backward_update(prompt, [feedback], engine)
        assert updated.text == prompt.text
        assert updated.version == 1
        assert engine.calls == 0

    def test_empty_feedback_rejected(self):
        with pytest.raises(ValueError):
            backward_update(Prompt("p"), [], ScriptedBackwardEngine())

    def test_stale_feedback_rejected(self):
        feedback = Feedback(text="x", doc="d01", prompt_version=3, verdict=MISALIGNED)
        with pytest.raises(ValueError):
            backward_update(Prompt("p"), [feedback], ScriptedBackwardEngine())


class TestPromptLineage:
    def test_version_chain_validation(self):
        with pytest.raises(ValueError):
            Prompt("p", version=0, parent_version=0)
        with pytest.raises(ValueError):
            Prompt("p", version=2, parent_version=0)


class TestOptimize:
    def test_budget_lineage_and_trajectory(self, corpus7, truth_by_doc):
        config = scripted_config(truth_by_doc)
        history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, config)

        assert history.forward_calls == 21                    # 3 epochs x 7 documents
        assert config.forward_engine.calls == 21
        assert history.backward_engine_calls <= 9
        assert len(history.prompts) == 10                     # initial + 9 updates
        versions = [p.version for p in history.prompts]
        assert versions == list(range(10))
        for prompt in history.prompts[1:]:
            assert prompt.parent_version == prompt.version - 1
        assert [p.epoch for p in history.prompts] == [0] + [1] * 3 + [2] * 3 + [3] * 3

        recalls = history.recalls("nominal_composition")
        assert len(recalls) == 3
        assert all(a <= b + 1e-12 for a, b in zip(recalls, recalls[1:]))
        assert recalls[0] <= 0.3
        assert recalls[-1] >= 0.9

    def test_expected_fixture_recalls(self, corpus7, truth_by_doc):
        config = scripted_config(truth_by_doc)
        history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, config)
        assert history.recalls() == pytest.approx([6 / 22, 14 / 22, 21 / 22])
        assert history.backward_engine_calls == 7  # two aligned batches skip rewrites

    def test_single_epoch_aligned_keeps_text(self, corpus7, truth_by_doc):
        # forward engine that always emits the full expert reference
        class PerfectForward(ScriptedForwardEngine):
            def complete(self, request):
                self._count()
                import re

                doc_id = re.search(r"Document (\S+):", request.user_text).group(1)
                return self._respond(serialize_record_set(self.truth_by_doc[doc_id]))

        config = OptimizationConfig(
            forward_engine=PerfectForward(truth_by_doc),
            backward_engine=ScriptedBackwardEngine(),
            evaluator_engine=ScriptedEvaluatorEngine(),
            epochs=1,
        )
        history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, config)
        assert history.prompts[-1].text == INITIAL_PROMPT_TEXT
        assert history.backward_engine_calls == 0
        assert history.recalls() == [1.0]

    def test_corpus_larger_than_truth(self, corpus8, truth_by_doc):
        # documents without expert data are extracted but contribute no critique
        config = scripted_config(truth_by_doc)
        history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus8, truth_by_doc, config)
        assert history.forward_calls == 24                    # 3 epochs x 8 documents
        assert len(history.prompts) == 1 + 3 * 3              # ceil(8/3) batches per epoch
        assert all(doc != "d08" for doc, _, _ in history.failures)
        assert history.recalls()[-1] >= 0.9

    def test_missing_truth_doc_rejected(self, corpus7, truth_by_doc):
        config = scripted_config(truth_by_doc)
        bad_truth = dict(truth_by_doc)
        bad_truth["d99"] = truth_by_doc["d01"]
        with pytest.raises(ValueError):
            optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, bad_truth, config)

    def test_deterministic_under_replay(self, corpus7, truth_by_doc, tmp_path):
        stores = {
            role: TranscriptStore(tmp_path / role)
            for role in ("forward", "backward", "evaluator")
        }
        recording = OptimizationConfig(
            forward_engine=RecordingEngine(ScriptedForwardEngine(truth_by_doc),
                                           stores["forward"]),
            backward_engine=RecordingEngine(ScriptedBackwardEngine(), stores["backward"]),
            evaluator_engine=RecordingEngine(ScriptedEvaluatorEngine(), stores["evaluator"]),
        )
        first = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, recording)
        first_dir = tmp_path / "run1"
        first.save(first_dir)

        replay = OptimizationConfig(
            forward_engine=ReplayEngine(stores["forward"]),
            backward_engine=ReplayEngine(stores["backward"]),
            evaluator_engine=ReplayEngine(stores["evaluator"]),
        )
        second = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, replay)
        second_dir = tmp_path / "run2"
        second.save(second_dir)

        assert (first_dir / "history.jsonl").read_bytes() == (
            second_dir / "history.jsonl"
        ).read_bytes()
        for prompt in first.prompts:
            name = f"prompt_v{prompt.version}.txt"
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()

    def test_parallel_forward_same_history(self, corpus7, truth_by_doc, tmp_path):
        serial = optimize(
            Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc,
            scripted_config(truth_by_doc, parallelism=1),
        )
        parallel = optimize(
            Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc,
            scripted_config(truth_by_doc, parallelism=3),
        )
        serial.save(tmp_path / "serial")
        parallel.save(tmp_path / "parallel")
        assert (tmp_path / "serial" / "history.jsonl").read_bytes() == (
            tmp_path / "parallel" / "history.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("error", [AuthError("denied"), TypeError("not an engine error")])
    def test_batch_stops_after_a_fatal_error(self, corpus7, truth_by_doc, error, parallelism):
        inner = ScriptedForwardEngine(truth_by_doc)
        seen = []

        class FailsOnSecond:
            def complete(self, request):
                doc_id = re.search(r"Document (\S+):", request.user_text).group(1)
                seen.append(doc_id)
                if doc_id == "d02":
                    raise error
                time.sleep(0.2)
                return inner.complete(request)

        config = OptimizationConfig(
            forward_engine=FailsOnSecond(),
            backward_engine=ScriptedBackwardEngine(),
            evaluator_engine=ScriptedEvaluatorEngine(),
            parallelism=parallelism,
        )
        with pytest.raises(type(error)):
            optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, config)
        assert "d02" in seen and set(seen) <= {"d01", "d02"}

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_evaluator_engine_error_fails_only_its_document(self, corpus7, truth_by_doc,
                                                            parallelism):
        inner = ScriptedEvaluatorEngine()
        d02_text = corpus7.text("d02")

        class FailsOnce:
            failed = False

            def complete(self, request):
                if not self.failed and d02_text in request.user_text:
                    self.failed = True
                    raise EngineError("evaluator unavailable")
                return inner.complete(request)

        config = OptimizationConfig(
            forward_engine=ScriptedForwardEngine(truth_by_doc),
            backward_engine=ScriptedBackwardEngine(),
            evaluator_engine=FailsOnce(),
            parallelism=parallelism,
        )
        history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, config)
        assert [(doc, version) for doc, version, _ in history.failures] == [("d02", 0)]
        assert len(history.epochs) == 3
        assert history.forward_calls == 21

    def test_history_save_layout(self, corpus7, truth_by_doc, tmp_path):
        history = optimize(
            Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc,
            scripted_config(truth_by_doc),
        )
        out = tmp_path / "hist"
        history.save(out)
        assert sorted(p.name for p in out.glob("prompt_v*.txt"))[0] == "prompt_v0.txt"
        assert len(list(out.glob("prompt_v*.txt"))) == 10
        lines = (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 10
        import json

        final = json.loads(lines[-1])
        assert final["metrics"] is not None
        assert final["version"] == 9
