import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from alloyforge.pipeline import CorpusStore, PipelineError, ingest_corpus
from alloyforge.records import DocumentId, make_record, serialize_record_set

from tests.conftest import FIXTURES
from tests.oracles import reference_improved_text
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
        records = forward_extract(Prompt(INITIAL_PROMPT_TEXT), "d01", engine,
                                  corpus7.request_document("d01"))
        assert records == truth_by_doc["d01"][:1]

    def test_full_prompt_reveals_everything_below_cap(self, corpus7, truth_by_doc):
        engine = ScriptedForwardEngine(truth_by_doc)
        loaded_prompt = Prompt(INITIAL_PROMPT_TEXT + "\n" + "\n".join(MARKERS))
        records = forward_extract(loaded_prompt, "d03", engine, corpus7.request_document("d03"))
        assert records == truth_by_doc["d03"][:2]  # threshold-99 row never appears

    def test_rejection_sentinel_empty(self, corpus8, truth_by_doc):
        engine = ScriptedForwardEngine(truth_by_doc)
        assert forward_extract(Prompt(INITIAL_PROMPT_TEXT), "d08", engine,
                               corpus8.request_document("d08")) == []


class TestExtractionLoss:
    def test_aligned_when_identical(self, corpus7, truth_by_doc):
        feedback = extraction_loss(
            Prompt("p"), "d01", truth_by_doc["d01"], truth_by_doc["d01"],
            ScriptedEvaluatorEngine(), corpus7.request_document("d01"),
        )
        assert feedback.verdict == ALIGNED
        assert feedback.prompt_version == 0

    def test_misaligned_names_missing_entries(self, corpus7, truth_by_doc):
        truth = truth_by_doc["d01"]
        feedback = extraction_loss(
            Prompt("p"), "d01", truth, truth[:1], ScriptedEvaluatorEngine(),
            corpus7.request_document("d01"),
        )
        assert feedback.verdict == MISALIGNED
        assert "Missing entry" in feedback.text
        assert "HfNbTiZr" in feedback.text

    def test_unparseable_verdict_is_misaligned(self, corpus7, truth_by_doc):
        class MumblingEvaluator:
            def complete(self, request):
                return EngineResponse(text="It is complicated.")

        feedback = extraction_loss(
            Prompt("p"), "d01", truth_by_doc["d01"], [], MumblingEvaluator(),
            corpus7.request_document("d01"),
        )
        assert feedback.verdict == MISALIGNED

    def test_template_embeds_all_four_inputs(self, corpus7, truth_by_doc):
        captured = {}

        class CapturingEvaluator:
            def complete(self, request):
                captured["text"] = request.user_text
                return EngineResponse(text="VERDICT: ALIGNED")

        prompt = Prompt("THE PROMPT TEXT")
        truth = truth_by_doc["d02"]
        extraction_loss(prompt, "d02", truth, truth, CapturingEvaluator(),
                        corpus7.request_document("d02"))
        body = captured["text"]
        assert "THE PROMPT TEXT" in body
        assert "MoNbTaW" in body                      # document text
        assert serialize_record_set(truth) in body    # expert block
        assert default_evaluation_template().split("<<PROMPT>>")[0].strip() in body

    def test_slot_markers_inside_the_inputs_stay_literal(self, truth_by_doc, tmp_path):
        document = r"Table 1 lists <<EXPERT_DATA>> for C:\alloys\1."
        (tmp_path / "d.txt").write_text(document, encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("doc_id,path,kind\nd,d.txt,plain_text\n", encoding="utf-8")
        captured = {}

        class CapturingEvaluator:
            def complete(self, request):
                captured["text"] = request.user_text
                return EngineResponse(text="VERDICT: ALIGNED")

        prompt = Prompt("Quote <<DOCUMENT>> and <<MODEL_OUTPUT>> as given.")
        truth = truth_by_doc["d02"]
        extraction_loss(prompt, "d", truth, [], CapturingEvaluator(),
                        CorpusStore(ingest_corpus(manifest)).request_document("d"))
        around = re.split(r"<<PROMPT>>|<<DOCUMENT>>|<<EXPERT_DATA>>|<<MODEL_OUTPUT>>",
                          default_evaluation_template())
        filled = (prompt.text, document, serialize_record_set(truth), serialize_record_set([]))
        assert captured["text"] == around[0] + "".join(
            value + text for value, text in zip(filled, around[1:]))


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

    def test_empty_batch_bumps_the_version_only(self):
        prompt = Prompt(INITIAL_PROMPT_TEXT, version=4, epoch=2)
        engine = ScriptedBackwardEngine()
        bumped = backward_update(prompt, [], engine)
        assert bumped == Prompt(INITIAL_PROMPT_TEXT, version=5, epoch=2)
        assert engine.calls == 0

    def test_stale_feedback_rejected(self):
        feedback = Feedback(text="x", doc="d01", prompt_version=3, verdict=MISALIGNED)
        with pytest.raises(ValueError):
            backward_update(Prompt("p"), [feedback], ScriptedBackwardEngine())


class _FixedRewrite:
    """An engine whose every completion is the given text."""

    def __init__(self, text):
        self.text = text

    def complete(self, request):
        return EngineResponse(self.text)


_REWRITE_PIECES = st.one_of(
    st.sampled_from(["<IMPROVED_PROMPT>", "</IMPROVED_PROMPT>", "<IMPROVED_PROMPT",
                     "/IMPROVED_PROMPT>", "</", "<", ">", "\n", " "]),
    st.text(max_size=8),
)


class TestRewriteTags:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(_REWRITE_PIECES, max_size=12).map("".join))
    @example("a<IMPROVED_PROMPT>b</IMPROVED_PROMPT>c<IMPROVED_PROMPT>d</IMPROVED_PROMPT>")
    @example("</IMPROVED_PROMPT><IMPROVED_PROMPT>x<IMPROVED_PROMPT>y</IMPROVED_PROMPT>")
    @example("<IMPROVED_PROMPT></IMPROVED_PROMPT>")
    def test_same_rewrite_text_as_the_regex(self, completion):
        prompt = Prompt(INITIAL_PROMPT_TEXT)
        feedback = Feedback(text="x", doc="d01", prompt_version=0, verdict=MISALIGNED)
        updated = backward_update(prompt, [feedback], _FixedRewrite(completion))
        expected = reference_improved_text(completion).strip() or prompt.text
        assert updated.text == expected

    def test_megabyte_of_unclosed_openers_is_linear(self):
        completion = "<IMPROVED_PROMPT> " * (1_000_000 // len("<IMPROVED_PROMPT> "))
        feedback = Feedback(text="x", doc="d01", prompt_version=0, verdict=MISALIGNED)
        started = time.perf_counter()
        updated = backward_update(Prompt("p"), [feedback], _FixedRewrite(completion))
        assert time.perf_counter() - started < 1.0
        assert updated.text == completion.strip()


class TestPromptLineage:
    def test_version_chain_validation(self):
        assert Prompt("p").parent_version is None
        assert Prompt("p", version=2).parent_version == 1
        with pytest.raises(ValueError):
            Prompt("p", version=-1)


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
        # d08 has no expert data, so it is never called: every forward call is scored
        requested = []

        class Forward(ScriptedForwardEngine):
            def complete(self, request):
                requested.append(re.search(r"Document (\S+):", request.user_text).group(1))
                return super().complete(request)

        config = OptimizationConfig(
            forward_engine=Forward(truth_by_doc),
            backward_engine=ScriptedBackwardEngine(),
            evaluator_engine=ScriptedEvaluatorEngine(),
        )
        history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus8, truth_by_doc, config)
        assert history.forward_calls == config.forward_engine.calls == 21  # 3 epochs x 7
        assert "d08" not in requested
        assert len(history.prompts) == 1 + 3 * 3              # ceil(7/3) batches per epoch
        assert history.recalls()[-1] >= 0.9

    def test_documents_without_expert_data_change_nothing(self, corpus7, corpus8,
                                                          truth_by_doc, tmp_path):
        # batches of 7 hold the 7 annotated documents whether or not the manifest
        # also lists d08, so both runs write the same bytes
        configs = {}
        for name, corpus in (("seven", corpus7), ("eight", corpus8)):
            configs[name] = scripted_config(truth_by_doc, batch_size=7)
            history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus, truth_by_doc, configs[name])
            assert [p.version for p in history.prompts] == [0, 1, 2, 3]
            history.save(tmp_path / name)
        for config in configs.values():
            assert config.forward_engine.calls == config.evaluator_engine.calls == 3 * 7
        files = {name: {path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
                 for name in configs}
        assert sorted(files["eight"]) == ["history.jsonl"] + [f"prompt_v{v}.txt" for v in range(4)]
        assert files["eight"] == files["seven"]

    def test_empty_truth_rejected_before_any_call(self, corpus8, truth_by_doc):
        config = scripted_config(truth_by_doc)
        with pytest.raises(ValueError, match="expert reference names no document"):
            optimize(Prompt(INITIAL_PROMPT_TEXT), corpus8, {}, config)
        engines = (config.forward_engine, config.backward_engine, config.evaluator_engine)
        assert [engine.calls for engine in engines] == [0, 0, 0]

    def test_missing_truth_doc_rejected(self, corpus7, truth_by_doc):
        config = scripted_config(truth_by_doc)
        bad_truth = dict(truth_by_doc)
        bad_truth["d99"] = truth_by_doc["d01"]
        with pytest.raises(ValueError):
            optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, bad_truth, config)

    def test_each_expert_document_is_read_once_per_run(self, truth_by_doc):
        reads = []

        class CountingCorpus(CorpusStore):
            def request_document(self, doc_id):
                reads.append(doc_id)
                return super().request_document(doc_id)

        corpus = CountingCorpus(ingest_corpus(FIXTURES / "manifest8.csv"))
        config = scripted_config(truth_by_doc, epochs=3)
        optimize(Prompt(INITIAL_PROMPT_TEXT), corpus, truth_by_doc, config)
        assert config.forward_engine.calls == config.evaluator_engine.calls == 3 * 7
        # in manifest order, and never d08, which has no expert data
        assert reads == [doc_id for doc_id in corpus.ids if doc_id in truth_by_doc]
        assert sorted(reads) == sorted(truth_by_doc)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_an_unreadable_expert_document_is_refused_before_any_call(
            self, truth_by_doc, tmp_path, parallelism):
        # p02 follows d01 in the manifest, so reading it per attempt would call d01 first
        (tmp_path / "p02.txt").write_bytes("The alloy caf\u00e9 was studied.".encode("latin-1"))
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"doc_id,path,kind\nd01,{FIXTURES / 'docs' / 'd01.txt'},plain_text\n"
                            "p02,p02.txt,plain_text\n", encoding="utf-8")
        truth = {"d01": truth_by_doc["d01"],
                 "p02": [make_record(DocumentId("p02"), nominal_composition="MoNbTaW")]}
        config = scripted_config(truth, parallelism=parallelism)
        with pytest.raises(PipelineError) as info:
            optimize(Prompt(INITIAL_PROMPT_TEXT), CorpusStore(ingest_corpus(manifest)), truth,
                     config)
        assert str(info.value) == (f"document p02: {tmp_path / 'p02.txt'} is not UTF-8 "
                                   "(byte 13: invalid continuation byte)")
        engines = (config.forward_engine, config.backward_engine, config.evaluator_engine)
        assert [engine.calls for engine in engines] == [0, 0, 0]

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
        d02_text, _ = corpus7.request_document("d02")

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

    def test_an_empty_critique_is_misaligned(self, corpus7, truth_by_doc):
        # a critique with no text has no verdict statement either: it asks for
        # a rewrite like any other, and fails neither its document nor the run
        class SilentEvaluator:
            def complete(self, request):
                return EngineResponse(text="")

        config = OptimizationConfig(
            forward_engine=ScriptedForwardEngine(truth_by_doc),
            backward_engine=ScriptedBackwardEngine(),
            evaluator_engine=SilentEvaluator(),
            epochs=1,
        )
        history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, config)
        assert history.failures == []
        assert config.backward_engine.calls == history.backward_engine_calls == 3
        assert marker_count(history.prompts[-1].text) == 3

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

    def test_a_shorter_save_removes_stale_prompt_files(self, corpus7, truth_by_doc, tmp_path):
        long, short = (
            optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc,
                     scripted_config(truth_by_doc, batch_size=batch_size))
            for batch_size in (3, 7)
        )
        assert (len(long.prompts), len(short.prompts)) == (10, 4)
        out = tmp_path / "hist"
        long.save(out)
        others = ("notes.txt", "prompt_v9.txt.bak", "prompt_v07.txt", "prompt_vx.txt")
        for name in others:
            (out / name).write_text("kept", encoding="utf-8")
        short.save(out)
        assert sorted(path.name for path in out.iterdir()) == sorted(
            ("history.jsonl", *others, *(f"prompt_v{v}.txt" for v in range(4)))
        )
        assert len((out / "history.jsonl").read_text().splitlines()) == 4
        for prompt in short.prompts:
            assert (out / f"prompt_v{prompt.version}.txt").read_text() == prompt.text
        for name in others:
            assert (out / name).read_text() == "kept"
