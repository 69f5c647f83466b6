import collections
import hashlib
import json
import shutil
import threading
import time
from pathlib import Path

import pytest

from alloyforge import cli
from alloyforge.cli import main
from alloyforge.engines import (
    AuthError,
    EngineError,
    EngineResponse,
    RecordingEngine,
    TranscriptStore,
)
from alloyforge.pipeline import CorpusStore, ingest_corpus, run_extraction, write_dataset
from alloyforge.records import DocumentId, make_record

from tests.conftest import FIXTURES
from tests.scripted import (
    INITIAL_PROMPT_TEXT,
    MARKERS,
    ScriptedBackwardEngine,
    ScriptedEvaluatorEngine,
    ScriptedForwardEngine,
)

FULL_PROMPT = INITIAL_PROMPT_TEXT + "\n" + "\n".join(MARKERS)


@pytest.fixture()
def workspace(tmp_path, truth_by_doc):
    """A tmp workspace with fixture corpus, recorded transcripts, and config."""
    work = tmp_path
    corpus_dir = work / "corpus"
    shutil.copytree(FIXTURES / "docs", corpus_dir / "docs")
    for name in ("manifest.csv", "manifest8.csv", "ground_truth.csv"):
        shutil.copy(FIXTURES / name, corpus_dir / name)

    # record scripted traffic so the CLI can run pure-replay engines; the
    # temperature must match the config or the transcript keys will differ
    store_dir = work / "transcripts"
    corpus = CorpusStore(ingest_corpus(corpus_dir / "manifest8.csv"))
    recorder = RecordingEngine(ScriptedForwardEngine(truth_by_doc), TranscriptStore(store_dir))
    run_extraction(corpus, FULL_PROMPT, recorder, work / "seed_run",
                   parallelism=1, temperature=0.0)

    prompt_path = work / "prompt.txt"
    prompt_path.write_text(FULL_PROMPT, encoding="utf-8")
    config_path = work / "alloyforge.cfg"
    config_path.write_text(
        "\n".join(
            [
                "# test configuration",
                f"engine.forward.transcript_dir = {store_dir}",
                "pipeline.extract_temperature = 0.0",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    return work, corpus_dir, prompt_path, config_path


def test_extract_evaluate_clean_report_flow(workspace, capsys):
    work, corpus_dir, prompt_path, config_path = workspace
    out_dir = work / "run"
    rc = main(
        [
            "extract",
            "--config", str(config_path),
            "--corpus", str(corpus_dir / "manifest8.csv"),
            "--prompt", str(prompt_path),
            "--out", str(out_dir),
            "--parallelism", "2",
        ]
    )
    assert rc == 0
    assert "7 done, 1 rejected" in capsys.readouterr().out

    rc = main(
        [
            "evaluate",
            "--extracted", str(out_dir / "dataset.jsonl"),
            "--truth", str(corpus_dir / "ground_truth.csv"),
            "--out", str(work / "metrics.csv"),
        ]
    )
    assert rc == 0
    metrics_text = (work / "metrics.csv").read_text()
    assert metrics_text.startswith("field,precision,recall,f1,tp,fp,fn")

    rc = main(["clean", "--dataset", str(out_dir / "dataset.jsonl"),
               "--out", str(work / "cleaned")])
    assert rc == 0
    assert (work / "cleaned" / "quality_report.csv").exists()

    rc = main(["report", "--dataset", str(out_dir / "dataset.jsonl")])
    assert rc == 0
    assert "entries: 21" in capsys.readouterr().out


def test_featurize_train_predict_flow(workspace, capsys):
    work, corpus_dir, prompt_path, config_path = workspace
    dataset = work / "seed_run" / "dataset.jsonl"

    rc = main(["featurize", "--dataset", str(dataset), "--out", str(work / "features.csv")])
    assert rc == 0

    rc = main(
        [
            "train", "--model", "elasso", "--data", str(work / "features.csv"),
            "--out", str(work / "model.json"), "--seed", "1", "--bootstrap", "5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "test R2" in out
    assert "LASSO paths stopped at the step cap: 0" in out

    rc = main(["train", "--model", "esvr", "--data", str(work / "features.csv"),
               "--out", str(work / "esvr.json"), "--seed", "1"])
    assert rc == 0
    assert "SVR grid fits stopped at the SMO iteration cap: 0" in capsys.readouterr().out

    rc = main(["predict", "--model", str(work / "model.json"),
               "--composition", "MoNbTaW"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "+/-" in out and "A" in out


def test_optimize_command(workspace, truth_by_doc, capsys):
    work, corpus_dir, prompt_path, config_path = workspace
    # record optimizer traffic, then drive the CLI from the replay stores
    from alloyforge.optimizer import OptimizationConfig, Prompt, optimize

    stores = {role: work / f"opt_{role}" for role in ("forward", "backward", "evaluator")}
    corpus = CorpusStore(ingest_corpus(corpus_dir / "manifest.csv"))
    config = OptimizationConfig(
        forward_engine=RecordingEngine(ScriptedForwardEngine(truth_by_doc),
                                       TranscriptStore(stores["forward"])),
        backward_engine=RecordingEngine(ScriptedBackwardEngine(),
                                        TranscriptStore(stores["backward"])),
        evaluator_engine=RecordingEngine(ScriptedEvaluatorEngine(),
                                         TranscriptStore(stores["evaluator"])),
    )
    initial = Prompt(INITIAL_PROMPT_TEXT)
    optimize(initial, corpus, truth_by_doc, config)

    cfg_path = work / "optimize.cfg"
    cfg_path.write_text(
        "\n".join(
            f"engine.{role}.transcript_dir = {path}"
            for role, path in stores.items()
        )
        + "\n",
        encoding="utf-8",
    )
    initial_path = work / "initial_prompt.txt"
    initial_path.write_text(INITIAL_PROMPT_TEXT, encoding="utf-8")

    rc = main(
        [
            "optimize",
            "--config", str(cfg_path),
            "--corpus", str(corpus_dir / "manifest.csv"),
            "--truth", str(corpus_dir / "ground_truth.csv"),
            "--prompt", str(initial_path),
            "--out", str(work / "history"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "forward calls 21" in out
    assert "failed document attempts: 0" in out
    history_lines = (work / "history" / "history.jsonl").read_text().splitlines()
    assert len(history_lines) == 10
    final = json.loads(history_lines[-1])
    assert final["metrics"]["nominal_composition"]["recall"] >= 0.9


def test_optimize_refuses_an_empty_expert_reference(tmp_path, monkeypatch, capsys):
    truth = tmp_path / "truth.csv"
    truth.write_text((FIXTURES / "ground_truth.csv").read_text().splitlines()[0] + "\n",
                     encoding="utf-8")
    engines = {"forward": ScriptedForwardEngine({}),
               "backward": ScriptedBackwardEngine(),
               "evaluator": ScriptedEvaluatorEngine()}
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: engines[role])
    cfg = tmp_path / "optimize.cfg"
    cfg.write_text("", encoding="utf-8")
    rc = main(["optimize", "--config", str(cfg), "--corpus", str(FIXTURES / "manifest8.csv"),
               "--truth", str(truth), "--out", str(tmp_path / "history")])
    assert rc == 1
    assert "error: the expert reference names no document" in capsys.readouterr().err
    assert [engine.calls for engine in engines.values()] == [0, 0, 0]
    assert not (tmp_path / "history").exists()


def test_a_refused_optimize_creates_no_transcript_directory(tmp_path, capsys):
    # a store's directory is made by its first recorded transcript, and a
    # refused run records none
    truth = tmp_path / "truth.csv"
    truth.write_text((FIXTURES / "ground_truth.csv").read_text().splitlines()[0] + "\n",
                     encoding="utf-8")
    cfg = tmp_path / "replay.cfg"
    cfg.write_text("".join(f"engine.{role}.transcript_dir = {tmp_path / 'transcripts' / role}\n"
                           for role in ("forward", "backward", "evaluator")), encoding="utf-8")
    rc = main(["optimize", "--config", str(cfg), "--corpus", str(FIXTURES / "manifest8.csv"),
               "--truth", str(truth), "--out", str(tmp_path / "history")])
    assert rc == 1
    assert "error: the expert reference names no document" in capsys.readouterr().err
    assert not (tmp_path / "transcripts").exists()


def test_audit_command(tmp_path, capsys):
    from alloyforge import quality
    from alloyforge.engines import EngineResponse
    from alloyforge.pipeline import write_dataset
    from alloyforge.records import DocumentId, make_record

    corpus_dir = tmp_path / "corpus"
    shutil.copytree(FIXTURES / "docs", corpus_dir / "docs")
    shutil.copy(FIXTURES / "manifest.csv", corpus_dir / "manifest.csv")

    suspicious = make_record(
        DocumentId("d01"), nominal_composition="HfNbTaTiZr", lattice_constant=0.319
    )
    dataset_path = tmp_path / "dataset.jsonl"
    write_dataset({"d01": [suspicious]}, dataset_path)

    class NaysayingAuditor:
        def complete(self, request):
            return EngineResponse(text="No, that value is not what the record claims.")

    store_dir = tmp_path / "audit_transcripts"
    corpus = CorpusStore(ingest_corpus(corpus_dir / "manifest.csv"))
    recorder = RecordingEngine(NaysayingAuditor(), TranscriptStore(store_dir))
    quality.faithfulness_audit(suspicious, recorder, corpus.request_document("d01"))

    cfg = tmp_path / "audit.cfg"
    cfg.write_text(
        f"engine.evaluator.transcript_dir = {store_dir}\n",
        encoding="utf-8",
    )
    rc = main(
        [
            "audit",
            "--config", str(cfg),
            "--dataset", str(dataset_path),
            "--corpus", str(corpus_dir / "manifest.csv"),
            "--out", str(tmp_path / "audit.txt"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "audited 1 record(s)" in out
    report_text = (tmp_path / "audit.txt").read_text()
    assert "document d01" in report_text
    assert "contextual_hallucination" in report_text


def _audit_workspace(tmp_path, records_by_doc, parallelism=1):
    """Corpus, dataset and config for an audit run; returns the base argv."""
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(FIXTURES / "docs", corpus_dir / "docs")
    shutil.copy(FIXTURES / "manifest.csv", corpus_dir / "manifest.csv")
    dataset_path = tmp_path / "dataset.jsonl"
    write_dataset(records_by_doc, dataset_path)
    cfg = tmp_path / f"audit_p{parallelism}.cfg"
    cfg.write_text(f"pipeline.parallelism = {parallelism}\n", encoding="utf-8")
    return ["audit", "--config", str(cfg), "--dataset", str(dataset_path),
            "--corpus", str(corpus_dir / "manifest.csv"), "--out", str(tmp_path / "audit.txt")]


def _audited_record(request) -> str:
    """The record JSON an audit request embeds, without the document text."""
    return request.user_text.split("EXTRACTED RECORD:")[1].split("DOCUMENT (")[0]


class ScriptedAuditor:
    """Answers NO to every question about a record naming ``doubted``, YES
    otherwise; raises ``error`` for a record naming ``failing``. Tracks the
    most calls it saw in flight at once."""

    def __init__(self, doubted="MoNbTaW", failing=None, error=None, delay_s=0.0):
        self.doubted, self.failing, self.error, self.delay_s = doubted, failing, error, delay_s
        self.in_flight = self.max_in_flight = 0
        self.records = []
        self._lock = threading.Lock()

    def complete(self, request):
        record = _audited_record(request)
        with self._lock:
            self.records.append(record)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            time.sleep(self.delay_s)
            if self.failing and self.failing in record:
                raise self.error
            if self.doubted in record:
                return EngineResponse(text="No, the document does not say so.")
            return EngineResponse(text="Yes, the document states it.")
        finally:
            with self._lock:
                self.in_flight -= 1


def _record(doc, name=None, composition=None, lattice=None):
    return make_record(DocumentId(doc), alloy_name=name, nominal_composition=composition,
                       lattice_constant=lattice)


def test_audit_counts_unit_errors_from_repairs(tmp_path, monkeypatch, capsys):
    argv = _audit_workspace(tmp_path, {"d01": [_record("d01", composition="HfNbTaTiZr",
                                                       lattice=0.319)]})
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: ScriptedAuditor())
    assert main(argv) == 0
    out = capsys.readouterr().out
    # every answer is YES, so the count comes from the 0.319 nm -> 3.19 A repair
    assert "'unit_error': 1" in out
    assert "flags=none" in (tmp_path / "audit.txt").read_text()


def test_audit_counts_a_record_once_per_tag(tmp_path, monkeypatch, capsys):
    # 0.3216 nm repairs to 3.216 A and the units question is answered NO: both
    # name the same record, which counts once as a unit error
    argv = _audit_workspace(tmp_path, {"d01": [_record("d01", composition="MoNbTaW",
                                                       lattice=0.3216)]})
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: ScriptedAuditor())
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "audited 1 record(s), 0 failed" in out
    assert ("{'contextual_hallucination': 1, 'semantic_misinterpretation': 1, "
            "'unit_error': 1}") in out


def test_audit_report_heads_name_each_record(tmp_path, monkeypatch):
    argv = _audit_workspace(tmp_path, {"d01": [
        _record("d01", name="HfNbTaTiZr", lattice=3.4),
        _record("d01", composition="Mo25Nb25Ta25W25", lattice=3.2),
    ]})
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: ScriptedAuditor())
    assert main(argv + ["--all-records"]) == 0
    heads = [line for line in (tmp_path / "audit.txt").read_text().splitlines()
             if line.startswith("document")]
    assert heads == ["document d01 record 1 (HfNbTaTiZr): flags=none",
                     "document d01 record 2 (Mo25Nb25Ta25W25): flags=none"]


AUDIT_DATASET = {
    "d01": [("HfNbTaTiZr", 3.38), ("MoNbTaW", 3.216), ("NbTaTiV", 0.325)],
    "d02": [("CoCrFeMnNi", 3.59), ("AlCoCrFeNi", 28.7)],
    "d03": [("MoNbTaVW", 3.18)],
}


def _audit_dataset():
    return {doc: [_record(doc, name=name, composition=name, lattice=lattice)
                  for name, lattice in rows]
            for doc, rows in AUDIT_DATASET.items()}


def test_audit_report_and_stdout_byte_equal_across_parallelism(tmp_path, monkeypatch, capsys):
    outputs = []
    for parallelism in (1, 4):
        argv = _audit_workspace(tmp_path / f"p{parallelism}", _audit_dataset(), parallelism)
        argv[argv.index("--out") + 1] = str(tmp_path / "audit.txt")
        auditor = ScriptedAuditor(delay_s=0.02)
        monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: auditor)
        assert main(argv + ["--all-records"]) == 0
        outputs.append(((tmp_path / "audit.txt").read_bytes(), capsys.readouterr().out))
        assert (auditor.max_in_flight > 1) == (parallelism > 1)
    assert outputs[0] == outputs[1]
    assert "audited 6 record(s), 0 failed" in outputs[0][1]
    assert b"document d01 record 2 (MoNbTaW): flags=['contextual_hallucination'," in outputs[0][0]


@pytest.mark.parametrize("parallelism", [1, 4])
def test_audit_engine_error_fails_only_its_record(tmp_path, monkeypatch, capsys, parallelism):
    argv = _audit_workspace(tmp_path, _audit_dataset(), parallelism) + ["--all-records"]
    auditor = ScriptedAuditor(failing="CoCrFeMnNi", error=EngineError("evaluator unavailable"))
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: auditor)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "audited 6 record(s), 1 failed" in out
    # the NO answers about MoNbTaW flag it; NbTaTiV at 0.325 nm is a unit repair
    assert ("{'contextual_hallucination': 1, 'semantic_misinterpretation': 1, "
            "'unit_error': 2}") in out
    heads = [line for line in (tmp_path / "audit.txt").read_text().splitlines()
             if line.startswith("document")]
    assert len(heads) == 6
    assert heads[3] == "document d02 record 1 (CoCrFeMnNi): failed: evaluator unavailable"
    assert all("failed" not in head for head in heads[:3] + heads[4:])

    # an authentication failure stops the command: nothing after it is asked
    (tmp_path / "audit.txt").unlink()
    auditor = ScriptedAuditor(failing="HfNbTaTiZr", error=AuthError("denied"))
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: auditor)
    assert main(argv) == 1
    assert "denied" in capsys.readouterr().err
    assert not (tmp_path / "audit.txt").exists()
    if parallelism == 1:
        assert len(auditor.records) == 1


def test_audit_refuses_a_document_the_manifest_lacks_before_any_call(
        tmp_path, monkeypatch, capsys):
    argv = _audit_workspace(tmp_path, {
        "d01": [_record("d01", composition="MoNbTaW", lattice=0.3216)],
        "p09": [_record("p09", composition="NbTaTiV", lattice=0.325)],
    })
    auditor = ScriptedAuditor()
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: auditor)
    assert main(argv) == 1
    assert ("error: dataset documents missing from the corpus manifest: ['p09']"
            in capsys.readouterr().err)
    assert auditor.records == []
    assert not (tmp_path / "audit.txt").exists()

    # with the evaluator answering from a transcript store, no store directory is left
    monkeypatch.undo()
    cfg = Path(argv[argv.index("--config") + 1])
    cfg.write_text(f"engine.evaluator.transcript_dir = {tmp_path / 'transcripts'}\n",
                   encoding="utf-8")
    assert main(argv) == 1
    assert "['p09']" in capsys.readouterr().err
    assert not (tmp_path / "transcripts").exists()


def test_evaluate_names_an_unknown_field(tmp_path, capsys):
    dataset = tmp_path / "dataset.jsonl"
    write_dataset({"d01": [_record("d01", composition="MoNbTaW", lattice=3.216)]}, dataset)
    rc = main(["evaluate", "--extracted", str(dataset),
               "--truth", str(FIXTURES / "ground_truth.csv"), "--fields", "foo"])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown field 'foo'\n"


def test_evaluate_leaves_out_documents_the_truth_does_not_name(tmp_path, capsys):
    records = {"d01": [_record("d01", composition="MoNbTaW", lattice=3.216)]}
    tables = []
    for extra in ({}, {"p09": [_record("p09", composition="NbTaTiV", lattice=3.25)]}):
        dataset = tmp_path / "dataset.jsonl"
        write_dataset({**records, **extra}, dataset)
        assert main(["evaluate", "--extracted", str(dataset),
                     "--truth", str(FIXTURES / "ground_truth.csv")]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_error_paths_return_nonzero(tmp_path, capsys):
    rc = main(["report", "--dataset", str(tmp_path / "missing.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line, reason", [
    ('{"doc_id": "d01", "alloy_name": "W"', "not JSON (Expecting ',' delimiter"),
    ('{"alloy_name": "W"}', "doc_id must be a non-empty string, got None"),
    ('[1, 2]', "not a JSON object"),
    ('"d01"', "not a JSON object"),
    ('{"doc_id": "", "alloy_name": "W"}', "doc_id must be a non-empty string, got ''"),
    ('{"doc_id": "  ", "alloy_name": "W"}', "doc_id must be a non-empty string, got '  '"),
    ('{"doc_id": 7, "alloy_name": "W"}', "doc_id must be a non-empty string, got 7"),
])
def test_report_names_the_dataset_line_it_refuses(tmp_path, capsys, line, reason):
    path = tmp_path / "dataset.jsonl"
    path.write_text('{"doc_id": "d01", "alloy_name": "W"}\n' + line + "\n", encoding="utf-8")
    assert main(["report", "--dataset", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: line rejected: {reason}"), err


def test_train_on_bad_feature_csv_names_the_problem(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    short = tmp_path / "short.csv"
    short.write_text("a,b,lattice_constant_angstrom\n1,2\n", encoding="utf-8")
    for path, message in ((empty, "no header row"), (short, "line 2 has 2 field(s)")):
        rc = main(["train", "--model", "elasso", "--data", str(path),
                   "--out", str(tmp_path / "model.json")])
        assert rc == 1
        assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


def test_train_refuses_a_non_finite_target_and_writes_no_model(tmp_path, capsys):
    from alloyforge.features import FEATURE_NAMES, TARGET_COLUMN

    path = tmp_path / "features.csv"
    rows = [",".join(FEATURE_NAMES + (TARGET_COLUMN,))]
    rows += [",".join([str(1.0 + 0.1 * i)] * 6 + ["nan" if i == 7 else str(3.0 + 0.01 * i)])
             for i in range(20)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["train", "--model", "elasso", "--data", str(path), "--bootstrap", "2",
               "--out", str(tmp_path / "model.json")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line 9, column {TARGET_COLUMN}: 'nan' is not a finite number\n")
    assert not (tmp_path / "model.json").exists()


def test_predict_names_elements_missing_from_the_table(tmp_path, capsys):
    import numpy as np

    from alloyforge import ml

    model = ml.EnsembleModel(
        kind="elasso",
        estimators=[ml.LassoEstimator(coef=np.zeros(6), intercept=0.0, lam=0.1)],
        standardization=ml.Standardizer(np.zeros(6), np.ones(6), 3.0, 0.1),
        seed=0,
    )
    ml.save_model(model, tmp_path / "model.json")
    rc = main(["predict", "--model", str(tmp_path / "model.json"), "--composition", "FeNiPu"])
    assert rc == 1
    assert capsys.readouterr().err == "error: element(s) not in table: Pu\n"


PDF_BYTES = b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n1 0 obj\n<<>>\nendobj\n%%EOF\n"
PDF_ATTACHMENT = (("p01", PDF_BYTES),)


def _pdf_manifest(tmp_path):
    """A manifest of one PDF, ``p01``, holding bytes above 127 (so not UTF-8)."""
    (tmp_path / "p01.pdf").write_bytes(PDF_BYTES)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("doc_id,path,kind\np01,p01.pdf,pdf\n", encoding="utf-8")
    return manifest


class Capturing:
    """Keeps every request and answers each with ``text``."""

    def __init__(self, text):
        self.text, self.requests = text, []

    def complete(self, request):
        self.requests.append(request)
        return EngineResponse(text=self.text)


def test_optimize_sends_a_pdf_to_the_evaluator_as_its_attachment(tmp_path, monkeypatch, capsys):
    from alloyforge.records import load_ground_truth, serialize_record_set

    truth = tmp_path / "truth.csv"
    truth.write_text(
        "doc_id,alloy_name,nominal_composition,measured_composition,phase,"
        "processing_condition,lattice_constant_angstrom\n"
        "p01,MoNbTaW,MoNbTaW,Not found,BCC,as-cast,3.216\n"
        "p01,HfNbTaTiZr,HfNbTaTiZr,Not found,BCC,as-cast,3.404\n",
        encoding="utf-8",
    )
    roles = {
        "forward": Capturing(serialize_record_set(load_ground_truth(truth)[:1])),
        "evaluator": Capturing("Missing entry: HfNbTaTiZr\nVERDICT: MISALIGNED"),
        "backward": Capturing("<IMPROVED_PROMPT>\nReport every alloy.\n</IMPROVED_PROMPT>"),
    }
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: roles[role])
    cfg = tmp_path / "optimize.cfg"
    cfg.write_text("optimizer.epochs = 2\n", encoding="utf-8")
    rc = main(["optimize", "--config", str(cfg), "--corpus", str(_pdf_manifest(tmp_path)),
               "--truth", str(truth), "--out", str(tmp_path / "history")])
    assert rc == 0, capsys.readouterr().err
    assert "failed document attempts: 0" in capsys.readouterr().out
    evaluator_requests = roles["evaluator"].requests
    assert len(evaluator_requests) == 2
    for request in evaluator_requests + roles["forward"].requests:
        assert request.attachments == PDF_ATTACHMENT
    assert len(roles["backward"].requests) == 2


def test_audit_sends_a_pdf_as_each_questions_attachment(tmp_path, monkeypatch, capsys):
    dataset = tmp_path / "dataset.jsonl"
    write_dataset({"p01": [_record("p01", composition="MoNbTaW", lattice=0.3216)]}, dataset)
    auditor = Capturing("Yes, the document states it.")
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: auditor)
    cfg = tmp_path / "audit.cfg"
    cfg.write_text("pipeline.parallelism = 1\n", encoding="utf-8")
    rc = main(["audit", "--config", str(cfg), "--dataset", str(dataset),
               "--corpus", str(_pdf_manifest(tmp_path)), "--out", str(tmp_path / "audit.txt")])
    assert rc == 0, capsys.readouterr().err
    assert "audited 1 record(s), 0 failed" in capsys.readouterr().out
    assert len(auditor.requests) == 3
    for request in auditor.requests:
        assert request.attachments == PDF_ATTACHMENT
        assert "DOCUMENT (p01):" in request.user_text


# sha256 of the report the audit below wrote when it requested a document once
# per record; reading each document once must not change a byte of it
AUDIT_ONCE_REPORT_SHA256 = "273f262cb3576fa6e35ce0996805d3c53186e00a2957e938cab3f531204c50a0"


@pytest.mark.parametrize("parallelism", [1, 4])
def test_audit_reads_each_document_once(tmp_path, monkeypatch, capsys, parallelism):
    manifest = _pdf_manifest(tmp_path)
    with manifest.open("a", encoding="utf-8") as fh:
        for doc in ("t01", "t02"):
            (tmp_path / f"{doc}.txt").write_text(f"{doc}: the alloys were cast.", encoding="utf-8")
            fh.write(f"{doc},{doc}.txt,plain_text\n")
    names = ("MoNbTaW", "HfNbTaTiZr", "NbTaTiV", "CoCrFeMnNi")
    dataset = tmp_path / "dataset.jsonl"
    write_dataset({
        "p01": [_record("p01", name=names[k % 4], composition=names[k % 4], lattice=3.1 + k / 100)
                for k in range(20)],
        "t01": [_record("t01", name="MoNbTaVW", lattice=3.18), _record("t01", name="VNbMoTaW")],
        "t02": [_record("t02", composition="AlCoCrFeNi", lattice=0.287)],
    }, dataset)
    reads = collections.Counter()
    read_bytes, read_text = Path.read_bytes, Path.read_text

    def counting_bytes(self):
        reads[self.name] += 1
        return read_bytes(self)

    def counting_text(self, *args, **kwargs):
        reads[self.name] += 1
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", counting_bytes)
    monkeypatch.setattr(Path, "read_text", counting_text)
    auditor = ScriptedAuditor(delay_s=0.002)
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: auditor)
    cfg = tmp_path / "audit.cfg"
    cfg.write_text(f"pipeline.parallelism = {parallelism}\n", encoding="utf-8")
    report = tmp_path / "audit.txt"
    rc = main(["audit", "--config", str(cfg), "--dataset", str(dataset), "--corpus",
               str(manifest), "--out", str(report), "--all-records"])
    assert rc == 0, capsys.readouterr().err
    assert "audited 23 record(s), 0 failed" in capsys.readouterr().out
    assert len(auditor.records) == 69
    assert [reads[name] for name in ("p01.pdf", "t01.txt", "t02.txt")] == [1, 1, 1]
    assert hashlib.sha256(read_bytes(report)).hexdigest() == AUDIT_ONCE_REPORT_SHA256


@pytest.mark.parametrize("names", ["reversed", "letters"])
def test_train_refuses_a_header_other_than_the_descriptors(tmp_path, capsys, names):
    from alloyforge.features import FEATURE_NAMES, TARGET_COLUMN

    columns = {"reversed": FEATURE_NAMES[::-1], "letters": tuple("abcdef")}[names]
    path = tmp_path / "features.csv"
    rows = [",".join(columns + (TARGET_COLUMN,))]
    rows += [",".join(str(1.0 + 0.1 * ((i * 7 + j * 3) % 11)) for j in range(7))
             for i in range(20)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["train", "--model", "elasso", "--data", str(path), "--bootstrap", "2",
               "--out", str(tmp_path / "model.json")])
    assert rc == 1
    expected = ",".join(FEATURE_NAMES + (TARGET_COLUMN,))
    assert f"error: {path}: header must be {expected}" in capsys.readouterr().err
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("targets, fraction, split", [
    ((3.1, 3.2, 3.3, 3.4), "0.8", "4 row(s) into 3 train / 1 test"),
    ((3.2,) * 10, "0.5", "10 row(s) into 5 train / 5 test"),
])
def test_train_refuses_a_split_r2_cannot_score_before_training(
        tmp_path, monkeypatch, capsys, targets, fraction, split):
    from alloyforge import ml
    from alloyforge.features import FEATURE_NAMES, TARGET_COLUMN

    def no_training(*args, **kwargs):
        raise AssertionError("trained on a split R2 cannot score")

    monkeypatch.setattr(ml, "train_esvr", no_training)
    path = tmp_path / "features.csv"
    rows = [",".join(FEATURE_NAMES + (TARGET_COLUMN,))]
    rows += [",".join([str(1.0 + i)] * 6 + [str(t)]) for i, t in enumerate(targets)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rc = main(["train", "--model", "esvr", "--data", str(path), "--train-fraction", fraction,
               "--out", str(tmp_path / "model.json")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path}: --train-fraction {fraction} splits {split}; R2 needs at least 2 rows "
        "with differing targets on each side, so no model was trained\n")
    assert not (tmp_path / "model.json").exists()


def test_extract_parallelism_flag_overrides_the_config_and_is_at_least_one(
        tmp_path, monkeypatch, capsys):
    from alloyforge import pipeline

    seen = []

    def run_extraction(*args, parallelism, **kwargs):
        seen.append(parallelism)
        return pipeline.ExtractionResult({}, pipeline.RunLedger(), [], 0)

    monkeypatch.setattr(pipeline, "run_extraction", run_extraction)
    cfg = tmp_path / "extract.cfg"
    cfg.write_text(f"engine.forward.transcript_dir = {tmp_path / 'store'}\n"
                   "pipeline.parallelism = 3\n", encoding="utf-8")
    argv = ["extract", "--config", str(cfg), "--corpus", str(FIXTURES / "manifest.csv"),
            "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert main(argv + ["--parallelism", "1"]) == 0
    assert seen == [3, 1]
    capsys.readouterr()
    for value in ("0", "-2"):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--parallelism", value])
        assert info.value.code == 2
        assert f"--parallelism: must be at least 1, got {value}" in capsys.readouterr().err
    assert seen == [3, 1]


@pytest.mark.parametrize("line, expected", [("pipeline.parallelism = 2\n", 2), ("", 4)])
def test_optimize_runs_at_pipeline_parallelism(tmp_path, monkeypatch, capsys, line, expected):
    from alloyforge import optimizer

    seen = []

    def optimize(initial, corpus, truth_by_doc, config):
        seen.append(config.parallelism)
        return optimizer.PromptHistory(prompts=[initial], epochs=[])

    monkeypatch.setattr(optimizer, "optimize", optimize)
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: Capturing(""))
    cfg = tmp_path / "optimize.cfg"
    cfg.write_text(line, encoding="utf-8")
    rc = main(["optimize", "--config", str(cfg), "--corpus", str(FIXTURES / "manifest.csv"),
               "--truth", str(FIXTURES / "ground_truth.csv"), "--out", str(tmp_path / "history")])
    assert rc == 0, capsys.readouterr().err
    assert seen == [expected]
