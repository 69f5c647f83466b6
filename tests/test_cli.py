import json
import shutil
import threading
import time

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
                "engine.forward.kind = replay",
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

    # a paranoid consistency threshold flags the measured-vs-nominal drift rows
    strict_cfg = work / "strict.cfg"
    strict_cfg.write_text("thresholds.l1 = 0.0\nthresholds.cosine = 1.0\n", encoding="utf-8")
    rc = main(["clean", "--dataset", str(out_dir / "dataset.jsonl"),
               "--config", str(strict_cfg), "--out", str(work / "cleaned_strict")])
    assert rc == 0
    strict_rows = (work / "cleaned_strict" / "quality_report.csv").read_text().splitlines()
    default_rows = (work / "cleaned" / "quality_report.csv").read_text().splitlines()
    assert len(strict_rows) > len(default_rows)

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
    assert "LASSO fits stopped at the sweep cap: 0" in out

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
            f"engine.{role}.kind = replay\n"
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
    quality.faithfulness_audit(
        suspicious, suspicious.source, quality.default_audit_questions(), recorder, corpus
    )

    cfg = tmp_path / "audit.cfg"
    cfg.write_text(
        f"engine.evaluator.kind = replay\nengine.evaluator.transcript_dir = {store_dir}\n",
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


def test_error_paths_return_nonzero(tmp_path, capsys):
    rc = main(["report", "--dataset", str(tmp_path / "missing.jsonl")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


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
