"""Output files of scripted runs over the fixture corpus, pinned by sha256.

Each output is written from the exact field text a model gave, so a change
to how records are parsed, kept or rendered that alters any byte of an
output changes these values. The literals were computed from the code that
wrote the outputs before records, prompts and reports lost their derived
fields. The forward engine answers ``d01`` with field text in every form the
parser accepts (units, phase and processing wording, a space group, a
negative length, an entry with no identity) and the other documents from the
expert reference; ``d08`` has no reference and is declared irrelevant.
"""

import hashlib
import json

import pytest

from alloyforge import cli
from alloyforge.cli import main
from alloyforge.engines import EngineResponse
from alloyforge.pipeline import CorpusStore, ingest_corpus, run_extraction

from tests.conftest import FIXTURES
from tests.scripted import (
    INITIAL_PROMPT_TEXT,
    MARKERS,
    ScriptedBackwardEngine,
    ScriptedEvaluatorEngine,
    ScriptedForwardEngine,
)

FULL_PROMPT = INITIAL_PROMPT_TEXT + "\n" + "\n".join(MARKERS)


def _entry(name, nominal, phase, processing, lattice, measured="Not found"):
    return {"alloy_name": name, "nominal_composition": nominal,
            "measured_composition": measured, "phase": phase,
            "processing_condition": processing, "lattice_constant_angstrom": lattice}


D01_COMPLETION = "Here are the alloys:\n```json\n" + json.dumps([
    _entry("HfNbTaTiZr", "HfNbTaTiZr", "single-phase BCC", "arc-melted, as-cast",
           "3.404 Å", measured="Hf0.25Nb0.25Ta0.2Ti0.15Zr0.15"),
    _entry("HfNbTiZr", "HfNbTiZr", "BCC + FCC", "homogenized at 1200 C for 24 h",
           "0.3434 nm"),
    _entry("NbTaTiZr", "NbTaTiZr", "B2 ordered", "spark plasma sintered", "336.0 pm"),
    _entry("HfNbTaZr", "HfNbTaZr", "amorphous", "laser powder bed fusion", "0.3415"),
    _entry("HfTaZr", "HfTaZr", "face-centred cubic", "cold rolled", "341.5"),
    _entry("Not found", "CoCrFeNi", "Fm-3m", "as-cast", "a = 3.57 angstrom (Fm-3m)"),
    _entry("CoCrFeMnNi", "CoCrFeMnNi", "hexagonal close packed", "Not found", "-3.2"),
    _entry("FeNiPu", "FeNiPu", "BCC", "annealed", "2.9"),
    _entry("Not found", "Not found", "BCC", "as-cast", "3.1"),
], ensure_ascii=False, indent=1) + "\n```\nThat is all."


class _Forward(ScriptedForwardEngine):
    def complete(self, request):
        if "Document d01:" in request.user_text:
            self._count()
            return self._respond(D01_COMPLETION)
        return super().complete(request)


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, truth_by_doc):
    out = tmp_path_factory.mktemp("pins") / "run"
    corpus = CorpusStore(ingest_corpus(FIXTURES / "manifest8.csv"))
    run_extraction(corpus, FULL_PROMPT, _Forward(truth_by_doc), out,
                   parallelism=1, temperature=0.0)
    return out


def test_extraction_outputs(run_dir):
    assert _sha(run_dir / "dataset.jsonl") == (
        "5a6d8401bb1a0cc6ac9bf06fce50db9282d74c157846aecac547faacfc8ee851")
    assert _sha(run_dir / "dataset.csv") == (
        "2f0f22a7bc0400cf7cf87e93b493d6dadb4ba8cd10919e8d211046fd7e007a82")


def test_clean_outputs(run_dir, tmp_path, capsys):
    assert main(["clean", "--dataset", str(run_dir / "dataset.jsonl"),
                 "--out", str(tmp_path / "clean")]) == 0
    assert _sha(tmp_path / "clean" / "dataset_clean.jsonl") == (
        "ee0fe199712aa46e534f91928dc9a664d3d75af496937eac54daca0687793cac")
    assert _sha(tmp_path / "clean" / "quality_report.csv") == (
        "91962c58b3d0fec0622274a19df9f973088997bdace2de150993d8d8cef52d7a")


def test_featurize_output(run_dir, tmp_path, capsys):
    assert main(["featurize", "--dataset", str(run_dir / "dataset.jsonl"),
                 "--out", str(tmp_path / "features.csv")]) == 0
    assert _sha(tmp_path / "features.csv") == (
        "166c44be74dec79f0baba8a5ff5765c44e9d75cd358f3b4c1afefbdfbf5b73d4")


def test_report_text(run_dir, capsys):
    assert main(["report", "--dataset", str(run_dir / "dataset.jsonl")]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
        "f31e00667ec71214174591f0dd2f419b251fabe8e2fe5fb8895a30484c97cf16")


class _Auditor:
    """Answers the unit question with no YES or NO, NO for the lengths given
    without a unit, YES otherwise."""

    def complete(self, request):
        if "QUESTION: Is the extracted lattice constant expressed" in request.user_text:
            return EngineResponse(text="Possibly; the document is unclear.")
        record = request.user_text.split("EXTRACTED RECORD:")[1].split("DOCUMENT (")[0]
        if '"0.3415"' in record or '"341.5"' in record:
            return EngineResponse(text="No, the value belongs to another phase.")
        return EngineResponse(text="Yes, the document states it.")


def test_audit_report(run_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: _Auditor())
    config = tmp_path / "audit.cfg"
    config.write_text("pipeline.parallelism = 2\n", encoding="utf-8")
    assert main(["audit", "--config", str(config), "--dataset", str(run_dir / "dataset.jsonl"),
                 "--corpus", str(FIXTURES / "manifest8.csv"),
                 "--out", str(tmp_path / "audit.txt")]) == 0
    assert _sha(tmp_path / "audit.txt") == (
        "882c528dffcd677009f793b820ac34f0c393eba2cc945cfa2aef37d1f90a8879")


def test_optimize_outputs(truth_by_doc, tmp_path, monkeypatch, capsys):
    # d08, which has no expert data, is counted and never called, so batches of 7
    # over the 8-document manifest write the bytes the 7-document manifest.csv
    # run writes: one version per epoch
    engines = {"forward": ScriptedForwardEngine(truth_by_doc),
               "backward": ScriptedBackwardEngine(),
               "evaluator": ScriptedEvaluatorEngine()}
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: engines[role])
    config = tmp_path / "optimize.cfg"
    config.write_text("optimizer.batch_size = 7\noptimizer.epochs = 3\n", encoding="utf-8")
    (tmp_path / "prompt.txt").write_text(INITIAL_PROMPT_TEXT, encoding="utf-8")
    assert main(["optimize", "--config", str(config),
                 "--corpus", str(FIXTURES / "manifest8.csv"),
                 "--truth", str(FIXTURES / "ground_truth.csv"),
                 "--prompt", str(tmp_path / "prompt.txt"),
                 "--out", str(tmp_path / "history")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "manifest documents without expert data, not called: 1" in out
    assert engines["forward"].calls == engines["evaluator"].calls == 21
    assert {path.name: _sha(path) for path in sorted((tmp_path / "history").iterdir())} == {
        "history.jsonl": "e6bd14c8cf8099a0b5dfd4583ff8238b4c8eebdd8d317f983e9f089912307f55",
        "prompt_v0.txt": "0781bfd7c4eb0f8f7f15bff20f6d8532331747589ad7da89ae6a5f18cd6ea6f4",
        "prompt_v1.txt": "1651deb23a32b03ceafa93528d80e6cf3f0700a61032864e580e017bfe673584",
        "prompt_v2.txt": "c2495fa8790589485f9bc07602af3c3d8791dadc8975ff70c1933403506c20dc",
        "prompt_v3.txt": "285a4427ecf4242846fc506402d3a217a709f265ecba7de450cb7c0c2eb5243a",
    }
