"""Transcript keys and files of representative requests, pinned as literals.

A change to how a request is built or hashed changes these values, and every
transcript store recorded before it would stop replaying. The literals were
computed from the code that wrote the existing stores.
"""

import hashlib

import pytest

from alloyforge import cli
from alloyforge.cli import main
from alloyforge.engines import EngineResponse, RecordingEngine, TranscriptStore
from alloyforge.optimizer import Prompt, extraction_loss
from alloyforge.pipeline import CorpusStore, build_document_request, ingest_corpus, write_dataset
from alloyforge.records import DocumentId, make_record

from tests.conftest import FIXTURES

PROMPT = "Extract the alloys."
PDF_BYTES = b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n1 0 obj\n<<>>\nendobj\n%%EOF\n"


class _Static:
    def __init__(self, text):
        self.text = text

    def complete(self, request):
        return EngineResponse(text=self.text, input_tokens=3, output_tokens=2)


def _files(store_dir) -> dict[str, str]:
    """``{file name: sha256 of its bytes}`` for every transcript file in a store."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(store_dir.iterdir())}


@pytest.fixture()
def corpus(tmp_path):
    """The fixture's ``d01`` and a PDF ``p01`` holding bytes above 127."""
    (tmp_path / "p01.pdf").write_bytes(PDF_BYTES)
    (tmp_path / "manifest.csv").write_text(
        f"doc_id,path,kind\nd01,{FIXTURES / 'docs' / 'd01.txt'},plain_text\np01,p01.pdf,pdf\n",
        encoding="utf-8",
    )
    return CorpusStore(ingest_corpus(tmp_path / "manifest.csv"))


def test_plain_text_forward_request(corpus, tmp_path):
    engine = RecordingEngine(_Static("[]"), TranscriptStore(tmp_path / "store"))
    engine.complete(build_document_request(PROMPT, "d01", corpus.request_document("d01"), 1.0))
    assert _files(tmp_path / "store") == {
        "0e12ef8f14dbca255294c58a4bba87dc4ee9845f55883764599ffe9d00c8dae9.request":
            "e3fda004b2bad4668ede0fa0d7600b1957037687e9128aec4a527311a2462794",
        "0e12ef8f14dbca255294c58a4bba87dc4ee9845f55883764599ffe9d00c8dae9.response":
            "09f173ef07e96156142d0ef62b5a8f2691311f2d8325071926470d5c46ce2416",
    }


def test_pdf_forward_request(corpus, tmp_path):
    engine = RecordingEngine(_Static("[]"), TranscriptStore(tmp_path / "store"))
    engine.complete(build_document_request(PROMPT, "p01", corpus.request_document("p01"), 1.0))
    key = "99e4dd5b6061acbea96af756bd7fbe028d926a08bc50f40b3184111ca0ecb862"
    assert sorted(path.name for path in (tmp_path / "store").iterdir()) == [
        f"{key}.request", f"{key}.response"]
    assert (tmp_path / "store" / f"{key}.request").read_bytes() == (
        b'{\n "attachments": [\n  {\n   "id": "p01",\n   "kind": "pdf",\n   "sha256": '
        b'"441951ea5854835cb13c71193b6224811eaf111c51ad13c353f0f1c48c302fa7"\n  }\n ],\n '
        b'"model": "",\n "options": [],\n "system": "Extract the alloys.",\n '
        b'"temperature": 1.0,\n '
        b'"user": "Extract the alloy data from the attached document (p01)."\n}'
    )
    assert (tmp_path / "store" / f"{key}.response").read_bytes() == (
        b'{\n "input_tokens": 3,\n "latency_s": 0.0,\n "output_tokens": 2,\n "text": "[]"\n}'
    )


def test_evaluator_request(corpus, tmp_path, truth_by_doc):
    engine = RecordingEngine(_Static("VERDICT: ALIGNED"), TranscriptStore(tmp_path / "store"))
    truth = truth_by_doc["d01"]
    extraction_loss(Prompt(PROMPT), "d01", truth, truth[:1], engine,
                    corpus.request_document("d01"))
    assert _files(tmp_path / "store") == {
        "0f528ecb67e6d8cf28a16a5f8696377a28db7200251779e0f9f4d2d74e4991c7.request":
            "3ae9aec9708551fdc6f9d000780e508a7fdce9d803a029c93294e0d81e5ddddc",
        "0f528ecb67e6d8cf28a16a5f8696377a28db7200251779e0f9f4d2d74e4991c7.response":
            "a890154ac33cba6526e5e07a8dbbd7e2e68cc9e21a99704ca8b6d87f00674c11",
    }


def test_audit_requests(tmp_path, monkeypatch):
    (tmp_path / "manifest.csv").write_text(
        f"doc_id,path,kind\nd01,{FIXTURES / 'docs' / 'd01.txt'},plain_text\n", encoding="utf-8"
    )
    record = make_record(DocumentId("d01"), nominal_composition="HfNbTaTiZr",
                         lattice_constant=0.319)
    write_dataset({"d01": [record]}, tmp_path / "dataset.jsonl")
    (tmp_path / "audit.cfg").write_text("pipeline.parallelism = 1\n", encoding="utf-8")
    engine = RecordingEngine(_Static("Yes, the document states it."),
                             TranscriptStore(tmp_path / "store"))
    monkeypatch.setattr(cli, "engine_from_config", lambda cfg, role: engine)
    assert main(["audit", "--config", str(tmp_path / "audit.cfg"),
                 "--dataset", str(tmp_path / "dataset.jsonl"),
                 "--corpus", str(tmp_path / "manifest.csv"),
                 "--out", str(tmp_path / "audit.txt")]) == 0
    # one transcript per default audit question
    assert _files(tmp_path / "store") == {
        "977a55fcac0bd64a039137f8777a3ecd4688413b2a1ac35e6b7127d6c7896f90.request":
            "e5bfe691921a12a15e478fd8556505e538484ce53f821884edde085d6d9343b3",
        "977a55fcac0bd64a039137f8777a3ecd4688413b2a1ac35e6b7127d6c7896f90.response":
            "24e57e654208923677d519e9763ec94085e6a3f9b497059fdfad21c7c3dd0489",
        "ee2f0e8f4a43b80c8aa4ff224e46f0ab3729012cc2201ef03c6827b0fa6263b0.request":
            "e9d3b5b6f6346749c0a6b40723e58bc1748471962ee6279dff479302e52923cf",
        "ee2f0e8f4a43b80c8aa4ff224e46f0ab3729012cc2201ef03c6827b0fa6263b0.response":
            "24e57e654208923677d519e9763ec94085e6a3f9b497059fdfad21c7c3dd0489",
        "ee8c125ffc90cb879aa0c4bb648369968718e5828cc38cd6418d65c7fc932c34.request":
            "0bf1e1474bb78dbf1bfaef8c22ed15d1ff9614db89f72f16926b67fd2abf7fa9",
        "ee8c125ffc90cb879aa0c4bb648369968718e5828cc38cd6418d65c7fc932c34.response":
            "24e57e654208923677d519e9763ec94085e6a3f9b497059fdfad21c7c3dd0489",
    }
