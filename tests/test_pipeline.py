import json
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
from alloyforge.pipeline import (
    CorpusStore,
    PipelineError,
    clean_dataset,
    dataset_to_csv,
    ingest_corpus,
    load_dataset,
    percent,
    quality_report_csv,
    run_documents,
    run_extraction,
    summarize,
    write_dataset,
)
from alloyforge.quality import filter_plausible
from alloyforge.records import DocumentId, make_record, serialize_record_set

from tests.conftest import FIXTURES
from tests.scripted import INITIAL_PROMPT_TEXT, MARKERS, ScriptedForwardEngine

FULL_PROMPT = INITIAL_PROMPT_TEXT + "\n" + "\n".join(MARKERS)


class Killed(BaseException):
    """Stands in for the process being killed: run_extraction catches nothing of it."""


class DocsSeen:
    """Passes requests on to ``inner``, records their document ids, and is
    killed on call ``kill_on`` (1-based) if given."""

    def __init__(self, inner, kill_on=None):
        self.inner, self.kill_on = inner, kill_on
        self.docs = []

    def complete(self, request):
        if len(self.docs) + 1 == self.kill_on:
            raise Killed
        self.docs.append(re.search(r"Document (\S+):", request.user_text).group(1))
        return self.inner.complete(request)


class TestIngestCorpus:
    def test_fixture_manifest(self):
        entries = ingest_corpus(FIXTURES / "manifest.csv")
        assert len(entries) == 7
        assert [entry.doc.id for entry in entries] == [f"d0{i}" for i in range(1, 8)]

    def test_duplicate_id(self, tmp_path):
        doc = tmp_path / "a.txt"
        doc.write_text("x", encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            f"doc_id,path,kind\nd1,{doc},plain_text\nd1,{doc},plain_text\n",
            encoding="utf-8",
        )
        with pytest.raises(PipelineError, match=":3: duplicate id 'd1'"):
            ingest_corpus(manifest)

    def test_unreadable_path(self, tmp_path):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("doc_id,path,kind\nd1,missing.txt,plain_text\n", encoding="utf-8")
        with pytest.raises(PipelineError, match=":2: cannot read .*missing.txt"):
            ingest_corpus(manifest)

    @pytest.mark.parametrize("row, message", [
        ("d1,a.txt", "row needs columns"),
        ("d1", "row needs columns"),
        ("d1,a.txt,txt", "unknown document kind 'txt'"),
        (",a.txt,plain_text", "document id must be non-empty"),
    ])
    def test_bad_row_names_manifest_row(self, tmp_path, row, message):
        (tmp_path / "a.txt").write_text("x", encoding="utf-8")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(f"doc_id,path,kind\nd0,a.txt,plain_text\n{row}\n",
                            encoding="utf-8")
        with pytest.raises(PipelineError) as info:
            ingest_corpus(manifest)
        assert type(info.value) is PipelineError
        assert str(info.value).startswith(f"{manifest}:3: {message}")

    def test_mixed_kinds(self, tmp_path):
        text = tmp_path / "a.txt"
        text.write_text("alpha", encoding="utf-8")
        pdf = tmp_path / "b.pdf"
        pdf.write_bytes(b"%PDF-1.4 fake")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            f"doc_id,path,kind\nd1,{text},plain_text\nd2,{pdf},pdf\n", encoding="utf-8"
        )
        entries = ingest_corpus(manifest)
        assert [entry.kind for entry in entries] == ["plain_text", "pdf"]
        corpus = CorpusStore(entries)
        assert corpus.request_document("d1") == ("alpha", ())
        assert corpus.request_document("d2") == (
            "(document d2 is attached as a PDF)", (("d2", b"%PDF-1.4 fake"),)
        )

    def test_request_document_refuses_an_id_not_in_the_manifest(self, corpus7):
        with pytest.raises(PipelineError, match="document 'nope' is not in the corpus manifest"):
            corpus7.request_document("nope")


class TestRunExtraction:
    def test_a_document_not_in_utf8_stops_the_run_by_name_and_resumes_once_fixed(
            self, truth_by_doc, tmp_path):
        docs = {"ok": "alpha", "bad": "The alloy caf\u00e9 was studied.", "ok2": "beta"}
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("doc_id,path,kind\n" + "".join(
            f"{doc},{doc}.txt,plain_text\n" for doc in docs), encoding="utf-8")
        for doc, text in docs.items():
            (tmp_path / f"{doc}.txt").write_bytes(text.encode("latin-1"))
        corpus = CorpusStore(ingest_corpus(manifest))
        out = tmp_path / "run"
        first = DocsSeen(ScriptedForwardEngine(truth_by_doc))
        with pytest.raises(PipelineError) as info:
            run_extraction(corpus, FULL_PROMPT, first, out, parallelism=1)
        assert str(info.value) == (f"document bad: {tmp_path / 'bad.txt'} is not UTF-8 "
                                   "(byte 13: invalid continuation byte)")
        assert first.docs == ["ok"]
        assert (out / "journal.jsonl").exists()

        (tmp_path / "bad.txt").write_text(docs["bad"], encoding="utf-8")
        second = DocsSeen(ScriptedForwardEngine(truth_by_doc))
        result = run_extraction(corpus, FULL_PROMPT, second, out, parallelism=1)
        assert second.docs == ["bad", "ok2"]
        assert set(result.ledger.states) == set(docs)

    def test_statuses_and_dataset(self, corpus8, truth_by_doc, tmp_path):
        engine = ScriptedForwardEngine(truth_by_doc)
        result = run_extraction(corpus8, FULL_PROMPT, engine, tmp_path, parallelism=1)
        counts = result.ledger.counts()
        assert counts == {"pending": 0, "done": 7, "rejected": 1, "failed": 0}
        assert result.ledger.states["d08"].status == "rejected"
        total = sum(len(records) for records in result.dataset.values())
        assert total == 21  # the threshold-99 row never surfaces
        assert (tmp_path / "dataset.jsonl").exists()
        assert (tmp_path / "dataset.csv").exists()
        raw_files = list((tmp_path / "raw").glob("*.txt"))
        assert len(raw_files) == 8  # raw output kept even for the rejected paper

    def test_resume_skips_done(self, corpus8, truth_by_doc, tmp_path):
        first = ScriptedForwardEngine(truth_by_doc)
        run_extraction(corpus8, FULL_PROMPT, first, tmp_path, parallelism=1)
        second = ScriptedForwardEngine(truth_by_doc)
        result = run_extraction(corpus8, FULL_PROMPT, second, tmp_path, parallelism=1)
        assert second.calls == 0
        assert result.engine_calls == 0
        assert result.ledger.counts()["done"] == 7

    def test_failed_docs_recorded_and_retryable(self, corpus8, truth_by_doc, tmp_path):
        class FailsSomeDocs:
            def __init__(self, inner, bad):
                self.inner, self.bad = inner, bad
                self.calls = 0

            def complete(self, request):
                self.calls += 1
                for doc_id in self.bad:
                    if f"Document {doc_id}:" in request.user_text:
                        raise EngineError(f"boom on {doc_id}")
                return self.inner.complete(request)

        flaky = FailsSomeDocs(ScriptedForwardEngine(truth_by_doc), {"d03", "d05"})
        result = run_extraction(corpus8, FULL_PROMPT, flaky, tmp_path, parallelism=1)
        assert result.ledger.counts()["failed"] == 2
        assert result.ledger.states["d03"].status == "failed"

        # a plain resume leaves failures alone; only retry_failed re-calls them
        untouched = ScriptedForwardEngine(truth_by_doc)
        resumed = run_extraction(corpus8, FULL_PROMPT, untouched, tmp_path, parallelism=2)
        assert untouched.calls == 0 and resumed.engine_calls == 0
        assert resumed.ledger.counts()["failed"] == 2
        assert resumed.ledger.states["d03"].attempts == 1

        healthy = ScriptedForwardEngine(truth_by_doc)
        resumed = run_extraction(
            corpus8, FULL_PROMPT, healthy, tmp_path, parallelism=1, retry_failed=True
        )
        assert healthy.calls == 2  # only the failed documents are re-called
        assert resumed.ledger.counts()["failed"] == 0
        assert resumed.ledger.states["d03"].attempts == 2

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_deeply_nested_answer_fails_its_document_only(
        self, corpus8, truth_by_doc, tmp_path, parallelism
    ):
        class NestsOneDoc:
            def __init__(self, inner):
                self.inner = inner

            def complete(self, request):
                if "Document d04:" in request.user_text:
                    return EngineResponse(text="[" * 100_000)
                return self.inner.complete(request)

        engine = NestsOneDoc(ScriptedForwardEngine(truth_by_doc))
        result = run_extraction(corpus8, FULL_PROMPT, engine, tmp_path,
                                parallelism=parallelism)
        assert result.ledger.states["d04"].status == "failed"
        assert result.ledger.counts() == {"pending": 0, "done": 6, "rejected": 1, "failed": 1}
        assert (tmp_path / "ledger.json").exists() and (tmp_path / "dataset.jsonl").exists()

    def test_ledger_of_deep_answers_is_equal_at_parallelism_1_and_4(self, tmp_path):
        # whether a deep answer parses must not depend on the stack the run
        # starts from: pool threads start with a fresh one
        depths = range(850, 1000, 10)
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("doc_id,path,kind\n" + "".join(
            f"n{d},n{d}.txt,plain_text\n" for d in depths), encoding="utf-8")
        for d in depths:
            (tmp_path / f"n{d}.txt").write_text(str(d), encoding="utf-8")

        class Nested:
            def complete(self, request):
                d = int(request.user_text.split()[2])  # the document text
                return EngineResponse(text='{"a": ' * d + '{"alloy_name": "W"}' + "}" * d)

        def run_from(frames, parallelism):
            if frames:
                return run_from(frames - 1, parallelism)
            out = tmp_path / f"run{parallelism}"
            run_extraction(CorpusStore(ingest_corpus(manifest)), FULL_PROMPT, Nested(), out,
                           parallelism=parallelism)
            return (out / "ledger.json").read_bytes()

        assert run_from(40, 1) == run_from(0, 4)

    def test_auth_error_aborts(self, corpus8, tmp_path):
        class BadAuth:
            calls = 0

            def complete(self, request):
                raise AuthError("denied")

        with pytest.raises(AuthError):
            run_extraction(corpus8, FULL_PROMPT, BadAuth(), tmp_path, parallelism=1)
        # the abort still leaves a snapshot, no journal, and a summary
        blob = json.loads((tmp_path / "ledger.json").read_text())
        assert {s["status"] for s in blob.values()} == {"pending"}
        assert not (tmp_path / "journal.jsonl").exists()
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["engine_calls"] == 1
        assert summary["statuses"] == {"done": 0, "rejected": 0, "failed": 0}

    @pytest.mark.parametrize("torn", [
        '{"doc_id": "d05", "attempt": 1, "sta',        # cut off mid-line
        '{"doc_id": "d05", "attempt": 1, "sta\n',      # newline, but not JSON
    ])
    def test_kill_and_resume_matches_uninterrupted_run(self, corpus8, truth_by_doc, tmp_path,
                                                       torn):
        whole = tmp_path / "whole"
        run_extraction(corpus8, FULL_PROMPT, ScriptedForwardEngine(truth_by_doc), whole,
                       parallelism=1)

        run_dir = tmp_path / "killed"
        dies = DocsSeen(ScriptedForwardEngine(truth_by_doc), kill_on=5)
        with pytest.raises(Killed):
            run_extraction(corpus8, FULL_PROMPT, dies, run_dir, parallelism=1)
        assert not (run_dir / "ledger.json").exists()
        journal = run_dir / "journal.jsonl"
        lines = journal.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["doc_id"] for line in lines] == ["d01", "d02", "d03", "d04"]
        with journal.open("a", encoding="utf-8") as fh:
            fh.write(torn)

        resumed = DocsSeen(ScriptedForwardEngine(truth_by_doc))
        result = run_extraction(corpus8, FULL_PROMPT, resumed, run_dir, parallelism=2)
        assert sorted(resumed.docs) == ["d05", "d06", "d07", "d08"]
        assert result.engine_calls == 4
        for name in ("dataset.jsonl", "dataset.csv", "ledger.json"):
            assert (run_dir / name).read_bytes() == (whole / name).read_bytes(), name
        assert not journal.exists()

        again = DocsSeen(ScriptedForwardEngine(truth_by_doc))
        run_extraction(corpus8, FULL_PROMPT, again, run_dir, parallelism=2)
        assert again.docs == []
        assert (run_dir / "ledger.json").read_bytes() == (whole / "ledger.json").read_bytes()

    def test_crash_stops_every_worker(self, corpus8, truth_by_doc, tmp_path):
        inner = ScriptedForwardEngine(truth_by_doc)
        seen = []

        class CrashesOnSecond:
            def complete(self, request):
                doc_id = re.search(r"Document (\S+):", request.user_text).group(1)
                seen.append(doc_id)
                if doc_id == "d02":
                    raise TypeError("not an engine error")
                time.sleep(0.2)
                return inner.complete(request)

        # d01 is still running when d02 crashes, so the crash is not yet
        # raised in the caller when the other worker looks for more work
        with pytest.raises(TypeError):
            run_extraction(corpus8, FULL_PROMPT, CrashesOnSecond(), tmp_path, parallelism=2)
        assert "d02" in seen and set(seen) <= {"d01", "d02"}
        assert not (tmp_path / "ledger.json").exists()
        # the crashed run still reports what it did
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["engine_calls"] == len(seen)

    def test_journal_folds_over_snapshot(self, corpus8, truth_by_doc, tmp_path):
        first = run_extraction(corpus8, FULL_PROMPT, ScriptedForwardEngine(truth_by_doc),
                               tmp_path, parallelism=1)
        # a later attempt journaled after the snapshot wins over it
        line = {"doc_id": "d02", "attempt": 2, "status": "failed", "raw_path": None,
                "detail": "boom", "latency_s": 0.0, "input_tokens": 0, "output_tokens": 0}
        (tmp_path / "journal.jsonl").write_text(json.dumps(line) + "\n", encoding="utf-8")
        engine = ScriptedForwardEngine(truth_by_doc)
        result = run_extraction(corpus8, FULL_PROMPT, engine, tmp_path, parallelism=1)
        assert engine.calls == 0
        assert result.ledger.states["d02"].status == "failed"
        assert result.ledger.states["d02"].attempts == 2
        assert "d02" not in result.dataset
        assert result.dataset["d01"] == first.dataset["d01"]

    def test_corrupt_journal_line_before_the_last_is_refused(self, corpus8, truth_by_doc,
                                                             tmp_path):
        good = {"doc_id": "d01", "attempt": 1, "status": "failed", "raw_path": None,
                "detail": "", "latency_s": 0.0, "input_tokens": 0, "output_tokens": 0}
        (tmp_path / "journal.jsonl").write_text(
            "not json\n" + json.dumps(good) + "\n", encoding="utf-8")
        engine = ScriptedForwardEngine(truth_by_doc)
        with pytest.raises(PipelineError, match="journal.jsonl:1"):
            run_extraction(corpus8, FULL_PROMPT, engine, tmp_path, parallelism=1)
        assert engine.calls == 0

    def test_run_summary(self, corpus8, truth_by_doc, tmp_path):
        engine = ScriptedForwardEngine(truth_by_doc)
        run_extraction(corpus8, FULL_PROMPT, engine, tmp_path, parallelism=2)
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["statuses"] == {"done": 7, "rejected": 1, "failed": 0}
        assert summary["engine_calls"] == 8
        raw = [p.read_text(encoding="utf-8") for p in (tmp_path / "raw").glob("*.txt")]
        assert summary["input_tokens"] == 0
        assert summary["output_tokens"] == sum(len(text) // 4 for text in raw)
        latency = summary["latency_s"]
        assert 0 <= latency["p50"] <= latency["p95"] <= summary["wall_s"]

        # a resume reports only what it did itself
        run_extraction(corpus8, FULL_PROMPT, engine, tmp_path, parallelism=2)
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["statuses"] == {"done": 0, "rejected": 0, "failed": 0}
        assert summary["engine_calls"] == 0
        assert summary["latency_s"] == {"p50": None, "p95": None}
        assert (summary["input_tokens"], summary["output_tokens"]) == (0, 0)

    def test_dataset_rebuilt_from_raw_after_crash(self, corpus8, truth_by_doc, tmp_path):
        engine = ScriptedForwardEngine(truth_by_doc)
        first = run_extraction(corpus8, FULL_PROMPT, engine, tmp_path, parallelism=1)
        reference = (tmp_path / "dataset.jsonl").read_bytes()
        # simulate a crash that lost the assembled dataset but kept raw output
        (tmp_path / "dataset.jsonl").unlink()
        (tmp_path / "dataset.csv").unlink()

        class MustNotBeCalled:
            def complete(self, request):
                raise AssertionError("ledger replay must not re-call the engine")

        rebuilt = run_extraction(corpus8, FULL_PROMPT, MustNotBeCalled(), tmp_path,
                                 parallelism=1)
        assert (tmp_path / "dataset.jsonl").read_bytes() == reference
        assert rebuilt.dataset == first.dataset

    def test_parallel_matches_serial(self, corpus8, truth_by_doc, tmp_path):
        store = TranscriptStore(tmp_path / "transcripts")
        recorder = RecordingEngine(ScriptedForwardEngine(truth_by_doc), store)
        run_extraction(corpus8, FULL_PROMPT, recorder, tmp_path / "serial", parallelism=1)
        run_extraction(
            corpus8, FULL_PROMPT, ReplayEngine(store), tmp_path / "parallel", parallelism=4
        )
        for name in ("dataset.jsonl", "dataset.csv", "ledger.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes(), name


class TestRunDocuments:
    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_engine_error_fails_its_document_and_auth_error_stops_the_rest(self, parallelism):
        ids = ["a", "engine", "b", "auth", "c", "d"]
        unavailable = EngineError("unavailable")
        started = []

        def attempt(doc_id, fatal=False):
            started.append(doc_id)
            if doc_id == "engine":
                raise unavailable
            if doc_id == "auth" and fatal:
                raise AuthError("denied")
            return doc_id.upper()

        results = run_documents(attempt, ids, parallelism)
        assert results == ["A", unavailable, "B", "AUTH", "C", "D"]

        started.clear()
        with pytest.raises(AuthError):
            run_documents(lambda doc_id: attempt(doc_id, fatal=True), ids, parallelism)
        assert "auth" in started
        if parallelism == 1:
            assert started == ["a", "engine", "b", "auth"]


class TestDatasetFiles:
    def test_round_trip(self, truth_by_doc, tmp_path):
        path = tmp_path / "dataset.jsonl"
        write_dataset(truth_by_doc, path, doc_order=sorted(truth_by_doc))
        loaded = load_dataset(path)
        assert loaded == {k: v for k, v in truth_by_doc.items()}

    def test_records_of_a_document_share_its_id(self, truth_by_doc, tmp_path):
        path = tmp_path / "dataset.jsonl"
        write_dataset(truth_by_doc, path)
        for doc_id, recs in load_dataset(path).items():
            assert recs[0].source == DocumentId(doc_id)
            assert all(r.source is recs[0].source for r in recs)

    def test_extracted_pdf_records_round_trip(self, tmp_path):
        (tmp_path / "p01.pdf").write_bytes(b"%PDF-1.4 fake")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("doc_id,path,kind\np01,p01.pdf,pdf\n", encoding="utf-8")
        answer = serialize_record_set([make_record(
            DocumentId("p01"), alloy_name="MoNbTaW", nominal_composition="MoNbTaW",
            phase="BCC", lattice_constant="3.216 A",
        )])

        class Answers:
            def complete(self, request):
                return EngineResponse(text=answer)

        result = run_extraction(CorpusStore(ingest_corpus(manifest)), FULL_PROMPT, Answers(),
                                tmp_path / "run", parallelism=1)
        assert len(result.dataset["p01"]) == 1
        write_dataset(result.dataset, tmp_path / "dataset.jsonl")
        assert load_dataset(tmp_path / "dataset.jsonl") == result.dataset

    def test_csv_export_header(self, truth_by_doc):
        text = dataset_to_csv(truth_by_doc)
        assert text.splitlines()[0] == (
            "doc_id,alloy_name,nominal_composition,measured_composition,"
            "phase,processing_condition,lattice_constant_angstrom"
        )
        assert len(text.splitlines()) == 23

    @staticmethod
    def _refused_as_line_3(tmp_path, line) -> str:
        path = tmp_path / "broken.jsonl"
        good = '{"doc_id": "d0", "alloy_name": "MoNbTaW"}'
        path.write_text(f"{good}\n\n{line}\n{good}\n", encoding="utf-8")
        with pytest.raises(PipelineError) as info:
            load_dataset(path)
        prefix = f"{path}:3: line rejected: "
        assert str(info.value).startswith(prefix)
        return str(info.value)[len(prefix):]

    def test_corrupt_line_rejected(self, tmp_path):
        issue = self._refused_as_line_3(tmp_path, '{"doc_id": "d1", "phase": "BCC"}')
        assert issue == "entry has neither a parseable alloy name nor a nominal composition"

    def test_a_field_that_fails_to_parse_refuses_its_line(self, tmp_path):
        line = '{"doc_id": "d1", "alloy_name": "W", "lattice_constant_angstrom": "3,16 Å"}'
        issue = self._refused_as_line_3(tmp_path, line)
        assert issue.startswith("decimal comma after '3' in lattice field '3,16 Å'")


class TestCleanDataset:
    def test_partition_and_report(self, tmp_path):
        doc = DocumentId("dq")
        good = make_record(doc, nominal_composition="MoNbTaW", lattice_constant=3.2)
        bad_units = make_record(doc, nominal_composition="HfNbTaTiZr",
                                lattice_constant=0.319)
        inconsistent = make_record(
            doc, nominal_composition="Al0.5Ni0.5", measured_composition="Al0.25Ni0.75",
            lattice_constant=3.1,
        )
        result = clean_dataset({"dq": [good, bad_units, inconsistent]})
        assert len(result.partition.rejected_low) == 1
        assert {r["issue"] for r in result.report_rows} == {
            "implausible_low", "composition_inconsistent",
        }
        assert sum(len(v) for v in result.accepted.values()) == 2
        csv_text = quality_report_csv(result.report_rows)
        assert csv_text.splitlines()[0] == "doc_id,alloy,field,issue,original,suggestion"


class TestSummarize:
    def test_percent_anchors(self):
        assert percent(1861, 4648) == 40.0
        assert percent(2787, 4648) == 60.0
        assert percent(186, 311) == 59.8

    def test_synthetic_counts(self):
        doc = DocumentId("ds")
        with_lattice = [
            make_record(doc, nominal_composition="MoNbTaW", phase="BCC",
                        processing="as-cast", lattice_constant=3.2)
            for _ in range(1861)
        ]
        without = [
            make_record(doc, nominal_composition="MoNbTaW", phase="FCC")
            for _ in range(2787)
        ]
        report = summarize({"ds": with_lattice + without})
        assert report.total == 4648
        assert percent(report.with_lattice, report.total) == 40.0
        assert percent(report.without_lattice, report.total) == 60.0
        text = report.to_text()
        assert "(40.0%)" in text and "(60.0%)" in text

    def test_processing_share(self):
        doc = DocumentId("ds")
        records = []
        for i in range(311):
            processing = "as-cast" if i < 186 else "annealed"
            records.append(
                make_record(doc, nominal_composition="MoNbTaW", phase="BCC",
                            processing=processing, lattice_constant=3.2)
            )
        report = summarize({"ds": records})
        assert report.bcc_processing_counts["as_cast"] == 186
        assert percent(186, sum(report.bcc_processing_counts.values())) == 59.8
        assert "(59.8%)" in report.to_text()

    def test_breakdowns_sum(self, truth_by_doc):
        report = summarize(truth_by_doc)
        assert report.with_lattice + report.without_lattice == report.total
        assert sum(report.phase_counts.values()) == report.with_lattice
        bcc = report.phase_counts.get("BCC", 0)
        assert sum(report.bcc_processing_counts.values()) == bcc
        assert sum(c for _, _, c in report.histogram) == len(
            [1 for records in truth_by_doc.values() for r in records
             if r.phase == "BCC" and r.processing == "as_cast"
             and r.lattice_constant is not None]
        )

    def test_outliers_follow_the_band_rule(self):
        doc = DocumentId("ds")
        records = [make_record(doc, nominal_composition="MoNbTaW", lattice_constant=v)
                   for v in (0.3, 1.0, 1.0001, 3.2, 9.999, 10.0, 31.6)]
        records.append(make_record(doc, nominal_composition="MoNbTaW"))
        report = summarize({"ds": records})
        partition = filter_plausible(records)
        assert (report.outlier_low, report.outlier_high) == (2, 2)
        assert (len(partition.rejected_low), len(partition.rejected_high)) == (2, 2)

    def test_an_implausible_value_is_an_outlier_not_a_bin_range(self):
        doc = DocumentId("ds")
        records = [make_record(doc, nominal_composition="MoNbTaW", phase="BCC",
                               processing="as-cast", lattice_constant=v)
                   for v in (3.2, 1e7)]
        started = time.perf_counter()
        report = summarize({"ds": records})
        report.to_text()
        assert time.perf_counter() - started < 1.0
        assert report.histogram == [(3.2, 3.3, 1)]
        assert (report.outlier_low, report.outlier_high) == (0, 1)

    def test_a_value_on_a_bin_edge_opens_its_bin(self):
        doc = DocumentId("ds")
        records = [make_record(doc, nominal_composition="MoNbTaW", phase="BCC",
                               processing="as-cast", lattice_constant=v)
                   for v in (3.2, 3.3, 3.5)]
        lines = summarize({"ds": records}).to_text().splitlines()
        histogram = lines[lines.index("as-cast BCC lattice histogram (A):") + 1:]
        assert histogram == ["  [3.2, 3.3): 1", "  [3.3, 3.4): 1", "  [3.4, 3.5): 0",
                             "  [3.5, 3.6): 1"]

    def test_empty(self):
        report = summarize({})
        assert report.total == 0 and report.histogram == []
        assert report.to_text()


class TestLedgerConservation:
    def test_counts_cover_corpus(self, corpus8, truth_by_doc, tmp_path):
        engine = ScriptedForwardEngine(truth_by_doc)
        result = run_extraction(corpus8, FULL_PROMPT, engine, tmp_path, parallelism=2)
        counts = result.ledger.counts()
        assert sum(counts.values()) == len(corpus8.ids)
        blob = json.loads((tmp_path / "ledger.json").read_text())
        assert set(blob) == set(corpus8.ids)
