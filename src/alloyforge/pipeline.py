"""Corpus ingestion, large-scale extraction with a resumable ledger, and reporting.

Raw completions are persisted verbatim per document before any parsing, each
finished attempt is appended to the run's journal, and the dataset files are
assembled deterministically in manifest order, so a run is bitwise
reproducible at any parallelism level and an interrupted run resumes without
re-calling finished documents.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import composition, quality
from .composition import NothingToCompare, consistency_check
from .engines import AuthError, ContextTooLong, EngineError, EngineRequest
from .records import (
    GROUND_TRUTH_COLUMNS,
    SCHEMA_KEYS,
    AlloyRecord,
    DocumentId,
    MalformedOutput,
    RecordError,
    RecordSetParseResult,
    parse_record_set,
    record_from_object,
    record_to_object,
)

# substring (case-insensitive) the extraction prompt instructs the model to
# emit for publications without relevant alloy data
REJECTION_SENTINEL = "NO HEA DATA"

LEDGER_FILENAME = "ledger.json"
JOURNAL_FILENAME = "journal.jsonl"
SUMMARY_FILENAME = "run_summary.json"
RAW_DIRNAME = "raw"
DATASET_FILENAME = "dataset.jsonl"
DATASET_CSV_FILENAME = "dataset.csv"

TERMINAL_STATUSES = ("done", "rejected", "failed")


class PipelineError(Exception):
    pass


class DuplicateId(PipelineError):
    pass


class UnreadablePath(PipelineError):
    pass


class CorpusMiss(PipelineError):
    """A document id was requested that the corpus does not contain."""


@dataclass(frozen=True)
class ManifestEntry:
    doc: DocumentId
    path: Path


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry]

    @property
    def ids(self) -> list[str]:
        return [entry.doc.id for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


class CorpusStore:
    """Content access over a manifest, keyed by document id."""

    def __init__(self, manifest: CorpusManifest):
        self.manifest = manifest
        self._by_id = {entry.doc.id: entry for entry in manifest.entries}

    @property
    def ids(self) -> list[str]:
        return self.manifest.ids

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._by_id

    def entry(self, doc_id: str) -> ManifestEntry:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise CorpusMiss(doc_id) from None

    def text(self, doc_id: str) -> str:
        return self.entry(doc_id).path.read_text(encoding="utf-8")

    def content(self, doc_id: str):
        entry = self.entry(doc_id)
        if entry.doc.kind == "pdf":
            return entry.path.read_bytes()
        return entry.path.read_text(encoding="utf-8")


def ingest_corpus(manifest_path) -> CorpusManifest:
    """Load and validate a ``doc_id,path,kind`` manifest CSV."""
    manifest_path = Path(manifest_path)
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    with manifest_path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        needed = {"doc_id", "path", "kind"}
        if not needed.issubset(reader.fieldnames or []):
            raise PipelineError(f"{manifest_path}: manifest needs columns {sorted(needed)}")
        for row_index, row in enumerate(reader, start=2):
            where = f"{manifest_path}:{row_index}"
            if any(row[column] is None for column in needed):
                raise PipelineError(f"{where}: row needs columns {sorted(needed)}")
            doc_id = row["doc_id"].strip()
            if doc_id in seen:
                raise DuplicateId(f"{where}: duplicate id {doc_id!r}")
            seen.add(doc_id)
            path = Path(row["path"].strip())
            if not path.is_absolute():
                path = manifest_path.parent / path
            if not path.is_file():
                raise UnreadablePath(f"{where}: cannot read {path}")
            try:
                doc = DocumentId(doc_id, row["kind"].strip())
            except RecordError as exc:
                raise PipelineError(f"{where}: {exc}") from None
            entries.append(ManifestEntry(doc=doc, path=path))
    return CorpusManifest(entries=entries)


def build_document_request(
    prompt_text: str, doc_id: str, corpus: CorpusStore, temperature: float = 0.0
) -> EngineRequest:
    """Assemble the extraction request for one document.

    Plain-text documents are inlined into the user text; PDFs ride along as
    opaque attachments.
    """
    entry = corpus.entry(doc_id)
    if entry.doc.kind == "plain_text":
        return EngineRequest(
            system_text=prompt_text,
            user_text=(
                f"Document {doc_id}:\n\n{corpus.text(doc_id)}\n\n"
                "Extract the alloy data now."
            ),
            temperature=temperature,
        )
    return EngineRequest(
        system_text=prompt_text,
        user_text=f"Extract the alloy data from the attached document ({doc_id}).",
        attachments=((entry.doc, corpus.content(doc_id)),),
        temperature=temperature,
    )


def is_rejection(completion_text: str) -> bool:
    return REJECTION_SENTINEL.lower() in completion_text.lower()


# --- run ledger -------------------------------------------------------------------


@dataclass
class DocState:
    status: str = "pending"
    attempts: int = 0
    raw_path: str | None = None   # relative to the run directory
    detail: str = ""


@dataclass
class RunLedger:
    states: dict[str, DocState] = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        tally = {"pending": 0, "done": 0, "rejected": 0, "failed": 0}
        for state in self.states.values():
            tally[state.status] += 1
        return tally

    def to_json(self) -> str:
        return json.dumps(
            {
                doc_id: {
                    "status": s.status,
                    "attempts": s.attempts,
                    "raw_path": s.raw_path,
                    "detail": s.detail,
                }
                for doc_id, s in self.states.items()
            },
            indent=1,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunLedger":
        blob = json.loads(text)
        return cls(
            states={
                doc_id: DocState(
                    status=s["status"],
                    attempts=int(s["attempts"]),
                    raw_path=s.get("raw_path"),
                    detail=s.get("detail", ""),
                )
                for doc_id, s in blob.items()
            }
        )


def _safe_filename(doc_id: str) -> str:
    stem = re.sub(r"[^A-Za-z0-9._-]+", "_", doc_id).strip("_") or "doc"
    suffix = hashlib.sha1(doc_id.encode("utf-8")).hexdigest()[:8]
    return f"{stem}-{suffix}.txt"


@dataclass
class ExtractionResult:
    dataset: dict[str, list[AlloyRecord]]
    ledger: RunLedger
    issues: list[tuple[str, str]]       # (doc_id, message)
    engine_calls: int


def _load_ledger(out_dir: Path) -> RunLedger:
    """The ``ledger.json`` snapshot, if any, with the run journal folded over it.

    Journal lines carry a document's absolute state, so folding them in order
    gives the ledger as it stood after the last complete line. A crash can
    leave the last line torn (no newline, or not JSON): it is ignored and cut
    off the file, so that the next append starts a line of its own.
    """
    ledger_path = out_dir / LEDGER_FILENAME
    ledger = (
        RunLedger.from_json(ledger_path.read_text(encoding="utf-8"))
        if ledger_path.exists()
        else RunLedger()
    )
    journal_path = out_dir / JOURNAL_FILENAME
    if not journal_path.exists():
        return ledger
    data = journal_path.read_bytes()
    *lines, tail = data.split(b"\n")
    kept = 0
    for number, line in enumerate(lines, start=1):
        try:
            entry = json.loads(line)
        except ValueError:
            if number == len(lines) and not tail:
                break
            raise PipelineError(f"{journal_path}:{number}: unreadable journal line") from None
        ledger.states[entry["doc_id"]] = DocState(
            entry["status"], entry["attempt"], entry["raw_path"], entry["detail"]
        )
        kept += len(line) + 1
    if kept < len(data):
        with journal_path.open("r+b") as fh:
            fh.truncate(kept)
    return ledger


def _run_summary(entries: list[dict], engine_calls: int, wall_s: float) -> dict:
    """What one run did, from the journal lines it appended."""
    statuses = dict.fromkeys(TERMINAL_STATUSES, 0)
    for entry in entries:
        statuses[entry["status"]] += 1
    latencies = sorted(entry["latency_s"] for entry in entries)

    def nearest_rank(q: float) -> float | None:
        if not latencies:
            return None
        return latencies[max(0, math.ceil(q * len(latencies)) - 1)]

    return {
        "statuses": statuses,
        "engine_calls": engine_calls,
        "wall_s": wall_s,
        "latency_s": {"p50": nearest_rank(0.50), "p95": nearest_rank(0.95)},
        "input_tokens": sum(entry["input_tokens"] for entry in entries),
        "output_tokens": sum(entry["output_tokens"] for entry in entries),
    }


def run_documents(attempt, doc_ids, parallelism: int) -> list:
    """Call ``attempt`` on each document id; return the results in input order.

    This is the one place that bounds how many engine calls are in flight
    and decides what an engine error does. At parallelism 1 or below the
    calls run inline, above it on a pool of that many threads. An
    ``EngineError`` other than an ``AuthError`` fails only its document: the
    exception is that document's result and the others keep running. Any
    other exception, an ``AuthError`` included, keeps every later call from
    starting and propagates.
    """
    stop = threading.Event()

    def guarded(doc_id):
        if stop.is_set():
            return None
        try:
            return attempt(doc_id)
        except AuthError:
            stop.set()
            raise
        except EngineError as exc:
            return exc
        except BaseException:
            stop.set()
            raise

    if parallelism <= 1:
        # a one-worker pool only adds thread hand-offs: on a 2-core host they
        # cost ~14% of the perfbench extract replay stage and doubled the
        # curate optimize stage
        return [guarded(doc_id) for doc_id in doc_ids]
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(guarded, doc_ids))


def run_extraction(
    corpus: CorpusStore,
    prompt_text: str,
    engine,
    out_dir,
    parallelism: int = 4,
    temperature: float = 1.0,
    retry_failed: bool = False,
) -> ExtractionResult:
    """Extract every manifest document, persisting raw output and a status ledger.

    Every document ends in a terminal state (done, rejected, failed). Raw
    completion text is written before parsing, and each finished attempt is
    then appended to ``journal.jsonl``; when the run ends, ``ledger.json`` is
    written once and the journal removed. Re-running resumes from the ledger,
    with the journal of an interrupted run folded in, and calls the engine
    only for pending documents, so documents already done, rejected or failed
    are never re-called; ``retry_failed`` returns failed documents to pending
    first. An engine error fails only its document. Any other exception
    raised while attempting a document, an authentication failure included,
    keeps every later call from starting and propagates; an authentication
    failure still writes ``ledger.json``, any other exception leaves the
    journal for a resume. Each run, aborted or not, reports what it did in
    ``run_summary.json``.
    """
    started = time.perf_counter()
    out_dir = Path(out_dir)
    raw_dir = out_dir / RAW_DIRNAME
    raw_dir.mkdir(parents=True, exist_ok=True)
    journal_path = out_dir / JOURNAL_FILENAME

    ledger = _load_ledger(out_dir)
    for doc_id in corpus.ids:
        ledger.states.setdefault(doc_id, DocState())
        if retry_failed and ledger.states[doc_id].status == "failed":
            ledger.states[doc_id] = DocState(attempts=ledger.states[doc_id].attempts)

    lock = threading.Lock()
    calls = 0
    entries: list[dict] = []                        # this run's journal lines
    parsed: dict[str, RecordSetParseResult] = {}    # documents this run marked done

    def finish(doc_id, state, latency_s, response=None, result=None) -> None:
        entry = {
            "doc_id": doc_id,
            "attempt": state.attempts,
            "status": state.status,
            "raw_path": state.raw_path,
            "detail": state.detail,
            "latency_s": latency_s,
            "input_tokens": response.input_tokens if response else 0,
            "output_tokens": response.output_tokens if response else 0,
        }
        line = (json.dumps(entry, sort_keys=True) + "\n").encode("utf-8")
        with lock:
            journal.write(line)
            journal.flush()
            ledger.states[doc_id] = state
            entries.append(entry)
            if result is not None:
                parsed[doc_id] = result

    def attempt_document(doc_id: str) -> None:
        nonlocal calls
        attempt = ledger.states[doc_id].attempts + 1
        request = build_document_request(prompt_text, doc_id, corpus, temperature)
        with lock:
            calls += 1
        called = time.perf_counter()
        try:
            response = engine.complete(request)
        except ContextTooLong as exc:
            finish(doc_id, DocState("rejected", attempt, None, f"context too long: {exc}"),
                   time.perf_counter() - called)
            return
        except AuthError:
            raise
        except EngineError as exc:
            finish(doc_id, DocState("failed", attempt, None, str(exc)),
                   time.perf_counter() - called)
            return
        latency_s = time.perf_counter() - called
        raw_name = _safe_filename(doc_id)
        (raw_dir / raw_name).write_bytes(response.text.encode("utf-8"))
        raw_rel = f"{RAW_DIRNAME}/{raw_name}"
        result = None
        if is_rejection(response.text):
            status, detail = "rejected", "model declared the document irrelevant"
        else:
            try:
                result = parse_record_set(response.text, corpus.entry(doc_id).doc)
                status, detail = "done", ""
            except MalformedOutput as exc:
                status, detail = "failed", str(exc)
        finish(doc_id, DocState(status, attempt, raw_rel, detail), latency_s, response, result)

    pending = [d for d in corpus.ids if ledger.states[d].status == "pending"]
    try:
        with journal_path.open("ab") as journal:
            run_documents(attempt_document, pending, parallelism)
    except AuthError:
        _save_ledger(ledger, out_dir)
        raise
    else:
        _save_ledger(ledger, out_dir)
        dataset, issues = _rebuild_dataset(corpus, ledger, out_dir, parsed)
        write_dataset(dataset, out_dir / DATASET_FILENAME, corpus.ids)
        (out_dir / DATASET_CSV_FILENAME).write_text(
            dataset_to_csv(dataset, corpus.ids), encoding="utf-8"
        )
    finally:
        summary = _run_summary(entries, calls, time.perf_counter() - started)
        (out_dir / SUMMARY_FILENAME).write_text(
            json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return ExtractionResult(dataset=dataset, ledger=ledger, issues=issues, engine_calls=calls)


def _save_ledger(ledger: RunLedger, out_dir: Path) -> None:
    """Write the ``ledger.json`` snapshot atomically, then remove the journal."""
    # journal lines carry absolute state, so a crash between these two steps
    # leaves a journal that folds over the new snapshot to the same ledger
    ledger_path = out_dir / LEDGER_FILENAME
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(ledger.to_json(), encoding="utf-8")
    tmp.replace(ledger_path)
    (out_dir / JOURNAL_FILENAME).unlink()


def _rebuild_dataset(corpus: CorpusStore, ledger: RunLedger, out_dir: Path,
                     parsed: dict[str, RecordSetParseResult]):
    """Assemble the dataset in manifest order; the ledger is authoritative.

    ``parsed`` holds the parse of every document this run marked done; the
    raw responses of documents finished in an earlier run are read back
    byte for byte and parsed here.
    """
    dataset: dict[str, list[AlloyRecord]] = {}
    issues: list[tuple[str, str]] = []
    for doc_id in corpus.ids:
        state = ledger.states.get(doc_id)
        if state is None or state.status != "done" or not state.raw_path:
            continue
        result = parsed.get(doc_id)
        if result is None:
            text = (out_dir / state.raw_path).read_bytes().decode("utf-8")
            result = parse_record_set(text, corpus.entry(doc_id).doc)
        dataset[doc_id] = result.records
        issues.extend((doc_id, issue.message) for issue in result.issues)
    return dataset, issues


# --- dataset persistence -------------------------------------------------------------


def write_dataset(dataset: dict[str, list[AlloyRecord]], path, doc_order=None) -> None:
    """Write the whole JSON-lines dataset: one record per line with its doc id.

    Documents follow ``doc_order`` (sorted ids by default); the file is
    replaced, not appended to.
    """
    order = doc_order if doc_order is not None else sorted(dataset)
    lines = []
    for doc_id in order:
        for record in dataset.get(doc_id, []):
            obj = {"doc_id": doc_id}
            obj.update(record_to_object(record))
            lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_dataset(path) -> dict[str, list[AlloyRecord]]:
    dataset: dict[str, list[AlloyRecord]] = {}
    dropped = 0
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        doc_id = obj.pop("doc_id")
        record, issues = record_from_object(obj, DocumentId(doc_id))
        if record is None:
            dropped += 1
            continue
        dataset.setdefault(doc_id, []).append(record)
    if dropped:
        raise PipelineError(f"{path}: {dropped} dataset line(s) failed to parse")
    return dataset


def dataset_to_csv(dataset: dict[str, list[AlloyRecord]], doc_order=None) -> str:
    order = doc_order if doc_order is not None else sorted(dataset)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GROUND_TRUTH_COLUMNS)
    for doc_id in order:
        for record in dataset.get(doc_id, []):
            obj = record_to_object(record)
            writer.writerow([doc_id] + [obj[k] for k in SCHEMA_KEYS])
    return out.getvalue()


# --- cleaning ----------------------------------------------------------------------


@dataclass
class CleanResult:
    accepted: dict[str, list[AlloyRecord]]
    partition: quality.PlausibilityPartition
    report_rows: list[dict[str, str]]


def clean_dataset(
    dataset: dict[str, list[AlloyRecord]],
    l1_threshold: float = composition.DEFAULT_L1_THRESHOLD,
    cosine_threshold: float = composition.DEFAULT_COSINE_THRESHOLD,
) -> CleanResult:
    """Plausibility screen plus composition consistency checks over a dataset."""
    flat = [record for doc_id in sorted(dataset) for record in dataset[doc_id]]
    partition = quality.filter_plausible(flat)
    flagged = []
    for record in flat:
        try:
            reports = consistency_check(record, l1_threshold, cosine_threshold)
        except NothingToCompare:
            continue
        flagged.extend((record, report) for report in reports if report.flagged)
    rows = quality.quality_report_rows(partition, flagged)
    # filter by object identity: equal records in different documents must
    # pass or fail independently
    accepted_set = {id(record) for record in partition.accepted}
    accepted = {
        doc_id: [record for record in records if id(record) in accepted_set]
        for doc_id, records in dataset.items()
    }
    accepted = {doc_id: records for doc_id, records in accepted.items() if records}
    return CleanResult(accepted=accepted, partition=partition, report_rows=rows)


def quality_report_csv(rows: list[dict[str, str]]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(
        out, fieldnames=["doc_id", "alloy", "field", "issue", "original", "suggestion"],
        lineterminator="\n",
    )
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return out.getvalue()


# --- summary reporting ----------------------------------------------------------------


def percent(part: int, whole: int) -> float:
    """Share of ``part`` in ``whole`` as a percentage rounded to one decimal."""
    return round(100.0 * part / whole, 1) if whole else 0.0


@dataclass
class SummaryReport:
    total: int
    with_lattice: int
    without_lattice: int
    phase_counts: dict[str, int]              # among records with lattice data
    bcc_processing_counts: dict[str, int]     # among single-phase BCC with lattice
    histogram: list[tuple[float, float, int]]  # (lo, hi, count) for as-cast BCC
    outlier_low: int
    outlier_high: int

    def to_text(self) -> str:
        lines = [f"entries: {self.total}"]
        lines.append(
            f"  with lattice constant: {self.with_lattice}"
            f" ({percent(self.with_lattice, self.total)}%)"
        )
        lines.append(
            f"  without lattice constant: {self.without_lattice}"
            f" ({percent(self.without_lattice, self.total)}%)"
        )
        lines.append("phases (entries with lattice data):")
        for kind, count in sorted(self.phase_counts.items()):
            lines.append(f"  {kind}: {count} ({percent(count, self.with_lattice)}%)")
        bcc_total = sum(self.bcc_processing_counts.values())
        lines.append("processing (single-phase BCC):")
        for kind, count in sorted(self.bcc_processing_counts.items()):
            lines.append(f"  {kind}: {count} ({percent(count, bcc_total)}%)")
        lines.append(
            f"outliers: {self.outlier_low} below {quality.PLAUSIBLE_LO:g} A,"
            f" {self.outlier_high} above {quality.PLAUSIBLE_HI:g} A"
        )
        lines.append("as-cast BCC lattice histogram (A):")
        for lo, hi, count in self.histogram:
            lines.append(f"  [{lo:.1f}, {hi:.1f}): {count}")
        return "\n".join(lines)


def summarize(dataset) -> SummaryReport:
    """Dataset breakdowns: lattice presence, phases, processing, histogram, outliers."""
    if isinstance(dataset, dict):
        records = [r for doc_id in sorted(dataset) for r in dataset[doc_id]]
    else:
        records = list(dataset)
    with_lattice = [r for r in records if r.lattice_constant is not None]
    phase_counts: dict[str, int] = {}
    for record in with_lattice:
        phase_counts[record.phase.kind] = phase_counts.get(record.phase.kind, 0) + 1
    bcc = [r for r in with_lattice if r.phase.kind == "BCC"]
    processing_counts: dict[str, int] = {}
    for record in bcc:
        kind = record.processing.kind
        processing_counts[kind] = processing_counts.get(kind, 0) + 1
    as_cast_bcc = [r for r in bcc if r.processing.kind == "as_cast"]
    values = [r.lattice_constant.value for r in as_cast_bcc]
    histogram = _histogram(values, width=0.1)
    return SummaryReport(
        total=len(records),
        with_lattice=len(with_lattice),
        without_lattice=len(records) - len(with_lattice),
        phase_counts=phase_counts,
        bcc_processing_counts=processing_counts,
        histogram=histogram,
        outlier_low=sum(1 for r in with_lattice
                        if r.lattice_constant.value <= quality.PLAUSIBLE_LO),
        outlier_high=sum(1 for r in with_lattice
                         if r.lattice_constant.value >= quality.PLAUSIBLE_HI),
    )


def _histogram(values: list[float], width: float) -> list[tuple[float, float, int]]:
    if not values:
        return []
    lo_edge = math.floor(min(values) / width) * width
    hi_edge = math.ceil(max(values) / width) * width
    if hi_edge <= lo_edge:
        hi_edge = lo_edge + width
    n_bins = int(round((hi_edge - lo_edge) / width))
    counts = [0] * n_bins
    for v in values:
        idx = min(int((v - lo_edge) / width), n_bins - 1)
        counts[idx] += 1
    return [
        (lo_edge + i * width, lo_edge + (i + 1) * width, counts[i]) for i in range(n_bins)
    ]
