"""The three benchmark workloads: set-up, one measured iteration and its checks.

Each workload drives alloyforge only through its public functions, the way
the CLI does, with scripted in-process engines that answer at zero latency
(a traced run times them, so that their cost can be subtracted). ``setup``
returns the seconds it spent writing input files and ``iterate`` the
iteration's stage timings; every comparison against the
generator's oracle goes through ``Checks``. ``TRACED`` lists, per workload,
the functions a traced run wraps where their callers look them up.
"""

from __future__ import annotations

import re
import statistics
import threading
import time
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from alloyforge import engines, evaluation, features, ml, optimizer, pipeline, quality, records
from alloyforge.composition import Composition

import generate

TEMPERATURE = 1.0
DOCUMENT_KEY = re.compile(r"Document (\S+):")
CALIBRATION_LOOP = 200_000


class Checks:
    """Correctness checks attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class ScriptedEngine:
    """Zero-latency engine answering from a script keyed by a regex on the user text.

    ``answer(key)`` returns the completion text or raises an engine error.
    Calls and the keys asked for are recorded.
    """

    supports_attachments = True

    def __init__(self, role: str, pattern, answer):
        self.role = role
        self.pattern = re.compile(pattern)
        self.answer = answer
        self.calls = 0
        self.keys: list[str] = []
        self._lock = threading.Lock()

    def complete(self, request: engines.EngineRequest) -> engines.EngineResponse:
        key = self.pattern.search(request.user_text).group(1)
        with self._lock:
            self.calls += 1
            self.keys.append(key)
        text = self.answer(key)
        return engines.EngineResponse(text=text, input_tokens=len(request.user_text) // 4,
                                      output_tokens=len(text) // 4)


class Witness:
    """Passes each request on to ``engine`` and records the document it is for."""

    def __init__(self, engine):
        self.engine = engine
        self.supports_attachments = engine.supports_attachments
        self.keys: list[str] = []

    def complete(self, request: engines.EngineRequest) -> engines.EngineResponse:
        self.keys.append(DOCUMENT_KEY.search(request.user_text).group(1))
        return self.engine.complete(request)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes (median of three): the machine's current speed."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Stages:
    """Wall time of an iteration's stages, with the calibration loop run before
    each stage and after the last; a traced run also gets a span per stage."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: list[float] = []
        self.calibration = [calibrate()]

    @contextmanager
    def __call__(self, name: str):
        with self.tracer.span(f"phase.{name}") if self.tracer is not None else nullcontext():
            start = time.perf_counter()
            yield
            self.seconds.append(time.perf_counter() - start)
        self.calibration.append(calibrate())

    def record(self) -> dict:
        """Stage seconds, and each stage in units of the calibration loop around it."""
        pairs = zip(self.calibration, self.calibration[1:])
        return {"stage_s": self.seconds,
                "stage_cal": [s / ((a + b) / 2) for s, (a, b) in zip(self.seconds, pairs)]}


def corpus_files(workdir: Path, texts: dict[str, str]) -> dict[Path, str]:
    """Plain-text documents and their manifest, as files to write."""
    files = {workdir / "corpus" / f"{doc_id}.txt": text for doc_id, text in texts.items()}
    rows = ["doc_id,path,kind"] + [f"{doc_id},corpus/{doc_id}.txt,plain_text" for doc_id in texts]
    files[workdir / "manifest.csv"] = "\n".join(rows) + "\n"
    return files


def write_inputs(files: dict[Path, str]) -> float:
    """Write a set-up's input files; returns the seconds it took.

    Creating files costs kernel time that on a shared host swings by an order
    of magnitude from one second to the next, and the benchmark's own writes
    are the same in every version of alloyforge, so set-up time leaves them out.
    """
    start = time.perf_counter()
    for path, text in files.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return time.perf_counter() - start


def ingest(workdir: Path) -> pipeline.CorpusStore:
    """Ingest the corpus the way the CLI does."""
    return pipeline.CorpusStore(pipeline.ingest_corpus(workdir / "manifest.csv"))


# --- extract ------------------------------------------------------------------------


class Extract:
    """fresh (recording, parallelism 2) -> replay (parallelism 1) -> resume."""

    name = "extract"
    sizes = {"full": 400, "tiny": 40}
    # terminal status per scripted outcome: (fresh and resume, replay); a
    # raise is never recorded, so replay misses it and fails the document
    STATUS = {
        "valid": ("done", "done"),
        "sentinel": ("rejected", "rejected"),
        "malformed": ("failed", "failed"),
        "context": ("rejected", "failed"),
        "engine_error": ("failed", "failed"),
    }

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n_docs = self.sizes[size]

    def setup(self, workdir: Path) -> float:
        self.docs = generate.extract_corpus(self.seed, self.n_docs)
        self.by_id = {doc.doc_id: doc for doc in self.docs}
        written = write_inputs(corpus_files(workdir, {doc.doc_id: doc.text for doc in self.docs}))
        self.corpus = ingest(workdir)
        self.prompt = optimizer.default_extraction_prompt()
        return written

    def _answer(self, doc_id: str) -> str:
        doc = self.by_id[doc_id]
        if doc.outcome == "context":
            raise engines.ContextTooLong(f"{doc_id} exceeds the context window")
        if doc.outcome == "engine_error":
            raise engines.EngineError(f"{doc_id}: upstream returned 500")
        return doc.answer

    def _run(self, engine, out_dir: Path, parallelism: int):
        return pipeline.run_extraction(self.corpus, self.prompt, engine, out_dir,
                                       parallelism=parallelism, temperature=TEMPERATURE)

    def iterate(self, run_dir: Path, checks: Checks, tracer=None) -> dict:
        store = engines.TranscriptStore(run_dir / "transcripts")
        inner = ScriptedEngine("forward", DOCUMENT_KEY, self._answer)
        recording = engines.RecordingEngine(inner, store)
        fresh_dir = run_dir / "fresh"
        stages = Stages(tracer)
        with stages("fresh"):
            fresh = self._run(recording, fresh_dir, 2)
        with stages("replay"):
            replay = self._run(engines.ReplayEngine(store), run_dir / "replay", 1)
        fresh_bytes = (fresh_dir / "dataset.jsonl").read_bytes()
        before = inner.calls
        resumed = Witness(recording)
        with stages("resume"):
            resume = self._run(resumed, fresh_dir, 2)

        for doc in self.docs:
            want, want_replay = self.STATUS[doc.outcome]
            got = fresh.ledger.states[doc.doc_id].status
            checks.check(got == want, f"fresh {doc.doc_id}: {got} != {want}")
            got = replay.ledger.states[doc.doc_id].status
            checks.check(got == want_replay, f"replay {doc.doc_id}: {got} != {want_replay}")
            got = resume.ledger.states[doc.doc_id].status
            checks.check(got == want, f"resume {doc.doc_id}: {got} != {want}")
            n = len(fresh.dataset.get(doc.doc_id, []))
            checks.check(n == doc.n_records, f"{doc.doc_id}: {n} records != {doc.n_records}")
        checks.check(not fresh.issues, f"fresh run reported field issues: {fresh.issues[:3]}")
        checks.check(fresh_bytes == (run_dir / "replay" / "dataset.jsonl").read_bytes(),
                     "dataset.jsonl differs between fresh (parallelism 2) and replay (1)")
        checks.check(fresh_bytes == (fresh_dir / "dataset.jsonl").read_bytes(),
                     "resume rewrote dataset.jsonl differently")
        # resume must not call the engine for a finished (done or rejected)
        # document; whether it re-calls failed ones without retry_failed is
        # left open here and shows in pipeline.engine_calls_reported.resume
        failed = {d.doc_id for d in self.docs if self.STATUS[d.outcome][0] == "failed"}
        raised = {d.doc_id for d in self.docs if d.outcome == "engine_error"}
        checks.check(set(resumed.keys) <= failed, "resume called the engine for a finished document")
        checks.check(set(inner.keys[before:]) <= raised,
                     "resume reached the inner engine for a document that did not raise EngineError")
        checks.check(resume.engine_calls == len(resumed.keys),
                     f"resume reported {resume.engine_calls} engine calls, made {len(resumed.keys)}")
        checks.check(fresh.engine_calls == self.n_docs == replay.engine_calls,
                     "fresh or replay did not call the engine once per document")
        fresh_s, replay_s, resume_s = stages.seconds
        return {
            **stages.record(),
            "fresh_docs_per_s": self.n_docs / fresh_s,
            "replay_docs_per_s": self.n_docs / replay_s,
            "resume_s": resume_s,
            "done_docs": fresh.ledger.counts()["done"],
        }


# --- curate -------------------------------------------------------------------------


class Curate:
    """evaluate -> clean, featurize, summarize -> optimize on the annotated subset."""

    name = "curate"
    # (documents, annotated documents the optimizer runs on, same-alloy shapes);
    # the tiny size exists for the benchmark's own tests
    sizes = {"full": (2000, 8, generate.SAME_ALLOY_SHAPES), "tiny": (20, 2, ((7, 7), (8, 8)))}
    COMPOSITE = (evaluation.COMPOSITE_FIELD,) + evaluation.DEFAULT_FIELDS

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n_docs, self.n_subset, self.shapes = self.sizes[size]

    def setup(self, workdir: Path) -> float:
        self.data = generate.curate_data(self.seed, self.n_docs, self.n_subset, self.shapes)
        self.dataset_path = workdir / "dataset.jsonl"
        self.truth_path = workdir / "ground_truth.csv"
        written = write_inputs({self.dataset_path: self.data.dataset_jsonl(),
                                self.truth_path: self.data.truth_csv(),
                                **corpus_files(workdir, self.data.texts)})
        self.corpus = ingest(workdir)
        self.expected = {
            "composite": self.data.expected_counts(self.COMPOSITE),
            "default": self.data.expected_counts(evaluation.DEFAULT_FIELDS),
            "subset": self.data.expected_counts(evaluation.DEFAULT_FIELDS, set(self.data.subset)),
            "clean": self.data.expected_clean(),
            "optimize": self.data.expected_optimize(),
        }
        return written

    def _engines(self):
        def rewrite(prompt: str) -> str:
            rule = f"EXTRACTION RULE {prompt.count('EXTRACTION RULE') + 1}: report every alloy."
            return f"The critiques show omissions.\n<IMPROVED_PROMPT>\n{prompt}\n{rule}\n</IMPROVED_PROMPT>"

        def verdict(doc_id: str) -> str:
            aligned = self.data.by_id(doc_id).aligned
            return f"Compared entry by entry.\nVERDICT: {'ALIGNED' if aligned else 'MISALIGNED'}"

        return (
            ScriptedEngine("forward", DOCUMENT_KEY, self.data.forward_answer),
            ScriptedEngine("backward",
                           re.compile(r"<CURRENT_PROMPT>\n(.*?)\n</CURRENT_PROMPT>", re.DOTALL),
                           rewrite),
            ScriptedEngine("evaluator", r"Paper ref: (\S+)", verdict),
        )

    def iterate(self, run_dir: Path, checks: Checks, tracer=None) -> dict:
        forward, backward, evaluator = self._engines()
        stages = Stages(tracer)
        with stages("evaluate"):
            dataset = pipeline.load_dataset(self.dataset_path)
            truth = records.group_by_doc(records.load_ground_truth(self.truth_path))
            scored = {doc: recs for doc, recs in dataset.items() if doc in truth}
            composite = evaluation.evaluate_run(scored, truth, fields=self.COMPOSITE)
            default = evaluation.evaluate_run(scored, truth)
        with stages("clean_featurize"):
            clean = pipeline.clean_dataset(dataset)
            accepted = [r for doc in sorted(clean.accepted) for r in clean.accepted[doc]]
            featurized = features.featurize_dataset(accepted, features.default_table())
            summary = pipeline.summarize(dataset)
        with stages("optimize"):
            subset_truth = {doc: truth[doc] for doc in self.data.subset}
            history = optimizer.optimize(
                optimizer.Prompt(text=optimizer.default_extraction_prompt()),
                self.corpus, subset_truth,
                optimizer.OptimizationConfig(
                    forward_engine=forward, backward_engine=backward, evaluator_engine=evaluator,
                    epochs=generate.OPTIMIZE_EPOCHS, batch_size=generate.OPTIMIZE_BATCH),
            )

        for label, report in (("composite", composite), ("default", default)):
            for name, want in self.expected[label].items():
                c = report.counts[name]
                got = (c.tp, c.fp, c.fn)
                checks.check(got == want, f"evaluate {label} {name}: {got} != {want}")
        part, want = clean.partition, self.expected["clean"]
        for name, got in (("accepted", len(part.accepted)),
                          ("rejected_low", len(part.rejected_low)),
                          ("rejected_high", len(part.rejected_high)),
                          ("flagged", len(clean.report_rows) - len(part.rejected_low)
                           - len(part.rejected_high)),
                          ("featurized", len(featurized.y)),
                          ("records", summary.total),
                          ("with_lattice", summary.with_lattice)):
            checks.check(got == want[name], f"clean {name}: {got} != {want[name]}")
        checks.check(bool(np.isfinite(featurized.X).all()), "non-finite descriptor")
        want = self.expected["optimize"]
        for name, got in (("forward", forward.calls), ("evaluator", evaluator.calls),
                          ("backward", backward.calls)):
            checks.check(got == want[name], f"optimize {name} calls: {got} != {want[name]}")
        checks.check(history.forward_calls == want["forward"], "optimize forward_calls")
        checks.check(history.backward_engine_calls == want["backward"], "optimize rewrites")
        tp, _, fn = self.expected["subset"]["nominal_composition"]
        for snap in history.epochs:
            got = snap.metrics["nominal_composition"].recall
            checks.check(got == tp / (tp + fn), f"epoch {snap.epoch} recall {got}")
        record = stages.record()
        record.update(zip(("evaluate_s", "clean_featurize_s", "optimize_s"), stages.seconds))
        return record


# --- model --------------------------------------------------------------------------


class Model:
    """train_test_split -> train_esvr -> train_elasso -> screen candidates, save/load."""

    name = "model"
    # (training rows, ELASSO resamples, candidate rows)
    sizes = {"full": (125, 4, 30000), "tiny": (40, 2, 200)}
    ENSEMBLE_SIZES = (1,)
    PREDICT_CHUNK = 250   # rows per predict_batch call, as a client scoring candidates would
    R2_FLOOR = 0.8

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.n_rows, self.resamples, self.n_predict = self.sizes[size]

    def setup(self, workdir: Path) -> float:
        self.table = features.default_table()
        self.X = self._featurize(generate.model_compositions(
            f"train-{generate.REFERENCE_SEED}", self.n_rows))
        self.y = np.array(generate.model_targets(self.X.tolist()))
        self.candidates = generate.model_compositions(f"predict-{self.seed}", self.n_predict)
        return 0.0

    def _featurize(self, compositions) -> np.ndarray:
        return np.vstack([
            features.featurize(Composition.from_coefficients(parts), self.table).as_array()
            for parts in compositions])

    def _predict(self, model, X) -> tuple[np.ndarray, np.ndarray]:
        means, stds = zip(*(ml.predict_batch(model, X[i:i + self.PREDICT_CHUNK])
                            for i in range(0, len(X), self.PREDICT_CHUNK)))
        return np.concatenate(means), np.concatenate(stds)

    def iterate(self, run_dir: Path, checks: Checks, tracer=None) -> dict:
        run_dir.mkdir(parents=True)
        X_train, X_test, y_train, y_test = ml.train_test_split(
            self.X, self.y, ml.SplitConfig(train_fraction=0.8, seed=generate.REFERENCE_SEED))
        stages = Stages(tracer)
        with stages("esvr_train"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ml.NonConvergence)
            esvr = ml.train_esvr(X_train, y_train, ensemble_sizes=self.ENSEMBLE_SIZES,
                                 seed=generate.REFERENCE_SEED)
        with stages("elasso_train"):
            elasso = ml.train_elasso(X_train, y_train, B=self.resamples,
                                     seed=generate.REFERENCE_SEED)
        with stages("predict"):
            start = time.perf_counter()
            X_candidates = self._featurize(self.candidates)
            predicted = [self._predict(m, X_candidates) for m in (esvr, elasso)]
            predict_s = time.perf_counter() - start
            reloaded = []
            for m in (esvr, elasso):
                path = run_dir / f"{m.kind}.json"
                ml.save_model(m, path)
                reloaded.append(ml.load_model(path))

        r2s = {}
        for m, again, (mean, std) in zip((esvr, elasso), reloaded, predicted):
            r2s[m.kind] = ml.r2(y_test, ml.predict_batch(m, X_test)[0])
            checks.check(r2s[m.kind] >= self.R2_FLOOR,
                         f"{m.kind} test R2 {r2s[m.kind]:.4f} below {self.R2_FLOOR}")
            checks.check(bool(np.isfinite(mean).all() and np.isfinite(std).all()),
                         f"{m.kind} predictions not finite")
            mean2, std2 = self._predict(again, X_candidates)
            checks.check(bool(np.array_equal(mean, mean2) and np.array_equal(std, std2)),
                         f"{m.kind} predicts differently after save_model/load_model")
        nonconverged = sum(issubclass(w.category, ml.NonConvergence) for w in caught)
        return {
            **stages.record(),
            "esvr_train_s": stages.seconds[0],
            "elasso_train_s": stages.seconds[1],
            "predict_rows_per_s": self.n_predict / predict_s,
            "esvr_test_r2": r2s["esvr"],
            "elasso_test_r2": r2s["elasso"],
            "svr_nonconverged": nonconverged,
            "elasso_resamples": self.resamples,
        }


WORKLOADS = {w.name: w for w in (Extract, Curate, Model)}


def _doc_of(args, result):
    extracted, truth = args[0], args[1]
    sample = truth or extracted
    return {"doc": sample[0].source.id if sample else ""}


# (owner, attribute, span name, observe) per workload; each function is
# wrapped where its caller looks it up
TRACED = {
    "extract": [
        (pipeline, "run_extraction", "pipeline.run_extraction",
         lambda a, r: {"engine_calls": r.engine_calls, "docs": len(r.ledger.states),
                       "done": r.ledger.counts()["done"]}),
        (pipeline, "parse_record_set", "records.parse_record_set", None),
        (pipeline, "_rebuild_dataset", "pipeline.rebuild", None),
        (pipeline, "write_dataset", "pipeline.write_dataset", None),
        (pipeline.RunLedger, "to_json", "pipeline.ledger_to_json",
         lambda a, r: {"bytes": len(r.encode("utf-8"))}),
        (engines, "transcript_key", "engines.transcript_key", None),
        (engines.TranscriptStore, "put", "engines.store_put", None),
        (engines.TranscriptStore, "get", "engines.store_get",
         lambda a, r: {"hit": r is not None}),
        (ScriptedEngine, "complete", "engines.scripted", lambda a, r: {"role": a[0].role}),
    ],
    "curate": [
        (pipeline, "load_dataset", "pipeline.load_dataset", None),
        (records, "load_ground_truth", "records.load_ground_truth", None),
        (evaluation, "evaluate_run", "evaluation.evaluate_run", None),
        (evaluation, "match_entries", "evaluation.match_entries", _doc_of),
        (evaluation, "score_entities", "evaluation.score_entities", None),
        (pipeline, "consistency_check", "composition.consistency_check", None),
        (quality, "filter_plausible", "quality.filter_plausible", None),
        (quality, "quality_report_rows", "quality.quality_report_rows", None),
        (features, "featurize_dataset", "features.featurize_dataset", None),
        (optimizer, "optimize", "optimizer.optimize", None),
        (optimizer, "forward_extract", "optimizer.forward_extract", None),
        (optimizer, "extraction_loss", "optimizer.extraction_loss", None),
        (optimizer, "backward_update", "optimizer.backward_update", None),
        (optimizer, "parse_record_set", "records.parse_record_set", None),
        (ScriptedEngine, "complete", "engines.scripted", lambda a, r: {"role": a[0].role}),
    ],
    "model": [
        (ml, "train_esvr", "ml.train_esvr", None),
        (ml, "fit_svr", "ml.fit_svr", lambda a, r: {"support": len(r.beta)}),
        (ml, "train_elasso", "ml.train_elasso", None),
        (ml, "predict_batch", "ml.predict_batch", None),
    ],
}
