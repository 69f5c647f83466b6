"""Per-layer metrics derived from a traced run's spans.

Counts and times are totals per workload iteration, reported as the median
over the traced iterations; per-call timings pool every call of the run.
Span names are unique to a layer, so one derivation serves every workload:
a layer the workload does not load reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import generate
from spans import percentiles, self_times

PER_CALL = {
    "records.parse_record_set_s": "records.parse_record_set",
    "evaluation.match_entries_s": "evaluation.match_entries",
    "ml.fit_svr_s": "ml.fit_svr",
}


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


class _Iteration:
    """The spans of one iteration, indexed by name and by id."""

    def __init__(self, spans: list[dict], self_time: dict[int, float]):
        self.by_id = {s["id"]: s for s in spans}
        self.named: dict[str, list[dict]] = defaultdict(list)
        for span in spans:
            self.named[span["name"]].append(span)
        self.self_time = self_time

    def ancestors(self, span: dict):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent["parent"])

    def phase(self, span: dict) -> str:
        return next((a["name"][6:] for a in self.ancestors(span)
                     if a["name"].startswith("phase.")), "")

    def select(self, name: str, where=None) -> list[dict]:
        return [s for s in self.named[name] if where is None or where(s)]

    def total(self, name: str, where=None) -> float:
        return sum(_duration(s) for s in self.select(name, where))

    def count(self, name: str, where=None) -> int:
        return len(self.select(name, where))

    def self_total(self, name: str) -> float:
        return sum(self.self_time[s["id"]] for s in self.named[name])


def _iteration_metrics(it: _Iteration, record: dict) -> dict[str, float]:
    m: dict[str, float] = {}
    runs = {it.phase(s): s for s in it.named["pipeline.run_extraction"]}
    for phase, run in runs.items():
        m[f"pipeline.engine_calls_reported.{phase}"] = run["attrs"]["engine_calls"]
        if phase in ("fresh", "replay"):
            engine = sum(_duration(s) for s in it.named["engines.scripted"]
                         if any(a["id"] == run["id"] for a in it.ancestors(s)))
            m[f"pipeline.bookkeeping_ms_per_doc.{phase}"] = (
                (_duration(run) - engine) / run["attrs"]["docs"] * 1e3)
    if "fresh" in runs:
        done = runs["fresh"]["attrs"]["done"]
        parsed = it.count("records.parse_record_set",
                          lambda s: "error" not in s["attrs"] and it.phase(s) == "fresh")
        m["records.parses_per_done_doc"] = parsed / done if done else 0.0
    m["pipeline.ledger_writes"] = it.count("pipeline.ledger_to_json")
    m["pipeline.ledger_bytes"] = sum(s["attrs"]["bytes"] for s in it.named["pipeline.ledger_to_json"])
    m["pipeline.ledger_s"] = it.total("pipeline.ledger_to_json")
    m["pipeline.rebuild_s"] = it.total("pipeline.rebuild")
    m["pipeline.write_dataset_s"] = it.total("pipeline.write_dataset")
    m["pipeline.run_extraction_self_s"] = it.self_total("pipeline.run_extraction")
    m["pipeline.load_dataset_s"] = it.total("pipeline.load_dataset")
    m["records.parse_record_set_calls"] = it.count("records.parse_record_set")
    m["records.load_ground_truth_s"] = it.total("records.load_ground_truth")
    m["engines.transcript_key_calls"] = it.count("engines.transcript_key")
    m["engines.transcript_key_s"] = it.total("engines.transcript_key")
    m["engines.store_put_s"] = it.total("engines.store_put")
    m["engines.store_get_s"] = it.total("engines.store_get")
    m["engines.store_hits"] = it.count("engines.store_get", lambda s: s["attrs"]["hit"])
    m["engines.inner_calls"] = it.count("engines.scripted")

    def same_alloy(span):
        return span["attrs"]["doc"].startswith(generate.SAME_ALLOY_PREFIX)

    m["evaluation.match_entries_calls"] = it.count("evaluation.match_entries")
    m["evaluation.match_same_alloy_s"] = it.total("evaluation.match_entries", same_alloy)
    m["evaluation.match_ordinary_s"] = it.total(
        "evaluation.match_entries", lambda s: not same_alloy(s))
    m["evaluation.score_entities_s"] = it.total("evaluation.score_entities")
    m["evaluation.evaluate_run_self_s"] = it.self_total("evaluation.evaluate_run")
    m["composition.consistency_check_calls"] = it.count("composition.consistency_check")
    m["composition.consistency_check_s"] = it.total("composition.consistency_check")
    m["quality.filter_plausible_s"] = it.total("quality.filter_plausible")
    m["quality.quality_report_rows_s"] = it.total("quality.quality_report_rows")
    m["features.featurize_dataset_s"] = it.total("features.featurize_dataset")
    m["optimizer.forward_extract_s"] = it.total("optimizer.forward_extract")
    m["optimizer.extraction_loss_s"] = it.total("optimizer.extraction_loss")
    m["optimizer.backward_update_s"] = it.total("optimizer.backward_update")
    m["optimizer.evaluate_run_s"] = it.total(
        "evaluation.evaluate_run", lambda s: it.phase(s) == "optimize")
    m["optimizer.optimize_self_s"] = it.self_total("optimizer.optimize")
    for role in ("forward", "evaluator", "backward"):
        m[f"optimizer.engine_calls.{role}"] = it.count(
            "engines.scripted",
            lambda s: s["attrs"].get("role") == role and it.phase(s) == "optimize")
    fits = it.named["ml.fit_svr"]
    m["ml.fit_svr_calls"] = len(fits)
    m["ml.support_vectors_mean"] = (
        statistics.fmean(s["attrs"]["support"] for s in fits) if fits else 0.0)
    m["ml.train_esvr_self_s"] = it.self_total("ml.train_esvr")
    m["ml.svr_nonconverged"] = record.get("svr_nonconverged", 0)
    resamples = record.get("elasso_resamples")
    m["ml.elasso_ms_per_resample"] = (
        it.total("ml.train_elasso") / resamples * 1e3 if resamples else 0.0)
    m["ml.predict_batch_s"] = it.total("ml.predict_batch", lambda s: it.phase(s) == "predict")
    return m


def layer_metrics(spans: list[dict], traced: list[dict], untraced: list[dict],
                  names: list[str]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values for ``names`` plus a note per metric for the printed report.

    ``traced`` and ``untraced`` are the iteration records of the two halves of
    the run; their ``iter_s`` give the tracing overhead.
    """
    self_time = self_times(spans)
    grouped: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        grouped[span["iteration"]].append(span)
    per_iteration = [_iteration_metrics(_Iteration(grouped[k], self_time), record)
                     for k, record in enumerate(traced)]
    values = {name: statistics.median(m.get(name, 0) for m in per_iteration)
              for name in names}
    notes = {}
    for prefix, span_name in PER_CALL.items():
        samples = [_duration(s) for s in spans if s["name"] == span_name]
        stats = percentiles(samples)
        values[f"{prefix}.p50"], values[f"{prefix}.tail"] = stats["p50"], stats["tail"]
        values[f"{prefix}.n"] = stats["n"]
        notes[f"{prefix}.tail"] = f"p{stats['tail_pct']:g} of n={stats['n']}"
    traced_s = statistics.median(r["iter_s"] for r in traced)
    untraced_s = statistics.median(r["iter_s"] for r in untraced)
    values["trace.overhead_s"] = traced_s - untraced_s
    notes["trace.overhead_s"] = (f"traced {traced_s:.4f} s - untraced {untraced_s:.4f} s "
                                 f"per iteration ({len(traced)} / {len(untraced)} iterations)")
    values["trace.spans_per_iteration"] = len(spans) / len(traced)
    done = [r["done_docs"] for r in traced if "done_docs" in r]
    if done:
        notes["records.parses_per_done_doc"] = f"base: {done[0]} done documents"
    resamples = [r["elasso_resamples"] for r in traced if "elasso_resamples" in r]
    if resamples:
        notes["ml.elasso_ms_per_resample"] = f"base: B = {resamples[0]} resamples"
    return {name: values[name] for name in names}, notes
