"""Feedback-driven prompt optimization.

Each epoch walks the training corpus in manifest order, batch by batch: the
forward engine extracts records with the current prompt, the evaluator engine
critiques each document's output against the expert reference (a textual
gradient with an ALIGNED/MISALIGNED verdict), and the backward engine rewrites
the prompt once per batch from the batch's concatenated critiques. A batch
whose critiques are all aligned skips the rewrite call and only bumps the
version, so the lineage stays a single chain.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from . import evaluation
from .engines import EngineError, EngineRequest
from .pipeline import CorpusStore, build_document_request, is_rejection, run_documents
from .records import (
    AlloyRecord,
    MalformedOutput,
    parse_record_set,
    serialize_record_set,
)

logger = logging.getLogger(__name__)

ALIGNED = "aligned"
MISALIGNED = "misaligned"

_VERDICT_RE = re.compile(r"\b(MISALIGNED|ALIGNED)\b", re.IGNORECASE)
_IMPROVED_RE = re.compile(r"<IMPROVED_PROMPT>(.*?)</IMPROVED_PROMPT>", re.DOTALL)

REWRITE_SYSTEM_TEXT = (
    "You improve extraction prompts. You receive the current prompt and "
    "critiques of the data it produced on several documents. Rewrite the "
    "prompt to fix every problem the critiques describe while keeping what "
    "already works. Reply with the full new prompt wrapped in "
    "<IMPROVED_PROMPT> and </IMPROVED_PROMPT> tags."
)


@dataclass(frozen=True)
class Prompt:
    text: str
    version: int = 0
    parent_version: int | None = None
    epoch: int = 0

    def __post_init__(self):
        if self.version < 0 or self.epoch < 0:
            raise ValueError("version and epoch must be nonnegative")
        if self.version == 0 and self.parent_version is not None:
            raise ValueError("version 0 has no parent")
        if self.version > 0 and self.parent_version != self.version - 1:
            raise ValueError("versions must form a consecutive chain")


@dataclass(frozen=True)
class Feedback:
    text: str
    doc: str
    prompt_version: int
    verdict: str                      # aligned | misaligned
    verdict_parsed: bool = True

    def __post_init__(self):
        if not self.text:
            raise ValueError("feedback text must be non-empty")
        if self.verdict not in (ALIGNED, MISALIGNED):
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass
class OptimizationConfig:
    forward_engine: object
    backward_engine: object
    evaluator_engine: object
    epochs: int = 3
    batch_size: int = 3
    forward_temperature: float = 0.0
    parallelism: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be at least 1")


@dataclass
class EpochSnapshot:
    epoch: int
    final_version: int
    metrics: dict[str, evaluation.EntityMetrics]


@dataclass
class PromptHistory:
    prompts: list[Prompt]
    epochs: list[EpochSnapshot]
    forward_calls: int = 0
    backward_engine_calls: int = 0
    failures: list[tuple[str, int, str]] = field(default_factory=list)

    def recalls(self, field_name: str = "nominal_composition") -> list[float]:
        return [snap.metrics[field_name].recall for snap in self.epochs]

    def save(self, out_dir) -> None:
        """Persist prompt_v<N>.txt files plus a history.jsonl metric trail."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for prompt in self.prompts:
            (out_dir / f"prompt_v{prompt.version}.txt").write_text(
                prompt.text, encoding="utf-8"
            )
        by_final_version = {snap.final_version: snap for snap in self.epochs}
        lines = []
        for prompt in self.prompts:
            snap = by_final_version.get(prompt.version)
            lines.append(
                json.dumps(
                    {
                        "version": prompt.version,
                        "parent": prompt.parent_version,
                        "epoch": prompt.epoch,
                        "metrics": {
                            name: {"precision": m.precision, "recall": m.recall, "f1": m.f1}
                            for name, m in snap.metrics.items()
                        }
                        if snap
                        else None,
                    },
                    sort_keys=True,
                )
            )
        (out_dir / "history.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def default_evaluation_template() -> str:
    return resources.files("alloyforge.data").joinpath("evaluation_prompt.txt").read_text("utf-8")


def default_extraction_prompt() -> str:
    return resources.files("alloyforge.data").joinpath("extraction_prompt.txt").read_text("utf-8")


# --- single steps -----------------------------------------------------------------


def forward_extract(
    prompt: Prompt,
    doc_id: str,
    engine,
    corpus: CorpusStore,
    temperature: float = 0.0,
) -> list[AlloyRecord]:
    """Extract one document with the forward engine and parse the completion.

    A completion carrying the irrelevance sentinel yields an empty record
    list; unparseable completions also yield an empty list (the parse problem
    is logged, not fatal).
    """
    request = build_document_request(prompt.text, doc_id, corpus, temperature)
    response = engine.complete(request)
    if is_rejection(response.text):
        return []
    try:
        result = parse_record_set(response.text, corpus.entry(doc_id).doc)
    except MalformedOutput as exc:
        logger.warning("document %s: %s", doc_id, exc)
        return []
    for issue in result.issues:
        logger.warning("document %s entry %d: %s", doc_id, issue.entry_index, issue.message)
    return result.records


def extraction_loss(
    prompt: Prompt,
    doc_id: str,
    truth: list[AlloyRecord],
    output: list[AlloyRecord],
    evaluator,
    corpus: CorpusStore,
    template: str | None = None,
) -> Feedback:
    """Ask the evaluator engine to critique one document's output.

    The evaluation request embeds the prompt, the document, the expert data,
    and the model output; the critique's closing ALIGNED/MISALIGNED statement
    becomes the verdict. An unparseable verdict is conservatively treated as
    misaligned.
    """
    template = template or default_evaluation_template()
    filled = (
        template.replace("<<PROMPT>>", prompt.text)
        .replace("<<DOCUMENT>>", corpus.text(doc_id))
        .replace("<<EXPERT_DATA>>", serialize_record_set(truth))
        .replace("<<MODEL_OUTPUT>>", serialize_record_set(output))
    )
    response = evaluator.complete(
        EngineRequest(system_text="", user_text=filled, temperature=0.0)
    )
    verdicts = _VERDICT_RE.findall(response.text)
    if verdicts:
        verdict = ALIGNED if verdicts[-1].upper() == "ALIGNED" else MISALIGNED
        parsed = True
    else:
        logger.warning("document %s: no verdict statement in critique", doc_id)
        verdict, parsed = MISALIGNED, False
    return Feedback(
        text=response.text,
        doc=doc_id,
        prompt_version=prompt.version,
        verdict=verdict,
        verdict_parsed=parsed,
    )


def backward_update(prompt: Prompt, feedbacks: list[Feedback], engine) -> Prompt:
    """Produce the next prompt version from a batch of critiques.

    Critiques are concatenated in the order given (document order). When all
    of them are aligned the rewrite call is skipped and only the version is
    bumped.
    """
    if not feedbacks:
        raise ValueError("backward_update needs at least one feedback")
    stale = [f.doc for f in feedbacks if f.prompt_version != prompt.version]
    if stale:
        raise ValueError(
            f"feedback for documents {stale} does not reference prompt version {prompt.version}"
        )
    bumped = replace(
        prompt, version=prompt.version + 1, parent_version=prompt.version
    )
    if all(f.verdict == ALIGNED for f in feedbacks):
        return bumped
    blocks = "\n\n".join(
        f'<FEEDBACK doc="{f.doc}" verdict="{f.verdict}">\n{f.text}\n</FEEDBACK>'
        for f in feedbacks
    )
    request = EngineRequest(
        system_text=REWRITE_SYSTEM_TEXT,
        user_text=(
            f"<CURRENT_PROMPT>\n{prompt.text}\n</CURRENT_PROMPT>\n\n{blocks}\n\n"
            "Rewrite the prompt."
        ),
        temperature=0.0,
    )
    response = engine.complete(request)
    match = _IMPROVED_RE.search(response.text)
    new_text = (match.group(1) if match else response.text).strip()
    if not new_text:
        logger.warning("empty rewrite for version %d; keeping previous text", prompt.version)
        new_text = prompt.text
    return replace(bumped, text=new_text)


# --- the optimization loop -----------------------------------------------------------


def optimize(
    initial: Prompt,
    corpus: CorpusStore,
    truth_by_doc: dict[str, list[AlloyRecord]],
    config: OptimizationConfig,
) -> PromptHistory:
    """Run the full multi-epoch loop and return the versioned prompt trail.

    Per epoch, the corpus is partitioned into batches of ``batch_size`` in
    manifest order; each batch contributes one backward update. The history
    snapshot for an epoch scores the union of that epoch's per-document
    outputs against the full expert reference. Each document's forward and
    evaluator calls run together, concurrently above parallelism 1. An engine
    error from either call fails only that document: it is logged, recorded
    in ``history.failures`` and left out of the epoch's outputs. Any other
    exception, an authentication failure included, keeps the batch's later
    documents from being called and propagates.
    """
    missing = [doc_id for doc_id in truth_by_doc if doc_id not in corpus]
    if missing:
        raise ValueError(f"truth documents missing from corpus: {sorted(missing)}")

    template = default_evaluation_template()
    history = PromptHistory(prompts=[initial], epochs=[])
    current = initial
    doc_ids = corpus.ids
    batches = [
        doc_ids[start : start + config.batch_size]
        for start in range(0, len(doc_ids), config.batch_size)
    ]

    def attempt(doc_id: str):
        """Forward-extract one document under the batch's prompt and critique the
        output when the document has expert data."""
        output = forward_extract(
            current, doc_id, config.forward_engine, corpus, config.forward_temperature
        )
        if doc_id not in truth_by_doc:
            return output, None
        return output, extraction_loss(current, doc_id, truth_by_doc[doc_id], output,
                                       config.evaluator_engine, corpus, template)

    for epoch in range(1, config.epochs + 1):
        epoch_outputs: dict[str, list[AlloyRecord]] = {}
        for batch in batches:
            history.forward_calls += len(batch)  # one attempt per document per epoch
            feedbacks = []
            for doc_id, result in zip(batch, run_documents(attempt, batch, config.parallelism)):
                if isinstance(result, EngineError):
                    history.failures.append((doc_id, current.version, str(result)))
                    logger.warning("document %s failed under version %d: %s",
                                   doc_id, current.version, result)
                    continue
                epoch_outputs[doc_id], feedback = result
                if feedback is not None:
                    feedbacks.append(feedback)
            if feedbacks:
                needs_rewrite = any(f.verdict == MISALIGNED for f in feedbacks)
                current = backward_update(current, feedbacks, config.backward_engine)
                if needs_rewrite:
                    history.backward_engine_calls += 1
            else:
                current = replace(
                    current, version=current.version + 1, parent_version=current.version
                )
            current = replace(current, epoch=epoch)
            history.prompts.append(current)
        scored = {doc_id: epoch_outputs.get(doc_id, []) for doc_id in truth_by_doc}
        report = evaluation.evaluate_run(scored, truth_by_doc)
        history.epochs.append(
            EpochSnapshot(epoch=epoch, final_version=current.version, metrics=report.metrics)
        )
    return history
