"""Feedback-driven prompt optimization.

Each epoch walks the corpus documents that have expert data in manifest order,
batch by batch: the forward engine extracts records with the current prompt,
the evaluator engine critiques each document's output against the expert
reference (a textual gradient with an ALIGNED/MISALIGNED verdict), and the
backward engine rewrites the prompt once per batch from the batch's critiques.
A batch whose critiques are all aligned, or whose documents all failed, skips
the rewrite call and only bumps the version, so the lineage stays one chain.
"""

from __future__ import annotations

import functools
import json
import logging
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from . import evaluation
from .engines import EngineError, EngineRequest
from .pipeline import (
    CorpusStore,
    build_document_request,
    is_rejection,
    run_documents,
)
from .records import (
    AlloyRecord,
    DocumentId,
    MalformedOutput,
    parse_record_set,
    serialize_record_set,
)

logger = logging.getLogger(__name__)

ALIGNED = "aligned"
MISALIGNED = "misaligned"

_VERDICT_RE = re.compile(r"\b(MISALIGNED|ALIGNED)\b", re.IGNORECASE)
_SLOT_RE = re.compile(r"<<(PROMPT|DOCUMENT|EXPERT_DATA|MODEL_OUTPUT)>>")

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
    epoch: int = 0

    def __post_init__(self):
        if self.version < 0 or self.epoch < 0:
            raise ValueError("version and epoch must be nonnegative")

    @property
    def parent_version(self) -> int | None:
        """The version this one was derived from; versions form a single chain."""
        return self.version - 1 if self.version else None


@dataclass(frozen=True)
class Feedback:
    text: str
    doc: str
    prompt_version: int
    verdict: str                      # aligned | misaligned

    def __post_init__(self):
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
        texts = {f"prompt_v{prompt.version}.txt": prompt.text for prompt in self.prompts}
        for name, text in texts.items():
            (out_dir / name).write_text(text, encoding="utf-8")
        for path in out_dir.glob("prompt_v*.txt"):  # versions of an earlier, longer run
            if path.name not in texts and re.fullmatch(r"prompt_v(0|[1-9][0-9]*)\.txt", path.name):
                path.unlink()
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


@functools.cache
def default_evaluation_template() -> str:
    return resources.files("alloyforge.data").joinpath("evaluation_prompt.txt").read_text("utf-8")


def default_extraction_prompt() -> str:
    return resources.files("alloyforge.data").joinpath("extraction_prompt.txt").read_text("utf-8")


# --- single steps -----------------------------------------------------------------


def forward_extract(
    prompt: Prompt,
    doc_id: str,
    engine,
    document: tuple[str, tuple],
    temperature: float = 0.0,
) -> list[AlloyRecord]:
    """Extract one document with the forward engine and parse the completion.

    ``document`` is the ``(text, attachments)`` pair that
    ``CorpusStore.request_document`` gives for ``doc_id``. A completion
    carrying the irrelevance sentinel yields an empty record list;
    unparseable completions also yield an empty list (the parse problem is
    logged, not fatal).
    """
    request = build_document_request(prompt.text, doc_id, document, temperature)
    response = engine.complete(request)
    if is_rejection(response.text):
        return []
    try:
        result = parse_record_set(response.text, DocumentId(doc_id))
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
    document: tuple[str, tuple],
) -> Feedback:
    """Ask the evaluator engine to critique one document's output.

    ``document`` is the ``(text, attachments)`` pair that
    ``CorpusStore.request_document`` gives for ``doc_id``. The evaluation
    request embeds the prompt, the document (a PDF as a reference to its
    attachment), the expert data, and the model output; the critique's
    closing ALIGNED/MISALIGNED statement becomes the verdict. An unparseable
    verdict, an empty critique included, is conservatively treated as
    misaligned.
    """
    text, attachments = document
    slots = {
        "PROMPT": prompt.text,
        "DOCUMENT": text,
        "EXPERT_DATA": serialize_record_set(truth),
        "MODEL_OUTPUT": serialize_record_set(output),
    }
    # one pass, so a slot marker inside a filled-in value stays literal text
    filled = _SLOT_RE.sub(lambda slot: slots[slot.group(1)], default_evaluation_template())
    request = EngineRequest(system_text="", user_text=filled, attachments=attachments)
    response = evaluator.complete(request)
    verdicts = _VERDICT_RE.findall(response.text)
    if verdicts:
        verdict = ALIGNED if verdicts[-1].upper() == "ALIGNED" else MISALIGNED
    else:
        logger.warning("document %s: no verdict statement in critique", doc_id)
        verdict = MISALIGNED
    return Feedback(
        text=response.text,
        doc=doc_id,
        prompt_version=prompt.version,
        verdict=verdict,
    )


def backward_update(prompt: Prompt, feedbacks: list[Feedback], engine) -> Prompt:
    """Produce the next prompt version from a batch of critiques.

    Critiques are concatenated in the order given (document order). When all
    of them are aligned, or there are none because every document of the batch
    failed, the rewrite call is skipped and only the version is bumped.
    """
    stale = [f.doc for f in feedbacks if f.prompt_version != prompt.version]
    if stale:
        raise ValueError(
            f"feedback for documents {stale} does not reference prompt version {prompt.version}"
        )
    bumped = replace(prompt, version=prompt.version + 1)
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
    # the first opener and the first closer after it: the lazy regex match, found
    # in linear time, since a first opener with no closer after it leaves none later
    _, _, tail = response.text.partition("<IMPROVED_PROMPT>")
    body, closer, _ = tail.partition("</IMPROVED_PROMPT>")
    new_text = (body if closer else response.text).strip()
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

    Per epoch, only the corpus documents that have expert data are called, in
    batches of ``batch_size`` in manifest order; each batch makes one backward
    update. An empty expert reference is refused before any call, and so is a
    document that cannot be read: each one is read once per run, before the
    first call. An epoch's snapshot scores the union of its outputs against
    the full reference.
    Each document's forward and evaluator calls run together, concurrently
    above parallelism 1. An engine error from either call fails only that
    document: it is logged, recorded in ``history.failures`` and left out of
    the epoch's outputs. Any other exception, an authentication failure
    included, keeps the batch's later documents from being called and propagates.
    """
    if not truth_by_doc:
        raise ValueError("the expert reference names no document")
    missing = [doc_id for doc_id in truth_by_doc if doc_id not in corpus]
    if missing:
        raise ValueError(f"truth documents missing from corpus: {sorted(missing)}")

    doc_ids = [doc_id for doc_id in corpus.ids if doc_id in truth_by_doc]
    documents = {doc_id: corpus.request_document(doc_id) for doc_id in doc_ids}

    history = PromptHistory(prompts=[initial], epochs=[])
    current = initial
    batches = [
        doc_ids[start : start + config.batch_size]
        for start in range(0, len(doc_ids), config.batch_size)
    ]

    def attempt(doc_id: str):
        """Forward-extract one document under the batch's prompt and critique the output."""
        document = documents[doc_id]
        output = forward_extract(
            current, doc_id, config.forward_engine, document, config.forward_temperature
        )
        return output, extraction_loss(current, doc_id, truth_by_doc[doc_id], output,
                                       config.evaluator_engine, document)

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
                feedbacks.append(feedback)
            if any(f.verdict == MISALIGNED for f in feedbacks):
                history.backward_engine_calls += 1
            current = replace(backward_update(current, feedbacks, config.backward_engine),
                              epoch=epoch)
            history.prompts.append(current)
        report = evaluation.evaluate_run(epoch_outputs, truth_by_doc)
        history.epochs.append(
            EpochSnapshot(epoch=epoch, final_version=current.version, metrics=report.metrics)
        )
    return history
