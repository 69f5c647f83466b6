"""Deterministic scripted engines driving the replay fixtures.

The forward engine reveals more of the expert reference as the prompt
accumulates numbered rule lines; the evaluator compares the embedded record
blocks mechanically; the backward engine appends the next rule. Together they
re-enact an improving optimization run without any live model.
"""

from __future__ import annotations

import re
import threading

from alloyforge.engines import EngineResponse
from alloyforge.records import parse_record_set, serialize_record_set

MARKERS = (
    "EXTRACTION RULE 1: Report every alloy the results section discusses, not only the first.",
    "EXTRACTION RULE 2: Never skip table rows; each row with a composition is a candidate entry.",
    "EXTRACTION RULE 3: Include alloys whose properties appear only in figures.",
    "EXTRACTION RULE 4: Expand series notations such as AlxCoCrFeNi into one entry per x value.",
    "EXTRACTION RULE 5: Keep multi-phase alloys and record the full phase description.",
    "EXTRACTION RULE 6: Report annealed and powder-processed samples as separate entries.",
    "EXTRACTION RULE 7: Convert nanometer and picometer values to angstrom.",
    "EXTRACTION RULE 8: Apply a processing condition stated once to every alloy it covers.",
    "EXTRACTION RULE 9: List alloys in the order the results discuss them.",
)

# per-document reveal thresholds, aligned with ground_truth.csv row order;
# a record appears once the prompt carries at least that many rules
REVEAL_THRESHOLDS = {
    "d01": (0, 3, 6, 6),
    "d02": (0, 3, 6),
    "d03": (0, 3, 99),
    "d04": (0, 4, 6),
    "d05": (0, 4, 6),
    "d06": (0, 4, 6),
    "d07": (5, 5, 6),
}

INITIAL_PROMPT_TEXT = (
    "Extract the names, compositions, phases, processing conditions, and "
    "lattice constants of high entropy alloys from the document. Output a "
    "JSON array of objects with keys alloy_name, nominal_composition, "
    "measured_composition, phase, processing_condition, "
    "lattice_constant_angstrom, using \"Not found\" for missing values. "
    "If there is no relevant alloy data, reply NO HEA DATA."
)

_DOC_RE = re.compile(r"Document (\S+):")


def marker_count(text: str) -> int:
    return sum(1 for marker in MARKERS if marker in text)


class _Scripted:
    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def _count(self):
        with self._lock:
            self.calls += 1

    @staticmethod
    def _respond(text: str) -> EngineResponse:
        return EngineResponse(
            text=text, input_tokens=0, output_tokens=len(text) // 4, latency_s=0.0
        )


class ScriptedForwardEngine(_Scripted):
    """Reveals truth records whose threshold is at or below the rule count."""

    def __init__(self, truth_by_doc, thresholds=REVEAL_THRESHOLDS):
        super().__init__()
        self.truth_by_doc = truth_by_doc
        self.thresholds = thresholds

    def complete(self, request):
        self._count()
        match = _DOC_RE.search(request.user_text)
        doc_id = match.group(1) if match else None
        if doc_id not in self.truth_by_doc:
            return self._respond("NO HEA DATA: this publication is out of scope.")
        k = marker_count(request.system_text)
        revealed = [
            record
            for record, threshold in zip(self.truth_by_doc[doc_id], self.thresholds[doc_id])
            if threshold <= k
        ]
        return self._respond(serialize_record_set(revealed))


class ScriptedEvaluatorEngine(_Scripted):
    """Compares the expert and model record blocks embedded in the request."""

    def complete(self, request):
        self._count()
        text = request.user_text
        expert_part = text.split("=== EXPERT DATA ===")[1].split("=== MODEL OUTPUT ===")[0]
        output_part = text.split("=== MODEL OUTPUT ===")[1]
        expert = {s for s in _entry_strings(expert_part)}
        output = {s for s in _entry_strings(output_part)}
        lines = []
        for missing in sorted(expert - output):
            lines.append(f"Missing entry: {missing}")
        for spurious in sorted(output - expert):
            lines.append(f"Spurious entry: {spurious}")
        verdict = "ALIGNED" if expert == output else "MISALIGNED"
        lines.append(f"VERDICT: {verdict}")
        return self._respond("\n".join(lines))


class ScriptedBackwardEngine(_Scripted):
    """Appends the next numbered rule to the current prompt."""

    def complete(self, request):
        self._count()
        current = re.search(
            r"<CURRENT_PROMPT>\n(.*?)\n</CURRENT_PROMPT>", request.user_text, re.DOTALL
        ).group(1)
        k = marker_count(current)
        new_text = current if k >= len(MARKERS) else current + "\n" + MARKERS[k]
        return self._respond(
            "The critiques show systematic omissions.\n"
            f"<IMPROVED_PROMPT>\n{new_text}\n</IMPROVED_PROMPT>"
        )


class FlakyEngine(_Scripted):
    """Fails a fixed number of times before delegating; for retry tests."""

    def __init__(self, inner, failures: int, error):
        super().__init__()
        self.inner = inner
        self.remaining = failures
        self.error = error

    def complete(self, request):
        self._count()
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error
        return self.inner.complete(request)


def _entry_strings(section: str) -> list[str]:
    import json

    result = parse_record_set(section)
    return [
        json.dumps(obj, sort_keys=True)
        for obj in json.loads(serialize_record_set(result.records))
    ]
