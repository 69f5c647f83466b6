"""Extraction schema and (de)serialization of alloy records.

The record container format is a JSON array in which every object carries six
string-valued keys (``alloy_name``, ``nominal_composition``,
``measured_composition``, ``phase``, ``processing_condition``,
``lattice_constant_angstrom``) with "Not found" as the missing-value sentinel.
Model completions are parsed leniently (fenced blocks, surrounding prose);
ground-truth CSV files are parsed strictly.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .composition import Composition, CompositionError, parse_formula

SCHEMA_KEYS = (
    "alloy_name",
    "nominal_composition",
    "measured_composition",
    "phase",
    "processing_condition",
    "lattice_constant_angstrom",
)
MISSING_SENTINEL = "Not found"

PHASE_KINDS = frozenset({"BCC", "FCC", "HCP", "amorphous", "multiphase", "other", "unknown"})
PROCESSING_KINDS = frozenset(
    {"as_cast", "annealed", "powder_processed", "additive", "other", "unreported"}
)
LENGTH_UNITS = frozenset({"angstrom", "nm", "pm", "unknown"})

GROUND_TRUTH_COLUMNS = ("doc_id",) + SCHEMA_KEYS


class RecordError(ValueError):
    pass


class MalformedOutput(RecordError):
    """No parseable record block was found in the model output."""


class GroundTruthError(RecordError):
    pass


class MissingColumn(GroundTruthError):
    pass


class UnknownDocument(GroundTruthError):
    pass


@dataclass(frozen=True)
class DocumentId:
    id: str
    kind: str = "plain_text"  # pdf | plain_text

    def __post_init__(self):
        if not self.id:
            raise RecordError("document id must be non-empty")
        if self.kind not in ("pdf", "plain_text"):
            raise RecordError(f"unknown document kind {self.kind!r}")


@dataclass(frozen=True)
class PhaseLabel:
    kind: str = "unknown"
    detail: str | None = None

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise RecordError(f"unknown phase kind {self.kind!r}")
        if self.kind in ("multiphase", "other") and not self.detail:
            raise RecordError(f"phase kind {self.kind!r} requires a detail string")


@dataclass(frozen=True)
class ProcessingCondition:
    kind: str = "unreported"
    detail: str | None = None

    def __post_init__(self):
        if self.kind not in PROCESSING_KINDS:
            raise RecordError(f"unknown processing kind {self.kind!r}")
        if self.kind == "other" and not self.detail:
            raise RecordError("processing kind 'other' requires a detail string")


@dataclass(frozen=True)
class LengthAngstrom:
    """A length stored in angstroms alongside the value as printed in the source."""

    value: float
    raw_value: float
    raw_unit: str = "unknown"

    def __post_init__(self):
        if self.raw_unit not in LENGTH_UNITS:
            raise RecordError(f"unknown length unit {self.raw_unit!r}")
        if not self.value > 0:
            raise RecordError(f"length must be positive, got {self.value!r}")
        if self.raw_unit == "angstrom" and self.value != self.raw_value:
            raise RecordError("angstrom lengths must keep value == raw_value")


@dataclass(frozen=True)
class AlloyRecord:
    """One extracted or curated entry; ``raw_fields`` holds the exact text of
    each present field, keyed by schema key, and is what serialization writes."""

    source: DocumentId
    alloy_name: str | None = None
    nominal_composition: Composition | None = None
    measured_composition: Composition | None = None
    phase: PhaseLabel = PhaseLabel()
    processing: ProcessingCondition = ProcessingCondition()
    lattice_constant: LengthAngstrom | None = None
    raw_fields: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.alloy_name is None and self.nominal_composition is None:
            raise RecordError("record needs at least one of alloy_name / nominal_composition")


@dataclass(frozen=True)
class FieldParseIssue:
    entry_index: int
    field: str | None
    message: str
    entry_dropped: bool = False


@dataclass
class RecordSetParseResult:
    records: list[AlloyRecord]
    issues: list[FieldParseIssue]
    entry_count: int


# --- field-level normalization -------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)
_NUMBER = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|[-+]?\.\d+"
# a number whose sign or first digit directly follows a letter belongs to a
# symbol such as the space groups Fm-3m and P63/mmc, not to the value
_LENGTH_VALUE_RE = re.compile(rf"(?<=[^\W\d_])(?:{_NUMBER})|(?P<value>{_NUMBER})")
_MULTIPHASE_RE = re.compile(r"\+|&|\bdual\b|\bmulti|two[- ]phase|\bmixed\b", re.IGNORECASE)
_BCC_RE = re.compile(r"bcc|body[- ]cent")
_FCC_RE = re.compile(r"fcc|face[- ]cent")
_HCP_RE = re.compile(r"hcp|hexagonal close")
_ORDERED_RE = re.compile(r"\bb2\b|\bl12\b|\blaves\b|\bsigma\b")
_NM_RE = re.compile(r"\bnm\b")
_PM_RE = re.compile(r"\bpm\b")


def is_missing(value) -> bool:
    """True for the "Not found" sentinel (any case/whitespace) and empty values."""
    if value is None:
        return True
    text = " ".join(str(value).split()).lower()
    return text in ("", "not found")


def normalize_phase(text: str) -> PhaseLabel:
    if is_missing(text):
        return PhaseLabel("unknown")
    return _phase_of(text)


def _phase_of(text: str) -> PhaseLabel:
    """The phase label of text already known not to be missing."""
    raw = " ".join(str(text).split())
    low = raw.lower()
    structures = set()
    if _BCC_RE.search(low):
        structures.add("bcc")
    if _FCC_RE.search(low):
        structures.add("fcc")
    if _HCP_RE.search(low):
        structures.add("hcp")
    if _ORDERED_RE.search(low):
        structures.add("ordered")
    if "amorphous" in low or "glass" in low:
        structures.add("amorphous")
    if _MULTIPHASE_RE.search(low) or len(structures) > 1:
        return PhaseLabel("multiphase", raw)
    if structures == {"bcc"}:
        return PhaseLabel("BCC", raw if raw.upper() != "BCC" else None)
    if structures == {"fcc"}:
        return PhaseLabel("FCC", raw if raw.upper() != "FCC" else None)
    if structures == {"hcp"}:
        return PhaseLabel("HCP", raw if raw.upper() != "HCP" else None)
    if structures == {"amorphous"}:
        return PhaseLabel("amorphous", raw if low != "amorphous" else None)
    return PhaseLabel("other", raw)


def normalize_processing(text: str) -> ProcessingCondition:
    if is_missing(text):
        return ProcessingCondition("unreported")
    return _processing_of(text)


def _processing_of(text: str) -> ProcessingCondition:
    """The processing condition of text already known not to be missing."""
    raw = " ".join(str(text).split())
    low = raw.lower()
    if any(p in low for p in ("anneal", "homogeniz", "heat treat", "heat-treat", "aged", "aging")):
        return ProcessingCondition("annealed", raw if low != "annealed" else None)
    if any(p in low for p in ("additive", "laser melt", "slm", "lpbf", "3d print",
                              "electron beam melt", "directed energy")):
        return ProcessingCondition("additive", raw)
    if any(p in low for p in ("powder", "sinter", "mechanical alloy", "spark plasma", "milling")):
        return ProcessingCondition("powder_processed", raw)
    if any(p in low for p in ("as-cast", "as cast", "cast", "arc melt", "arc-melt", "solidif")):
        return ProcessingCondition("as_cast", raw if low != "as-cast" else None)
    return ProcessingCondition("other", raw)


def parse_length(text) -> LengthAngstrom:
    """Parse a lattice-constant string; unit inferred from 'nm'/'pm'/angstrom marks."""
    raw = str(text)
    value_text = next(
        (m["value"] for m in _LENGTH_VALUE_RE.finditer(raw) if m["value"]), None
    )
    if value_text is None:
        raise RecordError(f"no numeric value in lattice field {raw!r}")
    raw_value = float(value_text)
    low = raw.lower()
    if _NM_RE.search(low):
        unit, value = "nm", raw_value * 10.0
    elif _PM_RE.search(low):
        unit, value = "pm", raw_value / 100.0
    elif "Å" in raw or "å" in low or "angstrom" in low:
        unit, value = "angstrom", raw_value
    else:
        unit, value = "unknown", raw_value
    return LengthAngstrom(value=value, raw_value=raw_value, raw_unit=unit)


# --- record <-> JSON object -----------------------------------------------------


def record_to_object(record: AlloyRecord) -> dict[str, str]:
    """Render one record as the six-key JSON object: each present field as the
    exact text it was read from, the sentinel for each absent one."""
    return {key: record.raw_fields.get(key, MISSING_SENTINEL) for key in SCHEMA_KEYS}


def record_from_object(obj: dict, source: DocumentId, entry_index: int = 0):
    """Parse one JSON object into (record | None, issues)."""
    issues: list[FieldParseIssue] = []
    values: dict[str, str] = {}
    for key in SCHEMA_KEYS:
        value = obj.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = str(value)  # repr of a NumPy float names its type
        if value is not None and not isinstance(value, str):
            issues.append(FieldParseIssue(entry_index, key, f"non-text value {value!r}"))
            continue
        if not is_missing(value):
            values[key] = value

    def parse_composition(key: str) -> Composition | None:
        raw = values.get(key)
        if raw is None:
            return None
        try:
            return parse_formula(raw)
        except CompositionError as exc:
            issues.append(FieldParseIssue(entry_index, key, str(exc)))
            values.pop(key)
            return None

    nominal = parse_composition("nominal_composition")
    measured = parse_composition("measured_composition")
    lattice = None
    if "lattice_constant_angstrom" in values:
        try:
            lattice = parse_length(values["lattice_constant_angstrom"])
        except RecordError as exc:
            issues.append(FieldParseIssue(entry_index, "lattice_constant_angstrom", str(exc)))
            values.pop("lattice_constant_angstrom")
    alloy_name = values.get("alloy_name")
    if alloy_name is None and nominal is None:
        issues.append(
            FieldParseIssue(
                entry_index, None,
                "entry has neither a parseable alloy name nor a nominal composition",
                entry_dropped=True,
            )
        )
        return None, issues
    record = AlloyRecord(
        source=source,
        alloy_name=alloy_name,
        nominal_composition=nominal,
        measured_composition=measured,
        # values holds present text only, so the missing checks are not repeated
        phase=_phase_of(values["phase"]) if "phase" in values else PhaseLabel("unknown"),
        processing=(_processing_of(values["processing_condition"])
                    if "processing_condition" in values else ProcessingCondition("unreported")),
        lattice_constant=lattice,
        raw_fields=dict(values),
    )
    return record, issues


def make_record(
    source: DocumentId,
    alloy_name: str | None = None,
    nominal_composition: Composition | str | None = None,
    measured_composition: Composition | str | None = None,
    phase: str | None = None,
    processing: str | None = None,
    lattice_constant: float | str | None = None,
) -> AlloyRecord:
    """Build a record through the parser that reads model output.

    Fields are given as the text a model would write; a Composition stands
    for its full-precision formula and a bare number for a lattice constant
    without a unit. None and sentinel strings ("Not found", empty) mean the
    field is absent. Raises RecordError when the entry would be dropped or
    any field fails to parse.
    """
    def text(value):
        return value.full_precision_formula() if isinstance(value, Composition) else value

    obj = dict(zip(SCHEMA_KEYS, (alloy_name, text(nominal_composition),
                                 text(measured_composition), phase, processing,
                                 lattice_constant)))
    record, issues = record_from_object(obj, source)
    if record is None or issues:
        raise RecordError("; ".join(issue.message for issue in issues))
    return record


# --- record-set operations -------------------------------------------------------


def parse_record_set(text: str, source: DocumentId | None = None) -> RecordSetParseResult:
    """Parse a raw model completion into records plus per-entry issues.

    Every well-formed entry becomes a record; entries that fail to parse are
    reported as issues, never silently dropped. Raises MalformedOutput when no
    record block can be located at all.
    """
    source = source or DocumentId("unknown")
    entries = _extract_entries(text or "")
    records: list[AlloyRecord] = []
    issues: list[FieldParseIssue] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            issues.append(
                FieldParseIssue(index, None, f"entry is not an object: {entry!r}",
                                entry_dropped=True)
            )
            continue
        record, entry_issues = record_from_object(entry, source, index)
        issues.extend(entry_issues)
        if record is not None:
            records.append(record)
    return RecordSetParseResult(records=records, issues=issues, entry_count=len(entries))


def serialize_record_set(records: list[AlloyRecord]) -> str:
    """Canonical, deterministic JSON for a record set (round-trips exactly)."""
    return json.dumps([record_to_object(r) for r in records], indent=2, ensure_ascii=False)


def _extract_entries(text: str) -> list:
    candidates = [text.strip()]
    candidates.extend(m.group(1).strip() for m in _FENCE_RE.finditer(text))
    decoder = json.JSONDecoder()
    for candidate in candidates:
        if not candidate:
            continue
        try:
            value = json.loads(candidate)
        except (json.JSONDecodeError, RecursionError):
            continue
        entries = _coerce_entries(value)
        if entries is not None:
            return entries
    # fall back to scanning for an embedded array, then a single object
    for opener in ("[", "{"):
        for match in re.finditer(re.escape(opener), text):
            try:
                value, _ = decoder.raw_decode(text, match.start())
            except json.JSONDecodeError:
                continue
            except RecursionError:
                # nesting past the decoder's limit is no record block, and
                # rescanning each opener inside it would take quadratic time
                break
            entries = _coerce_entries(value)
            if entries is not None:
                return entries
    raise MalformedOutput("no parseable record block in output")


def _coerce_entries(value) -> list | None:
    if isinstance(value, list):
        # a record block is an array holding objects; arrays of scalars are
        # stray JSON (citation lists etc.), not record sets
        if not value or any(isinstance(item, dict) for item in value):
            return value
        return None
    if isinstance(value, dict):
        return [value]
    return None


def load_ground_truth(path, known_ids=None) -> list[AlloyRecord]:
    """Load an expert-curated CSV into records, one per row, strictly validated."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [column for column in GROUND_TRUTH_COLUMNS if column not in header]
        if missing:
            raise MissingColumn(f"{path}: missing column(s) {', '.join(missing)}")
        records = []
        for row_index, row in enumerate(reader, start=2):
            doc_id = (row.get("doc_id") or "").strip()
            if not doc_id:
                raise GroundTruthError(f"{path}:{row_index}: empty doc_id")
            if known_ids is not None and doc_id not in known_ids:
                raise UnknownDocument(f"{path}:{row_index}: unknown document {doc_id!r}")
            obj = {key: row.get(key) for key in SCHEMA_KEYS}
            record, issues = record_from_object(obj, DocumentId(doc_id), row_index)
            if record is None or issues:
                raise GroundTruthError(
                    f"{path}:{row_index}: row rejected: "
                    + "; ".join(i.message for i in issues)
                )
            records.append(record)
    return records


def group_by_doc(records: list[AlloyRecord]) -> dict[str, list[AlloyRecord]]:
    grouped: dict[str, list[AlloyRecord]] = {}
    for record in records:
        grouped.setdefault(record.source.id, []).append(record)
    return grouped
