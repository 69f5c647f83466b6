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
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring
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

GROUND_TRUTH_COLUMNS = ("doc_id",) + SCHEMA_KEYS


class RecordError(ValueError):
    pass


class MalformedOutput(RecordError):
    """No parseable record block was found in the model output."""


@dataclass(frozen=True, slots=True)
class DocumentId:
    id: str

    def __post_init__(self):
        if not self.id:
            raise RecordError("document id must be non-empty")


@dataclass(frozen=True, slots=True)
class AlloyRecord:
    """One extracted or curated entry; ``raw_fields`` holds the exact text of
    each present field, keyed by schema key, and is what serialization writes.
    ``phase`` is one of ``PHASE_KINDS``, ``processing`` one of
    ``PROCESSING_KINDS``, and ``lattice_constant`` a positive, finite length
    in angstroms."""

    source: DocumentId
    alloy_name: str | None = None
    nominal_composition: Composition | None = None
    measured_composition: Composition | None = None
    phase: str = "unknown"
    processing: str = "unreported"
    lattice_constant: float | None = None
    raw_fields: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.alloy_name is None and self.nominal_composition is None:
            raise RecordError("record needs at least one of alloy_name / nominal_composition")
        if self.phase not in PHASE_KINDS:
            raise RecordError(f"unknown phase kind {self.phase!r}")
        if self.processing not in PROCESSING_KINDS:
            raise RecordError(f"unknown processing kind {self.processing!r}")
        if self.lattice_constant is not None:
            _positive_length(self.lattice_constant)


@dataclass(frozen=True, slots=True)
class FieldParseIssue:
    entry_index: int
    field: str | None
    message: str
    entry_dropped: bool = False


@dataclass
class RecordSetParseResult:
    records: list[AlloyRecord]
    issues: list[FieldParseIssue]


# --- field-level normalization -------------------------------------------------

_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)
_BRACKET_RE = re.compile(r"[\[{]")
# inside a bracket span: a JSON string, ended by its closing quote or its
# line's end, or a bracket
_SPAN_TOKEN_RE = re.compile(r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"?|[\[\]{}]')
# a record block nests two deep; a candidate nested deeper than this is none.
# The bound sits far below the recursion limit, so that no RecursionError,
# whose onset depends on the caller's stack depth, decides a verdict
MAX_NESTING = 100
_NUMBER = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|[-+]?\.\d+"
# a number whose sign or first digit directly follows a letter belongs to a
# symbol such as the space groups Fm-3m and P63/mmc, not to the value
_LENGTH_VALUE_RE = re.compile(rf"(?<=[^\W\d_])(?:{_NUMBER})|(?P<value>{_NUMBER})")
_MULTIPHASE_RE = re.compile(r"\+|&|\bdual\b|\bmulti|two[- ]phase|\bmixed\b", re.IGNORECASE)
_BCC_RE = re.compile(r"bcc|body[- ]cent")
_FCC_RE = re.compile(r"fcc|face[- ]cent")
_HCP_RE = re.compile(r"hcp|hexagonal close")
_ORDERED_RE = re.compile(r"\bb2\b|\bl12\b|\blaves\b|\bsigma\b")
_BARE_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?")
_COMMA_DIGITS_RE = re.compile(r",(\d+)")
# a unit is a word of its own or glued to the number before it ("0.36nm"),
# so no letter may precede it
_NM_RE = re.compile(r"(?<![^\W\d])nm\b")
_PM_RE = re.compile(r"(?<![^\W\d])pm\b")
# phase and processing wordings repeat across records and their kinds are
# immutable, so each distinct text is classified once
_KIND_CACHE_SIZE = 1024


def is_missing(value) -> bool:
    """True for the "Not found" sentinel (any case/whitespace) and empty values."""
    # text whose first character is neither whitespace nor one of the two that
    # lowercase to "n" (the first letter of the sentinel) is present
    if value.__class__ is str and value[:1] not in "nN" and not value[0].isspace():
        return False
    if value is None:
        return True
    text = " ".join(str(value).split()).lower()
    return text in ("", "not found")


@lru_cache(maxsize=_KIND_CACHE_SIZE)
def _phase_of(text: str) -> str:
    """The phase kind of text already known not to be missing."""
    low = " ".join(str(text).split()).lower()
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
        return "multiphase"
    if structures == {"bcc"}:
        return "BCC"
    if structures == {"fcc"}:
        return "FCC"
    if structures == {"hcp"}:
        return "HCP"
    if structures == {"amorphous"}:
        return "amorphous"
    return "other"


@lru_cache(maxsize=_KIND_CACHE_SIZE)
def _processing_of(text: str) -> str:
    """The processing kind of text already known not to be missing."""
    low = " ".join(str(text).split()).lower()
    if any(p in low for p in ("anneal", "homogeniz", "heat treat", "heat-treat", "aged", "aging")):
        return "annealed"
    if any(p in low for p in ("additive", "laser melt", "slm", "lpbf", "3d print",
                              "electron beam melt", "directed energy")):
        return "additive"
    if any(p in low for p in ("powder", "sinter", "mechanical alloy", "spark plasma", "milling")):
        return "powder_processed"
    if any(p in low for p in ("as-cast", "as cast", "cast", "arc melt", "arc-melt", "solidif")):
        return "as_cast"
    return "other"


def parse_length(text) -> float:
    """Parse a lattice-constant string into angstroms; a value marked 'nm' or
    'pm' is scaled, any other is taken as angstroms. A value written with a
    decimal comma, or one that is not positive and finite, is refused rather
    than kept."""
    raw = str(text)
    # an unsigned decimal alone is its own value, with no symbol and no unit
    if _BARE_NUMBER_RE.fullmatch(raw):
        return _positive_length(float(raw))
    for match in _LENGTH_VALUE_RE.finditer(raw):
        if match["value"]:
            break
    else:
        raise RecordError(f"no numeric value in lattice field {raw!r}")
    value_text = match["value"]
    comma = "," in raw and _COMMA_DIGITS_RE.match(raw, match.end())
    if comma:
        # the repair is suggested, never applied
        hint = (f"; write {value_text}.{comma[1]} if that is the value"
                if value_text.lstrip("+-").isdigit() else "")
        raise RecordError(f"decimal comma after {value_text!r} in lattice field {raw!r}{hint}")
    value = float(value_text)
    low = raw.lower()
    # every match of either pattern contains its guard, so the guards skip no match
    if "nm" in low and _NM_RE.search(low):
        value *= 10.0
    elif "pm" in low and _PM_RE.search(low):
        value /= 100.0
    return _positive_length(value)


def _positive_length(value: float) -> float:
    """``value``, refused unless it is a positive, finite length."""
    if not 0 < value < math.inf:
        raise RecordError(f"length must be positive and finite, got {value!r}")
    return value


# --- record <-> JSON object -----------------------------------------------------


def record_to_object(record: AlloyRecord) -> dict[str, str]:
    """Render one record as the six-key JSON object: each present field as the
    exact text it was read from, the sentinel for each absent one."""
    return {key: record.raw_fields.get(key, MISSING_SENTINEL) for key in SCHEMA_KEYS}


def record_from_object(obj: dict, source: DocumentId, entry_index: int = 0):
    """Parse one JSON object into (record | None, issues)."""
    issues: list[FieldParseIssue] = []
    # the text of each present field; it becomes the record's raw_fields
    values: dict[str, str] = {}
    for key in SCHEMA_KEYS:
        value = obj.get(key)
        if isinstance(value, str):
            # the sentinel as the schema writes it needs no normalization
            if value == MISSING_SENTINEL or is_missing(value):
                continue
        elif value is None:
            continue
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            value = str(value)  # repr of a NumPy float names its type
        else:
            issues.append(FieldParseIssue(entry_index, key, f"non-text value {value!r}"))
            continue
        values[key] = value

    compositions = []
    for key in ("nominal_composition", "measured_composition"):
        composition = None
        if key in values:
            try:
                composition = parse_formula(values[key])
            except CompositionError as exc:
                issues.append(FieldParseIssue(entry_index, key, str(exc)))
                del values[key]
        compositions.append(composition)
    nominal, measured = compositions
    lattice = None
    if "lattice_constant_angstrom" in values:
        try:
            lattice = parse_length(values["lattice_constant_angstrom"])
        except RecordError as exc:
            issues.append(FieldParseIssue(entry_index, "lattice_constant_angstrom", str(exc)))
            del values["lattice_constant_angstrom"]
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
        phase=_phase_of(values["phase"]) if "phase" in values else "unknown",
        processing=(_processing_of(values["processing_condition"])
                    if "processing_condition" in values else "unreported"),
        lattice_constant=lattice,
        raw_fields=values,
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


def parse_record_set(text: str, source: DocumentId) -> RecordSetParseResult:
    """Parse a raw model completion into records plus per-entry issues.

    Every well-formed entry becomes a record; entries that fail to parse are
    reported as issues, never silently dropped. Raises MalformedOutput when no
    record block can be located at all.
    """
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
    return RecordSetParseResult(records=records, issues=issues)


# each field's opening as json.dumps(indent=2) writes it inside a record object
_FIELD_OPENERS = tuple(f'    "{key}": ' for key in SCHEMA_KEYS)


def serialize_record_set(records: list[AlloyRecord]) -> str:
    """Canonical, deterministic JSON for a record set (round-trips exactly).

    The bytes of ``json.dumps([record_to_object(r) for r in records],
    indent=2, ensure_ascii=False)``, written directly: ``json`` runs its
    pure-Python encoder whenever ``indent`` is set, and this layout is fixed,
    so each value needs only ``encode_basestring``, which is what
    ``json.dumps(ensure_ascii=False)`` applies to a ``str``.
    """
    if not records:
        return "[]"
    objects = []
    for record in records:
        raw = record.raw_fields
        fields = ",\n".join(opener + encode_basestring(raw.get(key, MISSING_SENTINEL))
                            for opener, key in zip(_FIELD_OPENERS, SCHEMA_KEYS))
        objects.append("  {\n" + fields + "\n  }")
    return "[\n" + ",\n".join(objects) + "\n]"


def _extract_entries(text: str) -> list:
    """The entries of the first record block: the whole text, else a fenced
    block, else a bracket span found by ``_candidate_spans``, arrays first.
    A candidate nested deeper than ``MAX_NESTING`` is no record block."""
    fences = (m.group(1).strip() for m in _FENCE_RE.finditer(text))
    # each span a slice, so that a decode error costs the span, not the text before it
    spans = (text[start:end] for opener in "[{" for start, end in _candidate_spans(text, opener))
    for candidate in chain([text.strip()], fences, spans):
        if not candidate or _nests_too_deep(candidate):
            continue
        try:
            value = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        entries = _coerce_entries(value)
        if entries is not None:
            return entries
    raise MalformedOutput("no parseable record block in output")


def _nests_too_deep(candidate: str) -> bool:
    """True when the candidate's brackets outside strings nest past
    ``MAX_NESTING``; the depth is scanned only when it has more openers."""
    if candidate.count("[") + candidate.count("{") <= MAX_NESTING:
        return False
    depth = 0
    for m in _SPAN_TOKEN_RE.finditer(candidate):
        token = m[0]
        if token == "[" or token == "{":
            depth += 1
            if depth > MAX_NESTING:
                return True
        elif token == "]" or token == "}":
            depth -= 1
    return False


def _candidate_spans(text: str, opener: str):
    """Yield (start, end) of each balanced span that opens with ``opener`` and
    lies in no other such balanced span, in text order, each once.

    One left-to-right scan: prose is skipped to the next bracket, from which
    strings and bracket depth are tracked until the depth returns to zero. A
    string left open ends with its line, as a JSON string holds no line break.
    A span never closed is no candidate, but the spans inside it are; they are
    yielded when the text ends. Brackets inside a span that is itself a
    candidate are not tried on their own, so the scan is linear in the text.
    """
    nested: list[tuple[int, int]] = []  # candidates inside a still open opener
    found = _BRACKET_RE.search(text)
    while found is not None:
        stack: list[tuple[int, str]] = []
        open_openers = 0
        for m in _SPAN_TOKEN_RE.finditer(text, found.start()):
            token = m[0]
            if token == "[" or token == "{":
                stack.append((m.start(), token))
                if token == opener:
                    open_openers += 1
            elif token == "]" or token == "}":
                start, bracket = stack.pop()
                if bracket == opener:
                    open_openers -= 1
                    while nested and nested[-1][0] > start:
                        nested.pop()  # inside this span, which replaces them
                    if open_openers:
                        nested.append((start, m.end()))
                    else:
                        yield start, m.end()
                if not stack:
                    found = _BRACKET_RE.search(text, m.end())
                    break
        else:
            yield from nested
            return


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


def load_ground_truth(path) -> list[AlloyRecord]:
    """Load an expert-curated CSV into records, one per row, strictly validated.

    The records of one document share one ``DocumentId``.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [column for column in GROUND_TRUTH_COLUMNS if column not in header]
        if missing:
            raise RecordError(f"{path}: missing column(s) {', '.join(missing)}")
        records = []
        sources: dict[str, DocumentId] = {}
        for row_index, row in enumerate(reader, start=2):
            doc_id = (row.get("doc_id") or "").strip()
            if not doc_id:
                raise RecordError(f"{path}:{row_index}: empty doc_id")
            source = sources.get(doc_id)
            if source is None:
                source = sources[doc_id] = DocumentId(doc_id)
            record, issues = record_from_object(row, source, row_index)
            if record is None or issues:
                raise RecordError(
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
