"""Post-extraction screening of lattice-constant records.

Covers the physical plausibility band, unit-conversion repair suggestions for
out-of-band values, engine-driven faithfulness audits of individual records,
and aggregation of the three recurring extraction error categories.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .engines import EngineRequest
from .records import MISSING_SENTINEL, AlloyRecord, serialize_record_set

CONTEXTUAL_HALLUCINATION = "contextual_hallucination"
SEMANTIC_MISINTERPRETATION = "semantic_misinterpretation"
UNIT_ERROR = "unit_error"
ERROR_TAGS = (CONTEXTUAL_HALLUCINATION, SEMANTIC_MISINTERPRETATION, UNIT_ERROR)

PLAUSIBLE_LO = 1.0   # angstrom; values at or below are rejected
PLAUSIBLE_HI = 10.0  # angstrom; values at or above are rejected
REPAIR_BAND = (2.0, 8.0)  # repaired values must land here

_ANSWER_LEAD_RE = re.compile(r"^\W*(yes|no)\b", re.IGNORECASE)

AUDIT_SYSTEM_TEXT = (
    "You are auditing one machine-extracted alloy record against its source "
    "document. Answer the question with YES or NO first, then a one-sentence "
    "justification quoting the document where possible."
)

# (tag, question) in ERROR_TAGS order; an evaluator's NO raises the tag
AUDIT_QUESTIONS = (
    (CONTEXTUAL_HALLUCINATION,
     "Is the lattice constant in the extracted record truly the lattice constant of the "
     "listed alloy itself, and not that of a precipitate, secondary phase, or other "
     "material discussed in the document?"),
    (SEMANTIC_MISINTERPRETATION,
     "Is the extracted value really a lattice constant, and not a different "
     "crystallographic quantity such as a Burgers vector magnitude, interplanar "
     "spacing, or atomic radius?"),
    (UNIT_ERROR,
     "Is the extracted lattice constant expressed in angstroms, with any nanometer or "
     "picometer value from the source correctly converted?"),
)


@dataclass
class PlausibilityPartition:
    accepted: list[AlloyRecord] = field(default_factory=list)
    rejected_low: list[AlloyRecord] = field(default_factory=list)
    rejected_high: list[AlloyRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.accepted) + len(self.rejected_low) + len(self.rejected_high)


@dataclass(frozen=True)
class RepairSuggestion:
    repaired: float
    assumed_unit: str                 # nm | pm


@dataclass
class AuditReport:
    record: AlloyRecord               # the audited record
    answers: list[tuple[str, str]]
    flags: set[str] = field(default_factory=set)


def plausibility(record: AlloyRecord) -> str:
    """The band rule: the ``PlausibilityPartition`` bucket a record belongs in.

    ``accepted`` inside (``PLAUSIBLE_LO``, ``PLAUSIBLE_HI``), ``rejected_low``
    or ``rejected_high`` outside it. Records without a lattice constant are
    accepted; the screen applies to reported values only.
    """
    length = record.lattice_constant
    if length is None or PLAUSIBLE_LO < length < PLAUSIBLE_HI:
        return "accepted"
    return "rejected_low" if length <= PLAUSIBLE_LO else "rejected_high"


def filter_plausible(records: list[AlloyRecord]) -> PlausibilityPartition:
    """Partition records by ``plausibility``, each bucket in input order."""
    partition = PlausibilityPartition()
    for record in records:
        getattr(partition, plausibility(record)).append(record)
    return partition


def suggest_unit_repair(value: float) -> RepairSuggestion | None:
    """Propose a unit reinterpretation that moves ``value`` into the repair band.

    A value is assumed to be unconverted nanometers when a factor of 10 lands
    it in the band, unconverted picometers when a factor of 0.01 does. Values
    already inside the band need no repair. Repairs are suggestions only and
    are never applied silently.
    """
    if not value > 0:
        raise ValueError(f"lattice value must be positive, got {value!r}")
    lo, hi = REPAIR_BAND
    if lo <= value <= hi:
        return None
    if lo <= value * 10.0 <= hi:
        return RepairSuggestion(repaired=value * 10.0, assumed_unit="nm")
    if lo <= value * 0.01 <= hi:
        return RepairSuggestion(repaired=value * 0.01, assumed_unit="pm")
    return None


def faithfulness_audit(
    record: AlloyRecord, engine, document: tuple[str, tuple]
) -> AuditReport:
    """Ask the evaluator engine each of ``AUDIT_QUESTIONS`` about one record and its source.

    ``document`` is the ``(text, attachments)`` pair that
    ``CorpusStore.request_document`` gives for the record's document. Answers
    are parsed for a leading YES/NO; a NO raises that question's error flag.
    An unparseable answer is kept verbatim and raises no flag.
    """
    doc_id = record.source.id
    text, attachments = document
    record_json = serialize_record_set([record])
    report = AuditReport(record=record, answers=[])
    for tag, question in AUDIT_QUESTIONS:
        request = EngineRequest(
            system_text=AUDIT_SYSTEM_TEXT,
            user_text=(
                f"QUESTION: {question}\n\n"
                f"EXTRACTED RECORD:\n{record_json}\n\n"
                f"DOCUMENT ({doc_id}):\n{text}"
            ),
            attachments=attachments,
            temperature=0.0,
        )
        response = engine.complete(request)
        answer = response.text.strip()
        report.answers.append((question, answer))
        lead = _ANSWER_LEAD_RE.match(answer)
        if lead is not None and lead.group(1).lower() == "no":
            report.flags.add(tag)
    return report


def classify_errors(
    records: list[AlloyRecord], audits: list[AuditReport]
) -> dict[str, int]:
    """Count records per error category.

    Those of ``records`` that ``plausibility`` puts out of band and that have a
    unit repair count as unit errors, and each audit flag counts its report's
    record under that tag. A record may carry several tags but counts once per
    tag, however many sources name it.
    """
    tagged = {tag: set() for tag in ERROR_TAGS}   # tag -> ids of the records counted
    for record in records:
        if (plausibility(record) != "accepted"
                and suggest_unit_repair(record.lattice_constant) is not None):
            tagged[UNIT_ERROR].add(id(record))
    for report in audits:
        for tag in report.flags:
            tagged[tag].add(id(report.record))
    return {tag: len(ids) for tag, ids in tagged.items()}


def record_label(record: AlloyRecord) -> str:
    """The alloy name, else the nominal-composition text, naming a record in reports."""
    return record.alloy_name or record.raw_fields.get("nominal_composition", MISSING_SENTINEL)


def quality_report_rows(
    partition: PlausibilityPartition,
    consistency_flags: list[tuple[AlloyRecord, object]] | None = None,
) -> list[dict[str, str]]:
    """Flatten screening outcomes into rows for the quality-report CSV."""
    rows = []
    for label, bucket in (("implausible_low", partition.rejected_low),
                          ("implausible_high", partition.rejected_high)):
        for record in bucket:
            value = record.lattice_constant
            repair = suggest_unit_repair(value)
            rows.append(
                {
                    "doc_id": record.source.id,
                    "alloy": record_label(record),
                    "field": "lattice_constant_angstrom",
                    "issue": label,
                    "original": repr(value),
                    "suggestion": repr(repair.repaired) + f" (assumed {repair.assumed_unit})"
                    if repair
                    else "",
                }
            )
    for record, report in consistency_flags or []:
        rows.append(
            {
                "doc_id": record.source.id,
                "alloy": record_label(record),
                "field": " vs ".join(report.compared_pair),
                "issue": "composition_inconsistent",
                "original": f"l1={report.l1:.4f} cosine={report.cosine:.4f}",
                "suggestion": "",
            }
        )
    return rows
