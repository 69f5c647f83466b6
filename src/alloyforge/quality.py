"""Post-extraction screening of lattice-constant records.

Covers the physical plausibility band, unit-conversion repair suggestions for
out-of-band values, engine-driven faithfulness audits of individual records,
and aggregation of the three recurring extraction error categories.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .engines import EngineRequest
from .records import AlloyRecord, DocumentId, record_to_object, serialize_record_set

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


class NonPositive(ValueError):
    pass


@dataclass
class PlausibilityPartition:
    accepted: list[AlloyRecord] = field(default_factory=list)
    rejected_low: list[AlloyRecord] = field(default_factory=list)
    rejected_high: list[AlloyRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.accepted) + len(self.rejected_low) + len(self.rejected_high)


@dataclass(frozen=True)
class RepairSuggestion:
    original: float
    repaired: float
    assumed_unit: str                 # nm | pm


@dataclass(frozen=True)
class AuditQuestion:
    text: str
    flag_on_no: str | None = None

    def __post_init__(self):
        if self.flag_on_no is not None and self.flag_on_no not in ERROR_TAGS:
            raise ValueError(f"unknown error tag {self.flag_on_no!r}")


@dataclass
class AuditReport:
    doc: DocumentId
    answers: list[tuple[str, str]]
    flags: set[str] = field(default_factory=set)
    warnings: list[str] = field(default_factory=list)
    record: AlloyRecord | None = None   # the audited record


def filter_plausible(records: list[AlloyRecord]) -> PlausibilityPartition:
    """Partition records by lattice-constant plausibility (``PLAUSIBLE_LO``, ``PLAUSIBLE_HI``).

    Records without a lattice constant are accepted; the screen applies to
    reported values only.
    """
    partition = PlausibilityPartition()
    for record in records:
        length = record.lattice_constant
        if length is None:
            partition.accepted.append(record)
        elif length.value <= PLAUSIBLE_LO:
            partition.rejected_low.append(record)
        elif length.value >= PLAUSIBLE_HI:
            partition.rejected_high.append(record)
        else:
            partition.accepted.append(record)
    return partition


def suggest_unit_repair(value: float) -> RepairSuggestion | None:
    """Propose a unit reinterpretation that moves ``value`` into the repair band.

    A value is assumed to be unconverted nanometers when a factor of 10 lands
    it in the band, unconverted picometers when a factor of 0.01 does. Values
    already inside the band need no repair. Repairs are suggestions only and
    are never applied silently.
    """
    if not value > 0:
        raise NonPositive(f"lattice value must be positive, got {value!r}")
    lo, hi = REPAIR_BAND
    if lo <= value <= hi:
        return None
    if lo <= value * 10.0 <= hi:
        return RepairSuggestion(original=value, repaired=value * 10.0, assumed_unit="nm")
    if lo <= value * 0.01 <= hi:
        return RepairSuggestion(original=value, repaired=value * 0.01, assumed_unit="pm")
    return None


def default_audit_questions() -> list[AuditQuestion]:
    """The shipped three-question audit list (ownership, identity, units)."""
    text = resources.files("alloyforge.data").joinpath("audit_questions.txt").read_text("utf-8")
    questions = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tag, _, question = line.partition("|")
        tag = tag.strip()
        questions.append(AuditQuestion(text=question.strip(), flag_on_no=tag or None))
    return questions


def faithfulness_audit(
    record: AlloyRecord,
    doc: DocumentId,
    questions: list[AuditQuestion],
    engine,
    corpus,
) -> AuditReport:
    """Ask the evaluator engine each audit question about one record.

    Answers are parsed for a leading YES/NO; a NO raises that question's error
    flag. Unparseable answers are kept verbatim with a warning and no flag.
    """
    document_text = corpus.text(doc.id)
    record_json = serialize_record_set([record])
    report = AuditReport(doc=doc, answers=[], record=record)
    for question in questions:
        request = EngineRequest(
            system_text=AUDIT_SYSTEM_TEXT,
            user_text=(
                f"QUESTION: {question.text}\n\n"
                f"EXTRACTED RECORD:\n{record_json}\n\n"
                f"DOCUMENT ({doc.id}):\n{document_text}"
            ),
            temperature=0.0,
        )
        response = engine.complete(request)
        answer = response.text.strip()
        report.answers.append((question.text, answer))
        lead = _ANSWER_LEAD_RE.match(answer)
        if lead is None:
            report.warnings.append(f"unparseable answer to {question.text!r}")
            continue
        if lead.group(1).lower() == "no" and question.flag_on_no:
            report.flags.add(question.flag_on_no)
    return report


def classify_errors(
    partition: PlausibilityPartition, audits: list[AuditReport]
) -> dict[str, int]:
    """Count records per error category.

    Out-of-band records with a successful unit repair count as unit errors,
    and each audit flag counts its report's record under that tag. A record
    may carry several tags but counts once per tag, however many sources
    name it; a report without a record stands for a record of its own.
    """
    tagged = {tag: set() for tag in ERROR_TAGS}   # tag -> ids of the records counted
    for record in partition.rejected_low + partition.rejected_high:
        if record.lattice_constant is None:
            continue
        if suggest_unit_repair(record.lattice_constant.value) is not None:
            tagged[UNIT_ERROR].add(id(record))
    for report in audits:
        for tag in report.flags:
            tagged[tag].add(id(report if report.record is None else report.record))
    return {tag: len(ids) for tag, ids in tagged.items()}


def record_label(record: AlloyRecord) -> str:
    """The alloy name, else the nominal-composition text, naming a record in reports."""
    return record.alloy_name or record_to_object(record)["nominal_composition"]


def quality_report_rows(
    partition: PlausibilityPartition,
    consistency_flags: list[tuple[AlloyRecord, object]] | None = None,
) -> list[dict[str, str]]:
    """Flatten screening outcomes into rows for the quality-report CSV."""
    rows = []
    for label, bucket in (("implausible_low", partition.rejected_low),
                          ("implausible_high", partition.rejected_high)):
        for record in bucket:
            value = record.lattice_constant.value
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
