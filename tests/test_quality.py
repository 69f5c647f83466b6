import numpy as np
import pytest

from alloyforge.engines import EngineResponse
from alloyforge.quality import (
    AUDIT_QUESTIONS,
    CONTEXTUAL_HALLUCINATION,
    ERROR_TAGS,
    SEMANTIC_MISINTERPRETATION,
    UNIT_ERROR,
    classify_errors,
    faithfulness_audit,
    filter_plausible,
    quality_report_rows,
    suggest_unit_repair,
)
from alloyforge.records import DocumentId, make_record

DOC = DocumentId("docQ")


def rec(lattice=None, formula="MoNbTaW"):
    return make_record(DOC, alloy_name=formula, nominal_composition=formula,
                       lattice_constant=lattice)


class TestFilterPlausible:
    def test_band_examples(self):
        records = [rec(3.19), rec(0.319), rec(10.9), rec(None)]
        part = filter_plausible(records)
        assert part.accepted == [records[0], records[3]]
        assert part.rejected_low == [records[1]]
        assert part.rejected_high == [records[2]]

    def test_boundaries_excluded(self):
        part = filter_plausible([rec(1.0), rec(10.0)])
        assert part.rejected_low and part.rejected_high and not part.accepted

    def test_partition_complete(self):
        rng = np.random.default_rng(8)
        records = [rec(float(v)) for v in rng.uniform(0.05, 15.0, 200)]
        part = filter_plausible(records)
        assert len(part) == len(records)


class TestUnitRepair:
    def test_nanometer_case(self):
        repair = suggest_unit_repair(0.319)
        assert repair.assumed_unit == "nm"
        assert repair.repaired == pytest.approx(3.19, abs=1e-9)

    def test_picometer_case(self):
        repair = suggest_unit_repair(319.0)
        assert repair.assumed_unit == "pm"
        assert repair.repaired == pytest.approx(3.19, abs=1e-9)

    def test_second_anchor(self):
        assert suggest_unit_repair(0.323).repaired == pytest.approx(3.23, abs=1e-9)

    def test_in_band_none(self):
        assert suggest_unit_repair(3.23) is None

    def test_unrepairable(self):
        assert suggest_unit_repair(0.05) is None
        assert suggest_unit_repair(50.0) is None

    def test_nonpositive(self):
        with pytest.raises(ValueError, match="lattice value must be positive, got 0.0"):
            suggest_unit_repair(0.0)

    def test_idempotence(self):
        rng = np.random.default_rng(9)
        for value in rng.uniform(0.01, 1000.0, 500):
            repair = suggest_unit_repair(float(value))
            if repair is not None:
                assert 2.0 <= repair.repaired <= 8.0
                assert suggest_unit_repair(repair.repaired) is None

    def test_hypotheses_disjoint(self):
        # the nm window is (0.2, 0.8), the pm window (200, 800): never both
        for value in np.linspace(0.01, 1000.0, 10000):
            in_nm = 2.0 <= value * 10.0 <= 8.0
            in_pm = 2.0 <= value * 0.01 <= 8.0
            assert not (in_nm and in_pm)


class _ScriptedAuditEngine:
    """Answers each question from a substring-keyed script."""

    def __init__(self, script):
        self.script = script

    def complete(self, request):
        for probe, answer in self.script.items():
            if probe in request.user_text:
                return EngineResponse(text=answer)
        return EngineResponse(text="Yes, this checks out.")


# a plain-text document as CorpusStore.request_document gives it
_DOCUMENT = ("The alloy was studied; details omitted.", ())


class TestFaithfulnessAudit:
    def test_one_question_per_error_tag_in_tag_order(self):
        assert tuple(tag for tag, _ in AUDIT_QUESTIONS) == ERROR_TAGS

    def test_burgers_vector_flag(self):
        engine = _ScriptedAuditEngine(
            {
                "really a lattice constant": (
                    "No, the value given (0.255) appears to be the Burgers "
                    "vector magnitude, not the lattice constant."
                )
            }
        )
        report = faithfulness_audit(rec(2.55), engine, _DOCUMENT)
        assert report.flags == {SEMANTIC_MISINTERPRETATION}

    def test_precipitate_flag(self):
        engine = _ScriptedAuditEngine(
            {
                "not that of a precipitate": (
                    "No. That value belongs to the precipitate phase, not the matrix."
                )
            }
        )
        report = faithfulness_audit(rec(10.9), engine, _DOCUMENT)
        assert report.flags == {CONTEXTUAL_HALLUCINATION}

    def test_all_yes_no_flags(self):
        report = faithfulness_audit(rec(3.2), _ScriptedAuditEngine({}), _DOCUMENT)
        assert report.flags == set()
        assert len(report.answers) == 3

    def test_unparseable_answer_is_kept_without_a_flag(self):
        engine = _ScriptedAuditEngine(
            {"really a lattice constant": "The question is hard to answer."}
        )
        report = faithfulness_audit(rec(3.2), engine, _DOCUMENT)
        assert report.flags == set()
        assert "The question is hard to answer." in [answer for _, answer in report.answers]


class TestClassifyErrors:
    def test_twenty_one_near_03(self):
        rng = np.random.default_rng(10)
        low = [rec(float(v)) for v in rng.uniform(0.28, 0.35, 21)]
        fine = [rec(float(v)) for v in rng.uniform(2.9, 3.5, 30)]
        unrepairable = [rec(10.9), rec()]   # out of band without a repair; no value
        counts = classify_errors(low + fine + unrepairable, [])
        assert counts[UNIT_ERROR] == 21
        assert counts[CONTEXTUAL_HALLUCINATION] == 0

    def test_audit_flags_counted(self):
        from alloyforge.quality import AuditReport

        reports = [
            AuditReport(record=rec(3.2), answers=[], flags={SEMANTIC_MISINTERPRETATION}),
            AuditReport(record=rec(3.3), answers=[],
                        flags={SEMANTIC_MISINTERPRETATION, UNIT_ERROR}),
        ]
        counts = classify_errors([], reports)
        assert counts[SEMANTIC_MISINTERPRETATION] == 2
        assert counts[UNIT_ERROR] == 1

    def test_empty(self):
        counts = classify_errors([], [])
        assert set(counts.values()) == {0}


class TestQualityReportRows:
    def test_rows_cover_rejections(self):
        part = filter_plausible([rec(0.319), rec(10.9), rec(3.2)])
        rows = quality_report_rows(part)
        assert len(rows) == 2
        low_row = next(r for r in rows if r["issue"] == "implausible_low")
        assert "3.19" in low_row["suggestion"]
        high_row = next(r for r in rows if r["issue"] == "implausible_high")
        assert high_row["suggestion"] == ""  # 10.9 has no in-band repair
