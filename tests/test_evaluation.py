import time

import numpy as np
import pytest

from alloyforge.composition import Composition
from alloyforge.evaluation import (
    ConfusionCounts,
    DocumentMismatch,
    EntityMetrics,
    SCORABLE_FIELDS,
    UnknownField,
    composite_criterion,
    evaluate_run,
    f1,
    match_entries,
    precision,
    recall,
    score_entities,
)
from alloyforge.records import DocumentId, make_record

from tests.oracles import brute_force_assignment, random_composition

DOC = DocumentId("docE")


def rec(formula, phase="BCC", processing="as-cast", lattice=None, name=None):
    return make_record(
        DOC,
        alloy_name=name or formula,
        nominal_composition=formula,
        phase=phase,
        processing=processing,
        lattice_constant=lattice,
    )


class TestMetricsArithmetic:
    def test_reported_anchor_values(self):
        assert precision(ConfusionCounts(tp=20, fp=3)) == pytest.approx(0.8696, abs=5e-4)
        assert recall(ConfusionCounts(tp=20, fn=2)) == pytest.approx(0.9091, abs=5e-4)
        assert precision(ConfusionCounts(tp=43, fp=4)) == pytest.approx(0.9149, abs=5e-4)
        assert recall(ConfusionCounts(tp=43, fn=1)) == pytest.approx(0.9773, abs=5e-4)
        assert f1(43 / 47, 43 / 44) == pytest.approx(0.945, abs=1e-3)
        assert f1(1.0, 0.273) == pytest.approx(0.429, abs=1e-3)

    def test_zero_denominators(self):
        zero = ConfusionCounts()
        assert precision(zero) == 0.0 and recall(zero) == 0.0
        assert f1(0.0, 0.0) == 0.0

    def test_bounds_and_mean_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            counts = ConfusionCounts(*(int(v) for v in rng.integers(0, 50, 3)))
            p, r = precision(counts), recall(counts)
            score = f1(p, r)
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= score <= 1.0
            assert score <= (p + r) / 2 + 1e-12
            assert (score == 0.0) == (counts.tp == 0)

    def test_entity_metrics_from_counts(self):
        metrics = EntityMetrics.from_counts(ConfusionCounts(tp=20, fp=3, fn=2))
        assert metrics.precision == pytest.approx(20 / 23)
        assert metrics.recall == pytest.approx(20 / 22)


class TestCompositeCriterion:
    def test_cases(self):
        assert composite_criterion(rec("MoNbTaW"))
        assert not composite_criterion(rec("MoNbTaW", phase="BCC + FCC"))
        assert not composite_criterion(rec("MoNbTaW", processing="annealed"))
        assert not composite_criterion(rec("MoNbTaW", phase="FCC"))


class TestMatchEntries:
    def test_identical_single(self):
        extracted, truth = [rec("MoNbTaW")], [rec("MoNbTaW")]
        result = match_entries(extracted, truth)
        assert result.pairs == [(0, 0)]
        assert not result.unmatched_extracted and not result.unmatched_truth

    def test_l1_gate_blocks(self):
        result = match_entries([rec("Al0.5CoFeNi")], [rec("Al0.75CoFeNi")])
        assert result.pairs == []
        assert result.unmatched_extracted == [0] and result.unmatched_truth == [0]

    def test_element_set_gate(self):
        result = match_entries([rec("MoNbTaW")], [rec("MoNbTa")])
        assert result.pairs == []

    def test_permuted_three_by_three(self):
        truth = [rec("AlCoCrFeNi"), rec("Al0.9CoCrFeNi"), rec("MoNbTaW")]
        extracted = [truth[2], truth[0], truth[1]]
        result = match_entries(extracted, truth)
        assert sorted(result.pairs) == [(0, 2), (1, 0), (2, 1)]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        for trial in range(60):
            extracted, truth = _random_instance(rng)
            result = match_entries(extracted, truth)
            card, cost, optima = brute_force_assignment(extracted, truth)
            got = tuple(sorted(result.pairs, key=lambda p: p[1]))
            assert len(got) == card
            total = sum(
                _l1(extracted[e], truth[t]) for e, t in got
            )
            assert total == pytest.approx(cost, abs=1e-9)
            assert got == _lexicographic_min(optima)

    # the brute-force oracle enumerates at most 9!/1! = 362880 full mappings
    # per case (about a second); 8-9-0 has the most tied optima here, 43200
    @pytest.mark.parametrize(
        "n_extracted, n_truth, seed",
        [(8, 8, 1), (8, 8, 3), (8, 8, 10), (8, 9, 0), (8, 9, 3), (8, 9, 4)],
    )
    def test_tied_groups_match_brute_force(self, n_extracted, n_truth, seed):
        # three mutually admissible MoNbTaW variants, drawn with repeats, so
        # thousands of assignments share the optimal cost
        rng = np.random.default_rng(seed)
        variants = [_same_alloy_record(k) for k in (0, 10, 20)]
        extracted = [variants[i] for i in rng.integers(0, 3, n_extracted)]
        truth = [variants[i] for i in rng.integers(0, 3, n_truth)]
        result = match_entries(extracted, truth)
        card, _, optima = brute_force_assignment(extracted, truth)
        assert card == n_extracted and len(optima) > 1
        assert tuple(result.pairs) == _lexicographic_min(optima)

    def test_duplicate_prefers_earliest_truth(self):
        extracted = [rec("MoNbTaW")]
        truth = [rec("MoNbTaW"), rec("MoNbTaW")]
        assert match_entries(extracted, truth).pairs == [(0, 0)]

    @pytest.mark.parametrize("n_extracted, n_truth", [(7, 12), (7, 16), (40, 40)])
    def test_same_alloy_groups_are_fast(self, n_extracted, n_truth):
        truth = [_same_alloy_record(k) for k in range(n_truth)]
        picks = np.linspace(0, n_truth - 1, n_extracted).round().astype(int).tolist()
        extracted = [truth[t] for t in picks]
        result, seconds = _timed_match(extracted, truth)
        assert result.pairs == list(enumerate(picks))
        assert seconds < 0.05

    def test_identical_records_are_fast(self):
        records = [_same_alloy_record(0)] * 40
        result, seconds = _timed_match(records, records)
        assert result.pairs == [(i, i) for i in range(40)]
        assert seconds < 0.05


def _same_alloy_record(k):
    """MoNbTaW with k thousandths moved from W to Mo."""
    comp = Composition.from_coefficients({"Mo": 230 + k, "Nb": 250, "Ta": 250, "W": 270 - k})
    return make_record(DOC, alloy_name="MoNbTaW", nominal_composition=comp)


def _lexicographic_min(optima):
    """The optimum whose pair sequence, read as (truth, extracted), is smallest."""
    return min(optima, key=lambda pairing: [(t, e) for e, t in pairing])


def _timed_match(extracted, truth):
    """Best of three wall times, so one descheduling does not fail the bound."""
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        result = match_entries(extracted, truth)
        timings.append(time.perf_counter() - started)
    return result, min(timings)


def _l1(a, b):
    from alloyforge.composition import l1_distance

    return l1_distance(a.nominal_composition, b.nominal_composition)


def _random_instance(rng, max_side=5):
    pool = [random_composition(rng, max_elements=3) for _ in range(4)]
    def build(count):
        out = []
        for _ in range(count):
            base = pool[int(rng.integers(0, len(pool)))]
            if rng.random() < 0.5:
                jitter = {
                    sym: max(0.01, frac + rng.normal(0, 0.02))
                    for sym, frac in base.fractions.items()
                }
                comp = Composition.from_coefficients(jitter)
            else:
                comp = base
            out.append(
                make_record(DOC, alloy_name=comp.canonical_formula(),
                            nominal_composition=comp)
            )
        return out

    return build(int(rng.integers(0, max_side + 1))), build(int(rng.integers(1, max_side + 1)))


class TestScoreEntities:
    def test_perfect_match_all_fields(self):
        records = [rec("MoNbTaW", lattice=3.2) for _ in range(5)]
        # distinct compositions so the records are distinguishable
        records = [
            rec(f, lattice=3.2)
            for f in ("MoNbTaW", "MoNbTaVW", "NbTaVW", "HfNbTaTiZr", "AlCoCrFeNi")
        ]
        result = match_entries(records, records)
        counts = score_entities(result, records, records, fields=SCORABLE_FIELDS)
        for field_counts in counts.values():
            assert (field_counts.tp, field_counts.fp, field_counts.fn) == (5, 0, 0)

    def test_gate_failure_poisons_all_fields(self):
        extracted = [rec("MoNbTaW", phase="BCC", lattice=3.2)]
        truth = [rec("MoNbTaW", phase="BCC + FCC", lattice=3.2)]
        result = match_entries(extracted, truth)
        assert result.pairs == [(0, 0)]
        counts = score_entities(result, extracted, truth, fields=SCORABLE_FIELDS)
        for name in SCORABLE_FIELDS:
            assert counts[name].fp == 1
            assert counts[name].fn == 0  # truth entry is out of the composite scope

    def test_gate_miss_counts_fn(self):
        extracted = [rec("MoNbTaW", phase="BCC + FCC", lattice=3.2)]
        truth = [rec("MoNbTaW", phase="BCC", lattice=3.2)]
        result = match_entries(extracted, truth)
        counts = score_entities(result, extracted, truth, fields=SCORABLE_FIELDS)
        for name in SCORABLE_FIELDS:
            assert counts[name].fn == 1
            assert counts[name].fp == 0

    def test_field_error_counts_fp_and_fn(self):
        extracted = [rec("MoNbTaW", lattice=3.10)]
        truth = [rec("MoNbTaW", lattice=3.20)]
        result = match_entries(extracted, truth)
        counts = score_entities(result, extracted, truth)
        assert (counts["lattice_constant"].tp, counts["lattice_constant"].fp,
                counts["lattice_constant"].fn) == (0, 1, 1)
        assert counts["nominal_composition"].tp == 1

    def test_lattice_tolerance(self):
        extracted = [rec("MoNbTaW", lattice=3.204)]
        truth = [rec("MoNbTaW", lattice=3.200)]
        result = match_entries(extracted, truth)
        counts = score_entities(result, extracted, truth)
        assert counts["lattice_constant"].tp == 1
        extracted = [rec("MoNbTaW", lattice=3.206)]
        counts = score_entities(match_entries(extracted, truth), extracted, truth)
        assert counts["lattice_constant"].tp == 0

    def test_unmatched_records(self):
        extracted = [rec("MoNbTaW"), rec("AlCoCrFeNi")]
        truth = [rec("MoNbTaW"), rec("HfNbTaTiZr")]
        result = match_entries(extracted, truth)
        counts = score_entities(result, extracted, truth)
        for name, c in counts.items():
            assert (c.tp, c.fp, c.fn) == (1, 1, 1), name

    def test_unknown_field(self):
        with pytest.raises(UnknownField):
            score_entities(match_entries([], []), [], [], fields=("bogus",))

    def test_conservation(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            extracted, truth = _random_instance(rng)
            result = match_entries(extracted, truth)
            counts = score_entities(result, extracted, truth)
            for c in counts.values():
                assert c.tp + c.fn == len(truth)
                assert c.tp + c.fp == len(extracted)

    def test_conservation_gated(self):
        rng = np.random.default_rng(42)
        phases = ("BCC", "FCC", "BCC + FCC")
        procs = ("as-cast", "annealed")
        for _ in range(40):
            extracted, truth = _random_instance(rng)
            extracted = [
                rec(r.raw_fields["nominal_composition"],
                    phase=phases[int(rng.integers(0, 3))],
                    processing=procs[int(rng.integers(0, 2))])
                for r in extracted
            ]
            truth = [
                rec(r.raw_fields["nominal_composition"],
                    phase=phases[int(rng.integers(0, 3))],
                    processing=procs[int(rng.integers(0, 2))])
                for r in truth
            ]
            result = match_entries(extracted, truth)
            counts = score_entities(result, extracted, truth, fields=SCORABLE_FIELDS)
            n_truth = sum(1 for t in truth if composite_criterion(t))
            n_extracted = sum(1 for e in extracted if composite_criterion(e))
            for c in counts.values():
                assert c.tp + c.fn == n_truth
                assert c.tp + c.fp == n_extracted


class TestEvaluateRun:
    def _doc_records(self, doc_id, formulas, lattice=3.2):
        doc = DocumentId(doc_id)
        return [
            make_record(doc, alloy_name=f, nominal_composition=f, phase="BCC",
                        processing="as-cast", lattice_constant=lattice)
            for f in formulas
        ]

    def test_identical_is_perfect(self):
        truth = {
            "a": self._doc_records("a", ["MoNbTaW", "NbTaVW"]),
            "b": self._doc_records("b", ["AlCoCrFeNi"]),
        }
        report = evaluate_run(truth, truth)
        for metrics in report.metrics.values():
            assert metrics.precision == 1.0 and metrics.recall == 1.0 and metrics.f1 == 1.0

    def test_empty_extraction(self):
        truth = {"a": self._doc_records("a", ["MoNbTaW"])}
        report = evaluate_run({}, truth)
        for metrics in report.metrics.values():
            assert metrics.precision == 0.0 and metrics.recall == 0.0

    def test_document_mismatch(self):
        extracted = {"zzz": self._doc_records("zzz", ["MoNbTaW"])}
        with pytest.raises(DocumentMismatch):
            evaluate_run(extracted, {"a": self._doc_records("a", ["MoNbTaW"])})

    def test_micro_average_is_count_sum(self):
        truth = {
            "a": self._doc_records("a", ["MoNbTaW", "NbTaVW"]),
            "b": self._doc_records("b", ["AlCoCrFeNi", "HfNbTaTiZr"]),
        }
        extracted = {
            "a": self._doc_records("a", ["MoNbTaW"]),
            "b": self._doc_records("b", ["AlCoCrFeNi", "MoNbTaVW"]),
        }
        report = evaluate_run(extracted, truth)
        manual = {name: ConfusionCounts() for name in report.fields}
        for doc_id in truth:
            result = match_entries(extracted.get(doc_id, []), truth[doc_id])
            for name, c in score_entities(
                result, extracted.get(doc_id, []), truth[doc_id], report.fields
            ).items():
                manual[name].add(c)
        assert {k: (v.tp, v.fp, v.fn) for k, v in report.counts.items()} == {
            k: (v.tp, v.fp, v.fn) for k, v in manual.items()
        }

    def test_csv_and_table(self):
        truth = {"a": self._doc_records("a", ["MoNbTaW"])}
        report = evaluate_run(truth, truth)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "field,precision,recall,f1,tp,fp,fn"
        assert "nominal_composition" in report.to_table()
