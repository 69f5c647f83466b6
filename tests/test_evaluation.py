import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

from alloyforge import evaluation
from alloyforge.composition import Composition, l1_distance
from alloyforge.evaluation import (
    L1_MATCH,
    ConfusionCounts,
    EntityMetrics,
    SCORABLE_FIELDS,
    composite_criterion,
    evaluate_run,
    f1,
    match_entries,
    precision,
    recall,
    score_entities,
    _assign,
    _min_cost_pairs,
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

    @pytest.mark.parametrize("seed", range(40))
    def test_mixed_series_and_contested_groups(self, seed):
        # separated series (one admissible partner each) next to a contested
        # same-alloy group: the taken pairs must be the solver's and the oracle's
        rng = np.random.default_rng(seed)
        series = [_series_record(x) for x in (0.2, 0.5, 0.8, 1.1, 1.4)]
        for a in range(len(series)):
            for b in range(a):
                assert _l1(series[a], series[b]) > L1_MATCH
        variants = [_same_alloy_record(k) for k in (0, 10, 20)]

        def side(n_series, n_variants):
            picks = [series[i] for i in rng.choice(len(series), n_series, replace=False)]
            picks += [variants[i] for i in rng.integers(0, 3, n_variants)]
            return [picks[i] for i in rng.permutation(len(picks))]

        extracted = side(int(rng.integers(0, 4)), int(rng.integers(0, 3)))
        truth = side(int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        result = match_entries(extracted, truth)
        _, _, optima = brute_force_assignment(extracted, truth)
        assert tuple(result.pairs) == _lexicographic_min(optima)
        assert result.pairs == _every_group_through_assign(extracted, truth)

    def test_solver_runs_only_for_contested_groups(self, monkeypatch):
        calls = []

        def spy(cost):
            calls.append((len(cost), len(cost[0])))
            return _min_cost_pairs(cost)

        monkeypatch.setattr(evaluation, "_min_cost_pairs", spy)
        series = [_series_record(x) for x in (0.2, 0.5, 0.8, 1.1)]
        others = [rec("MoNbTaW"), rec("HfNbTaTiZr"), rec("Al0.5CoFeNi")]
        result = match_entries(series[::-1] + others, others + series)
        assert len(result.pairs) == 7 and calls == []
        truth = [_same_alloy_record(k) for k in range(9)]
        extracted = [truth[t] for t in (0, 1, 3, 4, 5, 7, 8)]
        result = match_entries(extracted, truth)
        assert result.pairs == [(0, 0), (1, 1), (2, 3), (3, 4), (4, 5), (5, 7), (6, 8)]
        assert calls and calls[0] == (7, 9)

    def test_group_distances_are_l1_distance_bit_for_bit(self, monkeypatch):
        # a contested group hands its whole distance matrix to the solver
        seen = []

        def spy(distance):
            seen.append(distance)
            return _assign(distance)

        monkeypatch.setattr(evaluation, "_assign", spy)
        rng = np.random.default_rng(8)
        pool = ("Al", "Co", "Cr", "Fe", "Ni", "Ti", "V", "Nb", "Mo", "Zr", "Hf", "Ta", "W")
        for _ in range(40):
            elements = rng.choice(pool, size=int(rng.integers(2, 9)), replace=False).tolist()
            base = 10.0 ** rng.uniform(-4, 0, size=len(elements))

            def draw():
                # near one alloy, so that records share partners; fractions of
                # mixed magnitudes, where a plain sum would round differently
                jitter = 1 + rng.uniform(-0.03, 0.03, size=len(elements))
                return make_record(DOC, nominal_composition=Composition.from_coefficients(
                    dict(zip(elements, (base * jitter).tolist()))))

            extracted = [draw() for _ in range(int(rng.integers(2, 7)))]
            truth = [draw() for _ in range(int(rng.integers(2, 7)))]
            seen.clear()
            match_entries(extracted, truth)
            assert len(seen) == 1
            assert [[d.hex() for d in row] for row in seen[0]] == [
                [l1_distance(e.nominal_composition, t.nominal_composition).hex() for t in truth]
                for e in extracted
            ]

    @pytest.mark.parametrize("e_ks, t_ks, contested", [
        ((0,), (0,), False),                        # a singleton group
        ((0,), (0, 0), True),                       # a tie, broken by truth index
        ((20, 0, 10, 0), (10, 30, 0, 20), True),    # a same-alloy group for the solver
    ])
    def test_a_shared_composition_matches_as_an_equal_distinct_one(
            self, e_ks, t_ks, contested, monkeypatch):
        seen = []

        def spy(distance):
            seen.append([[d.hex() for d in row] for row in distance])
            return _assign(distance)

        monkeypatch.setattr(evaluation, "_assign", spy)
        # equal formula texts parse to one object while a record holds it
        extracted = [_same_alloy_record(k) for k in e_ks]
        shared = [_same_alloy_record(k) for k in t_ks]
        first_e, first_t = extracted[e_ks.index(0)], shared[t_ks.index(0)]
        assert first_e.nominal_composition is first_t.nominal_composition
        distinct = [dataclasses.replace(record, nominal_composition=Composition(
            dict(record.nominal_composition.fractions))) for record in shared]
        assert not {id(r.nominal_composition) for r in distinct} & {
            id(r.nominal_composition) for r in extracted}
        assert match_entries(extracted, shared) == match_entries(extracted, distinct)
        assert len(seen) == (2 if contested else 0)
        assert seen[:1] == seen[1:]

    def test_reversed_half_off_group_is_fast(self):
        # each extracted record lies between its truth and the next one, in
        # reverse order: every truth index has dozens of admissible partners
        # below its optimal one for the tie-breaking pass to try
        truth = [_same_alloy_record(k) for k in range(40)]
        extracted = [_same_alloy_record(k + 0.5) for k in range(40)][::-1]
        result, seconds = _timed_match(extracted, truth)
        assert result.pairs == [(39 - t, t) for t in range(40)]
        assert seconds < 1.0


class TestMinCostPairs:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force_minimum(self, seed):
        rng = random.Random(seed)
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        cost = [[rng.random() for _ in range(m)] for _ in range(n)]
        if seed % 2:  # one decimal: many assignments tie
            cost = [[round(c, 1) for c in row] for row in cost]
        pairs, row_dual, col_dual = _min_cost_pairs(cost)
        assert len(pairs) == min(n, m)
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
        if n <= m:
            best = min(sum(cost[i][j] for i, j in enumerate(cols))
                       for cols in itertools.permutations(range(m), n))
        else:
            best = min(sum(cost[i][j] for j, i in enumerate(rows))
                       for rows in itertools.permutations(range(n), m))
        assert abs(sum(cost[i][j] for i, j in pairs) - best) <= 1e-12
        # the duals certify the minimum, which the tie-breaking pass relies on:
        # no reduced cost is negative, the longer side's duals are at most 0,
        # and the dual objective reaches the minimum
        assert all(cost[i][j] - row_dual[i] - col_dual[j] >= -1e-12
                   for i in range(n) for j in range(m))
        assert max(col_dual if n <= m else row_dual) <= 0.0
        assert abs(sum(row_dual) + sum(col_dual) - best) <= 1e-12

    @pytest.mark.parametrize("cost, pairs", [([], []), ([[], [], []], []), ([[2.5]], [(0, 0)])])
    def test_empty_and_single_cell_shapes(self, cost, pairs):
        assert _min_cost_pairs(cost)[0] == pairs


def _series_record(x):
    """Al(x)CoCrFeNi; the x values used lie more than L1_MATCH apart."""
    return make_record(DOC, alloy_name=f"Al{x}CoCrFeNi", nominal_composition=f"Al{x}CoCrFeNi")


def _every_group_through_assign(extracted, truth):
    """match_entries' pairs with every element-set group solved by _assign."""
    groups = {}
    for side, records in enumerate((extracted, truth)):
        for idx, record in enumerate(records):
            key = record.nominal_composition.elements
            groups.setdefault(key, ([], []))[side].append(idx)
    pairs = []
    for e_idxs, t_idxs in groups.values():
        if e_idxs and t_idxs:
            distance = np.array([[_l1(extracted[e], truth[t]) for t in t_idxs] for e in e_idxs])
            pairs += [(e_idxs[le], t_idxs[lt]) for lt, le in _assign(distance).items()]
    return sorted(pairs, key=lambda p: p[1])


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
        with pytest.raises(ValueError, match="unknown field 'bogus'"):
            score_entities(match_entries([], []), [], [], fields=("bogus",))

    def test_conservation(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            extracted, truth = _random_instance(rng)
            result = match_entries(extracted, truth)
            counts = score_entities(result, extracted, truth)
            assert counts["nominal_composition"].tp == len(result.pairs)
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

    def test_extracted_documents_outside_the_truth_change_no_count(self):
        truth = {"a": self._doc_records("a", ["MoNbTaW"])}
        extracted = {"a": self._doc_records("a", ["MoNbTaW", "NbTaVW"])}
        stray = {**extracted, "zzz": self._doc_records("zzz", ["MoNbTaW", "AlCoCrFeNi"])}
        counts = evaluate_run(extracted, truth).counts
        assert {(c.tp, c.fp, c.fn) for c in counts.values()} == {(1, 1, 0)}
        assert evaluate_run(stray, truth).counts == counts

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

    @pytest.mark.parametrize("fields, error, message", [
        (("phase", "phase"), ValueError, "field 'phase' is listed twice"),
        (("phase", "bogus"), ValueError, "unknown field 'bogus'"),
        ((), ValueError, "no fields to score"),
    ])
    @pytest.mark.parametrize("with_truth", [True, False])
    def test_the_field_list_is_checked_up_front(self, fields, error, message, with_truth):
        truth = {"a": self._doc_records("a", ["MoNbTaW"])} if with_truth else {}
        with pytest.raises(error) as info:
            evaluate_run(truth, truth, fields=fields)
        assert str(info.value) == message

    def test_csv_and_table(self):
        truth = {"a": self._doc_records("a", ["MoNbTaW"])}
        report = evaluate_run(truth, truth)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "field,precision,recall,f1,tp,fp,fn"
        assert "nominal_composition" in report.to_table()
