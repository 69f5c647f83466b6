"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines in the summary.
"""

import time

import numpy as np
import pytest

from alloyforge import ml
from alloyforge.composition import cosine_similarity, l1_distance, parse_formula
from alloyforge.engines import RecordingEngine, ReplayEngine, TranscriptStore
from alloyforge.evaluation import (
    ConfusionCounts,
    f1,
    match_entries,
    evaluate_run,
    precision,
    recall,
)
from alloyforge.optimizer import OptimizationConfig, Prompt, optimize
from alloyforge.pipeline import (
    clean_dataset,
    percent,
    quality_report_csv,
    run_extraction,
    summarize,
)
from alloyforge.quality import filter_plausible, suggest_unit_repair
from alloyforge.records import DocumentId, make_record

from tests.oracles import brute_force_assignment, random_composition
from tests.scripted import (
    INITIAL_PROMPT_TEXT,
    MARKERS,
    ScriptedBackwardEngine,
    ScriptedEvaluatorEngine,
    ScriptedForwardEngine,
)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_metrics_arithmetic():
    started = time.monotonic()
    assert precision(ConfusionCounts(tp=20, fp=3)) == pytest.approx(0.8696, abs=5e-4)
    assert recall(ConfusionCounts(tp=20, fn=2)) == pytest.approx(0.9091, abs=5e-4)
    assert precision(ConfusionCounts(tp=43, fp=4)) == pytest.approx(0.9149, abs=5e-4)
    assert recall(ConfusionCounts(tp=43, fn=1)) == pytest.approx(0.9773, abs=5e-4)
    assert f1(43 / 47, 43 / 44) == pytest.approx(0.945, abs=1e-3)
    assert f1(1.0, 0.273) == pytest.approx(0.429, abs=1e-3)
    assert time.monotonic() - started < 0.1
    _passed(1, "metrics arithmetic")


def test_criterion_2_composition_math():
    a = parse_formula("Al0.5Ni0.5")
    b = parse_formula("Al0.25Ni0.75")
    assert l1_distance(a, a) == pytest.approx(0.0, abs=1e-12)
    assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)
    disjoint_a, disjoint_b = parse_formula("Al"), parse_formula("Ni")
    assert l1_distance(disjoint_a, disjoint_b) == pytest.approx(2.0, abs=1e-12)
    assert cosine_similarity(disjoint_a, disjoint_b) == pytest.approx(0.0, abs=1e-12)
    assert l1_distance(a, b) == pytest.approx(0.5, abs=1e-4)
    assert cosine_similarity(a, b) == pytest.approx(0.8944, abs=1e-4)

    rng = np.random.default_rng(2024)
    comps = [random_composition(rng) for _ in range(80)]
    for _ in range(1000):
        x, y, z = (comps[int(i)] for i in rng.integers(0, len(comps), 3))
        dxy = l1_distance(x, y)
        assert dxy >= 0.0
        assert dxy == pytest.approx(l1_distance(y, x), abs=1e-12)
        assert dxy <= 2.0 + 1e-12
        assert l1_distance(x, z) <= dxy + l1_distance(y, z) + 1e-12
        if x is y:
            assert dxy == 0.0
        cos = cosine_similarity(x, y)
        assert 0.0 <= cos <= 1.0
    _passed(2, "composition math")


def test_criterion_3_split_sizes():
    X, y = np.zeros((159, 6)), np.arange(159.0)
    X_tr, X_te, _, _ = ml.train_test_split(X, y, ml.SplitConfig(0.8, 0))
    assert (len(X_tr), len(X_te)) == (127, 32)
    _passed(3, "split sizes")


def test_criterion_4_outlier_and_unit_handling():
    doc = DocumentId("accept4")
    rng = np.random.default_rng(44)
    low = [
        make_record(doc, nominal_composition="MoNbTaW",
                    lattice_constant=float(v))
        for v in rng.uniform(0.28, 0.35, 21)
    ]
    fine = [
        make_record(doc, nominal_composition="HfNbTaTiZr",
                    lattice_constant=float(v))
        for v in rng.uniform(2.9, 3.5, 100)
    ]
    partition = filter_plausible(low + fine)
    assert len(partition.rejected_low) == 21
    assert len(partition.rejected_high) == 0
    assert len(partition.accepted) == 100

    first = suggest_unit_repair(0.319)
    assert first.assumed_unit == "nm"
    assert first.repaired == pytest.approx(3.19, abs=1e-9)
    second = suggest_unit_repair(0.323)
    assert second.repaired == pytest.approx(3.23, abs=1e-9)
    _passed(4, "outlier and unit handling")


def test_criterion_5_optimizer_loop(corpus7, truth_by_doc, tmp_path):
    started = time.monotonic()
    stores = {
        role: TranscriptStore(tmp_path / role)
        for role in ("forward", "backward", "evaluator")
    }
    recording = OptimizationConfig(
        forward_engine=RecordingEngine(ScriptedForwardEngine(truth_by_doc),
                                       stores["forward"]),
        backward_engine=RecordingEngine(ScriptedBackwardEngine(), stores["backward"]),
        evaluator_engine=RecordingEngine(ScriptedEvaluatorEngine(), stores["evaluator"]),
        epochs=3,
        batch_size=3,
    )
    recorded = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, recording)

    replay = OptimizationConfig(
        forward_engine=ReplayEngine(stores["forward"]),
        backward_engine=ReplayEngine(stores["backward"]),
        evaluator_engine=ReplayEngine(stores["evaluator"]),
        epochs=3,
        batch_size=3,
    )
    history = optimize(Prompt(INITIAL_PROMPT_TEXT), corpus7, truth_by_doc, replay)

    assert history.forward_calls == 21
    assert history.backward_engine_calls <= 9
    recalls = history.recalls("nominal_composition")
    assert all(x <= y + 1e-12 for x, y in zip(recalls, recalls[1:]))
    assert recalls[0] <= 0.3
    assert recalls[-1] >= 0.9

    recorded.save(tmp_path / "a")
    history.save(tmp_path / "b")
    assert (tmp_path / "a" / "history.jsonl").read_bytes() == (
        tmp_path / "b" / "history.jsonl"
    ).read_bytes()
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _passed(5, f"optimizer loop ({elapsed:.2f}s)")


def test_criterion_6_matching_oracle():
    started = time.monotonic()
    doc = DocumentId("accept6")
    rng = np.random.default_rng(66)
    pool_cache = {}

    def build_side(count):
        records = []
        for _ in range(count):
            if rng.random() < 0.6 and pool_cache:
                comp = pool_cache[int(rng.integers(0, len(pool_cache)))]
            else:
                comp = random_composition(rng, max_elements=3)
                pool_cache[len(pool_cache)] = comp
            if rng.random() < 0.5:
                from alloyforge.composition import Composition

                comp = Composition.from_coefficients(
                    {
                        sym: max(0.01, frac + rng.normal(0, 0.02))
                        for sym, frac in comp.fractions.items()
                    }
                )
            records.append(
                make_record(doc, alloy_name=comp.canonical_formula(),
                            nominal_composition=comp)
            )
        return records

    for _ in range(200):
        extracted = build_side(int(rng.integers(0, 6)))
        truth = build_side(int(rng.integers(1, 6)))
        result = match_entries(extracted, truth)
        card, cost, optima = brute_force_assignment(extracted, truth)
        got = tuple(sorted(result.pairs, key=lambda p: p[1]))
        assert len(got) == card
        total = sum(
            l1_distance(extracted[e].nominal_composition, truth[t].nominal_composition)
            for e, t in got
        )
        assert total == pytest.approx(cost, abs=1e-9)
        if len(optima) == 1:
            assert got == optima[0]
        else:
            assert got in optima
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _passed(6, f"matching oracle equivalence ({elapsed:.2f}s)")


def test_criterion_7_ml_property_suite():
    started = time.monotonic()
    rng = np.random.default_rng(77)

    # (a) penalty-free coordinate descent matches the normal equations
    X = rng.normal(size=(20, 6))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0]) + 0.3
    coef, intercept = ml.fit_lasso(X, y, 0.0)
    expected = np.linalg.lstsq(np.column_stack([X, np.ones(20)]), y, rcond=None)[0]
    assert np.max(np.abs(np.concatenate([coef, [intercept]]) - expected)) <= 1e-6

    # (b) univariate closed-form soft threshold
    x1 = rng.normal(size=(60, 1))
    y1 = 1.3 * x1[:, 0] + rng.normal(0, 0.1, 60)
    lam = 0.15
    coef1, _ = ml.fit_lasso(x1, y1, lam)
    xc = x1[:, 0] - x1[:, 0].mean()
    yc = y1 - y1.mean()
    rho = float(xc @ yc) / len(y1)
    dd = float(xc @ xc) / len(y1)
    closed_form = np.sign(rho) * max(abs(rho) - lam, 0.0) / dd
    assert coef1[0] == pytest.approx(closed_form, abs=1e-8)

    # (c) synthetic linear lattice law: 150 samples, 6 descriptors, 0.005 A noise
    Xv = rng.uniform(0, 1, size=(150, 6)) * np.array([20, 180, 60, 2.5, 10, 8])
    yv = 2.6 + Xv @ np.array([0.02, 0.003, -0.001, 0.05, -0.004, 0.002])
    yv = yv + rng.normal(0, 0.005, 150)
    X_tr, X_te, y_tr, y_te = ml.train_test_split(Xv, yv, ml.SplitConfig(0.8, 7))

    elasso = ml.train_elasso(X_tr, y_tr, B=100, seed=7)
    tr_pred, _ = ml.predict_batch(elasso, X_tr)
    te_pred, _ = ml.predict_batch(elasso, X_te)
    assert ml.r2(y_tr, tr_pred) >= 0.99
    assert ml.r2(y_te, te_pred) >= 0.99

    esvr = ml.train_esvr(
        X_tr, y_tr, gamma_grid=(0.05, 0.2, 1.0), cost_grid=(1.0, 10.0, 100.0),
        ensemble_sizes=(10, 20), seed=7,
    )
    te_svr, _ = ml.predict_batch(esvr, X_te)
    assert ml.r2(y_te, te_svr) >= 0.95

    # (d) a single estimator reports zero spread everywhere
    single = ml.train_esvr(
        X_tr, y_tr, gamma_grid=(0.2,), cost_grid=(10.0,), ensemble_sizes=(1,), seed=7
    )
    _, stds = ml.predict_batch(single, Xv)
    assert np.all(stds == 0.0)

    # (e) fixed-seed bitwise reproducibility of the persisted artifacts
    import json

    again = ml.train_esvr(
        X_tr, y_tr, gamma_grid=(0.05, 0.2, 1.0), cost_grid=(1.0, 10.0, 100.0),
        ensemble_sizes=(10, 20), seed=7,
    )
    from alloyforge.ml import _estimator_to_dict

    def blob(model):
        return json.dumps(
            [_estimator_to_dict(model.kind, e) for e in model.estimators]
        )

    assert blob(esvr) == blob(again)
    elasso_again = ml.train_elasso(X_tr, y_tr, B=100, seed=7)
    assert blob(elasso) == blob(elasso_again)

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _passed(7, f"ml property suite ({elapsed:.1f}s)")


def test_criterion_8_summary_percentages():
    assert percent(1861, 1861 + 2787) == 40.0
    assert percent(2787, 1861 + 2787) == 60.0
    assert percent(186, 311) == 59.8

    doc = DocumentId("accept8")
    records = [
        make_record(doc, nominal_composition="MoNbTaW", phase="BCC",
                    processing="as-cast", lattice_constant=3.2)
        for _ in range(1861)
    ] + [
        make_record(doc, nominal_composition="MoNbTaW", phase="FCC")
        for _ in range(2787)
    ]
    text = summarize({doc.id: records}).to_text()
    assert "(40.0%)" in text and "(60.0%)" in text
    _passed(8, "summary percentages")


def test_criterion_9_end_to_end_replay(corpus8, truth_by_doc, tmp_path):
    prompt = INITIAL_PROMPT_TEXT + "\n" + "\n".join(MARKERS)
    store = TranscriptStore(tmp_path / "transcripts")
    seeded = RecordingEngine(ScriptedForwardEngine(truth_by_doc), store)
    run_extraction(corpus8, prompt, seeded, tmp_path / "seed", parallelism=1)

    def full_run(out_dir, parallelism):
        result = run_extraction(
            corpus8, prompt, ReplayEngine(store), out_dir, parallelism=parallelism
        )
        cleaned = clean_dataset(result.dataset)
        (out_dir / "quality_report.csv").write_text(
            quality_report_csv(cleaned.report_rows), encoding="utf-8"
        )
        scored = {k: v for k, v in cleaned.accepted.items() if k in truth_by_doc}
        report = evaluate_run(scored, truth_by_doc)
        (out_dir / "metrics.csv").write_text(report.to_csv(), encoding="utf-8")
        return out_dir

    runs = [
        full_run(tmp_path / "run_p1", parallelism=1),
        full_run(tmp_path / "run_p4", parallelism=4),
        full_run(tmp_path / "run_p1_again", parallelism=1),
    ]
    reference = runs[0]
    for other in runs[1:]:
        for name in ("dataset.jsonl", "dataset.csv", "ledger.json",
                     "quality_report.csv", "metrics.csv"):
            assert (reference / name).read_bytes() == (other / name).read_bytes(), name
    _passed(9, "end-to-end replay pipeline")
