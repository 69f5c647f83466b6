import functools
import json
import logging
import warnings

import numpy as np
import pytest

from alloyforge import ml
from tests.oracles import (
    reference_lasso_cd,
    reference_smo_epsilon_svr,
    reference_train_elasso,
)


def standardize(x):
    return (x - x.mean(axis=0)) / x.std(axis=0)


def vegard_data(seed=7, n=150, noise=0.005):
    """Synthetic linear lattice-constant law over six descriptor columns."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 6)) * np.array([20, 180, 60, 2.5, 10, 8])
    coefs = np.array([0.02, 0.003, -0.001, 0.05, -0.004, 0.002])
    y = 2.6 + X @ coefs + rng.normal(0, noise, n)
    return X, y


def assert_svr_kkt(K, y, beta, bias, hp, tol):
    """The certificate of test_kkt_certificate_on_random_problems, for other tests."""
    assert abs(beta.sum()) <= 1e-9                   # equality constraint
    assert np.all(np.abs(beta) <= hp.cost + 1e-12)   # box constraint
    residual = y - (K @ beta + bias)
    slack = tol + 1e-8
    for i in range(len(y)):
        if abs(beta[i]) <= 1e-12:
            assert abs(residual[i]) <= hp.epsilon + slack
        elif beta[i] >= hp.cost - 1e-12:
            assert residual[i] >= hp.epsilon - slack
        elif beta[i] <= -hp.cost + 1e-12:
            assert residual[i] <= -hp.epsilon + slack
        elif beta[i] > 0:
            assert abs(residual[i] - hp.epsilon) <= slack
        else:
            assert abs(residual[i] + hp.epsilon) <= slack


def correlated_moments(rng, n=60, p=6, noise=0.05):
    """Gram, corr and diag of a standardized problem whose columns share one factor."""
    X = rng.normal(size=(n, 1)) + noise * rng.normal(size=(n, p))
    y = X @ rng.normal(size=p) + rng.normal(0, 0.1, n)
    _, _, gram, corr, diag = ml._centered_moments(standardize(X), (y - y.mean()) / y.std())
    return gram, corr, diag


def assert_lasso_kkt(gram, corr, w, lam, slack):
    """Subgradient certificate: corr - gram w is lam*sign(w) on the support, within lam off it."""
    grad = corr - gram @ w
    for j in range(len(w)):
        if w[j] == 0.0:
            assert abs(grad[j]) <= lam + slack
        else:
            assert abs(grad[j] - lam * np.sign(w[j])) <= slack


class TestSplit:
    def test_paper_sizes(self):
        X, y = np.zeros((159, 6)), np.arange(159.0)
        X_tr, X_te, y_tr, y_te = ml.train_test_split(X, y, ml.SplitConfig(0.8, 1))
        assert (len(X_tr), len(X_te)) == (127, 32)

    def test_small(self):
        X, y = np.zeros((10, 2)), np.arange(10.0)
        X_tr, X_te, _, _ = ml.train_test_split(X, y, ml.SplitConfig(0.8, 1))
        assert (len(X_tr), len(X_te)) == (8, 2)

    def test_deterministic_and_exhaustive(self):
        X = np.arange(40.0)[:, None]
        y = np.arange(40.0)
        a = ml.train_test_split(X, y, ml.SplitConfig(0.8, 5))
        b = ml.train_test_split(X, y, ml.SplitConfig(0.8, 5))
        for left, right in zip(a, b):
            assert np.array_equal(left, right)
        assert sorted(np.concatenate([a[2], a[3]]).tolist()) == y.tolist()

    def test_too_few(self):
        with pytest.raises(ml.TooFewSamples):
            ml.train_test_split(np.zeros((1, 1)), np.zeros(1), ml.SplitConfig())

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            ml.SplitConfig(train_fraction=1.0)


class TestSvr:
    def test_linear_line_within_tube(self):
        x = np.arange(10.0)[:, None]
        y = 3.0 * x[:, 0] + 1.0
        zx, zy = standardize(x), (y - y.mean()) / y.std()
        eps = 0.05
        est = ml.fit_svr(zx, zy, ml.SvrHyperParams(gamma=0.5, cost=1000.0, epsilon=eps))
        assert np.max(np.abs(est.predict(zx) - zy)) <= 2 * eps

    def test_one_sample(self):
        est = ml.fit_svr(np.zeros((1, 1)), np.array([5.0]),
                         ml.SvrHyperParams(1.0, 10.0, 0.1))
        assert abs(est.predict(np.zeros((1, 1)))[0] - 5.0) <= 0.1

    def test_duplicate_points_same_prediction(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(size=(6, 2)), rng.normal(size=(1, 2))])
        X[6] = X[0]
        y = rng.normal(size=7)
        y[6] = y[0]
        est = ml.fit_svr(standardize(X), y - y.mean(), ml.SvrHyperParams(0.5, 10.0))
        preds = est.predict(standardize(X))
        assert preds[0] == pytest.approx(preds[6], abs=1e-12)

    def test_nonconvergence_warns(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        with pytest.warns(ml.NonConvergence):
            ml.fit_svr(X, y, ml.SvrHyperParams(1.0, 100.0), max_iter=3)

    def test_kkt_certificate_on_random_problems(self):
        # a solution of the convex dual is optimal iff it satisfies the KKT
        # conditions; checking them certifies the solver independently of any
        # reference implementation
        rng = np.random.default_rng(40)
        for trial in range(10):
            n = int(rng.integers(5, 40))
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            hp = ml.SvrHyperParams(
                gamma=float(rng.uniform(0.05, 2.0)),
                cost=float(rng.uniform(0.5, 50.0)),
                epsilon=float(rng.uniform(0.01, 0.3)),
            )
            tol = 1e-4
            from alloyforge.ml import _rbf_kernel, _smo_epsilon_svr

            K = _rbf_kernel(X, X, hp.gamma)
            beta, bias, _, converged = _smo_epsilon_svr(
                K, y, hp.cost, hp.epsilon, tol, max_iter=200_000
            )
            assert converged
            assert abs(beta.sum()) <= 1e-9                   # equality constraint
            assert np.all(np.abs(beta) <= hp.cost + 1e-12)   # box constraint
            residual = y - (K @ beta + bias)
            slack = tol + 1e-8
            for i in range(n):
                if abs(beta[i]) <= 1e-12:
                    assert abs(residual[i]) <= hp.epsilon + slack
                elif beta[i] >= hp.cost - 1e-12:
                    assert residual[i] >= hp.epsilon - slack
                elif beta[i] <= -hp.cost + 1e-12:
                    assert residual[i] <= -hp.epsilon + slack
                elif beta[i] > 0:
                    assert abs(residual[i] - hp.epsilon) <= slack
                else:
                    assert abs(residual[i] + hp.epsilon) <= slack

    def test_warm_started_kkt_certificate(self):
        # the same problems, solved at a quarter of the cost first; that
        # solution stays feasible for the larger box and is the start there
        rng = np.random.default_rng(40)
        for trial in range(10):
            n = int(rng.integers(5, 40))
            X = rng.normal(size=(n, 3))
            y = rng.normal(size=n)
            hp = ml.SvrHyperParams(
                gamma=float(rng.uniform(0.05, 2.0)),
                cost=float(rng.uniform(0.5, 50.0)),
                epsilon=float(rng.uniform(0.01, 0.3)),
            )
            tol = 1e-4
            K = ml._rbf_kernel(X, X, hp.gamma)
            start, _, _, converged = ml._smo_epsilon_svr(
                K, y, hp.cost / 4, hp.epsilon, tol, max_iter=200_000)
            assert converged
            beta, bias, _, converged = ml._smo_epsilon_svr(
                K, y, hp.cost, hp.epsilon, tol, max_iter=200_000, beta0=start)
            assert converged
            assert_svr_kkt(K, y, beta, bias, hp, tol)

    def test_duplicate_support_rows_are_merged(self):
        rng = np.random.default_rng(5)
        X = np.repeat(rng.normal(size=(20, 3)), 2, axis=0)
        y = np.repeat(rng.normal(size=20), 2)
        hp = ml.SvrHyperParams(gamma=0.5, cost=10.0)
        est = ml.fit_svr(X, y, hp)
        assert len(est.support) > 0
        assert len(np.unique(est.support, axis=0)) == len(est.support)
        K = ml._rbf_kernel(X, X, hp.gamma)
        beta, bias, _, _ = ml._smo_epsilon_svr(
            K, y, hp.cost, hp.epsilon, ml.SVR_TOL, max_iter=max(40_000, 400 * len(y)))
        probe = rng.normal(size=(30, 3))
        unmerged = ml._rbf_kernel(probe, X, hp.gamma) @ beta + bias
        assert np.max(np.abs(est.predict(probe) - unmerged)) <= 1e-12

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            ml.SvrHyperParams(gamma=0.0, cost=1.0)


class TestLasso:
    def test_lambda_zero_matches_normal_equations(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 6))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0, 3.0, -1.0]) + 0.3
        coef, intercept = ml.fit_lasso(X, y, 0.0)
        design = np.column_stack([X, np.ones(len(X))])
        expected = np.linalg.lstsq(design, y, rcond=None)[0]
        assert np.max(np.abs(np.concatenate([coef, [intercept]]) - expected)) <= 1e-6

    def test_univariate_soft_threshold_closed_form(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(50, 1))
        y = 1.7 * x[:, 0] + rng.normal(0, 0.1, 50)
        lam = 0.2
        coef, _ = ml.fit_lasso(x, y, lam)
        xc = x[:, 0] - x[:, 0].mean()
        yc = y - y.mean()
        rho = float(xc @ yc) / len(y)
        dd = float(xc @ xc) / len(y)
        expected = np.sign(rho) * max(abs(rho) - lam, 0.0) / dd
        assert coef[0] == pytest.approx(expected, abs=1e-8)

    def test_lambda_max_shutoff(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 4))
        y = X @ np.array([2.0, -1.0, 0.0, 0.5]) + rng.normal(0, 0.05, 30)
        lam_max = ml.lasso_lambda_max(X, y)
        coef, intercept = ml.fit_lasso(X, y, lam_max * (1 + 1e-12))
        assert np.all(coef == 0.0)
        assert intercept == pytest.approx(y.mean())

    def test_sparsity_monotone_along_grid(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(60, 6))
        y = X @ np.array([3.0, 1.5, 0.7, 0.2, 0.05, 0.0]) + rng.normal(0, 0.01, 60)
        lam_max = ml.lasso_lambda_max(X, y)
        grid = np.geomspace(lam_max * 1e-4, lam_max, 30)
        nnz = []
        for lam in grid:
            coef, _ = ml.fit_lasso(X, y, float(lam))
            nnz.append(int(np.sum(np.abs(coef) > 1e-10)))
        assert all(a >= b for a, b in zip(nnz, nnz[1:]))

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            ml.fit_lasso(np.zeros((5, 2)), np.zeros(5), -0.1)

    def test_subgradient_certificate_on_random_problems(self):
        # optimality certificate: the penalized least-squares subgradient must
        # vanish (|correlation| <= lam on zero coords, == lam*sign elsewhere)
        rng = np.random.default_rng(41)
        for trial in range(10):
            n, p = int(rng.integers(15, 60)), int(rng.integers(2, 7))
            X = rng.normal(size=(n, p))
            y = X @ rng.normal(size=p) + rng.normal(0, 0.2, n)
            lam = float(rng.uniform(0.01, 0.5)) * ml.lasso_lambda_max(X, y)
            coef, intercept = ml.fit_lasso(X, y, lam)
            residual = y - X @ coef - intercept
            grad = X.T @ residual / n - X.mean(axis=0) * residual.mean()
            slack = 1e-6
            for j in range(p):
                if abs(coef[j]) <= 1e-12:
                    assert abs(grad[j]) <= lam + slack
                else:
                    assert abs(grad[j] - lam * np.sign(coef[j])) <= slack


class TestLassoActiveSetFinish:
    """``_lasso_cd`` as the ELASSO path calls it: loose tolerance, 300-sweep cap."""

    def test_certified_on_correlated_problems(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            gram, corr, diag = correlated_moments(rng, n=int(rng.integers(30, 100)))
            assert np.linalg.cond(gram) >= 500
            lam = float(rng.uniform(0.001, 0.5)) * float(np.max(np.abs(corr)))
            w, capped = ml._lasso_cd(gram, corr, diag, lam, ml._PATH_TOL, 300)
            assert not capped
            assert_lasso_kkt(gram, corr, w, lam, 1e-9)

    def test_certified_from_a_wrong_warm_start(self):
        rng = np.random.default_rng(43)
        for trial in range(20):
            gram, corr, diag = correlated_moments(rng)
            lam = float(rng.uniform(0.05, 0.5)) * float(np.max(np.abs(corr)))
            exact, _ = ml._lasso_cd(gram, corr, diag, lam, ml._PATH_TOL, 300)
            # zero the true support and put flipped weight everywhere else
            w0 = np.where(exact == 0.0, -rng.uniform(0.5, 2.0, 6), 0.0)
            w, capped = ml._lasso_cd(gram, corr, diag, lam, ml._PATH_TOL, 300, w0=w0)
            assert not capped
            assert_lasso_kkt(gram, corr, w, lam, 1e-9)
            assert np.max(np.abs(w - exact)) <= 1e-9

    def test_zero_variance_column(self):
        rng = np.random.default_rng(44)
        for trial in range(10):
            X = rng.normal(size=(40, 1)) + 0.05 * rng.normal(size=(40, 5))
            X = np.column_stack([X[:, :2], np.full(40, 3.0), X[:, 2:]])
            y = X[:, [0, 1, 3, 4, 5]] @ rng.normal(size=5) + rng.normal(0, 0.1, 40)
            _, _, gram, corr, diag = ml._centered_moments(X, y)
            assert diag[2] == 0.0
            lam = float(rng.uniform(0.01, 0.5)) * float(np.max(np.abs(corr)))
            w, capped = ml._lasso_cd(gram, corr, diag, lam, ml._PATH_TOL, 300)
            assert not capped
            assert w[2] == 0.0
            assert_lasso_kkt(gram, corr, w, lam, 1e-9)

    def test_duplicate_column_falls_back_to_descent(self):
        # with both copies of a column in the support, gram[A, A] is singular:
        # the finish must refuse it and leave the plain descent result
        rng = np.random.default_rng(45)
        X = rng.normal(size=(50, 4))
        X = np.column_stack([X, X[:, 0]])
        y = X[:, :4] @ np.array([1.5, -1.0, 0.5, 0.25]) + rng.normal(0, 0.1, 50)
        _, _, gram, corr, diag = ml._centered_moments(X, y)
        lam = 0.05 * float(np.max(np.abs(corr)))
        w0 = np.array([0.7, 0.0, 0.0, 0.0, 0.7])
        w, capped = ml._lasso_cd(gram, corr, diag, lam, ml._PATH_TOL, 300, w0=w0)
        assert not capped
        assert w[0] > 0.0 and w[4] > 0.0
        assert ml._active_set_solution(gram.tolist(), corr.tolist(), lam, w.tolist()) is None
        assert np.array_equal(
            w, reference_lasso_cd(gram, corr, diag, lam, ml._PATH_TOL, 300, w0=w0))
        assert_lasso_kkt(gram, corr, w, lam, 1e-4)

    def test_sweep_cap_is_reported(self):
        # one sweep from zero changes every sign, so no finish is tried yet
        gram, corr, diag = correlated_moments(np.random.default_rng(47))
        lam = 0.01 * float(np.max(np.abs(corr)))
        w, capped = ml._lasso_cd(gram, corr, diag, lam, ml._PATH_TOL, 1)
        assert capped
        assert np.array_equal(w, reference_lasso_cd(gram, corr, diag, lam, ml._PATH_TOL, 1))

    def test_elasso_same_penalties_as_plain_descent(self, monkeypatch):
        # each resample must choose the penalty plain descent chooses; plain
        # descent is slow on correlated columns, so the problem stays small
        rng = np.random.default_rng(46)
        X = rng.normal(size=(80, 1)) + 0.2 * rng.normal(size=(80, 6))
        y = X @ np.array([0.5, 0.3, -0.2, 0.1, 0.0, 0.05]) + rng.normal(0, 0.05, 80)
        assert np.linalg.cond(np.corrcoef(X.T)) >= 200
        certified = ml.train_elasso(X, y, B=10, seed=3)
        monkeypatch.setattr(
            ml, "_lasso_cd", lambda *a, path=None, **k: (reference_lasso_cd(*a, **k), False))
        plain = ml.train_elasso(X, y, B=10, seed=3)
        assert [e.lam for e in certified.estimators] == [e.lam for e in plain.estimators]
        for a, b in zip(certified.estimators, plain.estimators):
            assert np.max(np.abs(a.coef - b.coef)) <= 1e-5
            assert a.intercept == pytest.approx(b.intercept, abs=1e-5)
        assert certified.extra["lasso_capped"] == 0

    def test_elasso_counts_and_logs_capped_fits(self, monkeypatch, caplog):
        X, y = vegard_data(n=40)
        monkeypatch.setattr(ml, "_lasso_cd", lambda *a, **k: (np.zeros(6), True))
        with caplog.at_level(logging.WARNING, "alloyforge.ml"):
            model = ml.train_elasso(X, y, B=2, seed=2)
        # all CV errors tie, so the first penalty wins: per resample 10 folds
        # x 50 penalties, a one-penalty refit path and the final fit
        assert model.extra["lasso_capped"] == 2 * (500 + 1 + 1)
        assert "1004 of 1004 LASSO fits stopped at the sweep cap" in caplog.text


class TestEnsembles:
    def test_esvr_single_estimator_zero_std(self):
        X, y = vegard_data(n=40)
        model = ml.train_esvr(
            X, y, gamma_grid=(0.2,), cost_grid=(10.0,), ensemble_sizes=(1,), seed=0
        )
        assert len(model.estimators) == 1
        _, stds = ml.predict_batch(model, X)
        assert np.all(stds == 0.0)

    def test_esvr_vegard_r2(self):
        X, y = vegard_data()
        X_tr, X_te, y_tr, y_te = ml.train_test_split(X, y, ml.SplitConfig(0.8, 3))
        model = ml.train_esvr(
            X_tr, y_tr,
            gamma_grid=(0.05, 0.2, 1.0), cost_grid=(1.0, 10.0, 100.0),
            ensemble_sizes=(10, 20), seed=3,
        )
        preds, _ = ml.predict_batch(model, X_te)
        assert ml.r2(y_te, preds) >= 0.95

    def test_esvr_deterministic(self, tmp_path):
        X, y = vegard_data(n=50)
        kwargs = dict(gamma_grid=(0.2, 1.0), cost_grid=(1.0, 10.0),
                      ensemble_sizes=(5,), seed=9)
        a = ml.train_esvr(X, y, **kwargs)
        b = ml.train_esvr(X, y, **kwargs)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        ml.save_model(a, pa)
        ml.save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_esvr_cost_grid_order_does_not_matter(self, tmp_path):
        X, y = vegard_data(n=50)
        paths = []
        for cost_grid in ((100.0, 1.0, 10.0), (1.0, 10.0, 100.0)):
            model = ml.train_esvr(X, y, gamma_grid=(0.2, 1.0), cost_grid=cost_grid,
                                  ensemble_sizes=(3,), seed=9)
            paths.append(tmp_path / f"{len(paths)}.json")
            ml.save_model(model, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_esvr_default_grid_converges(self):
        X, y = vegard_data(n=100)   # 75 rows fitted after the holdout
        with warnings.catch_warnings():
            warnings.simplefilter("error", ml.NonConvergence)
            model = ml.train_esvr(X, y, ensemble_sizes=(1,), seed=1)
        assert model.extra["svr_nonconverged"] == 0
        assert len(model.extra["svr_iterations"]) == 1

    def test_esvr_counts_and_logs_nonconverged_fits(self, monkeypatch, caplog):
        X, y = vegard_data(n=40)
        monkeypatch.setattr(ml, "fit_svr", functools.partial(ml.fit_svr, max_iter=2))
        with pytest.warns(ml.NonConvergence), caplog.at_level(logging.WARNING, "alloyforge.ml"):
            model = ml.train_esvr(X, y, gamma_grid=(0.2, 1.0), cost_grid=(1.0, 10.0),
                                  ensemble_sizes=(3,), seed=2)
        assert model.extra["svr_nonconverged"] == 12
        assert model.extra["svr_iterations"] == [2, 2, 2]
        assert "12 of 12 SVR grid fits" in caplog.text

    def test_esvr_external_validation(self):
        X, y = vegard_data(n=60)
        model = ml.train_esvr(
            X[:40], y[:40], gamma_grid=(0.2,), cost_grid=(10.0,),
            ensemble_sizes=(3, 5), validation=(X[40:], y[40:]), seed=1,
        )
        assert model.extra["ensemble_size"] in (3, 5)

    def test_elasso_single_resample(self):
        X, y = vegard_data(n=40)
        model = ml.train_elasso(X, y, B=1, seed=2)
        assert len(model.estimators) == 1
        _, stds = ml.predict_batch(model, X)
        assert np.all(stds == 0.0)

    def test_elasso_linear_r2(self):
        X, y = vegard_data(noise=0.0)
        X_tr, X_te, y_tr, y_te = ml.train_test_split(X, y, ml.SplitConfig(0.8, 5))
        model = ml.train_elasso(X_tr, y_tr, B=25, seed=5)
        train_pred, _ = ml.predict_batch(model, X_tr)
        test_pred, _ = ml.predict_batch(model, X_te)
        assert ml.r2(y_tr, train_pred) >= 0.99
        assert ml.r2(y_te, test_pred) >= 0.99

    def test_elasso_deterministic(self, tmp_path):
        X, y = vegard_data(n=50)
        a = ml.train_elasso(X, y, B=5, seed=4)
        b = ml.train_elasso(X, y, B=5, seed=4)
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        ml.save_model(a, pa)
        ml.save_model(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_elasso_needs_enough_samples(self):
        X, y = vegard_data(n=8)
        with pytest.raises(ml.TooFewSamples):
            ml.train_elasso(X, y, B=2)

    def test_shared_split_config(self):
        X, y = vegard_data(n=40)
        split_a = ml.train_test_split(X, y, ml.SplitConfig(0.8, 77))
        split_b = ml.train_test_split(X, y, ml.SplitConfig(0.8, 77))
        assert np.array_equal(split_a[0], split_b[0])
        assert np.array_equal(split_a[1], split_b[1])


def assert_same_smo(K, y, cost, epsilon, tol, max_iter, beta0=None):
    got = ml._smo_epsilon_svr(K, y, cost, epsilon, tol, max_iter, beta0)
    want = reference_smo_epsilon_svr(K, y, cost, epsilon, tol, max_iter, beta0)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]   # bias, iterations, converged


def assert_same_elasso(X, y, B, seed):
    got = ml.train_elasso(X, y, B=B, seed=seed)
    want = reference_train_elasso(X, y, B=B, seed=seed)
    assert got.extra == want.extra
    assert len(got.estimators) == len(want.estimators) == B
    for a, b in zip(got.estimators, want.estimators):
        assert a.lam == b.lam
        assert a.coef.tobytes() == b.coef.tobytes()
        assert a.intercept == b.intercept


class TestSameBitsAsReference:
    """The solvers against the reference copies in ``tests.oracles``: every bit."""

    def test_smo_cold_and_warm_starts(self):
        rng = np.random.default_rng(60)
        for trial in range(12):
            n = int(rng.integers(3, 60))
            X, y = rng.normal(size=(n, 3)), rng.normal(size=n)
            K = ml._rbf_kernel(X, X, float(rng.uniform(0.05, 2.0)))
            cost, eps = float(rng.uniform(0.5, 50.0)), float(rng.uniform(0.01, 0.3))
            assert_same_smo(K, y, cost / 4, eps, ml.SVR_TOL, 100_000)
            start = reference_smo_epsilon_svr(K, y, cost / 4, eps, ml.SVR_TOL, 100_000)[0]
            assert_same_smo(K, y, cost, eps, ml.SVR_TOL, 100_000, beta0=start)

    def test_smo_iteration_cap(self):
        rng = np.random.default_rng(61)
        X, y = rng.normal(size=(30, 2)), rng.normal(size=30)
        K = ml._rbf_kernel(X, X, 1.0)
        for max_iter in (1, 2, 7, 25):
            assert_same_smo(K, y, 100.0, ml.DEFAULT_EPSILON, ml.SVR_TOL, max_iter)
            start = reference_smo_epsilon_svr(K, y, 10.0, ml.DEFAULT_EPSILON, ml.SVR_TOL, 50)[0]
            assert_same_smo(K, y, 100.0, ml.DEFAULT_EPSILON, ml.SVR_TOL, max_iter, start)

    def test_smo_duplicated_rows(self):
        rng = np.random.default_rng(62)
        X = np.repeat(rng.normal(size=(20, 3)), 2, axis=0)
        y = np.repeat(rng.normal(size=20), 2)
        K = ml._rbf_kernel(X, X, 0.5)
        for cost in (0.5, 10.0, 200.0):
            assert_same_smo(K, y, cost, ml.DEFAULT_EPSILON, ml.SVR_TOL, 100_000)

    def test_smo_one_and_two_samples(self):
        rng = np.random.default_rng(63)
        for n in (1, 2):
            for trial in range(5):
                X, y = rng.normal(size=(n, 2)), rng.normal(size=n) * 3.0
                K = ml._rbf_kernel(X, X, float(rng.uniform(0.05, 2.0)))
                assert_same_smo(K, y, float(rng.uniform(0.1, 20.0)), 0.1, ml.SVR_TOL, 1000)

    def test_esvr_model_bytes(self, tmp_path, monkeypatch):
        X, y = vegard_data(n=60)
        kwargs = dict(gamma_grid=(0.2, 1.0, 4.0), cost_grid=(1.0, 10.0, 100.0),
                      ensemble_sizes=(3,), seed=5)
        ml.save_model(ml.train_esvr(X, y, **kwargs), tmp_path / "tuned.json")
        monkeypatch.setattr(ml, "_smo_epsilon_svr", reference_smo_epsilon_svr)
        ml.save_model(ml.train_esvr(X, y, **kwargs), tmp_path / "reference.json")
        assert (tmp_path / "tuned.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_elasso_correlated_problem(self):
        # the problem of test_elasso_same_penalties_as_plain_descent
        rng = np.random.default_rng(46)
        X = rng.normal(size=(80, 1)) + 0.2 * rng.normal(size=(80, 6))
        y = X @ np.array([0.5, 0.3, -0.2, 0.1, 0.0, 0.05]) + rng.normal(0, 0.05, 80)
        assert_same_elasso(X, y, B=10, seed=3)

    def test_elasso_duplicate_column(self):
        # supports holding both copies are singular: their cached factor is None
        rng = np.random.default_rng(45)
        X = rng.normal(size=(50, 4))
        X = np.column_stack([X, X[:, 0]])
        y = X[:, :4] @ np.array([1.5, -1.0, 0.5, 0.25]) + rng.normal(0, 0.1, 50)
        assert_same_elasso(X, y, B=6, seed=1)

    def test_elasso_vegard_problem(self):
        X, y = vegard_data(n=60)
        assert_same_elasso(X, y, B=5, seed=4)


def _two_constant_estimators(values):
    estimators = [
        ml.LassoEstimator(coef=np.zeros(6), intercept=v, lam=0.0) for v in values
    ]
    std = ml.Standardizer(
        x_mean=np.zeros(6), x_scale=np.ones(6), y_mean=0.0, y_scale=1.0
    )
    return ml.EnsembleModel(kind="elasso", estimators=estimators,
                            standardization=std, seed=0)


class TestPredict:
    def test_hand_mean_and_std(self):
        model = _two_constant_estimators([3.0, 3.2])
        pred = ml.predict(model, np.zeros(6))
        assert pred.mean == pytest.approx(3.1)
        assert pred.std == pytest.approx(0.1)

    def test_dimension_mismatch(self):
        model = _two_constant_estimators([3.0, 3.2])
        with pytest.raises(ml.DimensionMismatch):
            ml.predict(model, np.zeros(4))

    def test_std_permutation_invariant(self):
        a = _two_constant_estimators([3.0, 3.2, 3.4])
        b = _two_constant_estimators([3.4, 3.0, 3.2])
        assert ml.predict(a, np.zeros(6)).std == pytest.approx(
            ml.predict(b, np.zeros(6)).std
        )

    def test_std_invariant_under_ensemble_duplication(self):
        base = _two_constant_estimators([3.0, 3.2, 3.4])
        doubled = _two_constant_estimators([3.0, 3.2, 3.4, 3.0, 3.2, 3.4])
        assert ml.predict(doubled, np.zeros(6)).std == pytest.approx(
            ml.predict(base, np.zeros(6)).std, abs=1e-12
        )

    def test_feature_vector_input(self):
        from alloyforge.features import FeatureVector

        model = _two_constant_estimators([3.0, 3.2])
        vector = FeatureVector(1, 2, 3, 4, 5, 6)
        assert ml.predict(model, vector).mean == pytest.approx(3.1)


class TestStandardizationInvariance:
    def test_affine_feature_rescaling(self):
        X, y = vegard_data(n=60)
        scale = np.array([2.0, 0.5, 10.0, 1.0, 3.0, 0.1])
        shift = np.array([5.0, -2.0, 0.0, 1.0, -4.0, 2.0])
        kwargs = dict(gamma_grid=(0.2, 1.0), cost_grid=(10.0,), ensemble_sizes=(5,), seed=6)
        model_a = ml.train_esvr(X, y, **kwargs)
        model_b = ml.train_esvr(X * scale + shift, y, **kwargs)
        probe = X[:10]
        mean_a, _ = ml.predict_batch(model_a, probe)
        mean_b, _ = ml.predict_batch(model_b, probe * scale + shift)
        assert np.max(np.abs(mean_a - mean_b)) <= 1e-9


class TestR2:
    def test_examples(self):
        assert ml.r2([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        y = np.array([1.0, 2.0, 3.0])
        assert ml.r2(y, np.full(3, y.mean())) == pytest.approx(0.0)
        assert ml.r2([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5)

    def test_constant_target(self):
        with pytest.raises(ml.ConstantTarget):
            ml.r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few(self):
        with pytest.raises(ml.TooFewSamples):
            ml.r2([1.0], [1.0])


class TestPersistence:
    def test_round_trip_predictions(self, tmp_path):
        X, y = vegard_data(n=50)
        for kind, model in (
            ("esvr", ml.train_esvr(X, y, gamma_grid=(0.2,), cost_grid=(10.0,),
                                   ensemble_sizes=(3,), seed=8)),
            ("elasso", ml.train_elasso(X, y, B=3, seed=8)),
        ):
            path = tmp_path / f"{kind}.json"
            ml.save_model(model, path)
            loaded = ml.load_model(path)
            assert loaded.kind == kind
            before = ml.predict_batch(model, X)
            after = ml.predict_batch(loaded, X)
            assert np.array_equal(before[0], after[0])
            assert np.array_equal(before[1], after[1])
            payload = json.loads(path.read_text())
            assert payload["seed"] == 8
