"""Ensemble regressors for lattice-constant prediction.

Two model families are provided: bootstrap ensembles of RBF-kernel epsilon-SVR
estimators (dual solved by SMO with second-order working-set selection, warm
started along each gamma's ascending cost grid) and bootstrap ensembles of
LASSO estimators (cyclic coordinate descent with a KKT-certified active-set
finish, per-resample penalty chosen by 10-fold cross-validation). Ensemble
spread (population standard deviation of member predictions) is reported as
the prediction uncertainty.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import warnings
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

DEFAULT_GAMMA_GRID = tuple(float(2.0**k) for k in range(-8, 4))
DEFAULT_COST_GRID = tuple(float(2.0**k) for k in range(-2, 9))
DEFAULT_ENSEMBLE_SIZES = (10, 20, 30, 40, 50, 75, 100)
DEFAULT_EPSILON = 0.1          # tube width in standardized target units
SVR_TOL = 1e-3                 # KKT violation at which SMO stops
ESVR_VAL_FRACTION = 0.25       # share of the training set carved off for validation
LASSO_TOL = 1e-8
CV_FOLDS = 10
_PATH_TOL = 1e-6               # looser tolerance for the warm-started path fits
_KKT_RTOL = 1e-10              # relative slack of the LASSO active-set certificate
_PIVOT_RTOL = 1e-10            # Cholesky pivot share below which gram[A, A] is singular
_FEATURE_SIGN_STEPS = 20       # step budget of one active-set finish
_TAU = 1e-12

logger = logging.getLogger(__name__)


class TooFewSamples(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class ConstantTarget(ValueError):
    pass


class NonConvergence(Warning):
    """The SMO loop hit its iteration cap; the best iterate was returned."""


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


@dataclass(frozen=True)
class SvrHyperParams:
    gamma: float
    cost: float
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        if min(self.gamma, self.cost, self.epsilon) <= 0:
            raise ValueError("gamma, cost, and epsilon must all be positive")


@dataclass(frozen=True)
class PredictionWithUncertainty:
    mean: float
    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("std must be nonnegative")


@dataclass
class Standardizer:
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float

    @classmethod
    def fit(cls, X: np.ndarray, y: np.ndarray) -> "Standardizer":
        x_mean = X.mean(axis=0)
        x_scale = X.std(axis=0)
        x_scale[x_scale == 0.0] = 1.0
        y_scale = float(y.std()) or 1.0
        return cls(x_mean=x_mean, x_scale=x_scale, y_mean=float(y.mean()), y_scale=y_scale)

    def x(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.x_mean) / self.x_scale

    def y(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_scale

    def y_inverse(self, u) -> np.ndarray:
        return np.asarray(u, dtype=float) * self.y_scale + self.y_mean


@dataclass
class SvrEstimator:
    beta: np.ndarray          # dual coefficients on the support rows
    bias: float
    support: np.ndarray       # standardized support vectors, (m, p)
    params: SvrHyperParams

    def predict(self, Z: np.ndarray) -> np.ndarray:
        if len(self.beta) == 0:
            return np.full(len(Z), self.bias)
        return _rbf_kernel(Z, self.support, self.params.gamma) @ self.beta + self.bias


@dataclass
class LassoEstimator:
    coef: np.ndarray
    intercept: float
    lam: float

    def predict(self, Z: np.ndarray) -> np.ndarray:
        return Z @ self.coef + self.intercept


@dataclass
class EnsembleModel:
    kind: str                               # esvr | elasso
    estimators: list
    standardization: Standardizer
    seed: int
    extra: dict = dataclass_field(default_factory=dict)

    @property
    def n_features(self) -> int:
        return len(self.standardization.x_mean)


# --- splitting and metrics ---------------------------------------------------------


def train_test_split(X, y, cfg: SplitConfig):
    """Seeded permutation split; returns X_train, X_test, y_train, y_test."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(X)
    if len(y) != n:
        raise DimensionMismatch(f"X has {n} rows but y has {len(y)}")
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    n_train = int(math.floor(cfg.train_fraction * n + 1e-9))
    n_train = min(max(n_train, 1), n - 1)
    perm = np.random.default_rng(cfg.seed).permutation(n)
    train, test = perm[:n_train], perm[n_train:]
    return X[train], X[test], y[train], y[test]


def r2(y_true, y_pred) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if len(y_true) != len(y_pred):
        raise DimensionMismatch("y_true and y_pred lengths differ")
    if len(y_true) < 2:
        raise TooFewSamples("r2 needs at least 2 samples")
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        raise ConstantTarget("r2 undefined for a constant target")
    ss_res = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - ss_res / ss_tot


# --- epsilon-SVR via SMO -----------------------------------------------------------


def _sq_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * A @ B.T
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float) -> np.ndarray:
    return np.exp(-gamma * _sq_distances(A, B))


def _smo_epsilon_svr(K, y, cost, epsilon, tol, max_iter, beta0=None):
    """Solve the epsilon-SVR dual by SMO with second-order working-set selection.

    Each sample has an upper-tube and a lower-tube multiplier (``up`` and
    ``low``; beta = up - low), whose -y*grad f values are r - epsilon and
    r + epsilon for the residual r = y - K @ beta. Each step takes i, the
    maximal violator of the "up" set, and j from the "low" set by the
    second-order rule of Fan, Chen & Lin (2005, JMLR 6:1889), as LIBSVM does;
    it stops when the maximal violation drops to ``tol``. ``K`` must be
    symmetric. ``beta0``, a solution for a cost no larger than ``cost``, is a
    feasible start in place of zero. Returns (beta, bias, n_iterations,
    converged).

    The step runs on Python floats: the multipliers are two lists, scalars
    are read with ``item``, and the vector work writes into preallocated
    buffers. Every value comes from the same IEEE operations, in the same
    order, as in the plain numpy transcription kept in ``tests/oracles.py``.
    """
    n = len(y)
    if beta0 is None:
        up, low = [0.0] * n, [0.0] * n
        resid = np.array(y, dtype=float)
    else:
        up, low = np.maximum(beta0, 0.0).tolist(), np.maximum(-beta0, 0.0).tolist()
        resid = y - K @ beta0
    kdiag = np.diag(K).copy()
    kd, k_rows = kdiag.tolist(), list(K)
    scale_rows = {}  # sample -> 1/sqrt(max(K_ii + K_tt - 2 K_it, tau)) over t

    # per sample, the best -y*grad f among its variables in "up" and in "low"
    # is resid + up_off and resid + low_off; an infinite offset means none
    up_arr, low_arr = np.array(up), np.array(low)
    up_off = np.where(low_arr > 0.0, epsilon, np.where(up_arr < cost, -epsilon, -np.inf))
    low_off = np.where(up_arr > 0.0, -epsilon, np.where(low_arr < cost, epsilon, np.inf))
    up_val, gap, step = np.empty(n), np.empty(n), np.empty(n)

    iterations = 0
    converged = False
    while iterations < max_iter:
        np.add(resid, up_off, out=up_val)
        ii = int(up_val.argmax())
        m = up_val.item(ii)
        # gap = m - (resid + low_off); rounding is monotone, so its max is
        # m - min(resid + low_off), the maximal violation
        np.add(resid, low_off, out=gap)
        np.subtract(m, gap, out=gap)
        if gap.item(gap.argmax()) <= tol:   # max(), without its Python wrapper
            converged = True
            break
        row = scale_rows.get(ii)
        if row is None:
            quad = np.maximum(kdiag + kd[ii] - 2.0 * k_rows[ii], _TAU)
            row = scale_rows[ii] = 1.0 / np.sqrt(quad)
        # argmax of b / sqrt(a) over b = gap > 0 is argmin of -b^2 / a; a
        # positive b exists, since max(gap) > tol
        np.multiply(gap, row, out=gap)
        jj = int(gap.argmax())

        hi = 1 if low[ii] > 0.0 else 0
        hj = 0 if up[jj] > 0.0 else 1
        si, sj = 1 - 2 * hi, 1 - 2 * hj
        quad = max(kd[ii] + kd[jj] - 2.0 * K.item(ii, jj), _TAU)
        old_i = low[ii] if hi else up[ii]
        old_j = low[jj] if hj else up[jj]
        g_i = epsilon - si * resid.item(ii)   # grad f of the two variables
        g_j = epsilon - sj * resid.item(jj)
        if si != sj:
            delta = (-g_i - g_j) / quad
            diff = old_i - old_j
            ai, aj = old_i + delta, old_j + delta
            if diff > 0:
                if aj < 0:
                    aj, ai = 0.0, diff
            else:
                if ai < 0:
                    ai, aj = 0.0, -diff
            if diff > 0:
                if ai > cost:
                    ai, aj = cost, cost - diff
            else:
                if aj > cost:
                    aj, ai = cost, cost + diff
        else:
            delta = (g_i - g_j) / quad
            total = old_i + old_j
            ai, aj = old_i - delta, old_j + delta
            if total > cost:
                if ai > cost:
                    ai, aj = cost, total - cost
            else:
                if aj < 0:
                    aj, ai = 0.0, total
            if total > cost:
                if aj > cost:
                    aj, ai = cost, total - cost
            else:
                if ai < 0:
                    ai, aj = 0.0, total
        d_i, d_j = ai - old_i, aj - old_j
        if d_i == 0.0 and d_j == 0.0:
            converged = True  # numerically stalled at the optimum
            break
        (low if hi else up)[ii] = ai
        (low if hj else up)[jj] = aj
        np.multiply(k_rows[ii], si * d_i, out=step)
        np.subtract(resid, step, out=resid)
        np.multiply(k_rows[jj], sj * d_j, out=step)
        np.subtract(resid, step, out=resid)
        for s in (ii, jj):
            a_up, a_low = up[s], low[s]
            up_off[s] = epsilon if a_low > 0.0 else (-epsilon if a_up < cost else -np.inf)
            low_off[s] = -epsilon if a_up > 0.0 else (epsilon if a_low < cost else np.inf)
        iterations += 1

    alpha = np.array([up, low])
    minus_yg = np.stack([resid - epsilon, resid + epsilon])
    free = (alpha > 0.0) & (alpha < cost)
    if free.any():
        bias = float(np.mean(minus_yg[free]))
    else:
        m_up = float(np.max(resid + up_off))
        m_low = float(np.min(resid + low_off))
        bias = ((m_up if m_up > -np.inf else 0.0) + (m_low if m_low < np.inf else 0.0)) / 2.0
    beta = alpha[0] - alpha[1]
    return beta, bias, iterations, converged


@dataclass
class _SvrPath:
    """One resample's kernel at one gamma, and the last fit made on it.

    ``train_esvr`` fits each gamma's costs in ascending order: the previous
    solution stays feasible when the box grows, and the gradient does not
    depend on the cost, so each fit starts from the one before.
    """
    kernel: np.ndarray
    beta: np.ndarray | None = None   # all dual coefficients of the last fit
    iterations: int = 0
    converged: bool = True


def fit_svr(X: np.ndarray, y: np.ndarray, hp: SvrHyperParams,
            max_iter: int | None = None, path: _SvrPath | None = None) -> SvrEstimator:
    """Fit one epsilon-SVR on standardized inputs.

    Without ``path`` the fit starts from zero. With one, ``path.kernel`` is
    the kernel of ``X`` at ``hp.gamma``; the fit starts from ``path.beta``
    (fitted at a cost no larger than ``hp.cost``) and records its own result
    there. Identical support rows are merged into one with their summed
    coefficient, which leaves predictions unchanged.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if max_iter is None:
        max_iter = max(40_000, 400 * n)
    if path is None:
        K, beta0 = _rbf_kernel(X, X, hp.gamma), None
    else:
        K, beta0 = path.kernel, path.beta
    beta, bias, iterations, converged = _smo_epsilon_svr(
        K, y, hp.cost, hp.epsilon, SVR_TOL, max_iter, beta0
    )
    if path is not None:
        path.beta, path.iterations, path.converged = beta, iterations, converged
    if not converged:
        warnings.warn(
            f"SMO stopped after {iterations} iterations without reaching tol={SVR_TOL}",
            NonConvergence,
        )
    copies = {}   # support row bytes -> its row indices, in order of first use
    for k in np.flatnonzero(np.abs(beta) > 1e-12).tolist():
        copies.setdefault(X[k].tobytes(), []).append(k)
    coef = beta.tolist()
    return SvrEstimator(
        beta=np.array([sum(coef[k] for k in rows) for rows in copies.values()]),
        bias=bias,
        support=X[[rows[0] for rows in copies.values()]],
        params=hp,
    )


def train_esvr(
    X,
    y,
    gamma_grid=DEFAULT_GAMMA_GRID,
    cost_grid=DEFAULT_COST_GRID,
    ensemble_sizes=DEFAULT_ENSEMBLE_SIZES,
    validation=None,
    seed: int = 0,
) -> EnsembleModel:
    """Train a bagged epsilon-SVR ensemble with per-estimator grid search.

    Each estimator trains on a bootstrap resample; its (gamma, cost) pair is
    chosen by grid search scored on that estimator's out-of-bag samples
    (ties go to the earlier gamma of ``gamma_grid``, then the smaller cost).
    The ensemble size is then chosen from ``ensemble_sizes`` by maximum
    R-squared on the validation data: a split carved from the training set by
    default, or any (X, y) pair passed as ``validation`` (pass the test set to
    mimic protocols that select on test performance). ``extra`` records each
    kept estimator's SMO iterations (``svr_iterations``) and the number of
    grid fits that stopped at the iteration cap (``svr_nonconverged``).
    """
    if not gamma_grid or not cost_grid or not ensemble_sizes:
        raise ValueError("gamma_grid, cost_grid, and ensemble_sizes must be non-empty")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) != len(y):
        raise DimensionMismatch("X and y lengths differ")
    if len(X) < 2:
        raise TooFewSamples("need at least 2 training samples")

    std = Standardizer.fit(X, y)
    Z, u = std.x(X), std.y(y)

    if validation is None:
        carve_rng = np.random.default_rng(seed)
        perm = carve_rng.permutation(len(Z))
        n_val = max(2, round(ESVR_VAL_FRACTION * len(Z)))
        if len(Z) - n_val < 2:
            # too few samples to carve a holdout; validate on the training data
            Z_fit, u_fit, Z_val, y_val = Z, u, Z, y
        else:
            val_idx, fit_idx = perm[:n_val], perm[n_val:]
            Z_fit, u_fit = Z[fit_idx], u[fit_idx]
            Z_val, y_val = Z[val_idx], y[val_idx]
    else:
        X_val, y_val = validation
        Z_fit, u_fit = Z, u
        Z_val = std.x(np.asarray(X_val, dtype=float))
        y_val = np.asarray(y_val, dtype=float)

    sizes = sorted(set(int(s) for s in ensemble_sizes))
    if sizes[0] < 1:
        raise ValueError("ensemble sizes must be positive")
    m_max = sizes[-1]
    children = np.random.SeedSequence(seed).spawn(m_max)
    n_fit = len(Z_fit)

    estimators, iterations, nonconverged = [], [], 0
    for b in range(m_max):
        rng = np.random.default_rng(children[b])
        picks = rng.integers(0, n_fit, n_fit)
        oob = np.setdiff1d(np.arange(n_fit), np.unique(picks))
        Zb, ub = Z_fit[picks], u_fit[picks]
        Z_score = Z_fit[oob] if len(oob) else Z_fit
        u_score = u_fit[oob] if len(oob) else u_fit
        sq_fit, sq_score = _sq_distances(Zb, Zb), _sq_distances(Z_score, Zb)

        best = None
        for gamma in gamma_grid:
            path = _SvrPath(kernel=np.exp(-gamma * sq_fit))
            K_score = np.exp(-gamma * sq_score)
            for cost in sorted(cost_grid):
                est = fit_svr(Zb, ub, SvrHyperParams(gamma, cost), path=path)
                nonconverged += not path.converged
                mse = float(np.mean((K_score @ path.beta + est.bias - u_score) ** 2))
                if best is None or mse < best[0]:
                    best = (mse, est, path.iterations)
        estimators.append(best[1])
        iterations.append(best[2])
    if nonconverged:
        logger.warning("%d of %d SVR grid fits stopped at the SMO iteration cap",
                       nonconverged, m_max * len(gamma_grid) * len(cost_grid))

    member_preds = np.vstack([est.predict(Z_val) for est in estimators])
    cumulative = np.cumsum(member_preds, axis=0) / np.arange(1, m_max + 1)[:, None]
    best_size, best_r2 = sizes[0], -np.inf
    for size in sizes:
        score = r2(y_val, std.y_inverse(cumulative[size - 1]))
        if score > best_r2:
            best_size, best_r2 = size, score
    return EnsembleModel(
        kind="esvr",
        estimators=estimators[:best_size],
        standardization=std,
        seed=seed,
        extra={"ensemble_size": best_size, "validation_r2": best_r2,
               "svr_iterations": iterations[:best_size],
               "svr_nonconverged": nonconverged},
    )


# --- LASSO via cyclic coordinate descent ---------------------------------------------


def _soft_threshold(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


class _LassoPath:
    """One LASSO problem's moments as Python lists, and the Cholesky factors
    of gram[A, A] built so far for the supports A met along its penalty path.

    The fits along one path share it: consecutive penalties usually keep the
    support, so its factor is built once. A singular support maps to None.
    """

    def __init__(self, gram, corr, diag):
        self.gram_rows = np.asarray(gram, dtype=float).tolist()
        self.corr = np.asarray(corr, dtype=float).tolist()
        self.diag = np.asarray(diag, dtype=float).tolist()
        self.factors = {}   # support tuple -> lower-triangular rows, or None


def _cholesky(gram_rows, active):
    """Lower-triangular rows of the Cholesky factor of gram[A, A] for A = ``active``.

    None when a pivot is at or below ``_PIVOT_RTOL`` of its diagonal entry
    (gram[A, A] near-singular).
    """
    chol = []
    for a, j in enumerate(active):
        row = gram_rows[j]
        lrow = []
        for b in range(a):
            lb = chol[b]
            lrow.append((row[active[b]] - sum(map(operator.mul, lrow, lb))) / lb[b])
        pivot = row[j] - sum(map(operator.mul, lrow, lrow))
        if not pivot > _PIVOT_RTOL * row[j]:
            return None
        lrow.append(math.sqrt(pivot))
        chol.append(lrow)
    return chol


def _cholesky_solve(chol, rhs):
    """Solve L L' v = rhs by forward and back substitution; v as a list."""
    m = len(chol)
    z = []
    for a in range(m):
        la = chol[a]
        z.append((rhs[a] - sum(map(operator.mul, la, z))) / la[a])
    v = [0.0] * m
    for a in reversed(range(m)):
        v[a] = (z[a] - sum(chol[k][a] * v[k] for k in range(a + 1, m))) / chol[a][a]
    return v


def _lasso_objective(gram_rows, corr, lam, x):
    """(1/2) x'Gram x - corr'x + lam*||x||_1, the LASSO objective less a constant."""
    total = 0.0
    for j, xj in enumerate(x):
        if xj:
            row = gram_rows[j]
            total += xj * (0.5 * sum(map(operator.mul, row, x)) - corr[j]) + lam * abs(xj)
    return total


def _active_set_solution(gram_rows, corr, lam, w, factors=None):
    """Finish a coordinate-descent iterate ``w`` exactly, or return None.

    Feature-sign search (Lee, Battle, Raina & Ng 2007, NIPS 19), an active-set
    method: on the support A of w with signs s it solves
    gram[A, A] v = corr[A] - lam * s[A] and moves to the lowest-objective point
    among v and the points where the segment from w to v crosses zero on some
    coordinate; once w is optimal on A, the zero coordinate with the largest
    |corr - gram w| above lam joins A. Each step lowers the objective. A
    returned w passes the subgradient certificate to a slack of ``_KKT_RTOL``
    times max(lam, max|corr|): corr - gram w = lam * sign(w) where w != 0, and
    |corr - gram w| <= lam where w = 0. A near-singular gram[A, A] or
    ``_FEATURE_SIGN_STEPS`` steps without a certificate give None.
    ``factors`` caches the Cholesky factor of each support (a
    ``_LassoPath.factors``); without it the call keeps its own.
    """
    p = len(corr)
    if factors is None:
        factors = {}
    slack = _KKT_RTOL * max(lam, max(map(abs, corr), default=0.0))
    for _ in range(_FEATURE_SIGN_STEPS):
        grad = [c - sum(map(operator.mul, row, w)) for c, row in zip(corr, gram_rows)]
        signs = [(x > 0.0) - (x < 0.0) for x in w]
        if all(abs(g - lam * s) <= slack for g, s in zip(grad, signs) if s):
            zeros = [j for j in range(p) if not signs[j]]
            j_add = max(zeros, key=lambda j: abs(grad[j]), default=None)
            if j_add is None or abs(grad[j_add]) <= lam + slack:
                return w
            signs[j_add] = 1 if grad[j_add] > 0.0 else -1
        active = [j for j in range(p) if signs[j]]
        support = tuple(active)
        if support not in factors:
            factors[support] = _cholesky(gram_rows, active)
        chol = factors[support]
        if chol is None:
            return None
        v = _cholesky_solve(chol, [corr[j] - lam * signs[j] for j in active])
        target = [0.0] * p
        for j, vj in zip(active, v):
            target[j] = vj
        best = target
        # the points where the segment from w to target crosses zero
        crossing = [j for j in active if w[j] * target[j] < 0.0]
        if crossing:
            best_f = _lasso_objective(gram_rows, corr, lam, target)
            for j in crossing:
                t = w[j] / (w[j] - target[j])
                x = [a + t * (b - a) for a, b in zip(w, target)]
                x[j] = 0.0
                f = _lasso_objective(gram_rows, corr, lam, x)
                if f < best_f:
                    best, best_f = x, f
        w = best
    return None


def _lasso_cd(gram, corr, diag, lam, tol, max_iter, w0=None, path=None):
    """Minimize (1/2n)||y - Xw||^2 + lam*||w||_1 given Gram = X'X/n, corr = X'y/n.

    Cyclic coordinate descent with an exact active-set finish. Once a sweep
    leaves the sign pattern of w as it found it (the first sweep compares with
    ``w0``), or moves no coordinate by more than ``tol``, ``_active_set_solution``
    finishes from w, and its result is returned if it passes the subgradient
    certificate; otherwise the sweeps go on, and the finish is not tried again
    until the sign pattern changes. Returns (w, capped): capped is True when the
    sweeps reached ``max_iter`` with neither a certified solution nor a sweep
    below ``tol``, and w is then the last iterate, as plain descent leaves it.

    ``path``, a ``_LassoPath`` of the same gram, corr and diag, is shared by
    the fits along one penalty path: it holds their list forms and the
    Cholesky factors built so far. Without one, the call makes its own.

    The sweep loop runs on plain Python floats; for the handful of features
    used here that is severalfold faster than numpy scalar indexing.
    """
    if path is None:
        path = _LassoPath(gram, corr, diag)
    gram_rows, corr_list, diag_list = path.gram_rows, path.corr, path.diag
    p, lam = len(corr_list), float(lam)
    w = [0.0] * p if w0 is None else np.asarray(w0, dtype=float).tolist()
    gw = [sum(map(operator.mul, row, w)) for row in gram_rows]
    signs = [(x > 0.0) - (x < 0.0) for x in w]
    failed = None
    for _ in range(max_iter):
        biggest = 0.0
        for j in range(p):
            dj = diag_list[j]
            if dj <= 0.0:
                continue
            rho = corr_list[j] - gw[j] + dj * w[j]
            new = _soft_threshold(rho, lam) / dj
            delta = new - w[j]
            if delta != 0.0:
                col = gram_rows[j]
                for i in range(p):
                    gw[i] += col[i] * delta
                w[j] = new
                if -delta > biggest:
                    biggest = -delta
                elif delta > biggest:
                    biggest = delta
        found, signs = signs, [(x > 0.0) - (x < 0.0) for x in w]
        if (signs == found or biggest <= tol) and signs != failed:
            exact = _active_set_solution(gram_rows, corr_list, lam, w, path.factors)
            if exact is not None:
                return np.asarray(exact), False
            failed = signs
        if biggest <= tol:
            return np.asarray(w), False
    return np.asarray(w), True


def _centered_moments(X: np.ndarray, y: np.ndarray):
    """(x_mean, y_mean, Gram = Xc'Xc/n, corr = Xc'yc/n, diag(Gram)) for centered Xc, yc."""
    n = len(y)
    x_mean, y_mean = X.mean(axis=0), float(y.mean())
    Xc, yc = X - x_mean, y - y_mean
    gram = Xc.T @ Xc / n
    return x_mean, y_mean, gram, Xc.T @ yc / n, np.diag(gram).copy()


def fit_lasso(X: np.ndarray, y: np.ndarray, lam: float):
    """Fit one LASSO by cyclic coordinate descent; returns (coef, intercept)."""
    if lam < 0:
        raise ValueError(f"penalty must be nonnegative, got {lam}")
    x_mean, y_mean, gram, corr, diag = _centered_moments(
        np.asarray(X, dtype=float), np.asarray(y, dtype=float))
    w, _ = _lasso_cd(gram, corr, diag, lam, LASSO_TOL, 100_000)
    intercept = y_mean - float(x_mean @ w)
    return w, intercept


def lasso_lambda_max(X: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty that zeroes every coefficient: max|X'(y - mean(y))| / n."""
    corr = _centered_moments(np.asarray(X, dtype=float), np.asarray(y, dtype=float))[3]
    return float(np.max(np.abs(corr)))


def train_elasso(
    X,
    y,
    B: int = 1000,
    seed: int = 0,
) -> EnsembleModel:
    """Train a bootstrap LASSO ensemble.

    Each of the ``B`` resamples carries its own penalty, chosen to minimize
    mean squared error under ``CV_FOLDS``-fold cross-validation over a
    50-point logarithmic grid below that resample's shutoff penalty.
    ``extra["lasso_capped"]`` counts the LASSO fits (path, refit and final)
    that stopped at their sweep cap without a certified solution.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) != len(y):
        raise DimensionMismatch("X and y lengths differ")
    n = len(y)
    if n < CV_FOLDS:
        raise TooFewSamples(
            f"need at least {CV_FOLDS} samples for {CV_FOLDS}-fold CV, got {n}")
    if B < 1:
        raise ValueError("B must be at least 1")

    std = Standardizer.fit(X, y)
    Z, u = std.x(X), std.y(y)
    children = np.random.SeedSequence(seed).spawn(B)

    estimators, fits, capped = [], 0, 0
    for b in range(B):
        rng = np.random.default_rng(children[b])
        picks = rng.integers(0, n, n)
        Zb, ub = Z[picks], u[picks]
        xm, ym, gram, corr, diag = _centered_moments(Zb, ub)
        lam_max = float(np.max(np.abs(corr)))
        if lam_max <= 0:
            lam_max = 1e-8
        grid = np.geomspace(lam_max, lam_max * 1e-4, 50)

        fold_ids = rng.permutation(n) % CV_FOLDS
        cv_errors = np.zeros(len(grid))
        for fold in range(CV_FOLDS):
            val_mask = fold_ids == fold
            Zv, uv = Zb[val_mask], ub[val_mask]
            fxm, fym, fgram, fcorr, fdiag = _centered_moments(Zb[~val_mask], ub[~val_mask])
            fold_path, Zc = _LassoPath(fgram, fcorr, fdiag), Zv - fxm
            preds, w = [], None
            for lam in grid:
                # scoring fits ride the warm-started path; loose tolerance and a
                # small sweep cap keep ill-conditioned resamples from stalling
                w, hit_cap = _lasso_cd(fgram, fcorr, fdiag, lam, _PATH_TOL, 300, w0=w,
                                       path=fold_path)
                capped += hit_cap
                preds.append(Zc @ w)
            # one (penalty, sample) array scores the fold: each row's mean sums
            # in the order a one-penalty mean would. A stacked Zc @ W.T would
            # save the matrix-vector products but round them differently.
            err = np.array(preds)
            err += fym
            err -= uv
            cv_errors += np.mean(np.square(err, out=err), axis=1)
        best_idx = int(np.argmin(cv_errors))
        best_lam = float(grid[best_idx])
        full_path, w = _LassoPath(gram, corr, diag), None
        for lam in grid[: best_idx + 1]:
            w, hit_cap = _lasso_cd(gram, corr, diag, float(lam), _PATH_TOL, 300, w0=w,
                                   path=full_path)
            capped += hit_cap
        w, hit_cap = _lasso_cd(gram, corr, diag, best_lam, LASSO_TOL, 5_000, w0=w,
                               path=full_path)
        capped += hit_cap
        fits += CV_FOLDS * len(grid) + best_idx + 2
        intercept = ym - float(xm @ w)
        estimators.append(LassoEstimator(coef=w, intercept=intercept, lam=best_lam))
    if capped:
        logger.warning("%d of %d LASSO fits stopped at the sweep cap", capped, fits)

    return EnsembleModel(
        kind="elasso",
        estimators=estimators,
        standardization=std,
        seed=seed,
        extra={"bootstrap_count": B, "folds": CV_FOLDS, "lasso_capped": capped},
    )


# --- prediction and persistence -------------------------------------------------------


def predict(model: EnsembleModel, x) -> PredictionWithUncertainty:
    """Ensemble mean and population spread for one feature vector, in angstrom."""
    vector = x.as_array() if hasattr(x, "as_array") else np.asarray(x, dtype=float)
    if vector.ndim != 1 or len(vector) != model.n_features:
        raise DimensionMismatch(
            f"expected a vector of length {model.n_features}, got shape {vector.shape}"
        )
    means, stds = predict_batch(model, vector[None, :])
    return PredictionWithUncertainty(mean=float(means[0]), std=float(stds[0]))


def predict_batch(model: EnsembleModel, X) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(
            f"expected shape (n, {model.n_features}), got {X.shape}"
        )
    Z = model.standardization.x(X)
    member = np.vstack([est.predict(Z) for est in model.estimators])
    raw = model.standardization.y_inverse(member)
    return raw.mean(axis=0), raw.std(axis=0, ddof=0)


def save_model(model: EnsembleModel, path) -> None:
    std = model.standardization
    payload = {
        "kind": model.kind,
        "seed": model.seed,
        "extra": model.extra,
        "standardization": {
            "x_mean": std.x_mean.tolist(),
            "x_scale": std.x_scale.tolist(),
            "y_mean": std.y_mean,
            "y_scale": std.y_scale,
        },
        "estimators": [_estimator_to_dict(model.kind, est) for est in model.estimators],
    }
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8")


def load_model(path) -> EnsembleModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    std = Standardizer(
        x_mean=np.asarray(payload["standardization"]["x_mean"], dtype=float),
        x_scale=np.asarray(payload["standardization"]["x_scale"], dtype=float),
        y_mean=float(payload["standardization"]["y_mean"]),
        y_scale=float(payload["standardization"]["y_scale"]),
    )
    kind = payload["kind"]
    estimators = [_estimator_from_dict(kind, blob) for blob in payload["estimators"]]
    return EnsembleModel(
        kind=kind,
        estimators=estimators,
        standardization=std,
        seed=int(payload["seed"]),
        extra=dict(payload.get("extra", {})),
    )


def _estimator_to_dict(kind: str, est) -> dict:
    if kind == "esvr":
        return {
            "gamma": est.params.gamma,
            "cost": est.params.cost,
            "epsilon": est.params.epsilon,
            "bias": est.bias,
            "beta": est.beta.tolist(),
            "support": est.support.tolist(),
        }
    if kind == "elasso":
        return {"coef": est.coef.tolist(), "intercept": est.intercept, "lambda": est.lam}
    raise ValueError(f"unknown model kind {kind!r}")


def _estimator_from_dict(kind: str, blob: dict):
    if kind == "esvr":
        return SvrEstimator(
            beta=np.asarray(blob["beta"], dtype=float),
            bias=float(blob["bias"]),
            support=np.asarray(blob["support"], dtype=float),
            params=SvrHyperParams(
                gamma=float(blob["gamma"]), cost=float(blob["cost"]),
                epsilon=float(blob["epsilon"]),
            ),
        )
    if kind == "elasso":
        return LassoEstimator(
            coef=np.asarray(blob["coef"], dtype=float),
            intercept=float(blob["intercept"]),
            lam=float(blob["lambda"]),
        )
    raise ValueError(f"unknown model kind {kind!r}")
