"""Ensemble regressors for lattice-constant prediction.

Two model families are provided: bootstrap ensembles of RBF-kernel epsilon-SVR
estimators (dual solved by SMO with second-order working-set selection, warm
started along each gamma's ascending cost grid) and bootstrap ensembles of
LASSO estimators (the exact homotopy path over each resample's penalty grid,
per-resample penalty chosen by 10-fold cross-validation). Ensemble
spread (population standard deviation of member predictions) is reported as
the prediction uncertainty.
"""

from __future__ import annotations

import json
import logging
import math
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
CV_FOLDS = 10
_PIVOT_RTOL = 1e-10            # Cholesky pivot share below which gram[A, A] is singular
_PATH_STEPS = 20               # step cap of one LASSO homotopy path, per feature
_ELASSO_BLOCK = 16             # resamples whose LASSO paths run as one stack
_TAU = 1e-12

logger = logging.getLogger(__name__)


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
        raise ValueError(f"X has {n} rows but y has {len(y)}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
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
        raise ValueError("y_true and y_pred lengths differ")
    if len(y_true) < 2:
        raise ValueError("r2 needs at least 2 samples")
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("r2 undefined for a constant target")
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
        raise ValueError("X and y lengths differ")
    if len(X) < 2:
        raise ValueError("need at least 2 training samples")

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


# --- LASSO via the homotopy path ---------------------------------------------------


def _lasso_path(gram, corr, grid):
    """Exact minimizers of (1/2) w'Gram w - corr'w + lam*||w||_1 along ``grid``,
    for a stack of independent problems followed in lockstep.

    With Gram = X'X/n and corr = X'y/n this is the LASSO
    (1/2n)||y - Xw||^2 + lam*||w||_1. The homotopy (LARS with the lasso
    modification; Osborne, Presnell & Turlach 2000, Efron et al. 2004) starts
    at the shutoff penalty max|corr|, where w = 0, and follows the solution
    down: on a stretch with active set A and signs s it is
    w[A] = gram[A, A]^-1 (corr[A] - lam * s), linear in lam, and it bends
    where an inactive correlation |corr - gram w| reaches lam (the feature
    joins) or an active coefficient reaches zero (it drops). Only a
    correlation that moves toward the penalty and a coefficient that shrinks
    count: their other crossings lie above lam, where the path has been, so
    the rounding echo of a bend just taken is never taken again. A crossing
    that rounding puts just above lam is taken at lam, so features whose
    correlations tie join one after another at the same penalty. A feature
    whose join would leave gram[A, A] with a Cholesky pivot at or below
    ``_PIVOT_RTOL`` of its diagonal entry never joins: in exact arithmetic it
    is a combination of the active columns, whose correlation stays within
    the penalty. The feature a bend just changed does not change back at
    that penalty, which would only undo a join or drop of a coefficient that
    stays 0 (ties in rank-deficient designs), and a coefficient whose sign
    rounding turns against s is written as 0: in exact arithmetic it has
    sign s on the stretch or is 0.

    ``gram`` is (F, p, p), ``corr`` (F, p) and ``grid`` (F, m), each row of
    ``grid`` decreasing and nonnegative. Each step solves every unfinished
    path's system in one call, gram[A, A] padded with the identity off A, and
    every other operation acts on each path alone, so a path's bits do not
    depend on the rest of the stack. Returns (W, capped): W[f, k] solves
    problem f at grid[f, k], and is zero at or above its shutoff. capped[f]
    is True when path f took ``_PATH_STEPS`` steps per feature with grid
    points left; those points then hold the coefficients at its last bend.
    """
    gram = np.asarray(gram, dtype=float)
    corr = np.asarray(corr, dtype=float)
    grid = np.asarray(grid, dtype=float)
    (F, p), m = corr.shape, grid.shape[1]
    W = np.zeros((F, m, p))
    capped = np.zeros(F, dtype=bool)
    lam = np.max(np.abs(corr), axis=1, initial=0.0)
    k = np.count_nonzero(grid >= lam[:, None], axis=1)   # grid points where w = 0
    # the arrays below follow the unfinished paths, path[i] being the i-th
    path = np.flatnonzero(k < m)
    gram, corr, grid, lam, k = gram[path], corr[path], grid[path], lam[path], k[path]
    diag = np.diagonal(gram, axis1=1, axis2=2)
    rows, eye = np.arange(len(path)), np.eye(p)
    feature = np.tile(np.arange(p), 3)   # of each column of the (kind, feature) events
    # per path, row j: corr[j], the sign of w[j] while j is active, gram[j]
    system = np.concatenate([corr[:, :, None], np.zeros((len(path), p, 1)), gram], axis=2)
    active = np.zeros((len(path), p), dtype=bool)
    changed = np.argmax(np.abs(corr), axis=1)   # the feature the next step adds or drops
    system[rows, changed, 1] = np.where(corr[rows, changed] > 0.0, 1.0, -1.0)
    # per step, for the paths that took it: w = a - penalty * d with sign s on
    # the grid points k:stop, and the penalties there
    stretches = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_PATH_STEPS * p):
            if not len(path):
                break
            active[rows, changed] ^= True
            # w[A] = a - lam * d; the other columns give the pivot each inactive
            # feature would add to the Cholesky factor of gram[A, A]
            rhs = np.where(active[:, :, None], system, 0.0)
            solved = np.linalg.solve(
                np.where(active[:, :, None] & active[:, None, :], gram, eye), rhs)
            a, d, s = solved[:, :, 0], solved[:, :, 1], rhs[:, :, 1]
            pivot = diag - np.einsum("fij,fij->fj", gram, solved[:, :, 2:])
            # off A, corr - gram w = alpha + lam * beta, which moves toward +lam
            # as lam falls where beta < 1 and toward -lam where beta > -1
            alpha = corr - np.einsum("fi,fij->fj", a, gram)
            beta = np.einsum("fi,fij->fj", d, gram)
            joins = ~(active | (pivot <= _PIVOT_RTOL * diag))
            events = np.concatenate([
                np.where(joins & (beta < 1.0), alpha / (1.0 - beta), 0.0),
                np.where(joins & (beta > -1.0), alpha / (-1.0 - beta), 0.0),
                # on A, w[j] shrinks as lam falls where it has the sign opposite to d[j]
                np.where(s * d < 0.0, a / d, 0.0),
            ], axis=1)
            events[~(events > 0.0)] = 0.0
            np.minimum(events, lam[:, None], out=events)
            # the feature that just changed does not change back at this penalty:
            # in exact arithmetic a joined coefficient grows from 0 and a dropped
            # correlation moves inside the penalty, unless either stays where it is
            events[(feature == changed[:, None]) & (events == lam[:, None])] = 0.0
            kind, changed = np.divmod(events.argmax(axis=1), p)
            lam = events[rows, kind * p + changed]
            joined = kind < 2
            system[rows[joined], changed[joined], 1] = 1.0 - 2.0 * kind[joined]
            # the grid points on this stretch, down to the next bend (to 0 after the last)
            stop = np.count_nonzero(grid >= lam[:, None], axis=1)
            stretches.append((path, a, d, s, k, stop, grid))
            k = stop
            if (stop == m).any():
                keep = stop < m
                path, gram, corr, grid, diag, system, active, changed, lam, k, a, d, s = (
                    x[keep] for x in (path, gram, corr, grid, diag, system, active,
                                      changed, lam, k, a, d, s))
                rows = rows[:len(path)]
    if len(path):   # stopped at the cap: the rest hold the last bend
        last_bend = np.repeat(lam[:, None], m, axis=1)
        stretches.append((path, a, d, s, k, np.full(len(path), m), last_bend))
        capped[path] = True
    if not stretches:
        return W, capped
    # each grid point below a shutoff lies on one stretch
    path, a, d, s, k, stop, grid = (np.concatenate(x) for x in zip(*stretches))
    at = np.repeat(np.arange(len(path)), stop - k)   # the stretch of each point
    point = np.arange(len(at)) - np.repeat(np.cumsum(stop - k) - stop, stop - k)
    w = a[at] - grid[at, point][:, None] * d[at]
    W[path[at], point] = np.where(s[at] * w > 0.0, w, 0.0)
    return W, capped


def _centered_moments(X: np.ndarray, y: np.ndarray):
    """(x_mean, y_mean, Gram = Xc'Xc/n, corr = Xc'yc/n) for centered Xc, yc."""
    n = len(y)
    x_mean, y_mean = X.mean(axis=0), float(y.mean())
    Xc, yc = X - x_mean, y - y_mean
    return x_mean, y_mean, Xc.T @ Xc / n, Xc.T @ yc / n


def fit_lasso(X: np.ndarray, y: np.ndarray, lam: float):
    """Fit one LASSO, read off the homotopy path; returns (coef, intercept)."""
    if lam < 0:
        raise ValueError(f"penalty must be nonnegative, got {lam}")
    x_mean, y_mean, gram, corr = _centered_moments(
        np.asarray(X, dtype=float), np.asarray(y, dtype=float))
    w = _lasso_path(gram[None], corr[None], [[lam]])[0][0, 0]
    return w, y_mean - float(x_mean @ w)


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
    50-point logarithmic grid below that resample's shutoff penalty. Each
    fold scores the whole grid from one homotopy path, and the resample's
    coefficients are read off its own path, run down to the chosen penalty.
    Resamples go in blocks of ``_ELASSO_BLOCK``: one ``_lasso_path`` call
    runs the fold paths of a block, and one more its full-sample paths. A
    path's bits do not depend on the rest of its stack, and each resample
    draws from its own seed, so estimator b is the same for every ``B``
    above b. ``extra["lasso_capped"]`` counts the paths (``CV_FOLDS`` + 1 per
    resample) that stopped at their step cap.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) != len(y):
        raise ValueError("X and y lengths differ")
    n = len(y)
    if n < CV_FOLDS:
        raise ValueError(
            f"need at least {CV_FOLDS} samples for {CV_FOLDS}-fold CV, got {n}")
    if B < 1:
        raise ValueError("B must be at least 1")

    std = Standardizer.fit(X, y)
    Z, u = std.x(X), std.y(y)
    children = np.random.SeedSequence(seed).spawn(B)

    estimators, capped = [], 0
    for first in range(0, B, _ELASSO_BLOCK):
        resamples, grids = [], []
        for b in range(first, min(first + _ELASSO_BLOCK, B)):
            rng = np.random.default_rng(children[b])
            picks = rng.integers(0, n, n)
            Zb, ub = Z[picks], u[picks]
            moments = _centered_moments(Zb, ub)
            lam_max = float(np.max(np.abs(moments[3])))
            if lam_max <= 0:
                lam_max = 1e-8
            grids.append(np.geomspace(lam_max, lam_max * 1e-4, 50))
            fold_ids = rng.permutation(n) % CV_FOLDS
            val_masks = [fold_ids == fold for fold in range(CV_FOLDS)]
            folds = [_centered_moments(Zb[~val], ub[~val]) for val in val_masks]
            resamples.append((Zb, ub, moments, val_masks, folds))
        grids = np.array(grids)

        # one stack of every fold path of the block, CV_FOLDS per resample
        folds = [fold for *_, resample_folds in resamples for fold in resample_folds]
        W, hit_cap = _lasso_path([f[2] for f in folds], [f[3] for f in folds],
                                 np.repeat(grids, CV_FOLDS, axis=0))
        capped += int(np.count_nonzero(hit_cap))
        best = np.zeros(len(resamples), dtype=int)
        for i, (Zb, ub, _, val_masks, folds) in enumerate(resamples):
            cv_errors = np.zeros(grids.shape[1])
            for val, (fxm, fym, _, _), W_fold in zip(val_masks, folds, W[i * CV_FOLDS:]):
                # (validation sample, penalty) errors of the whole grid
                err = (Zb[val] - fxm) @ W_fold.T
                err += fym - ub[val, None]
                cv_errors += np.mean(np.square(err, out=err), axis=0)
            best[i] = np.argmin(cv_errors)

        # each full-sample path stops at its chosen penalty: its grid repeats it after
        chosen = grids[np.arange(len(resamples)), best]
        full = [moments for _, _, moments, _, _ in resamples]
        W, hit_cap = _lasso_path(
            [f[2] for f in full], [f[3] for f in full],
            np.where(np.arange(grids.shape[1]) <= best[:, None], grids, chosen[:, None]))
        capped += int(np.count_nonzero(hit_cap))
        for (xm, ym, _, _), w, lam in zip(full, W[:, -1].copy(), chosen.tolist()):
            estimators.append(LassoEstimator(coef=w, intercept=ym - float(xm @ w), lam=lam))
    if capped:
        logger.warning("%d of %d LASSO paths stopped at the step cap",
                       capped, B * (CV_FOLDS + 1))

    return EnsembleModel(
        kind="elasso",
        estimators=estimators,
        standardization=std,
        seed=seed,
        extra={"bootstrap_count": B, "folds": CV_FOLDS, "lasso_capped": capped},
    )


# --- prediction and persistence -------------------------------------------------------


def predict_batch(model: EnsembleModel, X) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and population spread for each row of ``X``, in angstrom."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
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
