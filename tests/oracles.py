"""Independent reference implementations used only to check the real ones."""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

from alloyforge.composition import Composition, l1_distance


def random_composition(rng, pool=None, max_elements=5) -> Composition:
    pool = pool or ("Al", "Co", "Cr", "Fe", "Ni", "Ti", "V", "Nb", "Mo", "Zr", "Hf", "Ta", "W")
    k = int(rng.integers(2, max_elements + 1))
    chosen = rng.choice(len(pool), size=k, replace=False)
    coefficients = rng.uniform(0.05, 1.0, size=k)
    return Composition.from_coefficients(
        {pool[i]: float(c) for i, c in zip(chosen, coefficients)}
    )


def brute_force_assignment(extracted, truth, l1_match=0.05):
    """Enumerate every admissible injective mapping; return all optima.

    An optimum maximizes cardinality then minimizes total L1. Returns
    (cardinality, cost, [pairings]) where each pairing is a tuple of
    (extracted_index, truth_index) pairs sorted by truth index, and the
    pairings are sorted.
    """

    def admissible(e_rec, t_rec):
        a, b = e_rec.nominal_composition, t_rec.nominal_composition
        if a is None or b is None or a.elements != b.elements:
            return None
        d = l1_distance(a, b)
        return d if d <= l1_match else None

    n_e, n_t = len(extracted), len(truth)
    cost = [[admissible(e, t) for t in truth] for e in extracted]
    best_card, best_cost, optima = -1, float("inf"), set()
    for k in range(min(n_e, n_t), -1, -1):
        if k < best_card:
            break
        for e_subset in combinations(range(n_e), k):
            for t_perm in permutations(range(n_t), k):
                total = 0.0
                ok = True
                for e_idx, t_idx in zip(e_subset, t_perm):
                    c = cost[e_idx][t_idx]
                    if c is None:
                        ok = False
                        break
                    total += c
                if not ok:
                    continue
                pairing = tuple(sorted(zip(e_subset, t_perm), key=lambda p: p[1]))
                if k > best_card or (k == best_card and total < best_cost - 1e-12):
                    best_card, best_cost, optima = k, total, {pairing}
                elif k == best_card and abs(total - best_cost) <= 1e-12:
                    optima.add(pairing)
    return best_card, best_cost, sorted(optima)


def reference_lasso_cd(gram, corr, diag, lam, tol, max_iter, w0=None):
    """Plain cyclic coordinate descent for (1/2n)||y - Xw||^2 + lam*||w||_1.

    Given Gram = X'X/n and corr = X'y/n, it sweeps the coordinates in order
    until no coordinate moves by more than ``tol`` or ``max_iter`` sweeps are
    done, with no active-set finish. Returns w.
    """
    p = len(corr)
    gram_rows = [[float(v) for v in row] for row in np.asarray(gram)]
    corr_list = [float(v) for v in corr]
    diag_list = [float(v) for v in diag]
    w = [0.0] * p if w0 is None else [float(v) for v in w0]
    gw = [sum(gram_rows[i][j] * w[j] for j in range(p)) for i in range(p)]
    for _ in range(max_iter):
        biggest = 0.0
        for j in range(p):
            dj = diag_list[j]
            if dj <= 0.0:
                continue
            rho = corr_list[j] - gw[j] + dj * w[j]
            if rho > lam:
                new = (rho - lam) / dj
            elif rho < -lam:
                new = (rho + lam) / dj
            else:
                new = 0.0
            delta = new - w[j]
            if delta != 0.0:
                col = gram_rows[j]
                for i in range(p):
                    gw[i] += col[i] * delta
                w[j] = new
                biggest = max(biggest, abs(delta))
        if biggest <= tol:
            break
    return np.asarray(w)
