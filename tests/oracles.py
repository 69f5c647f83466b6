"""Independent reference implementations used only to check the real ones."""

from __future__ import annotations

from itertools import combinations, permutations

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
