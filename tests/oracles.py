"""Independent reference implementations used only to check the real ones."""

from __future__ import annotations

import re
from itertools import combinations, permutations

import numpy as np

from alloyforge.composition import (
    ELEMENT_SYMBOLS,
    Composition,
    CompositionError,
    EmptyFormula,
    UnknownElement,
    UnresolvedVariable,
    UnsupportedUnits,
    l1_distance,
)
from alloyforge.features import PROPERTY_COLUMNS, ElementNotInTable


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


_REF_SEPARATORS = " \t-–—,·"
_REF_NUMBER_RE = re.compile(r"\d+(?:\.\d*)?|\.\d+")
_REF_WT_PERCENT_RE = re.compile(r"wt\.?\s*%|\bwt\b", re.IGNORECASE)
_REF_AT_PERCENT_RE = re.compile(r"\(?\s*at\.?\s*%\s*\)?", re.IGNORECASE)


def reference_parse_formula(text: str) -> Composition:
    """The formula parser as a plain character walk: both unit patterns scanned
    over the whole string, each element read symbol first, then subscript."""
    if text is None:
        raise EmptyFormula("formula is None")
    if _REF_WT_PERCENT_RE.search(text):
        raise UnsupportedUnits(f"weight-percent composition not supported: {text!r}")
    cleaned = _REF_AT_PERCENT_RE.sub(" ", text)
    coeffs, pos = _ref_parse_sequence(cleaned, 0, depth=0)
    if pos != len(cleaned):
        raise CompositionError(f"unbalanced bracket at position {pos} in {text!r}")
    return Composition.from_coefficients(coeffs)


def _ref_parse_sequence(s: str, i: int, depth: int) -> tuple[dict[str, float], int]:
    coeffs: dict[str, float] = {}
    n = len(s)
    while i < n:
        ch = s[i]
        if ch in _REF_SEPARATORS:
            i += 1
            continue
        if ch in "([{":
            inner, i = _ref_parse_sequence(s, i + 1, depth + 1)
            if i >= n or s[i] not in ")]}":
                raise CompositionError(f"unclosed group in formula {s!r}")
            i += 1
            mult, i = _ref_parse_coefficient(s, i)
            for sym, c in inner.items():
                coeffs[sym] = coeffs.get(sym, 0.0) + c * mult
            continue
        if ch in ")]}":
            if depth == 0:
                raise CompositionError(f"stray {ch!r} at position {i} in {s!r}")
            return coeffs, i
        if ch.isupper():
            sym, i = _ref_parse_element(s, i)
            coeff, i = _ref_parse_coefficient(s, i)
            coeffs[sym] = coeffs.get(sym, 0.0) + coeff
            continue
        if ch.islower():
            raise UnresolvedVariable(
                f"symbolic subscript {ch!r} at position {i} in {s!r} has no numeric value"
            )
        raise CompositionError(f"unexpected character {ch!r} at position {i} in {s!r}")
    if depth != 0:
        raise CompositionError(f"unclosed group in formula {s!r}")
    return coeffs, i


def _ref_parse_element(s: str, i: int) -> tuple[str, int]:
    two = s[i : i + 2]
    if len(two) == 2 and two[1].islower() and two in ELEMENT_SYMBOLS:
        return two, i + 2
    one = s[i]
    if one in ELEMENT_SYMBOLS:
        return one, i + 1
    bad = two if len(two) == 2 and two[1].islower() else one
    raise UnknownElement(f"unknown element symbol {bad!r} at position {i} in {s!r}")


def _ref_parse_coefficient(s: str, i: int) -> tuple[float, int]:
    m = _REF_NUMBER_RE.match(s, i)
    if m:
        return float(m.group()), m.end()
    return 1.0, i


def reference_featurize(composition: Composition, table) -> np.ndarray:
    """Descriptor vector accumulated as 6-wide numpy adds, one per element in
    ``fractions`` order."""
    missing = sorted(sym for sym in composition.elements if sym not in table.values)
    if missing:
        raise ElementNotInTable(", ".join(missing))
    acc = np.zeros(len(PROPERTY_COLUMNS))
    for symbol, fraction in composition.fractions.items():
        acc += fraction * np.asarray(table.row(symbol))
    return acc
