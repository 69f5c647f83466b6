"""Independent reference implementations used only to check the real ones."""

from __future__ import annotations

import json
import math
import operator
import re
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np

from alloyforge.composition import (
    CONSISTENCY_COSINE,
    CONSISTENCY_L1,
    ELEMENT_SYMBOLS,
    Composition,
    CompositionError,
    ConsistencyReport,
    NothingToCompare,
    l1_distance,
)
from alloyforge.features import PROPERTY_COLUMNS, ElementNotInTable
from alloyforge.records import (
    SCHEMA_KEYS,
    AlloyRecord,
    DocumentId,
    FieldParseIssue,
    MalformedOutput,
    RecordError,
    _coerce_entries,
    _phase_of,
    _processing_of,
    record_to_object,
)
from alloyforge.ml import (
    _PIVOT_RTOL,
    _TAU,
    CV_FOLDS,
    EnsembleModel,
    LassoEstimator,
    Standardizer,
    _centered_moments,
    logger,
)


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


REFERENCE_IMPROVED_RE = re.compile(r"<IMPROVED_PROMPT>(.*?)</IMPROVED_PROMPT>", re.DOTALL)


def reference_improved_text(text: str) -> str:
    """The rewrite a completion carries, by the regex search: the first tagged
    span, else the whole text. Quadratic when openers go unclosed."""
    match = REFERENCE_IMPROVED_RE.search(text)
    return match.group(1) if match else text


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
        raise CompositionError("formula is None")
    if _REF_WT_PERCENT_RE.search(text):
        raise CompositionError(f"weight-percent composition not supported: {text!r}")
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
            raise CompositionError(
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
    raise CompositionError(f"unknown element symbol {bad!r} at position {i} in {s!r}")


def _ref_parse_coefficient(s: str, i: int) -> tuple[float, int]:
    m = _REF_NUMBER_RE.match(s, i)
    if m:
        return float(m.group()), m.end()
    return 1.0, i


_REF_LENGTH_NUMBER = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|[-+]?\.\d+"
_REF_LENGTH_VALUE_RE = re.compile(rf"(?<=[^\W\d_])(?:{_REF_LENGTH_NUMBER})|(?P<value>{_REF_LENGTH_NUMBER})")
_REF_NM_RE = re.compile(r"\bnm\b")
_REF_PM_RE = re.compile(r"\bpm\b")
_REF_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def reference_is_missing(value) -> bool:
    """``records.is_missing`` by the general rule alone: normalize, then compare."""
    if value is None:
        return True
    text = " ".join(str(value).split()).lower()
    return text in ("", "not found")


def reference_parse_length(text) -> float:
    """``records.parse_length`` before bare numbers were read directly, and
    before glued units and decimal commas were handled: a unit counts only as
    a word of its own, and "3,60" reads as 3. A value that is not positive
    and finite is refused, by the same rule and message."""
    raw = str(text)
    value_text = next(
        (m["value"] for m in _REF_LENGTH_VALUE_RE.finditer(raw) if m["value"]), None
    )
    if value_text is None:
        raise RecordError(f"no numeric value in lattice field {raw!r}")
    value = float(value_text)
    low = raw.lower()
    if _REF_NM_RE.search(low):
        value *= 10.0
    elif _REF_PM_RE.search(low):
        value /= 100.0
    if not 0 < value < math.inf:
        raise RecordError(f"length must be positive and finite, got {value!r}")
    return value


def reference_record_from_object(obj: dict, source: DocumentId, entry_index: int = 0):
    """``records.record_from_object`` with the reference field parsers: every
    value normalized for the sentinel check, compositions through a closure,
    and ``raw_fields`` a copy of the present text."""
    issues: list[FieldParseIssue] = []
    values: dict[str, str] = {}
    for key in SCHEMA_KEYS:
        value = obj.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            value = str(value)  # repr of a NumPy float names its type
        if value is not None and not isinstance(value, str):
            issues.append(FieldParseIssue(entry_index, key, f"non-text value {value!r}"))
            continue
        if not reference_is_missing(value):
            values[key] = value

    def parse_composition(key: str) -> Composition | None:
        raw = values.get(key)
        if raw is None:
            return None
        try:
            return reference_parse_formula(raw)
        except CompositionError as exc:
            issues.append(FieldParseIssue(entry_index, key, str(exc)))
            values.pop(key)
            return None

    nominal = parse_composition("nominal_composition")
    measured = parse_composition("measured_composition")
    lattice = None
    if "lattice_constant_angstrom" in values:
        try:
            lattice = reference_parse_length(values["lattice_constant_angstrom"])
        except RecordError as exc:
            issues.append(FieldParseIssue(entry_index, "lattice_constant_angstrom", str(exc)))
            values.pop("lattice_constant_angstrom")
    alloy_name = values.get("alloy_name")
    if alloy_name is None and nominal is None:
        issues.append(
            FieldParseIssue(
                entry_index, None,
                "entry has neither a parseable alloy name nor a nominal composition",
                entry_dropped=True,
            )
        )
        return None, issues
    record = AlloyRecord(
        source=source,
        alloy_name=alloy_name,
        nominal_composition=nominal,
        measured_composition=measured,
        phase=_phase_of(values["phase"]) if "phase" in values else "unknown",
        processing=(_processing_of(values["processing_condition"])
                    if "processing_condition" in values else "unreported"),
        lattice_constant=lattice,
        raw_fields=dict(values),
    )
    return record, issues


def reference_extract_entries(text: str) -> list:
    """The record entries of a completion by decoding from every opener in
    turn, every "[" before every "{". Quadratic in the text when many openers
    fail to decode late."""
    candidates = [text.strip()]
    candidates.extend(m.group(1).strip() for m in _REF_FENCE_RE.finditer(text))
    decoder = json.JSONDecoder()
    for candidate in candidates:
        if not candidate:
            continue
        try:
            value = json.loads(candidate)
        except (json.JSONDecodeError, RecursionError):
            continue
        entries = _coerce_entries(value)
        if entries is not None:
            return entries
    for opener in ("[", "{"):
        for match in re.finditer(re.escape(opener), text):
            try:
                value, _ = decoder.raw_decode(text, match.start())
            except json.JSONDecodeError:
                continue
            except RecursionError:
                break
            entries = _coerce_entries(value)
            if entries is not None:
                return entries
    raise MalformedOutput("no parseable record block in output")


def reference_from_coefficients(coefficients) -> Composition:
    """``Composition.from_coefficients`` as it was before it sorted once:
    normalize in input order, then sort the items."""
    coeffs = {sym: f for sym, c in coefficients.items() if (f := float(c)) != 0.0}
    if not coeffs:
        raise CompositionError("no nonzero coefficients")
    total = sum(coeffs.values())
    if not math.isfinite(total) or total <= 0:
        raise CompositionError(f"coefficients sum to {total!r}")
    if abs(total - 1.0) > 1e-9:
        coeffs = {sym: c / total for sym, c in coeffs.items()}
    return Composition(dict(sorted(coeffs.items())))


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


def _exact_sum(terms) -> float:
    """The float terms added exactly as fractions, rounded to a float once."""
    return float(sum((Fraction(term) for term in terms), Fraction(0)))


def reference_serialize_record_set(records: list[AlloyRecord]) -> str:
    """The record-set JSON as ``json`` writes it: two-space indent, non-ASCII kept."""
    return json.dumps([record_to_object(r) for r in records], indent=2, ensure_ascii=False)


def reference_cosine_similarity(a: Composition, b: Composition) -> float:
    """Cosine over the sorted union of the two element sets, each fraction read
    through ``Composition.get``, each sum exact and rounded once."""
    support = sorted(a.elements | b.elements)
    dot = _exact_sum(a.get(sym) * b.get(sym) for sym in support)
    norm_a = math.sqrt(_exact_sum(a.get(sym) ** 2 for sym in support))
    norm_b = math.sqrt(_exact_sum(b.get(sym) ** 2 for sym in support))
    return min(1.0, max(0.0, dot / (norm_a * norm_b)))


def reference_consistency_check(record: AlloyRecord) -> list[ConsistencyReport]:
    """``composition.consistency_check`` with every source's text parsed afresh:
    the alloy name, then the nominal and measured text the record was read
    from, each by ``reference_parse_formula``, and every pair scored on its own."""
    sources = []
    if record.alloy_name:
        try:
            sources.append(("alloy_name", reference_parse_formula(record.alloy_name)))
        except CompositionError:
            pass
    for label in ("nominal_composition", "measured_composition"):
        if label in record.raw_fields:
            sources.append((label, reference_parse_formula(record.raw_fields[label])))
    if len(sources) < 2:
        raise NothingToCompare(
            f"record has {len(sources)} parseable composition source(s); need at least 2"
        )
    reports = []
    for (label_a, comp_a), (label_b, comp_b) in combinations(sources, 2):
        l1 = l1_distance(comp_a, comp_b)
        cos = reference_cosine_similarity(comp_a, comp_b)
        flagged = l1 > CONSISTENCY_L1 or cos < CONSISTENCY_COSINE
        reports.append(ConsistencyReport(l1, cos, flagged, (label_a, label_b)))
    return reports


# The SMO solver with one numpy pass per quantity, which ``alloyforge.ml`` must
# match bit for bit, and the coordinate-descent ELASSO trainer whose certified
# descent builds each Cholesky factor afresh and scores each penalty on its own.
# The homotopy path in ``alloyforge.ml`` rounds differently: it must choose the
# same penalties, with coefficients within a stated tolerance.


def reference_smo_epsilon_svr(K, y, cost, epsilon, tol, max_iter, beta0=None):
    """Solve the epsilon-SVR dual by SMO with second-order working-set selection.

    Each sample has an upper-tube and a lower-tube multiplier (rows 0 and 1
    of ``alpha``; beta = alpha[0] - alpha[1]), whose -y*grad f values are
    r - epsilon and r + epsilon for the residual r = y - K @ beta. Each step
    takes i, the maximal violator of the "up" set, and j from the "low" set by
    the second-order rule of Fan, Chen & Lin (2005, JMLR 6:1889), as LIBSVM
    does; it stops when the maximal violation drops to ``tol``. ``K`` must be
    symmetric. ``beta0``, a solution for a cost no larger than ``cost``, is a
    feasible start in place of zero. Returns (beta, bias, n_iterations,
    converged).
    """
    n = len(y)
    if beta0 is None:
        alpha = np.zeros((2, n))
        resid = np.array(y, dtype=float)
    else:
        alpha = np.stack([np.maximum(beta0, 0.0), np.maximum(-beta0, 0.0)])
        resid = y - K @ beta0
    kdiag = np.diag(K).copy()
    scale_rows = {}  # sample -> 1/sqrt(max(K_ii + K_tt - 2 K_it, tau)) over t

    # per sample, the best -y*grad f among its variables in "up" and in "low"
    # is resid + up_off and resid + low_off; an infinite offset means none
    up_off = np.where(alpha[1] > 0.0, epsilon,
                      np.where(alpha[0] < cost, -epsilon, -np.inf))
    low_off = np.where(alpha[0] > 0.0, -epsilon,
                       np.where(alpha[1] < cost, epsilon, np.inf))

    def refresh(s):
        a_up, a_low = alpha[0, s], alpha[1, s]
        up_off[s] = epsilon if a_low > 0.0 else (-epsilon if a_up < cost else -np.inf)
        low_off[s] = -epsilon if a_up > 0.0 else (epsilon if a_low < cost else np.inf)

    iterations = 0
    converged = False
    while iterations < max_iter:
        up_val = resid + up_off
        ii = int(up_val.argmax())
        m = up_val[ii]
        low_val = resid + low_off
        if m - low_val.min() <= tol:
            converged = True
            break
        row = scale_rows.get(ii)
        if row is None:
            quad = np.maximum(kdiag + kdiag[ii] - 2.0 * K[ii], _TAU)
            row = scale_rows[ii] = 1.0 / np.sqrt(quad)
        # argmax of b / sqrt(a) over b = m - low_val > 0 is argmin of -b^2 / a;
        # a positive b exists, since m - min(low_val) > tol
        jj = int(((m - low_val) * row).argmax())

        hi = 1 if alpha[1, ii] > 0.0 else 0
        hj = 0 if alpha[0, jj] > 0.0 else 1
        si, sj = 1 - 2 * hi, 1 - 2 * hj
        quad = max(kdiag[ii] + kdiag[jj] - 2.0 * K[ii, jj], _TAU)
        old_i, old_j = alpha[hi, ii], alpha[hj, jj]
        g_i = epsilon - si * resid[ii]   # grad f of the two variables
        g_j = epsilon - sj * resid[jj]
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
        alpha[hi, ii], alpha[hj, jj] = ai, aj
        resid -= K[ii] * (si * d_i)
        resid -= K[jj] * (sj * d_j)
        refresh(ii)
        refresh(jj)
        iterations += 1

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


# The coordinate-descent ELASSO that the homotopy path replaced: its tolerances,
# certificate slack and step budget, as the package had them.
LASSO_TOL = 1e-8
_PATH_TOL = 1e-6               # looser tolerance for the warm-started path fits
_KKT_RTOL = 1e-10              # relative slack of the LASSO active-set certificate
_FEATURE_SIGN_STEPS = 20       # step budget of one active-set finish


def _soft_threshold(z: float, lam: float) -> float:
    if z > lam:
        return z - lam
    if z < -lam:
        return z + lam
    return 0.0


def _ref_solve_on_support(gram_rows, rhs, active):
    """Solve gram[A, A] v = rhs by Cholesky for the support A = ``active``.

    Returns v as a list aligned with ``active``, or None when a pivot is at or
    below ``_PIVOT_RTOL`` of its diagonal entry (gram[A, A] near-singular).
    """
    m = len(active)
    chol = []   # lower-triangular rows of the Cholesky factor
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
    z = []
    for a in range(m):
        la = chol[a]
        z.append((rhs[a] - sum(map(operator.mul, la, z))) / la[a])
    v = [0.0] * m
    for a in reversed(range(m)):
        v[a] = (z[a] - sum(chol[k][a] * v[k] for k in range(a + 1, m))) / chol[a][a]
    return v


def _ref_lasso_objective(gram_rows, corr, lam, x):
    """(1/2) x'Gram x - corr'x + lam*||x||_1, the LASSO objective less a constant."""
    total = 0.0
    for j, xj in enumerate(x):
        if xj:
            row = gram_rows[j]
            total += xj * (0.5 * sum(map(operator.mul, row, x)) - corr[j]) + lam * abs(xj)
    return total


def _ref_active_set_solution(gram_rows, corr, lam, w):
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
    """
    p = len(corr)
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
        v = _ref_solve_on_support(
            gram_rows, [corr[j] - lam * signs[j] for j in active], active)
        if v is None:
            return None
        target = [0.0] * p
        for j, vj in zip(active, v):
            target[j] = vj
        best, best_f = target, _ref_lasso_objective(gram_rows, corr, lam, target)
        for j in active:
            if w[j] * target[j] < 0.0:   # the segment crosses zero on coordinate j
                t = w[j] / (w[j] - target[j])
                x = [a + t * (b - a) for a, b in zip(w, target)]
                x[j] = 0.0
                f = _ref_lasso_objective(gram_rows, corr, lam, x)
                if f < best_f:
                    best, best_f = x, f
        w = best
    return None


def reference_certified_lasso_cd(gram, corr, diag, lam, tol, max_iter, w0=None):
    """Minimize (1/2n)||y - Xw||^2 + lam*||w||_1 given Gram = X'X/n, corr = X'y/n.

    Cyclic coordinate descent with an exact active-set finish. Once a sweep
    leaves the sign pattern of w as it found it (the first sweep compares with
    ``w0``), or moves no coordinate by more than ``tol``,
    ``_ref_active_set_solution`` finishes from w, and its result is returned if
    it passes the subgradient certificate; otherwise the sweeps go on, and the
    finish is not tried again until the sign pattern changes. Returns (w, capped): capped is True when the
    sweeps reached ``max_iter`` with neither a certified solution nor a sweep
    below ``tol``, and w is then the last iterate, as plain descent leaves it.

    The sweep loop runs on plain Python floats; for the handful of features
    used here that is severalfold faster than numpy scalar indexing.
    """
    p, lam = len(corr), float(lam)
    gram_rows = np.asarray(gram, dtype=float).tolist()
    corr_list = np.asarray(corr, dtype=float).tolist()
    diag_list = np.asarray(diag, dtype=float).tolist()
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
            exact = _ref_active_set_solution(gram_rows, corr_list, lam, w)
            if exact is not None:
                return np.asarray(exact), False
            failed = signs
        if biggest <= tol:
            return np.asarray(w), False
    return np.asarray(w), True


def reference_train_elasso(
    X,
    y,
    B: int = 1000,
    seed: int = 0,
    lasso=reference_certified_lasso_cd,
) -> EnsembleModel:
    """Train a bootstrap LASSO ensemble.

    Each of the ``B`` resamples carries its own penalty, chosen to minimize
    mean squared error under ``CV_FOLDS``-fold cross-validation over a
    50-point logarithmic grid below that resample's shutoff penalty.
    ``extra["lasso_capped"]`` counts the LASSO fits (path, refit and final)
    that stopped at their sweep cap without a certified solution. Every fit
    is ``lasso(gram, corr, diag, lam, tol, max_iter, w0=w)``, which returns
    (w, capped).
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

    estimators, fits, capped = [], 0, 0
    for b in range(B):
        rng = np.random.default_rng(children[b])
        picks = rng.integers(0, n, n)
        Zb, ub = Z[picks], u[picks]
        xm, ym, gram, corr = _centered_moments(Zb, ub)
        diag = np.diag(gram).copy()
        lam_max = float(np.max(np.abs(corr)))
        if lam_max <= 0:
            lam_max = 1e-8
        grid = np.geomspace(lam_max, lam_max * 1e-4, 50)

        fold_ids = rng.permutation(n) % CV_FOLDS
        cv_errors = np.zeros(len(grid))
        for fold in range(CV_FOLDS):
            val_mask = fold_ids == fold
            Zv, uv = Zb[val_mask], ub[val_mask]
            fxm, fym, fgram, fcorr = _centered_moments(Zb[~val_mask], ub[~val_mask])
            fdiag = np.diag(fgram).copy()
            w = None
            for g_idx, lam in enumerate(grid):
                # scoring fits ride the warm-started path; loose tolerance and a
                # small sweep cap keep ill-conditioned resamples from stalling
                w, hit_cap = lasso(fgram, fcorr, fdiag, lam, _PATH_TOL, 300, w0=w)
                capped += hit_cap
                pred = (Zv - fxm) @ w + fym
                cv_errors[g_idx] += float(np.mean((pred - uv) ** 2))
        best_idx = int(np.argmin(cv_errors))
        best_lam = float(grid[best_idx])
        w = None
        for lam in grid[: best_idx + 1]:
            w, hit_cap = lasso(gram, corr, diag, float(lam), _PATH_TOL, 300, w0=w)
            capped += hit_cap
        w, hit_cap = lasso(gram, corr, diag, best_lam, LASSO_TOL, 5_000, w0=w)
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
