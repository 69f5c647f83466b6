"""Entity-level scoring of extracted records against ground truth.

Extracted and truth records are aligned per document by nominal composition
(identical element sets, small L1 distance), then each named field is scored
into TP/FP/FN tallies from which precision, recall, and F1 are computed.
Counts are pooled across documents before computing metrics (micro-averaging).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .composition import l1_distance
from .records import AlloyRecord

COMPOSITE_FIELD = "composite"
DEFAULT_FIELDS = ("nominal_composition", "lattice_constant", "phase", "processing")
SCORABLE_FIELDS = (COMPOSITE_FIELD,) + DEFAULT_FIELDS

L1_MATCH = 0.05       # pairing admissibility on nominal composition
LATTICE_ABS = 0.005   # angstrom tolerance for lattice equality
L1_FIELD = 0.05       # L1 tolerance for composition field equality

# assignment totals this close to the optimum count as ties
_COST_EPS = 1e-12


class UnknownField(ValueError):
    pass


class DocumentMismatch(ValueError):
    """An extracted document id is absent from the truth corpus."""


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def add(self, other: "ConfusionCounts") -> None:
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn


@dataclass(frozen=True)
class EntityMetrics:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, counts: ConfusionCounts) -> "EntityMetrics":
        p = precision(counts)
        r = recall(counts)
        return cls(precision=p, recall=r, f1=f1(p, r))


@dataclass
class MatchResult:
    pairs: list[tuple[int, int]]          # (extracted index, truth index)
    unmatched_extracted: list[int]
    unmatched_truth: list[int]


def precision(counts: ConfusionCounts) -> float:
    denom = counts.tp + counts.fp
    return counts.tp / denom if denom else 0.0


def recall(counts: ConfusionCounts) -> float:
    denom = counts.tp + counts.fn
    return counts.tp / denom if denom else 0.0


def f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if (p + r) else 0.0


def composite_criterion(record: AlloyRecord) -> bool:
    """True for single-phase BCC records in the as-cast condition."""
    return record.phase.kind == "BCC" and record.processing.kind == "as_cast"


# --- record alignment ------------------------------------------------------------


def match_entries(extracted: list[AlloyRecord], truth: list[AlloyRecord]) -> MatchResult:
    """Align extracted records to truth records within one document.

    A pair is admissible when both nominal compositions exist, have identical
    element sets, and differ by L1 at most ``L1_MATCH``. Among admissible
    assignments the maximum-cardinality, minimum-total-L1 one is chosen; ties
    prefer pairings with earlier truth (then extracted) indices. Every
    element-set group goes through one polynomial assignment solver, whatever
    its size.
    """
    groups: dict[frozenset, tuple[list[int], list[int]]] = {}
    for idx, record in enumerate(extracted):
        if record.nominal_composition is not None:
            key = record.nominal_composition.elements
            groups.setdefault(key, ([], []))[0].append(idx)
    for idx, record in enumerate(truth):
        if record.nominal_composition is not None:
            key = record.nominal_composition.elements
            groups.setdefault(key, ([], []))[1].append(idx)

    pairs: list[tuple[int, int]] = []
    for e_idxs, t_idxs in groups.values():
        if not e_idxs or not t_idxs:
            continue
        distance = np.array([
            [l1_distance(extracted[e].nominal_composition, truth[t].nominal_composition)
             for t in t_idxs]
            for e in e_idxs
        ])
        local = _assign(distance, distance <= L1_MATCH)
        pairs.extend((e_idxs[le], t_idxs[lt]) for lt, le in local.items())

    matched_e = {e for e, _ in pairs}
    matched_t = {t for _, t in pairs}
    return MatchResult(
        pairs=sorted(pairs, key=lambda p: p[1]),
        unmatched_extracted=[i for i in range(len(extracted)) if i not in matched_e],
        unmatched_truth=[i for i in range(len(truth)) if i not in matched_t],
    )


def _assign(distance: np.ndarray, admissible: np.ndarray) -> dict[int, int]:
    """Optimal assignment as truth index -> extracted index, ties broken exactly.

    One ``linear_sum_assignment`` solve finds the optimal (cardinality, cost).
    A post-pass then walks truth indices in order and, for each, tries the
    extracted indices below its current partner (every admissible one when it
    has none), re-solving the later truth indices with that pair forced; the
    first pair that keeps the optimum is adopted. The result is the optimum
    whose (truth, extracted) pair sequence is lexicographically smallest.
    Truth indices left unmatched at their turn are unmatched in every optimum
    that keeps the pairs fixed before them, so later solves leave them out.
    """
    n_e, n_t = distance.shape
    # an L1 distance is at most 2, so an inadmissible cell at this cost outweighs
    # any sum of admissible ones: each solve maximizes cardinality, then minimizes L1
    cost = np.where(admissible, distance, 2.0 * min(n_e, n_t) + 1.0)

    def solve(sub: np.ndarray, rows, cols) -> dict[int, int]:
        """Assign the rows and columns ``sub`` holds, mapped back to group indices."""
        r, c = linear_sum_assignment(sub)
        pairs = ((rows[i], cols[j]) for i, j in zip(r.tolist(), c.tolist()))
        return {t: e for e, t in pairs if admissible[e, t]}

    def total(partner: dict[int, int]) -> float:
        return sum(float(distance[e, t]) for t, e in partner.items())

    partner = solve(cost, range(n_e), range(n_t))
    best_card, best_cost = len(partner), total(partner)
    fixed: dict[int, int] = {}
    for t in range(n_t):
        used, spent = set(fixed.values()), total(fixed)
        for e in range(partner.get(t, n_e)):
            # costs are non-negative, so a pair that alone overshoots cannot be optimal
            if e in used or not admissible[e, t] or spent + distance[e, t] > best_cost + _COST_EPS:
                continue
            trial = {**fixed, t: e}
            rows = [r for r in range(n_e) if r not in used and r != e]
            cols = range(t + 1, n_t)
            trial.update(solve(cost[np.ix_(rows, cols)], rows, cols))
            if len(trial) == best_card and total(trial) <= best_cost + _COST_EPS:
                partner = trial
                break
        if t in partner:
            fixed[t] = partner[t]
    return partner


# --- field scoring ----------------------------------------------------------------


def _field_equal(field_name: str, e: AlloyRecord, t: AlloyRecord) -> bool:
    if field_name == "nominal_composition":
        a, b = e.nominal_composition, t.nominal_composition
        if a is None or b is None:
            return a is None and b is None
        return l1_distance(a, b) <= L1_FIELD
    if field_name == "lattice_constant":
        a, b = e.lattice_constant, t.lattice_constant
        if a is None or b is None:
            return a is None and b is None
        return abs(a.value - b.value) <= LATTICE_ABS
    if field_name == "phase":
        return e.phase.kind == t.phase.kind
    if field_name == "processing":
        return e.processing.kind == t.processing.kind
    raise UnknownField(field_name)


def score_entities(
    match: MatchResult,
    extracted: list[AlloyRecord],
    truth: list[AlloyRecord],
    fields=DEFAULT_FIELDS,
) -> dict[str, ConfusionCounts]:
    """Tally TP/FP/FN per field under the hierarchical scoring rule.

    Unmatched extracted records are FP for every field and unmatched truth
    records FN for every field. When the composite criterion is among the
    scored fields it acts as a gate: only records satisfying it (on either
    side) are in scope, and a pair disagreeing on it contributes FPs or FNs
    for all fields of the offending side. A gate-passing pair scores each
    field TP on equality, else FP and FN simultaneously.
    """
    for name in fields:
        if name not in SCORABLE_FIELDS:
            raise UnknownField(name)
    gated = COMPOSITE_FIELD in fields
    counts = {name: ConfusionCounts() for name in fields}

    def in_scope(record: AlloyRecord) -> bool:
        return composite_criterion(record) if gated else True

    for idx in match.unmatched_extracted:
        if in_scope(extracted[idx]):
            for name in fields:
                counts[name].fp += 1
    for idx in match.unmatched_truth:
        if in_scope(truth[idx]):
            for name in fields:
                counts[name].fn += 1
    for e_idx, t_idx in match.pairs:
        e, t = extracted[e_idx], truth[t_idx]
        if gated:
            claimed, actual = composite_criterion(e), composite_criterion(t)
            if not claimed and not actual:
                continue
            if claimed and not actual:
                for name in fields:
                    counts[name].fp += 1
                continue
            if actual and not claimed:
                for name in fields:
                    counts[name].fn += 1
                continue
            counts[COMPOSITE_FIELD].tp += 1
        for name in fields:
            if name == COMPOSITE_FIELD:
                continue
            if _field_equal(name, e, t):
                counts[name].tp += 1
            else:
                counts[name].fp += 1
                counts[name].fn += 1
    return counts


# --- corpus-level evaluation --------------------------------------------------------


@dataclass
class EvaluationReport:
    counts: dict[str, ConfusionCounts]
    fields: tuple = DEFAULT_FIELDS

    @property
    def metrics(self) -> dict[str, EntityMetrics]:
        return {name: EntityMetrics.from_counts(c) for name, c in self.counts.items()}

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("field,precision,recall,f1,tp,fp,fn\n")
        for name in self.fields:
            c = self.counts[name]
            m = EntityMetrics.from_counts(c)
            out.write(
                f"{name},{m.precision:.4f},{m.recall:.4f},{m.f1:.4f},{c.tp},{c.fp},{c.fn}\n"
            )
        return out.getvalue()

    def to_table(self) -> str:
        widths = max(len(name) for name in self.fields)
        lines = [f"{'field'.ljust(widths)}  precision  recall  f1     tp   fp   fn"]
        for name in self.fields:
            c = self.counts[name]
            m = EntityMetrics.from_counts(c)
            lines.append(
                f"{name.ljust(widths)}  {m.precision:9.3f}  {m.recall:6.3f}"
                f"  {m.f1:5.3f}  {c.tp:3d}  {c.fp:3d}  {c.fn:3d}"
            )
        return "\n".join(lines)


def evaluate_run(
    extracted_by_doc: dict[str, list[AlloyRecord]],
    truth_by_doc: dict[str, list[AlloyRecord]],
    fields=DEFAULT_FIELDS,
) -> EvaluationReport:
    """Match and score per document, summing counts before computing metrics."""
    unknown_docs = set(extracted_by_doc) - set(truth_by_doc)
    if unknown_docs:
        raise DocumentMismatch(
            f"extracted documents absent from truth corpus: {sorted(unknown_docs)}"
        )
    totals = {name: ConfusionCounts() for name in fields}
    for doc_id in truth_by_doc:
        extracted = extracted_by_doc.get(doc_id, [])
        truth = truth_by_doc[doc_id]
        match = match_entries(extracted, truth)
        for name, c in score_entities(match, extracted, truth, fields).items():
            totals[name].add(c)
    return EvaluationReport(counts=totals, fields=tuple(fields))
