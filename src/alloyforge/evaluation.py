"""Entity-level scoring of extracted records against ground truth.

Extracted and truth records are aligned per document by nominal composition
(identical element sets, small L1 distance), then each named field is scored
into TP/FP/FN tallies from which precision, recall, and F1 are computed.
Counts are pooled across documents before computing metrics (micro-averaging).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .records import AlloyRecord

COMPOSITE_FIELD = "composite"
DEFAULT_FIELDS = ("nominal_composition", "lattice_constant", "phase", "processing")
SCORABLE_FIELDS = (COMPOSITE_FIELD,) + DEFAULT_FIELDS

L1_MATCH = 0.05       # pairing admissibility on nominal composition
LATTICE_ABS = 0.005   # angstrom tolerance for lattice equality

# assignment totals this close to the optimum count as ties
_COST_EPS = 1e-12
# reduced costs above this cannot be rounding error: their pair is in no optimum
_DUAL_SLACK = 1e-6


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
    return record.phase == "BCC" and record.processing == "as_cast"


# --- record alignment ------------------------------------------------------------


def match_entries(extracted: list[AlloyRecord], truth: list[AlloyRecord]) -> MatchResult:
    """Align extracted records to truth records within one document.

    A pair is admissible when both nominal compositions exist, have identical
    element sets, and differ by L1 at most ``L1_MATCH``. Among admissible
    assignments the maximum-cardinality, minimum-total-L1 one is chosen; ties
    prefer pairings with earlier truth (then extracted) indices. An element-set
    group goes through the assignment solver only when a record in it has two
    admissible partners; otherwise its admissible pairs are the one optimum.
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
    for elements, (e_idxs, t_idxs) in groups.items():
        # l1_distance over the one element set of the group, which is the union
        # of any two of its supports; fsum rounds correctly, so walking the set
        # in its own order gives l1_distance's bits; as there, a pair holding one
        # shared object is 0.0 without the sum
        distance: list[list[float]] = []
        local: list[tuple[int, int]] = []  # admissible pairs of group positions
        for le, e in enumerate(e_idxs):
            ce = extracted[e].nominal_composition
            fe = ce.fractions
            row = []
            for lt, t in enumerate(t_idxs):
                ct = truth[t].nominal_composition
                if ce is ct:
                    d = 0.0
                else:
                    ft = ct.fractions
                    d = math.fsum([abs(fe[sym] - ft[sym]) for sym in elements])
                row.append(d)
                if d <= L1_MATCH:
                    local.append((le, lt))
            distance.append(row)
        # contested: some record has two admissible partners
        if len(local) > 1 and (len({le for le, _ in local}) < len(local)
                               or len({lt for _, lt in local}) < len(local)):
            local = [(le, lt) for lt, le in _assign(distance).items()]
        for le, lt in local:
            pairs.append((e_idxs[le], t_idxs[lt]))

    matched_e = {e for e, _ in pairs}
    matched_t = {t for _, t in pairs}
    return MatchResult(
        pairs=sorted(pairs, key=lambda p: p[1]),
        unmatched_extracted=[i for i in range(len(extracted)) if i not in matched_e],
        unmatched_truth=[i for i in range(len(truth)) if i not in matched_t],
    )


def _assign(distance: list[list[float]]) -> dict[int, int]:
    """Optimal assignment as truth index -> extracted index, ties broken exactly.

    One ``_min_cost_pairs`` solve finds the optimal (cardinality, cost). A
    post-pass then walks truth indices in order and, for each, tries the
    extracted indices below its current partner (every admissible one when it
    has none), re-solving the later truth indices with that pair forced; the
    first pair that keeps the optimum is adopted. The result is the optimum
    whose (truth, extracted) pair sequence is lexicographically smallest.
    Truth indices left unmatched at their turn are unmatched in every optimum
    that keeps the pairs fixed before them, so later solves leave them out.

    A pair is tried only when its reduced cost under the first solve's dual
    potentials is near zero: every assignment holding a pair costs at least
    the optimum plus that pair's reduced cost, so a pair above
    ``_DUAL_SLACK`` is in no optimum and is skipped without a solve.
    """
    n_e, n_t = len(distance), len(distance[0])
    # an L1 distance is at most 2, so an inadmissible cell at this cost outweighs
    # any sum of admissible ones: each solve maximizes cardinality, then minimizes L1
    inadmissible = 2.0 * min(n_e, n_t) + 1.0
    cost = [[d if d <= L1_MATCH else inadmissible for d in row] for row in distance]

    def solve(rows: list[int], cols: list[int]):
        """Assign the given rows and columns of ``cost``: admissible pairs, then duals."""
        pairs, row_dual, col_dual = _min_cost_pairs([[cost[r][c] for c in cols] for r in rows])
        chosen = ((rows[i], cols[j]) for i, j in pairs)
        return {t: e for e, t in chosen if distance[e][t] <= L1_MATCH}, row_dual, col_dual

    def total(partner: dict[int, int]) -> float:
        return sum(distance[e][t] for t, e in partner.items())

    partner, row_dual, col_dual = solve(list(range(n_e)), list(range(n_t)))
    best_card, best_cost = len(partner), total(partner)
    fixed: dict[int, int] = {}
    for t in range(n_t):
        used, spent = set(fixed.values()), total(fixed)
        for e in range(partner.get(t, n_e)):
            # costs are non-negative, so a pair that alone overshoots cannot be optimal
            if (e in used or distance[e][t] > L1_MATCH
                    or spent + distance[e][t] > best_cost + _COST_EPS
                    or cost[e][t] - row_dual[e] - col_dual[t] > _DUAL_SLACK):
                continue
            trial = {**fixed, t: e}
            rows = [r for r in range(n_e) if r not in used and r != e]
            trial.update(solve(rows, list(range(t + 1, n_t)))[0])
            if len(trial) == best_card and total(trial) <= best_cost + _COST_EPS:
                partner = trial
                break
        if t in partner:
            fixed[t] = partner[t]
    return partner


def _min_cost_pairs(
    cost: list[list[float]],
) -> tuple[list[tuple[int, int]], list[float], list[float]]:
    """A minimum-cost assignment of a rectangular matrix, with its dual potentials.

    Returns the (row, column) pairs, then a potential per row and per column:
    no ``cost[i][j] - row[i] - column[j]`` is negative, the longer side's
    potentials are at most 0, and all potentials sum to the minimum cost.
    Every row is assigned when there are no more rows than columns, every
    column otherwise, so min(rows, columns) pairs come back. This is the
    Hungarian method with potentials, each row added along one shortest
    augmenting path (Kuhn 1955; Crouse, IEEE TAES 2016): O(n^2 m) for n rows
    at most m columns. A matrix with more rows than columns is solved
    transposed.
    """
    if cost and len(cost) > len(cost[0]):
        pairs, u, v = _min_cost_pairs([list(col) for col in zip(*cost)])
        return [(r, c) for c, r in pairs], v, u
    n, m = len(cost), len(cost[0]) if cost else 0
    u, v = [0.0] * n, [0.0] * m
    row_of, col_of = [-1] * m, [-1] * n
    for start in range(n):
        # Dijkstra over reduced costs from the free row ``start`` to a free column
        shortest, via = [math.inf] * m, [-1] * m
        remaining, rows_seen, cols_seen = list(range(m)), [start], []
        i, reach = start, 0.0
        while True:
            row, base = cost[i], reach - u[i]
            lowest, pick = math.inf, -1
            for k, j in enumerate(remaining):
                reach_j = shortest[j]
                reduced = base + row[j] - v[j]
                if reduced < reach_j:
                    shortest[j] = reach_j = reduced
                    via[j] = i
                # on a tie a free column ends the search soonest
                if reach_j < lowest or (reach_j == lowest and row_of[j] < 0):
                    lowest, pick = reach_j, k
            j = remaining[pick]
            remaining[pick] = remaining[-1]
            remaining.pop()
            reach = lowest
            cols_seen.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
            rows_seen.append(i)
        # move the potentials so every reduced cost stays non-negative, then augment
        u[start] += reach
        for i in rows_seen[1:]:
            u[i] += reach - shortest[col_of[i]]
        for j in cols_seen:
            v[j] -= reach - shortest[j]
        while True:
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    return list(enumerate(col_of)), u, v


# --- field scoring ----------------------------------------------------------------


def _check_fields(fields) -> None:
    """Refuse an empty field list, an unknown field and a field listed twice."""
    if not fields:
        raise ValueError("no fields to score")
    for index, name in enumerate(fields):
        if name not in SCORABLE_FIELDS:
            raise ValueError(f"unknown field {name!r}")
        if name in fields[:index]:
            raise ValueError(f"field {name!r} is listed twice")


def _field_equal(field_name: str, e: AlloyRecord, t: AlloyRecord) -> bool:
    if field_name == COMPOSITE_FIELD:
        return True   # both records of a scored pair pass the gate
    if field_name == "nominal_composition":
        return True   # a matched pair's compositions are within L1_MATCH
    if field_name == "lattice_constant":
        a, b = e.lattice_constant, t.lattice_constant
        if a is None or b is None:
            return a is None and b is None
        return abs(a - b) <= LATTICE_ABS
    if field_name == "phase":
        return e.phase == t.phase
    if field_name == "processing":
        return e.processing == t.processing
    raise ValueError(f"unknown field {field_name!r}")


def score_entities(
    match: MatchResult,
    extracted: list[AlloyRecord],
    truth: list[AlloyRecord],
    fields=DEFAULT_FIELDS,
) -> dict[str, ConfusionCounts]:
    """Tally TP/FP/FN per field under the hierarchical scoring rule.

    Unmatched extracted records are FP for every field and unmatched truth
    records FN for every field. When the composite criterion is among the
    scored fields it acts as a gate: only records satisfying it are in scope,
    and a pair with a record outside the gate is scored as its two records
    unmatched, so only the side inside the gate counts. A scored pair counts
    each field TP on equality, else FP and FN simultaneously. ``match`` comes
    from ``match_entries``, so a pair's nominal compositions are within
    ``L1_MATCH`` and that field is TP.
    """
    _check_fields(fields)
    gated = COMPOSITE_FIELD in fields
    counts = {name: ConfusionCounts() for name in fields}

    def in_scope(record: AlloyRecord) -> bool:
        return not gated or composite_criterion(record)

    lone_extracted, lone_truth = list(match.unmatched_extracted), list(match.unmatched_truth)
    pairs = []
    for e_idx, t_idx in match.pairs:
        if in_scope(extracted[e_idx]) and in_scope(truth[t_idx]):
            pairs.append((extracted[e_idx], truth[t_idx]))
        else:
            lone_extracted.append(e_idx)
            lone_truth.append(t_idx)
    for idx in lone_extracted:
        if in_scope(extracted[idx]):
            for name in fields:
                counts[name].fp += 1
    for idx in lone_truth:
        if in_scope(truth[idx]):
            for name in fields:
                counts[name].fn += 1
    for e, t in pairs:
        for name in fields:
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
    """Match and score each document the truth names, summing counts before
    computing metrics; extracted documents outside the truth are left out."""
    fields = tuple(fields)
    _check_fields(fields)
    totals = {name: ConfusionCounts() for name in fields}
    for doc_id in truth_by_doc:
        extracted = extracted_by_doc.get(doc_id, [])
        truth = truth_by_doc[doc_id]
        match = match_entries(extracted, truth)
        for name, c in score_entities(match, extracted, truth, fields).items():
            totals[name].add(c)
    return EvaluationReport(counts=totals, fields=fields)
