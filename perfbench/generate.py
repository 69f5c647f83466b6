"""Seeded input generators for the three benchmark workloads.

Everything here is plain Python over the workload seed: the generators never
call alloyforge, so the expected outcomes they derive (statuses, record
counts, confusion counts, clean partitions) are an independent oracle for the
correctness checks. Compositions are kept as integer thousandths so that the
oracle's arithmetic is exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field

# element systems of well-studied high entropy alloys; every element is in the
# packaged element property table, so featurization never drops a row
SYSTEMS = (
    ("Mo", "Nb", "Ta", "W"),
    ("Hf", "Nb", "Ta", "Ti", "Zr"),
    ("Co", "Cr", "Fe", "Ni"),
    ("Al", "Co", "Cr", "Fe", "Ni"),
    ("Cr", "Mo", "Nb", "V"),
    ("Nb", "Ti", "V", "Zr"),
    ("Mo", "Nb", "Ta", "V", "W"),
    ("Co", "Cr", "Fe", "Mn", "Ni"),
    ("Hf", "Nb", "Ta", "Zr"),
    ("Nb", "Ta", "Ti", "V"),
    ("Cr", "Nb", "Ti", "V", "Zr"),
    ("Al", "Mo", "Nb", "Ti"),
    ("Co", "Cu", "Fe", "Ni"),
    ("Hf", "Mo", "Nb", "Ti", "Zr"),
)
MODEL_ELEMENTS = ("Al", "Co", "Cr", "Cu", "Fe", "Hf", "Mn", "Mo", "Nb", "Ni",
                  "Ta", "Ti", "V", "W", "Zr")

# (text as printed, kind alloyforge normalizes it to)
PHASES = (("BCC", "BCC"), ("FCC", "FCC"), ("BCC + B2", "multiphase"), ("HCP", "HCP"))
PROCESSING = (
    ("as-cast", "as_cast"),
    ("arc melted", "as_cast"),
    ("annealed", "annealed"),
    ("annealed at 1200 C for 24 h", "annealed"),
    ("spark plasma sintered", "powder_processed"),
)
NOT_FOUND = "Not found"

FILLER = (
    "Samples were prepared from elemental feedstock of at least 99.9 percent purity.",
    "X-ray diffraction patterns were collected with Cu K-alpha radiation.",
    "Microstructures were examined by scanning electron microscopy.",
    "Hardness was measured with a Vickers indenter at a load of 500 g.",
    "The ingots were remelted five times to promote chemical homogeneity.",
    "Peak positions were refined by a least-squares fit over all reflections.",
    "Compression tests were carried out at a strain rate of 0.001 per second.",
    "Energy dispersive spectroscopy confirmed the nominal chemistry within error.",
    "The valence electron concentration is discussed in relation to phase stability.",
    "Thermodynamic parameters were computed from the binary mixing enthalpies.",
)


def parts_formula(parts: dict[str, int]) -> str:
    """Formula string of a thousandths composition, elements alphabetical."""
    return "".join(f"{el}{n / 1000:.3f}" for el, n in sorted(parts.items()))


def random_parts(rng: random.Random, elements, floor: int = 60) -> dict[str, int]:
    """Random composition over ``elements`` in thousandths summing to 1000."""
    spare = 1000 - floor * len(elements)
    cuts = sorted(rng.randint(0, spare) for _ in range(len(elements) - 1))
    shares = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
    return {el: floor + s for el, s in zip(elements, shares)}


def shifted_parts(parts: dict[str, int], amount: int) -> dict[str, int]:
    """Move ``amount`` thousandths from the largest to the smallest element (L1 = 2*amount)."""
    ordered = sorted(parts, key=lambda el: (parts[el], el))
    out = dict(parts)
    out[ordered[-1]] -= amount
    out[ordered[0]] += amount
    return out


def l1_cosine(a: dict[str, int], b: dict[str, int]) -> tuple[float, float]:
    support = set(a) | set(b)
    l1 = sum(abs(a.get(el, 0) - b.get(el, 0)) for el in support) / 1000
    dot = sum(a.get(el, 0) * b.get(el, 0) for el in support)
    norm = math.sqrt(sum(v * v for v in a.values())) * math.sqrt(sum(v * v for v in b.values()))
    return l1, dot / norm


def fenced(body: str) -> str:
    return f"```json\n{body}\n```"


def lattice_text(milli: int, style: str) -> str:
    """A lattice constant given in milli-angstrom, printed in one of four styles."""
    if style == "nm":
        return f"{milli / 10000:.4f} nm"
    if style == "pm":
        return f"{milli / 10:.1f} pm"
    if style == "symbol":
        return f"{milli / 1000:.3f} Å"
    return f"{milli / 1000:.3f}"


def record_object(name, nominal, measured, phase, processing, lattice) -> dict[str, str]:
    """The six-key record object, "Not found" for absent fields."""
    return {
        "alloy_name": name or NOT_FOUND,
        "nominal_composition": nominal,
        "measured_composition": measured or NOT_FOUND,
        "phase": phase or NOT_FOUND,
        "processing_condition": processing or NOT_FOUND,
        "lattice_constant_angstrom": lattice or NOT_FOUND,
    }


def paper_text(rng: random.Random, doc_id: str, alloys: list[str]) -> str:
    """A plain-text stand-in for an alloy paper, 1-3 kB."""
    mention = ", ".join(alloys) if alloys else "several commercial steels"
    body = [rng.choice(FILLER) for _ in range(rng.randint(10, 25))]
    return (
        f"Paper ref: {doc_id}\n\n"
        f"Title: Lattice parameters of {mention}\n\n"
        f"Abstract. We report the structure and lattice parameters of {mention}.\n\n"
        + "\n".join(body)
        + "\n"
    )


# --- extract --------------------------------------------------------------------------
#
# Why: run_extraction is where the per-document ledger rewrite, raw
# persistence, double parsing and transcript hashing live, so a corpus large
# enough for bookkeeping to grow with N loads the pipeline, records and
# engines layers; evaluation, quality and ml are bypassed. Scripted answers
# cover every terminal path: valid record sets in every accepted wrapping and
# unit, the rejection sentinel, malformed output, and both engine raises.

EXTRACT_SHARES = (("sentinel", 0.10), ("malformed", 0.06), ("context", 0.06),
                  ("engine_error", 0.06))


@dataclass
class ExtractDoc:
    doc_id: str
    text: str
    outcome: str              # valid | sentinel | malformed | context | engine_error
    answer: str | None        # completion text; None when the engine raises
    n_records: int


def extract_corpus(seed: int, n_docs: int) -> list[ExtractDoc]:
    rng = random.Random(f"extract-{seed}")
    outcomes = []
    for name, share in EXTRACT_SHARES:
        outcomes += [name] * round(share * n_docs)
    outcomes += ["valid"] * (n_docs - len(outcomes))
    rng.shuffle(outcomes)
    docs = []
    for index, outcome in enumerate(outcomes):
        doc_id = f"p{index:05d}"
        objects = []
        if outcome == "valid":
            for system in rng.sample(SYSTEMS, rng.randint(1, 6)):
                parts = random_parts(rng, system)
                formula = parts_formula(parts)
                objects.append(record_object(
                    "".join(system), formula,
                    formula if rng.random() < 0.3 else None,
                    rng.choice(PHASES)[0], rng.choice(PROCESSING)[0],
                    lattice_text(rng.randint(2850, 3450),
                                 rng.choice(("bare", "bare", "nm", "pm", "symbol"))),
                ))
        alloys = [o["alloy_name"] for o in objects]
        answer = None
        if outcome == "valid":
            body = json.dumps(objects, indent=2, ensure_ascii=False)
            answer = rng.choice((
                body,
                fenced(body),
                f"Here are the alloys reported in the paper.\n\n{body}\n\nAll values as printed.",
                f"The results section covers these alloys:\n{fenced(body)}\nNothing else applies.",
            ))
        elif outcome == "sentinel":
            answer = "NO HEA DATA: the publication studies conventional alloys only."
        elif outcome == "malformed":
            # the record block is cut off mid-object, so no JSON value parses
            answer = ('I found the following entries: [{"alloy_name": "MoNbTaW", '
                      '"nominal_composition": "Mo0.25Nb0.25Ta0.25W0.25", "phase": "BC')
        docs.append(ExtractDoc(doc_id, paper_text(rng, doc_id, alloys), outcome, answer,
                               len(objects)))
    return docs


# --- curate -----------------------------------------------------------------------------
#
# Why: the CLI's validation flow (evaluate, clean, featurize, report, optimize)
# loads evaluation, composition, quality, features and optimizer and bypasses
# the ledger and ml. The data plants implausible and unconverted lattice
# values, composition-inconsistent records, and same-alloy groups: one alloy
# under many processing conditions, 7 extracted x 9 truth records (the
# exhaustive matcher) and groups of 8x8 and more (the assignment solver).

SAME_ALLOY_SHAPES = ((7, 9), (8, 8), (12, 12), (40, 40))
SAME_ALLOY_PREFIX = "same-"
FATES = (
    ("exact", 45), ("lattice_off", 8), ("lattice_nm", 8), ("unconverted_nm", 5),
    ("unconverted_pm", 4), ("lattice_missing", 5), ("phase_off", 6),
    ("processing_off", 6), ("dropped", 8), ("far", 5),
)
OPTIMIZE_EPOCHS = 3
OPTIMIZE_BATCH = 3


@dataclass
class PlanRecord:
    """One record as the generator plans it, with the kinds alloyforge should derive."""

    name: str | None
    parts: dict[str, int]
    measured: dict[str, int] | None
    phase: tuple[str, str]
    processing: tuple[str, str]
    lattice: str | None          # text as printed
    lattice_value: float | None  # angstrom, after alloyforge's unit handling

    def to_object(self) -> dict[str, str]:
        return record_object(
            self.name, parts_formula(self.parts),
            parts_formula(self.measured) if self.measured else None,
            self.phase[0], self.processing[0], self.lattice,
        )

    @property
    def composite(self) -> bool:
        return self.phase[1] == "BCC" and self.processing[1] == "as_cast"


@dataclass
class PlanDoc:
    doc_id: str
    truth: list[PlanRecord]
    extracted: list[PlanRecord]
    pairs: list[tuple[int, int]]     # (extracted index, truth index)
    in_truth: bool = True
    same_alloy: bool = False

    @property
    def aligned(self) -> bool:
        return (len(self.pairs) == len(self.truth) == len(self.extracted)
                and all(_fields_equal(self.extracted[e], self.truth[t])
                        for e, t in self.pairs))


@dataclass
class CurateData:
    docs: list[PlanDoc]
    subset: list[str]                      # annotated documents the optimizer runs on
    texts: dict[str, str] = field(default_factory=dict)

    def dataset_jsonl(self) -> str:
        lines = []
        for doc in self.docs:
            for record in doc.extracted:
                obj = {"doc_id": doc.doc_id}
                obj.update(record.to_object())
                lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
        return "\n".join(lines) + "\n"

    def truth_csv(self) -> str:
        out = io.StringIO()
        keys = ("alloy_name", "nominal_composition", "measured_composition", "phase",
                "processing_condition", "lattice_constant_angstrom")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("doc_id",) + keys)
        for doc in self.docs:
            if doc.in_truth:
                for record in doc.truth:
                    obj = record.to_object()
                    writer.writerow([doc.doc_id] + [obj[k] for k in keys])
        return out.getvalue()

    def forward_answer(self, doc_id: str) -> str:
        doc = self.by_id(doc_id)
        return json.dumps([r.to_object() for r in doc.extracted], indent=2, ensure_ascii=False)

    def by_id(self, doc_id: str) -> PlanDoc:
        return self._index[doc_id]

    def __post_init__(self):
        self._index = {doc.doc_id: doc for doc in self.docs}

    # --- the oracle ---------------------------------------------------------------

    def expected_counts(self, fields, doc_ids=None) -> dict[str, tuple[int, int, int]]:
        """TP/FP/FN per field under the documented hierarchical scoring rule."""
        tally = {name: [0, 0, 0] for name in fields}
        gated = "composite" in fields
        docs = [d for d in self.docs if d.in_truth and (doc_ids is None or d.doc_id in doc_ids)]
        for doc in docs:
            matched_e = {e for e, _ in doc.pairs}
            matched_t = {t for _, t in doc.pairs}
            for i, record in enumerate(doc.extracted):
                if i not in matched_e and (record.composite or not gated):
                    for name in fields:
                        tally[name][1] += 1
            for i, record in enumerate(doc.truth):
                if i not in matched_t and (record.composite or not gated):
                    for name in fields:
                        tally[name][2] += 1
            for e, t in doc.pairs:
                ex, tr = doc.extracted[e], doc.truth[t]
                if gated:
                    if not ex.composite and not tr.composite:
                        continue
                    if ex.composite != tr.composite:
                        slot = 1 if ex.composite else 2
                        for name in fields:
                            tally[name][slot] += 1
                        continue
                    tally["composite"][0] += 1
                for name in fields:
                    if name == "composite":
                        continue
                    if _field_equal(name, ex, tr):
                        tally[name][0] += 1
                    else:
                        tally[name][1] += 1
                        tally[name][2] += 1
        return {name: tuple(v) for name, v in tally.items()}

    def expected_clean(self) -> dict[str, int]:
        """Plausibility partition, consistency flags and featurizable rows."""
        out = {"accepted": 0, "rejected_low": 0, "rejected_high": 0, "flagged": 0,
               "featurized": 0, "records": 0, "with_lattice": 0}
        for doc in self.docs:
            for record in doc.extracted:
                out["records"] += 1
                value = record.lattice_value
                if value is not None:
                    out["with_lattice"] += 1
                if value is not None and value <= 1.0:
                    out["rejected_low"] += 1
                elif value is not None and value >= 10.0:
                    out["rejected_high"] += 1
                else:
                    out["accepted"] += 1
                    out["featurized"] += value is not None
                sources = [record.parts]
                if record.measured is not None:
                    sources.append(record.measured)
                if record.name == parts_formula(record.parts):
                    sources.append(record.parts)
                for i in range(len(sources)):
                    for j in range(i + 1, len(sources)):
                        l1, cos = l1_cosine(sources[i], sources[j])
                        out["flagged"] += l1 > 0.1 or cos < 0.99
        return out

    def expected_optimize(self) -> dict[str, int]:
        docs = [self.by_id(d) for d in self.subset]
        batches = [docs[i:i + OPTIMIZE_BATCH] for i in range(0, len(docs), OPTIMIZE_BATCH)]
        misaligned = sum(1 for batch in batches if not all(d.aligned for d in batch))
        return {
            "forward": OPTIMIZE_EPOCHS * len(docs),
            "evaluator": OPTIMIZE_EPOCHS * len(docs),
            "backward": OPTIMIZE_EPOCHS * misaligned,
        }


def _field_equal(name: str, ex: PlanRecord, tr: PlanRecord) -> bool:
    if name == "nominal_composition":
        return l1_cosine(ex.parts, tr.parts)[0] <= 0.05
    if name == "lattice_constant":
        if ex.lattice_value is None or tr.lattice_value is None:
            return ex.lattice_value is None and tr.lattice_value is None
        return abs(ex.lattice_value - tr.lattice_value) <= 0.005
    if name == "phase":
        return ex.phase[1] == tr.phase[1]
    if name == "processing":
        return ex.processing[1] == tr.processing[1]
    raise ValueError(name)


def _fields_equal(ex: PlanRecord, tr: PlanRecord) -> bool:
    return all(_field_equal(n, ex, tr)
               for n in ("nominal_composition", "lattice_constant", "phase", "processing"))


def _other(rng: random.Random, table, current):
    return rng.choice([entry for entry in table if entry[1] != current[1]])


def _truth_record(rng: random.Random, parts: dict[str, int], with_lattice: bool) -> PlanRecord:
    milli = rng.randint(2850, 3450)
    return PlanRecord(
        name=parts_formula(parts) if rng.random() < 0.5 else None,
        parts=parts,
        measured=None,
        phase=rng.choice(PHASES[:2] * 3 + PHASES[2:]),
        processing=rng.choice(PROCESSING),
        lattice=lattice_text(milli, "bare") if with_lattice else None,
        lattice_value=milli / 1000 if with_lattice else None,
    )


def _extracted_from(rng: random.Random, truth: PlanRecord, fate: str) -> PlanRecord:
    ex = PlanRecord(truth.name, dict(truth.parts), None, truth.phase, truth.processing,
                    truth.lattice, truth.lattice_value)
    milli = round(truth.lattice_value * 1000) if truth.lattice_value is not None else None
    if milli is not None:
        if fate == "lattice_off":
            milli += rng.choice((-1, 1)) * rng.randint(60, 200)
            ex.lattice, ex.lattice_value = lattice_text(milli, "bare"), milli / 1000
        elif fate == "lattice_nm":
            ex.lattice = lattice_text(milli, "nm")
        elif fate == "unconverted_nm":
            ex.lattice, ex.lattice_value = f"{milli / 10000:.4f}", milli / 10000
        elif fate == "unconverted_pm":
            ex.lattice, ex.lattice_value = f"{milli / 10:.1f}", milli / 10
        elif fate == "lattice_missing":
            ex.lattice, ex.lattice_value = None, None
    if fate == "phase_off":
        ex.phase = _other(rng, PHASES, truth.phase)
    elif fate == "processing_off":
        ex.processing = _other(rng, PROCESSING, truth.processing)
    elif fate == "far":
        ex.parts = shifted_parts(truth.parts, 40)
        if ex.name is not None:
            ex.name = parts_formula(ex.parts)
    roll = rng.random()
    if roll < 0.08:
        ex.measured = shifted_parts(ex.parts, 150)    # composition-inconsistent record
    elif roll < 0.4:
        ex.measured = dict(ex.parts)
    if rng.random() < 0.3:
        ex.name = "".join(sorted(ex.parts)).lower()   # a label that is not a formula
    return ex


def _same_alloy_doc(rng: random.Random, doc_id: str, n_extracted: int, n_truth: int) -> PlanDoc:
    """One MoNbTaW alloy reported under many processing conditions.

    Variant k shifts k thousandths from W to Mo, so every pair of variants is
    within the matcher's L1 tolerance for small groups while the identical
    pairing stays the unique optimum.
    """
    truth = []
    for k in range(n_truth):
        parts = {"Mo": 230 + k, "Nb": 250, "Ta": 250, "W": 270 - k}
        record = _truth_record(rng, parts, with_lattice=True)
        record.processing = PROCESSING[k % len(PROCESSING)]
        truth.append(record)
    picks = sorted(rng.sample(range(n_truth), n_extracted))
    extracted = [_extracted_from(rng, truth[t], "lattice_off" if i == 0 else "exact")
                 for i, t in enumerate(picks)]
    return PlanDoc(doc_id, truth, extracted, list(enumerate(picks)), same_alloy=True)


def curate_data(seed: int, n_docs: int, n_subset: int,
                shapes=SAME_ALLOY_SHAPES) -> CurateData:
    rng = random.Random(f"curate-{seed}")
    docs = []
    fates, weights = zip(*FATES)
    for index in range(n_docs):
        doc_id = f"c{index:05d}"
        systems = rng.sample(SYSTEMS, rng.randint(1, 6))
        truth = [_truth_record(rng, random_parts(rng, s), rng.random() < 0.9) for s in systems]
        extracted, pairs = [], []
        for t, record in enumerate(truth):
            fate = rng.choices(fates, weights)[0]
            if fate == "dropped":
                continue
            if fate != "far":
                pairs.append((len(extracted), t))
            extracted.append(_extracted_from(rng, record, fate))
        if rng.random() < 0.15:
            spare = [s for s in SYSTEMS if s not in systems]
            extracted.append(_extracted_from(
                rng, _truth_record(rng, random_parts(rng, rng.choice(spare)), True), "exact"))
        docs.append(PlanDoc(doc_id, truth, extracted, pairs, in_truth=rng.random() < 0.9))
    for n_e, n_t in shapes:
        docs.append(_same_alloy_doc(rng, f"{SAME_ALLOY_PREFIX}{n_e}x{n_t}", n_e, n_t))
    annotated = [d.doc_id for d in docs if d.in_truth and not d.same_alloy]
    # the optimizer also meets the exhaustive-matcher group, once per epoch
    subset = annotated[:n_subset] + [docs[n_docs].doc_id]
    data = CurateData(docs=docs, subset=subset)
    for doc_id in subset:
        names = [parts_formula(r.parts) for r in data.by_id(doc_id).truth]
        data.texts[doc_id] = paper_text(rng, doc_id, names)
    return data


# --- model ------------------------------------------------------------------------------
#
# Why: ESVR and ELASSO training dominate here and no other workload touches
# ml. The default 12 x 11 (gamma, C) grid and the 10-fold, 50-lambda path
# are kept whole so that kernel reuse, warm starts and vectorized coordinate
# descent all have room to act; only the ensemble size and the resample
# count are reduced. Training cost depends strongly on the data: SMO
# iteration counts differ by a factor of two or more between equally sized
# datasets and between bootstrap resamples. Training therefore uses one fixed
# reference problem (compositions, noise, split and resampling seeds are the
# same for every workload seed), so that runs with different seeds measure
# the same work; the workload seed draws the compositions predict_batch sees.

REFERENCE_SEED = 0


def model_compositions(label: str, n: int) -> list[dict[str, int]]:
    rng = random.Random(f"model-{label}")
    return [random_parts(rng, rng.sample(MODEL_ELEMENTS, rng.randint(3, 6)), floor=50)
            for _ in range(n)]


def model_targets(rows: list[list[float]]) -> list[float]:
    """BCC lattice constant from the mean atomic volume, a smooth electronegativity
    term and noise: a = (2 V)^(1/3) + 0.04 (chi - 1.7) + N(0, 0.01)."""
    rng = random.Random(f"model-target-{REFERENCE_SEED}")
    return [(2.0 * row[0]) ** (1.0 / 3.0) + 0.04 * (row[3] - 1.7) + rng.gauss(0.0, 0.01)
            for row in rows]
