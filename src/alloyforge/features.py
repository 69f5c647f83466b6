"""Composition-weighted elemental descriptors.

Six descriptors are computed per composition: mean atomic volume, covalent
radius, Mendeleev number, Pauling electronegativity, d-valence electron count,
and unfilled valence orbital count, each the fraction-weighted average of the
constituent elements' table values. The element table ships as a CSV asset
(curated standard reference data) and is swappable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .composition import Composition
from .records import AlloyRecord

PROPERTY_COLUMNS = (
    "atomic_volume",
    "covalent_radius",
    "mendeleev_number",
    "electronegativity",
    "nd_valence",
    "n_unfilled",
)
FEATURE_NAMES = (
    "meanAtomicVolume",
    "meanCovalentRadius",
    "meanMendeleev",
    "meanElectronegativity",
    "meanNdValence",
    "meanNUnfilled",
)
TARGET_COLUMN = "lattice_constant_angstrom"


class ElementNotInTable(KeyError):
    pass


@dataclass(frozen=True)
class ElementPropertyTable:
    values: dict[str, tuple[float, ...]]  # symbol -> values in PROPERTY_COLUMNS order

    @classmethod
    def from_csv(cls, path) -> "ElementPropertyTable":
        with Path(path).open(newline="", encoding="utf-8") as fh:
            return cls._from_reader(csv.DictReader(fh), str(path))

    @classmethod
    def _from_reader(cls, reader, origin: str) -> "ElementPropertyTable":
        header = reader.fieldnames or []
        missing = [c for c in ("symbol",) + PROPERTY_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{origin}: missing column(s) {', '.join(missing)}")
        values = {}
        for row in reader:
            symbol = row["symbol"].strip()
            values[symbol] = tuple(float(row[c]) for c in PROPERTY_COLUMNS)
        return cls(values=values)

    def row(self, symbol: str) -> tuple[float, ...]:
        try:
            return self.values[symbol]
        except KeyError:
            raise ElementNotInTable(symbol) from None


def default_table() -> ElementPropertyTable:
    text = resources.files("alloyforge.data").joinpath("element_properties.csv").read_text("utf-8")
    return ElementPropertyTable._from_reader(csv.DictReader(io.StringIO(text)), "packaged table")


@dataclass(frozen=True)
class FeatureVector:
    mean_atomic_volume: float
    mean_covalent_radius: float
    mean_mendeleev: float
    mean_electronegativity: float
    mean_nd_valence: float
    mean_n_unfilled: float

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.mean_atomic_volume,
                self.mean_covalent_radius,
                self.mean_mendeleev,
                self.mean_electronegativity,
                self.mean_nd_valence,
                self.mean_n_unfilled,
            ]
        )


def featurize(composition: Composition, table: ElementPropertyTable) -> FeatureVector:
    """Fraction-weighted average of each elemental property.

    Each descriptor is accumulated in plain floats, one ``fraction * value``
    term per element in ``composition.fractions`` order (alphabetical), so a
    composition always gives the same bits and the feature CSVs and saved
    models built from them are byte-stable. A compensated or reordered sum
    (``sum``, ``math.fsum``, a BLAS dot product) would change the last bits.
    """
    values = table.values
    missing = sorted(sym for sym in composition.fractions if sym not in values)
    if missing:
        raise ElementNotInTable(", ".join(missing))
    acc = [0.0] * len(PROPERTY_COLUMNS)
    for symbol, fraction in composition.fractions.items():
        for k, v in enumerate(values[symbol]):
            acc[k] += fraction * v
    return FeatureVector(*acc)


@dataclass
class FeaturizedDataset:
    X: np.ndarray                       # (n, 6) in input order
    y: np.ndarray                       # lattice constants, angstrom
    issues: list[tuple[int, str]]       # (input row index, reason) for dropped rows
    kept_indices: list[int]
    feature_names: tuple = FEATURE_NAMES

    def export_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(list(self.feature_names) + [TARGET_COLUMN])
        for row, target in zip(self.X, self.y):
            writer.writerow([repr(v) for v in row.tolist()] + [repr(float(target))])
        return out.getvalue()


def featurize_dataset(
    records: list[AlloyRecord], table: ElementPropertyTable
) -> FeaturizedDataset:
    """Build the design matrix and target vector from extraction records.

    Rows needing an element missing from the table, or lacking a nominal
    composition or lattice constant, are dropped and reported.
    """
    rows, targets, issues, kept = [], [], [], []
    for index, record in enumerate(records):
        if record.nominal_composition is None:
            issues.append((index, "no nominal composition"))
            continue
        if record.lattice_constant is None:
            issues.append((index, "no lattice constant"))
            continue
        try:
            vector = featurize(record.nominal_composition, table)
        except ElementNotInTable as exc:
            issues.append((index, f"element(s) not in table: {exc.args[0]}"))
            continue
        rows.append(vector.as_array())
        targets.append(record.lattice_constant.value)
        kept.append(index)
    X = np.vstack(rows) if rows else np.empty((0, len(FEATURE_NAMES)))
    y = np.asarray(targets, dtype=float)
    return FeaturizedDataset(X=X, y=y, issues=issues, kept_indices=kept)


def load_feature_csv(path) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Read a feature matrix CSV produced by ``FeaturizedDataset.export_csv``."""
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != TARGET_COLUMN:
            raise ValueError(f"{path}: last column must be {TARGET_COLUMN}")
        names = tuple(header[:-1])
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        return np.empty((0, len(names))), np.empty(0), names
    return data[:, :-1], data[:, -1], names
