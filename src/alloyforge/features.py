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
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

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
    """``args[0]`` is the sorted, comma-joined list of missing symbols."""

    def __str__(self) -> str:
        return f"element(s) not in table: {self.args[0]}"


@dataclass(frozen=True)
class ElementPropertyTable:
    values: dict[str, tuple[float, ...]]  # symbol -> values in PROPERTY_COLUMNS order

    def __post_init__(self):
        for symbol, row in self.values.items():
            if len(row) != len(PROPERTY_COLUMNS):
                raise ValueError(
                    f"element {symbol!r} has {len(row)} value(s), "
                    f"expected {len(PROPERTY_COLUMNS)} ({', '.join(PROPERTY_COLUMNS)})"
                )

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
            if None in row:  # DictReader files the fields beyond the header under None
                raise ValueError(
                    f"{origin}: line {reader.line_num} has {len(header) + len(row[None])} "
                    f"field(s), the header has {len(header)}"
                )
            if symbol in values:
                raise ValueError(
                    f"{origin}: line {reader.line_num}: element {symbol!r} listed twice"
                )
            parsed = []
            for column in PROPERTY_COLUMNS:
                try:
                    parsed.append(float(row[column]))
                except (TypeError, ValueError):  # a short row leaves None
                    raise ValueError(
                        f"{origin}: line {reader.line_num}, column {column}: "
                        f"{row[column]!r} is not a number"
                    ) from None
            values[symbol] = tuple(parsed)
        return cls(values=values)

    def row(self, symbol: str) -> tuple[float, ...]:
        try:
            return self.values[symbol]
        except KeyError:
            raise ElementNotInTable(symbol) from None


def default_table() -> ElementPropertyTable:
    text = resources.files("alloyforge.data").joinpath("element_properties.csv").read_text("utf-8")
    return ElementPropertyTable._from_reader(csv.DictReader(io.StringIO(text)), "packaged table")


class FeatureVector(NamedTuple):
    mean_atomic_volume: float
    mean_covalent_radius: float
    mean_mendeleev: float
    mean_electronegativity: float
    mean_nd_valence: float
    mean_n_unfilled: float

    def as_array(self) -> np.ndarray:
        # numpy reads a plain tuple faster than a tuple subclass
        return np.array(self[:])


def featurize(composition: Composition, table: ElementPropertyTable) -> FeatureVector:
    """Fraction-weighted average of each elemental property.

    Each descriptor has its own plain-float accumulator, ``a0`` to ``a5`` in
    ``PROPERTY_COLUMNS`` order, starting at 0.0. Each table row is unpacked
    once, and one ``fraction * value`` term per element is added in
    ``composition.fractions`` order (alphabetical). So a composition always
    gives the same bits, and the feature CSVs and saved models built from
    them are byte-stable. A compensated or reordered sum (``sum``,
    ``math.fsum``, a BLAS dot product) would change the last bits.

    Missing elements are listed (sorted, comma-joined) only once a lookup has
    failed, so the common path does no scan of its own.
    """
    values = table.values
    a0 = a1 = a2 = a3 = a4 = a5 = 0.0
    try:
        for symbol, fraction in composition.fractions.items():
            v0, v1, v2, v3, v4, v5 = values[symbol]
            a0 += fraction * v0
            a1 += fraction * v1
            a2 += fraction * v2
            a3 += fraction * v3
            a4 += fraction * v4
            a5 += fraction * v5
    except KeyError:
        missing = sorted(sym for sym in composition.fractions if sym not in values)
        raise ElementNotInTable(", ".join(missing)) from None
    return FeatureVector(a0, a1, a2, a3, a4, a5)


@dataclass
class FeaturizedDataset:
    X: np.ndarray                       # (n, 6) in input order
    y: np.ndarray                       # lattice constants, angstrom
    issues: list[tuple[int, str]]       # (input row index, reason) for dropped rows

    def export_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(FEATURE_NAMES + (TARGET_COLUMN,))
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
    rows, targets, issues = [], [], []
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
            issues.append((index, str(exc)))
            continue
        rows.append(vector)
        targets.append(record.lattice_constant)
    X = np.array(rows, dtype=float) if rows else np.empty((0, len(FEATURE_NAMES)))
    y = np.asarray(targets, dtype=float)
    return FeaturizedDataset(X=X, y=y, issues=issues)


def load_feature_csv(path) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Read a feature matrix CSV produced by ``FeaturizedDataset.export_csv``.

    Raises ``ValueError`` naming the path for a file with no header, the path
    and line for a row whose field count differs from the header's or that
    holds a non-numeric cell, and the path, line and column for a ``nan`` or
    infinite cell, which no descriptor or lattice constant can be.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"{path}: no header row (expected one ending in {TARGET_COLUMN})")
        if header[-1] != TARGET_COLUMN:
            raise ValueError(f"{path}: last column must be {TARGET_COLUMN}")
        names = tuple(header[:-1])
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num} has {len(row)} field(s), "
                    f"the header has {len(header)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
            if not all(map(math.isfinite, values)):
                column = next(i for i, v in enumerate(values) if not math.isfinite(v))
                raise ValueError(
                    f"{path}: line {reader.line_num}, column {header[column]}: "
                    f"{row[column]!r} is not a finite number"
                )
            rows.append(values)
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        return np.empty((0, len(names))), np.empty(0), names
    return data[:, :-1], data[:, -1], names
