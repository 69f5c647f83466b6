"""Alloy composition algebra.

Parses chemical formula strings into normalized atomic-fraction vectors and
computes the agreement measures (L1 distance, cosine similarity) used to
cross-check the alloy name, nominal composition, and measured composition
fields of an extracted record.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from decimal import Decimal
from itertools import combinations

_SYMBOLS = """
H He Li Be B C N O F Ne Na Mg Al Si P S Cl Ar K Ca Sc Ti V Cr Mn Fe Co Ni Cu Zn
Ga Ge As Se Br Kr Rb Sr Y Zr Nb Mo Tc Ru Rh Pd Ag Cd In Sn Sb Te I Xe Cs Ba La
Ce Pr Nd Pm Sm Eu Gd Tb Dy Ho Er Tm Yb Lu Hf Ta W Re Os Ir Pt Au Hg Tl Pb Bi Po
At Rn Fr Ra Ac Th Pa U Np Pu Am Cm Bk Cf Es Fm Md No Lr Rf Db Sg Bh Hs Mt Ds Rg
Cn Nh Fl Mc Lv Ts Og
"""
ELEMENT_SYMBOLS = frozenset(_SYMBOLS.split())

DEFAULT_L1_THRESHOLD = 0.1
DEFAULT_COSINE_THRESHOLD = 0.99

# characters that merely separate constituents in formula strings
_SEPARATORS = " \t-–—,·"
_NUMBER = r"\d+(?:\.\d*)?|\.\d+"
_NUMBER_RE = re.compile(_NUMBER)
# an element symbol and its subscript in one match; the symbol is checked afterwards
_ELEMENT_RE = re.compile(rf"([A-Z][a-z]?)({_NUMBER})?")
_WT_PERCENT_RE = re.compile(r"wt\.?\s*%|\bwt\b", re.IGNORECASE)
_AT_PERCENT_RE = re.compile(r"\(?\s*at\.?\s*%\s*\)?", re.IGNORECASE)


class CompositionError(ValueError):
    """Base class for composition parsing and arithmetic failures."""


class EmptyFormula(CompositionError):
    pass


class UnknownElement(CompositionError):
    pass


class UnresolvedVariable(CompositionError):
    """A symbolic subscript (e.g. "x") appeared with no numeric binding."""


class UnsupportedUnits(CompositionError):
    """Weight-percent compositions are rejected rather than misread as atomic."""


class ZeroVector(CompositionError):
    pass


class NothingToCompare(CompositionError):
    """Fewer than two parseable composition sources on the record."""


@dataclass(frozen=True)
class Composition:
    """Element symbol -> atomic fraction; fractions are positive and sum to 1."""

    fractions: dict[str, float]

    def __post_init__(self):
        if not self.fractions:
            raise EmptyFormula("composition has no elements")
        for sym, frac in self.fractions.items():
            if sym not in ELEMENT_SYMBOLS:
                raise UnknownElement(f"unknown element symbol {sym!r}")
            if not (frac > 0.0) or not math.isfinite(frac):
                raise CompositionError(f"fraction for {sym} must be positive, got {frac!r}")
        total = sum(self.fractions.values())
        if abs(total - 1.0) > 1e-9:
            raise CompositionError(f"fractions sum to {total!r}, expected 1 within 1e-9")

    @classmethod
    def from_coefficients(cls, coefficients) -> "Composition":
        """Normalize raw coefficients to atomic fractions, keyed alphabetically.

        Zero coefficients are dropped and each of the rest is divided by their
        sum, in one pass over the sorted symbols. Coefficients already summing
        to 1 (within 1e-9) are kept verbatim so that serialization round-trips
        are exact.
        """
        coeffs = {sym: f for sym, c in coefficients.items() if (f := float(c)) != 0.0}
        if not coeffs:
            raise EmptyFormula("no nonzero coefficients")
        total = sum(coeffs.values())
        if not math.isfinite(total) or total <= 0:
            raise CompositionError(f"coefficients sum to {total!r}")
        if abs(total - 1.0) > 1e-9:
            return cls({sym: coeffs[sym] / total for sym in sorted(coeffs)})
        return cls({sym: coeffs[sym] for sym in sorted(coeffs)})

    @property
    def elements(self) -> frozenset[str]:
        return frozenset(self.fractions)

    def get(self, symbol: str) -> float:
        return self.fractions.get(symbol, 0.0)

    def canonical_formula(self) -> str:
        """Alphabetical elements with fractions to 6 decimal places.

        Uses largest-remainder rounding so the printed fractions sum to
        exactly 1.000000, which makes parse(canonical(c)) idempotent.
        Constituents below 5e-7 vanish from the canonical form.
        """
        items = sorted(self.fractions.items())
        scaled = [frac * 1_000_000 for _, frac in items]
        units = [math.floor(v) for v in scaled]
        leftover = 1_000_000 - sum(units)
        by_remainder = sorted(
            range(len(items)), key=lambda k: (units[k] - scaled[k], items[k][0])
        )
        for k in by_remainder[:leftover]:
            units[k] += 1
        return "".join(
            f"{sym}{units[k] / 1_000_000:.6f}" for k, (sym, _) in enumerate(items) if units[k] > 0
        )

    def full_precision_formula(self) -> str:
        """Alphabetical elements with full float precision (exact round-trip).

        Each fraction is its shortest ``repr`` written positionally, because
        the formula parser reads no exponent notation (``repr`` uses it below 1e-4).
        """
        return "".join(
            f"{sym}{Decimal(repr(frac)):f}" for sym, frac in sorted(self.fractions.items())
        )

    def __str__(self) -> str:
        return self.canonical_formula()


@dataclass(frozen=True)
class ConsistencyReport:
    """Agreement between two composition sources on one record."""

    l1: float
    cosine: float
    flagged: bool
    compared_pair: tuple[str, str]


def parse_formula(text: str) -> Composition:
    """Parse a chemical formula with optional real subscripts into a Composition.

    Elements without subscripts have implied coefficient 1; repeated symbols
    are summed; parenthesized groups distribute their trailing multiplier over
    the group's coefficients. Whitespace, hyphens, and middle dots separate
    constituents and are ignored.
    """
    if text is None:
        raise EmptyFormula("formula is None")
    # every match of either pattern contains its guard, so the guards skip no match
    if "wt" in text.lower() and _WT_PERCENT_RE.search(text):
        raise UnsupportedUnits(f"weight-percent composition not supported: {text!r}")
    cleaned = _AT_PERCENT_RE.sub(" ", text) if "%" in text else text
    coeffs, pos = _parse_sequence(cleaned, 0, depth=0)
    if pos != len(cleaned):
        raise CompositionError(f"unbalanced bracket at position {pos} in {text!r}")
    return Composition.from_coefficients(coeffs)


def _parse_sequence(s: str, i: int, depth: int) -> tuple[dict[str, float], int]:
    """Parse constituents until end of string or an unconsumed closing bracket."""
    coeffs: dict[str, float] = {}
    n = len(s)
    while i < n:
        ch = s[i]
        if ch in _SEPARATORS:
            i += 1
            continue
        if ch in "([{":
            inner, i = _parse_sequence(s, i + 1, depth + 1)
            if i >= n or s[i] not in ")]}":
                raise CompositionError(f"unclosed group in formula {s!r}")
            i += 1
            mult, i = _parse_coefficient(s, i)
            for sym, c in inner.items():
                coeffs[sym] = coeffs.get(sym, 0.0) + c * mult
            continue
        if ch in ")]}":
            if depth == 0:
                raise CompositionError(f"stray {ch!r} at position {i} in {s!r}")
            return coeffs, i
        if ch.isupper():
            m = _ELEMENT_RE.match(s, i)
            if m and m[1] in ELEMENT_SYMBOLS:
                sym, number, i = m[1], m[2], m.end()
                coeff = 1.0 if number is None else float(number)
            else:
                sym, i = _parse_element(s, i)
                coeff, i = _parse_coefficient(s, i)
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


def _parse_element(s: str, i: int) -> tuple[str, int]:
    two = s[i : i + 2]
    if len(two) == 2 and two[1].islower() and two in ELEMENT_SYMBOLS:
        return two, i + 2
    one = s[i]
    if one in ELEMENT_SYMBOLS:
        return one, i + 1
    bad = two if len(two) == 2 and two[1].islower() else one
    raise UnknownElement(f"unknown element symbol {bad!r} at position {i} in {s!r}")


def _parse_coefficient(s: str, i: int) -> tuple[float, int]:
    m = _NUMBER_RE.match(s, i)
    if m:
        return float(m.group()), m.end()
    return 1.0, i


def l1_distance(a: Composition, b: Composition) -> float:
    """Sum of absolute fraction differences over the union of element supports.

    ``math.fsum`` rounds the sum correctly, so the result does not depend on
    the order in which the support set is walked (which follows string
    hashing and so changes between processes).
    """
    fa, fb = a.fractions, b.fractions
    support = fa.keys() | fb.keys()
    return math.fsum(abs(fa.get(sym, 0.0) - fb.get(sym, 0.0)) for sym in support)


def cosine_similarity(a: Composition, b: Composition) -> float:
    """Cosine of the two fraction vectors over the union support, in [0, 1]."""
    fa, fb = a.fractions, b.fractions
    support = sorted(fa.keys() | fb.keys())
    dot = sum(fa.get(sym, 0.0) * fb.get(sym, 0.0) for sym in support)
    norm_a = math.sqrt(sum(fa.get(sym, 0.0) ** 2 for sym in support))
    norm_b = math.sqrt(sum(fb.get(sym, 0.0) ** 2 for sym in support))
    if norm_a == 0.0 or norm_b == 0.0:
        raise ZeroVector("cosine similarity undefined for a zero composition vector")
    return min(1.0, max(0.0, dot / (norm_a * norm_b)))


def consistency_check(
    record,
    l1_threshold: float = DEFAULT_L1_THRESHOLD,
    cosine_threshold: float = DEFAULT_COSINE_THRESHOLD,
) -> list[ConsistencyReport]:
    """Cross-check every available pair of composition sources on a record.

    Sources are the alloy name (when it parses as a formula), the nominal
    composition, and the measured composition. A pair is flagged when its L1
    distance exceeds ``l1_threshold`` or its cosine similarity falls below
    ``cosine_threshold``.
    """
    sources: list[tuple[str, Composition]] = []
    name = getattr(record, "alloy_name", None)
    if name:
        try:
            sources.append(("alloy_name", parse_formula(name)))
        except CompositionError:
            pass
    for label in ("nominal_composition", "measured_composition"):
        comp = getattr(record, label, None)
        if comp is not None:
            sources.append((label, comp))
    if len(sources) < 2:
        raise NothingToCompare(
            f"record has {len(sources)} parseable composition source(s); need at least 2"
        )
    reports = []
    for (label_a, comp_a), (label_b, comp_b) in combinations(sources, 2):
        l1 = l1_distance(comp_a, comp_b)
        cos = cosine_similarity(comp_a, comp_b)
        reports.append(
            ConsistencyReport(
                l1=l1,
                cosine=cos,
                flagged=(l1 > l1_threshold) or (cos < cosine_threshold),
                compared_pair=(label_a, label_b),
            )
        )
    return reports
