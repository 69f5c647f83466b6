"""Alloy composition algebra.

Parses chemical formula strings into normalized atomic-fraction vectors and
computes the agreement measures (L1 distance, cosine similarity) used to
cross-check the alloy name, nominal composition, and measured composition
fields of an extracted record.
"""

from __future__ import annotations

import math
import re
import weakref
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

# consistency_check flags a pair of sources beyond either bound
CONSISTENCY_L1 = 0.1
CONSISTENCY_COSINE = 0.99

# characters that merely separate constituents in formula strings
_SEPARATORS = " \t-–—,·"
_NUMBER = r"\d+(?:\.\d*)?|\.\d+"
# one formula token per match: a run of separators, an element symbol (checked
# afterwards) with its subscript, a group opener, a group closer with its
# multiplier, or any other single character, which is an error
_FORMULA_TOKEN_RE = re.compile(
    rf"[{re.escape(_SEPARATORS)}]+"
    rf"|([A-Z][a-z]?)({_NUMBER})?"
    r"|([(\[{])"
    rf"|([)\]}}])({_NUMBER})?"
    r"|(.)",
    re.DOTALL,
)
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


class NothingToCompare(CompositionError):
    """Fewer than two parseable composition sources on the record."""


class _WeakReferable:
    """A slotted base that lets a slotted subclass be weakly referenced
    (``dataclass(weakref_slot=True)`` needs Python 3.11)."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True)
class Composition(_WeakReferable):
    """Element symbol -> atomic fraction; fractions are positive and sum to 1."""

    fractions: dict[str, float]

    def __post_init__(self):
        # from_coefficients makes these checks itself, in this order and with these
        # messages, and skips this method: keep the two in step
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

        The same pass makes ``__post_init__``'s checks, in its order and with
        its messages, so the instance is built without running them again.
        The sum check still follows: fractions kept verbatim can sum to 1
        within 1e-9 in input order and miss it in sorted order.
        """
        coeffs = {sym: f for sym, c in coefficients.items() if (f := float(c)) != 0.0}
        if not coeffs:
            raise EmptyFormula("no nonzero coefficients")
        total = sum(coeffs.values())
        if not math.isfinite(total) or total <= 0:
            raise CompositionError(f"coefficients sum to {total!r}")
        # a finite total means finite coefficients, which dividing by 1.0 keeps verbatim
        divisor = total if abs(total - 1.0) > 1e-9 else 1.0
        fractions = {}
        for sym in sorted(coeffs):
            if sym not in ELEMENT_SYMBOLS:
                raise UnknownElement(f"unknown element symbol {sym!r}")
            frac = coeffs[sym] / divisor
            if not 0.0 < frac < math.inf:
                raise CompositionError(f"fraction for {sym} must be positive, got {frac!r}")
            fractions[sym] = frac
        fraction_sum = sum(fractions.values())
        if abs(fraction_sum - 1.0) > 1e-9:
            raise CompositionError(f"fractions sum to {fraction_sum!r}, expected 1 within 1e-9")
        composition = object.__new__(cls)
        object.__setattr__(composition, "fractions", fractions)
        return composition

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


# exact formula text -> its Composition, while anything else holds that Composition
_PARSED: "weakref.WeakValueDictionary[str, Composition]" = weakref.WeakValueDictionary()


def parse_formula(text: str) -> Composition:
    """Parse a chemical formula with optional real subscripts into a Composition.

    Elements without subscripts have implied coefficient 1; repeated symbols
    are summed; parenthesized groups distribute their trailing multiplier over
    the group's coefficients. Whitespace, hyphens, and middle dots separate
    constituents and are ignored.

    Equal texts give one shared Composition while anything holds it: each
    parsed text is kept in a weak-value memo, which keeps no Composition
    alive, so an entry goes when the last holder of its Composition does. A
    text that fails to parse is not kept and fails afresh on every call.
    """
    composition = _PARSED.get(text)
    if composition is None:
        # threads that miss one text together each parse it; the last store
        # wins, and their compositions are equal
        composition = _PARSED[text] = _parse_formula(text)
    return composition


def _parse_formula(text: str) -> Composition:
    if text is None:
        raise EmptyFormula("formula is None")
    # every match of either pattern contains its guard, so the guards skip no match
    if "wt" in text.lower() and _WT_PERCENT_RE.search(text):
        raise UnsupportedUnits(f"weight-percent composition not supported: {text!r}")
    s = _AT_PERCENT_RE.sub(" ", text) if "%" in text else text
    # the coefficients of each open group, innermost last
    groups: list[dict[str, float]] = [{}]
    for m in _FORMULA_TOKEN_RE.finditer(s):
        symbol, count, opener, closer, multiplier, other = m.groups()
        if symbol is not None:
            if symbol not in ELEMENT_SYMBOLS:
                _reject_symbol(s, m.start(), symbol)
            coeffs = groups[-1]
            coeffs[symbol] = coeffs.get(symbol, 0.0) + (1.0 if count is None else float(count))
        elif opener is not None:
            groups.append({})
        elif closer is not None:
            if len(groups) == 1:
                raise CompositionError(f"stray {closer!r} at position {m.start()} in {s!r}")
            inner = groups.pop()
            mult = 1.0 if multiplier is None else float(multiplier)
            coeffs = groups[-1]
            for sym, c in inner.items():
                coeffs[sym] = coeffs.get(sym, 0.0) + c * mult
        elif other is not None:
            _reject_character(s, m.start())
    if len(groups) > 1:
        raise CompositionError(f"unclosed group in formula {s!r}")
    return Composition.from_coefficients(groups[0])


def _reject_symbol(s: str, i: int, symbol: str) -> None:
    """Raise for a capitalized token that names no element.

    A two-letter token whose first letter is an element reads as that element
    followed by a lowercase letter, which is a symbolic subscript.
    """
    if len(symbol) == 2 and symbol[0] in ELEMENT_SYMBOLS:
        raise UnresolvedVariable(
            f"symbolic subscript {symbol[1]!r} at position {i + 1} in {s!r} has no numeric value"
        )
    _reject_character(s, i)


def _reject_character(s: str, i: int) -> None:
    """Raise for the character at ``i``, which starts no formula token."""
    ch = s[i]
    if ch.isupper():
        two = s[i : i + 2]
        bad = two if len(two) == 2 and two[1].islower() else ch
        raise UnknownElement(f"unknown element symbol {bad!r} at position {i} in {s!r}")
    if ch.islower():
        raise UnresolvedVariable(
            f"symbolic subscript {ch!r} at position {i} in {s!r} has no numeric value"
        )
    raise CompositionError(f"unexpected character {ch!r} at position {i} in {s!r}")


def l1_distance(a: Composition, b: Composition) -> float:
    """Sum of absolute fraction differences over the union of element supports.

    ``math.fsum`` rounds the sum correctly, so the result does not depend on
    the order in which the support set is walked (which follows string
    hashing and so changes between processes).
    """
    if a is b:
        return 0.0  # the sum of zero differences
    fa, fb = a.fractions, b.fractions
    support = fa.keys() | fb.keys()
    return math.fsum(abs(fa.get(sym, 0.0) - fb.get(sym, 0.0)) for sym in support)


def cosine_similarity(a: Composition, b: Composition) -> float:
    """Cosine of the two fraction vectors over the union support, in [0, 1].

    A composition's fractions are positive and sum to 1, so neither norm is 0.
    Each sum is ``math.fsum``, exact and rounded once, so the zero terms off
    each support are left out and the result depends neither on the order
    the elements are walked nor on the interpreter (builtin ``sum`` of floats
    is compensated from Python 3.12 and plain before it).
    """
    fa, fb = a.fractions, b.fractions
    dot = math.fsum(fa[sym] * fb[sym] for sym in fa.keys() & fb.keys())
    norm_a = math.sqrt(math.fsum(x ** 2 for x in fa.values()))
    norm_b = math.sqrt(math.fsum(x ** 2 for x in fb.values()))
    return min(1.0, max(0.0, dot / (norm_a * norm_b)))


def consistency_check(record) -> list[ConsistencyReport]:
    """Cross-check every available pair of composition sources on a record.

    Sources are the alloy name (when it parses as a formula), the nominal
    composition, and the measured composition. A pair is flagged when its L1
    distance exceeds ``CONSISTENCY_L1`` or its cosine similarity falls below
    ``CONSISTENCY_COSINE``.
    """
    sources: list[tuple[str, Composition]] = []
    if record.alloy_name:
        try:
            sources.append(("alloy_name", parse_formula(record.alloy_name)))
        except CompositionError:
            pass
    for label in ("nominal_composition", "measured_composition"):
        comp = getattr(record, label)
        if comp is not None:
            sources.append((label, comp))
    if len(sources) < 2:
        raise NothingToCompare(
            f"record has {len(sources)} parseable composition source(s); need at least 2"
        )
    reports = []
    # sources holding one object repeat a pair of objects, which is scored once
    scores: dict[tuple[int, int], tuple[float, float]] = {}
    for (label_a, comp_a), (label_b, comp_b) in combinations(sources, 2):
        pair = (id(comp_a), id(comp_b))
        if pair not in scores:
            scores[pair] = l1_distance(comp_a, comp_b), cosine_similarity(comp_a, comp_b)
        l1, cos = scores[pair]
        reports.append(
            ConsistencyReport(
                l1=l1,
                cosine=cos,
                flagged=(l1 > CONSISTENCY_L1) or (cos < CONSISTENCY_COSINE),
                compared_pair=(label_a, label_b),
            )
        )
    return reports
