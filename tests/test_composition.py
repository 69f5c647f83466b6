import os
import pickle
import random
import subprocess
import sys
import threading
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alloyforge import composition
from alloyforge.composition import (
    Composition,
    CompositionError,
    ConsistencyReport,
    EmptyFormula,
    NothingToCompare,
    UnknownElement,
    UnresolvedVariable,
    UnsupportedUnits,
    consistency_check,
    cosine_similarity,
    l1_distance,
    parse_formula,
)
from alloyforge.records import DocumentId, make_record, record_from_object

from tests.oracles import (
    random_composition,
    reference_consistency_check,
    reference_cosine_similarity,
    reference_from_coefficients,
    reference_parse_formula,
)


class TestParseFormula:
    def test_equiatomic(self):
        comp = parse_formula("AlHfNbTaTiZr")
        assert set(comp.fractions) == {"Al", "Hf", "Nb", "Ta", "Ti", "Zr"}
        for fraction in comp.fractions.values():
            assert fraction == pytest.approx(1 / 6, abs=1e-12)

    def test_fractional_subscript(self):
        comp = parse_formula("Al0.5CoFeNi")
        assert comp.fractions["Al"] == pytest.approx(0.142857, abs=1e-6)
        assert comp.fractions["Co"] == pytest.approx(0.285714, abs=1e-6)

    def test_symbolic_subscript_rejected(self):
        with pytest.raises(UnresolvedVariable):
            parse_formula("AlxCoCrFeNi")

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            parse_formula("Qx2Fe")

    def test_empty(self):
        with pytest.raises(EmptyFormula):
            parse_formula("")

    def test_weight_percent_rejected(self):
        with pytest.raises(UnsupportedUnits):
            parse_formula("Fe 70 wt% Cr 30 wt%")

    def test_atomic_percent_marker_stripped(self):
        assert parse_formula("Al0.5CoFeNi (at.%)") == parse_formula("Al0.5CoFeNi")

    def test_group_multiplier_distributes(self):
        comp = parse_formula("(CoCrNi)0.9Al0.1")
        total = 3 * 0.9 + 0.1
        assert comp.fractions["Co"] == pytest.approx(0.9 / total)
        assert comp.fractions["Al"] == pytest.approx(0.1 / total)

    def test_repeated_symbols_summed(self):
        assert parse_formula("FeNiFe") == parse_formula("Fe2Ni")

    def test_separators_ignored(self):
        assert parse_formula("Al-Co-Cr-Fe-Ni") == parse_formula("AlCoCrFeNi")

    def test_zero_coefficient_dropped(self):
        assert parse_formula("Al0CoNi") == parse_formula("CoNi")

    def test_canonical_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            comp = random_composition(rng)
            once = parse_formula(comp.canonical_formula())
            twice = parse_formula(once.canonical_formula())
            for sym in once.fractions:
                assert abs(once.fractions[sym] - twice.fractions[sym]) <= 1e-12

    def test_full_precision_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            comp = random_composition(rng)
            assert parse_formula(comp.full_precision_formula()) == comp
        # repr switches to exponent notation below 1e-4
        for tiny in (1e-5, 3.3e-7, 1e-12):
            comp = Composition.from_coefficients({"Mo": 1, "Nb": 0.5, "W": tiny})
            assert parse_formula(comp.full_precision_formula()) == comp


class TestParseMemo:
    """Equal texts share one Composition while anything holds it; the memo
    keeps no failure and nothing alive."""

    @pytest.mark.parametrize("text, error", [
        ("AlxCoCrFeNi", UnresolvedVariable),
        ("Fe 70 wt% Cr 30 wt%", UnsupportedUnits),
    ])
    def test_a_failing_text_fails_alike_on_every_call(self, text, error):
        outcomes = []
        for _ in range(3):
            with pytest.raises(CompositionError) as caught:
                parse_formula(text)
            outcomes.append((type(caught.value), str(caught.value)))
        assert outcomes[0][0] is error
        assert outcomes == [outcomes[0]] * 3
        assert text not in composition._PARSED

    def test_threads_parsing_the_same_texts_get_equal_compositions(self):
        rng = random.Random(30)
        symbols = ("Al", "Co", "Cr", "Fe", "Hf", "Mo", "Nb", "Ni", "Ta", "Ti", "V", "W", "Zr")
        texts = ["".join(f"{sym}{rng.randint(1, 999) / 100}"
                         for sym in rng.sample(symbols, rng.randint(2, 6)))
                 for _ in range(4000)]
        results = [None] * 4

        def parse_all(k):
            results[k] = [parse_formula(text) for text in texts]

        threads = [threading.Thread(target=parse_all, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        # every text starts as a miss, so the threads race to fill each entry
        with mock.patch.object(composition, "_PARSED", type(composition._PARSED)()):
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = [reference_parse_formula(text) for text in texts]
        for result in results:
            assert result == expected

    def test_a_pickled_composition_is_equal_and_weakly_referable(self):
        comp = parse_formula("Mo25Nb25Ta25W25")
        loaded = pickle.loads(pickle.dumps(comp))
        assert loaded == comp and loaded is not comp
        assert weakref.ref(loaded)() is loaded


# one- and two-letter symbols sharing a first letter, non-symbols, subscripts,
# groups, separators, unit marks and lowercase variables
_FORMULA_TOKENS = (
    "C", "Co", "N", "Nb", "Al", "Fe", "Ni", "W", "Ta", "At",
    "J", "Xx", "Cµ", "Q",
    "2", "0.5", ".5", "10", "1.", "0.25", "3.333",
    "(", ")", "[", "]", "{", "}", ")2", "]0.5", "}.5",
    " ", "-", "–", "—", ",", "·", "\t",
    "at.%", "(at%)", "at %", "AT%", "%", "wt%", "wt.%", "WT", "Wt", " wt ", "x", "y", "at",
)
_SUBSCRIPTS = st.sampled_from(("", "", "2", "0.5", ".5", "1.", "10", "3.333"))
_formula_part = st.recursive(
    st.tuples(st.sampled_from(("C", "Co", "N", "Nb", "Al", "Fe", "W")), _SUBSCRIPTS).map("".join),
    lambda inner: st.tuples(
        st.sampled_from("([{"),
        st.lists(inner, min_size=1, max_size=3).map("".join),
        st.sampled_from(")]}"),
        _SUBSCRIPTS,
    ).map("".join),
    max_leaves=6,
)
_well_formed = st.lists(
    st.tuples(_formula_part, st.sampled_from(("", " ", "-", "·", ", "))).map("".join),
    min_size=1,
    max_size=5,
).map("".join)
_formula_texts = st.one_of(
    _well_formed,
    st.lists(st.sampled_from(_FORMULA_TOKENS), max_size=14).map("".join),
    st.text(alphabet="CoNbJXxµW0123456789.()[]{} -–—,·at%T", max_size=16),
)


def _outcome(parse, text):
    try:
        return list(parse(text).fractions.items())
    except Exception as exc:
        return type(exc), str(exc)


class TestParseFormulaAgainstReference:
    """The parser gives the reference parser's fractions, or its error class and message."""

    @settings(max_examples=1500, deadline=None)
    @given(_formula_texts)
    @example("Cµ2")
    @example("NbCoC(NNb)2[Co{Xx}]")
    @example("(Al0.5Co)2 at.% Ni")
    @example("FeNi WT")
    @example("Fe50Ni50 (AT%)")
    @example("Co.5N)")
    @example("[CoNi")
    def test_same_result(self, text):
        assert _outcome(parse_formula, text) == _outcome(reference_parse_formula, text)


# symbols in and out of the periodic table, and coefficient values float()
# reads or refuses: ints, floats (zeros, negatives, NaN, inf, subnormals),
# numbers near overflow, numeric and non-numeric strings, and None
_COEFFICIENT_SYMBOLS = st.sampled_from(("Al", "Co", "Fe", "Nb", "Ni", "W", "Zr", "Xx", "fe", "Q"))
_NEAR_OVERFLOW = st.sampled_from((1e308, 1.7976931348623157e308, -1e308, 9e307, 1e-320))
_coefficient_values = st.one_of(
    st.integers(-3, 1000),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 10.0),
    _NEAR_OVERFLOW,
    st.one_of(st.floats(-10.0, 1e6), st.integers(-5, 100), _NEAR_OVERFLOW).map(str),
    st.sampled_from(("", "x", " 2 ", "nan", "-inf", "1e309", "0", "0.0", None)),
)


@st.composite
def _coefficients_summing_to_one(draw):
    symbols = draw(st.lists(_COEFFICIENT_SYMBOLS, min_size=1, max_size=7, unique=True))
    raw = draw(st.lists(st.floats(1e-6, 1e3), min_size=len(symbols), max_size=len(symbols)))
    # a sum just inside or just outside the 1e-9 tolerance
    total = sum(raw) * draw(st.sampled_from((1.0, 1 + 1e-12, 1 - 5e-10, 1 + 2e-9, 1 - 2e-9)))
    return {sym: c / total for sym, c in zip(symbols, raw)}


def _coefficients_outcome(build, coefficients):
    try:
        return [(sym, frac.hex()) for sym, frac in build(coefficients).fractions.items()]
    except Exception as exc:
        return type(exc), str(exc)


class TestFromCoefficientsAgainstReference:
    """``from_coefficients`` gives the reference's fraction bytes and key order,
    or its error class and message."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.dictionaries(_COEFFICIENT_SYMBOLS, _coefficient_values, max_size=7),
        _coefficients_summing_to_one(),
    ))
    @example({"Ni": "x", "Fe": None})
    @example({"Fe": 1e308, "Ni": 1e308})
    @example({"Fe": 1.7976931348623157e308})
    @example({"W": 0.25, "Al": 0.75})
    @example({"W": 0.25, "Al": 0.7500000005})
    @example({"Zr": 0.1, "Co": 0.2, "Al": 0.3, "Nb": 0.4})
    @example({"Xx": 1, "Q": 2, "Fe": 1})
    @example({"Ni": 3, "Fe": -1})
    @example({"Fe": 0, "Ni": 0.0, "W": "0"})
    # sums to 1 within 1e-9 in input order, so it is kept verbatim, but its
    # sorted fractions sum to 1.000000001 and are refused
    @example({"W": 0.24798206661923172, "Fe": 0.2811760115788584, "Al": 0.4708419228019098})
    def test_same_result(self, coefficients):
        assert _coefficients_outcome(Composition.from_coefficients, coefficients) == (
            _coefficients_outcome(reference_from_coefficients, coefficients)
        )


class TestDirectConstruction:
    """``Composition(...)`` checks its fractions itself; ``from_coefficients``
    skips these checks because it makes them as it builds."""

    @pytest.mark.parametrize("fractions, error, message", [
        ({}, EmptyFormula, "composition has no elements"),
        ({"Xx": 1.0}, UnknownElement, "unknown element symbol 'Xx'"),
        ({"Fe": -0.5, "Ni": 1.5}, CompositionError, "fraction for Fe must be positive, got -0.5"),
        ({"Fe": float("inf")}, CompositionError, "fraction for Fe must be positive, got inf"),
        ({"Fe": 0.5, "Ni": 0.6}, CompositionError, "fractions sum to 1.1, expected 1 within 1e-9"),
    ])
    def test_invalid_fractions_are_refused(self, fractions, error, message):
        with pytest.raises(CompositionError) as caught:
            Composition(fractions)
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestDistances:
    def test_identity(self):
        a = parse_formula("Al0.5Ni0.5")
        assert l1_distance(a, a) == 0.0
        assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_unit_vectors(self):
        a, b = parse_formula("Al"), parse_formula("Ni")
        assert l1_distance(a, b) == pytest.approx(2.0)
        assert cosine_similarity(a, b) == pytest.approx(0.0)

    def test_hand_derived_pair(self):
        a = parse_formula("Al0.5Ni0.5")
        b = parse_formula("Al0.25Ni0.75")
        assert l1_distance(a, b) == pytest.approx(0.5, abs=1e-4)
        assert cosine_similarity(a, b) == pytest.approx(0.8944, abs=1e-4)

    def test_scaling_invariance(self):
        base = parse_formula("Al2Ni6")
        scaled = parse_formula("Al1Ni3")
        probe = parse_formula("CoCrNi")
        assert cosine_similarity(base, probe) == pytest.approx(
            cosine_similarity(scaled, probe), abs=1e-12
        )

    def test_metric_axioms(self):
        rng = np.random.default_rng(1234)
        comps = [random_composition(rng) for _ in range(60)]
        for _ in range(1000):
            a, b, c = (comps[int(i)] for i in rng.integers(0, len(comps), 3))
            dab, dba = l1_distance(a, b), l1_distance(b, a)
            assert dab >= 0.0
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dab <= 2.0 + 1e-12
            assert l1_distance(a, c) <= dab + l1_distance(b, c) + 1e-12
            cos = cosine_similarity(a, b)
            assert 0.0 <= cos <= 1.0
        for comp in comps[:20]:
            assert l1_distance(comp, comp) == 0.0

    def test_cosine_similarity_same_bits_as_reference(self):
        rng = np.random.default_rng(2024)
        comps = [random_composition(rng, max_elements=7) for _ in range(80)]
        comps += [parse_formula(text) for text in ("Al", "Ni", "Al0.5Ni0.5", "CoCrFeMnNi")]
        for _ in range(3000):
            a, b = (comps[int(i)] for i in rng.integers(0, len(comps), 2))
            assert cosine_similarity(a, b) == reference_cosine_similarity(a, b)

    def test_cosine_similarity_of_one_object_and_one_element_same_bits_as_reference(self):
        rng = np.random.default_rng(2025)
        comps = [random_composition(rng, max_elements=7) for _ in range(200)]
        comps += [parse_formula(text) for text in ("Al", "W", "Fe2", "Al0.5Ni0.5", "CoCrFeMnNi",
                                                    "Al0.3CoCrFeNi", "Mo25Nb25Ta25W25")]
        singles = [parse_formula(symbol) for symbol in ("Al", "Co", "Nb", "W", "Zr")]
        for a in comps + singles:
            assert cosine_similarity(a, a) == reference_cosine_similarity(a, a)
            assert l1_distance(a, a) == 0.0
        for a in singles:
            for b in comps + singles:
                assert cosine_similarity(a, b) == reference_cosine_similarity(a, b)
                assert cosine_similarity(b, a) == reference_cosine_similarity(b, a)

    # pairs whose cosine Python 3.11's plain and 3.12's compensated builtin
    # ``sum`` round to different bits
    @pytest.mark.parametrize("a, b, expected", [
        ({"Cr": 0.26, "Ni": 0.25, "Ta": 0.49}, {"Cr": 0.1, "Fe": 0.29, "W": 0.61},
         "0x1.0058f0a4e18f0p-4"),
        ({"Co": 0.18, "Fe": 0.23, "W": 0.59}, {"Al": 0.14, "Co": 0.4, "Fe": 0.27, "Ti": 0.19},
         "0x1.8445a46b27bdcp-2"),
        ({"Al": 0.39, "Nb": 0.1, "Ti": 0.51}, {"Al": 0.07, "Co": 0.25, "Nb": 0.22, "Ti": 0.46},
         "0x1.86f6d07f9bea0p-1"),
        ({"Co": 0.2, "Cr": 0.2, "Fe": 0.2, "Mn": 0.2, "Ni": 0.2},
         {"Co": 0.2, "Cr": 0.21, "Fe": 0.18, "Mn": 0.23, "Ni": 0.18}, "0x1.fdb620affdd2dp-1"),
    ])
    def test_cosine_similarity_has_the_same_bits_on_every_python(self, a, b, expected):
        comp_a, comp_b = Composition(a), Composition(b)
        assert cosine_similarity(comp_a, comp_b).hex() == expected
        assert cosine_similarity(comp_b, comp_a).hex() == expected
        assert reference_cosine_similarity(comp_a, comp_b).hex() == expected

    def test_l1_distance_is_independent_of_string_hashing(self):
        # element sets iterate in hash order, which PYTHONHASHSEED changes
        script = (
            "import numpy as np\n"
            "from alloyforge.composition import l1_distance\n"
            "from tests.oracles import random_composition\n"
            "rng = np.random.default_rng(7)\n"
            "pairs = [(random_composition(rng, max_elements=7),"
            " random_composition(rng, max_elements=7)) for _ in range(200)]\n"
            "print(' '.join(l1_distance(a, b).hex() for a, b in pairs))\n"
        )
        root = Path(__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])}
            done = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                                  capture_output=True, text=True, timeout=120, check=True)
            outputs.append(done.stdout.split())
        assert len(outputs[0]) == 200
        assert outputs[0] == outputs[1]


class TestConsistencyCheck:
    doc = DocumentId("docX")

    def test_identical_not_flagged(self):
        record = make_record(
            self.doc, alloy_name="MoNbTaW",
            nominal_composition="MoNbTaW", measured_composition="MoNbTaW",
        )
        reports = consistency_check(record)
        assert len(reports) == 3  # name/nominal, name/measured, nominal/measured
        for report in reports:
            assert isinstance(report, ConsistencyReport)
            assert report.l1 == pytest.approx(0.0, abs=1e-12)
            assert report.cosine == pytest.approx(1.0, abs=1e-12)
            assert not report.flagged

    def test_disagreement_flagged(self):
        record = make_record(
            self.doc, nominal_composition="Al0.5Ni0.5", measured_composition="Al0.25Ni0.75"
        )
        (report,) = consistency_check(record)
        assert report.compared_pair == ("nominal_composition", "measured_composition")
        assert report.flagged

    def test_single_source_rejected(self):
        record = make_record(self.doc, nominal_composition="MoNbTaW")
        with pytest.raises(NothingToCompare):
            consistency_check(record)

    def test_unparseable_name_skipped(self):
        record = make_record(
            self.doc, alloy_name="alloy B2-type", nominal_composition="MoNbTaW",
            measured_composition="MoNbTaW",
        )
        reports = consistency_check(record)
        assert {r.compared_pair for r in reports} == {
            ("nominal_composition", "measured_composition")
        }


# composition texts for the name, nominal and measured fields of one record,
# few enough that equal texts are common: two texts of one composition, a
# one-element one, texts that fail to parse as a field (and are then no
# source, though a name may repeat them), names that are no formula, and the
# sentinel
_CONSISTENCY_TEXTS = ("MoNbTaW", "Mo25Nb25Ta25W25", "CoCrFeNi", "Al0.5CoCrFeNi", "W",
                      "CoCrFeNix", "Fe50Ni50 wt%", "Not found")
_NAME_TEXTS = _CONSISTENCY_TEXTS + ("alloy B2-type", "HEA-1", "")


def _consistency_outcome(check, record):
    try:
        reports = check(record)
    except NothingToCompare as exc:
        return NothingToCompare, str(exc)
    return [(r.l1.hex(), r.cosine.hex(), r.flagged, r.compared_pair) for r in reports]


class TestConsistencyCheckAgainstReference:
    """Sources that reuse a field's composition give the reports of parsing
    every source's text afresh, bit for bit, and the same ``NothingToCompare``."""

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(_NAME_TEXTS), st.sampled_from(_CONSISTENCY_TEXTS),
           st.sampled_from(_CONSISTENCY_TEXTS))
    @example("MoNbTaW", "MoNbTaW", "MoNbTaW")
    @example("CoCrFeNix", "CoCrFeNix", "CoCrFeNi")
    @example("CoCrFeNi", "Al0.5CoCrFeNi", "CoCrFeNi")
    @example("Mo25Nb25Ta25W25", "MoNbTaW", "MoNbTaW")
    @example("W", "Fe50Ni50 wt%", "W")
    def test_same_reports(self, name, nominal, measured):
        obj = {"alloy_name": name, "nominal_composition": nominal,
               "measured_composition": measured}
        record, _ = record_from_object(obj, DocumentId("docX"))
        assume(record is not None)
        assert _consistency_outcome(consistency_check, record) == (
            _consistency_outcome(reference_consistency_check, record))
