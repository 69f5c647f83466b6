import dataclasses
import gc
import json
import math
import pickle
import re
import time
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alloyforge import composition, records
from alloyforge.composition import Composition, parse_formula
from alloyforge.pipeline import load_dataset
from alloyforge.records import (
    GROUND_TRUTH_COLUMNS,
    MISSING_SENTINEL,
    SCHEMA_KEYS,
    AlloyRecord,
    DocumentId,
    GroundTruthError,
    MalformedOutput,
    MissingColumn,
    PHASE_KINDS,
    PROCESSING_KINDS,
    RecordError,
    group_by_doc,
    is_missing,
    load_ground_truth,
    make_record,
    parse_length,
    parse_record_set,
    record_from_object,
    record_to_object,
    serialize_record_set,
    _phase_of,
    _processing_of,
)

from tests.oracles import (
    random_composition,
    reference_extract_entries,
    reference_is_missing,
    reference_parse_length,
    reference_record_from_object,
)

DOC = DocumentId("doc1")


def phase_of(text):
    return make_record(DOC, alloy_name="HfNbTaTiZr", phase=text).phase


def processing_of(text):
    return make_record(DOC, alloy_name="HfNbTaTiZr", processing=text).processing


class TestFieldNormalization:
    def test_missing_sentinel_variants(self):
        for text in ("Not found", "NOT FOUND", "  not   found ", "", None):
            assert is_missing(text)
        assert not is_missing("3.19")

    def test_phase_tokens(self):
        assert phase_of("bcc") == "BCC"
        assert phase_of("body-centred cubic") == "BCC"
        assert phase_of("body-centered cubic (BCC)") == "BCC"
        assert phase_of("FCC solid solution") == "FCC"
        assert phase_of("hexagonal close-packed") == "HCP"
        assert phase_of("amorphous") == "amorphous"
        assert phase_of("BCC + FCC") == "multiphase"
        assert phase_of("dual-phase BCC") == "multiphase"
        assert phase_of("BCC with B2 ordering") == "multiphase"
        for ordered in ("B2", "L12", "Laves phase", "sigma"):
            assert phase_of(ordered) == "other"
        assert phase_of("face-centred cubic") == "FCC"
        assert phase_of("metallic glass") == "amorphous"
        assert phase_of("BCC + B2") == "multiphase"
        assert phase_of("C14 structure") == "other"
        assert phase_of("Not found") == "unknown"

    def test_processing_tokens(self):
        assert processing_of("as-cast") == "as_cast"
        assert processing_of("arc-melted and cast") == "as_cast"
        assert processing_of("annealed at 1200 C") == "annealed"
        assert processing_of("as-cast then annealed") == "annealed"
        assert processing_of("powder metallurgy") == "powder_processed"
        assert processing_of("spark plasma sintering") == "powder_processed"
        assert processing_of("selective laser melting (SLM)") == "additive"
        assert processing_of("Not found") == "unreported"
        assert processing_of("magnetron sputtered film") == "other"

    def test_record_fields_map_sentinels_and_text_to_kinds(self):
        # record_from_object classifies only text it found present; sentinel
        # and empty fields come out as the absent kinds
        expected = {
            None: ("unknown", "unreported"),
            "": ("unknown", "unreported"),
            "  ": ("unknown", "unreported"),
            "Not found": ("unknown", "unreported"),
            " not   FOUND ": ("unknown", "unreported"),
            "bcc": ("BCC", "other"),
            "BCC + FCC": ("multiphase", "other"),
            "metallic glass": ("amorphous", "other"),
            "as-cast": ("other", "as_cast"),
            "annealed at 1200 C": ("other", "annealed"),
            "spark plasma sintering": ("other", "powder_processed"),
            "magnetron sputtered film": ("other", "other"),
        }
        for text, (phase, processing) in expected.items():
            obj = {"alloy_name": "HfNbTaTiZr", "phase": text, "processing_condition": text}
            record, _ = record_from_object(obj, DocumentId("d01"))
            assert (record.phase, record.processing) == (phase, processing)

    def test_cached_kinds_equal_the_uncached_parse(self):
        vocabulary = [
            "bcc", "BCC", " bcc ", "Body-Centred  Cubic", "FCC solid solution",
            "fcc\tsolid solution", "hexagonal close-packed", "amorphous", "BCC + FCC",
            "dual-phase BCC", "B2", "L12", "Laves phase", "sigma", "metallic glass",
            "C14 structure", "as-cast", "As-Cast", "  as-cast\n", "arc-melted and cast",
            "annealed at 1200 C", "ANNEALED  at 1200 C", "powder metallurgy",
            "spark plasma sintering", "selective laser melting (SLM)",
            "magnetron sputtered film",
        ]
        for text in vocabulary * 2:  # the second pass reads the cache
            assert _phase_of(text) == _phase_of.__wrapped__(text)
            assert _processing_of(text) == _processing_of.__wrapped__(text)
            assert _phase_of(text) in PHASE_KINDS
            assert _processing_of(text) in PROCESSING_KINDS
        assert _phase_of.cache_info().hits >= len(vocabulary)

    def test_length_units(self):
        assert parse_length("3.19") == 3.19
        assert parse_length("0.319 nm") == 3.19
        assert parse_length("319 pm") == 3.19
        assert parse_length("3.19 Å") == 3.19
        assert parse_length("3.19 angstrom") == 3.19
        assert parse_length("0.360 nm") == pytest.approx(3.60, abs=1e-12)
        assert parse_length("360 pm") == pytest.approx(3.60, abs=1e-12)
        assert parse_length("3.60 angstrom") == 3.60
        assert parse_length("3.19 +/- 0.02") == 3.19
        # a space-group symbol before the value is not read as the number
        assert parse_length("Fm-3m, 3.60 Å") == 3.60
        assert parse_length("Im-3m 0.319 nm") == 3.19
        assert parse_length("P63/mmc a=3.2 Å") == 3.2
        # a unit glued to its number is still the unit, but not inside a word
        assert parse_length("0.36nm") == pytest.approx(3.60, abs=1e-12)
        assert parse_length("360pm") == pytest.approx(3.60, abs=1e-12)
        assert parse_length("a = 0.3601nm") == pytest.approx(3.601, abs=1e-12)
        assert parse_length("0.319NM") == pytest.approx(3.19, abs=1e-12)
        assert parse_length("3.19 Å (xnm)") == 3.19
        assert parse_length("3.19 Å, 5nmol") == 3.19
        for text in ("unreadable", "-3.2", "0 nm"):
            with pytest.raises(RecordError):
                parse_length(text)

    def test_decimal_comma_is_a_field_issue(self):
        for text, written in (("3,60 Å", "3.60"), ("a = 3,601", "3.601"), ("0,36 nm", "0.36")):
            with pytest.raises(RecordError, match=f"decimal comma .* write {written} "):
                parse_length(text)
        # the repair is suggested, never applied: the record keeps no lattice value
        record, issues = record_from_object(
            {"alloy_name": "MoNbTaW", "lattice_constant_angstrom": "3,60 Å"}, DOC)
        assert record.lattice_constant is None
        assert "lattice_constant_angstrom" not in record.raw_fields
        assert [(i.field, i.entry_dropped) for i in issues] == [
            ("lattice_constant_angstrom", False)]
        with pytest.raises(RecordError, match=r"decimal comma after '3\.6' in lattice field '3\.6,3\.7'$"):
            parse_length("3.6,3.7")
        # a comma that does not follow the value's digits is no decimal comma
        assert parse_length("3.60 Å, 298 K") == 3.60
        assert parse_length("Fm-3m, 3.60 Å") == 3.60

    def test_type_invariants(self):
        with pytest.raises(RecordError, match="unknown phase kind 'cubic'"):
            AlloyRecord(DOC, alloy_name="W", phase="cubic")
        with pytest.raises(RecordError, match="unknown processing kind 'forged'"):
            AlloyRecord(DOC, alloy_name="W", processing="forged")
        for length in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(RecordError, match="length must be positive and finite"):
                AlloyRecord(DOC, alloy_name="W", lattice_constant=length)
        for text in ("-1", "0", "1e999"):
            with pytest.raises(RecordError, match="length must be positive and finite"):
                parse_length(text)
        with pytest.raises(RecordError):
            make_record(DOC)                  # name or composition required

    def test_value_classes_are_frozen_slotted_and_pickle(self):
        record = make_record(DOC, alloy_name="MoNbTaW", nominal_composition="MoNbTaW",
                             phase="BCC", processing="as-cast", lattice_constant="3.19")
        values = (record, record.source, record.nominal_composition,
                  record_from_object({"phase": "BCC"}, DOC)[1][0])
        for value in values:
            assert not hasattr(value, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, dataclasses.fields(value)[0].name, None)
            assert pickle.loads(pickle.dumps(value)) == value


_SENTINELS = st.sampled_from([None, "Not found", "NOT FOUND", "  not   found ", ""])
_COEFFICIENTS = st.sampled_from(["", "1", "0.5", "1.25", "2", "0.05", "0.333"])
_FORMULAS = st.lists(
    st.tuples(st.sampled_from(["Al", "Co", "Cr", "Fe", "Mo", "Nb", "Ni", "Ta", "Ti", "W"]),
              _COEFFICIENTS),
    min_size=1, max_size=5,
).map(lambda parts: "".join(sym + coefficient for sym, coefficient in parts))
_LATTICES = st.builds(
    lambda value, unit: f"{value}{unit}",
    st.floats(0.01, 1000, allow_nan=False).map(lambda v: round(v, 4)),
    st.sampled_from(["", " nm", " pm", " Å", " angstrom", "  Å", " +/- 0.02 Å"]),
)
_FIELD_TEXTS = {
    "alloy_name": st.sampled_from(["MoNbTaW", "Cantor alloy", "HEA-1", " Alloy  B "]),
    "nominal_composition": _FORMULAS,
    "measured_composition": _FORMULAS,
    "phase": st.sampled_from(["BCC", "fcc", "BCC  +  FCC", "amorphous", "C14 Laves",
                              "body-centred cubic", "single-phase FCC solid solution"]),
    "processing_condition": st.sampled_from(["as-cast", "annealed at 1200 C", "SLM",
                                             "spark plasma sintering", "sputtered film"]),
    "lattice_constant_angstrom": _LATTICES,
}


def _sentinel_variant(upper, spaces):
    """ "not found" with each letter's case drawn and whitespace runs around and between."""
    cased = "".join(c.upper() if up else c for c, up in zip("notfound", upper))
    return spaces[0] + cased[:3] + spaces[1] + cased[3:] + spaces[2]


_WHITESPACE = st.text(alphabet=" \t\n\r\u00a0\u2003\u3000", max_size=3)
_SENTINEL_VARIANTS = st.builds(
    _sentinel_variant,
    st.lists(st.booleans(), min_size=8, max_size=8),
    st.tuples(_WHITESPACE, _WHITESPACE.filter(bool), _WHITESPACE),
)
# values a JSON or CSV field can carry: text, numbers, booleans, NumPy floats,
# containers, and None
_NON_TEXT = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10**20), st.floats(),
    st.floats(0.1, 10).map(np.float64), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(), max_size=1),
)
_MISSING_CANDIDATES = st.one_of(
    _SENTINEL_VARIANTS, _WHITESPACE, st.text(max_size=12), _NON_TEXT,
    st.sampled_from(["Not found", "Not found.", "Not", "not_found", "N", "n/a", "nan", "Nb"]),
)
# the shapes parse_length no longer reads as the reference does: a unit glued
# to a digit, and a digit or point followed by a comma and a digit
_CHANGED_LENGTH = re.compile(r"\d(?:nm|pm)|[\d.],\d", re.IGNORECASE)
_LENGTH_TEXTS = st.one_of(
    st.sampled_from(["3.19", "3.", ".5", "03.190", "1e0", "3.19e-1 nm", "-3.2", "+3.2", "0",
                     "0 nm", "unreadable", "Fm-3m, 3.60 Å", "Im-3m 0.319 nm", "P63/mmc a=3.2 Å",
                     "3.19 +/- 0.02", "319 PM", "0.319 Nm", "3.60 Å, 298 K", "٣.١٩"]),
    st.text(alphabet="0123456789.,+-eE nNpPmMÅa=/", max_size=12),
    _NON_TEXT,
)
_FORMULA_FIELD = st.one_of(
    _FORMULAS,
    st.sampled_from(["almonbti", "Cantor alloy", "Co1.1Cr0.9Nix", "wt% stuff", "Fe50Ni50 wt.%",
                     "(FeNi", "FeNi)", "Xx2", "2Fe", "Fe..5", "(Al0.5Co)2 at.% Ni", "HEA-1"]),
)
_FIELD_VALUES = {
    "alloy_name": st.one_of(_FIELD_TEXTS["alloy_name"], _FORMULA_FIELD, st.text(max_size=8)),
    "nominal_composition": _FORMULA_FIELD,
    "measured_composition": _FORMULA_FIELD,
    "phase": st.one_of(_FIELD_TEXTS["phase"], st.text(max_size=8)),
    "processing_condition": st.one_of(_FIELD_TEXTS["processing_condition"], st.text(max_size=8)),
    "lattice_constant_angstrom": _LENGTH_TEXTS,
}
_SENTINEL_OR_NON_TEXT = st.one_of(_SENTINEL_VARIANTS, _SENTINELS, _NON_TEXT)


def _measured_as_nominal(obj):
    """``obj`` with its measured composition written as its nominal one's value."""
    if "nominal_composition" not in obj:
        return obj
    return {**obj, "measured_composition": obj["nominal_composition"]}


def _length_outcome(parse, text):
    try:
        return parse(text).hex()
    except RecordError as exc:
        return type(exc), str(exc)


class TestFieldParsersAgainstReference:
    """``is_missing``, ``parse_length`` and ``record_from_object`` give the
    reference's results, records, issues and error messages."""

    @settings(max_examples=800, deadline=None)
    @given(_MISSING_CANDIDATES)
    @example("")
    @example("\u00a0Not Found")
    @example("n")
    def test_is_missing(self, value):
        assert is_missing(value) == reference_is_missing(value)

    @settings(max_examples=800, deadline=None)
    @given(_LENGTH_TEXTS)
    def test_parse_length(self, text):
        assume(not _CHANGED_LENGTH.search(str(text)))
        assert _length_outcome(parse_length, text) == _length_outcome(reference_parse_length, text)

    @settings(max_examples=800, deadline=None)
    @given(st.fixed_dictionaries(
        {},
        optional={key: values | _SENTINEL_OR_NON_TEXT for key, values in _FIELD_VALUES.items()},
    ).flatmap(lambda obj: st.sampled_from([obj, _measured_as_nominal(obj)])))
    def test_record_from_object(self, obj):
        assume(not _CHANGED_LENGTH.search(str(obj.get("lattice_constant_angstrom"))))
        assert record_from_object(obj, DOC, 3) == reference_record_from_object(obj, DOC, 3)


def _parse_outcome(text):
    try:
        result = parse_record_set(text, DOC)
    except MalformedOutput as exc:
        return str(exc)
    return result.records, result.issues


_RECORD_OBJECTS = st.fixed_dictionaries(
    {},
    optional={
        "alloy_name": st.sampled_from(["MoNbTaW", "Cantor alloy", "almonbti", "Not found"]),
        "nominal_composition": st.sampled_from(["Mo0.25Nb0.25Ta0.25W0.25", "Co1.1Cr0.9Nix",
                                                "Al0.5CoCrFeNi (at.%)", "", "wt% stuff"]),
        "phase": st.sampled_from(["BCC", "FCC + B2", "Not found"]),
        "lattice_constant_angstrom": st.sampled_from(["3.19", "0.319 nm", "Fm-3m, 3.60 Å", "-1"]),
    },
)
# JSON that is a record block, or stray JSON that is not one, each complete
_JSON_VALUES = st.one_of(
    st.lists(_RECORD_OBJECTS, max_size=3),
    _RECORD_OBJECTS,
    st.fixed_dictionaries({"records": st.lists(_RECORD_OBJECTS, min_size=1, max_size=2),
                           "note": st.sampled_from(["see [1]", "{sic}", "ok"])}),
    st.lists(st.one_of(st.integers(), st.floats(allow_nan=False), st.sampled_from(["a", "b c"])),
             min_size=1, max_size=4),
    st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=2), min_size=1, max_size=3),
).map(json.dumps)
# prose holds quotes, balanced citations and brackets left open, but no stray
# closing bracket, which would close a bracket left open earlier
_PROSE = st.lists(
    st.one_of(
        st.text(alphabet="abcXYZ 0123456789.,:;'\"\\-()Å\t", max_size=12),
        st.sampled_from(["[1]", "[2, 3]", "{sic}", "[see above]", "[", "{", "```"]),
    ),
    max_size=5,
).map("".join)
_COMPLETION_PARTS = st.one_of(
    _PROSE,
    _JSON_VALUES,
    # a block cut short, as a completion that hit its token limit
    st.tuples(_JSON_VALUES, st.integers(1, 60)).map(lambda t: t[0][: t[1]]),
    st.tuples(st.sampled_from(["```json\n", "```\n"]), _JSON_VALUES | _PROSE)
    .map(lambda t: f"{t[0]}{t[1]}\n```"),
)


class TestParseRecordSet:
    def test_plain_entry(self):
        text = json.dumps(
            [
                {
                    "alloy_name": "MoNbTaW",
                    "nominal_composition": "MoNbTaW",
                    "measured_composition": "Not found",
                    "phase": "BCC",
                    "processing_condition": "as-cast",
                    "lattice_constant_angstrom": "3.19",
                }
            ]
        )
        result = parse_record_set(text, DOC)
        assert len(result.records) == 1 and not result.issues
        record = result.records[0]
        assert record.lattice_constant == pytest.approx(3.19)
        assert record.phase == "BCC"
        assert record.processing == "as_cast"

    def test_not_found_lattice_absent(self):
        text = json.dumps([{"alloy_name": "MoNbTaW", "lattice_constant_angstrom": "Not found"}])
        result = parse_record_set(text, DOC)
        assert result.records[0].lattice_constant is None

    def test_empty_text_malformed(self):
        with pytest.raises(MalformedOutput):
            parse_record_set("", DOC)
        with pytest.raises(MalformedOutput):
            parse_record_set("no json anywhere", DOC)

    def test_deep_nesting_malformed(self):
        for opener in ("[", "{\"a\":"):
            with pytest.raises(MalformedOutput):
                parse_record_set(opener * 100_000, DOC)

    def test_block_after_deep_nesting_in_a_fence(self):
        block = json.dumps([{"alloy_name": "MoNbTaW"}])
        result = parse_record_set("[" * 5000 + f"\n```json\n{block}\n```", DOC)
        assert [r.alloy_name for r in result.records] == ["MoNbTaW"]

    def test_prose_and_fences(self):
        inner = json.dumps([{"alloy_name": "MoNbTaW"}])
        text = f"Sure! Here is the data:\n```json\n{inner}\n```\nLet me know."
        assert len(parse_record_set(text, DOC).records) == 1

    def test_single_object_accepted(self):
        text = json.dumps({"alloy_name": "MoNbTaW"})
        assert len(parse_record_set(text, DOC).records) == 1

    def test_no_silent_loss(self):
        entries = [
            {"alloy_name": "MoNbTaW"},
            {"phase": "BCC"},                      # no name, no composition: dropped
            {"alloy_name": "CoCrNi", "nominal_composition": "Co1.1Cr0.9Nix"},
            "not an object",
        ]
        result = parse_record_set(json.dumps(entries), DOC)
        dropped = {i.entry_index for i in result.issues if i.entry_dropped}
        assert len(result.records) + len(dropped) == 4
        assert len(result.records) == 2
        # the unresolved subscript surfaced as a field issue, record kept via name
        fields = {(i.entry_index, i.field) for i in result.issues}
        assert (2, "nominal_composition") in fields

    def test_bad_composition_dropped_without_name(self):
        result = parse_record_set(
            json.dumps([{"nominal_composition": "wt% stuff"}]), DOC
        )
        assert not result.records
        assert {i.entry_index for i in result.issues if i.entry_dropped} == {0}

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_COMPLETION_PARTS, max_size=7).map("\n".join))
    @example('Values [in Å:\n[{"alloy_name": "MoNbTaW"}]')
    @example('{"note": "see [", "records": [{"alloy_name": "MoNbTaW"}]}\nThanks.')
    @example('Cut off: [{"alloy_name": "Mo\n[1, 2] and {"alloy_name": "W"}')
    @example('He said "[{\n[{"alloy_name": "W"}]')
    def test_same_records_and_issues_as_the_reference(self, text):
        with mock.patch.object(records, "_extract_entries", reference_extract_entries):
            expected = _parse_outcome(text)
        assert _parse_outcome(text) == expected

    def test_an_array_is_not_searched_inside_an_array_span(self):
        # each outermost array span is decoded once; the arrays inside one that
        # fails to decode, or decodes to no record block, are not tried on
        # their own, so only the object pass finds the first entry
        inner = '[{"alloy_name": "MoNbTaW"}, {"alloy_name": "W"}]'
        for text in (f"[see: {inner}]", f"[[1], {inner}]"):
            assert [r.alloy_name for r in parse_record_set(text, DOC).records] == ["MoNbTaW"]
        # an array left open is no span, so the arrays inside it are searched
        assert len(parse_record_set(f"[see: {inner}", DOC).records) == 2

    def test_a_span_nested_past_the_decoder_limit_is_no_block(self):
        text = "[" * 5000 + "]" * 5000 + '\n{"alloy_name": "W"}'
        assert [r.alloy_name for r in parse_record_set(text, DOC).records] == ["W"]
        with mock.patch.object(records, "_extract_entries", reference_extract_entries):
            assert [r.alloy_name for r in parse_record_set(text, DOC).records] == ["W"]

    def test_the_verdict_does_not_depend_on_the_callers_stack_depth(self):
        def outcome_at(frames, text):
            return outcome_at(frames - 1, text) if frames else _parse_outcome(text)

        for d in (records.MAX_NESTING - 1, records.MAX_NESTING, *range(850, 1000, 5)):
            text = '{"a": ' * d + '{"alloy_name": "W"}' + "}" * d
            shallow = outcome_at(0, text)
            assert outcome_at(80, text) == shallow, d
            # depth d + 1: past the bound nothing decodes
            assert isinstance(shallow, str) == (d + 1 > records.MAX_NESTING), d

    @pytest.mark.parametrize("shape", ["nested_arrays", "unclosed_strings"])
    def test_adversarial_megabyte_in_under_a_second(self, shape):
        if shape == "nested_arrays":
            flat = ", ".join(str(i) for i in range(150_000))
            text = "The values follow. " + "[" * 800 + f"[{flat}]"
        else:
            text = '{"a": "' * (1_000_000 // 7)
        assert len(text) >= 1_000_000 - 7
        started = time.perf_counter()
        with pytest.raises(MalformedOutput):
            parse_record_set(text, DOC)
        assert time.perf_counter() - started < 1.0


class TestSerialization:
    def test_round_trip_random_records(self):
        rng = np.random.default_rng(5)
        records = []
        phases = ("BCC", "fcc", "BCC + FCC", "amorphous", "Not found", "C14 laves")
        procs = ("as-cast", "annealed", "powder processing", "Not found", "sputtered")
        for i in range(40):
            comp = random_composition(rng)
            lattice = (
                None,
                float(np.round(rng.uniform(2.8, 3.6), 3)),
                "0.319 nm",
                "319 pm",
            )[int(rng.integers(0, 4))]
            records.append(
                make_record(
                    DocumentId(f"doc{i % 3}"),
                    alloy_name=comp.canonical_formula() if rng.random() < 0.8 else None,
                    nominal_composition=comp,
                    measured_composition=comp if rng.random() < 0.3 else None,
                    phase=str(phases[int(rng.integers(0, len(phases)))]),
                    processing=str(procs[int(rng.integers(0, len(procs)))]),
                    lattice_constant=lattice,
                )
            )
        by_doc = group_by_doc(records)
        for doc_id, doc_records in by_doc.items():
            text = serialize_record_set(doc_records)
            back = parse_record_set(text, DocumentId(doc_id))
            assert not back.issues
            assert back.records == doc_records
            assert serialize_record_set(back.records) == text

    def test_sentinel_totality(self):
        record = make_record(DOC, alloy_name="MoNbTaW")
        obj = json.loads(serialize_record_set([record]))[0]
        for key in ("nominal_composition", "measured_composition", "phase",
                    "processing_condition", "lattice_constant_angstrom"):
            assert obj[key] == "Not found"

    def test_empty_set(self):
        assert parse_record_set(serialize_record_set([]), DOC).records == []


class TestRecordWritesBackItsText:
    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries({key: text | _SENTINELS for key, text in _FIELD_TEXTS.items()}))
    def test_round_trip_is_verbatim(self, obj):
        record, issues = record_from_object(obj, DOC)
        if is_missing(obj["alloy_name"]) and is_missing(obj["nominal_composition"]):
            assert record is None
            return
        assert not issues
        written = record_to_object(record)
        for key in SCHEMA_KEYS:
            assert written[key] == (MISSING_SENTINEL if is_missing(obj[key]) else obj[key])

    def test_measured_text_equal_to_nominal_is_the_nominal_composition(self):
        obj = {"alloy_name": "HEA-1", "nominal_composition": "Al0.5CoCrFeNi (at.%)",
               "measured_composition": "Al0.5CoCrFeNi (at.%)"}
        record, issues = record_from_object(obj, DOC)
        assert not issues
        assert record.measured_composition is record.nominal_composition
        assert record.nominal_composition == parse_formula("Al0.5CoCrFeNi")
        assert record_to_object(record)["measured_composition"] == "Al0.5CoCrFeNi (at.%)"
        # a different text of the same composition is parsed on its own
        other, _ = record_from_object({**obj, "measured_composition": "Al0.5CoCrFeNi"}, DOC)
        assert other.measured_composition == other.nominal_composition
        assert other.measured_composition is not other.nominal_composition

    def test_measured_text_equal_to_a_bad_nominal_is_reported_for_both(self):
        obj = {"alloy_name": "HEA-1", "nominal_composition": "Co1.1Cr0.9Nix",
               "measured_composition": "Co1.1Cr0.9Nix"}
        record, issues = record_from_object(obj, DOC)
        assert record.nominal_composition is None and record.measured_composition is None
        assert [issue.field for issue in issues] == ["nominal_composition",
                                                     "measured_composition"]
        assert set(record.raw_fields) == {"alloy_name"}

    def test_make_record_rejects_a_bad_formula(self):
        with pytest.raises(RecordError, match="symbolic subscript 'x'"):
            make_record(DOC, alloy_name="CoCrNi", nominal_composition="Co1.1Cr0.9Nix")

    def test_make_record_takes_a_tiny_fraction(self):
        comp = Composition.from_coefficients({"Mo": 1, "W": 1e-5})
        assert make_record(DOC, nominal_composition=comp).nominal_composition == comp

    def test_make_record_writes_a_bare_number_as_printed(self):
        for number, text in ((3, "3"), (3.2, "3.2"), (np.float64(3.2), "3.2")):
            record = make_record(DOC, alloy_name="MoNbTaW", lattice_constant=number)
            assert record.lattice_constant == float(text)
            assert record_to_object(record)["lattice_constant_angstrom"] == text


class TestGroundTruth:
    def test_fixture_loads(self, truth_records, truth_by_doc):
        assert len(truth_records) == 22
        assert len(truth_by_doc) == 7
        assert [len(v) for v in truth_by_doc.values()] == [4, 3, 3, 3, 3, 3, 3]
        first = truth_records[0]
        assert first.nominal_composition == parse_formula("HfNbTaTiZr")
        assert first.measured_composition is not None
        assert first.lattice_constant == pytest.approx(3.404)

    def test_records_of_a_document_share_its_id(self, truth_by_doc):
        for doc_id, recs in truth_by_doc.items():
            assert recs[0].source == DocumentId(doc_id)
            assert all(r.source is recs[0].source for r in recs)

    def test_a_dataset_and_a_truth_file_share_one_composition_while_held(self, tmp_path):
        text = "Al0.3CoCrFeNi (at.%)"
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(json.dumps({"doc_id": "d1", "alloy_name": "HEA-1",
                                       "nominal_composition": text}) + "\n", encoding="utf-8")
        truth = tmp_path / "truth.csv"
        truth.write_text(",".join(GROUND_TRUTH_COLUMNS) + "\n"
                         f"d1,HEA-1,{text},{text},BCC,as-cast,3.59\n", encoding="utf-8")
        # an empty memo of the module's own kind, so no other test's entries count
        with mock.patch.object(composition, "_PARSED", type(composition._PARSED)()) as memo:
            extracted = load_dataset(dataset)["d1"]
            expert = load_ground_truth(truth)
            nominal = extracted[0].nominal_composition
            assert expert[0].nominal_composition is nominal
            assert expert[0].measured_composition is nominal
            held = weakref.ref(nominal)
            del extracted, expert, nominal
            gc.collect()
            assert held() is None
            assert len(memo) == 0

    def test_missing_column(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("doc_id,alloy_name\nd1,foo\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_ground_truth(bad)

    def test_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "doc_id,alloy_name,nominal_composition,measured_composition,"
            "phase,processing_condition,lattice_constant_angstrom\n",
            encoding="utf-8",
        )
        assert load_ground_truth(empty) == []

    def test_row_without_identity_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "doc_id,alloy_name,nominal_composition,measured_composition,"
            "phase,processing_condition,lattice_constant_angstrom\n"
            "d1,Not found,Not found,Not found,BCC,as-cast,3.2\n",
            encoding="utf-8",
        )
        with pytest.raises(GroundTruthError) as err:
            load_ground_truth(bad)
        assert ":2:" in str(err.value)
