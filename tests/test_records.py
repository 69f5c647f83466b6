import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloyforge.composition import Composition, parse_formula
from alloyforge.records import (
    MISSING_SENTINEL,
    SCHEMA_KEYS,
    DocumentId,
    GroundTruthError,
    LengthAngstrom,
    MalformedOutput,
    MissingColumn,
    PhaseLabel,
    ProcessingCondition,
    RecordError,
    UnknownDocument,
    group_by_doc,
    is_missing,
    load_ground_truth,
    make_record,
    normalize_phase,
    normalize_processing,
    parse_length,
    parse_record_set,
    record_from_object,
    record_to_object,
    serialize_record_set,
)

from tests.conftest import FIXTURES
from tests.oracles import random_composition

DOC = DocumentId("doc1")


class TestFieldNormalization:
    def test_missing_sentinel_variants(self):
        for text in ("Not found", "NOT FOUND", "  not   found ", "", None):
            assert is_missing(text)
        assert not is_missing("3.19")

    def test_phase_tokens(self):
        assert normalize_phase("bcc").kind == "BCC"
        assert normalize_phase("body-centred cubic").kind == "BCC"
        assert normalize_phase("body-centered cubic (BCC)").kind == "BCC"
        assert normalize_phase("FCC solid solution").kind == "FCC"
        assert normalize_phase("hexagonal close-packed").kind == "HCP"
        assert normalize_phase("amorphous").kind == "amorphous"
        multi = normalize_phase("BCC + FCC")
        assert multi.kind == "multiphase" and multi.detail == "BCC + FCC"
        assert normalize_phase("dual-phase BCC").kind == "multiphase"
        assert normalize_phase("BCC with B2 ordering").kind == "multiphase"
        for ordered in ("B2", "L12", "Laves phase", "sigma"):
            assert normalize_phase(ordered) == PhaseLabel("other", ordered)
        assert normalize_phase("face-centred cubic") == PhaseLabel("FCC", "face-centred cubic")
        assert normalize_phase("metallic glass") == PhaseLabel("amorphous", "metallic glass")
        assert normalize_phase("BCC + B2") == PhaseLabel("multiphase", "BCC + B2")
        other = normalize_phase("C14 structure")
        assert other.kind == "other" and other.detail

    def test_processing_tokens(self):
        assert normalize_processing("as-cast").kind == "as_cast"
        assert normalize_processing("arc-melted and cast").kind == "as_cast"
        assert normalize_processing("annealed at 1200 C").kind == "annealed"
        assert normalize_processing("as-cast then annealed").kind == "annealed"
        assert normalize_processing("powder metallurgy").kind == "powder_processed"
        assert normalize_processing("spark plasma sintering").kind == "powder_processed"
        assert normalize_processing("selective laser melting (SLM)").kind == "additive"
        assert normalize_processing("Not found").kind == "unreported"
        other = normalize_processing("magnetron sputtered film")
        assert other.kind == "other" and other.detail

    def test_record_fields_normalize_as_the_public_functions(self):
        # record_from_object normalizes only text it found present; sentinel and
        # empty fields must still come out as the public functions map them
        texts = [None, "", "  ", "Not found", " not   FOUND ", "bcc", "BCC + FCC",
                 "metallic glass", "as-cast", "annealed at 1200 C", "spark plasma sintering",
                 "magnetron sputtered film"]
        for text in texts:
            obj = {"alloy_name": "HfNbTaTiZr", "phase": text, "processing_condition": text}
            record, _ = record_from_object(obj, DocumentId("d01"))
            assert record.phase == normalize_phase(text)
            assert record.processing == normalize_processing(text)

    def test_length_units(self):
        assert parse_length("3.19") == LengthAngstrom(3.19, 3.19, "unknown")
        assert parse_length("0.319 nm") == LengthAngstrom(3.19, 0.319, "nm")
        assert parse_length("319 pm") == LengthAngstrom(3.19, 319.0, "pm")
        assert parse_length("3.19 Å") == LengthAngstrom(3.19, 3.19, "angstrom")
        assert parse_length("3.19 angstrom").raw_unit == "angstrom"
        assert parse_length("0.360 nm").value == pytest.approx(3.60, abs=1e-12)
        assert parse_length("360 pm").value == pytest.approx(3.60, abs=1e-12)
        assert parse_length("3.60 angstrom") == LengthAngstrom(3.60, 3.60, "angstrom")
        assert parse_length("3.19 +/- 0.02").raw_value == 3.19
        # a space-group symbol before the value is not read as the number
        assert parse_length("Fm-3m, 3.60 Å") == LengthAngstrom(3.60, 3.60, "angstrom")
        assert parse_length("Im-3m 0.319 nm") == LengthAngstrom(3.19, 0.319, "nm")
        assert parse_length("P63/mmc a=3.2 Å") == LengthAngstrom(3.2, 3.2, "angstrom")
        with pytest.raises(RecordError):
            parse_length("unreadable")

    def test_type_invariants(self):
        with pytest.raises(RecordError):
            PhaseLabel("multiphase")          # detail required
        with pytest.raises(RecordError):
            ProcessingCondition("other")      # detail required
        with pytest.raises(RecordError):
            LengthAngstrom(-1.0, -1.0, "unknown")
        with pytest.raises(RecordError):
            make_record(DOC)                  # name or composition required


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
        assert result.entry_count == 1 and not result.issues
        record = result.records[0]
        assert record.lattice_constant.value == pytest.approx(3.19)
        assert record.phase.kind == "BCC"
        assert record.processing.kind == "as_cast"

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
        assert result.entry_count == 4
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

    def test_make_record_rejects_a_bad_formula(self):
        with pytest.raises(RecordError, match="symbolic subscript 'x'"):
            make_record(DOC, alloy_name="CoCrNi", nominal_composition="Co1.1Cr0.9Nix")

    def test_make_record_takes_a_tiny_fraction(self):
        comp = Composition.from_coefficients({"Mo": 1, "W": 1e-5})
        assert make_record(DOC, nominal_composition=comp).nominal_composition == comp

    def test_make_record_writes_a_bare_number_as_printed(self):
        for number, text in ((3, "3"), (3.2, "3.2"), (np.float64(3.2), "3.2")):
            record = make_record(DOC, alloy_name="MoNbTaW", lattice_constant=number)
            assert record.lattice_constant.value == float(text)
            assert record_to_object(record)["lattice_constant_angstrom"] == text


class TestGroundTruth:
    def test_fixture_loads(self, truth_records, truth_by_doc):
        assert len(truth_records) == 22
        assert len(truth_by_doc) == 7
        assert [len(v) for v in truth_by_doc.values()] == [4, 3, 3, 3, 3, 3, 3]
        first = truth_records[0]
        assert first.nominal_composition == parse_formula("HfNbTaTiZr")
        assert first.measured_composition is not None
        assert first.lattice_constant.value == pytest.approx(3.404)

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

    def test_unknown_document(self):
        with pytest.raises(UnknownDocument):
            load_ground_truth(FIXTURES / "ground_truth.csv", known_ids={"d01"})

    def test_known_ids_accepts_full_set(self, truth_by_doc):
        records = load_ground_truth(
            FIXTURES / "ground_truth.csv", known_ids=set(truth_by_doc)
        )
        assert len(records) == 22
