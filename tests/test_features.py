import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alloyforge.composition import Composition, parse_formula
from alloyforge.features import (
    ElementNotInTable,
    ElementPropertyTable,
    FEATURE_NAMES,
    PROPERTY_COLUMNS,
    default_table,
    featurize,
    featurize_dataset,
    load_feature_csv,
)
from alloyforge.records import DocumentId, make_record, record_from_object

from tests.oracles import reference_featurize

DOC = DocumentId("docF")
_SCREENING_ELEMENTS = ("Al", "Co", "Cr", "Cu", "Fe", "Hf", "Mn", "Mo", "Nb", "Ni",
                       "Ta", "Ti", "V", "W", "Zr")
_TABLE_HEADER = ("symbol,atomic_volume,covalent_radius,mendeleev_number,"
                 "electronegativity,nd_valence,n_unfilled\n")


@pytest.fixture(scope="module")
def table():
    return default_table()


class TestFeaturize:
    def test_pure_element_identity(self, table):
        vector = featurize(parse_formula("Fe"), table)
        assert tuple(vector.as_array()) == table.row("Fe")

    def test_equiatomic_midpoint(self, table):
        vector = featurize(parse_formula("FeNi"), table)
        expected = 0.5 * np.asarray(table.row("Fe")) + 0.5 * np.asarray(table.row("Ni"))
        assert np.allclose(vector.as_array(), expected, atol=1e-12)

    def test_weighted_mean_against_shipped_values(self, table):
        # independent oracle: direct weighted sum over the shipped table rows
        vector = featurize(parse_formula("Al0.25Ni0.75"), table)
        al, ni = np.asarray(table.row("Al")), np.asarray(table.row("Ni"))
        assert np.allclose(vector.as_array(), 0.25 * al + 0.75 * ni, atol=1e-12)

    def test_element_not_in_table(self, table):
        with pytest.raises(ElementNotInTable):
            featurize(parse_formula("FeOg"), table)

    def test_linearity_under_convex_mixing(self, table):
        rng = np.random.default_rng(21)
        a = parse_formula("AlCoCrFeNi")
        b = parse_formula("MoNbTaVW")
        for _ in range(25):
            alpha = float(rng.uniform(0.05, 0.95))
            mixed = {}
            for sym, frac in a.fractions.items():
                mixed[sym] = mixed.get(sym, 0.0) + alpha * frac
            for sym, frac in b.fractions.items():
                mixed[sym] = mixed.get(sym, 0.0) + (1 - alpha) * frac
            blended = featurize(Composition.from_coefficients(mixed), table)
            direct = alpha * featurize(a, table).as_array() + (1 - alpha) * featurize(
                b, table
            ).as_array()
            assert np.allclose(blended.as_array(), direct, atol=1e-9)

    def test_bounds_in_constituent_hull(self, table):
        rng = np.random.default_rng(22)
        symbols = ("Al", "Co", "Cr", "Fe", "Ni", "Mo", "Nb", "Ta", "W", "Zr")
        for _ in range(50):
            chosen = rng.choice(len(symbols), size=4, replace=False)
            comp = Composition.from_coefficients(
                {symbols[i]: float(rng.uniform(0.1, 1.0)) for i in chosen}
            )
            vector = featurize(comp, table).as_array()
            rows = np.vstack([table.row(sym) for sym in comp.fractions])
            assert np.all(vector >= rows.min(axis=0) - 1e-12)
            assert np.all(vector <= rows.max(axis=0) + 1e-12)

    def test_permutation_invariance(self, table):
        assert featurize(parse_formula("AlCoCrFeNi"), table) == featurize(
            parse_formula("NiFeCrCoAl"), table
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bit_identical_to_numpy_accumulation(self, table, data):
        symbols = data.draw(st.lists(
            st.sampled_from(sorted(table.values)), min_size=1, max_size=15, unique=True))
        coefficients = data.draw(st.lists(
            st.floats(1e-4, 100.0), min_size=len(symbols), max_size=len(symbols)))
        comp = Composition.from_coefficients(dict(zip(symbols, coefficients)))
        assert np.array_equal(featurize(comp, table).as_array(), reference_featurize(comp, table))

    def test_missing_elements_listed_sorted(self):
        custom = ElementPropertyTable(values={"Fe": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)})
        comp = parse_formula("NiFeAl")
        with pytest.raises(ElementNotInTable) as caught:
            featurize(comp, custom)
        assert caught.value.args[0] == "Al, Ni"
        with pytest.raises(ElementNotInTable) as caught:
            reference_featurize(comp, custom)
        assert caught.value.args[0] == "Al, Ni"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_benchmark_shaped_same_bytes_as_reference(self, table, data):
        # 3-6 elements in integer thousandths summing to 1000, each at least 50
        symbols = data.draw(st.lists(st.sampled_from(_SCREENING_ELEMENTS),
                                     min_size=3, max_size=6, unique=True))
        spare = 1000 - 50 * len(symbols)
        cuts = sorted(data.draw(st.lists(st.integers(0, spare), min_size=len(symbols) - 1,
                                         max_size=len(symbols) - 1)))
        shares = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
        comp = Composition.from_coefficients(
            {sym: 50 + share for sym, share in zip(symbols, shares)})
        assert featurize(comp, table).as_array().tobytes() == (
            reference_featurize(comp, table).tobytes())

    def test_missing_element_sorting_after_present_ones(self):
        custom = ElementPropertyTable(values={
            "Fe": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), "Ni": (6.0, 5.0, 4.0, 3.0, 2.0, 1.0)})
        for text, missing in (("FeNiZr", "Zr"), ("AlFeNiZr", "Al, Zr"), ("NiW", "W")):
            comp = parse_formula(text)
            with pytest.raises(ElementNotInTable) as caught:
                featurize(comp, custom)
            assert caught.value.args[0] == missing
            assert str(caught.value) == f"element(s) not in table: {missing}"
            with pytest.raises(ElementNotInTable) as caught:
                reference_featurize(comp, custom)
            assert caught.value.args[0] == missing


class TestFeaturizeDataset:
    def test_rows_match_unit_op(self, table, truth_records):
        usable = [r for r in truth_records if r.lattice_constant is not None][:10]
        data = featurize_dataset(usable, table)
        assert data.X.shape == (10, 6)
        for row, record in zip(data.X, usable):
            expected = featurize(record.nominal_composition, table).as_array()
            assert np.allclose(row, expected)
            assert record.lattice_constant is not None

    def test_issues_collected(self, table):
        good = make_record(DOC, nominal_composition="MoNbTaW", lattice_constant=3.2)
        no_lattice = make_record(DOC, nominal_composition="MoNbTaW")
        exotic = make_record(DOC, nominal_composition="FeOg", lattice_constant=3.2)
        data = featurize_dataset([good, no_lattice, exotic], table)
        assert data.X.shape == (1, 6)
        assert data.y.tolist() == [3.2]
        assert [i for i, _ in data.issues] == [1, 2]

    def test_an_infinite_lattice_constant_is_a_field_issue_and_no_row(self, table):
        for text in ("1e999", "3e400 nm"):
            record, issues = record_from_object(
                {"nominal_composition": "MoNbTaW", "lattice_constant_angstrom": text}, DOC)
            assert [(i.field, i.entry_dropped) for i in issues] == [
                ("lattice_constant_angstrom", False)]
            assert "positive and finite" in issues[0].message
            assert record.lattice_constant is None
            assert "lattice_constant_angstrom" not in record.raw_fields
            data = featurize_dataset([record], table)
            assert data.X.shape == (0, 6)
            assert data.issues == [(0, "no lattice constant")]

    def test_empty(self, table):
        data = featurize_dataset([], table)
        assert data.X.shape == (0, 6) and data.y.shape == (0,)

    def test_csv_round_trip(self, table, truth_records, tmp_path):
        usable = [r for r in truth_records if r.lattice_constant is not None][:6]
        data = featurize_dataset(usable, table)
        path = tmp_path / "features.csv"
        path.write_text(data.export_csv(), encoding="utf-8")
        X, y, names = load_feature_csv(path)
        assert names == FEATURE_NAMES
        assert np.array_equal(X, data.X) and np.array_equal(y, data.y)

    def test_load_empty_file_names_path(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty.csv: no header row"):
            load_feature_csv(path)

    def test_load_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("a,b,lattice_constant_angstrom\n1,2,3\n1,x,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="features.csv: line 3: could not convert"):
            load_feature_csv(path)

    @pytest.mark.parametrize("row, column, cell", [
        ("1,2,nan", "lattice_constant_angstrom", "nan"),
        ("inf,2,3", "a", "inf"),
        ("1, -Infinity ,3", "b", " -Infinity "),
        ("NaN,inf,3", "a", "NaN"),
    ])
    def test_load_non_finite_cell_names_line_and_column(self, tmp_path, row, column, cell):
        path = tmp_path / "features.csv"
        path.write_text(f"a,b,lattice_constant_angstrom\n1,2,3\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_feature_csv(path)
        assert str(caught.value) == (
            f"{path}: line 4, column {column}: {cell!r} is not a finite number")

    @pytest.mark.parametrize("row", ["1,2", "1,2,3,4"])
    def test_load_wrong_field_count_names_line(self, tmp_path, row):
        path = tmp_path / "features.csv"
        path.write_text(f"a,b,lattice_constant_angstrom\n1,2,3\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            load_feature_csv(path)
        assert str(caught.value) == (
            f"{path}: line 4 has {row.count(',') + 1} field(s), the header has 3")


class TestElementTable:
    def test_covers_common_alloying_elements(self, table):
        for symbol in ("Al", "Co", "Cr", "Cu", "Fe", "Hf", "Mn", "Mo", "Nb", "Ni",
                       "Ta", "Ti", "V", "W", "Zr"):
            assert symbol in table.values

    def test_column_order(self):
        assert PROPERTY_COLUMNS == (
            "atomic_volume", "covalent_radius", "mendeleev_number",
            "electronegativity", "nd_valence", "n_unfilled",
        )

    def test_custom_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "symbol,atomic_volume,covalent_radius,mendeleev_number,"
            "electronegativity,nd_valence,n_unfilled\nXx,1,2,3,4,5,6\n".replace("Xx", "Fe"),
            encoding="utf-8",
        )
        table = ElementPropertyTable.from_csv(path)
        assert table.row("Fe") == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("symbol,atomic_volume\nFe,1\n", encoding="utf-8")
        with pytest.raises(ValueError):
            ElementPropertyTable.from_csv(path)

    def test_row_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="element 'Ni' has 5 value"):
            ElementPropertyTable(values={
                "Fe": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), "Ni": (1.0, 2.0, 3.0, 4.0, 5.0)})

    @pytest.mark.parametrize("row, message", [
        ("Ni,1,,3,4,5,6", "line 3, column covalent_radius: '' is not a number"),
        ("Ni,1,2,3,x,5,6", "line 3, column electronegativity: 'x' is not a number"),
        ("Ni,1,2,3,4", "line 3, column nd_valence: None is not a number"),
        ("Ni,1,2,3,4,5,6,7", "line 3 has 8 field(s), the header has 7"),
        ("Fe,9,9,9,9,9,9", "line 3: element 'Fe' listed twice"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "table.csv"
        path.write_text(_TABLE_HEADER + "Fe,1,2,3,4,5,6\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            ElementPropertyTable.from_csv(path)
        assert str(caught.value) == f"{path}: {message}"
