import numpy as np
import pytest

import facetbench as fb
from facetbench.cli import _read_extremes_file
from facetbench.dataset import RANGE_BITS, json_text, output_floors, parse_dataset, parse_float
from facetbench.scenario import load_scenario

from conftest import write_csv


def test_load_985_shape(uni985):
    assert uni985.n == 38
    assert uni985.m == 2
    assert uni985.s == 3
    assert uni985.names[0] == "PKU"
    assert uni985.input_labels == ("researchers", "size")
    assert uni985.inputs[1, 0] == 274.112
    assert uni985.outputs[2, 0] == 5414


def test_load_toy_shape(toy_a):
    assert (toy_a.n, toy_a.m, toy_a.s) == (6, 1, 3)
    assert toy_a.names == ("A", "B", "C", "D", "E", "F")


def test_loaded_dataset_is_valid(uni985, toy_a, toy_b):
    for ds in (uni985, toy_a, toy_b):
        assert fb.validate_dataset(ds) == []


def test_empty_file_errors(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(fb.DataError, match="no data rows"):
        fb.load_dataset(p)


def test_header_only_errors(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("dmu,in:a,out:b\n")
    with pytest.raises(fb.DataError, match="no data rows"):
        fb.load_dataset(p)


def test_missing_roles(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dmu,in:a\nA,1\n")
    with pytest.raises(fb.DataError, match="no output columns"):
        fb.load_dataset(p)
    p.write_text("dmu,out:a\nA,1\n")
    with pytest.raises(fb.DataError, match="no input columns"):
        fb.load_dataset(p)
    p.write_text("name,other,in:a,out:b\nA,x,1,2\n")
    with pytest.raises(fb.DataError, match="duplicate name column"):
        fb.load_dataset(p)


def test_non_numeric_cell_reported_with_location(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dmu,in:a,out:b\nA,1,2\nB,oops,3\n")
    with pytest.raises(fb.DataError, match=r"row 3.*'in:a'"):
        fb.load_dataset(p)


def test_nonpositive_value_reported_with_cell(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dmu,in:a,out:b,out:c\nA,1,2,3\nB,1,0,3\nC,1,2,3\n")
    with pytest.raises(fb.DataError, match="nonpositive-output.*B.*b"):
        fb.load_dataset(p)


def test_duplicate_dmu_name(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("dmu,in:a,out:b\nA,1,2\nA,1,3\n")
    with pytest.raises(fb.DataError, match="duplicate DMU name"):
        fb.load_dataset(p)


def test_column_order_preserved(tmp_path):
    p = tmp_path / "shuffled.csv"
    p.write_text("out:z,dmu,in:b,out:a,in:c\n4,A,1,2,3\n5,B,6,7,8\n9,C,2,4,6\n")
    ds = fb.load_dataset(p)
    assert ds.input_labels == ("b", "c")
    assert ds.output_labels == ("z", "a")
    assert ds.inputs[:, 0].tolist() == [1, 3]
    assert ds.outputs[:, 1].tolist() == [5, 7]


def test_validate_zero_output_names_cell():
    ds = fb.Dataset(names=("A", "B"), inputs=[[1.0, 2.0]], outputs=[[3.0, 0.0]])
    violations = fb.validate_dataset(ds)
    assert len(violations) == 1
    v = violations[0]
    assert v.rule == "nonpositive-output"
    assert v.dmu == "B"
    assert v.dimension == "y1"


def test_validate_output_range_names_cell():
    ds = fb.Dataset(names=("A", "B"), inputs=[[1.0, 2.0]], outputs=[[3.0, 1e-320]])
    assert [(v.rule, v.dmu) for v in fb.validate_dataset(ds)] == [("output-range", "B")]
    # s = 1 and the column's power of two is 2, so the floor is 2**-511
    floor = np.ldexp(1.0, -511)
    at_floor = fb.Dataset(names=("A", "B"), inputs=[[1.0, 2.0]], outputs=[[3.0, floor]])
    assert fb.validate_dataset(at_floor) == []
    below = fb.Dataset(names=("A", "B"), inputs=[[1.0, 2.0]], outputs=[[3.0, np.nextafter(floor, 0.0)]])
    assert [(v.rule, v.dmu) for v in fb.validate_dataset(below)] == [("output-range", "B")]


def test_output_floor_follows_column_scale_and_output_count():
    # the column's power of two is floored at 1 (the slack's own coefficient)
    Y = np.array([[0.25, 0.5], [3.0, 5.0], [1000.0, 1024.0]])
    assert output_floors(Y).tolist() == [np.ldexp(1.0, e - RANGE_BITS) / 3 for e in (0, 2, 10)]
    # a non-finite value is a nonpositive-output violation and moves no floor
    assert output_floors(np.array([[np.inf, np.nan, 3.0]])).tolist() == [np.ldexp(2.0, -RANGE_BITS)]


@pytest.mark.parametrize("factor", [2.0**10, 2.0**-10], ids=["x1024", "div1024"])
@pytest.mark.parametrize("column", range(5))
def test_985_power_of_two_rescalings_are_valid(uni985, column, factor):
    X, Y = uni985.inputs.copy(), uni985.outputs.copy()
    if column < uni985.m:
        X[column] *= factor
    else:
        Y[column - uni985.m] *= factor
    assert fb.validate_dataset(fb.Dataset(uni985.names, X, Y)) == []


def test_validate_too_few_dmus():
    # s + m - 1 = 3 with only 2 DMUs
    ds = fb.Dataset(names=("A", "B"), inputs=[[1.0, 2.0]], outputs=[[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    rules = {v.rule for v in fb.validate_dataset(ds)}
    assert "too-few-dmus" in rules


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_text_rejects_non_finite_numbers(value):
    # NaN and Infinity are not JSON (RFC 8259): no command may print them
    assert json_text({"a": [1.5, 1e308]}) == '{\n  "a": [\n    1.5,\n    1e+308\n  ]\n}\n'
    with pytest.raises(ValueError):
        json_text({"a": [1.5, value]})


def test_round_trip_identical(uni985, tmp_path):
    out = tmp_path / "again.csv"
    write_csv(uni985, out)
    again = fb.load_dataset(out)
    assert again.names == uni985.names
    assert np.array_equal(again.inputs, uni985.inputs)
    assert np.array_equal(again.outputs, uni985.outputs)
    assert again.input_labels == uni985.input_labels
    # and once more: serialization is a fixed point
    out2 = tmp_path / "thrice.csv"
    write_csv(again, out2)
    assert out.read_text() == out2.read_text()


def test_dataset_immutable(toy_a):
    with pytest.raises(ValueError):
        toy_a.inputs[0, 0] = 99.0


def test_unknown_dmu_lookup(toy_a):
    with pytest.raises(fb.DataError, match="unknown DMU"):
        toy_a.index("nope")


def test_parse_allows_invalid_values_for_diagnosis(tmp_path):
    p = tmp_path / "diag.csv"
    p.write_text("dmu,in:a,out:b\nA,1,0\n")
    ds = parse_dataset(p)
    assert [v.rule for v in fb.validate_dataset(ds)] == ["nonpositive-output"]


@pytest.mark.parametrize("text, value", [
    ("1", 1.0), ("-1.5", -1.5), ("+.5", 0.5), ("5.", 5.0), ("2.5e-3", 0.0025), ("1E3", 1000.0),
])
def test_parse_float_accepts_decimal_literals(text, value):
    assert parse_float(text) == value


@pytest.mark.parametrize("text", ["1_0", "0x10", "\u0661", " 1", "", ".", "1e", "e5", "1.2.3", "--1"])
def test_parse_float_rejects_other_spellings(text):
    with pytest.raises(ValueError):
        parse_float(text)


def test_non_finite_cells_parse_and_are_reported(tmp_path):
    p = tmp_path / "diag.csv"
    p.write_text("dmu,in:a,out:b\nA,NaN,2\nB,1,-inf\n")
    ds = parse_dataset(p)
    assert [v.rule for v in fb.validate_dataset(ds)] == ["nonpositive-input", "nonpositive-output"]


BOM_CASES = {
    "csv-name-column-second": ("dataset", "in:a,dmu,out:b\n1,A,2\n3,B,4\n"),
    "csv-name-column-first": ("dataset", "dmu,in:a,out:b\nA,1,2\nB,3,4\n"),
    "extremes": ("extremes", "A\n# pinned\nB\n"),
    "scenario": ("scenario", '{"table": {"0": [1, 2]}}'),
}


@pytest.mark.parametrize("case", sorted(BOM_CASES))
def test_leading_byte_order_mark_ignored(tmp_path, case):
    # spreadsheet exports may start a UTF-8 file with U+FEFF; every reader
    # must give what it gives for the same file without the mark
    kind, text = BOM_CASES[case]
    reader = {"dataset": parse_dataset, "extremes": _read_extremes_file, "scenario": load_scenario}[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(text.encode("utf-8-sig"))
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert repr(reader(str(marked))) == repr(reader(str(plain)))
    if kind == "dataset":
        assert reader(str(marked)).names == ("A", "B")
