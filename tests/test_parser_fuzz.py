"""Fuzzing of the three input-file parsers.

Whatever the bytes of a dataset CSV, scenario JSON or extremes file, the
parser returns a value or raises DataError (exit code 1); any other
exception would surface as an internal error (exit code 2).  Examples are
derandomized and bounded, so the file is deterministic and fast.
"""

import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facetbench.cli import _read_extremes_file
from facetbench.dataset import parse_dataset
from facetbench.errors import DataError
from facetbench.scenario import load_scenario

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)

PARSERS = {
    "dataset": parse_dataset,
    "scenario": load_scenario,
    "extremes": _read_extremes_file,
}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def parse_or_data_error(parser, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        parser(str(path))
    except DataError:
        pass


# CSV cells: numbers in every form the C-locale grammar accepts or nearly
# accepts, role prefixes, quoting, line breaks, NUL, non-ASCII text, and a
# cell longer than the csv module's field limit.
CELL_TOKENS = st.sampled_from([
    "dmu", "in:a", "out:b", "out:c", "IN:x", "in:", "out:", "A", "B", " ",
    "1", "-1", "0", "+2.5", ".5", "5.", "1e3", "1e400", "-0", "nan", "inf",
    "-Infinity", "1_0", "\u0661", "1 ", '"', '""', "\r", "\n", "\r\n", "\x00",
    "\u00e9", "\ufeff", "9" * 140_000,
])
CELLS = st.lists(CELL_TOKENS, max_size=4).map("".join)
CSV_TEXT = st.lists(st.lists(CELLS, max_size=5).map(",".join), max_size=6).map("\n".join)

# JSON documents shaped like scenario files.  LONG_INT stands for an integer
# literal longer than Python converts by default; it is spliced into the
# text after serialization.
LONG_INT = "<long int>"
NUMBERS = st.one_of(
    st.integers(-3, 20),
    st.sampled_from([10**400, -(10**400), LONG_INT]),
    st.floats(allow_nan=True, allow_infinity=True),
)
KEYS = st.sampled_from(["0", "0.1", "-1", "1_0", "a", "name", "base", "slope", "table", "outputs"])
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.sampled_from(["", "0", "x", "y1"])),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=8,
)
PRICES = st.one_of(st.lists(NUMBERS, min_size=1, max_size=3), JSON_VALUES)
TABLE_FORM = st.fixed_dictionaries(
    {"table": st.one_of(st.dictionaries(KEYS, PRICES, min_size=1, max_size=3), JSON_VALUES)},
    optional={"outputs": JSON_VALUES},
)
OUTPUT_SPEC = st.fixed_dictionaries(
    {"name": st.one_of(st.sampled_from(["y1", "y2"]), JSON_VALUES), "base": NUMBERS},
    optional={"slope": NUMBERS},
)
AFFINE_FORM = st.fixed_dictionaries({
    "outputs": st.one_of(st.lists(OUTPUT_SPEC, min_size=1, max_size=3), JSON_VALUES),
    "delta_domain": st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), JSON_VALUES),
})
JSON_TEXT = st.one_of(TABLE_FORM, AFFINE_FORM, JSON_VALUES).map(
    lambda doc: json.dumps(doc).replace(f'"{LONG_INT}"', "1" * 5000)
)
# Truncating or splicing serialized JSON yields malformed documents; a
# deeply nested array exceeds the parser's recursion limit.
JSON_FRAGMENTS = st.one_of(
    st.tuples(JSON_TEXT, st.integers(0, 200), st.text(string.printable, max_size=3)).map(
        lambda t: t[0][: t[1]] + t[2]
    ),
    st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth),
)


@pytest.mark.parametrize("parser", sorted(PARSERS))
@FUZZ
@given(data=st.binary(max_size=200))
def test_arbitrary_bytes(path, parser, data):
    parse_or_data_error(PARSERS[parser], path, data)


@pytest.mark.parametrize("parser", sorted(PARSERS))
@FUZZ
@given(text=CSV_TEXT)
def test_csv_shaped_text(path, parser, text):
    parse_or_data_error(PARSERS[parser], path, text.encode("utf-8"))


@pytest.mark.parametrize("parser", sorted(PARSERS))
@FUZZ
@given(text=st.one_of(JSON_TEXT, JSON_FRAGMENTS))
def test_json_shaped_text(path, parser, text):
    parse_or_data_error(PARSERS[parser], path, text.encode("utf-8"))
