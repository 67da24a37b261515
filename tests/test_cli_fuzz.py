"""Fuzzing of the command-line flags by exit code.

Whatever the values of its flags, `coverage`, `scenario` and `report` on
the toy dataset exit 0 or 1: a usage or input error is exit code 1, and 2
would be an internal fault.  Examples are derandomized and bounded, so the
file is deterministic and fast.
"""

import contextlib
import io
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from facetbench.cli import main

DATA = Path(__file__).resolve().parents[1] / "data"
TOY = str(DATA / "toy_isoquant_a.csv")
PRICES = str(DATA / "prices_toy.json")

CLI_FUZZ = settings(derandomize=True, deadline=None, max_examples=100)

# Each value is valid four times in five, so that many runs get past the
# flags; short texts and small integers keep every run fast.
TEXT = st.text(max_size=4)
ODD_NUMBER = st.one_of(
    st.integers(-3, -1).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "1_0", "+1", "0x10", "1e3", "-0", "inf", "\u0663"]),
    TEXT,
)


def mostly(valid, odd=ODD_NUMBER):
    return st.sampled_from([valid] * 4 + [odd]).flatmap(lambda strategy: strategy)


COUNT = mostly(st.integers(1, 60).map(str))
FRACTION = mostly(st.floats(0.0, 1.0).map(repr))
XBAR = mostly(st.floats(0.5, 20.0).map(repr), st.lists(ODD_NUMBER, min_size=1, max_size=3).map(",".join))
STRATEGIES = mostly(
    st.lists(st.lists(st.sampled_from(["1", "2"]), min_size=1, max_size=2).map(",".join),
             min_size=1, max_size=3).map(";".join),
    st.lists(st.lists(st.integers(-1, 3).map(str), max_size=3).map(",".join), max_size=3).map(";".join),
)


def choice(*valid):
    return mostly(st.sampled_from(valid), TEXT)


COMMON = {"--support-scope": choice("extremes", "all")}
FLAGS = {
    "coverage": {"--seed": COUNT, "--xbar": XBAR, "--strategies": STRATEGIES, **COMMON},
    "scenario": {
        "--delta0": FRACTION, "--delta1": FRACTION, "--delta": FRACTION, "--xbar": XBAR,
        "--target": choice("A", "F"), **COMMON,
    },
    "report": {
        "--aggregation": choice("table4-max", "paper-min"), "--format": choice("json", "csv"),
        "--profile": st.one_of(st.just("paper-985"), TEXT), **COMMON,
    },
}
REQUIRED = {
    "coverage": {"--trials": COUNT},
    "scenario": {"--prices": st.just(PRICES)},
    "report": {},
}


@st.composite
def argvs(draw, cmd):
    flags = draw(st.fixed_dictionaries(REQUIRED[cmd], optional=FLAGS[cmd]))
    # "--flag=value" lets a value that starts with "-" reach the program
    joined = draw(st.sampled_from([True, True, False]))
    argv = [cmd, "--data", TOY]
    for flag, value in flags.items():
        argv += [f"{flag}={value}"] if joined else [flag, value]
    return argv


def exit_code(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@CLI_FUZZ
@given(argv=argvs("coverage"))
def test_coverage_flags_exit_0_or_1(argv):
    assert exit_code(argv) in (0, 1), argv


@CLI_FUZZ
@given(argv=argvs("scenario"))
def test_scenario_flags_exit_0_or_1(argv):
    assert exit_code(argv) in (0, 1), argv


@CLI_FUZZ
@given(argv=argvs("report"))
def test_report_flags_exit_0_or_1(argv):
    assert exit_code(argv) in (0, 1), argv
