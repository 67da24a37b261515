import csv
from pathlib import Path

import pytest

import facetbench as fb
from facetbench.profiles import PAPER_985_EXTREMES

DATA = Path(__file__).resolve().parents[1] / "data"


def write_csv(ds, path):
    """Write ds in the dataset CSV format: the name column, then inputs and
    outputs, each value as its repr, which parses back bit for bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["dmu"] + [f"in:{lb}" for lb in ds.input_labels] + [f"out:{lb}" for lb in ds.output_labels])
        for j, name in enumerate(ds.names):
            w.writerow([name] + [repr(float(v)) for v in (*ds.inputs[:, j], *ds.outputs[:, j])])


def envelope_verdicts(payload):
    """(DMUs whose closest status is out-of-envelope, DMUs named in
    envelope_violations) of a report payload."""
    closest = {row["dmu"] for row in payload["results"] if row["closest"]["status"] == "out-of-envelope"}
    return closest, {v["dmu"] for v in payload["envelope_violations"]}


@pytest.fixture(scope="session")
def toy_a():
    return fb.load_dataset(DATA / "toy_isoquant_a.csv")


@pytest.fixture(scope="session")
def toy_b():
    return fb.load_dataset(DATA / "toy_isoquant_b.csv")


@pytest.fixture(scope="session")
def uni985():
    return fb.load_dataset(DATA / "universities_985.csv")


@pytest.fixture(scope="session")
def toy_facets(toy_a):
    ext = fb.extreme_set(toy_a)
    return fb.enumerate_facets(toy_a, ext.indices)


@pytest.fixture(scope="session")
def toy_scenario():
    return fb.load_scenario(DATA / "prices_toy.json")


@pytest.fixture(scope="session")
def uni_extremes(uni985):
    return fb.extreme_set(uni985, override=PAPER_985_EXTREMES)


@pytest.fixture(scope="session")
def uni_facets(uni985, uni_extremes):
    return fb.enumerate_facets(uni985, uni_extremes.indices, "extremes")


@pytest.fixture(scope="session")
def uni_partition(uni_facets):
    return fb.partition_robust(uni_facets)


@pytest.fixture(scope="session")
def data_dir():
    return DATA
