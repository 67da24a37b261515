from pathlib import Path

import pytest

import facetbench as fb
from facetbench.profiles import PAPER_985_EXTREMES

DATA = Path(__file__).resolve().parents[1] / "data"


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
