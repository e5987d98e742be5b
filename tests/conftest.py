import json
from importlib import resources

import pytest

from helpers import load_bench
from isoreduce.hierarchy import sequential_reduce
from isoreduce.netmat import bipartite_adjacency, parse_incidence_csv


def _data_text(name):
    return resources.files("isoreduce").joinpath("data", name).read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def dgg():
    return parse_incidence_csv(_data_text("dgg.csv"))


@pytest.fixture(scope="session")
def dgg_groups():
    return json.loads(_data_text("dgg_groups.json"))


@pytest.fixture(scope="session")
def dgg_matrix(dgg):
    return bipartite_adjacency(dgg)


@pytest.fixture(scope="session")
def dgg_hierarchy(dgg_matrix):
    # The seven-step exact reduction; computed once for the whole session.
    return sequential_reduce(dgg_matrix)


@pytest.fixture
def synth_csv(tmp_path):
    """The benchmark's seeded 60x40 incidence, written as a CSV file."""
    inputs = load_bench("inputs")
    grid = inputs.random_incidence(inputs.INSTANCE_SEED, inputs.ROWS, inputs.COLS, inputs.DENSITY)
    rows = [f"r{i:02d}" for i in range(inputs.ROWS)]
    cols = [f"c{j:02d}" for j in range(inputs.COLS)]
    path = tmp_path / "synth.csv"
    path.write_text(inputs.incidence_csv(rows, cols, grid), encoding="utf-8")
    return path
