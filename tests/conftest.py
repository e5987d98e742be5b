import json
from importlib import resources

import pytest

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
