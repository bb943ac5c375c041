import json
import os

import pytest

from fragsim.topology import Topology

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "fragsim", "data")


def data_file(name):
    return os.path.join(DATA, name)


def free_counts(state):
    """Number of free slices on each link of a SpectrumState."""
    return [state.slice_count - occ.bit_count() for occ in state.occ]


@pytest.fixture
def triangle():
    return Topology("triangle", 3, [(0, 1), (1, 2), (0, 2)], 8)


@pytest.fixture
def line4():
    return Topology("line4", 4, [(0, 1), (1, 2), (2, 3)], 8)


@pytest.fixture
def star4():
    return Topology("star4", 4, [(0, 1), (0, 2), (0, 3)], 8)


def write_topology(tmp_path, name, nodes, fibers, slices):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps({"name": name, "slice_count": slices,
                             "nodes": nodes, "fibers": fibers}))
    return str(p)
