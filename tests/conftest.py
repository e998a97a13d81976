"""Shared fixtures: two hand-checked hypergraphs with known symmetries.

ROT10 has 10 vertices, a rotation of order 3 fixing vertex 1, and a fully
worked decomposition (block matrices, eigenvalues, quotient) frozen in the
tests. UNITS18 has 18 vertices, 8 units, and a unit bijection that is a
valid unit-automorphism but does not lift to a vertex automorphism.
"""

import json

import numpy as np
import pytest

from hypersym import Hypergraph, validate_automorphism, validate_unit_automorphism

ROT10_DOC = {
    "vertices": ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10"],
    "edges": [
        {"id": "e", "members": ["1", "8", "9"]},
        {"id": "f", "members": ["1", "2", "3"]},
        {"id": "g", "members": ["1", "5", "6"]},
        {"id": "h", "members": ["5", "6", "7", "8", "9"]},
        {"id": "i", "members": ["8", "9", "10", "3", "2"]},
        {"id": "j", "members": ["2", "3", "4", "5", "6"]},
    ],
}

# order-3 rotation: fixes 1, cycles (2 5 8), (3 6 9), (4 7 10)
ROT10_MAP = {
    "1": "1", "2": "5", "3": "6", "4": "7", "5": "8",
    "6": "9", "7": "10", "8": "2", "9": "3", "10": "4",
}

# the unit map of the rotation: its units are the singletons 1, 4, 7, 10 and
# the pairs 2,3 / 5,6 / 8,9, each moved as the vertex map moves its members
ROT10_UNIT_MAP = {
    "1": "1", "2,3": "5,6", "4": "7", "5,6": "8,9",
    "7": "10", "8,9": "2,3", "10": "4",
}

# |E_u ^ E_v| off the diagonal, 0 on it; rows in vertex order 1..10
ROT10_ADJACENCY_R = np.array(
    [
        [0, 1, 1, 0, 1, 1, 0, 1, 1, 0],
        [1, 0, 3, 1, 1, 1, 0, 1, 1, 1],
        [1, 3, 0, 1, 1, 1, 0, 1, 1, 1],
        [0, 1, 1, 0, 1, 1, 0, 0, 0, 0],
        [1, 1, 1, 1, 0, 3, 1, 1, 1, 0],
        [1, 1, 1, 1, 3, 0, 1, 1, 1, 0],
        [0, 0, 0, 0, 1, 1, 0, 1, 1, 0],
        [1, 1, 1, 0, 1, 1, 1, 0, 3, 1],
        [1, 1, 1, 0, 1, 1, 1, 3, 0, 1],
        [0, 1, 1, 0, 0, 0, 0, 1, 1, 0],
    ],
    dtype=float,
)

ROT10_QUOTIENT = np.array(
    [
        [0, 3, 3, 0],
        [1, 2, 5, 2],
        [1, 5, 2, 2],
        [0, 2, 2, 0],
    ],
    dtype=float,
)

SQRT105 = np.sqrt(105.0)

UNITS18_DOC = {
    "vertices": [str(k) for k in range(1, 19)],
    "edges": [
        {"id": "e1", "members": ["1", "2", "3", "4", "9", "10"]},
        {"id": "e2", "members": ["1", "2", "3", "4", "7", "8"]},
        {"id": "e3", "members": ["1", "2", "3", "4", "5", "6", "15"]},
        {"id": "e4", "members": ["1", "2", "11", "12", "16"]},
        {"id": "e5", "members": ["1", "2", "13", "14"]},
        {"id": "e6", "members": ["11", "12", "16", "17", "18"]},
        {"id": "e7", "members": ["13", "14", "17", "18"]},
    ],
}

# labels not all integer literals, so index order is lexicographic: the unit
# {10, 9} lists its members as ("10", "9") but its key sorts them numerically
MIXED_LABELS_DOC = {
    "vertices": ["a", "10", "9", "b"],
    "edges": [{"id": "e1", "members": ["9", "10", "a"]}, {"id": "e2", "members": ["a", "b"]}],
}
UNITS18_KEYS = ["1,2", "3,4", "5,6,15", "7,8", "9,10", "11,12,16", "13,14", "17,18"]

# fixes 1,2 / 3,4 / 17,18; 3-cycle on the next three units; swaps the rest
UNITS18_UNIT_MAP = {
    "1,2": "1,2",
    "3,4": "3,4",
    "5,6,15": "7,8",
    "7,8": "9,10",
    "9,10": "5,6,15",
    "11,12,16": "13,14",
    "13,14": "11,12,16",
    "17,18": "17,18",
}

# swaps the two size-2 units generated by single edges; lifts to vertices
UNITS18_SWAP_MAP = {
    "1,2": "1,2",
    "3,4": "3,4",
    "5,6,15": "5,6,15",
    "7,8": "9,10",
    "9,10": "7,8",
    "11,12,16": "11,12,16",
    "13,14": "13,14",
    "17,18": "17,18",
}


@pytest.fixture
def rot10():
    return Hypergraph.from_dict(ROT10_DOC)


@pytest.fixture
def rot10_aut(rot10):
    return validate_automorphism(rot10, ROT10_MAP)


@pytest.fixture
def rot10_ua(rot10):
    return validate_unit_automorphism(rot10, ROT10_UNIT_MAP)


@pytest.fixture
def units18():
    return Hypergraph.from_dict(UNITS18_DOC)


@pytest.fixture
def units18_ua(units18):
    return validate_unit_automorphism(units18, UNITS18_UNIT_MAP)


@pytest.fixture
def write_doc(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write
