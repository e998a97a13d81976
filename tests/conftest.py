"""Shared fixtures: two hand-checked hypergraphs with known symmetries.

ROT10 has 10 vertices, a rotation of order 3 fixing vertex 1, and a fully
worked decomposition (block matrices, eigenvalues, quotient) frozen in the
tests. UNITS18 has 18 vertices, 8 units, and a unit bijection that is a
valid unit-automorphism but does not lift to a vertex automorphism.
MIXED13 (cycle type (2, 4, 4), three fixed points) and LONG74 (three
24-cycles, two fixed points) are the parity set's vertex-route fixtures.
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

# permutation_with_type(rng, 13, (2, 4, 4)) and invariant_hypergraph(rng,
# perm, seed_edges=4) with rng = np.random.default_rng(8), written out: the
# cycles (1 11) (2 4 8 9) (6 12 7 13) and the fixed points 3, 5, 10
MIXED13_DOC = {
    "vertices": [str(v) for v in range(1, 14)],
    "edges": [
        {"id": f"e{j}", "members": members.split()}
        for j, members in enumerate([
            "3 6 12", "3 6 13", "3 7 12", "3 7 13", "1 2 5 9", "1 4 5 8", "2 4 5 11",
            "2 4 6 10", "2 9 10 13", "4 8 10 12", "5 8 9 11", "7 8 9 10", "1 2 3 8 11", "1 3 4 9 11",
        ])
    ],
}
MIXED13_MAP = {
    "1": "11", "2": "4", "3": "3", "4": "8", "5": "5", "6": "12", "7": "13",
    "8": "9", "9": "2", "10": "10", "11": "1", "12": "7", "13": "6",
}
# permutation_with_type(rng, 74, (24, 24, 24)) and invariant_hypergraph(rng,
# perm, seed_edges=3) with rng = np.random.default_rng(26), written out: the
# three 24-cycles below and the fixed points 58 and 69
LONG74_DOC = {
    "vertices": [str(v) for v in range(1, 75)],
    "edges": [
        {"id": f"e{j}", "members": members.split()}
        for j, members in enumerate([
            "2 58", "7 58", "11 58", "13 58", "14 58", "15 58", "16 58", "18 58", "22 58", "28 58", "34 58",
            "35 58", "43 58", "44 58", "45 58", "46 58", "49 58", "52 58", "53 58", "55 58", "57 58", "58 60",
            "58 63", "58 65", "2 16 30", "2 49 73", "5 18 63", "7 25 35", "7 52 59", "8 52 55", "10 15 44",
            "11 22 29", "11 60 71", "13 43 62", "13 46 68", "14 40 63", "14 41 57", "15 46 54", "16 28 39",
            "18 23 35", "20 55 57", "21 34 44", "22 26 45", "24 45 49", "28 60 74", "34 42 53", "43 47 65",
            "53 65 70", "1 5 47 50 69", "1 20 54 56 69", "3 8 10 61 69", "3 12 23 69 70", "4 10 33 39 69",
            "4 29 37 69 70", "5 9 64 69 74", "6 30 48 54 69", "6 32 42 69 71", "8 24 38 67 69", "9 20 26 69 72",
            "12 27 41 68 69", "17 21 36 69 74", "17 37 68 69 73", "19 29 41 51 69", "19 59 64 69 73",
            "21 27 50 59 69", "23 38 39 51 69", "24 32 33 62 69", "25 30 31 69 72", "25 42 56 66 69",
            "26 36 47 48 69", "31 40 67 69 71", "40 61 62 66 69",
        ])
    ],
}
LONG74_MAP = {
    **{str(v): str(v) for v in (58, 69)},
    **{
        cycle[t]: cycle[(t + 1) % 24]
        for cycle in (
            "1 38 36 61 64 32 27 31 37 56 51 48 3 9 33 50 67 17 66 19 6 12 72 4".split(),
            "2 53 57 16 65 55 28 43 52 60 13 7 11 46 35 22 15 18 45 44 63 49 34 14".split(),
            "5 24 21 40 73 42 41 30 70 20 39 47 8 74 62 59 71 68 25 29 54 23 26 10".split(),
        )
        for t in range(24)
    },
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
