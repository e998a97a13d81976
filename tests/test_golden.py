"""Golden reports: `decompose` and `verify` on the fixtures against the
reports committed under tests/golden.

Keys, strings, integers, verdicts, exit codes and refusal texts must match
exactly; floats within 1e-12 * max(1, ||M||_inf), which leaves room for
rounding in the last bits and nothing else.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hypersym import Hypergraph, build_matrix
from hypersym.cli import main

from conftest import ROT10_DOC, ROT10_MAP, UNITS18_DOC, UNITS18_SWAP_MAP, UNITS18_UNIT_MAP

GOLDEN = Path(__file__).parent / "golden"
HYPERGRAPHS = {"rot10": ROT10_DOC, "units18": UNITS18_DOC}
SYMMETRIES = {
    "rot10_map": {"map": ROT10_MAP},
    "unit_map": {"unit_map": UNITS18_UNIT_MAP},
    "swap_map": {"unit_map": UNITS18_SWAP_MAP},
}
CASES = [
    ("rot10", "rot10_map", "adjacency_r", 0),
    ("rot10", "rot10_map", "transition", 0),
    ("units18", "unit_map", "unit_normalized", 0),
    ("units18", "swap_map", "adjacency_r", 0),
    ("units18", "unit_map", "adjacency_r", 1),  # refused: the quotient breaks the map
]


def assert_matches(got, want, tol, where="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_matches(got[key], want[key], tol, f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, tol, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool) and not (
        isinstance(want, int) and isinstance(got, int)
    ):
        # a float that happens to be integral is printed as an integer
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= tol, f"{where}: {got!r} vs {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize("hypergraph, symmetry, kind, code", CASES, ids=str)
def test_report_matches_golden(hypergraph, symmetry, kind, code, command, write_doc, tmp_path):
    h_path = write_doc(f"{hypergraph}.json", HYPERGRAPHS[hypergraph])
    s_path = write_doc(f"{symmetry}.json", SYMMETRIES[symmetry])
    out = tmp_path / "report.json"
    assert main([command, h_path, s_path, "--kind", kind, "--out", str(out)]) == code
    A = build_matrix(Hypergraph.from_dict(HYPERGRAPHS[hypergraph]), kind).entries
    tol = 1e-12 * max(1.0, float(np.abs(A).sum(axis=1).max()))
    want = json.loads((GOLDEN / f"{hypergraph}-{symmetry}-{kind}-{command}.json").read_text())
    assert_matches(json.loads(out.read_text()), want, tol)
