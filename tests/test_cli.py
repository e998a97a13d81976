"""Command line behaviour: documents in, canonical JSON out, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypersym
from hypersym.cli import main

from conftest import ROT10_ADJACENCY_R, ROT10_DOC, ROT10_MAP, UNITS18_DOC, UNITS18_UNIT_MAP


@pytest.fixture
def rot10_path(write_doc):
    return write_doc("rot10.json", ROT10_DOC)


@pytest.fixture
def rot10_map_path(write_doc):
    return write_doc("rot10_map.json", {"map": ROT10_MAP})


@pytest.fixture
def units18_path(write_doc):
    return write_doc("units18.json", UNITS18_DOC)


@pytest.fixture
def unit_map_path(write_doc):
    return write_doc("unit_map.json", {"unit_map": UNITS18_UNIT_MAP})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_units_command(capsys, units18_path):
    code, out, _ = run(capsys, ["units", units18_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8
    assert doc["vertex_map"]["15"] == "5,6,15"
    assert [u["key"] for u in doc["units"]][:2] == ["1,2", "3,4"]
    assert doc["contracted"]["vertices"][0] == "1,2"


def test_matrix_command_exact(capsys, rot10_path):
    code, out, _ = run(capsys, ["matrix", rot10_path, "--kind", "adjacency_r"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 10 and doc["kind"] == "adjacency_r"
    entries = np.array(doc["entries"], dtype=float).reshape(10, 10, 2)
    assert np.array_equal(entries[:, :, 0], ROT10_ADJACENCY_R)
    assert np.abs(entries[:, :, 1]).max() == 0.0
    assert doc["row_sums"]["expected"] is None
    assert doc["row_sums"]["violations"] == []


def test_matrix_out_flag(capsys, tmp_path, rot10_path):
    target = tmp_path / "m.json"
    code, out, _ = run(capsys, ["matrix", rot10_path, "--kind", "transition", "--out", str(target)])
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["row_sums"]["expected"] == 1


def test_output_is_byte_identical(capsys, rot10_path, rot10_map_path):
    argv = ["decompose", rot10_path, rot10_map_path, "--kind", "adjacency_r"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert first.endswith("\n")


def test_validate_symmetry_automorphism(capsys, rot10_path, rot10_map_path):
    code, out, _ = run(capsys, ["validate-symmetry", rot10_path, rot10_map_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "automorphism" and doc["valid"] is True
    assert doc["order"] == 3
    assert doc["edge_map"] == {"e": "f", "f": "g", "g": "e", "h": "i", "i": "j", "j": "h"}
    assert doc["orbits"] == [["1"], ["2", "5", "8"], ["3", "6", "9"], ["4", "7", "10"]]


def test_validate_symmetry_rejects_bad_map(capsys, rot10_path, write_doc):
    bad = dict(ROT10_MAP)
    bad["1"], bad["4"] = "7", "1"  # still a bijection, no longer edge-preserving
    path = write_doc("bad_map.json", {"map": bad})
    code, out, _ = run(capsys, ["validate-symmetry", rot10_path, path])
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert "not an edge" in doc["reason"]


def test_validate_symmetry_unit_mode(capsys, units18_path, unit_map_path):
    code, out, _ = run(capsys, ["validate-symmetry", units18_path, unit_map_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "unit" and doc["valid"] is True
    assert doc["cardinality_preserving"] is False
    assert doc["lift"] is None
    assert "'5,6,15' has 3 members" in doc["lift_error"]
    assert doc["edge_map"]["e1"] == "e3"


def test_mode_inference_requires_one_key(capsys, rot10_path, write_doc):
    both = write_doc("both.json", {"map": ROT10_MAP, "unit_map": {}})
    code, _, err = run(capsys, ["validate-symmetry", rot10_path, both])
    assert code == 2
    assert "exactly one" in err


def test_decompose_command(capsys, rot10_path, rot10_map_path):
    code, out, _ = run(capsys, ["decompose", rot10_path, rot10_map_path, "--kind", "adjacency_r"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["verdict"] == "pass"
    assert doc["order"] == 10
    assert len(doc["lifted"]) == 10
    orders = sorted(b["order"] for b in doc["blocks"])
    assert orders == [3, 3, 4]
    for pair in doc["lifted"]:
        assert pair["residual"] <= 1e-8 * 3  # scaled by max |entry| = 3


def test_decompose_incompatible_unit_matrix(capsys, units18_path, unit_map_path):
    code, out, _ = run(capsys, ["decompose", units18_path, unit_map_path, "--kind", "adjacency_r"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert "(W[1,2], W[5,6,15]) = 3" in doc["error"]
    assert "(W[1,2], W[7,8]) = 2" in doc["error"]


def test_decompose_unit_normalized(capsys, units18_path, unit_map_path):
    code, out, _ = run(capsys, ["decompose", units18_path, unit_map_path, "--kind", "unit_normalized"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "unit"
    assert doc["verification"]["verdict"] == "pass"
    assert len(doc["lifted"]) == 18


def test_verify_command(capsys, rot10_path, rot10_map_path):
    code, out, _ = run(capsys, ["verify", rot10_path, rot10_map_path, "--kind", "adjacency_r"])
    assert code == 0
    doc = json.loads(out)
    assert doc["claimed"] == 10
    assert doc["skipped"] == []
    assert doc["verification"]["verdict"] == "pass"
    assert doc["verification"]["max_match_error"] <= 1e-8


def test_dynamics_synchronized(capsys, rot10_path, rot10_map_path, write_doc):
    values = {"1": 1.0, "4": 2.0, "7": 2.0, "10": 2.0}
    for lab in ("2", "5", "8"):
        values[lab] = 0.5
    for lab in ("3", "6", "9"):
        values[lab] = [0.0, -1.0]
    x0 = write_doc("x0.json", {"values": values})
    code, out, _ = run(capsys, ["dynamics", rot10_path, rot10_map_path,
                                "--kind", "adjacency_r", "--x0", x0,
                                "--steps", "25", "--normalize"])
    assert code == 0
    doc = json.loads(out)
    assert doc["synchronized"] is True
    assert doc["first_violation_step"] is None
    assert doc["trajectory"]["steps"] == 25


def test_dynamics_desynchronized_flagged_at_zero(capsys, rot10_path, rot10_map_path, write_doc):
    values = {lab: 1.0 for lab in ROT10_DOC["vertices"]}
    values["5"] = 1.25
    x0 = write_doc("x0bad.json", {"values": values})
    code, out, _ = run(capsys, ["dynamics", rot10_path, rot10_map_path,
                                "--kind", "adjacency_r", "--x0", x0, "--steps", "5"])
    assert code == 1
    doc = json.loads(out)
    assert doc["synchronized"] is False
    assert doc["first_violation_step"] == 0


def test_dynamics_needs_vertex_map(capsys, units18_path, unit_map_path, write_doc):
    x0 = write_doc("x0u.json", {"values": {str(k): 1.0 for k in range(1, 19)}})
    code, _, err = run(capsys, ["dynamics", units18_path, unit_map_path,
                                "--kind", "adjacency_r", "--x0", x0, "--steps", "3"])
    assert code == 2
    assert "vertex automorphisms" in err


def test_state_document_must_cover_vertices(capsys, rot10_path, rot10_map_path, write_doc):
    x0 = write_doc("x0short.json", {"values": {"1": 1.0}})
    code, _, err = run(capsys, ["dynamics", rot10_path, rot10_map_path,
                                "--kind", "adjacency_r", "--x0", x0, "--steps", "2"])
    assert code == 2
    assert "missing value" in err


def test_missing_file_is_usage_error(capsys, rot10_map_path):
    code, _, err = run(capsys, ["matrix", "/nonexistent/h.json", "--kind", "adjacency_r"])
    assert code == 2
    assert "cannot read" in err


def test_selftest_command(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "1", "--count", "5"])
    assert code == 0
    assert "selftest: 5/5 trials clean (seed 1)" in out


@pytest.mark.parametrize(
    "command, flags",
    [
        ("decompose", ["--tol", "nan"]),
        ("verify", ["--tol", "-1"]),
        ("verify", ["--tol-match", "inf"]),
        ("dynamics", ["--steps", "-1"]),
        ("dynamics", ["--steps", "3", "--tol", "nan"]),
        ("selftest", ["--count", "-3"]),
        ("selftest", ["--count", "0"]),
    ],
)
def test_bad_numeric_flags_are_usage_errors(capsys, rot10_path, rot10_map_path, write_doc, command, flags):
    # a negative or NaN tolerance, negative steps or no trials: argparse
    # refuses the flag and exits 2 before anything runs
    argv = [command, *flags]
    if command != "selftest":
        argv[1:1] = [rot10_path, rot10_map_path, "--kind", "adjacency_r"]
    if command == "dynamics":
        argv += ["--x0", write_doc("x0.json", {"values": {lab: 1.0 for lab in ROT10_DOC["vertices"]}})]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flags[-2]}: expected" in capsys.readouterr().err


def test_boundary_numeric_flags_are_accepted(capsys, rot10_path, rot10_map_path, write_doc):
    code, out, _ = run(capsys, ["decompose", rot10_path, rot10_map_path, "--kind", "adjacency_r", "--tol", "0"])
    assert code == 0 and json.loads(out)["verification"]["verdict"] == "pass"
    x0 = write_doc("x0.json", {"values": {lab: 1.0 for lab in ROT10_DOC["vertices"]}})
    code, out, _ = run(capsys, ["dynamics", rot10_path, rot10_map_path, "--kind", "adjacency_r",
                                "--x0", x0, "--steps", "0", "--tol", "0"])
    assert code == 0 and json.loads(out)["trajectory"]["steps"] == 0
    code, out, _ = run(capsys, ["selftest", "--seed", "2", "--count", "1"])
    assert code == 0 and "1/1 trials clean" in out


def test_weights_flag(capsys, rot10_path, rot10_map_path, write_doc):
    weights = {
        "delta_V": {lab: 1.0 for lab in ROT10_DOC["vertices"]},
        "delta_E": {e["id"]: 2.0 for e in ROT10_DOC["edges"]},
    }
    wpath = write_doc("w.json", weights)
    code, out, _ = run(capsys, ["verify", rot10_path, rot10_map_path,
                                "--kind", "general_adjacency", "--weights", wpath])
    assert code == 0
    assert json.loads(out)["verification"]["verdict"] == "pass"


def test_console_script_installed(rot10_path):
    # the package's parent directory, so an uninstalled checkout runs too
    src = str(Path(hypersym.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hypersym.cli", "matrix", rot10_path, "--kind", "adjacency_r"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 10
