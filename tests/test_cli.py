"""Command line behaviour: documents in, canonical JSON out, exit codes."""

import importlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

import hypersym
from hypersym import Hypergraph, cli, jsonutil, oracle, spectral, symmetry
from hypersym.cli import main
from hypersym.hypergraph import _Cells

from conftest import (
    LONG74_DOC,
    LONG74_MAP,
    MIXED13_DOC,
    MIXED13_MAP,
    MIXED_LABELS_DOC,
    ROT10_ADJACENCY_R,
    ROT10_DOC,
    ROT10_MAP,
    UNITS18_DOC,
    UNITS18_SWAP_MAP,
    UNITS18_UNIT_MAP,
)

ROOT = Path(__file__).resolve().parent.parent


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


def test_units_command_on_mixed_labels(capsys, write_doc):
    code, out, _ = run(capsys, ["units", write_doc("mixed.json", MIXED_LABELS_DOC)])
    assert code == 0
    assert out == (
        '{"contracted": {"edges": [{"id": "e1", "members": ["9,10", "a"]}, '
        '{"id": "e2", "members": ["a", "b"]}], "vertices": ["9,10", "a", "b"]}, "count": 3, '
        '"units": [{"generating_edges": ["e1"], "key": "9,10", "members": ["10", "9"], "size": 2}, '
        '{"generating_edges": ["e1", "e2"], "key": "a", "members": ["a"], "size": 1}, '
        '{"generating_edges": ["e2"], "key": "b", "members": ["b"], "size": 1}], '
        '"vertex_map": {"10": "9,10", "9": "9,10", "a": "a", "b": "b"}}\n'
    )


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


@pytest.fixture
def report_argvs(write_doc, rot10_path, rot10_map_path):
    """argv, without --out, of a decompose, a verify and a refusal report."""
    bad = dict(ROT10_MAP)
    bad["1"], bad["4"] = "7", "1"  # still a bijection, no longer edge-preserving
    bad_path = write_doc("bad_map.json", {"map": bad})
    return {
        "decompose": ["decompose", rot10_path, rot10_map_path, "--kind", "adjacency_r"],
        "verify": ["verify", rot10_path, rot10_map_path, "--kind", "transition"],
        "refusal": ["verify", rot10_path, bad_path, "--kind", "adjacency_r"],
    }


@pytest.mark.parametrize("report", ["decompose", "verify", "refusal"])
def test_emit_writes_the_canonical_text_and_a_newline(capsys, monkeypatch, tmp_path, report_argvs, report):
    # byte for byte, to stdout and to a file: the text is written as the
    # encoder returns it, then the newline
    docs = []
    encode = cli.canonical_json
    monkeypatch.setattr(cli, "canonical_json", lambda doc: docs.append(doc) or encode(doc))
    argv = report_argvs[report]
    code, out, err = run(capsys, argv)
    target = tmp_path / "report.json"
    assert main(argv + ["--out", str(target)]) == code == (1 if report == "refusal" else 0)
    assert len(docs) == 2 and err == ""
    want = [(jsonutil.canonical_json(doc) + "\n").encode() for doc in docs]
    assert out.encode() == want[0] and target.read_bytes() == want[1] == want[0]
    assert ("error" in json.loads(out)) == (report == "refusal")


@pytest.mark.parametrize("command", ["matrix", "validate-symmetry", "decompose", "verify", "refusal"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_out_path_is_a_usage_error(capsys, tmp_path, report_argvs, rot10_path, rot10_map_path, command, where):
    # an error line and exit 2, as for an unreadable input, not a traceback
    # and not the exit code of a failed check; nothing is created
    argv = {
        "matrix": ["matrix", rot10_path, "--kind", "adjacency_r"],
        "validate-symmetry": ["validate-symmetry", rot10_path, rot10_map_path],
        **report_argvs,
    }[command]
    target, reason = {
        "missing directory": (tmp_path / "missing" / "report.json", "No such file or directory"),
        "directory": (tmp_path, "Is a directory"),
    }[where]
    before = sorted(tmp_path.iterdir())
    code, out, err = run(capsys, argv + ["--out", str(target)])
    assert (code, out, err) == (2, "", f"error: cannot write {target}: {reason}\n")
    assert sorted(tmp_path.iterdir()) == before


def _rot2_decompose_document(monkeypatch, tmp_path):
    """The document of the decompose report on the seed-11 p0 positive of
    the rot2-decompose benchmark workload (n = 160)."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    w = importlib.import_module("workloads").WORKLOADS["rot2-decompose"]
    inst = importlib.import_module("workloads").generate(w, 11, tmp_path)[0][0]
    docs = []
    monkeypatch.setattr(cli, "canonical_json", lambda doc: docs.append(doc) or jsonutil.canonical_json(doc))
    assert main([w.command, str(inst.hypergraph), str(inst.symmetry), "--kind", w.kind, "--out", str(tmp_path / "r.json")]) == 0
    return docs[0]


def test_the_encoder_peak_stays_below_five_report_lengths(monkeypatch, tmp_path):
    # 727 kB of text, most of it the lifted vectors' spliced floats: the
    # traced peak of canonical_json was 5.5 times the text while each
    # bracket, key and member made a copy of it; 2.8 times with one join
    doc = _rot2_decompose_document(monkeypatch, tmp_path)
    text = jsonutil.canonical_json(doc)
    tracemalloc.start()
    try:
        assert jsonutil.canonical_json(doc) == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 700_000 and peak < 5 * len(text)


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


def _spy_dense_solves(monkeypatch, overflow=False, delay=0.0):
    """The thread of every dense solve (oracle._scale runs once in each);
    with overflow, each solve first meets a numpy overflow, and each takes
    at least delay seconds."""
    solves = []
    scale = oracle._scale

    def spy(A):
        solves.append(threading.current_thread())
        if overflow:
            np.float64(1e308) * 10.0
        time.sleep(delay)
        return scale(A)

    monkeypatch.setattr(oracle, "_scale", spy)
    return solves


def _poison_oracle(monkeypatch):
    """Give the dense oracle a copy of every matrix with a NaN in it (the
    array prepared gives is read-only and shared with the decomposition), so
    that its own finiteness check refuses what the decomposition accepts."""
    prepared = oracle.prepared

    def poisoned(M):
        A, d = prepared(M)
        A = A.copy()
        A[0, 0] = np.nan
        return A, d

    monkeypatch.setattr(oracle, "prepared", poisoned)


def test_decompose_incompatible_unit_matrix(capsys, monkeypatch, units18_path, unit_map_path, rot10_path, rot10_map_path):
    argv = ["decompose", units18_path, unit_map_path, "--kind", "adjacency_r"]
    threads = threading.active_count()
    solves = _spy_dense_solves(monkeypatch, delay=0.2)  # still solving when the refusal comes
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    # the oracle's thread is joined on refusal
    assert len(solves) == 1 and not solves[0].is_alive() and threading.active_count() == threads
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert "(W[1,2], W[5,6,15]) = 3" in doc["error"]
    assert "(W[1,2], W[7,8]) = 2" in doc["error"]
    _poison_oracle(monkeypatch)
    # an oracle error after a passing decomposition: exit 1 and its error line
    assert run(capsys, ["decompose", rot10_path, rot10_map_path, "--kind", "adjacency_r"]) == (
        1, "", "error: matrix has non-finite entries\n"
    )
    # both fail: the decomposition's refusal is what is emitted
    assert run(capsys, argv) == (1, out, "")
    assert threading.active_count() == threads


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


TOO_LARGE = "1" + "0" * 400  # 10^400 as a JSON integer: beyond the float range


@pytest.mark.parametrize(
    "command, document, message",
    [
        ("units", '{"vertices": ["1"], "edges": [], "note": 1%s}' % ("0" * 5000), "cannot be read"),
        ("units", "[" * 100000 + "]" * 100000, "cannot be read"),
        ("matrix", '{"delta_V": {}, "delta_E": {"e": %s}}' % TOO_LARGE, "delta_E['e'] is too large"),
        ("dynamics", '{"values": {"1": %s}}' % TOO_LARGE, "values['1'] is too large"),
        ("dynamics", '{"values": {"1": NaN}}', "values['1'] is not finite"),
        ("dynamics", '{"values": {"1": [0, Infinity]}}', "values['1'] is not finite"),
        ("dynamics", '{"values": {"1": 1e400}}', "values['1'] is not finite"),
    ],
    ids=["5001-digit-integer", "nested-100000-deep", "weight-10^400", "state-10^400",
         "state-NaN", "state-Infinity", "state-1e400"],
)
def test_unreadable_documents_are_usage_errors(capsys, tmp_path, rot10_path, rot10_map_path, command, document, message):
    # valid JSON that Python cannot turn into numbers (or parse at all), or
    # a state value that is not finite (the NaN and Infinity literals json
    # reads, or a float literal beyond the float range), prints an error
    # line and exits 2 instead of raising
    path = tmp_path / "document.json"
    path.write_text(document)
    argv = {
        "units": ["units", str(path)],
        "matrix": ["matrix", rot10_path, "--kind", "general_adjacency", "--weights", str(path)],
        "dynamics": ["dynamics", rot10_path, rot10_map_path, "--kind", "adjacency_r",
                     "--x0", str(path), "--steps", "1"],
    }[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


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


def test_calls_in_one_process_print_as_each_call_alone(capsys, rot10_path, rot10_map_path, write_doc):
    # main shares one parser between calls: a flag given to one call must
    # not become a default of the next
    weights = {"delta_V": {lab: 0.5 for lab in ROT10_DOC["vertices"]}, "delta_E": {e["id"]: 2.0 for e in ROT10_DOC["edges"]}}
    wpath = write_doc("w.json", weights)
    rot10 = [rot10_path, rot10_map_path]
    runs = [
        ["verify", *rot10, "--kind", "adjacency_r", "--tol-match", "0"],
        ["verify", *rot10, "--kind", "adjacency_r"],
        ["validate-symmetry", *rot10, "--mode", "unit"],
        ["validate-symmetry", *rot10],
        ["verify", *rot10, "--kind", "general_adjacency", "--weights", wpath],
        ["verify", *rot10, "--kind", "general_adjacency"],
    ]
    together = [run(capsys, argv) for argv in runs]
    src = str(Path(hypersym.__file__).resolve().parents[1])
    alone = [
        subprocess.run([sys.executable, "-m", "hypersym.cli", *argv], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
        for argv in runs
    ]
    assert together == [(proc.returncode, proc.stdout, proc.stderr) for proc in alone]
    for with_flag, without in zip(together[::2], together[1::2]):
        assert with_flag != without  # so a leaked flag would show


def test_importing_the_cli_loads_no_executor_or_logging():
    # concurrent.futures imports logging, some 7 ms of every one-shot run
    # under -X importtime; the oracle's thread is a plain threading.Thread
    src = str(Path(hypersym.__file__).resolve().parents[1])
    code = "import sys, hypersym.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_the_float_kernel_tables_are_built_on_first_use():
    # building them takes some 0.7 MB of peak RSS, which a process that
    # prints no row node (verify, matrix, ...) should not pay
    src = str(Path(hypersym.__file__).resolve().parents[1])
    code = (
        "import numpy as np, hypersym.cli; from hypersym import jsonutil as j\n"
        "built = lambda: [f.cache_info().currsize for f in (j._powers_of_ten, j._text_tables)]\n"
        "print(built(), j._g17(np.array([0.5])).tolist(), built())"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[0, 0] ['0.5'] [1, 1]\n", "")


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_the_dense_oracle_solves_beside_the_decomposition(capsys, monkeypatch, command, rot10_path, rot10_map_path):
    solves = _spy_dense_solves(monkeypatch)
    threads = threading.active_count()
    code, out, _ = run(capsys, [command, rot10_path, rot10_map_path, "--kind", "adjacency_r"])
    assert code == 0 and json.loads(out)["verification"]["verdict"] == "pass"
    # one solve, on a thread of its own, joined before main returns
    assert len(solves) == 1 and solves[0] is not threading.current_thread()
    assert not solves[0].is_alive() and threading.active_count() == threads


def test_only_a_used_oracle_solve_warns(capsys, monkeypatch, write_doc, rot10_path, rot10_map_path):
    # rot10 weights near the top of the float range, one edge weight off the
    # orbit: the decomposition refuses it without a warning, while the dense
    # solve of the same matrix overflows; the refusal shows none of that
    weights = {
        "delta_V": {lab: 1.0 for lab in ROT10_DOC["vertices"]},
        "delta_E": {e["id"]: 2e305 for e in ROT10_DOC["edges"]},
    }
    weights["delta_E"]["e"] = 3e305
    argv = ["verify", rot10_path, rot10_map_path, "--kind", "general_adjacency", "--weights", write_doc("w.json", weights)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
        assert code == 1 and "error" in json.loads(out) and err == ""
        assert caught == []
        # a solve of a passing decomposition that meets an overflow is done
        # again by the calling thread, whose warning is the only one
        solves = _spy_dense_solves(monkeypatch, overflow=True)
        code, out, _ = run(capsys, ["verify", rot10_path, rot10_map_path, "--kind", "adjacency_r"])
    assert code == 0 and json.loads(out)["verification"]["verdict"] == "pass"
    assert solves[1:] == [threading.current_thread()] and solves[0] is not solves[1]
    assert [str(w.message) for w in caught] == ["overflow encountered in scalar multiply"]


def _edge_weights(write_doc, doc, delta_E):
    """A weights document for doc: every vertex weight 1, every edge weight delta_E."""
    return write_doc("w.json", {
        "delta_V": {lab: 1.0 for lab in doc["vertices"]},
        "delta_E": {e["id"]: delta_E for e in doc["edges"]},
    })


@pytest.mark.parametrize("kind", ["general_adjacency", "general_signless", "general_laplacian"])
def test_residuals_whose_squares_overflow_stay_finite(capsys, write_doc, rot10_path, rot10_map_path, kind):
    # rot10 with every edge weight 1e306: entries near 1e305, so the squares
    # of a residual overflow though the residual does not; every block pair is
    # kept, every residual is finite, and no overflow is reported
    argv = ["verify", rot10_path, rot10_map_path, "--kind", kind, "--weights", _edge_weights(write_doc, ROT10_DOC, 1e306)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    doc = json.loads(out)
    assert (code, err, caught) == (0, "", [])
    assert doc["verification"]["verdict"] == "pass" and doc["skipped"] == [] and doc["claimed"] == 10


@pytest.mark.parametrize("delta_E", [1e307, 5e307, 1e308])
@pytest.mark.parametrize("kind", ["general_adjacency", "general_signless", "general_laplacian"])
def test_the_top_of_the_float_range_verifies(capsys, write_doc, rot10_path, rot10_map_path, kind, delta_E):
    # compatibility is the only symmetry check, so cell sums that differ by
    # rounding are not refused as unequal, and a balanced block's Hermitian
    # form is halved before it is summed, so it does not overflow
    argv = ["verify", rot10_path, rot10_map_path, "--kind", kind, "--weights", _edge_weights(write_doc, ROT10_DOC, delta_E)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert (code, err, caught) == (0, "", [])
    assert json.loads(out)["verification"]["verdict"] == "pass"


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize(
    "route, beyond",
    [((ROT10_DOC, {"map": ROT10_MAP}), "block {'kind': 'quotient'}"), ((UNITS18_DOC, {"unit_map": UNITS18_SWAP_MAP}), "unit '1,2'")],
    ids=["rot10", "units18"],
)
def test_a_spectrum_beyond_the_float_range_is_a_failed_check(capsys, write_doc, command, route, beyond):
    # with every edge weight 1.7e308, general_laplacian has an eigenvalue
    # beyond the largest float: the decomposition refuses the block or unit
    # that holds it, with no report of a number JSON cannot hold
    doc, table = route
    weights = _edge_weights(write_doc, doc, 1.7e308)
    argv = [command, write_doc("h.json", doc), write_doc("s.json", table), "--kind", "general_laplacian", "--weights", weights]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run(capsys, argv)
    report = json.loads(out)
    assert code == 1 and report["verdict"] == "fail"
    assert report["error"] == f"{beyond} has an eigenvalue beyond the float range"


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize(
    "unit_map, error",
    [
        (
            UNITS18_UNIT_MAP,
            "unit quotient is not compatible with the unit map: entry (W[1,2], W[5,6,15]) = -1.04082e+307 "
            "but its image entry (W[1,2], W[7,8]) = -9.44444e+306",
        ),
        (UNITS18_SWAP_MAP, "unit '1,2' has an eigenvalue beyond the float range"),
    ],
    ids=["unit_map", "swap_map"],
)
def test_unit_checks_at_the_top_of_the_float_range_print_no_warning(capsys, write_doc, command, unit_map, error):
    # every edge weight 1.7e308: comparing opposite-signed entries in the
    # unit checks overflows, and under the swap map d - r of unit '1,2' lies
    # beyond the float range; each input is refused as before, with nothing
    # on stderr
    weights = _edge_weights(write_doc, UNITS18_DOC, 1.7e308)
    argv = [command, write_doc("h.json", UNITS18_DOC), write_doc("s.json", {"unit_map": unit_map}), "--kind", "general_laplacian", "--weights", weights]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, argv)
    assert (code, err, [str(w.message) for w in caught]) == (1, "", [])
    assert json.loads(out) == {"error": error, "verdict": "fail"}


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize(
    "route",
    [(ROT10_DOC, {"map": ROT10_MAP}, "adjacency_r"), (UNITS18_DOC, {"unit_map": UNITS18_UNIT_MAP}, "unit_normalized")],
    ids=["rot10", "units18"],
)
def test_one_operation_walks_the_cycles_once(capsys, write_doc, command, route):
    # validation takes the order from the permutation's cycle layout, and the
    # decomposition's orbits and rotation factors read the same layout: no
    # cells are laid out from Python tuples or split into them
    doc, table, kind = route
    argv = [command, write_doc("h.json", doc), write_doc("s.json", table), "--kind", kind]
    with patch.object(symmetry, "_walk_cycles", wraps=symmetry._walk_cycles) as walk, patch.object(
        _Cells, "__init__", autospec=True, side_effect=_Cells.__init__
    ) as layout, patch.object(symmetry, "_split_rows", wraps=symmetry._split_rows) as split:
        code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["verification"]["verdict"] == "pass"
    assert walk.call_count == 1 and layout.call_count == 0 and split.call_count == 0


@pytest.mark.parametrize("command", ["decompose", "verify"])
@pytest.mark.parametrize(
    "route",
    [
        (ROT10_DOC, {"map": ROT10_MAP}, "adjacency_r", False),
        (MIXED13_DOC, {"map": MIXED13_MAP}, "transition", False),
        (LONG74_DOC, {"map": LONG74_MAP}, "laplacian_r", False),
        (UNITS18_DOC, {"unit_map": UNITS18_UNIT_MAP}, "unit_normalized", True),
    ],
    ids=["rot10", "mixed13", "long74", "units18"],
)
def test_only_the_unit_route_multiplies_the_whole_matrix(capsys, write_doc, command, route):
    # on the vertex route every lifted residual's product comes from A's
    # columns summed along the cycles, so the decomposition multiplies no
    # n x n matrix; the unit route still multiplies M by its blown-up
    # vectors (the oracle's own product is not counted)
    doc, table, kind, unit_route = route
    n = len(doc["vertices"])
    argv = [command, write_doc("h.json", doc), write_doc("s.json", table), "--kind", kind]
    with patch.object(spectral, "_product", wraps=spectral._product) as product:
        code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["verification"]["verdict"] == "pass"
    whole = [call for call in product.call_args_list if call.args[0].shape == (n, n)]
    assert product.call_count > 0 and bool(whole) == unit_route


def test_one_unit_operation_computes_the_units_once(capsys, write_doc, unit_map_path):
    # build_matrix and validate_unit_automorphism share the partition that
    # compute_units caches on the hypergraph
    argv = ["verify", write_doc("h.json", UNITS18_DOC), unit_map_path, "--kind", "unit_normalized"]
    with patch.object(Hypergraph, "_star_arrays", autospec=True, side_effect=Hypergraph._star_arrays) as build:
        code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["verification"]["verdict"] == "pass"
    assert build.call_count == 1


def test_console_script_installed(rot10_path):
    # the package's parent directory, so an uninstalled checkout runs too
    src = str(Path(hypersym.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hypersym.cli", "matrix", rot10_path, "--kind", "adjacency_r"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 10


@pytest.mark.filterwarnings("error")
def test_dynamics_overflow_is_a_failed_check(capsys, rot10_path, rot10_map_path, write_doc):
    # the plain all-ones run overflows at step 330: a JSON report with the
    # step and the remedy, exit 1, and no numpy warning; it used to stop
    # with "cannot be serialized" and exit 2, the code for malformed input
    x0 = write_doc("x0.json", {"values": {lab: 1.0 for lab in ROT10_DOC["vertices"]}})
    code, out, err = run(capsys, ["dynamics", rot10_path, rot10_map_path, "--kind", "adjacency_r",
                                  "--x0", x0, "--steps", "900"])
    assert code == 1 and err == ""
    doc = json.loads(out)
    assert "step 330 is not finite" in doc["error"] and "--normalize" in doc["error"]
    assert "trajectory" not in doc
    assert doc["synchronized"] is False and doc["first_violation_step"] == 330
    code, out, _ = run(capsys, ["dynamics", rot10_path, rot10_map_path, "--kind", "adjacency_r",
                                "--x0", x0, "--steps", "900", "--normalize"])
    assert code == 0 and json.loads(out)["synchronized"] is True


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_report_commands_build_no_lifted_pair(command, monkeypatch, rot10_path, rot10_map_path, tmp_path, rot10, rot10_aut):
    # the reports print each block's lifted pairs from its arrays; the
    # per-pair objects are built only for a library caller that asks
    built = []
    init = spectral.LiftedPair.__init__
    monkeypatch.setattr(spectral.LiftedPair, "__init__", lambda self, **kw: built.append(kw) or init(self, **kw))
    argv = [command, rot10_path, rot10_map_path, "--kind", "adjacency_r", "--out", str(tmp_path / "out.json")]
    assert main(argv) == 0
    assert built == []
    dec = hypersym.decompose_automorphism(hypersym.build_matrix(rot10, "adjacency_r"), rot10_aut)
    assert len(dec.lifted) == len(built) == 10
