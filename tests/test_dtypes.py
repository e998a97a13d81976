"""The dtype contract: a real input stays real, and complex arithmetic starts
only where an entry or a root of unity is genuinely complex.

Realness and balance are decided once per matrix: a HypergraphMatrix holds
one read-only array, float64 unless an entry has a nonzero imaginary part,
which matrices.prepared (every route entry calls it) hands out itself; a raw
array is decided again on each call. From there the dtype of every block,
block vector and lift carries the decision, and picks each block's LAPACK
driver. Negative controls: one entry with a nonzero imaginary part sends
every block to complex eig, and a raw array changed between two calls is
decided again.
"""

import json
import sys
import threading
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from hypersym import (
    Hypergraph,
    HypergraphMatrix,
    as_array,
    as_rotation,
    blow_up,
    build_matrix,
    canonical_json,
    compatible_matrix,
    complex_pair,
    compute_units,
    decompose_automorphism,
    decompose_unit_automorphism,
    dense_spectrum,
    invariant_hypergraph,
    iterate,
    lift_orbit_vector,
    lift_rotation_vector,
    orbit_quotient,
    orbits,
    permutation_with_type,
    roots_of_unity,
    rotation_matrix,
    spectral_radius_via_quotient,
    validate_unit_automorphism,
)
from hypersym import matrices
from hypersym.cli import main

from conftest import ROT10_DOC, ROT10_MAP, UNITS18_DOC, UNITS18_SWAP_MAP


def _solved(decompose, *args):
    """(driver, dtype kind) of every matrix handed to an eigensolver, one
    entry per matrix of a stacked call, and the result."""
    calls = []

    def spy(name, fn):
        def wrapped(X):
            calls.extend([(name, X.dtype.kind)] * int(np.prod(X.shape[:-2])))
            return fn(X)

        return wrapped

    with patch.object(np.linalg, "eig", spy("eig", np.linalg.eig)), patch.object(
        np.linalg, "eigh", spy("eigh", np.linalg.eigh)
    ):
        result = decompose(*args)
    return calls, result


def _real_symmetric(rng, perm):
    M = compatible_matrix(rng, perm).real
    return (M + M.T) / 2


@pytest.mark.parametrize(
    "given, dtype",
    [
        (np.eye(3), np.float64),
        (np.eye(3, dtype=np.float32), np.float64),
        (np.eye(3, dtype=int), np.float64),
        (np.eye(3, dtype=bool), np.float64),
        ([[1, 2], [3, 4]], np.float64),
        (np.eye(3) + 0j, np.complex128),
        ([[1, 2j], [3, 4]], np.complex128),
    ],
    ids=["float64", "float32", "int", "bool", "int list", "complex", "complex list"],
)
def test_as_array_keeps_real_input_real(given, dtype):
    A = as_array(given)
    assert A.dtype == dtype
    assert np.array_equal(A, np.asarray(given))


def test_as_array_returns_a_float64_input_itself():
    A = np.arange(9.0).reshape(3, 3)
    assert as_array(A) is A


def test_hypergraph_matrices_stay_complex():
    h = Hypergraph.from_dict(UNITS18_DOC)
    M = build_matrix(h, "adjacency_r")
    # entries and as_array give a read-only complex128 copy, made on each
    # read; the routes solve the float64 array the matrix holds
    assert M.entries.dtype == np.complex128 and not M.entries.flags.writeable
    assert M.entries is not M.entries and np.array_equal(as_array(M), M.entries)
    assert as_array(M).dtype == np.complex128
    A = matrices.prepared(M)[0]
    assert A.dtype == np.float64 and np.array_equal(A, M.entries.real)


@pytest.mark.parametrize("lengths", [(2, 2, 2, 2), (4, 4), (2, 4, 4), (3, 6), (12,)], ids=str)
def test_real_matrix_has_real_plus_minus_one_blocks_vectors_and_lifts(lengths):
    rng = np.random.default_rng(len(lengths))
    p = permutation_with_type(rng, sum(lengths) + 1, lengths)
    A = _real_symmetric(rng, p)
    calls, dec = _solved(decompose_automorphism, A, p)
    # w = +-1 (the quotient, and w = -1 for an even length) are real blocks
    # (the quotient, with a fixed point, not symmetric: dgeev); every other
    # block is complex, and only one block of each conjugate pair is solved
    kinds = [kind for _, kind in calls]
    assert kinds.count("f") == 1 + any(ell % 2 == 0 for ell in lengths)
    assert kinds.count("c") == sum(2 * b.source.get("omega_k", 0) < b.source.get("order_n", 0) for b in dec.blocks)
    for pair in dec.lifted:
        real = pair.source["kind"] == "quotient" or 2 * pair.source["omega_k"] == pair.source["order_n"]
        assert pair.vector.dtype == (np.float64 if real else np.complex128), pair.source


def test_public_blocks_and_lifts_keep_the_dtype():
    rng = np.random.default_rng(4)
    p = permutation_with_type(rng, 9, (4, 4))
    A = _real_symmetric(rng, p)
    rot = as_rotation(p)
    for root in roots_of_unity(4):
        real = root.k in (0, 2)
        R = rotation_matrix(A, rot, root)
        assert R.dtype == (np.float64 if real else np.complex128)
        x = np.linalg.eigh(R)[1] if real else np.linalg.eig(R)[1]
        assert lift_rotation_vector(x, rot, root, p.n).dtype == x.dtype
        assert lift_rotation_vector(np.ones(2), rot, root, p.n).dtype == R.dtype
    Q = orbit_quotient(A, orbits(p))
    assert Q.dtype == np.float64
    assert lift_orbit_vector(np.ones(len(Q)), orbits(p)).dtype == np.float64
    assert lift_orbit_vector(np.ones(len(Q), dtype=int), orbits(p)).dtype == np.float64
    assert lift_orbit_vector(np.ones(len(Q)) * 1j, orbits(p)).dtype == np.complex128
    units = compute_units(Hypergraph.from_dict(UNITS18_DOC))
    assert blow_up(np.ones(len(units.units)), units).dtype == np.float64
    assert blow_up(np.ones(len(units.units)) + 0j, units).dtype == np.complex128


def _same_decomposition(a, b):
    assert [x.source for x in a.blocks] == [x.source for x in b.blocks]
    for x, y in zip(a.blocks, b.blocks):
        assert np.array_equal(x.eigenvalues, y.eigenvalues)
    assert len(a.lifted) == len(b.lifted)
    for x, y in zip(a.lifted, b.lifted):
        assert x.value == y.value and x.source == y.source and x.residual == y.residual
        assert x.vector.dtype == y.vector.dtype and np.array_equal(x.vector, y.vector)
    assert a.skipped == b.skipped


@pytest.mark.parametrize("how", ["symmetric", "general"])
@pytest.mark.parametrize("lengths", [(2, 4, 4), (3, 6), (12,)], ids=str)
def test_complex_matrix_with_zero_imaginary_parts_decomposes_as_its_real_part(lengths, how):
    rng = np.random.default_rng(sum(lengths))
    p = permutation_with_type(rng, sum(lengths) + 2, lengths)
    # .real is a strided view; the route computes on a contiguous copy either way
    A = _real_symmetric(rng, p) if how == "symmetric" else compatible_matrix(rng, p).real
    real_calls, real_dec = _solved(decompose_automorphism, A, p)
    calls, dec = _solved(decompose_automorphism, A.astype(np.complex128), p)
    assert calls == real_calls
    _same_decomposition(dec, real_dec)
    assert np.array_equal(dense_spectrum(A + 0j).eigenvalues, dense_spectrum(A).eigenvalues)
    assert spectral_radius_via_quotient(A + 0j, p) == spectral_radius_via_quotient(A, p)


def test_unit_route_with_zero_imaginary_parts_decomposes_as_its_real_part():
    h = Hypergraph.from_dict(UNITS18_DOC)
    ua = validate_unit_automorphism(h, UNITS18_SWAP_MAP)
    M = build_matrix(h, "adjacency_r")  # complex128 entries, all real
    calls, dec = _solved(decompose_unit_automorphism, M, ua)
    real_calls, real_dec = _solved(decompose_unit_automorphism, M.entries.real, ua)
    assert calls == real_calls and all(kind == "f" for _, kind in calls)
    _same_decomposition(dec, real_dec)
    # the unit difference vectors are real too
    assert all(p.vector.dtype == np.float64 for p in dec.lifted if p.source["kind"] == "unit")


@pytest.mark.parametrize("lengths", [(2, 4, 4), (3, 6), (12,)], ids=str)
def test_one_imaginary_entry_sends_every_block_to_complex_eig(lengths):
    rng = np.random.default_rng(sum(lengths))
    p = permutation_with_type(rng, sum(lengths) + 2, lengths)
    A = _real_symmetric(rng, p).astype(np.complex128)
    A[0, 1] += 1e-12j  # within the compatibility tolerance
    calls, dec = _solved(decompose_automorphism, A, p)
    assert calls == [("eig", "c")] * len(dec.blocks)
    assert all(pair.vector.dtype == np.complex128 for pair in dec.lifted)


@pytest.mark.parametrize("command", ["decompose", "verify"])
def test_one_verify_decides_realness_and_balance_once(command, write_doc, capsys):
    # the decompose route and the dense oracle, on a thread of its own, read
    # one decision: one imaginary-part scan (matrices._decide) and one
    # balance check, taken before the oracle's thread starts
    doc, table = write_doc("rot10.json", ROT10_DOC), write_doc("map.json", {"map": ROT10_MAP})
    with patch.object(matrices, "_decide", wraps=matrices._decide) as decide, patch.object(
        matrices, "_balance", wraps=matrices._balance
    ) as balance:
        assert main([command, doc, table, "--kind", "transition"]) == 0
    assert json.loads(capsys.readouterr().out)["verification"]["verdict"] == "pass"
    assert decide.call_count == 1 and balance.call_count == 1


def test_hypergraph_matrix_entries_are_read_only():
    M = build_matrix(Hypergraph.from_dict(UNITS18_DOC), "adjacency_r")
    with pytest.raises(ValueError, match="read-only"):
        M.entries[0, 0] = 1.0
    # a caller's own array is copied once, when the matrix is made: a later
    # write to it reaches neither the entries nor the decision
    own = M.entries.copy()
    held = HypergraphMatrix(kind=M.kind, labels=M.labels, entries=own)
    A, d = matrices.prepared(held)
    assert not np.shares_memory(A, own) and not A.flags.writeable and own.flags.writeable
    own[0, 0] = 1.0
    own[0, 1] = 1j
    assert held.entries[0, 0] == 0.0 and held.entries.imag.max() == 0.0
    assert held == held and M == M
    assert matrices.prepared(held)[0] is A and A.dtype == np.float64 and d is not None


@pytest.fixture(scope="module")
def rot12_312(tmp_path_factory):
    """A transition matrix of order 312 under a rotation of 26 12-cycles
    (the shape of the rot12-verify benchmark workload): the verify argv,
    the hypergraph and the permutation."""
    rng = np.random.default_rng(0)
    while True:  # the transition kind needs every vertex in an edge
        perm = permutation_with_type(rng, 312, (12,) * 26)
        h = invariant_hypergraph(rng, perm, seed_edges=78)
        if all(h.stars):
            break
    root = tmp_path_factory.mktemp("rot12_312")
    doc, table, out = root / "h.json", root / "map.json", root / "report.json"
    doc.write_text(json.dumps(h.to_dict()))
    table.write_text(json.dumps({"map": {h.labels[i]: h.labels[perm(i)] for i in range(h.n)}}))
    argv = ["verify", str(doc), str(table), "--kind", "transition", "--out", str(out)]
    assert main(argv) == 0  # the first operation imports and caches what it uses
    return argv, h, perm


def test_prepared_hands_out_the_array_a_matrix_holds(rot12_312):
    _, h, perm = rot12_312
    M = build_matrix(h, "transition")
    A, d = matrices.prepared(M)
    assert matrices.prepared(M)[0] is A and A.dtype == np.float64 and A.flags.c_contiguous
    assert not A.flags.writeable and d is M.symmetrizer
    with pytest.raises(ValueError, match="read-only"):
        A[0, 0] = 0.0
    assert decompose_automorphism(M, perm).eigenvalues().size == h.n
    assert matrices.prepared(M)[0] is A


def _largest_numpy_block_at_stage_returns(run, n: int) -> int:
    """The largest numpy data block live at any return from a function of
    matrices, oracle or cli, in any thread, while run() runs (one snapshot
    per return once n x n complex128 bytes are traced at all)."""
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    stages = {"hypersym.matrices", "hypersym.oracle", "hypersym.cli"}
    largest = 0

    def hook(frame, event, arg):
        nonlocal largest
        if (
            event == "return"
            and frame.f_globals.get("__name__") in stages
            and not frame.f_code.co_name.startswith("<")
            and tracemalloc.get_traced_memory()[0] >= 16 * n * n
        ):
            traces = tracemalloc.take_snapshot().filter_traces(numpy_only).traces
            largest = max([largest, *(t.size for t in traces)])

    tracemalloc.start()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        tracemalloc.stop()
    return largest


def test_one_verify_allocates_no_complex_square_array(rot12_312):
    # the matrix is built, decided and solved in float64 in both threads:
    # no numpy block as large as a complex128 n x n array is ever live at a
    # stage boundary (the complex entries of a real matrix would be, all
    # through the operation)
    argv, h, _ = rot12_312
    largest = _largest_numpy_block_at_stage_returns(lambda: main(argv), h.n)
    assert 0 < largest < 16 * h.n * h.n


def test_one_verify_peak_is_pinned(rot12_312):
    # traced peak of one verify operation, both threads, in real n x n
    # arrays: 7.2 with one float64 array per matrix shared by both threads
    # (up to 7.9 when the two threads' allocations overlap most), 9.2-10.9
    # when a real matrix was held complex and copied per call; the least of
    # three operations, as the overlap depends on the threads' timing
    argv, h, _ = rot12_312
    peaks = []
    for _ in range(3):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert min(peaks) <= 8 * (8 * h.n * h.n)


def test_a_raw_array_changed_between_calls_is_decided_again():
    rng = np.random.default_rng(5)
    p = permutation_with_type(rng, 13, (3, 6))
    A = _real_symmetric(rng, p)
    calls, first = _solved(decompose_automorphism, A, p)
    assert {name for name, _ in calls} == {"eigh"}
    A[:] = compatible_matrix(rng, p).real  # compatible, no longer symmetric
    calls, second = _solved(decompose_automorphism, A, p)
    assert {name for name, _ in calls} == {"eig"}
    _same_decomposition(second, decompose_automorphism(A.copy(), p))
    assert not np.array_equal(second.eigenvalues(), first.eigenvalues())


def test_dynamics_runs_in_complex_arithmetic():
    p = permutation_with_type(np.random.default_rng(0), 4, (2, 2))
    A = _real_symmetric(np.random.default_rng(1), p)
    traj = iterate(A, np.ones(4), steps=3, orbs=orbits(p))
    assert traj.states.dtype == np.complex128
    assert np.array_equal(traj.states, iterate(A + 0j, np.ones(4), steps=3, orbs=orbits(p)).states)


def test_real_vectors_print_as_their_complex_copies():
    x = np.array([[1.5, -0.0], [2.0, -3.25]])
    assert complex_pair(x) == complex_pair(x.astype(np.complex128))
    assert canonical_json(complex_pair(x)) == canonical_json(complex_pair(x + 0j))
    assert complex_pair(np.array([1, 2])) == [[1.0, 0.0], [2.0, 0.0]]
    assert complex_pair(2.5) == [2.5, 0.0]
