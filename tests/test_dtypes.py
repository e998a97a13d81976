"""The dtype contract: a real input stays real, and complex arithmetic starts
only where an entry or a root of unity is genuinely complex.

Realness and balance are decided once per matrix, in matrices.prepared,
which every route entry calls: a HypergraphMatrix keeps the decision (its
entries read-only), a raw array is decided again on each call. From there
the dtype of every block, block vector and lift carries the decision, and
picks each block's LAPACK driver. Negative controls: one entry with a
nonzero imaginary part sends every block to complex eig, and a raw array
changed between two calls is decided again.
"""

import json
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
    assert M.entries.dtype == np.complex128 and as_array(M) is M.entries


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
    # a caller's own complex128 array is viewed, not frozen
    own = M.entries.copy()
    held = HypergraphMatrix(kind=M.kind, labels=M.labels, entries=own)
    assert np.shares_memory(held.entries, own) and not held.entries.flags.writeable
    own[0, 0] = 1.0
    assert own.flags.writeable


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
