"""Each block solved in the arithmetic its structure allows.

Real blocks go to the real LAPACK drivers, the block of conj(w) of a real
matrix takes the conjugated eigenpairs of the w-block, and every block
eigenvector follows one phase convention. Every route is checked against
the dense oracle, with negative controls.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersym import (
    Hypergraph,
    IncompatibleMatrixError,
    Permutation,
    build_matrix,
    compatible_matrix,
    compute_units,
    decompose_automorphism,
    decompose_unit_automorphism,
    invariant_hypergraph,
    orbits,
    permutation_with_type,
    validate_unit_automorphism,
    verify_decomposition,
)
from hypersym import spectral
from hypersym.symmetry import rotation_decomposition

from conftest import UNITS18_DOC, UNITS18_SWAP_MAP, UNITS18_UNIT_MAP

CYCLE_TYPES = ((2, 4, 4), (3, 6), (12,), (2,), (3,), (2, 3), (4,))
MATRICES = ("real symmetric", "real general", "complex hermitian", "complex general")


def _matrix(rng, perm, how):
    """A perm-compatible matrix of the given structure, exactly compatible."""
    M = compatible_matrix(rng, perm)
    if how == "real symmetric":
        return (M.real + M.real.T) / 2
    if how == "real general":
        return M.real
    if how == "complex hermitian":
        return (M + M.conj().T) / 2
    return M


def _block_rows(perm, source):
    """The indices, in block row order, at which a lifted vector of the
    block with this source carries the block vector itself."""
    if source["kind"] == "quotient":
        return [cell[0] for cell in orbits(perm).cells]
    j, ell = source["omega_k"], source["order_n"]
    return [u for rot in rotation_decomposition(perm).factors if j * rot.order_n % ell == 0 for u in rot.u0]


def _meets_convention(x):
    """Unit 2-norm, and an entry of largest re^2 + im^2 (to within rounding)
    real and positive."""
    mag = x.real**2 + x.imag**2
    near = mag >= (1 - 1e-13) * mag.max()
    return abs(np.linalg.norm(x) - 1) <= 1e-12 and bool((near & (x.imag == 0) & (x.real > 0)).any())


def _check(M, dec, rows_of):
    """The spectrum and every lifted residual against the oracle, nothing
    skipped; blocks sorted; every solved block vector, read off its lifted
    vector, meets the convention."""
    report = verify_decomposition(M, dec)
    assert report.verdict, report.failures
    assert not dec.skipped
    for block in dec.blocks:
        vals = block.eigenvalues
        assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(len(vals))), block.source
    for pair in dec.lifted:
        if pair.source["kind"] != "unit":
            x = pair.vector[rows_of(pair.source)]
            assert _meets_convention(x), (pair.source, x)


@given(
    st.sampled_from(CYCLE_TYPES),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(MATRICES),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=160, deadline=None)
def test_every_structure_matches_the_oracle(lengths, fixed, how, seed):
    rng = np.random.default_rng(seed)
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    M = _matrix(rng, p, how)
    dec = decompose_automorphism(M, p)
    assert sum(b.order for b in dec.blocks) == len(dec.lifted) == p.n
    _check(M, dec, lambda source: _block_rows(p, source))
    # negative controls: one entry on a moved vertex broken above the
    # tolerance is refused, and a shifted block value fails verification
    u = next(c[0] for c in p.cycles() if len(c) > 1)
    bad = M.copy()
    bad[u, p(u)] += 1e-3
    with pytest.raises(IncompatibleMatrixError, match="deviates"):
        decompose_automorphism(bad, p)
    block = dec.blocks[-1]
    shifted = block.eigenvalues.copy()
    shifted[0] += 1e-3 * max(1.0, float(np.abs(M).sum(axis=1).max()))
    blocks = (*dec.blocks[:-1], type(block)(source=block.source, order=block.order, eigenvalues=shifted))
    assert not verify_decomposition(M, type(dec)(n=dec.n, blocks=blocks, lifted=dec.lifted, skipped=())).verdict


UNITS18 = Hypergraph.from_dict(UNITS18_DOC)
UNIT_MAPS = {"unit_map": UNITS18_UNIT_MAP, "swap_map": UNITS18_SWAP_MAP}


@given(
    st.sampled_from([("unit_map", "unit_normalized"), ("swap_map", "adjacency_r"), ("swap_map", "unit_normalized")]),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_unit_route_matches_the_oracle(case, c):
    # c * M is a complex general matrix with the same symmetries as M
    name, kind = case
    ua = validate_unit_automorphism(UNITS18, UNIT_MAPS[name])
    units = compute_units(UNITS18)
    base = build_matrix(UNITS18, kind).entries
    for M in (base, c * base):
        dec = decompose_unit_automorphism(M, ua)
        _check(M, dec, lambda source: [units.units[i].member_indices[0] for i in _block_rows(ua.perm, source)])


def test_roots_are_exact_at_quarter_turns_and_conjugate():
    for n in range(1, 61):
        for k in range(n):
            w = spectral._root_value(n, k)
            if 4 * k % n == 0:
                assert w == (1, 1j, -1, -1j)[4 * k // n], (n, k)
            assert w == spectral._root_value(n, n - k).conjugate(), (n, k)
            assert abs(w - np.exp(2j * np.pi * k / n)) <= 2e-15, (n, k)


@pytest.mark.parametrize("lengths", [(2, 4, 4), (3, 6), (12,)], ids=str)
@pytest.mark.parametrize("fixed", [0, 2])
def test_conjugate_blocks_of_a_real_matrix_are_conjugate(lengths, fixed):
    rng = np.random.default_rng(sum(lengths) + fixed)
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    orbs = orbits(p)
    characters = spectral._characters(rotation_decomposition(p).factors)
    for how in ("real symmetric", "real general"):
        A = _matrix(rng, p, how).astype(complex)
        blocks = {
            (s.get("factor"), s.get("omega_k")): spectral._block_matrix(A, parts, orbs, 1e-6)
            for s, parts in characters
        }
        for s, _ in characters:
            if s["kind"] == "rotation" and 2 * s["omega_k"] > s["order_n"]:
                partner = blocks[s["factor"], s["order_n"] - s["omega_k"]]
                # equal entry for entry; only the sign of a zero may differ
                assert np.array_equal(blocks[s["factor"], s["omega_k"]], partner.conj())
            elif s["kind"] == "quotient" or 2 * s["omega_k"] == s["order_n"]:
                assert not blocks[s.get("factor"), s.get("omega_k")].imag.any()


@pytest.mark.parametrize("seed", range(20))
def test_convention_leaves_zgeev_vectors_untouched(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 12))
    B = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
    if seed % 2:
        B = B + B.conj().T
    _, V = np.linalg.eig(B)
    assert spectral._phase_convention(V) is V
    # a rotated copy is brought back to the convention; a real column is
    # only negated
    W = spectral._phase_convention(V * np.exp(1j * rng.uniform(0, 2 * np.pi, size=b)))
    assert all(_meets_convention(W[:, i]) for i in range(b))
    assert np.allclose(W, V, atol=1e-14)
    _, R = np.linalg.eigh(B.real + B.real.T)
    R = R.astype(complex)
    P = spectral._phase_convention(R)
    assert all(_meets_convention(P[:, i]) for i in range(b))
    assert np.array_equal(np.abs(P), np.abs(R)) and not P.imag.any()


def _solver_calls(M, p):
    calls = []

    def spy(name, fn):
        def wrapped(X):
            calls.append((name, X.dtype.kind))
            return fn(X)

        return wrapped

    with patch.object(np.linalg, "eig", spy("eig", np.linalg.eig)), patch.object(
        np.linalg, "eigh", spy("eigh", np.linalg.eigh)
    ):
        dec = decompose_automorphism(M, p)
    return calls, dec


def test_rot2_blocks_reach_eigh():
    # an involution with no fixed point: the w = -1 block and the quotient
    # of a real symmetric matrix are real symmetric
    rng = np.random.default_rng(2)
    p = permutation_with_type(rng, 16, (2,) * 8)
    h = invariant_hypergraph(rng, p, seed_edges=4)
    A = build_matrix(h, "adjacency_r").entries
    calls, dec = _solver_calls(A, p)
    assert calls == [("eigh", "f"), ("eigh", "f")]
    assert verify_decomposition(A, dec).verdict


@pytest.mark.parametrize("how", MATRICES)
def test_conjugate_pairs_are_solved_once_for_real_matrices_only(how):
    # one 12-cycle: blocks j = 1..11 and the quotient; for a real matrix
    # j = 7..11 take the conjugates of j = 5..1
    rng = np.random.default_rng(12)
    p = permutation_with_type(rng, 13, (12,))
    M = _matrix(rng, p, how)
    calls, dec = _solver_calls(M, p)
    assert len(calls) == (7 if how.startswith("real") else 12)
    if how.startswith("real"):  # w = -1 and the quotient, solved last, are real
        assert [kind for _, kind in calls[-2:]] == ["f", "f"]
    assert verify_decomposition(M, dec).verdict


def test_conjugated_values_are_sorted_again():
    # two 3-cycles with circulants (0, 1, 2) and (0, 2, 1): the w-block is
    # diagonal with values of exactly equal real part, whose conjugates are
    # out of (real, imag) order until sorted again
    p = Permutation((1, 2, 0, 4, 5, 3))
    A = np.zeros((6, 6))
    for base, (c1, c2) in ((0, (1, 2)), (3, (2, 1))):
        for i in range(3):
            A[base + i, base + (i + 1) % 3] = c1
            A[base + i, base + (i + 2) % 3] = c2
    dec = decompose_automorphism(A, p)
    w, w_bar = (dec.block(kind="rotation", omega_k=k).eigenvalues for k in (1, 2))
    assert w[0].real == w[1].real and w[0].imag < 0 < w[1].imag
    assert np.array_equal(w_bar, w)
    assert verify_decomposition(A, dec).verdict
