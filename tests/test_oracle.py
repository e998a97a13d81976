"""Dense-spectrum oracle and decomposition verification reports.

The oracle solves a real matrix with the real LAPACK drivers (eigh when it
is symmetric, real eig otherwise) and only a complex one with complex eig.
Against the complex-only oracle of loop_reference.py it must give the same
verdicts and failure texts, with eigenvalues within 1e-12 * max(1,
||M||_inf), on every route and on every negative control.
"""

import re
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from hypersym import (
    MATRIX_KINDS,
    HypersymError,
    Permutation,
    build_matrix,
    compatible_matrix,
    decompose_automorphism,
    dense_spectrum,
    invariant_hypergraph,
    invariant_weights,
    match_multisets,
    random_instance,
    spectral_radius_via_quotient,
    validate_automorphism,
    verify_decomposition,
)
from hypersym.matrices import WEIGHTED_KINDS
from hypersym.oracle import MATCH_TOL


def test_dense_spectrum_sorted_with_residuals(rot10):
    A = build_matrix(rot10, "adjacency_r")
    report = dense_spectrum(A)
    vals = report.eigenvalues
    order = np.lexsort((vals.imag, vals.real))
    assert np.array_equal(order, np.arange(len(vals)))
    assert report.verdict
    assert np.all(report.residuals <= 1e-10)


def test_dense_spectrum_known_diagonal():
    D = np.diag([3.0, -1.0, 2.0])
    report = dense_spectrum(D)
    assert np.allclose(report.eigenvalues, [-1.0, 2.0, 3.0])


def test_dense_spectrum_rejects_nonfinite():
    A = np.array([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(HypersymError, match="non-finite"):
        dense_spectrum(A)


def test_match_tolerance_scales_with_norm():
    # the per-match threshold grows with ||M||_inf, so a large matrix with
    # proportionally large eigensolve error still verifies
    scale = 1e6
    A = scale * np.array([[0.0, 1.0], [1.0, 0.0]])
    report = dense_spectrum(A)
    assert report.verdict


def test_verify_thresholds_scale_with_norm(rot10, rot10_aut):
    # at 1e9 the dense residuals exceed MATCH_TOL absolutely but not
    # relative to ||M||_inf, which verify_decomposition hands the oracle
    A = 1e9 * build_matrix(rot10, "adjacency_r").entries
    report = verify_decomposition(A, decompose_automorphism(A, rot10_aut))
    assert report.verdict
    assert report.residuals.max() > MATCH_TOL


def test_verify_reports_count_mismatch(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    dec = decompose_automorphism(A, rot10_aut)
    short = type(dec)(n=dec.n, blocks=dec.blocks[:-1], lifted=dec.lifted, skipped=dec.skipped)
    report = verify_decomposition(A, short)
    assert not report.verdict
    assert any("carries" in f for f in report.failures)
    assert any("missing from the decomposition" in f for f in report.failures)


def test_verify_reports_bad_lift(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    dec = decompose_automorphism(A, rot10_aut)
    pairs = list(dec.lifted)
    p0 = pairs[0]
    pairs[0] = type(p0)(value=p0.value, vector=p0.vector, source=p0.source, residual=1.0)
    bad = type(dec)(n=dec.n, blocks=dec.blocks, lifted=tuple(pairs), skipped=dec.skipped)
    report = verify_decomposition(A, bad)
    assert not report.verdict
    assert any("residual" in f for f in report.failures)


def test_verify_document_shape(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    report = verify_decomposition(A, decompose_automorphism(A, rot10_aut))
    doc = report.to_document()
    assert doc["verdict"] == "pass"
    assert doc["failures"] == []
    assert len(doc["eigenvalues"]) == 10
    assert doc["max_match_error"] <= 1e-8


def test_match_multisets_greedy_is_order_free():
    a = [0.0, 1.0, 1.0 + 1e-10]
    b = [1.0 + 5e-11, 1.0 - 1e-10, 0.0]
    pairs, ua, ub = match_multisets(a, b, tol=1e-8)
    assert len(pairs) == 3 and not ua and not ub


def test_unmatched_value_names_its_own_block():
    # at scale 1e-13 every block value lies within 1e-12 of the first
    # block's, so only an exact lookup names the quotient
    rng = np.random.default_rng(6)
    p = Permutation((1, 0, 3, 4, 5, 2))
    M = compatible_matrix(rng, p) * 1e-13
    dec = decompose_automorphism(M, p)
    blocks = tuple(
        type(b)(source=b.source, order=b.order, eigenvalues=b.eigenvalues + 5e-13)
        if b.source["kind"] == "quotient"
        else b
        for b in dec.blocks
    )
    bad = type(dec)(n=dec.n, blocks=blocks, lifted=dec.lifted, skipped=dec.skipped)
    report = verify_decomposition(M, bad, tol=1e-14)
    unmatched = [f for f in report.failures if f.startswith("decomposition value")]
    assert len(unmatched) == 2
    assert all(f.endswith("(block {'kind': 'quotient'})") for f in unmatched)


PARITY_RTOL = 1e-12
DENSE_VALUE = re.compile(r"dense value (.+) missing from the decomposition")
# the three solver routes, each with the instance that takes it
ROUTES = ("real symmetric", "real general", "complex")
# matrices beyond the ten kinds: complex general, complex symmetric (not
# Hermitian) and real nonnegative general, all compatible with the map
GENERATED = ("complex", "complex_symmetric", "nonnegative")
CORRUPTIONS = ("none", "shifted value", "dropped block", "bad lift")


def _scale(A):
    return max(1.0, float(np.abs(A).sum(axis=1).max()))


def _drivers(A):
    """The (solver, dtype kind) pairs dense_spectrum(A) hands to numpy."""
    calls = []

    def spy(name, fn):
        def wrapped(X):
            calls.append((name, X.dtype.kind))
            return fn(X)

        return wrapped

    with patch.object(np.linalg, "eig", spy("eig", np.linalg.eig)), patch.object(
        np.linalg, "eigh", spy("eigh", np.linalg.eigh)
    ):
        dense_spectrum(A)
    return calls


def _route_case(route, rot10, rot10_aut):
    if route == "real symmetric":
        A = build_matrix(rot10, "adjacency_r").entries
    elif route == "real general":
        A = build_matrix(rot10, "transition").entries
    else:
        A = compatible_matrix(np.random.default_rng(3), rot10_aut.perm)
    return A, decompose_automorphism(A, rot10_aut)


def _instance(rng, kind):
    """A random instance and its matrix of the given kind (or GENERATED)."""
    h, aut = random_instance(rng, n_max=12)
    if kind == "transition":  # with an edge at every vertex
        h = invariant_hypergraph(rng, aut.perm, seed_edges=3, include_full_edge=True)
        aut = validate_automorphism(h, aut.perm)
    if kind in GENERATED:
        return compatible_matrix(
            rng, aut.perm, symmetric=kind == "complex_symmetric", nonnegative=kind == "nonnegative"
        ), aut
    weights = invariant_weights(rng, h, aut) if kind in WEIGHTED_KINDS else None
    return build_matrix(h, kind, weights=weights).entries, aut


def _corrupt(dec, how, threshold):
    """dec with one block value moved by 1e-6 * scale (100 thresholds), the
    last block dropped, or the first lifted pair's residual over threshold."""
    blocks, lifted = list(dec.blocks), list(dec.lifted)
    if how == "shifted value":
        b = blocks[0]
        vals = b.eigenvalues.copy()
        vals[0] += 100 * threshold
        blocks[0] = type(b)(source=b.source, order=b.order, eigenvalues=vals)
    elif how == "dropped block":
        blocks.pop()
    elif how == "bad lift":
        p = lifted[0]
        lifted[0] = type(p)(value=p.value, vector=p.vector, source=p.source, residual=2 * threshold)
    return type(dec)(n=dec.n, blocks=tuple(blocks), lifted=tuple(lifted), skipped=dec.skipped)


def _assert_same_failures(got, want, tol):
    """The same failure texts, except that a dense value named by one may
    differ from the other's in its last bits."""

    def split(failures):
        dense = [complex(m.group(1)) for f in failures if (m := DENSE_VALUE.fullmatch(f))]
        return Counter(f for f in failures if not DENSE_VALUE.fullmatch(f)), dense

    (got_texts, got_dense), (want_texts, want_dense) = split(got), split(want)
    assert got_texts == want_texts
    _, unmatched_got, unmatched_want = match_multisets(got_dense, want_dense, tol)
    assert len(got_dense) == len(want_dense) and not unmatched_got and not unmatched_want


def _assert_matches_complex_oracle(A, dec):
    """verify_decomposition gives the verdict and failures it gives on the
    complex-only oracle, its dense eigenvalues match that oracle's, and a
    passing verification keeps every dense residual under threshold."""
    scale = _scale(A)
    got = verify_decomposition(A, dec)
    with patch("hypersym.oracle.dense_spectrum", ref.dense_spectrum):
        want = verify_decomposition(A, dec)
    assert got.verdict == want.verdict
    _assert_same_failures(got.failures, want.failures, PARITY_RTOL * scale)
    _, ua, ub = match_multisets(got.eigenvalues, want.eigenvalues, PARITY_RTOL * scale)
    assert not ua and not ub
    assert np.all(got.residuals <= MATCH_TOL * scale)
    return got


@given(
    st.sampled_from(MATRIX_KINDS + GENERATED),
    st.sampled_from(CORRUPTIONS),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_real_drivers_match_the_complex_oracle(kind, corruption, seed):
    rng = np.random.default_rng(seed)
    A, aut = _instance(rng, kind)
    dec = _corrupt(decompose_automorphism(A, aut), corruption, MATCH_TOL * _scale(A))
    report = _assert_matches_complex_oracle(A, dec)
    assert report.verdict == (corruption == "none")


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_takes_its_driver(route, rot10, rot10_aut):
    A, _ = _route_case(route, rot10, rot10_aut)
    expected = {"real symmetric": ("eigh", "f"), "real general": ("eig", "f"), "complex": ("eig", "c")}
    assert _drivers(A) == [expected[route]]


@pytest.mark.parametrize("corruption", CORRUPTIONS[1:])
@pytest.mark.parametrize("route", ROUTES)
def test_each_route_refuses_negative_controls(route, corruption, rot10, rot10_aut):
    A, dec = _route_case(route, rot10, rot10_aut)
    assert _assert_matches_complex_oracle(A, dec).verdict
    report = _assert_matches_complex_oracle(A, _corrupt(dec, corruption, MATCH_TOL * _scale(A)))
    assert not report.verdict


def test_real_symmetric_values_have_exact_zero_imaginary_parts(rot10):
    report = dense_spectrum(build_matrix(rot10, "adjacency_r"))
    assert report.eigenvalues.dtype == np.complex128
    assert np.all(report.eigenvalues.imag == 0.0)


def test_one_ulp_asymmetry_takes_the_general_path(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r").entries.copy()
    A[0, 1] = np.nextafter(A[0, 1].real, np.inf)
    assert _drivers(A) == [("eig", "f")]
    report = _assert_matches_complex_oracle(A, decompose_automorphism(A, rot10_aut))
    assert report.verdict


@given(st.sampled_from(("nonnegative", "adjacency_r", "transition", "complex")), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_spectral_radius_matches_complex_eig(kind, seed):
    rng = np.random.default_rng(seed)
    A, aut = _instance(rng, kind)
    rho_full, _ = spectral_radius_via_quotient(A, aut)
    assert abs(rho_full - float(np.abs(np.linalg.eigvals(A)).max())) <= PARITY_RTOL * _scale(A)
