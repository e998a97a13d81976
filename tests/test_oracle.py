"""Dense-spectrum oracle and decomposition verification reports."""

import numpy as np
import pytest

from hypersym import (
    HypersymError,
    Permutation,
    build_matrix,
    compatible_matrix,
    decompose_automorphism,
    dense_spectrum,
    match_multisets,
    verify_decomposition,
)


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
