"""Dense-eigensolve oracle and decomposition verification.

The oracle route ignores all symmetry structure: it hands the full matrix
to a dense solver, sorts the eigenvalues, and reports per-pair residuals.
A matrix with no nonzero imaginary entry is solved as the real matrix it
is: by eigh (LAPACK dsyevd) when it equals its transpose, by real eig
(dgeev) otherwise; only a genuinely complex matrix goes to complex eig
(zgeev). The residuals are one n^3 product of A with the eigenvectors,
taken in real arithmetic for a real A. verify_decomposition compares a
block decomposition against it by greedy nearest-neighbour multiset
matching with a per-match tolerance scaled by max(1, ||M||_inf), computed
once per verification, and checks every lifted eigenpair's residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypersymError
from .jsonutil import complex_pair
from .matrices import as_array
from .spectral import SpectralDecomposition, _eig_sorted, _real_if_exact, residual_norms

MATCH_TOL = 1e-8


@dataclass(frozen=True)
class SpectrumReport:
    """Dense spectrum with residuals and the scale max(1, ||M||_inf) of its
    thresholds; verification adds the largest match error and its verdict."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    verdict: bool
    scale: float
    failures: tuple[str, ...] = ()
    max_match_error: float | None = None

    def to_document(self) -> dict:
        doc = {
            "eigenvalues": complex_pair(self.eigenvalues),
            "residuals": self.residuals.tolist(),
            "verdict": "pass" if self.verdict else "fail",
            "failures": list(self.failures),
        }
        if self.max_match_error is not None:
            doc["max_match_error"] = float(self.max_match_error)
        return doc


def _scale(A: np.ndarray) -> float:
    """max(1, ||A||_inf), the scale of every oracle threshold."""
    return max(1.0, float(np.abs(A).sum(axis=1).max())) if A.size else 1.0


def _product(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A @ V for complex V; for a real A, one real product with V's real
    parts, or with its real and imaginary parts side by side."""
    if np.iscomplexobj(A):
        return A @ V
    if not V.imag.any():
        return A @ np.ascontiguousarray(V.real)
    # the (n, k) complex V viewed as (n, 2k) reals, re and im interleaved
    return (A @ np.ascontiguousarray(V).view(np.float64)).view(np.complex128)


def dense_spectrum(M) -> SpectrumReport:
    """Full spectrum by direct dense eigensolve, sorted by (real, imag)."""
    A = as_array(M)
    if not np.all(np.isfinite(A)):
        raise HypersymError("matrix has non-finite entries")
    A = _real_if_exact(A)
    scale = _scale(A)
    vals, vecs = _eig_sorted(A)
    residuals = residual_norms(_product(A, vecs), vecs, vals)
    failures = tuple(
        f"dense eigenpair {i} residual {residuals[i]:.3e}"
        for i in np.flatnonzero(residuals > MATCH_TOL * scale)
    )
    return SpectrumReport(
        eigenvalues=vals, residuals=residuals, verdict=not failures, scale=scale, failures=failures
    )


def match_multisets(a, b, tol: float):
    """Greedy nearest-neighbour matching of two complex multisets.

    Both are traversed in (real, imag) order; each element of a takes the
    nearest unused element of b within tol. Returns (pairs, unmatched_a,
    unmatched_b) with pairs as (x, y, |x - y|).
    """
    a = sorted((complex(z) for z in a), key=lambda z: (z.real, z.imag))
    b = sorted((complex(z) for z in b), key=lambda z: (z.real, z.imag))
    if not a or not b:
        return [], a, b
    # err[i, j] = |a_i - b_j| (hypot, as abs of a Python complex); a column is
    # set to inf once b_j is used, and NaN never matches
    diff = np.array(a)[:, None] - np.array(b)[None, :]
    err = np.hypot(diff.real, diff.imag)
    err[np.isnan(err)] = np.inf
    used = np.zeros(len(b), dtype=bool)
    pairs: list[tuple[complex, complex, float]] = []
    unmatched_a: list[complex] = []
    for i, x in enumerate(a):
        j = int(np.argmin(err[i]))  # the first of equally near elements
        best_err = float(err[i, j])
        if best_err < np.inf and best_err <= tol:
            used[j] = True
            err[:, j] = np.inf
            pairs.append((x, b[j], best_err))
        else:
            unmatched_a.append(x)
    unmatched_b = [y for y, u in zip(b, used) if not u]
    return pairs, unmatched_a, unmatched_b


def verify_decomposition(M, decomposition: SpectralDecomposition, tol: float = MATCH_TOL) -> SpectrumReport:
    """Check a decomposition against the dense oracle.

    The block eigenvalue multiset must match the dense spectrum within
    tol * max(1, ||M||_inf) per match, counts must agree with the matrix
    order, and every lifted pair's residual must clear the same threshold.
    On failure the report lists unmatched values with their source blocks
    and the offending residuals.
    """
    A = as_array(M)
    dense = dense_spectrum(A)
    claimed = decomposition.eigenvalues()
    threshold = tol * dense.scale
    failures: list[str] = list(dense.failures)

    if len(claimed) != A.shape[0]:
        failures.append(
            f"decomposition carries {len(claimed)} eigenvalues for order {A.shape[0]}"
        )
    pairs, unmatched_claimed, unmatched_dense = match_multisets(
        claimed, dense.eigenvalues, threshold
    )
    for z in unmatched_claimed:
        # the claimed values are the block values themselves
        source = next((b.source for b in decomposition.blocks if np.any(b.eigenvalues == z)), None)
        failures.append(f"decomposition value {z} unmatched (block {source})")
    for z in unmatched_dense:
        failures.append(f"dense value {z} missing from the decomposition")
    for pair in decomposition.lifted:
        if pair.residual > threshold:
            failures.append(
                f"lifted pair at {pair.value} from {pair.source} has residual "
                f"{pair.residual:.3e} > {threshold:.3e}"
            )
    max_err = max((err for _, _, err in pairs), default=0.0)
    return SpectrumReport(
        eigenvalues=dense.eigenvalues,
        residuals=dense.residuals,
        verdict=not failures,
        scale=dense.scale,
        failures=tuple(failures),
        max_match_error=max_err,
    )
