"""Dense-eigensolve oracle and decomposition verification.

The oracle route ignores all symmetry structure: it hands the full matrix
to a dense solver, sorts the eigenvalues, and reports per-pair residuals.
dense_spectrum solves the array matrices.prepared hands out (as_array's:
a HypergraphMatrix's own, read-only, shared with the decomposition) with
the balance it decides once per matrix, as the decomposition routes do: a
matrix with no nonzero imaginary entry is solved as the float64 matrix it
is; a real matrix equal to its transpose goes to eigh (LAPACK dsyevd), a
complex one equal to its conjugate transpose to complex eigh (zheevd); a
HypergraphMatrix whose symmetrizer d balances it (the transition, general_*
and unit_normalized kinds: diag(d) A symmetric, d checked to rounding
first) goes to eigh of its symmetric form D^{1/2} A D^{-1/2}, its vectors
mapped back to A's. Any other real matrix goes to real eig (dgeev), its real vectors staying real,
and any other complex one to complex eig (zgeev). A raw array, or a matrix
whose symmetrizer fails the check, takes the route it would without one.
The residuals are one n^3 product of A itself with the eigenvectors, in
real arithmetic for a real A (spectral._product, which the decomposition's
residual checks share), so the symmetric form never vouches for itself.
verify_decomposition compares a block decomposition against it (solved
there, or handed over through dense=, as the CLI does from the thread that
solves it beside the decomposition) by greedy nearest-neighbour multiset
matching with a per-match tolerance scaled by max(1, ||M||_inf), computed
once per verification, and checks every lifted eigenpair's residual, all
records' residuals in one comparison. The matching searches, for each value, only the values whose real parts lie
within that tolerance, found by one searchsorted over the sorted real parts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import HypersymError
from .jsonutil import complex_pair
from .matrices import _block_rows, prepared
from .spectral import SpectralDecomposition, _eig_sorted, _product, residual_norms

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
    """max(1, ||A||_inf), the scale of every oracle threshold, after one
    pass over |A| a block of rows at a time (matrices._block_rows), the
    row sums bitwise those of the whole; HypersymError for a non-finite
    entry, looked for only when a row sum is not finite. A finite matrix
    whose row sums overflow has the largest float as its scale, so that
    its thresholds stay finite."""
    n = A.shape[0]
    if not A.size:
        return 1.0
    rows = _block_rows(n)
    buf, sums = np.empty((min(rows, n), n)), np.empty(n)
    with np.errstate(over="ignore"):
        for r in range(0, n, rows):
            k = min(rows, n - r)
            np.abs(A[r : r + k], out=buf[:k]).sum(axis=1, out=sums[r : r + k])
    if not np.isfinite(sums).all() and not np.isfinite(A).all():
        raise HypersymError("matrix has non-finite entries")
    return max(1.0, min(float(sums.max()), sys.float_info.max))


def dense_spectrum(M) -> SpectrumReport:
    """Full spectrum by direct dense eigensolve, sorted by (real, imag); a
    HypergraphMatrix's symmetrizer picks the balanced route."""
    A, d = prepared(M)
    scale = _scale(A)
    vals, vecs = _eig_sorted(A, d)  # real values for a real A: real residuals
    if not np.all(np.isfinite(vals)):
        raise HypersymError("matrix has an eigenvalue beyond the float range")
    residuals = residual_norms(_product(A, vecs), vecs, vals)
    vals = vals.astype(np.complex128)
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
    nearest unused element of b within tol, the first in b's order of
    equally near ones. Returns (pairs, unmatched_a, unmatched_b) with pairs
    as (x, y, |x - y|), |x - y| the hypot of the parts of x - y.

    Only the elements of b whose real part lies within tol of x's (with a
    few ulps to spare) can be within tol of x, so x's candidates are a
    window of b's finite elements sorted by real part, found by
    searchsorted; a non-finite element never matches, and an infinite tol
    makes every window the whole of b's finite elements.
    """
    a = sorted((complex(z) for z in a), key=lambda z: (z.real, z.imag))
    b = sorted((complex(z) for z in b), key=lambda z: (z.real, z.imag))
    if not a or not b:
        return [], a, b
    za, zb = np.array(a), np.array(b)
    finite = np.flatnonzero(np.isfinite(zb))
    finite = finite[np.argsort(zb.real[finite], kind="stable")]
    pad = tol + 4 * np.finfo(np.float64).eps * (np.abs(za.real) + tol)
    lo = np.searchsorted(zb.real[finite], za.real - pad, side="left")
    hi = np.searchsorted(zb.real[finite], za.real + pad, side="right")
    # every candidate pair (i, j), row by row, with its distance
    counts = np.maximum(hi - lo, 0)
    ends = np.cumsum(counts)
    cols = finite[np.arange(ends[-1]) - np.repeat(ends - counts - lo, counts)]
    diff = np.repeat(za, counts) - zb[cols]
    errs = np.hypot(diff.real, diff.imag).tolist()
    cols = cols.tolist()
    used = [False] * len(b)
    pairs: list[tuple[complex, complex, float]] = []
    unmatched_a: list[complex] = []
    start = 0
    for x, end in zip(a, ends.tolist()):
        best, j = np.inf, -1  # an infinite or NaN distance is never taken
        for p in range(start, end):
            k, e = cols[p], errs[p]
            if not used[k] and (e < best or (e == best and k < j)):
                best, j = e, k
        start = end
        if j >= 0 and best <= tol:
            used[j] = True
            pairs.append((x, b[j], best))
        else:
            unmatched_a.append(x)
    unmatched_b = [y for y, u in zip(b, used) if not u]
    return pairs, unmatched_a, unmatched_b


def verify_decomposition(
    M, decomposition: SpectralDecomposition, tol: float = MATCH_TOL, *, dense: SpectrumReport | None = None
) -> SpectrumReport:
    """Check a decomposition against the dense oracle.

    The block eigenvalue multiset must match the dense spectrum within
    tol * max(1, ||M||_inf) per match, counts must agree with the matrix
    order, and every lifted pair's residual must clear the same threshold.
    On failure the report lists unmatched values with their source blocks
    and the offending residuals. dense, when given, is dense_spectrum(M)
    already solved (the CLI solves it beside the decomposition); left out,
    it is solved here.
    """
    if dense is None:
        dense = dense_spectrum(M)
    claimed = decomposition.eigenvalues()
    threshold = tol * dense.scale
    failures: list[str] = list(dense.failures)

    if len(claimed) != len(dense.eigenvalues):
        failures.append(
            f"decomposition carries {len(claimed)} eigenvalues for order {len(dense.eigenvalues)}"
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
    # every lifted residual against the threshold at once; a failure is
    # named by its record and its place in it
    lifts = decomposition.lifts
    ends = np.cumsum([len(lift.residuals) for lift in lifts])
    residuals = np.concatenate([lift.residuals for lift in lifts]) if lifts else np.zeros(0)
    for p in np.flatnonzero(residuals > threshold).tolist():
        r = int(np.searchsorted(ends, p, side="right"))
        lift, i = lifts[r], p - (int(ends[r - 1]) if r else 0)
        failures.append(
            f"lifted pair at {complex(lift.values[i])} from {lift.source} has residual "
            f"{lift.residuals[i]:.3e} > {threshold:.3e}"
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
