"""Loop reference versions of the vectorised quotient, check, matching and
synchronization code, the complex-only dense oracle and the out-list JSON
emitter.

These are the original per-cell-pair, per-unit, per-element and per-step
loops the library replaced with whole-array numpy passes. They are kept
here, outside the package, so test_loop_equivalence.py can require the
library to give the same witnesses, messages, quotients, matchings and
synchronization verdicts. dense_spectrum is the oracle that solved every
matrix as complex128 (LAPACK zgeev); test_oracle.py requires the real
drivers to give the same verdicts and failures. canonical_json is the
emitter that appended every token to one out-list and formatted floats with
format(x, ".17g"), and complex_pairs the per-entry [re, im] conversion;
test_loop_equivalence.py requires the library's encoder and whole-array
conversion to give the same bytes and the same errors.
"""

import json
import math

import numpy as np

from hypersym import DocumentError, HypersymError, NotEquitableError, NotUnitCompatibleError
from hypersym.matrices import as_array
from hypersym.oracle import MATCH_TOL, SpectrumReport
from hypersym.spectral import residual_norms


def equitable_witness(M, cells, tol):
    A = as_array(M)
    covered = sorted(v for cell in cells for v in cell)
    if covered != list(range(A.shape[0])):
        raise HypersymError("partition does not cover the index set exactly once")
    for i, cell in enumerate(cells):
        if len(cell) == 1:
            continue
        for j, other in enumerate(cells):
            sums = A[np.ix_(cell, other)].sum(axis=1)
            dev = np.abs(sums - sums[0])
            k = int(np.argmax(dev))
            if dev[k] > tol:
                return (i, cell[0], cell[k], j, complex(sums[0]), complex(sums[k]))
    return None


def orbit_quotient(M, cells, tol):
    A = as_array(M)
    witness = equitable_witness(A, cells, tol)
    if witness is not None:
        i, u, u2, j, s1, s2 = witness
        raise NotEquitableError(
            f"partition is not equitable: rows {u} and {u2} of cell {i} sum to "
            f"{s1} and {s2} over cell {j}"
        )
    q = len(cells)
    Q = np.zeros((q, q), dtype=np.complex128)
    for i, cell in enumerate(cells):
        rep = cell[0]
        for j, other in enumerate(cells):
            Q[i, j] = A[rep, list(other)].sum()
    return Q


def profile_unit_compatibility(M, units, tol):
    """(d, r, rows) of a unit-compatible matrix, or NotUnitCompatibleError."""
    A = as_array(M)
    d = []
    r = []
    rows = np.zeros((len(units.units), units.n), dtype=np.complex128)
    for i, unit in enumerate(units.units):
        mem = list(unit.member_indices)
        key = unit.key
        rows[i] = A[mem[0]]
        diag = A[mem, mem]
        if np.abs(diag - diag[0]).max() > tol:
            k = int(np.argmax(np.abs(diag - diag[0])))
            raise NotUnitCompatibleError(
                f"unit {key!r}: diagonal entries differ: {diag[0]} at {mem[0]} "
                f"vs {diag[k]} at {mem[k]}"
            )
        d.append(complex(diag[0]))
        if len(mem) == 1:
            r.append(None)
        else:
            sub = A[np.ix_(mem, mem)]
            off = sub[~np.eye(len(mem), dtype=bool)]
            if np.abs(off - off[0]).max() > tol:
                raise NotUnitCompatibleError(
                    f"unit {key!r}: off-diagonal entries within the unit are not "
                    f"constant: {off[0]} vs {off[np.argmax(np.abs(off - off[0]))]}"
                )
            r.append(complex(off[0]))
            outside = [w for w in range(units.n) if w not in unit.member_indices]
            if outside:
                block = A[np.ix_(mem, outside)]
                dev = np.abs(block - block[0]).max(axis=0)
                if dev.max() > tol:
                    w = outside[int(np.argmax(dev))]
                    raise NotUnitCompatibleError(
                        f"unit {key!r}: rows toward outside vertex {w} differ "
                        f"(max deviation {dev.max():.3e})"
                    )
                blockT = A[np.ix_(outside, mem)]
                devc = np.abs(blockT - blockT[:, :1]).max(axis=1)
                if devc.max() > tol:
                    w = outside[int(np.argmax(devc))]
                    raise NotUnitCompatibleError(
                        f"unit {key!r}: columns from outside vertex {w} differ "
                        f"(max deviation {devc.max():.3e})"
                    )
    return tuple(d), tuple(r), rows


def unit_quotient(M, units, tol):
    A = as_array(M)
    profile_unit_compatibility(A, units, tol)
    q = len(units.units)
    N = np.zeros((q, q), dtype=np.complex128)
    for i, unit in enumerate(units.units):
        rep = unit.member_indices[0]
        for j, other in enumerate(units.units):
            N[i, j] = A[rep, list(other.member_indices)].sum()
    return N


def match_multisets(a, b, tol):
    a = sorted((complex(z) for z in a), key=lambda z: (z.real, z.imag))
    b = sorted((complex(z) for z in b), key=lambda z: (z.real, z.imag))
    used = [False] * len(b)
    pairs = []
    unmatched_a = []
    for x in a:
        best, best_err = -1, np.inf
        for j, y in enumerate(b):
            if used[j]:
                continue
            err = abs(x - y)
            if err < best_err:
                best, best_err = j, err
        if best >= 0 and best_err <= tol:
            used[best] = True
            pairs.append((x, b[best], float(best_err)))
        else:
            unmatched_a.append(x)
    unmatched_b = [y for j, y in enumerate(b) if not used[j]]
    return pairs, unmatched_a, unmatched_b


def cell_deviations(x, cells):
    """Max in-cell deviation from the cell mean of one state, per cell."""
    out = np.zeros(len(cells))
    for i, cell in enumerate(cells):
        if len(cell) > 1:
            vals = x[list(cell)]
            out[i] = float(np.abs(vals - vals.mean()).max())
    return out


def check_orbit_synchronization(states, error_scale, cells, tol):
    """(synchronized, first_violation_step, max_scaled_deviation), deciding
    step by step against tol * max(1, s_k)."""
    first = None
    max_scaled = 0.0
    for k, x in enumerate(states):
        scale = max(1.0, float(error_scale[k]))
        log = cell_deviations(x, cells)
        dev = float(log.max()) if len(log) else 0.0
        max_scaled = max(max_scaled, dev / scale)
        if dev > tol * scale and first is None:
            first = k
    return first is None, first, max_scaled


def dense_spectrum(M):
    """Full spectrum by complex eig of the complex128 matrix, whatever its
    entries, sorted by (real, imag), with complex residuals."""
    A = as_array(M)
    if not np.all(np.isfinite(A)):
        raise HypersymError("matrix has non-finite entries")
    vals, vecs = np.linalg.eig(A)
    order = np.lexsort((vals.imag, vals.real))
    vals, vecs = vals[order], vecs[:, order]
    scale = max(1.0, float(np.abs(A).sum(axis=1).max())) if A.size else 1.0
    residuals = residual_norms(A @ vecs, vecs, vals)
    failures = tuple(
        f"dense eigenpair {i} residual {residuals[i]:.3e}"
        for i in np.flatnonzero(residuals > MATCH_TOL * scale)
    )
    return SpectrumReport(
        eigenvalues=vals, residuals=residuals, verdict=not failures, scale=scale, failures=failures
    )


def format_float(x):
    if math.isnan(x) or math.isinf(x):
        raise DocumentError(f"non-finite number {x!r} cannot be serialized")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def canonical_json(obj):
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, complex):
        raise DocumentError("complex values must be encoded as [re, im] pairs")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise DocumentError(f"object key {key!r} is not a string")
            if i:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise DocumentError(f"cannot serialize value of type {type(obj).__name__}")


def complex_pairs(z):
    """[re, im] per entry of a 1-d array, or the pair of a 0-d one."""
    if np.ndim(z) == 0:
        return [float(z.real), float(z.imag)]
    return [[float(w.real), float(w.imag)] for w in z]
