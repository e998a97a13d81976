"""Block decomposition of compatible matrices along rotations.

For a rotation f of order n with components U_0, ..., U_{n-1} and an n-th
root of unity w, the rotation matrix on U_0 is

    r[u, v] = sum_{i=0}^{n-1} w^i m[u, f^i(v)]    u, v in U_0.

Eigenvectors of the w != 1 blocks lift to eigenvectors of M supported on
the active domain (x_w(v) = w^i x(f^{-i}(v)) on U_i, zero on the invariant
set); the orbit quotient supplies the rest, lifted constant on orbits.
Together the blocks carry the complete spectrum of M with multiplicity.

For a general automorphism the same block structure applies factor by
factor of the rotation decomposition, plus a single global orbit quotient.
This requires M to be compatible with each factor rotation separately
(automatic when the factor orders are pairwise coprime, since each factor
is then a power of f); decompose_automorphism checks exactly that and
refuses otherwise, because the flat block union is wrong without it.

Cost model: the block eigensolves cost sum b_i^3 over the block orders b_i.
Checking the lifted eigenpairs takes one matrix product A V per block
(n^2 b_i multiply-adds, in BLAS-3). Everything else (the compatibility
check, the cell sums behind the quotient and its equitable check, the
rotation matrices, the lifts) is vectorised O(n^2) numpy work, with no
Python loop over cell pairs or eigenpairs.

Per-block eigensolves may run concurrently; HSPEC_THREADS (or the workers
argument) caps the thread count, and assembly order is deterministic
either way.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import HypersymError, IncompatibleMatrixError
from .jsonutil import complex_pair
from .matrices import as_array
from .symmetry import (
    COMPAT_TOL,
    OrbitPartition,
    Rotation,
    _perm_of,
    compatibility_deviation,
    orbit_quotient,
    orbits,
    rotation_decomposition,
)

LIFT_RESIDUAL_TOL = 1e-8


@dataclass(frozen=True)
class RootOfUnity:
    """exp(2*pi*i*k/n), kept as (n, k) so powers use exact angles."""

    n: int
    k: int
    value: complex

    def pow(self, i: int) -> complex:
        return _root_value(self.n, (self.k * i) % self.n)


def _root_value(n: int, k: int) -> complex:
    return cmath.exp(2j * math.pi * (k % n) / n)


def roots_of_unity(n: int) -> tuple[RootOfUnity, ...]:
    """All n-th roots of unity, k = 0..n-1, each from its exact angle."""
    if n < 1:
        raise HypersymError(f"root order must be at least 1, got {n}")
    return tuple(RootOfUnity(n=n, k=k, value=_root_value(n, k)) for k in range(n))


def rotation_matrix(M, rot: Rotation, omega: RootOfUnity, tol: float | None = COMPAT_TOL) -> np.ndarray:
    """The omega-rotation matrix of M on rot's U_0.

    Pass tol=None to skip the compatibility precheck (when the caller has
    already verified it).
    """
    A = as_array(M)
    if not isinstance(omega, RootOfUnity):
        raise HypersymError("omega must be a RootOfUnity")
    if omega.n != rot.order_n:
        raise HypersymError(
            f"root of unity has order {omega.n}, rotation has order {rot.order_n}"
        )
    if tol is not None:
        dev, (u, v) = compatibility_deviation(A, rot.underlying)
        if dev > tol:
            raise IncompatibleMatrixError(
                f"matrix is not rotation-compatible: entry ({u},{v}) deviates by {dev:.3e}"
            )
    u0 = list(rot.u0)
    R = np.zeros((len(u0), len(u0)), dtype=np.complex128)
    for i in range(rot.order_n):
        R += omega.pow(i) * A[np.ix_(u0, list(rot.components[i]))]
    return R


def lift_rotation_vector(x, rot: Rotation, omega: RootOfUnity, n_full: int) -> np.ndarray:
    """Lift x on U_0 to the full index set: w^i * x at position f^i(v),
    zero on the invariant set. An (|U_0|, k) matrix lifts column by column."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim not in (1, 2) or x.shape[0] != len(rot.u0):
        raise HypersymError(f"vector length {x.shape} does not match |U_0| = {len(rot.u0)}")
    full = np.zeros((n_full,) + x.shape[1:], dtype=np.complex128)
    for i, comp in enumerate(rot.components):
        full[list(comp)] = omega.pow(i) * x
    return full


def lift_orbit_vector(y, orbs: OrbitPartition) -> np.ndarray:
    """Lift y on the orbits to the full index set, constant on each orbit.
    A (cells, k) matrix lifts column by column."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim not in (1, 2) or y.shape[0] != len(orbs.cells):
        raise HypersymError(
            f"vector length {y.shape} does not match {len(orbs.cells)} orbits"
        )
    return y[np.array(orbs.cell_index)]


@dataclass(frozen=True)
class RotationBlock:
    """One block of a decomposition, with its sorted eigenvalues."""

    source: dict
    order: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    matrix: np.ndarray | None

    def to_document(self) -> dict:
        return {
            "source": self.source,
            "order": self.order,
            "eigenvalues": [complex_pair(z) for z in self.eigenvalues],
        }


@dataclass(frozen=True)
class LiftedPair:
    value: complex
    vector: np.ndarray
    source: dict
    residual: float

    def to_document(self) -> dict:
        return {
            "lambda": complex_pair(self.value),
            "vector": [complex_pair(z) for z in self.vector],
            "source": self.source,
            "residual": float(self.residual),
        }


@dataclass(frozen=True)
class SpectralDecomposition:
    """Blocks plus lifted eigenpairs; block eigenvalues carry the full
    spectrum of the decomposed matrix with multiplicity."""

    n: int
    blocks: tuple[RotationBlock, ...]
    lifted: tuple[LiftedPair, ...]
    skipped: tuple[dict, ...]

    def eigenvalues(self) -> np.ndarray:
        if not self.blocks:
            return np.zeros(0, dtype=np.complex128)
        return np.concatenate([b.eigenvalues for b in self.blocks])

    def block(self, **keys) -> RotationBlock:
        """The unique block whose source contains all given key/values."""
        found = [
            b for b in self.blocks if all(b.source.get(k) == v for k, v in keys.items())
        ]
        if len(found) != 1:
            raise KeyError(f"{len(found)} blocks match {keys}")
        return found[0]

    def to_document(self) -> dict:
        return {
            "blocks": [b.to_document() for b in self.blocks],
            "lifted": [p.to_document() for p in self.lifted],
            "skipped": list(self.skipped),
        }


def _eig_sorted(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and column eigenvectors ordered by (real, imag)."""
    vals, vecs = np.linalg.eig(A)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], vecs[:, order]


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get("HSPEC_THREADS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise HypersymError(f"HSPEC_THREADS must be an integer, got {raw!r}") from None
    return max(1, workers)


def _solve_blocks(tasks: list[tuple[dict, np.ndarray]], workers: int | None) -> list[RotationBlock]:
    count = min(resolve_workers(workers), max(1, len(tasks)))
    if count > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=count) as pool:
            solved = list(pool.map(lambda t: _eig_sorted(t[1]), tasks))
    else:
        solved = [_eig_sorted(mat) for _, mat in tasks]
    return [
        RotationBlock(
            source=source,
            order=mat.shape[0],
            eigenvalues=vals,
            eigenvectors=vecs,
            matrix=mat,
        )
        for (source, mat), (vals, vecs) in zip(tasks, solved)
    ]


def residual_norms(AV: np.ndarray, V: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Columnwise ||AV[:, j] - values[j] V[:, j]|| / max(1, ||V[:, j]||),
    the residual of each eigenpair given the product AV."""
    R = V * values
    np.subtract(AV, R, out=R)
    return np.linalg.norm(R, axis=0) / np.maximum(1.0, np.linalg.norm(V, axis=0))


def _lift_blocks(
    A: np.ndarray,
    blocks: list[RotationBlock],
    rotations: dict[int, Rotation],
    orbs: OrbitPartition,
    roots: dict[tuple[int, int], RootOfUnity],
) -> tuple[list[LiftedPair], list[dict]]:
    """Lift every block eigenpair to full dimension, skipping (and
    reporting) pairs whose block residual betrays a defective solve."""
    n = A.shape[0]
    lifted: list[LiftedPair] = []
    skipped: list[dict] = []
    for block in blocks:
        if block.order == 0:
            continue
        vals, vecs = block.eigenvalues, block.eigenvectors
        block_res = residual_norms(block.matrix @ vecs, vecs, vals)
        defective = block_res > LIFT_RESIDUAL_TOL * max(1.0, float(np.abs(block.matrix).max()))
        for idx in np.flatnonzero(defective):
            skipped.append(
                {
                    "source": block.source,
                    "lambda": complex_pair(complex(vals[idx])),
                    "block_residual": float(block_res[idx]),
                    "reason": "defective block eigenpair",
                }
            )
        keep = np.flatnonzero(~defective)
        if block.source["kind"] == "rotation":
            rot = rotations[block.source["factor"]]
            omega = roots[(block.source["factor"], block.source["omega_k"])]
            full = lift_rotation_vector(vecs[:, keep], rot, omega, n)
        else:
            full = lift_orbit_vector(vecs[:, keep], orbs)
        residuals = residual_norms(A @ full, full, vals[keep])
        lifted.extend(
            LiftedPair(value=complex(lam), vector=vec, source=block.source, residual=float(res))
            for lam, vec, res in zip(vals[keep], np.ascontiguousarray(full.T), residuals)
        )
    return lifted, skipped


def decompose_rotation(M, rot: Rotation, tol: float = COMPAT_TOL, workers: int | None = None) -> SpectralDecomposition:
    """Spectrum of M from its omega-rotation blocks plus the orbit quotient.

    M must be compatible with the rotation within tol. When the invariant
    set is empty the quotient block coincides with the omega = 1 rotation
    matrix.
    """
    A = as_array(M)
    dev, (u, v) = compatibility_deviation(A, rot.underlying)
    if dev > tol:
        raise IncompatibleMatrixError(
            f"matrix is not compatible with the rotation: entry ({u},{v}) "
            f"deviates by {dev:.3e} (tol {tol:.1e})"
        )
    roots = roots_of_unity(rot.order_n)
    tasks: list[tuple[dict, np.ndarray]] = []
    root_table: dict[tuple[int, int], RootOfUnity] = {}
    for k in range(1, rot.order_n):
        source = {"kind": "rotation", "factor": 0, "omega_k": k, "order_n": rot.order_n}
        tasks.append((source, rotation_matrix(A, rot, roots[k], tol=None)))
        root_table[(0, k)] = roots[k]
    orbs = OrbitPartition.from_permutation(rot.underlying)
    tasks.append(({"kind": "quotient"}, orbit_quotient(A, orbs)))
    blocks = _solve_blocks(tasks, workers)
    lifted, skipped = _lift_blocks(A, blocks, {0: rot}, orbs, root_table)
    total = sum(b.order for b in blocks)
    if total != A.shape[0]:
        raise AssertionError(f"block orders sum to {total}, expected {A.shape[0]}")
    return SpectralDecomposition(
        n=A.shape[0], blocks=tuple(blocks), lifted=tuple(lifted), skipped=tuple(skipped)
    )


def decompose_automorphism(M, f, tol: float = COMPAT_TOL, workers: int | None = None) -> SpectralDecomposition:
    """Flat decomposition along the rotation factors of f plus the global
    orbit quotient.

    Raises IncompatibleMatrixError if M is incompatible with f, or with any
    single factor rotation; the latter occurs only for non-coprime factor
    orders, where the flat per-factor block union does not carry the
    spectrum.
    """
    A = as_array(M)
    perm = _perm_of(f)
    if A.shape[0] != perm.n:
        raise HypersymError(f"matrix order {A.shape[0]} does not match permutation size {perm.n}")
    dev, (u, v) = compatibility_deviation(A, perm)
    if dev > tol:
        raise IncompatibleMatrixError(
            f"matrix is not compatible with the automorphism: entry ({u},{v}) "
            f"deviates by {dev:.3e} (tol {tol:.1e})"
        )
    dec = rotation_decomposition(perm)
    for fi, rot in enumerate(dec.factors):
        fdev, (fu, fv) = compatibility_deviation(A, rot.underlying)
        if fdev > tol:
            raise IncompatibleMatrixError(
                f"matrix is not compatible with factor {fi} (order {rot.order_n}): "
                f"entry ({fu},{fv}) deviates by {fdev:.3e}; the per-factor block "
                "decomposition applies only when every factor is compatible "
                "(guaranteed for pairwise coprime factor orders)"
            )
    tasks: list[tuple[dict, np.ndarray]] = []
    rotations: dict[int, Rotation] = {}
    root_table: dict[tuple[int, int], RootOfUnity] = {}
    for fi, rot in enumerate(dec.factors):
        rotations[fi] = rot
        roots = roots_of_unity(rot.order_n)
        for k in range(1, rot.order_n):
            source = {
                "kind": "rotation",
                "factor": fi,
                "omega_k": k,
                "order_n": rot.order_n,
            }
            tasks.append((source, rotation_matrix(A, rot, roots[k], tol=None)))
            root_table[(fi, k)] = roots[k]
    orbs = orbits(perm)
    tasks.append(({"kind": "quotient"}, orbit_quotient(A, orbs)))
    expected = sum((rot.order_n - 1) * rot.n_cycles for rot in dec.factors) + len(orbs.cells)
    if expected != A.shape[0]:
        raise AssertionError(
            f"count identity violated: {expected} block eigenvalues for order {A.shape[0]}"
        )
    blocks = _solve_blocks(tasks, workers)
    lifted, skipped = _lift_blocks(A, blocks, rotations, orbs, root_table)
    return SpectralDecomposition(
        n=A.shape[0], blocks=tuple(blocks), lifted=tuple(lifted), skipped=tuple(skipped)
    )


def spectral_radius_via_quotient(M, f, tol: float = COMPAT_TOL) -> tuple[float, float]:
    """Spectral radii of M and of its orbit quotient under f.

    The two agree for entrywise-nonnegative compatible M; the caller
    compares. M must be f-compatible within tol.
    """
    A = as_array(M)
    perm = _perm_of(f)
    dev, (u, v) = compatibility_deviation(A, perm)
    if dev > tol:
        raise IncompatibleMatrixError(
            f"matrix is not compatible with the automorphism: entry ({u},{v}) "
            f"deviates by {dev:.3e}"
        )
    Q = orbit_quotient(A, orbits(perm))
    rho_full = float(np.abs(np.linalg.eigvals(A)).max()) if A.size else 0.0
    rho_quot = float(np.abs(np.linalg.eigvals(Q)).max()) if Q.size else 0.0
    return rho_full, rho_quot
