"""Block decomposition of compatible matrices along the characters of an
automorphism.

Let M be f-compatible, m[u, v] = m[f(u), f(v)]. For a root of unity w, the
vectors with y(f(v)) = w y(v) for every v form an M-invariant subspace. Such
a y vanishes on every cycle c with w^len(c) != 1 and is fixed on the others
by its values at the cycle representatives (smallest members), so in that
basis M acts as the w-block

    B_w[c, c'] = sum_{i < len(c')} w^i m[rep(c), f^i(rep(c'))]

over the cycles with w^len(c) = 1, and a block eigenvector x lifts to
x(f^i(rep(c))) = w^i x[c], zero on the other cycles. A cycle of length l
lies in exactly the blocks of the l-th roots of unity, so the block orders
sum to n for every cycle type and the blocks carry the complete spectrum of
M with multiplicity: the block diagonalisation by the characters of the
cyclic group generated by f (Fassler & Stiefel, Group Theoretical Methods
and Their Applications, 1992). The w = 1 block is the orbit quotient.

Only the w that occur get a block. For each cycle length l ascending and
j = 1..l-1, w = exp(2 pi i j / l) is built unless an earlier (l, j) gave the
same w; the block is labelled with that first (l, j) and with the index of l
among the nontrivial cycle lengths (its factor in rotation_decomposition).
The quotient comes last. The cycles of one length n form a rotation of
order n, and a w-block holds whole rotations, its rows grouped by rotation:
each rotation's rotation matrix on U_0,

    r[u, v] = sum_{i=0}^{n-1} w^i m[u, f^i(v)]    u, v in U_0,

sits on the diagonal and the couplings between rotations sit off it. For a
single cycle length the w-blocks are exactly the rotation matrices.

A unit-automorphism uses the same blocks, built from the unit quotient N
along the unit permutation; their eigenvectors blow up to the vertices, and
their residuals are taken against M itself.

Realness is decided once per matrix, by matrices.as_array: a matrix with
no nonzero imaginary entry is read as float64, a HypergraphMatrix when it
is made. The routes (through matrices.prepared) and the public views read
that one array, so each view is bitwise the block the decomposition
builds, and the dtype carries the decision. The roots 1, i, -1 and -i are
exact, +-1 as floats, and the root for n - k is the exact conjugate of the
root for k. So for a real matrix the w = +-1 blocks (the quotient
among them), their eigenvectors and their lifts are float64, and the
conj(w)-block is conj of the w-block entry for entry: complex arithmetic
starts only where an entry or a root is genuinely complex.

So is balance (matrices._balance): a positive d with diag(d) M Hermitian,
d = 1 for an exactly symmetric real or Hermitian complex M, or a
HypergraphMatrix's symmetrizer when it passes an O(n^2) check to rounding.
If d is also constant on every cycle, each block B over cycles c has
diag(e) B Hermitian for e_c = len(c) d(rep c) (the d-weighted Gram matrix
of the cycle basis), one rule (_cell_symmetrizer) computed once over the
orbits; on the unit route the same rule over the units gives N's
symmetrizer |W| d(rep W), which plays the part of d. Every block then goes
to eigh (dsyevd, or zheevd for a complex block) of the Hermitian part of
D_e^{1/2} B D_e^{-1/2} (of B itself when e is constant), its vectors mapped
back and scaled to unit norm, its values real; without such a d, a real
block goes to dgeev and a complex one to zgeev (_eig_sorted). The block
residual is still taken against B and the lifted one against M, so the
Hermitian form never vouches for itself. For a real matrix the
conj(w)-block is neither built nor solved: it takes the w-block's
eigenpairs, block residuals and lifted residuals conjugated and sorted
again, so each conjugate pair costs one build, one solve and one lifted
product.

Block eigenvectors follow zgeev's own convention: unit 2-norm, with the
first entry of largest re^2 + im^2 real and positive. Entries within a few
ulps of the largest count as largest, so a vector from zgeev is never
touched; one from eigh is rotated to it, and a real vector is at most
negated. A lifted vector carries its block vector unchanged at the U_0 of
its rotations (at every member of each orbit for the quotient).

A block's lifted eigenpairs are kept as one LiftedBlock: its eigenvalues
in the driver's dtype (real for a real block, so the residuals of a real
block are taken in real arithmetic), its lifted vectors as the columns of
one array and its residuals as another. The report prints every
LiftedBlock as a jsonutil._Rows node, all in one formatting operation that
prints each distinct magnitude of their floats once; the per-pair
LiftedPair objects of SpectralDecomposition.lifted are built only when a
caller asks.

Cost model: the block eigensolves cost sum b_i^3 over the block orders b_i,
by eigh for a balanced matrix (several times cheaper than eig at the same
order), one solve per conjugate pair for a real matrix. Every block is
built first; the blocks of one order, dtype and symmetrizer are then solved
as one stack (k, b, b), one eigensolver call each, and the phase
convention and the block residuals take each stack at once too, bit for
bit what each block alone gives (_finish_stack). A rotation of order l
gives up to l blocks of one order, so the fixed cost per call is paid once
per stack, not once per block. One kernel (_cycle_sums) sums A's columns
along a rotation factor's cycles for the blocks and the lifted residuals
alike,

    A_w[:, c] = sum_i w^i A[:, f^i(rep c)],

a block of rows at a time, by one GEMM against the exact powers of the
roots (real for a real A); a block's entries are these sums at the
representatives' rows. Checking the lifted eigenpairs multiplies no n x n
matrix on the vertex route: A lift(X) = A_w X, with every row of A summed
once per call for the roots the solved blocks use (at most n^2 l
multiply-adds for a factor of order l), so each block's product costs
n b_i^2 instead of n^2 b_i, one per conjugate pair for a real A. The sums
take as much memory as A, so every product is made as soon as the blocks
are solved and the sums are dropped before the lifts. The residual is still
taken against A. The unit route keeps one product of M with each block's
blown-up vectors (_product, shared with the oracle): on a units-verify
positive (n = 240, 120 units, three such products) they take 0.39 ms, where
summing M's columns over the units alone takes 0.28 ms before any product
with the sums (best of 5, one BLAS thread, a 2-vCPU Xeon). f's cycles are
walked once, and the orbits and rotation factors read that layout as
arrays, each rotation's components as one index array; each root of unity
computes its exact powers once, for the cycle sums and for its lift, which
multiplies them at once and writes with one scatter. Everything else (the
compatibility check, which also makes the quotient equitable, the balance
check, the quotient's cell sums at the representatives' rows, the lifts) is
vectorised O(n^2) numpy work, with no Python loop over cell pairs or
eigenpairs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import HypersymError, IncompatibleMatrixError
from .jsonutil import _ENTRIES, _HOLE, _Rows, complex_pair
from .matrices import _block_rows, _float_array, as_array, prepared
from .symmetry import (
    COMPAT_TOL,
    OrbitPartition,
    Permutation,
    Rotation,
    _cell_symmetrizer,
    _lift_cells,
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

    # w^0, ..., w^(n-1) by pow, made once per root: the float powers +-1
    # stay floats, so a real x times one of them is a real product
    _powers = cached_property(lambda self: tuple(map(self.pow, range(self.n))))


# the rotation factors an omega-block holds, each with omega as a root of
# that factor's order
_Parts = list[tuple[Rotation, RootOfUnity]]


# 1, i, -1, -i: the roots at the quarter turns, exact, and +-1 as floats
_QUARTER_TURNS = (1.0, complex(0, 1), -1.0, complex(0, -1))


def _root_value(n: int, k: int) -> complex:
    """exp(2 pi i k / n), exact at the quarter turns, and for 2k > n the
    exact conjugate of the root for n - k: the w = +-1 blocks of a real
    matrix are then real, and its conj(w)-block is conj of its w-block."""
    k %= n
    if 4 * k % n == 0:
        return _QUARTER_TURNS[4 * k // n]
    if 2 * k > n:
        return _root_value(n, n - k).conjugate()
    return cmath.exp(2j * math.pi * k / n)


def roots_of_unity(n: int) -> tuple[RootOfUnity, ...]:
    """All n-th roots of unity, k = 0..n-1, each from its exact angle."""
    if n < 1:
        raise HypersymError(f"root order must be at least 1, got {n}")
    return tuple(RootOfUnity(n=n, k=k, value=_root_value(n, k)) for k in range(n))


def _cycle_sums(A: np.ndarray, rot: Rotation, powers_by_k: dict[int, tuple]) -> dict[int, np.ndarray]:
    """A_w[:, c] = sum_i w^i A[:, f^i(rep c)] over rot's cycles c, for each
    root w of rot's order given by its exact powers (RootOfUnity._powers),
    by k. A's columns are gathered along the cycles, (rows, cycles, l), a
    block of rows at a time, and each block is summed by one GEMM against
    all the powers. For a real A that GEMM is real, against [Re | Im] of
    the powers: a root +-1 gives a float64 A_w, and any other root's two
    real slices are written as the real and imaginary parts of its complex
    A_w. Every row of A is summed, so no compatibility is assumed."""
    real, (m, cycles) = np.isrealobj(A), (len(A), rot.n_cycles)
    powers = {k: np.array(w) for k, w in powers_by_k.items()}
    pairs = [k for k, w in powers.items() if real and np.iscomplexobj(w)]
    ones = [k for k in powers if k not in pairs]
    # the GEMM's rows: Re and Im of each complex root of a real A, then the
    # other roots
    W = np.array([part for k in pairs for part in (powers[k].real, powers[k].imag)] + [powers[k] for k in ones])
    dtype = np.result_type(W, A)
    both, one = np.empty((len(pairs), m * cycles, 2), dtype), np.empty((len(ones), m * cycles), dtype)
    rows, half = _block_rows(A.shape[1]), 2 * len(pairs)
    for r in range(0, m, rows):
        P = W @ A[r : r + rows].take(rot._index.T, axis=1).reshape(-1, rot.order_n).T
        block = slice(r * cycles, (r + rows) * cycles)
        both[:, block, 0], both[:, block, 1], one[:, block] = P[:half:2], P[1:half:2], P[half:]
    sums = [*both.view(np.complex128).reshape(len(pairs), m, cycles), *one.reshape(len(ones), m, cycles)]
    return dict(zip(pairs + ones, sums))


def _rotation_columns(A: np.ndarray, rows: Rotation, cols: Rotation, omega: RootOfUnity) -> np.ndarray:
    """r[u, v] = sum_{i < cols.order_n} omega^i A[u, f^i(v)] for u in rows.u0
    and v in cols.u0; omega must be a root of cols' order. The cycle sums
    (_cycle_sums) of the rows at rows.u0."""
    return _cycle_sums(A[rows._index[0]], cols, {omega.k: omega._powers})[omega.k]


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
        _require_compatible(A, rot.underlying, tol)
    return _rotation_columns(A, rot, rot, omega)


def _require_compatible(A: np.ndarray, perm: Permutation, tol: float) -> None:
    """Raise IncompatibleMatrixError naming the worst entry unless A is
    perm-compatible within tol."""
    dev, (u, v) = compatibility_deviation(A, perm)
    if not dev <= tol:  # also refuses a NaN deviation or tolerance
        raise IncompatibleMatrixError(
            f"matrix is not compatible with the automorphism: entry ({u},{v}) "
            f"deviates by {dev:.3e} (tol {tol:.1e})"
        )


def lift_rotation_vector(x, rot: Rotation, omega: RootOfUnity, n_full: int) -> np.ndarray:
    """Lift x on U_0 to the full index set: w^i * x at position f^i(v),
    zero off the rotation's cycles, real for a real x and w = +-1. An
    (|U_0|, k) matrix lifts column by column. The products with omega's
    powers are taken at once and written by one scatter into the
    rotation's component array; a real x times a power +-1 is a real
    product, as it is on its own, so its zero imaginary parts stay +0."""
    x = _float_array(x)
    if x.ndim not in (1, 2) or x.shape[0] != len(rot.u0):
        raise HypersymError(f"vector length {x.shape} does not match |U_0| = {len(rot.u0)}")
    w = np.array(omega._powers).reshape((-1,) + (1,) * x.ndim)
    terms = w * x
    if np.isrealobj(x) and np.iscomplexobj(w):
        ones = (w.imag == 0).ravel()  # the powers +-1
        terms[ones] = w.real[ones] * x
    full = np.zeros((n_full,) + x.shape[1:], dtype=terms.dtype)
    full[rot._index] = terms
    return full


def lift_orbit_vector(y, orbs: OrbitPartition) -> np.ndarray:
    """Lift y on the orbits to the full index set, constant on each orbit.
    A (cells, k) matrix lifts column by column, keeping y's dtype."""
    return _lift_cells(y, orbs, "orbits")


@dataclass(frozen=True)
class RotationBlock:
    """One block of a decomposition, with its sorted eigenvalues."""

    source: dict
    order: int
    eigenvalues: np.ndarray

    def to_document(self) -> dict:
        return {
            "source": self.source,
            "order": self.order,
            "eigenvalues": complex_pair(self.eigenvalues),
        }


@dataclass(frozen=True)
class LiftedPair:
    value: complex
    vector: np.ndarray
    source: dict
    residual: float


@dataclass(frozen=True)
class LiftedBlock:
    """The lifted eigenpairs of one block (or of one unit): values in the
    block driver's dtype, the lifted vectors as the columns of vectors
    (n, k), and residuals the residual of each pair against the matrix."""

    source: dict
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray

    def document_rows(self) -> _Rows:
        """The per-pair documents {"lambda": [re, im], "residual": r,
        "source": source, "vector": [[re, im], ...]} as one encoder node,
        for the list of lifted pairs; a real array's imaginary parts print
        as 0."""

        def floats(x: np.ndarray) -> tuple[list, np.ndarray]:
            # the slot of one complex number, and the lines of the (k, m) x
            # as floats, re and im interleaved for a complex x
            slot = [_HOLE, _HOLE] if np.iscomplexobj(x) else [_HOLE, 0.0]
            return slot, np.ascontiguousarray(x).view(np.float64)

        (value, values), (entry, vectors) = floats(self.values[:, None]), floats(self.vectors.T)
        row = {"lambda": value, "residual": _HOLE, "source": self.source, "vector": _ENTRIES}
        # columns in the row's key order: lambda, residual, vector
        columns = np.concatenate([values, self.residuals[:, None], vectors], axis=1)
        return _Rows(row, columns, entry, len(self.vectors))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Blocks plus lifted eigenpairs, one LiftedBlock per block in block
    order (per unit, then per block, on the unit route); block eigenvalues
    carry the full spectrum of the decomposed matrix with multiplicity."""

    n: int
    blocks: tuple[RotationBlock, ...]
    lifts: tuple[LiftedBlock, ...]
    skipped: tuple[dict, ...]

    @cached_property
    def lifted(self) -> tuple[LiftedPair, ...]:
        """Every lifted eigenpair as its own LiftedPair, in order, built on
        first access: the value complex, the vector a contiguous copy."""
        return tuple(
            LiftedPair(value=value, vector=vector, source=lift.source, residual=residual)
            for lift in self.lifts
            for value, vector, residual in zip(
                lift.values.astype(np.complex128).tolist(),
                np.ascontiguousarray(lift.vectors.T),
                lift.residuals.tolist(),
            )
        )

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
            "lifted": [lift.document_rows() for lift in self.lifts],
            "skipped": list(self.skipped),
        }


def _hermitian_form(A: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(S, s): the Hermitian matrix eigh solves in place of A, which d
    balances (matrices._balance), and the scaling back to A's vectors. A
    constant d leaves A as it is, Hermitian to rounding already, with s
    None (eigh reads its lower triangle); otherwise S is the Hermitian part
    of D^{1/2} A D^{-1/2} and s = sqrt(d). A stack of matrices that d
    balances each is taken matrix by matrix."""
    if (d == d[:1]).all():
        return A, None
    s = np.sqrt(d)
    S = (0.5 * s)[:, None] * A  # halved first, so the sum cannot overflow
    S /= s
    S = S + np.swapaxes(S if np.isrealobj(S) else S.conj(), -1, -2)
    return S, s


def _eig_sorted(A: np.ndarray, d: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and column eigenvectors ordered by (real, imag). The
    caller states d, a positive vector with diag(d) A Hermitian
    (matrices._balance), or None:

    - with d, eigh (dsyevd, or zheevd for a complex A) solves A's Hermitian
      form (_hermitian_form), its vectors mapped back as D^{-1/2} U and
      scaled to unit 2-norm unless d is constant; the values are real;
    - without, a real A goes to eig (dgeev), a complex A to eig (zgeev).

    Values and vectors keep the driver's dtype, real from a real eigh and
    from dgeev with all eigenvalues real. A may be a stack (k, b, b) of
    matrices that d balances each: one eigensolver call solves them all,
    and each matrix's values (k, b) and vectors (k, b, b) are bit for bit
    what solving it alone gives, but that dgeev returns complex values and
    vectors for every matrix of the stack unless all its values are real.
    Each matrix's sorted vectors are column-major, as the sort lays out a
    lone matrix's."""
    if d is None:
        vals, vecs = np.linalg.eig(A)
    else:
        S, s = _hermitian_form(A, d)
        vals, vecs = np.linalg.eigh(S)
        if s is not None:
            vecs /= s[:, None]
            vecs /= np.linalg.norm(vecs, axis=-2, keepdims=True)
    order = np.lexsort((vals.imag, vals.real))
    if order.ndim == 1:
        return vals[order], vecs[:, order]
    k = np.arange(len(order))[:, None]
    return vals[k, order], np.swapaxes(vecs[k, :, order], -1, -2)


def _product(A: np.ndarray, V: np.ndarray) -> np.ndarray:
    """A @ V, in real arithmetic for a real A: a real V directly, a complex
    V as its real and imaginary parts side by side."""
    if np.iscomplexobj(A):
        return A @ V
    V = np.ascontiguousarray(V)
    if np.iscomplexobj(V):
        # the (n, k) complex V viewed as (n, 2k) reals, re and im interleaved
        return (A @ V.view(np.float64)).view(np.complex128)
    return A @ V


# entries whose re^2 + im^2 lie this close (relatively) to the largest count
# as largest: zgeev's rotation of a vector moves them by a few ulps
_PIVOT_TIE = 64 * np.finfo(np.float64).eps


def _off_convention(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mag, fix): re^2 + im^2 of every entry of V, (..., b, b), and which
    of its columns (..., b) have no entry of largest mag (within
    _PIVOT_TIE) that is real and positive."""
    mag = V.real**2 + V.imag**2
    near = mag >= (1.0 - _PIVOT_TIE) * mag.max(axis=-2, keepdims=True)
    return mag, ~(near & (V.imag == 0) & (V.real > 0)).any(axis=-2)


def _phase_convention(V: np.ndarray, off: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """V with each unit column scaled so that an entry of largest
    re^2 + im^2 (within _PIVOT_TIE) is real and positive: the column is
    multiplied by conj(p) / |p| for its first entry p of largest
    re^2 + im^2, and that entry's imaginary part set to zero, as zgeev does.
    A column that meets the rule already is left as it is, bit for bit, and
    a real column is at most negated. V may be a stack (k, b, b); if any
    column is scaled, the result is a row-major copy. off is
    _off_convention(V), when the caller has it."""
    mag, fix = _off_convention(V) if off is None else off
    if not fix.any():
        return V
    V = V.copy()
    # one matrix per stack entry, W viewing the copy; each column k, col to
    # scale is multiplied by the factor of its first largest entry
    shape = (-1,) + V.shape[-2:]
    W, (k, col) = V.reshape(shape), np.nonzero(fix.reshape(-1, V.shape[-1]))
    row = mag.reshape(shape)[k, :, col].argmax(axis=-1)
    p = W[k, row, col]
    W[k, :, col] *= np.where(p.imag == 0, np.sign(p.real), p.conj() / np.abs(p))[:, None]
    W[k, row, col] = W[k, row, col].real
    return V


def residual_norms(AV: np.ndarray, V: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Columnwise ||AV[:, j] - values[j] V[:, j]|| / max(1, ||V[:, j]||),
    the residual of each eigenpair given the product AV. A finite column
    whose sum of squares overflows is taken again scaled down by an exact
    power of two, so only a norm beyond the largest float reads inf. A
    stack of k matrices (k, n, b) with values (k, b) gives (k, b), in AV's
    dtype when V is real and AV complex (a complex M's real unit quotient)."""
    R = np.multiply(V, values[..., None, :], dtype=np.result_type(AV, V, values))
    np.subtract(AV, R, out=R)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(R, axis=-2)
        if np.isinf(norms).any():
            for i in np.ndindex(norms.shape[:-1]):
                big = np.flatnonzero(np.isinf(norms[i]))
                if big.size:
                    Ri = R[i]
                    scale = np.ldexp(1.0, np.frexp(np.abs(Ri[:, big]).max(axis=0))[1] - 1)  # 2^1023 at most
                    norms[i][big] = np.linalg.norm(Ri[:, big] / scale, axis=0) * scale
    return norms / np.maximum(1.0, np.linalg.norm(V, axis=-2))


def _characters(factors: tuple[Rotation, ...]) -> list[tuple[dict, _Parts, int | None]]:
    """(source, parts, partner) of every block, in block order: each omega
    != 1, labelled by its first (l, j), then the quotient, with no parts;
    partner is the index of the block (l, l - j) of conj(omega) if 2j > l."""
    found: list[tuple[dict, _Parts, int | None]] = []
    index_of: dict[tuple[int, int], int] = {}  # the reduced angle names omega
    for fi, rot in enumerate(factors):
        ell = rot.order_n
        for j in range(1, ell):
            g = math.gcd(j, ell)
            if (j // g, ell // g) in index_of:
                continue
            index_of[j // g, ell // g] = len(found)
            parts = []
            for other in factors:
                k, rem = divmod(j * other.order_n, ell)
                if rem == 0:  # omega^order = 1: omega is the k-th root of that order
                    parts.append((other, RootOfUnity(n=other.order_n, k=k, value=_root_value(other.order_n, k))))
            source = {"kind": "rotation", "factor": fi, "omega_k": j, "order_n": ell}
            found.append((source, parts, index_of[(ell - j) // g, ell // g] if 2 * j > ell else None))
    found.append(({"kind": "quotient"}, [], None))
    return found


def _block_matrix(A: np.ndarray, parts: _Parts, orbs: OrbitPartition) -> np.ndarray:
    """The omega-block over the given factors, each factor's rotation matrix
    on the diagonal and the couplings between factors off it; without
    factors, the orbit quotient, which A's compatibility makes equitable."""
    if not parts:
        return orbit_quotient(A, orbs, math.inf)
    return np.block([
        [rotation_matrix(A, col, w, tol=None) if col is row else _rotation_columns(A, row, col, w) for col, w in parts]
        for row, _ in parts
    ])


def _lift_block(X: np.ndarray, parts: _Parts, orbs: OrbitPartition, n: int) -> np.ndarray:
    """Lift the block eigenvectors in the columns of X: factor by factor,
    on disjoint supports; without factors, constant on the orbits."""
    if not parts:
        return lift_orbit_vector(X, orbs)
    rows = np.split(X, np.cumsum([rot.n_cycles for rot, _ in parts])[:-1])
    lifts = [lift_rotation_vector(Xr, rot, w, n) for Xr, (rot, w) in zip(rows, parts)]
    return sum(lifts[1:], lifts[0])


def _lifted_products(
    A: np.ndarray, orbs: OrbitPartition, factors: tuple[Rotation, ...], blocks: dict[int, tuple[_Parts, np.ndarray]]
) -> dict[int, np.ndarray]:
    """A lift(X) for each block (parts, X) of A's orbits and rotation
    factors, X the block vectors as columns (_lift_block; the orbit quotient
    has no parts): the sum over the block's parts of A_w X_part, from the
    cycle sums A_w (_cycle_sums) of every row of A for the roots the blocks
    use, and w = 1; n b^2 work per block where the product with the lift is
    n^2 b. The quotient's product is each factor's w = 1 sums and A's
    columns at the fixed points, each against the rows of X of its cells.
    The sums, as much memory as A, are dropped when the products are made."""
    # per factor: the powers of each root of it that a block uses, by k,
    # w = 1 first
    wanted = {id(rot): (rot, {0: (1.0,) * rot.order_n}) for rot in factors}
    for parts, _ in blocks.values():
        for rot, w in parts:
            wanted[id(rot)][1].setdefault(w.k, w._powers)
    sums = {(key, k): S for key, (rot, ws) in wanted.items() for k, S in _cycle_sums(A, rot, ws).items()}
    # the quotient's terms, with the cells they sum into
    quotient = [(sums[id(rot), 0], orbs.cell_of[rot._index[0]]) for rot in factors]
    if sum(rot.order_n * rot.n_cycles for rot in factors) < A.shape[0] or not factors:
        fixed = orbs.reps[orbs.sizes == 1]
        quotient.append((A.take(fixed, axis=1), orbs.cell_of[fixed]))
    products = {}
    for i, (parts, X) in blocks.items():
        if parts:
            bounds = np.cumsum([0] + [rot.n_cycles for rot, _ in parts]).tolist()
            terms = [(sums[id(rot), w.k], X[a:b]) for (rot, w), a, b in zip(parts, bounds, bounds[1:])]
        else:
            terms = [(S, X[cells]) for S, cells in quotient]
        AV = [_product(S, Xr) for S, Xr in terms]
        products[i] = sum(AV[1:], AV[0])
    return products


def _finish_stack(stack: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """(values, vectors, block residuals, defective mask) of each matrix of
    a stack (k, b, b) of blocks, from its sorted eigenpairs (_eig_sorted),
    bit for bit what a lone matrix's give. _phase_convention and the block
    residuals take the stack at once, split only where a lone matrix is
    laid out otherwise: dgeev leaves real only the matrices whose values
    are all real (numpy's eig makes a whole stack complex unless every
    value is real), and the vectors that meet the convention keep the
    column-major layout of the sort, where the convention's copy of the
    others is row-major: the column norms of the residuals sum in the order
    the layout gives."""
    real = np.zeros(len(stack), dtype=bool)
    if np.iscomplexobj(vals) and np.isrealobj(stack):  # dgeev, with a complex value somewhere
        real = ~vals.imag.any(axis=-1)
    off = _off_convention(vecs)
    kept = ~off[1].any(axis=-1)
    scaled = _phase_convention(vecs, off)
    out: list[tuple[np.ndarray, ...]] = [()] * len(stack)
    for is_real, is_kept in dict.fromkeys(zip(real.tolist(), kept.tolist())):
        rows = np.flatnonzero((real == is_real) & (kept == is_kept))
        values, V, matrices = vals, vecs if is_kept else scaled, stack
        if len(rows) < len(stack):
            values, V, matrices = values[rows], V[rows], matrices[rows]
        if is_real:
            values, V = values.real, V.real
        res = residual_norms(_product(matrices, V), V, values)
        defective = res > LIFT_RESIDUAL_TOL * np.maximum(1.0, np.abs(matrices).max(axis=(-2, -1)))[:, None]
        for j, row in enumerate(rows.tolist()):
            out[row] = values[j], V[j], res[j], defective[j]
    return out


def _solve_blocks(blocks: dict[int, tuple[dict, np.ndarray, np.ndarray | None]]) -> dict[int, tuple[np.ndarray, ...]]:
    """_finish_stack's result for each block (source, matrix, symmetrizer
    or None), by block index. The blocks of one order, dtype and
    symmetrizer are solved as one stack, the stacks in order of their first
    block; the first block, in block order, with an eigenvalue beyond the
    float range raises HypersymError naming it."""
    stacks: dict[tuple, list[int]] = {}
    for i, (_, matrix, e) in blocks.items():
        stacks.setdefault((len(matrix), matrix.dtype, None if e is None else e.tobytes()), []).append(i)
    solved = []
    for members in stacks.values():
        stack = np.stack([blocks[i][1] for i in members])
        solved.append((members, stack, *_eig_sorted(stack, blocks[members[0]][2])))
    beyond = [i for members, _, vals, _ in solved for i, ok in zip(members, np.isfinite(vals).all(axis=-1)) if not ok]
    if beyond:
        raise HypersymError(f"block {blocks[min(beyond)][0]} has an eigenvalue beyond the float range")
    eigen: dict[int, tuple[np.ndarray, ...]] = {}
    for members, stack, vals, vecs in solved:
        eigen.update(zip(members, _finish_stack(stack, vals, vecs)))
    return eigen


def _decompose(
    A: np.ndarray,
    perm: Permutation,
    d: np.ndarray | None = None,
    built_from: np.ndarray | None = None,
    lift=None,
    tag: dict | None = None,
) -> SpectralDecomposition:
    """Build, solve and lift every block of built_from (default A) along
    perm, which it must already be compatible with, so the quotient needs
    no equitable check. d is a positive vector with diag(d) built_from
    Hermitian (matrices._balance), or None; when it is also constant on
    every cycle of perm, every block goes to eigh with its symmetrizer
    (_cell_symmetrizer), otherwise to eig. lift carries columns on its
    index set into A's (none when it is A); every lifted residual is taken
    against A. tag is merged into the block and lifted sources, and into
    each skipped entry beside its source. Block pairs whose residual
    betrays a defective solve are skipped (and reported) instead of lifted,
    and a block beyond the float range raises HypersymError naming it.
    Every block is built before any is solved, and the blocks of one order,
    dtype and symmetrizer are solved as one stack (_solve_blocks).

    On the vertex route (lift None) the lifted residuals' products come
    from A's columns summed along the cycles (_lifted_products), all made
    once the blocks are solved, before any lift; on the unit route each is
    the product of A with the lifted vectors.

    For a real A and built_from the conj(w)-block is neither built nor
    solved, and its lifts are not multiplied by A: its eigenpairs, block
    residuals and lifted residuals are the w-block's, conjugated and sorted
    again, bit for bit what computing them gives (from the conj(w) cycle
    sums, which are the w sums with the imaginary part negated), since real
    GEMM and complex multiplication commute with conjugation. Only its lift, O(n) per pair, is made again, as
    conjugating the w-block's would flip the sign of some zero parts.
    """
    B = A if built_from is None else built_from
    if not B.size:  # no index, no block
        return SpectralDecomposition(n=A.shape[0], blocks=(), lifts=(), skipped=())
    tag = tag or {}
    orbs = orbits(perm)
    e = _cell_symmetrizer(d, orbs)
    real = np.isrealobj(A) and np.isrealobj(B)
    factors = rotation_decomposition(perm)
    characters = _characters(factors)
    # every block that is solved, with its symmetrizer, in block order up to
    # the first with an entry beyond the float range (eig would refuse it,
    # eigh give NaN), whose refusal waits for those before it to be solved
    built: dict[int, tuple[dict, np.ndarray, np.ndarray | None]] = {}
    beyond = None
    for i, (source, parts, partner) in enumerate(characters):
        if partner is None or not real:
            matrix = _block_matrix(B, parts, orbs)
            if not np.isfinite(matrix).all():
                beyond = f"block {source} has an entry beyond the float range"
                break
            cells = orbs.cell_of[np.concatenate([rot.u0 for rot, _ in parts])] if parts else slice(None)
            built[i] = source, matrix, None if e is None else e[cells]
    eigen = _solve_blocks(built)
    if beyond is not None:
        raise HypersymError(beyond)
    products = {} if lift is not None else _lifted_products(
        A, orbs, factors, {i: (characters[i][1], vecs[:, ~defective]) for i, (_, vecs, _, defective) in eigen.items()}
    )
    # per block: values, vectors, block residuals, defective mask and lifted
    # residuals
    solved: list[tuple[np.ndarray, ...]] = []
    blocks: list[RotationBlock] = []
    lifts: list[LiftedBlock] = []
    skipped: list[dict] = []
    for i, (source, parts, partner) in enumerate(characters):
        if i not in eigen:  # the conj(w)-block of a real matrix
            vals, vecs, block_res, defective, lifted_res = solved[partner]
            vals = vals.conj()
            order = np.lexsort((vals.imag, vals.real))
            # the lifted pair of each kept block pair, in the new order
            lifted_res = lifted_res[(np.cumsum(~defective) - 1)[order][~defective[order]]]
            vals, vecs, block_res, defective = vals[order], vecs[:, order].conj(), block_res[order], defective[order]
        else:
            vals, vecs, block_res, defective = eigen[i]
            lifted_res = None
        full = _lift_block(vecs[:, ~defective], parts, orbs, B.shape[0])
        if lift is not None:
            full = lift(full)
        if lifted_res is None:
            AV = products.pop(i) if lift is None else _product(A, full)
            lifted_res = residual_norms(AV, full, vals[~defective])
        solved.append((vals, vecs, block_res, defective, lifted_res))
        blocks.append(RotationBlock(source={**source, **tag}, order=len(vals), eigenvalues=vals.astype(np.complex128)))
        skipped += [
            {"source": source, "lambda": complex_pair(vals[j]), "block_residual": float(block_res[j]),
             "reason": "defective block eigenpair", **tag}
            for j in np.flatnonzero(defective)
        ]
        lifts.append(LiftedBlock(blocks[-1].source, vals[~defective], full, lifted_res))
    total = sum(b.order for b in blocks)
    if total != B.shape[0]:
        raise AssertionError(f"block orders sum to {total}, expected {B.shape[0]}")
    return SpectralDecomposition(n=A.shape[0], blocks=tuple(blocks), lifts=tuple(lifts), skipped=tuple(skipped))


def decompose_automorphism(M, f, tol: float = COMPAT_TOL) -> SpectralDecomposition:
    """Spectrum of M from its blocks along f, with lifted eigenpairs. Every
    block goes to eigh when M is Hermitian, or is a HypergraphMatrix whose
    symmetrizer balances it (matrices.prepared) and is constant on the
    cycles of f.

    Raises IncompatibleMatrixError if M is not f-compatible within tol, the
    only symmetry check (NotEquitableError comes only from NaN cell sums),
    and HypersymError for a block beyond the float range.
    """
    A, d = prepared(M)
    perm = _perm_of(f)
    _require_compatible(A, perm, tol)
    return _decompose(A, perm, d)


def spectral_radius_via_quotient(M, f, tol: float = COMPAT_TOL) -> tuple[float, float]:
    """Spectral radii of M and of its orbit quotient under f.

    The two agree for entrywise-nonnegative compatible M; the caller
    compares. M must be f-compatible within tol (checked), which makes the
    quotient equitable with no check of its own. Both radii come from eigh
    when M is balanced as in decompose_automorphism.
    """
    A, d = prepared(M)
    perm = _perm_of(f)
    _require_compatible(A, perm, tol)
    orbs = orbits(perm)
    Q = orbit_quotient(A, orbs, math.inf)  # equitable, as A is compatible
    if not np.isfinite(Q).all():  # eigh would give NaN
        raise HypersymError("block {'kind': 'quotient'} has an entry beyond the float range")
    e = _cell_symmetrizer(d, orbs)
    rho_full = float(np.abs(_eig_sorted(A, d)[0]).max()) if A.size else 0.0
    rho_quot = float(np.abs(_eig_sorted(Q, e)[0]).max()) if Q.size else 0.0
    return rho_full, rho_quot
