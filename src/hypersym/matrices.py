"""Builders for the ten hypergraph matrix kinds, plus row-sum checking.

All kinds are indexed by the hypergraph's canonical vertex order and held
as the float64 array they are built in (every kind here has a real
definition). Off-diagonal entries are sums over the common star E_u ∩ E_v:

    adjacency_r        |E_u ∩ E_v|,                       diagonal 0
    adjacency_b        sum 1/(|e|-1),                     diagonal 0
    transition         (1/|E_u|) sum 1/(|e|-1),           diagonal 0
    laplacian_r        -|E_u ∩ E_v|,                      diagonal sum_{v!=u} |E_u ∩ E_v|
    laplacian_b        -sum 1/(|e|-1),                    diagonal |E_u|
    signless_q         sum 1/(|e|-1),                     diagonal |E_u|
    general_adjacency  (1/dV(u)) sum dE(e)/|e|^2,         diagonal 0
    general_laplacian  -(1/dV(u)) sum dE(e)/|e|^2,        diagonal (1/dV(u)) sum_{e in E_u} dE(e)/|e|
    general_signless   (1/dV(u)) sum dE(e)/|e|^2 for all u, v (diagonal included)
    unit_normalized    |E_u ∩ E_v| / n_v,                 diagonal |E_u| / n_u

where n_v is the size of the unit of v (number of vertices sharing its
star). Kinds with 1/(|e|-1) terms reject hypergraphs containing singleton
edges outright; transition additionally requires every star non-empty.
The general_* kinds require a weight document supplying dV for every
vertex and dE for every edge, with no defaulting.

Every kind is built from the hypergraph's CSR incidence arrays (edge_ptr,
edge_members): the common-star sum C[u, v] = sum of g(e) over the edges e
containing u and v is one bincount that scatters g(e) over each edge's
|e|^2 member pairs into a float64 n x n array, and the star sizes |E_u|
are one bincount of the members. A build costs O(n^2 + sum |e|^2), with no
n x m incidence matrix and no Python loop over edges or vertices. The
unweighted kinds count exactly; the sums of the reciprocal and weighted
kinds are taken edge by edge in document order, so C is exactly symmetric.

The non-symmetric kinds are diag(1/d) times a symmetric matrix, and the
build records that d as HypergraphMatrix.symmetrizer: diag(d) M is
symmetric in exact arithmetic, so M is similar to the symmetric
D^{1/2} M D^{-1/2}, and the routes solve that form with eigh:

    transition         d = |E_u|         (M = D^-1 C)
    general_*          d = dV(u)         (M = D^-1 C, diagonal included)
    unit_normalized    d = 1/n_u         (diag(1/n_u) M = C / (n_u n_v) off the diagonal)

The symmetric kinds carry None. as_array is the one reader of a matrix,
and the one place realness is decided (float64 unless an entry has a
nonzero imaginary part); a HypergraphMatrix is read once, when it is made,
and as_array hands out the read-only array it holds. Every view and check
computes on as_array(M), and every route and the oracle solve prepared(M):
as_array(M) and its balance (_balance), which a HypergraphMatrix keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DocumentError, HypersymError
from .hypergraph import Hypergraph, _row_of, compute_units
from .jsonutil import complex_pair, parse_json, require_key, require_object

MATRIX_KINDS = (
    "adjacency_r",
    "adjacency_b",
    "transition",
    "laplacian_r",
    "laplacian_b",
    "signless_q",
    "general_adjacency",
    "general_laplacian",
    "general_signless",
    "unit_normalized",
)

RECIPROCAL_KINDS = frozenset({"adjacency_b", "transition", "laplacian_b", "signless_q"})
WEIGHTED_KINDS = frozenset({"general_adjacency", "general_laplacian", "general_signless"})

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)  # __eq__ below; eq=False keeps it unhashable
class HypergraphMatrix:
    """A square matrix tied to a vertex labelling.

    It holds one read-only array, as_array of the entries it is made with,
    copied once so that a later write to the caller's array reaches no
    route. entries reads it as a read-only complex128 copy, made on each
    read, for callers outside the package. symmetrizer, when given, is a
    positive vector d of the matrix order with diag(d) entries symmetric in
    exact arithmetic (module docstring); prepared checks it to rounding.

    It is unhashable: __eq__ takes 0.0 == -0.0 and NaN == NaN, which no
    hash of the array's bytes would follow."""

    kind: str
    labels: tuple[str, ...]
    entries: np.ndarray  # read and set through the property below the class
    symmetrizer: np.ndarray | None = None

    def __post_init__(self):
        n = self._array.shape[0]  # square: as_array checked it, or build_matrix built it
        if n != len(self.labels):
            raise HypersymError(f"matrix order {n} does not match {len(self.labels)} labels")
        if self.symmetrizer is not None:
            d = np.asarray(self.symmetrizer, dtype=np.float64)
            if d.shape != (n,):
                raise HypersymError(f"symmetrizer must have shape ({n},), got {d.shape}")
            if not (np.isfinite(d) & (d > 0)).all():
                raise HypersymError("symmetrizer entries must be finite and positive")
            object.__setattr__(self, "symmetrizer", d)

    def __eq__(self, other):
        # field by field, on the held array (entries is a new array on each
        # read); a NaN entry equals a NaN, so that M == M
        if other.__class__ is not self.__class__:
            return NotImplemented
        d, e = self.symmetrizer, other.symmetrizer
        return (
            self.kind == other.kind
            and self.labels == other.labels
            and np.array_equal(self._array, other._array, equal_nan=True)
            and (d is None) == (e is None)
            and (d is None or np.array_equal(d, e))
        )

    @property
    def order(self) -> int:
        return len(self.labels)

    # the balance (_balance) of the held array, decided at its first use and kept
    _balanced = cached_property(lambda self: _balance(self._array, self.symmetrizer))

    def to_document(self) -> dict:
        return {
            "order": self.order,
            "index": list(self.labels),
            "entries": complex_pair(self._array.reshape(-1)),
        }


class _Fresh:
    """An array made for one HypergraphMatrix and held by nothing else, which
    the matrix takes as it is (build_matrix): no copy is needed to keep it
    from its maker's writes."""

    def __init__(self, array: np.ndarray):
        self.array = array


def _hold(M: HypergraphMatrix, given) -> None:
    """Set the one array M holds from the entries given to its constructor,
    which calls this setter once (M is frozen from then on)."""
    A = given.array if isinstance(given, _Fresh) else as_array(given).copy()  # not the caller's
    A.flags.writeable = False
    object.__setattr__(M, "_array", A)


def _complex_entries(M: HypergraphMatrix) -> np.ndarray:
    entries = M._array.astype(np.complex128)
    entries.flags.writeable = False
    return entries


# entries stays a dataclass field, so the constructor, dataclasses.replace
# and repr take and give it as before, but it is set and read through this
# property: M holds its one array, and no complex128 copy of it stays beside
HypergraphMatrix.entries = property(_complex_entries, _hold)


def _float_array(x) -> np.ndarray:
    """x as complex128 when it is complex, else as float64 (ints and bools
    included): a real input stays real."""
    x = np.asarray(x)
    return x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)


def as_array(M) -> np.ndarray:
    """The one reader of a matrix: a HypergraphMatrix's own read-only array,
    or any other square array-like as a C-contiguous array (a float64 one
    itself), float64 when no entry has a nonzero imaginary part, else
    complex128. The imaginary parts are scanned a block of rows at a time,
    up to the first block that holds a nonzero one."""
    if isinstance(M, HypergraphMatrix):
        return M._array
    A = _float_array(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise HypersymError(f"matrix must be square, got shape {A.shape}")
    rows = _block_rows(A.shape[0])
    if np.iscomplexobj(A) and not any(A[r : r + rows].imag.any() for r in range(0, len(A), rows)):
        A = A.real
    return np.ascontiguousarray(A)


def prepared(M) -> tuple[np.ndarray, np.ndarray | None]:
    """(as_array(M), d), d the _balance of that array: a HypergraphMatrix's
    is decided with its symmetrizer at the first call and kept, any other
    input's is decided on each call."""
    A = as_array(M)
    return A, M._balanced if isinstance(M, HypergraphMatrix) else _balance(A, None)


# |W_ij - W_ji| within this many ulps of |W_ij + W_ji| (twice the larger
# side for a balanced pair, whose two sides share a sign) passes as rounding
_BALANCE_TOL = 4 * np.finfo(np.float64).eps
# entries of one row block of an O(n^2) pass (_balance, the compatibility
# and unit checks, the unit pairs): its buffers stay in cache and are small
# enough to be reused from the allocator's free lists, where each fresh
# n x n temporary is new pages, each taken with a page fault
_BLOCK = 1 << 13


def _block_rows(n: int) -> int:
    """Rows of n entries in one row block of _BLOCK entries: at least one,
    and one for n = 0, where there is no row to take."""
    return max(1, _BLOCK // max(n, 1))


def _balance(A: np.ndarray, d: np.ndarray | None) -> np.ndarray | None:
    """A positive d with diag(d) A Hermitian, which puts A (and every block
    of it) on the eigh route, or None for the general route:

    - ones for an A equal to its conjugate transpose (its transpose, for a
      real A), exactly;
    - the given d for a real A that it balances to rounding: for
      W = diag(d) A, |W_ij - W_ji| <= _BALANCE_TOL |W_ij + W_ji| with every
      W_ij + W_ji finite, checked in O(n^2) a block of rows at a time in one
      reused buffer;
    - None for any other A: no d, a complex A that is not exactly
      Hermitian, or a failed check."""
    n = A.shape[0]
    if np.array_equal(A, A.T if np.isrealobj(A) else A.conj().T):
        return np.ones(n)
    if d is None or not np.isrealobj(A):
        return None
    rows = _block_rows(n)
    buf = np.empty((3, min(rows, n), n))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite W fails the check
        for r in range(0, n, rows):
            k = min(rows, n - r)
            W, T, D = buf[:, :k]
            np.multiply(d[r : r + k, None], A[r : r + k], out=W)  # rows r..r+k of W
            np.multiply(A[:, r : r + k].T, d, out=T)  # the same rows of W.T
            np.subtract(W, T, out=D)
            W += T
            np.abs(D, out=D)
            np.abs(W, out=W)
            W *= _BALANCE_TOL
            if not (np.isfinite(W.max()) and (D <= W).all()):
                return None
    return d


@dataclass(frozen=True)
class WeightFunctions:
    """Positive vertex and edge weights for the general_* kinds."""

    delta_V: dict[str, float]
    delta_E: dict[str, float]

    @classmethod
    def from_dict(cls, doc: dict) -> "WeightFunctions":
        doc = require_object(doc, "weights document")
        dv = require_object(require_key(doc, "delta_V", "weights document"), "delta_V")
        de = require_object(require_key(doc, "delta_E", "weights document"), "delta_E")
        return cls(delta_V=_weights("delta_V", dv), delta_E=_weights("delta_E", de))

    @classmethod
    def parse(cls, text: str) -> "WeightFunctions":
        return cls.from_dict(parse_json(text, "weights document"))

    def validate_for(self, h: Hypergraph) -> None:
        for lab in h.labels:
            if lab not in self.delta_V:
                raise DocumentError(f"delta_V missing weight for vertex {lab!r}")
        for lab in self.delta_V:
            if lab not in h.index:
                raise DocumentError(f"delta_V names unknown vertex {lab!r}")
        for eid in h.edge_ids:
            if eid not in self.delta_E:
                raise DocumentError(f"delta_E missing weight for edge {eid!r}")
        for eid in self.delta_E:
            if eid not in h.edge_index:
                raise DocumentError(f"delta_E names unknown edge {eid!r}")
        for lab, w in self.delta_V.items():
            if not np.isfinite(w) or w <= 0:
                raise DocumentError(f"delta_V[{lab!r}] must be positive, got {w}")
        for eid, w in self.delta_E.items():
            if not np.isfinite(w) or w <= 0:
                raise DocumentError(f"delta_E[{eid!r}] must be positive, got {w}")


def _weights(name: str, table: dict) -> dict[str, float]:
    """The numbers of a weight table as floats; a bool, a non-number or an
    integer beyond the float range is refused."""
    weights = {}
    for key, value in table.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DocumentError(f"{name}[{key!r}] must be a number")
        try:
            weights[key] = float(value)
        except OverflowError:
            raise DocumentError(f"{name}[{key!r}] is too large for a float") from None
    return weights


def _common_star_sum(h: Hypergraph, g: np.ndarray) -> np.ndarray:
    """C[u, v] = sum of g(e) over the edges e containing both u and v,
    diagonal included, as one float64 n x n array: g(e) is scattered over
    each edge's |e|^2 member pairs in one bincount, edge by edge in document
    order."""
    ptr, members = h.edge_ptr, h.edge_members
    edge_of = _row_of(ptr)
    per = np.diff(ptr)[edge_of]  # member entry p pairs with the |e| members of its edge e
    entry = np.repeat(np.arange(len(members)), per)  # the member entry of each pair
    offset = np.arange(len(entry)) - (np.cumsum(per) - per)[entry]  # 0 .. |e|-1 along each run
    pair_edge = edge_of[entry]
    pairs = members[entry] * h.n + members[ptr[pair_edge] + offset]
    C = np.bincount(pairs, weights=g[pair_edge], minlength=h.n * h.n)
    return C.reshape(h.n, h.n).astype(np.float64, copy=False)  # int64 when there is no edge


def build_matrix(
    h: Hypergraph, kind: str, weights: WeightFunctions | None = None
) -> HypergraphMatrix:
    """Build one of the MATRIX_KINDS for h.

    Weights must be supplied exactly when kind is one of the general_*
    kinds. Singleton edges are a hard error for the 1/(|e|-1) kinds.
    """
    if kind not in MATRIX_KINDS:
        raise HypersymError(f"unknown matrix kind {kind!r}; valid kinds: {MATRIX_KINDS}")
    if kind in WEIGHTED_KINDS and weights is None:
        raise HypersymError(f"kind {kind!r} requires a weights document")
    if kind not in WEIGHTED_KINDS and weights is not None:
        raise HypersymError(f"kind {kind!r} does not take weights")
    sizes = np.diff(h.edge_ptr).astype(np.float64)
    star_sizes = np.bincount(h.edge_members, minlength=h.n).astype(np.float64)
    if kind in RECIPROCAL_KINDS and (sizes < 2).any():
        eid = h.edge_ids[int(np.argmax(sizes < 2))]
        raise HypersymError(f"kind {kind!r} is undefined with singleton edge {eid!r}")
    if kind == "transition" and not star_sizes.all():
        label = h.labels[int(np.argmin(star_sizes))]
        raise HypersymError(f"transition matrix undefined: vertex {label!r} has empty star")
    if weights is not None:
        weights.validate_for(h)

    d = None
    if kind == "adjacency_r":
        M = _common_star_sum(h, np.ones(h.m))
        np.fill_diagonal(M, 0.0)
    elif kind in RECIPROCAL_KINDS:
        M = _common_star_sum(h, 1.0 / (sizes - 1.0))
        np.fill_diagonal(M, 0.0)
        if kind == "transition":
            M /= star_sizes[:, None]
            d = star_sizes
        elif kind == "laplacian_b":
            np.negative(M, out=M)
            np.fill_diagonal(M, star_sizes)
        elif kind == "signless_q":
            np.fill_diagonal(M, star_sizes)
    elif kind == "laplacian_r":
        M = _common_star_sum(h, np.ones(h.m))
        np.fill_diagonal(M, 0.0)
        degrees = M.sum(axis=1)
        np.negative(M, out=M)
        np.fill_diagonal(M, degrees)
    elif kind in WEIGHTED_KINDS:
        dv = np.array([weights.delta_V[lab] for lab in h.labels])
        de = np.array([weights.delta_E[eid] for eid in h.edge_ids])
        M = _common_star_sum(h, de / sizes**2)
        M /= dv[:, None]
        d = dv
        if kind == "general_adjacency":
            np.fill_diagonal(M, 0.0)
        elif kind == "general_laplacian":
            np.negative(M, out=M)
            diagonal = np.bincount(h.edge_members, weights=(de / sizes)[_row_of(h.edge_ptr)], minlength=h.n)
            np.fill_diagonal(M, diagonal / dv)
        # general_signless keeps the weighted diagonal of the common-star sum
    else:  # unit_normalized
        units = compute_units(h)
        nsize = units.sizes[units.unit_of].astype(np.float64)
        M = _common_star_sum(h, np.ones(h.m))
        np.fill_diagonal(M, 0.0)
        M /= nsize[None, :]
        np.fill_diagonal(M, star_sizes / nsize)
        d = 1.0 / nsize

    return HypergraphMatrix(kind=kind, labels=h.labels, entries=_Fresh(M), symmetrizer=d)


@dataclass(frozen=True)
class RowSumReport:
    """Row sums of a built matrix against the identity its kind should obey."""

    kind: str
    expected: float | None  # 0 for laplacians, 1 for transition, None otherwise
    sums: tuple[complex, ...]
    violations: tuple[tuple[int, complex], ...]
    tol: float


def row_sum_check(M: HypergraphMatrix, tol: float = ROW_SUM_TOL) -> RowSumReport:
    """Check each row sum against the kind's expected value and report.

    Violations are reported, never raised; kinds without a row-sum identity
    get expected=None and an empty violation list.
    """
    sums = tuple(complex(z) for z in as_array(M).sum(axis=1))
    if M.kind in ("laplacian_r", "laplacian_b", "general_laplacian"):
        expected = 0.0
    elif M.kind == "transition":
        expected = 1.0
    else:
        expected = None
    violations: list[tuple[int, complex]] = []
    if expected is not None:
        for i, s in enumerate(sums):
            if not abs(s - expected) <= tol:  # a NaN or inf sum fails
                violations.append((i, s))
    return RowSumReport(
        kind=M.kind, expected=expected, sums=sums, violations=tuple(violations), tol=tol
    )
