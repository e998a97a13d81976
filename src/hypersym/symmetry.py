"""Automorphisms of hypergraphs and the matrix structure they induce.

A vertex bijection f is an automorphism when the image of every edge's
member set is again an edge. A matrix M indexed by the vertices is
f-compatible when m[u, v] = m[f(u), f(v)] for all u, v, equivalently
M P_f = P_f M for the permutation matrix with (P_f x)(u) = x(f(u)).

Any permutation splits into cycles; grouping the nontrivial cycles by
common length yields the rotation decomposition: one rotation per cycle
length, all with disjoint active domains, plus globally fixed vertices.
A rotation of order n carries components U_0, ..., U_{n-1} cycled
positionally, with U_0 holding one representative per cycle (the smallest
index, sorted ascending).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DocumentError, HypersymError, NotAutomorphismError, NotEquitableError
from .hypergraph import Hypergraph
from .matrices import HypergraphMatrix, as_array

COMPAT_TOL = 1e-9
EQUITABLE_TOL = 1e-9


@dataclass(frozen=True)
class Permutation:
    """Bijection on 0..n-1; mapping[u] is the image of u."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise HypersymError("permutation mapping is not a bijection on 0..n-1")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_label_map(cls, h: Hypergraph, label_map: dict[str, str]) -> "Permutation":
        mapping = [-1] * h.n
        for src, dst in label_map.items():
            if src not in h.index:
                raise DocumentError(f"permutation maps unknown vertex {src!r}")
            if dst not in h.index:
                raise DocumentError(f"permutation maps {src!r} to unknown vertex {dst!r}")
            mapping[h.index[src]] = h.index[dst]
        missing = [h.labels[i] for i, v in enumerate(mapping) if v < 0]
        if missing:
            raise DocumentError(f"permutation does not map vertices {missing}")
        if len(set(mapping)) != len(mapping):
            raise DocumentError("permutation map is not a bijection")
        return cls(tuple(mapping))

    def to_label_map(self, labels: Sequence[str]) -> dict[str, str]:
        return {labels[u]: labels[v] for u, v in enumerate(self.mapping)}

    @property
    def n(self) -> int:
        return len(self.mapping)

    @property
    def is_identity(self) -> bool:
        return all(v == u for u, v in enumerate(self.mapping))

    def __call__(self, u: int) -> int:
        return self.mapping[u]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for u, v in enumerate(self.mapping):
            inv[v] = u
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: result(u) = self(other(u))."""
        if other.n != self.n:
            raise HypersymError("cannot compose permutations of different sizes")
        return Permutation(tuple(self.mapping[other.mapping[u]] for u in range(self.n)))

    def power(self, k: int) -> "Permutation":
        k %= self.order
        result = Permutation.identity(self.n)
        for _ in range(k):
            result = self.compose(result)
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """All cycles (fixed points included), each starting at its smallest
        element, listed in order of that element."""
        seen = [False] * self.n
        out: list[tuple[int, ...]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            v = self.mapping[start]
            while v != start:
                cyc.append(v)
                seen[v] = True
                v = self.mapping[v]
            out.append(tuple(cyc))
        return out

    @property
    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles())) if self.n else 1


def _perm_of(f) -> Permutation:
    if isinstance(f, Permutation):
        return f
    perm = getattr(f, "perm", None)
    if isinstance(perm, Permutation):
        return perm
    raise HypersymError(f"expected a Permutation or Automorphism, got {type(f).__name__}")


@dataclass(frozen=True)
class Automorphism:
    """A validated hypergraph automorphism with its induced edge bijection."""

    hypergraph: Hypergraph
    perm: Permutation
    edge_map: dict[str, str]
    order: int


def validate_automorphism(h: Hypergraph, f: Permutation | dict[str, str]) -> Automorphism:
    """Check that f maps every edge onto an edge; return the witness object.

    Raises NotAutomorphismError naming the first edge whose image is not an
    edge of h.
    """
    perm = Permutation.from_label_map(h, f) if isinstance(f, dict) else f
    if perm.n != h.n:
        raise HypersymError(f"permutation size {perm.n} does not match {h.n} vertices")
    edge_map: dict[str, str] = {}
    for j, mset in enumerate(h.member_sets):
        image = frozenset(perm(i) for i in mset)
        k = h.edge_of_member_set(image)
        if k is None:
            labels = sorted(h.labels[i] for i in image)
            raise NotAutomorphismError(
                f"image of edge {h.edge_ids[j]!r} is {labels}, which is not an edge"
            )
        edge_map[h.edge_ids[j]] = h.edge_ids[k]
    if len(set(edge_map.values())) != len(edge_map):
        raise NotAutomorphismError("induced edge map is not a bijection")
    return Automorphism(hypergraph=h, perm=perm, edge_map=edge_map, order=perm.order)


def permutation_array(f) -> np.ndarray:
    """Dense P_f with p[u, f(u)] = 1, so (P_f x)(u) = x(f(u))."""
    perm = _perm_of(f)
    P = np.zeros((perm.n, perm.n), dtype=np.complex128)
    for u, v in enumerate(perm.mapping):
        P[u, v] = 1.0
    return P


def permutation_matrix(f: Automorphism) -> HypergraphMatrix:
    return HypergraphMatrix(
        kind="permutation",
        labels=f.hypergraph.labels,
        entries=permutation_array(f.perm),
    )


def compatibility_deviation(M, f) -> tuple[float, tuple[int, int]]:
    """Max |m[u,v] - m[f(u),f(v)]| and the entry attaining it."""
    A = as_array(M)
    perm = _perm_of(f)
    if A.shape[0] != perm.n:
        raise HypersymError(f"matrix order {A.shape[0]} does not match permutation size {perm.n}")
    idx = np.array(perm.mapping)
    D = np.abs(A - A[np.ix_(idx, idx)])
    u, v = np.unravel_index(int(np.argmax(D)), D.shape)
    return float(D[u, v]), (int(u), int(v))


def is_compatible(M, f, tol: float = COMPAT_TOL) -> bool:
    """True when m[u,v] = m[f(u),f(v)] for all u, v within tol."""
    dev, _ = compatibility_deviation(M, f)
    return dev <= tol


def check_commutation(M, f) -> float:
    """Max-entry deviation of M P_f - P_f M (0 iff compatible, exactly).

    (M P_f - P_f M)[u, f(v)] = m[u, v] - m[f(u), f(v)], so for finite M this
    is the compatibility deviation, without forming P_f."""
    return compatibility_deviation(M, f)[0]


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of a permutation, cells ascending, ordered by smallest member."""

    cells: tuple[tuple[int, ...], ...]
    cell_index: tuple[int, ...]
    n: int

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def from_permutation(cls, f) -> "OrbitPartition":
        perm = _perm_of(f)
        cells = tuple(tuple(sorted(c)) for c in perm.cycles())
        index = [0] * perm.n
        for i, cell in enumerate(cells):
            for v in cell:
                index[v] = i
        return cls(cells=cells, cell_index=tuple(index), n=perm.n)

    def label_cells(self, labels: Sequence[str]) -> list[list[str]]:
        return [[labels[v] for v in cell] for cell in self.cells]


def orbits(f) -> OrbitPartition:
    return OrbitPartition.from_permutation(f)


def _cells_of(partition) -> tuple[tuple[int, ...], ...]:
    if isinstance(partition, OrbitPartition):
        return partition.cells
    return tuple(tuple(cell) for cell in partition)


def _cell_layout(cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices in cell order, the offset at which each cell starts and
    each cell's size."""
    sizes = np.fromiter((len(cell) for cell in cells), dtype=np.intp, count=len(cells))
    order = np.fromiter((v for cell in cells for v in cell), dtype=np.intp, count=int(sizes.sum()))
    starts = np.zeros(len(cells), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    return order, starts, sizes


def _cell_sums(A: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """R[u, j] = sum of A[u, w] over w in cell j, in one grouped pass over
    the columns in cell order (a _cell_layout with no empty cell)."""
    return np.add.reduceat(A[:, order], starts, axis=1)


def _equitable(A: np.ndarray, cells, tol: float):
    """The quotient at the cell representatives (first members) and the
    equitable witness (None when equitable), from one set of cell sums."""
    order, starts, sizes = _cell_layout(cells)
    if len(order) != A.shape[0] or not np.array_equal(np.sort(order), np.arange(A.shape[0])):
        raise HypersymError("partition does not cover the index set exactly once")
    if not sizes.all():
        raise HypersymError("partition has an empty cell")
    R = _cell_sums(A, order, starts)
    rep_of = np.empty(A.shape[0], dtype=np.intp)
    rep_of[order] = np.repeat(order[starts], sizes)
    D = np.abs(R - R[rep_of])
    # worst[i, j]: largest deviation, over the rows of cell i, of the sum into
    # cell j from that of the cell's first member
    worst = np.maximum.reduceat(D[order], starts, axis=0)
    bad = np.flatnonzero(~(worst <= tol))  # NaN never passes
    witness = None
    if bad.size:
        i, j = divmod(int(bad[0]), len(cells))  # first offending pair, row-major
        cell = cells[i]
        k = int(np.argmax(D[list(cell), j]))
        witness = (i, cell[0], cell[k], j, complex(R[cell[0], j]), complex(R[cell[k], j]))
    return R[order[starts]], witness


def equitable_witness(M, partition, tol: float = EQUITABLE_TOL):
    """None if the partition is equitable for M, else the offending pair:
    (cell_i, u, u2, cell_j, sum_u, sum_u2)."""
    return _equitable(as_array(M), _cells_of(partition), tol)[1]


def is_equitable(M, partition, tol: float = EQUITABLE_TOL) -> bool:
    """True when row sums into each cell are constant on every cell."""
    return equitable_witness(M, partition, tol) is None


def orbit_quotient(M, orbs, tol: float = EQUITABLE_TOL) -> np.ndarray:
    """Quotient matrix b[i,j] = sum over cell j of m[u,w], u representing
    cell i. The partition must be equitable for M (checked)."""
    Q, witness = _equitable(as_array(M), _cells_of(orbs), tol)
    if witness is not None:
        i, u, u2, j, s1, s2 = witness
        raise NotEquitableError(
            f"partition is not equitable: rows {u} and {u2} of cell {i} sum to "
            f"{s1} and {s2} over cell {j}"
        )
    return Q


@dataclass(frozen=True)
class Rotation:
    """One cycle-length class of a permutation, acting as identity elsewhere.

    components[i] lists U_i positionally: components[i][k] is the image of
    components[0][k] under i applications. U_0 holds each cycle's smallest
    index, ascending.
    """

    order_n: int
    components: tuple[tuple[int, ...], ...]
    invariant_set: frozenset[int]
    underlying: Permutation

    @property
    def u0(self) -> tuple[int, ...]:
        return self.components[0]

    @property
    def n_cycles(self) -> int:
        return len(self.components[0])


@dataclass(frozen=True)
class RotationDecomposition:
    factors: tuple[Rotation, ...]
    global_fixed: tuple[int, ...]
    perm: Permutation


def rotation_decomposition(f) -> RotationDecomposition:
    """Split f into one rotation per nontrivial cycle length.

    Factors have pairwise disjoint active domains and pairwise distinct
    orders, sorted ascending by order; composing them (in any order)
    reproduces f on its support.
    """
    perm = _perm_of(f)
    by_length: dict[int, list[tuple[int, ...]]] = {}
    fixed: list[int] = []
    for cyc in perm.cycles():
        if len(cyc) == 1:
            fixed.append(cyc[0])
        else:
            by_length.setdefault(len(cyc), []).append(cyc)
    factors = []
    for length in sorted(by_length):
        cycs = sorted(by_length[length], key=lambda c: c[0])
        components = [tuple(c[0] for c in cycs)]
        for i in range(1, length):
            components.append(tuple(c[i] for c in cycs))
        active = {v for c in cycs for v in c}
        mapping = list(range(perm.n))
        for c in cycs:
            for t, v in enumerate(c):
                mapping[v] = c[(t + 1) % length]
        factors.append(
            Rotation(
                order_n=length,
                components=tuple(components),
                invariant_set=frozenset(range(perm.n)) - active,
                underlying=Permutation(tuple(mapping)),
            )
        )
    return RotationDecomposition(
        factors=tuple(factors), global_fixed=tuple(sorted(fixed)), perm=perm
    )


def as_rotation(f) -> Rotation:
    """View f as a single rotation; error if its nontrivial cycles have
    mixed lengths or f is the identity."""
    dec = rotation_decomposition(f)
    if len(dec.factors) != 1:
        raise HypersymError(
            f"expected a single rotation, found {len(dec.factors)} cycle-length classes"
        )
    return dec.factors[0]


def simple_eigenvalue_bound(rot: Rotation) -> int:
    """Upper bound on the number of simple eigenvalues of any symmetric
    rot-compatible matrix: |U_0| + |X| for odd order, 2|U_0| + |X| for even.

    Holds for symmetric matrices only; the bound is meaningless otherwise.
    """
    m0 = len(rot.u0)
    x = len(rot.invariant_set)
    if rot.order_n % 2 == 1:
        return m0 + x
    return 2 * m0 + x


def compose_factors(dec: RotationDecomposition) -> Permutation:
    """Recompose the decomposition; equals the original permutation."""
    result = Permutation.identity(dec.perm.n)
    for rot in dec.factors:
        result = rot.underlying.compose(result)
    return result
