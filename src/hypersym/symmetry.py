"""Automorphisms of hypergraphs and the matrix structure they induce.

A vertex bijection f is an automorphism when the image of every edge's
member set is again an edge. A matrix M indexed by the vertices is
f-compatible when m[u, v] = m[f(u), f(v)] for all u, v, equivalently
M P_f = P_f M for the permutation matrix with (P_f x)(u) = x(f(u)).

Any permutation splits into cycles; grouping the nontrivial cycles by
common length yields the rotation decomposition: one rotation per cycle
length, all with disjoint active domains; the fixed vertices belong to
none. A rotation of order n carries components U_0, ..., U_{n-1} cycled
positionally, with U_0 holding one representative per cycle (the smallest
index, sorted ascending). A Permutation walks its cycles once, into a CSR
layout that its order, its orbits and its rotation factors read as arrays;
the orbits are cells (hypergraph._Cells), as the units are, and one helper
each gives both their cell sums, lift and quotient symmetrizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DocumentError, HypersymError, NotAutomorphismError, NotEquitableError
from .hypergraph import Hypergraph, _Cells, _map_rows, _row_of, _sort_rows, _split_rows
from .matrices import _block_rows, _float_array, as_array

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

    def __call__(self, u: int) -> int:
        return self.mapping[u]

    _cycles = cached_property(lambda self: _walk_cycles(self.mapping))

    def cycles(self) -> list[tuple[int, ...]]:
        """All cycles (fixed points included), each starting at its smallest
        element, listed in order of that element."""
        return list(map(tuple, _split_rows(*self._cycles)))

    @property
    def order(self) -> int:
        return math.lcm(*np.diff(self._cycles[0]).tolist())


def _walk_cycles(mapping: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The cycles of a permutation as read-only CSR arrays (ptr, members),
    each from its smallest element, in order of that element."""
    seen, members, ptr = bytearray(len(mapping)), [], [0]
    for start in range(len(mapping)):
        v = start
        while not seen[v]:
            seen[v] = 1
            members.append(v)
            v = mapping[v]
        if len(members) > ptr[-1]:
            ptr.append(len(members))
    return _read_only(np.array(ptr, dtype=np.intp)), _read_only(np.array(members, dtype=np.intp))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    edge of h. The edge map is then a bijection: so is f, and parsing
    refuses two edges with one member set.
    """
    perm = Permutation.from_label_map(h, f) if isinstance(f, dict) else f
    if perm.n != h.n:
        raise HypersymError(f"permutation size {perm.n} does not match {h.n} vertices")
    image, target = _map_rows(h.edge_ptr, h.edge_members, perm.mapping)
    if (target < 0).any():
        j = int(np.argmax(target < 0))
        labels = sorted(h.labels[i] for i in image[h.edge_ptr[j] : h.edge_ptr[j + 1]].tolist())
        raise NotAutomorphismError(
            f"image of edge {h.edge_ids[j]!r} is {labels}, which is not an edge"
        )
    edge_map = dict(zip(h.edge_ids, map(h.edge_ids.__getitem__, target.tolist())))
    return Automorphism(hypergraph=h, perm=perm, edge_map=edge_map, order=perm.order)


def compatibility_deviation(M, f) -> tuple[float, tuple[int, int]]:
    """Max |m[u,v] - m[f(u),f(v)]| and the entry attaining it: the first in
    row-major order, or the first NaN, as np.argmax of the whole deviation
    would pick; (0.0, (0, 0)) for the empty matrix. Taken a block of rows at
    a time, so no n x n temporary is made."""
    A = as_array(M)
    perm = _perm_of(f)
    n = A.shape[0]
    if n != perm.n:
        raise HypersymError(f"matrix order {n} does not match permutation size {perm.n}")
    idx = np.array(perm.mapping, dtype=np.intp)
    rows = _block_rows(n)
    best, at = 0.0, 0
    for r in range(0, n, rows):
        G = A[idx[r : r + rows]].take(idx, axis=1)  # rows r.. of A[f(u), f(v)]
        D = np.abs(np.subtract(A[r : r + rows], G, out=G))
        k = int(np.argmax(D))
        if not D.flat[k] <= best:  # a larger value, or the first NaN
            best, at = float(D.flat[k]), r * n + k
            if best != best:
                break
    return best, divmod(at, max(n, 1))


def check_commutation(M, f) -> float:
    """Max-entry deviation of M P_f - P_f M (0 iff compatible, exactly).

    (M P_f - P_f M)[u, f(v)] = m[u, v] - m[f(u), f(v)], so for finite M this
    is the compatibility deviation, without forming P_f."""
    return compatibility_deviation(M, f)[0]


class OrbitPartition(_Cells):
    """Orbits of a permutation as cells (_Cells), each ascending, ordered by
    smallest member, read off its cycle layout by orbits(f); the cells as
    tuples are built on first access. OrbitPartition(cells=..., n=...)
    lays out given cells, checked as _Cells(cells, n) checks them."""

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, _split_rows(self.cell_ptr, self.cell_members)))

    @classmethod
    def from_permutation(cls, f) -> "OrbitPartition":
        ptr, members = _perm_of(f)._cycles
        members, cell_of = _sort_rows(ptr, members), np.empty_like(members)
        cell_of[members] = _row_of(ptr)
        orbs = cls.__new__(cls)
        orbs._set_cells(len(members), members, ptr, cell_of)
        return orbs

    def label_cells(self, labels: Sequence[str]) -> list[list[str]]:
        return [[labels[v] for v in cell] for cell in self.cells]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrbitPartition):
            return NotImplemented
        return self.n == other.n and self.cells == other.cells

    def __hash__(self) -> int:
        return hash((self.n, self.cells))


def orbits(f) -> OrbitPartition:
    return OrbitPartition.from_permutation(f)


def _cell_sums(A: np.ndarray, cells: _Cells) -> np.ndarray:
    """R[u, j] = sum of A[u, w] over w in cell j, in one pass over the columns in cell order."""
    return np.add.reduceat(A[:, cells.cell_members], cells.cell_ptr[:-1], axis=1)


def _lift_cells(y, cells: _Cells, name: str) -> np.ndarray:
    """Extend y on the cells (their name in the error) to the indices,
    constant on each cell; a (cells, k) matrix column by column."""
    y = _float_array(y)
    if y.ndim not in (1, 2) or y.shape[0] != len(cells):
        raise HypersymError(f"vector length {y.shape} does not match {len(cells)} {name}")
    return y[cells.cell_of]


def _cell_symmetrizer(d: np.ndarray | None, cells: _Cells) -> np.ndarray | None:
    """e_c = |c| d(rep c) for every cell c when d is exactly constant on
    every cell, else None: diag(e) balances the quotient over the cells, and
    e at its cycles a w-block, for a d that balances the matrix."""
    if d is None or not np.array_equal(d[cells.reps][cells.cell_of], d):
        return None
    return cells.sizes * d[cells.reps]


def _equitable(A: np.ndarray, partition, tol: float):
    """The quotient at the cell representatives (first members) and the
    equitable witness (None when equitable), from one set of cell sums, for
    a partition's cells (_Cells) or a caller's plain list of cells. An
    infinite tol compares no sums and sums only the representatives' rows:
    only a NaN among them fails, named as the representative against
    itself."""
    cells = partition if isinstance(partition, _Cells) else _Cells(partition, A.shape[0])
    if cells.n != A.shape[0]:
        raise HypersymError("partition does not cover the index set exactly once")
    order, starts, reps = cells.cell_members, cells.cell_ptr[:-1], cells.reps
    # inf beyond the float range and NaN where infs meet, in sums and deviations
    with np.errstate(over="ignore", invalid="ignore"):
        if tol == math.inf:
            Q = _cell_sums(A[reps], cells)
            nan = np.flatnonzero(np.isnan(Q))
            if not nan.size:
                return Q, None
            i, j = divmod(int(nan[0]), len(cells))
            return Q, (i, int(reps[i]), int(reps[i]), j, complex(Q[i, j]), complex(Q[i, j]))
        R = _cell_sums(A, cells)
        D = np.abs(R - R[reps[cells.cell_of]])
    # worst[i, j]: largest deviation, over the rows of cell i, of the sum into
    # cell j from that of the cell's first member
    worst = np.maximum.reduceat(D[order], starts, axis=0)
    bad = np.flatnonzero(~(worst <= tol))  # NaN never passes
    if not bad.size:
        return R[reps], None
    i, j = divmod(int(bad[0]), len(cells))  # first offending pair, row-major
    cell = order[cells.cell_ptr[i] : cells.cell_ptr[i + 1]].tolist()
    k = int(np.argmax(D[cell, j]))
    return R[reps], (i, cell[0], cell[k], j, complex(R[cell[0], j]), complex(R[cell[k], j]))


def equitable_witness(M, partition, tol: float = EQUITABLE_TOL):
    """None if the partition is equitable for M, else the offending pair:
    (cell_i, u, u2, cell_j, sum_u, sum_u2)."""
    return _equitable(as_array(M), partition, tol)[1]


def is_equitable(M, partition, tol: float = EQUITABLE_TOL) -> bool:
    """True when row sums into each cell are constant on every cell."""
    return equitable_witness(M, partition, tol) is None


def orbit_quotient(M, orbs, tol: float = EQUITABLE_TOL) -> np.ndarray:
    """Quotient matrix b[i,j] = sum over cell j of m[u,w], u representing
    cell i. The partition must be equitable for M (checked). An infinite
    tol, for a caller that knows it equitable, sums only the
    representatives' rows and checks only that none of those sums is NaN,
    without comparing them: an infinite sum is the caller's to refuse."""
    Q, witness = _equitable(as_array(M), orbs, tol)
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
    underlying: Permutation

    # the components as one read-only (order_n, n_cycles) index array
    _index = cached_property(lambda self: _read_only(np.array(self.components, dtype=np.intp)))

    @property
    def u0(self) -> tuple[int, ...]:
        return self.components[0]

    @property
    def n_cycles(self) -> int:
        return len(self.components[0])


def rotation_decomposition(f) -> tuple[Rotation, ...]:
    """Split f into one rotation per nontrivial cycle length.

    Factors have pairwise disjoint active domains and pairwise distinct
    orders, sorted ascending by order; composing them (in any order)
    reproduces f.
    """
    perm = _perm_of(f)
    ptr, members = perm._cycles
    lengths = np.diff(ptr)
    factors = []
    for length in sorted(set(lengths.tolist()) - {1}):
        # components[i][k] = f^i(smallest member of the k-th cycle of this length)
        comps = members[ptr[:-1][lengths == length] + np.arange(length)[:, None]]
        mapping = np.arange(perm.n)
        mapping[comps] = np.roll(comps, -1, axis=0)
        factors.append(Rotation(length, tuple(map(tuple, comps.tolist())), Permutation(tuple(mapping.tolist()))))
    return tuple(factors)


def as_rotation(f) -> Rotation:
    """View f as a single rotation; error if its nontrivial cycles have
    mixed lengths or f is the identity."""
    factors = rotation_decomposition(f)
    if len(factors) != 1:
        raise HypersymError(
            f"expected a single rotation, found {len(factors)} cycle-length classes"
        )
    return factors[0]
