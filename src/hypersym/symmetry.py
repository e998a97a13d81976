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
layout that its order, its orbits and its rotation factors read as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DocumentError, HypersymError, NotAutomorphismError, NotEquitableError
from .hypergraph import Hypergraph, _map_rows, _row_of, _sort_rows, _split_rows
from .matrices import _BLOCK, as_array

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
    ptr, members = np.array(ptr, dtype=np.intp), np.array(members, dtype=np.intp)
    ptr.flags.writeable = members.flags.writeable = False
    return ptr, members


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
    image, target = _map_rows(h.edge_ptr, h.edge_members, perm.mapping)
    if (target < 0).any():
        j = int(np.argmax(target < 0))
        labels = sorted(h.labels[i] for i in image[h.edge_ptr[j] : h.edge_ptr[j + 1]].tolist())
        raise NotAutomorphismError(
            f"image of edge {h.edge_ids[j]!r} is {labels}, which is not an edge"
        )
    edge_map = dict(zip(h.edge_ids, map(h.edge_ids.__getitem__, target.tolist())))
    if len(set(edge_map.values())) != len(edge_map):
        raise NotAutomorphismError("induced edge map is not a bijection")
    return Automorphism(hypergraph=h, perm=perm, edge_map=edge_map, order=perm.order)


def compatibility_deviation(M, f) -> tuple[float, tuple[int, int]]:
    """Max |m[u,v] - m[f(u),f(v)]| and the entry attaining it: the first in
    row-major order, or the first NaN, as np.argmax of the whole deviation
    would pick. Taken a block of rows at a time, so no n x n temporary is
    made."""
    A = as_array(M)
    perm = _perm_of(f)
    n = A.shape[0]
    if n != perm.n:
        raise HypersymError(f"matrix order {n} does not match permutation size {perm.n}")
    idx = np.array(perm.mapping)
    rows = max(1, _BLOCK // n)
    best, at = -1.0, 0
    for r in range(0, n, rows):
        G = A[idx[r : r + rows]].take(idx, axis=1)  # rows r.. of A[f(u), f(v)]
        D = np.abs(np.subtract(A[r : r + rows], G, out=G))
        k = int(np.argmax(D))
        if not D.flat[k] <= best:  # a larger value, or the first NaN
            best, at = float(D.flat[k]), r * n + k
            if best != best:
                break
    return best, divmod(at, n)


def check_commutation(M, f) -> float:
    """Max-entry deviation of M P_f - P_f M (0 iff compatible, exactly).

    (M P_f - P_f M)[u, f(v)] = m[u, v] - m[f(u), f(v)], so for finite M this
    is the compatibility deviation, without forming P_f."""
    return compatibility_deviation(M, f)[0]


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of a permutation, cells ascending, ordered by smallest member;
    _arrays holds their _cell_layout, derived once from cells if not given."""

    cells: tuple[tuple[int, ...], ...]
    cell_index: tuple[int, ...]
    n: int
    _arrays: tuple[np.ndarray, ...] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._arrays is None:
            object.__setattr__(self, "_arrays", _cell_layout(self.cells))

    def __len__(self) -> int:
        return len(self.cells)

    @classmethod
    def from_permutation(cls, f) -> "OrbitPartition":
        ptr, members = _perm_of(f)._cycles
        members, cell_of = _sort_rows(ptr, members), np.empty_like(members)
        cell_of[members] = _row_of(ptr)
        arrays = members, ptr[:-1], np.diff(ptr), cell_of
        return cls(tuple(map(tuple, _split_rows(ptr, members))), tuple(cell_of.tolist()), len(members), arrays)

    def label_cells(self, labels: Sequence[str]) -> list[list[str]]:
        return [[labels[v] for v in cell] for cell in self.cells]


def orbits(f) -> OrbitPartition:
    return OrbitPartition.from_permutation(f)


def _cell_layout(cells) -> tuple[np.ndarray, ...]:
    """The indices in cell order, the offset at which each cell starts, each
    cell's size and the cell of each index (when the cells cover 0..n-1)."""
    sizes = np.fromiter((len(cell) for cell in cells), dtype=np.intp, count=len(cells))
    order = np.fromiter((v for cell in cells for v in cell), dtype=np.intp, count=int(sizes.sum()))
    starts = np.zeros(len(cells), dtype=np.intp)
    np.cumsum(sizes[:-1], out=starts[1:])
    return order, starts, sizes, np.repeat(np.arange(len(cells)), sizes)[np.argsort(order, kind="stable")]


def _cell_sums(A: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """R[u, j] = sum of A[u, w] over w in cell j, in one grouped pass over
    the columns in cell order (a _cell_layout with no empty cell)."""
    return np.add.reduceat(A[:, order], starts, axis=1)


def _equitable(A: np.ndarray, partition, tol: float):
    """The quotient at the cell representatives (first members) and the
    equitable witness (None when equitable), from one set of cell sums, for
    an OrbitPartition (its arrays) or a caller's plain list of cells."""
    order, starts, sizes, cell_of = (
        partition._arrays if isinstance(partition, OrbitPartition) else _cell_layout(list(map(tuple, partition)))
    )
    if len(order) != A.shape[0] or not np.array_equal(np.sort(order), np.arange(A.shape[0])):
        raise HypersymError("partition does not cover the index set exactly once")
    if not sizes.all():
        raise HypersymError("partition has an empty cell")
    R = _cell_sums(A, order, starts)
    D = np.abs(R - R[order[starts][cell_of]])
    # worst[i, j]: largest deviation, over the rows of cell i, of the sum into
    # cell j from that of the cell's first member
    worst = np.maximum.reduceat(D[order], starts, axis=0)
    bad = np.flatnonzero(~(worst <= tol))  # NaN never passes
    witness = None
    if bad.size:
        i, j = divmod(int(bad[0]), len(starts))  # first offending pair, row-major
        cell = order[starts[i] : starts[i] + sizes[i]].tolist()
        k = int(np.argmax(D[cell, j]))
        witness = (i, cell[0], cell[k], j, complex(R[cell[0], j]), complex(R[cell[k], j]))
    return R[order[starts]], witness


def equitable_witness(M, partition, tol: float = EQUITABLE_TOL):
    """None if the partition is equitable for M, else the offending pair:
    (cell_i, u, u2, cell_j, sum_u, sum_u2)."""
    return _equitable(as_array(M), partition, tol)[1]


def is_equitable(M, partition, tol: float = EQUITABLE_TOL) -> bool:
    """True when row sums into each cell are constant on every cell."""
    return equitable_witness(M, partition, tol) is None


def orbit_quotient(M, orbs, tol: float = EQUITABLE_TOL) -> np.ndarray:
    """Quotient matrix b[i,j] = sum over cell j of m[u,w], u representing
    cell i. The partition must be equitable for M (checked)."""
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
