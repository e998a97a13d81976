"""Unit-level symmetry: compatible profiles, unit eigenvalues, quotients,
and decompositions driven by unit-automorphisms.

A matrix M is unit-compatible when, inside every unit W, the diagonal is
constant (d), all off-diagonal entries are one constant (r), and every
outside vertex sees constant rows and columns across W. Each unit of size
at least 2 then contributes the eigenvalue d - r with multiplicity |W| - 1
and eigenvectors chi_v - chi_v0; the remaining spectrum is that of the
unit quotient N, an extension of M to the contracted hypergraph, whose
eigenvectors blow up to eigenvectors of M constant on units.

A unit-automorphism permutes units so that edge covers map to edge
covers. It always induces an edge bijection; it lifts to a vertex
automorphism exactly when it preserves unit cardinalities. M follows the
symmetry when N is compatible with the unit permutation, in which case the
full spectrum decomposes into unit eigenvalues plus the block
decomposition of N along the unit permutation.

Everything here reads the unit partition's CSR arrays (unit_of, the unit
pointer and members), with no Python loop over units or vertex pairs:

- the four unit-compatibility conditions: the diagonal against each
  representative's, the off-diagonal entries over the sum |W|(|W| - 1)
  pairs within units, and the rows toward and columns from outside
  vertices by one take-subtract-abs pass each, a block of rows at a time,
  with the entries within units zeroed by index. The first failing unit
  and condition get their message from _unit_violation;
- the unit quotient and its blow-up, by the orbits' cell sums over the
  representative rows and gather by unit (symmetry._cell_sums, _lift_cells);
- the unit eigenpairs: every unit's d - r, its chi_v - chi_v0 columns and
  their residuals in one pass. The per-unit LiftedBlock and RotationBlock
  records are slices of those arrays;
- the unit-map lookup, the cardinality check and the positional lift.

The decomposition reads the one decision of realness and balance made per
matrix in matrices.prepared; N's symmetrizer |W| d(rep W) comes from the
orbits' rule (symmetry._cell_symmetrizer) applied to the units. The cost is
O(n^2) for the checks, O(n) per unit eigenpair, and the block
decomposition of the q x q quotient N over the q units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DocumentError,
    HypersymError,
    IncompatibleMatrixError,
    NotUnitAutomorphismError,
    NotUnitCompatibleError,
)
from .hypergraph import Hypergraph, UnitPartition, _cover_arrays, _map_rows, _ptr, _row_of, compute_units
from .jsonutil import describe_value
from .matrices import _block_rows, as_array, prepared
from .spectral import (
    LiftedBlock,
    RotationBlock,
    SpectralDecomposition,
    _decompose,
    residual_norms,
)
from .symmetry import (
    COMPAT_TOL,
    Automorphism,
    Permutation,
    _cell_sums,
    _cell_symmetrizer,
    _lift_cells,
)

MERGE_TOL = 1e-9


@dataclass(frozen=True)
class UnitCompatibleProfile:
    """Per-unit constants of a unit-compatible matrix.

    d[i] is the shared diagonal of unit i, r[i] the shared off-diagonal
    (None for singletons), rows[i] the representative row, whose entries
    off the unit are the values s(W_i, w).
    """

    units: UnitPartition
    d: tuple[complex, ...]
    r: tuple[complex | None, ...]
    rows: np.ndarray


def _unit_pairs(units: UnitPartition) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (u, v) of members of one unit, u = v included, by
    u then v ascending: vertex u's pairs are pairs[ptr[u]:ptr[u + 1]], and
    (ptr, pairs) holds their columns v."""
    sizes = units.sizes[units.unit_of]  # the order of each vertex's unit
    ptr = _ptr(sizes)
    # v's position among the unit members: that of u's unit's first member,
    # plus v's place in u's row of pairs
    pos = np.arange(ptr[-1]) - np.repeat(ptr[:-1] - units.unit_ptr[units.unit_of], sizes)
    return ptr, units.unit_members[pos]


@np.errstate(over="ignore")  # a deviation beyond the float range is inf, and fails
def profile_unit_compatibility(M, units: UnitPartition, tol: float = COMPAT_TOL) -> UnitCompatibleProfile:
    """Verify the unit-compatibility conditions and extract (d, r, s).

    Raises NotUnitCompatibleError naming the violated unit and condition.
    The conditions are read from the unit arrays: the diagonal against the
    representative's, the off-diagonal entries of each unit W over its
    |W|(|W| - 1) pairs only, and the rows toward and columns from outside
    vertices by one take-subtract-abs pass each, a block of rows at a time
    (its buffers stay in cache), the entries within units zeroed by index.
    """
    A = as_array(M)
    n = units.n
    if A.shape[0] != n:
        raise HypersymError(f"matrix order {A.shape[0]} does not match {n} vertices")
    members, starts, sizes = units.unit_members, units.unit_ptr[:-1], units.sizes
    reps = units.reps
    seconds = members[starts + (sizes > 1)]  # the representative again for a singleton
    rep_of = reps[units.unit_of]
    ptr, v = _unit_pairs(units)
    u = _row_of(ptr)
    diag = A.diagonal()
    # worst deviation at each vertex for each condition, in the order the
    # conditions are reported: diagonal, off-diagonal within the unit, row
    # toward outside vertices, column from outside vertices
    dev = np.zeros((4, n))
    np.abs(diag - diag[rep_of], out=dev[0])
    off = np.abs(A[u, v] - A[reps, seconds][units.unit_of[u]])
    off[u == v] = 0.0
    dev[1] = np.maximum.reduceat(off, ptr[:-1])
    rows = _block_rows(n)
    for r in range(0, n, rows):
        end = min(r + rows, n)
        block = A[r:end]
        inside = (u[ptr[r] : ptr[end]] - r, v[ptr[r] : ptr[end]])
        D = np.abs(block - A[rep_of[r:end]])
        D[inside] = 0.0
        dev[2, r:end] = D.max(axis=1)
        D = np.abs(block - block[:, rep_of])
        D[inside] = 0.0
        np.maximum(dev[3], D.max(axis=0), out=dev[3])
    dev = np.maximum.reduceat(dev[:, members], starts, axis=1)  # per unit
    failed = ~(dev <= tol)  # NaN never passes
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        raise NotUnitCompatibleError(_unit_violation(A, units, i, int(np.argmax(failed[:, i]))))
    r = A[reps, seconds].tolist()
    return UnitCompatibleProfile(
        units=units,
        d=tuple(map(complex, diag[reps].tolist())),
        r=tuple(complex(z) if big else None for z, big in zip(r, (sizes > 1).tolist())),
        rows=A[reps],
    )


def _unit_violation(A: np.ndarray, units: UnitPartition, i: int, condition: int) -> str:
    """The message naming where unit i breaks the given condition (numbered
    as in profile_unit_compatibility)."""
    mem = units.unit_members[units.unit_ptr[i] : units.unit_ptr[i + 1]].tolist()
    key = units.keys[i]
    if condition == 0:
        diag = A[mem, mem]
        k = int(np.argmax(np.abs(diag - diag[0])))
        return (
            f"unit {key!r}: diagonal entries differ: {complex(diag[0])} at {mem[0]} "
            f"vs {complex(diag[k])} at {mem[k]}"
        )
    if condition == 1:
        off = A[np.ix_(mem, mem)][~np.eye(len(mem), dtype=bool)]
        return (
            f"unit {key!r}: off-diagonal entries within the unit are not "
            f"constant: {complex(off[0])} vs {complex(off[np.argmax(np.abs(off - off[0]))])}"
        )
    outside = np.flatnonzero(units.unit_of != i)
    if condition == 2:
        block = A[np.ix_(mem, outside)]
        dev = np.abs(block - block[0]).max(axis=0)
        what = "rows toward"
    else:
        block = A[np.ix_(outside, mem)]
        dev = np.abs(block - block[:, :1]).max(axis=1)
        what = "columns from"
    w = int(outside[np.argmax(dev)])
    return f"unit {key!r}: {what} outside vertex {w} differ (max deviation {dev.max():.3e})"


@dataclass(frozen=True)
class UnitEigenStructure:
    unit_index: int
    unit_key: str
    value: complex
    multiplicity: int
    vectors: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class UnitEigenReport:
    """Per-unit eigenvalues, plus a merged view grouping equal values."""

    structures: tuple[UnitEigenStructure, ...]
    merged: tuple[tuple[complex, int, tuple[str, ...]], ...]


def unit_eigenvalues(M, units: UnitPartition, tol: float = COMPAT_TOL, merge_tol: float = MERGE_TOL) -> UnitEigenReport:
    """Eigenvalue d - r with multiplicity |W| - 1 for every unit of size
    at least 2, eigenvectors chi_v - chi_v0 with v0 the smallest member.

    Entries sharing a value across units are merged in the report (the
    merge is cosmetic; per-unit structures are kept).
    """
    A = as_array(M)
    profile_unit_compatibility(A, units, tol)  # the unit-compatibility check
    structures = [
        UnitEigenStructure(
            unit_index=i,
            unit_key=lift.source["unit"],
            value=complex(lift.values[0]),
            multiplicity=len(lift.values),
            vectors=tuple(lift.vectors.T),
        )
        for i, lift, _ in _unit_lifts(A, units)
    ]
    merged: list[tuple[complex, int, tuple[str, ...]]] = []
    for s in sorted(structures, key=lambda s: (s.value.real, s.value.imag)):
        if merged and abs(s.value - merged[-1][0]) <= merge_tol:
            value, mult, keys = merged[-1]
            merged[-1] = (value, mult + s.multiplicity, keys + (s.unit_key,))
        else:
            merged.append((s.value, s.multiplicity, (s.unit_key,)))
    return UnitEigenReport(structures=tuple(structures), merged=tuple(merged))


def _unit_lifts(A: np.ndarray, units: UnitPartition) -> list[tuple[int, LiftedBlock, RotationBlock]]:
    """(index, eigenpairs, block) of every unit W of size at least 2, in
    unit order: d - r in A's dtype, read off the representative row, |W| - 1
    times, with the vectors chi_v - chi_v0 for its members v but the
    smallest v0 as columns and their residuals against A. A must be
    unit-compatible (checked by the caller). The values, vectors and
    residuals of all units come from one pass over the unit arrays, and
    each unit's records hold slices of them."""
    ptr, members, sizes = units.unit_ptr, units.unit_members, units.sizes
    big = np.flatnonzero(sizes > 1)
    others = np.ones(len(members), dtype=bool)
    others[ptr[:-1]] = False
    v, v0 = members[others], np.repeat(units.reps, sizes - 1)
    rows = np.arange(len(v))
    vectors = np.zeros((len(v), units.n))
    vectors[rows, v] = 1.0
    vectors[rows, v0] = -1.0
    reps, seconds = members[ptr[big]], members[ptr[big] + 1]
    with np.errstate(over="ignore"):  # a d - r beyond the float range is inf
        values = A[reps, reps] - A[reps, seconds]
    if not np.isfinite(values).all():
        key = units.keys[big[np.argmin(np.isfinite(values))]]
        raise HypersymError(f"unit {key!r} has an eigenvalue beyond the float range")
    values = np.repeat(values, sizes[big] - 1)
    # A (chi_v - chi_v0) = A[:, v] - A[:, v0]: each residual is O(n), taken
    # a block of columns at a time, each column's the same as in one pass
    residuals = np.empty(len(v))
    cols = _block_rows(units.n)
    for a in range(0, len(v), cols):
        b = a + cols
        residuals[a:b] = residual_norms(A[:, v[a:b]] - A[:, v0[a:b]], vectors[a:b].T, values[a:b])
    eigenvalues = values.astype(np.complex128)
    bounds = _ptr(sizes[big] - 1).tolist()
    out = []
    for i, a, b in zip(big.tolist(), bounds, bounds[1:]):
        source = {"kind": "unit", "unit": units.keys[i]}
        lift = LiftedBlock(source, values[a:b], vectors.T[:, a:b], residuals[a:b])
        out.append((i, lift, RotationBlock(source, b - a, eigenvalues[a:b])))
    return out


def unit_quotient(M, units: UnitPartition, tol: float = COMPAT_TOL) -> np.ndarray:
    """Quotient over units: row sums of a representative row into each unit.

    Diagonal entries come out as d + (|W| - 1) r. M must be unit-compatible
    (checked)."""
    profile = profile_unit_compatibility(M, units, tol)
    return _cell_sums(profile.rows, units)


def blow_up(y, units: UnitPartition) -> np.ndarray:
    """Extend a vector on units to the vertices, constant on each unit.
    A (units, k) matrix extends column by column, keeping y's dtype."""
    return _lift_cells(y, units, "units")


@dataclass(frozen=True)
class UnitAutomorphism:
    """A bijection of units inducing a bijection of edges."""

    hypergraph: Hypergraph
    units: UnitPartition
    perm: Permutation  # on unit indices, in unit order
    edge_map: dict[str, str]
    order: int
    cardinality_preserving: bool

    def unit_key_map(self) -> dict[str, str]:
        keys = self.units.keys
        return dict(zip(keys, map(keys.__getitem__, self.perm.mapping)))


def validate_unit_automorphism(h: Hypergraph, unit_map: dict[str, str] | Permutation) -> UnitAutomorphism:
    """Check that a unit bijection maps every edge cover onto an edge cover.

    unit_map is keyed by unit keys (comma-joined sorted member labels) or
    given directly as a Permutation on unit indices. Raises
    NotUnitAutomorphismError naming the first edge whose image cover is not
    an edge. The edge map is then a bijection: distinct edges have distinct
    unit covers, and so have their images.
    """
    units = compute_units(h)
    if isinstance(unit_map, Permutation):
        if unit_map.n != len(units):
            raise HypersymError(
                f"permutation size {unit_map.n} does not match {len(units)} units"
            )
        perm = unit_map
    else:
        key_index = units.key_index()
        mapping = [-1] * len(units)
        for src, dst in unit_map.items():
            if src not in key_index:
                raise DocumentError(f"unit map names unknown unit {src!r}")
            if dst not in key_index:
                raise DocumentError(f"unit map sends {src!r} to unknown unit {dst!r}")
            mapping[key_index[src]] = key_index[dst]
        missing = [units.keys[i] for i, v in enumerate(mapping) if v < 0]
        if missing:
            raise DocumentError(f"unit map does not cover units {missing}")
        if len(set(mapping)) != len(mapping):
            raise DocumentError("unit map is not a bijection")
        perm = Permutation(tuple(mapping))

    ptr, cover = _cover_arrays(h, units)
    image, target = _map_rows(ptr, cover, perm.mapping)
    if (target < 0).any():
        j = int(np.argmax(target < 0))
        keys = [units.keys[ui] for ui in image[ptr[j] : ptr[j + 1]].tolist()]
        raise NotUnitAutomorphismError(
            f"image of edge {h.edge_ids[j]!r} covers units {keys}, "
            "which is not an edge"
        )
    edge_map = dict(zip(h.edge_ids, map(h.edge_ids.__getitem__, target.tolist())))
    cardinality = bool(np.array_equal(units.sizes[list(perm.mapping)], units.sizes))
    return UnitAutomorphism(
        hypergraph=h,
        units=units,
        perm=perm,
        edge_map=edge_map,
        order=perm.order,
        cardinality_preserving=cardinality,
    )


def lift_cardinality_preserving(ua: UnitAutomorphism) -> Automorphism:
    """Lift a cardinality-preserving unit-automorphism to a vertex
    automorphism, mapping each unit's members positionally (both sides
    sorted by index). It needs no check of its own: every edge is the union
    of the units that cover it, so the lift maps it onto the edge whose
    cover is the image of its cover, ua.edge_map's."""
    units = ua.units
    ptr, members, sizes = units.unit_ptr, units.unit_members, units.sizes
    image = np.array(ua.perm.mapping, dtype=np.intp)
    if not ua.cardinality_preserving:
        i = int(np.argmax(sizes[image] != sizes))
        j = int(image[i])
        raise NotUnitAutomorphismError(
            f"unit map is not cardinality-preserving: {units.keys[i]!r} has "
            f"{sizes[i]} members but its image {units.keys[j]!r} "
            f"has {sizes[j]}"
        )
    # each member position moves to the same place in its unit's image
    mapping = np.empty(units.n, dtype=np.intp)
    mapping[members] = members[np.arange(len(members)) + np.repeat(ptr[image] - ptr[:-1], sizes)]
    perm = Permutation(tuple(mapping.tolist()))
    return Automorphism(hypergraph=ua.hypergraph, perm=perm, edge_map=dict(ua.edge_map), order=perm.order)


def unit_compatibility_witness(M, ua: UnitAutomorphism, tol: float = COMPAT_TOL) -> dict | None:
    """None when the unit quotient is compatible with the unit permutation,
    else a witness naming the offending quotient entries."""
    return _quotient_witness(unit_quotient(M, ua.units, tol), ua, tol)


def _quotient_witness(N: np.ndarray, ua: UnitAutomorphism, tol: float) -> dict | None:
    idx = np.array(ua.perm.mapping)
    D = np.abs(N - N[np.ix_(idx, idx)])
    bad = np.argwhere(~(D <= tol))  # NaN never passes
    if bad.size == 0:
        return None
    i, j = (int(v) for v in bad[0])  # first violation in row-major order
    keys = ua.units.keys
    return {
        "units": (keys[i], keys[j]),
        "value": complex(N[i, j]),
        "image_units": (keys[ua.perm(i)], keys[ua.perm(j)]),
        "image_value": complex(N[ua.perm(i), ua.perm(j)]),
        "deviation": float(D[i, j]),
    }


def decompose_unit_automorphism(M, ua: UnitAutomorphism, tol: float = COMPAT_TOL) -> SpectralDecomposition:
    """Unit eigenvalues plus the block decomposition of the unit quotient
    along the unit permutation, blown back up to the vertices.

    Block eigenvalue counts add up to the matrix order: sum(|W| - 1) from
    units plus one eigenvalue per unit from the quotient decomposition.
    When a d balances M (matrices.prepared) and is constant on each unit, N
    is balanced by |W| d(rep W) (_cell_symmetrizer), and the blocks of N go
    to eigh wherever that is constant on the cycles of the unit map.
    """
    A, d = prepared(M)
    units = ua.units
    if A.shape[0] != units.n:
        raise HypersymError(f"matrix order {A.shape[0]} does not match {units.n} vertices")
    N = unit_quotient(A, units, tol)  # the one unit-compatibility check
    witness = _quotient_witness(N, ua, tol)
    if witness is not None:
        raise IncompatibleMatrixError(
            "unit quotient is not compatible with the unit map: entry "
            f"(W[{witness['units'][0]}], W[{witness['units'][1]}]) = "
            f"{describe_value(witness['value'])} but its image entry "
            f"(W[{witness['image_units'][0]}], W[{witness['image_units'][1]}]) = "
            f"{describe_value(witness['image_value'])}"
        )

    pairs = _unit_lifts(A, units)
    e = _cell_symmetrizer(d, units)
    # N was checked against the unit map above
    core = _decompose(A, ua.perm, e, built_from=N, lift=lambda Y: blow_up(Y, units), tag={"level": "units"})
    return SpectralDecomposition(
        n=units.n,
        blocks=(*(block for _, _, block in pairs), *core.blocks),
        lifts=(*(lift for _, lift, _ in pairs), *core.lifts),
        skipped=core.skipped,
    )
