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
from .hypergraph import Hypergraph, UnitPartition, compute_units, edge_unit_covers
from .jsonutil import describe_value
from .matrices import as_array
from .spectral import RotationBlock, SpectralDecomposition, _decompose, _lifted_pairs
from .symmetry import (
    COMPAT_TOL,
    Automorphism,
    Permutation,
    _cell_layout,
    _cell_sums,
    validate_automorphism,
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

    def unit_eigenvalue(self, i: int) -> complex:
        if self.r[i] is None:
            raise HypersymError(f"unit {self.units.units[i].key!r} is a singleton")
        return self.d[i] - self.r[i]


def profile_unit_compatibility(M, units: UnitPartition, tol: float = COMPAT_TOL) -> UnitCompatibleProfile:
    """Verify the unit-compatibility conditions and extract (d, r, s).

    Raises NotUnitCompatibleError naming the violated unit and condition.
    """
    A = as_array(M)
    n = units.n
    if A.shape[0] != n:
        raise HypersymError(f"matrix order {A.shape[0]} does not match {n} vertices")
    members = [unit.member_indices for unit in units.units]
    reps = np.array([mem[0] for mem in members], dtype=np.intp)
    seconds = np.array([mem[1] if len(mem) > 1 else mem[0] for mem in members], dtype=np.intp)
    unit_of = np.array(units.unit_of, dtype=np.intp)
    rep_of = reps[unit_of]
    same = unit_of[:, None] == unit_of
    diag = A.diagonal()
    buf = np.empty_like(A)
    absbuf = np.empty(A.shape)

    def worst(reference, excluded, axis):
        """Largest |A - reference| per vertex along axis, skipping the
        excluded entries; reference may be buf itself."""
        np.subtract(A, reference, out=buf)
        np.abs(buf, out=absbuf)
        absbuf[excluded] = 0.0
        return absbuf.max(axis=axis, initial=0.0)

    # worst deviation at each vertex for each condition, in the order the
    # conditions are reported: diagonal, off-diagonal within the unit, row
    # toward outside vertices, column from outside vertices
    dev = np.stack(
        [
            np.abs(diag - diag[rep_of]),
            worst(A[reps, seconds][unit_of][:, None], ~same | np.eye(n, dtype=bool), 1),
            worst(np.take(A, rep_of, axis=0, out=buf), same, 1),
            worst(np.take(A, rep_of, axis=1, out=buf), same, 0),
        ]
    )
    order, starts, _ = _cell_layout(members)
    failed = ~(np.maximum.reduceat(dev[:, order], starts, axis=1) <= tol)  # NaN never passes
    if failed.any():
        i = int(np.argmax(failed.any(axis=0)))
        raise NotUnitCompatibleError(_unit_violation(A, units, i, int(np.argmax(failed[:, i]))))
    r = tuple(
        complex(A[rep, second]) if len(mem) > 1 else None
        for rep, second, mem in zip(reps, seconds, members)
    )
    return UnitCompatibleProfile(
        units=units, d=tuple(complex(z) for z in diag[reps]), r=r, rows=A[reps]
    )


def _unit_violation(A: np.ndarray, units: UnitPartition, i: int, condition: int) -> str:
    """The message naming where unit i breaks the given condition (numbered
    as in profile_unit_compatibility)."""
    unit = units.units[i]
    mem = list(unit.member_indices)
    key = unit.key
    if condition == 0:
        diag = A[mem, mem]
        k = int(np.argmax(np.abs(diag - diag[0])))
        return (
            f"unit {key!r}: diagonal entries differ: {diag[0]} at {mem[0]} "
            f"vs {diag[k]} at {mem[k]}"
        )
    if condition == 1:
        off = A[np.ix_(mem, mem)][~np.eye(len(mem), dtype=bool)]
        return (
            f"unit {key!r}: off-diagonal entries within the unit are not "
            f"constant: {off[0]} vs {off[np.argmax(np.abs(off - off[0]))]}"
        )
    outside = [w for w in range(units.n) if w not in unit.member_indices]
    if condition == 2:
        block = A[np.ix_(mem, outside)]
        dev = np.abs(block - block[0]).max(axis=0)
        what = "rows toward"
    else:
        block = A[np.ix_(outside, mem)]
        dev = np.abs(block - block[:, :1]).max(axis=1)
        what = "columns from"
    w = outside[int(np.argmax(dev))]
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
    profile = profile_unit_compatibility(A, units, tol)
    vectors, _, _ = _difference_vectors(units)
    structures: list[UnitEigenStructure] = []
    start = 0
    for i, unit in enumerate(units.units):
        if unit.size < 2:
            continue
        structures.append(
            UnitEigenStructure(
                unit_index=i,
                unit_key=unit.key,
                value=profile.unit_eigenvalue(i),
                multiplicity=unit.size - 1,
                vectors=tuple(vectors[start : start + unit.size - 1]),
            )
        )
        start += unit.size - 1
    merged: list[tuple[complex, int, tuple[str, ...]]] = []
    for s in sorted(structures, key=lambda s: (s.value.real, s.value.imag)):
        if merged and abs(s.value - merged[-1][0]) <= merge_tol:
            value, mult, keys = merged[-1]
            merged[-1] = (value, mult + s.multiplicity, keys + (s.unit_key,))
        else:
            merged.append((s.value, s.multiplicity, (s.unit_key,)))
    return UnitEigenReport(structures=tuple(structures), merged=tuple(merged))


def _difference_vectors(units: UnitPartition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows chi_v - chi_v0 for every member v of every unit but its smallest
    member v0, in unit order, with the v and v0 of each row."""
    v = np.array([w for unit in units.units for w in unit.member_indices[1:]], dtype=np.intp)
    v0 = np.array(
        [unit.member_indices[0] for unit in units.units for _ in unit.member_indices[1:]],
        dtype=np.intp,
    )
    vectors = np.zeros((len(v), units.n), dtype=np.complex128)
    rows = np.arange(len(v))
    vectors[rows, v] = 1.0
    vectors[rows, v0] = -1.0
    return vectors, v, v0


def unit_quotient(M, units: UnitPartition, tol: float = COMPAT_TOL) -> np.ndarray:
    """Quotient over units: row sums of a representative row into each unit.

    Diagonal entries come out as d + (|W| - 1) r. M must be unit-compatible
    (checked)."""
    profile = profile_unit_compatibility(M, units, tol)
    order, starts, _ = _cell_layout([u.member_indices for u in units.units])
    return _cell_sums(profile.rows, order, starts)


def blow_up(y, units: UnitPartition) -> np.ndarray:
    """Extend a vector on units to the vertices, constant on each unit.
    A (units, k) matrix extends column by column."""
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim not in (1, 2) or y.shape[0] != len(units.units):
        raise HypersymError(f"vector length {y.shape} does not match {len(units.units)} units")
    return y[np.array(units.unit_of)]


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
        keys = [u.key for u in self.units.units]
        return {keys[i]: keys[self.perm(i)] for i in range(len(keys))}


def validate_unit_automorphism(h: Hypergraph, unit_map: dict[str, str] | Permutation) -> UnitAutomorphism:
    """Check that a unit bijection maps every edge cover onto an edge cover.

    unit_map is keyed by unit keys (comma-joined sorted member labels) or
    given directly as a Permutation on unit indices. Raises
    NotUnitAutomorphismError naming the first edge whose image cover is not
    an edge.
    """
    units = compute_units(h)
    key_index = units.key_index()
    if isinstance(unit_map, Permutation):
        if unit_map.n != len(units.units):
            raise HypersymError(
                f"permutation size {unit_map.n} does not match {len(units.units)} units"
            )
        perm = unit_map
    else:
        mapping = [-1] * len(units.units)
        for src, dst in unit_map.items():
            if src not in key_index:
                raise DocumentError(f"unit map names unknown unit {src!r}")
            if dst not in key_index:
                raise DocumentError(f"unit map sends {src!r} to unknown unit {dst!r}")
            mapping[key_index[src]] = key_index[dst]
        missing = [units.units[i].key for i, v in enumerate(mapping) if v < 0]
        if missing:
            raise DocumentError(f"unit map does not cover units {missing}")
        if len(set(mapping)) != len(mapping):
            raise DocumentError("unit map is not a bijection")
        perm = Permutation(tuple(mapping))

    covers = edge_unit_covers(h, units)
    cover_to_edge = {cover: j for j, cover in enumerate(covers)}
    edge_map: dict[str, str] = {}
    for j, cover in enumerate(covers):
        image = tuple(sorted(perm(ui) for ui in cover))
        k = cover_to_edge.get(image)
        if k is None:
            keys = [units.units[ui].key for ui in image]
            raise NotUnitAutomorphismError(
                f"image of edge {h.edge_ids[j]!r} covers units {keys}, "
                "which is not an edge"
            )
        edge_map[h.edge_ids[j]] = h.edge_ids[k]
    if len(set(edge_map.values())) != len(edge_map):
        raise NotUnitAutomorphismError("induced edge map is not a bijection")
    cardinality = all(
        units.units[i].size == units.units[perm(i)].size for i in range(len(units.units))
    )
    return UnitAutomorphism(
        hypergraph=h,
        units=units,
        perm=perm,
        edge_map=edge_map,
        order=perm.order,
        cardinality_preserving=cardinality,
    )


def induced_unit_automorphism(f: Automorphism) -> UnitAutomorphism:
    """The unit permutation induced by a vertex automorphism.

    Always valid and always cardinality-preserving: automorphisms map stars
    to stars, hence units onto units of equal size.
    """
    h = f.hypergraph
    units = compute_units(h)
    mapping = []
    for unit in units.units:
        images = {units.unit_of[f.perm(v)] for v in unit.member_indices}
        if len(images) != 1:
            raise AssertionError(
                f"automorphism splits unit {unit.key!r}; star computation is broken"
            )
        mapping.append(images.pop())
    perm = Permutation(tuple(mapping))
    return UnitAutomorphism(
        hypergraph=h,
        units=units,
        perm=perm,
        edge_map=dict(f.edge_map),
        order=perm.order,
        cardinality_preserving=True,
    )


def lift_cardinality_preserving(ua: UnitAutomorphism) -> Automorphism:
    """Lift a cardinality-preserving unit-automorphism to a vertex
    automorphism, mapping each unit's members positionally (both sides
    sorted by index)."""
    if not ua.cardinality_preserving:
        units = ua.units.units
        i = next(
            i for i in range(len(units)) if units[i].size != units[ua.perm(i)].size
        )
        raise NotUnitAutomorphismError(
            f"unit map is not cardinality-preserving: {units[i].key!r} has "
            f"{units[i].size} members but its image {units[ua.perm(i)].key!r} "
            f"has {units[ua.perm(i)].size}"
        )
    h = ua.hypergraph
    mapping = [0] * h.n
    for i, unit in enumerate(ua.units.units):
        target = ua.units.units[ua.perm(i)]
        for src, dst in zip(unit.member_indices, target.member_indices):
            mapping[src] = dst
    return validate_automorphism(h, Permutation(tuple(mapping)))


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
    keys = [u.key for u in ua.units.units]
    return {
        "units": (keys[i], keys[j]),
        "value": complex(N[i, j]),
        "image_units": (keys[ua.perm(i)], keys[ua.perm(j)]),
        "image_value": complex(N[ua.perm(i), ua.perm(j)]),
        "deviation": float(D[i, j]),
    }


def is_unit_automorphism_compatible(M, ua: UnitAutomorphism, tol: float = COMPAT_TOL) -> bool:
    """True when the unit quotient of M is compatible with the unit map.

    M itself must be unit-compatible (checked; raises otherwise)."""
    return unit_compatibility_witness(M, ua, tol) is None


def decompose_unit_automorphism(M, ua: UnitAutomorphism, tol: float = COMPAT_TOL) -> SpectralDecomposition:
    """Unit eigenvalues plus the block decomposition of the unit quotient
    along the unit permutation, blown back up to the vertices.

    Block eigenvalue counts add up to the matrix order: sum(|W| - 1) from
    units plus one eigenvalue per unit from the quotient decomposition.
    """
    A = as_array(M)
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

    blocks: list[RotationBlock] = []
    for unit in units.units:
        if unit.size < 2:
            continue
        rep, second = unit.member_indices[:2]
        blocks.append(
            RotationBlock(
                source={"kind": "unit", "unit": unit.key},
                order=unit.size - 1,
                # d - r, read off the representative row of a checked matrix
                eigenvalues=np.full(unit.size - 1, A[rep, rep] - A[rep, second], dtype=np.complex128),
            )
        )
    # A (chi_v - chi_v0) = A[:, v] - A[:, v0]: each residual is O(n)
    vectors, v, v0 = _difference_vectors(units)
    values = np.concatenate([b.eigenvalues for b in blocks]) if blocks else np.zeros(0, complex)
    sources = [b.source for b in blocks for _ in range(b.order)]
    lifted = _lifted_pairs(A[:, v] - A[:, v0], vectors.T, values, sources)
    # N was checked against the unit map above
    core = _decompose(A, ua.perm, tol, built_from=N, lift=lambda Y: blow_up(Y, units), tag={"level": "units"})
    return SpectralDecomposition(
        n=units.n, blocks=(*blocks, *core.blocks), lifted=(*lifted, *core.lifted), skipped=core.skipped
    )
