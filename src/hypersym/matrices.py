"""Builders for the ten hypergraph matrix kinds, plus row-sum checking.

All kinds are indexed by the hypergraph's canonical vertex order and stored
complex, even though every kind here has a real definition. Off-diagonal
entries are sums over the common star E_u ∩ E_v:

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DocumentError, HypersymError
from .hypergraph import Hypergraph, compute_units
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


@dataclass(frozen=True)
class HypergraphMatrix:
    """A square complex matrix tied to a vertex labelling."""

    kind: str
    labels: tuple[str, ...]
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise HypersymError(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] != len(self.labels):
            raise HypersymError(
                f"matrix order {arr.shape[0]} does not match {len(self.labels)} labels"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def order(self) -> int:
        return len(self.labels)

    def to_document(self) -> dict:
        return {
            "order": self.order,
            "index": list(self.labels),
            "entries": complex_pair(self.entries.reshape(-1)),
        }

    @classmethod
    def from_document(cls, doc: dict, kind: str = "loaded") -> "HypergraphMatrix":
        doc = require_object(doc, "matrix document")
        order = require_key(doc, "order", "matrix document")
        index = require_key(doc, "index", "matrix document")
        entries = require_key(doc, "entries", "matrix document")
        if not isinstance(order, int) or order < 1:
            raise DocumentError("matrix 'order' must be a positive integer")
        if not isinstance(index, list) or len(index) != order:
            raise DocumentError("matrix 'index' must list exactly 'order' labels")
        if not isinstance(entries, list) or len(entries) != order * order:
            raise DocumentError("matrix 'entries' must hold order^2 [re, im] pairs")
        flat = []
        for pair in entries:
            if not isinstance(pair, list) or len(pair) != 2:
                raise DocumentError("matrix entries must be [re, im] pairs")
            flat.append(complex(pair[0], pair[1]))
        arr = np.array(flat, dtype=np.complex128).reshape(order, order)
        return cls(kind=kind, labels=tuple(index), entries=arr)


def as_array(M) -> np.ndarray:
    """Accept a HypergraphMatrix or ndarray; return complex ndarray."""
    if isinstance(M, HypergraphMatrix):
        return M.entries
    arr = np.asarray(M, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise HypersymError(f"matrix must be square, got shape {arr.shape}")
    return arr


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
        for name, table in (("delta_V", dv), ("delta_E", de)):
            for key, value in table.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise DocumentError(f"{name}[{key!r}] must be a number")
        return cls(
            delta_V={k: float(v) for k, v in dv.items()},
            delta_E={k: float(v) for k, v in de.items()},
        )

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


def _incidence(h: Hypergraph) -> np.ndarray:
    B = np.zeros((h.n, h.m))
    for j, mset in enumerate(h.member_sets):
        for i in mset:
            B[i, j] = 1.0
    return B


def _edge_weighted_common(B: np.ndarray, g: np.ndarray) -> np.ndarray:
    # (u, v) entry: sum of g(e) over edges containing both u and v
    return (B * g) @ B.T


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
    if kind in RECIPROCAL_KINDS:
        for e in h.edges:
            if len(e) < 2:
                raise HypersymError(
                    f"kind {kind!r} is undefined with singleton edge {e.id!r}"
                )
    if kind == "transition":
        for i, s in enumerate(h.stars):
            if not s:
                raise HypersymError(
                    f"transition matrix undefined: vertex {h.labels[i]!r} has empty star"
                )
    if weights is not None:
        weights.validate_for(h)

    B = _incidence(h)
    sizes = np.array([len(e) for e in h.edges], dtype=float)
    star_sizes = B.sum(axis=1)

    if kind == "adjacency_r":
        M = B @ B.T
        np.fill_diagonal(M, 0.0)
    elif kind in ("adjacency_b", "transition", "laplacian_b", "signless_q"):
        C = _edge_weighted_common(B, 1.0 / (sizes - 1.0)) if h.m else np.zeros((h.n, h.n))
        np.fill_diagonal(C, 0.0)
        if kind == "adjacency_b":
            M = C
        elif kind == "transition":
            M = C / star_sizes[:, None]
        elif kind == "laplacian_b":
            M = -C
            np.fill_diagonal(M, star_sizes)
        else:  # signless_q
            M = C.copy()
            np.fill_diagonal(M, star_sizes)
    elif kind == "laplacian_r":
        C = B @ B.T
        np.fill_diagonal(C, 0.0)
        M = -C
        np.fill_diagonal(M, C.sum(axis=1))
    elif kind in WEIGHTED_KINDS:
        dv = np.array([weights.delta_V[lab] for lab in h.labels])
        de = np.array([weights.delta_E[eid] for eid in h.edge_ids])
        C2 = _edge_weighted_common(B, de / sizes**2) if h.m else np.zeros((h.n, h.n))
        scaled = C2 / dv[:, None]
        if kind == "general_adjacency":
            M = scaled.copy()
            np.fill_diagonal(M, 0.0)
        elif kind == "general_laplacian":
            M = -scaled
            np.fill_diagonal(M, (B @ (de / sizes)) / dv)
        else:  # general_signless keeps the weighted diagonal of the common-star sum
            M = scaled
    else:  # unit_normalized
        units = compute_units(h)
        nsize = np.array([units.units[units.unit_of[i]].size for i in range(h.n)], dtype=float)
        C = B @ B.T
        np.fill_diagonal(C, 0.0)
        M = C / nsize[None, :]
        np.fill_diagonal(M, star_sizes / nsize)

    return HypergraphMatrix(kind=kind, labels=h.labels, entries=M.astype(np.complex128))


@dataclass(frozen=True)
class RowSumReport:
    """Row sums of a built matrix against the identity its kind should obey."""

    kind: str
    expected: float | None  # 0 for laplacians, 1 for transition, None otherwise
    sums: tuple[complex, ...]
    violations: tuple[tuple[int, complex], ...]
    tol: float

    @property
    def ok(self) -> bool:
        return not self.violations


def row_sum_check(M: HypergraphMatrix, tol: float = ROW_SUM_TOL) -> RowSumReport:
    """Check each row sum against the kind's expected value and report.

    Violations are reported, never raised; kinds without a row-sum identity
    get expected=None and an empty violation list.
    """
    sums = tuple(complex(z) for z in M.entries.sum(axis=1))
    if M.kind in ("laplacian_r", "laplacian_b", "general_laplacian"):
        expected = 0.0
    elif M.kind == "transition":
        expected = 1.0
    else:
        expected = None
    violations: list[tuple[int, complex]] = []
    if expected is not None:
        for i, s in enumerate(sums):
            if abs(s - expected) > tol:
                violations.append((i, s))
    return RowSumReport(
        kind=M.kind, expected=expected, sums=sums, violations=tuple(violations), tol=tol
    )
