"""Hypergraphs, vertex stars, unit partitions, and unit contraction.

A hypergraph is a finite vertex set together with a list of hyperedges,
each a non-empty subset of the vertices. The star E_v of a vertex v is the
set of edges containing v. Vertices with identical stars form a *unit*;
every edge either contains a unit entirely or misses it, so edges project
to unions of units and the hypergraph contracts to one on the units.

Documents use the JSON shape {"vertices": [label], "edges": [{"id",
"members"}]}. Canonical form sorts the vertex list and each member list;
label order is numeric when every label is an integer literal, otherwise
lexicographic.

A Hypergraph stores its edges as CSR incidence arrays: edge j's members are
the vertex indices edge_members[edge_ptr[j]:edge_ptr[j + 1]], ascending.
Parsing maps and type-checks every member in one pass, and every check
that compares edges or stars (duplicate ids, repeated members, equal member
sets, the image of an edge under a symmetry, equal stars) sorts the flat
arrays (one stable sort of the rows padded to a common length, as a rule)
instead of looping over edges.
The per-edge and per-vertex Python views (edges, member_sets, stars) are
built from the arrays on first access.

The orbits of a permutation (symmetry.OrbitPartition) and the units
(UnitPartition, whose keys are its only strings) are CSR arrays too, one
layout (_Cells) that both quotients sum over and both lifts gather along;
their cells as tuples and the Unit objects are built on first access.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterable

import numpy as np

from .errors import DocumentError, HypersymError
from .jsonutil import parse_json, require_key, require_object

_INT_LABEL = re.compile(r"^-?\d+$")


def sort_labels(labels: Iterable[str]) -> list[str]:
    """Sort labels numerically when all are integer literals, else lexically."""
    items = list(labels)
    if items and all(map(_INT_LABEL.match, items)):
        return sorted(items, key=int)
    return sorted(items)


def _row_of(ptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a CSR array with row pointer ptr."""
    return np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))


def _ptr(lengths) -> np.ndarray:
    """The row pointer of a CSR array whose rows have these lengths."""
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))


def _split_rows(ptr: np.ndarray, values: np.ndarray) -> list[list[int]]:
    """The rows of a CSR array as lists of Python ints."""
    bounds, flat = ptr.tolist(), values.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


class _Cells:
    """A partition of 0..n-1 as read-only intp CSR arrays: cell i's members
    are cell_members[cell_ptr[i]:cell_ptr[i + 1]], cell_of maps each index
    to its cell. _Cells(cells, n) refuses given cells unless they partition
    0..n-1 and name every index as an integer; cells read off cycles or
    stars do, and are set by _set_cells."""

    def __init__(self, cells: Iterable[Iterable[int]], n: int):
        cells = list(map(tuple, cells))
        sizes = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
        flat = [v for cell in cells for v in cell]
        try:  # an int or a numpy integer, not a float that would be truncated
            members = np.fromiter(map(operator.index, flat), dtype=np.intp, count=len(flat))
        except TypeError:
            bad = next(v for v in flat if not isinstance(v, (int, np.integer)))
            raise HypersymError(f"partition entry {bad!r} is not an integer index") from None
        ptr, cell_of = _ptr(sizes), np.full(n, -1, dtype=np.intp)
        inside = (members >= 0) & (members < n)
        cell_of[members[inside]] = _row_of(ptr)[inside]
        if len(members) != n or (cell_of < 0).any():  # an index outside, repeated or missed
            raise HypersymError("partition does not cover the index set exactly once")
        if not sizes.all():
            raise HypersymError("partition has an empty cell")
        self._set_cells(n, members, ptr, cell_of)

    def _set_cells(self, n: int, members: np.ndarray, ptr: np.ndarray, cell_of: np.ndarray) -> None:
        members.flags.writeable = ptr.flags.writeable = cell_of.flags.writeable = False
        self.n, self.cell_members, self.cell_ptr, self.cell_of = n, members, ptr, cell_of

    # each cell's order and first member (its smallest, in the partitions the package builds)
    sizes = property(lambda self: np.diff(self.cell_ptr))
    reps = property(lambda self: self.cell_members[self.cell_ptr[:-1]])

    def __len__(self) -> int:
        return len(self.cell_ptr) - 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, cells={len(self)})"


def _sort_rows(ptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The entries (integers >= -1) of a CSR array, ascending within each row."""
    span = int(values.max(initial=0)) + 2
    return values[np.argsort(_row_of(ptr) * span + values, kind="stable")]


def _first_equal_rows(ptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """For each row of a CSR array whose rows are sorted, the index of the
    first row with the same entries.

    The rows, taken by length, are cut into classes of consecutive lengths
    whose rows padded to the longest hold at most twice their entries
    (usually a single class), so the padded tables stay O(len(values)).
    Each class is one stable sort of its padded rows, each row (its length
    first) packed into one integer key.
    """
    lengths = np.diff(ptr)
    first = np.arange(len(lengths))
    by_length = np.argsort(lengths, kind="stable")
    counts = np.bincount(lengths)
    classes = []  # (end in by_length, longest length) of each class
    size = entries = end = 0  # rows and entries of the open class, rows taken so far
    for length in np.flatnonzero(counts).tolist():
        count = int(counts[length])
        if size and (size + count) * length > 2 * (entries + count * length):
            classes.append((end, longest))  # padding the open class to length would double it
            size = entries = 0
        size, entries, end, longest = size + count, entries + count * length, end + count, length
    if size:
        classes.append((end, longest))
    begin = 0
    for end, longest in classes:
        rows, begin = by_length[begin:end], end
        table = np.full((len(rows), longest + 1), -1, dtype=values.dtype)
        table[:, 0] = lengths[rows]
        inside = np.arange(longest) < table[:, :1]
        table[:, 1:][inside] = values[(ptr[rows, None] + np.arange(longest))[inside]]
        # each padded row as one integer, its entries + 1 the digits in base
        # `base`; a key that could overflow is first replaced by its rank
        base, key, bound = int(table.max(initial=0)) + 2, np.zeros(len(rows), dtype=np.int64), 1
        for digits in table.T + 1:
            if bound > np.iinfo(np.int64).max // base:
                key, bound = np.unique(key, return_inverse=True)[1], len(rows)
            key, bound = key * base + digits, bound * base
        order = np.argsort(key, kind="stable")  # equal rows stay in row order
        rows, key = rows[order], key[order]
        starts = np.ones(len(rows), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=starts[1:])
        first[rows] = rows[starts][np.cumsum(starts) - 1]
    return first


def _map_rows(ptr: np.ndarray, rows: np.ndarray, mapping) -> tuple[np.ndarray, np.ndarray]:
    """The image of every row of a CSR array (sorted within rows) under
    mapping, sorted within rows, and for each image the first row with the
    same entries, or -1."""
    image = _sort_rows(ptr, np.asarray(mapping, dtype=np.intp)[rows])
    m = len(ptr) - 1
    both = np.concatenate((ptr, ptr[1:] + ptr[-1]))
    first = _first_equal_rows(both, np.concatenate((rows, image)))[m:]
    return image, np.where(first < m, first, -1)


@dataclass(frozen=True)
class Hyperedge:
    id: str
    members: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.members)


class Hypergraph:
    """Validated hypergraph with canonical vertex ordering.

    Attributes:
        labels: vertex labels in canonical order.
        index: label -> position in `labels`.
        edge_ids: edge ids in document order; edge_index: id -> position.
        edge_ptr, edge_members: the CSR incidence arrays (read-only); edge
            j's members are the vertex indices
            edge_members[edge_ptr[j]:edge_ptr[j + 1]], ascending.
        edges: hyperedges in document order, members in canonical order.
        member_sets: per edge, the frozenset of member vertex indices.
        stars: per vertex index, the frozenset of incident edge indices.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, Iterable[str]]]):
        self._set_labels([str(v) for v in vertices])
        ids: list[str] = []
        sizes: list[int] = []
        flat: list[str] = []
        for eid, members in edges:
            mem = [str(v) for v in members]
            ids.append(str(eid))
            sizes.append(len(mem))
            flat += mem
        self._set_edges(ids, sizes, flat)

    def _set_labels(self, labels: list[str]) -> None:
        if not labels:
            raise DocumentError("hypergraph needs at least one vertex")
        self.labels: tuple[str, ...] = tuple(sort_labels(labels))
        self.index: dict[str, int] = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(labels):
            counts = Counter(labels)
            dup = next(lab for lab in labels if counts[lab] > 1)
            raise DocumentError(f"duplicate vertex label {dup!r}")

    def _set_edges(self, ids: list[str], sizes: list[int], flat: list[str]) -> None:
        """Map the members of every edge (flat, in document order, sizes[j]
        of them for edge j) to vertex indices and check the edges; the
        first offending edge, in document order, is refused."""
        m = len(ids)
        lengths = np.array(sizes, dtype=np.intp)
        ptr = _ptr(lengths)
        idx = np.fromiter(map(self.index.get, flat, repeat(-1)), dtype=np.intp, count=len(flat))
        edge_of = _row_of(ptr)
        members = _sort_rows(ptr, idx)
        self.edge_index: dict[str, int] = dict(zip(ids, range(m)))
        # one row per refusal, in the order each edge is checked for them
        bad = np.zeros((5, m), dtype=bool)
        if len(self.edge_index) < m:
            first_of_id = dict(zip(reversed(ids), range(m - 1, -1, -1)))
            bad[0] = np.fromiter(map(first_of_id.__getitem__, ids), dtype=np.intp, count=m) != np.arange(m)
        bad[1] = lengths == 0
        unknown = idx < 0
        bad[2, edge_of[unknown]] = True
        repeated = (members[1:] == members[:-1]) & (edge_of[1:] == edge_of[:-1])
        bad[3, edge_of[1:][repeated]] = True
        twin = _first_equal_rows(ptr, members)
        bad[4] = twin != np.arange(m)
        failed = bad.any(axis=0)
        if failed.any():
            j = int(np.argmax(failed))
            eid = ids[j]
            refusal = int(np.argmax(bad[:, j]))
            if refusal == 0:
                raise DocumentError(f"duplicate edge id {eid!r}")
            if refusal == 1:
                raise DocumentError(f"edge {eid!r} has no members")
            if refusal == 2:
                v = flat[ptr[j] + int(np.argmax(unknown[ptr[j] : ptr[j + 1]]))]
                raise DocumentError(f"edge {eid!r} names unknown vertex {v!r}")
            if refusal == 3:
                raise DocumentError(f"edge {eid!r} repeats a member")
            raise DocumentError(f"edges {ids[twin[j]]!r} and {eid!r} have the same member set")
        ptr.flags.writeable = members.flags.writeable = False
        self.edge_ids: tuple[str, ...] = tuple(ids)
        self.edge_ptr: np.ndarray = ptr
        self.edge_members: np.ndarray = members

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edge_ids)

    @cached_property
    def edges(self) -> tuple[Hyperedge, ...]:
        labels = self.labels
        return tuple(
            Hyperedge(eid, tuple(labels[i] for i in row))
            for eid, row in zip(self.edge_ids, _split_rows(self.edge_ptr, self.edge_members))
        )

    @cached_property
    def member_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(row) for row in _split_rows(self.edge_ptr, self.edge_members))

    def _star_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The stars as a CSR array: vertex i's incident edge indices are
        star_edges[star_ptr[i]:star_ptr[i + 1]], ascending."""
        edge_of = _row_of(self.edge_ptr)
        star_ptr = _ptr(np.bincount(self.edge_members, minlength=self.n))
        return star_ptr, edge_of[np.argsort(self.edge_members * max(self.m, 1) + edge_of, kind="stable")]

    @cached_property
    def stars(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(row) for row in _split_rows(*self._star_arrays()))

    def to_dict(self) -> dict:
        return {
            "vertices": list(self.labels),
            "edges": [{"id": e.id, "members": list(e.members)} for e in self.edges],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Hypergraph":
        doc = require_object(doc, "hypergraph document")
        vertices = require_key(doc, "vertices", "hypergraph document")
        edges = require_key(doc, "edges", "hypergraph document")
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise DocumentError("hypergraph 'vertices' must be a list of strings")
        if not isinstance(edges, list):
            raise DocumentError("hypergraph 'edges' must be a list")
        ids: list[str] = []
        sizes: list[int] = []
        flat: list[str] = []
        is_str = str.__instancecheck__  # isinstance(v, str), mapped without a Python frame per member
        for entry in edges:
            if not (isinstance(entry, dict) and "id" in entry and "members" in entry):
                entry = require_object(entry, "edge entry")
                require_key(entry, "id", "edge entry")
                require_key(entry, "members", "edge entry")
            eid, members = entry["id"], entry["members"]
            if not isinstance(eid, str):
                raise DocumentError("edge 'id' must be a string")
            if not isinstance(members, list) or not all(map(is_str, members)):
                raise DocumentError(f"edge {eid!r} 'members' must be a list of strings")
            ids.append(eid)
            sizes.append(len(members))
            flat += members
        h = cls.__new__(cls)
        h._set_labels(vertices)
        h._set_edges(ids, sizes, flat)
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.labels == other.labels and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, m={self.m})"


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse a hypergraph JSON document."""
    return Hypergraph.from_dict(parse_json(text, "hypergraph document"))


@dataclass(frozen=True)
class Unit:
    """Maximal set of vertices sharing one star (the generating set)."""

    key: str
    members: tuple[str, ...]
    member_indices: tuple[int, ...]
    generating_edges: tuple[str, ...]
    edge_indices: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.member_indices)


class UnitPartition(_Cells):
    """The units of a hypergraph as cells (_Cells), each ascending, whose
    arrays unit_members, unit_ptr and unit_of name too; keys holds each
    unit's key. The Unit objects of `units` are built on first access.

    UnitPartition(units=..., unit_of=..., n=...) builds the arrays from
    given Unit objects, checked as _Cells(cells, n) checks them, and refuses
    a unit_of that does not name each vertex's unit; two partitions are
    equal when their orders, unit_of and Unit objects are.
    """

    def __init__(self, units: Iterable[Unit], unit_of: Iterable[int], n: int):
        units = tuple(units)
        super().__init__((u.member_indices for u in units), n)
        given = list(unit_of)
        if len(given) != n:
            raise HypersymError(f"unit_of names {len(given)} vertices, expected {n}")
        wrong = np.flatnonzero(np.asarray(given) != self.unit_of)
        if wrong.size:
            v = int(wrong[0])
            raise HypersymError(f"unit_of gives vertex {v} unit {given[v]!r}, but it is a member of unit {self.unit_of[v]}")
        self.keys: tuple[str, ...] = tuple(u.key for u in units)
        self.units = units

    unit_of = property(lambda self: self.cell_of)
    unit_ptr = property(lambda self: self.cell_ptr)
    unit_members = property(lambda self: self.cell_members)

    @cached_property
    def units(self) -> tuple[Unit, ...]:
        # a partition from compute_units only: the constructor sets units
        labels, edge_ids, star_ptr, star_edges = self._stars
        stars = _split_rows(star_ptr, star_edges)
        return tuple(
            Unit(
                key=key,
                members=tuple(map(labels.__getitem__, idxs)),
                member_indices=tuple(idxs),
                generating_edges=tuple(map(edge_ids.__getitem__, stars[idxs[0]])),
                edge_indices=frozenset(stars[idxs[0]]),
            )
            for key, idxs in zip(self.keys, _split_rows(self.unit_ptr, self.unit_members))
        )

    def key_index(self) -> dict[str, int]:
        return dict(zip(self.keys, range(len(self.keys))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnitPartition):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.unit_of, other.unit_of) and self.units == other.units

    def __hash__(self) -> int:
        return hash((self.n, self.keys))


def unit_key(members: Iterable[str]) -> str:
    """Canonical key for a unit: sorted member labels joined by commas."""
    return ",".join(sort_labels(members))


def compute_units(h: Hypergraph) -> UnitPartition:
    """Partition the vertices into units (classes of equal stars).

    Isolated vertices all share the empty star and land in one unit. Units
    are ordered by their smallest vertex index. The partition is built once
    per hypergraph, cached on it (its arrays are read-only), as arrays, by
    one stable sort of the stars; only the keys are Python strings.
    When every label is an integer literal, index order is numeric label
    order, so a key is its members' labels joined in index order; otherwise
    each unit's labels are sorted again (unit_key): with labels a, 10, 9, b
    the unit {10, 9} has the members ("10", "9") but the key "9,10".
    """
    if "_units" in vars(h):
        return h._units
    star_ptr, star_edges = h._star_arrays()
    unit_of = np.unique(_first_equal_rows(star_ptr, star_edges), return_inverse=True)[1].astype(np.intp, copy=False)
    members = np.argsort(unit_of, kind="stable")  # ascending within each unit
    ptr = _ptr(np.bincount(unit_of))
    labels, bounds = list(map(h.labels.__getitem__, members.tolist())), ptr.tolist()
    join = ",".join if all(map(_INT_LABEL.match, h.labels)) else unit_key
    h._units = units = UnitPartition.__new__(UnitPartition)
    units._set_cells(h.n, members, ptr, unit_of)
    units.keys = tuple(join(labels[a:b]) for a, b in zip(bounds, bounds[1:]))
    units._stars = (h.labels, h.edge_ids, star_ptr, star_edges)
    return units


def _cover_arrays(h: Hypergraph, units: UnitPartition) -> tuple[np.ndarray, np.ndarray]:
    """The unit covers of the edges as a CSR array: edge j is the union of
    the units cover[ptr[j]:ptr[j + 1]], ascending. Every edge meets a unit
    either fully or not at all, so the cover is exact; this is asserted."""
    unit_of = units.unit_of
    ptr = h.edge_ptr
    cover, edge_of = _sort_rows(ptr, unit_of[h.edge_members]), _row_of(ptr)
    first = np.ones(len(cover), dtype=bool)
    first[1:] = (cover[1:] != cover[:-1]) | (edge_of[1:] != edge_of[:-1])
    cover, edge_of = cover[first], edge_of[first]
    covered = np.bincount(edge_of, weights=units.sizes[cover], minlength=h.m)
    split = np.flatnonzero(covered != np.diff(h.edge_ptr))
    if split.size:
        raise AssertionError(
            f"edge {h.edge_ids[split[0]]!r} splits a unit; star computation is broken"
        )
    return _ptr(np.bincount(edge_of, minlength=h.m)), cover


def edge_unit_covers(h: Hypergraph, units: UnitPartition) -> tuple[tuple[int, ...], ...]:
    """For each edge, the sorted unit indices whose union is the edge.

    Every edge meets a unit either fully or not at all, so the cover is
    exact; this is asserted.
    """
    return tuple(tuple(row) for row in _split_rows(*_cover_arrays(h, units)))


@dataclass(frozen=True)
class ContractionResult:
    contracted: Hypergraph
    units: UnitPartition
    vertex_map: dict[str, str]  # original label -> unit key


def unit_contraction(h: Hypergraph) -> ContractionResult:
    """Contract each unit to a single vertex; edges become unit covers.

    Distinct edges have distinct covers (an edge is the union of its
    units), so edge ids carry over unchanged.
    """
    units = compute_units(h)
    covers = edge_unit_covers(h, units)
    keys = units.keys
    edges = [
        (h.edge_ids[j], [keys[ui] for ui in cover]) for j, cover in enumerate(covers)
    ]
    contracted = Hypergraph(keys, edges)
    vertex_map = dict(zip(h.labels, map(keys.__getitem__, units.unit_of.tolist())))
    return ContractionResult(contracted=contracted, units=units, vertex_map=vertex_map)
