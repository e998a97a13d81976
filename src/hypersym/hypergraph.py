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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from .errors import DocumentError
from .jsonutil import parse_json, require_key, require_object

_INT_LABEL = re.compile(r"^-?\d+$")


def sort_labels(labels: Iterable[str]) -> list[str]:
    """Sort labels numerically when all are integer literals, else lexically."""
    items = list(labels)
    if items and all(_INT_LABEL.match(lab) for lab in items):
        return sorted(items, key=int)
    return sorted(items)


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
        edges: hyperedges in document order, members in canonical order.
        member_sets: per edge, the frozenset of member vertex indices.
        stars: per vertex index, the frozenset of incident edge indices.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, Iterable[str]]]):
        labels = [str(v) for v in vertices]
        if not labels:
            raise DocumentError("hypergraph needs at least one vertex")
        if len(set(labels)) != len(labels):
            dup = next(lab for lab in labels if labels.count(lab) > 1)
            raise DocumentError(f"duplicate vertex label {dup!r}")
        self.labels: tuple[str, ...] = tuple(sort_labels(labels))
        self.index: dict[str, int] = {lab: i for i, lab in enumerate(self.labels)}

        seen_ids: dict[str, int] = {}
        seen_sets: dict[frozenset[int], str] = {}
        built: list[Hyperedge] = []
        member_sets: list[frozenset[int]] = []
        for eid, members in edges:
            eid = str(eid)
            if eid in seen_ids:
                raise DocumentError(f"duplicate edge id {eid!r}")
            seen_ids[eid] = len(built)
            mem = [str(v) for v in members]
            if not mem:
                raise DocumentError(f"edge {eid!r} has no members")
            idxs = []
            for v in mem:
                if v not in self.index:
                    raise DocumentError(f"edge {eid!r} names unknown vertex {v!r}")
                idxs.append(self.index[v])
            if len(set(idxs)) != len(idxs):
                raise DocumentError(f"edge {eid!r} repeats a member")
            mset = frozenset(idxs)
            if mset in seen_sets:
                raise DocumentError(
                    f"edges {seen_sets[mset]!r} and {eid!r} have the same member set"
                )
            seen_sets[mset] = eid
            ordered = tuple(self.labels[i] for i in sorted(idxs))
            built.append(Hyperedge(eid, ordered))
            member_sets.append(mset)

        self.edges: tuple[Hyperedge, ...] = tuple(built)
        self.edge_ids: tuple[str, ...] = tuple(e.id for e in built)
        self.edge_index: dict[str, int] = seen_ids
        self.member_sets: tuple[frozenset[int], ...] = tuple(member_sets)
        self._set_to_edge: dict[frozenset[int], int] = {
            s: i for i, s in enumerate(member_sets)
        }
        stars: list[set[int]] = [set() for _ in self.labels]
        for j, mset in enumerate(member_sets):
            for i in mset:
                stars[i].add(j)
        self.stars: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in stars)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def star(self, label: str) -> frozenset[str]:
        """Edge ids incident to the vertex with this label."""
        if label not in self.index:
            raise DocumentError(f"unknown vertex {label!r}")
        return frozenset(self.edge_ids[j] for j in self.stars[self.index[label]])

    def edge_of_member_set(self, idxs: frozenset[int]) -> int | None:
        return self._set_to_edge.get(idxs)

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
        pairs = []
        for entry in edges:
            entry = require_object(entry, "edge entry")
            eid = require_key(entry, "id", "edge entry")
            members = require_key(entry, "members", "edge entry")
            if not isinstance(eid, str):
                raise DocumentError("edge 'id' must be a string")
            if not isinstance(members, list) or not all(isinstance(v, str) for v in members):
                raise DocumentError(f"edge {eid!r} 'members' must be a list of strings")
            pairs.append((eid, members))
        return cls(vertices, pairs)

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


@dataclass(frozen=True)
class UnitPartition:
    units: tuple[Unit, ...]
    unit_of: tuple[int, ...]  # vertex index -> unit index
    n: int

    def __len__(self) -> int:
        return len(self.units)

    def key_index(self) -> dict[str, int]:
        return {u.key: i for i, u in enumerate(self.units)}


def unit_key(members: Iterable[str]) -> str:
    """Canonical key for a unit: sorted member labels joined by commas."""
    return ",".join(sort_labels(members))


def compute_units(h: Hypergraph) -> UnitPartition:
    """Partition the vertices into units (classes of equal stars).

    Isolated vertices all share the empty star and land in one unit. Units
    are ordered by their smallest vertex index.
    """
    groups: dict[frozenset[int], list[int]] = {}
    for i in range(h.n):
        groups.setdefault(h.stars[i], []).append(i)
    ordered = sorted(groups.items(), key=lambda kv: min(kv[1]))
    units: list[Unit] = []
    unit_of = [0] * h.n
    for ui, (star_set, idxs) in enumerate(ordered):
        idxs = sorted(idxs)
        members = tuple(h.labels[i] for i in idxs)
        gen = tuple(h.edge_ids[j] for j in sorted(star_set))
        units.append(
            Unit(
                key=unit_key(members),
                members=members,
                member_indices=tuple(idxs),
                generating_edges=gen,
                edge_indices=star_set,
            )
        )
        for i in idxs:
            unit_of[i] = ui
    return UnitPartition(units=tuple(units), unit_of=tuple(unit_of), n=h.n)


def edge_unit_covers(h: Hypergraph, units: UnitPartition) -> tuple[tuple[int, ...], ...]:
    """For each edge, the sorted unit indices whose union is the edge.

    Every edge meets a unit either fully or not at all, so the cover is
    exact; this is asserted.
    """
    covers = []
    for j, mset in enumerate(h.member_sets):
        seen = sorted({units.unit_of[i] for i in mset})
        total = sum(units.units[ui].size for ui in seen)
        if total != len(mset):
            raise AssertionError(
                f"edge {h.edge_ids[j]!r} splits a unit; star computation is broken"
            )
        covers.append(tuple(seen))
    return tuple(covers)


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
    keys = [u.key for u in units.units]
    edges = [
        (h.edge_ids[j], [keys[ui] for ui in cover]) for j, cover in enumerate(covers)
    ]
    contracted = Hypergraph(keys, edges)
    vertex_map = {lab: keys[units.unit_of[h.index[lab]]] for lab in h.labels}
    return ContractionResult(contracted=contracted, units=units, vertex_map=vertex_map)
