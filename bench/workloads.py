"""Seeded inputs for the benchmark workloads.

Every workload is a pool of positive instances (valid symmetric inputs the
CLI must decompose and verify) plus negative controls (a symmetry document
that is not a symmetry, which the CLI must refuse naming an edge). All of
it is written as the JSON documents the CLI reads; the program sees nothing
else. The same seed gives byte-identical documents.

Base instances come from ``hypersym.generators``. The unit-heavy instance
is built here: each base vertex is blown up into copies that share its
star, so units of size two (and one merged unit of isolated vertices)
appear, and the base permutation induces the unit map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hypersym.generators import invariant_hypergraph, permutation_with_type
from hypersym.hypergraph import sort_labels, unit_key


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand: "decompose" or "verify"
    kind: str  # matrix kind
    cycle: int  # cycle length of the base permutation (no fixed points)
    base_n: int  # vertices of the base hypergraph
    copies: int  # vertices per base vertex; > 1 makes the unit-heavy shape
    why: str


# Sizes keep one CLI operation near a quarter second on a 2-vCPU machine, so a
# run collects enough samples for a median and a tail that has ten samples
# beyond it. Each shape puts a different layer on top (see ``why``).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rot2-decompose",
            command="decompose",
            kind="adjacency_r",
            cycle=2,
            base_n=160,
            copies=1,
            why="order 2 gives the most orbit cells, so the per-cell-pair quotient "
            "loops and report emission dominate while the block solves are small",
        ),
        Workload(
            name="rot12-verify",
            command="verify",
            kind="transition",
            cycle=12,
            base_n=312,
            copies=1,
            why="order 12 gives few cells, so the dense oracle and lifting dominate; "
            "the non-normal kind bypasses any Hermitian-only solver path",
        ),
        Workload(
            name="units-verify",
            command="verify",
            kind="laplacian_r",
            cycle=4,
            base_n=120,
            copies=2,
            why="blown-up vertices form units of size two, the only shape that "
            "reaches unit_symmetry; spectral runs only on the small unit quotient",
        ),
    )
}

POSITIVES = 8  # positive instances per seed
NEGATIVES = 2  # negative controls per seed, each derived from one positive


@dataclass(frozen=True)
class Instance:
    """One CLI input pair and the outcome the CLI must produce."""

    hypergraph: Path
    symmetry: Path
    n: int
    refused_edge: str | None  # None: must pass; else the edge the refusal names


def _star_groups(vertices: list[str], edges: list[tuple[str, list[str]]]) -> list[list[str]]:
    """Vertices grouped by equal stars (the hypergraph's units)."""
    stars: dict[str, set[str]] = {v: set() for v in vertices}
    for eid, members in edges:
        for v in members:
            stars[v].add(eid)
    groups: dict[frozenset[str], list[str]] = {}
    for v in vertices:
        groups.setdefault(frozenset(stars[v]), []).append(v)
    return [sort_labels(g) for g in groups.values()]


def _first_broken_edge(covers: list[tuple[str, frozenset[str]]], table: dict[str, str]) -> str | None:
    """The first edge, in document order, whose cover (its vertices, or its
    units for a unit map) the map does not send onto some edge's cover;
    None when the map is a symmetry."""
    cover_sets = {cover for _, cover in covers}
    for eid, cover in covers:
        if frozenset(table[x] for x in cover) not in cover_sets:
            return eid
    return None


def _blow_up(perm, h, copies: int):
    """Vertex labels, edge list and vertex map after replacing every base
    vertex b by ``copies`` vertices that share b's star."""
    def copies_of(label: str) -> list[str]:
        b = int(label)
        return [str((b - 1) * copies + c + 1) for c in range(copies)]

    vertices = [v for lab in h.labels for v in copies_of(lab)]
    edges = [(e.id, [v for m in e.members for v in copies_of(m)]) for e in h.edges]
    vmap = {}
    for i, lab in enumerate(h.labels):
        for src, dst in zip(copies_of(lab), copies_of(h.labels[perm(i)])):
            vmap[src] = dst
    return vertices, edges, vmap


def _swap_two(rng: np.random.Generator, table: dict[str, str], covers) -> tuple[dict[str, str], str]:
    """Swap the images of two keys so that the map breaks an edge; returns
    the map and the edge the refusal must name."""
    keys = list(table)
    while True:
        a, b = (keys[int(i)] for i in rng.choice(len(keys), size=2, replace=False))
        bad = dict(table)
        bad[a], bad[b] = table[b], table[a]
        edge = _first_broken_edge(covers, bad)
        if edge is not None:
            return bad, edge


def _cycle_lengths(table: dict[str, str]) -> set[int]:
    """Lengths of the map's cycles, fixed points left out."""
    lengths: set[int] = set()
    seen: set[str] = set()
    for start in table:
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = table[x]
            length += 1
        if length > 1:
            lengths.add(length)
    return lengths


def _draw(rng: np.random.Generator, w: Workload):
    """(vertices, edges, symmetry key, map, covers) of one positive instance.

    Redrawn until the matrix kind is defined on it (the transition kind
    needs every vertex in some edge) and, for a unit map, until its cycles
    other than fixed points share one length. Base vertices of one base
    cycle that have equal stars merge into one unit, which gives the unit
    map shorter cycles beside the base ones; decompose_automorphism refuses
    such non-coprime mixed cycle types unless the matrix is compatible with
    each cycle-length factor, a known correctness gap that this performance
    benchmark leaves to the tests.
    """
    while True:
        perm = permutation_with_type(rng, w.base_n, (w.cycle,) * (w.base_n // w.cycle))
        h = invariant_hypergraph(rng, perm, seed_edges=w.base_n // 4)
        if w.kind == "transition" and not all(h.stars):
            continue
        vertices, edges, vmap = _blow_up(perm, h, w.copies)
        if w.copies == 1:
            return vertices, edges, "map", vmap, [(e, frozenset(m)) for e, m in edges]
        unit_of = {v: unit_key(g) for g in _star_groups(vertices, edges) for v in g}
        table = {u: unit_of[vmap[v]] for v, u in unit_of.items()}
        if len(_cycle_lengths(table)) == 1:
            covers = [(e, frozenset(unit_of[v] for v in m)) for e, m in edges]
            return vertices, edges, "unit_map", table, covers


def generate(w: Workload, seed: int, out_dir: Path) -> tuple[list[Instance], list[Instance]]:
    """Write the seed's documents under out_dir; return (positives, negatives)."""
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    out_dir.mkdir(parents=True, exist_ok=True)
    positives: list[Instance] = []
    negatives: list[Instance] = []
    for p in range(POSITIVES):
        vertices, edges, key, table, covers = _draw(rng, w)
        if _first_broken_edge(covers, table) is not None:
            raise AssertionError(f"{w.name}: generated symmetry breaks an edge")
        hpath = out_dir / f"p{p}-hypergraph.json"
        hpath.write_text(json.dumps(
            {"vertices": vertices, "edges": [{"id": e, "members": m} for e, m in edges]}
        ))
        spath = out_dir / f"p{p}-symmetry.json"
        spath.write_text(json.dumps({key: table}))
        positives.append(Instance(hpath, spath, len(vertices), None))
        if p < NEGATIVES:
            bad, edge = _swap_two(rng, table, covers)
            npath = out_dir / f"n{p}-symmetry.json"
            npath.write_text(json.dumps({key: bad}))
            negatives.append(Instance(hpath, npath, len(vertices), edge))
    return positives, negatives


def schedule(i: int, positives: list[Instance], negatives: list[Instance]) -> Instance:
    """The instance of the i-th operation: every eighth is a negative
    control, the rest cycle through the positives."""
    block, slot = divmod(i, 8)
    if slot == 7:
        return negatives[block % len(negatives)]
    return positives[(7 * block + slot) % len(positives)]
