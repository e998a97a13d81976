"""Random hypergraphs, automorphisms, and compatible matrices for testing.

Instances are built symmetry-first: draw a permutation with a chosen cycle
type, then close random seed edges under the induced edge map, so the
permutation is an automorphism by construction. Compatible matrices are
orbit-averaged: every position orbit {(f^t u, f^t v)} gets one shared
value, which makes m[u,v] = m[f(u),f(v)] hold exactly (commutation
deviation is exactly zero, not merely small).

Mixed cycle types draw two or three distinct lengths from 2..7, coprime or
not; the block decomposition handles every cycle type alike.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .hypergraph import Hypergraph
from .matrices import WeightFunctions
from .symmetry import Automorphism, Permutation, validate_automorphism

_PURE_TYPES = [(2,), (3,), (4,), (5,), (6,), (7,), (2, 2), (3, 3), (4, 4), (5, 5),
               (2, 2, 2), (3, 3, 3), (2, 2, 2, 2)]
_MIXED_LENGTHS = [
    lengths
    for size in (2, 3)
    for lengths in combinations((2, 3, 4, 5, 6, 7), size)
]


def mixed_cycle_types(n: int) -> list[tuple[int, ...]]:
    """Cycle types with at least two distinct lengths fitting into n
    vertices, smallest-first, with some repeated lengths."""
    types: list[tuple[int, ...]] = []
    for lengths in _MIXED_LENGTHS:
        base = tuple(sorted(lengths))
        if sum(base) <= n:
            types.append(base)
        doubled = tuple(sorted(base + (base[0],)))
        if sum(doubled) <= n:
            types.append(doubled)
    return types


def cycle_types(n: int, mixed_only: bool = False) -> list[tuple[int, ...]]:
    types = mixed_cycle_types(n)
    if not mixed_only:
        types = [t for t in _PURE_TYPES if sum(t) <= n] + types
    return types


def permutation_with_type(rng: np.random.Generator, n: int, lengths: tuple[int, ...]) -> Permutation:
    """Random permutation of 0..n-1 with the given nontrivial cycle type;
    remaining vertices are fixed."""
    total = sum(lengths)
    if total > n:
        raise ValueError(f"cycle type {lengths} does not fit {n} vertices")
    chosen = rng.permutation(n)[:total]
    mapping = list(range(n))
    pos = 0
    for length in lengths:
        cyc = chosen[pos : pos + length]
        for t in range(length):
            mapping[int(cyc[t])] = int(cyc[(t + 1) % length])
        pos += length
    return Permutation(tuple(mapping))


def invariant_hypergraph(
    rng: np.random.Generator,
    perm: Permutation,
    seed_edges: int = 4,
    include_full_edge: bool = False,
) -> Hypergraph:
    """Random hypergraph on labels '1'..'n' closed under perm's edge map."""
    n = perm.n
    edge_sets: set[frozenset[int]] = set()
    if include_full_edge:
        edge_sets.add(frozenset(range(n)))
    for _ in range(seed_edges):
        size = int(rng.integers(2, min(n, 5) + 1))
        seed = frozenset(int(v) for v in rng.permutation(n)[:size])
        current = seed
        while current not in edge_sets:
            edge_sets.add(current)
            current = frozenset(perm(v) for v in current)
    ordered = sorted(edge_sets, key=lambda s: (len(s), sorted(s)))
    labels = [str(i + 1) for i in range(n)]
    edges = [(f"e{j}", [labels[v] for v in sorted(s)]) for j, s in enumerate(ordered)]
    return Hypergraph(labels, edges)


def random_instance(
    rng: np.random.Generator, n_max: int = 14, mixed_only: bool = False
) -> tuple[Hypergraph, Automorphism]:
    """A random invariant hypergraph with its validated automorphism."""
    n = int(rng.integers(6, n_max + 1))
    types = cycle_types(n, mixed_only=mixed_only)
    lengths = types[int(rng.integers(len(types)))]
    perm = permutation_with_type(rng, n, lengths)
    h = invariant_hypergraph(rng, perm, seed_edges=int(rng.integers(3, 7)))
    return h, validate_automorphism(h, perm)


def compatible_matrix(
    rng: np.random.Generator,
    perm: Permutation,
    symmetric: bool = False,
    nonnegative: bool = False,
) -> np.ndarray:
    """Orbit-averaged random matrix, exactly compatible with perm.

    Each position orbit under (u, v) -> (f(u), f(v)) carries a single
    shared value (the average of a random draw over the orbit), so
    compatibility holds to the last bit.
    """
    n = perm.n
    if nonnegative:
        R = rng.uniform(0.0, 1.0, size=(n, n)).astype(np.complex128)
    else:
        R = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M = np.zeros((n, n), dtype=np.complex128)
    visited = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(n):
            if visited[u, v]:
                continue
            orbit = []
            a, b = u, v
            while not visited[a, b]:
                visited[a, b] = True
                orbit.append((a, b))
                a, b = perm(a), perm(b)
            value = sum(R[a, b] for a, b in orbit) / len(orbit)
            for a, b in orbit:
                M[a, b] = value
    if symmetric:
        # after averaging: entrywise ops on bitwise-equal pairs keep
        # compatibility exact, and the result is exactly symmetric
        M = (M + M.T) / 2
    return M


def invariant_weights(rng: np.random.Generator, h: Hypergraph, f: Automorphism) -> WeightFunctions:
    """Positive weights constant on vertex orbits and edge orbits of f."""
    dv: dict[str, float] = {}
    for lab in h.labels:
        if lab in dv:
            continue
        value = float(rng.uniform(0.5, 2.0))
        i = h.index[lab]
        while h.labels[i] not in dv:
            dv[h.labels[i]] = value
            i = f.perm(i)
    de: dict[str, float] = {}
    for eid in h.edge_ids:
        if eid in de:
            continue
        value = float(rng.uniform(0.5, 2.0))
        current = eid
        while current not in de:
            de[current] = value
            current = f.edge_map[current]
    return WeightFunctions(delta_V=dv, delta_E=de)
