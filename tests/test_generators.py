"""Random instances: invariant hypergraphs, compatible matrices, weights."""

import numpy as np
import pytest

from hypersym import (
    build_matrix,
    check_commutation,
    compatibility_deviation,
    compatible_matrix,
    cycle_types,
    invariant_hypergraph,
    invariant_weights,
    orbits,
    permutation_with_type,
    random_instance,
    validate_automorphism,
)


def test_cycle_types_fit_and_mixed_have_distinct_lengths():
    for n in (6, 9, 14):
        for lengths in cycle_types(n):
            assert sum(lengths) <= n
            assert all(l >= 2 for l in lengths)
        for lengths in cycle_types(n, mixed_only=True):
            assert len(set(lengths)) >= 2


def test_permutation_with_type():
    rng = np.random.default_rng(0)
    p = permutation_with_type(rng, 10, (2, 3))
    counts = sorted(len(c) for c in p.cycles())
    assert counts == [1, 1, 1, 1, 1, 2, 3]
    assert p.order == 6


def test_invariant_hypergraph_is_closed_under_the_map():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = permutation_with_type(rng, 9, (3, 2))
        h = invariant_hypergraph(rng, p)
        aut = validate_automorphism(h, p)  # raises if any edge image is missing
        assert aut.order in (1, 2, 3, 6)
        assert h.m >= 1


def test_random_instance_within_bounds():
    rng = np.random.default_rng(2)
    for _ in range(20):
        h, aut = random_instance(rng, n_max=14)
        assert 6 <= h.n <= 14
        assert aut.hypergraph is h
        assert aut.perm.mapping != tuple(range(h.n))


def test_compatible_matrix_commutes_exactly():
    rng = np.random.default_rng(3)
    for _ in range(10):
        h, aut = random_instance(rng, n_max=12)
        M = compatible_matrix(rng, aut.perm)
        assert check_commutation(M, aut) <= 1e-12
        dev, _ = compatibility_deviation(M, aut)
        assert dev == 0.0  # orbit-averaged entries are bitwise equal


def test_compatible_matrix_flags():
    rng = np.random.default_rng(4)
    h, aut = random_instance(rng, n_max=10)
    S = compatible_matrix(rng, aut.perm, symmetric=True)
    assert np.array_equal(S, S.T)
    N = compatible_matrix(rng, aut.perm, nonnegative=True)
    assert np.all(N.real >= 0) and np.abs(N.imag).max() == 0.0


def test_invariant_weights_are_orbit_constant():
    rng = np.random.default_rng(5)
    h, aut = random_instance(rng, n_max=12)
    w = invariant_weights(rng, h, aut)
    for cell in orbits(aut).label_cells(h.labels):
        vals = {w.delta_V[lab] for lab in cell}
        assert len(vals) == 1
    for eid, img in aut.edge_map.items():
        assert w.delta_E[eid] == w.delta_E[img]
    M = build_matrix(h, "general_adjacency", weights=w)
    assert check_commutation(M, aut) <= 1e-12


def test_generator_is_deterministic_per_seed():
    a = np.random.default_rng(42)
    b = np.random.default_rng(42)
    ha, auta = random_instance(a, n_max=12)
    hb, autb = random_instance(b, n_max=12)
    assert ha == hb
    assert auta.perm.mapping == autb.perm.mapping
    Ma = compatible_matrix(a, auta.perm)
    Mb = compatible_matrix(b, autb.perm)
    assert np.array_equal(Ma, Mb)
