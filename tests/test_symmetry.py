"""Automorphism validation, compatibility, orbits, quotients, rotations."""

import numpy as np
import pytest

from hypersym import (
    DocumentError,
    HypersymError,
    NotAutomorphismError,
    NotEquitableError,
    Permutation,
    as_rotation,
    build_matrix,
    check_commutation,
    compatibility_deviation,
    compatible_matrix,
    equitable_witness,
    is_compatible,
    is_equitable,
    orbit_quotient,
    orbits,
    permutation_matrix,
    rotation_decomposition,
    simple_eigenvalue_bound,
    validate_automorphism,
)
from hypersym.symmetry import compose_factors, permutation_array

from conftest import ROT10_MAP, ROT10_QUOTIENT


def test_permutation_basics():
    p = Permutation((1, 2, 0, 3))
    assert p.order == 3
    assert p.inverse().mapping == (2, 0, 1, 3)
    assert p.compose(p.inverse()).is_identity
    assert p.power(3).is_identity
    assert p.cycles() == [(0, 1, 2), (3,)]


def test_permutation_rejects_non_bijection():
    with pytest.raises(HypersymError, match="not a bijection"):
        Permutation((0, 0, 1))


def test_validate_rot10(rot10, rot10_aut):
    assert rot10_aut.order == 3
    assert rot10_aut.edge_map == {"e": "f", "f": "g", "g": "e", "h": "i", "i": "j", "j": "h"}
    assert rot10_aut.perm.to_label_map(rot10.labels) == ROT10_MAP


def test_validate_rejects_non_automorphism(rot10):
    swap = {lab: lab for lab in rot10.labels}
    swap["1"], swap["4"] = "4", "1"
    with pytest.raises(NotAutomorphismError, match="is not an edge"):
        validate_automorphism(rot10, swap)


def test_label_map_must_cover_vertices(rot10):
    with pytest.raises(DocumentError, match="does not map vertices"):
        validate_automorphism(rot10, {"1": "1"})


def test_permutation_matrix_action(rot10, rot10_aut):
    # (P x)(u) = x(f(u)): the row for u picks out the image's coordinate
    P = permutation_array(rot10_aut.perm)
    x = np.arange(10, dtype=complex)
    y = P @ x
    for u in range(10):
        assert y[u] == x[rot10_aut.perm(u)]
    M = permutation_matrix(rot10_aut)
    assert np.array_equal(M.entries, P)


@pytest.mark.parametrize("kind", ["adjacency_r", "adjacency_b", "transition",
                                  "laplacian_r", "laplacian_b", "signless_q",
                                  "unit_normalized"])
def test_built_matrices_are_compatible(kind, rot10, rot10_aut):
    M = build_matrix(rot10, kind)
    dev, _ = compatibility_deviation(M, rot10_aut)
    assert dev <= 1e-12
    assert is_compatible(M, rot10_aut)
    assert check_commutation(M, rot10_aut) <= 1e-12


def test_check_commutation_equals_dense_commutator(rot10, rot10_aut):
    # max|M P_f - P_f M| without P_f: the commutator holds m[u,v] - m[f(u),f(v)]
    # at (u, f(v)), so both forms agree exactly on compatible and broken inputs
    rng = np.random.default_rng(3)
    p = Permutation((1, 0, 3, 4, 5, 2))
    M = compatible_matrix(rng, p)
    broken = M.copy()
    broken[0, 3] += 0.25
    A = build_matrix(rot10, "adjacency_r").entries.copy()
    A[2, 5] -= 1.5
    for matrix, f in ((M, p), (broken, p), (A, rot10_aut)):
        P = permutation_array(f)
        dense = float(np.abs(matrix @ P - P @ matrix).max())
        assert check_commutation(matrix, f) == dense == compatibility_deviation(matrix, f)[0]
    assert check_commutation(M, p) == 0.0
    assert check_commutation(broken, p) == pytest.approx(0.25)


def test_compatibility_witness_locates_break(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r").entries.copy()
    A[0, 1] += 0.5
    dev, (u, v) = compatibility_deviation(A, rot10_aut)
    assert dev == pytest.approx(0.5)
    # the break shows up at the bumped entry or its preimage
    assert (u, v) in {(0, 1), (0, 4)}
    assert not is_compatible(A, rot10_aut)


def test_orbits_rot10(rot10, rot10_aut):
    orbs = orbits(rot10_aut)
    assert orbs.label_cells(rot10.labels) == [["1"], ["2", "5", "8"], ["3", "6", "9"], ["4", "7", "10"]]


def test_equitable_and_quotient(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    orbs = orbits(rot10_aut)
    assert is_equitable(A, orbs)
    Q = orbit_quotient(A, orbs)
    assert np.array_equal(Q.real, ROT10_QUOTIENT)
    assert np.abs(Q.imag).max() == 0.0


def test_equitable_witness_reports_sums(rot10, rot10_aut):
    # an uneven partition: {1, 2} vs the rest
    A = build_matrix(rot10, "adjacency_r")
    cells = [(0, 1), tuple(range(2, 10))]
    witness = equitable_witness(A, cells)
    assert witness is not None
    i, u, u2, j, s1, s2 = witness
    assert (i, u, u2, j) == (0, 0, 1, 1)
    assert (s1, s2) == (5 + 0j, 9 + 0j)
    with pytest.raises(NotEquitableError, match="not equitable"):
        orbit_quotient(A, cells)


def test_partition_must_cover_indices(rot10):
    A = build_matrix(rot10, "adjacency_r")
    with pytest.raises(HypersymError, match="cover the index set"):
        equitable_witness(A, [(0, 1)])


def test_rotation_decomposition_rot10(rot10_aut):
    dec = rotation_decomposition(rot10_aut)
    assert dec.global_fixed == (0,)
    assert len(dec.factors) == 1
    rot = dec.factors[0]
    assert rot.order_n == 3
    assert rot.components == ((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert rot.invariant_set == frozenset({0})
    assert compose_factors(dec).mapping == rot10_aut.perm.mapping


def test_rotation_components_cycle_positionally():
    p = Permutation((1, 0, 3, 4, 2, 5))  # 2-cycle and 3-cycle
    dec = rotation_decomposition(p)
    assert [r.order_n for r in dec.factors] == [2, 3]
    two, three = dec.factors
    assert two.components == ((0,), (1,))
    assert three.components == ((2,), (3,), (4,))
    for rot in dec.factors:
        for i, comp in enumerate(rot.components):
            nxt = rot.components[(i + 1) % rot.order_n]
            assert all(rot.underlying(v) == w for v, w in zip(comp, nxt))
    assert compose_factors(dec).mapping == p.mapping


def test_as_rotation_single_class_only():
    assert as_rotation(Permutation((1, 0, 2))).order_n == 2
    with pytest.raises(HypersymError, match="cycle-length classes"):
        as_rotation(Permutation((1, 0, 3, 4, 2)))


def test_simple_eigenvalue_bound(rot10_aut):
    rot = as_rotation(rot10_aut.perm)
    assert simple_eigenvalue_bound(rot) == 4  # odd order: |U_0| + |X| = 3 + 1
    even = as_rotation(Permutation((1, 0, 3, 2)))
    assert simple_eigenvalue_bound(even) == 4  # even order: 2|U_0| + |X|


def test_simple_eigenvalues_of_symmetric_compatible_matrices(rot10_aut):
    # eigenvectors of simple eigenvalues are permutation eigenvectors with
    # eigenvalue +-1, so their count cannot exceed the bound
    rng = np.random.default_rng(7)
    rot = as_rotation(rot10_aut.perm)
    bound = simple_eigenvalue_bound(rot)
    P = permutation_array(rot10_aut.perm)
    for _ in range(5):
        M = compatible_matrix(rng, rot10_aut.perm, symmetric=True, nonnegative=True)
        M = M.real  # real symmetric: clean eigenvector geometry
        vals, vecs = np.linalg.eigh(M)
        simple = [i for i, v in enumerate(vals)
                  if np.abs(vals - v).argsort()[1] >= 0 and (np.abs(vals - v) > 1e-8).sum() == len(vals) - 1]
        assert len(simple) <= bound
        for i in simple:
            x = vecs[:, i]
            alpha = x @ (P @ x)  # P x = alpha x for unit x
            assert abs(abs(alpha) - 1.0) < 1e-8
            assert np.linalg.norm(P @ x - alpha * x) < 1e-8
            assert abs(alpha**2 - 1.0) < 1e-8


def test_eigenspace_invariance_under_permutation(rot10_aut):
    rng = np.random.default_rng(11)
    M = compatible_matrix(rng, rot10_aut.perm, symmetric=True)
    P = permutation_array(rot10_aut.perm)
    vals, vecs = np.linalg.eig(M)
    for i in range(len(vals)):
        y = P @ vecs[:, i]
        res = np.linalg.norm(M @ y - vals[i] * y) / np.linalg.norm(y)
        assert res < 1e-8
