"""Iteration x -> Mx and orbit synchronization tracking."""

import sys
import warnings

import numpy as np
import pytest

from hypersym import (
    HypersymError,
    Permutation,
    build_matrix,
    check_orbit_synchronization,
    compatible_matrix,
    iterate,
    orbits,
)


def synchronized_state(orbs, rng):
    x = np.zeros(orbs.n, dtype=complex)
    for cell in orbs.cells:
        x[list(cell)] = rng.normal() + 1j * rng.normal()
    return x


def test_iterate_matches_matrix_powers(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    x0 = np.arange(10, dtype=complex)
    traj = iterate(A, x0, steps=4)
    for k in range(5):
        assert np.allclose(traj.states[k], np.linalg.matrix_power(A.entries, k) @ x0)
    assert traj.steps == 4
    assert np.array_equal(traj.final_state, traj.states[-1])


def test_synchronized_start_stays_synchronized(rot10, rot10_aut):
    rng = np.random.default_rng(0)
    A = build_matrix(rot10, "adjacency_r")
    orbs = orbits(rot10_aut)
    x0 = synchronized_state(orbs, rng)
    traj = iterate(A, x0, steps=25, orbs=orbs)
    report = check_orbit_synchronization(traj)
    assert report.synchronized
    assert report.first_violation_step is None


def test_growth_scaled_tolerance():
    # ||M|| = 10, so raw deviations grow ~10^k; per-step scaling keeps the
    # verdict stable over a long run
    p_cells = ((0, 1), (2,))
    from hypersym import OrbitPartition, Permutation

    orbs = OrbitPartition.from_permutation(Permutation((1, 0, 2)))
    M = 10.0 * np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=complex)
    x0 = np.array([1.0, 1.0, -1.0], dtype=complex)
    traj = iterate(M, x0, steps=25, orbs=orbs)
    report = check_orbit_synchronization(traj)
    assert report.synchronized
    assert traj.sync_log is not None and orbs.cells == p_cells


def test_desynchronized_start_flagged_at_step_zero(rot10, rot10_aut):
    rng = np.random.default_rng(1)
    A = build_matrix(rot10, "adjacency_r")
    orbs = orbits(rot10_aut)
    x0 = synchronized_state(orbs, rng)
    x0[orbs.cells[1][0]] += 0.1
    traj = iterate(A, x0, steps=10, orbs=orbs)
    report = check_orbit_synchronization(traj)
    assert not report.synchronized
    assert report.first_violation_step == 0


def test_random_compatible_matrices_preserve_sync():
    rng = np.random.default_rng(2)
    from hypersym import Permutation

    p = Permutation((1, 2, 0, 4, 3, 5))
    orbs = orbits(p)
    for _ in range(5):
        M = compatible_matrix(rng, p)
        x0 = synchronized_state(orbs, rng)
        traj = iterate(M, x0, steps=25, orbs=orbs, normalize=True)
        report = check_orbit_synchronization(traj)
        assert report.synchronized, report


def test_normalize_keeps_sup_norm_one(rot10):
    A = build_matrix(rot10, "adjacency_r")
    x0 = np.ones(10, dtype=complex)
    traj = iterate(A, x0, steps=8, normalize=True)
    for k in range(1, 9):
        assert np.abs(traj.states[k]).max() == pytest.approx(1.0)


def test_trajectory_document(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    orbs = orbits(rot10_aut)
    traj = iterate(A, np.ones(10, dtype=complex), steps=3, orbs=orbs)
    doc = traj.to_document()
    assert doc["steps"] == 3
    assert len(doc["sync_log"]) == 4
    assert len(doc["sync_log"][0]) == len(orbs.cells)
    assert len(doc["final_state"]) == 10


def test_iterate_validates_input(rot10):
    A = build_matrix(rot10, "adjacency_r")
    with pytest.raises(HypersymError, match="shape"):
        iterate(A, np.ones(3), steps=1)
    with pytest.raises(HypersymError, match="non-negative"):
        iterate(A, np.ones(10), steps=-1)
    with pytest.raises(HypersymError, match="non-finite"):
        iterate(A, np.full(10, np.nan), steps=1)
    with pytest.raises(HypersymError, match="orbit partition covers 12"):
        iterate(A, np.ones(10), steps=1, orbs=orbits(Permutation(tuple(range(12)))))


def test_sync_check_needs_log_or_partition(rot10):
    A = build_matrix(rot10, "adjacency_r")
    traj = iterate(A, np.ones(10, dtype=complex), steps=2)
    with pytest.raises(HypersymError, match="no sync log"):
        check_orbit_synchronization(traj)


def _dominated_circulant():
    # a 6-cycle circulant with eigenvalue 0.5 on the constant vector and 3 on
    # the alternating one: the orbit quotient has the smaller spectral radius
    n = 6
    w = np.exp(2j * np.pi / n)
    F = w ** np.outer(np.arange(n), np.arange(n))
    lam = np.full(n, 0.1 + 0j)
    lam[0], lam[3] = 0.5, 3.0
    c = np.linalg.solve(F, lam)
    C = np.array([[c[(b - a) % n] for b in range(n)] for a in range(n)])
    from hypersym import Permutation

    return C, orbits(Permutation(tuple((i + 1) % n for i in range(n))))


@pytest.mark.parametrize("normalize", [False, True])
def test_rounding_growth_outside_the_quotient_is_not_a_violation(normalize):
    # rounding errors grow like 3^k and the state shrinks like 0.5^k: after
    # 25 steps the computed in-orbit deviation is ~4e-6 against a state of
    # ~3e-8, yet the exact trajectory is synchronized
    C, orbs = _dominated_circulant()
    traj = iterate(C, np.full(6, 1 + 0.5j), steps=25, orbs=orbs, normalize=normalize)
    report = check_orbit_synchronization(traj)
    assert report.synchronized, report


def test_incompatible_matrix_flagged_at_step_one():
    C, orbs = _dominated_circulant()
    C[0, 1] += 1e-3
    traj = iterate(C, np.full(6, 1 + 0.5j), steps=25, orbs=orbs)
    report = check_orbit_synchronization(traj)
    assert not report.synchronized
    assert report.first_violation_step == 1


def test_error_scale_stays_finite_on_long_normalised_runs():
    # 100 two-cycles with ||M||_inf far above the spectral radius: s_k grows
    # by ||M||_inf / peak at every normalised step, past the largest float
    # near step 275, where it used to overflow to inf with a RuntimeWarning
    perm = Permutation(tuple(i ^ 1 for i in range(200)))
    A = compatible_matrix(np.random.default_rng(0), perm) * 50
    orbs = orbits(perm)
    x0 = synchronized_state(orbs, np.random.default_rng(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = iterate(A, x0, steps=400, orbs=orbs, normalize=True)
        B = A.copy()
        B[0, 5] += 1e-3
        perturbed = iterate(B, x0, steps=400, orbs=orbs, normalize=True)
    assert np.isfinite(traj.error_scale).all()
    assert traj.error_scale[-1] == sys.float_info.max
    report = check_orbit_synchronization(traj)
    assert report.synchronized and report.first_violation_step is None
    assert check_orbit_synchronization(perturbed).first_violation_step == 1
