"""Randomized invariant checks shared by the property and acceptance suites.

Each trial draws an invariant hypergraph with a validated automorphism and
runs orbit-averaged compatible matrices through every structural claim:
exact commutation, equitable orbits, complete block spectra, quotient
spectral radius (nonnegative case), and omega_j / omega_{n-j} pairing for
symmetric matrices. Failures are collected as strings, never raised, so
callers can report every broken trial at once.
"""

import numpy as np

from hypersym import (
    check_commutation,
    check_orbit_synchronization,
    compatible_matrix,
    decompose_automorphism,
    is_equitable,
    iterate,
    match_multisets,
    orbits,
    random_instance,
    spectral_radius_via_quotient,
    verify_decomposition,
)

COMMUTATION_TOL = 1e-12
SPECTRUM_TOL = 1e-8
RADIUS_TOL = 1e-8
PAIRING_TOL = 1e-8


def spectrum_trial(rng) -> list[str]:
    """One instance through the full decomposition stack; returns failures."""
    failures: list[str] = []
    h, aut = random_instance(rng, n_max=14, mixed_only=True)
    tag = f"n={h.n} order={aut.order}"

    M = compatible_matrix(rng, aut.perm)
    if check_commutation(M, aut) > COMMUTATION_TOL:
        failures.append(f"{tag}: commutation deviation above {COMMUTATION_TOL}")
    if not is_equitable(M, orbits(aut)):
        failures.append(f"{tag}: orbit partition not equitable")
    report = verify_decomposition(M, decompose_automorphism(M, aut), tol=SPECTRUM_TOL)
    if not report.verdict:
        failures.append(f"{tag}: spectrum mismatch: {report.failures[0]}")

    N = compatible_matrix(rng, aut.perm, nonnegative=True)
    rho_full, rho_quot = spectral_radius_via_quotient(N, aut)
    if abs(rho_full - rho_quot) > RADIUS_TOL * max(1.0, rho_full):
        failures.append(f"{tag}: spectral radius {rho_full} vs quotient {rho_quot}")

    S = compatible_matrix(rng, aut.perm, symmetric=True)
    dec = decompose_automorphism(S, aut)
    tol = PAIRING_TOL * max(1.0, float(np.abs(S).max()))
    for block in dec.blocks:
        src = block.source
        if src["kind"] != "rotation" or 2 * src["omega_k"] >= src["order_n"]:
            continue
        j, k = src["omega_k"], src["order_n"] - src["omega_k"]
        # the conjugate root has the same order, so the same smallest cycle
        # length labels its block
        b = dec.block(kind="rotation", factor=src["factor"], omega_k=k).eigenvalues
        pairs, ua, ub = match_multisets(block.eigenvalues, b, tol)
        if ua or ub:
            failures.append(
                f"{tag}: factor {src['factor']} omega_{j}/omega_{k} spectra differ"
            )
    return failures


def run_spectrum_trials(count: int, seed: int = 0) -> list[str]:
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for trial in range(count):
        for line in spectrum_trial(rng):
            failures.append(f"trial {trial}: {line}")
    return failures


def synchronization_trial(rng, steps: int = 25) -> list[str]:
    """Synchronized start stays synchronized; a perturbed start is flagged
    at step 0."""
    failures: list[str] = []
    h, aut = random_instance(rng, n_max=14)
    orbs = orbits(aut)
    M = compatible_matrix(rng, aut.perm)
    tag = f"n={h.n} order={aut.order}"

    x0 = np.zeros(h.n, dtype=np.complex128)
    for cell in orbs.cells:
        x0[list(cell)] = rng.normal() + 1j * rng.normal()
    traj = iterate(M, x0, steps=steps, orbs=orbs)
    report = check_orbit_synchronization(traj)
    if not report.synchronized:
        failures.append(
            f"{tag}: lost synchronization at step {report.first_violation_step}"
        )

    moved = next(cell for cell in orbs.cells if len(cell) > 1)
    bad = x0.copy()
    bad[moved[0]] += 0.5 + max(1.0, float(np.abs(x0).max()))
    traj = iterate(M, bad, steps=steps, orbs=orbs)
    report = check_orbit_synchronization(traj)
    if report.synchronized or report.first_violation_step != 0:
        failures.append(
            f"{tag}: desynchronized start reported at step "
            f"{report.first_violation_step} instead of 0"
        )
    return failures


def run_synchronization_trials(count: int, seed: int = 0, steps: int = 25) -> list[str]:
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    for trial in range(count):
        for line in synchronization_trial(rng, steps=steps):
            failures.append(f"trial {trial}: {line}")
    return failures
