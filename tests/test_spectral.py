"""Rotation blocks, eigenvector lifts, and full decompositions."""

import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersym import (
    HypersymError,
    IncompatibleMatrixError,
    NotEquitableError,
    Permutation,
    as_rotation,
    blow_up,
    UnitPartition,
    build_matrix,
    check_commutation,
    compatibility_deviation,
    compatible_matrix,
    compute_units,
    decompose_automorphism,
    decompose_unit_automorphism,
    dense_spectrum,
    invariant_weights,
    lift_orbit_vector,
    lift_rotation_vector,
    match_multisets,
    orbit_quotient,
    orbits,
    permutation_with_type,
    random_instance,
    roots_of_unity,
    rotation_matrix,
    spectral_radius_via_quotient,
    unit_eigenvalues,
    unit_quotient,
    verify_decomposition,
)

from hypersym import matrices, spectral, unit_symmetry
from hypersym.spectral import residual_norms

from conftest import SQRT105


def omega():
    return roots_of_unity(3)[1].value


def test_roots_of_unity_exact():
    for n in (1, 2, 3, 5, 8, 12):
        roots = roots_of_unity(n)
        assert len(roots) == n
        for r in roots:
            assert abs(abs(r.value) - 1.0) <= 1e-15
            assert abs(r.value**n - 1.0) <= 1e-12
    r = roots_of_unity(5)[2]
    assert r.pow(7) == pytest.approx(np.exp(2j * np.pi * 14 / 5))
    # powers come from the reduced angle, not from repeated multiplication
    assert roots_of_unity(4)[1].pow(6) == roots_of_unity(4)[1].pow(2)
    assert roots_of_unity(12)[5].pow(12) == 1.0
    with pytest.raises(HypersymError):
        roots_of_unity(0)


def test_rotation_block_printed_values(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    rot = as_rotation(rot10_aut.perm)
    w = omega()
    R = rotation_matrix(A, rot, roots_of_unity(3)[1])
    expected = np.array([[-1, 2, -w], [2, -1, -w], [1 + w, 1 + w, 0]])
    assert np.allclose(R, expected, atol=1e-12)


def test_rotation_block_known_eigenpairs(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    rot = as_rotation(rot10_aut.perm)
    w = omega()
    R = rotation_matrix(A, rot, roots_of_unity(3)[1])
    for lam, x in [
        (-3.0, np.array([-1, 1, 0], complex)),
        (-1.0, np.array([w / 2, w / 2, 1], complex)),
        (2.0, np.array([-w, -w, 1], complex)),
    ]:
        assert np.linalg.norm(R @ x - lam * x) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_nontrivial_blocks_share_spectrum(k, rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    rot = as_rotation(rot10_aut.perm)
    R = rotation_matrix(A, rot, roots_of_unity(3)[k])
    vals = sorted(np.linalg.eigvals(R), key=lambda z: z.real)
    assert np.allclose(vals, [-3.0, -1.0, 2.0], atol=1e-9)


def test_trivial_block_eigenvalue_not_in_spectrum(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    rot = as_rotation(rot10_aut.perm)
    R1 = rotation_matrix(A, rot, roots_of_unity(3)[0])
    assert np.allclose(R1.real, [[2, 5, 2], [5, 2, 2], [2, 2, 0]], atol=1e-12)
    vals1 = sorted(np.linalg.eigvals(R1).real)
    assert vals1 == pytest.approx([-3.0, -1.0, 8.0], abs=1e-9)
    dense = dense_spectrum(A)
    assert min(abs(z - 8.0) for z in dense.eigenvalues) > 0.5


def test_quotient_eigenpairs(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    Q = orbit_quotient(A, orbits(rot10_aut))
    for lam, y in [
        (0.0, np.array([-2, 0, 0, 1], complex)),
        (-3.0, np.array([0, -1, 1, 0], complex)),
        ((7 - SQRT105) / 2, np.array([1.5, (7 - SQRT105) / 8, (7 - SQRT105) / 8, 1], complex)),
        ((7 + SQRT105) / 2, np.array([1.5, (7 + SQRT105) / 8, (7 + SQRT105) / 8, 1], complex)),
    ]:
        assert np.linalg.norm(Q @ y - lam * y) <= 1e-9


def test_rotation_lift_layout(rot10, rot10_aut):
    rot = as_rotation(rot10_aut.perm)
    w = roots_of_unity(3)[1]
    x = np.array([1.0, 2.0, 3.0], dtype=complex)
    full = lift_rotation_vector(x, rot, w, 10)
    assert full[0] == 0.0  # invariant vertex
    for i, comp in enumerate(rot.components):
        for k, v in enumerate(comp):
            assert full[v] == pytest.approx(w.pow(i) * x[k])


def test_lifted_rotation_vectors_are_eigenvectors(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    rot = as_rotation(rot10_aut.perm)
    w = omega()
    x = np.array([-1, 1, 0], dtype=complex)  # block eigenvector for -3
    full = lift_rotation_vector(x, rot, roots_of_unity(3)[1], 10)
    assert np.linalg.norm(A.entries @ full - (-3.0) * full) <= 1e-8


def test_orbit_lift_constant_on_orbits(rot10, rot10_aut):
    orbs = orbits(rot10_aut)
    y = np.array([5.0, 6.0, 7.0, 8.0], dtype=complex)
    full = lift_orbit_vector(y, orbs)
    for i, cell in enumerate(orbs.cells):
        assert all(full[v] == y[i] for v in cell)


def test_lifts_accept_column_matrices(rot10, rot10_aut, units18):
    # a (m, k) matrix lifts to the (n, k) matrix of its lifted columns
    rng = np.random.default_rng(0)
    rot = as_rotation(rot10_aut.perm)
    X = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    full = lift_rotation_vector(X, rot, roots_of_unity(3)[2], 10)
    for k in range(4):
        assert np.array_equal(full[:, k], lift_rotation_vector(X[:, k], rot, roots_of_unity(3)[2], 10))
    orbs = orbits(rot10_aut)
    Y = rng.normal(size=(4, 2)).astype(complex)
    full = lift_orbit_vector(Y, orbs)
    for k in range(2):
        assert np.array_equal(full[:, k], lift_orbit_vector(Y[:, k], orbs))
    units = compute_units(units18)
    Z = rng.normal(size=(8, 3)).astype(complex)
    full = blow_up(Z, units)
    for k in range(3):
        assert np.array_equal(full[:, k], blow_up(Z[:, k], units))
    with pytest.raises(HypersymError, match="does not match"):
        lift_orbit_vector(np.zeros((3, 2)), orbs)


def test_decompose_rotation_complete(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    rot = as_rotation(rot10_aut.perm)
    dec = decompose_automorphism(A, rot.underlying)
    assert sum(b.order for b in dec.blocks) == 10
    assert len(dec.lifted) == 10
    assert not dec.skipped
    report = verify_decomposition(A, dec)
    assert report.verdict
    assert report.max_match_error <= 1e-8
    assert all(p.residual <= 1e-8 * max(1.0, np.abs(A.entries).max()) for p in dec.lifted)


def test_decompose_automorphism_matches_rotation_route(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    via_aut = decompose_automorphism(A, rot10_aut)
    via_rot = decompose_automorphism(A, as_rotation(rot10_aut.perm).underlying)
    a = sorted(via_aut.eigenvalues(), key=lambda z: (z.real, z.imag))
    b = sorted(via_rot.eigenvalues(), key=lambda z: (z.real, z.imag))
    assert np.allclose(a, b, atol=1e-10)


def test_block_lookup(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    dec = decompose_automorphism(A, rot10_aut)
    b = dec.block(kind="rotation", omega_k=1)
    assert b.order == 3
    q = dec.block(kind="quotient")
    assert q.order == 4
    with pytest.raises(KeyError):
        dec.block(kind="rotation")  # two omega blocks match


def test_distinct_omega_lifts_are_orthogonal(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    dec = decompose_automorphism(A, rot10_aut)
    pairs = list(dec.lifted)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            a, b = pairs[i], pairs[j]
            if a.source == b.source:
                continue
            inner = abs(np.vdot(a.vector, b.vector))
            assert inner <= 1e-8 * np.linalg.norm(a.vector) * np.linalg.norm(b.vector)


def test_incompatible_matrix_refused(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r").entries.copy()
    A[0, 1] += 1.0
    with pytest.raises(IncompatibleMatrixError, match="deviates"):
        decompose_automorphism(A, as_rotation(rot10_aut.perm).underlying)
    with pytest.raises(IncompatibleMatrixError, match="deviates"):
        decompose_automorphism(A, rot10_aut)


def test_nan_tolerance_and_nan_entry_are_refused(rot10, rot10_aut):
    # every comparison with NaN is false, so each gate must be written to
    # pass only when dev <= tol holds
    base = build_matrix(rot10, "adjacency_r").entries
    A = base.copy()
    A[1, 0] += 0.5
    with pytest.raises(IncompatibleMatrixError, match="deviates"):
        decompose_automorphism(A, rot10_aut, tol=float("nan"))
    with pytest.raises(NotEquitableError):
        orbit_quotient(base, orbits(rot10_aut), tol=float("nan"))
    A = base.copy()
    A[1, 0] = np.nan
    with pytest.raises(IncompatibleMatrixError, match="deviates by nan"):
        decompose_automorphism(A, rot10_aut)
    with pytest.raises(IncompatibleMatrixError, match="deviates by nan"):
        spectral_radius_via_quotient(A, rot10_aut)


def test_decompose_tolerance_reaches_the_quotient_check(rot10, rot10_aut):
    # a matrix accepted as compatible within tol is not refused by the
    # quotient's equitable check: with columns 2 and 5 (one orbit) each
    # entry deviates by 0.6 tol, but row 1 sums 1.2 tol more into that
    # orbit than rows 4 and 7 do
    base = build_matrix(rot10, "adjacency_r").entries
    for cols in ([0], [2, 5]):
        A = base.copy()
        A[1, cols] += 0.6e-6
        dec = decompose_automorphism(A, rot10_aut, tol=1e-6)
        assert verify_decomposition(A, dec, tol=1e-5).verdict
        rho, rho_quotient = spectral_radius_via_quotient(A, rot10_aut, tol=1e-6)
        assert abs(rho - rho_quotient) <= 1e-5
    A[1, 0] += 1e-2
    with pytest.raises(IncompatibleMatrixError, match="deviates"):
        decompose_automorphism(A, rot10_aut, tol=1e-6)


def test_quotient_tolerance_spans_half_a_cycle():
    # every row of the 4-cycle's one orbit drifts by a multiple of d from
    # its predecessor's: entries deviate by d <= tol from their images, but
    # row 2 is two steps from row 0 and sums 8 d more over the 4 columns
    rng = np.random.default_rng(7)
    p = Permutation((1, 2, 3, 0))
    d = 0.9e-6
    A = compatible_matrix(rng, p) + d * np.array([0, 1, 2, 1])[:, None]
    dec = decompose_automorphism(A, p, tol=1e-6)
    assert verify_decomposition(A, dec, tol=1e-5).verdict
    A[2, 0] += 1e-2
    with pytest.raises(IncompatibleMatrixError, match="deviates"):
        decompose_automorphism(A, p, tol=1e-6)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=-12, max_value=12))
@settings(max_examples=80, deadline=None)
def test_scaled_invariant_matrices_are_never_refused_as_not_equitable(seed, k):
    # compatibility is the decomposition's only symmetry check: an exactly
    # invariant matrix scaled by 10^k may be refused as incompatible (that
    # tolerance is absolute), never by the quotient
    rng = np.random.default_rng(seed)
    h, aut = random_instance(rng)
    M = build_matrix(h, "general_laplacian", weights=invariant_weights(rng, h, aut))
    try:
        decompose_automorphism(M.entries * 10.0**k, aut)
    except IncompatibleMatrixError:
        pass


@pytest.mark.parametrize("symmetric", [False, True])
def test_a_block_beyond_the_float_range_is_refused(symmetric):
    # the w = -1 block of this compatible matrix sums 1e308 and -(-1e308)
    # into an entry beyond the largest float: eig would refuse it with a
    # LinAlgError and eigh return NaN, so it is refused by name first
    A = np.array([[1e308, -1e308, 1.0], [-1e308, 1e308, 1.0], [2.0, 2.0, 0.0]])
    if symmetric:
        A[2, :2] = 1.0
    with np.errstate(over="ignore"), pytest.raises(HypersymError, match="'omega_k': 1, 'order_n': 2} has an entry beyond"):
        decompose_automorphism(A, Permutation((1, 0, 2)))


def test_a_cell_sum_beyond_the_float_range_is_refused():
    # every entry of this compatible matrix is finite, but its cell sums
    # overflow: under the infinite tolerance the quotient compares no sums,
    # so its inf entries reach the block check, which names them, quietly;
    # the spectral radius refuses the quotient the same way. No solver is
    # handed a matrix with an entry beyond the float range
    p = Permutation((1, 2, 3, 0, 5, 4))
    A = np.abs(compatible_matrix(np.random.default_rng(1), p).real) * 1.7e308
    assert np.isfinite(A).all()
    solved = []

    def spy(fn):
        def wrapped(X):
            solved.append(bool(np.isfinite(X).all()))
            return fn(X)

        return wrapped

    with warnings.catch_warnings(), patch.object(np.linalg, "eig", spy(np.linalg.eig)), patch.object(
        np.linalg, "eigh", spy(np.linalg.eigh)
    ):
        warnings.simplefilter("error")
        for refuse in (decompose_automorphism, spectral_radius_via_quotient):
            with pytest.raises(HypersymError, match=r"^block \{'kind': 'quotient'\} has an entry beyond the float range$"):
                refuse(A, p)
    assert all(solved)


def test_an_infinite_tolerance_refuses_only_a_nan_sum():
    # cells {0, 1} and {2}: row 1 sums to inf over cell 1, which the
    # infinite tolerance lets through; it sums only the representatives'
    # rows 0 and 2, so a NaN sum is refused only in one of them, named as
    # the representative against itself
    orbs = orbits(Permutation((1, 0, 2)))
    A = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, np.inf], [1.0, 1.0, 0.0]])
    assert orbit_quotient(A, orbs, np.inf)[0, 1] == 1.0
    with pytest.raises(NotEquitableError):
        orbit_quotient(A, orbs)
    A[1, :2] = [np.inf, -np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert orbit_quotient(A, orbs, np.inf).tolist() == [[1.0, 1.0], [2.0, 0.0]]
    A[0, :2] = [np.inf, -np.inf]
    with warnings.catch_warnings(), pytest.raises(NotEquitableError, match=r"rows 0 and 0 of cell 0 sum to \(nan\+0j\) and \(nan\+0j\) over cell 0"):
        warnings.simplefilter("error")
        orbit_quotient(A, orbs, np.inf)


@pytest.mark.parametrize(
    "entry, expected",
    [
        (lambda A, p, units: compatibility_deviation(A, p), (0.0, (0, 0))),
        (lambda A, p, units: check_commutation(A, p), 0.0),
        (lambda A, p, units: matrices._balance(A, np.ones(0)).shape, (0,)),
        (lambda A, p, units: decompose_automorphism(A, p).eigenvalues().shape, (0,)),
        (lambda A, p, units: verify_decomposition(A, decompose_automorphism(A, p)).verdict, True),
        (lambda A, p, units: spectral_radius_via_quotient(A, p), (0.0, 0.0)),
        (lambda A, p, units: orbit_quotient(A, orbits(p), np.inf).shape, (0, 0)),
        (lambda A, p, units: unit_symmetry.profile_unit_compatibility(A, units).rows.shape, (0, 0)),
        (lambda A, p, units: unit_quotient(A, units).shape, (0, 0)),
        (lambda A, p, units: unit_eigenvalues(A, units).structures, ()),
        (lambda A, p, units: unit_symmetry._unit_lifts(A, units), []),
    ],
    ids=["deviation", "commutation", "balance", "decompose", "verify", "radii", "quotient",
         "unit profile", "unit quotient", "unit eigenvalues", "unit lifts"],
)
def test_the_empty_matrix_gives_empty_results(entry, expected):
    # as dense_spectrum gives its empty report: no row-blocked pass divides
    # by the order
    A = np.zeros((0, 0))
    assert dense_spectrum(A).eigenvalues.shape == (0,)
    assert entry(A, Permutation(()), UnitPartition(units=(), unit_of=(), n=0)) == expected


def test_mixed_coprime_orders_decompose():
    # 2-cycle and 3-cycle: factor orders are coprime, every factor is a
    # power of the whole permutation, so per-factor blocks are sound
    rng = np.random.default_rng(5)
    p = Permutation((1, 0, 3, 4, 2, 5, 6))
    M = compatible_matrix(rng, p)
    dec = decompose_automorphism(M, p)
    sources = [b.source for b in dec.blocks]
    assert {"kind": "rotation", "factor": 0, "omega_k": 1, "order_n": 2} in sources
    assert {"kind": "rotation", "factor": 1, "omega_k": 1, "order_n": 3} in sources
    assert {"kind": "quotient"} in sources
    assert verify_decomposition(M, dec).verdict


def test_non_coprime_orders_decompose():
    # 2-cycle and 4-cycle: omega = -1 covers both cycles, omega = +-i only the
    # 4-cycle; the blocks carry the whole spectrum although M is not
    # compatible with the 2-cycle factor on its own
    rng = np.random.default_rng(6)
    p = Permutation((1, 0, 3, 4, 5, 2))
    M = compatible_matrix(rng, p)
    dec = decompose_automorphism(M, p)
    assert [(b.source, b.order) for b in dec.blocks] == [
        ({"kind": "rotation", "factor": 0, "omega_k": 1, "order_n": 2}, 2),
        ({"kind": "rotation", "factor": 1, "omega_k": 1, "order_n": 4}, 1),
        ({"kind": "rotation", "factor": 1, "omega_k": 3, "order_n": 4}, 1),
        ({"kind": "quotient"}, 2),
    ]
    dense = dense_spectrum(M).eigenvalues
    pairs, extra, missing = match_multisets(dec.eigenvalues(), dense, tol=1e-9)
    assert len(pairs) == 6 and not extra and not missing
    assert verify_decomposition(M, dec).verdict


@pytest.mark.parametrize(
    "lengths, n, seed",
    [((2, 4, 4), 14, 31), ((4, 6), 12, 32), ((2, 3, 6), 13, 33), ((2, 2, 4, 8), 20, 34)],
    ids=["2-4-4", "4-6", "2-3-6", "2-2-4-8"],
)
def test_non_coprime_cycle_types_verify(lengths, n, seed):
    rng = np.random.default_rng(seed)
    p = permutation_with_type(rng, n, lengths)
    for M in (compatible_matrix(rng, p), compatible_matrix(rng, p, symmetric=True)):
        dec = decompose_automorphism(M, p)
        assert sum(b.order for b in dec.blocks) == n
        assert len(dec.lifted) + len(dec.skipped) == n
        report = verify_decomposition(M, dec)
        assert report.verdict, report.failures
    # negative control: one broken entry on a moved vertex is refused
    u = next(c[0] for c in p.cycles() if len(c) > 1)
    bad = M.copy()
    bad[u, p(u)] += 1e-3
    with pytest.raises(IncompatibleMatrixError, match="deviates"):
        decompose_automorphism(bad, p)


def test_empty_invariant_set_quotient_equals_trivial_block():
    rng = np.random.default_rng(8)
    p = Permutation((1, 2, 0, 4, 5, 3))  # two 3-cycles, X empty
    M = compatible_matrix(rng, p)
    rot = as_rotation(p)
    assert rot.order_n * rot.n_cycles == p.n  # no fixed vertex
    Q = orbit_quotient(M, orbits(p))
    R1 = rotation_matrix(M, rot, roots_of_unity(3)[0])
    assert np.allclose(Q, R1, atol=1e-12)
    dec = decompose_automorphism(M, rot.underlying)
    assert verify_decomposition(M, dec).verdict


def test_spectral_radius_via_quotient_nonnegative(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    rho_full, rho_quot = spectral_radius_via_quotient(A, rot10_aut)
    assert rho_full == pytest.approx((7 + SQRT105) / 2, abs=1e-9)
    assert abs(rho_full - rho_quot) <= 1e-8


def test_match_multisets_behaviour():
    pairs, ua, ub = match_multisets([1.0, 2.0], [2.0 + 1e-12, 1.0 - 1e-12], tol=1e-9)
    assert len(pairs) == 2 and not ua and not ub
    pairs, ua, ub = match_multisets([1.0], [5.0], tol=1e-9)
    assert not pairs and ua == [1.0] and ub == [5.0]
    # multiplicity is respected: two claims cannot share one target
    pairs, ua, ub = match_multisets([1.0, 1.0], [1.0, 9.0], tol=1e-9)
    assert len(pairs) == 1 and ua == [1.0] and ub == [9.0]


def test_verify_rejects_corrupted_decomposition(rot10, rot10_aut):
    A = build_matrix(rot10, "adjacency_r")
    dec = decompose_automorphism(A, rot10_aut)
    bad_blocks = list(dec.blocks)
    b0 = bad_blocks[0]
    shifted = type(b0)(
        source=b0.source,
        order=b0.order,
        eigenvalues=b0.eigenvalues + 0.5,
    )
    bad_blocks[0] = shifted
    bad = type(dec)(n=dec.n, blocks=tuple(bad_blocks), lifts=dec.lifts, skipped=dec.skipped)
    report = verify_decomposition(A, bad)
    assert not report.verdict
    assert any("unmatched" in f for f in report.failures)


@pytest.mark.parametrize("route", ["automorphism", "unit"])
def test_lifted_pairs_are_the_columns_of_the_block_records(route, rot10, rot10_aut, units18, units18_ua):
    if route == "automorphism":
        dec = decompose_automorphism(build_matrix(rot10, "transition"), rot10_aut)
    else:
        dec = decompose_unit_automorphism(build_matrix(units18, "unit_normalized"), units18_ua)
    pairs = iter(dec.lifted)
    assert dec.lifted is dec.lifted  # built once
    for lift in dec.lifts:
        for j in range(len(lift.values)):
            p = next(pairs)
            assert type(p.value) is complex and p.value == lift.values[j]
            assert type(p.residual) is float and p.residual == lift.residuals[j]
            assert p.source is lift.source
            assert p.vector.dtype == lift.vectors.dtype and p.vector.flags.c_contiguous
            assert np.array_equal(p.vector, lift.vectors[:, j])
    assert next(pairs, None) is None
    assert sum(len(lift.values) for lift in dec.lifts) == dec.n
    # a real block keeps real values in its record, complex in its block
    real = [lift for lift in dec.lifts if not np.iscomplexobj(lift.values)]
    assert real and all(lift.residuals.dtype == np.float64 for lift in dec.lifts)
    assert all(b.eigenvalues.dtype == np.complex128 for b in dec.blocks)


def test_residual_norms_scale_only_the_columns_whose_squares_overflow():
    # column 0 is ordinary and keeps np.linalg.norm's bits; column 1's
    # squares overflow, so it is taken again scaled, to its finite norm
    V = np.array([[0.6, 1.0], [0.8, 0.0]])
    AV = np.array([[1.5, 1e305], [-2.0, 1e305]])
    values = np.array([2.0, 0.0])
    with np.errstate(all="raise"):
        got = residual_norms(AV, V, values)
    assert got[0] == np.linalg.norm(AV[:, 0] - 2.0 * V[:, 0])
    assert got[1] == pytest.approx(1e305 * np.sqrt(2.0), rel=1e-15)
    # a residual beyond the largest float, or one that is not finite, stays so
    AV[:, 1] = [1.5e308, 1.5e308]
    assert np.isinf(residual_norms(AV, V, values)[1])
    AV[0, 1] = np.nan
    assert np.isnan(residual_norms(AV, V, values)[1])
    # a stack gives each matrix's norms, bit for bit, an ordinary matrix
    # beside ones with an overflowing column
    AV = np.stack([[[1.5, 1e305], [-2.0, 1e305]], [[1.5, 0.5], [-2.0, 0.25]], [[1e305, 1.5], [1e305, -2.0]]])
    V, values = np.stack([V, V, V[:, ::-1]]), np.stack([values, values, values[::-1]])
    got = residual_norms(AV, V, values)
    assert [row.tobytes() for row in got] == [residual_norms(*case).tobytes() for case in zip(AV, V, values)]


def test_hermitian_form_halves_before_it_adds():
    # a balanced block with entries near the largest float: S + S^H would
    # overflow, half S plus its half transpose does not, and for ordinary
    # floats halving first gives the same bits
    A = np.array([[0.0, 0.7e308], [1.4e308, 0.0]])
    d = np.array([2.0, 1.0])  # diag(d) A is symmetric; the form's off-diagonal is 0.99e308
    with np.errstate(all="raise"):
        vals, _ = spectral._eig_sorted(A, d)
    assert vals == pytest.approx([-0.7e308 * np.sqrt(2.0), 0.7e308 * np.sqrt(2.0)], rel=1e-15)
    rng = np.random.default_rng(3)
    B = rng.normal(size=(6, 6))
    e = rng.uniform(0.5, 2.0, size=6)
    S = spectral._hermitian_form(B, e)[0]
    T = np.sqrt(e)[:, None] * B / np.sqrt(e)
    assert S.tobytes() == ((T + T.T) * 0.5).tobytes()
