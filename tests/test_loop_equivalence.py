"""The vectorised quotients, checks, matching and synchronization log, the
report encoder and the CSR hypergraph code, against their loop references.

Witness tuples, error messages, matchings and synchronization verdicts must
be identical to those of loop_reference.py. Quotients must be bitwise equal
on integer-valued matrices and within 1e-12 * max(1, ||M||_inf) otherwise;
the synchronization log, whose cell means are summed in another order, within
1e-13 * max(1, max |x_k|). Each suite draws positive inputs (equitable or
unit-compatible matrices, synchronized starts) and negative controls
(perturbed matrices, desynchronized starts). The encoder must give the
reference's bytes on every document and its error text on every value it
refuses, and its "%.17g" kernel the per-float "%.17g" texts, in long double
and with the tables of a platform without it (a kernel with no near-tie
margin is the negative control). The hypergraph built from CSR arrays must
expose the reference's attributes and refuse every malformed document with
its text; its matrices must be bitwise equal for the unweighted kinds and
within 1e-12 * max(1, ||M||_inf) for the others, its units, covers and edge
maps equal, and its symmetry refusals word for word the reference's."""

import sys
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from conftest import ROT10_DOC, ROT10_MAP, UNITS18_DOC, UNITS18_UNIT_MAP
from hypersym import (
    MATRIX_KINDS,
    SYNC_TOL,
    DocumentError,
    Hypergraph,
    HypersymError,
    NotEquitableError,
    NotUnitCompatibleError,
    Permutation,
    WeightFunctions,
    build_matrix,
    check_orbit_synchronization,
    compatible_matrix,
    compute_units,
    edge_unit_covers,
    equitable_witness,
    iterate,
    match_multisets,
    orbit_quotient,
    orbits,
    permutation_with_type,
    profile_unit_compatibility,
    random_instance,
    roots_of_unity,
    unit_quotient,
    validate_automorphism,
    validate_unit_automorphism,
)
from hypersym import LiftedBlock, cli, jsonutil, spectral, unit_symmetry
from hypersym.dynamics import _sync_log
from hypersym.matrices import WEIGHTED_KINDS
from hypersym.symmetry import EQUITABLE_TOL, OrbitPartition, compatibility_deviation, rotation_decomposition
from hypersym.unit_symmetry import COMPAT_TOL

QUOTIENT_RTOL = 1e-12
SYNC_RTOL = 1e-13
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _values(rng, shape, integer):
    if integer:
        return (rng.integers(-3, 4, size=shape) + 1j * rng.integers(-3, 4, size=shape)).astype(
            np.complex128
        )
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _norm_inf(A):
    return max(1.0, float(np.abs(A).sum(axis=1).max()))


def _assert_quotients_equal(got, want, A, integer):
    if integer:
        assert np.array_equal(got, want)
    else:
        assert np.abs(got - want).max(initial=0.0) <= QUOTIENT_RTOL * _norm_inf(A)


def _orbit_summed(rng, cells, integer):
    """A matrix compatible with the permutation cycling each cell in the
    given order, so the cells form an equitable partition: the sum of a
    random draw over each position orbit (u, v) -> (f(u), f(v))."""
    n = sum(len(c) for c in cells)
    mapping = [0] * n
    for cell in cells:
        for t, v in enumerate(cell):
            mapping[v] = cell[(t + 1) % len(cell)]
    perm = Permutation(tuple(mapping))
    idx = np.arange(n)
    R = _values(rng, (n, n), integer)
    M = np.zeros((n, n), dtype=np.complex128)
    for _ in range(perm.order):
        M += R[np.ix_(idx, idx)]
        idx = np.array([mapping[v] for v in idx])
    return M


@st.composite
def partitioned_matrices(draw):
    """(A, cells, integer): random cells in random order, some singletons,
    and a random, equitable or perturbed-equitable matrix."""
    n = draw(st.integers(min_value=1, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n))
    rng = np.random.default_rng(draw(seeds))
    labels = rng.integers(0, k, size=n)
    cells = [[int(v) for v in rng.permutation(np.flatnonzero(labels == c))] for c in range(k)]
    cells = [tuple(c) for c in cells if c]
    cells = [cells[i] for i in rng.permutation(len(cells))]
    integer = draw(st.booleans())
    shape = draw(st.sampled_from(["random", "equitable", "perturbed"]))
    if shape == "random":
        A = _values(rng, (n, n), integer)
    else:
        A = _orbit_summed(rng, cells, integer)
        if shape == "perturbed":
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            A[u, v] += 1.0 if integer else rng.uniform(1e-3, 1.0)
    return A, cells, integer


def _assert_witnesses_equal(got, want, A, cells, integer):
    """Integer matrices: identical tuples. Otherwise the cell sums may differ
    in the last bits (another summation order), so the sums agree within
    the quotient tolerance, and the second row may be any row of the cell
    whose deviation ties with the largest one within that tolerance."""
    if want is None or integer:
        assert got == want
        return
    assert got is not None
    i, u, u2, j, s1, s2 = got
    assert (i, u, j) == (want[0], want[1], want[3])
    tol = QUOTIENT_RTOL * _norm_inf(A)
    assert abs(s1 - want[4]) <= tol and abs(s2 - A[u2, list(cells[j])].sum()) <= tol
    sums = A[np.ix_(cells[i], cells[j])].sum(axis=1)
    dev = np.abs(sums - sums[0])
    assert dev[list(cells[i]).index(u2)] >= dev.max() - 2 * tol


@given(partitioned_matrices())
@settings(max_examples=300, deadline=None)
def test_equitable_witness_matches_loops(case):
    A, cells, integer = case
    want = ref.equitable_witness(A, cells, EQUITABLE_TOL)
    _assert_witnesses_equal(equitable_witness(A, cells), want, A, cells, integer)


@given(partitioned_matrices())
@settings(max_examples=300, deadline=None)
def test_orbit_quotient_matches_loops(case):
    A, cells, integer = case
    try:
        want = ref.orbit_quotient(A, cells, EQUITABLE_TOL)
    except NotEquitableError as exc:
        with pytest.raises(NotEquitableError) as got:
            orbit_quotient(A, cells)
        if integer:
            assert str(got.value) == str(exc)
        return
    _assert_quotients_equal(orbit_quotient(A, cells), want, A, integer)


# the refusal text of each unit-compatibility condition, in the order the
# conditions are checked
UNIT_CONDITIONS = (
    "diagonal entries differ",
    "off-diagonal entries within the unit",
    "rows toward outside vertex",
    "columns from outside vertex",
)


def _unit_case(seed, isolated, integer, big=False, condition=None, perturbed=0):
    """(A, units, integer, condition): a hypergraph whose base vertices (1-5,
    or 40-80 when big, so that the unit checks and unit pairs take several
    blocks) are copied 1-3 times (copies share a star, so they form one
    unit), with isolated vertices (one unit), and a unit-compatible matrix.
    A condition (0-3, as in UNIT_CONDITIONS) is broken at one entry of the
    first unit, which then has two members or more and an outside vertex;
    otherwise up to `perturbed` random entries are perturbed."""
    rng = np.random.default_rng(seed)
    base = int(rng.integers(40, 81) if big else rng.integers(1, 6))
    copies = [int(c) for c in rng.integers(1, 4, size=base)]
    if condition is not None:
        copies[0], isolated = max(copies[0], 2), max(isolated, 1)
    labels = [f"{b}.{c}" for b in range(base) for c in range(copies[b])]
    labels += [f"x{i}" for i in range(isolated)]
    edges = []
    for j in range(int(rng.integers(1, base // 2 + 5))):
        members = [b for b in range(base) if rng.random() < 0.5] or [0]
        if condition is not None and j == 0 and 0 not in members:
            members.insert(0, 0)
        edges.append((f"e{j}", [f"{b}.{c}" for b in members for c in range(copies[b])]))
    seen, unique = set(), []
    for eid, members in edges:
        if frozenset(members) not in seen:
            seen.add(frozenset(members))
            unique.append((eid, members))
    units = compute_units(Hypergraph(labels, unique))
    n, q = units.n, len(units)
    d, r, s = _values(rng, q, integer), _values(rng, q, integer), _values(rng, (q, q), integer)
    unit_of = units.unit_of
    A = np.where(unit_of[:, None] == unit_of, r[unit_of][:, None], s[np.ix_(unit_of, unit_of)])
    np.fill_diagonal(A, d[unit_of])
    delta = 1.0 if integer else rng.uniform(1e-3, 1.0)
    if condition is not None:
        # vertex 0 ("0.0") and 1 ("0.1") lead the first unit, the last
        # vertex (an isolated one) is outside it
        entry = [(1, 1), (1, 0), (1, n - 1), (n - 1, 1)][condition]
        A[entry] += delta
    for _ in range(perturbed if condition is None else 0):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        A[u, v] += 1.0 if integer else rng.uniform(1e-3, 1.0)
    return A, units, integer, condition


@st.composite
def unit_matrices(draw):
    """A _unit_case, big one time in four."""
    return _unit_case(
        draw(seeds),
        draw(st.integers(min_value=0, max_value=3)),
        draw(st.booleans()),
        draw(st.sampled_from([False, False, False, True])),
        draw(st.sampled_from([None, None, 0, 1, 2, 3])),
        draw(st.integers(min_value=0, max_value=2)),
    )


@given(unit_matrices())
@example(_unit_case(1, 0, True, condition=0))
@example(_unit_case(2, 0, False, condition=1))
@example(_unit_case(3, 2, True, big=True, condition=2))
@example(_unit_case(4, 1, False, big=True, condition=3))
@settings(max_examples=300, deadline=None)
def test_unit_profile_and_quotient_match_loops(case):
    A, units, integer, condition = case
    try:
        d, r, rows = ref.profile_unit_compatibility(A, units, COMPAT_TOL)
    except NotUnitCompatibleError as exc:
        assert condition is None or f"unit {units.keys[0]!r}: {UNIT_CONDITIONS[condition]}" in str(exc)
        for fn in (profile_unit_compatibility, unit_quotient):
            with pytest.raises(NotUnitCompatibleError) as got:
                fn(A, units)
            assert str(got.value) == str(exc)
        return
    assert condition is None
    profile = profile_unit_compatibility(A, units)
    assert (profile.d, profile.r) == (d, r)
    assert np.array_equal(profile.rows, rows)
    _assert_quotients_equal(unit_quotient(A, units), ref.unit_quotient(A, units, COMPAT_TOL), A, integer)


@given(unit_matrices(), st.booleans(), st.booleans())
@example(_unit_case(5, 3, False, big=True), True, True)
@settings(max_examples=200, deadline=None)
def test_unit_pairs_match_loops(case, real, noisy):
    """The unit pairs (values, vectors, residuals) are bitwise those of the
    per-unit loop, over real and complex matrices, singleton units, the unit
    of the isolated vertices and units of three or more. Noise on every
    entry makes the residual columns dense, so that their norms depend on
    the order of summation."""
    A, units = case[:2]
    if noisy:
        A = A + np.random.default_rng(units.n).normal(size=A.shape)
    if real:
        A = np.ascontiguousarray(A.real)
    got = unit_symmetry._unit_lifts(A, units)
    want = ref.unit_lifts(A, units)
    assert [i for i, _, _ in got] == [i for i, *_ in want]
    for (i, lift, block), (_, values, vectors, residuals) in zip(got, want):
        assert lift.source == block.source == {"kind": "unit", "unit": units.keys[i]}
        for x, y in ((lift.values, values), (lift.vectors, vectors), (lift.residuals, residuals)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert block.order == len(values)
        assert block.eigenvalues.tobytes() == values.astype(np.complex128).tobytes()


@given(
    st.sampled_from([(2, 4, 4), (4, 6), (2, 3, 6), (3, 6), (4,), (12,)]),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["real", "complex", "integer", "complex integer"]),
    st.sampled_from([(), (3,)]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_rotation_gather_and_lift_match_loops(lengths, fixed, matrix, columns, complex_x, data):
    """The rotation columns from the cycle sums are the per-component loop's
    ordered sum in the same dtype: bitwise for an integer-valued matrix at
    the quarter-turn roots +-1 and +-i, where every product and partial sum
    is exact, and otherwise within 1e-12 * max(1, ||A||_inf). The
    one-scatter lift is bitwise the loop's. Coupling blocks (rows is not
    cols) between non-coprime cycle lengths, fixed points, a real x under a
    complex root, complex matrices."""
    rng = np.random.default_rng(data.draw(seeds))
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    draw = (lambda: rng.integers(-9, 10, size=(p.n, p.n)).astype(float)) if "integer" in matrix else (lambda: rng.normal(size=(p.n, p.n)))
    A = draw() + 1j * draw() if "complex" in matrix else draw()
    factors = rotation_decomposition(p)
    rows, cols = data.draw(st.sampled_from(factors)), data.draw(st.sampled_from(factors))
    omega = data.draw(st.sampled_from(roots_of_unity(cols.order_n)))
    got, want = spectral._rotation_columns(A, rows, cols, omega), ref.rotation_columns(A, rows, cols, omega)
    assert got.dtype == want.dtype and got.shape == want.shape
    if "integer" in matrix and 4 * omega.k % omega.n == 0:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, float(np.abs(A).sum(axis=1).max()))
    x = rng.normal(size=(cols.n_cycles, *columns))
    if complex_x:
        x = x + 1j * rng.normal(size=x.shape)
    got, want = spectral.lift_rotation_vector(x, cols, omega, p.n), ref.lift_rotation_vector(x, cols, omega, p.n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _lifted_cases(rng, p, matrix, compatible, scale):
    """(A, factors, characters): a matrix on p's index set, real or
    complex, p-compatible or not, scaled; p's rotation factors and block
    characters."""
    if compatible:
        A = compatible_matrix(rng, p)
        A = A.real.copy() if matrix == "real" else A
    else:
        A = rng.normal(size=(p.n, p.n)) + (1j * rng.normal(size=(p.n, p.n)) if matrix == "complex" else 0)
    A = A * scale
    factors = rotation_decomposition(p)
    return A, factors, spectral._characters(factors)


def _block_order(parts, orbs):
    return sum(rot.n_cycles for rot, _ in parts) if parts else len(orbs)


@given(
    st.sampled_from([(12,), (2, 4, 4), (3, 6), (4, 6)]),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(["real", "complex"]),
    st.booleans(),
    st.sampled_from([1.0, 1e-3, 1e6]),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    seeds,
)
@settings(max_examples=200, deadline=None)
def test_layout_products_match_the_product_with_the_lift(lengths, fixed, matrix, compatible, scale, k, complex_x, seed):
    """A lift(X) from the cycle layout is the product of the whole matrix
    with the lifted vectors, within 1e-12 * max(1, ||A||_inf), in the same
    dtype, for every block, the conj(w) blocks and the quotient among them:
    non-coprime and mixed cycle types, fixed points, real and complex
    matrices and vectors, and matrices the permutation is not compatible
    with, which the layout does not assume."""
    rng = np.random.default_rng(seed)
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    A, factors, characters = _lifted_cases(rng, p, matrix, compatible, scale)
    orbs = orbits(p)
    bound = 1e-12 * max(1.0, float(np.abs(A).sum(axis=1).max()))
    blocks = {}
    for i, (_, parts, _) in enumerate(characters):
        X = rng.normal(size=(_block_order(parts, orbs), k))
        blocks[i] = parts, X + 1j * rng.normal(size=X.shape) if complex_x else X
    for i, got in spectral._lifted_products(A, orbs, factors, blocks).items():
        want = ref.lifted_product(A, blocks[i][1], blocks[i][0], orbs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.abs(got - want).max() <= bound


@pytest.mark.parametrize("lengths", [(12,), (2, 4, 4), (3, 6), (4, 6)], ids=str)
@pytest.mark.parametrize("fixed", [0, 2])
@pytest.mark.parametrize("matrix", ["real", "complex"])
def test_a_perturbed_entry_shows_in_the_layout_residuals(lengths, fixed, matrix):
    """Negative control: one entry (u, v) of a compatible matrix changed
    after it was decomposed. Against the changed matrix, the layout's
    lifted residuals exceed LIFT_RESIDUAL_TOL * scale on every block whose
    lifted vectors reach v (the quotient, and the blocks holding v's
    factor) and stay within it on the others, as the product with the
    lift gives them."""
    rng = np.random.default_rng(sum(lengths) + fixed)
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    A, factors, characters = _lifted_cases(rng, p, matrix, True, 1.0)
    dec = spectral.decompose_automorphism(A, p)
    assert not dec.skipped
    orbs = orbits(p)
    for touched in [*factors, *([None] if fixed else [])]:
        v = int(touched.u0[-1]) if touched is not None else int(orbs.reps[orbs.sizes == 1][0])
        B = A.copy()
        B[(v + 1) % p.n, v] += 1.0
        tol = spectral.LIFT_RESIDUAL_TOL * max(1.0, float(np.abs(B).sum(axis=1).max()))
        # each block's vectors, read back off its lift at the cycle
        # representatives (every orbit's first member for the quotient)
        blocks = {
            i: (parts, lift.vectors[np.concatenate([rot._index[0] for rot, _ in parts]) if parts else orbs.reps])
            for i, ((_, parts, _), lift) in enumerate(zip(characters, dec.lifts))
        }
        products = spectral._lifted_products(B, orbs, factors, blocks)
        for i, ((_, parts, _), lift) in enumerate(zip(characters, dec.lifts)):
            X = blocks[i][1]
            res = spectral.residual_norms(products[i], lift.vectors, lift.values)
            want = spectral.residual_norms(ref.lifted_product(B, X, parts, orbs), lift.vectors, lift.values)
            assert np.allclose(res, want, rtol=0, atol=1e-12)
            if not parts or any(rot is touched for rot, _ in parts):
                assert res.max() > tol
            else:
                assert res.max() <= tol


@st.composite
def block_stacks(draw):
    """(blocks, e): 1-6 blocks of one order b (1-12), as _decompose stacks
    them, each real or complex with the stack, and e their symmetrizer:
    None (eig), constant or varying (eigh of the Hermitian form). Under a
    symmetrizer e each block is diag(e)^-1 H for a Hermitian H; without, a
    block is Hermitian or general at random, so dgeev gives some blocks of
    one stack all-real values and others not. A diagonal block's vectors
    meet the phase convention as solved, so some blocks of a stack keep
    their vectors and others are scaled."""
    k, b = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    complex_, symmetrizer = draw(st.booleans()), draw(st.sampled_from(["absent", "constant", "varying"]))
    rng = np.random.default_rng(draw(seeds))
    e = {"absent": None, "constant": np.full(b, rng.uniform(0.5, 4.0)), "varying": rng.uniform(0.5, 4.0, size=b)}[symmetrizer]
    blocks = []
    for how in draw(st.lists(st.sampled_from(["diagonal", "hermitian", "general"]), min_size=k, max_size=k)):
        X = rng.normal(size=(b, b)) + (1j * rng.normal(size=(b, b)) if complex_ else 0)
        if how == "diagonal":
            X = np.diag(np.diag(X).real).astype(X.dtype)
        elif how == "hermitian" or e is not None:
            X = (X + X.conj().T) / 2
        blocks.append(X if e is None else X / e[:, None])
    return blocks, e


@given(block_stacks())
@settings(max_examples=400, deadline=None)
def test_stacked_block_solve_matches_the_per_block_loop(case):
    """One eigensolver call solves a stack of blocks of one order, dtype and
    symmetrizer, and its values, vectors and block residuals are bitwise
    those of solving each block alone."""
    blocks, e = case
    calls = []

    def spy(fn):
        def wrapped(X):
            calls.append(X.shape)
            return fn(X)

        return wrapped

    with patch.object(np.linalg, "eig", spy(np.linalg.eig)), patch.object(np.linalg, "eigh", spy(np.linalg.eigh)):
        got = spectral._solve_blocks({i: ({"block": i}, B, e) for i, B in enumerate(blocks)})
    assert calls == [(len(blocks), *blocks[0].shape)]
    for i, B in enumerate(blocks):
        vals, vecs, res, defective = got[i]
        for x, y in zip((vals, vecs, res), ref.block_eigenpairs(B, e)):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        assert np.array_equal(defective, res > spectral.LIFT_RESIDUAL_TOL * max(1.0, float(np.abs(B).max())))


def _ints(nested):
    """Every leaf of nested tuples and lists is a Python int."""
    return all(_ints(x) if isinstance(x, (tuple, list)) else type(x) is int for x in nested)


@given(
    st.one_of(
        st.sampled_from([(2, 4, 6), (3, 6), (2, 4, 4), (2, 3, 6), (4, 6), (12,)]),
        st.lists(st.integers(min_value=2, max_value=7), max_size=5).map(tuple),
    ),
    st.integers(min_value=0, max_value=3),
    seeds,
)
@example((), 0, 0)  # the empty permutation
@example((), 1, 0)  # n = 1
@example((), 5, 0)  # the identity
@example((2, 4, 6), 2, 1)
@example((3, 6), 0, 2)
@settings(max_examples=300, deadline=None)
def test_cycle_layout_matches_loops(lengths, fixed, seed):
    """Cycles, order, orbits and rotation factors read off the one cycle
    layout equal the per-cycle, per-vertex loops', with Python ints."""
    p = permutation_with_type(np.random.default_rng(seed), sum(lengths) + fixed, lengths)
    assert p.cycles() == ref.cycles(p) and _ints(p.cycles())
    assert p.order == ref.order(p) and type(p.order) is int
    assert not any(a.flags.writeable for a in p._cycles)
    orbs = orbits(p)
    assert (orbs.cells, tuple(orbs.cell_of.tolist())) == ref.orbits(p) and _ints(orbs.cells)
    # a partition built from its cells derives the same arrays
    rebuilt = OrbitPartition(cells=orbs.cells, n=orbs.n)
    for name in ("cell_members", "cell_ptr", "cell_of"):
        assert np.array_equal(getattr(rebuilt, name), getattr(orbs, name))
    got, want = rotation_decomposition(p), ref.rotation_decomposition(p)
    assert got == want
    assert all(type(r.order_n) is int and _ints(r.components) and _ints(r.underlying.mapping) for r in got)


@st.composite
def deviation_cases(draw):
    """A matrix compatible with a random permutation, rounded to a grid so
    that equal deviations tie exactly, with a few entries moved by +-1, 0.5,
    2, NaN or +-inf; real or complex, with orders of one row block up to
    several (matrices._BLOCK entries a block)."""
    n = draw(st.sampled_from([1, 2, 7, 40, 91, 92, 150, 257]))
    rng = np.random.default_rng(draw(seeds))
    p = Permutation(tuple(rng.permutation(n).tolist()))
    A = np.round(3 * compatible_matrix(rng, p))
    if draw(st.booleans()):
        A = np.ascontiguousarray(A.real)
    moves = st.sampled_from([1.0, -1.0, 0.5, 2.0, np.nan, np.inf, -np.inf])
    with np.errstate(invalid="ignore"):  # inf + -inf
        for move in draw(st.lists(moves, max_size=6)):
            A[rng.integers(n), rng.integers(n)] += move
    return A, p


@given(deviation_cases())
@settings(max_examples=300, deadline=None)
def test_compatibility_deviation_matches_the_one_shot_deviation(case):
    """The row-blocked deviation gives the one-shot value and witness bit for
    bit: the first maximal entry in row-major order, a NaN entry winning as
    np.argmax makes it win."""
    A, p = case
    with np.errstate(invalid="ignore"):  # inf - inf
        (got, at), (want, want_at) = compatibility_deviation(A, p), ref.compatibility_deviation(A, p)
    assert np.float64(got).tobytes() == np.float64(want).tobytes() and at == want_at


# small integer grids make exact ties and equal distances common
grid = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
values = grid | st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)


@given(
    st.lists(values, max_size=10),
    st.lists(values, max_size=10),
    st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.5, 2.0, np.inf]),
)
@settings(max_examples=400, deadline=None)
def test_match_multisets_matches_loops(a, b, tol):
    assert match_multisets(a, b, tol) == ref.match_multisets(a, b, tol)


TOL = 1e-8
# clusters of values within a few tol of 1 + 1j or of 1 (exact ties among
# them), small grid points, and every kind of non-finite value
clustered = st.builds(
    lambda c, i, k: c + complex(i, k) * TOL / 3,
    st.sampled_from([1 + 1j, 1.0]),
    st.integers(-4, 4),
    st.integers(-1, 1),
)
non_finite = st.sampled_from(
    [complex(np.nan, 0), complex(0, np.nan), complex(np.inf, 0), complex(-np.inf, 1), complex(1, np.inf),
     complex(np.inf, -np.inf), complex(np.nan, np.inf)]
)
mixed = clustered | grid | non_finite


@given(
    st.lists(mixed, max_size=12),
    st.lists(mixed, max_size=12),
    st.sampled_from([0.0, TOL / 2, TOL, 3 * TOL, 1.0, np.inf, np.nan]),
)
@settings(max_examples=500, deadline=None)
def test_windowed_matching_matches_the_argmin_loop(a, b, tol):
    # the same pairs, distances, unmatched lists and order, bit for bit
    with np.errstate(invalid="ignore"):
        got, want = match_multisets(a, b, tol), ref.match_multisets_argmin(a, b, tol)
    assert repr(got) == repr(want)


@st.composite
def partitioned_states(draw):
    """(states, cells): cells of random members, singletons and cells of 9
    or more members (where numpy's pairwise summation starts) among them,
    and a few states, each at its own scale from 1e-8 to 1e8."""
    sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3, 5, 8, 9, 12, 17]), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(seeds))
    members = rng.permutation(sum(sizes))
    cells = tuple(tuple(int(v) for v in c) for c in np.split(members, np.cumsum(sizes)[:-1]))
    steps = draw(st.integers(min_value=0, max_value=4))
    scales = 10.0 ** rng.uniform(-8, 8, size=(steps + 1, 1))
    return _values(rng, (steps + 1, len(members)), False) * scales, cells


@given(partitioned_states())
@settings(max_examples=300, deadline=None)
def test_sync_log_matches_loops(case):
    states, cells = case
    orbs = OrbitPartition(cells=cells, n=states.shape[1])
    got = _sync_log(states, orbs)
    want = np.stack([ref.cell_deviations(x, cells) for x in states])
    assert got.shape == want.shape
    bound = SYNC_RTOL * np.maximum(1.0, np.abs(states).max(axis=1))
    assert np.all(np.abs(got - want).max(axis=1) <= bound)


@given(seeds, st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_sync_verdict_matches_loops(seed, normalize, perturbed):
    """Synchronized starts get the reference's verdict (kept on compatible
    matrices, lost at the reference's step on perturbed ones); the negative
    control, a desynchronized start, is flagged at step 0 by both."""
    rng = np.random.default_rng(seed)
    h, aut = random_instance(rng, n_max=14)
    orbs = orbits(aut)
    M = compatible_matrix(rng, aut.perm)
    if perturbed:
        M[0, int(rng.integers(1, h.n))] += 1e-3
    x0 = _values(rng, len(orbs.cells), False)[orbs.cell_of]
    moved = x0.copy()
    moved[next(c for c in orbs.cells if len(c) > 1)[0]] += 1.0
    for start, synchronized_start in ((x0, True), (moved, False)):
        traj = iterate(M, start, steps=25, orbs=orbs, normalize=normalize)
        report = check_orbit_synchronization(traj)
        synced, first, max_scaled = ref.check_orbit_synchronization(
            traj.states, traj.error_scale, orbs.cells, SYNC_TOL
        )
        assert (report.synchronized, report.first_violation_step) == (synced, first)
        assert abs(report.max_scaled_deviation - max_scaled) <= SYNC_RTOL
        if not synchronized_start:
            assert first == 0
        elif not perturbed:
            assert synced


# floats over the whole double range, with the edges drawn often: signed
# zeros, the smallest subnormal and normal, the largest double, integral
# values (printed without a point) and values that need all 17 digits
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max,
               -sys.float_info.max, 1.0, -3.0, 2.0**53, 2.0**53 + 2, 1e16, 1e22, 0.1, 1 / 3]
doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
)
strings = st.one_of(st.text(), st.text(alphabet=st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600')))
# magnitudes at the edges of "%.17g": zero, the smallest subnormal and
# normal, the largest double; the double nearest 10^k and both its
# neighbours for every k, which hold the positional/scientific edges at
# 1e-5/1e-4 and 1e16/1e17 and every three-digit exponent; integers around
# 10^16 and 10^17; and 2^-25 and 3 * 2^-25, whose 18th digit is an exact 5,
# a tie that "%.17g" rounds half to even, down and up
_POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-307, 309)])
BOUNDARY_MAGNITUDES = [
    0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max, 2.0**-25, 3 * 2.0**-25,
    *_POWERS_OF_TEN.tolist(), *np.nextafter(_POWERS_OF_TEN, 0).tolist(), *np.nextafter(_POWERS_OF_TEN, np.inf).tolist(),
    *(1e16 + np.arange(-9, 10)).tolist(), *(1e17 + 16 * np.arange(-9, 10)).tolist(),
]
leaves = st.one_of(
    doubles, doubles.map(np.float64), st.integers(), st.integers(-5, 5), st.booleans(), st.none(), strings
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(strings, children, max_size=5),
    ),
    max_leaves=40,
)


@given(documents)
@example([True, True, 1, 1.0])  # one object twice, then equal ones that print otherwise
@example({"edges": EDGE_FLOATS, "pairs": [[x, -x] for x in EDGE_FLOATS], "t": (True, False, None, 7, "\u00e9")})
@settings(max_examples=300, deadline=None)
def test_encoder_matches_reference(doc):
    assert jsonutil.canonical_json(doc) == ref.canonical_json(doc)


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), -float("inf"), np.float64("nan"), 1 + 2j, np.complex128(1j),
     np.int64(3), np.float32(1.5), np.bool_(True), {1, 2}, b"raw", object()],
    # A bare object's repr holds its address, which changes from run to run.
    ids=lambda bad: "object()" if type(bad) is object else repr(bad),
)
def test_encoder_refuses_as_the_reference(bad):
    for doc in (bad, [1.0, {"a": [bad, "x"]}], {"a": 1, "b": (None, bad)}):
        with pytest.raises(DocumentError) as want:
            ref.canonical_json(doc)
        with pytest.raises(DocumentError) as got:
            jsonutil.canonical_json(doc)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "doc",
    [{1: 2.0}, {None: "x"}, {(1, 2): 0}, {"a": {2.5: []}}, [float("nan"), {1, 2}], [set(), float("inf")],
     {"a": float("inf"), "b": 1j}],
    ids=repr,
)
def test_encoder_reports_the_first_refusal(doc):
    # non-string keys, and of several bad values the first in document order
    with pytest.raises(DocumentError) as want:
        ref.canonical_json(doc)
    with pytest.raises(DocumentError) as got:
        jsonutil.canonical_json(doc)
    assert str(got.value) == str(want.value)


# what a row-shaped list may hold in place of one float: values the bulk
# path must leave to the recursion, which prints or refuses them
_SWAPS = ["int", "big int", "bool", "np.float64", "None", "nan", "inf", "-inf", "tuple row", "ragged row"]


@st.composite
def float_rows(draw):
    """A list of 1-50 floats or of 1-50 rows of one width 1-4, the shapes
    of complex_pair results, sync logs, residuals and matrix entries; at
    times one item swapped for one of _SWAPS; alone, in an object, or
    stacked two deep."""
    count = draw(st.integers(min_value=1, max_value=50))
    width = draw(st.sampled_from([None, 1, 2, 3, 4]))
    if width is None:
        rows = draw(st.lists(doubles, min_size=count, max_size=count))
    else:
        rows = [draw(st.lists(doubles, min_size=width, max_size=width)) for _ in range(count)]
    swap = draw(st.one_of(st.none(), st.sampled_from(_SWAPS)))
    if swap is not None:
        i = draw(st.integers(min_value=0, max_value=count - 1))
        value = {"int": 7, "big int": 2**60 + 1, "bool": True, "np.float64": np.float64(draw(doubles)),
                 "None": None, "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf")}.get(swap)
        if swap == "tuple row":
            rows[i] = tuple(rows[i]) if width else (rows[i],)
        elif swap == "ragged row":
            rows[i] = rows[i] + [0.5] if width else [rows[i]]
        elif width is None:
            rows[i] = value
        else:
            rows[i][draw(st.integers(min_value=0, max_value=width - 1))] = value
    return draw(st.sampled_from([rows, {"rows": rows, "n": count}, [rows, rows]]))


@given(float_rows())
@example([[-0.0, 5e-324], [sys.float_info.max, -sys.float_info.max], [2.0**53 + 2, 1 / 3]])
@example([1.0, float("nan"), {1, 2}])
@settings(max_examples=500, deadline=None)
def test_encoder_prints_float_rows_as_the_reference(doc):
    try:
        want = ref.canonical_json(doc)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as got:
            jsonutil.canonical_json(doc)
        assert str(got.value) == str(exc)
    else:
        assert jsonutil.canonical_json(doc) == want


def test_bulk_path_takes_exact_floats_only(monkeypatch):
    # an np.float64 prints as a float does, so only the path shows that a
    # row holding one is left to the per-float recursion
    formatted = []
    encode_float = jsonutil._float
    monkeypatch.setattr(jsonutil, "_float", lambda x: formatted.append(x) or encode_float(x))
    assert jsonutil.canonical_json([[1.0, -0.0], [2.5, 3.0]]) == "[[1, 0], [2.5, 3]]"
    assert formatted == []
    assert jsonutil.canonical_json([[1.0, np.float64(-0.0)], [2.5, 3.0]]) == "[[1, 0], [2.5, 3]]"
    assert [type(x) for x in formatted] == [float, np.float64]  # the row holding it


def test_every_command_document_encodes_as_the_reference(monkeypatch, write_doc):
    # the documents of all six report commands on the fixtures, among them
    # matrix's n x n [re, im] entries and dynamics's 2-d sync log
    docs = []
    encode = cli.canonical_json
    monkeypatch.setattr(cli, "canonical_json", lambda doc: docs.append(doc) or encode(doc))
    rot10, units18 = write_doc("rot10.json", ROT10_DOC), write_doc("units18.json", UNITS18_DOC)
    rot10_map = write_doc("rot10_map.json", {"map": ROT10_MAP})
    unit_map = write_doc("unit_map.json", {"unit_map": UNITS18_UNIT_MAP})
    values = {lab: [1.0, -0.5] for lab in ROT10_DOC["vertices"]}
    x0 = write_doc("x0.json", {"values": values})
    values = {**values, "5": 1.25}
    x0_moved = write_doc("x0_moved.json", {"values": values})
    runs = [["units", units18], ["matrix", rot10, "--kind", "adjacency_r"],
            ["matrix", units18, "--kind", "transition"],
            ["validate-symmetry", rot10, rot10_map], ["validate-symmetry", units18, unit_map]]
    runs += [[command, h, symmetry, "--kind", kind] for command in ("decompose", "verify")
             for h, symmetry in ((rot10, rot10_map), (units18, unit_map))
             for kind in ("adjacency_r", "transition")]
    runs += [["dynamics", rot10, rot10_map, "--kind", "adjacency_r", "--x0", x, "--steps", "25", *flag]
             for x in (x0, x0_moved) for flag in ([], ["--normalize"])]
    for argv in runs:
        assert cli.main(argv + ["--out", write_doc("out.json", None)]) in (0, 1), argv
    assert len(docs) == len(runs)
    for doc in docs:
        assert jsonutil.canonical_json(doc) == ref.canonical_json(doc)


def test_encoder_recursion_stays_private(monkeypatch):
    # a tracer that wraps the public name must see one call per document,
    # also when a list splices row nodes among items printed apart
    calls = []
    encode = jsonutil.canonical_json
    monkeypatch.setattr(jsonutil, "canonical_json", lambda obj: calls.append(obj) or encode(obj))
    node = _edge_lift(False, False).document_rows()
    docs = [{"a": [[1.0, -0.0], (2, None)], "b": {"c": "d"}}, [{"a": [node, {"b": [node, 1.5]}]}, node]]
    for doc in docs:
        jsonutil.canonical_json(doc)
    assert calls == docs


def _bits(value):
    """Nested lists of floats as their hex forms, which tell -0.0 from 0.0."""
    return [_bits(v) for v in value] if isinstance(value, list) else (type(value), float.hex(value))


complex_values = st.complex_numbers(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [complex(a, b) for a in (0.0, -0.0, 5e-324, -sys.float_info.max) for b in (0.0, -0.0, 1.5)]
)


@given(st.lists(complex_values, max_size=20))
@settings(max_examples=200, deadline=None)
def test_complex_pair_matches_per_entry_conversion(values):
    z = np.array(values, dtype=np.complex128)
    assert _bits(jsonutil.complex_pair(z)) == _bits(ref.complex_pairs(z))
    for w in z[:3]:
        assert _bits(jsonutil.complex_pair(np.array(w))) == _bits(ref.complex_pairs(np.array(w)))
        assert _bits(jsonutil.complex_pair(complex(w))) == _bits(ref.complex_pairs(w))


# sources a lifted record may carry: a unit key may hold "%" and escapes
sources = st.one_of(
    st.sampled_from([
        {"kind": "quotient"},
        {"kind": "rotation", "factor": 1, "omega_k": 2, "order_n": 5, "level": "units"},
    ]),
    st.one_of(strings, st.sampled_from(["%", "%s%%", "%.17g", "a%d\x00"])).map(lambda key: {"kind": "unit", "unit": key}),
)
NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def _array(draw, shape, complex_, elements=doubles):
    """A float64 or complex128 array of the given shape, its parts drawn from
    elements one by one, so signed zeros and subnormals stay as drawn."""
    size = int(np.prod(shape))
    parts = [np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=np.float64).reshape(shape)
             for _ in range(1 + complex_)]
    if not complex_:
        return parts[0]
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = parts
    return z


# entries of a block vector: signed zeros and subnormals, often, and the
# boundary magnitudes in both signs
block_entries = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320]),
    doubles,
    st.sampled_from(BOUNDARY_MAGNITUDES).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def lifted_blocks(draw):
    """A LiftedBlock of n = 1-6 entries and k = 0-4 pairs, its values and
    its vectors each real or complex (real vectors under complex values as
    on the unit route of a complex matrix). At times its vectors repeat one
    drawn column, each entry times a sign as in a real lift or times a
    power of a root of unity as in a complex one, and its lambda and
    residual columns reuse magnitudes of the vectors. At times one or two
    of its floats are made non-finite, at times two of one magnitude and
    opposite signs, where only document order tells which is refused."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    values = _array(draw, (k,), draw(st.booleans()))
    vectors = _array(draw, (n, k), draw(st.booleans()), block_entries)
    residuals = np.abs(_array(draw, (k,), False))
    order = draw(st.sampled_from([None, 2, 3, 4, 6, 12])) if k else None
    if order is not None:
        roots = np.array([root.value for root in roots_of_unity(order)])  # float64 for +-1
        powers = np.array(draw(st.lists(st.integers(0, order - 1), min_size=n * k, max_size=n * k)))
        with np.errstate(over="ignore", invalid="ignore"):  # an inf made here is refused as any other
            vectors = vectors[:, :1] * roots[powers.reshape(n, k)]
        floats = np.concatenate([vectors.real.ravel(), vectors.imag.ravel()])
        shared = floats[draw(st.lists(st.integers(0, floats.size - 1), min_size=2 * k, max_size=2 * k))]
        residuals = np.abs(shared[:k])
        values.real = -shared[k:]
    parts = [a for x in (values, residuals, vectors) if x.size for a in ((x.real, x.imag) if np.iscomplexobj(x) else (x,))]
    bad = draw(st.lists(st.sampled_from(NON_FINITE), max_size=2 if parts else 0))
    if bad and draw(st.booleans()):
        bad = [bad[0], -bad[0]]
    for value in bad:
        part = draw(st.sampled_from(parts))
        part.flat[draw(st.integers(0, part.size - 1))] = value
    return LiftedBlock(draw(sources), values, vectors, residuals)


def _pair_documents(lift):
    """The lifted pairs of a record as one document each, lambda from the
    complex value and the vector by per-entry conversion."""
    return [
        {"lambda": [value.real, value.imag], "vector": ref.complex_pairs(vector), "source": lift.source,
         "residual": residual}
        for value, vector, residual in zip(lift.values.astype(complex).tolist(), lift.vectors.T, lift.residuals.tolist())
    ]


def _edge_lift(complex_values, complex_vectors, k=2):
    """A record of the encoder's edge floats, n = 3, with k pairs: a vector
    of k >= 2 holds x and -x, 0.0 and -0.0 together."""
    edges = np.array([-0.0, 5e-324, sys.float_info.max, -sys.float_info.max, -5e-324, 0.0, 1 / 3, -1 / 3])
    values = edges[:k] + 1j * edges[::-1][:k] if complex_values else edges[:k]
    vectors = np.resize(edges, (3, k)) * (1 - 1j if complex_vectors else 1)
    return LiftedBlock({"kind": "unit", "unit": "%"}, values, vectors, np.abs(edges[1:k + 1]))


def _boundary_lift(complex_vectors):
    """A record whose floats are every boundary magnitude in both signs, and
    -0.0, n = 8, as a real or complex block's lifted pairs."""
    edges = np.array(BOUNDARY_MAGNITUDES)
    floats = np.concatenate([edges, -edges, [-0.0]])
    floats = np.resize(floats, 8 * (-(-floats.size // 8)))
    vectors = floats.reshape(8, -1)
    k = vectors.shape[1]
    if complex_vectors:
        vectors = vectors + 1j * vectors[::-1]
    return LiftedBlock({"kind": "quotient"}, floats[:k] - 1j * floats[-k:], vectors, np.abs(floats[::-1][:k]))


@given(st.lists(lifted_blocks(), max_size=3), st.booleans())
@example([_edge_lift(False, False), _edge_lift(True, True), _edge_lift(True, False, k=1), _edge_lift(False, False, k=0)], False)
@example([_edge_lift(False, False, k=4), _edge_lift(True, True, k=4)], True)
@example([_boundary_lift(False), _boundary_lift(True)], True)
@settings(max_examples=500, deadline=None)
def test_lifted_rows_print_as_the_per_pair_documents(lifts, partner):
    # one node per record, spliced among other items of the lifted list;
    # a record with no pairs adds nothing; a conj partner, as a real
    # matrix's conj(w)-block, shares every magnitude of its record
    if partner and lifts:
        lifts = [*lifts, LiftedBlock(lifts[0].source, lifts[0].values.conj(), lifts[0].vectors.conj(), lifts[0].residuals)]
    doc = {"lifted": ["head %s%%", *[lift.document_rows() for lift in lifts], ["tail", -0.0]], "skipped": []}
    pairs = [pair for lift in lifts for pair in _pair_documents(lift)]
    want_doc = {"lifted": ["head %s%%", *pairs, ["tail", -0.0]], "skipped": []}
    try:
        want = ref.canonical_json(want_doc)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as got:
            jsonutil.canonical_json(doc)
        assert str(got.value) == str(exc)
    else:
        assert jsonutil.canonical_json(doc) == want
        assert ref.canonical_json(doc) == want  # the expansion the other reference tests use


# what a list may hold beside row nodes: strings with "%", a float row and a
# tuple; and values the encoder refuses, which must be refused in document
# order among the nodes' non-finite floats
_BESIDE_NODES = ["%s%%", -0.0, 7, None, [0.5, -0.0], (1.0, "x")]
_REFUSED = [float("nan"), 1j, {1: 2}]


@st.composite
def nested_node_documents(draw):
    """A list of dicts whose values are lists of row nodes among other
    items, at times with a node in the outer list too, so that a spliced
    list's items hold spliced lists of their own, and at times with one
    refused value in one of the lists."""
    items = st.one_of(lifted_blocks().map(LiftedBlock.document_rows), st.sampled_from(_BESIDE_NODES))
    keys = draw(st.lists(st.sampled_from(["a", "b%", "c"]), min_size=1, max_size=3, unique=True))
    doc = [{key: draw(st.lists(items, max_size=4)) for key in keys} for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        doc.insert(draw(st.integers(0, len(doc))), draw(lifted_blocks()).document_rows())
    if draw(st.booleans()):
        values = draw(st.sampled_from([values for member in doc if type(member) is dict for values in member.values()]))
        values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(_REFUSED)))
    return doc


@given(nested_node_documents())
@example([{"a": [_boundary_lift(True).document_rows(), -0.0, [1e-5, -1e16]]}, _boundary_lift(False).document_rows()])
@settings(max_examples=300, deadline=None)
def test_nested_row_nodes_print_as_the_reference(doc):
    try:
        want = ref.canonical_json(doc)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as got:
            jsonutil.canonical_json(doc)
        assert str(got.value) == str(exc)
    else:
        assert jsonutil.canonical_json(doc) == want


def test_a_row_node_outside_a_list_is_refused():
    node = _edge_lift(False, False).document_rows()
    for doc in (node, {"lifted": node}):
        with pytest.raises(DocumentError, match="cannot serialize value of type _Rows"):
            jsonutil.canonical_json(doc)
    # one node, or one empty node, twice in a list prints as its documents twice
    empty = _edge_lift(False, False, k=0).document_rows()
    for doc in ([node, node], [empty, empty], [empty, node, node, empty]):
        assert jsonutil.canonical_json(doc) == ref.canonical_json(doc)


# -- "%.17g" of many magnitudes: jsonutil._g17 against the per-float "%" ---
#
# Each test runs in long double, the kernel's own precision, and once more
# as on a platform without extended precision: the tables and margin built
# for float64, whose margin exceeds 1/2, so that every value falls back.
PRECISIONS = pytest.mark.parametrize("precision", [np.longdouble, np.float64], ids=["longdouble", "float64"])


def _tables_of(precision, margin):
    """The kernel's powers of ten taken in precision, with margin."""
    table = jsonutil._powers_of_ten(precision)[0]
    return patch.object(jsonutil, "_powers_of_ten", lambda dtype: (table, margin))


def _check_g17(values, precision, margin=None):
    """_g17 with the tables of precision (and its margin, unless one is
    given) gives the per-float "%.17g" texts; a margin over 1/2 decides no
    value."""
    x = np.array(values, dtype=np.float64)
    margin = jsonutil._powers_of_ten(precision)[1] if margin is None else margin
    with _tables_of(precision, margin):
        texts = jsonutil._g17(x)
        decided = jsonutil._decimal(x)[2]
    assert texts.tolist() == ["%.17g" % v for v in x.tolist()]
    if margin > 0.5:
        assert not decided.any()


@PRECISIONS
@given(values=st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=60))
@settings(max_examples=300, deadline=None)
def test_g17_prints_floats_as_percent(values, precision):
    _check_g17(values, precision)


@PRECISIONS
@given(patterns=st.lists(st.integers(0, 2**64 - 1), max_size=60))
@settings(max_examples=300, deadline=None)
def test_g17_prints_raw_bit_patterns_as_percent(patterns, precision):
    x = np.abs(np.array(patterns, dtype=np.uint64).view(np.float64))
    _check_g17(x[np.isfinite(x)], precision)


@PRECISIONS
def test_g17_prints_boundary_magnitudes_as_percent(precision):
    rng = np.random.default_rng(29)
    x = np.abs(rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64))
    _check_g17([*BOUNDARY_MAGNITUDES, *x[np.isfinite(x)].tolist()], precision)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="long double is float64 here")
def test_g17_decides_most_values_in_long_double():
    # the table entries are within eps of 10^k, as the margin assumes
    table = jsonutil._powers_of_ten(np.longdouble)[0]
    eps = Fraction(float(np.finfo(table.dtype).eps))
    for k, p in zip(range(16 - jsonutil._E_MAX, 17 - jsonutil._E_MIN), table):
        assert abs(Fraction(*p.as_integer_ratio()) / Fraction(10) ** k - 1) <= eps
    x = np.random.default_rng(29).random(10000)
    assert jsonutil._decimal(x)[2].mean() > 0.9


def test_g17_without_its_near_tie_fallback_is_caught():
    # negative control: 3 * 2^-25 is 8.94069671630859375e-08 exactly, and
    # with no margin its tie rounds down, where "%.17g" rounds half to even
    with _tables_of(np.longdouble, -np.inf):
        assert jsonutil._g17(np.array([3 * 2.0**-25])).tolist() == ["8.9406967163085937e-08"]
    assert "%.17g" % (3 * 2.0**-25) == "8.9406967163085938e-08"
    with pytest.raises(AssertionError):
        _check_g17(BOUNDARY_MAGNITUDES, np.longdouble, margin=-np.inf)


# -- hypergraphs: the CSR arrays against the member-by-member loops ---------


def _outcome(fn, *args):
    """fn(*args), or the type and text of the HypersymError it raises."""
    try:
        return fn(*args)
    except HypersymError as exc:
        return type(exc).__name__, str(exc)


def _views(h):
    """Every public attribute of a hypergraph, the edge_index order included."""
    return h.labels, h.index, list(h.edge_index.items()), h.edge_ids, h.edges, h.member_sets, h.stars


def _labels(rng, n, style):
    """n distinct labels: integer literals (numeric order differs from the
    lexicographic one), others (lexicographic order) or a mix of both."""
    pool = [int(i) for i in rng.permutation(np.arange(-2, 2 * n + 14))[:n]]
    if style == "int":
        return [str(i) for i in pool]
    if style == "alpha":
        return [f"a{i}" for i in pool]
    return [str(i) if i % 2 else f"a{i}" for i in pool]


def _corrupt(rng, doc, how):
    """Break doc in place in one way, at a random edge entry (or vertex)."""
    edges, labels = doc["edges"], doc["vertices"]
    if how == "no vertices":
        doc["vertices"] = []
        return
    if how == "duplicate vertex":
        if labels:
            labels.insert(int(rng.integers(len(labels) + 1)), labels[int(rng.integers(len(labels)))])
        return
    entries = [k for k, e in enumerate(edges) if isinstance(e, dict)]
    if not entries:
        edges.append({"id": "new", "members": list(labels[:1])})
        entries = [len(edges) - 1]
    k = entries[int(rng.integers(len(entries)))]
    entry = edges[k]
    members = entry.get("members")
    if how == "duplicate id":
        entry["id"] = edges[entries[int(rng.integers(len(entries)))]].get("id", "e0")
    elif how == "empty edge":
        entry["members"] = []
    elif how == "malformed entry":
        edges[k] = ["x", {"id": "q"}, {"members": []}, {"id": 5, "members": []}, {"id": "q", "members": "1"}][
            int(rng.integers(5))
        ]
    elif not isinstance(members, list) or not members:
        return
    elif how == "equal member set":
        copy = list(members)
        rng.shuffle(copy)
        edges.insert(int(rng.integers(len(edges) + 1)), {"id": f"twin{k}", "members": copy})
    else:
        at = int(rng.integers(len(members) + 1))
        member = {
            "unknown vertex": "zz",
            "repeated member": members[int(rng.integers(len(members)))],
            "non-string member": [7, None, 1.5, ["1"]][int(rng.integers(4))],
        }[how]
        members.insert(at, member)


CORRUPTIONS = (
    "duplicate id",
    "empty edge",
    "unknown vertex",
    "repeated member",
    "equal member set",
    "non-string member",
    "duplicate vertex",
    "malformed entry",
    "no vertices",
)


@st.composite
def hypergraph_documents(draw, corruptions=3, max_n=9):
    """A hypergraph document: 1-max_n vertices with integer, other or mixed
    labels (so canonical order is numeric or lexicographic), isolated
    vertices and singleton edges among them, 0-9 edges with distinct member
    sets, then up to `corruptions` of CORRUPTIONS, each at a random place."""
    rng = np.random.default_rng(draw(seeds))
    n = int(rng.integers(1, max_n + 1))
    labels = _labels(rng, n, draw(st.sampled_from(["int", "alpha", "mixed"])))
    edges, sets = [], set()
    for j in range(int(rng.integers(0, 10))):
        members = [labels[int(i)] for i in rng.permutation(n)[: int(rng.integers(1, n + 1))]]
        if frozenset(members) not in sets:
            sets.add(frozenset(members))
            edges.append({"id": f"e{j}", "members": members})
    doc = {"vertices": labels, "edges": edges}
    for how in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=corruptions)):
        _corrupt(rng, doc, how)
    return doc


@given(hypergraph_documents())
@settings(max_examples=600, deadline=None)
def test_hypergraph_documents_match_loops(doc):
    want = _outcome(lambda: _views(ref.Hypergraph.from_dict(doc)))
    assert _outcome(lambda: _views(Hypergraph.from_dict(doc))) == want
    if all(isinstance(e, dict) and isinstance(e.get("members"), list) and "id" in e for e in doc["edges"]):
        # the constructor converts ids and members with str() instead
        pairs = [(e["id"], e["members"]) for e in doc["edges"]]
        want = _outcome(lambda: _views(ref.Hypergraph(doc["vertices"], pairs)))
        assert _outcome(lambda: _views(Hypergraph(doc["vertices"], pairs))) == want


@given(hypergraph_documents(max_n=150))
@settings(max_examples=100, deadline=None)
def test_long_edges_match_loops(doc):
    """Edges of up to 150 members, past the length at which the sort key
    of a padded row would overflow 64 bits and is replaced by its rank."""
    want = _outcome(lambda: _views(ref.Hypergraph.from_dict(doc)))
    assert _outcome(lambda: _views(Hypergraph.from_dict(doc))) == want
    if not isinstance(want, tuple):
        h = Hypergraph.from_dict(doc)
        assert compute_units(h) == ref.compute_units(ref.Hypergraph.from_dict(doc))


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (["1", "2", "2", "1"], [], "duplicate vertex label '1'"),
        (["1", "2"], [("e", ["1"]), ("f", ["3"]), ("e", ["2"])], "edge 'f' names unknown vertex '3'"),
        (["1", "2"], [("e", ["1", "2"]), ("f", []), ("g", ["2", "1"])], "edge 'f' has no members"),
        (["1", "2"], [("e", ["1", "2"]), ("f", ["2", "1"])], "edges 'e' and 'f' have the same member set"),
        (["1", "2"], [("e", ["1", "2", "1"]), ("f", ["1", "9"])], "edge 'e' repeats a member"),
        (["1", "2"], [("e", ["1"]), ("e", ["9"])], "duplicate edge id 'e'"),
        (["1", "2"], [("e", ["1", "9", "8"])], "edge 'e' names unknown vertex '9'"),
    ],
    ids=[
        "first-duplicate-label",
        "unknown-before-later-duplicate-id",
        "empty-before-later-equal-set",
        "equal-set",
        "repeat-before-later-unknown",
        "duplicate-id-before-unknown",
        "first-unknown-member",
    ],
)
def test_first_offender_is_refused(vertices, edges, message):
    for cls in (Hypergraph, ref.Hypergraph):
        with pytest.raises(DocumentError) as got:
            cls(vertices, edges)
        assert str(got.value) == message


def test_non_string_member_comes_before_a_later_malformed_entry():
    doc = {"vertices": ["1"], "edges": [{"id": "e", "members": ["1"]}, {"id": "f", "members": [1]}, "x"]}
    for cls in (Hypergraph, ref.Hypergraph):
        with pytest.raises(DocumentError, match="^edge 'f' 'members' must be a list of strings$"):
            cls.from_dict(doc)


EXACT_KINDS = ("adjacency_r", "laplacian_r", "unit_normalized")


@given(hypergraph_documents(corruptions=0), seeds)
@settings(max_examples=300, deadline=None)
def test_matrix_kinds_match_loops(doc, seed):
    """Every kind on hypergraphs with singleton edges, isolated vertices and
    units: bitwise for the unweighted kinds, within rounding for the
    reciprocal and weighted ones, and the same refusal where a kind is
    undefined."""
    h, want_h = Hypergraph.from_dict(doc), ref.Hypergraph.from_dict(doc)
    rng = np.random.default_rng(seed)
    weights = WeightFunctions(
        delta_V={lab: float(w) for lab, w in zip(h.labels, rng.uniform(0.1, 3.0, h.n))},
        delta_E={eid: float(w) for eid, w in zip(h.edge_ids, rng.uniform(0.1, 3.0, h.m))},
    )
    for kind in MATRIX_KINDS:
        w = weights if kind in WEIGHTED_KINDS else None
        want = _outcome(ref.build_matrix, want_h, kind, w)
        got = _outcome(lambda: build_matrix(h, kind, w).entries)
        if isinstance(want, tuple):
            assert got == want
        elif kind in EXACT_KINDS:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max(initial=0.0) <= QUOTIENT_RTOL * _norm_inf(want)


@given(hypergraph_documents(corruptions=0))
@settings(max_examples=300, deadline=None)
def test_units_and_covers_match_loops(doc):
    h, want_h = Hypergraph.from_dict(doc), ref.Hypergraph.from_dict(doc)
    units = compute_units(h)
    assert units == ref.compute_units(want_h)
    assert edge_unit_covers(h, units) == ref.edge_unit_covers(want_h, units)


def _swapped(mapping, rng, swap):
    mapping = list(mapping)
    if swap and len(mapping) > 1:
        a, b = (int(x) for x in rng.choice(len(mapping), size=2, replace=False))
        mapping[a], mapping[b] = mapping[b], mapping[a]
    return Permutation(tuple(mapping))


@given(seeds, st.booleans())
@settings(max_examples=300, deadline=None)
def test_automorphism_checks_match_loops(seed, swap):
    """An automorphism of an invariant hypergraph (isolated vertices among
    its vertices) gives the reference's edge map; with two images swapped,
    the negative control, the same map or the same refusal."""
    rng = np.random.default_rng(seed)
    h, aut = random_instance(rng, n_max=12)
    perm = _swapped(aut.perm.mapping, rng, swap)
    want = _outcome(ref.validate_automorphism, h, perm)
    got = _outcome(lambda: list(validate_automorphism(h, perm).edge_map.items()))
    assert got == (list(want.items()) if isinstance(want, dict) else want)


@given(seeds, st.booleans())
@settings(max_examples=300, deadline=None)
def test_unit_automorphism_checks_match_loops(seed, swap):
    """An invariant hypergraph with each vertex copied 1-3 times and 0-2
    isolated vertices added: the unit map its automorphism induces gives the
    reference's edge map; with two images swapped, the same map or the same
    refusal."""
    rng = np.random.default_rng(seed)
    base, aut = random_instance(rng, n_max=10)
    copies = [int(c) for c in rng.integers(1, 4, size=base.n)]
    labels = [f"{b}.{c}" for b in base.labels for c in range(copies[base.index[b]])]
    labels += [f"x{i}" for i in range(int(rng.integers(0, 3)))]
    edges = [(e.id, [f"{b}.{c}" for b in e.members for c in range(copies[base.index[b]])]) for e in base.edges]
    h = Hypergraph(labels, edges)
    units = compute_units(h)
    image = {lab: f"{base.labels[aut.perm(base.index[lab.split('.')[0]])]}.0" for lab in labels if "." in lab}
    mapping = [units.unit_of[h.index[image.get(u.members[0], u.members[0])]] for u in units.units]
    perm = _swapped(mapping, rng, swap)
    want = _outcome(ref.validate_unit_automorphism, ref.Hypergraph(labels, edges), units, perm)
    got = _outcome(lambda: list(validate_unit_automorphism(h, perm).edge_map.items()))
    assert got == (list(want.items()) if isinstance(want, dict) else want)
