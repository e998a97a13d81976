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
refuses. The hypergraph built from CSR arrays must expose the reference's
attributes and refuse every malformed document with its text; its matrices
must be bitwise equal for the unweighted kinds and within 1e-12 * max(1,
||M||_inf) for the others, its units, covers and edge maps equal, and its
symmetry refusals word for word the reference's."""

import sys

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
    st.sampled_from(["real", "complex"]),
    st.sampled_from([(), (3,)]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_rotation_gather_and_lift_match_loops(lengths, fixed, matrix, columns, complex_x, data):
    """The one-gather rotation columns and the one-scatter lift are bitwise
    the per-component loops': coupling blocks (rows is not cols) between
    non-coprime cycle lengths, fixed points, the quarter-turn roots
    +-1 and +-i, a real x under a complex root, complex matrices."""
    rng = np.random.default_rng(data.draw(seeds))
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    A = rng.normal(size=(p.n, p.n))
    if matrix == "complex":
        A = A + 1j * rng.normal(size=A.shape)
    factors = rotation_decomposition(p)
    rows, cols = data.draw(st.sampled_from(factors)), data.draw(st.sampled_from(factors))
    omega = data.draw(st.sampled_from(roots_of_unity(cols.order_n)))
    got, want = spectral._rotation_columns(A, rows, cols, omega), ref.rotation_columns(A, rows, cols, omega)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    x = rng.normal(size=(cols.n_cycles, *columns))
    if complex_x:
        x = x + 1j * rng.normal(size=x.shape)
    got, want = spectral.lift_rotation_vector(x, cols, omega, p.n), ref.lift_rotation_vector(x, cols, omega, p.n)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    assert (orbs.cells, orbs.cell_index) == ref.orbits(p) and _ints(orbs.cells) and _ints(orbs.cell_index)
    # a partition built from its cells derives the same arrays
    rebuilt = OrbitPartition(cells=orbs.cells, cell_index=orbs.cell_index, n=orbs.n)
    assert all(np.array_equal(x, y) for x, y in zip(rebuilt._arrays, orbs._arrays, strict=True))
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
    orbs = OrbitPartition(cells=cells, cell_index=(), n=states.shape[1])
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
    x0 = _values(rng, len(orbs.cells), False)[list(orbs.cell_index)]
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
    # a tracer that wraps the public name must see one call per document
    calls = []
    encode = jsonutil.canonical_json
    monkeypatch.setattr(jsonutil, "canonical_json", lambda obj: calls.append(obj) or encode(obj))
    jsonutil.canonical_json({"a": [[1.0, -0.0], (2, None)], "b": {"c": "d"}})
    assert len(calls) == 1


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


# entries of a block vector: signed zeros and subnormals, often
block_entries = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320]), doubles)


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


@given(st.lists(lifted_blocks(), max_size=3), st.booleans())
@example([_edge_lift(False, False), _edge_lift(True, True), _edge_lift(True, False, k=1), _edge_lift(False, False, k=0)], False)
@example([_edge_lift(False, False, k=4), _edge_lift(True, True, k=4)], True)
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


def test_a_row_node_outside_a_list_is_refused():
    node = _edge_lift(False, False).document_rows()
    for doc in (node, {"lifted": node}):
        with pytest.raises(DocumentError, match="cannot serialize value of type _Rows"):
            jsonutil.canonical_json(doc)
    # one node, or one empty node, twice in a list prints as its documents twice
    empty = _edge_lift(False, False, k=0).document_rows()
    for doc in ([node, node], [empty, empty], [empty, node, node, empty]):
        assert jsonutil.canonical_json(doc) == ref.canonical_json(doc)


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
