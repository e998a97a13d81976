"""The vectorised quotients, checks, matching and synchronization log, and the
report encoder, against their loop references.

Witness tuples, error messages, matchings and synchronization verdicts must
be identical to those of loop_reference.py. Quotients must be bitwise equal
on integer-valued matrices and within 1e-12 * max(1, ||M||_inf) otherwise;
the synchronization log, whose cell means are summed in another order, within
1e-13 * max(1, max |x_k|). Each suite draws positive inputs (equitable or
unit-compatible matrices, synchronized starts) and negative controls
(perturbed matrices, desynchronized starts). The encoder must give the
reference's bytes on every document and its error text on every value it
refuses.
"""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_reference as ref
from hypersym import (
    SYNC_TOL,
    DocumentError,
    Hypergraph,
    NotEquitableError,
    NotUnitCompatibleError,
    Permutation,
    check_orbit_synchronization,
    compatible_matrix,
    compute_units,
    equitable_witness,
    iterate,
    match_multisets,
    orbit_quotient,
    orbits,
    profile_unit_compatibility,
    random_instance,
    unit_quotient,
)
from hypersym import jsonutil
from hypersym.dynamics import _sync_log
from hypersym.symmetry import EQUITABLE_TOL, OrbitPartition
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


@st.composite
def unit_matrices(draw):
    """(A, units, integer): a hypergraph whose base vertices are copied 1-3
    times (copies share a star, so they form one unit), with 0-3 isolated
    vertices (one unit), and a unit-compatible matrix, perturbed at up to
    two entries."""
    rng = np.random.default_rng(draw(seeds))
    base = int(rng.integers(1, 6))
    copies = [int(c) for c in rng.integers(1, 4, size=base)]
    isolated = draw(st.integers(min_value=0, max_value=3))
    labels = [f"{b}.{c}" for b in range(base) for c in range(copies[b])]
    labels += [f"x{i}" for i in range(isolated)]
    edges = []
    for j in range(int(rng.integers(1, 5))):
        members = [b for b in range(base) if rng.random() < 0.5] or [0]
        edges.append((f"e{j}", [f"{b}.{c}" for b in members for c in range(copies[b])]))
    seen, unique = set(), []
    for eid, members in edges:
        if frozenset(members) not in seen:
            seen.add(frozenset(members))
            unique.append((eid, members))
    units = compute_units(Hypergraph(labels, unique))
    n, q = units.n, len(units.units)
    integer = draw(st.booleans())
    d, r, s = _values(rng, q, integer), _values(rng, q, integer), _values(rng, (q, q), integer)
    unit_of = np.array(units.unit_of)
    A = np.where(unit_of[:, None] == unit_of, r[unit_of][:, None], s[np.ix_(unit_of, unit_of)])
    np.fill_diagonal(A, d[unit_of])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        A[u, v] += 1.0 if integer else rng.uniform(1e-3, 1.0)
    return A, units, integer


@given(unit_matrices())
@settings(max_examples=300, deadline=None)
def test_unit_profile_and_quotient_match_loops(case):
    A, units, integer = case
    try:
        d, r, rows = ref.profile_unit_compatibility(A, units, COMPAT_TOL)
    except NotUnitCompatibleError as exc:
        for fn in (profile_unit_compatibility, unit_quotient):
            with pytest.raises(NotUnitCompatibleError) as got:
                fn(A, units)
            assert str(got.value) == str(exc)
        return
    profile = profile_unit_compatibility(A, units)
    assert (profile.d, profile.r) == (d, r)
    assert np.array_equal(profile.rows, rows)
    _assert_quotients_equal(unit_quotient(A, units), ref.unit_quotient(A, units, COMPAT_TOL), A, integer)


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
@example({"edges": EDGE_FLOATS, "pairs": [[x, -x] for x in EDGE_FLOATS], "t": (True, False, None, 7, "\u00e9")})
@settings(max_examples=300, deadline=None)
def test_encoder_matches_reference(doc):
    assert jsonutil.canonical_json(doc) == ref.canonical_json(doc)


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), -float("inf"), np.float64("nan"), 1 + 2j, np.complex128(1j),
     np.int64(3), np.float32(1.5), np.bool_(True), {1, 2}, b"raw", object()],
    ids=repr,
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
