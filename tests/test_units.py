"""Unit-compatible matrices: eigenvalues, quotients, and unit bijections."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersym import (
    DocumentError,
    Hypergraph,
    IncompatibleMatrixError,
    NotUnitAutomorphismError,
    NotUnitCompatibleError,
    blow_up,
    build_matrix,
    compute_units,
    decompose_unit_automorphism,
    dense_spectrum,
    lift_cardinality_preserving,
    profile_unit_compatibility,
    unit_compatibility_witness,
    unit_eigenvalues,
    unit_quotient,
    validate_automorphism,
    validate_unit_automorphism,
    verify_decomposition,
)

from hypersym import symmetry
from hypersym.unit_symmetry import COMPAT_TOL, _quotient_witness

from conftest import ROT10_MAP, ROT10_UNIT_MAP, UNITS18_KEYS, UNITS18_SWAP_MAP, UNITS18_UNIT_MAP
from test_block_solvers import _unit_case


def test_adjacency_r_is_unit_compatible(units18):
    A = build_matrix(units18, "adjacency_r")
    units = compute_units(units18)
    profile = profile_unit_compatibility(A, units)
    # within a unit the off-diagonal is the full star: d = 0, r = |E|
    d = dict(zip(UNITS18_KEYS, profile.d))
    r = dict(zip(UNITS18_KEYS, profile.r))
    assert all(v == 0 for v in d.values())
    assert r == {"1,2": 5, "3,4": 3, "5,6,15": 1, "7,8": 1, "9,10": 1,
                 "11,12,16": 2, "13,14": 2, "17,18": 2}


def test_unit_eigenvalues_with_multiplicities(units18):
    A = build_matrix(units18, "adjacency_r")
    units = compute_units(units18)
    report = unit_eigenvalues(A, units)
    per_unit = [(s.unit_key, s.value, s.multiplicity) for s in report.structures]
    assert per_unit == [
        ("1,2", -5.0, 1), ("3,4", -3.0, 1), ("5,6,15", -1.0, 2), ("7,8", -1.0, 1),
        ("9,10", -1.0, 1), ("11,12,16", -2.0, 2), ("13,14", -2.0, 1), ("17,18", -2.0, 1),
    ]
    assert report.merged == (
        (-5.0, 1, ("1,2",)),
        (-3.0, 1, ("3,4",)),
        (-2.0, 4, ("11,12,16", "13,14", "17,18")),
        (-1.0, 4, ("5,6,15", "7,8", "9,10")),
    )


def test_unit_eigenvectors_sum_to_zero_and_satisfy_residual(units18):
    A = build_matrix(units18, "adjacency_r")
    units = compute_units(units18)
    report = unit_eigenvalues(A, units)
    scale = max(1.0, float(np.abs(A.entries).max()))
    for s in report.structures:
        unit = units.units[s.unit_index]
        for vec in s.vectors:
            assert abs(vec[list(unit.member_indices)].sum()) == 0.0
            assert np.abs(np.delete(vec, list(unit.member_indices))).max() == 0.0
            res = np.linalg.norm(A.entries @ vec - s.value * vec) / np.linalg.norm(vec)
            assert res <= 1e-8 * scale


def test_rot10_unit_eigenvalues(rot10):
    # all three nontrivial units have star size 3, eigenvalue 0 - 3
    A = build_matrix(rot10, "adjacency_r")
    report = unit_eigenvalues(A, compute_units(rot10))
    assert [(s.unit_key, s.value) for s in report.structures] == [
        ("2,3", -3.0), ("5,6", -3.0), ("8,9", -3.0)]


def test_unit_quotient_known_entries(units18):
    A = build_matrix(units18, "adjacency_r")
    units = compute_units(units18)
    N = unit_quotient(A, units)
    keys = {k: i for i, k in enumerate(UNITS18_KEYS)}
    assert N[keys["1,2"], keys["5,6,15"]] == 3.0
    assert N[keys["1,2"], keys["7,8"]] == 2.0
    # diagonal is d + (|W| - 1) r
    assert N[keys["1,2"], keys["1,2"]] == 5.0
    assert N[keys["5,6,15"], keys["5,6,15"]] == 2.0


def test_quotient_spectrum_completes_the_dense_one(units18):
    A = build_matrix(units18, "adjacency_r")
    units = compute_units(units18)
    report = unit_eigenvalues(A, units)
    N = unit_quotient(A, units)
    claimed = sorted(
        [v for s in report.structures for v in [s.value] * s.multiplicity]
        + list(np.linalg.eigvals(N)),
        key=lambda z: (z.real, z.imag),
    )
    dense = dense_spectrum(A).eigenvalues
    assert np.allclose(claimed, dense, atol=1e-8)


def test_blow_up_layout(units18):
    units = compute_units(units18)
    y = np.arange(8, dtype=complex)
    full = blow_up(y, units)
    for i, unit in enumerate(units.units):
        assert all(full[v] == y[i] for v in unit.member_indices)


def test_quotient_eigenvectors_blow_up(units18):
    A = build_matrix(units18, "adjacency_r")
    units = compute_units(units18)
    N = unit_quotient(A, units)
    vals, vecs = np.linalg.eig(N)
    for i in range(len(vals)):
        full = blow_up(vecs[:, i], units)
        res = np.linalg.norm(A.entries @ full - vals[i] * full) / np.linalg.norm(full)
        assert res <= 1e-8


def test_not_unit_compatible_witness(units18):
    A = build_matrix(units18, "adjacency_r").entries.copy()
    units = compute_units(units18)
    A[0, 0] = 7.0  # vertex 1 diagonal leaves its unit's shared value
    with pytest.raises(NotUnitCompatibleError, match="diagonal entries differ"):
        profile_unit_compatibility(A, units)
    A = build_matrix(units18, "adjacency_r").entries.copy()
    A[0, 4] += 1.0  # row from unit 1,2 toward outside vertex 5
    with pytest.raises(NotUnitCompatibleError, match="outside vertex"):
        profile_unit_compatibility(A, units)


def test_not_unit_compatible_off_diagonal(units18):
    A = build_matrix(units18, "adjacency_r").entries.copy()
    A[4, 5] += 1.0  # vertices 5 -> 6, inside unit 5,6,15
    with pytest.raises(
        NotUnitCompatibleError,
        match=r"unit '5,6,15': off-diagonal entries within the unit are not constant: "
        r"\(2\+0j\) vs \(1\+0j\)",
    ):
        profile_unit_compatibility(A, compute_units(units18))


def test_not_unit_compatible_columns(units18):
    A = build_matrix(units18, "adjacency_r").entries.copy()
    A[4, 0] += 1.0  # column of vertex 1 seen from outside vertex 5 (index 4)
    with pytest.raises(
        NotUnitCompatibleError,
        match=r"unit '1,2': columns from outside vertex 4 differ \(max deviation 1.000e\+00\)",
    ):
        profile_unit_compatibility(A, compute_units(units18))


def test_not_unit_compatible_names_the_earlier_unit(units18):
    # unit 3,4 breaks only its last condition (columns), the later unit
    # 11,12,16 its first (diagonal): the earlier unit is named
    A = build_matrix(units18, "adjacency_r").entries.copy()
    A[16, 2] += 1.0  # column of vertex 3 seen from vertex 17 (unit 17,18, last)
    A[10, 10] = 7.0
    with pytest.raises(NotUnitCompatibleError, match=r"unit '3,4': columns from outside vertex 16"):
        profile_unit_compatibility(A, compute_units(units18))


def test_validate_unit_map(units18, units18_ua):
    assert units18_ua.order == 6
    assert units18_ua.unit_key_map() == UNITS18_UNIT_MAP
    assert units18_ua.edge_map == {
        "e1": "e3", "e2": "e1", "e3": "e2", "e4": "e5",
        "e5": "e4", "e6": "e7", "e7": "e6",
    }
    assert not units18_ua.cardinality_preserving


def test_unit_map_that_breaks_edges_rejected(units18):
    bad = dict(UNITS18_UNIT_MAP)
    bad["17,18"], bad["3,4"] = "3,4", "17,18"
    with pytest.raises(NotUnitAutomorphismError, match="not an edge"):
        validate_unit_automorphism(units18, bad)


def test_unit_map_unknown_unit_rejected(units18):
    with pytest.raises(DocumentError, match="unknown unit"):
        validate_unit_automorphism(units18, {"1,3": "1,2"})


def test_lift_refused_without_cardinality(units18_ua):
    with pytest.raises(NotUnitAutomorphismError) as err:
        lift_cardinality_preserving(units18_ua)
    msg = str(err.value)
    assert "'5,6,15' has 3 members" in msg
    assert "'7,8' has 2" in msg


def test_adjacency_r_incompatible_with_unit_map(units18, units18_ua):
    A = build_matrix(units18, "adjacency_r")
    witness = unit_compatibility_witness(A, units18_ua)
    assert witness is not None
    assert witness["units"] == ("1,2", "5,6,15")
    assert witness["image_units"] == ("1,2", "7,8")
    assert witness["value"] == 3.0
    assert witness["image_value"] == 2.0
    with pytest.raises(IncompatibleMatrixError) as err:
        decompose_unit_automorphism(A, units18_ua)
    msg = str(err.value)
    assert "(W[1,2], W[5,6,15]) = 3" in msg
    assert "(W[1,2], W[7,8]) = 2" in msg


def test_unit_normalized_follows_the_unit_map(units18, units18_ua):
    # its unit quotient has entries |E_i meet E_j|, blind to unit sizes, so
    # any unit bijection that preserves edges is fine
    U = build_matrix(units18, "unit_normalized")
    assert unit_compatibility_witness(U, units18_ua) is None
    dec = decompose_unit_automorphism(U, units18_ua)
    assert sum(b.order for b in dec.blocks) == 18
    assert len(dec.lifted) == 18
    report = verify_decomposition(U, dec)
    assert report.verdict
    kinds = [b.source["kind"] for b in dec.blocks]
    assert kinds.count("unit") == 8
    assert "rotation" in kinds and "quotient" in kinds
    assert all(b.source.get("level") == "units" for b in dec.blocks if b.source["kind"] != "unit")
    # the quotient pairs are blown up to the vertices and checked against U
    # itself; recomputing a residual may differ by rounding, n eps ||U||
    A = U.entries
    rounding = 18 * np.finfo(float).eps * max(1.0, float(np.abs(A).sum(axis=1).max()))
    reps = [unit.member_indices[0] for unit in units18_ua.units.units]
    quotient_pairs = [p for p in dec.lifted if p.source["kind"] != "unit"]
    assert len(quotient_pairs) == 8
    for pair in quotient_pairs:
        assert pair.source.get("level") == "units"
        v = pair.vector
        assert np.array_equal(v, blow_up(v[reps], units18_ua.units))
        expected = np.linalg.norm(A @ v - pair.value * v) / max(1.0, np.linalg.norm(v))
        assert abs(pair.residual - expected) <= rounding


def test_cardinality_preserving_map_lifts_and_decomposes(units18):
    ua = validate_unit_automorphism(units18, UNITS18_SWAP_MAP)
    assert ua.cardinality_preserving
    aut = lift_cardinality_preserving(ua)
    lab = aut.perm.to_label_map(units18.labels)
    assert lab["7"] == "9" and lab["8"] == "10" and lab["9"] == "7" and lab["10"] == "8"
    assert lab["1"] == "1" and lab["15"] == "15"
    A = build_matrix(units18, "adjacency_r")
    dec = decompose_unit_automorphism(A, ua)
    assert verify_decomposition(A, dec).verdict


@given(
    st.sampled_from(((2,), (3,), (12,), (2, 4), (3, 6), (2, 2, 6))),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_a_lifted_unit_map_is_the_automorphism_validation_gives(lengths, fixed, seed):
    # blown-up instances, whose unit maps preserve unit sizes: the lift
    # validates nothing, and gives the permutation, edge map and order that
    # validating its permutation gives
    _, ua, _, _ = _unit_case(np.random.default_rng(seed), "adjacency_r", lengths, fixed)
    assert ua.cardinality_preserving
    with patch.object(symmetry, "validate_automorphism", wraps=symmetry.validate_automorphism) as validate, patch.object(
        symmetry, "_map_rows", wraps=symmetry._map_rows
    ) as map_rows:
        aut = lift_cardinality_preserving(ua)
    assert validate.call_count == map_rows.call_count == 0
    want = validate_automorphism(ua.hypergraph, aut.perm)
    assert (aut.hypergraph, aut.perm, aut.edge_map, aut.order) == (want.hypergraph, want.perm, want.edge_map, want.order)


def test_unit_decompose_tolerance_reaches_the_quotient_check(rot10, rot10_ua):
    # both members of unit '2,3' move together, so the matrix stays
    # unit-compatible and only its unit quotient is compatible within tol;
    # columns 3 and 6 are the units '4' and '7' of one orbit, into which
    # the quotient's row '2,3' then sums 1.2 tol more than '5,6' and '8,9'
    ua = rot10_ua
    base = build_matrix(rot10, "adjacency_r").entries
    for cols in ([0], [3, 6]):
        A = base.copy()
        A[np.ix_([1, 2], cols)] += 0.6e-6
        dec = decompose_unit_automorphism(A, ua, tol=1e-6)
        assert verify_decomposition(A, dec, tol=1e-5).verdict
    A[[1, 2], 0] += 1e-2
    with pytest.raises(IncompatibleMatrixError, match="not compatible with the unit map"):
        decompose_unit_automorphism(A, ua, tol=1e-6)


def test_nan_tolerance_and_nan_entry_are_refused_on_the_unit_route(rot10, rot10_ua):
    ua = rot10_ua
    base = build_matrix(rot10, "adjacency_r").entries
    A = base.copy()
    A[[1, 2], 0] += 0.5  # unit-compatible, but the quotient breaks the map
    with pytest.raises(NotUnitCompatibleError):
        decompose_unit_automorphism(A, ua, tol=float("nan"))
    A = base.copy()
    A[1, 0] = np.nan
    with pytest.raises(NotUnitCompatibleError, match="deviation nan"):
        decompose_unit_automorphism(A, ua)
    # the quotient's own gate, reached by a NaN quotient entry
    N = unit_quotient(base, ua.units)
    N[0, 1] = np.nan
    assert _quotient_witness(N, ua, COMPAT_TOL)["units"] == (ua.units.units[0].key, ua.units.units[1].key)
    assert _quotient_witness(unit_quotient(base, ua.units), ua, float("nan")) is not None


def test_induced_unit_automorphism(rot10, rot10_aut, rot10_ua):
    # the vertex automorphism moves whole units, and the unit map it induces
    # preserves their sizes and lifts back to it, with the same edge map
    assert rot10_ua.cardinality_preserving
    assert rot10_ua.unit_key_map() == ROT10_UNIT_MAP
    assert rot10_ua.edge_map == rot10_aut.edge_map
    assert lift_cardinality_preserving(rot10_ua).perm == rot10_aut.perm
    for unit in rot10_ua.units.units:
        image = {ROT10_MAP[label] for label in unit.members}
        assert ",".join(sorted(image, key=int)) == ROT10_UNIT_MAP[unit.key]


def test_unit_route_agrees_with_vertex_route(rot10, rot10_aut, rot10_ua):
    # same matrix, two decompositions: vertex automorphism vs induced units
    from hypersym import decompose_automorphism

    A = build_matrix(rot10, "unit_normalized")
    via_vertex = decompose_automorphism(A, rot10_aut)
    via_units = decompose_unit_automorphism(A, rot10_ua)
    a = np.sort_complex(via_vertex.eigenvalues())
    b = np.sort_complex(via_units.eigenvalues())
    assert np.allclose(a, b, atol=1e-8)


def _assert_unit_records_match(A, ua):
    """unit_eigenvalues and the "kind": "unit" records of a unit-route
    decomposition name the same units, values, multiplicities and vectors,
    exactly."""
    report = unit_eigenvalues(A, ua.units)
    dec = decompose_unit_automorphism(A, ua)
    blocks = [b for b in dec.blocks if b.source["kind"] == "unit"]
    lifts = [lift for lift in dec.lifts if lift.source["kind"] == "unit"]
    keys = [s.unit_key for s in report.structures]
    assert keys == [b.source["unit"] for b in blocks] == [lift.source["unit"] for lift in lifts]
    assert keys == [u.key for u in ua.units.units if u.size > 1]
    for s, block, lift in zip(report.structures, blocks, lifts):
        assert s.multiplicity == block.order == len(lift.values)
        assert block.eigenvalues.tolist() == lift.values.astype(complex).tolist() == [s.value] * s.multiplicity
        assert np.array_equal(np.stack(s.vectors, axis=1), lift.vectors)


@pytest.mark.parametrize("kind, unit_map", [("unit_normalized", UNITS18_UNIT_MAP), ("adjacency_r", UNITS18_SWAP_MAP)])
def test_unit_eigenvalues_are_the_unit_records_of_the_decomposition(units18, kind, unit_map):
    A = build_matrix(units18, kind)
    _assert_unit_records_match(A, validate_unit_automorphism(units18, unit_map))
    _assert_unit_records_match((0.5 - 2j) * A.entries, validate_unit_automorphism(units18, unit_map))


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6),
    st.sampled_from(["adjacency_r", "laplacian_r", "unit_normalized"]),
    st.sampled_from([1.0, -0.25, 1.5 + 2j]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_unit_eigenvalues_are_the_unit_records_on_blow_ups(copies, kind, scale, seed):
    # each base vertex b is copied copies[b] times; copies share b's star
    rng = np.random.default_rng(seed)
    labels = [f"{b}.{c}" for b, k in enumerate(copies) for c in range(k)]
    edges = {}
    for j in range(int(rng.integers(1, 5))):
        members = frozenset(b for b in range(len(copies)) if rng.random() < 0.5) or frozenset({0})
        edges.setdefault(members, f"e{j}")
    h = Hypergraph(labels, [(eid, [f"{b}.{c}" for b in sorted(m) for c in range(copies[b])]) for m, eid in edges.items()])
    units = compute_units(h)
    ua = validate_unit_automorphism(h, {u.key: u.key for u in units.units})
    _assert_unit_records_match(scale * build_matrix(h, kind).entries, ua)
