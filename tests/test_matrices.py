"""Matrix builders against a brute-force star-based oracle and frozen values."""

import numpy as np
import pytest

from hypersym import (
    MATRIX_KINDS,
    Hypergraph,
    HypergraphMatrix,
    HypersymError,
    WeightFunctions,
    build_matrix,
    compute_units,
    row_sum_check,
)

from conftest import ROT10_ADJACENCY_R

# 4-vertex example small enough to check every entry by hand
H4 = Hypergraph(["1", "2", "3", "4"], [("a", ["1", "2"]), ("b", ["1", "2", "3"]), ("c", ["3", "4"])])
W4 = WeightFunctions(delta_V={"1": 2.0, "2": 1.0, "3": 1.0, "4": 4.0},
                     delta_E={"a": 1.0, "b": 3.0, "c": 2.0})


def stars_of(h):
    return [set(h.stars[i]) for i in range(h.n)]


def brute_force(h, kind, weights=None):
    """Entry-by-entry reference build straight from the star definitions."""
    stars = stars_of(h)
    sizes = [len(e) for e in h.edges]
    units = compute_units(h)
    nsize = [units.units[units.unit_of[i]].size for i in range(h.n)]
    dv = [weights.delta_V[lab] for lab in h.labels] if weights else None
    de = [weights.delta_E[eid] for eid in h.edge_ids] if weights else None
    M = np.zeros((h.n, h.n), dtype=complex)
    for u in range(h.n):
        for v in range(h.n):
            common = stars[u] & stars[v]
            if kind == "adjacency_r":
                M[u, v] = 0 if u == v else len(common)
            elif kind == "adjacency_b":
                M[u, v] = 0 if u == v else sum(1.0 / (sizes[j] - 1) for j in common)
            elif kind == "transition":
                M[u, v] = 0 if u == v else sum(1.0 / (sizes[j] - 1) for j in common) / len(stars[u])
            elif kind == "laplacian_r":
                M[u, v] = sum(len(stars[u] & stars[w]) for w in range(h.n) if w != u) if u == v else -len(common)
            elif kind == "laplacian_b":
                M[u, v] = len(stars[u]) if u == v else -sum(1.0 / (sizes[j] - 1) for j in common)
            elif kind == "signless_q":
                M[u, v] = len(stars[u]) if u == v else sum(1.0 / (sizes[j] - 1) for j in common)
            elif kind == "general_adjacency":
                M[u, v] = 0 if u == v else sum(de[j] / sizes[j] ** 2 for j in common) / dv[u]
            elif kind == "general_laplacian":
                if u == v:
                    M[u, v] = sum(de[j] / sizes[j] for j in stars[u]) / dv[u]
                else:
                    M[u, v] = -sum(de[j] / sizes[j] ** 2 for j in common) / dv[u]
            elif kind == "general_signless":
                M[u, v] = sum(de[j] / sizes[j] ** 2 for j in common) / dv[u]
            elif kind == "unit_normalized":
                M[u, v] = len(stars[u]) / nsize[u] if u == v else len(common) / nsize[v]
    return M


@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_builders_match_star_oracle(kind, rot10):
    for h, weights in ((H4, W4), (rot10, None)):
        if kind.startswith("general"):
            if weights is None:
                weights = WeightFunctions(
                    delta_V={lab: 1.0 + i for i, lab in enumerate(h.labels)},
                    delta_E={eid: 2.0 + j for j, eid in enumerate(h.edge_ids)},
                )
            built = build_matrix(h, kind, weights=weights)
            expect = brute_force(h, kind, weights)
        else:
            built = build_matrix(h, kind)
            expect = brute_force(h, kind)
        assert np.allclose(built.entries, expect, atol=1e-13)
        assert np.abs(built.entries.imag).max() == 0.0


def test_rot10_adjacency_r_exact(rot10):
    A = build_matrix(rot10, "adjacency_r")
    assert np.array_equal(A.entries.real, ROT10_ADJACENCY_R)
    assert np.abs(A.entries.imag).max() == 0.0


def test_h4_hand_values():
    A = build_matrix(H4, "adjacency_r").entries.real
    assert np.array_equal(A, [[0, 2, 1, 0], [2, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]])
    T = build_matrix(H4, "transition").entries.real
    assert np.allclose(T, [[0, 0.75, 0.25, 0], [0.75, 0, 0.25, 0],
                           [0.25, 0.25, 0, 0.5], [0, 0, 1, 0]])
    U = build_matrix(H4, "unit_normalized").entries.real
    assert np.allclose(U, [[1, 1, 1, 0], [1, 1, 1, 0], [0.5, 0.5, 2, 1], [0, 0, 1, 1]])


def test_transition_rows_sum_to_one(rot10):
    T = build_matrix(rot10, "transition")
    report = row_sum_check(T)
    assert report.expected == 1.0
    assert not report.violations
    assert np.allclose([s for s in report.sums], 1.0, atol=1e-12)


def test_laplacian_rows_sum_to_zero(rot10):
    for kind in ("laplacian_r", "laplacian_b"):
        report = row_sum_check(build_matrix(rot10, kind))
        assert report.expected == 0.0
        assert not report.violations


def test_general_laplacian_row_sums_reported_not_hidden():
    # the diagonal uses dE(e)/|e| against off-diagonal dE(e)/|e|^2 sums, so
    # rows do not cancel; the check must surface that rather than pass
    report = row_sum_check(build_matrix(H4, "general_laplacian", weights=W4))
    assert report.expected == 0.0
    assert len(report.violations) > 0


def test_row_sum_check_silent_for_adjacency(rot10):
    report = row_sum_check(build_matrix(rot10, "adjacency_r"))
    assert report.expected is None
    assert not report.violations


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_row_sum_check_reports_a_non_finite_row_sum(rot10, bad):
    M = build_matrix(rot10, "laplacian_r")
    entries = M.entries.copy()
    entries[3, 5] = bad
    report = row_sum_check(HypergraphMatrix(kind=M.kind, labels=M.labels, entries=entries))
    assert [i for i, _ in report.violations] == [3]
    assert not np.isfinite(report.violations[0][1])


def test_matrices_made_apart_compare_by_value(rot10):
    # equal builds compare equal; a different kind, entry or symmetrizer
    # compares unequal, and no comparison raises
    M, T = build_matrix(rot10, "adjacency_r"), build_matrix(rot10, "transition")
    assert M == build_matrix(rot10, "adjacency_r") and not M != build_matrix(rot10, "adjacency_r")
    assert T == build_matrix(rot10, "transition")
    changed = M.entries.copy()
    changed[0, 1] += 1.0
    assert M != HypergraphMatrix(kind="laplacian_r", labels=M.labels, entries=M.entries)
    assert M != HypergraphMatrix(kind=M.kind, labels=M.labels, entries=changed)
    assert M != HypergraphMatrix(kind=M.kind, labels=M.labels, entries=M.entries, symmetrizer=np.ones(M.order))
    assert T != HypergraphMatrix(kind=T.kind, labels=T.labels, entries=T.entries)  # None equals only None
    assert T != HypergraphMatrix(kind=T.kind, labels=T.labels, entries=T.entries, symmetrizer=2 * T.symmetrizer)
    assert M != "adjacency_r"
    # a NaN entry equals a NaN, so a matrix still equals itself
    changed[0, 1] = np.nan
    N = HypergraphMatrix(kind=M.kind, labels=M.labels, entries=changed)
    assert N == N and N == HypergraphMatrix(kind=M.kind, labels=M.labels, entries=changed) and N != M


def test_weighted_kinds_require_weights():
    with pytest.raises(HypersymError, match="requires a weights document"):
        build_matrix(H4, "general_adjacency")
    with pytest.raises(HypersymError, match="does not take weights"):
        build_matrix(H4, "adjacency_r", weights=W4)


def test_unknown_kind_rejected():
    with pytest.raises(HypersymError, match="unknown matrix kind"):
        build_matrix(H4, "adjacency")


def test_singleton_edge_rejected_for_reciprocal_kinds():
    h = Hypergraph(["1", "2"], [("a", ["1"]), ("b", ["1", "2"])])
    for kind in ("adjacency_b", "transition", "laplacian_b", "signless_q"):
        with pytest.raises(HypersymError, match="singleton edge"):
            build_matrix(h, kind)
    build_matrix(h, "adjacency_r")  # counting kinds are fine


def test_transition_needs_nonempty_stars():
    h = Hypergraph(["1", "2", "3"], [("a", ["1", "2"])])
    with pytest.raises(HypersymError, match="empty star"):
        build_matrix(h, "transition")


def test_weights_validation():
    with pytest.raises(HypersymError, match="missing weight for vertex"):
        build_matrix(H4, "general_adjacency",
                     weights=WeightFunctions(delta_V={"1": 1.0}, delta_E=W4.delta_E))
    bad = WeightFunctions(delta_V={**W4.delta_V, "4": -1.0}, delta_E=W4.delta_E)
    with pytest.raises(HypersymError, match="must be positive"):
        build_matrix(H4, "general_adjacency", weights=bad)
