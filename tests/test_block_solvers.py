"""Each block solved in the arithmetic its structure allows.

Real blocks go to the real LAPACK drivers, every block of a balanced matrix
(Hermitian, or made so by its symmetrizer) goes to eigh, the block of
conj(w) of a real matrix takes the conjugated eigenpairs and residuals of
the w-block, and every block eigenvector follows one phase convention. Every route is checked against the dense oracle, with negative
controls.
"""

import dataclasses
import warnings
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersym import (
    Hypergraph,
    HypergraphMatrix,
    IncompatibleMatrixError,
    Permutation,
    as_array,
    build_matrix,
    compatible_matrix,
    compute_units,
    decompose_automorphism,
    decompose_unit_automorphism,
    invariant_hypergraph,
    invariant_weights,
    orbits,
    permutation_with_type,
    validate_automorphism,
    validate_unit_automorphism,
    verify_decomposition,
)
from hypersym import matrices, spectral
from hypersym.matrices import WEIGHTED_KINDS, WeightFunctions
from hypersym.symmetry import rotation_decomposition

from conftest import ROT10_DOC, ROT10_MAP, UNITS18_DOC, UNITS18_SWAP_MAP, UNITS18_UNIT_MAP

CYCLE_TYPES = ((2, 4, 4), (3, 6), (12,), (2,), (3,), (2, 3), (4,))
MATRICES = ("real symmetric", "real general", "complex hermitian", "complex general")


def _matrix(rng, perm, how):
    """A perm-compatible matrix of the given structure, exactly compatible."""
    M = compatible_matrix(rng, perm)
    if how == "real symmetric":
        return (M.real + M.real.T) / 2
    if how == "real general":
        return M.real
    if how == "complex hermitian":
        return (M + M.conj().T) / 2
    return M


def _block_rows(perm, source):
    """The indices, in block row order, at which a lifted vector of the
    block with this source carries the block vector itself."""
    if source["kind"] == "quotient":
        return [cell[0] for cell in orbits(perm).cells]
    j, ell = source["omega_k"], source["order_n"]
    return [u for rot in rotation_decomposition(perm) if j * rot.order_n % ell == 0 for u in rot.u0]


def _meets_convention(x):
    """Unit 2-norm, and an entry of largest re^2 + im^2 (to within rounding)
    real and positive."""
    mag = x.real**2 + x.imag**2
    near = mag >= (1 - 1e-13) * mag.max()
    return abs(np.linalg.norm(x) - 1) <= 1e-12 and bool((near & (x.imag == 0) & (x.real > 0)).any())


def _check(M, dec, rows_of):
    """The spectrum and every lifted residual against the oracle, nothing
    skipped; blocks sorted; every solved block vector, read off its lifted
    vector, meets the convention."""
    report = verify_decomposition(M, dec)
    assert report.verdict, report.failures
    assert not dec.skipped
    for block in dec.blocks:
        vals = block.eigenvalues
        assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(len(vals))), block.source
    for pair in dec.lifted:
        if pair.source["kind"] != "unit":
            x = pair.vector[rows_of(pair.source)]
            assert _meets_convention(x), (pair.source, x)


@given(
    st.sampled_from(CYCLE_TYPES),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(MATRICES),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=160, deadline=None)
def test_every_structure_matches_the_oracle(lengths, fixed, how, seed):
    rng = np.random.default_rng(seed)
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    M = _matrix(rng, p, how)
    dec = decompose_automorphism(M, p)
    assert sum(b.order for b in dec.blocks) == len(dec.lifted) == p.n
    _check(M, dec, lambda source: _block_rows(p, source))
    # negative controls: one entry on a moved vertex broken above the
    # tolerance is refused, and a shifted block value fails verification
    u = next(c[0] for c in p.cycles() if len(c) > 1)
    bad = M.copy()
    bad[u, p(u)] += 1e-3
    with pytest.raises(IncompatibleMatrixError, match="deviates"):
        decompose_automorphism(bad, p)
    block = dec.blocks[-1]
    shifted = block.eigenvalues.copy()
    shifted[0] += 1e-3 * max(1.0, float(np.abs(M).sum(axis=1).max()))
    blocks = (*dec.blocks[:-1], type(block)(source=block.source, order=block.order, eigenvalues=shifted))
    assert not verify_decomposition(M, type(dec)(n=dec.n, blocks=blocks, lifts=dec.lifts, skipped=())).verdict


UNITS18 = Hypergraph.from_dict(UNITS18_DOC)
UNIT_MAPS = {"unit_map": UNITS18_UNIT_MAP, "swap_map": UNITS18_SWAP_MAP}


@given(
    st.sampled_from([("unit_map", "unit_normalized"), ("swap_map", "adjacency_r"), ("swap_map", "unit_normalized")]),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=40, deadline=None)
def test_unit_route_matches_the_oracle(case, c):
    # c * M is a complex general matrix with the same symmetries as M
    name, kind = case
    ua = validate_unit_automorphism(UNITS18, UNIT_MAPS[name])
    units = compute_units(UNITS18)
    base = build_matrix(UNITS18, kind).entries
    for M in (base, c * base):
        dec = decompose_unit_automorphism(M, ua)
        _check(M, dec, lambda source: [units.units[i].member_indices[0] for i in _block_rows(ua.perm, source)])


def test_roots_are_exact_at_quarter_turns_and_conjugate():
    for n in range(1, 61):
        for k in range(n):
            w = spectral._root_value(n, k)
            if 4 * k % n == 0:
                assert w == (1, 1j, -1, -1j)[4 * k // n], (n, k)
            assert w == spectral._root_value(n, n - k).conjugate(), (n, k)
            assert abs(w - np.exp(2j * np.pi * k / n)) <= 2e-15, (n, k)


@pytest.mark.parametrize("lengths", [(2, 4, 4), (3, 6), (12,)], ids=str)
@pytest.mark.parametrize("fixed", [0, 2])
def test_conjugate_blocks_of_a_real_matrix_are_conjugate(lengths, fixed):
    rng = np.random.default_rng(sum(lengths) + fixed)
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    orbs = orbits(p)
    characters = spectral._characters(rotation_decomposition(p))
    for how in ("real symmetric", "real general"):
        A = _matrix(rng, p, how).astype(complex)
        blocks = {
            (s.get("factor"), s.get("omega_k")): spectral._block_matrix(A, parts, orbs)
            for s, parts, _ in characters
        }
        for s, _, _ in characters:
            if s["kind"] == "rotation" and 2 * s["omega_k"] > s["order_n"]:
                partner = blocks[s["factor"], s["order_n"] - s["omega_k"]]
                # equal entry for entry; only the sign of a zero may differ
                assert np.array_equal(blocks[s["factor"], s["omega_k"]], partner.conj())
            elif s["kind"] == "quotient" or 2 * s["omega_k"] == s["order_n"]:
                assert not blocks[s.get("factor"), s.get("omega_k")].imag.any()


@pytest.mark.parametrize("seed", range(20))
def test_convention_leaves_zgeev_vectors_untouched(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(1, 12))
    B = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
    if seed % 2:
        B = B + B.conj().T
    _, V = np.linalg.eig(B)
    assert spectral._phase_convention(V) is V
    # a rotated copy is brought back to the convention; a real column is
    # only negated
    W = spectral._phase_convention(V * np.exp(1j * rng.uniform(0, 2 * np.pi, size=b)))
    assert all(_meets_convention(W[:, i]) for i in range(b))
    assert np.allclose(W, V, atol=1e-14)
    _, R = np.linalg.eigh(B.real + B.real.T)
    R = R.astype(complex)
    P = spectral._phase_convention(R)
    assert all(_meets_convention(P[:, i]) for i in range(b))
    assert np.array_equal(np.abs(P), np.abs(R)) and not P.imag.any()


def _solver_calls(M, symmetry, decompose=decompose_automorphism):
    """The (solver, dtype kind) of every matrix that decompose(M, symmetry)
    hands to an eigensolver, one entry per matrix of a stacked call, and the
    decomposition."""
    calls = []

    def spy(name, fn):
        def wrapped(X):
            calls.extend([(name, X.dtype.kind)] * int(np.prod(X.shape[:-2])))
            return fn(X)

        return wrapped

    with patch.object(np.linalg, "eig", spy("eig", np.linalg.eig)), patch.object(
        np.linalg, "eigh", spy("eigh", np.linalg.eigh)
    ):
        dec = decompose(M, symmetry)
    return calls, dec


def test_rot2_blocks_reach_eigh():
    # an involution with no fixed point: the w = -1 block and the quotient
    # of a real symmetric matrix are real symmetric
    rng = np.random.default_rng(2)
    p = permutation_with_type(rng, 16, (2,) * 8)
    h = invariant_hypergraph(rng, p, seed_edges=4)
    A = build_matrix(h, "adjacency_r").entries
    calls, dec = _solver_calls(A, p)
    assert calls == [("eigh", "f"), ("eigh", "f")]
    assert verify_decomposition(A, dec).verdict


@pytest.mark.parametrize(
    "lengths, fixed, want",
    [((12,), 0, 2), ((2,) * 8, 0, 1), ((12,), 2, 3), ((2,) * 8, 2, 2)],
    ids=["12-cycle", "rot2", "12-cycle, fixed points", "rot2, fixed points"],
)
def test_blocks_of_one_order_dtype_and_symmetrizer_share_one_eigensolver_call(lengths, fixed, want):
    # a real symmetric matrix: under one 12-cycle the five complex w-blocks
    # of order 1 make one stack, w = -1 and the quotient (one real order,
    # one symmetrizer) another; under an involution w = -1 and the quotient
    # are one stack. Fixed points make the quotient larger than the w-blocks,
    # so it takes a stack, and a call, of its own
    rng = np.random.default_rng(sum(lengths) + fixed)
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    A = _matrix(rng, p, "real symmetric")
    with patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig:
        dec = decompose_automorphism(A, p)
    assert (eigh.call_count, eig.call_count) == (want, 0)
    assert verify_decomposition(A, dec).verdict


def test_each_root_computes_its_powers_once():
    # one 12-cycle of a real matrix: each of the 11 roots w != 1 computes
    # w^0..w^11 once, which its rotation columns and its lift both read
    rng = np.random.default_rng(12)
    p = permutation_with_type(rng, 12, (12,))
    A = _matrix(rng, p, "real general")
    with patch.object(spectral.RootOfUnity, "pow", autospec=True, side_effect=spectral.RootOfUnity.pow) as power:
        dec = decompose_automorphism(A, p)
    assert power.call_count == 11 * 12
    assert verify_decomposition(A, dec).verdict


@pytest.mark.parametrize("how", MATRICES)
def test_conjugate_pairs_are_solved_once_for_real_matrices_only(how):
    # one 12-cycle: blocks j = 1..11 and the quotient; for a real matrix
    # j = 7..11 take the conjugates of j = 5..1
    rng = np.random.default_rng(12)
    p = permutation_with_type(rng, 13, (12,))
    M = _matrix(rng, p, how)
    calls, dec = _solver_calls(M, p)
    assert len(calls) == (7 if how.startswith("real") else 12)
    if how.startswith("real"):  # w = -1 and the quotient, solved last, are real
        assert [kind for _, kind in calls[-2:]] == ["f", "f"]
    assert verify_decomposition(M, dec).verdict


def test_conjugated_values_are_sorted_again():
    # two 3-cycles with circulants (0, 1, 2) and (0, 2, 1): the w-block is
    # diagonal with values of exactly equal real part, whose conjugates are
    # out of (real, imag) order until sorted again
    p = Permutation((1, 2, 0, 4, 5, 3))
    A = np.zeros((6, 6))
    for base, (c1, c2) in ((0, (1, 2)), (3, (2, 1))):
        for i in range(3):
            A[base + i, base + (i + 1) % 3] = c1
            A[base + i, base + (i + 2) % 3] = c2
    dec = decompose_automorphism(A, p)
    w, w_bar = (dec.block(kind="rotation", omega_k=k).eigenvalues for k in (1, 2))
    assert w[0].real == w[1].real and w[0].imag < 0 < w[1].imag
    assert np.array_equal(w_bar, w)
    assert verify_decomposition(A, dec).verdict


BALANCED = ("transition", "unit_normalized", "general_adjacency", "general_laplacian", "general_signless", "complex hermitian")
# mixed cycle types whose lengths share a factor
MIXED_TYPES = ((2, 4), (2, 4, 4), (3, 6), (2, 3, 6), (4, 6), (2, 2, 6))


def _spread_weights(rng, h, group_of, edge_map):
    """general_* weights: delta_V one draw 10**u, u uniform in [0, 6), per
    vertex group (group_of[i] for vertex i), so spread over 1..1e6; delta_E
    one draw in (0.5, 2) per orbit of edge_map."""
    dv = 10.0 ** rng.uniform(0, 6, size=max(group_of) + 1)
    ids = list(edge_map)
    orbit = orbits(Permutation(tuple(ids.index(edge_map[e]) for e in ids))).cell_of
    de = rng.uniform(0.5, 2.0, size=max(orbit, default=0) + 1)
    return WeightFunctions(
        delta_V={lab: float(dv[g]) for lab, g in zip(h.labels, group_of)},
        delta_E={e: float(de[o]) for e, o in zip(ids, orbit)},
    )


def _vertex_case(rng, kind, lengths, fixed):
    """(M, automorphism, decompose, rows_of) of a random instance of the
    given balanced kind along a map of the given cycle type."""
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    rows_of = lambda source: _block_rows(p, source)  # noqa: E731
    if kind == "complex hermitian":
        return _matrix(rng, p, kind), p, decompose_automorphism, rows_of
    h = invariant_hypergraph(rng, p, seed_edges=3, include_full_edge=kind == "transition")
    aut = validate_automorphism(h, p)
    weights = _spread_weights(rng, h, orbits(p).cell_of, aut.edge_map) if kind in WEIGHTED_KINDS else None
    return build_matrix(h, kind, weights=weights), aut, decompose_automorphism, rows_of


def _unit_case(rng, kind, lengths, fixed):
    """The same on the unit route: every vertex of a random invariant
    hypergraph becomes one or two vertices sharing its star (as many along
    each cycle), and the map moves the units as it moves their members."""
    base = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    h0 = invariant_hypergraph(rng, base, seed_edges=3, include_full_edge=kind == "transition")
    copies = np.zeros(base.n, dtype=int)
    for cell in orbits(base).cells:
        copies[list(cell)] = rng.integers(1, 3)
    first = np.concatenate([[0], np.cumsum(copies)])
    labels = [str(k + 1) for k in range(first[-1])]
    edges = [
        (e.id, [labels[first[b] + c] for b in (int(m) - 1 for m in e.members) for c in range(copies[b])])
        for e in h0.edges
    ]
    h = Hypergraph(labels, edges)
    units = compute_units(h)
    mapping = [0] * len(units.units)
    for b in range(base.n):
        mapping[units.unit_of[first[b]]] = units.unit_of[first[base(b)]]
    ua = validate_unit_automorphism(h, Permutation(tuple(mapping)))
    rows_of = lambda source: [units.units[i].member_indices[0] for i in _block_rows(ua.perm, source)]  # noqa: E731
    if kind == "complex hermitian":  # a Hermitian matrix on the units, blown up
        H = _matrix(rng, ua.perm, kind)
        M = H[np.ix_(units.unit_of, units.unit_of)]
    else:
        group_of = [orbits(ua.perm).cell_of[u] for u in units.unit_of]
        weights = _spread_weights(rng, h, group_of, ua.edge_map) if kind in WEIGHTED_KINDS else None
        M = build_matrix(h, kind, weights=weights)
    return M, ua, decompose_unit_automorphism, rows_of


@given(
    st.sampled_from(BALANCED),
    st.sampled_from(MIXED_TYPES),
    st.integers(min_value=0, max_value=2),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_balanced_inputs_solve_every_block_by_eigh(kind, lengths, fixed, on_units, seed):
    rng = np.random.default_rng(seed)
    M, symmetry, decompose, rows_of = (_unit_case if on_units else _vertex_case)(rng, kind, lengths, fixed)
    symmetrizers = []  # (eigenvalues, symmetrizer) of each matrix solved

    def solve(blocks, e=None):
        vals, vecs = eig_sorted(blocks, e)
        symmetrizers.extend(
            (v.astype(np.complex128).tobytes(), None if e is None else e.tobytes())
            for v in vals.reshape(-1, vals.shape[-1])
        )
        return vals, vecs

    eig_sorted = spectral._eig_sorted
    with patch.object(spectral, "_eig_sorted", solve):
        calls, dec = _solver_calls(M, symmetry, decompose)
    assert calls and {name for name, _ in calls} == {"eigh"}, calls
    _check(M, dec, rows_of)
    # each solved block's symmetrizer is len(c) d(rep c) over its cycles c,
    # computed here from d directly: d = 1 for an exactly Hermitian matrix,
    # else the symmetrizer; |W| d(rep W) on the units, for the unit route.
    # A stack solves several blocks in one call, so each matrix is told
    # from the others by the eigenvalues it gave its block
    A = as_array(M)
    d = np.ones(len(A)) if np.array_equal(A, A.conj().T) else M.symmetrizer
    perm = getattr(symmetry, "perm", symmetry)
    if on_units:
        d = symmetry.units.sizes * d[symmetry.units.reps]
    cycle_of = {v: cycle for cycle in perm.cycles() for v in cycle}
    real = not np.iscomplexobj(A) or not A.imag.any()
    solved = [
        b for b in dec.blocks
        if b.source["kind"] == "quotient"
        or (b.source["kind"] == "rotation" and not (real and 2 * b.source["omega_k"] > b.source["order_n"]))
    ]
    want = Counter(
        (block.eigenvalues.tobytes(), np.array([len(cycle_of[c]) * d[c] for c in _block_rows(perm, block.source)]).tobytes())
        for block in solved
    )
    assert Counter(symmetrizers) == want


@pytest.fixture
def transition10():
    h = Hypergraph.from_dict(ROT10_DOC)
    return build_matrix(h, "transition"), validate_automorphism(h, ROT10_MAP)


def test_balanced_input_makes_no_eig_call(transition10):
    M, aut = transition10
    calls, dec = _solver_calls(M, aut)
    assert calls == [("eigh", "c"), ("eigh", "f")]  # the w-block of w^3 = 1, then the quotient
    assert verify_decomposition(M, dec).verdict


def _general_path(M, symmetry):
    """Every block goes to eig, and the oracle passes the decomposition."""
    calls, dec = _solver_calls(M, symmetry)
    assert calls and {name for name, _ in calls} == {"eig"}, calls
    assert verify_decomposition(M, dec).verdict


def test_a_reversed_symmetrizer_takes_the_general_path(transition10):
    M, aut = transition10
    _general_path(dataclasses.replace(M, symmetrizer=M.symmetrizer[::-1].copy()), aut)


def test_a_moved_entry_takes_the_general_path(transition10):
    # a move far inside the compatibility tolerance, far outside rounding
    M, aut = transition10
    A = M.entries.copy()
    A[0, 1] += 1e-12
    _general_path(dataclasses.replace(M, entries=A), aut)


def test_a_symmetrizer_not_constant_on_one_cycle_takes_the_general_path():
    # two isolated vertices swapped by the map: their rows and columns are
    # zero, so a d doubled at one of them still balances the matrix, but
    # is not constant on that cycle
    h = Hypergraph.from_dict({**ROT10_DOC, "vertices": ROT10_DOC["vertices"] + ["11", "12"]})
    aut = validate_automorphism(h, {**ROT10_MAP, "11": "12", "12": "11"})
    M = build_matrix(h, "general_adjacency", weights=invariant_weights(np.random.default_rng(0), h, aut))
    d = M.symmetrizer.copy()
    d[10] *= 2
    uneven = dataclasses.replace(M, symmetrizer=d)
    assert matrices._balance(M.entries.real, d) is d
    _general_path(uneven, aut)


def test_a_non_finite_matrix_fails_the_balance_check_without_a_warning():
    # the balance check now runs before the compatibility check refuses an
    # overflowed matrix; its inf - inf is a failed check, not a numpy warning
    A = np.array([[0.0, np.inf, 1.0], [np.inf, 0.0, 0.0], [0.0, 0.0, 0.0]])
    M = HypergraphMatrix(kind="transition", labels=("1", "2", "3"), entries=A, symmetrizer=np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert matrices.prepared(M)[1] is None


@pytest.mark.parametrize("lengths", [(12,), (2, 4, 4), (3, 6), (4, 6)], ids=str)
@pytest.mark.parametrize("fixed", [0, 2])
@pytest.mark.parametrize("how", ["real symmetric", "real general"])
def test_partner_lifts_are_bitwise_what_solving_them_gives(lengths, fixed, how):
    # the conj(w)-block, built and given the w-block's conjugated and
    # re-sorted eigenpairs, lifts to the same bytes as the reused record,
    # and its residuals against the conj(w) slices of A's columns summed
    # along the cycles are the reused ones
    rng = np.random.default_rng(sum(lengths) + fixed)
    p = permutation_with_type(rng, sum(lengths) + fixed, lengths)
    A = _matrix(rng, p, how)
    dec = decompose_automorphism(A, p)
    d = matrices._balance(A, None)
    orbs = orbits(p)
    factors = rotation_decomposition(p)
    characters = spectral._characters(factors)
    partners = [(i, parts, partner) for i, (_, parts, partner) in enumerate(characters) if partner is not None]
    assert partners
    for i, parts, partner in partners:
        w_parts = characters[partner][1]
        e = spectral._cell_symmetrizer(d, orbs)
        e = None if e is None else e[orbs.cell_of[np.concatenate([rot.u0 for rot, _ in w_parts])]]
        vals, vecs = spectral._eig_sorted(spectral._block_matrix(A, w_parts, orbs), e)
        vals, vecs = vals.conj(), spectral._phase_convention(vecs).conj()
        order = np.lexsort((vals.imag, vals.real))
        vals, vecs = vals[order], vecs[:, order]
        matrix = spectral._block_matrix(A, parts, orbs)
        block_res = spectral.residual_norms(spectral._product(matrix, vecs), vecs, vals)
        assert np.all(block_res <= spectral.LIFT_RESIDUAL_TOL * max(1.0, float(np.abs(matrix).max())))
        full = spectral._lift_block(vecs, parts, orbs, p.n)
        AV = spectral._lifted_products(A, orbs, factors, {i: (parts, vecs)})[i]
        res = spectral.residual_norms(AV, full, vals)
        lift = dec.lifts[i]
        assert lift.values.dtype == vals.dtype and lift.values.tobytes() == vals.tobytes()
        assert lift.vectors.dtype == full.dtype and lift.vectors.tobytes() == full.tobytes()
        assert lift.residuals.tobytes() == res.tobytes()
