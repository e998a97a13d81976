"""Randomized and property-based invariants across the whole stack."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersym import (
    MATCH_TOL,
    Hypergraph,
    Permutation,
    canonical_json,
    compatible_matrix,
    compute_units,
    decompose_automorphism,
    match_multisets,
    parse_json,
    permutation_with_type,
    verify_decomposition,
)

from property_checks import run_spectrum_trials, run_synchronization_trials


def test_spectrum_invariants_on_random_instances():
    failures = run_spectrum_trials(count=60, seed=0)
    assert not failures, "\n".join(failures)


def test_synchronization_on_random_instances():
    failures = run_synchronization_trials(count=20, seed=0)
    assert not failures, "\n".join(failures)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_canonical_json_roundtrips(value):
    text = canonical_json(value)
    assert parse_json(text) == value
    assert canonical_json(parse_json(text)) == text  # stable under reload


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_seventeen_digits_roundtrip_floats(x):
    out = json.loads(canonical_json({"x": x}))["x"]
    assert out == x or (x == 0.0 and out == 0.0)


@st.composite
def permutations(draw, max_n=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    mapping = list(range(n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rng.shuffle(mapping)
    return Permutation(tuple(int(v) for v in mapping))


@given(permutations())
@settings(max_examples=100, deadline=None)
def test_permutation_group_laws(p):
    assert p.compose(p.inverse()).is_identity
    assert p.inverse().compose(p).is_identity
    assert p.power(p.order).is_identity
    sizes = sorted(len(c) for c in p.cycles())
    assert sum(sizes) == p.n


@given(
    st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_every_cycle_type_decomposes_completely(lengths, fixed, symmetric, seed):
    # non-coprime mixed types and fixed points included
    rng = np.random.default_rng(seed)
    p = permutation_with_type(rng, sum(lengths) + fixed, tuple(lengths))
    M = compatible_matrix(rng, p, symmetric=symmetric)
    dec = decompose_automorphism(M, p)
    assert sum(b.order for b in dec.blocks) == p.n
    assert len(dec.eigenvalues()) == p.n
    report = verify_decomposition(M, dec)
    assert report.verdict, report.failures
    threshold = MATCH_TOL * max(1.0, float(np.abs(M).sum(axis=1).max()))
    assert all(pair.residual <= threshold for pair in dec.lifted)


@st.composite
def small_hypergraphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    labels = [str(i + 1) for i in range(n)]
    m = draw(st.integers(min_value=0, max_value=5))
    edges = []
    seen = set()
    for j in range(m):
        members = draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n)
        )
        key = frozenset(members)
        if key in seen:
            continue
        seen.add(key)
        edges.append((f"e{j}", [labels[v] for v in sorted(members)]))
    return Hypergraph(labels, edges)


@given(small_hypergraphs())
@settings(max_examples=200, deadline=None)
def test_units_never_split_by_edges(h):
    units = compute_units(h)
    cells = [set(u.member_indices) for u in units.units]
    assert sorted(v for cell in cells for v in cell) == list(range(h.n))
    for mset in h.member_sets:
        for cell in cells:
            touched = cell & mset
            assert not touched or touched == cell


@given(
    st.lists(
        st.complex_numbers(max_magnitude=100, allow_nan=False, allow_infinity=False),
        max_size=12,
    ),
    st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_multiset_matches_its_own_shuffle(values, rnd):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    pairs, ua, ub = match_multisets(values, shuffled, tol=1e-12)
    assert len(pairs) == len(values)
    assert not ua and not ub
