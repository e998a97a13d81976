"""Hypergraph parsing, stars, unit partitions, and contraction."""

import numpy as np
import pytest

from hypersym import (
    DocumentError,
    Hypergraph,
    HypersymError,
    UnitPartition,
    canonical_json,
    compute_units,
    edge_unit_covers,
    parse_hypergraph,
    sort_labels,
    unit_contraction,
    unit_key,
)

from conftest import MIXED_LABELS_DOC, ROT10_DOC, UNITS18_DOC, UNITS18_KEYS


def test_vertex_order_is_numeric_for_integer_labels(rot10):
    assert rot10.labels == ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10")


def test_sort_labels_falls_back_to_lexicographic():
    assert sort_labels(["b", "a", "10"]) == ["10", "a", "b"]
    assert sort_labels(["10", "2", "-3"]) == ["-3", "2", "10"]


def test_stars_match_hand_count(rot10):
    def star(label):
        return {rot10.edge_ids[j] for j in rot10.stars[rot10.index[label]]}

    assert star("1") == {"e", "f", "g"}
    assert star("2") == {"f", "i", "j"}
    assert star("4") == {"j"}
    assert star("10") == {"i"}


def test_edge_members_are_canonically_sorted(rot10):
    i = rot10.edges[rot10.edge_index["i"]]
    assert i.members == ("2", "3", "8", "9", "10")


def test_roundtrip_serialize_parse(rot10):
    assert parse_hypergraph(canonical_json(rot10.to_dict())) == rot10


def test_duplicate_vertex_rejected():
    with pytest.raises(DocumentError, match="duplicate vertex"):
        Hypergraph(["1", "1"], [])


def test_duplicate_edge_id_rejected():
    with pytest.raises(DocumentError, match="duplicate edge id"):
        Hypergraph(["1", "2"], [("e", ["1"]), ("e", ["2"])])


def test_equal_member_sets_rejected():
    with pytest.raises(DocumentError, match="same member set"):
        Hypergraph(["1", "2"], [("a", ["1", "2"]), ("b", ["2", "1"])])


def test_empty_edge_rejected():
    with pytest.raises(DocumentError, match="no members"):
        Hypergraph(["1"], [("e", [])])


def test_unknown_member_rejected():
    with pytest.raises(DocumentError, match="unknown vertex"):
        Hypergraph(["1"], [("e", ["1", "7"])])


def test_units18_partition(units18):
    units = compute_units(units18)
    assert [u.key for u in units.units] == UNITS18_KEYS
    gen = {u.key: u.generating_edges for u in units.units}
    assert gen["1,2"] == ("e1", "e2", "e3", "e4", "e5")
    assert gen["3,4"] == ("e1", "e2", "e3")
    assert gen["5,6,15"] == ("e3",)
    assert gen["7,8"] == ("e2",)
    assert gen["9,10"] == ("e1",)
    assert gen["11,12,16"] == ("e4", "e6")
    assert gen["13,14"] == ("e5", "e7")
    assert gen["17,18"] == ("e6", "e7")


def test_units_partition_the_vertices(units18):
    units = compute_units(units18)
    seen = [v for u in units.units for v in u.member_indices]
    assert sorted(seen) == list(range(units18.n))
    for u in units.units:
        stars = {units18.stars[i] for i in u.member_indices}
        assert stars == {u.edge_indices}


def test_rot10_units(rot10):
    units = compute_units(rot10)
    keys = [u.key for u in units.units]
    assert keys == ["1", "2,3", "4", "5,6", "7", "8,9", "10"]


def test_unit_key_sorts_members():
    assert unit_key(["15", "6", "5"]) == "5,6,15"


def test_mixed_label_key_sorts_only_the_unit():
    units = compute_units(Hypergraph.from_dict(MIXED_LABELS_DOC))
    assert units.keys == ("9,10", "a", "b")
    assert units.units[0].key == "9,10"
    assert units.units[0].members == ("10", "9")


def test_partition_arrays_hold_the_units(units18):
    units = compute_units(units18)
    assert len(units) == len(units.keys) == 8
    for i, u in enumerate(units.units):
        assert units.keys[i] == u.key
        assert units.unit_members[units.unit_ptr[i] : units.unit_ptr[i + 1]].tolist() == list(u.member_indices)
        assert (units.unit_of[list(u.member_indices)] == i).all()
    assert units.sizes.tolist() == [u.size for u in units.units]
    assert units.reps.tolist() == [u.member_indices[0] for u in units.units]
    for array in (units.unit_of, units.unit_ptr, units.unit_members):
        assert array.dtype == np.intp and not array.flags.writeable


def test_partition_built_from_units_equals_the_computed_one(units18, rot10):
    units = compute_units(units18)
    built = UnitPartition(units=units.units, unit_of=tuple(units.unit_of.tolist()), n=units.n)
    assert built == units and units == built and hash(built) == hash(units)
    assert built.keys == units.keys
    for name in ("unit_of", "unit_ptr", "unit_members"):
        assert np.array_equal(getattr(built, name), getattr(units, name))
    assert built != compute_units(rot10)
    with pytest.raises(HypersymError, match=r"^unit_of gives vertex 2 unit 0, but it is a member of unit 1$"):
        UnitPartition(units=units.units, unit_of=(0,) * units.n, n=units.n)
    with pytest.raises(HypersymError, match=f"^unit_of names {units.n - 1} vertices, expected {units.n}$"):
        UnitPartition(units=units.units, unit_of=tuple(units.unit_of.tolist())[:-1], n=units.n)


def test_edge_covers_are_exact(units18):
    units = compute_units(units18)
    covers = edge_unit_covers(units18, units)
    keys = [u.key for u in units.units]
    named = {units18.edge_ids[j]: [keys[ui] for ui in cover] for j, cover in enumerate(covers)}
    assert named["e3"] == ["1,2", "3,4", "5,6,15"]
    assert named["e7"] == ["13,14", "17,18"]


def test_contraction_has_singleton_units(units18):
    result = unit_contraction(units18)
    assert result.contracted.n == 8
    assert result.contracted.m == units18.m
    assert result.vertex_map["15"] == "5,6,15"
    assert result.vertex_map["16"] == "11,12,16"
    again = compute_units(result.contracted)
    assert all(u.size == 1 for u in again.units)


def test_isolated_vertices_form_one_unit():
    h = Hypergraph(["1", "2", "3"], [("e", ["1"])])
    units = compute_units(h)
    assert [u.members for u in units.units] == [("1",), ("2", "3")]
    assert units.units[1].generating_edges == ()


def test_parse_rejects_non_object():
    with pytest.raises(DocumentError, match="JSON object"):
        parse_hypergraph("[1, 2]")


def test_parse_rejects_bad_json():
    with pytest.raises(DocumentError, match="not valid JSON"):
        parse_hypergraph("{nope")


def test_docs_build(rot10, units18):
    assert rot10.n == 10 and rot10.m == 6
    assert units18.n == 18 and units18.m == 7
    assert ROT10_DOC["vertices"][0] == "1"
    assert UNITS18_DOC["edges"][0]["id"] == "e1"
