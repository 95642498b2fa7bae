import pytest

from finkite.errors import SchemaError
from finkite.gallery import cyclic_magma, group_pair_span, meet_semilattice2
from finkite.internal import kite_from_span
from finkite.schemas import (KINDS, SCHEMAS, dump_algebra, dump_finmap,
                             dump_maps, load_algebra, load_finmap, load_maps,
                             load_variety_kite, dump_variety_kite,
                             schema_text)


def test_finmap_round_trip():
    from finkite.finmaps import FinMap
    f = FinMap(3, 2, (0, 1, 1))
    assert load_finmap(dump_finmap(f)).table == f.table


def test_finmap_error_points_at_field():
    with pytest.raises(SchemaError) as exc:
        load_finmap({"dom": 2, "cod": 2, "table": [0, 7]})
    assert "table[1]" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        load_finmap({"dom": 2, "cod": 2})
    assert "table" in str(exc.value)


def test_directed_kite_round_trip():
    dk = kite_from_span(group_pair_span(2))
    again = load_maps("directed_kite", dump_maps("directed_kite", dk))
    assert again == dk


def test_algebra_round_trip_and_variety_override():
    a = cyclic_magma(3)
    again = load_algebra(dump_algebra(a))
    assert again == a
    as_custom = load_algebra(dump_algebra(a), variety="custom")
    assert as_custom.variety == "custom"


def test_algebra_bad_table_length():
    with pytest.raises(SchemaError) as exc:
        load_algebra({"size": 2, "ops": [{"symbol": "*", "arity": 2,
                                          "table": [0, 0, 0]}]})
    assert "ops[0].table" in str(exc.value)


def test_variety_kite_round_trip():
    from finkite.algebra import wm_witness_search
    kite = wm_witness_search(meet_semilattice2())
    again = load_variety_kite(dump_variety_kite(kite))
    assert again == kite


def test_schema_text_known_names():
    for name in SCHEMAS:
        assert schema_text(name)
    with pytest.raises(SchemaError):
        schema_text("bogus")


def test_every_kind_has_a_schema_naming_its_maps():
    for kind, row in KINDS.items():
        fields = SCHEMAS[kind]["fields"]
        if isinstance(fields, str):         # "as multiplicative_graph"
            fields = SCHEMAS[fields.split()[-1]]["fields"]
        if row.maps:
            assert list(fields) == [n for _, n in row.maps], kind


def test_non_object_entry_is_a_schema_error():
    with pytest.raises(SchemaError) as exc:
        load_algebra({"kind": "algebra", "size": 2, "ops": [5]})
    assert "algebra.ops[0]" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        load_maps("span", {"d": {"dom": 0, "cod": 1, "table": []}, "c": [1]})
    assert "span.c" in str(exc.value)


@pytest.mark.parametrize("kind, field, where", [
    ("multiplicative_graph", "d", "reflexive_graph.d"),
    ("category", "m", "multiplicative_graph.m"),
    ("pregroupoid", "c", "span.c"),
    ("pregroupoid", "p", "pregroupoid.p"),
    ("kite_diagram", "gamma", "kite_diagram.gamma"),
])
def test_a_malformed_map_is_reported_where_its_structure_holds_it(
        kind, field, where):
    obj = {n: {"dom": 0, "cod": 0, "table": []} for _, n in KINDS[kind].maps}
    obj[field] = [1]
    with pytest.raises(SchemaError) as exc:
        load_maps(kind, obj)
    assert str(exc.value).startswith(f"{where}: ")


def test_finmap_rejects_bool_entries():
    with pytest.raises(SchemaError) as exc:
        load_finmap({"dom": 2, "cod": 2, "table": [True, False]})
    assert "table[0]" in str(exc.value)
    with pytest.raises(SchemaError):
        load_finmap({"dom": True, "cod": 2, "table": [0]})


def test_algebra_rejects_bool_entries():
    op = {"symbol": "*", "arity": 1, "table": [0, 1]}
    for bad in ({"size": True, "ops": []},
                {"size": 2, "ops": [{**op, "arity": True}]},
                {"size": 2, "ops": [{**op, "table": [0, True]}]}):
        with pytest.raises(SchemaError):
            load_algebra(bad)


def test_variety_kite_rejects_bool_homs():
    from finkite.algebra import wm_witness_search
    obj = dump_variety_kite(wm_witness_search(meet_semilattice2()))
    obj["f"] = [bool(v) for v in obj["f"]]
    with pytest.raises(SchemaError) as exc:
        load_variety_kite(obj)
    assert "variety_kite.f" in str(exc.value)
