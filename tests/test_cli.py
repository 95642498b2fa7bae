import json
from itertools import product
from pathlib import Path

import pytest

from finkite import algebra
from finkite.algebra import OpAlgebra, Operation
from finkite.cli import _commutative_tables, build_parser, main
from finkite.errors import IllTyped
from finkite.schemas import dump_algebra, dump_finmap
from finkite.gallery import cyclic_magma, m3_lattice, meet_semilattice2


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, (json.loads(out) if out else None)


@pytest.fixture
def square_cospan(tmp_path):
    bang = {"dom": 2, "cod": 1, "table": [0, 0]}
    point = {"dom": 1, "cod": 2, "table": [0]}
    return write(tmp_path, "sc.json", {"kind": "split_cospan", "f": bang,
                                       "r": point, "g": bang, "s": point})


def test_lp_and_lp_check_round_trip(capsys, tmp_path, square_cospan):
    code, out = run(capsys, "lp", square_cospan)
    assert code == 0 and out["verdict"] == "holds"
    assert out["labels"] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    diagram = {"kind": "lp_diagram", "p1": out["p1"], "p2": out["p2"],
               "e1": out["e1"], "e2": out["e2"]}
    path = write(tmp_path, "lp.json", diagram)
    code, out = run(capsys, "lp-check", path)
    assert code == 0 and out["verdict"] == "holds"
    assert "cospan" in out
    # validate accepts what lp emitted
    code, out = run(capsys, "validate", path)
    assert code == 0


def test_pushout_compare(capsys, square_cospan):
    code, out = run(capsys, "pushout-compare", square_cospan)
    assert code == 1 and out["verdict"] == "fails"


def test_kpc_command(capsys, tmp_path):
    span = {"kind": "span",
            "d": {"dom": 2, "cod": 1, "table": [0, 0]},
            "c": {"dom": 2, "cod": 2, "table": [0, 1]}}
    path = write(tmp_path, "span.json", span)
    code, out = run(capsys, "kpc", path)
    assert code == 0 and len(out["triples"]) == 4
    assert all(t[1] == t[2] for t in out["triples"])
    graph_path = write(tmp_path, "graph.json", out)
    code, _ = run(capsys, "validate", graph_path)
    assert code == 0
    code, out = run(capsys, "kpc", path, "--swapped")
    assert all(t[0] == t[1] for t in out["triples"])


def test_kite_build_check_solve(capsys, tmp_path):
    span = {"kind": "span",
            "d": {"dom": 2, "cod": 1, "table": [0, 0]},
            "c": {"dom": 2, "cod": 1, "table": [0, 0]}}
    path = write(tmp_path, "span.json", span)
    code, kite = run(capsys, "kite", "build", "--from", "span", path)
    assert code == 0 and kite["kind"] == "directed_kite"
    kite_path = write(tmp_path, "kite.json", kite)
    code, out = run(capsys, "validate", kite_path)
    assert code == 0
    code, out = run(capsys, "kite", "check", kite_path)
    assert code == 0
    code, out = run(capsys, "kite", "solve", kite_path)
    assert code == 0 and out["count"] == 4

    code, asm = run(capsys, "kite", "build", "--from", "span", path,
                    "--assembled")
    assert code == 0 and asm["kind"] == "kite_diagram"
    asm_path = write(tmp_path, "kite_diagram.json", asm)
    code, out = run(capsys, "validate", asm_path)
    assert code == 0
    code, out = run(capsys, "kite", "solve", asm_path, "--cap", "2")
    assert out["count"] == 4 and len(out["solutions"]) == 2


def test_kite_build_from_graph_sources(capsys, tmp_path):
    rg = {"kind": "reflexive_graph",
          "d": {"dom": 3, "cod": 2, "table": [0, 0, 1]},
          "c": {"dom": 3, "cod": 2, "table": [0, 1, 1]},
          "e": {"dom": 2, "cod": 3, "table": [0, 2]}}
    path = write(tmp_path, "rg.json", rg)
    code, kite = run(capsys, "kite", "build", "--from", "rg", path,
                     "--assembled")
    assert code == 0
    kite_path = write(tmp_path, "kite.json", kite)
    code, out = run(capsys, "kite", "solve", kite_path)
    assert code == 0 and out["count"] == 1  # the order relation is transitive

    # one-object Z_2 as unital multiplicative graph / category
    umg = {"kind": "unital_multiplicative_graph",
           "d": {"dom": 2, "cod": 1, "table": [0, 0]},
           "c": {"dom": 2, "cod": 1, "table": [0, 0]},
           "e": {"dom": 1, "cod": 2, "table": [0]},
           "m": {"dom": 4, "cod": 2, "table": [0, 1, 1, 0]}}
    path = write(tmp_path, "umg.json", umg)
    code, _ = run(capsys, "validate", path)
    assert code == 0
    code, _ = run(capsys, "validate", path, "--kind", "groupoid")
    assert code == 0
    for source in ("umg", "cat"):
        code, kite = run(capsys, "kite", "build", "--from", source, path)
        assert code == 0 and kite["kind"] == "directed_kite"


def test_wm_object_exit_codes(capsys):
    code, out = run(capsys, "wm-object", "--size", "1")
    assert code == 0 and out["verdict"] == "holds"
    code, out = run(capsys, "wm-object", "--size", "2")
    assert code == 1 and out["verdict"] == "fails"
    assert out["count"] == 2 and "witness_kite" in out


def test_classify_commands(capsys, tmp_path):
    z3 = write(tmp_path, "z3.json", dump_algebra(cyclic_magma(3)))
    code, out = run(capsys, "classify", z3, "--variety", "cmag")
    assert code == 0 and out["verdict"] == "holds"
    meet = write(tmp_path, "meet.json", dump_algebra(meet_semilattice2()))
    code, out = run(capsys, "classify", meet)
    assert code == 1 and out["criterion"] == "cancellation"
    code, out = run(capsys, "classify", meet, "--witness-kite")
    assert code == 1 and "witness_kite" in out
    m3 = write(tmp_path, "m3.json", dump_algebra(m3_lattice()))
    code, out = run(capsys, "classify", m3)
    assert code == 1
    # the whole projection family of M3 holds no witness kite
    code, out = run(capsys, "classify", m3, "--witness-kite")
    assert code == 1 and "witness_kite" not in out
    assert out["witness_search"] == {"family": "projection", "examined": 256,
                                     "of": 256, "complete": True}


def test_maltsev_op(capsys, tmp_path):
    z5 = write(tmp_path, "z5.json", dump_algebra(cyclic_magma(5)))
    code, out = run(capsys, "maltsev-op", z5, "1", "4", "3")
    assert code == 0 and out["value"] == 0
    meet = write(tmp_path, "meet.json", dump_algebra(meet_semilattice2()))
    code, out = run(capsys, "maltsev-op", meet, "1", "0", "1")
    assert code == 1 and out["verdict"] == "fails"


@pytest.mark.parametrize("triple", [("0", "5", "0"), ("-1", "0", "0")])
def test_maltsev_op_out_of_range_exits_2(capsys, tmp_path, triple):
    z3 = write(tmp_path, "z3.json", dump_algebra(cyclic_magma(3)))
    assert main(["maltsev-op", z3, *triple]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["exit"] == 2


def test_relations_command(capsys, tmp_path):
    empty = write(tmp_path, "two.json",
                  {"kind": "algebra", "size": 2, "variety": "custom",
                   "ops": []})
    code, out = run(capsys, "relations", empty, "--reflexive")
    assert code == 0 and out["count"] == 4
    non_sym = [r for r in out["relations"]
               if not r["symmetric"] and r["transitive"]]
    assert non_sym


def test_relations_budget_exit(capsys, tmp_path):
    empty = write(tmp_path, "three.json",
                  {"kind": "algebra", "size": 3, "variety": "custom",
                   "ops": []})
    code, out = run(capsys, "relations", empty, "--reflexive",
                    "--budget", "3")
    assert code == 3 and out["verdict"] == "inconclusive"


def test_equiv23_command(capsys):
    code, out = run(capsys, "equiv23", "--size", "2")
    assert code == 0


def test_ismember_command(capsys):
    code, out = run(capsys, "ismember", "-f", "2", "0", "2", "-u", "0", "2")
    assert code == 0
    assert out["flags"] == [True, True, True]
    assert out["positions"] == [1, 0, 1]
    code, out = run(capsys, "ismember", "--one-based",
                    "-f", "3", "1", "3", "-u", "1", "3")
    assert out["positions"] == [2, 1, 2]
    code, out = run(capsys, "ismember", "--one-based", "-f", "2", "-u", "1")
    assert out["positions"] == [0] and out["flags"] == [False]


def test_validate_rejects_malformed(capsys, tmp_path):
    path = write(tmp_path, "bad.json",
                 {"kind": "finmap", "dom": 2, "cod": 2, "table": [0, 5]})
    code, out = run(capsys, "validate", path)
    assert code == 2
    path = write(tmp_path, "nokind.json", {"dom": 2})
    code, out = run(capsys, "validate", path)
    assert code == 2


def test_malformed_algebra_exits_2_with_one_json_line(capsys, tmp_path):
    path = write(tmp_path, "ops5.json",
                 {"kind": "algebra", "size": 2, "ops": [5]})
    for command in ("validate", "classify"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["exit"] == 2


def test_validate_pregroupoid(capsys, tmp_path):
    # x - y + z on Z_2 over the span to the point
    from finkite.internal import Span, kpc
    from finkite.finmaps import FinMap
    bang = {"dom": 2, "cod": 1, "table": [0, 0]}
    k = kpc(Span(FinMap(2, 1, (0, 0)), FinMap(2, 1, (0, 0))))
    p_table = [(x - y + z) % 2 for (x, y, z) in k.triples]
    path = write(tmp_path, "pg.json",
                 {"kind": "pregroupoid", "d": bang, "c": bang,
                  "p": {"dom": len(p_table), "cod": 2, "table": p_table}})
    code, out = run(capsys, "validate", path)
    assert code == 0 and out["verdict"] == "holds"


def test_validate_max_size(capsys, tmp_path):
    path = write(tmp_path, "big.json",
                 {"kind": "finmap", "dom": 3, "cod": 2, "table": [0, 1, 0]})
    code, _ = run(capsys, "validate", path)
    assert code == 0
    code, _ = run(capsys, "validate", path, "--max-size", "2")
    assert code == 2


def test_validate_max_size_bounds_algebras(capsys, tmp_path):
    z3 = write(tmp_path, "z3.json", dump_algebra(cyclic_magma(3)))
    assert run(capsys, "validate", z3, "--max-size", "3")[0] == 0
    assert run(capsys, "validate", z3, "--max-size", "2")[0] == 2
    kite = str(Path(__file__).parent / "assets" / "meet2_witness_kite.json")
    assert run(capsys, "validate", kite)[0] == 0
    assert run(capsys, "validate", kite, "--max-size", "1")[0] == 2


def test_huge_arity_exits_2_with_one_json_line(capsys, tmp_path):
    path = write(tmp_path, "arity.json",
                 {"kind": "algebra", "size": 2,
                  "ops": [{"symbol": "f", "arity": 100000, "table": [0]}]})
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["exit"] == 2
    with pytest.raises(IllTyped):
        OpAlgebra(2, (Operation("f", 100000, (0,)),))


def test_over_long_integer_exits_2_with_one_json_line(capsys, tmp_path):
    # json.load refuses integers of more than 4300 digits with a plain
    # ValueError, not a JSONDecodeError
    path = tmp_path / "long.json"
    path.write_text('{"kind": "algebra", "size": ' + "9" * 5000
                    + ', "ops": []}', encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["exit"] == 2


def test_validate_broken_graph_is_a_verdict(capsys, tmp_path):
    rg = {"kind": "reflexive_graph",
          "d": {"dom": 3, "cod": 2, "table": [0, 0, 1]},
          "c": {"dom": 3, "cod": 2, "table": [0, 1, 1]},
          "e": {"dom": 2, "cod": 3, "table": [1, 2]}}
    path = write(tmp_path, "rg.json", rg)
    code, out = run(capsys, "validate", path)
    assert code == 1 and out["verdict"] == "fails"
    assert out["witness"]["element"] == 0


def test_reports_are_byte_stable(capsys):
    code1, _ = run(capsys, "wm-object", "--size", "3")
    out1 = None
    code = main(["wm-object", "--size", "3"])
    out1 = capsys.readouterr().out
    code = main(["wm-object", "--size", "3"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_schema_flag(capsys):
    assert main(["--schema", "algebra"]) == 0
    capsys.readouterr()
    assert main(["--schema", "nope"]) == 2


def test_human_flag(capsys):
    code = main(["--human", "wm-object", "--size", "1"])
    out = capsys.readouterr().out
    assert code == 0 and "wm-object: holds" in out


def test_relations_over_the_closure_cap_is_inconclusive(capsys, tmp_path):
    z23 = write(tmp_path, "z23.json", dump_algebra(cyclic_magma(23)))
    code = main(["relations", z23, "--reflexive"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert code == 3 and captured.err == ""
    assert out["verdict"] == "inconclusive"
    assert out["details"] == ["relation closure exceeded the element cap; "
                              "1 relations found"]
    assert [len(r["pairs"]) for r in out["relations"]] == [23]


def test_shared_parser_keeps_no_state_between_calls():
    parser = build_parser()
    assert build_parser() is parser
    first = parser.parse_args(["kpc", "a.json", "--swapped"])
    second = parser.parse_args(["kpc", "b.json"])
    assert first is not second
    assert (first.file, first.swapped) == ("a.json", True)
    assert (second.file, second.swapped) == ("b.json", False)


def one_json_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    return code, json.loads(lines[0])


def test_negative_sizes_exit_2_with_one_json_line(capsys):
    code, err = one_json_error(capsys, ["wm-object", "--size", "-3"])
    assert code == 2 and err == {"error": "size must be >= 0, got -3",
                                 "exit": 2}
    code, err = one_json_error(capsys, ["equiv23", "--size", "-1"])
    assert code == 2 and err == {"error": "size must be >= 0, got -1",
                                 "exit": 2}
    code, out = run(capsys, "wm-object", "--size", "0")
    assert code == 0 and out["verdict"] == "holds"


def test_negative_budgets_exit_2_with_one_json_line(capsys, tmp_path):
    meet = write(tmp_path, "meet.json", dump_algebra(meet_semilattice2()))
    # z3 classifies as holds, so no witness search would see the budget
    z3 = write(tmp_path, "z3.json", dump_algebra(cyclic_magma(3)))
    for argv in (["classify", meet, "--witness-kite", "--budget", "-1"],
                 ["classify", z3, "--witness-kite", "--budget", "-1"],
                 ["relations", meet, "--reflexive", "--budget", "-1"]):
        code, err = one_json_error(capsys, argv)
        assert code == 2 and err == {"error": "budget must be >= 0, got -1",
                                     "exit": 2}
    code, out = run(capsys, "classify", meet, "--witness-kite", "--budget",
                    "0")
    assert code == 1 and out["witness_search"]["examined"] == 0
    code, out = run(capsys, "relations", meet, "--reflexive", "--budget", "0")
    assert code == 3 and out["verdict"] == "inconclusive"


def test_the_empty_group_validates_and_classifies_as_holds(capsys, tmp_path):
    empty = write(tmp_path, "e.json", {
        "kind": "algebra", "size": 0, "variety": "group",
        "ops": [{"symbol": "*", "arity": 2, "table": []}]})
    for command in ("validate", "classify"):
        code, out = run(capsys, command, empty)
        assert code == 0 and out["verdict"] == "holds"


def nested_list_tables(n):
    """The equiv23 sweep's tables as built before the index map."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    for values in product(range(n), repeat=len(cells)):
        table = [[0] * n for _ in range(n)]
        for (i, j), v in zip(cells, values):
            table[i][j] = table[j][i] = v
        yield tuple(table[i][j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("n, count", [(0, 1), (1, 1), (2, 8), (3, 729)])
def test_index_map_tables_match_the_nested_list_build(n, count):
    tables = list(_commutative_tables(n))
    assert len(tables) == count
    assert tables == list(nested_list_tables(n))


def test_equiv23_reports_the_first_magma_where_the_conditions_disagree(
        capsys, monkeypatch):
    tables = list(_commutative_tables(3))
    chosen = {tables[40], tables[7]}       # both have a repeated column
    assert not any(algebra._columns_injective(t, 3) for t in chosen)
    real = algebra._columns_injective
    monkeypatch.setattr(algebra, "_columns_injective",
                        lambda key, n: key in chosen or real(key, n))
    code, out = run(capsys, "equiv23", "--size", "3")
    assert code == 1 and out["verdict"] == "fails"
    assert out["witness"] == {"table": list(tables[7]), "cond2": True,
                              "cond3": False}


@pytest.mark.parametrize("kind", [[1], {}])
def test_validate_unhashable_kind_exits_2_with_one_json_line(capsys, tmp_path,
                                                             kind):
    path = write(tmp_path, "kind.json", {"kind": kind})
    assert main(["validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert f"unknown kind {kind!r}" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("top", [[], "x"])
def test_kite_commands_on_a_non_object_exit_2_with_one_json_line(
        capsys, tmp_path, top):
    path = write(tmp_path, "top.json", top)
    for command in ("check", "solve"):
        assert main(["kite", command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"].startswith(
            "kite_diagram: expected an object")
