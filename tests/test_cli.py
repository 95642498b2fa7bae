import json
import signal
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from finkite import algebra
from finkite.algebra import OpAlgebra, Operation
from finkite.cli import _commutative_tables, build_parser, main
from finkite.errors import IllTyped
from finkite.schemas import dump_algebra, dump_finmap, dump_maps
from finkite.gallery import (cyclic_magma, m3_lattice, meet_semilattice2,
                             preorder_graph_01, terminal_span_kite)


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


def test_validate_groupoid_reports_the_missed_kernel_pair_element(
        capsys, tmp_path):
    # the order category on {0 <= 1} is a category but not a groupoid
    rg = preorder_graph_01()
    path = write(tmp_path, "cat.json", {
        "kind": "category", "d": dump_finmap(rg.d), "c": dump_finmap(rg.c),
        "e": dump_finmap(rg.e),
        "m": {"dom": 4, "cod": 3, "table": [0, 1, 1, 2]}})
    code, _ = run(capsys, "validate", path)
    assert code == 0
    code, out = run(capsys, "validate", path, "--kind", "groupoid")
    assert code == 1
    assert out["witness"] == {"element": [0, 1],
                              "equation": "<m, pi2> is not surjective"}


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


def test_classify_witness_kite_with_a_repeated_symbol(capsys, tmp_path):
    """A unary "*" beside the binary "*" of the meet semilattice on 2:
    the search finds the same witness kite as with the unary named "u"
    (it reported the family complete with no witness)."""
    kites = []
    for symbol in ("*", "u"):
        path = write(tmp_path, f"meet_{symbol}.json", {
            "kind": "algebra", "size": 2, "variety": "cmag",
            "ops": [{"symbol": "*", "arity": 2, "table": [0, 0, 0, 1]},
                    {"symbol": symbol, "arity": 1, "table": [0, 1]}]})
        code, out = run(capsys, "classify", path, "--witness-kite")
        assert code == 1 and "witness_search" not in out
        kites.append({k: v for k, v in out["witness_kite"].items()
                      if k not in ("A", "B", "C", "D")})
    assert kites[0] == kites[1]


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


def test_relations_on_one_point_run_no_closure_round(capsys, tmp_path):
    """On one point the diagonal is all of A x A, so its closure ends
    before a round and an operation of arity 10^7 is never applied.  A
    round would take hours: a one-second alarm ends the call."""
    path = write(tmp_path, "point.json",
                 {"kind": "algebra", "size": 1, "variety": "custom",
                  "ops": [{"symbol": "f", "arity": 10 ** 7, "table": [0]}]})

    def alarm(signum, frame):
        raise TimeoutError("relations ran for more than 1 s")

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, out = run(capsys, "relations", path, "--reflexive")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0 and out["count"] == 1
    assert out["relations"][0]["pairs"] == [[0, 0]]


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


# every `--schema NAME` output as recorded, and the error for an unknown
# name: the texts are derived from schemas.KINDS (the algebra variety list
# from algebra.VARIETY_TABLE), so any change to a row's text shows here
SCHEMA_TEXTS = json.loads((Path(__file__).parent / "assets" /
                           "schema_texts.json").read_text(encoding="utf-8"))


def test_schema_flag(capsys):
    for name, recorded in SCHEMA_TEXTS.items():
        code = main(["--schema", name])
        captured = capsys.readouterr()
        assert {"exit": code, "stdout": captured.out,
                "stderr": captured.err} == recorded, name


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


def test_kite_check_names_a_bad_directed_kite_witness_as_json(capsys,
                                                              tmp_path):
    # the kernel-pair kite of 2 -> 1, with alpha r = beta broken at 0
    span = write(tmp_path, "span.json", {
        "kind": "span", "d": finmap(2, 1, [0, 0]), "c": finmap(2, 1, [0, 0])})
    code, kite = run(capsys, "kite", "build", "--from", "span", span)
    assert code == 0 and kite["alpha"]["table"] == [0, 0, 1, 1]
    kite["alpha"]["table"] = [1, 0, 1, 1]
    code, err = one_json_error(capsys, ["kite", "check",
                                        write(tmp_path, "bad.json", kite)])
    what, _, witness = err["error"].partition(": ")
    assert code == 2 and what == "invalid directed kite"
    assert json.loads(witness) == {"element": 0, "equation": "alpha r = beta"}


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


def test_wm_object_count_past_the_digit_limit_exits_3(capsys):
    # 52^(51^2) has more decimal digits than Python writes by default
    code, err = one_json_error(capsys, ["wm-object", "--size", "52"])
    assert code == 3 and err == {
        "error": "count of 14827 bits exceeds the int-to-str digit limit",
        "exit": 3}
    code, out = run(capsys, "wm-object", "--size", "51")
    assert code == 1 and out["verdict"] == "fails"


def test_wm_object_past_the_digit_limit_is_linear_in_E(capsys):
    # E = 200^2 points, one fibre of 200 values off the cross: the count
    # is a power and only the two least solutions are built, so no
    # E x |D| copy of the fibres is held
    tracemalloc.start()
    try:
        code, err = one_json_error(capsys, ["wm-object", "--size", "200"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and err["error"].endswith("exceeds the int-to-str "
                                               "digit limit")
    assert peak < 32 * 2 ** 20


def test_kite_solve_count_past_the_digit_limit_exits_3(capsys, tmp_path):
    path = write(tmp_path, "kite17.json",
                 dump_maps("kite_diagram", terminal_span_kite(17)))
    code, err = one_json_error(capsys, ["kite", "solve", path])
    assert code == 3 and err == {
        "error": "count of 17789 bits exceeds the int-to-str digit limit",
        "exit": 3}


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


@pytest.mark.parametrize("size, code, detail, verdict", [
    (0, 0, "conditions (2) and (3) agree on all 1 commutative magmas "
           "of size 0", "holds"),
    (1, 0, "conditions (2) and (3) agree on all 1 commutative magmas "
           "of size 1", "holds"),
    (2, 0, "conditions (2) and (3) agree on all 8 commutative magmas "
           "of size 2", "holds"),
    (4, 3, "size 4 sweep not supported; use size <= 3", "inconclusive"),
])
def test_equiv23_sweep_reports_are_byte_stable(capsys, size, code, detail,
                                               verdict):
    assert main(["equiv23", "--size", str(size)]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (
        '{"command": "equiv23", "details": ["' + detail + '"], '
        '"verdict": "' + verdict + '", "version": "1.0"}\n')


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


def test_negative_cap_exits_2_with_one_json_line(capsys, tmp_path):
    path = write(tmp_path, "k2.json",
                 dump_maps("kite_diagram", terminal_span_kite(2)))
    code, err = one_json_error(capsys, ["kite", "solve", path, "--cap", "-1"])
    assert code == 2 and err == {"error": "cap must be >= 0, got -1",
                                 "exit": 2}
    code, out = run(capsys, "kite", "solve", path, "--cap", "0")
    assert code == 0 and out["count"] == 4 and len(out["solutions"]) == 2


def finmap(dom, cod, table):
    return {"dom": dom, "cod": cod, "table": table}


# (p1, p2, e1, e2) breaking one of conditions 1-3 of a local product, and
# the failing texts of lp-check and kite check; kite check sees them with
# every leg into a one-point D.
CONDITION_FAILURES = [
    ((finmap(2, 2, [0, 0]), finmap(2, 1, [0, 0]), finmap(2, 2, [0, 0]),
      finmap(1, 2, [0])),
     '"details": ["p1 e1 != 1_A"]', '"details": ["p1 e1 != 1_A"]',
     '"witness": {"condition": 1, "element": 1}'),
    ((finmap(2, 1, [0, 0]), finmap(2, 2, [0, 0]), finmap(1, 2, [0]),
      finmap(2, 2, [0, 0])),
     '"details": ["p2 e2 != 1_C"]', '"details": ["p2 e2 != 1_C"]',
     '"witness": {"condition": 1, "element": 1}'),
    ((finmap(3, 2, [0, 0, 1]), finmap(3, 2, [0, 0, 1]), finmap(2, 3, [0, 2]),
      finmap(2, 3, [1, 2])),
     '"details": ["e1p1 e2p2 != e2p2 e1p1"]',
     '"details": ["(e1p1)(e2p2) != (e2p2)(e1p1)"]',
     '"witness": {"condition": 2, "element": 0}'),
    ((finmap(3, 2, [0, 0, 1]), finmap(3, 2, [0, 0, 1]), finmap(2, 3, [0, 2]),
      finmap(2, 3, [0, 2])),
     '"details": ["(p1, p2) is not jointly monic"]',
     '"details": ["(p1, p2) is not jointly monic"]',
     '"witness": {"condition": 3, "elements": [0, 1]}'),
]


@pytest.mark.parametrize("maps,lp_text,kite_text,witness", CONDITION_FAILURES,
                         ids=["1-p1e1", "1-p2e2", "2", "3"])
def test_lp_check_and_kite_check_reports_on_conditions_1_to_3(
        capsys, tmp_path, maps, lp_text, kite_text, witness):
    p1, p2, e1, e2 = maps
    lp = {"kind": "lp_diagram", "p1": p1, "p2": p2, "e1": e1, "e2": e2}
    point = {n: finmap(size, 1, [0] * size) for n, size in
             (("alpha", e1["dom"]), ("beta", p1["dom"]),
              ("gamma", e2["dom"]))}
    kite = {**lp, "kind": "kite_diagram", **point,
            "d": finmap(1, 1, [0]), "c": finmap(1, 1, [0])}
    for argv, name, text in (
            (["lp-check", write(tmp_path, "lp.json", lp)], "lp-check",
             lp_text),
            (["kite", "check", write(tmp_path, "kite.json", kite)],
             "kite-check", kite_text)):
        assert main(argv) == 1
        assert capsys.readouterr().out == (
            f'{{"command": "{name}", {text}, "verdict": "fails", '
            f'"version": "1.0", {witness}}}\n')


def test_validate_rejects_a_multiplicative_graph_with_d_e_not_1(capsys,
                                                                 tmp_path):
    # C1 = 1 and C0 = 2, so d e = (0, 0) misses the identity at 1; the
    # composable pairs, which need d e = 1 = c e, refuse the graph.
    path = write(tmp_path, "mg.json", {
        "kind": "multiplicative_graph", "d": finmap(1, 2, [0]),
        "c": finmap(1, 2, [0]), "e": finmap(2, 1, [0, 0]),
        "m": finmap(1, 1, [0])})
    code, out = run(capsys, "validate", path)
    assert code == 1 and out["witness"] == {
        "violation": "graph is not reflexive: "
                     '{"element": 1, "equation": "d e = 1"}'}


def test_law_failures_name_their_witness_as_json(capsys, tmp_path):
    # a graph with d e != 1, a one-object graph whose m is not unital, and
    # a unital but not associative one (1 (1 2) = 1 and (1 1) 2 = 0)
    one_object = {"d": finmap(3, 1, [0] * 3), "c": finmap(3, 1, [0] * 3),
                  "e": finmap(1, 3, [0])}
    rg = {"kind": "reflexive_graph", "d": finmap(1, 2, [0]),
          "c": finmap(1, 2, [0]), "e": finmap(2, 1, [0, 0])}
    umg = {"kind": "unital_multiplicative_graph", **one_object,
           "m": finmap(9, 3, [0] * 9)}
    cat = {"kind": "category", **one_object,
           "m": finmap(9, 3, [0, 1, 2, 1, 1, 0, 2, 0, 2])}
    code, out = run(capsys, "validate", write(
        tmp_path, "mg.json", {**rg, "kind": "multiplicative_graph",
                              "m": finmap(1, 1, [0])}))
    messages = [out["witness"]["violation"]]
    for source, obj in (("rg", rg), ("umg", umg), ("cat", cat)):
        assert main(["kite", "build", "--from", source,
                     write(tmp_path, f"{source}.json", obj)]) == 2
        messages.append(json.loads(capsys.readouterr().err)["error"])
    assert [m.partition(": ")[0] for m in messages] == [
        "graph is not reflexive", "invalid reflexive graph",
        "invalid unital multiplicative graph", "invalid internal category"]
    for m in messages:
        assert isinstance(json.loads(m.partition(": ")[2]), dict), m
