"""Arbitrary JSON through every file-reading command of the CLI, and
arbitrary flag values through every command that takes one.

Each file example writes one file -- a structure of a registry kind with
fields that are small finmaps or arbitrary JSON, an unknown kind, or any
JSON value at all -- and runs each command on it.  Each flag example
runs one command line with integer flags, sizes past 50 included, on a
few fixed tiny files.  Whatever the input, `cli.main` returns an exit
code in {0, 1, 2, 3} and writes at most one line, a JSON object, to
stderr; no exception escapes.
"""
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from finkite.algebra import VARIETIES
from finkite.cli import main
from finkite.gallery import cyclic_magma, meet_semilattice2, terminal_span_kite
from finkite.schemas import KINDS, dump_algebra, dump_maps

COMMANDS = (["validate"], ["kite", "check"], ["kite", "solve"], ["lp"],
            ["lp-check"], ["pushout-compare"], ["kpc"], ["classify"],
            ["relations", "--reflexive"])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)


@st.composite
def finmaps(draw, sizes=st.integers(0, 3)):
    """Well-formed maps between sets of the given sizes."""
    dom, cod = draw(sizes), draw(sizes)
    table = draw(st.lists(st.integers(0, max(cod - 1, 0)),
                          min_size=dom, max_size=dom))
    return {"dom": dom, "cod": cod, "table": table}


@st.composite
def algebras(draw):
    n = draw(st.integers(0, 3))
    ops = []
    for i in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0 if n else 1, 2))
        ops.append({"symbol": f"o{i}", "arity": k,
                    "table": draw(st.lists(st.integers(0, max(n - 1, 0)),
                                           min_size=n ** k,
                                           max_size=n ** k))})
    return {"kind": "algebra", "size": n, "variety": draw(varieties),
            "ops": ops}


# built once: a strategy built inside each draw is validated again there
varieties = st.sampled_from(VARIETIES) | json_values
kinds = st.sampled_from(sorted(KINDS) + ["bogus"]) | json_values
homs = st.lists(st.integers(0, 3), max_size=3)


@st.composite
def files(draw):
    """One object in five is arbitrary JSON; the rest carry a kind."""
    if draw(st.integers(0, 4)) == 0:
        return draw(json_values)
    kind = draw(kinds)
    if kind == "algebra":
        obj = draw(algebras())
    elif kind == "variety_kite":
        obj = {n: draw(algebras()) for n in "ABCD"}
        obj.update({n: draw(homs)
                    for n in ("f", "r", "s", "g", "alpha", "beta", "gamma")})
    elif kind == "finmap":
        obj = draw(finmaps())
    elif isinstance(kind, str) and kind in KINDS:
        # maps between sets of one or two sizes, so that some files pass
        # the domain checks and reach the laws; one field in six is junk
        sizes = st.sampled_from(draw(st.lists(st.integers(0, 3),
                                              min_size=1, max_size=2)))
        obj = {n: draw(finmaps(sizes)) if draw(st.integers(0, 5))
               else draw(json_values) for _, n in KINDS[kind].maps}
    else:
        obj = draw(st.dictionaries(st.text(max_size=3), json_values,
                                   max_size=3))
    obj["kind"] = kind
    return obj


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(obj=files())
def test_every_command_ends_in_an_exit_code_and_at_most_one_json_line(
        tmp_path, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [str(path)])
        assert code in (0, 1, 2, 3), (command, obj)
        lines = err.getvalue().splitlines()
        assert len(lines) <= 1, (command, obj)
        if lines:
            assert isinstance(json.loads(lines[0]), dict), (command, obj)


# Flag and argument values through every command that takes one, on a
# few fixed tiny files; "ALG", "SEMI" and "KITE" stand for their paths.
def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


index_lists = st.lists(_ints(-2, 60), max_size=4)
algebra_files = st.sampled_from(["ALG", "SEMI"])
argvs = st.one_of(
    _ints(-3, 70).map(lambda n: ["wm-object", "--size", n]),
    _ints(-2, 60).map(lambda n: ["equiv23", "--size", n]),
    st.tuples(algebra_files, _ints(-3, 60)).map(
        lambda t: ["relations", t[0], "--reflexive", "--budget", t[1]]),
    st.tuples(algebra_files, _ints(-3, 60)).map(
        lambda t: ["classify", t[0], "--witness-kite", "--budget", t[1]]),
    st.tuples(st.sampled_from(["ALG", "SEMI", "KITE"]), _ints(-3, 60)).map(
        lambda t: ["validate", t[0], "--max-size", t[1]]),
    _ints(-3, 60).map(lambda c: ["kite", "solve", "KITE", "--cap", c]),
    st.tuples(algebra_files, _ints(-3, 60), _ints(-3, 60), _ints(-3, 60)).map(
        lambda t: ["maltsev-op", *t]),
    st.tuples(index_lists, index_lists, st.booleans()).map(
        lambda t: ["ismember", "-f", *t[0], "-u", *t[1]]
        + (["--one-based"] if t[2] else [])))


@pytest.fixture(scope="module")
def fixed_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    paths = {}
    for name, obj in (("ALG", dump_algebra(cyclic_magma(3))),
                      ("SEMI", dump_algebra(meet_semilattice2())),
                      ("KITE", dump_maps("kite_diagram",
                                         terminal_span_kite(2)))):
        paths[name] = str(root / f"{name.lower()}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    return paths


@settings(max_examples=120, derandomize=True, deadline=None)
@given(argv=argvs)
@example(argv=["kite", "solve", "KITE", "--cap", "-1"])
@example(argv=["equiv23", "--size", "60"])
def test_every_flag_value_ends_in_an_exit_code_and_at_most_one_json_line(
        fixed_files, argv):
    argv = [fixed_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1, argv
    if lines:
        assert isinstance(json.loads(lines[0]), dict), argv
    if argv[:2] == ["kite", "solve"] and int(argv[-1]) < 0:
        assert (code, len(lines)) == (2, 1), argv
    if argv[0] == "equiv23" and int(argv[-1]) > 3:
        assert code == 3, argv
        assert json.loads(out.getvalue())["details"] == [
            f"size {argv[-1]} sweep not supported; use size <= 3"], argv
