"""JSON file formats for every structure the CLI reads and writes.

All tables are 0-based index sequences.  Each bundle carries a "kind"
field; `KINDS` says, for each kind, which maps the file holds, the
structure built from them and the check `validate` runs on it.  Loaders
point at the offending field on malformed input.
"""
from __future__ import annotations

import json
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Optional

from . import internal, kitecond, limits
from .algebra import OpAlgebra, Operation, VarietyKite, _table_length_error
from .errors import SchemaError
from .finmaps import FinMap
from .internal import (DirectedKite, MultiplicativeGraph, Pregroupoid,
                       ReflexiveGraph, Span)
from .kitecond import AdmissibilityKite, KiteDiagram
from .limits import SplitCospan
from .report import Report, holds

_FINMAP_SCHEMA = {
    "type": "object",
    "fields": {"dom": "int >= 0", "cod": "int >= 0",
               "table": "list of ints < cod, length dom"},
}

SCHEMAS: dict[str, dict] = {
    "finmap": {"kind": "finmap", **_FINMAP_SCHEMA},
    "split_cospan": {
        "kind": "split_cospan",
        "fields": {k: "finmap" for k in ("f", "r", "g", "s")},
        "laws": ["f r = 1_B", "g s = 1_B"],
    },
    "span": {"kind": "span", "fields": {"d": "finmap", "c": "finmap"},
             "laws": ["d and c share their domain"]},
    "reflexive_graph": {
        "kind": "reflexive_graph",
        "fields": {"d": "finmap C1 -> C0", "c": "finmap C1 -> C0",
                   "e": "finmap C0 -> C1"},
        "laws": ["d e = 1", "c e = 1"],
    },
    "multiplicative_graph": {
        "kind": "multiplicative_graph",
        "fields": {"d": "finmap", "c": "finmap", "e": "finmap",
                   "m": "finmap C2 -> C1 over the canonical C2 "
                        "(pairs (x, y) with d(x) = c(y), lex ordered)"},
        "laws": ["d m = d pi2", "c m = c pi1"],
    },
    "unital_multiplicative_graph": {
        "kind": "unital_multiplicative_graph",
        "fields": "as multiplicative_graph",
        "laws": ["m e1 = 1", "m e2 = 1"],
    },
    "category": {"kind": "category", "fields": "as multiplicative_graph",
                 "laws": ["associativity on composable triples"]},
    "groupoid": {"kind": "groupoid", "fields": "as multiplicative_graph",
                 "laws": ["<m, pi2> bijective onto the kernel pair of d"]},
    "pregroupoid": {
        "kind": "pregroupoid",
        "fields": {"d": "finmap", "c": "finmap",
                   "p": "finmap D(d,c) -> D over the canonical triples"},
        "laws": ["p(x,y,y) = x", "p(y,y,z) = z",
                 "d p(x,y,z) = d(z)", "c p(x,y,z) = c(x)"],
    },
    "directed_kite": {
        "kind": "directed_kite",
        "fields": {k: "finmap" for k in
                   ("f", "r", "s", "g", "alpha", "beta", "gamma", "d", "c")},
        "laws": ["f r = 1_B = g s", "alpha r = beta = gamma s",
                 "d alpha = d beta f", "c beta g = c gamma"],
    },
    "kite_diagram": {
        "kind": "kite_diagram",
        "fields": {k: "finmap" for k in
                   ("p1", "p2", "e1", "e2", "alpha", "beta", "gamma", "d", "c")},
        "laws": ["hypotheses (1)-(5); see `kite check`"],
    },
    "lp_diagram": {
        "kind": "lp_diagram",
        "fields": {k: "finmap" for k in ("p1", "p2", "e1", "e2")},
    },
    "admissibility_kite": {
        "kind": "admissibility_kite",
        "fields": {k: "finmap" for k in
                   ("f", "r", "s", "g", "alpha", "beta", "gamma")},
        "laws": ["f r = 1_B = g s", "alpha r = beta = gamma s"],
    },
    "algebra": {
        "kind": "algebra",
        "fields": {"size": "int >= 0",
                   "variety": "one of magma, cmag, dimagma, unary_monoid, "
                              "lattice, ccm_magma, group, custom",
                   "ops": "list of {symbol, arity, table}; tables are flat, "
                          "lexicographically indexed by argument tuples"},
    },
    "variety_kite": {
        "kind": "variety_kite",
        "fields": {"A": "algebra", "B": "algebra", "C": "algebra",
                   "D": "algebra",
                   "f": "hom table A -> B", "r": "hom table B -> A",
                   "s": "hom table B -> C", "g": "hom table C -> B",
                   "alpha": "hom table A -> D", "beta": "hom table B -> D",
                   "gamma": "hom table C -> D"},
        "laws": ["f r = 1_B = g s", "alpha r = beta = gamma s",
                 "all maps are homomorphisms"],
    },
    "report": {
        "kind": "report",
        "fields": {"command": "string",
                   "verdict": "holds | fails | count:<k> | inconclusive",
                   "witness": "present on every fails",
                   "details": "list of per-condition verdicts",
                   "count": "int, with up to two lex-least solutions",
                   "solutions": "list of tables",
                   "version": "schema version"},
    },
}


def schema_text(name: str) -> str:
    if name not in SCHEMAS:
        raise SchemaError(f"no schema named {name!r}; known: "
                       + ", ".join(sorted(SCHEMAS)))
    return json.dumps(SCHEMAS[name], indent=2, sort_keys=True)


def _need(obj: Any, field: str, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object, got "
                          f"{type(obj).__name__}")
    if field not in obj:
        raise SchemaError(f"{where}: missing field {field!r}")
    return obj[field]


def _is_int(v: Any) -> bool:
    """JSON integers only: true and false are not 1 and 0."""
    return isinstance(v, int) and not isinstance(v, bool)


def load_finmap(obj: Any, where: str = "finmap",
                max_size: Optional[int] = None) -> FinMap:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object with dom/cod/table")
    dom = _need(obj, "dom", where)
    cod = _need(obj, "cod", where)
    table = _need(obj, "table", where)
    if not _is_int(dom) or not _is_int(cod):
        raise SchemaError(f"{where}: dom and cod must be integers")
    if not isinstance(table, list):
        raise SchemaError(f"{where}: table must be a list")
    if max_size is not None and (dom > max_size or cod > max_size):
        raise SchemaError(f"{where}: object size exceeds the bound {max_size}")
    if len(table) != dom:
        raise SchemaError(f"{where}: table length {len(table)} != dom {dom}")
    for i, v in enumerate(table):
        if not _is_int(v) or not (0 <= v < cod):
            raise SchemaError(f"{where}: table[{i}] = {v!r} out of range for "
                           f"cod {cod}")
    return FinMap(dom, cod, tuple(table))


def dump_finmap(f: FinMap) -> dict:
    return {"dom": f.dom, "cod": f.cod, "table": list(f.table)}


def load_algebra(obj: dict, variety: Optional[str] = None,
                 max_size: Optional[int] = None) -> OpAlgebra:
    size = _need(obj, "size", "algebra")
    if not _is_int(size) or size < 0:
        raise SchemaError("algebra.size: must be a non-negative integer")
    if max_size is not None and size > max_size:
        raise SchemaError(f"algebra.size: exceeds the bound {max_size}")
    ops_raw = _need(obj, "ops", "algebra")
    if not isinstance(ops_raw, list):
        raise SchemaError("algebra.ops: must be a list")
    ops = []
    for i, op in enumerate(ops_raw):
        where = f"algebra.ops[{i}]"
        symbol = _need(op, "symbol", where)
        arity = _need(op, "arity", where)
        table = _need(op, "table", where)
        if not _is_int(arity) or arity < 0:
            raise SchemaError(f"{where}.arity: must be a non-negative integer")
        if not isinstance(table, list):
            raise SchemaError(f"{where}.table: must be a list")
        mismatch = _table_length_error(size, arity, len(table))
        if mismatch is not None:
            raise SchemaError(f"{where}.table: {mismatch}")
        for j, v in enumerate(table):
            if not _is_int(v) or not (0 <= v < size):
                raise SchemaError(f"{where}.table[{j}] = {v!r} out of range")
        ops.append(Operation(str(symbol), arity, tuple(table)))
    tag = variety or obj.get("variety", "custom")
    return OpAlgebra(size, tuple(ops), tag)


def dump_algebra(a: OpAlgebra) -> dict:
    return {"kind": "algebra", "size": a.size, "variety": a.variety,
            "ops": [{"symbol": op.symbol, "arity": op.arity,
                     "table": list(op.table)} for op in a.ops]}


def load_variety_kite(obj: dict, max_size=None) -> VarietyKite:
    algs = {n: load_algebra(_need(obj, n, "variety_kite"), max_size=max_size)
            for n in ("A", "B", "C", "D")}
    homs = {}
    for n in ("f", "r", "s", "g", "alpha", "beta", "gamma"):
        h = _need(obj, n, "variety_kite")
        if not isinstance(h, list) or not all(_is_int(v) for v in h):
            raise SchemaError(f"variety_kite.{n}: must be a list of ints")
        homs[n] = tuple(h)
    return VarietyKite(algs["A"], algs["B"], algs["C"], algs["D"], **homs)


def dump_variety_kite(vk: VarietyKite) -> dict:
    return {"kind": "variety_kite",
            "A": dump_algebra(vk.A), "B": dump_algebra(vk.B),
            "C": dump_algebra(vk.C), "D": dump_algebra(vk.D),
            **{n: list(getattr(vk, n))
               for n in ("f", "r", "s", "g", "alpha", "beta", "gamma")}}


class Kind(NamedTuple):
    """One structure-file kind.  `maps` lists its finmap fields in load
    order as (owner, field): a malformed field is reported at
    `owner.field`, where the owner is the part of the structure that
    holds it (the multiplicative-graph kinds report d, c and e at
    `reflexive_graph`).  `build` makes the structure from the loaded
    maps by field name; a kind without map fields reads its own format
    through `build(obj, max_size)`.  `check` gives the report `validate`
    emits for the loaded structure."""
    maps: tuple[tuple[str, str], ...]
    build: Callable[..., Any]
    check: Callable[[Any], Report]


def _fields(owner: str, names: str) -> tuple[tuple[str, str], ...]:
    return tuple((owner, n) for n in names.split())


def _laws_hold(kind: str) -> Callable[[Any], Report]:
    return lambda _: holds("validate", [f"{kind} laws hold"])


def _multiplicative_graph(d, c, e, m) -> MultiplicativeGraph:
    return MultiplicativeGraph(ReflexiveGraph(d, c, e), m)


_RG = _fields("reflexive_graph", "d c e")
_MG = _RG + (("multiplicative_graph", "m"),)

# Checks and loaders are looked up on their modules at call time, so a
# wrapper installed there (as bench/tracer.py does) sees the call.
KINDS: dict[str, Kind] = {
    "finmap": Kind((), lambda obj, max_size: load_finmap(obj, "finmap",
                                                         max_size),
                   _laws_hold("finmap")),
    "split_cospan": Kind(_fields("split_cospan", "f r g s"), SplitCospan,
                         _laws_hold("split_cospan")),
    "span": Kind(_fields("span", "d c"), Span, _laws_hold("span")),
    "reflexive_graph": Kind(
        _RG, ReflexiveGraph,
        lambda rg: internal.validate_reflexive_graph(rg)),
    "multiplicative_graph": Kind(
        _MG, _multiplicative_graph,
        lambda mg: internal.validate_multiplicative_graph(mg)),
    "unital_multiplicative_graph": Kind(
        _MG, _multiplicative_graph,
        lambda mg: internal.validate_unital_multiplicative_graph(mg)),
    "category": Kind(_MG, _multiplicative_graph,
                     lambda mg: internal.validate_category(mg)),
    "groupoid": Kind(_MG, _multiplicative_graph,
                     lambda mg: internal.validate_groupoid(mg)),
    "pregroupoid": Kind(
        _fields("span", "d c") + (("pregroupoid", "p"),),
        lambda d, c, p: Pregroupoid(Span(d, c), p),
        lambda pg: internal.validate_pregroupoid(pg)),
    "directed_kite": Kind(
        _fields("directed_kite", "f r s g alpha beta gamma d c"),
        DirectedKite, lambda dk: internal.validate_directed_kite(dk)),
    "kite_diagram": Kind(
        _fields("kite_diagram", "p1 p2 e1 e2 alpha beta gamma d c"),
        KiteDiagram, lambda kd: kitecond.check_hypotheses(kd)),
    "lp_diagram": Kind(
        _fields("lp_diagram", "p1 p2 e1 e2"), SimpleNamespace,
        lambda lp: limits.check_local_product_intrinsic(**vars(lp)).report),
    "admissibility_kite": Kind(
        _fields("admissibility_kite", "f r s g alpha beta gamma"),
        AdmissibilityKite, _laws_hold("admissibility_kite")),
    "algebra": Kind(
        (), lambda obj, max_size: load_algebra(obj, max_size=max_size),
        lambda a: holds("validate", [f"algebra of size {a.size}, "
                                     f"variety {a.variety}"])),
    "variety_kite": Kind(
        (), lambda obj, max_size: load_variety_kite(obj, max_size),
        lambda _: holds("validate", ["variety kite laws hold"])),
}


def load_maps(kind: str, obj: Any, max_size: Optional[int] = None) -> Any:
    """The structure that a file of this kind describes, with every
    object bounded by max_size when one is given."""
    row = KINDS[kind]
    if not row.maps:
        return row.build(obj, max_size)
    return row.build(**{n: load_finmap(_need(obj, n, owner), f"{owner}.{n}",
                                       max_size)
                        for owner, n in row.maps})


def dump_maps(kind: str, x: Any) -> dict:
    """The file of a map kind for x, which holds each map as the
    attribute of its field name (the multiplicative-graph kinds and
    pregroupoids keep d, c and e on their graph or span instead)."""
    return {"kind": kind,
            **{n: dump_finmap(getattr(x, n)) for _, n in KINDS[kind].maps}}
