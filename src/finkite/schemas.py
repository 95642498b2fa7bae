"""JSON file formats for every structure the CLI reads and writes.

All tables are 0-based index sequences.  Each bundle carries a "kind"
field so `validate` can dispatch; loaders point at the offending field
on malformed input.
"""
from __future__ import annotations

import json
from typing import Any, Optional

from .algebra import OpAlgebra, Operation, VarietyKite, _table_length_error
from .errors import SchemaError
from .finmaps import FinMap
from .internal import (DirectedKite, MultiplicativeGraph, Pregroupoid,
                       ReflexiveGraph, Span)
from .kitecond import AdmissibilityKite, KiteDiagram
from .limits import SplitCospan

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


def _load_maps(obj: dict, names: tuple[str, ...], where: str,
               max_size: Optional[int] = None) -> dict[str, FinMap]:
    return {n: load_finmap(_need(obj, n, where), f"{where}.{n}", max_size)
            for n in names}


def load_split_cospan(obj: dict, max_size=None) -> SplitCospan:
    m = _load_maps(obj, ("f", "r", "g", "s"), "split_cospan", max_size)
    return SplitCospan(m["f"], m["r"], m["g"], m["s"])


def load_span(obj: dict, max_size=None) -> Span:
    m = _load_maps(obj, ("d", "c"), "span", max_size)
    return Span(m["d"], m["c"])


def load_reflexive_graph(obj: dict, max_size=None) -> ReflexiveGraph:
    m = _load_maps(obj, ("d", "c", "e"), "reflexive_graph", max_size)
    return ReflexiveGraph(m["d"], m["c"], m["e"])


def load_multiplicative_graph(obj: dict, max_size=None) -> MultiplicativeGraph:
    rg = load_reflexive_graph(obj, max_size)
    m = load_finmap(_need(obj, "m", "multiplicative_graph"),
                    "multiplicative_graph.m", max_size)
    return MultiplicativeGraph(rg, m)


def load_pregroupoid(obj: dict, max_size=None) -> Pregroupoid:
    span = load_span(obj, max_size)
    p = load_finmap(_need(obj, "p", "pregroupoid"), "pregroupoid.p", max_size)
    return Pregroupoid(span, p)


def load_directed_kite(obj: dict, max_size=None) -> DirectedKite:
    m = _load_maps(obj, ("f", "r", "s", "g", "alpha", "beta", "gamma",
                         "d", "c"), "directed_kite", max_size)
    return DirectedKite(**m)


def dump_directed_kite(dk: DirectedKite) -> dict:
    return {"kind": "directed_kite",
            **{n: dump_finmap(getattr(dk, n))
               for n in ("f", "r", "s", "g", "alpha", "beta", "gamma",
                         "d", "c")}}


def load_kite_diagram(obj: dict, max_size=None) -> KiteDiagram:
    m = _load_maps(obj, ("p1", "p2", "e1", "e2", "alpha", "beta", "gamma",
                         "d", "c"), "kite_diagram", max_size)
    return KiteDiagram(**m)


def dump_kite_diagram(k: KiteDiagram) -> dict:
    return {"kind": "kite_diagram",
            **{n: dump_finmap(getattr(k, n))
               for n in ("p1", "p2", "e1", "e2", "alpha", "beta", "gamma",
                         "d", "c")}}


def load_lp_diagram(obj: dict, max_size=None) -> dict[str, FinMap]:
    return _load_maps(obj, ("p1", "p2", "e1", "e2"), "lp_diagram", max_size)


def load_admissibility_kite(obj: dict, max_size=None) -> AdmissibilityKite:
    m = _load_maps(obj, ("f", "r", "s", "g", "alpha", "beta", "gamma"),
                   "admissibility_kite", max_size)
    return AdmissibilityKite(**m)


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


LOADERS = {
    "finmap": lambda obj, max_size=None: load_finmap(obj, "finmap", max_size),
    "split_cospan": load_split_cospan,
    "span": load_span,
    "reflexive_graph": load_reflexive_graph,
    "multiplicative_graph": load_multiplicative_graph,
    "unital_multiplicative_graph": load_multiplicative_graph,
    "category": load_multiplicative_graph,
    "groupoid": load_multiplicative_graph,
    "pregroupoid": load_pregroupoid,
    "directed_kite": load_directed_kite,
    "kite_diagram": load_kite_diagram,
    "lp_diagram": load_lp_diagram,
    "admissibility_kite": load_admissibility_kite,
}
