"""Command-line entry point: validation, construction, solving and
classification, all emitting deterministic Report JSON.

Exit codes: 0 holds/success, 1 fails/definite negative, 2 usage or
format error, 3 budget exceeded/inconclusive.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import product
from typing import Any, Iterator, Optional

from . import algebra as alg
from . import internal, kitecond, limits, schemas
from .errors import (BudgetExceeded, FinkiteError, HypothesisViolation,
                     IllTyped, InvalidSplitting, MissingOperation,
                     MultipleSolutions, NoSolution, NotAHomomorphism,
                     SchemaError, UnsupportedVariety)
from .finmaps import _gather, index_of, ismember
from .report import Report, counted, fails, holds, inconclusive


def _emit(args, report: Report, extra: Optional[dict] = None) -> int:
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    if getattr(args, "human", False):
        _print_human(payload)
    else:
        print(json.dumps(payload, sort_keys=True, separators=(", ", ": ")))
    verdict = report.verdict
    if verdict == "holds":
        return 0
    if verdict.startswith("count"):
        return 0 if (report.count or 0) > 0 else 1
    if verdict == "inconclusive":
        return 3
    return 1


def _print_human(payload: dict) -> None:
    print(f"{payload['command']}: {payload['verdict']}")
    for line in payload.get("details", []):
        print(f"  - {line}")
    if "witness" in payload:
        print(f"  witness: {json.dumps(payload['witness'], sort_keys=True)}")
    if "count" in payload:
        print(f"  count: {payload['count']}")
    if "solutions" in payload:
        for sol in payload["solutions"]:
            print(f"  solution: {sol}")
    for key in sorted(payload):
        if key in ("command", "verdict", "details", "witness", "count",
                   "solutions", "version"):
            continue
        print(f"  {key}: {json.dumps(payload[key], sort_keys=True)}")


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"{path}: no such file")
    except ValueError as exc:   # JSONDecodeError, or an over-long integer
        raise SchemaError(f"{path}: invalid JSON ({exc})")


def _kind_of(obj: Any, override: Optional[str], path: str) -> str:
    if override:
        return override
    if isinstance(obj, dict) and "kind" in obj:
        return obj["kind"]
    if isinstance(obj, dict) and "ops" in obj:
        return "algebra"
    raise SchemaError(f"{path}: no \"kind\" field and no --kind given")


def _cmd_validate(args) -> int:
    obj = _read_json(args.file)
    kind = _kind_of(obj, args.kind, args.file)
    row = schemas.KINDS.get(kind) if isinstance(kind, str) else None
    if row is None:
        raise SchemaError(f"{args.file}: unknown kind {kind!r}")
    try:
        loaded = schemas.load_maps(kind, obj, args.max_size)
    except (IllTyped, NotAHomomorphism, UnsupportedVariety,
            MissingOperation, InvalidSplitting) as exc:
        return _emit(args, fails("validate", {"violation": str(exc)}))
    return _emit(args, row.check(loaded))


def _cmd_lp(args) -> int:
    sc = schemas.load_maps("split_cospan", _read_json(args.file))
    lp = limits.local_product(sc)
    extra = {**schemas.dump_maps("lp_diagram", lp),
             "labels": [list(lab) for lab in lp.element_labels]}
    return _emit(args, holds("lp", [f"local product of size {lp.E}"]), extra)


def _cmd_lp_check(args) -> int:
    lp = schemas.load_maps("lp_diagram", _read_json(args.file))
    res = limits.check_local_product_intrinsic(**vars(lp))
    extra = {}
    if res.cospan is not None:
        extra["cospan"] = {n: schemas.dump_finmap(getattr(res.cospan, n))
                           for _, n in schemas.KINDS["split_cospan"].maps}
    if res.regenerated is not None:
        extra["labels"] = [list(lab) for lab in res.regenerated.element_labels]
    return _emit(args, res.report, extra)


def _cmd_pushout_compare(args) -> int:
    sc = schemas.load_maps("split_cospan", _read_json(args.file))
    lp = limits.local_product(sc)
    return _emit(args, limits.local_coproduct_compare(lp))


def _cmd_kpc(args) -> int:
    span = schemas.load_maps("span", _read_json(args.file))
    k = internal.kpc_swapped(span) if args.swapped else internal.kpc(span)
    # the payload is the constructed reflexive graph (d = dom, c = cod,
    # e = diagonal), so `validate` accepts it as emitted
    extra = {**schemas.dump_maps("reflexive_graph", k.graph),
             "mid": schemas.dump_finmap(k.mid),
             "triples": [list(t) for t in k.triples]}
    label = "swapped kernel pair construction" if args.swapped else \
        "kernel pair construction"
    return _emit(args, holds("kpc", [f"{label}: {k.size} triples"]), extra)


def _build_directed_kite(source: str, obj: Any) -> internal.DirectedKite:
    if source == "rg":
        return internal.kite_from_rg(schemas.load_maps("reflexive_graph", obj))
    if source == "umg":
        return internal.kite_from_umg(
            schemas.load_maps("multiplicative_graph", obj))
    if source == "cat":
        return internal.kite_from_cat(
            schemas.load_maps("multiplicative_graph", obj))
    if source == "span":
        return internal.kite_from_span(schemas.load_maps("span", obj))
    raise SchemaError(f"unknown kite source {source!r}")


def _cmd_kite_build(args) -> int:
    dk = _build_directed_kite(args.source, _read_json(args.file))
    if args.assembled:
        kd, lp = kitecond.assemble_kite(dk)
        extra = schemas.dump_maps("kite_diagram", kd)
        extra["labels"] = [list(lab) for lab in lp.element_labels]
        return _emit(args, holds("kite-build", ["assembled kite diagram"]),
                     extra)
    return _emit(args, holds("kite-build", ["directed kite"]),
                 schemas.dump_maps("directed_kite", dk))


def _load_kite_diagram_any(obj: Any) -> kitecond.KiteDiagram:
    if isinstance(obj, dict) and obj.get("kind") == "directed_kite":
        kd, _ = kitecond.assemble_kite(schemas.load_maps("directed_kite", obj))
        return kd
    return schemas.load_maps("kite_diagram", obj)


def _cmd_kite_check(args) -> int:
    kd = _load_kite_diagram_any(_read_json(args.file))
    return _emit(args, kitecond.check_hypotheses(kd))


def _cmd_kite_solve(args) -> int:
    kd = _load_kite_diagram_any(_read_json(args.file))
    try:
        res = kitecond.solve_m(kd, cap=args.cap)
    except HypothesisViolation as exc:
        return _emit(args, fails("kite-solve", {"hypotheses": str(exc)}))
    return _emit(args, res.report)


def _cmd_wm_object(args) -> int:
    chk = kitecond.wm_object_check_finset(args.size)
    extra = {}
    if chk.witness is not None:
        extra["witness_kite"] = schemas.dump_maps("admissibility_kite",
                                                  chk.witness)
    return _emit(args, chk.report, extra)


def _cmd_classify(args) -> int:
    obj = _read_json(args.file)
    algebra = schemas.load_algebra(obj, variety=args.variety)
    if args.budget < 0:
        raise IllTyped(f"budget must be >= 0, got {args.budget}")
    cls = alg.classify_wm_object(algebra)
    extra = {"criterion": cls.criterion}
    if not cls.report.ok and args.witness_kite:
        search = alg._witness_search(algebra, args.budget)
        if search.kite is not None:
            extra["witness_kite"] = schemas.dump_variety_kite(search.kite)
        else:
            extra["witness_search"] = {"family": "projection",
                                       "examined": search.examined,
                                       "of": search.of,
                                       "complete": search.complete}
    return _emit(args, cls.report, extra)


def _cmd_maltsev_op(args) -> int:
    algebra = schemas.load_algebra(_read_json(args.file))
    try:
        x = alg.maltsev_solve(algebra, args.a, args.b, args.c)
    except (NoSolution, MultipleSolutions) as exc:
        return _emit(args, fails("maltsev-op",
                                 {"triple": [args.a, args.b, args.c],
                                  "reason": str(exc)}))
    return _emit(args, holds("maltsev-op", [f"p({args.a},{args.b},{args.c})"
                                            f" = {x}"]), {"value": x})


def _cmd_relations(args) -> int:
    algebra = schemas.load_algebra(_read_json(args.file))
    try:
        rels = alg.reflexive_relations(algebra, budget=args.budget)
        stopped = None
    except BudgetExceeded as exc:
        rels = exc.partial or ()
        stopped = str(exc)
    listing = []
    for r in rels:
        props = alg.relation_properties(r)
        listing.append({"pairs": [list(p) for p in r.pairs],
                        "symmetric": props.symmetric,
                        "transitive": props.transitive,
                        "difunctional": props.difunctional})
    if stopped is not None:
        return _emit(args, inconclusive("relations",
                                        [f"{stopped}; {len(rels)} "
                                         "relations found"]),
                     {"relations": listing})
    return _emit(args, counted("relations", len(rels)),
                 {"relations": listing})


def _commutative_tables(n: int) -> Iterator[tuple[int, ...]]:
    """The flat tables of all commutative binary operations on n elements,
    in lexicographic order of the values on the cells (i, j), i <= j,
    taken row by row.  Entry (i, j) reads the cell (min(i, j), max(i, j))
    through one index map."""
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    cell = index_of(cells)
    index = [cell[min(i, j), max(i, j)] for i in range(n) for j in range(n)]
    read = _gather(index)
    for values in product(range(n), repeat=len(cells)):
        yield read(values)


def _cmd_equiv23(args) -> int:
    n = args.size
    if n < 0:
        raise IllTyped(f"size must be >= 0, got {n}")
    if n > 3:
        return _emit(args, inconclusive("equiv23",
                                        [f"size {n} sweep not supported; "
                                         "use size <= 3"]))
    # every generated table is a commutative operation on range(n), so
    # the conditions are read off it without building an OpAlgebra
    checked = 0
    for flat in _commutative_tables(n):
        cond2, cond3 = alg._equiv23_conditions(flat, n)
        if cond2 != cond3:
            return _emit(args, fails("equiv23", {"table": list(flat),
                                                 "cond2": cond2,
                                                 "cond3": cond3}))
        checked += 1
    return _emit(args, holds("equiv23",
                             [f"conditions (2) and (3) agree on all "
                              f"{checked} commutative magmas of size {n}"]))


def _cmd_ismember(args) -> int:
    f, u = list(args.f), list(args.u)
    if args.one_based:
        if any(v < 1 for v in f + u):
            raise SchemaError("--one-based input must use indices >= 1")
        f = [v - 1 for v in f]
        u = [v - 1 for v in u]
    res = ismember(f, u)
    if args.one_based:
        positions = [0 if p is None else p + 1 for p in res.positions]
    else:
        positions = [None if p is None else p for p in res.positions]
    extra = {"flags": [bool(b) for b in res.flags], "positions": positions}
    return _emit(args, holds("ismember",
                             [f"{sum(res.flags)} of {len(f)} found"]), extra)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser.  It is built once per process and
    shared: `parse_args` makes a fresh Namespace per call and leaves the
    parser unchanged, so callers may parse with it but not extend it."""
    return _parser()


# The cache sits here, not on build_parser, so that build_parser stays a
# plain function: bench/tracer.py wraps and times only plain functions.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finkite",
        description="Finite-set local products, kernel pair constructions, "
                    "kite solvers and weakly-Mal'tsev classification.")
    parser.add_argument("--human", action="store_true",
                        help="render reports as text instead of JSON")
    parser.add_argument("--schema", metavar="NAME",
                        help="print the JSON schema with this name and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("validate", help="validate a structure file")
    p.add_argument("file")
    p.add_argument("--kind", help="override the file's kind field")
    p.add_argument("--max-size", type=int, default=None,
                   help="reject objects larger than this bound")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("lp", help="local product of a split cospan")
    p.add_argument("file")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("lp-check",
                       help="intrinsic local product check of (p1,p2,e1,e2)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_lp_check)

    p = sub.add_parser("pushout-compare",
                       help="compare the pushout with the local product")
    p.add_argument("file")
    p.set_defaults(func=_cmd_pushout_compare)

    p = sub.add_parser("kpc", help="kernel pair construction of a span")
    p.add_argument("file")
    p.add_argument("--swapped", action="store_true",
                   help="interchange the roles of d and c")
    p.set_defaults(func=_cmd_kpc)

    kite = sub.add_parser("kite", help="directed kite operations")
    ksub = kite.add_subparsers(dest="kite_command")
    p = ksub.add_parser("build", help="build a directed kite")
    p.add_argument("--from", dest="source", required=True,
                   choices=("rg", "umg", "cat", "span"))
    p.add_argument("file")
    p.add_argument("--assembled", action="store_true",
                   help="emit the assembled kite diagram")
    p.set_defaults(func=_cmd_kite_build)
    p = ksub.add_parser("check", help="check the kite hypotheses")
    p.add_argument("file")
    p.set_defaults(func=_cmd_kite_check)
    p = ksub.add_parser("solve", help="solve for kite multiplications")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=1000)
    p.set_defaults(func=_cmd_kite_solve)

    p = sub.add_parser("wm-object",
                       help="weakly Mal'tsev object check for an n-set")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=_cmd_wm_object)

    p = sub.add_parser("classify",
                       help="weakly-Mal'tsev-object classification")
    p.add_argument("file")
    p.add_argument("--variety", default=None)
    p.add_argument("--witness-kite", action="store_true",
                   help="search for a two-solution kite on a negative verdict")
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("maltsev-op", help="solve x * b = a * c")
    p.add_argument("file")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.set_defaults(func=_cmd_maltsev_op)

    p = sub.add_parser("relations",
                       help="enumerate compatible reflexive relations")
    p.add_argument("file")
    p.add_argument("--reflexive", action="store_true", required=True,
                   help="enumerate reflexive relations (the only mode)")
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("equiv23",
                       help="cancellation vs unique-solution sweep")
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=_cmd_equiv23)

    p = sub.add_parser("ismember", help="membership flags and positions")
    p.add_argument("-f", type=int, nargs="*", default=[], required=True)
    p.add_argument("-u", type=int, nargs="*", default=[], required=True)
    p.add_argument("--one-based", action="store_true",
                   help="read and write 1-based indices")
    p.set_defaults(func=_cmd_ismember)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        try:
            print(schemas.schema_text(args.schema))
        except FinkiteError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "exit": 2}, sort_keys=True),
              file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(json.dumps({"error": str(exc), "exit": 3}, sort_keys=True),
              file=sys.stderr)
        return 3
    except FinkiteError as exc:
        print(json.dumps({"error": str(exc), "exit": 2}, sort_keys=True),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
