"""Finite algebras as operation tables and their Mal'tsev-style checks.

Tables are flat and lexicographically indexed by argument tuples, and
the hot loops index or slice them directly; relation closure is
semi-naive and runs once per transpose pair of principal relations;
the admissibility search propagates through per-element watch lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, groupby, product
from math import isqrt
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .errors import (BudgetExceeded, IllTyped, MissingOperation,
                     MultipleSolutions, NoSolution, NotAHomomorphism,
                     UnsupportedVariety)
from .finmaps import (FinMap, _first_out_of_range, _gather, cross_pins,
                      fibres, index_of)
from .limits import LocalProduct, SplitCospan, local_product
from .report import Report, fails, holds

# One row per variety tag: the operations it needs, as arity -> count,
# and what its MissingOperation text says it needs; its axioms in check
# order as (witness, IllTyped text), each witness reading A and the
# needed operations (the first of each arity, in row order) and None
# when the axiom holds; and its criterion (name, check), or None.  Names
# are looked up at call time, as in schemas.KINDS, for bench/tracer.py.
_ONE_BINARY = ({2: 1}, "needs a binary operation")
_COMMUTATIVE = (lambda A, o: _is_commutative(A, o[0]),
                "operation is not commutative")
_ASSOCIATIVE = (lambda A, o: _is_associative(A, o[0]),
                "operation is not associative")
_CANCELLATION = ("cancellation", lambda A: check_cancellative(A))
_UNIQUE_SOLUTION = ("unique solution of x bar(b) b = a bar(b) c",
                    lambda A: _unique_solution_criterion(A))
VARIETY_TABLE = {
    "magma": (*_ONE_BINARY, (), None),
    "cmag": (*_ONE_BINARY, (_COMMUTATIVE,), _CANCELLATION),
    "dimagma": ({2: 2}, "needs two binary operations", (
        (lambda A, o: _is_commutative(A, o[0]),
         "operations must be commutative"),
        (lambda A, o: _is_commutative(A, o[1]),
         "operations must be commutative")),
        ("joint cancellation", lambda A: check_joint_cancellative(A))),
    "unary_monoid": ({2: 1, 1: 1, 0: 1},
                     "needs binary, unary and nullary operations", (
        _ASSOCIATIVE,
        (lambda A, o: None if _unit_of(A, o[0]) == o[2].table[0] else True,
         "constant is not a unit"),
        (lambda A, o: _unary_monoid_law_witness(A, o[0], o[1]),
         "x bar(y) y = y bar(y) x fails at {}")), _UNIQUE_SOLUTION),
    "lattice": ({2: 2}, "needs meet and join", (
        (lambda A, o: _is_commutative(A, o[0]), "operation not commutative"),
        (lambda A, o: _is_associative(A, o[0]), "operation not associative"),
        (lambda A, o: _is_commutative(A, o[1]), "operation not commutative"),
        (lambda A, o: _is_associative(A, o[1]), "operation not associative"),
        (lambda A, o: _absorption_witness(A, *o), "absorption fails")),
        ("distributivity (cross-checked by joint cancellation)",
         lambda A: _classify_lattice(A))),
    "ccm_magma": (*_ONE_BINARY, (
        _COMMUTATIVE,
        (lambda A, o: _is_medial(A, o[0]), "operation is not medial"),
        (lambda A, o: _cancellation_witness(A, o[0]),
         "operation is not cancellative")), _CANCELLATION),
    "group": (*_ONE_BINARY, (
        _ASSOCIATIVE,
        (lambda A, o: _unit_or_inverse_fault(A, o[0]), "{}")),
        _UNIQUE_SOLUTION),
    "custom": ({}, "", (), None),
}
VARIETIES = tuple(VARIETY_TABLE)

SUBALGEBRA_CAP = 512


@dataclass(frozen=True)
class Operation:
    """An operation's symbol, arity and flat table.  `commutative`, read
    off the table on first use, is kept outside the fields."""
    symbol: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if self.arity < 0:
            raise IllTyped(f"operation {self.symbol}: negative arity")

    @cached_property
    def commutative(self) -> bool:
        t, n = self.table, isqrt(len(self.table))
        return self.arity == 2 and all(t[x * n:(x + 1) * n] == t[x::n]
                                       for x in range(n))


@dataclass(frozen=True)
class OpAlgebra:
    size: int
    ops: tuple[Operation, ...]
    variety: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.size < 0:
            raise IllTyped("algebra size must be >= 0")
        if self.variety not in VARIETIES:
            raise UnsupportedVariety(f"unknown variety tag {self.variety!r}")
        size = self.size
        for op in self.ops:
            mismatch = _table_length_error(size, op.arity, len(op.table))
            if mismatch is not None:
                raise IllTyped(f"operation {op.symbol}: table {mismatch}")
            i = _first_out_of_range(op.table, size)
            if i is not None:
                raise IllTyped(f"operation {op.symbol}: entry "
                               f"{op.table[i]} at flat index {i} out of range")
        _validate_variety_axioms(self)

    def apply(self, op: Operation, *args: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return op.table[idx]

    def ops_of_arity(self, arity: int) -> tuple[Operation, ...]:
        return tuple([op for op in self.ops if op.arity == arity])

    @property
    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.symbol, op.arity) for op in self.ops)


def _table_length_error(size: int, arity: int, length: int) -> Optional[str]:
    """None when length == size ** arity, else the mismatch as text.
    Since size ** arity >= 2 ** (arity * (bits(size) - 1)), a length
    below that bound is a mismatch found without forming the power,
    which a huge arity could make too large to build or print."""
    if size > 1 and arity * (size.bit_length() - 1) > length.bit_length():
        return f"length {length}, expected {size}**{arity}"
    if length != size ** arity:
        return f"length {length}, expected {size ** arity}"
    return None


def _coded_images(op_a: Operation, size_a: int, op_c: Operation, size_c: int,
                  factors) -> Iterator[int]:
    """(op_a(xs), op_c(ys)) for every argument tuple of pairs (x_i, y_i)
    drawn from factors[i], in lexicographic order of the tuples, each
    image coded as op_a(xs) * size_c + op_c(ys), so that codes sort as
    the pairs do.  Only the index prefixes of the first k - 1 factors
    are held in memory; the images are generated one at a time."""
    ta, tc = op_a.table, op_c.table
    idx = [(0, 0)]
    for pairs in factors[:-1]:
        idx = [((i + x) * size_a, (j + y) * size_c)
               for i, j in idx for x, y in pairs]
    last = factors[-1] if factors else [(0, 0)]   # arity 0: the one entry
    return (ta[i + x] * size_c + tc[j + y] for i, j in idx for x, y in last)


def _first_difference(lhs, rhs, size: int, arity: int) -> Optional[list]:
    """The arguments where two tables of an operation first differ."""
    if lhs == rhs:
        return None
    i = next(i for i, pair in enumerate(zip(lhs, rhs)) if pair[0] != pair[1])
    return [i // size ** (arity - 1 - j) % size for j in range(arity)]


def binary_op(A: OpAlgebra) -> Operation:
    ops = A.ops_of_arity(2)
    if not ops:
        raise MissingOperation("algebra has no binary operation")
    return ops[0]


def _rows(table, n: int) -> list:
    """The rows x * - of a flat binary table on n elements."""
    return [table[x * n:(x + 1) * n] for x in range(n)]


def _is_commutative(A: OpAlgebra, op: Operation) -> Optional[tuple[int, int]]:
    """The first (x, y) with x y != y x, which has x < y: row x and column
    x can first differ only above the diagonal once the rows before x
    agree with their columns."""
    n, t = A.size, op.table
    for x in range(n):
        row, col = t[x * n:(x + 1) * n], t[x::n]
        if row != col:
            return (x, next(y for y in range(x + 1, n) if row[y] != col[y]))
    return None


def _is_associative(A: OpAlgebra, op: Operation) -> Optional[tuple[int, int, int]]:
    """The first (x, y, z) with (x y) z != x (y z): the rows of the x y
    laid end to end, against each row x read through the whole table."""
    n, t = A.size, op.table
    rows, read = _rows(t, n), _gather(t)
    lhs = list(chain.from_iterable(read(rows)))
    rhs = list(chain.from_iterable(map(read, rows)))
    w = _first_difference(lhs, rhs, n, 3)
    return None if w is None else tuple(w)


def _unit_of(A: OpAlgebra, op: Operation) -> Optional[int]:
    n, t = A.size, op.table
    ident = tuple(range(n))
    for e in range(n):
        if t[e * n:(e + 1) * n] == ident == t[e::n]:
            return e
    return None


def _inverses(A: OpAlgebra, op: Operation, e) -> list[list[int]]:
    """For each x, the y with x y = e = y x, in ascending order."""
    n, t = A.size, op.table
    return [[y for y, (u, w) in enumerate(zip(t[x * n:(x + 1) * n], t[x::n]))
             if u == e == w] for x in range(n)]


def _unit_or_inverse_fault(A: OpAlgebra, op: Operation) -> Optional[str]:
    """The text of the failing unit or inverse axiom, the unit found once."""
    e = _unit_of(A, op)
    if A.size and e is None:
        return "no unit element"
    return next((f"element {x} has no inverse"
                 for x, ys in enumerate(_inverses(A, op, e)) if not ys), None)


def _validate_variety_axioms(A: OpAlgebra) -> None:
    arities, needs, axioms, _ = VARIETY_TABLE[A.variety]
    if not arities:         # no operations needed, so no axioms either
        return
    ops = []
    for arity, count in arities.items():
        ops += A.ops_of_arity(arity)[:count]
    if len(ops) < sum(arities.values()):
        raise MissingOperation(f"variety {A.variety} {needs}")
    for witness, text in axioms:
        w = witness(A, ops)
        if w is not None:
            raise IllTyped(f"variety {A.variety}: " + text.format(w))


def _absorption_witness(A: OpAlgebra, meet, join) -> Optional[int]:
    """The first x with meet(x, join(x, y)) != x or join(x, meet(x, y))
    != x for some y: both read row x only."""
    rows = zip(_rows(meet.table, A.size), _rows(join.table, A.size))
    return next((x for x, (m, j) in enumerate(rows)
                 if {m[u] for u in j} | {j[u] for u in m} != {x}), None)


def _is_medial(A: OpAlgebra, op: Operation) -> Optional[tuple]:
    """The first (x, y, z, w) with (x y)(z w) != (x z)(y w)."""
    n, t = A.size, op.table
    rows, read = _rows(t, n), _gather(t)
    reads = list(map(_gather, rows))
    lhs = list(chain.from_iterable(map(read, read(rows))))
    # for each (x, y), the rows x z, z in order, each read through row y
    rhs = list(chain.from_iterable(chain.from_iterable(
        map(ry, xz) for xz in [rx(rows) for rx in reads] for ry in reads)))
    w = _first_difference(lhs, rhs, n, 4)
    return None if w is None else tuple(w)


def check_commutative(A: OpAlgebra) -> Report:
    w = _is_commutative(A, binary_op(A))
    if w is None:
        return holds("commutative")
    return fails("commutative", {"pair": list(w)})


def check_medial(A: OpAlgebra) -> Report:
    w = _is_medial(A, binary_op(A))
    if w is None:
        return holds("medial")
    return fails("medial", {"tuple": list(w)})


def _columns_injective(key, n: int) -> bool:
    """Whether no column key[b::n] of a flat n x n table repeats a value."""
    for b in range(n):
        if len(set(key[b::n])) != n:
            return False
    return True


def _first_collision(key, n: int) -> Optional[tuple[int, int, int]]:
    """The first (x, y, b), x < y, in lexicographic order with
    key[x n + b] = key[y n + b], or None.  There is none when the
    columns are injective, which is tested first."""
    if _columns_injective(key, n):
        return None
    rows = _rows(key, n)
    for x, y in combinations(range(n), 2):
        rx, ry = rows[x], rows[y]
        for b in range(n):
            if rx[b] == ry[b]:
                return (x, y, b)
    return None


def _cancellation_witness(A: OpAlgebra, op: Operation) -> Optional[tuple]:
    return _first_collision(op.table, A.size)


def check_cancellative(A: OpAlgebra) -> Report:
    w = _cancellation_witness(A, binary_op(A))
    if w is None:
        return holds("cancellative")
    return fails("cancellative", {"x": w[0], "y": w[1], "b": w[2]})


def check_joint_cancellative(A: OpAlgebra) -> Report:
    ops = A.ops_of_arity(2)
    if len(ops) < 2:
        raise MissingOperation("joint cancellation needs two binary operations")
    w = _first_collision(list(zip(ops[0].table, ops[1].table)), A.size)
    if w is not None:
        return fails("joint-cancellative", {"x": w[0], "y": w[1], "b": w[2]})
    return holds("joint-cancellative")


def _unary_monoid_law_witness(A: OpAlgebra, op: Operation,
                              bar: Operation) -> Optional[tuple[int, int]]:
    """The first (x, y) with (x bar(y)) y != (y bar(y)) x."""
    n, t, b = A.size, op.table, bar.table
    right = [t[y * n + b[y]] * n for y in range(n)]     # (y bar(y)) * -
    lhs = [t[t[x * n + b[y]] * n + y] for x in range(n) for y in range(n)]
    rhs = [t[u + x] for x in range(n) for u in right]
    w = _first_difference(lhs, rhs, n, 2)
    return None if w is None else tuple(w)


def check_unary_monoid_law(A: OpAlgebra) -> Report:
    if not A.ops_of_arity(1):
        raise MissingOperation("no unary operation")
    w = _unary_monoid_law_witness(A, binary_op(A), A.ops_of_arity(1)[0])
    if w is None:
        return holds("unary-monoid-law")
    return fails("unary-monoid-law", {"pair": list(w)})


def _maltsev_solver(A: OpAlgebra, op: Operation):
    """(rows, solve): solve(a, b, c) is the unique x with x * b = a * c."""
    n = A.size
    if not op.commutative:
        raise IllTyped("maltsev_solve needs a commutative operation")
    rows = _rows(op.table, n)
    # x * b = b * x, so the solutions of x * b = v are the places of v in row b
    places = [fibres(row) for row in rows]

    def solve(a: int, b: int, c: int) -> int:
        sols = places[b].get(rows[a][c], ())
        if not sols:
            raise NoSolution(f"x * {b} = {a} * {c} has no solution")
        if len(sols) > 1:
            raise MultipleSolutions(f"x * {b} = {a} * {c} has "
                                    f"{len(sols)} solutions")
        return sols[0]
    return rows, solve


def maltsev_solve(A: OpAlgebra, a: int, b: int, c: int) -> int:
    """The unique x with x * b = a * c for a commutative binary operation."""
    solve = _maltsev_solver(A, binary_op(A))[1]
    if not all(0 <= v < A.size for v in (a, b, c)):
        raise IllTyped(f"arguments ({a}, {b}, {c}) lie outside 0..{A.size - 1}")
    return solve(a, b, c)


@dataclass(frozen=True)
class MaltsevTable:
    table: tuple[int, ...]
    unit_laws: Report
    hom_law: Report

    def p(self, size: int, a: int, b: int, c: int) -> int:
        return self.table[(a * size + b) * size + c]


def maltsev_table(A: OpAlgebra) -> MaltsevTable:
    """The ternary operation p(a,b,c) = the unique solution of
    x * b = a * c.  The unit laws hold whenever the table builds: a solves
    x * b = a * b and, * being commutative, c solves x * b = b * c.  The
    hom law is certified as mediality of *, in n^4 (below); only a table
    that fails it is scanned, in order, for the first failing (t, t2)."""
    n, op = A.size, binary_op(A)
    rows, solve = _maltsev_solver(A, op)
    table = tuple(solve(a, b, c) for a, b, c in product(range(n), repeat=3))
    # Each row of * is a bijection, so * is a commutative quasigroup, and
    # p(t) p(t2) = p(t t2) iff * is medial (Bruck, Trans. AMS 55, 1944).
    # If: u = p(a,b,c), u2 = p(a2,b2,c2) give (u u2)(b b2) = (u b)(u2 b2)
    # = (a c)(a2 c2) = (a a2)(c c2), so u u2 = p(a a2, b b2, c c2) by
    # uniqueness.  Only if: p(x,z,z) = x and p(y,y,w) = w by the unit
    # laws, so the law there reads (x w)(z y) = (x y)(z w).
    hom = holds("maltsev-hom-law")
    if _is_medial(A, op) is not None:
        lhs_of = [[row[v] for v in table] for row in rows]
        for u, (a, b, c) in zip(table, product(range(n), repeat=3)):
            w = _first_difference(lhs_of[u], [
                table[(x * n + y) * n + z]
                for x in rows[a] for y in rows[b] for z in rows[c]], n, 3)
            if w is not None:
                hom = fails("maltsev-hom-law", {"tuple": [a, b, c] + w})
                break
    return MaltsevTable(table, holds("maltsev-unit-laws"), hom)


def homomorphism_witness(src: OpAlgebra, dst: OpAlgebra,
                         h: tuple[int, ...]) -> Optional[dict]:
    if src.signature != dst.signature:
        return {"reason": "signature mismatch"}
    if len(h) != src.size or any(not 0 <= v < dst.size for v in h):
        return {"reason": "not a map between the carriers"}
    n, m = src.size, dst.size
    for op_s, op_d in zip(src.ops, dst.ops):
        t_d = op_d.table
        idx = [0]        # m * dst's index of h(xs), for all but the last x
        for _ in range(op_s.arity - 1):
            idx = [(j + y) * m for j in idx for y in h]
        rhs = [t_d[j + y] for j in idx for y in h] if op_s.arity else [t_d[0]]
        args = _first_difference([h[v] for v in op_s.table], rhs, n,
                                 op_s.arity)
        if args is not None:
            return {"operation": op_s.symbol, "args": args}
    return None


def check_naturality_of_p(A: OpAlgebra, B: OpAlgebra,
                          h: tuple[int, ...]) -> Report:
    """p(h a, h b, h c) = h(p(a, b, c)) for a verified homomorphism h."""
    w = homomorphism_witness(A, B, h)
    if w is not None:
        raise NotAHomomorphism(f"h is not a homomorphism: {w}")
    pa = maltsev_table(A)
    pb = maltsev_table(B)
    for a, b, c in product(range(A.size), repeat=3):
        if pb.p(B.size, h[a], h[b], h[c]) != h[pa.p(A.size, a, b, c)]:
            return fails("naturality", {"triple": [a, b, c]})
    return holds("naturality")


@dataclass(frozen=True)
class Classification:
    report: Report
    criterion: str


def classify_wm_object(A: OpAlgebra) -> Classification:
    """Apply the equational weakly-Mal'tsev-object criterion matching
    the algebra's variety and report which criterion was used."""
    crit, check = VARIETY_TABLE[A.variety][3] or (None, None)
    if check is None:
        raise UnsupportedVariety(
            f"no classification criterion for {A.variety!r}")
    rep = check(A)
    out = Report("classify", rep.verdict, witness=rep.witness,
                 details=rep.details + (f"criterion: {crit}",))
    return Classification(out, crit)


def check_distributive(A: OpAlgebra) -> Report:
    ops = A.ops_of_arity(2)
    if len(ops) < 2:
        raise MissingOperation("distributivity needs two binary operations")
    meet, join = ops[0], ops[1]
    n = A.size
    meets, joins = _rows(meet.table, n), _rows(join.table, n)
    # meet(x, join(y, z)) and join(meet(x, y), meet(x, z)) over (x, y, z)
    lhs = list(chain.from_iterable(map(_gather(join.table), meets)))
    rhs = list(chain.from_iterable(chain.from_iterable(
        map(rx, rx(joins)) for rx in map(_gather, meets))))
    w = _first_difference(lhs, rhs, n, 3)
    if w is None:
        return holds("distributive")
    return fails("distributive", {"triple": w})


def _classify_lattice(A: OpAlgebra) -> Report:
    dist = check_distributive(A)
    jc = check_joint_cancellative(A)
    if dist.ok != jc.ok:
        raise IllTyped("distributivity and joint cancellation disagree "
                       "on a lattice; tables are corrupt")
    witness = None
    if not dist.ok:
        witness = {"distributivity": dist.witness,
                   "joint_cancellation": jc.witness}
    return Report("classify", dist.verdict, witness=witness,
                  details=("distributivity and joint cancellation agree",))


def _unique_solution_criterion(A: OpAlgebra) -> Report:
    """The first (a, b, c) at which x bar(b) b = a bar(b) c has two
    solutions x, or holds.  Holds at once when, for each b, the left
    sides over x are distinct; else the right sides are scanned in
    order for a value that the left sides repeat."""
    op = binary_op(A)
    bar = A.ops_of_arity(1)
    if bar:
        bar_table = bar[0].table
    elif A.variety != "group":
        raise MissingOperation("no unary operation")
    else:       # the empty group has no unit, and nothing to solve
        bar_table = _group_inverse_table(A) if A.size else ()
    n, t = A.size, op.table
    rows = _rows(t, n)
    lhs = [[rows[t[x * n + bar_table[b]]][b] for x in range(n)]
           for b in range(n)]
    repeated = [{v for v in col if col.count(v) > 1} for col in lhs]
    if not any(repeated):
        return holds("unique-solution")
    for a, b in product(range(n), repeat=2):
        if repeated[b]:
            for c, v in enumerate(rows[t[a * n + bar_table[b]]]):
                if v in repeated[b]:
                    sols = [x for x, u in enumerate(lhs[b]) if u == v]
                    return fails("unique-solution", {"triple": [a, b, c],
                                                     "solutions": sols[:2]})
    return holds("unique-solution")


def _group_inverse_table(A: OpAlgebra) -> tuple[int, ...]:
    op = binary_op(A)
    e = _unit_of(A, op)
    if e is None:
        raise IllTyped("group without unit")
    inv = []
    for x, ys in enumerate(_inverses(A, op, e)):
        if len(ys) != 1:
            raise IllTyped(f"element {x} lacks a unique inverse")
        inv.append(ys[0])
    return tuple(inv)


def unary_monoid_from_group(A: OpAlgebra) -> OpAlgebra:
    """View a group as a unary monoid with bar = inverse."""
    op = binary_op(A)
    inv = _group_inverse_table(A)       # IllTyped when there is no unit
    return OpAlgebra(A.size,
                     (Operation("*", 2, op.table),
                      Operation("1", 0, (op.table[inv[0]],)),  # 0 * 0^-1 = 1
                      Operation("bar", 1, inv)),
                     "unary_monoid")


def _equiv23_conditions(t, n: int) -> tuple[bool, bool]:
    """Conditions (2) and (3) on the flat n x n table t of a commutative
    operation, each computed from t on its own."""
    cond2 = _columns_injective(t, n)          # (2): x * b = y * b forces x = y
    # (3): no target a * c, a value of t, occurs twice in a column b, as
    # x * b for two x
    repeated = set()
    for b in range(n):
        col = t[b::n]
        for v in col:
            if col.count(v) > 1:
                repeated.add(v)
    return cond2, repeated.isdisjoint(t)


def equivalence_2_3_check(A: OpAlgebra) -> Report:
    """Sanity oracle: cancellation agrees with the at-most-one-solution
    condition, both computed independently."""
    op = binary_op(A)
    if not op.commutative:
        raise IllTyped("equivalence check needs a commutative operation")
    cond2, cond3 = _equiv23_conditions(op.table, A.size)
    details = (f"cancellation: {cond2}", f"at most one solution: {cond3}")
    if cond2 == cond3:
        return holds("equiv23", details)
    return fails("equiv23", {"cond2": cond2, "cond3": cond3}, details)


@dataclass(frozen=True)
class BinaryRelation:
    """A compatible binary relation on an algebra's carrier."""

    carrier: OpAlgebra
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(sorted(set(self.pairs))))


def relation_closure(A: OpAlgebra, seed: Iterable[tuple[int, int]],
                     cap: int = SUBALGEBRA_CAP) -> tuple[tuple[int, int], ...]:
    """Close the diagonal plus a seed set under all operations applied
    coordinatewise."""
    n = A.size
    seed = set(seed)
    if not all(0 <= x < n and 0 <= y < n for x, y in seed):
        raise IllTyped(f"seed pairs must lie in 0..{n - 1}")
    return _pairs(_close(A, A, (), {x * n + x for x in range(n)}
                         | {x * n + y for x, y in seed}, cap), n)


def _pairs(codes, n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (x, y) coded as x * n + y."""
    return tuple([divmod(v, n) for v in codes])


def _close(A: OpAlgebra, C: OpAlgebra, closed, new,
           cap: int) -> tuple[int, ...]:
    """The closure in A x C of closed | new, `closed` being closed, with
    a pair (a, c) coded as a * |C| + c, here and in the sorted result.
    Semi-naive: a round applies the operations only to argument tuples
    with a pair new in the round before.  It adds the same pairs as a
    naive round over all pairs, so the cap is met at the same round with
    the same partial, which is given as pairs.  All of A x C within the
    cap, before a round or after one, ends the closure.  An operation
    commutative in A and C takes the new pair first only: the images of
    (old, delta) are those of (delta, old), among those of (delta,
    current).  Relations close in A x A, a kite's cross in A x C, so the
    witness search builds a frame only where the cross misses E."""
    m = C.size
    old, delta = set(closed), set(new).difference(closed)
    old_pairs = _pairs(old, m)
    while True:
        if len(old) + len(delta) == A.size * m <= cap:  # all: nothing to add
            return tuple(range(A.size * m))
        current = old | delta
        delta_pairs = _pairs(delta, m)
        current_pairs = old_pairs + delta_pairs
        found: set[int] = set()
        for op_a, op_c in zip(A.ops, C.ops):
            positions = op_a.arity - (op_a.commutative and op_c.commutative)
            for i in range(positions):
                found.update(_coded_images(
                    op_a, A.size, op_c, m, (old_pairs,) * i + (delta_pairs,)
                    + (current_pairs,) * (op_a.arity - i - 1)))
        old, delta, old_pairs = current, found - current, current_pairs
        if len(old) + len(delta) > cap:
            raise BudgetExceeded("relation closure exceeded the element cap",
                                 partial=_pairs(sorted(old | delta), m))
        if not delta:
            return tuple(sorted(old))


def reflexive_relations(A: OpAlgebra, budget: int = 10000) -> tuple[BinaryRelation, ...]:
    """All compatible reflexive relations on A, by closing each relation
    found with one more pair q.  The closure of R u {q} is the closure of
    R u P(q), P(q) being the principal relation closure(diagonal u {q}),
    so within one R a single closure per distinct P(q) is enough (after
    Freese, "Computing congruences efficiently", 2008); on the closure
    of the diagonal, the diagonal itself, it is P(q), and past it each
    R v P(q) with a P(q) new to R is closed.  Swapping
    coordinates is an automorphism of A x A fixing the diagonal, so
    P(y, x) is P(x, y) transposed and one of each pair is closed.  Every
    candidate q still counts one unit of the budget, and a transposed
    P(q) is as large as one already within the cap, so the enumeration
    stops where and as it did.  Raises BudgetExceeded, with the
    relations found so far as its partial, when more than `budget`
    candidates would be needed or a closure grows past SUBALGEBRA_CAP
    pairs; a negative budget is IllTyped.  Relations are held as sorted
    codes x * |A| + y, as `_close` gives them."""
    if budget < 0:
        raise IllTyped(f"budget must be >= 0, got {budget}")
    n = A.size
    found: dict[tuple, BinaryRelation] = {}
    try:
        base = tuple(x * n + y for x, y in relation_closure(A, ()))
        frontier = [base]
        found[base] = BinaryRelation(A, _pairs(base, n))
        principal: dict[int, tuple] = {}    # q -> P(q)
        closures = 1
        all_pairs = [x * n + y for x in range(n) for y in range(n) if x != y]
        while frontier:
            rel = frontier.pop()
            have = set(rel)
            done = set()          # the P(q) already joined to rel
            for q in all_pairs:
                if q in have:
                    continue
                closures += 1
                if closures > budget:
                    raise BudgetExceeded(
                        f"relation enumeration exceeded budget {budget}")
                p = principal.get(q)
                if p is None:     # first met in base's pass: have = base
                    pt = principal.get(q % n * n + q // n)    # P(q^T)
                    if pt is None:
                        p = _close(A, A, have, {q}, SUBALGEBRA_CAP)
                    else:         # P(q) = P(q^T) transposed
                        p = tuple(sorted(v % n * n + v // n for v in pt))
                    principal[q] = p
                if p in done:
                    continue
                done.add(p)
                bigger = p if rel is base else _close(A, A, have, p,
                                                      SUBALGEBRA_CAP)
                if bigger not in found:
                    found[bigger] = BinaryRelation(A, _pairs(bigger, n))
                    frontier.append(bigger)
    except BudgetExceeded as exc:
        # A closure's own partial is a tuple of pairs; callers read this
        # partial as relations.
        raise BudgetExceeded(str(exc), partial=tuple(found.values())) from None
    return tuple(sorted(found.values(), key=lambda r: (len(r.pairs), r.pairs)))


@dataclass(frozen=True)
class RelationProperties:
    symmetric: bool
    transitive: bool
    difunctional: bool


def relation_properties(R: BinaryRelation) -> RelationProperties:
    """Symmetry, transitivity and difunctionality from the successor
    sets, so the scans meet only pairs that share an element, not all of
    R x R: R is transitive when the successors of b lie among those of a
    for every (a, b) in R, and difunctional when all the elements with a
    common successor have the same successors."""
    pairs = R.pairs                      # sorted, so grouped by a
    succ = {a: {b for _, b in group}
            for a, group in groupby(pairs, itemgetter(0))}
    some_pred = {b: a for a, b in pairs}
    symmetric = all(a in succ.get(b, ()) for a, b in pairs)
    transitive = all(succ.get(b, set()) <= succ[a] for a, b in pairs)
    difunctional = all(succ[a] == succ[some_pred[b]] for a, b in pairs)
    return RelationProperties(symmetric, transitive, difunctional)


@dataclass(frozen=True)
class VarietyKite:
    """An admissibility kite drawn inside a variety: algebras and
    homomorphisms with f r = 1 = g s and alpha r = beta = gamma s."""

    A: OpAlgebra
    B: OpAlgebra
    C: OpAlgebra
    D: OpAlgebra
    f: tuple[int, ...]
    r: tuple[int, ...]
    s: tuple[int, ...]
    g: tuple[int, ...]
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    gamma: tuple[int, ...]

    def __post_init__(self):
        """Reject the first leg that is not a homomorphism, else the
        first kite equation that fails."""
        A, B, C, D = self.A, self.B, self.C, self.D
        f, r, s, g, alpha, beta, gamma = legs = (
            self.f, self.r, self.s, self.g, self.alpha, self.beta, self.gamma)
        for name, h, src, dst in zip(_LEG_NAMES, legs, (A, B, B, C, A, B, C),
                                     (B, A, C, B, D, D, D)):
            w = homomorphism_witness(src, dst, tuple(h))
            if w is not None:
                raise NotAHomomorphism(f"{name} is not a homomorphism: {w}")
        ident = list(range(B.size))
        if [f[x] for x in r] != ident:
            raise IllTyped("f r != 1_B")
        if [g[x] for x in s] != ident:
            raise IllTyped("g s != 1_B")
        if [alpha[x] for x in r] != list(beta) or \
           [gamma[x] for x in s] != list(beta):
            raise IllTyped("alpha r = beta = gamma s fails")


_LEG_NAMES = ("f", "r", "s", "g", "alpha", "beta", "gamma")


def _product_subalgebra(A: OpAlgebra, C: OpAlgebra, labels) -> OpAlgebra:
    """The subalgebra of A x C on the given pairs, which must be closed
    under the operations, applied coordinatewise."""
    index = index_of(a * C.size + c for a, c in labels)
    ops = tuple(Operation(op_a.symbol, op_a.arity, tuple(map(
        index.__getitem__, _coded_images(op_a, A.size, op_c, C.size,
                                         (labels,) * op_a.arity))))
        for op_a, op_c in zip(A.ops, C.ops))
    return OpAlgebra(len(labels), ops, "custom")


def _local_product(A: OpAlgebra, C: OpAlgebra, f, r, g, s) -> LocalProduct:
    """The local product of the carriers of A and C over f, r, g and s,
    legs of a kite."""
    B, leg = len(r), FinMap._derived
    return local_product(SplitCospan(
        leg(A.size, B, tuple(f)), leg(B, A.size, tuple(r)),
        leg(C.size, B, tuple(g)), leg(B, C.size, tuple(s))))


def pullback_subalgebra(vk: VarietyKite) -> tuple[OpAlgebra, tuple]:
    """The subalgebra of A x C on pairs (a, c) with f(a) = g(c)."""
    labels = _local_product(vk.A, vk.C, vk.f, vk.r, vk.g,
                            vk.s).element_labels
    return _product_subalgebra(vk.A, vk.C, labels), labels


@dataclass(frozen=True)
class VarietySolveResult:
    count: int
    solutions: tuple[tuple[int, ...], ...]
    labels: tuple


@dataclass(frozen=True)
class _AdmissibilityFrame:
    """What the admissibility count needs of a kite besides alpha and
    gamma, so it serves every kite with the same A, C, D, f, r, g and s:
    E = A x_B C with its labels, the cross e1 and e2, the size of D, and
    per operation (E table, D table, argument tuples, watch lists)."""
    labels: tuple
    e1: tuple
    e2: tuple
    size_d: int
    laws: list


def _admissibility_frame(A: OpAlgebra, C: OpAlgebra, D: OpAlgebra, f, r, g,
                         s) -> _AdmissibilityFrame:
    """The frame of the kites over A, C and D with these f, r, g and s.
    Each operation's argument tuples and watch lists are built here, once
    per frame; a witness search builds a frame only for a leg pair whose
    cross falls short of E, and then shares it among its four kites."""
    lp = _local_product(A, C, f, r, g, s)
    E = _product_subalgebra(A, C, lp.element_labels)
    laws = []
    # E's operations are A's, in order, and alpha: A -> D is a
    # homomorphism, so D's operations pair with them by position
    for op, op_d in zip(E.ops, D.ops):   # nullary ops watch nothing
        args = list(product(range(E.size), repeat=op.arity))
        watch = [[] for _ in range(E.size)]
        for i, xs in enumerate(args):
            for x in xs:
                watch[x].append(i)
        laws.append((op.table, op_d.table, args, watch))
    return _AdmissibilityFrame(lp.element_labels, lp.e1.table, lp.e2.table,
                               D.size, laws)


def admissibility_count_variety(vk: VarietyKite,
                                cap: int = 1000) -> VarietySolveResult:
    """Count homomorphisms phi: A x_B C -> D with phi e1 = alpha and
    phi e2 = gamma, by backtracking with closure propagation through
    watch lists: assigning x re-checks only the argument tuples holding x.
    Branching on the least unassigned point meets solutions in order.
    A negative cap is IllTyped."""
    if cap < 0:
        raise IllTyped(f"cap must be >= 0, got {cap}")
    frame = _admissibility_frame(vk.A, vk.C, vk.D, vk.f, vk.r, vk.g, vk.s)
    return _pinned_count(frame, vk.alpha, vk.gamma, cap)


def _cross_generates(A: OpAlgebra, C: OpAlgebra, f, r, g, s) -> bool:
    """Whether the cross e1(A) u e2(C) generates E = A x_B C over these
    legs of a kite: then alpha and gamma fix a homomorphism from E, so no
    kite over them has two admissibility morphisms.  E, of sum_a
    |g^-1(f a)| pairs, is a subalgebra of A x C holding the cross and,
    in e1(A), the constants: the closure returns only while short of E."""
    m, size = C.size, sum(map(g.count, f))
    cross = {a * m + s[f[a]] for a in range(A.size)} | {
        r[g[c]] * m + c for c in range(m)}
    try:    # _close gives a closure short of E (non-empty: False) or raises
        return len(cross) == size or not _close(A, C, (), cross, size - 1)
    except BudgetExceeded:
        return True


def _pinned_count(frame: _AdmissibilityFrame, alpha, gamma,
                  cap: int) -> VarietySolveResult:
    """admissibility_count_variety for the frame's kite with these alpha
    and gamma: pin the cross, then propagate and branch."""
    labels, laws, n = frame.labels, frame.laws, frame.size_d
    # never None on a kite: e1 and e2 are injective, and e1 a = e2 c
    # gives alpha a = beta (f a) = beta (g c) = gamma c
    pins = cross_pins(frame.e1, alpha, frame.e2, gamma)
    value = [pins.get(i) for i in range(len(labels))]
    trail: list[int] = []          # assigned elements, in order

    def propagate(queue: list[int]) -> bool:
        """Assign what the queued assignments force; False on a conflict."""
        while queue:
            e = queue.pop()
            for t_e, t_d, args, watch in laws:
                for i in watch[e]:
                    j = 0
                    for x in args[i]:
                        v = value[x]
                        if v is None:
                            break
                        j = j * n + v
                    else:
                        out, want = t_e[i], t_d[j]
                        if value[out] is None:
                            value[out] = want
                            trail.append(out)
                            queue.append(out)
                        elif value[out] != want:
                            return False
        return True

    solutions: list[tuple[int, ...]] = []
    count = 0
    branches: list[list[int]] = []   # [element, next value, trail length]
    ok = propagate(list(pins))
    while True:
        if ok and None in value:
            branches.append([value.index(None), 0, len(trail)])
        elif ok:
            count += 1
            if len(solutions) < max(cap, 2):
                solutions.append(tuple(value))
        while branches and branches[-1][1] == n:
            branches.pop()
        if not branches:
            break
        i, v, mark = branch = branches[-1]
        branch[1] += 1
        while len(trail) > mark:
            value[trail.pop()] = None
        value[i] = v
        trail.append(i)
        ok = propagate([i])
    solutions.sort()
    if count > cap:
        solutions = solutions[:2]
    return VarietySolveResult(count, tuple(solutions), labels)


def wm_witness_search(D: OpAlgebra, budget: int = 2000) -> Optional[VarietyKite]:
    """Bounded search for a kite over D with two admissibility
    morphisms: B = D, A and C compatible reflexive relations on D with
    projection legs and diagonal sections.  Returns None when the
    family is exhausted or the budget runs out without a find
    (inconclusive, never a WM claim).  A negative budget is IllTyped."""
    return _witness_search(D, budget).kite


@dataclass(frozen=True)
class _WitnessSearch:
    """A projection-family search: the kite found, or None; the kites
    examined out of the family's `of`; and whether the budget left the
    relation list and the family whole (a None with `complete` means
    the family has no witness)."""
    kite: Optional[VarietyKite]
    examined: int
    of: int
    complete: bool


def _witness_search(D: OpAlgebra, budget: int) -> _WitnessSearch:
    """Kites (ia, ic, fa, gc, aa, gg) in lexicographic order: A and C the
    relations ia and ic, f, g, alpha and gamma the projections fa, gc,
    aa and gg.  Every kite costs one unit of the budget.  A kite whose
    mirror (ic, ia, gc, fa, gg, aa) came before it is skipped: swapping
    A with C, f with g and alpha with gamma keeps the kite conditions,
    and (a, c) -> (c, a) carries one's admissibility morphisms onto the
    other's.  At a leg pair's first valid kite, whether its cross
    generates E is decided from the legs; if so, it and the rest of the
    leg pair are skipped, each still examined and counted against the
    budget, and if not, its four (aa, gg) share one frame, built then.
    Every candidate is a kite by construction: its legs are projections
    and diagonals of compatible reflexive relations and the identity of
    D, so homomorphisms, and a projection undoes a diagonal.  Only the
    kite returned is validated, in full, by VarietyKite."""
    if budget < 0:
        raise IllTyped(f"budget must be >= 0, got {budget}")
    complete = True
    try:
        rels = reflexive_relations(D, budget=budget)
    except BudgetExceeded as exc:
        rels = exc.partial or ()
        complete = False
    side = cache(lambda i: _relation_side(D, rels[i].pairs))
    ident = tuple(range(D.size))
    family, examined = 16 * len(rels) ** 2, 0
    for ia, ic, fa, gc in product(range(len(rels)), range(len(rels)),
                                  (0, 1), (0, 1)):
        frame, skip = None, False
        for aa, gg in product((0, 1), (0, 1)):
            examined += 1
            if examined > budget:
                return _WitnessSearch(None, budget, family, False)
            if skip or (ic, ia, gc, fa, gg, aa) < (ia, ic, fa, gc, aa, gg):
                continue          # no witness, or its mirror came first
            (A, diag_a, proj_a), (C, diag_c, proj_c) = side(ia), side(ic)
            legs = (proj_a[fa], diag_a, diag_c, proj_c[gc], proj_a[aa],
                    ident, proj_c[gg])
            if frame is None:
                skip = _cross_generates(A, C, legs[0], diag_a, legs[3], diag_c)
                if skip:
                    continue
                frame = _admissibility_frame(A, C, D, legs[0], diag_a,
                                             legs[3], diag_c)
            if _pinned_count(frame, legs[4], legs[6], 2).count >= 2:
                return _WitnessSearch(VarietyKite(A, D, C, D, *legs),
                                      examined, family, complete)
    return _WitnessSearch(None, examined, family, complete)


def _relation_side(D: OpAlgebra, pairs) -> tuple:
    """(relation algebra, diagonal section, (first, second projection))
    of a relation on D, its pairs in lexicographic order."""
    labels = tuple(sorted(pairs))
    index = index_of(labels)
    return (_product_subalgebra(D, D, labels),
            tuple(index[(x, x)] for x in range(D.size)),
            (tuple(a for a, _ in labels), tuple(c for _, c in labels)))
