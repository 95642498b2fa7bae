"""Finite algebras as operation tables and their Mal'tsev-style checks.

Tables are flat and lexicographically indexed by argument tuples, and
the hot loops index them directly; relation closure is semi-naive and
the admissibility search propagates through per-element watch lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, groupby, product
from operator import itemgetter
from typing import Iterable, Iterator, Optional

from .errors import (BudgetExceeded, IllTyped, MissingOperation,
                     MultipleSolutions, NoSolution, NotAHomomorphism,
                     UnsupportedVariety)
from .finmaps import cross_pins, fibres, index_of
from .report import Report, fails, holds

VARIETIES = ("magma", "cmag", "dimagma", "unary_monoid", "lattice",
             "ccm_magma", "group", "custom")

SUBALGEBRA_CAP = 512


@dataclass(frozen=True)
class Operation:
    symbol: str
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if self.arity < 0:
            raise IllTyped(f"operation {self.symbol}: negative arity")


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
            # One tight pass accepts; only a rejected table is scanned
            # again to name its first bad entry.
            for v in op.table:
                if not 0 <= v < size:
                    i = next(i for i, u in enumerate(op.table)
                             if not 0 <= u < size)
                    raise IllTyped(f"operation {op.symbol}: entry "
                                   f"{op.table[i]} at flat index {i} "
                                   "out of range")
        _validate_variety_axioms(self)

    def apply(self, op: Operation, *args: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return op.table[idx]

    def op_by_symbol(self, symbol: str) -> Operation:
        for op in self.ops:
            if op.symbol == symbol:
                return op
        raise MissingOperation(f"no operation named {symbol!r}")

    def ops_of_arity(self, arity: int) -> tuple[Operation, ...]:
        return tuple(op for op in self.ops if op.arity == arity)

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
    rows = _rows(t, n)
    lhs = [v for u in t for v in rows[u]]
    rhs = [v for row in rows for v in map(row.__getitem__, t)]
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


def _validate_variety_axioms(A: OpAlgebra) -> None:
    v = A.variety
    if v == "custom":
        return
    binary = A.ops_of_arity(2)
    if v in ("magma", "cmag", "ccm_magma"):
        if not binary:
            raise MissingOperation(f"variety {v} needs a binary operation")
        op = binary[0]
        if v in ("cmag", "ccm_magma") and _is_commutative(A, op) is not None:
            raise IllTyped(f"variety {v}: operation is not commutative")
        if v == "ccm_magma":
            if _is_medial(A, op) is not None:
                raise IllTyped("variety ccm_magma: operation is not medial")
            if _cancellation_witness(A, op) is not None:
                raise IllTyped("variety ccm_magma: operation is not cancellative")
    elif v == "dimagma":
        if len(binary) < 2:
            raise MissingOperation("variety dimagma needs two binary operations")
        for op in binary[:2]:
            if _is_commutative(A, op) is not None:
                raise IllTyped("variety dimagma: operations must be commutative")
    elif v == "unary_monoid":
        unary, nullary = A.ops_of_arity(1), A.ops_of_arity(0)
        if not (binary and unary and nullary):
            raise MissingOperation(
                "variety unary_monoid needs binary, unary and nullary operations")
        op = binary[0]
        if _is_associative(A, op) is not None:
            raise IllTyped("variety unary_monoid: operation is not associative")
        if A.size and _unit_of(A, op) != nullary[0].table[0]:
            raise IllTyped("variety unary_monoid: constant is not a unit")
        w = _unary_monoid_law_witness(A, op, unary[0])
        if w is not None:
            raise IllTyped(f"variety unary_monoid: x bar(y) y = y bar(y) x "
                           f"fails at {w}")
    elif v == "lattice":
        if len(binary) < 2:
            raise MissingOperation("variety lattice needs meet and join")
        meet, join = binary[0], binary[1]
        for op in (meet, join):
            if _is_commutative(A, op) is not None:
                raise IllTyped("variety lattice: operation not commutative")
            if _is_associative(A, op) is not None:
                raise IllTyped("variety lattice: operation not associative")
        # meet(x, join(x, -)) and join(x, meet(x, -)) read row x only
        for m_row, j_row, x in zip(_rows(meet.table, A.size),
                                   _rows(join.table, A.size), range(A.size)):
            if {m_row[u] for u in j_row} | {j_row[u] for u in m_row} != {x}:
                raise IllTyped("variety lattice: absorption fails")
    elif v == "group":
        if not binary:
            raise MissingOperation("variety group needs a binary operation")
        op = binary[0]
        if _is_associative(A, op) is not None:
            raise IllTyped("variety group: operation is not associative")
        e = _unit_of(A, op)
        if A.size and e is None:
            raise IllTyped("variety group: no unit element")
        for x, ys in enumerate(_inverses(A, op, e)):
            if not ys:
                raise IllTyped(f"variety group: element {x} has no inverse")


def _is_medial(A: OpAlgebra, op: Operation) -> Optional[tuple]:
    """The first (x, y, z, w) with (x y)(z w) != (x z)(y w)."""
    n, t = A.size, op.table
    rows = _rows(t, n)
    lhs = [v for u in t for v in map(rows[u].__getitem__, t)]
    rhs = [v for rx in rows for ry in rows
           for u in rx for v in map(rows[u].__getitem__, ry)]
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


def _maltsev_solver(A: OpAlgebra):
    """(rows, solve): solve(a, b, c) is the unique x with x * b = a * c."""
    n = A.size
    op = binary_op(A)
    if _is_commutative(A, op) is not None:
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
    solve = _maltsev_solver(A)[1]
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
    x * b = a * c, with its unit laws and the homomorphism law
    certified exhaustively."""
    n = A.size
    rows, solve = _maltsev_solver(A)
    table = tuple(solve(a, b, c) for a, b, c in product(range(n), repeat=3))

    def p(a, b, c):
        return table[(a * n + b) * n + c]

    unit = holds("maltsev-unit-laws")
    for a in range(n):
        for b in range(n):
            if p(a, b, b) != a:
                unit = fails("maltsev-unit-laws", {"law": "p(a,b,b)=a",
                                                   "pair": [a, b]})
            if p(b, b, a) != a:
                unit = fails("maltsev-unit-laws", {"law": "p(b,b,c)=c",
                                                   "pair": [b, a]})
    # p(a,b,c) * p(a2,b2,c2) = p(a*a2, b*b2, c*c2), all (a2, b2, c2) at
    # once; the left side depends only on u = p(a,b,c)
    hom = holds("maltsev-hom-law")
    lhs_of = [[row[v] for v in table] for row in rows]
    for u, (a, b, c) in zip(table, product(range(n), repeat=3)):
        rhs = [table[(x * n + y) * n + z]
               for x in rows[a] for y in rows[b] for z in rows[c]]
        w = _first_difference(lhs_of[u], rhs, n, 3)
        if w is not None:
            hom = fails("maltsev-hom-law", {"tuple": [a, b, c] + w})
            break
    return MaltsevTable(table, unit, hom)


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
    v = A.variety
    if v in ("cmag", "ccm_magma"):
        rep = check_cancellative(A)
        crit = "cancellation"
    elif v == "dimagma":
        rep = check_joint_cancellative(A)
        crit = "joint cancellation"
    elif v == "lattice":
        rep = _classify_lattice(A)
        crit = "distributivity (cross-checked by joint cancellation)"
    elif v in ("unary_monoid", "group"):
        rep = _unique_solution_criterion(A)
        crit = "unique solution of x bar(b) b = a bar(b) c"
    else:
        raise UnsupportedVariety(f"no classification criterion for {v!r}")
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
    lhs = [v for mx in meets for v in map(mx.__getitem__, join.table)]
    rhs = [v for mx in meets for u in mx for v in map(joins[u].__getitem__, mx)]
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
                      Operation("1", 0, (_unit_of(A, op),)),
                      Operation("bar", 1, inv)),
                     "unary_monoid")


def equivalence_2_3_check(A: OpAlgebra) -> Report:
    """Sanity oracle: cancellation agrees with the at-most-one-solution
    condition, both computed independently."""
    op = binary_op(A)
    if _is_commutative(A, op) is not None:
        raise IllTyped("equivalence check needs a commutative operation")
    n, t = A.size, op.table
    cond2 = _columns_injective(t, n)          # (2): x * b = y * b forces x = y
    # (3): no target a * c, a value of t, occurs twice in a column b, as
    # x * b for two x
    repeated = set()
    for b in range(n):
        col = t[b::n]
        for v in col:
            if col.count(v) > 1:
                repeated.add(v)
    cond3 = repeated.isdisjoint(t)
    agree = cond2 == cond3
    details = (f"cancellation: {cond2}", f"at most one solution: {cond3}")
    if agree:
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
    return _pairs(_close(A, (), {x * n + x for x in range(n)}
                         | {x * n + y for x, y in seed}, cap), n)


def _pairs(codes, n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (x, y) coded as x * n + y."""
    return tuple([divmod(v, n) for v in codes])


def _close(A: OpAlgebra, closed, new, cap: int) -> tuple[int, ...]:
    """The closure of closed | new, `closed` being closed, with a pair
    (x, y) coded as x * |A| + y, here and in the sorted result.
    Semi-naive: a round applies the operations only to argument tuples
    with a pair new in the round before.  It adds the same pairs as a
    naive round over all pairs, so the cap is met at the same round with
    the same partial, which is given as pairs."""
    n = A.size
    old, delta = set(closed), set(new).difference(closed)
    old_pairs = _pairs(old, n)
    while True:
        current = old | delta
        delta_pairs = _pairs(delta, n)
        current_pairs = old_pairs + delta_pairs
        found: set[int] = set()
        for op in A.ops:
            for i in range(op.arity):
                found.update(_coded_images(op, n, op, n, (old_pairs,) * i
                                           + (delta_pairs,) + (current_pairs,)
                                           * (op.arity - i - 1)))
        old, delta, old_pairs = current, found - current, current_pairs
        if len(old) + len(delta) > cap:
            raise BudgetExceeded("relation closure exceeded the element cap",
                                 partial=_pairs(sorted(old | delta), n))
        if not delta:
            return tuple(sorted(old))


def reflexive_relations(A: OpAlgebra, budget: int = 10000) -> tuple[BinaryRelation, ...]:
    """All compatible reflexive relations on A, by closing each relation
    found with one more pair q.  The closure of R u {q} is the closure of
    R u P(q), P(q) being the principal relation closure(diagonal u {q}),
    so within one R a single closure per distinct P(q) is enough (after
    Freese, "Computing congruences efficiently", 2008); on the closure
    of the diagonal it is P(q) itself.  Every candidate q still counts
    one unit of the budget.  Raises BudgetExceeded, with the relations
    found so far as its partial, when more than `budget` candidates
    would be needed or a closure grows past SUBALGEBRA_CAP pairs; a
    negative budget is IllTyped.  Relations are held as sorted codes
    x * |A| + y, as `_close` gives them."""
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
                    p = principal[q] = _close(A, have, {q}, SUBALGEBRA_CAP)
                if p in done:
                    continue
                done.add(p)
                bigger = p if rel is base else \
                    _close(A, have, p, SUBALGEBRA_CAP)
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
        fault = _kite_fault(self.A, self.B, self.C, self.D,
                            (self.f, self.r, self.s, self.g, self.alpha,
                             self.beta, self.gamma), {})
        if fault is not None:
            raise fault


_LEG_NAMES = ("f", "r", "s", "g", "alpha", "beta", "gamma")


def _kite_fault(A, B, C, D, legs, outcomes: dict) -> Optional[Exception]:
    """What a kite with these legs (f, r, s, g, alpha, beta, gamma) is
    rejected for, or None: the first leg that is not a homomorphism, else
    the first kite equation that fails.  `outcomes` holds each leg's
    homomorphism_witness by (leg, id(source), id(target)), so a leg met
    again, passed or failed, is not checked again."""
    for name, h, src, dst in zip(_LEG_NAMES, legs, (A, B, B, C, A, B, C),
                                 (B, A, C, B, D, D, D)):
        key = (tuple(h), id(src), id(dst))
        if key not in outcomes:
            outcomes[key] = homomorphism_witness(src, dst, key[0])
        if outcomes[key] is not None:
            return NotAHomomorphism(f"{name} is not a homomorphism: "
                                    f"{outcomes[key]}")
    f, r, s, g, alpha, beta, gamma = legs
    ident = list(range(B.size))
    if [f[x] for x in r] != ident:
        return IllTyped("f r != 1_B")
    if [g[x] for x in s] != ident:
        return IllTyped("g s != 1_B")
    if [alpha[x] for x in r] != list(beta) or \
       [gamma[x] for x in s] != list(beta):
        return IllTyped("alpha r = beta = gamma s fails")
    return None


def _product_subalgebra(A: OpAlgebra, C: OpAlgebra, labels) -> OpAlgebra:
    """The subalgebra of A x C on the given pairs, which must be closed
    under the operations, applied coordinatewise."""
    index = index_of(a * C.size + c for a, c in labels)
    ops = tuple(Operation(op_a.symbol, op_a.arity, tuple(map(
        index.__getitem__, _coded_images(op_a, A.size, op_c, C.size,
                                         (labels,) * op_a.arity))))
        for op_a, op_c in zip(A.ops, C.ops))
    return OpAlgebra(len(labels), ops, "custom")


def pullback_subalgebra(vk: VarietyKite) -> tuple[OpAlgebra, tuple]:
    """The subalgebra of A x C on pairs (a, c) with f(a) = g(c)."""
    return _pullback(vk.A, vk.C, vk.f, vk.g)


def _pullback(A: OpAlgebra, C: OpAlgebra, f, g) -> tuple[OpAlgebra, tuple]:
    over = fibres(g)
    labels = tuple((a, c) for a in range(A.size)
                   for c in over.get(f[a], ()))
    return _product_subalgebra(A, C, labels), labels


@dataclass(frozen=True)
class VarietySolveResult:
    count: int
    solutions: tuple[tuple[int, ...], ...]
    labels: tuple


@dataclass(frozen=True)
class _AdmissibilityFrame:
    """What the admissibility count needs of a kite besides alpha and
    gamma, so it serves every kite with the same A, C, D, f, g, r and s:
    E = A x_B C with its labels, the cross e1 and e2, the size of D, and
    per operation (E table, D table, argument tuples, watch lists)."""
    labels: tuple
    e1: list
    e2: list
    size_d: int
    laws: list


def _admissibility_frame(A: OpAlgebra, C: OpAlgebra, D: OpAlgebra, f, g, r,
                         s, shapes: dict) -> _AdmissibilityFrame:
    """The frame of the kites over A, C and D with these f, g, r and s.
    The argument tuples and watch lists depend only on (|E|, arity), so
    they are taken from `shapes` when there and stored there when not;
    nothing changes them once built."""
    E, labels = _pullback(A, C, f, g)
    index = index_of(labels)
    laws = []
    for op in E.ops:    # nullary ops watch nothing: the pins imply them
        shape = shapes.get((E.size, op.arity))
        if shape is None:
            args = list(product(range(E.size), repeat=op.arity))
            watch = [[] for _ in range(E.size)]
            for i, xs in enumerate(args):
                for x in xs:
                    watch[x].append(i)
            shape = shapes[E.size, op.arity] = (args, watch)
        laws.append((op.table, D.op_by_symbol(op.symbol).table) + shape)
    return _AdmissibilityFrame(
        labels, [index[(a, s[f[a]])] for a in range(A.size)],
        [index[(r[g[c]], c)] for c in range(C.size)], D.size, laws)


def admissibility_count_variety(vk: VarietyKite,
                                cap: int = 1000) -> VarietySolveResult:
    """Count homomorphisms phi: A x_B C -> D with phi e1 = alpha and
    phi e2 = gamma, by backtracking with closure propagation through
    watch lists: assigning x re-checks only the argument tuples holding x.
    Branching on the least unassigned point meets solutions in order."""
    frame = _admissibility_frame(vk.A, vk.C, vk.D, vk.f, vk.g, vk.r, vk.s,
                                 {})
    return _pinned_count(frame, vk.alpha, vk.gamma, cap)


def _pinned_count(frame: _AdmissibilityFrame, alpha, gamma,
                  cap: int) -> VarietySolveResult:
    """admissibility_count_variety for the frame's kite with these alpha
    and gamma: pin the cross, then propagate and branch."""
    labels, laws, n = frame.labels, frame.laws, frame.size_d
    pins = cross_pins(frame.e1, alpha, frame.e2, gamma)
    if pins is None:
        return VarietySolveResult(0, (), labels)
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
    other's.  The four (aa, gg) of a leg pair share one frame.  Each
    candidate's kite equations are checked; each distinct leg (a
    projection or diagonal of one relation, or the identity of D) is
    checked once per search, so at most 3r + 1 homomorphism checks for
    r relations, and the kite returned is validated by VarietyKite."""
    if budget < 0:
        raise IllTyped(f"budget must be >= 0, got {budget}")
    complete = True
    try:
        rels = reflexive_relations(D, budget=budget)
    except BudgetExceeded as exc:
        rels = exc.partial or ()
        complete = False
    side = cache(lambda i: _relation_side(
        D, *_relation_algebra(D, rels[i].pairs)))
    ident = tuple(range(D.size))
    outcomes: dict = {}       # leg -> homomorphism_witness, for the search
    shapes: dict = {}         # (|E|, arity) -> argument tuples, watch lists
    family, examined = 16 * len(rels) ** 2, 0
    for ia, ic, fa, gc in product(range(len(rels)), range(len(rels)),
                                  (0, 1), (0, 1)):
        frame = None
        for aa, gg in product((0, 1), (0, 1)):
            examined += 1
            if examined > budget:
                return _WitnessSearch(None, budget, family, False)
            if (ic, ia, gc, fa, gg, aa) < (ia, ic, fa, gc, aa, gg):
                continue          # its mirror came first, without a find
            (A, diag_a, proj_a), (C, diag_c, proj_c) = side(ia), side(ic)
            legs = (proj_a[fa], diag_a, diag_c, proj_c[gc], proj_a[aa],
                    ident, proj_c[gg])
            if _kite_fault(A, D, C, D, legs, outcomes) is not None:
                continue
            if frame is None:
                frame = _admissibility_frame(A, C, D, legs[0], legs[3],
                                             diag_a, diag_c, shapes)
            if _pinned_count(frame, legs[4], legs[6], 2).count >= 2:
                return _WitnessSearch(VarietyKite(A, D, C, D, *legs),
                                      examined, family, complete)
    return _WitnessSearch(None, examined, family, complete)


def _relation_algebra(D: OpAlgebra, pairs) -> tuple[OpAlgebra, tuple]:
    labels = tuple(sorted(pairs))
    return _product_subalgebra(D, D, labels), labels


def _relation_side(D, alg, labels) -> tuple:
    """(relation algebra, diagonal section, (first, second projection))."""
    index = index_of(labels)
    return (alg, tuple(index[(x, x)] for x in range(D.size)),
            (tuple(a for a, _ in labels), tuple(c for _, c in labels)))


def _projection_kite(D, alg_a, labels_a, alg_c, labels_c,
                     fa, gc, aa, gg) -> Optional[VarietyKite]:
    (_, diag_a, proj_a), (_, diag_c, proj_c) = (
        _relation_side(D, alg_a, labels_a), _relation_side(D, alg_c, labels_c))
    try:
        return VarietyKite(alg_a, D, alg_c, D, proj_a[fa], diag_a, diag_c,
                           proj_c[gc], proj_a[aa], tuple(range(D.size)),
                           proj_c[gg])
    except (IllTyped, NotAHomomorphism):
        return None
