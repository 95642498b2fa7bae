"""Finite algebras as operation tables and their Mal'tsev-style checks.

Tables are flat and lexicographically indexed by argument tuples;
homomorphism checking is an exhaustive tuple scan.  Simplicity beats
speed at desk scale.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

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
        for op in self.ops:
            mismatch = _table_length_error(self.size, op.arity, len(op.table))
            if mismatch is not None:
                raise IllTyped(f"operation {op.symbol}: table {mismatch}")
            for i, v in enumerate(op.table):
                if not (0 <= v < self.size):
                    raise IllTyped(f"operation {op.symbol}: entry {v} at "
                                   f"flat index {i} out of range")
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


def binary_op(A: OpAlgebra) -> Operation:
    ops = A.ops_of_arity(2)
    if not ops:
        raise MissingOperation("algebra has no binary operation")
    return ops[0]


def _is_commutative(A: OpAlgebra, op: Operation) -> Optional[tuple[int, int]]:
    for x in range(A.size):
        for y in range(x + 1, A.size):
            if A.apply(op, x, y) != A.apply(op, y, x):
                return (x, y)
    return None


def _is_associative(A: OpAlgebra, op: Operation) -> Optional[tuple[int, int, int]]:
    for x in range(A.size):
        for y in range(A.size):
            for z in range(A.size):
                if A.apply(op, A.apply(op, x, y), z) != \
                   A.apply(op, x, A.apply(op, y, z)):
                    return (x, y, z)
    return None


def _unit_of(A: OpAlgebra, op: Operation) -> Optional[int]:
    for e in range(A.size):
        if all(A.apply(op, e, x) == x == A.apply(op, x, e)
               for x in range(A.size)):
            return e
    return None


def _validate_variety_axioms(A: OpAlgebra) -> None:
    v = A.variety
    if v == "custom":
        return
    if v in ("magma", "cmag", "ccm_magma"):
        if not A.ops_of_arity(2):
            raise MissingOperation(f"variety {v} needs a binary operation")
        op = binary_op(A)
        if v in ("cmag", "ccm_magma") and _is_commutative(A, op) is not None:
            raise IllTyped(f"variety {v}: operation is not commutative")
        if v == "ccm_magma":
            if _is_medial(A, op) is not None:
                raise IllTyped("variety ccm_magma: operation is not medial")
            if _cancellation_witness(A, op) is not None:
                raise IllTyped("variety ccm_magma: operation is not cancellative")
    elif v == "dimagma":
        if len(A.ops_of_arity(2)) < 2:
            raise MissingOperation("variety dimagma needs two binary operations")
        for op in A.ops_of_arity(2)[:2]:
            if _is_commutative(A, op) is not None:
                raise IllTyped("variety dimagma: operations must be commutative")
    elif v == "unary_monoid":
        if not (A.ops_of_arity(2) and A.ops_of_arity(1) and A.ops_of_arity(0)):
            raise MissingOperation(
                "variety unary_monoid needs binary, unary and nullary operations")
        op = binary_op(A)
        if _is_associative(A, op) is not None:
            raise IllTyped("variety unary_monoid: operation is not associative")
        e = A.apply(A.ops_of_arity(0)[0])
        if A.size and _unit_of(A, op) != e:
            raise IllTyped("variety unary_monoid: constant is not a unit")
        w = _unary_monoid_law_witness(A)
        if w is not None:
            raise IllTyped(f"variety unary_monoid: x bar(y) y = y bar(y) x "
                           f"fails at {w}")
    elif v == "lattice":
        meets = A.ops_of_arity(2)
        if len(meets) < 2:
            raise MissingOperation("variety lattice needs meet and join")
        meet, join = meets[0], meets[1]
        for op in (meet, join):
            if _is_commutative(A, op) is not None:
                raise IllTyped("variety lattice: operation not commutative")
            if _is_associative(A, op) is not None:
                raise IllTyped("variety lattice: operation not associative")
        for x in range(A.size):
            for y in range(A.size):
                if A.apply(meet, x, A.apply(join, x, y)) != x or \
                   A.apply(join, x, A.apply(meet, x, y)) != x:
                    raise IllTyped("variety lattice: absorption fails")
    elif v == "group":
        if not A.ops_of_arity(2):
            raise MissingOperation("variety group needs a binary operation")
        op = binary_op(A)
        if _is_associative(A, op) is not None:
            raise IllTyped("variety group: operation is not associative")
        e = _unit_of(A, op)
        if A.size and e is None:
            raise IllTyped("variety group: no unit element")
        for x in range(A.size):
            if not any(A.apply(op, x, y) == e == A.apply(op, y, x)
                       for y in range(A.size)):
                raise IllTyped(f"variety group: element {x} has no inverse")


def _is_medial(A: OpAlgebra, op: Operation) -> Optional[tuple]:
    for x, y, z, w in product(range(A.size), repeat=4):
        if A.apply(op, A.apply(op, x, y), A.apply(op, z, w)) != \
           A.apply(op, A.apply(op, x, z), A.apply(op, y, w)):
            return (x, y, z, w)
    return None


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


def _cancellation_witness(A: OpAlgebra, op: Operation) -> Optional[tuple]:
    for x in range(A.size):
        for y in range(x + 1, A.size):
            for b in range(A.size):
                if A.apply(op, x, b) == A.apply(op, y, b):
                    return (x, y, b)
    return None


def check_cancellative(A: OpAlgebra) -> Report:
    w = _cancellation_witness(A, binary_op(A))
    if w is None:
        return holds("cancellative")
    return fails("cancellative", {"x": w[0], "y": w[1], "b": w[2]})


def check_joint_cancellative(A: OpAlgebra) -> Report:
    ops = A.ops_of_arity(2)
    if len(ops) < 2:
        raise MissingOperation("joint cancellation needs two binary operations")
    op1, op2 = ops[0], ops[1]
    for x in range(A.size):
        for y in range(x + 1, A.size):
            for b in range(A.size):
                if A.apply(op1, x, b) == A.apply(op1, y, b) and \
                   A.apply(op2, x, b) == A.apply(op2, y, b):
                    return fails("joint-cancellative", {"x": x, "y": y, "b": b})
    return holds("joint-cancellative")


def _unary_monoid_law_witness(A: OpAlgebra) -> Optional[tuple[int, int]]:
    op = binary_op(A)
    bar = A.ops_of_arity(1)[0]
    for x in range(A.size):
        for y in range(A.size):
            by = A.apply(bar, y)
            if A.apply(op, A.apply(op, x, by), y) != \
               A.apply(op, A.apply(op, y, by), x):
                return (x, y)
    return None


def check_unary_monoid_law(A: OpAlgebra) -> Report:
    if not A.ops_of_arity(1):
        raise MissingOperation("no unary operation")
    w = _unary_monoid_law_witness(A)
    if w is None:
        return holds("unary-monoid-law")
    return fails("unary-monoid-law", {"pair": list(w)})


def maltsev_solve(A: OpAlgebra, a: int, b: int, c: int) -> int:
    """The unique x with x * b = a * c for a commutative binary operation."""
    op = binary_op(A)
    if _is_commutative(A, op) is not None:
        raise IllTyped("maltsev_solve needs a commutative operation")
    target = A.apply(op, a, c)
    sols = [x for x in range(A.size) if A.apply(op, x, b) == target]
    if not sols:
        raise NoSolution(f"x * {b} = {a} * {c} has no solution")
    if len(sols) > 1:
        raise MultipleSolutions(f"x * {b} = {a} * {c} has {len(sols)} solutions")
    return sols[0]


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
    op = binary_op(A)
    table = tuple(maltsev_solve(A, a, b, c)
                  for a in range(n) for b in range(n) for c in range(n))

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
    hom = holds("maltsev-hom-law")
    for a, b, c, a2, b2, c2 in product(range(n), repeat=6):
        lhs = A.apply(op, p(a, b, c), p(a2, b2, c2))
        rhs = p(A.apply(op, a, a2), A.apply(op, b, b2), A.apply(op, c, c2))
        if lhs != rhs:
            hom = fails("maltsev-hom-law", {"tuple": [a, b, c, a2, b2, c2]})
            break
    return MaltsevTable(table, unit, hom)


def homomorphism_witness(src: OpAlgebra, dst: OpAlgebra,
                         h: tuple[int, ...]) -> Optional[dict]:
    if src.signature != dst.signature:
        return {"reason": "signature mismatch"}
    if len(h) != src.size or any(not 0 <= v < dst.size for v in h):
        return {"reason": "not a map between the carriers"}
    for op_s, op_d in zip(src.ops, dst.ops):
        for args in product(range(src.size), repeat=op_s.arity):
            if h[src.apply(op_s, *args)] != \
               dst.apply(op_d, *tuple(h[a] for a in args)):
                return {"operation": op_s.symbol, "args": list(args)}
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
    meet, join = A.ops_of_arity(2)[0], A.ops_of_arity(2)[1]
    for x, y, z in product(range(A.size), repeat=3):
        if A.apply(meet, x, A.apply(join, y, z)) != \
           A.apply(join, A.apply(meet, x, y), A.apply(meet, x, z)):
            return fails("distributive", {"triple": [x, y, z]})
    return holds("distributive")


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
    op = binary_op(A)
    bar = A.ops_of_arity(1)
    if not bar:
        if A.variety != "group":
            raise MissingOperation("no unary operation")
        inv = _group_inverse_table(A)
        bar_table = inv
    else:
        bar_table = bar[0].table
    for a, b, c in product(range(A.size), repeat=3):
        bb = bar_table[b]
        rhs = A.apply(op, A.apply(op, a, bb), c)
        sols = [x for x in range(A.size)
                if A.apply(op, A.apply(op, x, bb), b) == rhs]
        if len(sols) > 1:
            return fails("unique-solution", {"triple": [a, b, c],
                                             "solutions": sols[:2]})
    return holds("unique-solution")


def _group_inverse_table(A: OpAlgebra) -> tuple[int, ...]:
    op = binary_op(A)
    e = _unit_of(A, op)
    if e is None:
        raise IllTyped("group without unit")
    inv = []
    for x in range(A.size):
        ys = [y for y in range(A.size)
              if A.apply(op, x, y) == e == A.apply(op, y, x)]
        if len(ys) != 1:
            raise IllTyped(f"element {x} lacks a unique inverse")
        inv.append(ys[0])
    return tuple(inv)


def unary_monoid_from_group(A: OpAlgebra) -> OpAlgebra:
    """View a group as a unary monoid with bar = inverse."""
    op = binary_op(A)
    e = _unit_of(A, op)
    return OpAlgebra(A.size,
                     (Operation("*", 2, op.table),
                      Operation("1", 0, (e,)),
                      Operation("bar", 1, _group_inverse_table(A))),
                     "unary_monoid")


def equivalence_2_3_check(A: OpAlgebra) -> Report:
    """Sanity oracle: cancellation agrees with the at-most-one-solution
    condition, both computed independently."""
    op = binary_op(A)
    if _is_commutative(A, op) is not None:
        raise IllTyped("equivalence check needs a commutative operation")
    cond2 = _cancellation_witness(A, op) is None
    cond3 = True
    for a, b, c in product(range(A.size), repeat=3):
        target = A.apply(op, a, c)
        if len([x for x in range(A.size)
                if A.apply(op, x, b) == target]) > 1:
            cond3 = False
            break
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

    def __contains__(self, pair) -> bool:
        return pair in set(self.pairs)


def relation_closure(A: OpAlgebra, seed: Iterable[tuple[int, int]],
                     cap: int = SUBALGEBRA_CAP) -> tuple[tuple[int, int], ...]:
    """Close the diagonal plus a seed set under all operations applied
    coordinatewise."""
    current = {(x, x) for x in range(A.size)} | set(seed)
    changed = True
    while changed:
        changed = False
        snapshot = sorted(current)
        for op in A.ops:
            if op.arity == 0:
                v = A.apply(op)
                current.add((v, v))
                continue
            for args in product(snapshot, repeat=op.arity):
                pair = (A.apply(op, *(p[0] for p in args)),
                        A.apply(op, *(p[1] for p in args)))
                if pair not in current:
                    current.add(pair)
                    changed = True
        if len(current) > cap:
            raise BudgetExceeded("relation closure exceeded the element cap",
                                 partial=tuple(sorted(current)))
    return tuple(sorted(current))


def reflexive_relations(A: OpAlgebra, budget: int = 10000) -> tuple[BinaryRelation, ...]:
    """All compatible reflexive relations on A, by closing the diagonal
    plus candidate seeds.  Raises BudgetExceeded with partial results
    when more than `budget` closures would be needed."""
    found: dict[tuple, BinaryRelation] = {}
    base = relation_closure(A, ())
    frontier = [base]
    found[base] = BinaryRelation(A, base)
    closures = 1
    all_pairs = [(x, y) for x in range(A.size) for y in range(A.size) if x != y]
    while frontier:
        rel = frontier.pop()
        have = set(rel)
        for q in all_pairs:
            if q in have:
                continue
            closures += 1
            if closures > budget:
                raise BudgetExceeded(
                    f"relation enumeration exceeded budget {budget}",
                    partial=tuple(found.values()))
            bigger = relation_closure(A, rel + (q,))
            if bigger not in found:
                found[bigger] = BinaryRelation(A, bigger)
                frontier.append(bigger)
    return tuple(sorted(found.values(), key=lambda r: (len(r.pairs), r.pairs)))


@dataclass(frozen=True)
class RelationProperties:
    symmetric: bool
    transitive: bool
    difunctional: bool


def relation_properties(R: BinaryRelation) -> RelationProperties:
    pairs = set(R.pairs)
    symmetric = all((b, a) in pairs for (a, b) in pairs)
    transitive = all((a, c) in pairs
                     for (a, b) in pairs for (b2, c) in pairs if b == b2)
    difunctional = True
    for (a, b) in pairs:
        for (c, b2) in pairs:
            if b2 != b:
                continue
            for (c2, d) in pairs:
                if c2 == c and (a, d) not in pairs:
                    difunctional = False
                    break
            if not difunctional:
                break
        if not difunctional:
            break
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
        for name, h, src, dst in (("f", self.f, self.A, self.B),
                                  ("r", self.r, self.B, self.A),
                                  ("s", self.s, self.B, self.C),
                                  ("g", self.g, self.C, self.B),
                                  ("alpha", self.alpha, self.A, self.D),
                                  ("beta", self.beta, self.B, self.D),
                                  ("gamma", self.gamma, self.C, self.D)):
            w = homomorphism_witness(src, dst, tuple(h))
            if w is not None:
                raise NotAHomomorphism(f"{name} is not a homomorphism: {w}")
        if tuple(self.f[self.r[b]] for b in range(self.B.size)) != \
           tuple(range(self.B.size)):
            raise IllTyped("f r != 1_B")
        if tuple(self.g[self.s[b]] for b in range(self.B.size)) != \
           tuple(range(self.B.size)):
            raise IllTyped("g s != 1_B")
        if tuple(self.alpha[self.r[b]] for b in range(self.B.size)) != \
           tuple(self.beta) or \
           tuple(self.gamma[self.s[b]] for b in range(self.B.size)) != \
           tuple(self.beta):
            raise IllTyped("alpha r = beta = gamma s fails")


def _product_subalgebra(A: OpAlgebra, C: OpAlgebra, labels) -> OpAlgebra:
    """The subalgebra of A x C on the given pairs, which must be closed
    under the operations, applied coordinatewise."""
    index = index_of(labels)
    ops = []
    for op_a, op_c in zip(A.ops, C.ops):
        table = []
        for args in product(labels, repeat=op_a.arity):
            pair = (A.apply(op_a, *(p[0] for p in args)),
                    C.apply(op_c, *(p[1] for p in args)))
            table.append(index[pair])
        ops.append(Operation(op_a.symbol, op_a.arity, tuple(table)))
    return OpAlgebra(len(labels), tuple(ops), "custom")


def pullback_subalgebra(vk: VarietyKite) -> tuple[OpAlgebra, tuple]:
    """The subalgebra of A x C on pairs (a, c) with f(a) = g(c)."""
    over = fibres(vk.g)
    labels = tuple((a, c) for a in range(vk.A.size)
                   for c in over.get(vk.f[a], ()))
    return _product_subalgebra(vk.A, vk.C, labels), labels


@dataclass(frozen=True)
class VarietySolveResult:
    count: int
    solutions: tuple[tuple[int, ...], ...]
    labels: tuple


def admissibility_count_variety(vk: VarietyKite,
                                cap: int = 1000) -> VarietySolveResult:
    """Count homomorphisms phi: A x_B C -> D with phi e1 = alpha and
    phi e2 = gamma, by backtracking with closure propagation."""
    E, labels = pullback_subalgebra(vk)
    index = index_of(labels)
    pins = cross_pins([index[(a, vk.s[vk.f[a]])] for a in range(vk.A.size)],
                      vk.alpha,
                      [index[(vk.r[vk.g[c]], c)] for c in range(vk.C.size)],
                      vk.gamma)
    if pins is None:
        return VarietySolveResult(0, (), labels)

    tuples_by_op = [(op, tuple(product(range(E.size), repeat=op.arity)))
                    for op in E.ops if op.arity > 0]

    def propagate(assign: dict[int, int]) -> Optional[dict[int, int]]:
        work = dict(assign)
        changed = True
        while changed:
            changed = False
            for op, tuples in tuples_by_op:
                d_op = vk.D.op_by_symbol(op.symbol)
                for args in tuples:
                    if any(a not in work for a in args):
                        continue
                    out = E.apply(op, *args)
                    val = vk.D.apply(d_op, *(work[a] for a in args))
                    if out in work:
                        if work[out] != val:
                            return None
                    else:
                        work[out] = val
                        changed = True
        return work

    solutions: list[tuple[int, ...]] = []
    count = 0

    def backtrack(assign: dict[int, int]):
        nonlocal count
        assign = propagate(assign)
        if assign is None:
            return
        todo = [i for i in range(E.size) if i not in assign]
        if not todo:
            count += 1
            if len(solutions) < max(cap, 2):
                solutions.append(tuple(assign[i] for i in range(E.size)))
            return
        i = todo[0]
        for v in range(vk.D.size):
            nxt = dict(assign)
            nxt[i] = v
            backtrack(nxt)

    backtrack(dict(pins))
    solutions.sort()
    if count > cap:
        solutions = solutions[:2]
    return VarietySolveResult(count, tuple(solutions), labels)


def wm_witness_search(D: OpAlgebra, budget: int = 2000) -> Optional[VarietyKite]:
    """Bounded search for a kite over D with two admissibility
    morphisms: B = D, A and C compatible reflexive relations on D with
    projection legs and diagonal sections.  Returns None when the
    budget is exhausted without a find (inconclusive, never a WM claim)."""
    try:
        rels = reflexive_relations(D, budget=budget)
    except BudgetExceeded as exc:
        rels = exc.partial or ()
    examined = 0
    for rel_a in rels:
        alg_a, labels_a = _relation_algebra(D, rel_a.pairs)
        for rel_c in rels:
            alg_c, labels_c = _relation_algebra(D, rel_c.pairs)
            for fa in (0, 1):
                for gc in (0, 1):
                    for aa in (0, 1):
                        for gg in (0, 1):
                            examined += 1
                            if examined > budget:
                                return None
                            kite = _projection_kite(D, alg_a, labels_a,
                                                    alg_c, labels_c,
                                                    fa, gc, aa, gg)
                            if kite is None:
                                continue
                            res = admissibility_count_variety(kite, cap=2)
                            if res.count >= 2:
                                return kite
    return None


def _relation_algebra(D: OpAlgebra, pairs) -> tuple[OpAlgebra, tuple]:
    labels = tuple(sorted(pairs))
    return _product_subalgebra(D, D, labels), labels


def _projection_kite(D, alg_a, labels_a, alg_c, labels_c,
                     fa, gc, aa, gg) -> Optional[VarietyKite]:
    index_a = index_of(labels_a)
    index_c = index_of(labels_c)
    diag_a = tuple(index_a[(x, x)] for x in range(D.size))
    diag_c = tuple(index_c[(x, x)] for x in range(D.size))
    f = tuple(lab[fa] for lab in labels_a)
    g = tuple(lab[gc] for lab in labels_c)
    alpha = tuple(lab[aa] for lab in labels_a)
    gamma = tuple(lab[gg] for lab in labels_c)
    beta = tuple(range(D.size))
    try:
        return VarietyKite(alg_a, D, alg_c, D, f, diag_a, diag_c, g,
                           alpha, beta, gamma)
    except (IllTyped, NotAHomomorphism):
        return None
