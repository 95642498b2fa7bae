import ast
import gc
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from itertools import islice, permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from finkite import algebra
from finkite.algebra import (BinaryRelation, OpAlgebra, Operation, VarietyKite,
                             admissibility_count_variety, binary_op,
                             check_cancellative,
                             check_commutative, check_distributive,
                             check_joint_cancellative, check_medial,
                             check_naturality_of_p, check_unary_monoid_law,
                             classify_wm_object, equivalence_2_3_check,
                             homomorphism_witness, maltsev_solve,
                             maltsev_table, pullback_subalgebra,
                             relation_closure,
                             reflexive_relations, relation_properties,
                             unary_monoid_from_group, wm_witness_search)
from finkite.cli import _commutative_tables
from finkite.errors import (BudgetExceeded, FinkiteError, IllTyped,
                            MissingOperation, MultipleSolutions,
                            NoSolution, NotAHomomorphism, UnsupportedVariety)
from finkite.report import fails, holds
from finkite.schemas import dump_algebra, load_algebra
from finkite.gallery import (chain_lattice, cyclic_group, cyclic_magma,
                             klein_four, m3_dimagma, m3_lattice,
                             meet_semilattice2, n5_lattice,
                             two_by_two_lattice, two_element_set_algebra)


def left_projection_magma():
    return OpAlgebra(2, (Operation("*", 2, (0, 0, 1, 1)),), "magma")


def relation_side(D, rel):
    return algebra._relation_side(D, rel.pairs)


def projection_kite(D, side_a, side_c, fa, gc, aa, gg):
    """The kite of the witness search's projection family over the
    relation sides side_a and side_c, or None when VarietyKite rejects it."""
    (A, diag_a, proj_a), (C, diag_c, proj_c) = side_a, side_c
    try:
        return VarietyKite(A, D, C, D, proj_a[fa], diag_a, diag_c, proj_c[gc],
                           proj_a[aa], tuple(range(D.size)), proj_c[gg])
    except (IllTyped, NotAHomomorphism):
        return None


def test_commutative_and_medial():
    z3 = cyclic_magma(3)
    assert check_commutative(z3).ok
    assert check_medial(z3).ok
    lp = left_projection_magma()
    rep = check_commutative(lp)
    assert not rep.ok and rep.witness["pair"] == [0, 1]
    assert check_commutative(meet_semilattice2()).ok
    assert check_medial(meet_semilattice2()).ok


def test_cancellative():
    for n in (2, 3, 4):
        assert check_cancellative(cyclic_magma(n)).ok
    rep = check_cancellative(meet_semilattice2())
    assert not rep.ok
    assert rep.witness == {"x": 0, "y": 1, "b": 0}


def test_joint_cancellative_m3():
    rep = check_joint_cancellative(m3_dimagma())
    assert not rep.ok
    x, y, b = rep.witness["x"], rep.witness["y"], rep.witness["b"]
    assert len({x, y}) == 2 and b not in (0, 4)


def test_missing_operation():
    with pytest.raises(MissingOperation):
        check_commutative(two_element_set_algebra())


def test_distributivity_needs_two_binary_operations():
    for A in (two_element_set_algebra(), cyclic_magma(3)):
        with pytest.raises(MissingOperation):
            check_distributive(A)


def test_maltsev_solve_examples():
    z5 = cyclic_magma(5)
    assert maltsev_solve(z5, 1, 4, 3) == 0
    for a in range(5):
        for b in range(5):
            assert maltsev_solve(z5, a, b, b) == a
    with pytest.raises(NoSolution):
        maltsev_solve(meet_semilattice2(), 1, 0, 1)
    with pytest.raises(MultipleSolutions):
        # x and 0 = 0 and 0 has two solutions
        maltsev_solve(meet_semilattice2(), 0, 0, 0)


def test_maltsev_table_laws_on_cyclic_groups():
    for n in range(1, 8):
        data = maltsev_table(cyclic_magma(n))
        assert data.unit_laws.ok and data.hom_law.ok
        for a, b, c in product(range(n), repeat=3):
            assert data.p(n, a, b, c) == (a - b + c) % n


def test_maltsev_table_fetches_its_operation_once(monkeypatch):
    """One binary_op call per maltsev_table, whether the hom law holds
    (Z_4) or fails (a non-medial commutative quasigroup on 5 points)."""
    calls = []

    def counting(A):
        calls.append(A.size)
        return binary_op(A)

    monkeypatch.setattr(algebra, "binary_op", counting)
    latin = (0, 2, 1, 4, 3, 2, 1, 4, 3, 0, 1, 4, 3, 0, 2,
             4, 3, 0, 2, 1, 3, 0, 2, 1, 4)
    for A, hom in ((cyclic_magma(4), True),
                   (OpAlgebra(5, (Operation("*", 2, latin),), "magma"), False)):
        calls.clear()
        assert maltsev_table(A).hom_law.ok is hom
        assert calls == [A.size]


def test_naturality_of_p():
    z4, z2 = cyclic_magma(4), cyclic_magma(2)
    h = tuple(x % 2 for x in range(4))
    assert check_naturality_of_p(z4, z2, h).ok
    assert check_naturality_of_p(z2, z2, (0, 1)).ok
    doubling = (0, 2)
    assert check_naturality_of_p(z2, z4, doubling).ok
    with pytest.raises(NotAHomomorphism):
        check_naturality_of_p(z4, z2, (0, 0, 0, 1))


def test_classify_wm_object():
    assert classify_wm_object(cyclic_magma(3)).report.ok
    cls = classify_wm_object(meet_semilattice2())
    assert not cls.report.ok and cls.criterion == "cancellation"
    for latt, expect in ((chain_lattice(2), True), (two_by_two_lattice(), True),
                         (m3_lattice(), False), (n5_lattice(), False)):
        cls = classify_wm_object(latt)
        assert cls.report.ok == expect
    cls = classify_wm_object(m3_dimagma())
    assert not cls.report.ok and cls.criterion == "joint cancellation"
    with pytest.raises(UnsupportedVariety):
        classify_wm_object(left_projection_magma())


def test_unary_monoid_from_groups():
    for alg in (cyclic_group(2), cyclic_group(3), cyclic_group(4), klein_four()):
        um = unary_monoid_from_group(alg)
        assert check_unary_monoid_law(um).ok
        assert classify_wm_object(um).report.ok


def test_distributive_iff_jointly_cancellative_small_lattices():
    lattices = [chain_lattice(n) for n in (1, 2, 3, 4, 5)]
    lattices += [two_by_two_lattice(), m3_lattice(), n5_lattice()]
    for latt in lattices:
        dist = check_distributive(latt).ok
        jc = check_joint_cancellative(latt).ok
        assert dist == jc


def test_equivalence_2_3_all_commutative_3_magmas():
    cells = [(i, j) for i in range(3) for j in range(i, 3)]
    count = 0
    for values in product(range(3), repeat=len(cells)):
        table = [[0] * 3 for _ in range(3)]
        for (i, j), v in zip(cells, values):
            table[i][j] = table[j][i] = v
        flat = tuple(table[i][j] for i in range(3) for j in range(3))
        alg = OpAlgebra(3, (Operation("*", 2, flat),), "cmag")
        assert equivalence_2_3_check(alg).ok
        count += 1
    assert count == 729


@pytest.mark.parametrize("n, count", [(0, 1), (1, 1), (2, 8), (3, 729)])
def test_equiv23_kernel_on_every_table_of_the_sweep(n, count):
    """The sweep reads the conditions off its generated tables without
    building an OpAlgebra: each one must validate as a commutative magma,
    and the kernel must agree with the oracle on it."""
    tables = list(_commutative_tables(n))
    assert len(tables) == count
    for t in tables:
        A = OpAlgebra(n, (Operation("*", 2, t),), "cmag")
        cond2, cond3 = algebra._equiv23_conditions(t, n)
        assert oracle_equivalence_2_3_check(A).details == (
            f"cancellation: {cond2}", f"at most one solution: {cond3}")


def test_cancellative_commutative_magmas_always_solvable():
    """Finite cancellative commutative tables are symmetric Latin
    squares, so every instance x * b = a * c is solvable; checked
    exhaustively through size 4 by direct enumeration."""

    def symmetric_latin(n):
        table = [[None] * n for _ in range(n)]

        def fill(pos):
            if pos == len(cells):
                yield tuple(tuple(row) for row in table)
                return
            i, j = cells[pos]
            for v in range(n):
                if any(table[i][k] == v for k in range(n) if table[i][k] is not None):
                    continue
                if any(table[k][j] == v for k in range(n) if table[k][j] is not None):
                    continue
                if i != j and any(table[k][i] == v for k in range(n)
                                  if table[k][i] is not None):
                    continue
                table[i][j] = v
                table[j][i] = v
                yield from fill(pos + 1)
                table[i][j] = None
                if i != j:
                    table[j][i] = None

        cells = [(i, j) for i in range(n) for j in range(i, n)]
        yield from fill(0)

    total = 0
    for n in (1, 2, 3, 4):
        for table in symmetric_latin(n):
            flat = tuple(table[i][j] for i in range(n) for j in range(n))
            alg = OpAlgebra(n, (Operation("*", 2, flat),), "cmag")
            assert check_cancellative(alg).ok
            for a, b, c in product(range(n), repeat=3):
                maltsev_solve(alg, a, b, c)  # must never raise
            total += 1
    assert total > 20


def test_reflexive_relations_empty_signature():
    rels = reflexive_relations(two_element_set_algebra())
    assert len(rels) == 4
    by_pairs = {r.pairs for r in rels}
    assert ((0, 0), (0, 1), (1, 1)) in by_pairs
    order = BinaryRelation(two_element_set_algebra(), ((0, 0), (0, 1), (1, 1)))
    props = relation_properties(order)
    assert not props.symmetric and props.transitive


def test_reflexive_relations_on_groups_are_congruences():
    for n in (2, 3, 4):
        rels = reflexive_relations(cyclic_group(n))
        # congruences of Z_n match divisors of n
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert len(rels) == len(divisors)
        for r in rels:
            props = relation_properties(r)
            assert props.symmetric and props.transitive and props.difunctional


def test_relation_properties_diagonal():
    diag = BinaryRelation(two_element_set_algebra(), ((0, 0), (1, 1)))
    props = relation_properties(diag)
    assert props.symmetric and props.transitive and props.difunctional


def test_difunctional_reflexive_implies_symmetric_transitive():
    for alg in (two_element_set_algebra(), cyclic_group(2), cyclic_group(3)):
        for rel in reflexive_relations(alg):
            props = relation_properties(rel)
            if props.difunctional:
                assert props.symmetric and props.transitive


def test_variety_kite_witness_for_meet_semilattice():
    kite = wm_witness_search(meet_semilattice2())
    assert kite is not None
    res = admissibility_count_variety(kite, cap=10)
    assert res.count >= 2
    assert len(res.solutions) >= 2
    # both returned solutions really are homomorphisms agreeing on the cross
    E, labels = pullback_subalgebra(kite)
    for sol in res.solutions[:2]:
        assert homomorphism_witness(E, kite.D, sol) is None


def test_variety_counter_refuses_a_negative_cap():
    kite = wm_witness_search(meet_semilattice2())
    with pytest.raises(IllTyped, match=r"^cap must be >= 0, got -1$"):
        admissibility_count_variety(kite, cap=-1)
    assert admissibility_count_variety(kite, cap=0).count == 2


def test_variety_kite_count_bounded_for_cancellative_groups():
    z3 = cyclic_magma(3)
    rels = reflexive_relations(z3)
    for rel in rels:
        side = relation_side(z3, rel)
        kite = projection_kite(z3, side, side, 0, 1, 1, 0)
        if kite is None:
            continue
        assert admissibility_count_variety(kite, cap=10).count <= 1


def test_cancellative_magmas_admit_at_most_one_admissibility_morphism():
    """Projection kites over subalgebras of D x D never carry two
    admissibility morphisms when D is a cancellative commutative magma;
    sampled over all such D of size <= 3."""
    def commutative_tables(n):
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        for values in product(range(n), repeat=len(cells)):
            table = [[0] * n for _ in range(n)]
            for (i, j), v in zip(cells, values):
                table[i][j] = table[j][i] = v
            yield tuple(table[i][j] for i in range(n) for j in range(n))

    checked = 0
    for n in (1, 2, 3):
        for flat in commutative_tables(n):
            D = OpAlgebra(n, (Operation("*", 2, flat),), "custom")
            if not check_cancellative(D).ok:
                continue
            rels = reflexive_relations(D, budget=500)
            for rel in rels[:3]:
                side = relation_side(D, rel)
                for fa, gc in ((0, 1), (1, 0)):
                    kite = projection_kite(D, side, side, fa, gc, gc, fa)
                    if kite is None:
                        continue
                    assert admissibility_count_variety(kite, cap=5).count <= 1
                    checked += 1
    assert checked > 10


def test_all_singleton_variety_kite():
    one = OpAlgebra(1, (Operation("*", 2, (0,)),), "cmag")
    kite = VarietyKite(one, one, one, one,
                       (0,), (0,), (0,), (0,), (0,), (0,), (0,))
    assert admissibility_count_variety(kite).count == 1


def test_variety_axiom_validation():
    with pytest.raises(IllTyped):
        OpAlgebra(2, (Operation("*", 2, (0, 0, 1, 1)),), "cmag")
    with pytest.raises(IllTyped):
        OpAlgebra(2, (Operation("meet", 2, (0, 0, 0, 1)),
                      Operation("join", 2, (0, 0, 0, 1))), "lattice")
    # valid lattice loads
    chain_lattice(3)


# --------------------------------------------------------------------------
# Oracles: the apply-based definitions the table-indexing code replaced,
# compared with it on random algebras of size <= 3 and arity <= 3.

def naive_closure(A, seed, cap=algebra.SUBALGEBRA_CAP):
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


def naive_reflexive_relations(A, budget):
    found = {}
    base = naive_closure(A, ())
    frontier = [base]
    found[base] = BinaryRelation(A, base)
    closures = 1
    all_pairs = [(x, y) for x in range(A.size) for y in range(A.size) if x != y]
    while frontier:
        rel = frontier.pop()
        for q in all_pairs:
            if q in rel:
                continue
            closures += 1
            if closures > budget:
                raise BudgetExceeded(
                    f"relation enumeration exceeded budget {budget}",
                    partial=tuple(found.values()))
            bigger = naive_closure(A, rel + (q,))
            if bigger not in found:
                found[bigger] = BinaryRelation(A, bigger)
                frontier.append(bigger)
    return tuple(sorted(found.values(), key=lambda r: (len(r.pairs), r.pairs)))


def brute_reflexive_relations(A):
    """Every reflexive relation closed under the operations."""
    n = A.size
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for mask in range(1 << len(off)):
        rel = {(x, x) for x in range(n)}
        rel |= {q for i, q in enumerate(off) if mask >> i & 1}
        if all((A.apply(op, *(p[0] for p in args)),
                A.apply(op, *(p[1] for p in args))) in rel
               for op in A.ops for args in product(rel, repeat=op.arity)):
            out.append(tuple(sorted(rel)))
    return sorted(out, key=lambda r: (len(r), r))


def oracle_maltsev_solve(A, a, b, c):
    op = binary_op(A)
    if not check_commutative(A).ok:
        raise IllTyped("maltsev_solve needs a commutative operation")
    target = A.apply(op, a, c)
    sols = [x for x in range(A.size) if A.apply(op, x, b) == target]
    if not sols:
        raise NoSolution(f"x * {b} = {a} * {c} has no solution")
    if len(sols) > 1:
        raise MultipleSolutions(f"x * {b} = {a} * {c} has {len(sols)} solutions")
    return sols[0]


def oracle_maltsev_table(A):
    n = A.size
    op = binary_op(A)
    table = tuple(oracle_maltsev_solve(A, a, b, c)
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
    return algebra.MaltsevTable(table, unit, hom)


def oracle_homomorphism_witness(src, dst, h):
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


def oracle_product_subalgebra(A, C, labels):
    index = {lab: i for i, lab in enumerate(labels)}
    ops = []
    for op_a, op_c in zip(A.ops, C.ops):
        table = [index[(A.apply(op_a, *(p[0] for p in args)),
                        C.apply(op_c, *(p[1] for p in args)))]
                 for args in product(labels, repeat=op_a.arity)]
        ops.append(Operation(op_a.symbol, op_a.arity, tuple(table)))
    return OpAlgebra(len(labels), tuple(ops), "custom")


def outcome(fn, *args):
    """The value, or the exception's type, text and partial."""
    try:
        return fn(*args)
    except FinkiteError as exc:
        return type(exc), str(exc), getattr(exc, "partial", None)


def signatures(max_ops=2):
    return st.lists(st.integers(0, 3), max_size=max_ops).map(
        lambda arities: tuple((f"o{i}", k) for i, k in enumerate(arities)))


def algebras(size, signature):
    return st.tuples(*(st.lists(st.integers(0, size - 1), min_size=size ** k,
                                max_size=size ** k)
                       for _, k in signature)).map(
        lambda tables: OpAlgebra(size, tuple(
            Operation(sym, k, tuple(t))
            for (sym, k), t in zip(signature, tables))))


def small_algebras():
    return st.tuples(st.integers(1, 3), signatures()).flatmap(
        lambda ns: algebras(*ns))


def isotope(sigma, add=None):
    """The commutative magma x * y = sigma(add(x, y)) on n = len(sigma)
    elements, add being addition in Z_n unless given."""
    n = len(sigma)
    add = add or (lambda x, y: (x + y) % n)
    return OpAlgebra(n, (Operation("*", 2, tuple(
        sigma[add(x, y)] for x in range(n) for y in range(n))),), "cmag")


@st.composite
def commutative_magmas(draw, max_size=4):
    """Random commutative tables, and isotopes x * y = sigma(x + y) of
    Z_n and of (Z_2)^2, which are cancellative and, for n = 4, fail the
    hom law when sigma is not affine."""
    n = draw(st.integers(1, max_size))
    if draw(st.booleans()):
        sigma = draw(st.permutations(range(n)))
        groups = [None]
        if n in (2, 4):
            groups.append(lambda x, y: x ^ y)
        return isotope(sigma, draw(st.sampled_from(groups)))
    value = {}
    for x in range(n):
        for y in range(x, n):
            value[x, y] = value[y, x] = draw(st.integers(0, n - 1))
    return OpAlgebra(n, (Operation("*", 2, tuple(
        value[x, y] for x in range(n) for y in range(n))),), "cmag")


@given(small_algebras(), st.lists(st.tuples(st.integers(0, 2),
                                            st.integers(0, 2)), max_size=2),
       st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_relation_closure_matches_naive_fixpoint(A, seed, cap):
    seed = [(x % A.size, y % A.size) for x, y in seed]
    assert outcome(relation_closure, A, seed, cap) == \
        outcome(naive_closure, A, seed, cap)
    assert relation_closure(A, seed) == naive_closure(A, seed)


def naive_product_closure(A, C, pairs, cap=algebra.SUBALGEBRA_CAP):
    """The closure of pairs in A x C by rounds over every argument tuple,
    constants included, with naive_closure's cap."""
    current = set(pairs)
    while True:
        snapshot = sorted(current)
        new = {(A.apply(op_a, *(p[0] for p in args)),
                C.apply(op_c, *(p[1] for p in args)))
               for op_a, op_c in zip(A.ops, C.ops)
               for args in product(snapshot, repeat=op_a.arity)}
        grew = not new <= current
        current |= new
        if len(current) > cap:
            raise BudgetExceeded("relation closure exceeded the element cap",
                                 partial=tuple(sorted(current)))
        if not grew:
            return tuple(sorted(current))


@given(st.tuples(st.integers(1, 3), st.integers(1, 3),
                 signatures()).flatmap(
    lambda t: st.tuples(algebras(t[0], t[2]), algebras(t[1], t[2]))),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=3),
       st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_product_closure_matches_naive_fixpoint(AC, seed, new, cap):
    """_close in A x C, from a closed set and new pairs: the same closure,
    or the same BudgetExceeded text and partial."""
    A, C = AC
    assume(A != C)
    m = C.size
    closed = naive_product_closure(
        A, C, [(a % A.size, c % m) for a, c in seed])
    new = [(a % A.size, c % m) for a, c in new]

    def close(A, C, closed, new, cap):
        return algebra._pairs(algebra._close(
            A, C, [a * m + c for a, c in closed],
            [a * m + c for a, c in new], cap), m)

    assert outcome(close, A, C, closed, new, cap) == \
        outcome(naive_product_closure, A, C, set(closed) | set(new), cap)


def binary_table(rng, n, symmetric):
    """A binary table on n elements with uniform random entries: symmetric
    when asked, else with 0 1 != 1 0 when n > 1."""
    t = [rng.randrange(n) for _ in range(n * n)]
    for x, y in product(range(n), repeat=2):
        if symmetric and x < y:
            t[y * n + x] = t[x * n + y]
    if not symmetric and n > 1 and t[1] == t[n]:
        t[1] = (t[n] + 1) % n
    return tuple(t)


@st.composite
def binary_pairs(draw):
    """(A, C) with one binary operation, commutative in both, in A only
    (C then has two or three elements), or in neither; C = A in about a
    third of the draws of the other two kinds.  The entries are drawn
    uniformly, as hypothesis's integer lists lean to repeated values."""
    sym_a, sym_c = draw(st.sampled_from([(True, True), (True, False),
                                         (False, False)]))
    na = draw(st.integers(1, 3))
    nc = draw(st.integers(1 + (sym_a and not sym_c), 3))
    rng = draw(st.randoms(use_true_random=False))
    A = OpAlgebra(na, (Operation("*", 2, binary_table(rng, na, sym_a)),))
    if sym_a == sym_c and draw(st.integers(0, 2)) == 0:
        return A, A
    return A, OpAlgebra(nc, (Operation("*", 2, binary_table(rng, nc, sym_c)),))


@given(binary_pairs(),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=2),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1,
                max_size=3),
       st.integers(0, 10))
@example((chain_lattice(2), chain_lattice(3)), [], [(0, 1), (1, 0)], 10)
@example((cyclic_group(3), cyclic_magma(2)), [(0, 0)], [(1, 1)], 6)
@example((OpAlgebra(1, (Operation("*", 2, (0,)),)), OpAlgebra(3, (
    Operation("*", 2, (0, 2, 0, 1, 1, 1, 2, 2, 2)),))), [(0, 0)], [(0, 1)], 9)
@example((left_projection_magma(), left_projection_magma()), [(0, 0)],
         [(0, 1)], 4)
@settings(max_examples=200, deadline=None)
def test_commutative_operations_close_as_the_naive_fixpoint(AC, seed, new,
                                                            cap):
    """A binary operation commutative in A and C is applied with the new
    pair first only; commutative in A alone, or in neither, in both
    orders: in each case the same closure, or the same BudgetExceeded
    text and partial, as the naive fixpoint."""
    A, C = AC
    closed = naive_product_closure(
        A, C, [(a % A.size, c % C.size) for a, c in seed])
    new = [(a % A.size, c % C.size) for a, c in new]
    assert outcome(close_pairs, A, C, closed, new, cap) == \
        outcome(naive_product_closure, A, C, set(closed) | set(new), cap)


@pytest.mark.parametrize("A, parent, images", [
    (n5_lattice(), 916, 458), (m3_lattice(), 164, 82),
    (chain_lattice(4), 5260, 2578), (cyclic_magma(5), 62, 31)],
    ids=["n5", "m3", "chain4", "cmag5"])
def test_commutative_operations_close_from_one_argument_order(
        monkeypatch, A, parent, images):
    """The _coded_images calls of a full enumeration, each one argument
    position of one operation in one closure round.  `parent` is the
    count when both positions of a commutative operation were applied
    and a closure that started full ran one round; only chain4 has such
    a closure.  The relations are the same as the reference's."""
    calls = []
    coded_images = algebra._coded_images

    def counting(*args):
        calls.append(1)
        return coded_images(*args)

    monkeypatch.setattr(algebra, "_coded_images", counting)
    rels = reflexive_relations(A)
    assert len(calls) == images < parent
    monkeypatch.undo()
    assert rels == reference_reflexive_relations(A)


@given(small_algebras(), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_reflexive_relations_match_brute_force(A, budget):
    rels = reflexive_relations(A)
    assert [r.pairs for r in rels] == brute_reflexive_relations(A)
    assert outcome(reflexive_relations, A, budget) == \
        outcome(naive_reflexive_relations, A, budget)


# Isotopes of Z_5 and Z_6 that fail the hom law, the first two with the
# latest first witness of their size, (0,0,0,0,1,2) and (0,0,0,0,1,3),
# and one of Z_6 that holds it
@given(commutative_magmas())
@example(isotope((4, 1, 0, 3, 2)))
@example(isotope((1, 0, 2, 3, 4)))
@example(isotope((4, 5, 0, 2, 1, 3)))
@example(isotope((0, 1, 3, 2, 4, 5)))
@example(isotope((5, 4, 3, 2, 1, 0)))
@settings(max_examples=150, deadline=None)
def test_maltsev_table_matches_per_entry_solve(A):
    assert outcome(maltsev_table, A) == outcome(oracle_maltsev_table, A)


def transposed(pairs):
    return tuple(sorted((y, x) for x, y in pairs))


@given(small_algebras(), st.tuples(st.integers(0, 2), st.integers(0, 2)))
@example(OpAlgebra(3, (Operation("c", 0, (1,)), Operation("u", 1, (1, 2, 2)),
                       Operation("t", 3, tuple((x * y + z) % 3 for x, y, z
                                               in product(range(3), repeat=3))))),
         (0, 2))
@settings(max_examples=150, deadline=None)
def test_principal_relations_come_in_transpose_pairs(A, q):
    """Swapping coordinates fixes the diagonal and commutes with the
    operations, so P(y, x) is P(x, y) transposed, and the relations
    found are closed under transposition."""
    x, y = (v % A.size for v in q)
    assert relation_closure(A, [(y, x)]) == \
        transposed(relation_closure(A, [(x, y)]))
    rels = {r.pairs for r in reflexive_relations(A)}
    assert {transposed(r) for r in rels} == rels


def test_base_pass_closes_one_principal_relation_per_transpose_pair(
        monkeypatch):
    """On Z_5 the base pass meets all 20 pairs off the diagonal; only the
    10 with x < y are closed, their transposes are read off them."""
    A = cyclic_group(5)
    diagonal = {x * 5 + x for x in range(5)}
    calls = []
    close = algebra._close

    def counting(A, C, closed, new, cap):
        if set(closed) == diagonal:
            calls.append(tuple(new))
        return close(A, C, closed, new, cap)

    monkeypatch.setattr(algebra, "_close", counting)
    assert [len(r.pairs) for r in reflexive_relations(A)] == [5, 25]
    assert sorted(calls) == [(x * 5 + y,) for x in range(5)
                             for y in range(x + 1, 5)]


# The exit that the closure takes on a fact it already holds: a closure
# ends once it holds all of A x C.  The enumeration is swept against a
# reference that closes every join of a relation with a new principal
# relation.

def close_pairs(A, C, closed, new, cap):
    """_close on pairs (a, c) of A x C, its result given as pairs."""
    m = C.size
    return algebra._pairs(algebra._close(
        A, C, [a * m + c for a, c in closed], [a * m + c for a, c in new],
        cap), m)


def full_closure_cases():
    """(A, C, closed, new), `closed` being closed, each closing to all of
    A x C; A = C first.  The groups' constant is the pair (0, 0)."""
    z3, z2 = cyclic_group(3), cyclic_group(2)
    diagonal = [(x, x) for x in range(3)]
    yield z3, z3, diagonal, [(0, 1)]
    yield z3, z3, [(0, 0)], [(0, 1), (1, 0)]
    chain2 = chain_lattice(2)
    yield chain2, chain2, [(0, 0), (1, 1)], [(0, 1), (1, 0)]
    yield z2, z3, [(0, 0)], [(1, 1)]           # (1, 1) generates Z_2 x Z_3
    yield z2, z3, [(0, 0), (0, 1), (0, 2)], [(1, 0)]
    yield z3, z2, [(0, 0)], [(x, y) for x in range(3) for y in range(2)]
    yield cyclic_magma(2), meet_semilattice2(), (), [(0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("case", list(full_closure_cases()),
                         ids=lambda c: f"{c[0].size}x{c[1].size}-{len(c[3])}")
def test_closure_reaching_the_full_relation_matches_naive_fixpoint(case):
    """At cap |A||C| - 1 the full closure is over the cap, at |A||C| and
    at SUBALGEBRA_CAP it is returned: the same closure, or the same
    BudgetExceeded text and partial, as the naive fixpoint."""
    A, C, closed, new = case
    full = A.size * C.size
    assert naive_product_closure(A, C, closed) == tuple(sorted(closed))
    assert naive_product_closure(A, C, set(closed) | set(new)) == \
        tuple(product(range(A.size), range(C.size)))
    for cap in (full - 1, full, algebra.SUBALGEBRA_CAP):
        assert outcome(close_pairs, A, C, closed, new, cap) == \
            outcome(naive_product_closure, A, C, set(closed) | set(new), cap)


@given(st.tuples(st.integers(1, 3), st.integers(1, 3),
                 signatures()).flatmap(
    lambda t: st.tuples(algebras(t[0], t[2]), algebras(t[1], t[2]))),
       st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=3),
       st.integers(-1, 1), st.booleans())
@settings(max_examples=200, deadline=None)
def test_closure_from_all_but_a_few_pairs_matches_naive_fixpoint(
        AC, missing, cap_offset, square):
    """Seeded with all of A x C but a few pairs, most closures reach the
    full relation, at caps about |A||C|.  The closed part is the closure
    of no pairs, the constants."""
    A, C = AC
    if square:
        C = A
    closed = naive_product_closure(A, C, ())
    pairs = set(product(range(A.size), range(C.size)))
    new = pairs - {(a % A.size, c % C.size) for a, c in missing}
    cap = A.size * C.size + cap_offset
    assert outcome(close_pairs, A, C, closed, new, cap) == \
        outcome(naive_product_closure, A, C, set(closed) | new, cap)


def reference_reflexive_relations(A, budget=10000):
    """reflexive_relations closing every join of a relation with a new
    principal relation, as it did before joins decided by containment
    were skipped."""
    if budget < 0:
        raise IllTyped(f"budget must be >= 0, got {budget}")
    n = A.size
    found = {}
    try:
        base = tuple(x * n + y for x, y in relation_closure(A, ()))
        frontier = [base]
        found[base] = BinaryRelation(A, algebra._pairs(base, n))
        principal = {}
        closures = 1
        all_pairs = [x * n + y for x in range(n) for y in range(n) if x != y]
        while frontier:
            rel = frontier.pop()
            have = set(rel)
            done = set()
            for q in all_pairs:
                if q in have:
                    continue
                closures += 1
                if closures > budget:
                    raise BudgetExceeded(
                        f"relation enumeration exceeded budget {budget}")
                p = principal.get(q)
                if p is None:
                    pt = principal.get(q % n * n + q // n)
                    if pt is None:
                        p = algebra._close(A, A, have, {q},
                                           algebra.SUBALGEBRA_CAP)
                    else:
                        p = tuple(sorted(v % n * n + v // n for v in pt))
                    principal[q] = p
                if p in done:
                    continue
                done.add(p)
                bigger = p if rel is base else \
                    algebra._close(A, A, have, p, algebra.SUBALGEBRA_CAP)
                if bigger not in found:
                    found[bigger] = BinaryRelation(A, algebra._pairs(bigger, n))
                    frontier.append(bigger)
    except BudgetExceeded as exc:
        raise BudgetExceeded(str(exc), partial=tuple(found.values())) from None
    return tuple(sorted(found.values(), key=lambda r: (len(r.pairs), r.pairs)))


def assert_budget_sweep_matches_reference(A):
    """The same outcome at every budget from 0 up to the first at which
    the enumeration completes.  _close is pure, so the sweep reads each
    closure it has already made from a memo."""
    close, memo = algebra._close, {}

    def memoized(A, C, closed, new, cap):
        key = (frozenset(closed), frozenset(new), cap)
        if key not in memo:
            memo[key] = close(A, C, closed, new, cap)
        return memo[key]

    budget = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_close", memoized)
        while True:
            got = outcome(reflexive_relations, A, budget)
            assert got == outcome(reference_reflexive_relations, A, budget)
            if got[:1] != (BudgetExceeded,):
                return budget
            budget += 1


@pytest.mark.parametrize("A", [n5_lattice(), m3_lattice(),
                               two_by_two_lattice(), chain_lattice(3),
                               chain_lattice(4)],
                         ids=["n5", "m3", "2x2", "chain3", "chain4"])
def test_join_skipping_matches_the_reference_at_every_budget(A):
    assert assert_budget_sweep_matches_reference(A) > 0


@given(small_algebras())
@settings(max_examples=60, deadline=None)
def test_join_skipping_matches_the_reference_on_small_algebras(A):
    assert_budget_sweep_matches_reference(A)


@pytest.mark.parametrize("A, closures", [
    (n5_lattice(), 153), (two_by_two_lattice(), 79), (chain_lattice(3), 78)],
    ids=["n5", "2x2", "chain3"])
def test_full_enumerations_close_every_join(monkeypatch, A, closures):
    """Every _close call of a full enumeration, the base and principal
    relations included: each join of a relation with a principal
    relation new to it is closed, so the enumeration makes the
    reference's closures, in the same order."""
    calls = []
    close = algebra._close

    def counting(*args):
        calls.append(args)
        return close(*args)

    monkeypatch.setattr(algebra, "_close", counting)
    rels = reflexive_relations(A)
    ours = calls[:]
    calls.clear()
    assert reference_reflexive_relations(A) == rels
    assert ours == calls and len(calls) == closures


def first_hom_law_failure(A):
    """The first failing tuple of the full-scan oracle, or None when the
    law holds or the table does not build."""
    try:
        hom = oracle_maltsev_table(A).hom_law
    except (NoSolution, MultipleSolutions):
        return None
    return None if hom.ok else hom.witness["tuple"]


def mirror_fact_magmas():
    """Every commutative magma of size <= 3, the isotopes of Z_4 and of
    (Z_2)^2, and the Z_5 and Z_6 isotopes of the per-entry test."""
    for n in (1, 2, 3):
        for t in _commutative_tables(n):
            yield OpAlgebra(n, (Operation("*", 2, t),), "cmag")
    for sigma in permutations(range(4)):
        yield isotope(sigma)
        yield isotope(sigma, lambda x, y: x ^ y)
    for sigma in ((4, 1, 0, 3, 2), (1, 0, 2, 3, 4), (4, 5, 0, 2, 1, 3),
                  (0, 1, 3, 2, 4, 5), (5, 4, 3, 2, 1, 0)):
        yield isotope(sigma)


def hom_law_failures(A):
    """Every pair (t, t2) of argument triples at which the law fails."""
    n, op = A.size, binary_op(A)
    p = oracle_maltsev_table(A).p
    triples = list(product(range(n), repeat=3))
    return {(t, t2) for t, t2 in product(triples, repeat=2)
            if A.apply(op, p(n, *t), p(n, *t2)) != p(n, *(
                A.apply(op, x, y) for x, y in zip(t, t2)))}


def test_first_hom_law_failure_has_the_lesser_triple_first():
    """* being commutative, the law at (t, t2) is the law at (t2, t): the
    failing pairs come in mirror pairs, so the full scan's first failure
    (t, t2) has t <= t2."""
    seen = 0
    for A in mirror_fact_magmas():
        w = first_hom_law_failure(A)
        if w is None:
            continue
        seen += 1
        assert w[:3] <= w[3:]
        failures = hom_law_failures(A)
        assert {(t2, t) for t, t2 in failures} == failures
        assert min(failures) == (tuple(w[:3]), tuple(w[3:]))
    assert seen > 2


def assert_hom_law_is_mediality(A):
    """Where the table builds, the oracle's scan of all n^6 pairs of
    argument triples holds iff * is medial, and maltsev_table reports
    the same: a failing report names the scan's first failure, the one
    first_hom_law_failure gives.  The verdict, or None where the table
    does not build."""
    try:
        want = oracle_maltsev_table(A).hom_law
    except (NoSolution, MultipleSolutions):
        return None
    assert want.ok == (algebra._is_medial(A, binary_op(A)) is None)
    assert maltsev_table(A).hom_law == want
    return want.ok


def test_hom_law_is_mediality_on_every_commutative_table_up_to_3():
    verdicts = [assert_hom_law_is_mediality(OpAlgebra(n, (
        Operation("*", 2, t),), "cmag"))
        for n in (0, 1, 2, 3) for t in _commutative_tables(n)]
    # every table that builds holds the law: 1, 1, 2 and 6 at n = 0 .. 3
    assert verdicts.count(True) == 10 and False not in verdicts


@st.composite
def commutative_latin_squares(draw, max_size=7):
    """A symmetric Latin square on at most max_size elements, its cells
    (x, y), x <= y, filled row by row by a search that tries the values
    in a drawn order and backtracks."""
    n = draw(st.integers(1, max_size))
    rng = draw(st.randoms(use_true_random=False))
    cells = [(x, y) for x in range(n) for y in range(x, n)]
    orders = [rng.sample(range(n), n) for _ in cells]
    table, used = [0] * (n * n), [set() for _ in range(n)]

    def fill(k):
        if k == len(cells):
            return True
        x, y = cells[k]
        for v in orders[k]:
            if v not in used[x] and v not in used[y]:
                table[x * n + y] = table[y * n + x] = v
                used[x].add(v)
                used[y].add(v)
                if fill(k + 1):
                    return True
                used[x].discard(v)
                used[y].discard(v)
        return False

    assert fill(0)
    return OpAlgebra(n, (Operation("*", 2, tuple(table)),), "cmag")


# Medial ones at sizes where a drawn square rarely is: the affine
# isotopes x * y = 3 (x + y) + 1 of Z_7 and x * y = 5 - (x + y) of Z_6,
# and Z_5 itself; and an isotope of Z_6 that fails the law
@given(commutative_latin_squares())
@example(isotope(tuple((3 * v + 1) % 7 for v in range(7))))
@example(isotope(tuple((5 - v) % 6 for v in range(6))))
@example(isotope(tuple(range(5))))
@example(isotope((4, 5, 0, 2, 1, 3)))
@settings(max_examples=60, deadline=None)
def test_hom_law_is_mediality_on_commutative_latin_squares(A):
    assert assert_hom_law_is_mediality(A) is not None


def test_group_validation_finds_the_unit_once(monkeypatch):
    """A group's validation finds its unit once for the unit and inverse
    axioms; its unary-monoid view once more, to check the constant."""
    calls = []
    unit_of = algebra._unit_of

    def counting(A, op):
        calls.append(A.size)
        return unit_of(A, op)

    monkeypatch.setattr(algebra, "_unit_of", counting)
    for G in (cyclic_group(4), klein_four()):
        calls.clear()
        G = replace(G)
        assert calls == [4]
        M = unary_monoid_from_group(G)
        assert calls == [4, 4, 4]
        assert M.ops[1].table == (0,)


@given(commutative_magmas(), st.tuples(*[st.integers(0, 3)] * 3))
@settings(max_examples=150, deadline=None)
def test_maltsev_solve_matches_apply_scan(A, triple):
    a, b, c = (v % A.size for v in triple)
    assert outcome(maltsev_solve, A, a, b, c) == \
        outcome(oracle_maltsev_solve, A, a, b, c)


def test_maltsev_solve_rejects_arguments_outside_the_carrier():
    z3 = cyclic_magma(3)
    for triple in [(0, 3, 0), (-1, 0, 0), (0, 0, -3)]:
        with pytest.raises(IllTyped):
            maltsev_solve(z3, *triple)
    with pytest.raises(IllTyped, match="commutative"):
        maltsev_solve(left_projection_magma(), 0, 5, 0)


def test_ternary_closure_holds_only_index_prefixes():
    # the closure of x - y + z on Z_8 from {(0, 1)} is all 64 pairs; a
    # round must not hold its |delta| * |current|^2 images at once
    n = 8
    A = OpAlgebra(n, (Operation("p", 3, tuple(
        (x - y + z) % n for x, y, z in product(range(n), repeat=3))),))
    tracemalloc.start()
    try:
        pairs = relation_closure(A, [(0, 1)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pairs) == n * n
    assert peak < 2_000_000


@given(st.tuples(st.integers(1, 3), st.integers(1, 3),
                 signatures()).flatmap(
    lambda t: st.tuples(algebras(t[0], t[2]), algebras(t[1], t[2]),
                        st.lists(st.integers(0, t[1] - 1), min_size=t[0],
                                 max_size=t[0]))))
@settings(max_examples=200, deadline=None)
def test_homomorphism_witness_matches_apply_scan(case):
    src, dst, h = case
    assert homomorphism_witness(src, dst, tuple(h)) == \
        oracle_homomorphism_witness(src, dst, tuple(h))
    for k in range(src.size):   # constant maps are often homomorphisms
        assert homomorphism_witness(src, src, (k,) * src.size) == \
            oracle_homomorphism_witness(src, src, (k,) * src.size)


@st.composite
def projection_kites(draw):
    """The search's kites: relation algebras on a random D with
    projection legs and diagonal sections."""
    D = draw(small_algebras())
    rels = reflexive_relations(D)
    rel_a, rel_c = draw(st.sampled_from(rels)), draw(st.sampled_from(rels))
    side_a, side_c = relation_side(D, rel_a), relation_side(D, rel_c)
    assert side_a[0] == oracle_product_subalgebra(D, D, sorted(rel_a.pairs))
    legs = draw(st.tuples(*[st.integers(0, 1)] * 4))
    kite = projection_kite(D, side_a, side_c, *legs)
    assert kite is not None
    return kite


@given(projection_kites())
@settings(max_examples=100, deadline=None)
def test_projection_kite_legs_pass_the_apply_scan(kite):
    """The witness search's candidates are kites by construction; the
    strategy asserts that VarietyKite accepts each one drawn."""
    A, B, C, D = kite.A, kite.B, kite.C, kite.D
    for h, src, dst in zip((kite.f, kite.r, kite.s, kite.g, kite.alpha,
                            kite.beta, kite.gamma), (A, B, B, C, A, B, C),
                           (B, A, C, B, D, D, D)):
        assert oracle_homomorphism_witness(src, dst, h) is None


def pointed_kite(D, d0):
    """A = C = D, B the one-point algebra, r = s = the idempotent point d0
    and alpha = gamma = 1: the maps phi on D x D with phi(x, d0) = x =
    phi(d0, x), for operations that need not commute."""
    B = OpAlgebra(1, tuple(Operation(op.symbol, op.arity, (0,))
                           for op in D.ops))
    ident, bang = tuple(range(D.size)), (0,) * D.size
    return VarietyKite(D, B, D, D, bang, (d0,), (d0,), bang, ident, (d0,),
                       ident)


@st.composite
def pointed_kites(draw):
    D = draw(small_algebras())
    d0 = draw(st.integers(0, D.size - 1))
    ops = []
    for op in D.ops:
        table = list(op.table)
        table[sum(d0 * D.size ** j for j in range(op.arity))] = d0
        ops.append(Operation(op.symbol, op.arity, tuple(table)))
    return pointed_kite(OpAlgebra(D.size, tuple(ops)), d0)


# x * y = x for x != 0, and 0 * y = (0, 0, 1)[y]: phi(1, 2) is pinned only
# through the tuples where (1, 2) is the right argument, so a search that
# re-checked left arguments alone would count 2 solutions here, not 1
RIGHT_PINNED = pointed_kite(OpAlgebra(3, (Operation(
    "*", 2, (0, 0, 1, 1, 1, 1, 2, 2, 2)),)), 0)


def renamed(A, symbols):
    """A with its operations renamed, in order, to the given symbols."""
    return OpAlgebra(A.size, tuple(Operation(sym, op.arity, op.table)
                                   for sym, op in zip(symbols, A.ops)),
                     A.variety)


def star_kite():
    """The witness kite of the meet semilattice on 2 with the identity as
    a unary operation "u", with every operation renamed "*": pairing D's
    operations with E's by symbol read the binary table for the unary one
    and counted 0 admissibility morphisms here."""
    kite = wm_witness_search(OpAlgebra(2, (Operation("*", 2, (0, 0, 0, 1)),
                                           Operation("u", 1, (0, 1))),
                                       "cmag"))
    return replace(kite, **{X: renamed(getattr(kite, X), "**")
                            for X in "ABCD"})


@given(st.one_of(projection_kites(), pointed_kites()))
@example(RIGHT_PINNED)
@settings(max_examples=200, deadline=None)
def test_admissibility_count_variety_matches_brute_force(kite):
    E, labels = checked_pullback(kite)
    # e1 is injective, so the brute force tries |D| ** (|E| - |A|) maps;
    # E is checked against the oracle on every kite, before this filter
    assume(kite.D.size ** (E.size - kite.A.size) <= 4096)
    assert_count_matches_brute_force(kite, E, labels)


def test_admissibility_count_pairs_operations_by_position():
    kite = star_kite()
    assert admissibility_count_variety(kite).count == 2
    assert_count_matches_brute_force(kite, *checked_pullback(kite))


def checked_pullback(kite):
    E, labels = pullback_subalgebra(kite)
    assert E == oracle_product_subalgebra(kite.A, kite.C, labels)
    return E, labels


def assert_count_matches_brute_force(kite, E, labels):
    D = kite.D
    index = {lab: i for i, lab in enumerate(labels)}
    e1 = [index[(a, kite.s[kite.f[a]])] for a in range(kite.A.size)]
    e2 = [index[(kite.r[kite.g[c]], c)] for c in range(kite.C.size)]
    # every map E -> D, except that points of the cross take only the
    # value that alpha (on e1) gives them
    cross = dict(zip(e1, kite.alpha))
    choices = [[cross[i]] if i in cross else range(D.size)
               for i in range(E.size)]
    want = [phi for phi in product(*choices)
            if [phi[i] for i in e1] == list(kite.alpha)
            and [phi[i] for i in e2] == list(kite.gamma)
            and oracle_homomorphism_witness(E, D, phi) is None]
    res = admissibility_count_variety(kite, cap=1)
    assert res.count == len(want) and list(res.solutions) == want[:2]
    res = admissibility_count_variety(kite, cap=len(want))
    assert res.count == len(want) and list(res.solutions) == want


def test_admissibility_search_leaves_no_reference_cycles():
    """Each call's tables are freed at return, not at the next
    collection."""
    kite = wm_witness_search(meet_semilattice2())
    gc.collect()
    gc.disable()
    try:
        assert admissibility_count_variety(kite).count >= 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_wm_witness_search_builds_each_relation_algebra_once(monkeypatch):
    built = []
    build = algebra._relation_side

    def counting(D, pairs):
        built.append(tuple(pairs))
        return build(D, pairs)

    monkeypatch.setattr(algebra, "_relation_side", counting)
    D = chain_lattice(3)
    assert wm_witness_search(D) is None
    assert sorted(built) == sorted(r.pairs for r in reflexive_relations(D))


def test_relation_over_the_closure_cap_leaves_as_relations():
    """On Z_23 the closure of the diagonal plus (0, 1) has 529 pairs, past
    SUBALGEBRA_CAP: the partial holds the relations found before it."""
    A = cyclic_magma(23)
    with pytest.raises(BudgetExceeded, match="element cap") as info:
        reflexive_relations(A)
    assert info.value.partial == (BinaryRelation(A, relation_closure(A, ())),)
    assert wm_witness_search(A) is None


def oracle_relation_properties(R):
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
    return algebra.RelationProperties(symmetric, transitive, difunctional)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.tuples(st.integers(0, n - 1),
                                  st.integers(0, n - 1))))))
@settings(max_examples=200)
def test_relation_properties_match_pair_scans(case):
    n, pairs = case
    R = BinaryRelation(OpAlgebra(n, ()), tuple(pairs))
    assert relation_properties(R) == oracle_relation_properties(R)


def reference_wm_witness_search(D, budget=2000):
    """The search without frames, mirror pruning or skipped frames: every
    kite of the projection family is built, validated and counted on its
    own, and each one is examined against the budget."""
    complete = True
    try:
        rels = reflexive_relations(D, budget=budget)
    except BudgetExceeded as exc:
        rels = exc.partial or ()
        complete = False
    family, examined = 16 * len(rels) ** 2, 0
    for ia in range(len(rels)):
        for ic in range(len(rels)):
            side_a = relation_side(D, rels[ia])
            side_c = relation_side(D, rels[ic])
            for fa, gc, aa, gg in product((0, 1), repeat=4):
                examined += 1
                if examined > budget:
                    return algebra._WitnessSearch(None, budget, family, False)
                kite = projection_kite(D, side_a, side_c, fa, gc, aa, gg)
                if kite is not None and \
                   admissibility_count_variety(kite, cap=2).count >= 2:
                    return algebra._WitnessSearch(kite, examined, family,
                                                  complete)
    return algebra._WitnessSearch(None, examined, family, complete)


SEARCHED = [m3_lattice(), n5_lattice(), meet_semilattice2()] + \
    [chain_lattice(n) for n in (1, 2, 3, 4)]


@given(st.one_of(st.sampled_from(SEARCHED), small_algebras()),
       st.integers(0, 64))
@example(m3_lattice(), 64)
@example(meet_semilattice2(), 64)
@example(meet_semilattice2(), 81)
@example(n5_lattice(), 0)
@settings(max_examples=100)
def test_wm_witness_search_matches_the_per_kite_search(D, budget):
    """The kite found, examined, of and complete, budgets from 0."""
    want = reference_wm_witness_search(D, budget)
    assert algebra._witness_search(D, budget) == want
    assert wm_witness_search(D, budget) == want.kite


JOIN2 = OpAlgebra(2, (Operation("*", 2, (0, 1, 1, 1)),), "cmag")


@pytest.mark.parametrize("D, budget, want", [
    (n5_lattice(), 50, (False, 50, 3600, False)),
    (cyclic_magma(3), 100, (False, 64, 64, True)),
    (chain_lattice(3), 50, (False, 50, 7744, False)),
    (cyclic_group(3), 50, (False, 50, 64, False)),
    (m3_lattice(), 20, (False, 20, 256, False)),
    (meet_semilattice2(), 100, (True, 81, 256, True)),
    (JOIN2, 100, (True, 96, 256, True)),
    (m3_lattice(), 2000, (False, 256, 256, True)),
    (n5_lattice(), 20000, (False, 10000, 10000, True))],
    ids=["n5/50", "cmag3/100", "chain3/50", "group3/50", "m3/20",
         "meet2/100", "join2/100", "m3/2000", "n5/20000"])
def test_witness_search_results_at_the_bench_budgets(D, budget, want):
    search = algebra._witness_search(D, budget)
    assert (search.kite is not None, search.examined, search.of,
            search.complete) == want


def leg_pair_frames(D, budget):
    """The leg pairs (ia, ic, fa, gc) of D's projection family whose kites
    lie within the first `budget`, in the search's order: for each, the
    legs-based _cross_generates, the frame built here, and the
    projections of its A and C."""
    try:
        rels = reflexive_relations(D, budget=budget)
    except BudgetExceeded as exc:
        rels = exc.partial or ()
    sides = [relation_side(D, rel) for rel in rels]
    leg_pairs = product(sides, sides, (0, 1), (0, 1))
    out = []
    for (A, diag_a, proj_a), (C, diag_c, proj_c), fa, gc in \
            islice(leg_pairs, -(-budget // 4)):
        legs = (proj_a[fa], diag_a, proj_c[gc], diag_c)
        out.append((algebra._cross_generates(A, C, *legs),
                    algebra._admissibility_frame(A, C, D, *legs),
                    proj_a, proj_c))
    return out


def naive_generated(frame):
    """The elements of E that the cross generates, by rounds over every
    argument tuple, constants included."""
    have = set(frame.e1) | set(frame.e2)
    while True:
        new = {t_e[i] for t_e, _, args, _ in frame.laws
               for i, xs in enumerate(args) if set(xs) <= have}
        if new <= have:
            return have
        have |= new


def assert_generated_frames_have_one_morphism(D, budget=1000):
    """On every leg pair of the family over D within the budget,
    _cross_generates agrees with the naive closure of the frame's cross,
    and when it holds, no projection alpha and gamma leave room for two
    admissibility morphisms.  Returns, per leg pair, whether it holds."""
    generated = []
    for gen, frame, proj_a, proj_c in leg_pair_frames(D, budget):
        assert gen == (len(naive_generated(frame)) == len(frame.labels))
        if gen:
            for aa, gg in product((0, 1), (0, 1)):
                assert algebra._pinned_count(frame, proj_a[aa], proj_c[gg],
                                             2).count <= 1
        generated.append(gen)
    return generated


def test_generated_frames_have_one_morphism_on_the_gallery():
    for D in LAW_GALLERY + [JOIN2, two_element_set_algebra()]:
        generated = assert_generated_frames_have_one_morphism(D)
        assert generated
        if D == meet_semilattice2():
            # of the leg pairs the search reaches, only the last, which
            # holds the witness, is not generated
            reached = generated[:-(-algebra._witness_search(D, 1000).examined
                                   // 4)]
            assert reached == [True] * (len(reached) - 1) + [False]


@given(small_algebras())
@settings(max_examples=50)
def test_generated_frames_have_one_morphism_on_small_algebras(D):
    assert_generated_frames_have_one_morphism(D, 256)


@pytest.mark.parametrize("D, budget, frames", [
    (n5_lattice(), 50, 0), (cyclic_magma(3), 100, 0),
    (chain_lattice(3), 50, 0), (cyclic_group(3), 50, 0),
    (m3_lattice(), 20, 0), (meet_semilattice2(), 100, 1), (JOIN2, 100, 1)],
    ids=["n5/50", "cmag3/100", "chain3/50", "group3/50", "m3/20",
         "meet2/100", "join2/100"])
def test_witness_search_builds_frames_only_where_the_cross_falls_short(
        monkeypatch, D, budget, frames):
    """Generation is decided from the legs: on the bench searches a frame
    is built only for the leg pair that holds the witness."""
    built = []
    build = algebra._admissibility_frame

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(algebra, "_admissibility_frame", counting)
    algebra._witness_search(D, budget)
    assert len(built) == frames


@given(commutative_magmas(max_size=3), st.data())
@settings(max_examples=100)
def test_mirror_kites_agree_on_validity_and_count(D, data):
    rels = reflexive_relations(D)
    ia, ic = (data.draw(st.integers(0, len(rels) - 1)) for _ in range(2))
    fa, gc, aa, gg = data.draw(st.tuples(*[st.integers(0, 1)] * 4))
    side_a, side_c = relation_side(D, rels[ia]), relation_side(D, rels[ic])
    kite = projection_kite(D, side_a, side_c, fa, gc, aa, gg)
    mirror = projection_kite(D, side_c, side_a, gc, fa, gg, aa)
    assert (kite is None) == (mirror is None)
    if kite is not None:
        assert admissibility_count_variety(kite).count == \
            admissibility_count_variety(mirror).count


LEGS = ("f", "r", "s", "g", "alpha", "beta", "gamma")


@given(commutative_magmas(max_size=3), st.data())
@settings(max_examples=150)
def test_first_broken_leg_is_named(D, data):
    """A projection kite with some legs replaced by arbitrary maps, and
    possibly alpha = f and s = r as maps, names the first leg in LEGS
    order that the apply-based oracle rejects."""
    rels = reflexive_relations(D)
    side_a = relation_side(D, data.draw(st.sampled_from(rels)))
    side_c = side_a if data.draw(st.booleans()) else \
        relation_side(D, data.draw(st.sampled_from(rels)))
    (A, diag_a, proj_a), (C, diag_c, proj_c) = side_a, side_c
    fa, gc, aa, gg = data.draw(st.tuples(*[st.integers(0, 1)] * 4))
    legs = {"f": (proj_a[fa], A, D), "r": (diag_a, D, A),
            "s": (diag_c, D, C), "g": (proj_c[gc], C, D),
            "alpha": (proj_a[aa], A, D), "beta": (tuple(range(D.size)), D, D),
            "gamma": (proj_c[gg], C, D)}
    for name in sorted(data.draw(st.sets(st.sampled_from(LEGS)))):
        _, src, dst = legs[name]
        legs[name] = (tuple(data.draw(st.lists(
            st.integers(0, dst.size - 1), min_size=src.size,
            max_size=src.size))), src, dst)
    if data.draw(st.booleans()):
        legs["alpha"] = legs["f"]
    r = legs["r"][0]
    if max(r, default=-1) < C.size and data.draw(st.booleans()):
        legs["s"] = (r, D, C)       # the same map, into C
    want = next((f"{name} is not a homomorphism: {w}" for name in LEGS
                 for w in [oracle_homomorphism_witness(
                     legs[name][1], legs[name][2], legs[name][0])]
                 if w is not None), None)
    try:
        VarietyKite(A, D, C, D, *(legs[name][0] for name in LEGS))
        got = None
    except NotAHomomorphism as exc:
        got = str(exc)
    except IllTyped:
        got = None
    assert got == want


def test_a_map_checked_on_one_algebra_is_checked_again_on_another():
    # r and s are one map D -> A and D -> C: a homomorphism onto the
    # diagonal A, but not into the total relation C
    D = OpAlgebra(2, (Operation("*", 2, (1, 0, 0, 0)),), "cmag")
    rels = reflexive_relations(D)
    (A, diag_a, proj_a), (C, _, proj_c) = (relation_side(D, rels[0]),
                                           relation_side(D, rels[-1]))
    with pytest.raises(NotAHomomorphism, match="^s is not"):
        VarietyKite(A, D, C, D, proj_a[0], diag_a, diag_a, proj_c[0],
                    proj_a[0], (0, 1), proj_c[0])
    # f and g are one map A -> D and C -> D, a homomorphism only from A
    D = OpAlgebra(3, (Operation("*", 2, (0, 0, 0, 0, 1, 1, 0, 1, 2)),),
                  "cmag")
    rels = reflexive_relations(D)
    (A, diag_a, proj_a), (C, diag_c, proj_c) = (relation_side(D, rels[5]),
                                                relation_side(D, rels[6]))
    with pytest.raises(NotAHomomorphism, match="^g is not"):
        VarietyKite(A, D, C, D, proj_a[1], diag_a, diag_c, proj_a[1],
                    proj_a[1], (0, 1, 2), proj_c[1])


def test_witness_search_tells_exhausted_from_budget_out():
    meet = algebra._witness_search(meet_semilattice2(), 2000)
    assert meet.kite == reference_wm_witness_search(meet_semilattice2()).kite
    chain = algebra._witness_search(chain_lattice(2), 2000)
    assert (chain.kite, chain.examined, chain.of, chain.complete) == \
        (None, 256, 256, True)
    cut = algebra._witness_search(chain_lattice(2), 100)
    assert (cut.kite, cut.examined, cut.of, cut.complete) == \
        (None, 100, 256, False)
    # the closure cap cuts Z_23's relations short at the diagonal: all 16
    # kites over it are examined, but the family is not complete
    z23 = algebra._witness_search(cyclic_magma(23), 2000)
    assert (z23.kite, z23.examined, z23.of, z23.complete) == \
        (None, 16, 16, False)


@pytest.mark.parametrize("D, budget, calls", [
    (meet_semilattice2(), 100, 7), (chain_lattice(3), 50, 0),
    (n5_lattice(), 50, 0)], ids=["meet2/100", "chain3/50", "n5/50"])
def test_witness_search_validates_only_the_kite_it_returns(monkeypatch, D,
                                                           budget, calls):
    """The candidates are kites by construction, so homomorphism_witness
    runs only when VarietyKite validates the kite returned: its seven
    legs on meet2, none where the family is cut off by the budget."""
    seen = []
    check = algebra.homomorphism_witness

    def counting(src, dst, h):
        seen.append(h)
        return check(src, dst, h)

    monkeypatch.setattr(algebra, "homomorphism_witness", counting)
    search = algebra._witness_search(D, budget)
    assert (search.kite is not None, len(seen)) == (calls > 0, calls)


def tiny_algebras():
    """Carriers of size 0 and 1, with a nullary and a ternary operation
    (size 0 has no nullary operation: its one entry has no value)."""
    yield OpAlgebra(0, (Operation("t", 3, ()),))
    yield OpAlgebra(0, ())
    yield OpAlgebra(1, (Operation("c", 0, (0,)), Operation("t", 3, (0,))))
    yield OpAlgebra(1, (Operation("c", 0, (0,)),))
    yield OpAlgebra(1, ())


@pytest.mark.parametrize("A", list(tiny_algebras()),
                         ids=lambda A: f"size{A.size}-" + "".join(
                             f"{s}{k}" for s, k in A.signature))
def test_closure_kernel_on_empty_and_one_point_carriers(A):
    seeds = [[], [(0, 0)]] if A.size else [[]]
    for seed, cap in product(seeds, range(4)):
        assert outcome(relation_closure, A, seed, cap) == \
            outcome(naive_closure, A, seed, cap)
    for budget in range(4):
        assert outcome(reflexive_relations, A, budget) == \
            outcome(naive_reflexive_relations, A, budget)
    pairs = relation_closure(A, ())
    assert algebra._relation_side(A, pairs)[0] == \
        oracle_product_subalgebra(A, A, sorted(pairs))


def test_negative_budgets_are_ill_typed_and_zero_is_valid():
    D = meet_semilattice2()
    for call in (reflexive_relations, algebra._witness_search,
                 wm_witness_search):
        with pytest.raises(IllTyped, match="budget must be >= 0, got -1"):
            call(D, -1)
    with pytest.raises(BudgetExceeded):
        reflexive_relations(D, 0)
    search = algebra._witness_search(D, 0)
    assert (search.kite, search.examined, search.complete) == (None, 0, False)


def test_relation_closure_rejects_seed_pairs_off_the_carrier():
    # a pair is coded x * n + y, so (0, 3) on Z_3 would alias (1, 0)
    for seed in ([(0, 3)], [(-1, 0)], [(3, 0)]):
        with pytest.raises(IllTyped, match="seed pairs must lie in 0..2"):
            relation_closure(cyclic_magma(3), seed)


# --------------------------------------------------------------------------
# Law-check oracles: the apply-based definitions that the flat-table law
# checks replaced, compared with them on verdict, first witness, and
# exception type and text.

def oracle_is_commutative(A, op):
    for x in range(A.size):
        for y in range(x + 1, A.size):
            if A.apply(op, x, y) != A.apply(op, y, x):
                return (x, y)
    return None


def oracle_is_associative(A, op):
    for x in range(A.size):
        for y in range(A.size):
            for z in range(A.size):
                if A.apply(op, A.apply(op, x, y), z) != \
                   A.apply(op, x, A.apply(op, y, z)):
                    return (x, y, z)
    return None


def oracle_unit_of(A, op):
    for e in range(A.size):
        if all(A.apply(op, e, x) == x == A.apply(op, x, e)
               for x in range(A.size)):
            return e
    return None


def oracle_is_medial(A, op):
    for x, y, z, w in product(range(A.size), repeat=4):
        if A.apply(op, A.apply(op, x, y), A.apply(op, z, w)) != \
           A.apply(op, A.apply(op, x, z), A.apply(op, y, w)):
            return (x, y, z, w)
    return None


def oracle_cancellation_witness(A, op):
    for x in range(A.size):
        for y in range(x + 1, A.size):
            for b in range(A.size):
                if A.apply(op, x, b) == A.apply(op, y, b):
                    return (x, y, b)
    return None


def oracle_unary_monoid_law_witness(A):
    op = binary_op(A)
    bar = A.ops_of_arity(1)[0]
    for x in range(A.size):
        for y in range(A.size):
            by = A.apply(bar, y)
            if A.apply(op, A.apply(op, x, by), y) != \
               A.apply(op, A.apply(op, y, by), x):
                return (x, y)
    return None


def oracle_check_unary_monoid_law(A):
    if not A.ops_of_arity(1):
        raise MissingOperation("no unary operation")
    w = oracle_unary_monoid_law_witness(A)
    if w is None:
        return holds("unary-monoid-law")
    return fails("unary-monoid-law", {"pair": list(w)})


def oracle_validate_variety_axioms(A, v):
    """The axioms of variety v, checked on A whatever A's own tag."""
    if v == "custom":
        return
    if v in ("magma", "cmag", "ccm_magma"):
        if not A.ops_of_arity(2):
            raise MissingOperation(f"variety {v} needs a binary operation")
        op = binary_op(A)
        if v in ("cmag", "ccm_magma") and \
                oracle_is_commutative(A, op) is not None:
            raise IllTyped(f"variety {v}: operation is not commutative")
        if v == "ccm_magma":
            if oracle_is_medial(A, op) is not None:
                raise IllTyped("variety ccm_magma: operation is not medial")
            if oracle_cancellation_witness(A, op) is not None:
                raise IllTyped("variety ccm_magma: operation is not cancellative")
    elif v == "dimagma":
        if len(A.ops_of_arity(2)) < 2:
            raise MissingOperation("variety dimagma needs two binary operations")
        for op in A.ops_of_arity(2)[:2]:
            if oracle_is_commutative(A, op) is not None:
                raise IllTyped("variety dimagma: operations must be commutative")
    elif v == "unary_monoid":
        if not (A.ops_of_arity(2) and A.ops_of_arity(1) and A.ops_of_arity(0)):
            raise MissingOperation(
                "variety unary_monoid needs binary, unary and nullary operations")
        op = binary_op(A)
        if oracle_is_associative(A, op) is not None:
            raise IllTyped("variety unary_monoid: operation is not associative")
        e = A.apply(A.ops_of_arity(0)[0])
        if A.size and oracle_unit_of(A, op) != e:
            raise IllTyped("variety unary_monoid: constant is not a unit")
        w = oracle_unary_monoid_law_witness(A)
        if w is not None:
            raise IllTyped(f"variety unary_monoid: x bar(y) y = y bar(y) x "
                           f"fails at {w}")
    elif v == "lattice":
        meets = A.ops_of_arity(2)
        if len(meets) < 2:
            raise MissingOperation("variety lattice needs meet and join")
        meet, join = meets[0], meets[1]
        for op in (meet, join):
            if oracle_is_commutative(A, op) is not None:
                raise IllTyped("variety lattice: operation not commutative")
            if oracle_is_associative(A, op) is not None:
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
        if oracle_is_associative(A, op) is not None:
            raise IllTyped("variety group: operation is not associative")
        e = oracle_unit_of(A, op)
        if A.size and e is None:
            raise IllTyped("variety group: no unit element")
        for x in range(A.size):
            if not any(A.apply(op, x, y) == e == A.apply(op, y, x)
                       for y in range(A.size)):
                raise IllTyped(f"variety group: element {x} has no inverse")


def oracle_check_distributive(A):
    ops = A.ops_of_arity(2)
    if len(ops) < 2:
        raise MissingOperation("distributivity needs two binary operations")
    meet, join = ops[0], ops[1]
    for x, y, z in product(range(A.size), repeat=3):
        if A.apply(meet, x, A.apply(join, y, z)) != \
           A.apply(join, A.apply(meet, x, y), A.apply(meet, x, z)):
            return fails("distributive", {"triple": [x, y, z]})
    return holds("distributive")


def oracle_check_joint_cancellative(A):
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


def oracle_unique_solution_criterion(A):
    op = binary_op(A)
    bar = A.ops_of_arity(1)
    if not bar:
        if A.variety != "group":
            raise MissingOperation("no unary operation")
        if not A.size:          # the empty group: nothing to solve
            return holds("unique-solution")
        bar_table = oracle_group_inverse_table(A)
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


def oracle_group_inverse_table(A):
    op = binary_op(A)
    e = oracle_unit_of(A, op)
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


def oracle_equivalence_2_3_check(A):
    op = binary_op(A)
    if oracle_is_commutative(A, op) is not None:
        raise IllTyped("equivalence check needs a commutative operation")
    cond2 = oracle_cancellation_witness(A, op) is None
    cond3 = True
    for a, b, c in product(range(A.size), repeat=3):
        target = A.apply(op, a, c)
        if len([x for x in range(A.size)
                if A.apply(op, x, b) == target]) > 1:
            cond3 = False
            break
    details = (f"cancellation: {cond2}", f"at most one solution: {cond3}")
    if cond2 == cond3:
        return holds("equiv23", details)
    return fails("equiv23", {"cond2": cond2, "cond3": cond3}, details)


def law_outcome(fn, *args):
    """The value, or the exception's type and text, whatever it is."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def as_group(A):
    """A with the tag "group" but none of its axioms checked, so that the
    group-only branches also run on algebras that are not groups."""
    B = OpAlgebra(A.size, A.ops)
    object.__setattr__(B, "variety", "group")
    return B


PER_OPERATION = [
    (algebra._is_commutative, oracle_is_commutative),
    (algebra._is_associative, oracle_is_associative),
    (algebra._unit_of, oracle_unit_of),
    (algebra._is_medial, oracle_is_medial),
    (algebra._cancellation_witness, oracle_cancellation_witness),
]
PER_ALGEBRA = [
    (check_distributive, oracle_check_distributive),
    (check_joint_cancellative, oracle_check_joint_cancellative),
    (check_unary_monoid_law, oracle_check_unary_monoid_law),
    (algebra._unique_solution_criterion, oracle_unique_solution_criterion),
    (algebra._group_inverse_table, oracle_group_inverse_table),
    (equivalence_2_3_check, oracle_equivalence_2_3_check),
]


def assert_laws_match_oracles(A):
    for op in A.ops_of_arity(2):
        for fast, slow in PER_OPERATION:
            assert law_outcome(fast, A, op) == law_outcome(slow, A, op), \
                fast.__name__
    for B in (A, as_group(A)):
        for fast, slow in PER_ALGEBRA:
            assert law_outcome(fast, B) == law_outcome(slow, B), \
                fast.__name__
    for v in algebra.VARIETIES:
        assert law_outcome(OpAlgebra, A.size, A.ops, v) == law_outcome(
            lambda: oracle_validate_variety_axioms(A, v) or
            OpAlgebra(A.size, A.ops, v)), v


@st.composite
def law_algebras(draw):
    """Carriers of size 0 to 3 with up to two operations of arity <= 2
    (size 0 has no nullary operation)."""
    n = draw(st.integers(0, 3))
    arities = draw(st.lists(st.integers(0 if n else 1, 2), max_size=2))
    return OpAlgebra(n, tuple(
        Operation(f"o{i}", k, tuple(draw(st.lists(
            st.integers(0, max(n - 1, 0)), min_size=n ** k,
            max_size=n ** k))))
        for i, k in enumerate(arities)))


def perturbed(A, data):
    """A with at most one table entry changed, tagged "custom"."""
    ops = list(A.ops)
    if ops and A.size and data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(ops) - 1))
        table = list(ops[i].table)
        j = data.draw(st.integers(0, len(table) - 1))
        table[j] = data.draw(st.integers(0, A.size - 1))
        ops[i] = Operation(ops[i].symbol, ops[i].arity, tuple(table))
    return OpAlgebra(A.size, tuple(ops))


LAW_GALLERY = [cyclic_magma(3), cyclic_group(3), cyclic_group(4), klein_four(),
               meet_semilattice2(), chain_lattice(3), two_by_two_lattice(),
               m3_lattice(), n5_lattice(), m3_dimagma(),
               unary_monoid_from_group(cyclic_group(4)),
               unary_monoid_from_group(klein_four())]


@pytest.mark.parametrize("D", LAW_GALLERY,
                         ids=lambda D: f"{D.variety}{D.size}")
def test_projection_family_is_kites_on_the_gallery(D):
    """Every candidate of the witness search is a kite by construction.
    Each relation's diagonal and projections, and the identity of D, pass
    the apply-based scan; every candidate has f r = 1 = g s and
    alpha r = beta = gamma s; and VarietyKite accepts every candidate
    where the family has at most 1,000 kites."""
    sides = [relation_side(D, R) for R in reflexive_relations(D)]
    ident = tuple(range(D.size))
    assert oracle_homomorphism_witness(D, D, ident) is None
    for A, diag, proj in sides:
        assert oracle_homomorphism_witness(D, A, diag) is None
        for h in proj:
            assert oracle_homomorphism_witness(A, D, h) is None
    for side_a, side_c in product(sides, repeat=2):
        (_, r, proj_a), (_, s, proj_c) = side_a, side_c
        for fa, gc, aa, gg in product((0, 1), repeat=4):
            f, g, alpha, gamma = proj_a[fa], proj_c[gc], proj_a[aa], proj_c[gg]
            assert [f[x] for x in r] == [g[x] for x in s] == list(ident)
            assert [alpha[x] for x in r] == [gamma[x] for x in s] == list(ident)
            if 16 * len(sides) ** 2 <= 1000:
                assert projection_kite(D, side_a, side_c, fa, gc, aa, gg) \
                    is not None


@pytest.mark.parametrize("n, built", [(0, 1), (1, 1), (2, 2), (3, 6)])
def test_maltsev_table_unit_laws_hold_wherever_it_builds(n, built):
    """maltsev_table reports the unit laws as holding without a scan.  On
    every commutative table with n <= 3 elements, and every table with
    n <= 2, wherever the table builds, they hold on its table and in the
    apply-based oracle's scan, and the whole result matches the oracle's."""
    tables = product(range(n), repeat=n * n) if n <= 2 else \
        _commutative_tables(n)
    count = 0
    for t in tables:
        A = OpAlgebra(n, (Operation("*", 2, t),), "magma")
        try:
            mt = maltsev_table(A)
        except (IllTyped, NoSolution, MultipleSolutions):
            continue
        count += 1
        assert all(mt.p(n, a, b, b) == a == mt.p(n, b, b, a)
                   for a, b in product(range(n), repeat=2))
        want = oracle_maltsev_table(A)
        assert want.unit_laws.ok and mt == want
    assert count == built


@given(law_algebras())
@settings(max_examples=300)
def test_law_checks_match_apply_oracles_on_random_algebras(A):
    assert_laws_match_oracles(A)


@given(commutative_magmas())
@settings(max_examples=200)
def test_law_checks_match_apply_oracles_on_commutative_magmas(A):
    assert_laws_match_oracles(A)


@given(st.sampled_from(LAW_GALLERY), st.data())
@settings(max_examples=150)
def test_law_checks_match_apply_oracles_near_the_gallery(A, data):
    assert_laws_match_oracles(perturbed(A, data))


@given(st.one_of(small_algebras(), commutative_magmas()))
@settings(max_examples=150)
def test_reading_commutativity_keeps_the_operation_a_value(A):
    """`commutative` is right, and reading it changes none of what makes
    an Operation a value: equality, hashing, repr, replace, the schema
    round trip and immutability."""
    for op in A.ops:
        twin = Operation(op.symbol, op.arity, op.table)
        before = (hash(op), repr(op), dump_algebra(A))
        assert op.commutative == (
            op.arity == 2 and oracle_is_commutative(A, op) is None)
        assert op == twin and twin == op
        assert (hash(op), repr(op), dump_algebra(A)) == before
        assert hash(op) == hash(twin) == hash((op.symbol, op.arity, op.table))
        assert repr(op) == repr(twin) == f"Operation(symbol={op.symbol!r}, " \
            f"arity={op.arity!r}, table={op.table!r})"
        assert replace(op) == op and replace(op, symbol="g") == \
            Operation("g", op.arity, op.table)
        assert load_algebra(dump_algebra(A)) == A
        for name, value in (("commutative", False), ("table", ())):
            with pytest.raises(FrozenInstanceError):
                setattr(op, name, value)
        assert op == twin and op.commutative == twin.commutative


def ops2(*tables):
    return tuple(Operation(f"o{i}", 2, t) for i, t in enumerate(tables))


UNIT_MONOID = (Operation("*", 2, (0, 1, 1, 0)), Operation("1", 0, (1,)),
               Operation("bar", 1, (0, 1)))
LAW_FAILING_MONOID = (Operation("*", 2, (0, 0, 0, 0, 1, 2, 2, 2, 2)),
                      Operation("1", 0, (1,)), Operation("bar", 1, (0, 0, 0)))

BINARY = ops2((0, 0, 0, 1))
VARIETY_BRANCHES = [
    (IllTyped, 2, ops2((0, 0, 1, 1)), "cmag",
     "variety cmag: operation is not commutative"),
    (IllTyped, 2, ops2((0, 0, 0, 1), (0, 0, 1, 1)), "dimagma",
     "variety dimagma: operations must be commutative"),
    (IllTyped, 2, ops2((1, 0, 0, 0)), "group",
     "variety group: operation is not associative"),
    (IllTyped, 2, ops2((0, 0, 0, 0)), "group",
     "variety group: no unit element"),
    (IllTyped, 2, ops2((0, 0, 0, 1)), "group",
     "variety group: element 0 has no inverse"),
    (IllTyped, 2, ops2((0, 0, 0, 1), (0, 0, 0, 1)), "lattice",
     "variety lattice: absorption fails"),
    (IllTyped, 2, ops2((0, 0, 0, 1), (1, 0, 0, 0)), "lattice",
     "variety lattice: operation not associative"),
    (IllTyped, 3, ops2((0, 0, 0, 0, 0, 2, 0, 2, 1)), "ccm_magma",
     "variety ccm_magma: operation is not medial"),
    (IllTyped, 2, ops2((0, 0, 0, 1)), "ccm_magma",
     "variety ccm_magma: operation is not cancellative"),
    (IllTyped, 3, LAW_FAILING_MONOID, "unary_monoid",
     "variety unary_monoid: x bar(y) y = y bar(y) x fails at (0, 2)"),
    (IllTyped, 2, UNIT_MONOID, "unary_monoid",
     "variety unary_monoid: constant is not a unit"),
    (IllTyped, 2, (Operation("*", 2, (1, 0, 0, 0)),) + UNIT_MONOID[1:],
     "unary_monoid", "variety unary_monoid: operation is not associative"),
    (MissingOperation, 2, UNIT_MONOID[1:], "magma",
     "variety magma needs a binary operation"),
    (MissingOperation, 2, (), "cmag", "variety cmag needs a binary operation"),
    (MissingOperation, 2, UNIT_MONOID[1:], "ccm_magma",
     "variety ccm_magma needs a binary operation"),
    (MissingOperation, 2, UNIT_MONOID[1:], "group",
     "variety group needs a binary operation"),
    (MissingOperation, 2, BINARY, "dimagma",
     "variety dimagma needs two binary operations"),
    (MissingOperation, 2, BINARY, "lattice",
     "variety lattice needs meet and join"),
    (MissingOperation, 2, UNIT_MONOID[:2] + BINARY, "unary_monoid",
     "variety unary_monoid needs binary, unary and nullary operations"),
]


@pytest.mark.parametrize("error, n, ops, variety, message", VARIETY_BRANCHES,
                         ids=[m for *_, m in VARIETY_BRANCHES])
def test_each_variety_axiom_branch_names_its_law(error, n, ops, variety,
                                                 message):
    with pytest.raises(error) as exc:
        OpAlgebra(n, ops, variety)
    assert str(exc.value) == message
    with pytest.raises(error, match=message.replace("(", r"\(")
                       .replace(")", r"\)")):
        oracle_validate_variety_axioms(OpAlgebra(n, ops), variety)


UNIQUE_SOLUTION = "unique solution of x bar(b) b = a bar(b) c"
# (tag, an algebra of that variety, its criterion or its
# UnsupportedVariety text), in the order of algebra.VARIETIES
VARIETY_CRITERIA = [
    ("magma", left_projection_magma(),
     "no classification criterion for 'magma'"),
    ("cmag", cyclic_magma(3), "cancellation"),
    ("dimagma", m3_dimagma(), "joint cancellation"),
    ("unary_monoid", unary_monoid_from_group(cyclic_group(3)),
     UNIQUE_SOLUTION),
    ("lattice", chain_lattice(2),
     "distributivity (cross-checked by joint cancellation)"),
    ("ccm_magma", OpAlgebra(3, cyclic_magma(3).ops, "ccm_magma"),
     "cancellation"),
    ("group", cyclic_group(3), UNIQUE_SOLUTION),
    ("custom", two_element_set_algebra(),
     "no classification criterion for 'custom'"),
]


@pytest.mark.parametrize("variety, A, expected", VARIETY_CRITERIA,
                         ids=[v for v, *_ in VARIETY_CRITERIA])
def test_each_variety_classifies_by_its_criterion(variety, A, expected):
    assert [v for v, *_ in VARIETY_CRITERIA] == list(algebra.VARIETIES)
    assert A.variety == variety
    if expected.startswith("no classification criterion"):
        with pytest.raises(UnsupportedVariety) as exc:
            classify_wm_object(A)
        assert str(exc.value) == expected
        return
    cls = classify_wm_object(A)
    assert cls.criterion == expected
    assert cls.report.details[-1] == f"criterion: {expected}"


EMPTY_GROUP = OpAlgebra(0, (Operation("*", 2, ()),), "group")


def test_the_empty_group_classifies_as_it_validates():
    assert classify_wm_object(EMPTY_GROUP).report.ok
    with pytest.raises(IllTyped, match="group without unit"):
        unary_monoid_from_group(EMPTY_GROUP)


def test_no_apply_call_is_left_outside_opalgebra_apply():
    """Law checks read the flat tables; `OpAlgebra.apply` stays as the
    public per-entry reader, and nothing in the library calls it."""
    calls = []
    for path in sorted(Path(algebra.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "apply":
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_no_variety_tag_is_compared_outside_the_variety_table():
    """What a tag means is read from `VARIETY_TABLE`: no comparison in
    algebra.py puts `.variety`, or a name bound to it, against a string
    literal, save the group fallback of `_unique_solution_criterion`."""
    tree = ast.parse(Path(algebra.__file__).read_text(encoding="utf-8"))

    def is_variety(node):
        return isinstance(node, ast.Attribute) and node.attr == "variety"

    aliases = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and is_variety(node.value)
               for target in node.targets if isinstance(target, ast.Name)}

    def is_tag(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(map(is_tag, node.elts))
        return isinstance(node, ast.Constant) and isinstance(node.value, str)

    allowed = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef)
                   and node.name == "_unique_solution_criterion")
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(is_variety(x) or isinstance(x, ast.Name) and x.id in
                   aliases for x in sides) and any(map(is_tag, sides)) \
                    and not allowed.lineno <= node.lineno <= allowed.end_lineno:
                found.append(node.lineno)
    assert found == []


def test_every_private_top_level_name_is_read_by_the_library():
    """A private helper that only tests still read is dead code: each
    module-level name that starts with one underscore is read somewhere
    in the library outside the statement that defines it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(algebra.__file__).parent.glob("*.py"))}
    readers = {}                    # name -> statements that read it
    defined = []                    # (module, line, name, statement)
    for module, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add(id(stmt))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add(id(stmt))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = getattr(stmt, "targets", None) or [stmt.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, stmt.lineno, name, id(stmt)) for name in names
                        if name.startswith("_") and not name.startswith("__")]
    unread = [f"{module}:{line} {name}" for module, line, name, stmt in defined
              if not readers.get(name, set()) - {stmt}]
    assert unread == []


def test_no_module_in_the_library_has_an_unused_import():
    """Every name a finkite module imports is read somewhere in it.
    `from __future__` imports and the re-exports of `__init__` are the
    exceptions."""
    unused = []
    for path in sorted(Path(algebra.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in sorted(imported.items())
                   if name not in read]
    assert unused == []
