import ast
import gc
import tracemalloc
from itertools import product
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
from finkite.errors import (BudgetExceeded, FinkiteError, IllTyped,
                            MissingOperation, MultipleSolutions,
                            NoSolution, NotAHomomorphism, UnsupportedVariety)
from finkite.report import fails, holds
from finkite.gallery import (chain_lattice, cyclic_group, cyclic_magma,
                             klein_four, m3_dimagma, m3_lattice,
                             meet_semilattice2, n5_lattice,
                             two_by_two_lattice, two_element_set_algebra)


def left_projection_magma():
    return OpAlgebra(2, (Operation("*", 2, (0, 0, 1, 1)),), "magma")


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


def test_variety_kite_count_bounded_for_cancellative_groups():
    z3 = cyclic_magma(3)
    rels = reflexive_relations(z3)
    from finkite.algebra import _projection_kite, _relation_algebra
    for rel in rels:
        alg, labels = _relation_algebra(z3, rel.pairs)
        kite = _projection_kite(z3, alg, labels, alg, labels, 0, 1, 1, 0)
        if kite is None:
            continue
        assert admissibility_count_variety(kite, cap=10).count <= 1


def test_cancellative_magmas_admit_at_most_one_admissibility_morphism():
    """Projection kites over subalgebras of D x D never carry two
    admissibility morphisms when D is a cancellative commutative magma;
    sampled over all such D of size <= 3."""
    from finkite.algebra import _projection_kite, _relation_algebra

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
                alg, labels = _relation_algebra(D, rel.pairs)
                for fa, gc in ((0, 1), (1, 0)):
                    kite = _projection_kite(D, alg, labels, alg, labels,
                                            fa, gc, gc, fa)
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


@st.composite
def commutative_magmas(draw, max_size=4):
    """Random commutative tables, and isotopes x * y = sigma(x + y) of
    Z_n and of (Z_2)^2, which are cancellative and, for n = 4, fail the
    hom law when sigma is not affine."""
    n = draw(st.integers(1, max_size))
    if draw(st.booleans()):
        sigma = draw(st.permutations(range(n)))
        groups = [lambda x, y: (x + y) % n]
        if n in (2, 4):
            groups.append(lambda x, y: x ^ y)
        add = draw(st.sampled_from(groups))
        value = {(x, y): sigma[add(x, y)] for x in range(n) for y in range(n)}
    else:
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


@given(small_algebras(), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_reflexive_relations_match_brute_force(A, budget):
    rels = reflexive_relations(A)
    assert [r.pairs for r in rels] == brute_reflexive_relations(A)
    assert outcome(reflexive_relations, A, budget) == \
        outcome(naive_reflexive_relations, A, budget)


@given(commutative_magmas())
@settings(max_examples=150, deadline=None)
def test_maltsev_table_matches_per_entry_solve(A):
    assert outcome(maltsev_table, A) == outcome(oracle_maltsev_table, A)


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
    alg_a, labels_a = algebra._relation_algebra(D, rel_a.pairs)
    alg_c, labels_c = algebra._relation_algebra(D, rel_c.pairs)
    assert alg_a == oracle_product_subalgebra(D, D, labels_a)
    legs = draw(st.tuples(*[st.integers(0, 1)] * 4))
    kite = algebra._projection_kite(D, alg_a, labels_a, alg_c, labels_c,
                                    *legs)
    assume(kite is not None)
    return kite


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


@given(st.one_of(projection_kites(), pointed_kites()))
@example(RIGHT_PINNED)
@settings(max_examples=200, deadline=None)
def test_admissibility_count_variety_matches_brute_force(kite):
    E, labels = pullback_subalgebra(kite)
    assert E == oracle_product_subalgebra(kite.A, kite.C, labels)
    D = kite.D
    index = {lab: i for i, lab in enumerate(labels)}
    e1 = [index[(a, kite.s[kite.f[a]])] for a in range(kite.A.size)]
    e2 = [index[(kite.r[kite.g[c]], c)] for c in range(kite.C.size)]
    # every map E -> D, except that points of the cross take only the
    # value that alpha (on e1) gives them
    cross = dict(zip(e1, kite.alpha))
    choices = [[cross[i]] if i in cross else range(D.size)
               for i in range(E.size)]
    assume(D.size ** (E.size - len(cross)) <= 4096)
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
    build = algebra._relation_algebra

    def counting(D, pairs):
        built.append(tuple(pairs))
        return build(D, pairs)

    monkeypatch.setattr(algebra, "_relation_algebra", counting)
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
    """The search without frames or mirror pruning: every kite of the
    projection family is built, validated and counted on its own."""
    try:
        rels = reflexive_relations(D, budget=budget)
    except BudgetExceeded as exc:
        rels = exc.partial or ()
    examined = 0
    for ia in range(len(rels)):
        for ic in range(len(rels)):
            alg_a, labels_a = algebra._relation_algebra(D, rels[ia].pairs)
            alg_c, labels_c = algebra._relation_algebra(D, rels[ic].pairs)
            for fa, gc, aa, gg in product((0, 1), repeat=4):
                examined += 1
                if examined > budget:
                    return None
                kite = algebra._projection_kite(D, alg_a, labels_a, alg_c,
                                                labels_c, fa, gc, aa, gg)
                if kite is not None and \
                   admissibility_count_variety(kite, cap=2).count >= 2:
                    return kite
    return None


SEARCHED = [m3_lattice(), n5_lattice(), meet_semilattice2()] + \
    [chain_lattice(n) for n in (1, 2, 3, 4)]


@given(st.one_of(st.sampled_from(SEARCHED), small_algebras()),
       st.integers(1, 64))
@example(m3_lattice(), 64)
@example(meet_semilattice2(), 64)
@settings(max_examples=100)
def test_wm_witness_search_matches_the_per_kite_search(D, budget):
    assert wm_witness_search(D, budget) == \
        reference_wm_witness_search(D, budget)


@given(commutative_magmas(max_size=3), st.data())
@settings(max_examples=100)
def test_mirror_kites_agree_on_validity_and_count(D, data):
    rels = reflexive_relations(D)
    ia, ic = (data.draw(st.integers(0, len(rels) - 1)) for _ in range(2))
    fa, gc, aa, gg = data.draw(st.tuples(*[st.integers(0, 1)] * 4))
    rel_a = algebra._relation_algebra(D, rels[ia].pairs)
    rel_c = algebra._relation_algebra(D, rels[ic].pairs)
    kite = algebra._projection_kite(D, *rel_a, *rel_c, fa, gc, aa, gg)
    mirror = algebra._projection_kite(D, *rel_c, *rel_a, gc, fa, gg, aa)
    assert (kite is None) == (mirror is None)
    if kite is not None:
        assert admissibility_count_variety(kite).count == \
            admissibility_count_variety(mirror).count


def relation_side(D, rel):
    return algebra._relation_side(
        D, *algebra._relation_algebra(D, rel.pairs))


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
    assert meet.kite == reference_wm_witness_search(meet_semilattice2())
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


def counted_legs(monkeypatch, fail=None):
    """Record every homomorphism_witness call as (leg, id(source),
    id(target)); a call on the leg `fail` reports a made-up failure."""
    calls = []
    check = algebra.homomorphism_witness

    def counting(src, dst, h):
        calls.append((tuple(h), id(src), id(dst)))
        if calls[-1] == fail:
            return {"reason": "forced"}
        return check(src, dst, h)

    monkeypatch.setattr(algebra, "homomorphism_witness", counting)
    return calls


@pytest.mark.parametrize("D", [chain_lattice(3), n5_lattice()],
                         ids=["chain3", "n5"])
def test_witness_search_checks_each_leg_once(monkeypatch, D):
    rels = reflexive_relations(D, budget=2000)
    calls = counted_legs(monkeypatch)
    assert wm_witness_search(D) is None
    assert len(calls) == len(set(calls))
    assert len(calls) <= 3 * len(rels) + 1


def test_a_failed_leg_is_rejected_every_time_it_recurs(monkeypatch):
    # beta, the identity of D, is in every kite of the search: once it is
    # made to fail, no kite may pass, though meet2 has a witness
    D = meet_semilattice2()
    assert wm_witness_search(D) is not None
    beta = ((0, 1), id(D), id(D))
    calls = counted_legs(monkeypatch, fail=beta)
    search = algebra._witness_search(D, 2000)
    assert (search.kite, search.examined, search.complete) == \
        (None, search.of, True)
    assert calls.count(beta) == 1
    # the same through the shared checker: the cached failure is returned
    rel = relation_side(D, reflexive_relations(D)[0])
    A, diag, proj = rel
    legs = (proj[0], diag, diag, proj[0], proj[0], (0, 1), proj[0])
    outcomes = {}
    for _ in range(3):
        fault = algebra._kite_fault(A, D, A, D, legs, outcomes)
        assert isinstance(fault, NotAHomomorphism)
        assert str(fault) == "beta is not a homomorphism: " \
            "{'reason': 'forced'}"
    assert calls.count(beta) == 2


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
    alg, labels = algebra._relation_algebra(A, relation_closure(A, ()))
    assert alg == oracle_product_subalgebra(A, A, labels)


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


def ops2(*tables):
    return tuple(Operation(f"o{i}", 2, t) for i, t in enumerate(tables))


UNIT_MONOID = (Operation("*", 2, (0, 1, 1, 0)), Operation("1", 0, (1,)),
               Operation("bar", 1, (0, 1)))
LAW_FAILING_MONOID = (Operation("*", 2, (0, 0, 0, 0, 1, 2, 2, 2, 2)),
                      Operation("1", 0, (1,)), Operation("bar", 1, (0, 0, 0)))

VARIETY_BRANCHES = [
    (2, ops2((0, 0, 1, 1)), "cmag",
     "variety cmag: operation is not commutative"),
    (2, ops2((0, 0, 0, 1), (0, 0, 1, 1)), "dimagma",
     "variety dimagma: operations must be commutative"),
    (2, ops2((1, 0, 0, 0)), "group",
     "variety group: operation is not associative"),
    (2, ops2((0, 0, 0, 0)), "group", "variety group: no unit element"),
    (2, ops2((0, 0, 0, 1)), "group", "variety group: element 0 has no inverse"),
    (2, ops2((0, 0, 0, 1), (0, 0, 0, 1)), "lattice",
     "variety lattice: absorption fails"),
    (2, ops2((0, 0, 0, 1), (1, 0, 0, 0)), "lattice",
     "variety lattice: operation not associative"),
    (3, ops2((0, 0, 0, 0, 0, 2, 0, 2, 1)), "ccm_magma",
     "variety ccm_magma: operation is not medial"),
    (2, ops2((0, 0, 0, 1)), "ccm_magma",
     "variety ccm_magma: operation is not cancellative"),
    (3, LAW_FAILING_MONOID, "unary_monoid",
     "variety unary_monoid: x bar(y) y = y bar(y) x fails at (0, 2)"),
    (2, UNIT_MONOID, "unary_monoid",
     "variety unary_monoid: constant is not a unit"),
    (2, (Operation("*", 2, (1, 0, 0, 0)),) + UNIT_MONOID[1:], "unary_monoid",
     "variety unary_monoid: operation is not associative"),
]


@pytest.mark.parametrize("n, ops, variety, message", VARIETY_BRANCHES,
                         ids=[m for *_, m in VARIETY_BRANCHES])
def test_each_variety_axiom_branch_names_its_law(n, ops, variety, message):
    with pytest.raises(IllTyped) as exc:
        OpAlgebra(n, ops, variety)
    assert str(exc.value) == message
    with pytest.raises(IllTyped, match=message.replace("(", r"\(")
                       .replace(")", r"\)")):
        oracle_validate_variety_axioms(OpAlgebra(n, ops), variety)


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
