import json
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from finkite.errors import IllTyped, NonCommutingSquare
from finkite.finmaps import FinMap, compose, identity, jointly_monic, maps
from finkite.gallery import (cyclic_add_table, group_pair_span, is_group_table,
                             monoid_tables, one_object_graph, one_object_umg,
                             preorder_graph_01, unital_magma_tables)
from finkite.internal import (DirectedKiteMorphism, MultiplicativeGraph,
                              Pregroupoid, ReflexiveGraph, RGMorphism, Span,
                              compat_check, composable_pairs, induced_kite,
                              kite_from_cat, kite_from_rg,
                              kite_from_rg_morphism, kite_from_span,
                              kite_from_umg, kpc, kpc_swapped,
                              pregroupoid_associative, umg_multiplications,
                              validate_category, validate_directed_kite,
                              validate_groupoid, validate_pregroupoid,
                              validate_reflexive_graph, validate_rg_morphism,
                              validate_unital_multiplicative_graph)


def random_span(rng, max_size=5):
    n = rng.randint(0, max_size)
    n0 = rng.randint(1, max_size)
    n1 = rng.randint(1, max_size)
    d = FinMap(n, n0, tuple(rng.randrange(n0) for _ in range(n)))
    c = FinMap(n, n1, tuple(rng.randrange(n1) for _ in range(n)))
    return Span(d, c)


def test_validate_reflexive_graph():
    rg = preorder_graph_01()
    assert validate_reflexive_graph(rg).ok
    bad = ReflexiveGraph(rg.d, rg.c, FinMap(2, 3, (1, 2)))
    rep = validate_reflexive_graph(bad)
    assert not rep.ok and rep.witness["element"] == 0


def test_one_object_graph_is_valid():
    assert validate_reflexive_graph(one_object_graph(3)).ok


def test_kpc_identities_span_gives_diagonal():
    span = Span(identity(3), identity(3))
    k = kpc(span)
    assert k.triples == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_kpc_constant_d_identity_c():
    span = Span(FinMap(2, 1, (0, 0)), identity(2))
    k = kpc(span)
    assert k.size == 4
    assert all(y == z for (_, y, z) in k.triples)
    ks = kpc_swapped(span)
    assert ks.size == 4
    assert all(x == y for (x, y, _) in ks.triples)


def test_kpc_group_span_cube():
    bang = FinMap(3, 1, (0, 0, 0))
    k = kpc(Span(bang, bang))
    assert k.size == 27
    assert kpc_swapped(Span(bang, bang)).size == 27


def test_kpc_set_formulas_random():
    rng = random.Random(60902)
    for _ in range(100):
        span = random_span(rng)
        k = kpc(span)
        for i, (x, y) in enumerate(k.pairs_first):
            assert k.d1.table[i] == x and k.d2.table[i] == y
            assert k.triples[k.e1.table[i]] == (x, y, y)
        for i, (y, z) in enumerate(k.pairs_second):
            assert k.c1.table[i] == y and k.c2.table[i] == z
            assert k.triples[k.e2.table[i]] == (y, y, z)
        for i, (x, y, z) in enumerate(k.triples):
            assert k.pairs_first[k.p1.table[i]] == (x, y)
            assert k.pairs_second[k.p2.table[i]] == (y, z)
            assert k.dom.table[i] == x
            assert k.mid.table[i] == y
            assert k.cod.table[i] == z
        for w in range(span.D):
            assert k.triples[k.delta.table[w]] == (w, w, w)
        assert validate_reflexive_graph(k.graph).ok


def test_kpc_swapped_structural_maps():
    rng = random.Random(8128)
    for _ in range(50):
        span = random_span(rng)
        ks = kpc_swapped(span)
        for i, (x, y, z) in enumerate(ks.triples):
            assert span.c.table[x] == span.c.table[y]
            assert span.d.table[y] == span.d.table[z]
            assert ks.dom.table[i] == z
            assert ks.cod.table[i] == x
        assert validate_reflexive_graph(ks.graph).ok


def test_multiplicative_graph_validation_one_object():
    mg = one_object_umg(((0, 1), (1, 0)))  # Z_2
    assert validate_unital_multiplicative_graph(mg).ok
    assert validate_category(mg).ok
    assert validate_groupoid(mg).ok


def test_groupoid_check_iff_group_over_monoids():
    for n in (1, 2, 3):
        for table in monoid_tables(n):
            mg = one_object_umg(table)
            assert validate_category(mg).ok
            assert validate_groupoid(mg).ok == is_group_table(table)


def test_groupoid_check_finds_a_kernel_pair_element_missed():
    # the order category on {0 <= 1}: C2 has 4 pairs, the kernel pair of
    # d has 5, so <m, pi2> is injective but not surjective
    mg = MultiplicativeGraph(preorder_graph_01(), FinMap(4, 3, (0, 1, 1, 2)))
    assert validate_category(mg).ok
    rep = validate_groupoid(mg)
    assert not rep.ok
    assert rep.witness == {"element": [0, 1],
                           "equation": "<m, pi2> is not surjective"}


def test_umg_uniqueness_on_reflexive_relations():
    # a reflexive relation admits at most one unital multiplicative
    # structure, and exactly one iff it is transitive
    for n in (1, 2, 3):
        diag = [(x, x) for x in range(n)]
        off = [(x, y) for x in range(n) for y in range(n) if x != y]
        for mask in range(1 << len(off)):
            pairs = sorted(diag + [off[i] for i in range(len(off))
                                   if mask >> i & 1])
            d = FinMap(len(pairs), n, tuple(a for a, _ in pairs))
            c = FinMap(len(pairs), n, tuple(b for _, b in pairs))
            e = FinMap(n, len(pairs), tuple(pairs.index((x, x)) for x in range(n)))
            rg = ReflexiveGraph(d, c, e)
            sols = umg_multiplications(rg)
            assert len(sols) <= 1
            pset = set(pairs)
            transitive = all((a, cc) in pset for (a, b) in pairs
                             for (b2, cc) in pairs if b2 == b)
            assert (len(sols) == 1) == transitive


def test_pregroupoid_maltsev_on_z3():
    bang = FinMap(3, 1, (0,) * 3)
    span = Span(bang, bang)
    k = kpc(span)
    p = FinMap(k.size, 3, tuple((x - y + z) % 3 for (x, y, z) in k.triples))
    pg = Pregroupoid(span, p)
    assert validate_pregroupoid(pg).ok
    assert pregroupoid_associative(pg).ok


def test_pregroupoid_vacuous_and_mutated():
    bang1 = FinMap(1, 1, (0,))
    pg = Pregroupoid(Span(bang1, bang1), FinMap(1, 1, (0,)))
    assert pregroupoid_associative(pg).ok

    bang = FinMap(2, 1, (0, 0))
    span = Span(bang, bang)
    k = kpc(span)
    table = [(x - y + z) % 2 for (x, y, z) in k.triples]
    i = k.triples.index((0, 1, 1))
    table[i] ^= 1
    rep = validate_pregroupoid(Pregroupoid(span, FinMap(k.size, 2, tuple(table))))
    assert not rep.ok and rep.witness["element"] == [0, 1, 1]


def test_kite_builders_validate():
    assert validate_directed_kite(kite_from_rg(preorder_graph_01())).ok
    mg = one_object_umg(((0, 1), (1, 0)))
    assert validate_directed_kite(kite_from_umg(mg)).ok
    assert validate_directed_kite(kite_from_cat(mg)).ok
    assert validate_directed_kite(kite_from_span(group_pair_span(2))).ok
    idem = one_object_umg(((0, 1), (1, 1)))  # monoid {1, a}, a a = a
    assert validate_directed_kite(kite_from_umg(idem)).ok


def test_kite_from_rg_morphism():
    rg = preorder_graph_01()
    collapse0 = FinMap(2, 1, (0, 0))
    collapse1 = FinMap(3, 1, (0, 0, 0))
    target = one_object_graph(1)
    h = RGMorphism(rg, target, collapse1, collapse0)
    assert validate_rg_morphism(h).ok
    assert validate_directed_kite(kite_from_rg_morphism(h)).ok


def test_induced_kite_and_compat_on_group_hom():
    # Z_4 -> Z_2 reduction on the kernel-pair kites of the spans to a point
    from finkite.kitecond import assemble_kite, solve_m

    def terminal_kite(n):
        bang = FinMap(n, 1, (0,) * n)
        return kite_from_span(Span(bang, bang))

    k4, k2 = terminal_kite(4), terminal_kite(2)
    h_d = FinMap(4, 2, (0, 1, 0, 1))
    kp4 = kpc(Span(FinMap(4, 1, (0,) * 4), FinMap(4, 1, (0,) * 4)))
    kp2 = kpc(Span(FinMap(2, 1, (0,) * 2), FinMap(2, 1, (0,) * 2)))
    pf4 = {p: i for i, p in enumerate(kp4.pairs_first)}
    pf2 = {p: i for i, p in enumerate(kp2.pairs_first)}
    ps2 = {p: i for i, p in enumerate(kp2.pairs_second)}
    hA = FinMap(len(kp4.pairs_first), len(kp2.pairs_first),
                tuple(pf2[(h_d.table[x], h_d.table[y])]
                      for (x, y) in kp4.pairs_first))
    hC = FinMap(len(kp4.pairs_second), len(kp2.pairs_second),
                tuple(ps2[(h_d.table[x], h_d.table[y])]
                      for (x, y) in kp4.pairs_second))
    h = DirectedKiteMorphism(k4, k2, hA, h_d, hC, h_d,
                             identity(1), identity(1))
    assert validate_rg_morphism is not None
    ik = induced_kite(h)
    assert validate_directed_kite(ik).ok
    # p = x - y + z multiplication on both kites; compat must hold
    kd4, lp4 = assemble_kite(k4)
    kd2, lp2 = assemble_kite(k2)
    trip4 = [(kp4.pairs_first[a], kp4.pairs_second[c])
             for (a, c) in lp4.element_labels]
    m4 = FinMap(lp4.E, 4, tuple((x - y + z) % 4
                                for ((x, y), (_, z)) in trip4))
    trip2 = [(kp2.pairs_first[a], kp2.pairs_second[c])
             for (a, c) in lp2.element_labels]
    m2 = FinMap(lp2.E, 2, tuple((x - y + z) % 2
                                for ((x, y), (_, z)) in trip2))
    assert compat_check(h, m4, m2).ok


def test_compat_check_identity_morphism():
    from finkite.kitecond import assemble_kite
    dk = kite_from_span(group_pair_span(2))
    kd, lp = assemble_kite(dk)
    n_a = dk.f.dom
    n_c = dk.g.dom
    h = DirectedKiteMorphism(dk, dk, identity(n_a), identity(dk.f.cod),
                             identity(n_c), identity(dk.alpha.cod),
                             identity(dk.d.cod), identity(dk.c.cod))
    ik = induced_kite(h)
    assert ik.alpha.table == dk.alpha.table
    from finkite.kitecond import solve_m
    sol = solve_m(kd).solutions[0]
    assert compat_check(h, sol, sol).ok


def test_noncommuting_square_raises():
    dk = kite_from_span(group_pair_span(2))
    bad = FinMap(4, 4, (1, 0, 3, 2))
    h = DirectedKiteMorphism(dk, dk, identity(dk.f.dom), identity(dk.f.cod),
                             identity(dk.g.dom), bad,
                             identity(dk.d.cod), identity(dk.c.cod))
    for call in (lambda: induced_kite(h), lambda: compat_check(h, bad, bad)):
        with pytest.raises(NonCommutingSquare) as exc:
            call()
        what, _, witness = str(exc.value).partition(": ")
        assert what == "invalid kite morphism"
        assert json.loads(witness) == {"element": 0,
                                       "square": "alpha' hA = hD alpha"}


# Nested-loop definitions, kept as oracles for the constructions that
# now run through the bucketed pullback.

def nested_composable_pairs(rg):
    return [(x, y) for x in range(rg.C1) for y in range(rg.C1)
            if rg.d.table[x] == rg.c.table[y]]


def nested_kpc(span, swapped):
    first, second = (span.c, span.d) if swapped else (span.d, span.c)
    D = span.D
    pf = [(x, y) for x in range(D) for y in range(D)
          if first.table[x] == first.table[y]]
    ps = [(y, z) for y in range(D) for z in range(D)
          if second.table[y] == second.table[z]]
    triples = [(x, y, z) for x in range(D) for y in range(D)
               if first.table[x] == first.table[y]
               for z in range(D) if second.table[y] == second.table[z]]
    dom, cod = (2, 0) if swapped else (0, 2)
    return {
        "triples": triples, "pairs_first": pf, "pairs_second": ps,
        "d1": [x for x, _ in pf], "d2": [y for _, y in pf],
        "c1": [y for y, _ in ps], "c2": [z for _, z in ps],
        "p1": [pf.index((x, y)) for x, y, _ in triples],
        "p2": [ps.index((y, z)) for _, y, z in triples],
        "e1": [triples.index((x, y, y)) for x, y in pf],
        "e2": [triples.index((y, y, z)) for y, z in ps],
        "dom": [t[dom] for t in triples], "mid": [t[1] for t in triples],
        "cod": [t[cod] for t in triples],
        "delta": [triples.index((w, w, w)) for w in range(D)],
    }


def spans(max_apex=5, max_base=3):
    def build(sizes):
        n, n0, n1 = sizes
        return st.tuples(
            st.lists(st.integers(0, n0 - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, n1 - 1), min_size=n, max_size=n)).map(
            lambda dc: Span(FinMap(n, n0, tuple(dc[0])),
                            FinMap(n, n1, tuple(dc[1]))))
    return st.tuples(st.integers(0, max_apex), st.integers(1, max_base),
                     st.integers(1, max_base)).flatmap(build)


@st.composite
def graphs(draw, max_objects=2, max_extra=3):
    """Reflexive graphs, and some with one endpoint entry changed; also
    some with any e at all, not always injective, so d e = 1 and c e = 1
    can fail without an endpoint entry changed."""
    n0 = draw(st.integers(1, max_objects))
    if draw(st.integers(0, 3)) == 0:
        n1 = draw(st.integers(1, n0 + max_extra))

        def table(dom, cod):
            return FinMap(dom, cod, tuple(draw(st.lists(
                st.integers(0, cod - 1), min_size=dom, max_size=dom))))
        return ReflexiveGraph(table(n1, n0), table(n1, n0), table(n0, n1))
    n1 = n0 + draw(st.integers(0, max_extra))
    e = draw(st.permutations(range(n1)))[:n0]
    d = draw(st.lists(st.integers(0, n0 - 1), min_size=n1, max_size=n1))
    c = draw(st.lists(st.integers(0, n0 - 1), min_size=n1, max_size=n1))
    for y, x in enumerate(e):
        d[x] = c[x] = y
    if draw(st.booleans()):
        leg = draw(st.sampled_from([d, c]))
        leg[draw(st.integers(0, n1 - 1))] = draw(st.integers(0, n0 - 1))
    return ReflexiveGraph(FinMap(n1, n0, tuple(d)), FinMap(n1, n0, tuple(c)),
                          FinMap(n0, n1, tuple(e)))


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_composable_pairs_match_nested_loop(rg):
    if any(rg.d.table[rg.e.table[y]] != y or rg.c.table[rg.e.table[y]] != y
           for y in range(rg.C0)):
        with pytest.raises(IllTyped, match="graph is not reflexive"):
            composable_pairs(rg)
        return
    labels = nested_composable_pairs(rg)
    ed = [rg.e.table[rg.d.table[x]] for x in range(rg.C1)]
    ec = [rg.e.table[rg.c.table[y]] for y in range(rg.C1)]
    e1 = [labels.index((x, ed[x])) for x in range(rg.C1)]
    e2 = [labels.index((ec[y], y)) for y in range(rg.C1)]
    c2 = composable_pairs(rg)
    assert list(c2.labels) == labels
    assert c2.pi1.table == tuple(x for x, _ in labels)
    assert c2.pi2.table == tuple(y for _, y in labels)
    assert (c2.e1.table, c2.e2.table) == (tuple(e1), tuple(e2))


@given(spans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_kpc_matches_nested_loop(span, swapped):
    k = (kpc_swapped if swapped else kpc)(span)
    want = nested_kpc(span, swapped)
    assert k.swapped == swapped
    assert list(k.triples) == want["triples"]
    assert list(k.pairs_first) == want["pairs_first"]
    assert list(k.pairs_second) == want["pairs_second"]
    for name in ("d1", "d2", "c1", "c2", "p1", "p2", "e1", "e2",
                 "dom", "mid", "cod", "delta"):
        assert getattr(k, name).table == tuple(want[name]), name
    assert (k.p1.dom, k.p1.cod) == (k.size, len(want["pairs_first"]))
    assert (k.p2.dom, k.p2.cod) == (k.size, len(want["pairs_second"]))
    assert k.graph == ReflexiveGraph(k.dom, k.cod, k.delta)


def test_composable_pairs_reject_a_graph_with_d_e_not_1():
    # d e = (0, 0) misses the identity at 1, though both injections would
    # find their pairs: C2 is the one pair (0, 0).
    rg = ReflexiveGraph(FinMap(1, 2, (0,)), FinMap(1, 2, (0,)),
                        FinMap(2, 1, (0, 0)))
    with pytest.raises(IllTyped) as info:
        composable_pairs(rg)
    assert str(info.value) == \
        'graph is not reflexive: {"element": 1, "equation": "d e = 1"}'
    with pytest.raises(IllTyped):
        MultiplicativeGraph(rg, FinMap(1, 1, (0,)))


def brute_umg(rg):
    """Unital multiplications by filtering every map C2 -> C1."""
    labels = nested_composable_pairs(rg)
    out = []
    for m in maps(len(labels), rg.C1):
        t = m.table
        if all(rg.d.table[t[i]] == rg.d.table[y]
               and rg.c.table[t[i]] == rg.c.table[x]
               and (y != rg.e.table[rg.d.table[x]] or t[i] == x)
               and (x != rg.e.table[rg.c.table[y]] or t[i] == y)
               for i, (x, y) in enumerate(labels)):
            out.append(t)
    return out


def nested_associativity_witness(mg):
    labels = list(mg.c2.labels)
    m = mg.m.table

    def at(x, y):
        return m[labels.index((x, y))]

    for x, y, z in ((x, y, z) for x in range(mg.rg.C1)
                    for y in range(mg.rg.C1) for z in range(mg.rg.C1)
                    if mg.rg.d.table[x] == mg.rg.c.table[y]
                    and mg.rg.d.table[y] == mg.rg.c.table[z]):
        if at(x, at(y, z)) != at(at(x, y), z):
            return [x, y, z]
    return None


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_umg_multiplications_and_category_check_match_brute_force(rg):
    assume(validate_reflexive_graph(rg).ok)
    size = len(nested_composable_pairs(rg))
    assume(rg.C1 ** size <= 4096)
    sols = umg_multiplications(rg)
    assert [s.table for s in sols] == brute_umg(rg)
    for m in sols:
        mg = MultiplicativeGraph(rg, m)
        rep = validate_category(mg)
        witness = nested_associativity_witness(mg)
        assert rep.ok == (witness is None)
        if witness is not None:
            assert rep.witness["element"] == witness


def test_category_check_matches_nested_loop_on_unital_magmas():
    for n in (1, 2, 3):
        for table in unital_magma_tables(n):
            mg = one_object_umg(table)
            rep = validate_category(mg)
            witness = nested_associativity_witness(mg)
            assert rep.ok == (witness is None)
            if witness is not None:
                assert rep.witness["element"] == witness


@given(spans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_kpc_triples_concatenate_the_local_product_labels(span, swapped):
    """Each triple, zipped from the three projections, is the pair of
    the first kernel pair joined with the last point of the second, read
    off the local-product label (i, j) that the triple sits at."""
    k = (kpc_swapped if swapped else kpc)(span)
    assert k.triples == tuple(k.pairs_first[i] + (k.pairs_second[j][1],)
                              for i, j in k.lp.element_labels)


def nested_pregroupoid_witness(pg):
    """The witness of the first pregroupoid equation that p breaks, or
    None, by the plain loops: the unit laws, then d p(x,y,z) = d(z) and
    c p(x,y,z) = c(x) per triple, then associativity over every (u, v)
    in D x D, skipping those outside the d-fibre of d(z) and the c-fibre
    of c(u)."""
    d, c, p = pg.span.d.table, pg.span.c.table, pg.p.table
    triples = pg.k.triples
    at = {t: i for i, t in enumerate(triples)}
    for i, (x, y, z) in enumerate(triples):
        if y == z and p[i] != x:
            return {"equation": "p(x,y,y) = x", "element": [x, y, z]}
        if x == y and p[i] != z:
            return {"equation": "p(y,y,z) = z", "element": [x, y, z]}
    for i, (x, y, z) in enumerate(triples):
        if d[p[i]] != d[z]:
            return {"equation": "d p(x,y,z) = d(z)", "element": [x, y, z]}
        if c[p[i]] != c[x]:
            return {"equation": "c p(x,y,z) = c(x)", "element": [x, y, z]}
    for (x, y, z) in triples:
        for u in range(pg.span.D):
            if d[z] != d[u]:
                continue
            for v in range(pg.span.D):
                if c[u] != c[v]:
                    continue
                if p[at[(p[at[(x, y, z)]], u, v)]] != \
                        p[at[(x, y, p[at[(z, u, v)]])]]:
                    return {"equation": "p(p(x,y,z),u,v) = p(x,y,p(z,u,v))",
                            "element": [x, y, z, u, v]}
    return None


def assert_pregroupoid_matches_nested_loops(pg):
    rep = pregroupoid_associative(pg)
    want = nested_pregroupoid_witness(pg)
    assert rep.ok == (want is None)
    assert rep.witness == want


@pytest.fixture
def square_span():
    """D = 2 x 2 coded 2a + b, with d and c the two projections: every
    triple (x, y, z) has p(x, y, z) = (first of z, second of x)."""
    return Span(FinMap(4, 2, (0, 0, 1, 1)), FinMap(4, 2, (0, 1, 0, 1)))


@pytest.mark.parametrize("triple, value, equation", [
    ((0, 0, 2), 0, "p(y,y,z) = z"),
    ((0, 1, 3), 0, "d p(x,y,z) = d(z)"),
    ((0, 1, 3), 3, "c p(x,y,z) = c(x)")])
def test_pregroupoid_validation_names_each_failing_equation(
        square_span, triple, value, equation):
    k = kpc(square_span)
    table = [2 * (z // 2) + x % 2 for (x, y, z) in k.triples]
    assert_pregroupoid_matches_nested_loops(
        Pregroupoid(square_span, FinMap(k.size, 4, tuple(table))))
    table[k.triples.index(triple)] = value
    pg = Pregroupoid(square_span, FinMap(k.size, 4, tuple(table)))
    rep = validate_pregroupoid(pg)
    assert rep.witness == {"equation": equation, "element": list(triple)}
    assert pregroupoid_associative(pg) == rep
    assert_pregroupoid_matches_nested_loops(pg)


@pytest.mark.parametrize("d, c, table, element", [
    ((0, 0, 0), (0, 0, 0),
     tuple(x if y == z else z if x == y else 0
           for x, y, z in product(range(3), repeat=3)), [0, 1, 0, 0, 1]),
    ((2, 0, 0), (1, 0, 0), (0, 1, 2, 1, 1, 2, 1, 1, 2), [1, 2, 1, 1, 2])],
    ids=["constant", "fibred"])
def test_pregroupoid_associativity_names_the_first_failing_quintuple(
        d, c, table, element):
    """A valid p that is not associative, on constant legs and on legs
    whose fibres leave points out of the (u, v) scan."""
    span = Span(FinMap(3, 3, d), FinMap(3, 3, c))
    pg = Pregroupoid(span, FinMap(kpc(span).size, 3, table))
    assert validate_pregroupoid(pg).ok
    rep = pregroupoid_associative(pg)
    assert rep.witness == {"equation": "p(p(x,y,z),u,v) = p(x,y,p(z,u,v))",
                           "element": element}
    assert_pregroupoid_matches_nested_loops(pg)


@given(spans(max_apex=4), st.data())
@settings(max_examples=200, deadline=None)
def test_pregroupoid_associativity_matches_nested_loops(span, data):
    """p drawn per triple among the values the equations allow (any
    value where none does), then at most one entry redrawn freely."""
    k, D = kpc(span), span.D
    d, c = span.d.table, span.c.table
    table = []
    for x, y, z in k.triples:
        allowed = ([x] if y == z else [z] if x == y else
                   [w for w in range(D) if d[w] == d[z] and c[w] == c[x]])
        table.append(data.draw(st.sampled_from(allowed or range(D))))
    if table and data.draw(st.booleans()):
        table[data.draw(st.integers(0, len(table) - 1))] = \
            data.draw(st.integers(0, D - 1))
    assert_pregroupoid_matches_nested_loops(
        Pregroupoid(span, FinMap(k.size, D, tuple(table))))


def test_compat_check_names_the_first_mismatched_label():
    """Under the identity morphism, compat compares m with m' entry by
    entry and names the local-product label of the first difference."""
    from finkite.kitecond import assemble_kite, solve_m
    dk = kite_from_span(group_pair_span(2))
    kd, lp = assemble_kite(dk)
    h = DirectedKiteMorphism(dk, dk, identity(dk.f.dom), identity(dk.f.cod),
                             identity(dk.g.dom), identity(dk.alpha.cod),
                             identity(dk.d.cod), identity(dk.c.cod))
    m = solve_m(kd).solutions[0]
    for w in (0, lp.E - 1):
        table = list(m.table)
        table[w] = (table[w] + 1) % m.cod
        rep = compat_check(h, m, FinMap(m.dom, m.cod, tuple(table)))
        assert not rep.ok
        assert rep.witness == {"element": list(lp.element_labels[w])}
