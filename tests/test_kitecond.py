import random
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from finkite.errors import HypothesisViolation, IllTyped
from finkite.finmaps import FinMap, compose, identity, jointly_monic, maps
from finkite.gallery import (group_kite, group_kite_bundle, group_pair_maltsev,
                             group_pair_span, is_associative_table,
                             monoid_tables, one_object_umg, preorder_graph_01,
                             terminal_span_kite, unital_magma_tables)
from finkite.internal import (Span, composable_pairs, kite_from_cat,
                              kite_from_rg, kite_from_span, kite_from_umg, kpc,
                              kpc_swapped, umg_multiplications)
from finkite.kitecond import (AdmissibilityKite, KiteDiagram, admissibility_count,
                              assemble_kite, check_hypotheses,
                              delta_identity_check, kite5_pairing, maltsev_mu,
                              pregroupoid_solutions, solve_m, theta,
                              wm_object_check_finset)
from finkite.limits import SplitCospan, extremal_instance_check, local_product


def witness_kite_diagram(n):
    """The set-theoretic witness: B = 1, A = C = D = n, alpha = gamma = 1."""
    bang = FinMap(n, 1, (0,) * n)
    point = FinMap(1, n, (0,))
    lp = local_product(SplitCospan(bang, point, bang, point))
    beta = compose(FinMap(1, n, (0,)), compose(bang, lp.p1))
    return KiteDiagram(lp.p1, lp.p2, lp.e1, lp.e2,
                       identity(n), beta, identity(n),
                       FinMap(n, 1, (0,) * n), FinMap(n, 1, (0,) * n))


def test_check_hypotheses_on_assembled_local_product():
    kd = group_kite(2)
    rep = check_hypotheses(kd)
    assert rep.ok
    assert any("automatic" in d for d in rep.details)


def test_check_hypotheses_swapped_injections_fail():
    kd = witness_kite_diagram(2)
    swapped = KiteDiagram(kd.p1, kd.p2, kd.e2, kd.e1, kd.alpha, kd.beta,
                          kd.gamma, kd.d, kd.c)
    rep = check_hypotheses(swapped)
    assert not rep.ok
    assert rep.witness["condition"] == 1


def test_check_hypotheses_singleton():
    one = identity(1)
    kd = KiteDiagram(one, one, one, one, one, one, one, one, one)
    assert check_hypotheses(kd).ok


def test_solve_m_singleton_target():
    one = identity(1)
    kd = KiteDiagram(one, one, one, one, one, one, one, one, one)
    res = solve_m(kd)
    assert res.count == 1


def test_solve_m_witness_kite_two_solutions():
    kd = witness_kite_diagram(2)
    res = solve_m(kd)
    assert res.count == 2
    assert len(res.solutions) == 2
    assert res.solutions[0].table < res.solutions[1].table


def test_solve_m_requires_hypotheses():
    kd = witness_kite_diagram(2)
    bad = KiteDiagram(kd.p1, kd.p2, kd.e2, kd.e1, kd.alpha, kd.beta,
                      kd.gamma, kd.d, kd.c)
    with pytest.raises(HypothesisViolation):
        solve_m(bad)


def test_solve_m_kite3_z2_free_points():
    """The kite-condition diagram of the one-object groupoid Z_2 keeps
    two off-cross points free, so it has exactly 4 multiplications;
    the count is frozen from an independent brute-force oracle."""
    mg = one_object_umg(((0, 1), (1, 0)))
    kd, lp = assemble_kite(kite_from_cat(mg))
    res = solve_m(kd)
    # independent oracle: filter all maps E -> D by the four equations
    oracle = 0
    d_target = compose(kd.d, compose(kd.gamma, kd.p2))
    c_target = compose(kd.c, compose(kd.alpha, kd.p1))
    for cand in maps(kd.E, kd.D):
        if compose(cand, kd.e1).table != kd.alpha.table:
            continue
        if compose(cand, kd.e2).table != kd.gamma.table:
            continue
        if compose(kd.d, cand).table != d_target.table:
            continue
        if compose(kd.c, cand).table != c_target.table:
            continue
        oracle += 1
    assert res.count == oracle == 4


def test_solve_m_group_kite_unique():
    for n in (2, 3):
        res = solve_m(group_kite(n))
        assert res.count == 1


def test_solve_m_count_at_most_one_for_jointly_monic_spans():
    # kites assembled from reflexive relations have jointly monic
    # direction spans, hence at most one multiplication
    from finkite.internal import ReflexiveGraph
    for n in (1, 2, 3):
        diag = [(x, x) for x in range(n)]
        off = [(x, y) for x in range(n) for y in range(n) if x != y]
        for mask in range(1 << len(off)):
            pairs = sorted(diag + [off[i] for i in range(len(off))
                                   if mask >> i & 1])
            d = FinMap(len(pairs), n, tuple(a for a, _ in pairs))
            c = FinMap(len(pairs), n, tuple(b for _, b in pairs))
            e = FinMap(n, len(pairs), tuple(pairs.index((x, x))
                                            for x in range(n)))
            rg = ReflexiveGraph(d, c, e)
            kd, _ = assemble_kite(kite_from_rg(rg))
            assert solve_m(kd).count <= 1


def test_kite1_solutions_are_umg_structures():
    rg = preorder_graph_01()
    kd, lp = assemble_kite(kite_from_rg(rg))
    res = solve_m(kd)
    assert res.count == len(umg_multiplications(rg)) == 1


def test_kite5_pairing_on_spans():
    assert kite5_pairing(group_pair_span(2)).ok
    bang = FinMap(2, 1, (0, 0))
    assert kite5_pairing(Span(bang, bang)).ok
    assert kite5_pairing(Span(identity(3), identity(3))).ok


def test_kite5_pairing_random_spans():
    rng = random.Random(31337)
    for _ in range(30):
        n = rng.randint(0, 3)
        n0, n1 = rng.randint(1, 3), rng.randint(1, 3)
        span = Span(FinMap(n, n0, tuple(rng.randrange(n0) for _ in range(n))),
                    FinMap(n, n1, tuple(rng.randrange(n1) for _ in range(n))))
        assert kite5_pairing(span, cap=200).ok


def test_terminal_span_kite_contains_maltsev_solution():
    kd = terminal_span_kite(2)
    res = solve_m(kd)
    assert res.count == 4
    # recover the triple labelling to locate x - y + z among solutions
    from finkite.internal import kpc
    bang = FinMap(2, 1, (0, 0))
    k = kpc(Span(bang, bang))
    _, lp = assemble_kite(kite_from_span(Span(bang, bang)))
    trip = [(k.pairs_first[a], k.pairs_second[c]) for (a, c) in lp.element_labels]
    target = tuple((x - y + z) % 2 for ((x, y), (_, z)) in trip)
    assert any(sol.table == target for sol in res.solutions)


def test_theta_returns_the_unique_solution_on_group_kites():
    for n in (2, 3):
        kd, mu, mu_e = group_kite_bundle(n)
        res = solve_m(kd)
        assert res.count == 1
        th = theta(kd, mu)
        assert th.m.table == res.solutions[0].table


def test_theta_solution_satisfies_equations_on_terminal_kite():
    # even where the solution is not unique, mid mu theta is a solution
    n = 2
    bang = FinMap(n, 1, (0,) * n)
    span = Span(bang, bang)
    kd = terminal_span_kite(n)
    kswap = kpc_swapped(span)
    mu = maltsev_mu(kswap, lambda x, y, z: (x - y + z) % n)
    th = theta(kd, mu)
    sols = {s.table for s in solve_m(kd).solutions}
    assert th.m.table in sols


def test_delta_identity_on_group_kites():
    for n in (2, 3):
        kd, mu, mu_e = group_kite_bundle(n)
        rep = delta_identity_check(kd, mu_e)
        assert rep.ok


def test_theta_rejects_bad_mu():
    kd, mu, _ = group_kite_bundle(2)
    bad = FinMap(mu.dom, mu.cod, tuple(0 for _ in range(mu.dom)))
    with pytest.raises(IllTyped):
        theta(kd, bad)


def test_check_unital_multiplication():
    from finkite.kitecond import check_unital_multiplication
    kd, mu, _ = group_kite_bundle(2)
    kswap = kpc_swapped(kd.span)
    assert check_unital_multiplication(kswap, mu).ok
    bad = FinMap(mu.dom, mu.cod, (0,) * mu.dom)
    assert not check_unital_multiplication(kswap, bad).ok


def test_singleton_theta_delta_forced():
    one = identity(1)
    kd = KiteDiagram(one, one, one, one, one, one, one, one, one)
    kswap = kpc_swapped(Span(one, one))
    mu = maltsev_mu(kswap, lambda x, y, z: 0)
    th = theta(kd, mu)
    assert th.m.table == (0,)
    mu_e = maltsev_mu(kpc_swapped(Span(one, one)), lambda x, y, z: 0)
    assert delta_identity_check(kd, mu_e).ok


def test_admissibility_count_examples():
    one = identity(1)
    kite = AdmissibilityKite(one, one, one, one, one, one, one)
    assert admissibility_count(kite).count == 1


def test_admissibility_monotone_under_injection():
    # pushing a kite along an injective map of targets never lowers the
    # admissibility count
    rng = random.Random(2024)
    for n in (1, 2, 3):
        chk = wm_object_check_finset(n)
        if chk.witness is None:
            continue
        k = chk.witness
        base = admissibility_count(k, cap=4000).count
        for extra in (1, 2):
            npp = n + extra
            inj = FinMap(n, npp, tuple(range(n)))
            pushed = AdmissibilityKite(k.f, k.r, k.s, k.g,
                                       compose(inj, k.alpha),
                                       compose(inj, k.beta),
                                       compose(inj, k.gamma))
            assert admissibility_count(pushed, cap=4000).count >= base


def test_wm_object_check():
    assert wm_object_check_finset(0).report.ok
    assert wm_object_check_finset(1).report.ok
    for n in range(2, 7):
        chk = wm_object_check_finset(n)
        assert not chk.report.ok
        assert chk.report.count >= 2
        assert len(chk.solutions) == 2
        assert chk.solutions[0].table != chk.solutions[1].table


def test_wm_object_check_rejects_negative_sizes():
    for n in (-1, -3):
        with pytest.raises(IllTyped, match=f"size must be >= 0, got {n}"):
            wm_object_check_finset(n)


def test_wm_witness_count_is_exact():
    chk = wm_object_check_finset(2)
    assert admissibility_count(chk.witness).count == 2


def test_solve_m_truncation_cap():
    kd = witness_kite_diagram(4)  # count = 4 ** 9
    res = solve_m(kd, cap=10)
    assert res.count == 4 ** 9
    assert res.truncated and len(res.solutions) == 2
    assert res.solutions[0].table < res.solutions[1].table


# Brute-force oracles: filter every map into D by the defining equations.

def brute_kite_solutions(kd):
    """m: E -> D with m e1 = alpha, m e2 = gamma, d m = d gamma p2 and
    c m = c alpha p1, in lexicographic order."""
    out = []
    for m in maps(kd.E, kd.D):
        t = m.table
        if (all(t[kd.e1.table[a]] == kd.alpha.table[a] for a in range(kd.A))
                and all(t[kd.e2.table[x]] == kd.gamma.table[x]
                        for x in range(kd.C))
                and all(kd.d.table[t[i]]
                        == kd.d.table[kd.gamma.table[kd.p2.table[i]]]
                        and kd.c.table[t[i]]
                        == kd.c.table[kd.alpha.table[kd.p1.table[i]]]
                        for i in range(kd.E))):
            out.append(t)
    return out


def brute_pregroupoids(span):
    d, c, D = span.d.table, span.c.table, span.D
    triples = [(x, y, z) for x in range(D) for y in range(D) if d[x] == d[y]
               for z in range(D) if c[y] == c[z]]
    return [m.table for m in maps(len(triples), D)
            if all((y != z or w == x) and (x != y or w == z)
                   and d[w] == d[z] and c[w] == c[x]
                   for w, (x, y, z) in zip(m.table, triples))]


def small_spans():
    def build(sizes):
        n, n0, n1 = sizes
        return st.tuples(
            st.lists(st.integers(0, n0 - 1), min_size=n, max_size=n),
            st.lists(st.integers(0, n1 - 1), min_size=n, max_size=n)).map(
            lambda dc: Span(FinMap(n, n0, tuple(dc[0])),
                            FinMap(n, n1, tuple(dc[1]))))
    return st.tuples(st.integers(0, 3), st.integers(1, 3),
                     st.integers(1, 3)).flatmap(build)


def assert_same_solutions(res, want):
    assert res.count == len(want)
    assert [s.table for s in res.solutions[:2]] == want[:2]
    assert res.report.solutions == tuple(list(t) for t in want[:2])


def solver_kites():
    """The gallery's kites with n <= 2 (the brute force keeps those with
    at most 4096 maps E -> D)."""
    for n in (1, 2):
        yield group_kite(n)
        yield terminal_span_kite(n)
        yield witness_kite_diagram(n)
        for table in unital_magma_tables(n):
            mg = one_object_umg(table)
            yield assemble_kite(kite_from_rg(mg.rg))[0]
            yield assemble_kite(kite_from_umg(mg))[0]
            if is_associative_table(table):
                yield assemble_kite(kite_from_cat(mg))[0]
    yield assemble_kite(kite_from_rg(preorder_graph_01()))[0]


def test_solve_m_matches_brute_force_on_gallery_kites():
    for kd in solver_kites():
        if kd.D ** kd.E > 4096:
            continue
        want = brute_kite_solutions(kd)
        assert_same_solutions(solve_m(kd, cap=len(want) + 1), want)
        assert_same_solutions(solve_m(kd, cap=1), want)


@given(small_spans())
@settings(max_examples=120, deadline=None)
def test_span_solvers_match_brute_force(span):
    kd, lp = assemble_kite(kite_from_span(span))
    assume(kd.D ** kd.E <= 4096)
    want = brute_kite_solutions(kd)
    assert_same_solutions(solve_m(kd), want)
    span_class = "M1" if jointly_monic(span.d, span.c) else "M0"
    ext = extremal_instance_check(lp, span.d, span.c, kd.alpha, kd.gamma,
                                  span_class)
    assert ext.count == len(want)
    assert [s.table for s in ext.solutions] == want[:2]
    pre = pregroupoid_solutions(span)
    assert_same_solutions(pre, brute_pregroupoids(span))
    assert kite5_pairing(span).ok


@given(small_spans())
@settings(max_examples=120, deadline=None)
def test_kernel_pair_kite_points_are_the_kpc_triples(span):
    """kite5_pairing compares solution tables point for point, so point xi
    of the assembled kite's E must be the kpc triple xi."""
    _, lp = assemble_kite(kite_from_span(span))
    k = kpc(span)
    assert [k.pairs_first[a] + (k.pairs_second[c][1],)
            for a, c in lp.element_labels] == list(k.triples)


@st.composite
def admissibility_kites(draw):
    """Split cospans with B <= 2, A, C <= 3, and legs into D <= 3 that
    agree on B: alpha r = gamma s."""
    def split(nb):
        n = draw(st.integers(nb, 3))
        r = draw(st.permutations(range(n)))[:nb]
        f = [draw(st.integers(0, nb - 1)) for _ in range(n)]
        for b, a in enumerate(r):
            f[a] = b
        return FinMap(n, nb, tuple(f)), FinMap(nb, n, tuple(r))

    nb, nd = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    (f, r), (g, s) = split(nb), split(nb)
    alpha = [draw(st.integers(0, nd - 1)) for _ in range(f.dom)]
    gamma = [draw(st.integers(0, nd - 1)) for _ in range(g.dom)]
    for b in range(nb):
        gamma[s.table[b]] = alpha[r.table[b]]
    beta = FinMap(nb, nd, tuple(alpha[a] for a in r.table))
    return AdmissibilityKite(f, r, s, g, FinMap(f.dom, nd, tuple(alpha)), beta,
                             FinMap(g.dom, nd, tuple(gamma)))


@given(admissibility_kites())
@settings(max_examples=150, deadline=None)
def test_admissibility_count_matches_brute_force(kite):
    lp = local_product(SplitCospan(kite.f, kite.r, kite.g, kite.s))
    assume(kite.D ** lp.E <= 4096)
    want = [phi.table for phi in maps(lp.E, kite.D)
            if compose(phi, lp.e1) == kite.alpha
            and compose(phi, lp.e2) == kite.gamma]
    assert_same_solutions(admissibility_count(kite), want)
    res = admissibility_count(kite, cap=len(want))
    assert [s.table for s in res.solutions] == want and not res.truncated


def maltsev_mu_by_pairs(k, p):
    """maltsev_mu as first written: each composable pair's triples are
    indexed as tuples, and the multiplication is validated with a fresh
    identity per unit law."""
    c2 = composable_pairs(k.graph)
    t_index = {t: i for i, t in enumerate(k.triples)}
    table = []
    for (ui, vi) in c2.labels:
        U, V = k.triples[ui], k.triples[vi]
        m0 = k.dom.table[ui]
        w = tuple(p(U[j], m0, V[j]) for j in range(3))
        if w not in t_index:
            raise IllTyped(f"mu image {w} leaves the triple object")
        table.append(t_index[w])
    mu = FinMap(c2.size, k.size, tuple(table))
    if compose(mu, c2.e1).table != identity(k.size).table:
        raise IllTyped("mu e1 != 1 on the triple object")
    if compose(mu, c2.e2).table != identity(k.size).table:
        raise IllTyped("mu e2 != 1 on the triple object")
    if compose(k.graph.d, mu).table != compose(k.graph.d, c2.pi2).table:
        raise IllTyped("dom mu != dom pi2")
    if compose(k.graph.c, mu).table != compose(k.graph.c, c2.pi1).table:
        raise IllTyped("cod mu != cod pi1")
    return mu


def recorded_mu(build, k, table, D):
    """build(k, p) for p read from a flat D^3 table, with the calls of p
    in order and the result table or the exception's type and text."""
    calls = []

    def p(x, y, z):
        calls.append((x, y, z))
        return table[(x * D + y) * D + z]
    try:
        out = build(k, p).table
    except Exception as exc:
        out = (type(exc), str(exc))
    return out, calls


def assert_mu_matches_pairs(span, table):
    for k in (kpc(span), kpc_swapped(span)):
        assert recorded_mu(maltsev_mu, k, table, span.D) == \
            recorded_mu(maltsev_mu_by_pairs, k, table, span.D)


def maltsev_tables(D):
    """p(x, y, z) tables on D points: arbitrary, with values up to D (one
    past the carrier), or with p(x, y, y) = x and p(y, y, z) = z forced."""
    def build(args):
        raw, forced = args
        table = list(raw)
        if forced:
            for x, y in product(range(D), repeat=2):
                table[(x * D + y) * D + y] = x
                table[(y * D + y) * D + x] = x
        return table
    return st.tuples(st.lists(st.integers(0, D), min_size=D ** 3,
                              max_size=D ** 3), st.booleans()).map(build)


@given(small_spans().filter(lambda s: 1 <= s.D <= 4).flatmap(
    lambda s: st.tuples(st.just(s), maltsev_tables(s.D))))
@settings(max_examples=150, deadline=None)
def test_maltsev_mu_matches_the_per_pair_definition(case):
    """Same table, same calls of p in the same order, and the same
    exception type and text, on both kernel pair constructions."""
    assert_mu_matches_pairs(*case)


def test_maltsev_mu_matches_the_per_pair_definition_on_valid_operations():
    for D in (1, 2, 3, 4):
        bang = FinMap(D, 1, (0,) * D)
        table = [(x - y + z) % D for x, y, z in product(range(D), repeat=3)]
        assert_mu_matches_pairs(Span(bang, bang), table)
    p = group_pair_maltsev(2)
    assert_mu_matches_pairs(group_pair_span(2),
                            [p(*t) for t in product(range(4), repeat=3)])


def bundle_from_callable(n):
    """group_kite_bundle as first written: the callable group_pair_maltsev,
    and p_e indexing the kpc triples as tuples."""
    span = group_pair_span(n)
    kd, _ = assemble_kite(kite_from_span(span))
    p_d = group_pair_maltsev(n)
    mu = maltsev_mu_by_pairs(kpc_swapped(span), p_d)
    triples = kpc(span).triples
    t_index = {t: i for i, t in enumerate(triples)}

    def p_e(i, j, k):
        return t_index[tuple(p_d(triples[i][t], triples[j][t], triples[k][t])
                             for t in range(3))]
    return kd, mu, maltsev_mu_by_pairs(kpc_swapped(Span(kd.p2, kd.p1)), p_e)


def test_group_kite_bundle_matches_the_callable_construction():
    for n in (2, 3):
        assert group_kite_bundle(n) == bundle_from_callable(n)
