"""The constructions that limits and internal once made by hand, kept
here as references: the union-find pushout of split monos, lp-check
rebuilt through label dictionaries, the groupoid check by a scan of the
kernel-pair labels, and the two hand-rolled joins of the associativity
checks.  Hypothesis compares whole results with them, byte for byte."""
import ast
from itertools import product
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from finkite import limits
from finkite.errors import DomainMismatch
from finkite.finmaps import FinMap, compose, fibres, index_of
from finkite.gallery import monoid_tables, unital_magma_tables
from finkite.internal import (MultiplicativeGraph, Pregroupoid,
                              ReflexiveGraph, Span, kpc,
                              pregroupoid_associative, validate_category,
                              validate_groupoid, validate_pregroupoid,
                              validate_unital_multiplicative_graph)
from finkite.limits import (IntrinsicCheck, Pushout, SplitCospan,
                            _failed_conditions_1_to_3,
                            check_local_product_intrinsic, kernel_pair,
                            local_product, pullback, pushout_split_mono)
from finkite.report import fails, holds


def same(got, want):
    assert got == want
    assert repr(got) == repr(want)


# -- pushout of split monos ---------------------------------------------

def pushout_by_union_find(sc):
    """A +_B C as the classes of a union-find over A + C, glued along
    r(b) ~ s(b), each labelled by its least representative."""
    r, s = sc.r, sc.s
    nA, nC = sc.A, sc.C
    parent = list(range(nA + nC))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for b in range(r.dom):
        union(r.table[b], nA + s.table[b])
    roots = sorted({find(x) for x in range(nA + nC)})
    root_index = index_of(roots)
    q1 = FinMap(nA, len(roots), tuple(root_index[find(a)] for a in range(nA)))
    q2 = FinMap(nC, len(roots),
                tuple(root_index[find(nA + c)] for c in range(nC)))
    labels = tuple(("A", root) if root < nA else ("C", root - nA)
                   for root in roots)
    return Pushout(len(roots), q1, q2, labels)


@st.composite
def split_cospans(draw, max_b=3, max_extra=3, fat=False):
    """f: A -> B and g: C -> B with sections r and s; A and C are drawn
    apart, and B = 0 forces A = C = 0.  With fat, B >= 1 and both f and
    g have a second point over one b0, so that E has a point off the
    cross e1(A) u e2(C)."""
    b = draw(st.integers(1 if fat else 0, max_b))
    legs = []
    b0 = draw(st.integers(0, b - 1)) if fat else None
    for _ in range(2):
        n = b + (draw(st.integers(1 if fat else 0, max_extra)) if b else 0)
        perm = draw(st.permutations(range(n)))
        table = draw(st.lists(st.integers(0, max(b - 1, 0)),
                              min_size=n, max_size=n))
        if fat:
            table[perm[b]] = b0
        section = perm[:b]
        for i, x in enumerate(section):
            table[x] = i
        legs += [FinMap(n, b, tuple(table)), FinMap(b, n, tuple(section))]
    return SplitCospan(*legs)


def identity_cospan(n):
    one = FinMap(n, n, tuple(range(n)))
    return SplitCospan(one, one, one, one)


@given(split_cospans())
@example(identity_cospan(0))
@example(SplitCospan(FinMap(3, 1, (0, 0, 0)), FinMap(1, 3, (2,)),
                     FinMap(1, 1, (0,)), FinMap(1, 1, (0,))))
@settings(max_examples=300, deadline=None)
def test_pushout_matches_the_union_find(sc):
    """Size, q1, q2 and class labels, at B = 0 and with A != C."""
    same(pushout_split_mono(sc), pushout_by_union_find(sc))


# -- lp-check ------------------------------------------------------------

def lp_check_by_labels(p1, p2, e1, e2):
    """check_local_product_intrinsic with B's points, and then the input's
    relabelling, looked up in dictionaries of the rebuilt labels, and
    condition 4 read off a fully built local product."""
    cmd = "lp-check"
    E, A, C = p1.dom, p1.cod, p2.cod
    if p2.dom != E or e1.dom != A or e1.cod != E or e2.dom != C or e2.cod != E:
        raise DomainMismatch("diagram maps are not type-compatible")
    rep = _failed_conditions_1_to_3(cmd, "e1p1 e2p2 != e2p2 e1p1",
                                    p1, p2, e1, e2)
    if rep is not None:
        return IntrinsicCheck(rep, None, None, None)
    p1e2, p2e1 = compose(p1, e2), compose(p2, e1)
    pb = pullback(e2, e1)
    b_index = index_of(pb.labels)
    f = FinMap(A, pb.size, tuple(map(b_index.__getitem__, zip(
        compose(p1e2, p2e1).table, p2e1.table))))
    g = FinMap(C, pb.size, tuple(map(b_index.__getitem__, zip(
        p1e2.table, compose(p2e1, p1e2).table))))
    cospan = SplitCospan(f, pb.p1, g, pb.p2)
    lp = local_product(cospan)
    if lp.E != E:
        hit = set(zip(p1.table, p2.table))
        a, c = next(lab for lab in lp.element_labels if lab not in hit)
        return IntrinsicCheck(
            fails(cmd, {"condition": 4, "pair": [a, c]},
                  ["a compatible pair is not reached by E"]),
            None, None, None)
    lp_index = index_of(lp.element_labels)
    relabel = FinMap(E, lp.E, tuple(
        lp_index[lab] for lab in zip(p1.table, p2.table)))
    return IntrinsicCheck(holds(cmd, [
        "condition 1 holds: p1 e1 = 1_A, p2 e2 = 1_C",
        "condition 2 holds: the idempotents e1p1 and e2p2 commute",
        "condition 3 holds: (p1, p2) jointly monic",
        "condition 4 holds on one-point stages",
        "round trip: regenerated local product matches input"]),
        cospan, lp, relabel)


def perturbed(sc, condition, data):
    """The local product of sc as (p1, p2, e1, e2), broken so that the
    intrinsic check fails first at the given condition (0: unbroken).
    sc must be fat, as split_cospans(fat=True) draws it."""
    lp = local_product(sc)
    p1, p2 = list(lp.p1.table), list(lp.p2.table)
    e1, e2 = list(lp.e1.table), list(lp.e2.table)
    labels, E = lp.element_labels, lp.E
    f, r, g, s = sc.f.table, sc.r.table, sc.g.table, sc.s.table
    if condition == 1:
        # p1 e1 != 1_A at a0
        a0 = data.draw(st.integers(0, sc.A - 1))
        e1[a0] = data.draw(st.sampled_from(
            [x for x, (a, _) in enumerate(labels) if a != a0]))
    elif condition == 2:
        # another section of p1 at an a0 off r(B), over a fat g-fibre
        a0 = data.draw(st.sampled_from(
            [a for a in range(sc.A) if r[f[a]] != a
             and g.count(f[a]) > 1]))
        e1[a0] = data.draw(st.sampled_from(
            [x for x, (a, c) in enumerate(labels)
             if a == a0 and c != s[f[a0]]]))
    elif condition == 3:
        # a duplicated element
        x0 = data.draw(st.integers(0, E - 1))
        p1.append(p1[x0])
        p2.append(p2[x0])
        E += 1
    elif condition == 4:
        # some elements off the cross removed
        gone = data.draw(st.sets(st.sampled_from(
            [x for x, (a, c) in enumerate(labels)
             if r[f[a]] != a and s[g[c]] != c]), min_size=1))
        keep = [x for x in range(E) if x not in gone]
        at = index_of(keep)
        p1, p2 = [p1[x] for x in keep], [p2[x] for x in keep]
        e1, e2 = [at[x] for x in e1], [at[x] for x in e2]
        E = len(keep)
    return (FinMap(E, sc.A, tuple(p1)), FinMap(E, sc.C, tuple(p2)),
            FinMap(sc.A, E, tuple(e1)), FinMap(sc.C, E, tuple(e2)))


@given(split_cospans(fat=True), st.integers(0, 4), st.data())
@settings(max_examples=400, deadline=None)
def test_lp_check_matches_the_label_dictionaries(sc, condition, data):
    """Whole results, the rebuilt cospan, local product and relabelling
    included, on the local product and on the four perturbed diagrams,
    each failing at its own condition."""
    maps = perturbed(sc, condition, data)
    res = check_local_product_intrinsic(*maps)
    same(res, lp_check_by_labels(*maps))
    assert (res.report.witness or {}).get("condition", 0) == condition


@given(split_cospans(), st.data())
@settings(max_examples=300, deadline=None)
def test_lp_check_matches_the_label_dictionaries_on_any_entry_changed(
        sc, data):
    """B = 0 included, and one entry of p1, p2, e1 or e2 redrawn freely."""
    lp = local_product(sc)
    maps = [lp.p1, lp.p2, lp.e1, lp.e2]
    k = data.draw(st.integers(0, 4))
    if k < 4 and maps[k].dom:
        m = maps[k]
        table = list(m.table)
        table[data.draw(st.integers(0, m.dom - 1))] = \
            data.draw(st.integers(0, m.cod - 1))
        maps[k] = FinMap(m.dom, m.cod, tuple(table))
    same(check_local_product_intrinsic(*maps), lp_check_by_labels(*maps))


def test_a_failing_lp_check_builds_no_local_product(monkeypatch):
    """Condition 4 is decided before the rebuilt product is placed."""
    bang = FinMap(2, 1, (0, 0))
    point = FinMap(1, 2, (0,))
    lp = local_product(SplitCospan(bang, point, bang, point))
    built = []
    placed = limits._placed
    monkeypatch.setattr(limits, "_placed",
                        lambda *args: built.append(1) or placed(*args))
    # (1, 1), the one point off the cross e1(A) u e2(C), removed
    res = check_local_product_intrinsic(
        FinMap(3, 2, (0, 0, 1)), FinMap(3, 2, (0, 1, 0)),
        FinMap(2, 3, (0, 2)), FinMap(2, 3, (0, 1)))
    assert res.report.witness == {"condition": 4, "pair": [1, 1]}
    assert built == []
    assert check_local_product_intrinsic(lp.p1, lp.p2, lp.e1,
                                         lp.e2).report.ok
    assert built == [1]


# -- categories and groupoids ------------------------------------------

def category_by_hand(mg):
    """validate_category with the composable triples joined by hand from
    the fibres of pi1."""
    rep = validate_unital_multiplicative_graph(mg)
    if not rep.ok:
        return rep
    labels = mg.c2.labels
    index = index_of(labels)
    m = mg.m.table
    starting_at = fibres(mg.c2.pi1.table)
    for i, (x, y) in enumerate(labels):
        for j in starting_at.get(y, ()):
            z = labels[j][1]
            left = m[index[(x, m[j])]]
            right = m[index[(m[i], z)]]
            if left != right:
                return fails("validate", {"equation": "m(1 x m) = m(m x 1)",
                                          "element": [x, y, z]})
    return holds("validate", ["associativity holds on composable triples"])


def groupoid_by_scan(mg):
    """validate_groupoid by a scan of C2 through an index of the kernel
    pair of d, remembering each pair's first holder."""
    rep = category_by_hand(mg)
    if not rep.ok:
        return rep
    kp = kernel_pair(mg.rg.d)
    kp_index = index_of(kp.pairs)
    seen = {}
    for i, (x, y) in enumerate(mg.c2.labels):
        key = kp_index[(mg.m.table[i], y)]
        if key in seen:
            return fails("validate", {"equation": "<m, pi2> is not injective",
                                      "element": [list(seen[key]), [x, y]]})
        seen[key] = (x, y)
    if len(seen) != kp.size:
        miss = next(i for i in range(kp.size) if i not in seen)
        return fails("validate", {"equation": "<m, pi2> is not surjective",
                                  "element": list(kp.pairs[miss])})
    return holds("validate",
                 ["<m, pi2> is a bijection onto the kernel pair of d"])


def product_category(n, relation, table):
    """The preorder on n objects generated by relation, times the unital
    magma table (unit 0): arrows (i, j, u) for i <= j, lex ordered, with
    d = i and c = j, composed (j, k, u)(i, j, v) = (i, k, table[u][v]).
    A category iff table is associative; a groupoid iff moreover the
    preorder is symmetric and the table is a group."""
    le = {(i, i) for i in range(n)} | set(relation)
    while True:
        more = {(i, k) for i, j in le for j2, k in le if j == j2} - le
        if not more:
            break
        le |= more
    arrows = [(i, j, u) for i, j in sorted(le) for u in range(len(table))]
    at = index_of(arrows)
    d = FinMap(len(arrows), n, tuple(i for i, _, _ in arrows))
    c = FinMap(len(arrows), n, tuple(j for _, j, _ in arrows))
    e = FinMap(n, len(arrows), tuple(at[(i, i, 0)] for i in range(n)))
    pairs = [(x, y) for x in range(len(arrows)) for y in range(len(arrows))
             if d.table[x] == c.table[y]]
    m = tuple(at[(arrows[y][0], arrows[x][1],
                  table[arrows[x][2]][arrows[y][2]])] for x, y in pairs)
    return MultiplicativeGraph(ReflexiveGraph(d, c, e),
                               FinMap(len(pairs), len(arrows), m))


MONOIDS = [t for n in (1, 2, 3) for t in monoid_tables(n)]
MAGMAS = [t for n in (1, 2, 3) for t in unital_magma_tables(n)]


def categories(tables):
    return st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=4),
        st.sampled_from(tables)))


Z2 = ((0, 1), (1, 0))
FLIP_FLOP = ((0, 1, 2), (1, 1, 1), (2, 2, 2))


@given(categories(MONOIDS))
@example((2, [(0, 1)], Z2))            # a group, a preorder not symmetric
@example((2, [(0, 1), (1, 0)], Z2))    # a groupoid
@example((1, [], FLIP_FLOP))           # a monoid that is not a group
@settings(max_examples=300, deadline=None)
def test_groupoid_check_matches_the_kernel_pair_scan(drawn):
    """Groupoids, categories that fail injectivity (a monoid that is not
    a group) and ones that fail only surjectivity (a group over a
    preorder that is not symmetric)."""
    mg = product_category(*drawn)
    assert validate_category(mg).ok
    same(validate_groupoid(mg), groupoid_by_scan(mg))


@given(categories(MAGMAS))
@settings(max_examples=300, deadline=None)
def test_category_check_matches_the_hand_joined_triples(drawn):
    """Unital multiplicative graphs over every unital magma of order at
    most 3: associative, and not, at the first failing triple."""
    mg = product_category(*drawn)
    same(validate_category(mg), category_by_hand(mg))
    same(validate_groupoid(mg), groupoid_by_scan(mg))


# -- pregroupoids --------------------------------------------------------

def pregroupoid_associative_by_hand(pg):
    """pregroupoid_associative with u read from the d-fibre of d(z) and v
    from the c-fibre of c(u), each ascending."""
    rep = validate_pregroupoid(pg)
    if not rep.ok:
        return rep
    span, k, p = pg.span, pg.k, pg.p.table
    t_index = index_of(k.triples)
    d, c = span.d.table, span.c.table
    d_over, c_over = fibres(d), fibres(c)
    for (x, y, z), w in zip(k.triples, p):
        for u in d_over[d[z]]:
            for v in c_over[c[u]]:
                left = p[t_index[(w, u, v)]]
                right = p[t_index[(x, y, p[t_index[(z, u, v)]])]]
                if left != right:
                    return fails(
                        "validate",
                        {"equation": "p(p(x,y,z),u,v) = p(x,y,p(z,u,v))",
                         "element": [x, y, z, u, v]})
    return holds("validate", ["pregroupoid is associative"])


@st.composite
def pregroupoids(draw, max_apex=4, max_base=3):
    """A span and p drawn per triple among the values the equations allow
    (any value where none does), then at most one entry redrawn."""
    D = draw(st.integers(1, max_apex))
    n0, n1 = draw(st.integers(1, max_base)), draw(st.integers(1, max_base))
    d = tuple(draw(st.lists(st.integers(0, n0 - 1), min_size=D, max_size=D)))
    c = tuple(draw(st.lists(st.integers(0, n1 - 1), min_size=D, max_size=D)))
    span = Span(FinMap(D, n0, d), FinMap(D, n1, c))
    k = kpc(span)
    table = [draw(st.sampled_from(
        [x] if y == z else [z] if x == y else
        [w for w in range(D) if d[w] == d[z] and c[w] == c[x]] or range(D)))
        for x, y, z in k.triples]
    if draw(st.booleans()):
        table[draw(st.integers(0, len(table) - 1))] = \
            draw(st.integers(0, D - 1))
    return Pregroupoid(span, FinMap(k.size, D, tuple(table)))


@given(pregroupoids())
@example(Pregroupoid(Span(FinMap(3, 1, (0,) * 3), FinMap(3, 1, (0,) * 3)),
                     FinMap(27, 3, tuple(
                         x if y == z else z if x == y else 0
                         for x, y, z in product(range(3), repeat=3)))))
@settings(max_examples=300, deadline=None)
def test_pregroupoid_associativity_matches_the_hand_joined_quintuples(pg):
    same(pregroupoid_associative(pg), pregroupoid_associative_by_hand(pg))


# -- one join ------------------------------------------------------------

def test_fibres_is_called_by_the_three_fibre_solvers_only():
    """Every join goes through pullback: the library calls fibres in
    pullback's own join, in solve_cross and in the Mal'tsev solver."""
    callers = set()

    def visit(node, module, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "fibres":
            callers.add(f"{module}.{fn}")
        for child in ast.iter_child_nodes(node):
            visit(child, module, fn)

    for path in sorted(Path(limits.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    assert callers == {"limits._pullback", "finmaps.solve_cross",
                       "algebra._maltsev_solver"}
