"""The four workloads: seeded inputs, a fixed multiset of ops, and oracles.

Each op decides one claim (build, construct, check, result) through
finkite's public functions.  Ops reach finkite through module attributes
looked up at call time, so the tracer's wrappers see every call.  Each
oracle recomputes the answer independently -- by comprehension over
fibres, closed form or brute force at small size -- and checks meaning,
not bytes.  Oracles run outside the timed region.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Any, Callable


class OracleFailure(Exception):
    pass


def expect(cond, what: str) -> None:
    if not cond:
        raise OracleFailure(what)


@dataclass
class Op:
    kind: str                       # "type:instance@size"
    run: Callable[[], Any]          # the timed call
    check: Callable[[Any], None]    # the oracle; raises on a wrong answer


# --------------------------------------------------------------------------
# shared helpers

def _random_map(rng, dom, cod):
    """A surjection dom -> cod whose fibres all have dom // cod elements."""
    table = [i % cod for i in range(dom)]
    rng.shuffle(table)
    return table


def _fibres(table, cod):
    out = [[] for _ in range(cod)]
    for i, v in enumerate(table):
        out[v].append(i)
    return out


def _pairs_over(f, g, cod):
    """Lex-ordered pairs (a, c) with f(a) = g(c)."""
    over = _fibres(g, cod)
    return [(a, c) for a, b in enumerate(f) for c in over[b]]


def _triples(first, second, cod):
    """Lex-ordered (x, y, z) with first(x) = first(y), second(y) = second(z)."""
    ff, sf = _fibres(first, cod), _fibres(second, cod)
    return [(x, y, z) for x in range(len(first))
            for y in ff[first[x]] for z in sf[second[y]]]


def _apply(table, n, args):
    idx = 0
    for a in args:
        idx = idx * n + a
    return table[idx]


# --------------------------------------------------------------------------
# sparse_constructions: random maps with fibres of 2, at sizes n and 2n

SPARSE_BASE = {"full": {"pullback": 600, "local_product": 150, "kpc": 300,
                        "composable_pairs": 150},
               "smoke": {"pullback": 24, "local_product": 6, "kpc": 12,
                         "composable_pairs": 6}}


def _split_cospan(rng, B):
    f, g = _random_map(rng, 2 * B, B), _random_map(rng, 2 * B, B)
    r = [rng.choice(fib) for fib in _fibres(f, B)]
    s = [rng.choice(fib) for fib in _fibres(g, B)]
    return f, r, g, s


def _lp_tables(f, r, g, s, B):
    """The local product of a split cospan: labels, p1, p2, e1, e2."""
    labels = _pairs_over(f, g, B)
    index = {lab: i for i, lab in enumerate(labels)}
    p1 = [a for a, _ in labels]
    p2 = [c for _, c in labels]
    e1 = [index[(a, s[f[a]])] for a in range(len(f))]
    e2 = [index[(r[g[c]], c)] for c in range(len(g))]
    return labels, p1, p2, e1, e2


def _pullback_ops(m, rng, n):
    FinMap, B = m.finmaps.FinMap, n // 2
    f, g, h = (_random_map(rng, n, B) for _ in range(3))
    F, G, H = (FinMap(n, B, t) for t in (f, g, h))
    pairs = cache(lambda: _pairs_over(f, g, B))
    kernel = cache(lambda: _pairs_over(h, h, B))

    def check_pullback(pb):
        expect(list(pb.labels) == pairs(), "pullback labels")
        expect(pb.p1.table == tuple(a for a, _ in pairs())
               and pb.p2.table == tuple(c for _, c in pairs()),
               "pullback projections")

    def check_kernel_pair(kp):
        expect(list(kp.pairs) == kernel(), "kernel pair labels")
        expect(all(kp.pairs[kp.diagonal.table[y]] == (y, y) for y in range(n)),
               "kernel pair diagonal")

    return [Op(f"pullback@{n}", lambda: m.limits.pullback(G, F),
               check_pullback),
            Op(f"kernel_pair@{n}", lambda: m.limits.kernel_pair(H),
               check_kernel_pair)]


def _local_product_op(m, rng, B):
    FinMap, n = m.finmaps.FinMap, 2 * B
    f, r, g, s = _split_cospan(rng, B)
    sc = m.limits.SplitCospan(FinMap(n, B, f), FinMap(B, n, r),
                              FinMap(n, B, g), FinMap(B, n, s))
    want = cache(lambda: _lp_tables(f, r, g, s, B))

    def run():
        lp = m.limits.local_product(sc)
        return lp, m.limits.check_local_product_intrinsic(lp.p1, lp.p2,
                                                          lp.e1, lp.e2)

    def check(out):
        lp, chk = out
        labels, p1, p2, e1, e2 = want()
        expect(list(lp.element_labels) == labels, "local product labels")
        expect(lp.p1.table == tuple(p1) and lp.p2.table == tuple(p2)
               and lp.e1.table == tuple(e1) and lp.e2.table == tuple(e2),
               "local product maps")
        expect(chk.report.verdict == "holds",
               "intrinsic check holds on a local product")

    return Op(f"local_product@{B}", run, check)


def _perturbed_lp_ops(m, rng, B):
    """Local-product diagrams broken so that the intrinsic check must fail
    at condition 1, 2, 3 and 4 respectively (every fibre has 2 points)."""
    FinMap, A = m.finmaps.FinMap, 2 * B
    f, r, g, s = _split_cospan(rng, B)
    labels, p1, p2, e1, e2 = _lp_tables(f, r, g, s, B)
    E = len(labels)
    # 1: p1 e1 != 1_A at a0
    a0 = rng.randrange(A)
    bad1 = list(e1)
    bad1[a0] = next(i for i, (a, _) in enumerate(labels) if a != a0)
    # 2: another section of p1 at an a0 that r does not pick; then
    # e1p1 e2p2 and e2p2 e1p1 differ at e1(a0)
    a0 = rng.choice([a for a in range(A) if r[f[a]] != a])
    bad2 = list(e1)
    bad2[a0] = next(i for i, (a, c) in enumerate(labels)
                    if a == a0 and c != s[f[a0]])
    diagrams = [(1, p1, p2, bad1, e2, E), (2, p1, p2, bad2, e2, E)]
    # 3: a duplicated element
    x0 = rng.randrange(E)
    diagrams.append((3, p1 + [p1[x0]], p2 + [p2[x0]], e1, e2, E + 1))
    # 4: an element off the cross e1(A) u e2(C) removed
    cross = set(e1) | set(e2)
    x0 = rng.choice([x for x in range(E) if x not in cross])
    keep = {x: i for i, x in enumerate(x for x in range(E) if x != x0)}
    diagrams.append((4, [p1[x] for x in keep], [p2[x] for x in keep],
                     [keep[x] for x in e1], [keep[x] for x in e2], E - 1))
    ops = []
    for cond, q1, q2, j1, j2, size in diagrams:
        maps = (FinMap(size, A, q1), FinMap(size, A, q2),
                FinMap(A, size, j1), FinMap(A, size, j2))

        def check(res, cond=cond):
            expect(res.report.verdict == "fails"
                   and res.report.witness["condition"] == cond,
                   f"perturbed diagram fails at condition {cond}")

        ops.append(Op(f"lp_check_fails{cond}@{B}",
                      lambda maps=maps: m.limits.check_local_product_intrinsic(
                          *maps), check))
    return ops


def _kpc_ops(m, rng, D):
    FinMap, D0 = m.finmaps.FinMap, D // 2
    d, c = _random_map(rng, D, D0), _random_map(rng, D, D0)
    span = m.internal.Span(FinMap(D, D0, d), FinMap(D, D0, c))
    ops = []
    for name, first, second, swapped in (("kpc", d, c, False),
                                         ("kpc_swapped", c, d, True)):
        want = cache(lambda first=first, second=second:
                     _triples(first, second, D0))

        def check(k, want=want, swapped=swapped, name=name):
            triples = want()
            expect(list(k.triples) == triples, f"{name} triples")
            xs = tuple(x for x, _, _ in triples)
            zs = tuple(z for _, _, z in triples)
            expect((k.graph.d.table, k.graph.c.table)
                   == ((zs, xs) if swapped else (xs, zs)), f"{name} graph legs")
            expect(all(k.triples[k.delta.table[w]] == (w, w, w)
                       for w in range(D)), f"{name} diagonal")

        ops.append(Op(f"{name}@{D}",
                      lambda name=name: getattr(m.internal, name)(span), check))
    return ops


def _composable_pairs_op(m, rng, D):
    """composable_pairs and validate_reflexive_graph on the graph of a kernel
    pair construction, built here from its triples."""
    FinMap, D0 = m.finmaps.FinMap, D // 2
    triples = _triples(_random_map(rng, D, D0), _random_map(rng, D, D0), D0)
    index = {t: i for i, t in enumerate(triples)}
    C1 = len(triples)
    gd = [x for x, _, _ in triples]
    gc = [z for _, _, z in triples]
    ge = [index[(w, w, w)] for w in range(D)]
    rg = m.internal.ReflexiveGraph(FinMap(C1, D, gd), FinMap(C1, D, gc),
                                   FinMap(D, C1, ge))
    want = cache(lambda: _pairs_over(gd, gc, D))

    def run():
        return (m.internal.composable_pairs(rg),
                m.internal.validate_reflexive_graph(rg))

    def check(out):
        c2, rep = out
        expect(list(c2.labels) == want(), "composable pairs")
        expect(all(c2.labels[c2.e1.table[x]] == (x, ge[gd[x]])
                   for x in range(C1)), "composable pairs e1 = <1, ed>")
        expect(rep.verdict == "holds", "kernel pair graph is reflexive")

    return Op(f"composable_pairs@{D}", run, check)


def sparse_constructions(m, rng, scale, workdir):
    base = SPARSE_BASE[scale]
    ops = []
    for k in (1, 2):
        for _ in range(2):
            ops += _pullback_ops(m, rng, base["pullback"] * k)
            ops.append(_local_product_op(m, rng, base["local_product"] * k))
            ops += _kpc_ops(m, rng, base["kpc"] * k)
            ops.append(_composable_pairs_op(m, rng,
                                            base["composable_pairs"] * k))
    for _ in range(2):
        ops += _perturbed_lp_ops(m, rng, base["local_product"])
    return ops


# --------------------------------------------------------------------------
# dense_kites: kernel-pair kites of group_pair_span(n) and terminal spans

DENSE_SIZES = {"full": {"group": (3, 4, 5, 6), "terminal": (3, 4, 5, 6),
                        "bundle": (2, 3)},
               "smoke": {"group": (2, 3), "terminal": (2, 3),
                         "bundle": (2,)}}


def _group_p(n):
    """Componentwise x - y + z on Z_n x Z_n, elements labelled a * n + b."""
    def p(x, y, z):
        (a1, b1), (a2, b2), (a3, b3) = divmod(x, n), divmod(y, n), divmod(z, n)
        return ((a1 - a2 + a3) % n) * n + (b1 - b2 + b3) % n
    return p


def _kite_m(kd, p):
    """p applied to the triple (x, y, z) that each point of the assembled
    kernel-pair kite stands for: x = alpha p1, y = beta, z = gamma p2."""
    return tuple(p(kd.alpha.table[kd.p1.table[i]], kd.beta.table[i],
                   kd.gamma.table[kd.p2.table[i]]) for i in range(kd.E))


def _free_count(n):
    """Mal'tsev-style ternary operations on an n-set: n^(n (n-1)^2)."""
    return n ** (n * (n - 1) ** 2)


def _dense_span_ops(m, n, group):
    if group:
        span, p = m.gallery.group_pair_span(n), _group_p(n)
        tag, count, E = "group", 1, n ** 4
    else:
        bang = m.finmaps.FinMap(n, 1, (0,) * n)
        span, p = m.internal.Span(bang, bang), None
        tag, count, E = "terminal", _free_count(n), n ** 3

    def solve():
        dk = m.internal.kite_from_span(span)
        kd, _ = m.kitecond.assemble_kite(dk)
        return kd, m.kitecond.check_hypotheses(kd), m.kitecond.solve_m(kd)

    def check_solve(out):
        kd, rep, res = out
        expect(kd.E == E, "kite size")
        expect(rep.verdict == "holds", "kite hypotheses hold")
        expect(res.count == count, "kite multiplication count")
        if p:
            expect(res.solutions[0].table == _kite_m(kd, p),
                   "the unique multiplication is x - y + z")

    triples = cache(lambda: _triples(span.d.table, span.c.table, span.d.cod))

    def check_pregroupoid(res):
        expect(res.count == count, "pregroupoid count")
        if p:
            expect(res.solutions[0].table
                   == tuple(p(*t) for t in triples()),
                   "the unique pregroupoid is x - y + z")

    def check_pairing(rep):
        expect(rep.verdict == "holds", "kite5 pairing holds")

    return [Op(f"kite_solve:{tag}@{n}", solve, check_solve),
            Op(f"pregroupoid:{tag}@{n}",
               lambda: m.kitecond.pregroupoid_solutions(span),
               check_pregroupoid),
            Op(f"kite5_pairing:{tag}@{n}",
               lambda: m.kitecond.kite5_pairing(span), check_pairing)]


def _bundle_op(m, n):
    def run():
        kd, mu, mu_e = m.gallery.group_kite_bundle(n)
        return (kd, m.kitecond.theta(kd, mu),
                m.kitecond.delta_identity_check(kd, mu_e))

    def check(out):
        kd, th, rep = out
        expect(th.m.table == _kite_m(kd, _group_p(n)),
               "theta reproduces x - y + z")
        expect(rep.verdict == "holds", "mid mu delta = 1_E")

    return Op(f"theta_delta@{n}", run, check)


def dense_kites(m, rng, scale, workdir):
    sizes = DENSE_SIZES[scale]
    ops = []
    for n in sizes["group"]:
        ops += _dense_span_ops(m, n, group=True)
    for n in sizes["terminal"]:
        ops += _dense_span_ops(m, n, group=False)
    ops += [_bundle_op(m, n) for n in sizes["bundle"]]
    return ops


# --------------------------------------------------------------------------
# algebra_classify: gallery algebras and seeded commutative magmas

def _cmag(m, n, fn):
    alg = m.algebra
    return alg.OpAlgebra(n, (alg.Operation(
        "*", 2, tuple(fn(x, y) for x in range(n) for y in range(n))),), "cmag")


def _random_cmag(m, rng, n):
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            table[x][y] = table[y][x] = rng.randrange(n)
    return _cmag(m, n, lambda x, y: table[x][y])


def _cancellative(A):
    t, n = A.ops[0].table, A.size
    return all(len({t[x * n + b] for x in range(n)}) == n for b in range(n))


def _divisor_relations(n):
    """Compatible reflexive relations of (Z_n, +): congruences mod d | n."""
    rels = [tuple((x, y) for x in range(n) for y in range(n)
                  if (x - y) % d == 0) for d in range(1, n + 1) if n % d == 0]
    return sorted(rels, key=lambda r: (len(r), r))


def _brute_relations(A):
    """Every reflexive relation closed under all operations (tiny A)."""
    n = A.size
    off = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for mask in range(1 << len(off)):
        rel = {(x, x) for x in range(n)} | {
            q for i, q in enumerate(off) if mask >> i & 1}
        if all((_apply(op.table, n, [a for a, _ in args]),
                _apply(op.table, n, [b for _, b in args])) in rel
               for op in A.ops for args in product(rel, repeat=op.arity)):
            out.append(tuple(sorted(rel)))
    return sorted(out, key=lambda r: (len(r), r))


def _relation_flags(pairs):
    rel = set(pairs)
    symmetric = all((b, a) in rel for a, b in rel)
    transitive = all((a, c) in rel for a, b in rel for b2, c in rel if b == b2)
    difunctional = all((a, d) in rel for a, b in rel for c, b2 in rel
                       if b == b2 for c2, d in rel if c2 == c)
    return symmetric, transitive, difunctional


def _admissibility_brute(A, C, D, f, g, r, s, alpha, gamma):
    """Homomorphisms phi on the pullback A x_B C with phi e1 = alpha and
    phi e2 = gamma, counted by trying every map.  Algebras are given as
    (size, [(arity, table), ...]) in matching signature order."""
    (nA, opsA), (nC, opsC), (nD, opsD) = A, C, D
    labels = [(a, c) for a in range(nA) for c in range(nC) if f[a] == g[c]]
    index = {lab: i for i, lab in enumerate(labels)}
    pins = {index[(a, s[f[a]])]: alpha[a] for a in range(nA)}
    for c in range(nC):
        i = index[(r[g[c]], c)]
        if pins.setdefault(i, gamma[c]) != gamma[c]:
            return 0
    laws = [(index[(_apply(ta, nA, [p[0] for p in args]),
                    _apply(tc, nC, [p[1] for p in args]))],
             td, [index[p] for p in args])
            for (k, ta), (_, tc), (_, td) in zip(opsA, opsC, opsD)
            for args in product(labels, repeat=k)]
    free = [i for i in range(len(labels)) if i not in pins]
    count = 0
    for values in product(range(nD), repeat=len(free)):
        phi = dict(pins)
        phi.update(zip(free, values))
        if all(phi[out] == _apply(td, nD, [phi[i] for i in ins])
               for out, td, ins in laws):
            count += 1
    return count


def _ops_of(alg):
    return alg.size, [(op.arity, op.table) for op in alg.ops]


def _verify_witness(vk):
    return _admissibility_brute(_ops_of(vk.A), _ops_of(vk.C), _ops_of(vk.D),
                                vk.f, vk.g, vk.r, vk.s, vk.alpha, vk.gamma)


def _relation_kite(m, D, pairs):
    """The kite over D with A = C = the subalgebra `pairs` of D x D, all
    four legs the first projection and the diagonal as both sections."""
    alg = m.algebra
    labels = sorted(pairs)
    index = {lab: i for i, lab in enumerate(labels)}
    ops = tuple(alg.Operation(op.symbol, op.arity, tuple(
        index[(_apply(op.table, D.size, [p[0] for p in args]),
               _apply(op.table, D.size, [p[1] for p in args]))]
        for args in product(labels, repeat=op.arity))) for op in D.ops)
    R = alg.OpAlgebra(len(labels), ops, "custom")
    first = tuple(a for a, _ in labels)
    diag = tuple(index[(x, x)] for x in range(D.size))
    return alg.VarietyKite(R, D, R, D, first, diag, diag, first, first,
                           tuple(range(D.size)), first)


def algebra_classify(m, rng, scale, workdir):
    G = m.gallery
    smoke = scale == "smoke"
    meet, join = (_cmag(m, 2, min), _cmag(m, 2, max))
    cyclic = {n: G.cyclic_magma(n) for n in ((3, 4) if smoke else (3, 4, 5, 6, 7))}
    groups = {n: G.cyclic_group(n) for n in ((3, 4) if smoke else (3, 4, 5, 6))}
    chains = {n: G.chain_lattice(n) for n in (2, 3, 4)}
    randoms = [_random_cmag(m, rng, 3) for _ in range(4)]
    randoms += [] if smoke else [_random_cmag(m, rng, 4) for _ in range(2)]
    # (label, algebra, weakly Mal'tsev object?)
    gallery = ([(f"cmag{n}", A, True) for n, A in cyclic.items()]
               + [(f"group{n}", A, True) for n, A in groups.items()]
               + [(f"chain{n}", A, True) for n, A in chains.items()]
               + [("2x2", G.two_by_two_lattice(), True),
                  ("m3", G.m3_lattice(), False), ("n5", G.n5_lattice(), False),
                  ("meet2", meet, False), ("join2", join, False)]
               + [(f"random{A.size}", A, _cancellative(A)) for A in randoms])
    commutative = [(lab, A, wm) for lab, A, wm in gallery
                   if A.variety == "cmag"]
    ops = []

    for lab, A, wm in gallery:
        def check(cls, wm=wm):
            expect(cls.report.verdict == ("holds" if wm else "fails"),
                   "classification")
        ops.append(Op(f"classify:{lab}",
                      lambda A=A: m.algebra.classify_wm_object(A), check))

    for lab, A, _ in commutative:
        def check(rep, A=A):
            expect(rep.verdict == "holds", "cancellation agrees with "
                   "at most one solution")
            expect(f"cancellation: {_cancellative(A)}" in rep.details,
                   "cancellation read correctly")
        ops.append(Op(f"equiv23:{lab}",
                      lambda A=A: m.algebra.equivalence_2_3_check(A), check))

    for n in (4, 5) if smoke else (4, 5, 6):
        for lab, A in ((f"cmag{n}", cyclic.get(n)), (f"group{n}", groups.get(n))):
            if A is None:
                continue

            def check(mt, n=n):
                expect(mt.table == tuple((a - b + c) % n for a in range(n)
                                         for b in range(n) for c in range(n)),
                       "p(a, b, c) = a - b + c")
                expect(mt.unit_laws.ok and mt.hom_law.ok, "Mal'tsev laws hold")
            ops.append(Op(f"maltsev_table:{lab}",
                          lambda A=A: m.algebra.maltsev_table(A), check))

    rel_cases = ([(f"cmag{n}", cyclic[n], _divisor_relations(n)) for n in (4,)]
                 + [(f"group{n}", groups[n], _divisor_relations(n))
                    for n in (4,) + (() if smoke else (5,))]
                 + [("chain3", chains[3], None), ("meet2", meet, None)]
                 + [(f"random{A.size}", A, None) for A in randoms
                    if A.size == 3])
    if not smoke:
        rel_cases.append(("cmag5", cyclic[5], _divisor_relations(5)))
    for lab, A, stored in rel_cases:
        want = cache(lambda A=A, stored=stored: stored or _brute_relations(A))

        def run(A=A):
            rels = m.algebra.reflexive_relations(A)
            return rels, [m.algebra.relation_properties(R) for R in rels]

        def check(out, want=want):
            rels, props = out
            expect([R.pairs for R in rels] == want(), "relation list")
            expect([(p.symmetric, p.transitive, p.difunctional) for p in props]
                   == [_relation_flags(R) for R in want()],
                   "relation properties")
        ops.append(Op(f"relations:{lab}", run, check))

    searches = [("meet2", meet, False, 100), ("join2", join, False, 100),
                ("m3", G.m3_lattice(), False, 20),
                ("cmag3", cyclic[3], True, 100 if not smoke else 20),
                ("chain3", chains[3], True, 50 if not smoke else 10)]
    if not smoke:
        searches += [("n5", G.n5_lattice(), False, 50),
                     ("group3", groups[3], True, 50)]
    searches += [(f"random{A.size}", A, _cancellative(A), 20)
                 for A in randoms[:2]]
    for lab, A, wm, budget in searches:
        def check(kite, wm=wm):
            # None is inconclusive: accepted on a negative, required on a
            # positive; a returned kite must carry two admissibility maps
            if kite is not None:
                expect(not wm, "no witness kite exists on a weakly "
                       "Mal'tsev object")
                expect(_verify_witness(kite) >= 2,
                       "witness kite has two admissibility morphisms")
        ops.append(Op(f"wm_witness_search:{lab}/{budget}",
                      lambda A=A, budget=budget: m.algebra.wm_witness_search(
                          A, budget=budget), check))

    for lab, D, pairs in (("meet2", meet, {(0, 0), (0, 1), (1, 1)}),
                          ("join2", join, {(0, 0), (1, 0), (1, 1)})):
        vk = _relation_kite(m, D, pairs)
        count = _verify_witness(vk)

        def check(res, count=count):
            expect(res.count == count >= 2, "admissibility count")
        ops.append(Op(f"admissibility:{lab}",
                      lambda vk=vk: m.algebra.admissibility_count_variety(vk),
                      check))
    return ops


# --------------------------------------------------------------------------
# cli_requests: the README tour and seeded files through cli.main(argv)

def cli_call(m, argv):
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = m.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _request(m, kind, argv, code, verdict=None, more=None):
    def check(out):
        got, stdout, stderr = out
        expect(got == code, f"exit {got}, expected {code}")
        if code == 2:
            expect(json.loads(stderr)["exit"] == 2, "JSON error on stderr")
            return
        report = json.loads(stdout)
        if verdict is not None:
            expect(report["verdict"] == verdict, f"verdict {report['verdict']}")
        if more:
            more(report)
    return Op(kind, lambda: cli_call(m, argv), check)


def _write(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(obj if isinstance(obj, str) else json.dumps(obj))
    return path


def _fm(dom, cod, table):
    return {"dom": dom, "cod": cod, "table": list(table)}


KNOWN_DEFECT = {"kind": "algebra", "size": 2, "ops": [5]}


def known_defect_requests(workdir):
    """Requests that must exit 2 with a one-line error and, at the
    parent commit, raise TypeError instead."""
    path = _write(workdir, "ops5.json", KNOWN_DEFECT)
    return [["validate", path], ["classify", path]]


def _tour(m, workdir):
    cospan = _write(workdir, "cospan.json", {
        "kind": "split_cospan", "f": _fm(2, 1, [0, 0]), "r": _fm(1, 2, [0]),
        "g": _fm(2, 1, [0, 0]), "s": _fm(1, 2, [0])})
    lp = _write(workdir, "lp.json", {
        "kind": "lp_diagram", "p1": _fm(4, 2, [0, 0, 1, 1]),
        "p2": _fm(4, 2, [0, 1, 0, 1]), "e1": _fm(2, 4, [0, 2]),
        "e2": _fm(2, 4, [0, 1])})
    pair_span = _write(workdir, "pair_span.json", {
        "kind": "span", "d": _fm(4, 2, [0, 0, 1, 1]),
        "c": _fm(4, 2, [0, 1, 0, 1])})
    z3 = _write(workdir, "z3.json", {
        "kind": "algebra", "size": 3, "variety": "cmag",
        "ops": [{"symbol": "*", "arity": 2,
                 "table": [0, 1, 2, 1, 2, 0, 2, 0, 1]}]})
    meet = _write(workdir, "meet.json", {
        "kind": "algebra", "size": 2, "variety": "cmag",
        "ops": [{"symbol": "*", "arity": 2, "table": [0, 0, 0, 1]}]})
    code, out, _ = cli_call(m, ["kite", "build", "--from", "span", pair_span,
                                "--assembled"])
    expect(code == 0, "README kite build")
    kite = _write(workdir, "kite.json", out)
    pair_triples = [list(t) for t in _triples([0, 0, 1, 1], [0, 1, 0, 1], 2)]
    swapped_triples = [list(t) for t in _triples([0, 1, 0, 1], [0, 0, 1, 1], 2)]

    def flags(rep):
        expect(rep["flags"] == [True, False, True]
               and rep["positions"] == [1, None, 1], "ismember flags")

    def one_based(rep):
        expect(rep["positions"] == [2, 0, 2], "one-based positions")

    def lp_labels(rep):
        expect(rep["labels"] == [[0, 0], [0, 1], [1, 0], [1, 1]], "lp labels")

    def witness(rep):
        if "witness_kite" in rep:
            vk = rep["witness_kite"]
            alg = {k: (vk[k]["size"], [(o["arity"], o["table"])
                                       for o in vk[k]["ops"]])
                   for k in "ACD"}
            expect(_admissibility_brute(alg["A"], alg["C"], alg["D"],
                                        *(vk[k] for k in ("f", "g", "r", "s",
                                                          "alpha", "gamma")))
                   >= 2, "witness kite has two admissibility morphisms")
        else:
            expect("witness_search" in rep, "witness search reported")

    def z3_relations(rep):
        expect([[tuple(p) for p in r["pairs"]] for r in rep["relations"]]
               == [list(r) for r in _divisor_relations(3)], "Z3 relations")

    R = _request
    return [
        R(m, "tour-ismember", ["ismember", "-f", "2", "1", "2", "-u", "0", "2"],
          0, "holds", flags),
        R(m, "tour-ismember1", ["ismember", "--one-based", "-f", "3", "2", "3",
                                "-u", "1", "3"], 0, "holds", one_based),
        R(m, "tour-lp", ["lp", cospan], 0, "holds", lp_labels),
        R(m, "tour-lp-check", ["lp-check", lp], 0, "holds"),
        R(m, "tour-pushout-compare", ["pushout-compare", cospan], 1, "fails"),
        R(m, "tour-kpc", ["kpc", pair_span], 0, "holds",
          lambda rep: expect(rep["triples"] == pair_triples, "kpc triples")),
        R(m, "tour-kpc-swapped", ["kpc", pair_span, "--swapped"], 0, "holds",
          lambda rep: expect(rep["triples"] == swapped_triples,
                             "swapped kpc triples")),
        R(m, "tour-kite-build", ["kite", "build", "--from", "span", pair_span,
                                 "--assembled"], 0, "holds"),
        R(m, "tour-kite-check", ["kite", "check", kite], 0, "holds"),
        R(m, "tour-kite-solve", ["kite", "solve", kite], 0, "count:1"),
        R(m, "tour-wm-object1", ["wm-object", "--size", "1"], 0, "holds"),
        R(m, "tour-wm-object2", ["wm-object", "--size", "2"], 1, "fails",
          lambda rep: expect(rep["count"] == 2, "wm-object count")),
        R(m, "tour-wm-object3", ["wm-object", "--size", "3"], 1, "fails",
          lambda rep: expect(rep["count"] == 3 ** 4, "wm-object count")),
        R(m, "tour-classify", ["classify", z3, "--variety", "cmag"], 0,
          "holds"),
        R(m, "tour-maltsev-op", ["maltsev-op", z3, "1", "2", "0"], 0, "holds",
          lambda rep: expect(rep["value"] == (1 - 2 + 0) % 3, "p(1,2,0)")),
        R(m, "tour-classify-witness", ["classify", meet, "--witness-kite"], 1,
          "fails", witness),
        R(m, "tour-relations", ["relations", z3, "--reflexive"], 0, "count:2",
          z3_relations),
        R(m, "tour-equiv23-2", ["equiv23", "--size", "2"], 0, "holds"),
        R(m, "tour-equiv23-3", ["equiv23", "--size", "3"], 0, "holds"),
    ]


def _seeded_files(m, rng, workdir, i):
    """Small random structure files, valid and broken, with their verdicts."""
    R, ops = _request, []
    dom, cod = rng.randint(3, 8), rng.randint(2, 5)
    table = [rng.randrange(cod) for _ in range(dom)]
    ok = _write(workdir, f"finmap{i}.json", {"kind": "finmap",
                                             **_fm(dom, cod, table)})
    table[rng.randrange(dom)] = cod
    bad = _write(workdir, f"finmap_bad{i}.json", {"kind": "finmap",
                                                  **_fm(dom, cod, table)})
    ops += [R(m, "file-finmap", ["validate", ok], 0, "holds"),
            R(m, "file-finmap-out-of-range", ["validate", bad], 2)]

    B = rng.randint(2, 4)
    f, r, g, s = _split_cospan(rng, B)
    A = 2 * B
    sc = {"kind": "split_cospan", "f": _fm(A, B, f), "r": _fm(B, A, r),
          "g": _fm(A, B, g), "s": _fm(B, A, s)}
    labels = [list(p) for p in _pairs_over(f, g, B)]
    cospan = _write(workdir, f"cospan{i}.json", sc)
    # r, s are split monos, so the pushout has A + C - B classes, and the
    # comparison is injective; it is a bijection iff the sizes agree
    bijective = len(labels) == A + A - B
    # r = (0, 1, ..., B-1) is a section of f only if f fixes 0..B-1
    broken_ok = all(f[b] == b for b in range(B))
    bad_cospan = _write(workdir, f"cospan_bad{i}.json",
                        dict(sc, r=_fm(B, A, range(B))))
    ops += [R(m, "file-cospan", ["validate", cospan], 0, "holds"),
            R(m, "file-lp", ["lp", cospan], 0, "holds",
              lambda rep, labels=labels: expect(rep["labels"] == labels,
                                                "lp labels")),
            R(m, "file-pushout-compare", ["pushout-compare", cospan],
              0 if bijective else 1, "holds" if bijective else "fails"),
            R(m, "file-cospan-bad-section", ["validate", bad_cospan],
              0 if broken_ok else 1, "holds" if broken_ok else "fails")]

    # a random relation as a jointly monic span; its kernel-pair kite has
    # one multiplication exactly when the relation is difunctional
    n0 = 3
    rel = sorted(rng.sample([(x, y) for x in range(n0) for y in range(n0)],
                            rng.randint(2, 6)))
    d, c = [x for x, _ in rel], [y for _, y in rel]
    D = len(rel)
    span = _write(workdir, f"span{i}.json", {
        "kind": "span", "d": _fm(D, n0, d), "c": _fm(D, n0, c)})
    pf = [(x, y) for x in range(D) for y in range(D) if d[x] == d[y]]
    ps = [(y, z) for y in range(D) for z in range(D) if c[y] == c[z]]
    dkite = _write(workdir, f"dkite{i}.json", {
        "kind": "directed_kite",
        "f": _fm(len(pf), D, [y for _, y in pf]),
        "r": _fm(D, len(pf), [pf.index((y, y)) for y in range(D)]),
        "s": _fm(D, len(ps), [ps.index((y, y)) for y in range(D)]),
        "g": _fm(len(ps), D, [y for y, _ in ps]),
        "alpha": _fm(len(pf), D, [x for x, _ in pf]),
        "beta": _fm(D, D, range(D)),
        "gamma": _fm(len(ps), D, [z for _, z in ps]),
        "d": _fm(D, n0, d), "c": _fm(D, n0, c)})
    count = int(_relation_flags(rel)[2])
    triples = [list(t) for t in _triples(d, c, n0)]
    ops += [R(m, "file-span", ["validate", span], 0, "holds"),
            R(m, "file-kpc", ["kpc", span], 0, "holds",
              lambda rep, t=triples: expect(rep["triples"] == t,
                                            "kpc triples")),
            R(m, "file-kite-check", ["kite", "check", dkite], 0, "holds"),
            R(m, "file-kite-solve", ["kite", "solve", dkite], 1 - count,
              f"count:{count}")]

    # the kernel-pair graph of that span, intact and with e broken
    index = {tuple(t): j for j, t in enumerate(triples)}
    e = [index[(w, w, w)] for w in range(D)]
    rg = {"kind": "reflexive_graph",
          "d": _fm(len(triples), D, [t[0] for t in triples]),
          "c": _fm(len(triples), D, [t[2] for t in triples]),
          "e": _fm(D, len(triples), e)}
    rg_ok = _write(workdir, f"rg{i}.json", rg)
    rg_bad = _write(workdir, f"rg_bad{i}.json",     # d e (0) = 1
                    dict(rg, e=_fm(D, len(triples), [e[1]] + e[1:])))
    ops += [R(m, "file-reflexive-graph", ["validate", rg_ok], 0, "holds"),
            R(m, "file-reflexive-graph-law", ["validate", rg_bad], 1, "fails")]

    n = 3
    mag = _random_cmag(m, rng, n)
    alg = {"kind": "algebra", "size": n, "variety": "cmag",
           "ops": [{"symbol": "*", "arity": 2, "table": list(mag.ops[0].table)}]}
    skew = [rng.randrange(n) for _ in range(n * n)]
    skew[1], skew[3] = 0, 1
    path = _write(workdir, f"alg{i}.json", alg)
    skew_path = _write(workdir, f"alg_skew{i}.json", dict(
        alg, ops=[{"symbol": "*", "arity": 2, "table": skew}]))
    wm = _cancellative(mag)
    ops += [R(m, "file-algebra", ["validate", path], 0, "holds"),
            R(m, "file-classify", ["classify", path], 0 if wm else 1,
              "holds" if wm else "fails"),
            R(m, "file-algebra-not-commutative", ["validate", skew_path], 1,
              "fails")]
    return ops


def _fixed_files(m, workdir):
    """Z_3 and a non-associative unital magma as one-object categories,
    malformed and incomplete files, and a schema request."""
    R, ops = _request, []
    pairs = [(x, y) for x in range(3) for y in range(3)]
    loop = [0, 1, 2, 1, 0, 0, 2, 0, 1]     # unit 0, (1*1)*2 != 1*(1*2)
    for label, table, code, verdict in (
            ("group", [(x + y) % 3 for x, y in pairs], 0, "holds"),
            ("loop", loop, 1, "fails")):
        path = _write(workdir, f"category_{label}.json", {
            "kind": "category", "d": _fm(3, 1, [0] * 3),
            "c": _fm(3, 1, [0] * 3), "e": _fm(1, 3, [0]),
            "m": _fm(9, 3, table)})
        ops.append(R(m, f"file-category-{label}", ["validate", path], code,
                     verdict))
    malformed = _write(workdir, "malformed.json", '{"kind": "finmap", "dom": 2,')
    no_kind = _write(workdir, "no_kind.json", {"dom": 1})
    no_field = _write(workdir, "no_field.json",
                      {"kind": "span", "d": _fm(1, 1, [0])})
    ops += [R(m, "file-malformed-json", ["validate", malformed], 2),
            R(m, "file-missing-kind", ["validate", no_kind], 2),
            R(m, "file-missing-field", ["validate", no_field], 2),
            R(m, "file-schema", ["--schema", "span"], 0)]
    return ops


def cli_requests(m, rng, scale, workdir):
    ops = _tour(m, workdir) + _fixed_files(m, workdir)
    for i in range(1 if scale == "smoke" else 2):
        ops += _seeded_files(m, rng, workdir, i)
    return ops


WORKLOADS = {
    "sparse_constructions": sparse_constructions,
    "dense_kites": dense_kites,
    "algebra_classify": algebra_classify,
    "cli_requests": cli_requests,
}


def first_of_each_type(ops):
    """The warm-up: the first op of each op type, in workload order."""
    firsts = {}
    for op in ops:
        firsts.setdefault(op.kind.split("@")[0].split(":")[0], op)
    return list(firsts.values())
