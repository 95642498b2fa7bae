"""Internal categorical structures over finite sets as validated data.

Reflexive graphs, (unital) multiplicative graphs, categories, groupoids,
pregroupoids and directed kites, plus the kernel pair construction that
turns a span into a reflexive graph on triples.  Violated equations are
verdicts, never exceptions; only malformed shapes raise.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .errors import DomainMismatch, IllTyped, NonCommutingSquare
from .finmaps import (FinMap, compose, first_mismatch, identity, index_of,
                      pairing_is_injective, solve_cross)
from .limits import (LocalProduct, SplitCospan, kernel_pair, local_product,
                     pullback)
from .report import Report, fails, holds


@dataclass(frozen=True)
class Span:
    """Two legs d: D -> D0 and c: D -> D1 out of a common apex."""

    d: FinMap
    c: FinMap

    def __post_init__(self):
        if self.d.dom != self.c.dom:
            raise DomainMismatch("span legs must share their apex")

    @property
    def D(self) -> int:
        return self.d.dom


@dataclass(frozen=True)
class ReflexiveGraph:
    d: FinMap
    c: FinMap
    e: FinMap

    def __post_init__(self):
        if self.c.dom != self.d.dom or self.c.cod != self.d.cod:
            raise DomainMismatch("d and c must be parallel")
        if self.e.dom != self.d.cod or self.e.cod != self.d.dom:
            raise DomainMismatch("e must go C0 -> C1")

    @property
    def C1(self) -> int:
        return self.d.dom

    @property
    def C0(self) -> int:
        return self.d.cod


def _first_violation(checks, labels=None, key="equation") -> Optional[Report]:
    """The failing "validate" report of the first (name, lhs, rhs) whose
    sides differ, at the least element where they do (read through
    labels when given), or None when every equation holds."""
    for name, lhs, rhs in checks:
        w = first_mismatch(lhs, rhs)
        if w is not None:
            return fails("validate", {key: name, "element":
                                      w if labels is None else list(labels[w])})
    return None


def _require_valid(rep: Report, what: str, error=IllTyped) -> None:
    """Raise error for a failing report, its witness written as JSON."""
    if not rep.ok:
        raise error(f"{what}: {json.dumps(rep.witness, sort_keys=True)}")


def validate_reflexive_graph(rg: ReflexiveGraph) -> Report:
    one = identity(rg.C0)
    return _first_violation((("d e = 1", compose(rg.d, rg.e), one),
                             ("c e = 1", compose(rg.c, rg.e), one))) or \
        holds("validate", ["d e = 1 and c e = 1"])


@dataclass(frozen=True)
class C2Data:
    """The canonical object of composable pairs of a reflexive graph."""

    labels: tuple[tuple[int, int], ...]
    pi1: FinMap
    pi2: FinMap
    e1: FinMap
    e2: FinMap

    @property
    def size(self) -> int:
        return len(self.labels)


def composable_pairs(rg: ReflexiveGraph) -> C2Data:
    """The local product of (d, e, c, e): pairs (x, y) with d(x) = c(y),
    lex ordered, with projections and the injections e1 = <1, ed> and
    e2 = <ec, 1>.  It exists only when d e = 1 = c e, so any other graph
    is IllTyped, naming the first law that fails."""
    _require_valid(validate_reflexive_graph(rg), "graph is not reflexive")
    lp = local_product(SplitCospan(rg.d, rg.e, rg.c, rg.e))
    return C2Data(lp.element_labels, lp.p1, lp.p2, lp.e1, lp.e2)


@dataclass(frozen=True)
class MultiplicativeGraph:
    rg: ReflexiveGraph
    m: FinMap
    c2: C2Data = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        c2 = composable_pairs(self.rg)
        if self.m.dom != c2.size or self.m.cod != self.rg.C1:
            raise DomainMismatch("m must go C2 -> C1 for the canonical C2")
        object.__setattr__(self, "c2", c2)


def validate_multiplicative_graph(mg: MultiplicativeGraph) -> Report:
    """d m = d pi2 and c m = c pi1; d e = 1 = c e already hold, since
    composable_pairs rejects any other graph."""
    d, c, c2 = mg.rg.d, mg.rg.c, mg.c2
    return _first_violation(
        (("d m = d pi2", compose(d, mg.m), compose(d, c2.pi2)),
         ("c m = c pi1", compose(c, mg.m), compose(c, c2.pi1))),
        c2.labels) or holds("validate", ["multiplicative graph equations hold"])


def validate_unital_multiplicative_graph(mg: MultiplicativeGraph) -> Report:
    rep = validate_multiplicative_graph(mg)
    if not rep.ok:
        return rep
    one = identity(mg.rg.C1)
    return _first_violation((("m e1 = 1", compose(mg.m, mg.c2.e1), one),
                             ("m e2 = 1", compose(mg.m, mg.c2.e2), one))) or \
        holds("validate", ["unital multiplicative graph equations hold"])


def validate_category(mg: MultiplicativeGraph) -> Report:
    rep = validate_unital_multiplicative_graph(mg)
    if not rep.ok:
        return rep
    labels = mg.c2.labels
    index = index_of(labels)
    m = mg.m.table
    # Composable triples (x, y, z): the pairs (x, y) and (y, z) joined on y.
    for i, j in pullback(mg.c2.pi1, mg.c2.pi2).labels:
        (x, y), z = labels[i], labels[j][1]
        if m[index[(x, m[j])]] != m[index[(m[i], z)]]:
            return fails("validate", {"equation": "m(1 x m) = m(m x 1)",
                                      "element": [x, y, z]})
    return holds("validate", ["associativity holds on composable triples"])


def validate_groupoid(mg: MultiplicativeGraph) -> Report:
    """A category is a groupoid iff the comparison <m, pi2> from C2 to
    the kernel pair of d is a bijection (the relevant square is then a
    pullback).  It lands there, as d m = d pi2, so it is a bijection iff
    it is injective and C2 has sum |d^-1(o)|^2 points, as many as the
    kernel pair, which is built only to name a pair missed."""
    rep = validate_category(mg)
    if not rep.ok:
        return rep
    labels, pi2 = mg.c2.labels, mg.c2.pi2
    clash = pairing_is_injective(mg.m, pi2)
    if clash is not None:
        return fails("validate", {"equation": "<m, pi2> is not injective",
                                  "element": [list(labels[i]) for i in clash]})
    if mg.c2.size != sum(n * n for n in Counter(mg.rg.d.table).values()):
        hit = set(zip(mg.m.table, pi2.table))
        miss = next(pair for pair in kernel_pair(mg.rg.d).pairs
                    if pair not in hit)
        return fails("validate", {"equation": "<m, pi2> is not surjective",
                                  "element": list(miss)})
    return holds("validate", ["<m, pi2> is a bijection onto the kernel pair of d"])


@dataclass(frozen=True)
class KpcResult:
    """The kernel pair construction applied to a span.

    Triples (x, y, z) with first(x) = first(y) and second(y) = second(z),
    lex ordered.  For the plain construction first = d and second = c and
    the graph maps are dom = x, cod = z; for the swapped construction
    first = c, second = d and the graph maps are dom = z, cod = x.
    lp is the local product whose points are the triples.
    """

    span: Span
    swapped: bool
    triples: tuple[tuple[int, int, int], ...]
    pairs_first: tuple[tuple[int, int], ...]
    pairs_second: tuple[tuple[int, int], ...]
    d1: FinMap
    d2: FinMap
    c1: FinMap
    c2: FinMap
    p1: FinMap
    p2: FinMap
    e1: FinMap
    e2: FinMap
    dom: FinMap
    mid: FinMap
    cod: FinMap
    delta: FinMap
    graph: ReflexiveGraph
    lp: LocalProduct = field(init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.triples)


def _kpc_generic(span: Span, first: FinMap, second: FinMap, swapped: bool) -> KpcResult:
    # The triples are the local product of the kernel pairs of first and
    # second over D, split by their diagonals: pairs (x, y) and (y, z)
    # joined on y, with e1 (x, y) = (x, y, y) and e2 (y, z) = (y, y, z).
    kf, ks = kernel_pair(first), kernel_pair(second)
    lp = local_product(SplitCospan(kf.p2, kf.diagonal, ks.p1, ks.diagonal))
    proj_x = compose(kf.p1, lp.p1)
    proj_y = compose(kf.p2, lp.p1)
    proj_z = compose(ks.p2, lp.p2)
    triples = tuple(zip(proj_x.table, proj_y.table, proj_z.table))
    delta = compose(lp.e1, kf.diagonal)
    dom, cod = (proj_z, proj_x) if swapped else (proj_x, proj_z)
    graph = ReflexiveGraph(dom, cod, delta)
    k = KpcResult(span, swapped, triples, kf.pairs, ks.pairs,
                  kf.p1, kf.p2, ks.p1, ks.p2, lp.p1, lp.p2, lp.e1, lp.e2,
                  dom, proj_y, cod, delta, graph)
    object.__setattr__(k, "lp", lp)
    return k


def kpc(span: Span) -> KpcResult:
    """The kernel pair construction K(D, d, c)."""
    return _kpc_generic(span, span.d, span.c, swapped=False)


def kpc_swapped(span: Span) -> KpcResult:
    """K(D, c, d): roles of d and c interchanged, dom<x,y,z> = z."""
    return _kpc_generic(span, span.c, span.d, swapped=True)


@dataclass(frozen=True)
class Pregroupoid:
    """A span plus p on its triple object from the kernel pair construction."""

    span: Span
    p: FinMap
    k: KpcResult = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        k = kpc(self.span)
        if self.p.dom != k.size or self.p.cod != self.span.D:
            raise DomainMismatch("p must go D(d,c) -> D for the canonical triples")
        object.__setattr__(self, "k", k)


def validate_pregroupoid(pg: Pregroupoid) -> Report:
    k, p, span = pg.k, pg.p, pg.span
    for i, (x, y, z) in enumerate(k.triples):
        if y == z and p.table[i] != x:
            return fails("validate", {"equation": "p(x,y,y) = x",
                                      "element": [x, y, z]})
        if x == y and p.table[i] != z:
            return fails("validate", {"equation": "p(y,y,z) = z",
                                      "element": [x, y, z]})
    for i, (x, y, z) in enumerate(k.triples):
        if span.d.table[p.table[i]] != span.d.table[z]:
            return fails("validate", {"equation": "d p(x,y,z) = d(z)",
                                      "element": [x, y, z]})
        if span.c.table[p.table[i]] != span.c.table[x]:
            return fails("validate", {"equation": "c p(x,y,z) = c(x)",
                                      "element": [x, y, z]})
    return holds("validate", ["pregroupoid equations hold"])


def pregroupoid_associative(pg: Pregroupoid) -> Report:
    """p(p(x,y,z),u,v) = p(x,y,p(z,u,v)) over all admissible quintuples:
    the triples joined on d(z) = d(u) with the kernel pair (u, v) of c,
    lex ordered, so the work is the number of quintuples."""
    rep = validate_pregroupoid(pg)
    if not rep.ok:
        return rep
    k, p = pg.k, pg.p.table
    t_index = index_of(k.triples)
    # k.c1 and k.pairs_second are the kernel pair of c.
    d = pg.span.d
    for i, j in pullback(compose(d, k.c1), compose(d, k.cod)).labels:
        (x, y, z), (u, v) = k.triples[i], k.pairs_second[j]
        left = p[t_index[(p[i], u, v)]]
        right = p[t_index[(x, y, p[t_index[(z, u, v)]])]]
        if left != right:
            return fails("validate",
                         {"equation": "p(p(x,y,z),u,v) = p(x,y,p(z,u,v))",
                          "element": [x, y, z, u, v]})
    return holds("validate", ["pregroupoid is associative"])


@dataclass(frozen=True)
class DirectedKite:
    """A split cospan with three legs into D, directed by a span on D."""

    f: FinMap
    r: FinMap
    s: FinMap
    g: FinMap
    alpha: FinMap
    beta: FinMap
    gamma: FinMap
    d: FinMap
    c: FinMap
    lp: Optional[LocalProduct] = field(default=None, init=False,
                                       compare=False, repr=False)

    def __post_init__(self):
        A, B, C = self.f.dom, self.f.cod, self.g.dom
        D = self.alpha.cod
        if (self.r.dom, self.r.cod) != (B, A):
            raise DomainMismatch("r must go B -> A")
        if (self.s.dom, self.s.cod) != (B, C):
            raise DomainMismatch("s must go B -> C")
        if self.g.cod != B:
            raise DomainMismatch("g must land in B")
        if self.alpha.dom != A or self.beta.dom != B or self.gamma.dom != C:
            raise DomainMismatch("alpha, beta, gamma must start at A, B, C")
        if self.beta.cod != D or self.gamma.cod != D:
            raise DomainMismatch("alpha, beta, gamma must share a codomain D")
        if self.d.dom != D or self.c.dom != D:
            raise DomainMismatch("the direction span must start at D")


def _kite_local_product(dk: DirectedKite) -> LocalProduct:
    """The local product of dk's split cospan, built once and kept on dk
    (a kernel-pair kite has it from its kpc)."""
    if dk.lp is None:
        object.__setattr__(dk, "lp", local_product(
            SplitCospan(dk.f, dk.r, dk.g, dk.s)))
    return dk.lp


def validate_directed_kite(dk: DirectedKite) -> Report:
    checks = (
        ("f r = 1_B", compose(dk.f, dk.r), identity(dk.f.cod)),
        ("g s = 1_B", compose(dk.g, dk.s), identity(dk.g.cod)),
        ("alpha r = beta", compose(dk.alpha, dk.r), dk.beta),
        ("gamma s = beta", compose(dk.gamma, dk.s), dk.beta),
        ("d alpha = d beta f", compose(dk.d, dk.alpha),
         compose(dk.d, compose(dk.beta, dk.f))),
        ("c beta g = c gamma", compose(dk.c, compose(dk.beta, dk.g)),
         compose(dk.c, dk.gamma)),
    )
    return _first_violation(checks) or \
        holds("validate", ["directed kite equations hold"])


def kite_from_rg(rg: ReflexiveGraph) -> DirectedKite:
    """Multiplications on this kite are the unital multiplicative
    structures on the graph."""
    _require_valid(validate_reflexive_graph(rg), "invalid reflexive graph")
    one = identity(rg.C1)
    return DirectedKite(f=rg.d, r=rg.e, s=rg.e, g=rg.c,
                        alpha=one, beta=rg.e, gamma=one, d=rg.d, c=rg.c)


def kite_from_umg(mg: MultiplicativeGraph) -> DirectedKite:
    _require_valid(validate_unital_multiplicative_graph(mg),
                   "invalid unital multiplicative graph")
    return DirectedKite(f=mg.c2.pi2, r=mg.c2.e2, s=mg.c2.e1, g=mg.c2.pi1,
                        alpha=mg.m, beta=identity(mg.rg.C1), gamma=mg.m,
                        d=mg.rg.d, c=mg.rg.c)


def kite_from_cat(mg: MultiplicativeGraph) -> DirectedKite:
    _require_valid(validate_category(mg), "invalid internal category")
    return DirectedKite(f=mg.m, r=mg.c2.e2, s=mg.c2.e1, g=mg.m,
                        alpha=mg.c2.pi2, beta=identity(mg.rg.C1), gamma=mg.c2.pi1,
                        d=mg.rg.d, c=mg.rg.c)


@dataclass(frozen=True)
class RGMorphism:
    src: ReflexiveGraph
    dst: ReflexiveGraph
    f1: FinMap
    f0: FinMap

    def __post_init__(self):
        if self.f1.dom != self.src.C1 or self.f1.cod != self.dst.C1:
            raise DomainMismatch("f1 must go C1 -> C1'")
        if self.f0.dom != self.src.C0 or self.f0.cod != self.dst.C0:
            raise DomainMismatch("f0 must go C0 -> C0'")


def validate_rg_morphism(h: RGMorphism) -> Report:
    checks = (
        ("d' f1 = f0 d", compose(h.dst.d, h.f1), compose(h.f0, h.src.d)),
        ("c' f1 = f0 c", compose(h.dst.c, h.f1), compose(h.f0, h.src.c)),
        ("f1 e = e' f0", compose(h.f1, h.src.e), compose(h.dst.e, h.f0)),
    )
    return _first_violation(checks) or \
        holds("validate", ["reflexive graph morphism squares commute"])


def kite_from_rg_morphism(h: RGMorphism) -> DirectedKite:
    _require_valid(validate_rg_morphism(h), "invalid graph morphism")
    rg, rg2 = h.src, h.dst
    return DirectedKite(f=rg.d, r=rg.e, s=rg.e, g=rg.c,
                        alpha=h.f1, beta=compose(rg2.e, h.f0), gamma=h.f1,
                        d=rg2.d, c=rg2.c)


def kite_from_span(span: Span) -> DirectedKite:
    """The kernel pair construction as a directed kite; its
    multiplications correspond to pregroupoid structures on the span."""
    return _kite_from_kpc(kpc(span))


def _kite_from_kpc(k: KpcResult) -> DirectedKite:
    """kite_from_span on the kernel pair construction k of its span."""
    # r and s are the diagonals y -> (y, y) of the two kernel pairs: the
    # split cospan that k's local product was built on.
    r, s = compose(k.p1, k.delta), compose(k.p2, k.delta)
    dk = DirectedKite(f=k.d2, r=r, s=s, g=k.c1,
                      alpha=k.d1, beta=identity(k.span.D), gamma=k.c2,
                      d=k.span.d, c=k.span.c)
    object.__setattr__(dk, "lp", k.lp)
    return dk


@dataclass(frozen=True)
class DirectedKiteMorphism:
    """Component maps between two directed kites; every named square of
    the combined diagram is required to commute."""

    src: DirectedKite
    dst: DirectedKite
    hA: FinMap
    hB: FinMap
    hC: FinMap
    hD: FinMap
    h0: FinMap
    h1: FinMap


def validate_kite_morphism(h: DirectedKiteMorphism) -> Report:
    k, k2 = h.src, h.dst
    squares = (
        ("f' hA = hB f", compose(k2.f, h.hA), compose(h.hB, k.f)),
        ("r' hB = hA r", compose(k2.r, h.hB), compose(h.hA, k.r)),
        ("s' hB = hC s", compose(k2.s, h.hB), compose(h.hC, k.s)),
        ("g' hC = hB g", compose(k2.g, h.hC), compose(h.hB, k.g)),
        ("alpha' hA = hD alpha", compose(k2.alpha, h.hA), compose(h.hD, k.alpha)),
        ("beta' hB = hD beta", compose(k2.beta, h.hB), compose(h.hD, k.beta)),
        ("gamma' hC = hD gamma", compose(k2.gamma, h.hC), compose(h.hD, k.gamma)),
        ("d' hD = h0 d", compose(k2.d, h.hD), compose(h.h0, k.d)),
        ("c' hD = h1 c", compose(k2.c, h.hD), compose(h.h1, k.c)),
    )
    return _first_violation(squares, key="square") or \
        holds("validate", ["all nine named squares commute"])


def induced_kite(h: DirectedKiteMorphism) -> DirectedKite:
    """The composite kite: the source cospan with legs pushed into D'."""
    _require_valid(validate_kite_morphism(h), "invalid kite morphism",
                   NonCommutingSquare)
    k, k2 = h.src, h.dst
    return DirectedKite(f=k.f, r=k.r, s=k.s, g=k.g,
                        alpha=compose(h.hD, k.alpha),
                        beta=compose(h.hD, k.beta),
                        gamma=compose(h.hD, k.gamma),
                        d=k2.d, c=k2.c)


def compat_check(h: DirectedKiteMorphism, m: FinMap, m2: FinMap) -> Report:
    """Whether hD m = m' (hA x_hB hC) on the induced pullback map."""
    _require_valid(validate_kite_morphism(h), "invalid kite morphism",
                   NonCommutingSquare)
    lp, lp2 = _kite_local_product(h.src), _kite_local_product(h.dst)
    if m.dom != lp.E or m.cod != h.src.alpha.cod:
        raise DomainMismatch("m must go A x_B C -> D")
    if m2.dom != lp2.E or m2.cod != h.dst.alpha.cod:
        raise DomainMismatch("m' must go A' x_B' C' -> D'")
    index2 = index_of(lp2.element_labels)
    induced = FinMap(lp.E, lp2.E,
                     tuple(index2[(h.hA.table[a], h.hC.table[c])]
                           for (a, c) in lp.element_labels))
    w = first_mismatch(compose(h.hD, m), compose(m2, induced))
    if w is not None:
        return fails("compat", {"element": list(lp.element_labels[w])})
    return holds("compat", ["hD m = m' (hA x_hB hC)"])


def umg_multiplications(rg: ReflexiveGraph) -> list[FinMap]:
    """All unital multiplicative structures on a reflexive graph, in
    lexicographic table order (brute force; small graphs only)."""
    c2 = composable_pairs(rg)
    one = identity(rg.C1)
    return list(solve_cross(c2.e1, one, c2.e2, one, rg.d, rg.c,
                            compose(rg.d, c2.pi2), compose(rg.c, c2.pi1),
                            math.inf, "umg").solutions)
