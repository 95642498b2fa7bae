"""The kite condition as an executable checker and solver.

A kite diagram is a local-product-shaped square (p1, p2, e1, e2) with
three legs alpha, beta, gamma into a span (D, d, c).  Over finite sets
the solver pins a candidate multiplication on the cross e1(A) u e2(C)
and on the (d, c)-fibres; whatever remains is genuinely free, so the
solution count is the product of the remaining fibre sizes.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DomainMismatch, HypothesisViolation, IllTyped
from .finmaps import (FinMap, SolveResult, compose, first_mismatch, identity,
                      index_of, solve_cross)
from .internal import (C2Data, DirectedKite, KpcResult, Span, _kite_from_kpc,
                       _kite_local_product, _require_valid, composable_pairs,
                       kpc, validate_directed_kite)
from .limits import (LocalProduct, SplitCospan, _failed_condition,
                     _failed_conditions_1_to_3, local_product)
from .report import Report, fails, holds


@dataclass(frozen=True)
class KiteDiagram:
    """A kite; hypotheses keeps the check_hypotheses report once decided."""

    p1: FinMap
    p2: FinMap
    e1: FinMap
    e2: FinMap
    alpha: FinMap
    beta: FinMap
    gamma: FinMap
    d: FinMap
    c: FinMap
    hypotheses: Optional[Report] = field(default=None, init=False,
                                         compare=False, repr=False)

    def __post_init__(self):
        E, A, C = self.p1.dom, self.p1.cod, self.p2.cod
        D = self.alpha.cod
        if self.p2.dom != E:
            raise DomainMismatch("p1 and p2 must share their domain E")
        if (self.e1.dom, self.e1.cod) != (A, E):
            raise DomainMismatch("e1 must go A -> E")
        if (self.e2.dom, self.e2.cod) != (C, E):
            raise DomainMismatch("e2 must go C -> E")
        if self.alpha.dom != A or self.gamma.dom != C or self.beta.dom != E:
            raise DomainMismatch("alpha, beta, gamma must start at A, E, C")
        if self.beta.cod != D or self.gamma.cod != D:
            raise DomainMismatch("alpha, beta, gamma must land in D")
        if self.d.dom != D or self.c.dom != D:
            raise DomainMismatch("the span must start at D")

    @property
    def E(self) -> int:
        return self.p1.dom

    @property
    def A(self) -> int:
        return self.p1.cod

    @property
    def C(self) -> int:
        return self.p2.cod

    @property
    def D(self) -> int:
        return self.alpha.cod

    @property
    def span(self) -> Span:
        return Span(self.d, self.c)


def assemble_kite(dk: DirectedKite) -> tuple[KiteDiagram, LocalProduct]:
    """Complete a directed kite with its local product, kept on dk; beta
    is induced through the common composite f p1 = g p2."""
    _require_valid(validate_directed_kite(dk), "invalid directed kite")
    lp = _kite_local_product(dk)
    beta_e = compose(dk.beta, compose(dk.f, lp.p1))
    kd = KiteDiagram(lp.p1, lp.p2, lp.e1, lp.e2,
                     dk.alpha, beta_e, dk.gamma, dk.d, dk.c)
    return kd, lp


def check_hypotheses(k: KiteDiagram) -> Report:
    """Conditions (1)-(5) elementwise; the kernel pair construction
    always exists in finite sets, so (6) is reported as automatic.
    Decided once per kite: the report is kept on k and returned again."""
    if k.hypotheses is None:
        object.__setattr__(k, "hypotheses", _hypotheses(k))
    return k.hypotheses


def _hypotheses(k: KiteDiagram) -> Report:
    cmd = "kite-check"
    rep = _failed_conditions_1_to_3(cmd, "(e1p1)(e2p2) != (e2p2)(e1p1)",
                                    k.p1, k.p2, k.e1, k.e2)
    if rep is not None:
        return rep
    # alpha p1 e2 p2 and gamma p2 e1 p1, composed on A and C first.
    a_leg = compose(compose(k.alpha, compose(k.p1, k.e2)), k.p2)
    g_leg = compose(compose(k.gamma, compose(k.p2, k.e1)), k.p1)
    return _failed_condition(cmd, (
        (4, "alpha p1 e2 p2 != beta", a_leg, k.beta),
        (4, "gamma p2 e1 p1 != beta", g_leg, k.beta),
        (5, "d alpha p1 != d alpha p1 e2 p2",
         compose(k.d, compose(k.alpha, k.p1)), compose(k.d, a_leg)),
        (5, "c gamma p2 != c gamma p2 e1 p1",
         compose(k.c, compose(k.gamma, k.p2)), compose(k.c, g_leg)))) or \
        holds(cmd, ["conditions 1-5 hold",
                    "condition 6 (kernel pair construction) is automatic "
                    "over finite sets"])


def solve_m(k: KiteDiagram, cap: int = 1000) -> SolveResult:
    """All m: E -> D with m e1 = alpha, m e2 = gamma, d m = d gamma p2
    and c m = c alpha p1, in lexicographic order."""
    rep = check_hypotheses(k)
    if not rep.ok:
        raise HypothesisViolation(f"kite hypotheses fail: {rep.witness}")
    return solve_cross(k.e1, k.alpha, k.e2, k.gamma, k.d, k.c,
                       compose(k.d, compose(k.gamma, k.p2)),
                       compose(k.c, compose(k.alpha, k.p1)), cap, "kite-solve")


@dataclass(frozen=True)
class UnitalMultiplication:
    """A unital multiplication mu: C2 -> C1 on the graph of the kernel pair
    construction k, c2 its composable pairs; validated once, when built."""

    k: KpcResult
    c2: C2Data
    mu: FinMap

    def __post_init__(self):
        k, c2, mu = self.k, self.c2, self.mu
        if mu.dom != c2.size or mu.cod != k.size:
            raise DomainMismatch("mu must go C2 -> C1 of the constructed graph")
        one = identity(k.size).table
        if compose(mu, c2.e1).table != one:
            raise IllTyped("mu e1 != 1 on the triple object")
        if compose(mu, c2.e2).table != one:
            raise IllTyped("mu e2 != 1 on the triple object")
        if compose(k.graph.d, mu).table != compose(k.graph.d, c2.pi2).table:
            raise IllTyped("dom mu != dom pi2")
        if compose(k.graph.c, mu).table != compose(k.graph.c, c2.pi1).table:
            raise IllTyped("cod mu != cod pi1")


def maltsev_mu(k: KpcResult,
               p: Callable[[int, int, int], int]) -> UnitalMultiplication:
    """The multiplication mu(U, V) = p(U, diag(dom U), V), applied
    componentwise to triples, on the graph produced by a kernel pair
    construction.  p must behave as a Mal'tsev operation on the base
    and be compatible with the span legs, otherwise the produced table
    leaves the triple object and the construction is rejected.

    Cost: one call of p per composable pair, for the mid component, and
    two per triple: as dom U = cod V, the cod component p(cod U, dom U,
    dom U) reads U alone and the dom component p(cod V, cod V, dom V) V
    alone, so p must be pure.  The calls dominate, so pass a p that
    looks its value up in a table rather than computing it."""
    c2 = composable_pairs(k.graph)
    dom, mid, cod = k.dom.table, k.mid.table, k.cod.table
    # Triples keyed (cod, mid, dom): (z, y, x) plain, (x, y, z) swapped.
    t_index = index_of(zip(cod, mid, dom))
    at_cod, at_dom = list(map(p, cod, dom, dom)), list(map(p, cod, cod, dom))
    table = []
    for ui, vi in zip(c2.pi1.table, c2.pi2.table):
        w = (at_cod[ui], p(mid[ui], dom[ui], mid[vi]), at_dom[vi])
        t = t_index.get(w)
        if t is None:
            raise IllTyped(f"mu image {w if k.swapped else w[::-1]} "
                           "leaves the triple object")
        table.append(t)
    return UnitalMultiplication(k, c2,
                                FinMap._derived(c2.size, k.size, tuple(table)))


@dataclass(frozen=True)
class ThetaResult:
    theta: FinMap
    m: FinMap


def theta(k: KiteDiagram, mul: UnitalMultiplication) -> ThetaResult:
    """The pairing <<alpha p1, alpha p1, beta>, <beta, gamma p2, gamma p2>>
    into the composable pairs of mul, which must be built on the swapped
    kernel pair construction of (D, d, c), and the solution m = mid mu theta."""
    rep = check_hypotheses(k)
    if not rep.ok:
        raise HypothesisViolation(f"kite hypotheses fail: {rep.witness}")
    return _theta(k, mul)


def _theta(k: KiteDiagram, mul: UnitalMultiplication) -> ThetaResult:
    """theta on a kite whose hypotheses are known to hold.  The kpc
    triples follow the lex labels of pullback(c1, d2) and the composable
    pairs are pullback labels, so both are lex ordered: each key is
    bisected, then compared with the label found."""
    kswap, c2 = mul.k, mul.c2
    if not kswap.swapped or kswap.span != k.span:
        raise DomainMismatch("mu must be a multiplication on the swapped "
                             "kernel pair construction of (D, d, c)")
    triples, pairs = kswap.triples, c2.labels
    ap1 = compose(k.alpha, k.p1)
    gp2 = compose(k.gamma, k.p2)
    table = []
    for ksi in range(k.E):
        first = (ap1.table[ksi], ap1.table[ksi], k.beta.table[ksi])
        second = (k.beta.table[ksi], gp2.table[ksi], gp2.table[ksi])
        t1, t2 = bisect_left(triples, first), bisect_left(triples, second)
        if triples[t1:t1 + 1] != (first,):
            raise IllTyped(f"theta first component {first} is not a triple")
        if triples[t2:t2 + 1] != (second,):
            raise IllTyped(f"theta second component {second} is not a triple")
        pair = bisect_left(pairs, (t1, t2))
        if pairs[pair:pair + 1] != ((t1, t2),):
            raise IllTyped(f"theta components are not composable at {ksi}")
        table.append(pair)
    th = FinMap._derived(k.E, c2.size, tuple(table))
    return ThetaResult(th, compose(kswap.mid, compose(mul.mu, th)))


def delta_identity_check(k: KiteDiagram,
                         mul_e: UnitalMultiplication) -> Report:
    """mid mu delta = 1_E, asserted through the two projection
    identities and combined via joint monicity of (p1, p2), which is
    condition 3 of the hypotheses checked first.  delta is
    theta for the kite of E over itself: legs e1, e1p1e2p2, e2 into the
    span (E, p2, p1), whose hypotheses follow from those of k."""
    rep = check_hypotheses(k)
    if not rep.ok:
        raise HypothesisViolation(f"kite hypotheses fail: {rep.witness}")
    over_e = KiteDiagram(k.p1, k.p2, k.e1, k.e2, k.e1,
                         compose(compose(k.e1, k.p1), compose(k.e2, k.p2)),
                         k.e2, k.p2, k.p1)
    comp = _theta(over_e, mul_e).m
    for name, lhs, rhs in (
            ("p1 mid mu delta != p1", compose(k.p1, comp), k.p1),
            ("p2 mid mu delta != p2", compose(k.p2, comp), k.p2)):
        w = first_mismatch(lhs, rhs)
        if w is not None:
            return fails("delta-check", {"equation": name, "element": w})
    return holds("delta-check",
                 ["p1 mid mu delta = p1", "p2 mid mu delta = p2",
                  "hence mid mu delta = 1_E by joint monicity"])


@dataclass(frozen=True)
class AdmissibilityKite:
    """The undirected kite of the weakly-Mal'tsev-object definition,
    with lp its local product A x_B C, built once when it is."""

    f: FinMap
    r: FinMap
    s: FinMap
    g: FinMap
    alpha: FinMap
    beta: FinMap
    gamma: FinMap
    lp: LocalProduct = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        A, B, C = self.f.dom, self.f.cod, self.g.dom
        if (self.r.dom, self.r.cod) != (B, A) or (self.s.dom, self.s.cod) != (B, C):
            raise DomainMismatch("r and s must go B -> A and B -> C")
        if self.g.cod != B:
            raise DomainMismatch("g must land in B")
        if self.alpha.dom != A or self.beta.dom != B or self.gamma.dom != C:
            raise DomainMismatch("legs must start at A, B, C")
        if len({self.alpha.cod, self.beta.cod, self.gamma.cod}) != 1:
            raise DomainMismatch("legs must share their codomain D")
        if compose(self.f, self.r).table != identity(B).table:
            raise IllTyped("f r != 1_B")
        if compose(self.g, self.s).table != identity(B).table:
            raise IllTyped("g s != 1_B")
        if compose(self.alpha, self.r).table != self.beta.table:
            raise IllTyped("alpha r != beta")
        if compose(self.gamma, self.s).table != self.beta.table:
            raise IllTyped("gamma s != beta")
        object.__setattr__(self, "lp", local_product(
            SplitCospan(self.f, self.r, self.g, self.s)))

    @property
    def D(self) -> int:
        return self.alpha.cod


def admissibility_count(k: AdmissibilityKite, cap: int = 1000) -> SolveResult:
    """Count phi: A x_B C -> D with phi e1 = alpha and phi e2 = gamma:
    the kite equations over the terminal span D -> 1, whose one fibre
    leaves every off-cross point free."""
    lp = k.lp
    bang_d, bang_e = FinMap(k.D, 1, (0,) * k.D), FinMap(lp.E, 1, (0,) * lp.E)
    return solve_cross(lp.e1, k.alpha, lp.e2, k.gamma, bang_d, bang_d,
                       bang_e, bang_e, cap, "admissibility")


@dataclass(frozen=True)
class WmCheck:
    report: Report
    witness: Optional[AdmissibilityKite]
    solutions: tuple[FinMap, ...]


def wm_object_check_finset(n: int) -> WmCheck:
    """Whether the n-element set is a weakly Mal'tsev object in finite
    sets: yes exactly for n <= 1.  For n >= 2 the returned witness kite
    (B a point, A = C = D = n, alpha = gamma = identity) is re-verified
    to carry at least two admissibility morphisms.  A negative n is
    IllTyped."""
    cmd = "wm-object"
    if n < 0:
        raise IllTyped(f"size must be >= 0, got {n}")
    if n <= 1:
        return WmCheck(holds(cmd, [f"size {n}: every kite admits at most "
                                   "one admissibility morphism"]), None, ())
    one = identity(n)
    bang = FinMap(n, 1, (0,) * n)
    point = FinMap(1, n, (0,))
    kite = AdmissibilityKite(f=bang, r=point, s=point, g=bang,
                             alpha=one, beta=point, gamma=one)
    res = admissibility_count(kite, cap=2)
    sols = res.solutions[:2]
    e1, e2 = kite.lp.e1, kite.lp.e2
    verified = (res.count >= 2 and len(sols) == 2
                and all(compose(phi, e1).table == compose(phi, e2).table
                        == one.table for phi in sols)
                and sols[0].table != sols[1].table)
    if not verified:
        raise IllTyped("witness kite failed re-verification")
    return WmCheck(Report(cmd, "fails",
                          witness={"kite": "B=1, A=C=D, alpha=gamma=identity",
                                   "size": n, "count": res.count},
                          details=(f"found {res.count} admissibility morphisms",),
                          count=res.count,
                          solutions=tuple(list(s.table) for s in sols)),
                   kite, sols)


def pregroupoid_solutions(span: Span, cap: int = 1000) -> SolveResult:
    """All pregroupoid structures on a span, by direct enumeration of
    p: D(d,c) -> D under the unit laws p(x,y,y) = x, p(y,y,z) = z and the
    laws d p(x,y,z) = d(z), c p(x,y,z) = c(x)."""
    return _pregroupoid_solutions(kpc(span), cap)


def _pregroupoid_solutions(k: KpcResult, cap: float) -> SolveResult:
    """pregroupoid_solutions on the kernel pair construction k of its span."""
    d, c = k.span.d, k.span.c
    return solve_cross(k.e1, k.d1, k.e2, k.c2, d, c, compose(d, k.cod),
                       compose(c, k.dom), cap, "pregroupoid")


def kite5_pairing(span: Span, cap: int = 1000) -> Report:
    """The paired solver for the kernel-pair kite: multiplications on
    the assembled kite correspond one-to-one with pregroupoid structures
    on the span.  The kite's local product is pullback(c1, d2), the same
    pullback that lists the kpc triples, so point xi of E is triple xi
    and the two solution lists agree table for table.  Both solves read
    one kernel pair construction."""
    k = kpc(span)
    kd, _ = assemble_kite(_kite_from_kpc(k))
    kite_res = solve_m(kd, cap=cap)
    pre_res = _pregroupoid_solutions(k, cap)
    if kite_res.count != pre_res.count:
        return fails("kite5-pairing", {"kite": kite_res.count,
                                       "pregroupoid": pre_res.count})
    if (not kite_res.truncated and not pre_res.truncated
            and kite_res.solutions != pre_res.solutions):
        return fails("kite5-pairing", {"mismatch": "solution sets differ"})
    return holds("kite5-pairing",
                 [f"{kite_res.count} multiplications correspond to "
                  f"{pre_res.count} pregroupoid structures"])
