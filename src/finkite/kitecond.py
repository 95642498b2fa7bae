"""The kite condition as an executable checker and solver.

A kite diagram is a local-product-shaped square (p1, p2, e1, e2) with
three legs alpha, beta, gamma into a span (D, d, c).  Over finite sets
the solver pins a candidate multiplication on the cross e1(A) u e2(C)
and on the (d, c)-fibres; whatever remains is genuinely free, so the
solution count is the product of the remaining fibre sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainMismatch, HypothesisViolation, IllTyped
from .finmaps import (FinMap, SolveResult, compose, first_mismatch, identity,
                      index_of, jointly_monic, pairing_is_injective,
                      solve_cross)
from .internal import (C2Data, DirectedKite, KpcResult, Span, composable_pairs,
                       kite_from_span, kpc, kpc_swapped, validate_directed_kite)
from .limits import LocalProduct, SplitCospan, _failed_condition, local_product
from .report import Report, fails, holds


@dataclass(frozen=True)
class KiteDiagram:
    p1: FinMap
    p2: FinMap
    e1: FinMap
    e2: FinMap
    alpha: FinMap
    beta: FinMap
    gamma: FinMap
    d: FinMap
    c: FinMap

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
    """Complete a directed kite with its local product; beta is induced
    through the common composite f p1 = g p2."""
    rep = validate_directed_kite(dk)
    if not rep.ok:
        raise IllTyped(f"invalid directed kite: {rep.witness}")
    lp = local_product(SplitCospan(dk.f, dk.r, dk.g, dk.s))
    beta_e = compose(dk.beta, compose(dk.f, lp.p1))
    kd = KiteDiagram(lp.p1, lp.p2, lp.e1, lp.e2,
                     dk.alpha, beta_e, dk.gamma, dk.d, dk.c)
    return kd, lp


def check_hypotheses(k: KiteDiagram) -> Report:
    """Conditions (1)-(5) elementwise; the kernel pair construction
    always exists in finite sets, so (6) is reported as automatic."""
    cmd = "kite-check"
    e1p1 = compose(k.e1, k.p1)
    e2p2 = compose(k.e2, k.p2)
    rep = _failed_condition(cmd, (
        (1, "p1 e1 != 1_A", compose(k.p1, k.e1), identity(k.A)),
        (1, "p2 e2 != 1_C", compose(k.p2, k.e2), identity(k.C)),
        (2, "(e1p1)(e2p2) != (e2p2)(e1p1)", compose(e1p1, e2p2),
         compose(e2p2, e1p1))))
    if rep is not None:
        return rep
    clash = pairing_is_injective(k.p1, k.p2)
    if clash is not None:
        return fails(cmd, {"condition": 3, "elements": list(clash)},
                     ["(p1, p2) is not jointly monic"])
    a_leg = compose(k.alpha, compose(k.p1, e2p2))
    g_leg = compose(k.gamma, compose(k.p2, e1p1))
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


def maltsev_mu(k: KpcResult, p: Callable[[int, int, int], int]) -> FinMap:
    """The multiplication mu(U, V) = p(U, diag(dom U), V), applied
    componentwise to triples, on the graph produced by a kernel pair
    construction.  p must behave as a Mal'tsev operation on the base
    and be compatible with the span legs, otherwise the produced table
    leaves the triple object and the construction is rejected.

    Cost: three calls of p per composable pair of triples, pair by pair
    and component 0, 1, 2 within a pair.  Those calls dominate, so pass
    a p that looks its value up in a table rather than computing it."""
    c2 = composable_pairs(k.graph)
    t_index = index_of(k.triples)
    # Triple i is (xs[i], ys[i], zs[i]); the swapped construction's
    # graph has dom = z and cod = x.
    xs, ys, zs = ((k.cod.table, k.mid.table, k.dom.table) if k.swapped
                  else (k.dom.table, k.mid.table, k.cod.table))
    dom = k.dom.table
    table = []
    for ui, vi in zip(c2.pi1.table, c2.pi2.table):
        m0 = dom[ui]
        w = (p(xs[ui], m0, xs[vi]), p(ys[ui], m0, ys[vi]),
             p(zs[ui], m0, zs[vi]))
        t = t_index.get(w)
        if t is None:
            raise IllTyped(f"mu image {w} leaves the triple object")
        table.append(t)
    mu = FinMap(c2.size, k.size, tuple(table))
    _validate_multiplication(k, c2, mu)
    return mu


def _validate_multiplication(k: KpcResult, c2: C2Data, mu: FinMap) -> None:
    one = identity(k.size).table
    if compose(mu, c2.e1).table != one:
        raise IllTyped("mu e1 != 1 on the triple object")
    if compose(mu, c2.e2).table != one:
        raise IllTyped("mu e2 != 1 on the triple object")
    if compose(k.graph.d, mu).table != compose(k.graph.d, c2.pi2).table:
        raise IllTyped("dom mu != dom pi2")
    if compose(k.graph.c, mu).table != compose(k.graph.c, c2.pi1).table:
        raise IllTyped("cod mu != cod pi1")


def check_unital_multiplication(k: KpcResult, mu: FinMap) -> Report:
    c2 = composable_pairs(k.graph)
    if mu.dom != c2.size or mu.cod != k.size:
        raise DomainMismatch("mu must go C2 -> C1 of the constructed graph")
    try:
        _validate_multiplication(k, c2, mu)
    except IllTyped as exc:
        return fails("mu-check", {"equation": str(exc)})
    return holds("mu-check", ["mu is a unital multiplication"])


@dataclass(frozen=True)
class ThetaResult:
    kswap: KpcResult
    c2: C2Data
    theta: FinMap
    m: FinMap


def theta(k: KiteDiagram, mu: FinMap) -> ThetaResult:
    """The pairing <<alpha p1, alpha p1, beta>, <beta, gamma p2, gamma p2>>
    into composable pairs of triples over (D, c, d), and the canonical
    solution m = mid mu theta."""
    rep = check_hypotheses(k)
    if not rep.ok:
        raise HypothesisViolation(f"kite hypotheses fail: {rep.witness}")
    kswap = kpc_swapped(k.span)
    c2 = composable_pairs(kswap.graph)
    if mu.dom != c2.size or mu.cod != kswap.size:
        raise DomainMismatch("mu must be a multiplication on the swapped "
                             "kernel pair construction of (D, d, c)")
    _validate_multiplication(kswap, c2, mu)
    t_index = index_of(kswap.triples)
    pair_index = index_of(c2.labels)
    ap1 = compose(k.alpha, k.p1)
    gp2 = compose(k.gamma, k.p2)
    table = []
    for ksi in range(k.E):
        first = (ap1.table[ksi], ap1.table[ksi], k.beta.table[ksi])
        second = (k.beta.table[ksi], gp2.table[ksi], gp2.table[ksi])
        if first not in t_index:
            raise IllTyped(f"theta first component {first} is not a triple")
        if second not in t_index:
            raise IllTyped(f"theta second component {second} is not a triple")
        key = (t_index[first], t_index[second])
        if key not in pair_index:
            raise IllTyped(f"theta components are not composable at {ksi}")
        table.append(pair_index[key])
    th = FinMap(k.E, c2.size, tuple(table))
    m = compose(kswap.mid, compose(mu, th))
    return ThetaResult(kswap, c2, th, m)


def delta_identity_check(k: KiteDiagram, mu_e: FinMap) -> Report:
    """mid mu delta = 1_E, asserted through the two projection
    identities and combined via joint monicity of (p1, p2).  delta is
    theta for the kite of E over itself: legs e1, e1p1e2p2, e2 into the
    span (E, p2, p1), whose hypotheses follow from those of k."""
    rep = check_hypotheses(k)
    if not rep.ok:
        raise HypothesisViolation(f"kite hypotheses fail: {rep.witness}")
    over_e = KiteDiagram(k.p1, k.p2, k.e1, k.e2, k.e1,
                         compose(compose(k.e1, k.p1), compose(k.e2, k.p2)),
                         k.e2, k.p2, k.p1)
    comp = theta(over_e, mu_e).m
    for name, lhs, rhs in (
            ("p1 mid mu delta != p1", compose(k.p1, comp), k.p1),
            ("p2 mid mu delta != p2", compose(k.p2, comp), k.p2)):
        w = first_mismatch(lhs, rhs)
        if w is not None:
            return fails("delta-check", {"equation": name, "element": w})
    if not jointly_monic(k.p1, k.p2):
        return fails("delta-check", {"equation": "(p1, p2) not jointly monic"})
    w = first_mismatch(comp, identity(k.E))
    if w is not None:
        return fails("delta-check", {"equation": "mid mu delta != 1_E",
                                     "element": w})
    return holds("delta-check",
                 ["p1 mid mu delta = p1", "p2 mid mu delta = p2",
                  "hence mid mu delta = 1_E by joint monicity"])


@dataclass(frozen=True)
class AdmissibilityKite:
    """The undirected kite of the weakly-Mal'tsev-object definition."""

    f: FinMap
    r: FinMap
    s: FinMap
    g: FinMap
    alpha: FinMap
    beta: FinMap
    gamma: FinMap

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

    @property
    def D(self) -> int:
        return self.alpha.cod


def admissibility_count(k: AdmissibilityKite, cap: int = 1000) -> SolveResult:
    """Count phi: A x_B C -> D with phi e1 = alpha and phi e2 = gamma:
    the kite equations over the terminal span D -> 1, whose one fibre
    leaves every off-cross point free."""
    lp = local_product(SplitCospan(k.f, k.r, k.g, k.s))
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
    verified = (res.count >= 2 and len(sols) == 2
                and all(_is_admissibility_solution(kite, phi) for phi in sols)
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


def _is_admissibility_solution(k: AdmissibilityKite, phi: FinMap) -> bool:
    lp = local_product(SplitCospan(k.f, k.r, k.g, k.s))
    return (compose(phi, lp.e1).table == k.alpha.table
            and compose(phi, lp.e2).table == k.gamma.table)


def pregroupoid_solutions(span: Span, cap: int = 1000) -> SolveResult:
    """All pregroupoid structures on a span, by direct enumeration of
    p: D(d,c) -> D under the unit laws p(x,y,y) = x, p(y,y,z) = z and the
    laws d p(x,y,z) = d(z), c p(x,y,z) = c(x)."""
    k = kpc(span)
    return solve_cross(k.e1, k.d1, k.e2, k.c2, span.d, span.c,
                       compose(span.d, k.cod), compose(span.c, k.dom), cap,
                       "pregroupoid")


def kite5_pairing(span: Span, cap: int = 1000) -> Report:
    """The paired solver for the kernel-pair kite: multiplications on
    the assembled kite correspond one-to-one with pregroupoid structures
    on the span.  The kite's local product is pullback(c1, d2), the same
    pullback that lists the kpc triples, so point xi of E is triple xi
    and the two solution lists agree table for table."""
    kd, _ = assemble_kite(kite_from_span(span))
    kite_res = solve_m(kd, cap=cap)
    pre_res = pregroupoid_solutions(span, cap=cap)
    if kite_res.count != pre_res.count:
        return fails("kite5-pairing", {"kite": kite_res.count,
                                       "pregroupoid": pre_res.count})
    if (not kite_res.truncated and not pre_res.truncated
            and kite_res.solutions != pre_res.solutions):
        return fails("kite5-pairing", {"mismatch": "solution sets differ"})
    return holds("kite5-pairing",
                 [f"{kite_res.count} multiplications correspond to "
                  f"{pre_res.count} pregroupoid structures"])
