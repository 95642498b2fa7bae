"""Pullbacks, kernel pairs, local products and their intrinsic checks.

Every constructed apex carries an explicit label table, ordered
lexicographically; equality of constructed objects is label-wise.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add
from typing import Optional

from .errors import CompatibilityViolation, DomainMismatch, InvalidSplitting
from .finmaps import (FinMap, SolveResult, _gather, compose, fibres,
                      first_mismatch, identity, jointly_monic,
                      pairing_is_injective, solve_cross)
from .report import Report, fails, holds


@dataclass(frozen=True)
class Pullback:
    """Apex of f.dom x g.dom pairs (a, c) with f(a) = g(c), lex ordered."""

    labels: tuple[tuple[int, int], ...]
    p1: FinMap
    p2: FinMap

    @property
    def size(self) -> int:
        return len(self.labels)


def pullback(g: FinMap, f: FinMap) -> Pullback:
    """The pullback of g along f, for f: A -> B and g: C -> B.

    g's domain is bucketed by value once and each a meets only its own
    ascending fibre, so the cost is O(A + C + |P|) with the labels in
    lexicographic order."""
    return _pullback(g, f)[0]


def _pullback(g: FinMap, f: FinMap) -> tuple[Pullback, dict[int, list[int]]]:
    """pullback(g, f) with the fibres of g that it joins on."""
    if f.cod != g.cod:
        raise DomainMismatch(
            f"pullback needs a common codomain ({f.cod} vs {g.cod})")
    over = fibres(g.table)
    labels = tuple([(a, c) for a, b in enumerate(f.table)
                    for c in over.get(b, ())])
    p1 = FinMap._derived(len(labels), f.dom, tuple([a for a, _ in labels]))
    p2 = FinMap._derived(len(labels), g.dom, tuple([c for _, c in labels]))
    return Pullback(labels, p1, p2), over


@dataclass(frozen=True)
class SplitCospan:
    """f: A -> B with section r, and g: C -> B with section s."""

    f: FinMap
    r: FinMap
    g: FinMap
    s: FinMap

    def __post_init__(self):
        if self.f.cod != self.g.cod:
            raise DomainMismatch("f and g must share their codomain B")
        if self.r.dom != self.f.cod or self.r.cod != self.f.dom:
            raise DomainMismatch("r must go B -> A")
        if self.s.dom != self.g.cod or self.s.cod != self.g.dom:
            raise DomainMismatch("s must go B -> C")
        one = tuple(range(self.f.cod))
        if _gather(self.r.table)(self.f.table) != one:
            raise InvalidSplitting("f r is not the identity on B")
        if _gather(self.s.table)(self.g.table) != one:
            raise InvalidSplitting("g s is not the identity on B")

    @property
    def A(self) -> int:
        return self.f.dom

    @property
    def B(self) -> int:
        return self.f.cod

    @property
    def C(self) -> int:
        return self.g.dom


@dataclass(frozen=True)
class LocalProduct:
    """The pullback of a split epi along a split epi with its injections;
    _placed, behind local_product, is its one builder: e1 r = e2 s."""

    E: int
    element_labels: tuple[tuple[int, int], ...]
    p1: FinMap
    p2: FinMap
    e1: FinMap
    e2: FinMap
    source: SplitCospan


def local_product(sc: SplitCospan) -> LocalProduct:
    """A x_B C with its injections e1 = <1, sf> and e2 = <rg, 1>; every
    labelled local product in finkite (composable pairs, kpc triples,
    admissibility apexes) is built here.  Each injection is one sum of
    two tables, each gathered through f or g and a section."""
    return _placed(sc, *_pullback(sc.g, sc.f))[0]


def _placed(sc: SplitCospan, pb: Pullback, over: dict[int, list[int]]
            ) -> tuple[LocalProduct, list[int], list[int]]:
    """The local product on its join pb = pullback(g, f), whose g-fibres
    are over, with the offsets that place (a, c) at start[a] + rank[c]:
    a's labels begin at start[a], and c is point rank[c] of its g-fibre
    (g is split, so f(a) has one)."""
    f, g = sc.f.table, sc.g.table
    start = list(accumulate(_gather(f)([len(over[b]) for b in range(sc.B)]),
                            initial=0))
    rank = [0] * sc.C
    for cs in over.values():
        for i, c in enumerate(cs):
            rank[c] = i
    e1 = FinMap._derived(sc.A, pb.size, tuple(map(
        add, start, _gather(_gather(f)(sc.s.table))(rank))))
    e2 = FinMap._derived(sc.C, pb.size, tuple(map(
        add, _gather(_gather(g)(sc.r.table))(start), rank)))
    return LocalProduct(pb.size, pb.labels, pb.p1, pb.p2, e1, e2, sc), \
        start, rank


def kernel_pair(h: FinMap):
    """Pairs (x, y) with h(x) = h(y), projections, and the diagonal."""
    pb = pullback(h, h)
    # The labels run through x in order, and (x, x) once for each x.
    diag = tuple([i for i, (x, y) in enumerate(pb.labels) if x == y])
    return KernelPairData(pb.labels, pb.p1, pb.p2,
                          FinMap._derived(h.dom, pb.size, diag))


@dataclass(frozen=True)
class KernelPairData:
    pairs: tuple[tuple[int, int], ...]
    p1: FinMap
    p2: FinMap
    diagonal: FinMap

    @property
    def size(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class IntrinsicCheck:
    report: Report
    cospan: Optional[SplitCospan]
    regenerated: Optional[LocalProduct]
    relabel: Optional[FinMap]


def _failed_condition(cmd: str, checks) -> Optional[Report]:
    """The failing report of the first (condition, name, lhs, rhs) whose
    sides differ, at the least element where they do, or None."""
    for condition, name, lhs, rhs in checks:
        x = first_mismatch(lhs, rhs)
        if x is not None:
            return fails(cmd, {"condition": condition, "element": x}, [name])
    return None


def _failed_conditions_1_to_3(cmd: str, commute: str, p1: FinMap, p2: FinMap,
                              e1: FinMap, e2: FinMap) -> Optional[Report]:
    """The failing report of the first of conditions 1-3 of a local
    product that (p1, p2, e1, e2) breaks, or None: p1 e1 and p2 e2 are
    identities, the idempotents e1p1 and e2p2 commute (the failure named
    `commute`, as the calling command words it), and (p1, p2) is jointly
    monic."""
    e1p1 = compose(e1, p1)
    e2p2 = compose(e2, p2)
    rep = _failed_condition(cmd, (
        (1, "p1 e1 != 1_A", compose(p1, e1), identity(p1.cod)),
        (1, "p2 e2 != 1_C", compose(p2, e2), identity(p2.cod)),
        (2, commute, compose(e1p1, e2p2), compose(e2p2, e1p1))))
    if rep is not None:
        return rep
    clash = pairing_is_injective(p1, p2)
    if clash is not None:
        return fails(cmd, {"condition": 3, "elements": list(clash)},
                     ["(p1, p2) is not jointly monic"])
    return None


def check_local_product_intrinsic(p1: FinMap, p2: FinMap,
                                  e1: FinMap, e2: FinMap) -> IntrinsicCheck:
    """Decide whether (p1, p2, e1, e2) is a local product, intrinsically.

    Verifies conditions 1-3 (identities on sections, commuting
    idempotents, joint monicity), then rebuilds the split cospan from the
    pullback of e1 along e2 and joins it.  Conditions 1-3 make the
    rebuild a split cospan and send x -> (p1 x, p2 x) injectively into
    the join, the compatible pairs; so condition 4, the one-point
    universal property, which suffices over finite sets, holds iff the
    join is as large as E.  Only then is the local product placed, and
    that map, read off its offsets, is the relabelling of the input.
    """
    cmd = "lp-check"
    E, A, C = p1.dom, p1.cod, p2.cod
    if p2.dom != E or e1.dom != A or e1.cod != E or e2.dom != C or e2.cod != E:
        raise DomainMismatch("diagram maps are not type-compatible")
    rep = _failed_conditions_1_to_3(cmd, "e1p1 e2p2 != e2p2 e1p1",
                                    p1, p2, e1, e2)
    if rep is not None:
        return IntrinsicCheck(rep, None, None, None)

    # Reconstruction per the sufficiency argument: B is the pullback of the
    # split mono e1 along the split mono e2, f and g the displayed pairings.
    # e2 is monic, so B's label (a, c) is fixed by a, at position at[a].
    p1e2, p2e1 = compose(p1, e2), compose(p2, e1)
    pb = pullback(e2, e1)
    at = [0] * A
    for b, a in enumerate(pb.p1.table):
        at[a] = b
    f = FinMap._derived(A, pb.size, _gather(compose(p1e2, p2e1).table)(at))
    g = FinMap._derived(C, pb.size, _gather(p1e2.table)(at))
    cospan = SplitCospan(f, pb.p1, g, pb.p2)
    join, over = _pullback(g, f)

    # Condition 4 on one-point stages: each compatible pair (a, c) must be
    # hit by some element of E (uniqueness already follows from 3), so it
    # is decided by the join's size before anything is placed.  The first
    # pair missed is the least label, a then c ascending, that no x reaches.
    if join.size != E:
        hit = set(zip(p1.table, p2.table))
        a, c = next(lab for lab in join.labels if lab not in hit)
        return IntrinsicCheck(
            fails(cmd, {"condition": 4, "pair": [a, c]},
                  ["a compatible pair is not reached by E"]),
            None, None, None)
    # x -> (p1 x, p2 x) is now a bijection onto the rebuilt labels, at the
    # offsets that placed them: lp.p_i relabel = p_i, relabel e_i = lp.e_i.
    lp, start, rank = _placed(cospan, join, over)
    relabel = FinMap._derived(E, E, tuple(map(
        add, _gather(p1.table)(start), _gather(p2.table)(rank))))
    return IntrinsicCheck(holds(cmd, [
        "condition 1 holds: p1 e1 = 1_A, p2 e2 = 1_C",
        "condition 2 holds: the idempotents e1p1 and e2p2 commute",
        "condition 3 holds: (p1, p2) jointly monic",
        "condition 4 holds on one-point stages",
        "round trip: regenerated local product matches input"]),
        cospan, lp, relabel)


def local_coproduct_compare(lp: LocalProduct) -> Report:
    """Whether the canonical map A +_B C -> A x_B C is a bijection.

    f r = 1 and g s = 1 make r and s monic, so the pushout of (B, r, s)
    has A + C - B classes.  The map, class of a -> e1(a) and of c ->
    e2(c), is well defined as e1 r = e2 s, and injective: e1(a) = e2(c)
    means (a, s f a) = (r g c, c), so a = r b and c = s b, one class.  So
    it is a bijection iff A + C - B = E, and else the least point of E
    off e1(A) u e2(C) is the witness."""
    size = lp.source.A + lp.source.C - lp.source.B
    details = [f"pushout size {size}", f"local product size {lp.E}"]
    if size == lp.E:
        return holds("pushout-compare", details + ["comparison is a bijection"])
    x = min(set(range(lp.E)).difference(lp.e1.table, lp.e2.table))
    return fails("pushout-compare", {"unreached": lp.element_labels[x]},
                 details + ["comparison is not a bijection"])


def extremal_instance_check(lp: LocalProduct, d: FinMap, c: FinMap,
                            alpha: FinMap, gamma: FinMap,
                            span_class: str = "M1") -> SolveResult:
    """Count maps m: E -> D with dm = d gamma p2, cm = c alpha p1,
    m e1 = alpha and m e2 = gamma, for a span (D, d, c), listing the two
    least.

    span_class "M1" demands (d, c) jointly monic; "M0" skips the check.
    In finite sets "M2" coincides with "M1" (every mono is strong).
    """
    if d.dom != c.dom:
        raise DomainMismatch("span legs must share their apex")
    if alpha.dom != lp.source.A or gamma.dom != lp.source.C:
        raise DomainMismatch("alpha and gamma must start at A and C")
    if alpha.cod != d.dom or gamma.cod != d.dom:
        raise DomainMismatch("alpha and gamma must land in the span apex")
    if span_class in ("M1", "M2") and not jointly_monic(d, c):
        raise CompatibilityViolation("span is not jointly monic (class M1)")
    elif span_class not in ("M0", "M1", "M2"):
        raise CompatibilityViolation(f"unknown span class {span_class!r}")

    compatibility = (
        ("d alpha != d gamma p2 e1", compose(d, alpha),
         compose(d, compose(gamma, compose(lp.p2, lp.e1)))),
        ("c gamma != c alpha p1 e2", compose(c, gamma),
         compose(c, compose(alpha, compose(lp.p1, lp.e2)))),
    )
    for name, lhs, rhs in compatibility:
        x = first_mismatch(lhs, rhs)
        if x is not None:
            raise CompatibilityViolation(f"{name} at element {x}")
    return solve_cross(lp.e1, alpha, lp.e2, gamma, d, c,
                       compose(d, compose(gamma, lp.p2)),
                       compose(c, compose(alpha, lp.p1)), 2, "extremal")
