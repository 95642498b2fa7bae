"""Finite sets and their morphisms as index sequences.

A finite set is identified with its size n, the elements being 0..n-1.
A morphism is a table of indices into the codomain, one per domain
element.  Everything downstream of this module is built out of these
tables, so all values here are immutable and all functions pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
from math import prod
from operator import itemgetter
from typing import Hashable, Iterable, Optional, Sequence

from .errors import DomainMismatch, IllTyped
from .report import Report, counted


@dataclass(frozen=True)
class FinMap:
    """A map between finite sets, stored as an index sequence.

    ``table[j]`` is the image of j; every entry must be < cod.
    """

    dom: int
    cod: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if self.dom < 0 or self.cod < 0:
            raise IllTyped("dom and cod must be non-negative")
        if len(self.table) != self.dom:
            raise IllTyped(
                f"table length {len(self.table)} does not match dom {self.dom}")
        j = _first_out_of_range(self.table, self.cod)
        if j is not None:
            raise IllTyped(f"table entry {self.table[j]} at index {j} "
                           f"is out of range for cod {self.cod}")

    @classmethod
    def _derived(cls, dom: int, cod: int, table: tuple[int, ...]) -> FinMap:
        """A map read out of validated maps, whose tuple table has length
        dom and entries below cod by construction: not scanned again."""
        m = object.__new__(cls)
        object.__setattr__(m, "dom", dom)
        object.__setattr__(m, "cod", cod)
        object.__setattr__(m, "table", table)
        return m

    def __call__(self, x: int) -> int:
        return self.table[x]


def _first_out_of_range(table: Sequence[int], n: int) -> Optional[int]:
    """The index of the first entry of table outside 0..n-1, or None.
    One tight pass accepts; only a rejected table is scanned again to
    find its first bad entry."""
    for v in table:
        if not 0 <= v < n:
            return next(j for j, u in enumerate(table) if not 0 <= u < n)
    return None


def identity(n: int) -> FinMap:
    if n < 0:
        raise IllTyped("dom and cod must be non-negative")
    return FinMap._derived(n, n, tuple(range(n)))


def _gather(idx: Sequence[int]):
    """t -> tuple(t[i] for i in idx), read in C by one itemgetter; one
    index and none are handled apart, as there itemgetter returns a bare
    entry or cannot be built."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        i = idx[0]
        return lambda t: (t[i],)
    return lambda t: ()


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f, g's table read through f's in one gather.  Requires
    f.cod == g.dom."""
    if f.cod != g.dom:
        raise DomainMismatch(
            f"cannot compose: middle objects differ ({f.cod} vs {g.dom})")
    return FinMap._derived(f.dom, g.cod, _gather(f.table)(g.table))


def is_mono(f: FinMap) -> bool:
    return len(set(f.table)) == f.dom


def is_epi(f: FinMap) -> bool:
    return len(set(f.table)) == f.cod


def split_epi_section(f: FinMap) -> Optional[FinMap]:
    """The least-preimage section of f when f is surjective, else None."""
    if not is_epi(f):
        return None
    section = [0] * f.cod
    seen = set()
    for j, v in enumerate(f.table):
        if v not in seen:
            seen.add(v)
            section[v] = j
    return FinMap(f.cod, f.dom, tuple(section))


def is_split_epi(f: FinMap) -> tuple[bool, Optional[FinMap]]:
    s = split_epi_section(f)
    return (s is not None), s


@dataclass(frozen=True)
class IsMemberResult:
    """Membership flags plus least matching positions, Matlab-style."""

    flags: tuple[bool, ...]
    positions: tuple[Optional[int], ...]


def ismember(f: Sequence[int], u: Sequence[int]) -> IsMemberResult:
    """For each f[i], whether it occurs in u and the least index where."""
    first = {}
    for j, v in enumerate(u):
        if v not in first:
            first[v] = j
    flags = tuple(v in first for v in f)
    positions = tuple(first.get(v) for v in f)
    return IsMemberResult(flags, positions)


def ismember_pullback(f: FinMap, u: FinMap) -> tuple[FinMap, FinMap]:
    """The pullback projections of f along a mono u, read off ismember.

    Requires u injective; returns (p_f, p_u) out of the apex of pairs
    (i, j) with f(i) = u(j), ordered by i.
    """
    if not is_mono(u):
        raise IllTyped("pullback reading of ismember requires unique entries in u")
    if f.cod != u.cod:
        raise DomainMismatch("f and u must share a codomain")
    res = ismember(f.table, u.table)
    idx = [i for i in range(f.dom) if res.flags[i]]
    p_f = FinMap(len(idx), f.dom, tuple(idx))
    p_u = FinMap(len(idx), u.dom, tuple(res.positions[i] for i in idx))
    return p_f, p_u


def pairing_is_injective(p1: FinMap, p2: FinMap) -> Optional[tuple[int, int]]:
    """None if x -> (p1 x, p2 x) is injective, else the pair (x', x) of
    the least x whose pair repeats and its first holder x'.  One set of
    the pairs accepts; only a clash is scanned to name its witness."""
    if len(set(zip(p1.table, p2.table))) == p1.dom:
        return None
    seen = {}
    for x in range(p1.dom):
        key = (p1.table[x], p2.table[x])
        if key in seen:
            return (seen[key], x)
        seen[key] = x
    return None


def jointly_monic(p1: FinMap, p2: FinMap) -> bool:
    if p1.dom != p2.dom:
        raise DomainMismatch("jointly_monic requires a common domain")
    return pairing_is_injective(p1, p2) is None


def jointly_epic(e1: FinMap, e2: FinMap) -> bool:
    if e1.cod != e2.cod:
        raise DomainMismatch("jointly_epic requires a common codomain")
    return set(e1.table) | set(e2.table) == set(range(e1.cod))


def fibres(keys: Iterable[Hashable]) -> dict[Hashable, list[int]]:
    """The positions of each key, ascending: the fibres of i -> keys[i],
    built in one pass."""
    out: dict[Hashable, list[int]] = {}
    for i, key in enumerate(keys):
        bucket = out.get(key)
        if bucket is None:
            out[key] = [i]
        else:
            bucket.append(i)
    return out


def index_of(labels: Iterable[Hashable]) -> dict[Hashable, int]:
    """The position of each label: the inverse of a label table."""
    return {lab: i for i, lab in enumerate(labels)}


def first_mismatch(lhs: FinMap, rhs: FinMap) -> Optional[int]:
    """The least x with lhs(x) != rhs(x), or None when the tables agree.
    Equal tables, the common case, are settled by one tuple comparison."""
    if lhs.table == rhs.table:
        return None
    return next(x for x, (u, v) in enumerate(zip(lhs.table, rhs.table))
                if u != v)


def cross_pins(e1: Sequence[int], alpha: Sequence[int], e2: Sequence[int],
               gamma: Sequence[int]) -> Optional[dict[int, int]]:
    """The values that m e1 = alpha and m e2 = gamma pin on the cross
    e1(A) u e2(C), as point -> value, or None when they disagree (also
    where e1 or e2 alone sends two points with different values to one)."""
    pins = dict(zip(e1, alpha))
    if len(pins) < len(e1) and any(pins[w] != v for w, v in zip(e1, alpha)):
        return None
    for w, v in zip(e2, gamma):
        if pins.setdefault(w, v) != v:
            return None
    return pins


@dataclass(frozen=True)
class SolveResult:
    count: int
    solutions: tuple[FinMap, ...]
    truncated: bool
    report: Report


def _two_least(allowed: list[Sequence[int]]) -> list[tuple[int, ...]]:
    """The first two tables of product(*allowed), every fibre non-empty,
    built without copying the fibres: the first values, then, if some
    fibre has a second value, the last such fibre moved to it."""
    first = tuple([fibre[0] for fibre in allowed])
    for x in reversed(range(len(allowed))):
        if len(allowed[x]) > 1:
            return [first, first[:x] + (allowed[x][1],) + first[x + 1:]]
    return [first]


def solve_cross(e1: FinMap, alpha: FinMap, e2: FinMap, gamma: FinMap,
                d: FinMap, c: FinMap, d_target: FinMap, c_target: FinMap,
                cap: float, command: str) -> SolveResult:
    """Every m: E -> D with m e1 = alpha, m e2 = gamma, d m = d_target
    and c m = c_target, in lexicographic order, with the exact count.

    The pins on the cross e1(A) u e2(C) are merged first; every other
    point ranges over its (d, c)-fibre, read from one index of those
    fibres, so the count is the product of the fibre sizes, one power
    per distinct size.  The fibres partition D, so there are O(sqrt D)
    distinct sizes besides 0 and 1, each counted in one pass over the
    E sizes: the cost is O(E sqrt D + D) before enumeration.  All
    solutions are listed when there are at most cap of them (math.inf
    lists every one), otherwise only the two least, built directly; the
    report carries at most the two least.  A negative cap is IllTyped."""
    if cap < 0:
        raise IllTyped(f"cap must be >= 0, got {cap}")
    pins = cross_pins(e1.table, alpha.table, e2.table, gamma.table)
    if pins is None:
        return SolveResult(0, (), False, counted(command, 0))
    over = fibres(zip(d.table, c.table))
    allowed: list[Sequence[int]] = list(map(
        over.get, zip(d_target.table, c_target.table), repeat(())))
    for x, v in pins.items():
        key = (d_target.table[x], c_target.table[x])
        allowed[x] = (v,) if (d.table[v], c.table[v]) == key else ()
    lens = list(map(len, allowed))
    count = prod(size ** lens.count(size) for size in set(lens))
    if count == 0:
        return SolveResult(0, (), False, counted(command, 0))
    truncated = count > cap
    tables = _two_least(allowed) if truncated else product(*allowed)
    sols = tuple(FinMap(d_target.dom, d.dom, tab) for tab in tables)
    report = counted(command, count, [list(s.table) for s in sols[:2]],
                     details=(["solution list truncated to the two "
                               "lexicographically least"] if truncated else ()))
    return SolveResult(count, sols, truncated, report)


def maps(dom: int, cod: int) -> Iterable[FinMap]:
    """All maps dom -> cod in lexicographic table order."""
    if dom == 0:
        yield FinMap(0, cod, ())
        return
    if cod == 0:
        return
    for table in product(range(cod), repeat=dom):
        yield FinMap(dom, cod, table)
