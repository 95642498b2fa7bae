"""Curated structures: small graphs, kites, groups and lattices used by
the test suite and handy from the CLI."""
from __future__ import annotations

from itertools import product
from typing import Callable, Iterable

from .algebra import OpAlgebra, Operation
from .finmaps import FinMap, compose, index_of
from .internal import (MultiplicativeGraph, ReflexiveGraph, Span,
                       kite_from_span)
from .kitecond import KiteDiagram, assemble_kite


def cyclic_add_table(n: int) -> tuple[int, ...]:
    return tuple((x + y) % n for x in range(n) for y in range(n))


def cyclic_magma(n: int) -> OpAlgebra:
    """(Z_n, +) as a commutative magma."""
    return OpAlgebra(n, (Operation("*", 2, cyclic_add_table(n)),), "cmag")


def cyclic_group(n: int) -> OpAlgebra:
    """(Z_n, +, -, 0) with the full group signature."""
    return OpAlgebra(n, (Operation("+", 2, cyclic_add_table(n)),
                         Operation("-", 1, tuple((-x) % n for x in range(n))),
                         Operation("0", 0, (0,))), "group")


def klein_four() -> OpAlgebra:
    table = tuple(x ^ y for x in range(4) for y in range(4))
    return OpAlgebra(4, (Operation("+", 2, table),
                         Operation("-", 1, tuple(range(4))),
                         Operation("0", 0, (0,))), "group")


def meet_semilattice2() -> OpAlgebra:
    """({0,1}, and) as a commutative magma."""
    return OpAlgebra(2, (Operation("*", 2, (0, 0, 0, 1)),), "cmag")


def two_element_set_algebra() -> OpAlgebra:
    """The empty-signature two-element algebra."""
    return OpAlgebra(2, (), "custom")


def _lattice_from_order(leq: Callable[[int, int], bool], n: int) -> OpAlgebra:
    def meet(x, y):
        lower = [z for z in range(n) if leq(z, x) and leq(z, y)]
        best = [z for z in lower if all(leq(w, z) for w in lower)]
        return best[0]

    def join(x, y):
        upper = [z for z in range(n) if leq(x, z) and leq(y, z)]
        best = [z for z in upper if all(leq(z, w) for w in upper)]
        return best[0]

    meet_t = tuple(meet(x, y) for x in range(n) for y in range(n))
    join_t = tuple(join(x, y) for x in range(n) for y in range(n))
    return OpAlgebra(n, (Operation("meet", 2, meet_t),
                         Operation("join", 2, join_t)), "lattice")


def chain_lattice(n: int) -> OpAlgebra:
    return _lattice_from_order(lambda x, y: x <= y, n)


def two_by_two_lattice() -> OpAlgebra:
    """The product of two 2-chains: elements (a,b) as 2*a + b."""
    def leq(x, y):
        return (x >> 1 <= y >> 1) and (x & 1) <= (y & 1)
    return _lattice_from_order(leq, 4)


def m3_lattice() -> OpAlgebra:
    """The diamond: bottom 0, atoms 1, 2, 3, top 4."""
    def leq(x, y):
        return x == y or x == 0 or y == 4
    return _lattice_from_order(leq, 5)


def n5_lattice() -> OpAlgebra:
    """The pentagon: 0 < 1 < 2 < 4 and 0 < 3 < 4, with 3 incomparable
    to 1 and 2."""
    order = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 4), (3, 4)}
    def leq(x, y):
        return x == y or (x, y) in order
    return _lattice_from_order(leq, 5)


def m3_dimagma() -> OpAlgebra:
    m3 = m3_lattice()
    return OpAlgebra(5, (Operation("*", 2, m3.ops[0].table),
                         Operation("+", 2, m3.ops[1].table)), "dimagma")


def preorder_graph_01() -> ReflexiveGraph:
    """The order relation on {0, 1} as a reflexive graph: arrows
    (0,0), (0,1), (1,1) with endpoint projections."""
    arrows = ((0, 0), (0, 1), (1, 1))
    d = FinMap(3, 2, tuple(a for a, _ in arrows))
    c = FinMap(3, 2, tuple(b for _, b in arrows))
    e = FinMap(2, 3, (0, 2))
    return ReflexiveGraph(d, c, e)


def one_object_graph(n: int) -> ReflexiveGraph:
    """n arrows on a single object; the unit is arrow 0 by convention."""
    return ReflexiveGraph(FinMap(n, 1, (0,) * n), FinMap(n, 1, (0,) * n),
                          FinMap(1, n, (0,)))


def one_object_umg(table: tuple[tuple[int, ...], ...]) -> MultiplicativeGraph:
    """A unital magma table (unit must be element 0) as a one-object
    multiplicative graph where m(x, y) composes x after y."""
    n = len(table)
    rg = one_object_graph(n)
    pairs = tuple((x, y) for x in range(n) for y in range(n))
    m = FinMap(n * n, n, tuple(table[x][y] for (x, y) in pairs))
    return MultiplicativeGraph(rg, m)


def unital_magma_tables(n: int) -> Iterable[tuple[tuple[int, ...], ...]]:
    """All n x n tables with two-sided unit 0, lexicographically."""
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    for values in product(range(n), repeat=len(cells)):
        table = [[0] * n for _ in range(n)]
        for j in range(n):
            table[0][j] = j
            table[j][0] = j
        for (i, j), v in zip(cells, values):
            table[i][j] = v
        yield tuple(tuple(row) for row in table)


def is_associative_table(table) -> bool:
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def is_group_table(table) -> bool:
    n = len(table)
    if not is_associative_table(table):
        return False
    return all(any(table[x][y] == 0 == table[y][x] for y in range(n))
               for x in range(n))


def monoid_tables(n: int) -> Iterable[tuple[tuple[int, ...], ...]]:
    for table in unital_magma_tables(n):
        if is_associative_table(table):
            yield table


def group_pair_span(n: int) -> Span:
    """The span (Z_n x Z_n, first, second): the total relation on Z_n,
    a jointly monic span whose unique pregroupoid structure is the
    componentwise Mal'tsev operation."""
    labels = tuple((a, b) for a in range(n) for b in range(n))
    d = FinMap(n * n, n, tuple(a for a, _ in labels))
    c = FinMap(n * n, n, tuple(b for _, b in labels))
    return Span(d, c)


def group_pair_maltsev(n: int) -> Callable[[int, int, int], int]:
    """Componentwise x - y + z on the pair labels of group_pair_span."""
    def p(i: int, j: int, k: int) -> int:
        ai, bi = divmod(i, n)
        aj, bj = divmod(j, n)
        ak, bk = divmod(k, n)
        return ((ai - aj + ak) % n) * n + ((bi - bj + bk) % n)
    return p


def group_kite(n: int) -> KiteDiagram:
    """The kernel-pair kite of the total-relation span on Z_n, assembled
    with its local product.  Its direction span is jointly monic, so the
    kite has exactly one multiplication: componentwise x - y + z."""
    kd, _ = assemble_kite(kite_from_span(group_pair_span(n)))
    return kd


def group_kite_bundle(n: int):
    """The Z_n group kite together with the canonical unital
    multiplications that theta and delta_identity_check take: mu on
    the swapped kernel pair construction of the direction span, and
    mu_e on the swapped construction of the span (E, p2, p1), each a
    validated UnitalMultiplication.  Both read the Mal'tsev operation
    from one table of its D^3 values; p_e computes its value once per
    distinct argument triple, however often maltsev_mu asks."""
    from .internal import kpc_swapped
    from .kitecond import maltsev_mu

    span = group_pair_span(n)
    kd, _ = assemble_kite(kite_from_span(span))
    D = n * n
    p = group_pair_maltsev(n)
    table = [p(i, j, k) for i in range(D) for j in range(D) for k in range(D)]

    def p_d(i: int, j: int, k: int) -> int:
        return table[(i * D + j) * D + k]

    mu = maltsev_mu(kpc_swapped(span), p_d)
    # The points of the kite's E are the kpc triples, in order: point i
    # is (x, y, z) with x = alpha p1, y = beta and z = gamma p2, coded as
    # (x D + y) D + z, the same index arithmetic as the table's.
    xs = compose(kd.alpha, kd.p1).table
    ys = kd.beta.table
    zs = compose(kd.gamma, kd.p2).table
    t_index = index_of((x * D + y) * D + z for x, y, z in zip(xs, ys, zs))

    memo: dict[tuple[int, int, int], int] = {}   # p_e's values so far

    def p_e(i: int, j: int, k: int) -> int:
        v = memo.get((i, j, k))
        if v is None:
            x = table[(xs[i] * D + xs[j]) * D + xs[k]]
            y = table[(ys[i] * D + ys[j]) * D + ys[k]]
            z = table[(zs[i] * D + zs[j]) * D + zs[k]]
            v = memo[i, j, k] = t_index[(x * D + y) * D + z]
        return v

    mu_e = maltsev_mu(kpc_swapped(Span(kd.p2, kd.p1)), p_e)
    return kd, mu, mu_e


def terminal_span_kite(n: int) -> KiteDiagram:
    """The kernel-pair kite of the span (Z_n, !, !) to the point; its
    multiplications are exactly the Mal'tsev-style ternary operations
    p(x, y, y) = x, p(y, y, z) = z on the carrier."""
    bang = FinMap(n, 1, (0,) * n)
    kd, _ = assemble_kite(kite_from_span(Span(bang, bang)))
    return kd

