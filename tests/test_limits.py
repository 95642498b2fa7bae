import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from finkite.errors import CompatibilityViolation, DomainMismatch, InvalidSplitting
from finkite.finmaps import FinMap, compose, identity, jointly_epic, jointly_monic
from finkite.limits import (SplitCospan, check_local_product_intrinsic,
                            extremal_instance_check, kernel_pair,
                            local_coproduct_compare, local_product,
                            pullback, pushout_split_mono)


def random_split_cospan(rng, max_size=5):
    b = rng.randint(1, max_size)
    a = rng.randint(b, max_size)
    c = rng.randint(b, max_size)
    # surjections with sections: f maps a onto b, prescribed on a section
    r_img = rng.sample(range(a), b)
    f_table = [rng.randrange(b) for _ in range(a)]
    for i, x in enumerate(r_img):
        f_table[x] = i
    s_img = rng.sample(range(c), b)
    g_table = [rng.randrange(b) for _ in range(c)]
    for i, x in enumerate(s_img):
        g_table[x] = i
    return SplitCospan(FinMap(a, b, tuple(f_table)), FinMap(b, a, tuple(r_img)),
                       FinMap(c, b, tuple(g_table)), FinMap(b, c, tuple(s_img)))


def test_pullback_examples():
    two = identity(2)
    pb = pullback(two, two)
    assert pb.labels == ((0, 0), (1, 1))
    bang = FinMap(2, 1, (0, 0))
    pb = pullback(bang, bang)
    assert pb.size == 4
    empty = FinMap(0, 1, ())
    assert pullback(bang, empty).size == 0
    with pytest.raises(DomainMismatch):
        pullback(FinMap(1, 2, (0,)), FinMap(1, 3, (0,)))


def test_split_cospan_validation():
    with pytest.raises(InvalidSplitting):
        SplitCospan(FinMap(2, 2, (0, 0)), FinMap(2, 2, (0, 1)),
                    identity(2), identity(2))


def test_local_product_square_of_two_points():
    bang = FinMap(2, 1, (0, 0))
    point = FinMap(1, 2, (0,))
    sc = SplitCospan(bang, point, bang, point)
    lp = local_product(sc)
    assert lp.E == 4
    assert lp.element_labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    # e1(a) = (a, s(0)), e2(c) = (r(0), c)
    assert [lp.element_labels[i] for i in lp.e1.table] == [(0, 0), (1, 0)]
    assert [lp.element_labels[i] for i in lp.e2.table] == [(0, 0), (0, 1)]


def test_local_product_identity_cospan():
    sc = SplitCospan(identity(3), identity(3), identity(3), identity(3))
    lp = local_product(sc)
    assert lp.E == 3
    assert lp.p1.table == lp.p2.table == (0, 1, 2)
    assert lp.e1.table == lp.e2.table == (0, 1, 2)


def test_local_product_invariants_random():
    rng = random.Random(4217)
    for _ in range(100):
        sc = random_split_cospan(rng)
        lp = local_product(sc)
        assert compose(lp.p1, lp.e1).table == identity(sc.A).table
        assert compose(lp.p2, lp.e2).table == identity(sc.C).table
        e1p1 = compose(lp.e1, lp.p1)
        e2p2 = compose(lp.e2, lp.p2)
        assert compose(e1p1, e2p2).table == compose(e2p2, e1p1).table
        assert jointly_monic(lp.p1, lp.p2)
        # jointly epic iff every element lies on the cross
        cross = set(lp.e1.table) | set(lp.e2.table)
        assert jointly_epic(lp.e1, lp.e2) == (cross == set(range(lp.E)))


def test_intrinsic_check_round_trip_random():
    rng = random.Random(90125)
    for _ in range(200):
        sc = random_split_cospan(rng)
        lp = local_product(sc)
        res = check_local_product_intrinsic(lp.p1, lp.p2, lp.e1, lp.e2)
        assert res.report.ok
        assert res.regenerated.element_labels == lp.element_labels
        assert res.regenerated.p1.table == lp.p1.table
        assert res.regenerated.p2.table == lp.p2.table
        assert res.regenerated.e1.table == lp.e1.table
        assert res.regenerated.e2.table == lp.e2.table


def test_intrinsic_check_detects_broken_injection():
    bang = FinMap(2, 1, (0, 0))
    point = FinMap(1, 2, (0,))
    lp = local_product(SplitCospan(bang, point, bang, point))
    # break condition 2 by replacing e2 with a diagonal-ish injection
    labels = lp.element_labels
    bad_e2 = FinMap(2, 4, (labels.index((0, 0)), labels.index((1, 1))))
    res = check_local_product_intrinsic(lp.p1, lp.p2, lp.e1, bad_e2)
    assert not res.report.ok
    assert res.report.witness["condition"] == 2


def test_intrinsic_check_joins_the_compatible_pairs_once(monkeypatch):
    """On a diagram that holds, the compatible pairs are joined once, by
    the rebuilt local product, whose pullbacks are the only fibre scans:
    B's and A x_B C's."""
    from finkite import limits
    calls = []
    fibres = limits.fibres

    def counting(keys):
        calls.append(1)
        return fibres(keys)

    bang = FinMap(3, 1, (0, 0, 0))
    lp = local_product(SplitCospan(bang, FinMap(1, 3, (0,)), bang,
                                   FinMap(1, 3, (2,))))
    monkeypatch.setattr(limits, "fibres", counting)
    res = check_local_product_intrinsic(lp.p1, lp.p2, lp.e1, lp.e2)
    assert res.report.ok and len(calls) == 2


def test_intrinsic_check_on_singletons():
    one = identity(1)
    res = check_local_product_intrinsic(one, one, one, one)
    assert res.report.ok


def test_kernel_pair_examples():
    assert kernel_pair(identity(3)).pairs == ((0, 0), (1, 1), (2, 2))
    assert kernel_pair(FinMap(2, 1, (0, 0))).size == 4
    kp = kernel_pair(FinMap(3, 2, (0, 0, 1)))
    assert kp.pairs == ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
    assert jointly_monic(kp.p1, kp.p2)
    assert compose(kp.p1, kp.diagonal).table == identity(3).table
    assert compose(kp.p2, kp.diagonal).table == identity(3).table


def test_pushout_and_coproduct_compare():
    one = identity(1)
    sc = SplitCospan(one, one, one, one)
    assert local_coproduct_compare(local_product(sc)).ok

    bang = FinMap(2, 1, (0, 0))
    point = FinMap(1, 2, (0,))
    lp = local_product(SplitCospan(bang, point, bang, point))
    po = pushout_split_mono(lp.source)
    assert po.size == 3  # 2 + 2 - 1
    rep = local_coproduct_compare(lp)
    assert not rep.ok

    sc = SplitCospan(identity(3), identity(3), identity(3), identity(3))
    assert local_coproduct_compare(local_product(sc)).ok


def test_coproduct_compare_bijective_when_f_or_g_bijective():
    rng = random.Random(5150)
    for _ in range(60):
        sc = random_split_cospan(rng, max_size=4)
        lp = local_product(sc)
        f_bij = sc.A == sc.B
        g_bij = sc.C == sc.B
        if f_bij or g_bij:
            assert local_coproduct_compare(lp).ok


def test_extremal_check_forced_by_jointly_monic_span():
    # total relation span on a 2-set: fibres are singletons, count is 1
    bang = FinMap(2, 1, (0, 0))
    point = FinMap(1, 2, (0,))
    lp = local_product(SplitCospan(bang, point, bang, point))
    labels = [(a, b) for a in range(2) for b in range(2)]
    d = FinMap(4, 2, tuple(a for a, _ in labels))
    c = FinMap(4, 2, tuple(b for _, b in labels))
    # alpha(a) = (0, a) pairs, gamma(c) = (0, 0): compatible
    alpha = FinMap(2, 4, tuple(labels.index((0, a)) for a in range(2)))
    gamma = FinMap(2, 4, (labels.index((0, 0)),) * 2)
    res = extremal_instance_check(lp, d, c, alpha, gamma)
    assert res.count == 1


def test_extremal_check_existence_failure_on_order_relation():
    # the order relation on 2 is not difunctional; its kernel-pair local
    # product admits no multiplication (count 0)
    pairs = ((0, 0), (0, 1), (1, 1))
    d = FinMap(3, 2, tuple(a for a, _ in pairs))
    c = FinMap(3, 2, tuple(b for _, b in pairs))
    kp_d = kernel_pair(d)
    kp_c = kernel_pair(c)
    f = FinMap(kp_d.size, 3, kp_d.p2.table)
    r = kp_d.diagonal
    g = FinMap(kp_c.size, 3, kp_c.p1.table)
    s = kp_c.diagonal
    lp = local_product(SplitCospan(f, r, g, s))
    alpha = FinMap(kp_d.size, 3, kp_d.p1.table)
    gamma = FinMap(kp_c.size, 3, kp_c.p2.table)
    res = extremal_instance_check(lp, d, c, alpha, gamma)
    assert res.count == 0


def test_extremal_check_rejects_non_monic_span_in_m1():
    bang = FinMap(2, 1, (0, 0))
    point = FinMap(1, 2, (0,))
    lp = local_product(SplitCospan(bang, point, bang, point))
    with pytest.raises(CompatibilityViolation):
        extremal_instance_check(lp, bang, bang, identity(2), identity(2))


def test_extremal_check_singleton_target():
    one = identity(1)
    lp = local_product(SplitCospan(one, one, one, one))
    res = extremal_instance_check(lp, one, one, one, one)
    assert res.count == 1


def test_extremal_check_identity_span_forced():
    # discrete relation d = c = identity: m is pointwise forced
    bang = FinMap(2, 1, (0, 0))
    point = FinMap(1, 2, (0,))
    lp = local_product(SplitCospan(bang, point, bang, point))
    alpha = FinMap(2, 2, (0, 0))
    gamma = FinMap(2, 2, (0, 0))
    res = extremal_instance_check(lp, identity(2), identity(2), alpha, gamma)
    assert res.count == 1


def test_extremal_check_m0_counts_free_points():
    # same kite in class M0: the span to the point pins nothing off-cross
    bang = FinMap(2, 1, (0, 0))
    point = FinMap(1, 2, (0,))
    lp = local_product(SplitCospan(bang, point, bang, point))
    res = extremal_instance_check(lp, bang, bang, identity(2), identity(2),
                                  span_class="M0")
    assert res.count == 2
    assert len(res.solutions) == 2


# Nested-loop definitions, kept as oracles for the bucketed constructions.

def assert_validated(*ms):
    """Each map, built without the range scan, equals and hashes as the
    map that FinMap(dom, cod, table) validates from the same table."""
    for m in ms:
        valid = FinMap(m.dom, m.cod, m.table)
        assert m == valid and hash(m) == hash(valid)


def nested_pullback(g, f):
    return [(a, c) for a in range(f.dom) for c in range(g.dom)
            if f.table[a] == g.table[c]]


def nested_intrinsic_check(p1, p2, e1, e2):
    """(failing condition, witness) of the intrinsic local-product check,
    or (None, B) with B the reconstructed pairs, by nested loops."""
    E, A, C = p1.dom, p1.cod, p2.cod
    for a in range(A):
        if p1.table[e1.table[a]] != a:
            return 1, {"condition": 1, "element": a}
    for c in range(C):
        if p2.table[e2.table[c]] != c:
            return 1, {"condition": 1, "element": c}
    e1p1 = [e1.table[p1.table[x]] for x in range(E)]
    e2p2 = [e2.table[p2.table[x]] for x in range(E)]
    for x in range(E):
        if e1p1[e2p2[x]] != e2p2[e1p1[x]]:
            return 2, {"condition": 2, "element": x}
    for y in range(E):
        for x in range(y):
            if (p1.table[x], p2.table[x]) == (p1.table[y], p2.table[y]):
                return 3, {"condition": 3, "elements": [x, y]}
    hit = [(p1.table[x], p2.table[x]) for x in range(E)]
    for a in range(A):
        for c in range(C):
            if (p1.table[e2.table[p2.table[e1.table[a]]]] == p1.table[e2.table[c]]
                    and p2.table[e1.table[a]]
                    == p2.table[e1.table[p1.table[e2.table[c]]]]
                    and (a, c) not in hit):
                return 4, {"condition": 4, "pair": [a, c]}
    return None, nested_pullback(e2, e1)


def split_cospans(max_size=4, min_b=1):
    """Split cospans f: A -> B, g: C -> B with sections r, s; B = 0
    forces A = C = 0."""
    def split_epi(b):
        return st.integers(b, max_size if b else 0).flatmap(lambda a: st.tuples(
            st.permutations(range(a)),
            st.lists(st.integers(0, max(b - 1, 0)), min_size=a, max_size=a)))

    def build(b, left, right):
        legs = []
        for perm, table in (left, right):
            table = list(table)
            section = perm[:b]
            for i, x in enumerate(section):
                table[x] = i
            legs += [FinMap(len(table), b, tuple(table)),
                     FinMap(b, len(table), tuple(section))]
        return SplitCospan(*legs)

    return st.integers(min_b, max_size).flatmap(
        lambda b: st.tuples(split_epi(b), split_epi(b)).map(
            lambda lr: build(b, *lr)))


def maps_into(cod_max=4, dom_max=5):
    return st.tuples(st.integers(0, dom_max), st.integers(1, cod_max)).flatmap(
        lambda s: st.lists(st.integers(0, s[1] - 1), min_size=s[0],
                           max_size=s[0]).map(
            lambda t, cod=s[1]: FinMap(len(t), cod, tuple(t))))


@given(maps_into(), st.data())
@settings(max_examples=150, deadline=None)
def test_pullback_matches_nested_loop(f, data):
    g = data.draw(st.lists(st.integers(0, f.cod - 1), max_size=5).map(
        lambda t: FinMap(len(t), f.cod, tuple(t))))
    pb = pullback(g, f)
    want = nested_pullback(g, f)
    assert list(pb.labels) == want
    assert (pb.p1.dom, pb.p1.cod) == (len(want), f.dom)
    assert (pb.p2.dom, pb.p2.cod) == (len(want), g.dom)
    assert pb.p1.table == tuple(a for a, _ in want)
    assert pb.p2.table == tuple(c for _, c in want)
    assert_validated(pb.p1, pb.p2, compose(f, pb.p1), compose(g, pb.p2))


@given(maps_into())
@settings(max_examples=100, deadline=None)
def test_kernel_pair_matches_nested_loop(h):
    kp = kernel_pair(h)
    want = nested_pullback(h, h)
    assert list(kp.pairs) == want
    assert kp.p1.table == tuple(x for x, _ in want)
    assert kp.p2.table == tuple(y for _, y in want)
    assert kp.diagonal.table == tuple(want.index((y, y)) for y in range(h.dom))
    assert kp.diagonal.cod == len(want)
    assert_validated(kp.p1, kp.p2, kp.diagonal)


def local_product_by_index(sc):
    """local_product as first written: each injection's point looked up
    in an index of the pullback's labels."""
    pb = pullback(sc.g, sc.f)
    at = {lab: i for i, lab in enumerate(pb.labels)}
    e1 = [at[(a, sc.s.table[sc.f.table[a]])] for a in range(sc.A)]
    e2 = [at[(sc.r.table[sc.g.table[c]], c)] for c in range(sc.C)]
    return (pb.labels, pb.p1, pb.p2, FinMap(sc.A, pb.size, tuple(e1)),
            FinMap(sc.C, pb.size, tuple(e2)))


def identity_cospan(n):
    one = identity(n)
    return SplitCospan(one, one, one, one)


@given(split_cospans(min_b=0))
@example(identity_cospan(0))
@example(identity_cospan(1))
@example(identity_cospan(4))
@example(SplitCospan(FinMap(2, 2, (1, 0)), FinMap(2, 2, (1, 0)),
                     FinMap(2, 2, (1, 0)), FinMap(2, 2, (1, 0))))
@settings(max_examples=200, deadline=None)
def test_local_product_injections_match_the_label_index(sc):
    """The injections placed by fibre offsets, with the labels and
    projections, against an index of the labels; B = 0 (so A = C = 0)
    and all-singleton fibres included."""
    lp = local_product(sc)
    assert (lp.element_labels, lp.p1, lp.p2, lp.e1, lp.e2) == \
        local_product_by_index(sc)
    assert lp.E == len(lp.element_labels) and lp.source == sc


def perturb(lp, data):
    """The local product's diagram, or one with an entry changed, or with
    some off-cross points of E deleted (which fails condition 4)."""
    maps = {"p1": lp.p1, "p2": lp.p2, "e1": lp.e1, "e2": lp.e2}
    kind = data.draw(st.sampled_from(["none", "entry", "delete"]))
    off = sorted(set(range(lp.E)) - set(lp.e1.table) - set(lp.e2.table))
    if kind == "entry":
        name = data.draw(st.sampled_from(sorted(maps)))
        m = maps[name]
        if m.dom:
            i = data.draw(st.integers(0, m.dom - 1))
            table = list(m.table)
            table[i] = data.draw(st.integers(0, m.cod - 1))
            maps[name] = FinMap(m.dom, m.cod, tuple(table))
    elif kind == "delete" and off:
        gone = set(data.draw(st.lists(st.sampled_from(off), min_size=1)))
        keep = [x for x in range(lp.E) if x not in gone]
        new = {x: i for i, x in enumerate(keep)}
        E = len(keep)
        maps["p1"] = FinMap(E, lp.p1.cod, tuple(lp.p1.table[x] for x in keep))
        maps["p2"] = FinMap(E, lp.p2.cod, tuple(lp.p2.table[x] for x in keep))
        maps["e1"] = FinMap(lp.e1.dom, E, tuple(new[x] for x in lp.e1.table))
        maps["e2"] = FinMap(lp.e2.dom, E, tuple(new[x] for x in lp.e2.table))
    return maps["p1"], maps["p2"], maps["e1"], maps["e2"]


@given(split_cospans(), st.data())
@settings(max_examples=300, deadline=None)
def test_intrinsic_check_matches_nested_loop_on_perturbed_diagrams(sc, data):
    lp = local_product(sc)
    assert_validated(lp.p1, lp.p2, lp.e1, lp.e2)
    p1, p2, e1, e2 = perturb(lp, data)
    res = check_local_product_intrinsic(p1, p2, e1, e2)
    condition, want = nested_intrinsic_check(p1, p2, e1, e2)
    if condition is not None:
        assert not res.report.ok
        assert res.report.witness == want
        return
    assert res.report.ok
    assert round_trip_holds(p1, p2, e1, e2, res)
    assert res.cospan.r.table == tuple(a for a, _ in want)
    assert res.cospan.s.table == tuple(c for _, c in want)
    assert res.cospan.f.table == tuple(
        want.index((p1.table[e2.table[p2.table[e1.table[a]]]],
                    p2.table[e1.table[a]])) for a in range(p1.cod))
    assert res.cospan.g.table == tuple(
        want.index((p1.table[e2.table[c]],
                    p2.table[e1.table[p1.table[e2.table[c]]]]))
        for c in range(p2.cod))
    assert res.regenerated.element_labels == tuple(
        nested_pullback(res.cospan.g, res.cospan.f))
    assert_validated(res.cospan.f, res.cospan.g, res.relabel,
                     res.regenerated.e1, res.regenerated.e2)


def round_trip_holds(p1, p2, e1, e2, res):
    """The round trip that check_local_product_intrinsic once certified
    after conditions 1-4: x -> (p1 x, p2 x) is a bijection onto the
    rebuilt labels, equal to res.relabel, that carries p1 and p2 to the
    rebuilt projections and e1 and e2 to the rebuilt injections."""
    lp, E = res.regenerated, p1.dom
    at = {lab: i for i, lab in enumerate(lp.element_labels)}
    labels = [(p1.table[x], p2.table[x]) for x in range(E)]
    if not all(lab in at for lab in labels):
        return False
    relabel = FinMap(E, lp.E, tuple(at[lab] for lab in labels))
    return (relabel == res.relabel
            and lp.E == E
            and len(set(relabel.table)) == E
            and compose(lp.p1, relabel).table == p1.table
            and compose(lp.p2, relabel).table == p2.table
            and compose(relabel, e1).table == lp.e1.table
            and compose(relabel, e2).table == lp.e2.table)


def sections(E, A):
    """Every (p, e) with p: E -> A, e: A -> E and p e = 1_A."""
    for p in product(range(A), repeat=E):
        for e in product(range(E), repeat=A):
            if all(p[e[a]] == a for a in range(A)):
                yield FinMap(E, A, p), FinMap(A, E, e)


def test_round_trip_follows_from_conditions_1_to_4_on_every_small_diagram():
    """Every diagram with A, C <= 2, E <= 4 and condition 1 holding: each
    one that passes conditions 2-4 passes the round trip, and each other
    one fails at condition 2, 3 or 4."""
    passed = failed = 0
    for A, C, E in product(range(3), range(3), range(5)):
        for (p1, e1), (p2, e2) in product(list(sections(E, A)),
                                          list(sections(E, C))):
            res = check_local_product_intrinsic(p1, p2, e1, e2)
            if res.report.ok:
                passed += 1
                assert round_trip_holds(p1, p2, e1, e2, res)
            else:
                failed += 1
                assert res.report.witness["condition"] in (2, 3, 4)
    assert (passed, failed) == (110, 2837)


@given(split_cospans(min_b=0), st.data())
@settings(max_examples=300, deadline=None)
def test_split_cospan_raises_the_composite_texts_at_every_b(sc, data):
    """Split cospans at B = 0, 1 and more, with at most one entry of f,
    r, g or s redrawn: the cospan builds iff f r and g s are identities
    by the per-entry comprehension, and otherwise raises the same text,
    f r's first."""
    legs = [sc.f, sc.r, sc.g, sc.s]
    k = data.draw(st.integers(0, 4))
    if k < 4 and legs[k].dom:
        m = legs[k]
        table = list(m.table)
        table[data.draw(st.integers(0, m.dom - 1))] = data.draw(
            st.integers(0, m.cod - 1))
        legs[k] = FinMap(m.dom, m.cod, tuple(table))
    f, r, g, s = legs
    if [f.table[x] for x in r.table] != list(range(sc.B)):
        want = "f r is not the identity on B"
    elif [g.table[x] for x in s.table] != list(range(sc.B)):
        want = "g s is not the identity on B"
    else:
        assert SplitCospan(f, r, g, s).B == sc.B
        return
    with pytest.raises(InvalidSplitting) as err:
        SplitCospan(f, r, g, s)
    assert str(err.value) == want
