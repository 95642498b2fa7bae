import random

import pytest
from hypothesis import given, settings, strategies as st

from finkite.errors import DomainMismatch, IllTyped
from finkite.finmaps import (FinMap, compose, identity, is_epi, is_mono,
                             is_split_epi, ismember, ismember_pullback,
                             jointly_epic, jointly_monic, maps,
                             split_epi_section)
from finkite.limits import pullback


def finmap_strategy(max_size=6):
    def build(sizes):
        dom, cod = sizes
        if dom == 0:
            return st.just(FinMap(0, cod, ()))
        return st.tuples(*([st.integers(0, cod - 1)] * dom)).map(
            lambda t: FinMap(dom, cod, t))
    return st.tuples(st.integers(0, max_size), st.integers(1, max_size)).flatmap(build)


def composable_pair():
    def build(sizes):
        a, b, c = sizes
        f = st.tuples(*([st.integers(0, b - 1)] * a)).map(
            lambda t: FinMap(a, b, t)) if a else st.just(FinMap(0, b, ()))
        g = st.tuples(*([st.integers(0, c - 1)] * b)).map(
            lambda t: FinMap(b, c, t))
        return st.tuples(f, g)
    return st.tuples(st.integers(0, 5), st.integers(1, 5),
                     st.integers(1, 5)).flatmap(build)


def test_compose_definitional_example():
    g = FinMap(2, 3, (2, 0))
    f = FinMap(3, 2, (1, 1, 0))
    assert compose(g, f).table == (0, 0, 2)
    assert compose(g, f).dom == 3 and compose(g, f).cod == 3


def test_compose_identity_laws():
    f = FinMap(3, 2, (1, 1, 0))
    assert compose(identity(2), f).table == f.table
    assert compose(f, identity(3)).table == f.table


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatch):
        compose(FinMap(2, 2, (0, 1)), FinMap(2, 3, (0, 1)))


@given(composable_pair().flatmap(
    lambda fg: st.tuples(st.just(fg[0]), st.just(fg[1]),
                         st.integers(1, 5).flatmap(
                             lambda d: st.tuples(*([st.integers(0, d - 1)] *
                                                   fg[1].cod)).map(
                                 lambda t: FinMap(fg[1].cod, d, t))))))
def test_compose_associative(triple):
    f, g, h = triple
    assert compose(h, compose(g, f)).table == compose(compose(h, g), f).table


def test_mono_epi_section():
    f = FinMap(2, 1, (0, 0))
    assert not is_mono(f)
    assert is_epi(f)
    ok, s = is_split_epi(f)
    assert ok and s.table == (0,)
    assert is_mono(identity(3)) and is_epi(identity(3))
    empty = FinMap(0, 1, ())
    assert is_mono(empty) and not is_epi(empty)
    assert split_epi_section(empty) is None


def test_mono_iff_left_cancellable_small():
    for f in maps(2, 3):
        cancellable = True
        for u in maps(3, 2):
            for v in maps(3, 2):
                if compose(f, u).table == compose(f, v).table and u.table != v.table:
                    cancellable = False
        assert is_mono(f) == cancellable


def test_split_epi_section_is_least_preimage():
    f = FinMap(4, 2, (1, 0, 0, 1))
    s = split_epi_section(f)
    assert s.table == (1, 0)
    assert compose(f, s).table == (0, 1)


def test_ismember_examples():
    r = ismember((2, 0, 2), (0, 2))
    assert r.flags == (True, True, True)
    assert r.positions == (1, 0, 1)
    r = ismember((1,), (0, 2))
    assert r.flags == (False,) and r.positions == (None,)
    r = ismember((), (0,))
    assert r.flags == () and r.positions == ()


def test_ismember_least_index_on_repeats():
    r = ismember((5,), (5, 5, 5))
    assert r.positions == (0,)


def test_ismember_against_double_loop_oracle():
    rng = random.Random(20260808)
    for _ in range(1000):
        nf, nu = rng.randint(0, 16), rng.randint(0, 16)
        f = [rng.randint(0, 15) for _ in range(nf)]
        u = [rng.randint(0, 15) for _ in range(nu)]
        res = ismember(f, u)
        for i, v in enumerate(f):
            hits = [j for j, w in enumerate(u) if w == v]
            assert res.flags[i] == bool(hits)
            assert res.positions[i] == (hits[0] if hits else None)


def test_ismember_pullback_reading_matches_pullback():
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randint(1, 8)
        nf = rng.randint(0, 8)
        f = FinMap(nf, m, tuple(rng.randint(0, m - 1) for _ in range(nf)))
        codes = list(range(m))
        rng.shuffle(codes)
        nu = rng.randint(0, m)
        u = FinMap(nu, m, tuple(codes[:nu]))
        p_f, p_u = ismember_pullback(f, u)
        pb = pullback(u, f)
        assert pb.p1.table == p_f.table
        assert pb.p2.table == p_u.table


def test_ismember_pullback_rejects_repeats():
    with pytest.raises(IllTyped):
        ismember_pullback(FinMap(1, 2, (0,)), FinMap(2, 2, (0, 0)))


def test_jointly_monic_and_epic():
    one = identity(2)
    assert jointly_monic(one, one)
    # injections of a 2 x 2 product cross: e1(a) = (a, 0), e2(c) = (0, c)
    labels = [(a, c) for a in range(2) for c in range(2)]
    e1 = FinMap(2, 4, tuple(labels.index((a, 0)) for a in range(2)))
    e2 = FinMap(2, 4, tuple(labels.index((0, c)) for c in range(2)))
    p1 = FinMap(4, 2, tuple(a for a, _ in labels))
    p2 = FinMap(4, 2, tuple(c for _, c in labels))
    assert jointly_monic(p1, p2)
    assert not jointly_epic(e1, e2)
    const = FinMap(1, 2, (0,))
    assert not jointly_epic(const, const)
    with pytest.raises(DomainMismatch):
        jointly_monic(FinMap(2, 2, (0, 1)), FinMap(3, 2, (0, 1, 0)))


def test_jointly_monic_matches_pairing_into_product():
    for p1 in maps(3, 2):
        for p2 in maps(3, 2):
            labels = [(a, b) for a in range(2) for b in range(2)]
            pairing = FinMap(3, 4, tuple(labels.index((p1.table[x], p2.table[x]))
                                         for x in range(3)))
            assert jointly_monic(p1, p2) == is_mono(pairing)


def test_table_validation():
    with pytest.raises(IllTyped):
        FinMap(2, 2, (0, 2))
    with pytest.raises(IllTyped):
        FinMap(2, 2, (0,))


def old_range_check(dom, cod, table):
    """The per-entry range check FinMap made before its single-pass form."""
    for j, v in enumerate(table):
        if not (0 <= v < cod):
            raise IllTyped(
                f"table entry {v} at index {j} is out of range for cod {cod}")


def outcome(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return "accepted"


ENTRIES = st.one_of(st.integers(-3, 8), st.booleans(),
                    st.floats(-2, 8, allow_nan=False), st.just(float("nan")),
                    st.none())


@given(st.integers(0, 6), st.lists(ENTRIES, max_size=6))
@settings(max_examples=400, deadline=None)
def test_range_check_matches_the_per_entry_loop(cod, table):
    """Same verdict, and on a reject the same exception and message, as
    the per-entry loop: negative, out-of-range, bool, float, NaN and None
    entries."""
    assert outcome(FinMap, len(table), cod, tuple(table)) == \
        outcome(old_range_check, len(table), cod, tuple(table))


def test_range_check_names_the_first_bad_entry():
    with pytest.raises(IllTyped, match="entry 7 at index 2 .* cod 3$"):
        FinMap(5, 3, (0, 2, 7, -1, 9))
    with pytest.raises(IllTyped, match="entry -1 at index 0 "):
        FinMap(2, 3, (-1, 5))
    assert FinMap(2, 2, (True, False)).table == (True, False)
    with pytest.raises(TypeError):
        FinMap(2, 3, (0, None))
