"""theta and delta_identity_check against their first form.

The reference below rebuilds the swapped kernel pair construction, its
composable pairs and the unit, dom and cod checks of mu inside every
call, and delta re-checks the hypotheses of the kite over E.  The
library builds them once, in maltsev_mu, and passes the validated
UnitalMultiplication along.  Both must give the same m tables, the same
report bytes and the same exception types and texts.
"""
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from finkite import internal, kitecond
from finkite.errors import DomainMismatch, HypothesisViolation, IllTyped
from finkite.finmaps import (FinMap, compose, first_mismatch, identity,
                             index_of, jointly_monic)
from finkite.gallery import group_kite_bundle, terminal_span_kite
from finkite.internal import Span, composable_pairs, kpc, kpc_swapped
from finkite.kitecond import (KiteDiagram, ThetaResult, UnitalMultiplication,
                              check_hypotheses, delta_identity_check,
                              maltsev_mu, theta)
from finkite.report import fails, holds


def reference_theta(k, mu):
    """theta as it was: (theta table, m table) for a bare table mu."""
    rep = check_hypotheses(k)
    if not rep.ok:
        raise HypothesisViolation(f"kite hypotheses fail: {rep.witness}")
    kswap = kpc_swapped(k.span)
    c2 = composable_pairs(kswap.graph)
    if mu.dom != c2.size or mu.cod != kswap.size:
        raise DomainMismatch("mu must be a multiplication on the swapped "
                             "kernel pair construction of (D, d, c)")
    one = identity(kswap.size).table
    if compose(mu, c2.e1).table != one:
        raise IllTyped("mu e1 != 1 on the triple object")
    if compose(mu, c2.e2).table != one:
        raise IllTyped("mu e2 != 1 on the triple object")
    if compose(kswap.graph.d, mu).table != \
            compose(kswap.graph.d, c2.pi2).table:
        raise IllTyped("dom mu != dom pi2")
    if compose(kswap.graph.c, mu).table != \
            compose(kswap.graph.c, c2.pi1).table:
        raise IllTyped("cod mu != cod pi1")
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
    return th.table, compose(kswap.mid, compose(mu, th)).table


def reference_delta(k, mu_e):
    """delta_identity_check as it was: the JSON of its report."""
    rep = check_hypotheses(k)
    if not rep.ok:
        raise HypothesisViolation(f"kite hypotheses fail: {rep.witness}")
    over_e = KiteDiagram(k.p1, k.p2, k.e1, k.e2, k.e1,
                         compose(compose(k.e1, k.p1), compose(k.e2, k.p2)),
                         k.e2, k.p2, k.p1)
    comp = FinMap(k.E, k.E, reference_theta(over_e, mu_e)[1])
    for name, lhs, rhs in (
            ("p1 mid mu delta != p1", compose(k.p1, comp), k.p1),
            ("p2 mid mu delta != p2", compose(k.p2, comp), k.p2)):
        w = first_mismatch(lhs, rhs)
        if w is not None:
            return fails("delta-check",
                         {"equation": name, "element": w}).to_json()
    if not jointly_monic(k.p1, k.p2):
        return fails("delta-check",
                     {"equation": "(p1, p2) not jointly monic"}).to_json()
    w = first_mismatch(comp, identity(k.E))
    if w is not None:
        return fails("delta-check", {"equation": "mid mu delta != 1_E",
                                     "element": w}).to_json()
    return holds("delta-check",
                 ["p1 mid mu delta = p1", "p2 mid mu delta = p2",
                  "hence mid mu delta = 1_E by joint monicity"]).to_json()


def outcome(run, *args):
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


def new_theta(k, mul, mu):
    """theta on mu, validated once on the construction that mul holds."""
    th = theta(k, UnitalMultiplication(mul.k, mul.c2, mu))
    return th.theta.table, th.m.table


def new_delta(k, mul_e, mu_e):
    return delta_identity_check(
        k, UnitalMultiplication(mul_e.k, mul_e.c2, mu_e)).to_json()


def assert_paths_agree(k, mul, mul_e, mu=None, mu_e=None):
    mu = mul.mu if mu is None else mu
    mu_e = mul_e.mu if mu_e is None else mu_e
    assert outcome(new_theta, k, mul, mu) == outcome(reference_theta, k, mu)
    assert outcome(new_delta, k, mul_e, mu_e) == \
        outcome(reference_delta, k, mu_e)


def terminal_bundle(n):
    """terminal_span_kite(n) with x - y + z on Z_n, and componentwise on
    the kpc triples that are the points of its E."""
    bang = FinMap(n, 1, (0,) * n)
    span = Span(bang, bang)
    kd = terminal_span_kite(n)
    mul = maltsev_mu(kpc_swapped(span), lambda x, y, z: (x - y + z) % n)
    triples = kpc(span).triples
    t_index = index_of(triples)

    def p_e(i, j, k):
        return t_index[tuple((a - b + c) % n for a, b, c
                             in zip(triples[i], triples[j], triples[k]))]
    return kd, mul, maltsev_mu(kpc_swapped(Span(kd.p2, kd.p1)), p_e)


def singleton_bundle():
    one = identity(1)
    kd = KiteDiagram(one, one, one, one, one, one, one, one, one)
    mul = maltsev_mu(kpc_swapped(Span(one, one)), lambda x, y, z: 0)
    return kd, mul, mul


BUNDLES = {"group2": lambda: group_kite_bundle(2),
           "group3": lambda: group_kite_bundle(3),
           "terminal2": lambda: terminal_bundle(2),
           "terminal3": lambda: terminal_bundle(3),
           "singleton": singleton_bundle}


def broken(kd, which):
    """kd with one leg or injection changed so that its hypotheses fail."""
    swap = FinMap(kd.E, kd.E, tuple(reversed(range(kd.E))))
    legs = vars(kd).copy()
    if which == "beta":
        legs["beta"] = compose(kd.beta, swap)
    else:   # e1 off its section, when E has two points or more
        legs["e1"] = compose(swap, kd.e1)
    return KiteDiagram(**legs)


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_valid_multiplications_agree_with_the_reference(name):
    kd, mul, mul_e = BUNDLES[name]()
    assert_paths_agree(kd, mul, mul_e)
    assert not isinstance(outcome(new_theta, kd, mul, mul.mu)[0], type)


@pytest.mark.parametrize("name", ["group2", "terminal2", "terminal3"])
@pytest.mark.parametrize("which", ["beta", "e1"])
def test_kites_whose_hypotheses_fail_agree_with_the_reference(name, which):
    kd, mul, mul_e = BUNDLES[name]()
    bad = broken(kd, which)
    assert not check_hypotheses(bad).ok
    assert_paths_agree(bad, mul, mul_e)
    assert outcome(new_theta, bad, mul, mul.mu)[0] is HypothesisViolation


def perturbed(mu, edits):
    table = list(mu.table)
    for i, v in edits:
        table[i % mu.dom] = v % mu.cod
    return FinMap(mu.dom, mu.cod, tuple(table))


edits = st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                 min_size=1, max_size=3)


@given(name=st.sampled_from(["group2", "group3", "terminal2", "terminal3"]),
       mu_edits=edits, mu_e_edits=edits, keep=st.sampled_from(["mu", "mu_e"]))
@settings(max_examples=60, deadline=None)
def test_perturbed_multiplications_agree_with_the_reference(
        name, mu_edits, mu_e_edits, keep):
    """One of mu, mu_e changed in a few entries: either rejected with
    the same exception, or the same m table and delta report."""
    kd, mul, mul_e = BUNDLES[name]()
    mu = mul.mu if keep == "mu" else perturbed(mul.mu, mu_edits)
    mu_e = mul_e.mu if keep == "mu_e" else perturbed(mul_e.mu, mu_e_edits)
    assert_paths_agree(kd, mul, mul_e, mu, mu_e)


def test_a_mu_that_keeps_its_units_but_moves_off_them_is_validated_alike():
    # entries off e1(C1) u e2(C1) that keep dom and cod pass validation
    # in both paths; the m tables still agree
    kd, mul, _ = terminal_bundle(2)
    k, c2 = mul.k, mul.c2
    on_units = set(c2.e1.table) | set(c2.e2.table)
    by_ends = {}
    for t in range(k.size):
        by_ends.setdefault((k.graph.d.table[t], k.graph.c.table[t]),
                           []).append(t)
    for i in range(c2.size):
        if i in on_units:
            continue
        t = mul.mu.table[i]
        others = [u for u in by_ends[k.graph.d.table[t], k.graph.c.table[t]]
                  if u != t]
        if others:
            mu = perturbed(mul.mu, [(i, others[0])])
            assert outcome(new_theta, kd, mul, mu) == \
                outcome(reference_theta, kd, mu)
            assert not isinstance(outcome(new_theta, kd, mul, mu)[0], type)
            return
    pytest.fail("no entry of mu can move within its (dom, cod) fibre")


def count_calls(monkeypatch, owners_and_names):
    """Wrap each named function wherever a finkite module holds it."""
    counts = Counter()
    for owner, name in owners_and_names:
        fn = getattr(owner, name)

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("finkite") and \
                    getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, wrapper)
    return counts


def test_one_bundle_theta_and_delta_build_each_construction_once(monkeypatch):
    counts = count_calls(monkeypatch, [(internal, "kpc_swapped"),
                                       (internal, "composable_pairs"),
                                       (kitecond, "check_hypotheses")])
    kd, mu, mu_e = group_kite_bundle(2)
    theta(kd, mu)
    assert delta_identity_check(kd, mu_e).ok
    assert counts == {"kpc_swapped": 2, "composable_pairs": 2,
                      "check_hypotheses": 2}


def test_a_perturbed_multiplication_is_rejected_before_any_kite_is_read():
    """The one ordering difference from the reference: a bad table on a
    kite whose hypotheses also fail raises the table's IllTyped, because
    the multiplication is validated when it is built."""
    kd, mul, _ = group_kite_bundle(2)
    bad = perturbed(mul.mu, [(mul.c2.e1.table[0], mul.mu.table[0] + 1)])
    assert outcome(reference_theta, broken(kd, "beta"), bad)[0] is \
        HypothesisViolation
    assert outcome(new_theta, broken(kd, "beta"), mul, bad) == \
        (IllTyped, "mu e1 != 1 on the triple object")



def dict_theta(k, mul):
    """kitecond._theta as first written: dicts over the whole triple
    object and the whole object of composable pairs."""
    kswap, c2 = mul.k, mul.c2
    if not kswap.swapped or kswap.span != k.span:
        raise DomainMismatch("mu must be a multiplication on the swapped "
                             "kernel pair construction of (D, d, c)")
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
    return ThetaResult(th, compose(kswap.mid, compose(mul.mu, th)))


def kite_over_e(k):
    """The kite of E over itself, whose theta is delta."""
    return KiteDiagram(k.p1, k.p2, k.e1, k.e2, k.e1,
                       compose(compose(k.e1, k.p1), compose(k.e2, k.p2)),
                       k.e2, k.p2, k.p1)


def theta_cases(name):
    """(kite, multiplication) for theta and for delta on one bundle."""
    kd, mul, mul_e = BUNDLES[name]()
    return {"theta": (kd, mul), "delta": (kite_over_e(kd), mul_e)}


def with_leg(kd, leg, edits):
    table = list(getattr(kd, leg).table)
    for i, v in edits:
        table[i % len(table)] = v % kd.D
    legs = {name: getattr(kd, name) for name in
            "p1 p2 e1 e2 alpha beta gamma d c".split()}
    legs[leg] = FinMap(len(table), kd.D, tuple(table))
    return KiteDiagram(**legs)


def without_label(mul, i):
    """mul with pair i dropped from its composable pairs: a stand-in
    that reaches theta's third IllTyped."""
    labels = mul.c2.labels[:i] + mul.c2.labels[i + 1:]
    return SimpleNamespace(k=mul.k, c2=replace(mul.c2, labels=labels),
                           mu=mul.mu)


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_bisected_theta_agrees_with_the_dict_oracle(name):
    for kd, mul in theta_cases(name).values():
        got = kitecond._theta(kd, mul)
        assert got == dict_theta(kd, mul)
        assert isinstance(got, ThetaResult)


@pytest.mark.parametrize("name", ["group2", "terminal2", "singleton"])
def test_every_theta_failure_matches_the_dict_oracle(name):
    """Each leg entry of each kite moved to each value, and each pair
    that theta reads dropped: the same result or exception text, and
    all three IllTyped texts are reached."""
    texts = Counter()
    for kd, mul in theta_cases(name).values():
        for leg in ("alpha", "beta", "gamma"):
            for i in range(getattr(kd, leg).dom):
                for v in range(kd.D):
                    bad = with_leg(kd, leg, [(i, v)])
                    got = outcome(kitecond._theta, bad, mul)
                    assert got == outcome(dict_theta, bad, mul)
                    if isinstance(got, tuple) and got[0] is IllTyped:
                        texts[got[1].split(" ")[1]] += 1
        hit = kitecond._theta(kd, mul).theta.table
        for i in sorted({hit[0], hit[-1], hit[len(hit) // 2]}):
            stand_in = without_label(mul, i)
            got = outcome(kitecond._theta, kd, stand_in)
            assert got == outcome(dict_theta, kd, stand_in)
            assert got[0] is IllTyped and "not composable" in got[1]
            texts["components"] += 1
    expected = {"components"} | ({"first", "second"} if name != "singleton"
                                 else set())
    assert set(texts) == expected


@given(name=st.sampled_from(["group2", "group3", "terminal2", "terminal3"]),
       which=st.sampled_from(["theta", "delta"]),
       leg=st.sampled_from(["alpha", "beta", "gamma"]), leg_edits=edits)
@settings(max_examples=60, deadline=None)
def test_perturbed_kites_agree_with_the_dict_oracle(name, which, leg,
                                                    leg_edits):
    kd, mul = theta_cases(name)[which]
    bad = with_leg(kd, leg, leg_edits)
    assert outcome(kitecond._theta, bad, mul) == outcome(dict_theta, bad, mul)
