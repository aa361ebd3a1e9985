"""One content-sequence pass per partition against the per-(partition, r)
path it replaced: every content-product family, uncapped, capped and as
one monomial's coefficient, for r <= 20."""

from fractions import Fraction

import pytest

from hurwitz import core
from hurwitz.core import (
    GSpec,
    character_sum,
    character_weights,
    completed_hurwitz,
    completed_hurwitz_sweep,
    connected_transform_multi,
    f_bar,
    hypergeometric_hurwitz_sweep,
    mixed_simple_hypergeometric,
    weighted_sweep,
)
from hurwitz.jack import b_hurwitz_sweep, deformed_contents, jack_weights
from hurwitz.partitions import contents, enumerate_partitions
from hurwitz.verify import ratio_family
from reference import content_product

R_VALUES = range(21)


def per_r_hypergeometric(r_values, gspec, profiles, d, caps=None):
    """The old path: ``content_product`` of the box contents at each r of
    each partition, summed against the character weights."""
    denominator, weights = character_weights(d, profiles)
    return weighted_sweep(
        weights, lambda lam: lambda r: content_product(contents(lam), gspec, r, caps),
        r_values, denominator)


def per_r_b(r_values, gspec, profiles, b, d, caps=None):
    """The old b-content path: ``content_product`` of the deformed contents
    at each r of each partition, summed against the Jack weights."""
    alpha = Fraction(b) + 1
    return weighted_sweep(
        jack_weights(d, profiles, b),
        lambda lam: lambda r: content_product(deformed_contents(lam, alpha), gspec, r, caps),
        r_values)


def coefficient(value, monomial):
    return value.coefficient(monomial) if isinstance(value, core.MultiPoly) else value


HYPERGEOMETRIC = {  # (gspec, profiles, d, caps)
    "K-only": (GSpec(K=2), (), 4, None),
    "u-v": (GSpec(K=1, L=1, M=1), ((2, 1, 1),), 4, None),
    "u-v-capped": (GSpec(K=2, L=1, M=1), (), 4, (2, 3)),
    "two-u-capped": (GSpec(K=1, L=2), ((3, 1, 1),), 5, (1, 2)),
}


@pytest.mark.parametrize("case", HYPERGEOMETRIC)
def test_hypergeometric_sweep_matches_the_per_r_path(case):
    gspec, profiles, d, caps = HYPERGEOMETRIC[case]
    want = per_r_hypergeometric(R_VALUES, gspec, profiles, d, caps)
    results = hypergeometric_hurwitz_sweep(R_VALUES, gspec, profiles, d=d, caps=caps)
    assert [result.value for result in results] == [want[r] for r in R_VALUES]
    assert any(not result.value.is_zero() for result in results)


@pytest.mark.parametrize("monomial", [(0, 0), (1, 2), (3, 0), (2, 2)])
def test_hypergeometric_monomial_matches_the_per_r_coefficient(monomial):
    gspec, profiles = GSpec(K=2, L=1, M=1), ((2, 2, 1),)
    want = per_r_hypergeometric(R_VALUES, gspec, profiles, 5, monomial)
    results = hypergeometric_hurwitz_sweep(R_VALUES, gspec, profiles, monomial=monomial)
    values = [result.value for result in results]
    assert values == [coefficient(want[r], monomial) for r in R_VALUES]
    assert all(isinstance(value, Fraction) for value in values) and any(values)


def listings(monkeypatch):
    """The (degree, profiles) of every ``core.character_weights`` call from now on."""
    original, listed = core.character_weights, []

    def counted(d, profiles):
        listed.append((d, tuple(profiles)))
        return original(d, profiles)

    monkeypatch.setattr(core, "character_weights", counted)
    return listed


@pytest.mark.parametrize("caps, monomial", [(None, None), ((1, 2), None), (None, (1, 2))])
def test_connected_hypergeometric_matches_the_per_r_path(caps, monomial, monkeypatch):
    gspec, profiles, r_values = GSpec(K=1, L=1, M=1), ((2, 1, 1),), range(11)
    cap = caps if monomial is None else monomial

    def evaluator(counts, profs, dd):
        return per_r_hypergeometric(counts, gspec, profs, dd, cap)[counts[0]]
    want = {r: connected_transform_multi(evaluator, (r,), profiles, d=4, caps=cap)
            for r in r_values}
    listed = listings(monkeypatch)
    results = hypergeometric_hurwitz_sweep(r_values, gspec, profiles, connected=True,
                                           caps=caps, monomial=monomial)
    assert len(listed) == len(set(listed)) and (4, profiles) in listed
    got = [result.value for result in results]
    if monomial is None:
        assert got == [want[r] for r in r_values]
    else:
        assert got == [coefficient(want[r], monomial) for r in r_values]
    assert any(value != 0 for value in got)


@pytest.mark.parametrize("s", [1, 2])
def test_connected_completed_range_matches_each_single_value(s, monkeypatch):
    profiles, r_values = ((3, 1, 1), (2, 2, 1)), range(7)
    want = [completed_hurwitz(r, s, profiles, connected=True).value for r in r_values]
    listed = listings(monkeypatch)
    results = completed_hurwitz_sweep(r_values, s, profiles, connected=True)
    assert [result.value for result in results] == want and any(want)
    assert len(listed) == len(set(listed)) and (5, profiles) in listed


@pytest.mark.parametrize("caps, monomial", [(None, None), ((2,), None), (None, (2,))])
def test_mixed_simple_hypergeometric_matches_the_per_r_path(caps, monomial):
    gspec, profiles, r_simple = GSpec(K=1, M=1), ((2, 1, 1),), 2
    for r in R_VALUES:
        cap = caps if monomial is None else monomial
        want = character_sum(4, profiles, lambda lam: content_product(
            contents(lam), gspec, r, cap) * f_bar(lam, 2) ** r_simple)
        got = mixed_simple_hypergeometric(r_simple, r, gspec, profiles,
                                          caps=caps, monomial=monomial)
        assert got == (want if monomial is None else coefficient(want, monomial)), r


@pytest.mark.parametrize("r_simple, r, order", [
    (-1, 2, "r_simple"), (1, -2, "r"),
], ids=["negative-r-simple", "negative-r"])
def test_mixed_simple_sweep_refuses_a_negative_order(r_simple, r, order):
    with pytest.raises(core.DomainError, match=f"^{order} must be nonnegative"):
        mixed_simple_hypergeometric(r_simple, r, GSpec(K=1, L=1), d=3)


B_CASES = {  # (gspec, profiles, b, d, caps)
    "K-only": (GSpec(K=2), (), Fraction(1, 2), 4, None),
    "u-v": (GSpec(K=1, L=1, M=1), ((2, 1),), 2, 3, None),
    "u-v-capped": (GSpec(K=1, L=1, M=1), (), Fraction(1, 2), 4, (1, 2)),
    "negative-half-profiles": (GSpec(K=1, L=1, M=1), ((2, 1, 1),), Fraction(-1, 2), 4, None),
    "negative-third-capped": (GSpec(K=2, L=1, M=1), (), Fraction(-2, 3), 4, (1, 2)),
    "two-fifths-profiles-capped": (GSpec(K=1, L=2), ((3, 1), (2, 2)), Fraction(2, 5), 4,
                                   (2, 1)),
    "negative-third-profile": (GSpec(K=1, M=1), ((2, 1, 1),), Fraction(-2, 3), 4, None),
    "negative-alpha-capped": (GSpec(K=1, L=1, M=1), ((2, 1),), Fraction(-5, 2), 3, (2, 2)),
}


def all_fractions(value):
    return isinstance(value, core.MultiPoly) and all(
        type(c) is Fraction for c in value.terms.values())


@pytest.mark.parametrize("case", B_CASES)
def test_b_sweep_matches_the_per_r_path(case):
    gspec, profiles, b, d, caps = B_CASES[case]
    want = per_r_b(R_VALUES, gspec, profiles, b, d, caps)
    got = b_hurwitz_sweep(R_VALUES, gspec, profiles, b, d=d, caps=caps)
    assert [got[r] for r in R_VALUES] == [want[r] for r in R_VALUES]
    assert all(all_fractions(value) for value in got.values())
    assert any(not value.is_zero() for value in got.values())


def test_b_monomial_matches_the_per_r_coefficient():
    gspec, monomial = GSpec(K=1, L=1, M=1), (1, 2)
    want = per_r_b(R_VALUES, gspec, (), Fraction(1, 2), 4, monomial)
    got = b_hurwitz_sweep(R_VALUES, gspec, (), Fraction(1, 2), d=4, monomial=monomial)
    assert [got[r] for r in R_VALUES] == [coefficient(want[r], monomial) for r in R_VALUES]
    assert all(isinstance(value, Fraction) for value in got.values()) and any(got.values())


@pytest.mark.parametrize("b, profiles, monomial", [
    (Fraction(-1, 2), (), (1, 2)),
    (Fraction(-2, 3), ((2, 2),), (0, 1)),
    (Fraction(2, 5), ((3, 1),), (2, 0)),
])
def test_b_monomial_over_other_denominators(b, profiles, monomial):
    gspec = GSpec(K=2, L=1, M=1)
    want = per_r_b(R_VALUES, gspec, profiles, b, 4, monomial)
    got = b_hurwitz_sweep(R_VALUES, gspec, profiles, b, d=4, monomial=monomial)
    assert [got[r] for r in R_VALUES] == [coefficient(want[r], monomial) for r in R_VALUES]
    assert all(type(value) is Fraction for value in got.values()) and any(got.values())


@pytest.mark.parametrize("a_vec, b_vec, profiles", [
    ((), (), ((3, 1),)), ((2,), (1,), ()), ((1, 1), (2,), ((2, 2),))])
def test_monotone_ratio_matches_the_per_r_coefficient(a_vec, b_vec, profiles):
    gspec = GSpec(K=2, L=len(a_vec), M=len(b_vec))
    want = per_r_hypergeometric(R_VALUES, gspec, profiles, 4, a_vec + b_vec)
    _, exact, _ = ratio_family("monotone", R_VALUES, d=4, profiles=profiles, k=2,
                               a_vec=a_vec, b_vec=b_vec)
    assert [exact[r] for r in R_VALUES] == [coefficient(want[r], a_vec + b_vec)
                                            for r in R_VALUES]
    assert any(exact.values())


@pytest.mark.parametrize("b, profiles", [(Fraction(1, 2), ()), (2, ((2, 1, 1),))])
def test_b_ratio_matches_the_per_r_path(b, profiles):
    want = per_r_b(R_VALUES, GSpec(K=1), profiles, b, 4)
    _, exact, _ = ratio_family("b", R_VALUES, d=4, profiles=profiles, k=1, b=b)
    assert [exact[r] for r in R_VALUES] == [coefficient(want[r], ()) for r in R_VALUES]
    assert any(exact.values())


def test_weighted_sweep_leaves_a_factors_polynomial_as_it_is():
    # The factor hands back one cached polynomial for every partition and r.
    poly = core.MultiPoly(2, {(1, 0): 3, (0, 2): -1, (2, 2): Fraction(1, 2)})
    terms = dict(poly.terms)
    weights = [((2,), 4), ((1, 1), -4), ((3,), 2), ((2, 1), 5)]
    got = weighted_sweep(weights, lambda lam: lambda r: poly, range(3), 6)
    assert poly.terms == terms
    assert all(value == poly.scale(Fraction(7, 6)) for value in got.values())
    assert len({id(value) for value in got.values()} | {id(poly)}) == 4
    got[0].terms.clear()
    assert poly.terms == terms and got[1] == poly.scale(Fraction(7, 6))


def test_caps_and_monomial_are_checked():
    with pytest.raises(core.DomainError, match="monomial"):
        hypergeometric_hurwitz_sweep(R_VALUES, GSpec(K=1, L=1), d=3, monomial=(1, 1))
    with pytest.raises(core.DomainError, match="monomial"):
        mixed_simple_hypergeometric(1, 2, GSpec(K=1, L=1), d=3, monomial=(-1,))
    with pytest.raises(core.DomainError, match="caps"):
        b_hurwitz_sweep(R_VALUES, GSpec(K=1, L=1), (), 1, d=3, caps=(1, 1))
    with pytest.raises(core.DomainError, match="caps"):
        hypergeometric_hurwitz_sweep(R_VALUES, GSpec(K=1, M=1), d=3, caps=(-1,))
    with pytest.raises(core.DomainError, match="not both"):
        hypergeometric_hurwitz_sweep(R_VALUES, GSpec(K=1, L=1), d=3, caps=(1,),
                                     monomial=(1,))
    with pytest.raises(core.DomainError, match="not both"):
        hypergeometric_hurwitz_sweep((6,), GSpec(K=1, L=1), ((3, 2, 1), (2, 2, 2)),
                                     connected=True, caps=(1,), monomial=(2,))


def test_mixed_orders_are_checked_by_name():
    with pytest.raises(core.DomainError, match="^r_simple must be nonnegative: -1$"):
        mixed_simple_hypergeometric(-1, 2, GSpec(K=1), d=3)
    with pytest.raises(core.DomainError, match="^r must be nonnegative: -2$"):
        mixed_simple_hypergeometric(0, -2, GSpec(K=1), d=3)


def test_a_monomial_beyond_the_range_is_zero():
    results = hypergeometric_hurwitz_sweep(range(4), GSpec(K=1, L=1), d=3, monomial=(5,))
    assert [result.value for result in results] == [0] * 4


# ---------------------------------------------------------------------------
# One sequence build per partition
# ---------------------------------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """The orders of every ``content_sequences`` call, from a cleared memo."""
    orders = []
    original = core.content_sequences

    def counted(weights, gspec, r):
        orders.append(r)
        return original(weights, gspec, r)

    monkeypatch.setattr(core, "content_sequences", counted)
    core._content_coefficient.cache_clear()
    yield orders
    core._content_coefficient.cache_clear()


@pytest.mark.parametrize("caps", [None, (2, 3)])
def test_hypergeometric_range_builds_each_partitions_sequences_once(builds, caps):
    hypergeometric_hurwitz_sweep(R_VALUES, GSpec(K=2, L=1, M=1), d=5, caps=caps)
    assert builds == [20] * len(enumerate_partitions(5))


def test_connected_range_builds_each_partitions_sequences_once(builds):
    hypergeometric_hurwitz_sweep(R_VALUES, GSpec(K=1, L=1), d=4, connected=True, caps=(2,))
    assert builds == [20] * sum(len(enumerate_partitions(dd)) for dd in range(1, 5))


@pytest.mark.parametrize("caps", [None, (2, 3)])
def test_b_range_builds_each_partitions_sequences_once(builds, caps):
    b_hurwitz_sweep(R_VALUES, GSpec(K=2, L=1, M=1), (), Fraction(1, 2), d=5, caps=caps)
    assert builds == [20] * len(enumerate_partitions(5))
