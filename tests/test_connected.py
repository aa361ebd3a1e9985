"""The connected transform against closed forms, permutations and the
inclusion-exclusion it replaced."""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from hurwitz import core, oracle
from hurwitz.core import (
    GSpec,
    _integral,
    _resolve_degree,
    character_sum,
    character_weights,
    classical_hurwitz,
    classical_hurwitz_sweep,
    completed_hurwitz,
    completed_hurwitz_sweep,
    completed_sweep,
    connected_spectrum,
    connected_transform_multi,
    f_bar,
    f_bar_denominator,
    gw_correlator,
    hypergeometric_hurwitz,
    hypergeometric_hurwitz_sweep,
    orbifold_hurwitz,
)
from hurwitz.exactnum import MultiPoly
from hurwitz.partitions import class_data, contents, partition_tuple
from reference import content_product


# ---------------------------------------------------------------------------
# Reference: inclusion-exclusion over ordered tuples of components
# ---------------------------------------------------------------------------

def _weak_compositions(total, k):
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, k - 1):
            yield (first,) + rest


def _compositions(total, k):
    """Ordered k-tuples of positive integers summing to total."""
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _position_splits(mu, size):
    """``(sub, rest)`` for each sub-multiset ``sub`` of the partition mu
    with the given total and the parts ``rest`` left over, read off the
    sets of positions of mu, in decreasing order of ``sub``."""
    found = {}
    for k in range(len(mu) + 1):
        for chosen in itertools.combinations(range(len(mu)), k):
            sub = tuple(mu[i] for i in chosen)
            if sum(sub) == size:
                found[sub] = tuple(p for i, p in enumerate(mu) if i not in chosen)
    return sorted(found.items(), reverse=True)


def _profile_splits(profiles, sizes):
    """Ordered splits of every profile into sub-profiles of the given sizes;
    per split, a tuple over profiles of tuples over components."""
    def split_one(mu, sizes):
        if len(sizes) == 1:
            if sum(mu) == sizes[0]:
                yield (mu,)
            return
        for sub, rest in _position_splits(mu, sizes[0]):
            for tail in split_one(rest, sizes[1:]):
                yield (sub,) + tail

    def rec(idx):
        if idx == len(profiles):
            yield ()
            return
        for head in split_one(profiles[idx], sizes):
            for tail in rec(idx + 1):
                yield (head,) + tail

    yield from rec(0)


def _count_splits(counts, k):
    """Cartesian product of weak compositions, one per insertion type."""
    if not counts:
        yield ()
        return
    for head in _weak_compositions(counts[0], k):
        for tail in _count_splits(counts[1:], k):
            yield (head,) + tail


def _multinomial(counts):
    total = sum(counts)
    out = 1
    for c in counts:
        out *= math.comb(total, c)
        total -= c
    return out


def reference_transform(evaluator, counts, profiles, *, d):
    """log of the disconnected series, expanded as sum_k (-1)^(k-1)/k F^k
    over ordered compositions of d, profile splits and weak compositions
    of the insertion counts; exponential in the number of components."""
    d, profiles = _resolve_degree(profiles, d)
    n = len(profiles)
    memo = {}

    def h_tilde(sub_counts, sub_profiles, dd):
        key = (sub_counts, sub_profiles, dd)
        if key not in memo:
            value = evaluator(sub_counts, sub_profiles, dd)
            scale = 1
            for mu in sub_profiles:
                scale *= class_data(mu).class_size
            memo[key] = value * scale
        return memo[key]

    total = None
    for k in range(1, d + 1):
        sign = Fraction((-1) ** (k - 1), k)
        for sizes in _compositions(d, k):
            for split in _profile_splits(profiles, sizes):
                pieces = [tuple(split[j][i] for j in range(n)) for i in range(k)]
                for count_splits in _count_splits(counts, k):
                    weight = sign
                    for parts in count_splits:
                        weight *= _multinomial(parts)
                    term = None
                    for i in range(k):
                        sub_counts = tuple(parts[i] for parts in count_splits)
                        val = h_tilde(sub_counts, pieces[i], sizes[i])
                        term = val if term is None else term * val
                        if term == 0:
                            term = None
                            break
                    if term is None:
                        continue
                    term = term * weight
                    total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    scale = 1
    for mu in profiles:
        scale *= class_data(mu).class_size
    return total * Fraction(1, scale)


# ---------------------------------------------------------------------------
# Evaluators, in the normalization each family's front door uses
# ---------------------------------------------------------------------------

def _completed(s):
    return lambda counts, profiles, d: completed_hurwitz(counts[0], s, profiles, d=d).value


def _hypergeometric(gspec):
    return lambda counts, profiles, d: hypergeometric_hurwitz(
        counts[0], gspec, profiles, d=d).value


def _typed_gw(orders):
    def evaluator(counts, profiles, d):
        def factor(lam):
            acc = Fraction(1)
            for s, m in zip(orders, counts):
                acc *= f_bar(lam, s + 1) ** m
            return acc
        return character_sum(d, profiles, factor)
    return evaluator


GW_PROFILES = ((2, 1, 1), (2, 2))
TWO_PROFILES = ((3, 1, 1), (2, 2, 1))
HYPERGEOMETRIC = GSpec(K=1, L=1, M=1)
THREE_PROFILES = ((2, 1, 1), (2, 1, 1), (3, 1))
CAPS = (1, 1)


def _capped_hypergeometric(counts):
    """The capped connected value, with the uncapped value's monomials
    beyond the caps added back: it equals the uncapped value exactly when
    every monomial inside the caps does and none lies beyond them."""
    full = hypergeometric_hurwitz(counts[0], HYPERGEOMETRIC, (), d=4, connected=True).value
    capped = hypergeometric_hurwitz(counts[0], HYPERGEOMETRIC, (), d=4, connected=True,
                                    caps=CAPS).value
    return capped + (full - full.truncate(CAPS))


def _gw_connected(orders):
    """``gw_correlator``'s connected value without its scale
    1/(z(mu) z(nu) prod_s s!^{m_s})."""
    def value(counts):
        scale = math.prod(class_data(mu).stabilizer for mu in GW_PROFILES)
        for s, m in zip(orders, counts):
            scale *= math.factorial(s) ** m
        return gw_correlator(*GW_PROFILES, dict(zip(orders, counts)), connected=True) * scale
    return value


# family -> (new value from counts, evaluator, counts to try, profiles, d)
FAMILIES = {
    "classical": (
        lambda c: classical_hurwitz(c[0], 5, connected=True).value,
        _completed(1), [(r,) for r in range(9)], (), 5),
    "completed-two-profiles": (
        lambda c: completed_hurwitz(c[0], 2, TWO_PROFILES, connected=True).value,
        _completed(2), [(r,) for r in range(5)], TWO_PROFILES, None),
    "hypergeometric": (
        lambda c: hypergeometric_hurwitz(c[0], HYPERGEOMETRIC, (), d=4,
                                         connected=True).value,
        _hypergeometric(HYPERGEOMETRIC), [(r,) for r in range(5)], (), 4),
    "typed-gw": (
        lambda c: connected_transform_multi(_typed_gw((1, 2)), c, GW_PROFILES, d=4),
        _typed_gw((1, 2)), list(itertools.product(range(3), range(3))), GW_PROFILES,
        None),
    "orbifold": (
        lambda c: orbifold_hurwitz(c[0], 2, (3, 1), connected=True).value,
        _completed(1), [(r,) for r in range(7)], ((3, 1), (2, 2)), None),
    "three-profiles": (
        lambda c: completed_hurwitz(c[0], 1, THREE_PROFILES, connected=True).value,
        _completed(1), [(r,) for r in range(5)], THREE_PROFILES, None),
    # denominators other than 1: Q_4 = 4, and Q_2, Q_3, Q_4 = 1, 2880, 4
    "completed-s3-two-profiles": (
        lambda c: completed_hurwitz(c[0], 3, TWO_PROFILES, connected=True).value,
        _completed(3), [(r,) for r in range(5)], TWO_PROFILES, None),
    "gw-orders-1-2-3": (
        _gw_connected((1, 2, 3)), _typed_gw((1, 2, 3)),
        list(itertools.product(range(3), range(2), range(2))), GW_PROFILES, None),
    "hypergeometric-capped": (
        _capped_hypergeometric, _hypergeometric(HYPERGEOMETRIC), [(r,) for r in range(6)],
        (), 4),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_matches_inclusion_exclusion(family):
    new, evaluator, counts_list, profiles, d = FAMILIES[family]
    nonzero = 0
    for counts in counts_list:
        want = reference_transform(evaluator, counts, profiles, d=d)
        got = new(counts)
        assert got == want, (family, counts)
        nonzero += want != 0
    assert nonzero  # the family is not checked on zeros alone


def test_zero_fraction_and_polynomial_sub_instances_mix():
    # a sum with no nonzero term is Fraction(0); beside polynomial-valued
    # sub-instances it must act as the zero polynomial
    g, profiles = GSpec(K=1, L=1), ((2, 1, 1),)
    seen = set()

    def evaluator(counts, profs, d):
        value = hypergeometric_hurwitz(counts[0], g, profs, d=d).value
        value = value if value != 0 else Fraction(0)
        seen.add(type(value))
        return value

    nonzero = 0
    for r in range(5):
        want = hypergeometric_hurwitz(r, g, profiles, connected=True).value
        assert isinstance(want, MultiPoly)
        assert connected_transform_multi(evaluator, (r,), profiles, d=4) == want, r
        assert reference_transform(evaluator, (r,), profiles, d=4) == want, r
        nonzero += want != 0
    assert nonzero and seen == {Fraction, MultiPoly}


@pytest.mark.parametrize("d", range(1, 11))
def test_hurwitz_genus_zero_formula(d):
    # connected genus-0 covers with 2d - 2 simple branch points
    r = 2 * d - 2
    want = Fraction(math.factorial(r)) * Fraction(d) ** (d - 3) / math.factorial(d)
    assert classical_hurwitz(r, d, connected=True).value == want


def _transitive_identity_tuples(d, r):
    """r-tuples of transpositions with product 1 generating a transitive group."""
    perms = [p for p, _ in oracle.transpositions(d)]
    identity = oracle.identity(d)
    count = 0
    for word in itertools.product(perms, repeat=r):
        product = identity
        for t in word:
            product = oracle.compose(product, t)
        if product != identity:
            continue
        orbit = {0}
        grew = True
        while grew:
            grew = False
            for t in word:
                moved = {i for i in range(d) if t[i] != i}
                if moved & orbit and not moved <= orbit:
                    orbit |= moved
                    grew = True
        count += len(orbit) == d
    return count


@pytest.mark.parametrize("d", range(1, 5))
def test_permutation_oracle(d):
    for r in range(7):
        want = Fraction(_transitive_identity_tuples(d, r), math.factorial(d))
        assert classical_hurwitz(r, d, connected=True).value == want, r


@pytest.mark.parametrize("d", range(1, 5))
def test_range_matches_permutation_oracle(d):
    # one sweep over r, with one transform memo for every r
    results = classical_hurwitz_sweep(range(7), d, connected=True)
    for res in results:
        want = Fraction(_transitive_identity_tuples(d, res.r), math.factorial(d))
        assert res.value == want, res.r


@pytest.mark.parametrize("caps", [(1, 1), (2, 2)])
def test_capped_connected_value_is_truncated(caps):
    g = GSpec(L=1, M=1)
    full = hypergeometric_hurwitz(4, g, (), d=4, connected=True).value
    assert full.coefficient((2, 2)) == Fraction(-5, 8)
    capped = hypergeometric_hurwitz(4, g, (), d=4, connected=True, caps=caps).value
    assert capped == full.truncate(caps)


# ---------------------------------------------------------------------------
# Values from integer (total, denominator) pairs
# ---------------------------------------------------------------------------

def _as_value(totals):
    """The evaluator of the values ``total / D`` from ``totals(counts,
    profiles, d) -> (total, D)``."""
    def evaluator(counts, profiles, d):
        total, denominator = totals(counts, profiles, d)
        return total * Fraction(1, denominator)
    return evaluator


def _completed_totals(s):
    """The completed integer totals ``(sum W F^c, D Q^c)``, ``F = f_bar Q``."""
    q = f_bar_denominator(s + 1)

    def totals(counts, profiles, d):
        denominator, weights = character_weights(d, profiles)
        total = sum(w * int(f_bar(lam, s + 1) * q) ** counts[0] for lam, w in weights)
        return total, denominator * q ** counts[0]
    return totals


# rescale 1: the scale's Q is the least denominator; rescale 6: a
# multiple of it, whose scaled totals are integral too, with the same value
@pytest.mark.parametrize("rescale", [1, 6])
def test_pair_matches_value_for_integer_totals(rescale):
    s = 2
    q = f_bar_denominator(s + 1)
    evaluator = _as_value(_completed_totals(s))
    nonzero = 0
    for c in range(5):
        want = completed_hurwitz(c, s, TWO_PROFILES, connected=True).value
        got = connected_transform_multi(evaluator, (c,), TWO_PROFILES, d=5,
                                        denominators=(q * rescale,))
        assert got == want, c
        nonzero += want != 0
    assert nonzero


@pytest.mark.parametrize("rescale", [1, 6])
def test_pair_matches_value_for_polynomial_totals(rescale):
    def totals(counts, profiles, d):
        denominator, weights = character_weights(d, profiles)
        total = MultiPoly.zero(HYPERGEOMETRIC.nvars)
        for lam, w in weights:
            coefficient = _integral(content_product(contents(lam), HYPERGEOMETRIC, counts[0]))
            total = total + coefficient * w
        assert all(type(coeff) is int for coeff in total.terms.values())
        return total, denominator

    nonzero = 0
    for c in range(5):
        want = hypergeometric_hurwitz(c, HYPERGEOMETRIC, (), d=4, connected=True).value
        got = connected_transform_multi(_as_value(totals), (c,), (), d=4,
                                        denominators=(rescale,))
        assert got == want, c
        nonzero += want != 0
    assert nonzero


def test_profile_splits_match_the_positions():
    # the engine's splits, in its order, against the sets of positions
    assert core._profile_splits((), 2) == (((), ()),)
    for d in range(1, 8):
        parts = partition_tuple(d)
        for mu, nu in itertools.product(parts, repeat=2):
            for d1 in range(d + 1):
                want = tuple(((a, b), (rest_a, rest_b))
                             for a, rest_a in _position_splits(mu, d1)
                             for b, rest_b in _position_splits(nu, d1))
                assert core._profile_splits((mu, nu), d1) == want, (mu, nu, d1)


def test_exponential_formula_stores_no_zero(monkeypatch):
    # every dict the recursion multiplies or returns drops the zero
    # coefficients its disconnected totals hold: the int 0 and the zero
    # MultiPoly
    returned, multiplied = [], []
    original = core._exponential_formula

    def formula(a, product, profiles, d, keys=None):
        def recorded_a(*key):
            out = a(*key)
            returned.extend(out.values())
            return out

        def recorded_product(out, first, second, *args):
            multiplied.extend(first.values())
            multiplied.extend(second.values())
            product(out, first, second, *args)
        out = original(recorded_a, recorded_product, profiles, d, keys)
        multiplied.extend(out.values())
        return out

    monkeypatch.setattr(core, "_exponential_formula", formula)
    classical_hurwitz_sweep(range(9), 5, connected=True)
    completed_hurwitz_sweep(range(5), 2, TWO_PROFILES, connected=True)
    orbifold_hurwitz(6, 2, (3, 1), connected=True)
    hypergeometric_hurwitz_sweep(range(6), HYPERGEOMETRIC, (), d=4, connected=True,
                                 caps=CAPS)
    hypergeometric_hurwitz_sweep(range(6), GSpec(K=1, L=1), ((2, 1, 1),), connected=True)
    gw_correlator(*GW_PROFILES, {1: 2, 2: 2}, connected=True)
    zeros = [value for value in returned if value == 0]
    assert {type(value) for value in zeros} >= {int, MultiPoly}
    assert multiplied and all(value != 0 for value in multiplied)


def test_connected_gw_evaluates_the_top_degree_at_counts_only(monkeypatch):
    evaluated = []
    original = core.connected_transform_multi

    def transform(evaluator, *args, **kwargs):
        def recorded(*key):
            evaluated.append(key)
            return evaluator(*key)
        return original(recorded, *args, **kwargs)

    monkeypatch.setattr(core, "connected_transform_multi", transform)
    gw_correlator((5, 1), (4, 1, 1), {2: 3, 3: 1}, connected=True)
    assert len(evaluated) == len(set(evaluated)) > 1
    assert [key for key in evaluated if key[2] == 6] == [((3, 1), ((5, 1), (4, 1, 1)), 6)]


# ---------------------------------------------------------------------------
# The connected spectrum of the completed-cycle families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("d", range(1, 7))
def test_spectrum_matches_the_transform(d, s):
    q = f_bar_denominator(s + 1)
    # one value per sub-instance, across the transforms of every r
    evaluator = functools.lru_cache(maxsize=None)(_as_value(_completed_totals(s)))
    parts = partition_tuple(d)
    pairs = itertools.islice(itertools.combinations_with_replacement(parts, 2), 0, None, 4)
    nonzero = 0
    for profiles in [(), *((mu,) for mu in parts), *pairs]:
        denominator, spectrum = connected_spectrum(s, profiles, d)
        assert all(type(f) is int and type(b) is int and b for f, b in spectrum.items())
        values = completed_sweep(range(13), s, profiles, d, connected=True)
        for r, got in values.items():
            want = connected_transform_multi(evaluator, (r,), profiles, d=d,
                                             denominators=(q,))
            assert type(got) is type(want) is Fraction and got == want, (profiles, r)
            assert got == Fraction(sum(b * f**r for f, b in spectrum.items()),
                                   denominator * q**r)
            nonzero += got != 0
    assert nonzero


# C. Yang's connected coefficients at s = 1: the top eigenvalue C(d, 2)
# carries |C_mu|, and C(d-1, 2) carries -d m_1 |C_mu|, with m_1 the parts
# 1 of mu (-d^2 with no profile)
@pytest.mark.parametrize("d", range(3, 9))
def test_spectrum_carries_yang_coefficients_with_no_profile(d):
    denominator, spectrum = connected_spectrum(1, (), d)
    assert denominator == math.factorial(d) ** 2
    assert max(spectrum) == math.comb(d, 2) and spectrum[math.comb(d, 2)] == 1
    assert spectrum[math.comb(d - 1, 2)] == -d * d


@pytest.mark.parametrize("d", range(4, 7))
def test_spectrum_carries_yang_coefficients_with_one_profile(d):
    for mu in partition_tuple(d):
        size = class_data(mu).class_size
        _, spectrum = connected_spectrum(1, (mu,), d)
        assert max(spectrum) == math.comb(d, 2) and spectrum[math.comb(d, 2)] == size
        assert spectrum.get(math.comb(d - 1, 2), 0) == -d * mu.count(1) * size, mu
