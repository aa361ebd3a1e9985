"""The completed-cycle spectrum against the per-partition paths it
replaced: ``completed_sweep`` against each partition's ``W F^r`` summed
by ``weighted_sweep``, ``structure_coefficients`` against the grouping
of the weights by their ``f_bar`` keys, and the order checks of the
completed-cycle sweeps."""

import itertools
import math
from fractions import Fraction

import pytest

from hurwitz.core import (
    character_weights,
    completed_spectrum,
    completed_sweep,
    f_bar,
    f_bar_denominator,
    orbifold_hurwitz,
    orbifold_hurwitz_sweep,
    structure_coefficients,
    weighted_sweep,
)
from hurwitz.errors import DomainError
from hurwitz.partitions import partition_tuple


def per_partition_completed(r_values, s, profiles, d):
    """The old path: each partition's ``W F^r``, ``F = f_bar(lam, s+1) Q``,
    summed by ``weighted_sweep`` and divided by ``D Q^r``."""
    q = f_bar_denominator(s + 1)
    denominator, weights = character_weights(d, profiles)

    def factor(lam):
        f = int(f_bar(lam, s + 1) * q)
        return lambda r: f**r

    totals = weighted_sweep(weights, factor, r_values)
    return {r: Fraction(total, denominator * q**r) for r, total in totals.items()}


def per_partition_structure(s, profiles, d):
    """The old structure grouping: the weights summed per ``f_bar`` key, the
    positive keys only for odd s, over ``D/d!^2`` (halved for even s)."""
    denominator, weights = character_weights(d, profiles)
    scale = denominator // math.factorial(d) ** 2 * (1 if s % 2 else 2)
    sums: dict = {}
    for lam, weight in weights:
        f = f_bar(lam, s + 1)
        if s % 2 == 1 and f <= 0:
            continue
        sums[f] = sums.get(f, 0) + weight
    return {f: Fraction(total, scale) for f, total in sums.items() if total}


def profile_sets(d, pairs=True):
    """No profile, each profile, and (with ``pairs``) every fourth pair."""
    parts = partition_tuple(d)
    two = itertools.islice(itertools.combinations_with_replacement(parts, 2), 0, None, 4)
    return [(), *((mu,) for mu in parts), *(two if pairs else ())]


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("d", range(1, 9))
def test_completed_sweep_matches_the_per_partition_path(d, s):
    r_values = range(13)
    nonzero = 0
    for profiles in profile_sets(d):
        denominator, spectrum = completed_spectrum(s, profiles, d)
        assert denominator == character_weights(d, profiles)[0]
        assert all(type(f) is int and type(a) is int and a for f, a in spectrum.items())
        want = per_partition_completed(r_values, s, profiles, d)
        got = completed_sweep(r_values, s, profiles, d)
        assert list(got) == list(r_values)
        for r in r_values:
            assert type(got[r]) is Fraction and got[r] == want[r], (profiles, r)
            nonzero += got[r] != 0
    assert nonzero


def test_classical_degree_25_matches_the_per_partition_path():
    r_values = (0, 1, 10, 40)
    want = per_partition_completed(r_values, 1, (), 25)
    assert completed_sweep(r_values, 1, (), 25) == want
    assert want[0] == Fraction(1, math.factorial(25)) and want[1] == 0 and want[40] > 0


@pytest.mark.parametrize("s", [1, 2, 3, 4])
@pytest.mark.parametrize("d", range(1, 9))
def test_structure_coefficients_match_the_per_partition_grouping(d, s):
    for profiles in profile_sets(d, pairs=False):
        got = structure_coefficients(s, profiles, d=d)
        want = per_partition_structure(s, profiles, d)
        assert list(got.items()) == list(want.items()), profiles
        assert all(type(m) is Fraction and type(c) is Fraction for m, c in got.items())


@pytest.mark.parametrize("connected", [False, True])
@pytest.mark.parametrize("r_values, s, message", [
    ([-1], 1, "r must be nonnegative"),
    ([2, -3], 2, "r must be nonnegative"),
    ([1], 0, "s must be positive"),
    ([1], -2, "s must be positive"),
], ids=["negative-r", "one-negative-r", "zero-s", "negative-s"])
def test_completed_sweep_checks_its_orders(r_values, s, message, connected):
    with pytest.raises(DomainError, match=f"^{message}"):
        completed_sweep(r_values, s, (), 3, connected=connected)


@pytest.mark.parametrize("s", [0, -2])
def test_structure_coefficients_check_s(s):
    with pytest.raises(DomainError, match="^s must be positive"):
        structure_coefficients(s, (), d=3)


@pytest.mark.parametrize("t", [2, 3], ids=["t-not-dividing-d", "t-dividing-d"])
def test_orbifold_checks_r_on_both_branches(t):
    with pytest.raises(DomainError, match="^r must be nonnegative"):
        orbifold_hurwitz(-1, t, (3,))
    with pytest.raises(DomainError, match="^r must be nonnegative"):
        orbifold_hurwitz_sweep([0, -1], t, (3,), connected=True)
    assert (orbifold_hurwitz(0, t, (3,)).value == 0) == (t == 2)
