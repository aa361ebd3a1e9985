"""The integer kernel of the character sums and the connected transform:
the denominators it relies on, and the large-genus agreement of
connected and disconnected counts that it serves."""

import math
from fractions import Fraction

import pytest

from hurwitz import characters
from hurwitz.core import (
    character_weights,
    classical_hurwitz,
    f_bar,
    f_bar_denominator,
)
from hurwitz.partitions import class_data, enumerate_partitions


@pytest.mark.parametrize("d", range(1, 13))
def test_central_characters_are_integers(d):
    # omega_lam(mu) = |C_mu| chi_lam(mu) / dim lam is an algebraic
    # integer and rational, so an integer
    table = characters.char_table(d)
    for mu in table.partitions:
        size = class_data(mu).class_size
        for chi, dim in zip(table.column(mu), table.dims):
            assert size * chi % dim == 0, (mu, chi, dim)


@pytest.mark.parametrize("s", range(2, 7))
def test_f_bar_denominator_clears_every_partition(s):
    denominators = [f_bar(lam, s).denominator
                    for d in range(1, 13) for lam in enumerate_partitions(d)]
    q = f_bar_denominator(s)
    assert all(q % den == 0 for den in denominators)
    assert q == math.lcm(*denominators)  # and it is the least such
    assert (f_bar_denominator(2), f_bar_denominator(3)) == (1, 2880)


@pytest.mark.parametrize("profiles", [(), ((3, 1, 1),), ((3, 2), (2, 2, 1)),
                                      ((2, 2, 1), (3, 1, 1), (2, 1, 1, 1))])
def test_character_weights_over_one_denominator(profiles):
    d = 5
    denominator, weights = character_weights(d, profiles)
    assert denominator == math.factorial(d) ** 2 * math.prod(
        class_data(mu).class_size for mu in profiles)
    table = characters.char_table(d)
    want = {}
    for lam, dim in zip(table.partitions, table.dims):
        weight = Fraction(dim, math.factorial(d)) ** 2
        for mu in profiles:
            weight *= Fraction(table.value(lam, mu), dim)
        if weight:
            want[lam] = weight
    got = {lam: Fraction(w, denominator) for lam, w in weights}
    assert got == want
    assert all(isinstance(w.numerator, int) for w in got.values())


@pytest.mark.parametrize("d", range(4, 9))
def test_connected_share_at_large_genus(d):
    # 1 - H°/H, the share of disconnected covers, is led by a cover with
    # one unramified sheet: d^2 ((d-2)/d)^r times 1 + o(1)
    r = 40
    connected = classical_hurwitz(r, d, connected=True).value
    disconnected = classical_hurwitz(r, d).value
    ratio = (1 - connected / disconnected) / (d**2 * Fraction(d - 2, d) ** r)
    assert abs(ratio - 1) < Fraction(1, 1000), (d, float(ratio))
