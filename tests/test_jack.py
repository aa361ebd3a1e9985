import math
from fractions import Fraction

import pytest

from hurwitz.characters import char_table, dim
from hurwitz.core import GSpec, hypergeometric_hurwitz
from hurwitz.errors import DomainError, SingularParameterError, SizeLimitError
from hurwitz.jack import (
    _m_in_p_matrix,
    b_hurwitz_coefficient,
    deformed_contents,
    jack_character,
    jack_in_psums,
    jack_norm,
)
from hurwitz.partitions import class_data, enumerate_partitions

ALPHAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))


def hall_inner(f, g, alpha):
    acc = Fraction(0)
    for mu, c in f.items():
        other = g.get(mu)
        if other is not None:
            acc += c * other * class_data(mu).stabilizer * alpha ** len(mu)
    return acc


def p_in_m_reference(d):
    """Row mu, column lam: the coefficient of m_lam in p_mu, the number of
    ways to assign the labelled parts of mu to the slots of lam so that
    every slot fills exactly (unmemoized, exponential in len(mu))."""
    parts = enumerate_partitions(d)

    def count(mu, lam):
        slots = list(lam)

        def rec(idx):
            if idx == len(mu):
                return 1 if all(s == 0 for s in slots) else 0
            total = 0
            for i, s in enumerate(slots):
                if s >= mu[idx]:
                    slots[i] -= mu[idx]
                    total += rec(idx + 1)
                    slots[i] += mu[idx]
            return total

        return rec(0)

    return [[count(mu, lam) for lam in parts] for mu in parts]


def m_in_p_reference(d):
    """The inverse of ``p_in_m_reference(d)`` by Gauss-Jordan elimination
    with pivot search: row lam expands m_lam over the p basis."""
    a = [[Fraction(v) for v in row] for row in p_in_m_reference(d)]
    n = len(a)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return tuple(tuple(row) for row in inv)


class TestChangeOfBasis:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_triangular_solve_matches_the_inverse(self, d):
        assert _m_in_p_matrix(d) == m_in_p_reference(d)


class TestExpansions:
    def test_degree_two_by_hand(self):
        for alpha in (Fraction(5, 3), Fraction(2)):
            row = jack_in_psums((2,), alpha).as_dict()
            assert row == {(2,): alpha, (1, 1): Fraction(1)}
            col = jack_in_psums((1, 1), alpha).as_dict()
            assert col == {(2,): Fraction(-1), (1, 1): Fraction(1)}

    @pytest.mark.parametrize("d", range(1, 6))
    def test_alpha_one_is_scaled_schur(self, d):
        # J at alpha=1 is (d!/dim) s_lambda: p_mu coefficient chi/dim * |class|
        table = char_table(d)
        for lam in table.partitions:
            exp = jack_in_psums(lam, 1)
            for mu in table.partitions:
                expected = Fraction(table.value(lam, mu), dim(lam)) \
                    * class_data(mu).class_size
                assert exp.coefficient(mu) == expected

    def test_ceiling(self):
        with pytest.raises(SizeLimitError):
            jack_in_psums((9,), 1)

    def test_degenerate_alpha(self):
        with pytest.raises(SingularParameterError):
            jack_in_psums((2,), 0)
        with pytest.raises(SingularParameterError):
            jack_in_psums((1, 1), -1)


class TestNorms:
    def test_row_of_two(self):
        for alpha in ALPHAS:
            assert jack_norm((2,), alpha) == 2 * alpha**2 * (1 + alpha)
        assert jack_norm((2,), 1) == (Fraction(math.factorial(2), dim((2,)))) ** 2

    @pytest.mark.parametrize("d", range(1, 5))
    def test_alpha_one_squared_hooks(self, d):
        for lam in enumerate_partitions(d):
            assert jack_norm(lam, 1) == Fraction(math.factorial(d), dim(lam)) ** 2

    def test_column_norm_closed_form(self):
        # d! * alpha * prod_{m<d} (m + alpha); the row case carries
        # d! alpha^d prod (1 + m alpha)
        for alpha in ALPHAS:
            for d in range(1, 6):
                col = math.factorial(d) * alpha
                row = math.factorial(d) * alpha**d
                for m in range(1, d):
                    col *= m + alpha
                    row *= 1 + m * alpha
                assert jack_norm((1,) * d, alpha) == col
                assert jack_norm((d,), alpha) == row

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_gram_schmidt_agrees_with_hook_product(self, d, alpha):
        expansions = {lam: jack_in_psums(lam, alpha).as_dict()
                      for lam in enumerate_partitions(d)}
        for lam, vec in expansions.items():
            assert hall_inner(vec, vec, alpha) == jack_norm(lam, alpha)
        parts = list(expansions)
        for i, lam in enumerate(parts):
            for eta in parts[i + 1:]:
                assert hall_inner(expansions[lam], expansions[eta], alpha) == 0


class TestCharacters:
    @pytest.mark.parametrize("d", range(1, 7))
    def test_special_values(self, d):
        for alpha in (Fraction(2), Fraction(1, 2)):
            for mu in enumerate_partitions(d):
                assert jack_character((d,), mu, alpha) == alpha ** (d - len(mu))
                assert jack_character((1,) * d, mu, alpha) == \
                    Fraction(-1) ** (d - len(mu))

    def test_spec_instances(self):
        assert jack_character((4,), (2, 1, 1), Fraction(3)) == 3
        assert jack_character((1, 1, 1, 1), (4,), Fraction(7)) == -1

    @pytest.mark.parametrize("d", range(1, 5))
    def test_alpha_one_is_normalized_character(self, d):
        table = char_table(d)
        for lam in table.partitions:
            for mu in table.partitions:
                assert jack_character(lam, mu, 1) == \
                    Fraction(table.value(lam, mu), dim(lam))


class TestDeformedContents:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_maximizers(self, d):
        cases = {Fraction(2): {(d,)}, Fraction(1, 2): {(1,) * d},
                 Fraction(1): {(d,), (1,) * d}}
        for alpha, expected in cases.items():
            if d == 1:
                expected = {(1,)}
            best = {}
            for lam in enumerate_partitions(d):
                best[lam] = max((abs(c) for c in deformed_contents(lam, alpha)),
                                default=Fraction(0))
            top = max(best.values())
            assert {lam for lam, v in best.items() if v == top} == expected

    def test_zero_deformation_is_contents(self):
        from hurwitz.partitions import contents

        assert deformed_contents((3, 1), 1) == [Fraction(c) for c in contents((3, 1))]


class TestBContentEngine:
    @pytest.mark.parametrize("d", range(1, 5))
    def test_b_zero_matches_hypergeometric(self, d):
        g = GSpec(K=1, L=1, M=1)
        for r in range(0, 7):
            caps = (min(r, d), r)
            lhs = b_hurwitz_coefficient(r, g, (), 0, d=d, caps=caps)
            rhs = hypergeometric_hurwitz(r, g, (), d=d, caps=caps).value
            assert lhs == rhs

    def test_degree_one_trivial(self):
        # a single sheet has no boxes with nonzero deformed content, so the
        # series is the constant 1/j_{(1)} = 1/(b+1): exactly 1 at b=0
        g = GSpec()
        assert b_hurwitz_coefficient(0, g, (), 0, d=1) == 1
        assert b_hurwitz_coefficient(0, g, (), Fraction(3, 2), d=1) == Fraction(2, 5)
        for r in (1, 2, 3):
            assert b_hurwitz_coefficient(r, g, (), Fraction(3, 2), d=1) == 0

    def test_two_sheets_zonal_point(self):
        # b=1 (alpha=2), d=2, K=1, r=2: the two-term sum is
        # (1/24)/(1-2z) + (1/12)/(1+z); both norms confirmed by the
        # Gram-Schmidt route above
        got = b_hurwitz_coefficient(2, GSpec(K=1), (), 1, d=2)
        assert got.constant_value() == Fraction(2**2, 24) + Fraction(1, 12)
        assert got.constant_value() == Fraction(1, 4)

    def test_profiles_enter_through_jack_characters(self):
        for r in range(0, 5):
            lhs = b_hurwitz_coefficient(r, GSpec(K=1), ((2,),), 0, d=2)
            rhs = hypergeometric_hurwitz(r, GSpec(K=1), ((2,),)).value
            assert lhs == rhs

    def test_ceiling_and_degenerate(self):
        with pytest.raises(SizeLimitError):
            b_hurwitz_coefficient(1, GSpec(K=1), (), 0, d=9)
        with pytest.raises(SingularParameterError):
            b_hurwitz_coefficient(1, GSpec(K=1), (), -1, d=2)
        with pytest.raises(DomainError):
            b_hurwitz_coefficient(0, GSpec(K=1), (), 0, d=0)


class TestSerializationJack:
    def test_psum_expansion_json(self):
        blob = jack_in_psums((2,), Fraction(5, 3)).to_json()
        assert blob == {"2": "5/3", "1,1": "1"}
