import math
import re
from fractions import Fraction

import pytest

from hurwitz.asymptotics import b_leading_sweep
from hurwitz.characters import char_table, dim
from hurwitz.core import GSpec, hypergeometric_hurwitz, hypergeometric_hurwitz_sweep
from hurwitz.errors import DomainError, SingularParameterError, SizeLimitError
from hurwitz.jack import (
    b_hurwitz_coefficient,
    b_hurwitz_sweep,
    deformed_contents,
    hall_product,
    jack_character,
    jack_in_psums,
    jack_norm,
    jack_weights,
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


def jack_reference(d, alpha, m_in_p):
    """{lam: J_lam over the p basis} by Gram-Schmidt over the rows of
    ``m_in_p = m_in_p_reference(d)`` in increasing dominance order,
    J-normalised; or the message of the first vanishing pivot."""
    parts = enumerate_partitions(d)
    basis = {}  # lam: (vector, squared norm)
    for lam, m_lam in reversed(list(zip(parts, m_in_p))):
        vec = dict(zip(parts, m_lam))
        for pvec, norm in basis.values():
            scale = hall_inner(vec, pvec, alpha) / norm
            vec = {mu: vec[mu] - scale * pvec[mu] for mu in parts}
        norm = hall_inner(vec, vec, alpha)
        if norm == 0:
            return f"vanishing Gram pivot at {lam} for alpha={alpha}"
        if vec[(1,) * d] == 0:
            return f"vanishing p_1^{d} coefficient at {lam} for alpha={alpha}"
        basis[lam] = vec, norm
    return {lam: {mu: c / vec[(1,) * d] for mu, c in vec.items() if c}
            for lam, (vec, _) in basis.items()}


class TestGramSchmidtOverMonomials:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_jack_basis_matches_the_monomial_reference(self, d):
        m_in_p = m_in_p_reference(d)
        for alpha in ALPHAS + (Fraction(5, 3), Fraction(-1, 3), Fraction(-3, 2)):
            want = jack_reference(d, alpha, m_in_p)
            # the degenerate parameters meet a zero pivot from these degrees on
            assert isinstance(want, str) == (
                (alpha == Fraction(-1, 3) and d >= 4) or (alpha == Fraction(-3, 2) and d >= 5))
            for lam in enumerate_partitions(d):
                if isinstance(want, str):
                    with pytest.raises(SingularParameterError, match=re.escape(want)):
                        jack_in_psums(lam, alpha)
                else:
                    assert jack_in_psums(lam, alpha) == want[lam], (lam, alpha)


class TestExpansions:
    def test_degree_two_by_hand(self):
        for alpha in (Fraction(5, 3), Fraction(2)):
            row = jack_in_psums((2,), alpha)
            assert row == {(2,): alpha, (1, 1): Fraction(1)}
            col = jack_in_psums((1, 1), alpha)
            assert col == {(2,): Fraction(-1), (1, 1): Fraction(1)}

    @pytest.mark.parametrize("d", range(1, 6))
    def test_plain_dict_in_canonical_order(self, d):
        parts = enumerate_partitions(d)
        for lam in parts:
            expansion = jack_in_psums(lam, Fraction(5, 3))
            assert type(expansion) is dict and all(expansion.values())
            assert list(expansion) == [mu for mu in parts if mu in expansion]

    @pytest.mark.parametrize("d", range(1, 6))
    def test_alpha_one_is_scaled_schur(self, d):
        # J at alpha=1 is (d!/dim) s_lambda: p_mu coefficient chi/dim * |class|
        table = char_table(d)
        for lam in table.partitions:
            exp = jack_in_psums(lam, 1)
            for mu in table.partitions:
                expected = Fraction(table.value(lam, mu), dim(lam)) \
                    * class_data(mu).class_size
                assert exp.get(mu, Fraction(0)) == expected

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
        expansions = {lam: jack_in_psums(lam, alpha)
                      for lam in enumerate_partitions(d)}
        dot = hall_product(d, alpha)
        for lam, vec in expansions.items():
            assert hall_inner(vec, vec, alpha) == dot(vec, vec) == jack_norm(lam, alpha)
        parts = list(expansions)
        for i, lam in enumerate(parts):
            for eta in parts[i + 1:]:
                assert hall_inner(expansions[lam], expansions[eta], alpha) == 0
                assert dot(expansions[lam], expansions[eta]) == 0


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

    @pytest.mark.parametrize("d", range(1, 5))
    def test_sweep_caps_keep_the_per_r_monomials(self, d):
        # caps (d, 6) over r <= 6 keep the monomials of (min(r, d), r) at
        # each r: verify_jack's b = 0 check reads one sweep per degree
        g, r_values = GSpec(K=1, L=1, M=1), range(7)
        b_sweep = b_hurwitz_sweep(r_values, g, (), 0, d=d, caps=(d, 6))
        hyper_sweep = hypergeometric_hurwitz_sweep(r_values, g, (), d=d, caps=(d, 6))
        for r, result in zip(r_values, hyper_sweep):
            caps = (min(r, d), r)
            assert b_sweep[r] == b_hurwitz_coefficient(r, g, (), 0, d=d, caps=caps), r
            assert result.value == hypergeometric_hurwitz(r, g, (), d=d, caps=caps).value, r
            assert b_sweep[r] == result.value, r

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


class TestFloatsRefused:
    """A float b or alpha is not an exact parameter: each entry point
    raises instead of computing with its binary expansion."""

    def test_jack_weights(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            list(jack_weights(2, (), 0.1))

    def test_b_hurwitz_sweep(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            b_hurwitz_sweep([3], GSpec(K=1), (), 0.1, d=2, monomial=())

    def test_deformed_contents(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            deformed_contents((2, 1), 1.5)

    def test_jack_norm(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            jack_norm((2, 1), 1.5)

    def test_jack_in_psums(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            jack_in_psums((2, 1), 1.5)

    def test_jack_character(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            jack_character((2, 1), (3,), 1.5)

    def test_b_leading_sweep(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            b_leading_sweep([3], 2, 0, 0, 1, b=0.1)

    def test_complex_b_is_refused(self):
        # the b family is exact over the rationals only
        for call in (lambda: b_leading_sweep([3], 2, 0, 0, 1, b=1j),
                     lambda: jack_weights(2, (), 1j),
                     lambda: b_hurwitz_sweep([3], GSpec(K=1), (), 1j, d=2, monomial=())):
            with pytest.raises(DomainError, match="rational coefficient"):
                call()
