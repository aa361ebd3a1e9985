from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitz.errors import DomainError
from hurwitz.exactnum import (
    GaussianRational,
    MultiPoly,
    TruncSeries,
    affine_factor,
    bernoulli,
    coeff_z,
    format_rational,
    geometric_factor,
    geometric_power,
    monomial_name,
    stirling,
    zeta_neg,
)

# classical table, an independent cross-check on the recurrence
BERNOULLI = {
    0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6), 4: Fraction(-1, 30),
    6: Fraction(1, 42), 8: Fraction(-1, 30), 10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


class TestScalars:
    def test_bernoulli_table(self):
        for n, value in BERNOULLI.items():
            assert bernoulli(n) == value
        for n in (3, 5, 7, 9, 11):
            assert bernoulli(n) == 0

    def test_zeta_values(self):
        assert zeta_neg(1) == Fraction(-1, 12)
        assert zeta_neg(2) == 0
        assert zeta_neg(3) == Fraction(1, 120)
        for m in range(1, 7):
            assert zeta_neg(2 * m) == 0
        with pytest.raises(DomainError):
            zeta_neg(0)

    def test_stirling_values(self):
        assert stirling(1, 4, 2) == 11
        assert stirling(2, 4, 2) == 7
        assert stirling(1, 4, 3) == 6  # e_1(1,2,3) = 6
        assert stirling(1, 0, 0) == 1
        assert stirling(2, 5, 7) == 0
        with pytest.raises(DomainError):
            stirling(3, 2, 1)
        with pytest.raises(DomainError):
            stirling(1, -1, 0)

    def test_rational_strings(self):
        assert format_rational(Fraction(3, 6)) == "1/2"
        assert format_rational(Fraction(4, 2)) == "2"


def expand_product(factors, order):
    """Direct scalar series product, the test-side oracle."""
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for f in factors:
        coeffs = [
            sum((coeffs[j] * f(n - j) for j in range(n + 1)), Fraction(0))
            for n in range(order + 1)
        ]
    return coeffs


class TestStirlingGeneratingSeries:
    @pytest.mark.parametrize("n", range(0, 11))
    def test_elementary_on_naturals(self, n):
        # prod_{i<=n} (1+iz) has [z^k] = [n+1; n+1-k]
        coeffs = expand_product(
            [lambda j, i=i: Fraction(1) if j == 0 else (Fraction(i) if j == 1 else Fraction(0))
             for i in range(1, n + 1)],
            n,
        )
        for k in range(n + 1):
            assert coeffs[k] == stirling(1, n + 1, n + 1 - k)

    @pytest.mark.parametrize("n", range(0, 9))
    def test_complete_on_naturals(self, n):
        # prod_{i<=n} 1/(1-iz) has [z^k] = {n+k; n}
        order = 8
        coeffs = expand_product(
            [lambda j, i=i: Fraction(i) ** j for i in range(1, n + 1)],
            order,
        )
        for k in range(order + 1):
            assert coeffs[k] == stirling(2, n + k, n)


class TestSeries:
    def test_geometric_examples(self):
        one = MultiPoly.constant(0, 1)
        s = geometric_factor(1, one, 3)
        assert [c.constant_value() for c in s.coeffs] == [1, 1, 1, 1]
        s = geometric_factor(2, one, 2)
        assert [c.constant_value() for c in s.coeffs] == [1, 2, 4]
        v = MultiPoly.variable(1, 0)
        s = geometric_factor(1, v, 2)
        assert s.coeffs[2] == v.mul(v)

    def test_affine_and_power(self):
        one = MultiPoly.constant(0, 1)
        s = affine_factor(3, one, 4)
        assert [c.constant_value() for c in s.coeffs] == [1, 3, 0, 0, 0]
        s = geometric_power(2, 2, 3)
        assert [c.constant_value() for c in s.coeffs] == [1, 4, 12, 32]
        assert geometric_power(5, 0, 2) == TruncSeries.one(0, 2)

    def test_coeff_z_bounds(self):
        s = geometric_factor(1, MultiPoly.constant(0, 1), 3)
        assert coeff_z(s, 2).constant_value() == 1
        with pytest.raises(DomainError):
            coeff_z(s, 4)

    def test_series_product_truncates(self):
        one = MultiPoly.constant(0, 1)
        a = geometric_factor(1, one, 5)
        sq = a.mul(a)
        assert [c.constant_value() for c in sq.coeffs] == [1, 2, 3, 4, 5, 6]


@st.composite
def polys(draw, nvars=2, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        expo = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))
        terms[expo] = coeff
    return MultiPoly(nvars, terms)


class TestMultiPoly:
    @given(polys(), polys(), polys())
    @settings(max_examples=150)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a.mul(b) == b.mul(a)
        assert (a + b) + c == a + (b + c)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b + c) == a.mul(b) + a.mul(c)

    @given(polys(), polys())
    @settings(max_examples=100)
    def test_capped_product_is_truncation(self, a, b):
        caps = (2, 2)
        assert a.mul(b, caps) == a.mul(b).truncate(caps)

    def test_constructors_and_eq(self):
        p = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 0): 3})
        assert p.coefficient((1, 0)) == Fraction(1, 2)
        assert p.coefficient((5, 5)) == 0
        assert MultiPoly.constant(2, 7) == 7
        assert MultiPoly.zero(3).is_zero()
        with pytest.raises(DomainError):
            MultiPoly(2, {(1,): 1})

    def test_evaluate(self):
        p = MultiPoly(2, {(2, 1): 3, (0, 0): 1})
        assert p.evaluate([Fraction(1, 2), 4]) == 3 * Fraction(1, 4) * 4 + 1

    def test_monomial_names(self):
        assert monomial_name((2, 1), ["u1", "v1"]) == "u1^2 v1"
        assert monomial_name((0, 0), ["u1", "v1"]) == "1"
        p = MultiPoly(1, {(1,): Fraction(1, 2)})
        assert p.to_json(["v1"]) == [{"monomial": "v1", "coeff": "1/2"}]


class TestGaussianRational:
    def test_arithmetic(self):
        i = GaussianRational(Fraction(0), Fraction(1))
        assert i * i == GaussianRational.of(-1)
        z = GaussianRational(Fraction(1), Fraction(2))
        assert (z * z.inverse()) == GaussianRational.of(1)
        assert z ** 0 == GaussianRational.of(1)
        assert z ** -1 == z.inverse()
        assert (z ** 3) == z * z * z
        assert z.abs2() == Fraction(5)
        assert not z.is_real and (z - i - i).is_real

    def test_str(self):
        assert str(GaussianRational.of(Fraction(1, 2))) == "1/2"
        assert str(GaussianRational(Fraction(0), Fraction(-1, 3))) == "0-1/3i"
