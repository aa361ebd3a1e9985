import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from reference import series_product_by_sums

from hurwitz.errors import DomainError
from hurwitz.exactnum import (
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

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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

    def test_stirling_at_large_n_on_a_cold_cache(self):
        # a fresh interpreter, so no smaller row is memoized first
        code = ("from math import comb; from hurwitz.exactnum import stirling; "
                "assert stirling(2, 900, 3) == (3**900 - 3 * 2**900 + 3) // 6; "
                "assert stirling(1, 900, 899) == comb(900, 2)")
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_stirling_triangle_recurrences(self):
        for n in range(1, 30):
            for k in range(1, n + 1):
                s1, s2 = (stirling(kind, n - 1, k - 1) for kind in (1, 2))
                assert stirling(1, n, k) == s1 + (n - 1) * stirling(1, n - 1, k)
                assert stirling(2, n, k) == s2 + k * stirling(2, n - 1, k)
            assert stirling(1, n, 0) == stirling(2, n, 0) == 0
            assert sum(stirling(1, n, k) for k in range(n + 1)) == math.factorial(n)

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


def _random_series(rng, order):
    """A series in two variables with few small monomials and coefficients
    of both signs, so that coefficient products often cancel."""
    values = (1, -1, 2, Fraction(1, 2), Fraction(-1, 2))
    coeffs = []
    for _ in range(order + 1):
        terms = {(rng.randrange(3), rng.randrange(3)): rng.choice(values)
                 for _ in range(rng.randrange(4))}
        coeffs.append(MultiPoly(2, terms))
    return TruncSeries(order, coeffs)


@pytest.mark.parametrize("caps", [None, (1, 2)], ids=["uncapped", "capped"])
def test_in_place_series_product_is_the_sum_of_products(caps):
    rng = random.Random(7)
    cancelled = 0
    for _ in range(200):
        order = rng.randrange(5)
        a, b = _random_series(rng, order), _random_series(rng, order)
        got = a.mul(b, caps)
        assert got == series_product_by_sums(a, b, caps)
        assert all(c != 0 for poly in got.coeffs for c in poly.terms.values())
        sums = {}  # every product summed by (z-order, monomial), zeros kept
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs[:order + 1 - i]):
                for e1, c1 in x.terms.items():
                    for e2, c2 in y.terms.items():
                        key = (i + j, (e1[0] + e2[0], e1[1] + e2[1]))
                        sums[key] = sums.get(key, 0) + c1 * c2
        cancelled += sum(1 for total in sums.values() if total == 0)
    assert cancelled  # the series do cancel


def test_a_cancelled_series_coefficient_is_not_stored():
    x = MultiPoly.variable(1, 0)
    one = MultiPoly.constant(1, 1)
    plus = TruncSeries(2, [one, x, MultiPoly.zero(1)])
    minus = TruncSeries(2, [one, -x, MultiPoly.zero(1)])
    got = plus.mul(minus)
    assert [poly.terms for poly in got.coeffs] == [{(0,): 1}, {}, {(2,): -1}]


def _coefficients(series):
    """The coefficients past z^0, which is the int 1 for every input."""
    return [c for poly in series.coeffs[1:] for c in poly.terms.values()]


class TestIntCoefficients:
    """Int inputs keep int coefficients, equal to the Fraction-built
    twins; a rational input makes Fractions."""

    def test_constructors(self):
        assert MultiPoly.constant(2, 3).terms == {(0, 0): 3}
        assert type(MultiPoly.constant(2, 3).constant_value()) is int
        assert type(MultiPoly.variable(2, 1).coefficient((0, 1))) is int
        assert MultiPoly.constant(2, 3) == MultiPoly.constant(2, Fraction(3))
        assert type(MultiPoly.constant(2, Fraction(3)).constant_value()) is Fraction
        assert type(MultiPoly.constant(2, Fraction(1, 3)).constant_value()) is Fraction

    @pytest.mark.parametrize("factor", [geometric_factor, affine_factor])
    def test_weighted_factors(self, factor):
        v = MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)
        twin = MultiPoly(2, {e: Fraction(c) for e, c in v.terms.items()})
        for c in (-2, 0, 3):
            got = factor(c, v, 4)
            assert all(type(q) is int for q in _coefficients(got))
            assert got == factor(Fraction(c), twin, 4)
            assert all(type(q) is Fraction for q in _coefficients(factor(Fraction(c), twin, 4)))
        assert all(type(q) is Fraction for q in _coefficients(factor(Fraction(1, 2), v, 4)))

    def test_geometric_power(self):
        for c in (-2, 1, 3):
            got = geometric_power(c, 3, 5, nvars=1)
            assert all(type(q) is int for q in _coefficients(got))
            assert got == geometric_power(Fraction(c), 3, 5, nvars=1)
            assert all(type(q) is Fraction
                       for q in _coefficients(geometric_power(Fraction(c), 3, 5, nvars=1)))
        assert all(type(q) is Fraction
                   for q in _coefficients(geometric_power(Fraction(1, 2), 3, 5, nvars=1)))


class TestFloatsRefused:
    """A float is not an exact coefficient at any entry point."""

    def test_constructor(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            MultiPoly(1, {(0,): 0.1})

    def test_constant(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            MultiPoly.constant(1, 0.1)

    def test_scale(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            MultiPoly(1).scale(0.5)

    @pytest.mark.parametrize("factor", [geometric_factor, affine_factor])
    def test_weighted_factors(self, factor):
        with pytest.raises(DomainError, match="rational coefficient"):
            factor(0.5, MultiPoly.constant(0, 1), 3)

    def test_geometric_power(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            geometric_power(0.5, 2, 3)


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

