import itertools
import math
from fractions import Fraction

import pytest

from hypothesis import given, strategies as st

from hurwitz import verify
from hurwitz.asymptotics import (
    _limit_inputs,
    _pole,
    _pole_constant,
    _pole_read,
    _stirling_inputs,
    b_leading_sweep,
    b_leading_term,
    completed_leading_sweep,
    completed_leading_term,
    first_r,
    gw_leading_sweep,
    gw_leading_term,
    monotone_leading_sweep,
    monotone_leading_term,
    pole_coefficient,
    pole_coefficient_stirling,
    ratio_report,
)
from hurwitz.core import (GSpec, _normalize_insertions, _resolve_degree, completed_hurwitz,
                          content_sequences, m_ds)
from hurwitz.errors import DomainError, EmptyReportError
from hurwitz.exactnum import MultiPoly, stirling
from hurwitz.partitions import class_data, contents


def per_monomial_pole(d, gspec, profiles, sign, v_order, coefficient):
    """The pole coefficient assembled monomial by monomial on the box
    a_i <= d-1, b_j <= v_order from ``coefficient(a_vec, b_vec)``, with
    the profile sign (+-1)^{Nd - sum l} at the column pole."""
    flip = sign == -1 and (d * len(profiles) - sum(map(len, profiles))) % 2
    poly = MultiPoly(gspec.nvars)
    for expo in itertools.product(*[range(d)] * gspec.L, *[range(v_order + 1)] * gspec.M):
        q = coefficient(expo[:gspec.L], expo[gspec.L:])
        if q:
            poly.terms[expo] = -q if flip else q
    return poly


def literal_limit(d, gspec, sign, v_order):
    """``(a_vec, b_vec) -> limit * prod e[a] * prod h[b]`` over the e and
    h sequences of the contents scaled by z0 = sign/(d-1)."""
    z0 = Fraction(sign, d - 1)
    scaled = [c * z0 for c in contents((d,) if sign == 1 else (1,) * d)]
    e, h, _ = content_sequences(scaled, gspec, max(d - 1, v_order))
    limit = Fraction(1, math.factorial(d) ** 2)
    for w in scaled:
        if w and w != 1:
            limit /= (1 - w) ** gspec.K
    return lambda a_vec, b_vec: (limit * math.prod(e[a] for a in a_vec)
                                 * math.prod(h[b] for b in b_vec))


class TestPoleCoefficient:
    def test_plain_degree_three(self):
        assert pole_coefficient(3, GSpec(K=1)) == Fraction(1, 18)

    def test_plain_degree_two_both_signs(self):
        for sign in (1, -1):
            assert pole_coefficient(2, GSpec(K=1), sign=sign) == Fraction(1, 4)

    def test_u_coefficients_are_stirling(self):
        d = 4
        pc = pole_coefficient(d, GSpec(K=1, L=1))
        base = Fraction((d - 1) ** (d - 2),
                        math.factorial(d) ** 2 * math.factorial(d - 2))
        for a in range(0, d):
            expected = base * Fraction(stirling(1, d, d - a), (d - 1) ** a)
            assert pc.coefficient((a,)) == expected

    def test_v_coefficients_are_stirling(self):
        d = 3
        pc = pole_coefficient(d, GSpec(K=1, M=1), v_order=5)
        base = Fraction((d - 1) ** (d - 2),
                        math.factorial(d) ** 2 * math.factorial(d - 2))
        for b in range(0, 6):
            expected = base * Fraction(stirling(2, b + d - 1, d - 1), (d - 1) ** b)
            assert pc.coefficient((b,)) == expected

    def test_limit_equals_stirling_closed_form(self):
        for d in (2, 3, 4, 5):
            for k in (1, 2):
                for l in (0, 1):
                    for m in (0, 1):
                        for sign in (1, -1):
                            g = GSpec(K=k, L=l, M=m)
                            assert pole_coefficient(d, g, (), sign, v_order=4) == \
                                pole_coefficient_stirling(d, g, (), sign, v_order=4)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_both_functions_match_the_per_monomial_reference(self, d):
        v_order = 3
        for k, l, m in itertools.product(range(1, 4), range(3), range(3)):
            g = GSpec(K=k, L=l, M=m)
            for sign in (1, -1):
                limit = literal_limit(d, g, sign, v_order)
                for profiles in ((), ((1,) * d,), ((d - 1, 1),)):
                    want = per_monomial_pole(
                        d, g, profiles, sign, v_order,
                        lambda a_vec, b_vec: _pole_constant(d, k, a_vec, b_vec))
                    assert per_monomial_pole(d, g, profiles, sign, v_order, limit) == want
                    got = [pole(d, g, profiles, sign, v_order=v_order)
                           for pole in (pole_coefficient, pole_coefficient_stirling)]
                    assert got[0] == got[1] == want
                    assert all(isinstance(poly, MultiPoly) and all(
                        type(c) is Fraction for c in poly.terms.values()) for poly in got)

    def test_pole_constant_zero_and_errors(self):
        assert _pole_constant(3, 1, (3,), (1,)) == 0
        assert _pole_constant(3, 1, (1, 5)) == 0
        # (d-1)^{(d-2)K - 2 - 1} [3; 1] {3; 2} / 3!^2 = 2 * 3 / (2 * 36)
        assert _pole_constant(3, 2, (2,), (1,)) == Fraction(
            stirling(1, 3, 1) * stirling(2, 3, 2), 2 * 36)
        for args in ((3, 0), (1, 1), (3, 1, (-1,)), (3, 1, (), (-1,))):
            with pytest.raises(DomainError):
                _pole_constant(*args)

    def test_profile_sign(self):
        pc = pole_coefficient(3, GSpec(K=1), profiles=((2, 1),), sign=-1)
        # Nd - sum(l) = 3 - 2 = 1, so the column pole flips sign
        assert pc == -Fraction(1, 18)

    @pytest.mark.parametrize("pole", [pole_coefficient, pole_coefficient_stirling],
                             ids=["pole_coefficient", "pole_coefficient_stirling"])
    def test_errors(self, pole):
        with pytest.raises(DomainError):
            pole(1, GSpec(K=1))
        with pytest.raises(DomainError):
            pole(3, GSpec(K=0))
        with pytest.raises(DomainError):
            pole(3, GSpec(K=1), sign=2)
        with pytest.raises(DomainError, match="contradicts profiles"):
            pole(3, GSpec(K=1), profiles=((2,),))
        # a negative v order, with v blocks and without
        for g in (GSpec(K=1, M=1), GSpec(K=1, L=1), GSpec(K=1)):
            with pytest.raises(DomainError, match="v_order must be nonnegative"):
                pole(3, g, v_order=-1)

    def test_no_polynomial_product(self, monkeypatch):
        """Pole coefficients and leading terms read the pole constant
        monomial by monomial; no ``MultiPoly`` product is formed."""
        def refuse(*args, **kwargs):
            raise AssertionError("a polynomial product was used")

        monkeypatch.setattr(MultiPoly, "mul", refuse)
        g = GSpec(K=2, L=1, M=1)
        for sign in (1, -1):
            assert pole_coefficient(4, g, ((2, 2),), sign, v_order=3) == \
                pole_coefficient_stirling(4, g, ((2, 2),), sign, v_order=3)
        assert monotone_leading_term(6, 4, 2, (1,), (2,)) > 0
        assert b_leading_term(6, 4, 0, 0, 2, (1,), (2,), Fraction(1, 2)) > 0
        assert completed_leading_term(6, 4, 2) > 0
        assert gw_leading_term((2, 1), (3,), {2: 3}) > 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_monotone_leading_term_is_the_pole_transfer(self, d):
        for k, a_vec, b_vec in [(1, (), ()), (2, (1,), ()), (1, (d - 1,), (2,)),
                                (3, (0, 1), (1, 0))]:
            pole = pole_coefficient_stirling(d, GSpec(k, len(a_vec), len(b_vec)), v_order=2)
            constant = pole.coefficient(a_vec + b_vec)
            for r in (0, 1, 5, 12):
                assert monotone_leading_term(r, d, k, a_vec, b_vec) == \
                    2 * Fraction(r ** (k - 1), math.factorial(k - 1)) * (d - 1) ** r * constant


class TestPoleSuite:
    """``verify poles`` compares what ``_pole`` reads of the limit and the
    Stirling inputs, with no polynomial built."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_equal_reads_are_equal_polynomials(self, d):
        for k, l, m in itertools.product(range(1, 4), range(3), range(3)):
            g = GSpec(K=k, L=l, M=m)
            for sign in (1, -1):
                limit, table = (inputs(d, g, (), sign, 3)
                                for inputs in (_limit_inputs, _stirling_inputs))
                assert _pole_read(g, *limit) == _pole_read(g, *table)
                assert _pole(d, g, *limit) == _pole(d, g, *table) \
                    == pole_coefficient(d, g, (), sign, v_order=3)

    def test_only_the_rows_pole_reads_are_compared(self):
        g = GSpec(K=1, L=1)
        assert _pole_read(g, True, Fraction(2, 3), [1, 0, 4, 0, 0], [7]) \
            == (Fraction(-2, 3), (1, 0, 4), None)

    @pytest.mark.parametrize("name, item", [
        ("_limit_inputs", 1), ("_limit_inputs", 2), ("_limit_inputs", 3),
        ("_stirling_inputs", 1), ("_stirling_inputs", 2), ("_stirling_inputs", 3),
    ], ids=["limit-scalar", "limit-e", "limit-h", "stirling-scalar", "stirling-e",
            "stirling-h"])
    def test_a_wrong_input_fails_the_report(self, monkeypatch, name, item):
        # one wrong value at (d, K, L, M, sign) = (3, 2, 1, 2, -1): the scalar,
        # or one entry of the e or h row
        original = getattr(verify, name)

        def wrong(d, g, profiles, sign, v_order):
            inputs = list(original(d, g, profiles, sign, v_order))
            if (d, g, sign) == (3, GSpec(K=2, L=1, M=2), -1):
                if item == 1:
                    inputs[1] += 1
                else:
                    inputs[item] = [x + (i == 1) for i, x in enumerate(inputs[item])]
            return tuple(inputs)

        monkeypatch.setattr(verify, name, wrong)
        report = verify.verify_poles(max_d=4)
        assert not report["pass"]
        failed = [check for check in report["checks"] if not check["pass"]]
        assert [(c["name"], c["detail"]) for c in failed] == [
            ("limit vs Stirling closed form d=3", "K=2 L=1 M=2 sign=-1")]


class TestMonotoneLeading:
    def test_degree_three_single_block(self):
        for r in (2, 4, 10):
            assert monotone_leading_term(r, 3, 1) == Fraction(2 ** (r + 2), 36)

    def test_single_profile_specialisation(self):
        # 2 (d-1)^{d-2} / (d!^2 (d-2)!) * (d-1)^r at d = 4
        d = 4
        for r in (3, 5):
            expected = Fraction(2 * (d - 1) ** (d - 2 + r),
                                math.factorial(d) ** 2 * math.factorial(d - 2))
            assert monotone_leading_term(r, d, 1) == expected

    def test_two_blocks_degree_two(self):
        for r in (2, 6, 12):
            assert monotone_leading_term(r, 2, 2) == Fraction(r, 2)

    def test_saturated_strict_degree_vanishes(self):
        assert monotone_leading_term(6, 3, 1, a_vec=(3,)) == 0
        assert monotone_leading_term(6, 3, 1, a_vec=(2,)) != 0

    def test_guards(self):
        with pytest.raises(DomainError):
            monotone_leading_term(2, 1, 1)
        with pytest.raises(DomainError):
            monotone_leading_term(2, 3, 0)

    @pytest.mark.parametrize("blocks, name", [
        (((), (-1,)), "b"), (((), (-3,)), "b"), (((-1,), ()), "a"), (((1, -2), (0,)), "a")])
    def test_negative_block_degrees(self, blocks, name):
        with pytest.raises(DomainError, match=f"{name} block degrees must be nonnegative"):
            monotone_leading_term(5, 3, 1, *blocks)
        with pytest.raises(DomainError, match=f"{name} block"):
            b_leading_term(5, 3, 0, 0, 1, *blocks, b=1)


class TestCompletedLeading:
    def test_degree_two_is_exact(self):
        for r in (0, 2, 4, 8):
            assert completed_leading_term(r, 2, 1) == Fraction(1, 2)
            assert completed_hurwitz(r, 1, (), d=2).value == Fraction(1, 2)

    def test_classical_binomial_form(self):
        d = 5
        for r in (4, 6):
            assert completed_leading_term(r, d, 1) == \
                Fraction(2, math.factorial(d) ** 2) * Fraction(math.comb(d, 2)) ** r

    def test_cubic_eigenvalue(self):
        assert m_ds(3, 2) == Fraction(15127, 2880)
        assert completed_leading_term(2, 3, 2) == \
            Fraction(2, 36) * Fraction(15127, 2880) ** 2


class TestBLeading:
    def test_b_zero_reduction(self):
        for d in (2, 3, 4):
            for r in range(0, 9):
                got = b_leading_term(r, d, 0, 0, 1, (), (), 0)
                want = monotone_leading_term(r, d, 1) if r % 2 == 0 else 0
                assert got == want

    def test_expanding_regime_two_sheets(self):
        # alpha = 2: the row term (1/24) 2^r . (d-1)=1 so no extra power
        for r in (5, 9):
            assert b_leading_term(r, 2, 0, 0, 1, (), (), 1) == Fraction(2**r, 24)

    def test_contracting_regime_two_sheets(self):
        # alpha = 1/2: column pole, norm 2 * (1/2) * (3/2) = 3/2
        for r in (6, 7):
            assert b_leading_term(r, 2, 0, 0, 1, (), (), Fraction(-1, 2)) == \
                Fraction((-1) ** r, 1) * Fraction(2, 3)

    def test_domain(self):
        with pytest.raises(DomainError):
            b_leading_term(2, 2, 0, 0, 1, (), (), -2)


class TestGWLeading:
    def test_degree_one_vanishes_with_simple_insertions(self):
        from hurwitz.core import gw_correlator

        assert gw_leading_term((1,), (1,), {1: 3}) == 0
        assert gw_correlator((1,), (1,), {1: 3}) == 0

    def test_formula(self):
        got = gw_leading_term((1, 1, 1), (1, 1, 1), {2: 4})
        direct = Fraction(2, 6 * 6 * 36) * (m_ds(3, 2) / 2) ** 4
        assert got == direct


class TestRatioReport:
    def test_drops_zero_rows_and_converges(self):
        rep = ratio_report(
            lambda r: completed_hurwitz(r, 1, (), d=3).value,
            lambda r: completed_leading_term(r, 3, 1),
            range(0, 21),
        )
        assert all(e.r % 2 == 0 for e in rep.entries)
        assert rep.final_error <= Fraction(1, 10**5)
        assert not rep.diverging
        assert rep.monotone_from is not None

    def test_exact_family_is_flat(self):
        rep = ratio_report(
            lambda r: completed_hurwitz(r, 1, (), d=2).value,
            lambda r: completed_leading_term(r, 2, 1),
            range(0, 13),
        )
        assert all(e.ratio == 1 for e in rep.entries)
        assert rep.final_error == 0

    def test_empty_report(self):
        with pytest.raises(EmptyReportError):
            ratio_report(lambda r: Fraction(0), lambda r: Fraction(1), range(5))

    def test_decimal_rendering(self):
        rep = ratio_report(lambda r: Fraction(1, 3), lambda r: Fraction(1, 2), [1])
        assert rep.entries[0].ratio == Fraction(2, 3)
        # RATIO_DIGITS = 38 significant digits, about 128 bits
        assert rep.entries[0].ratio_decimal == "0." + "6" * 37 + "7"

    def test_csv_header_contract(self):
        rep = ratio_report(lambda r: Fraction(1), lambda r: Fraction(1), [0, 1])
        assert rep.csv_rows()[0] == ["r", "exact", "asymptotic", "ratio"]


# ---------------------------------------------------------------------------
# Leading-term sweeps against the per-r formulas they replaced
# ---------------------------------------------------------------------------
#
# The reference below is the per-r evaluation that rebuilt each family's
# constant at every r, kept verbatim as the oracle of the sweeps.

def reference_transfer(r, d, k, constant):
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    return Fraction(r ** (k - 1), math.factorial(k - 1)) * (d - 1) ** r * constant


def reference_monotone(r, d, k, a_vec=(), b_vec=()):
    return 2 * reference_transfer(r, d, k, _pole_constant(d, k, a_vec, b_vec))


def reference_completed(r, d, s):
    if r < 0:
        raise DomainError(f"need r >= 0, got {r}")
    return Fraction(2, math.factorial(d) ** 2) * m_ds(d, s) ** r


def reference_b(r, d, n_profiles, ell_sum, k, a_vec=(), b_vec=(), b=0):
    constant = _pole_constant(d, k, a_vec, b_vec)
    common = reference_transfer(r, d, k, constant * math.factorial(d))
    alpha = Fraction(b) + 1
    if not constant:
        return Fraction(0)
    norm_row = math.prod(1 + alpha * m for m in range(1, d))
    norm_col = alpha * math.prod(alpha + m for m in range(1, d))

    def plus_term():
        if norm_row == 0:
            raise DomainError(f"degenerate deformation: row norm vanishes at b+1={alpha}")
        return alpha ** (r + (n_profiles - 1) * d - ell_sum) / norm_row

    def minus_term():
        if norm_col == 0:
            raise DomainError(f"degenerate deformation: column norm vanishes at b+1={alpha}")
        return Fraction((-1) ** ((r + n_profiles * d - ell_sum) % 2)) / norm_col

    if alpha * alpha > 1:
        return common * plus_term()
    if alpha * alpha < 1:
        return common * minus_term()
    return common * (plus_term() + minus_term())


def reference_gw(mu, nu, insertions):
    d, (mu, nu) = _resolve_degree((mu, nu), None)
    acc = Fraction(2, class_data(mu).stabilizer * class_data(nu).stabilizer
                   * math.factorial(d) ** 2)
    for s, m in _normalize_insertions(insertions):
        acc *= (m_ds(d, s) / math.factorial(s)) ** m
    return acc


R_UP_TO_60 = range(61)


def assert_same(got: dict, reference):
    """Every r <= 60 of the sweep equals the reference, in value and type."""
    assert list(got) == list(R_UP_TO_60)
    for r, value in got.items():
        want = reference(r)
        assert value == want and type(value) is type(want), (r, value, want)


# (n_profiles, ell_sum): Nd - sum l even, odd, and no profile
PARITIES = [(0, 0), (1, 3), (2, 5)]


class TestLeadingSweeps:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_monotone(self, d):
        blocks = [((), ()), ((1,), ()), ((), (2,)), ((d - 1,), (0, 3)), ((d,), ()),
                  ((0, d + 1), (1,))]
        for k in (1, 2, 3):
            for a_vec, b_vec in blocks:
                got = monotone_leading_sweep(R_UP_TO_60, d, k, a_vec, b_vec)
                assert_same(got, lambda r: reference_monotone(r, d, k, a_vec, b_vec))

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_completed(self, s):
        for d in (2, 4, 6):
            got = completed_leading_sweep(R_UP_TO_60, d, s)
            assert_same(got, lambda r: reference_completed(r, d, s))

    @pytest.mark.parametrize("mu, nu", [((3, 2, 1), (2, 2, 2)), ((2, 1, 1), (3, 1))])
    def test_gw(self, mu, nu):
        for s in (1, 2, 3):
            assert_same(gw_leading_sweep(R_UP_TO_60, mu, nu, s),
                        lambda m: reference_gw(mu, nu, {s: m}))
            assert_same(gw_leading_sweep(R_UP_TO_60, mu, nu, s, {4: 2}),
                        lambda m: reference_gw(mu, nu, {s: m, 4: 2}))
        assert gw_leading_term(mu, nu, {1: 2, 3: 5}) == reference_gw(mu, nu, {1: 2, 3: 5})

    # b+1 = 1, 3/2, 3, 1/2, -1/2 and -2: at b+1 < 0, |b+1| and b+1 differ
    @pytest.mark.parametrize("b", [0, Fraction(1, 2), 2, Fraction(-1, 2), Fraction(-3, 2), -3],
                             ids=["0", "1/2", "2", "-1/2", "-3/2", "-3"])
    def test_b(self, b):
        for d in (2, 3, 4, 5):
            for k, a_vec, b_vec in [(1, (), ()), (2, (), ()), (3, (1,), (2,)), (1, (d,), ())]:
                for n, ell in PARITIES:
                    got = b_leading_sweep(R_UP_TO_60, d, n, ell, k, a_vec, b_vec, b)
                    assert_same(got, lambda r: reference_b(r, d, n, ell, k, a_vec, b_vec, b))

    def test_single_r_functions_are_the_one_r_case(self):
        for r in (0, 1, 7):
            assert monotone_leading_term(r, 4, 2, (1,), (2,)) == \
                reference_monotone(r, 4, 2, (1,), (2,))
            assert completed_leading_term(r, 5, 2) == reference_completed(r, 5, 2)
            assert b_leading_term(r, 4, 1, 3, 2, (), (), Fraction(1, 2)) == \
                reference_b(r, 4, 1, 3, 2, (), (), Fraction(1, 2))

    def test_first_r(self):
        assert [first_r(k) for k in (1, 2, 3)] == [0, 1, 1]
        for k in (1, 2, 3):
            terms = monotone_leading_sweep(range(3), 3, k)
            assert [r for r, value in terms.items() if value] == list(range(first_r(k), 3))

    def test_sweeps_refuse_negative_r(self):
        for sweep in (lambda rs: monotone_leading_sweep(rs, 3, 1),
                      lambda rs: completed_leading_sweep(rs, 3, 1),
                      lambda rs: b_leading_sweep(rs, 3, 0, 0, 1, b=1),
                      lambda rs: gw_leading_sweep(rs, (2, 1), (3,), 2)):
            with pytest.raises(DomainError, match="nonnegative"):
                sweep([2, -1])


def quadratic_monotone_from(rs, errors):
    """The first r from which every later error is no larger, by checking
    each suffix in full."""
    for i in range(len(errors)):
        if all(errors[j + 1] <= errors[j] for j in range(i, len(errors) - 1)):
            return rs[i]
    return None


@given(st.lists(st.integers(0, 6), min_size=1, max_size=25))
def test_monotone_from_matches_the_quadratic_definition(errors):
    rs = list(range(3, 3 + len(errors)))
    rep = ratio_report(lambda r: 1 + Fraction(errors[r - 3], 7), lambda r: Fraction(1), rs)
    assert rep.monotone_from == quadratic_monotone_from(rs, [Fraction(e, 7) for e in errors])
