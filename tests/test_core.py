import json
import math
from fractions import Fraction

import pytest

from hurwitz import oracle
from hurwitz.asymptotics import gw_leading_term
from hurwitz.core import (
    GSpec,
    character_sum,
    classical_hurwitz,
    completed_hurwitz,
    connected_transform,
    connected_transform_multi,
    f_bar,
    gap_interval,
    gw_correlator,
    gw_genus,
    hypergeometric_hurwitz,
    m_ds,
    mixed_simple_hypergeometric,
    orbifold_hurwitz,
    resum_structure,
    rh_genus,
    structure_coefficients,
    structure_resummation,
)
from hurwitz.errors import DomainError
from hurwitz.oracle import Block, FactorizationQuery, count_factorizations
from hurwitz.partitions import class_data, enumerate_partitions
from reference import admissible_parity, resum_structure_fractions


def f_bar_via_row_shifts(lam, s):
    """Independent evaluation through the row coordinates lam_i - i + 1/2."""
    from hurwitz.exactnum import zeta_neg

    half = Fraction(1, 2)
    acc = (1 - Fraction(1, 2**s)) * zeta_neg(s)
    for i, part in enumerate(lam, start=1):
        acc += (part - i + half) ** s - (-i + half) ** s
    return acc / s


class TestEigenvalues:
    def test_content_sums(self):
        assert f_bar((2,), 2) == 1
        assert f_bar((1, 1), 2) == -1

    @pytest.mark.parametrize("d", range(1, 13))
    def test_row_partition_gives_binomial(self, d):
        assert f_bar((d,), 2) == Fraction(d * (d - 1), 2) == m_ds(d, 1)

    def test_degree_one_cubic(self):
        assert f_bar((1,), 3) == Fraction(247, 2880)

    def test_index_bound(self):
        with pytest.raises(DomainError):
            f_bar((2, 1), 1)

    @pytest.mark.parametrize("d", range(0, 9))
    def test_matches_row_shift_formula(self, d):
        for lam in enumerate_partitions(d):
            for s in range(2, 6):
                assert f_bar(lam, s) == f_bar_via_row_shifts(lam, s)

    @pytest.mark.parametrize("d", range(0, 13))
    def test_matches_frobenius_formula(self, d):
        from hurwitz.exactnum import zeta_neg
        from hurwitz.partitions import frobenius_shifted

        for lam in enumerate_partitions(d):
            fc = frobenius_shifted(lam)
            for s in range(2, 7):
                acc = (1 - Fraction(1, 2**s)) * zeta_neg(s)
                for a, b in zip(fc.a, fc.b):
                    acc += a**s - (-b) ** s
                assert f_bar(lam, s) == acc / s

    @pytest.mark.parametrize("d", range(0, 13))
    def test_matches_the_transpose_formula(self, d):
        # the leg of diagonal box i read off the conjugate partition
        from hurwitz.exactnum import zeta_neg
        from hurwitz.partitions import transpose

        for lam in enumerate_partitions(d):
            lt = transpose(lam)
            for s in range(2, 6):
                num = sum((2 * (p - i) - 1) ** s - (1 - 2 * (lt[i] - i)) ** s
                          for i, p in enumerate(lam) if p > i)
                assert f_bar(lam, s) == (Fraction(num, 2**s)
                                         + (1 - Fraction(1, 2**s)) * zeta_neg(s)) / s

    def test_transpose_antisymmetry(self):
        from hurwitz.partitions import transpose

        for d in range(1, 9):
            for lam in enumerate_partitions(d):
                for s in (2, 4):
                    assert f_bar(transpose(lam), s) == -f_bar(lam, s)
                for s in (3, 5):
                    assert f_bar(transpose(lam), s) == f_bar(lam, s)


class TestMds:
    @pytest.mark.parametrize("d", range(1, 21))
    def test_binomial_identity(self, d):
        assert m_ds(d, 1) == math.comb(d, 2)

    def test_degree_one(self):
        assert m_ds(1, 1) == 0

    def test_equals_row_eigenvalue(self):
        assert m_ds(2, 3) == f_bar((2,), 4)
        for d in range(1, 9):
            for s in range(1, 5):
                assert m_ds(d, s) == f_bar((d,), s + 1)

    def test_closed_form(self):
        # (1/(s+1)) [(d - 1/2)^{s+1} - (-1/2)^{s+1} + c_{s+1}], the one
        # diagonal hook of the row with c_s = (1 - 2^-s) zeta(-s)
        from hurwitz.exactnum import zeta_neg

        half = Fraction(1, 2)
        for d in range(1, 41):
            for s in range(1, 9):
                c = (1 - Fraction(1, 2 ** (s + 1))) * zeta_neg(s + 1)
                assert m_ds(d, s) == ((d - half) ** (s + 1) - (-half) ** (s + 1) + c) / (s + 1)

    def test_argument_check(self):
        for d, s in ((0, 1), (3, 0)):
            with pytest.raises(DomainError, match="m_ds wants"):
                m_ds(d, s)


class TestCompleted:
    def test_unramified_double_cover(self):
        assert completed_hurwitz(2, 1, (), d=2).value == Fraction(1, 2)

    def test_three_sheets_full_cycle(self):
        assert completed_hurwitz(2, 1, ((3,),)).value == Fraction(1, 2)

    def test_parity_obstruction(self):
        assert completed_hurwitz(1, 1, ((3,),)).value == 0

    def test_degree_mismatch(self):
        with pytest.raises(DomainError):
            completed_hurwitz(2, 1, ((3,), (2,)))
        with pytest.raises(DomainError):
            completed_hurwitz(2, 1, ())

    def test_genus_metadata(self):
        res = completed_hurwitz(2, 1, ((3,),))
        # rs = 2g - 2 - d(N-2) + l: 2 = 2g - 2 + 3 + 1
        assert res.genus == 0 and res.genus_integral
        res = completed_hurwitz(1, 1, ((3,),))
        assert res.genus == Fraction(-1, 2) and not res.genus_integral
        assert rh_genus(2, 1, 2, ()) == Fraction(0)
        assert admissible_parity(2, 1, 2, ()) and not admissible_parity(1, 1, 2, ())

    @pytest.mark.parametrize("d", range(1, 5))
    def test_against_oracle(self, d):
        for r in range(0, 5):
            for profiles in [()] + [(mu,) for mu in enumerate_partitions(d)]:
                got = completed_hurwitz(r, 1, profiles, d=d).value
                want = count_factorizations(FactorizationQuery(
                    d=d, profiles=profiles, blocks=(Block(r, "none"),)))
                assert got == want

    def test_three_profiles_stay_exact(self):
        # the dimension weight dim^(2 - N) has a negative exponent here
        profiles = ((3,), (3,), (2, 1))
        value = completed_hurwitz(1, 1, profiles).value
        assert type(value) is Fraction and value == Fraction(1, 6)
        assert value == count_factorizations(FactorizationQuery(
            d=3, profiles=profiles, blocks=(Block(1, "none"),)))

    def test_classical_alias(self):
        res = classical_hurwitz(4, 3)
        assert res.kind == "classical"
        assert res.value == completed_hurwitz(4, 1, (), d=3).value


class TestHypergeometric:
    def test_degree_two_closed_form(self):
        for r in range(0, 10):
            value = hypergeometric_hurwitz(r, GSpec(K=1), (), d=2).value
            expected = Fraction(1 + (-1) ** r, 4)
            assert value == expected

    def test_degree_three_monotone_pairs(self):
        assert hypergeometric_hurwitz(2, GSpec(K=1), (), d=3).value == Fraction(1, 2)

    def test_strict_block_exhaustion(self):
        for r in range(2, 7):
            poly = hypergeometric_hurwitz(r, GSpec(L=1), (), d=2, caps=(r,)).value
            assert poly.coefficient((2,)) == 0

    @pytest.mark.parametrize("d", range(1, 5))
    def test_parity_vanishing(self, d):
        specs = [GSpec(K=1), GSpec(M=1), GSpec(L=1, M=1), GSpec(K=1, L=1)]
        for gspec in specs:
            for r in range(0, 7):
                poly = hypergeometric_hurwitz(r, gspec, (), d=d).value
                for expo, coeff in poly.terms.items():
                    assert coeff == 0 or r % 2 == 0

    def test_mixed_simple_blocks(self):
        # one unconstrained + one weak block against the oracle
        got = mixed_simple_hypergeometric(2, 2, GSpec(M=1), (), d=3, caps=(2,))
        want = count_factorizations(FactorizationQuery(
            d=3, blocks=(Block(2, "none"), Block(2, "weak"))))
        assert got.coefficient((2,)) == want


class TestConnected:
    def evaluator(self, r, profiles, d):
        return completed_hurwitz(r, 1, profiles, d=d).value

    def test_unramified_double_cover_disconnects(self):
        assert connected_transform(self.evaluator, 0, (), d=2) == 0
        assert completed_hurwitz(0, 1, (), d=2).value == Fraction(1, 2)

    def test_negative_counts_raise(self):
        # an evaluator that does not check its counts: the transform does,
        # before its scale Q**c turns into a float (1**-1 == 1.0)
        def evaluator(*_):
            return Fraction(1)
        with pytest.raises(DomainError):
            connected_transform(evaluator, -1, (), d=2)
        with pytest.raises(DomainError):
            connected_transform_multi(evaluator, (-1,), (), d=2)

    def test_two_branch_points_force_connected(self):
        assert connected_transform(self.evaluator, 2, (), d=2) == Fraction(1, 2)

    def test_single_sheet(self):
        for r in range(0, 4):
            assert connected_transform(self.evaluator, r, ((1,),)) == \
                completed_hurwitz(r, 1, ((1,),)).value

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_full_cycle_forces_transitivity(self, d):
        for r in range(0, 5):
            disc = completed_hurwitz(r, 1, ((d,),)).value
            conn = completed_hurwitz(r, 1, ((d,),), connected=True).value
            assert disc == conn

    def test_connected_flag_routes_through_transform(self):
        res = completed_hurwitz(4, 1, (), d=3, connected=True)
        assert res.connected
        assert res.value == connected_transform(self.evaluator, 4, (), d=3)

    def test_connected_hypergeometric_polynomial(self):
        # degree 2, one weak block: the disconnected piece with both sheets
        # unramified must be removed at order 0
        g = GSpec(M=1)
        disc = hypergeometric_hurwitz(0, g, (), d=2).value
        conn = hypergeometric_hurwitz(0, g, (), d=2, connected=True).value
        assert disc.coefficient((0,)) == Fraction(1, 2)
        assert conn.coefficient((0,)) == 0


class TestStructure:
    def test_leading_coefficient(self):
        coeffs = structure_coefficients(1, ((2, 1, 1),))
        assert coeffs[m_ds(4, 1)] == 1

    def test_gap_degree_six(self):
        coeffs = structure_coefficients(1, (), d=6)
        lo, hi = math.comb(5, 2), math.comb(6, 2)
        assert not [m for m in coeffs if lo < m < hi]
        wide_lo, wide_hi = gap_interval(6, 1)
        assert (wide_lo, wide_hi) == (9, 15)
        assert not [m for m in coeffs if wide_lo < m < wide_hi]

    def test_resummation(self):
        for r in (2, 4, 6, 8, 10):
            assert structure_resummation(r, 1, (), d=4) == \
                completed_hurwitz(r, 1, (), d=4).value

    def test_resummation_odd_parity_profile(self):
        mu = (2, 1)  # N=1, d=3: admissible r odd
        for r in (1, 3, 5, 7):
            assert structure_resummation(r, 1, (mu,)) == \
                completed_hurwitz(r, 1, (mu,)).value

    @pytest.mark.parametrize("d, s, profiles", [
        (6, 1, ()), (5, 2, ()), (5, 1, ((3, 1, 1),)), (5, 3, ((2, 2, 1), (3, 1, 1))),
        (5, 4, ((3, 1, 1),))])
    def test_gap_resummation_catches_a_perturbed_coefficient(self, monkeypatch,
                                                             d, s, profiles):
        from hurwitz import verify

        assert verify.verify_gap(d, s, profiles)["pass"]
        exact = structure_coefficients

        def perturbed(*args, **kwargs):
            coeffs = exact(*args, **kwargs)
            low = min(coeffs)  # not the leading key, so only the resummation fails
            coeffs[low] += Fraction(1, 7)
            return coeffs

        monkeypatch.setattr(verify, "structure_coefficients", perturbed)
        checks = verify.verify_gap(d, s, profiles)["checks"]
        assert [c["pass"] for c in checks] == [True, True, False]
        assert checks[2]["name"].startswith("resummation identity")
        assert checks[2]["detail"].startswith("r=")

    @pytest.mark.parametrize("d, s, profiles", [
        (6, 1, ()), (5, 2, ()), (5, 3, ((2, 2, 1), (3, 1, 1))), (7, 3, ((4, 2, 1), (3, 3, 1)))])
    def test_gap_checks_one_spectrum_against_the_partition_sum(self, monkeypatch,
                                                              d, s, profiles):
        # one spectrum build per request; more weight on its lowest positive
        # eigenvalue fails only the resummation, whose direct side does not group
        from hurwitz import core, verify

        built = []
        exact = core.completed_spectrum

        def counted(*args):
            built.append(args)
            return exact(*args)

        monkeypatch.setattr(core, "completed_spectrum", counted)
        assert verify.verify_gap(d, s, profiles)["pass"] and len(built) == 1

        def regrouped(*args):
            denominator, spectrum = exact(*args)
            spectrum = dict(spectrum)
            spectrum[min(f for f in spectrum if f > 0)] += 1
            return denominator, spectrum

        monkeypatch.setattr(core, "completed_spectrum", regrouped)
        checks = verify.verify_gap(d, s, profiles)["checks"]
        assert [c["pass"] for c in checks] == [True, True, False]
        assert checks[2]["detail"].startswith("r=")

    @pytest.mark.parametrize("d", range(1, 10))
    def test_integer_resummation_is_the_fraction_sum(self, d):
        parts = enumerate_partitions(d)
        profile_lists = [(), (parts[0],), (parts[-1],), (parts[len(parts) // 2],),
                         (parts[len(parts) // 2], parts[-1])]
        for profiles in profile_lists:
            for s in range(1, 5):  # odd s: positive keys; even s: signed, half-weighted
                coeffs = structure_coefficients(s, profiles, d=d)
                for r in range(13):
                    got = resum_structure(coeffs, r, d)
                    assert (got, type(got)) == (resum_structure_fractions(coeffs, r, d),
                                                Fraction), (profiles, s, r)

    def test_integer_resummation_of_written_coefficients(self):
        # int and half-integer keys, values of mixed denominators, and no keys
        coeffs = {Fraction(5, 2): Fraction(1, 3), 2: Fraction(-3, 4), Fraction(-1, 2): 5, 0: 1}
        for r in range(6):
            assert resum_structure(coeffs, r, 4) == resum_structure_fractions(coeffs, r, 4)
        assert resum_structure({}, 3, 4) == 0

    def test_even_index_keys_are_signed(self):
        coeffs = structure_coefficients(2, (), d=3)
        for r in range(1, 8):
            assert structure_resummation(r, 2, (), d=3) == \
                completed_hurwitz(r, 2, (), d=3).value


class TestOrbifold:
    def test_reduces_to_single_with_identity_profile(self):
        for r in range(0, 5):
            via_t = orbifold_hurwitz(r, 1, (2, 1)).value
            direct = completed_hurwitz(r, 1, ((2, 1), (1, 1, 1))).value
            assert via_t == direct

    def test_indivisible_degree_vanishes(self):
        res = orbifold_hurwitz(1, 2, (2, 1))
        assert res.value == 0 and res.kind == "orbifold"

    def test_degree_two_uniform(self):
        # r = 1 is parity-forbidden (the triple (12)(12)(12) is odd);
        # r = 2 admits exactly one tuple, confirmed by the oracle
        assert orbifold_hurwitz(1, 2, (2,)).value == 0
        assert orbifold_hurwitz(2, 2, (2,)).value == Fraction(1, 2)
        for r in (1, 2, 3, 4):
            want = count_factorizations(FactorizationQuery(
                d=2, profiles=((2,), (2,)), blocks=(Block(r, "none"),)))
            assert orbifold_hurwitz(r, 2, (2,)).value == want


class TestGromovWitten:
    def test_degree_one_values(self):
        assert gw_correlator((1,), (1,), {1: 2}) == 0
        assert gw_correlator((1,), (1,), {2: 1}) == Fraction(247, 5760)

    def test_consistency_with_completed(self):
        for m in range(0, 6):
            z = class_data((2,)).stabilizer ** 2
            lhs = gw_correlator((2,), (2,), {1: m})
            rhs = completed_hurwitz(m, 1, ((2,), (2,))).value / z
            assert lhs == rhs

    def test_genus_bookkeeping(self):
        assert gw_genus((2,), (2,), {1: 2}) == Fraction(1)
        assert gw_genus((1,), (1,), {2: 1}) == Fraction(1)

    @pytest.mark.parametrize("gw", [gw_genus, gw_correlator, gw_leading_term],
                             ids=["gw_genus", "gw_correlator", "gw_leading_term"])
    def test_profiles_of_different_degrees(self, gw):
        with pytest.raises(DomainError, match="different degrees"):
            gw((2, 1), (1,), {1: 1})

    def test_connected_variant(self):
        # degree 1 covers are connected
        assert gw_correlator((1,), (1,), {2: 1}, connected=True) == \
            gw_correlator((1,), (1,), {2: 1})
        # for d=2 the order-0 disconnected piece drops out
        disc = gw_correlator((1, 1), (1, 1), {})
        conn = gw_correlator((1, 1), (1, 1), {}, connected=True)
        assert disc != conn and conn == 0

    def test_degree_mismatch(self):
        with pytest.raises(DomainError):
            gw_correlator((2,), (1,), {1: 1})


class TestSerialization:
    def test_rational_result(self):
        blob = completed_hurwitz(2, 1, ((3,),)).to_json_dict()
        assert blob["value"] == "1/2"
        assert blob["kind"] == "completed" and blob["g"] == 0
        assert blob["profiles"] == [[3]]
        json.dumps(blob)

    def test_polynomial_result(self):
        res = hypergeometric_hurwitz(2, GSpec(M=1), (), d=2, caps=(2,))
        blob = res.to_json_dict()
        assert {"monomial": "v1^2", "coeff": "1/2"} in blob["value"]
        json.dumps(blob)

    def test_character_sum_zero(self):
        # impossible profile parity collapses to exact zero
        assert character_sum(2, ((2,),), lambda lam: f_bar(lam, 2)) == Fraction(1, 2)
        value = completed_hurwitz(2, 1, ((2,), (2,), (2,))).value
        assert value == 0


class TestEigenvalueOrdering:
    def test_lemma_scale_sweep(self):
        from hurwitz import verify

        report = verify.verify_eigenvalue_order(max_d=10)
        assert report["pass"], report["checks"]
