import itertools
import math
import re
from fractions import Fraction

import pytest

from hurwitz import core, oracle, verify
from hurwitz.core import (GSpec, completed_sweep, hypergeometric_hurwitz,
                          mixed_simple_hypergeometric)
from hurwitz.errors import DomainError, SizeLimitError
from hurwitz.exactnum import TruncSeries, stirling
from hurwitz.oracle import (
    Block,
    FactorizationQuery,
    GroupAlgebraElement,
    block_walk,
    central_idempotent,
    count_factorizations,
    cycle_type,
    idempotent_check,
    jm_series,
    jm_symmetric_evaluate,
    permutation_characters,
)
from hurwitz.partitions import enumerate_partitions
from reference import (block_walk_from_identity, count_factorizations_by_walks,
                       count_factorizations_dfs, resolution_of_identity)


class TestCounts:
    def test_single_weak_block(self):
        q = FactorizationQuery(d=2, blocks=(Block(2, "weak"),))
        assert count_factorizations(q) == Fraction(1, 2)

    def test_three_cycle_profile(self):
        q = FactorizationQuery(d=3, profiles=((3,),), blocks=(Block(2, "none"),))
        assert count_factorizations(q) == Fraction(1, 2)

    def test_strict_exhaustion(self):
        q = FactorizationQuery(d=2, blocks=(Block(2, "strict"),))
        assert count_factorizations(q) == 0

    def test_parity_vanishing(self):
        q = FactorizationQuery(d=3, profiles=((3,),), blocks=(Block(1, "none"),))
        assert count_factorizations(q) == 0

    def test_block_reset_matters(self):
        # two weak singleton blocks allow any pair; one length-2 weak block
        # forces b1 <= b2, so on a 3-cycle target the counts differ
        split = block_walk_from_identity(3, (Block(1, "weak"), Block(1, "weak")))
        joined = dict(block_walk(3, Block(2, "weak")))
        three_cycle = (1, 2, 0)
        assert split[three_cycle] == 3
        assert joined[three_cycle] == 2

    def test_dfs_matches_dp(self):
        constraints = ("none", "weak", "strict")
        for d in (2, 3):
            for c1, c2 in itertools.product(constraints, repeat=2):
                for k1, k2 in ((1, 1), (2, 1), (2, 2), (3, 1)):
                    for profiles in ((), ((d,),)):
                        q = FactorizationQuery(
                            d=d, profiles=profiles,
                            blocks=(Block(k1, c1), Block(k2, c2)),
                        )
                        assert count_factorizations_dfs(q) == count_factorizations(q)

    def test_guards(self):
        with pytest.raises(SizeLimitError):
            FactorizationQuery(d=7)
        with pytest.raises(SizeLimitError):
            FactorizationQuery(d=2, blocks=(Block(11, "none"),))
        with pytest.raises(DomainError):
            FactorizationQuery(d=3, profiles=((2,),))
        with pytest.raises(DomainError):
            Block(1, "sideways")


class TestGroupAlgebra:
    def test_class_sum_central(self):
        c = GroupAlgebraElement.class_sum(4, (2, 1, 1))
        assert len(c.coeffs) == 6
        for p in oracle.group(4):
            q = oracle.inverse(p)
            conj = {oracle.compose(oracle.compose(p, t), q)
                    for t in c.coeffs}
            assert conj == set(c.coeffs)

    def test_identity_and_arithmetic(self):
        e = GroupAlgebraElement.identity(3)
        j3 = GroupAlgebraElement.jucys_murphy(3, 3)
        assert (e * j3) == j3
        assert (j3 - j3).is_zero()
        assert j3.scale(2) == j3 + j3

    def test_class_coefficients_requires_central(self):
        g = GroupAlgebraElement(3, {oracle.group(3)[1]: 1})
        with pytest.raises(DomainError):
            g.class_coefficients()

    def test_float_coefficient_refused(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            GroupAlgebraElement(2, {(1, 0): 0.1})

    def test_float_scale_refused(self):
        with pytest.raises(DomainError, match="rational coefficient"):
            GroupAlgebraElement.identity(2).scale(0.1)

    def test_int_coefficients_stay_ints(self):
        j3 = GroupAlgebraElement.jucys_murphy(3, 3)
        c = GroupAlgebraElement.class_sum(3, (3,))
        for el in (j3, c, GroupAlgebraElement.identity(3), j3 * c + j3 - c, j3.scale(2)):
            assert all(type(q) is int for q in el.coeffs.values())
        assert all(type(q) is Fraction for q in j3.scale(Fraction(1, 2)).coeffs.values())


class TestJucysMurphy:
    def test_first_symmetric_is_all_transpositions(self):
        for kind in ("e", "h"):
            el = jm_symmetric_evaluate(kind, 1, 4)
            expected = GroupAlgebraElement(4)
            for p, _b in oracle.transpositions(4):
                expected.coeffs[p] = Fraction(1)
            assert el == expected

    def test_a_negative_degree_is_a_domain_error(self):
        with pytest.raises(DomainError, match="^symmetric-polynomial degree must be "
                                              "nonnegative: -1$"):
            jm_symmetric_evaluate("e", -1, 3)

    def test_a_degree_above_the_guard_is_a_size_limit(self):
        assert not jm_symmetric_evaluate("h", 8, 2).is_zero()
        with pytest.raises(SizeLimitError, match="^symmetric-polynomial degree 9 outside "
                                                 "the guard 0..8$"):
            jm_symmetric_evaluate("h", 9, 2)

    def test_elementary_exhausts(self):
        assert jm_symmetric_evaluate("e", 3, 3).is_zero()
        assert jm_symmetric_evaluate("e", 5, 4).is_zero()

    def test_h2_degree_three_expansion(self):
        # literal expansion: h_2 = 3*id + 2*(sum of 3-cycles)
        h2 = jm_symmetric_evaluate("h", 2, 3)
        coeffs = h2.class_coefficients()
        assert coeffs[(1, 1, 1)] == 3
        assert coeffs[(3,)] == 2
        assert coeffs[(2, 1)] == 0

    @pytest.mark.parametrize("d", range(2, 6))
    def test_elementary_is_codimension_indicator(self, d):
        for k in range(0, 6):
            e = jm_symmetric_evaluate("e", k, d)
            for p in oracle.group(d):
                codim = d - len(cycle_type(p))
                assert e.coefficient(p) == (1 if codim == k else 0)
            support = stirling(1, d, d - k) if d >= k else 0
            assert len(e.coeffs) == support

    @pytest.mark.parametrize("d", range(1, 6))
    def test_int_coefficients_match_a_fraction_seeded_expansion(self, d, monkeypatch):
        ints = {(kind, k): jm_symmetric_evaluate(kind, k, d)
                for kind in ("e", "h") for k in range(5)}
        for el in ints.values():
            assert all(type(q) is int for q in el.coeffs.values())

        def seeded(make):
            def build(cls, *args):
                el = make(*args)
                return cls(el.d, {p: Fraction(q) for p, q in el.coeffs.items()})
            return classmethod(build)

        monkeypatch.setattr(GroupAlgebraElement, "identity",
                            seeded(GroupAlgebraElement.identity))
        monkeypatch.setattr(GroupAlgebraElement, "jucys_murphy",
                            seeded(GroupAlgebraElement.jucys_murphy))
        for (kind, k), el in ints.items():
            twin = jm_symmetric_evaluate(kind, k, d)
            assert all(type(q) is Fraction for q in twin.coeffs.values())
            assert el == twin

    @pytest.mark.parametrize("kind", ["e", "h"])
    @pytest.mark.parametrize("d", range(1, 6))
    def test_series_entries_are_the_symmetric_functions(self, kind, d):
        want = [jm_symmetric_evaluate(kind, j, d) for j in range(7)]
        for k in range(7):
            series = jm_series([1 if kind == "h" or t < 2 else 0 for t in range(k + 1)], d)
            assert series == want[:k + 1], k

    def test_series_scales_the_coefficients_of_g(self):
        # G = (1 + 2z)^2 = 1 + 4z + 4z^2: the square of sum_k 2^k e_k z^k
        e1, e2 = (jm_symmetric_evaluate("e", k, 3) for k in (1, 2))
        series = jm_series([1, 4, 4], 3)
        assert series[1] == e1.scale(4)
        assert series[2] == (e1 * e1).scale(4) + e2.scale(8)

    @pytest.mark.parametrize("g", [[], [2, 1], [0, 1]], ids=["empty", "two", "zero"])
    def test_series_needs_g_of_zero_one(self, g):
        with pytest.raises(DomainError, match="G\\(0\\) = 1"):
            jm_series(g, 3)

    def test_h_identity_coefficient_counts_monotone_walks(self):
        # [id] h_k equals the weak-monotone factorization count of id
        for d in (2, 3, 4):
            for k in (2, 3, 4):
                h = jm_symmetric_evaluate("h", k, d)
                walk = dict(block_walk(d, Block(k, "weak")))
                assert h.coefficient(oracle.identity(d)) == walk.get(oracle.identity(d), 0)


class TestIdempotents:
    def test_degree_two_explicit(self):
        f_sym = central_idempotent((2,))
        f_sgn = central_idempotent((1, 1))
        swap = (1, 0)
        assert f_sym.coefficient((0, 1)) == Fraction(1, 2)
        assert f_sym.coefficient(swap) == Fraction(1, 2)
        assert f_sgn.coefficient(swap) == Fraction(-1, 2)
        assert (f_sym * f_sym) == f_sym
        assert (f_sym * f_sgn).is_zero()

    @pytest.mark.parametrize("lam", [(2,), (2, 1), (3, 1), (2, 2, 1)])
    def test_idempotents_hold_fractions(self, lam):
        assert all(type(q) is Fraction for q in central_idempotent(lam).coeffs.values())

    @pytest.mark.parametrize("d", range(1, 5))
    def test_resolution(self, d):
        assert resolution_of_identity(d)

    def test_content_sum_eigenvalue(self):
        # C_tau acts on the (2,1) idempotent by its content sum, 0
        c_tau = GroupAlgebraElement.class_sum(3, (2, 1))
        f = central_idempotent((2, 1))
        assert (c_tau * f).is_zero()

    @pytest.mark.parametrize("lam", [(3,), (2, 1), (2, 2), (3, 1)])
    def test_full_check(self, lam):
        report = idempotent_check(lam, z_order=4, literal_order=1,
                                  u_values=(1,), v_values=(Fraction(1, 2),))
        assert report["passed"], report

    @pytest.mark.parametrize("n", range(5))
    def test_a_series_term_off_the_centre_fails_the_eigenvalue_law(self, monkeypatch, n):
        # one more transposition (1 2) on z^n: a sum that is no longer
        # constant on its class is reported, not raised
        original = oracle.jm_series

        def skewed(g, d):
            series = original(g, d)
            series[n] = series[n] + GroupAlgebraElement(d, {(1, 0) + tuple(range(2, d)): 1})
            return series

        monkeypatch.setattr(oracle, "jm_series", skewed)
        report = idempotent_check((2, 1), z_order=4, literal_order=1)
        assert (report["idempotent"], report["orthogonal"], report["eigenvalue_law"],
                report["passed"]) == (True, True, False, False)

    def test_a_doubled_idempotent_is_not_idempotent(self, monkeypatch):
        original = oracle.central_idempotent
        monkeypatch.setattr(oracle, "central_idempotent", lambda lam: original(lam).scale(2))
        report = idempotent_check((2, 1), z_order=4, literal_order=1)
        assert (report["idempotent"], report["orthogonal"], report["eigenvalue_law"],
                report["passed"]) == (False, True, True, False)


class TestPermutationModules:
    def test_trivial_module(self):
        for mu in enumerate_partitions(4):
            assert permutation_characters((4,))[mu] == 1

    def test_regular_module(self):
        # the (1^d) tabloids are orderings; only the identity fixes any
        assert permutation_characters((1, 1, 1))[(1, 1, 1)] == 6
        assert permutation_characters((1, 1, 1))[(2, 1)] == 0

    @pytest.mark.parametrize("d", range(1, 6))
    def test_one_pass_is_the_fixed_point_count(self, d):
        # against a count over the tabloids as ordered tuples of frozensets,
        # read off every permutation, and the trace at the identity, the
        # multinomial
        for lam in enumerate_partitions(d):
            tabloids = set()
            for p in oracle.group(d):
                cuts = itertools.accumulate(lam, initial=0)
                tabloids.add(tuple(frozenset(p[a:b]) for a, b in itertools.pairwise(cuts)))
            got = permutation_characters(lam)
            assert list(got) == enumerate_partitions(d)
            for mu, fixed in got.items():
                sigma = oracle.class_representative(d, mu)
                assert fixed == sum(tuple(frozenset(sigma[x] for x in block) for block in tab)
                                    == tab for tab in tabloids)
                assert fixed == permutation_characters(lam)[mu]
            assert got[(1,) * d] == len(tabloids) == \
                math.factorial(d) // math.prod(map(math.factorial, lam))

    def test_young_rule_small(self):
        # xi^{(2,1)} = chi^{(3)} + chi^{(2,1)}
        from hurwitz.characters import char_table
        t = char_table(3)
        for mu in t.partitions:
            assert permutation_characters((2, 1))[mu] == \
                t.value((3,), mu) + t.value((2, 1), mu)


    def test_the_table_has_int_entries(self):
        for d in range(1, 6):
            table = oracle.bruteforce_character_table(d)
            assert all(type(chi) is int for row in table.values() for chi in row.values())

    def test_a_wrong_permutation_character_fails_the_bruteforce_check(self, monkeypatch):
        # a fixed point too many on the regular module of S_3 leaves a
        # remainder in its inner product with the trivial character (8/6):
        # the table keeps the Fraction instead of flooring it, and only the
        # permutation-module check at d = 3 fails
        original = oracle.permutation_characters

        def corrupted(lam):
            out = original(lam)
            if lam == (1, 1, 1):
                out = {**out, (3,): out[(3,)] + 1}
            return out

        monkeypatch.setattr(oracle, "permutation_characters", corrupted)
        table = oracle.bruteforce_character_table(3)
        assert any(type(chi) is Fraction and chi.denominator > 1
                   for chi in table[(1, 1, 1)].values())
        report = verify.verify_characters(max_d=3)
        assert not report["pass"]
        assert [c["name"] for c in report["checks"] if not c["pass"]] == \
            ["permutation-module bruteforce d=3"]


class TestClassFunctions:
    """The literal counts read every factor as a class function: a
    profile's class sum and a single block's walk.  These check what that
    reduction takes on trust against the group algebra."""

    @pytest.mark.parametrize("d", range(1, 6))
    def test_single_block_walks_are_constant_on_classes(self, d):
        for k in range(0, 7):
            for constraint in oracle.CONSTRAINTS:
                walk = dict(block_walk(d, Block(k, constraint)))
                for mu in enumerate_partitions(d):
                    values = {walk.get(p, 0) for p in oracle.class_perms(d, mu)}
                    assert len(values) == 1, (d, k, constraint, mu)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_complete_and_elementary_jm_polynomials_are_central(self, d):
        # class_coefficients raises on an element that is not constant on
        # a class
        for g in ([1] * 7, [1, 1] + [0] * 5):
            for element in jm_series(g, d):
                element.class_coefficients()

    @pytest.mark.parametrize("d", range(1, 7))
    def test_unconstrained_blocks_are_powers_of_the_transposition_class_sum(self, d):
        # _raw_counts reads a block of k free transpositions as the k-th
        # power of the transposition class sum, never walked
        sums, representatives, sizes, structure = oracle._class_algebra(d)
        tau = sums.get((2,) + (1,) * (d - 2), [0] * len(sizes))
        power = sums[(1,) * d]
        for k in range(11):
            walk = dict(block_walk(d, Block(k, "none")))
            assert power == [walk.get(g, 0) for g in representatives], (d, k)
            power = oracle._class_product(structure, power, tau)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_structure_constants_are_the_class_sum_products(self, d):
        sums, representatives, sizes, structure = oracle._class_algebra(d)
        parts = enumerate_partitions(d)
        index = {mu: sums[mu].index(1) for mu in parts}
        assert list(sums) == parts and sorted(index.values()) == list(range(len(parts)))
        assert all(sum(vector) == 1 for vector in sums.values())
        assert sizes == [len(oracle.class_perms(d, mu)) for mu in parts]
        for mu, g in zip(parts, representatives):
            assert cycle_type(g) == mu
        for s, sigma in enumerate(parts):
            for n, nu in enumerate(parts):
                product = (GroupAlgebraElement.class_sum(d, sigma)
                           * GroupAlgebraElement.class_sum(d, nu)).class_coefficients()
                want = {index[rho]: c for rho, c in product.items() if c}
                assert dict(structure[s][n]) == want, (sigma, nu)

    def test_class_function_counts_match_the_prefix_walks(self):
        configs = list(verify._block_configs(6))
        for d in range(1, 5):
            lists = verify._oracle_profiles(d)
            assert oracle.count_factorizations_sweep(d, configs, lists) == \
                count_factorizations_by_walks(d, configs, lists), d

    def test_longer_lists_match_the_prefix_walks(self):
        # three profiles and three blocks: the class products chain
        blocks = [(Block(1, "weak"), Block(1, "none"), Block(1, "strict")),
                  (Block(2, "strict"), Block(0, "weak"), Block(1, "weak"))]
        lists = [((2, 1, 1), (2, 2), (3, 1)), ((4,), (4,), (2, 1, 1))]
        got = oracle.count_factorizations_sweep(4, blocks, lists)
        assert all(all(row) for row in got)
        assert got == count_factorizations_by_walks(4, blocks, lists)


class TestStirlingSuite:
    def test_each_product_reads_the_weights_one_to_n(self, monkeypatch):
        calls = []
        original = verify.content_sequences
        monkeypatch.setattr(verify, "content_sequences",
                            lambda weights, gspec, r: calls.append((list(weights), r))
                            or original(weights, gspec, r))
        assert verify.verify_stirling()["pass"]
        assert calls == [(list(range(1, n + 1)), verify.STIRLING_MAX_N)
                         for n in range(verify.STIRLING_MAX_N + 1)]

    def test_the_rising_check_reads_the_coefficients_above_n(self, monkeypatch):
        # a z^STIRLING_MAX_N term on every factor 1 + iz adds n to e at that
        # order: each coefficient up to n < 10 stays as it is, and only the
        # ones above n see it
        original = verify.content_sequences

        def padded(weights, gspec, r):
            e, h, hk = original(weights, gspec, r)
            e[r] += len(weights)
            return e, h, hk

        monkeypatch.setattr(verify, "content_sequences", padded)
        failed = [c["name"] for c in verify.verify_stirling(max_d=2)["checks"] if not c["pass"]]
        assert failed == [f"prod (1+iz) vs first kind, n={n}"
                          for n in range(1, verify.STIRLING_MAX_N + 1)]

    def test_a_scaled_e_k_fails_the_row_idempotent_check(self, monkeypatch):
        # e_1(J) = the transposition class sum, doubled: its coefficients
        # sum to 2 binom(d, 2), not to the eigenvalue binom(d, 2) on F_(d)
        original = oracle.block_walk

        def doubled(d, block):
            walk = original(d, block)
            if block == Block(1, "strict"):  # the walk of e_1(J)
                walk = tuple((p, 2 * n) for p, n in walk)
            return walk

        monkeypatch.setattr(oracle, "block_walk", doubled)
        failed = [c["name"] for c in verify.verify_stirling()["checks"] if not c["pass"]]
        assert failed == [name for d in range(2, 6) for name in (
            f"e_1(JM) class support d={d}", f"JM eigenvalues on the row idempotent d={d} k=1")]

    def test_no_suite_multiplies_in_the_group_algebra(self, monkeypatch):
        # verify stirling reads the walks and the content sequences, and
        # verify oracle the class algebra: no group-algebra product, no
        # truncated series and no walk of an unconstrained block enters
        def refuse(*args, **kwargs):
            raise AssertionError("a verify suite multiplied in the group algebra or a series")

        walked = []
        original = oracle.block_walk
        monkeypatch.setattr(oracle, "block_walk",
                            lambda d, block: walked.append(block) or original(d, block))
        monkeypatch.setattr(oracle, "jm_series", refuse)
        monkeypatch.setattr(GroupAlgebraElement, "__mul__", refuse)
        monkeypatch.setattr(TruncSeries, "mul", refuse)
        assert verify.verify_stirling()["pass"]
        assert verify.verify_oracle()["pass"]
        assert walked and all(block.constraint != "none" for block in walked)


class TestSuiteSizes:
    """A verify suite refuses a degree sweep that would check nothing, and
    reports its fixed sizes."""

    @pytest.mark.parametrize("suite, max_d", [
        ("oracle", 0), ("stirling", 1), ("poles", 1), ("eigenvalue-order", 1),
        ("characters", 0), ("jack", 0),
    ])
    def test_a_sweep_with_no_degree_is_refused(self, suite, max_d):
        with pytest.raises(DomainError):
            getattr(verify, "verify_" + suite.replace("-", "_"))(max_d=max_d)

    @pytest.mark.parametrize("suite, max_d", [("jack", 9), ("eigenvalue_order", 41),
                                              ("poles", 41)])
    def test_a_size_above_the_ceiling_is_refused_before_any_work(self, monkeypatch, suite,
                                                                 max_d):
        # the Jack ceiling (8) and the partition ceiling (40)
        calls = []
        for name in ("jack_in_psums", "f_bar", "_limit_inputs"):
            original = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *args, _original=original, _name=name:
                                calls.append(_name) or _original(*args))
        with pytest.raises(SizeLimitError):
            getattr(verify, "verify_" + suite)(max_d=max_d)
        assert calls == []

    def test_fixed_sizes_stay_in_the_report(self):
        assert verify.verify_oracle(max_d=1, max_transpositions=1)["config"] == {
            "max_d": 1, "max_transpositions": 1, "max_blocks": verify.ORACLE_MAX_BLOCKS}
        assert verify.verify_characters(max_d=1)["config"] == {
            "max_d": 1, "bruteforce_d": verify.BRUTEFORCE_MAX_D}
        assert (verify.ORACLE_MAX_BLOCKS, verify.BRUTEFORCE_MAX_D) == (2, 5)
        assert verify.verify_stirling(max_d=2)["config"] == {
            "max_n": verify.STIRLING_MAX_N, "max_d": 2, "max_k": verify.STIRLING_MAX_K}
        assert (verify.STIRLING_MAX_N, verify.STIRLING_MAX_K) == (10, 6)
        assert verify.verify_jack(max_d=1)["config"] == {
            "max_d": 1, "alphas": [str(a) for a in verify.JACK_ALPHAS]}
        assert verify.JACK_ALPHAS == (1, 2, Fraction(1, 2), 3)
        assert (verify.JACK_B0_MAX_D, verify.JACK_B0_MAX_R) == (4, 6)
        assert verify.verify_poles(max_d=2)["config"] == {
            "max_d": 2, "max_k": verify.POLES_MAX_K, "max_lm": verify.POLES_MAX_LM,
            "v_order": verify.POLES_V_ORDER}
        assert (verify.POLES_MAX_K, verify.POLES_MAX_LM, verify.POLES_V_ORDER) == (3, 2, 3)
        assert verify.verify_eigenvalue_order(max_d=2)["config"] == {
            "max_d": 2, "indices": list(verify.EIGENVALUE_INDICES)}
        assert verify.EIGENVALUE_INDICES == (2, 3, 4, 5)
        checks = [c["name"] for c in verify.verify_gap(3, 1)["checks"]]
        assert checks[-1] == f"resummation identity r<={verify.GAP_RESUM_R}" \
            == "resummation identity r<=10"


class TestOracleSuite:
    """``verify_oracle`` reads the engine once per (d, profile list), for
    every query, and the literal counts once per d, for every block list; a
    wrong value on any one of its paths still fails the report and is
    named."""

    def _off_by_one(self, name, d, profiles, query):
        """A wrapper of the bulk read ``name`` that moves one value at
        (d, profiles) up by 1: the engine value of ``query``, or, for the
        literal counter, the count under the block list ``query``.  Both
        sides are read as integers over a denominator, so the wrapper adds
        that denominator."""
        if name == "_raw_counts":  # one read per d, for every block list
            original = oracle._raw_counts

            def wrong(got_d, block_lists, profile_lists):
                denominators, raws = original(got_d, block_lists, profile_lists)
                if got_d == d:
                    j = profile_lists.index(profiles)
                    raws[list(block_lists).index(query)][j] += denominators[j]
                return denominators, raws
            return wrong

        original = getattr(verify, name)
        if name == "completed_spectrum":  # the one shape without monotone blocks
            def wrong(s, got_profiles, got_d):
                denominator, spectrum = original(s, got_profiles, got_d)
                if (got_d, got_profiles) == (d, profiles):
                    # D (1 + (-1)^r)/2 - D 0^r adds D at r = 2 and 0 at r = 0, 1, 3
                    assert query[0] == 2
                    spectrum = dict(spectrum)
                    for f, a in ((0, -denominator), (1, denominator // 2),
                                 (-1, denominator // 2)):
                        spectrum[f] = spectrum.get(f, 0) + a
                return denominator, spectrum
        else:  # one weighted sum per (d, profiles), for every monotone query at once
            queries = dict.fromkeys(map(verify._engine_query, verify._block_configs(3)))
            position = [q for q in queries if q[1].nvars].index(query)

            def wrong(weights, factor, r_values, denominator=None):
                out = original(weights, factor, r_values, denominator)
                target, target_weights = core.character_weights(d, profiles)
                if weights is target_weights:
                    out[position] += target
                return out
        return wrong

    def test_bulk_engine_values_match_the_public_path(self):
        # every query of the suite's block lists, at every profile list,
        # against the public value it stands for: an int total over the
        # weights' denominator
        queries = list(dict.fromkeys(
            verify._engine_query(blocks) for blocks in verify._block_configs(5)))
        for d in range(1, 4):
            lists = verify._oracle_profiles(d)
            engine = verify._engine_values(d, lists, queries)
            assert len(engine) == len(lists)
            for profiles, (denominator, totals) in zip(lists, engine):
                assert denominator == core.character_weights(d, profiles)[0]
                assert len(totals) == len(queries)
                for (simple, gspec, monomial), total in zip(queries, totals):
                    r = sum(monomial)
                    if gspec.nvars == 0:
                        want = completed_sweep((simple,), 1, profiles, d)[simple]
                    elif simple == 0:
                        want = hypergeometric_hurwitz(r, gspec, profiles, d=d,
                                                      monomial=monomial).value
                    else:
                        want = mixed_simple_hypergeometric(simple, r, gspec, profiles, d=d,
                                                           monomial=monomial)
                    assert type(total) is int and Fraction(total, denominator) == want, \
                        (d, profiles, simple, gspec, monomial)

    def test_mixed_counts_match_the_literal_counts(self):
        # the one-query path against literal counting, at every block list
        # of at most four transpositions and every list of at most one profile
        for d in range(1, 4):
            for profiles in [p for p in verify._oracle_profiles(d) if len(p) <= 1]:
                for blocks in verify._block_configs(4):
                    simple, gspec, monomial = verify._engine_query(blocks)
                    got = mixed_simple_hypergeometric(simple, sum(monomial), gspec, profiles,
                                                      d=d, monomial=monomial)
                    want = count_factorizations(FactorizationQuery(d, profiles, blocks))
                    assert got == want, (d, profiles, blocks)

    def test_the_engine_side_is_one_sweep_per_profile_list(self, monkeypatch):
        swept = []
        original = core.weighted_sweep

        def recorded(weights, factor, r_values, denominator=None):
            # the degree is that of the row (d), whose weight never vanishes
            swept.append((sum(weights[0][0]), list(r_values)))
            return original(weights, factor, r_values, denominator)

        monkeypatch.setattr(verify, "weighted_sweep", recorded)
        assert verify.verify_oracle(max_d=3, max_transpositions=5)["pass"]
        queries = dict.fromkeys(verify._engine_query(b) for b in verify._block_configs(5))
        monotone = [query for query in queries if query[1].nvars]
        # keyed by the position of each monotone query
        assert swept == [(d, list(range(len(monotone))))
                         for d in (1, 2, 3) for _ in verify._oracle_profiles(d)]
        assert len(swept) == 23

    def test_prefix_walks_match_the_walk_from_the_identity(self):
        # a single block's walk is the walk from the identity, in the same
        # order, and each block list's walk from the identity is the walk of
        # its prefix times the last block's walk
        configs = [blocks for blocks in verify._block_configs(6) if blocks]
        for d in range(1, 5):
            for blocks in configs:
                want = block_walk_from_identity(d, blocks)
                if len(blocks) == 1:
                    assert block_walk(d, blocks[0]) == tuple(want.items()), (d, blocks)
                    continue
                got: dict = {}
                for p, m in block_walk_from_identity(d, blocks[:-1]).items():
                    for q, n in block_walk(d, blocks[-1]):
                        r = oracle.compose(p, q)
                        got[r] = got.get(r, 0) + m * n
                assert got == want, (d, blocks)

    def test_bulk_counts_match_the_depth_first_count(self):
        # one bulk call per degree, over every block list and profile list
        configs = list(verify._block_configs(3))
        for d in range(1, 4):
            lists = verify._oracle_profiles(d)
            got = oracle.count_factorizations_sweep(d, configs, lists)
            for blocks, counts in zip(configs, got, strict=True):
                want = [count_factorizations_dfs(FactorizationQuery(d, profiles, blocks))
                        for profiles in lists]
                assert counts == want, (d, blocks)

    def test_the_literal_side_is_one_read_per_degree(self, monkeypatch):
        read = []
        original = oracle._raw_counts

        def recorded(d, block_lists, profile_lists):
            read.append((d, list(block_lists), profile_lists))
            return original(d, block_lists, profile_lists)

        monkeypatch.setattr(oracle, "_raw_counts", recorded)
        assert verify.verify_oracle(max_d=3, max_transpositions=3)["pass"]
        configs = list(verify._block_configs(3))
        assert read == [(d, configs, verify._oracle_profiles(d)) for d in (1, 2, 3)]

    def test_the_list_checks_are_kept_per_degree_and_lists(self, monkeypatch):
        # one bulk call checks each profile list once, not once per block
        # list; the class algebra is built once per degree, with no check
        lists = verify._oracle_profiles(3)
        oracle.count_factorizations_sweep(3, (), lists)  # the class memo, filled
        checked = []
        original = oracle.check_partition
        monkeypatch.setattr(oracle, "check_partition",
                            lambda mu: checked.append(mu) or original(mu))
        oracle.count_factorizations_sweep(3, verify._block_configs(3), lists)
        assert checked == [mu for profiles in lists for mu in profiles]

    def test_bulk_counts_match_the_one_list_counter(self):
        configs = list(verify._block_configs(5))
        for d in range(1, 4):
            lists = verify._oracle_profiles(d)
            got = oracle.count_factorizations_sweep(d, configs, lists)
            for blocks, counts in zip(configs, got, strict=True):
                want = [count_factorizations(FactorizationQuery(d, profiles, blocks))
                        for profiles in lists]
                assert counts == want, (d, blocks)

    @pytest.mark.parametrize("d, blocks, profile_lists", [
        (7, (), [()]),
        (2, (Block(6, "none"), Block(5, "weak")), [()]),
        (3, (), [(), ((3,),), ((2, 1), (2,))]),
        (3, (), [((3,),), ((2, 0, 1),)]),
    ], ids=["degree", "transpositions", "profile-size", "not-a-partition"])
    def test_the_bulk_counter_checks_as_a_query_does(self, d, blocks, profile_lists):
        bad = profile_lists[-1]
        with pytest.raises((DomainError, SizeLimitError)) as one:
            FactorizationQuery(d, bad, blocks)
        with pytest.raises(type(one.value), match=f"^{re.escape(str(one.value))}$"):
            oracle.count_factorizations_sweep(d, [(), blocks], profile_lists)

    def test_a_negative_transposition_bound_is_refused(self):
        with pytest.raises(DomainError, match="^transposition count must be nonnegative: -2$"):
            verify.verify_oracle(max_d=2, max_transpositions=-2)
        assert verify.verify_oracle(max_d=2, max_transpositions=0)["checks"][-1]["detail"] \
            == "7 queries"

    @pytest.mark.parametrize("name, d, profiles, query", [
        ("completed_spectrum", 3, ((2, 1),), (2, GSpec(), ())),
        ("weighted_sweep", 3, ((3,), (2, 1)), (0, GSpec(L=1), (2,))),
        ("weighted_sweep", 2, ((2,),), (1, GSpec(M=1), (1,))),
        ("_raw_counts", 2, ((2,), (1, 1)),
         (Block(1, "none"), Block(2, "weak"))),
    ], ids=["completed", "hypergeometric", "mixed", "literal"])
    def test_a_wrong_engine_value_fails_the_report(self, monkeypatch, name, d, profiles,
                                                   query):
        literal = name == "_raw_counts"
        blocks = query if literal else next(
            blocks for blocks in verify._block_configs(3) if verify._engine_query(blocks) == query)
        true = count_factorizations(FactorizationQuery(d, profiles, blocks))
        got, expected = (true, true + 1) if literal else (true + 1, true)
        monkeypatch.setattr(oracle if literal else verify, name,
                            self._off_by_one(name, d, profiles, query))
        report = verify.verify_oracle(max_d=3, max_transpositions=3)
        assert not report["pass"]
        failed = [check for check in report["checks"] if not check["pass"]]
        assert [check["name"] for check in failed] == [f"oracle equivalence d={d}"]
        assert failed[0]["detail"] == f"d={d} profiles={profiles} blocks={blocks}: {got} != {expected}"
