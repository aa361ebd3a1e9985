"""The content-sequence engine against the truncated z-series product, and
the one-pass ratio sweeps against single-r calls."""

import itertools
import random
from fractions import Fraction

import pytest

from hurwitz import core
from hurwitz.core import (
    GSpec,
    completed_hurwitz,
    content_sequences,
    gw_correlator,
    hypergeometric_hurwitz,
)
from hurwitz.errors import DomainError
from hurwitz.exactnum import (
    MultiPoly,
    TruncSeries,
    affine_factor,
    coeff_z,
    geometric_factor,
    geometric_power,
    stirling,
)
from hurwitz.jack import b_hurwitz_coefficient, deformed_contents
from hurwitz.partitions import contents, enumerate_partitions
from hurwitz.verify import ratio_family, verify_ratio
from reference import content_product


def reference_series(weights, gspec, order, caps=None, series=None):
    """``series`` (default 1) times prod_c G(z c), as a capped product of
    z-series truncated at ``order``."""
    nvars = gspec.nvars
    series = series or TruncSeries.one(nvars, order)
    u_vars = [MultiPoly.variable(nvars, i) for i in range(gspec.L)]
    v_vars = [MultiPoly.variable(nvars, gspec.L + j) for j in range(gspec.M)]
    for c in weights:
        if c == 0:
            continue
        if gspec.K:
            series = series.mul(geometric_power(c, gspec.K, order, nvars), caps)
        for u in u_vars:
            series = series.mul(affine_factor(c, u, order), caps)
        for v in v_vars:
            series = series.mul(geometric_factor(c, v, order), caps)
    return series


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("K, L, M", list(itertools.product(range(3), repeat=3)))
def test_content_product_matches_series_product(K, L, M):
    # Truncation drops only higher orders, so the z^r coefficient of the
    # order-6 product is that of the order-r product for every r <= 6.
    # Weights run row by row, so a partition's product extends the product
    # of the partition without its last row.  The deformed contents
    # 3j/2 - i are half the integers 3j - 2i, and the z^r coefficient is
    # homogeneous of degree r in the weights, so the reference runs on
    # those integers and its z^r coefficient is scaled by 2^-r.
    gspec = GSpec(K=K, L=L, M=M)
    rng = random.Random(9 * K + 3 * L + M)
    nonzero = 0
    for weights_of, reference_of, q in (
            (contents, contents, 1),
            (lambda lam: deformed_contents(lam, Fraction(3, 2)),
             lambda lam: [3 * j - 2 * i for i, row in enumerate(lam) for j in range(row)], 2)):
        caps = tuple(rng.randint(0, 3) for _ in range(gspec.nvars))
        for cap in (None, caps):
            products = {(): None}
            for lam in itertools.chain(*(enumerate_partitions(d) for d in range(1, 7))):
                weights = weights_of(lam)
                parent = lam[:-1]
                series = products[lam] = reference_series(
                    reference_of(lam)[sum(parent):], gspec, 6, cap, products[parent])
                for r in range(7):
                    want = coeff_z(series, r).scale(Fraction(1, q**r))
                    got = content_product(weights, gspec, r, cap)
                    assert got == want, (lam, weights, r, cap)
                    assert all(isinstance(c, Fraction) and c for c in got.terms.values())
                    nonzero += not want.is_zero()
    assert nonzero


@pytest.mark.parametrize("n", range(9))
def test_sequences_of_one_to_n_are_stirling_numbers(n):
    r = 8
    e, h, hk = content_sequences(range(1, n + 1), GSpec(K=1, L=1, M=1), r)
    assert e == [stirling(1, n + 1, n + 1 - k) if k <= n else 0 for k in range(r + 1)]
    assert h == [stirling(2, n + k, n) for k in range(r + 1)]
    assert hk == h


def test_sequences_are_built_only_when_needed():
    e, h, hk = content_sequences([1, -1, 0, 2], GSpec(K=0), 3)
    assert e is None and h is None
    assert hk == [1, 0, 0, 0]


def test_engines_multiply_no_series(monkeypatch):
    g, caps = GSpec(K=1, L=1, M=1), (2, 2)
    hyper = hypergeometric_hurwitz(4, g, ((3, 1, 1),), caps=caps).value
    deformed = b_hurwitz_coefficient(4, g, (), Fraction(1, 2), d=3, caps=caps)
    assert not hyper.is_zero() and not deformed.is_zero()

    def refuse(*args, **kwargs):
        raise AssertionError("a series or polynomial product was used")

    monkeypatch.setattr(TruncSeries, "mul", refuse)
    monkeypatch.setattr(MultiPoly, "mul", refuse)
    core._content_coefficient.cache_clear()
    assert hypergeometric_hurwitz(4, g, ((3, 1, 1),), caps=caps).value == hyper
    assert b_hurwitz_coefficient(4, g, (), Fraction(1, 2), d=3, caps=caps) == deformed


# ---------------------------------------------------------------------------
# One-pass ratio sweeps
# ---------------------------------------------------------------------------

R_VALUES = [12, 0, 5, 3, 1, 2, 4, 6, 7, 8, 9, 10, 11]  # every r <= 12, out of order

SWEEPS = {
    "classical": (dict(d=4), lambda r: completed_hurwitz(r, 1, (), d=4).value),
    "completed-profiles": (
        dict(s=2, profiles=((3, 1, 1), (2, 2, 1))),
        lambda r: completed_hurwitz(r, 2, ((3, 1, 1), (2, 2, 1))).value),
    "completed-one-profile": (
        dict(d=5, s=3, profiles=((2, 2, 1),)),
        lambda r: completed_hurwitz(r, 3, ((2, 2, 1),)).value),
    "monotone-u-v": (
        dict(d=4, k=2, a_vec=(2,), b_vec=(2,)),
        lambda r: hypergeometric_hurwitz(r, GSpec(K=2, L=1, M=1), d=4,
                                         caps=(2, 2)).value.coefficient((2, 2))),
    "monotone-profile": (
        dict(k=1, a_vec=(1, 1), b_vec=(1,), profiles=((2, 1, 1),)),
        lambda r: hypergeometric_hurwitz(r, GSpec(K=1, L=2, M=1), ((2, 1, 1),),
                                         caps=(1, 1, 1)).value.coefficient((1, 1, 1))),
    "b-half": (
        dict(d=4, k=1, b=Fraction(1, 2)),
        lambda r: b_hurwitz_coefficient(r, GSpec(K=1), (), Fraction(1, 2),
                                        d=4).constant_value()),
    "b-two-profile": (
        dict(k=2, b=2, profiles=((2, 1),)),
        lambda r: b_hurwitz_coefficient(r, GSpec(K=2), ((2, 1),), 2).constant_value()),
    "gw": (dict(profiles=((3, 2, 1), (2, 2, 2)), gw_s=2),
           lambda m: gw_correlator((3, 2, 1), (2, 2, 2), {2: m})),
    "gw-three": (dict(profiles=((2, 1, 1), (3, 1)), gw_s=3),
                 lambda m: gw_correlator((2, 1, 1), (3, 1), {3: m})),
    "gw-one": (dict(profiles=((2, 2, 1), (3, 1, 1)), gw_s=1),
               lambda m: gw_correlator((2, 2, 1), (3, 1, 1), {1: m})),
}


@pytest.mark.parametrize("family", SWEEPS)
def test_sweep_matches_single_r_calls(family):
    options, single = SWEEPS[family]
    kind = family.split("-")[0]
    _, exact, _ = ratio_family(kind, R_VALUES, **options)
    assert sorted(exact) == sorted(R_VALUES)
    for r in R_VALUES:
        assert exact[r] == single(r), r
        assert isinstance(exact[r], Fraction)
    assert any(exact.values())


def test_sweep_rejects_negative_r():
    with pytest.raises(DomainError, match="nonnegative"):
        ratio_family("classical", [2, -1], d=3)


@pytest.mark.parametrize("blocks, name", [({"b_vec": (-1,)}, "b"), ({"a_vec": (1, -1)}, "a")])
def test_sweep_rejects_negative_block_degrees(blocks, name):
    with pytest.raises(DomainError, match=f"{name} block degrees must be nonnegative"):
        ratio_family("monotone", range(5), d=3, **blocks)


def test_verify_ratio_refuses_an_unknown_option():
    with pytest.raises(TypeError, match="gw_S"):
        verify_ratio("gw", profiles=((2, 1), (3,)), gw_S=3)
