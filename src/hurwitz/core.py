"""Hurwitz numbers, exactly, from symmetric-group character sums.

The two evaluation routes are:

* completed cycles -- the weight of a partition ``lam`` is a power of
  the shifted-power-sum eigenvalue ``f_bar``;
* hypergeometric (rational weight ``G``) -- the weight is the z^r
  coefficient of the product of ``G`` evaluated at ``z`` times each box
  content, kept as an exact polynomial in the formal u/v variables.

Both share ``character_sum``, which runs the partition loop and its
left-to-right reduction in canonical order.  The hypergeometric factor
is ``content_product`` over the box contents; the b-deformed engine in
``hurwitz.jack`` runs the same product over deformed contents.
``_resolve_degree`` is the one place that turns (profiles, d) into a
checked degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import characters
from .errors import DomainError
from .exactnum import (
    MultiPoly,
    TruncSeries,
    affine_factor,
    coeff_z,
    format_rational,
    geometric_factor,
    geometric_power,
    zeta_neg,
)
from .partitions import (
    Partition,
    check_partition,
    class_data,
    contents,
    frobenius_shifted,
)


# ---------------------------------------------------------------------------
# Completed-cycle eigenvalues
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _c_const(s: int) -> Fraction:
    return (1 - Fraction(1, 2**s)) * zeta_neg(s)


@lru_cache(maxsize=None)
def f_bar(lam: Partition, s: int) -> Fraction:
    """Shifted power sum (1/s)(sum a'^s - (-b')^s + c_s) in Frobenius coordinates."""
    lam = check_partition(lam)
    if s < 2:
        raise DomainError(f"f_bar index must be at least 2, got {s}")
    fc = frobenius_shifted(lam)
    acc = _c_const(s)
    for a, b in zip(fc.a, fc.b):
        acc += a**s - (-b) ** s
    return acc / s


def m_ds(d: int, s: int) -> Fraction:
    """Top eigenvalue (1/(s+1))[(d-1/2)^{s+1} - (-1/2)^{s+1} + c_{s+1}]."""
    if d < 1 or s < 1:
        raise DomainError(f"m_ds wants d >= 1 and s >= 1, got d={d}, s={s}")
    half = Fraction(1, 2)
    return ((d - half) ** (s + 1) - (-half) ** (s + 1) + _c_const(s + 1)) / (s + 1)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GSpec:
    """Rational weight shape: (1-z)^{-K} times L strict (u) and M weak (v) blocks."""

    K: int = 0
    L: int = 0
    M: int = 0

    def __post_init__(self):
        if self.K < 0 or self.L < 0 or self.M < 0:
            raise DomainError(f"GSpec wants nonnegative counts, got {self}")

    @property
    def nvars(self) -> int:
        return self.L + self.M

    def variable_names(self) -> list[str]:
        return [f"u{i + 1}" for i in range(self.L)] + [
            f"v{j + 1}" for j in range(self.M)
        ]


def _resolve_degree(profiles, d):
    profiles = tuple(check_partition(mu) for mu in profiles)
    if profiles:
        sizes = {sum(mu) for mu in profiles}
        if len(sizes) != 1:
            raise DomainError(f"profiles of mixed degrees: {profiles}")
        inferred = sizes.pop()
        if d is not None and d != inferred:
            raise DomainError(f"explicit d={d} contradicts profiles of size {inferred}")
        d = inferred
    if d is None:
        raise DomainError("degree d is required when no profiles are given")
    if d < 1:
        raise DomainError(f"degree must be positive: {d}")
    return d, profiles


def rh_genus(r: int, s: int, d: int, profiles) -> Fraction:
    """Genus from rs = 2g - 2 - d(N-2) + sum of profile lengths."""
    n = len(profiles)
    ell = sum(len(mu) for mu in profiles)
    return Fraction(r * s + 2 + d * (n - 2) - ell, 2)


def admissible_parity(r: int, s: int, d: int, profiles) -> bool:
    """Whether the Riemann-Hurwitz genus is an integer for these data."""
    return rh_genus(r, s, d, profiles).denominator == 1


def character_sum(d: int, profiles, factor):
    """sum over lam of (dim/d!)^2 prod_i chi_lam(mu_i)/dim * factor(lam).

    ``factor`` may return a Fraction or a MultiPoly; the reduction runs
    left-to-right over the canonical partition order.
    """
    table = characters.char_table(d)
    fact2 = Fraction(1, math.factorial(d)) ** 2
    total = None
    for lam in table.partitions:
        dim = table.value(lam, (1,) * d)
        weight = fact2 * dim ** (2 - len(profiles))
        for mu in profiles:
            chi = table.value(lam, mu)
            if chi == 0:
                weight = 0
                break
            weight *= chi
        if weight == 0:
            continue
        value = factor(lam)
        if isinstance(value, MultiPoly):
            term = value.scale(weight)
        else:
            term = weight * Fraction(value)
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


@dataclass
class HurwitzResult:
    """An exact Hurwitz number together with the data that produced it."""

    kind: str
    d: int
    r: int | None
    profiles: tuple[Partition, ...]
    connected: bool
    value: Fraction | MultiPoly
    s: int | None = None
    t: int | None = None
    gspec: GSpec | None = None
    genus: Fraction | None = None
    extra: dict = field(default_factory=dict)

    @property
    def genus_integral(self) -> bool:
        return self.genus is not None and self.genus.denominator == 1

    def value_json(self):
        if isinstance(self.value, MultiPoly):
            if self.value.nvars == 0:
                return format_rational(self.value.constant_value())
            names = self.gspec.variable_names() if self.gspec else None
            return self.value.to_json(names)
        return format_rational(self.value)

    def to_json_dict(self) -> dict:
        g: int | str | None
        if self.genus is None:
            g = None
        elif self.genus_integral:
            g = int(self.genus)
        else:
            g = format_rational(self.genus)
        out = {
            "kind": self.kind,
            "d": self.d,
            "r": self.r,
            "g": g,
            "g_integral": self.genus_integral,
            "profiles": [list(mu) for mu in self.profiles],
            "connected": self.connected,
            "value": self.value_json(),
        }
        if self.s is not None:
            out["s"] = self.s
        if self.t is not None:
            out["t"] = self.t
        if self.gspec is not None:
            out["G"] = {"K": self.gspec.K, "L": self.gspec.L, "M": self.gspec.M}
        out.update(self.extra)
        return out


# ---------------------------------------------------------------------------
# Completed-cycle Hurwitz numbers
# ---------------------------------------------------------------------------

def completed_hurwitz(r: int, s: int, profiles=(), *, d: int | None = None,
                      connected: bool = False) -> HurwitzResult:
    """Hurwitz numbers with r completed (s+1)-cycles and fixed profiles."""
    if r < 0:
        raise DomainError(f"r must be nonnegative: {r}")
    if s < 1:
        raise DomainError(f"s must be positive: {s}")
    d, profiles = _resolve_degree(profiles, d)

    def disconnected(rr, profs, dd):
        return character_sum(dd, profs, lambda lam: f_bar(lam, s + 1) ** rr)

    if connected:
        value = connected_transform(disconnected, r, profiles, d=d)
    else:
        value = disconnected(r, profiles, d)
    return HurwitzResult(
        kind="completed", d=d, r=r, s=s, profiles=profiles, connected=connected,
        value=value, genus=rh_genus(r, s, d, profiles),
    )


def classical_hurwitz(r: int, d: int, *, connected: bool = False) -> HurwitzResult:
    """Simple-branch-points-only count: completed cycles with s = 1, N = 0."""
    out = completed_hurwitz(r, 1, (), d=d, connected=connected)
    out.kind = "classical"
    return out


# ---------------------------------------------------------------------------
# Hypergeometric Hurwitz numbers
# ---------------------------------------------------------------------------

def content_product(weights, gspec: GSpec, r: int,
                    caps: tuple[int, ...] | None = None) -> MultiPoly:
    """[z^r] of the product over box weights c of G(z * c), exact in u's and v's.

    The weights are the box contents, or the deformed contents of the
    b-deformed engine; zero weights contribute the factor 1.
    """
    nvars = gspec.nvars
    series = TruncSeries.one(nvars, r)
    u_vars = [MultiPoly.variable(nvars, i) for i in range(gspec.L)]
    v_vars = [MultiPoly.variable(nvars, gspec.L + j) for j in range(gspec.M)]
    for c in weights:
        if c == 0:
            continue
        if gspec.K:
            series = series.mul(geometric_power(c, gspec.K, r, nvars), caps)
        for u in u_vars:
            series = series.mul(affine_factor(c, u, r), caps)
        for v in v_vars:
            series = series.mul(geometric_factor(c, v, r), caps)
    return coeff_z(series, r)


@lru_cache(maxsize=None)
def _content_coefficient(d: int, lam: Partition, gspec: GSpec, r: int,
                         caps: tuple[int, ...] | None) -> MultiPoly:
    """[z^r] of prod over boxes of G(z * content), exact in u's and v's."""
    return content_product(contents(lam), gspec, r, caps)


def hypergeometric_hurwitz(r: int, gspec: GSpec, profiles=(), *,
                           d: int | None = None, connected: bool = False,
                           caps: tuple[int, ...] | None = None) -> HurwitzResult:
    """[z^r] of the content-product character sum for a rational weight.

    The value is a MultiPoly whose coefficient of
    ``u1^a1 .. v1^b1 ..`` refines the count by the number of
    transpositions drawn from each monotone block.  ``caps`` bounds the
    tracked degree per formal variable (coefficients inside the caps
    stay exact).
    """
    if r < 0:
        raise DomainError(f"r must be nonnegative: {r}")
    d, profiles = _resolve_degree(profiles, d)
    if caps is not None:
        caps = tuple(caps)
        if len(caps) != gspec.nvars:
            raise DomainError(f"caps arity {len(caps)} != {gspec.nvars} variables")

    def disconnected(rr, profs, dd):
        return character_sum(
            dd, profs, lambda lam: _content_coefficient(dd, lam, gspec, rr, caps)
        )

    if connected:
        value = connected_transform(disconnected, r, profiles, d=d)
    else:
        value = disconnected(r, profiles, d)
    if isinstance(value, Fraction):
        value = MultiPoly.constant(gspec.nvars, value)
    return HurwitzResult(
        kind="hypergeometric", d=d, r=r, profiles=profiles, connected=connected,
        value=value, gspec=gspec, genus=rh_genus(r, 1, d, profiles),
    )


def mixed_simple_hypergeometric(r_simple: int, r: int, gspec: GSpec, profiles=(),
                                *, d: int | None = None,
                                caps: tuple[int, ...] | None = None) -> MultiPoly:
    """Disconnected count mixing r_simple unconstrained transpositions with
    the rational-weight blocks of ``gspec`` at z-order ``r``.

    Each central factor acts on an irreducible block by its scalar
    eigenvalue, so the weights simply multiply.
    """
    if r_simple < 0 or r < 0:
        raise DomainError("orders must be nonnegative")
    d, profiles = _resolve_degree(profiles, d)

    def factor(lam):
        poly = _content_coefficient(d, lam, gspec, r, caps)
        return poly.scale(f_bar(lam, 2) ** r_simple)

    value = character_sum(d, profiles, factor)
    if isinstance(value, Fraction):
        value = MultiPoly.constant(gspec.nvars, value)
    return value


# ---------------------------------------------------------------------------
# Connected numbers by inclusion-exclusion
# ---------------------------------------------------------------------------

def _weak_compositions(total: int, k: int):
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, k - 1):
            yield (first,) + rest


def _compositions(total: int, k: int):
    """Ordered k-tuples of positive integers summing to total."""
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _sub_multisets(mu: Partition, size: int):
    """All sub-multisets of mu with the given total, as sorted tuples."""
    parts = sorted(set(mu), reverse=True)
    counts = {p: mu.count(p) for p in parts}

    def rec(idx, remaining):
        if remaining == 0:
            yield ()
            return
        if idx == len(parts):
            return
        p = parts[idx]
        for take in range(min(counts[p], remaining // p), -1, -1):
            for rest in rec(idx + 1, remaining - take * p):
                yield (p,) * take + rest

    yield from rec(0, size)


def _multiset_difference(mu: Partition, sub: Partition) -> Partition:
    remaining = list(mu)
    for p in sub:
        remaining.remove(p)
    return tuple(remaining)


def _profile_splits(profiles, sizes):
    """Ordered splits of every profile into sub-profiles of the given sizes."""
    if not profiles:
        yield ()
        return

    def split_one(mu, sizes):
        if len(sizes) == 1:
            if sum(mu) == sizes[0]:
                yield (mu,)
            return
        for sub in _sub_multisets(mu, sizes[0]):
            rest = _multiset_difference(mu, sub)
            for tail in split_one(rest, sizes[1:]):
                yield (sub,) + tail

    def rec(idx):
        if idx == len(profiles):
            yield ()
            return
        for head in split_one(profiles[idx], sizes):
            for tail in rec(idx + 1):
                yield (head,) + tail

    # yields, per split, a tuple over j of tuples over components
    yield from rec(0)


def _multinomial(counts) -> int:
    total = sum(counts)
    out = 1
    for c in counts:
        out *= math.comb(total, c)
        total -= c
    return out


def connected_transform_multi(evaluator, counts: tuple[int, ...], profiles, *,
                              d: int) -> Fraction | MultiPoly:
    """Connected value from a disconnected evaluator with typed insertions.

    ``counts`` lists how many insertions of each type the instance
    carries; the inclusion-exclusion runs over ordered tuples of
    components with positive sub-degrees, sub-multiset splits of every
    profile, and weak compositions of every insertion count (with the
    corresponding multinomials), in the sheet-labelled normalization.
    The evaluator is called as ``evaluator(sub_counts, sub_profiles,
    sub_degree)`` and must return the disconnected number in the same
    normalization as the target.
    """
    d, profiles = _resolve_degree(profiles, d)
    n = len(profiles)

    memo: dict = {}

    def h_tilde(sub_counts, sub_profiles, dd):
        key = (sub_counts, sub_profiles, dd)
        if key not in memo:
            value = evaluator(sub_counts, sub_profiles, dd)
            scale = 1
            for mu in sub_profiles:
                scale *= class_data(mu).class_size
            memo[key] = value * scale if isinstance(value, MultiPoly) else Fraction(value) * scale
        return memo[key]

    total = None
    for k in range(1, d + 1):
        sign = Fraction((-1) ** (k - 1), k)
        for sizes in _compositions(d, k):
            for split in _profile_splits(profiles, sizes):
                # split[j][i] is the piece of profile j on component i
                pieces_profiles = [
                    tuple(split[j][i] for j in range(n)) for i in range(k)
                ]
                for count_splits in _count_splits(counts, k):
                    weight = sign
                    for c, parts in zip(counts, count_splits):
                        weight *= _multinomial(parts)
                    term = None
                    for i in range(k):
                        sub_counts = tuple(parts[i] for parts in count_splits)
                        val = h_tilde(sub_counts, pieces_profiles[i], sizes[i])
                        term = val if term is None else _value_mul(term, val)
                        if _value_is_zero(term):
                            term = None
                            break
                    if term is None:
                        continue
                    term = _value_scale(term, weight)
                    total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    scale = 1
    for mu in profiles:
        scale *= class_data(mu).class_size
    return _value_scale(total, Fraction(1, scale))


def _count_splits(counts, k):
    """Cartesian product of weak compositions, one per insertion type."""
    if not counts:
        yield ()
        return
    for head in _weak_compositions(counts[0], k):
        for tail in _count_splits(counts[1:], k):
            yield (head,) + tail


def _value_mul(a, b):
    if isinstance(a, MultiPoly) or isinstance(b, MultiPoly):
        if not isinstance(a, MultiPoly):
            a, b = b, a
        if isinstance(b, MultiPoly):
            return a.mul(b)
        return a.scale(b)
    return a * b


def _value_scale(a, q):
    return a.scale(q) if isinstance(a, MultiPoly) else a * q


def _value_is_zero(a) -> bool:
    return a.is_zero() if isinstance(a, MultiPoly) else a == 0


def connected_transform(evaluator, r: int, profiles=(), *, d: int | None = None):
    """Connected number from a disconnected evaluator over (r, profiles).

    ``evaluator(r_i, sub_profiles, d_i)`` supplies every sub-instance;
    zero-insertion components are legal (they carry the unramified
    sheets), but every component covers at least one sheet.
    """
    d, profiles = _resolve_degree(profiles, d)
    return connected_transform_multi(
        lambda counts, profs, dd: evaluator(counts[0], profs, dd),
        (r,), profiles, d=d,
    )


# ---------------------------------------------------------------------------
# Structure coefficients and the spectral gap
# ---------------------------------------------------------------------------

def structure_coefficients(s: int, profiles=(), *, d: int | None = None
                           ) -> dict[Fraction, Fraction]:
    """Coefficients C(m) with H_r = (2/d!^2) sum_m C(m) m^r at admissible r.

    For odd s the eigenvalues pair off under transposition, so keys are
    the positive eigenvalues |f_bar| with one representative per pair
    (partitions with eigenvalue zero drop out); for even s the keys are
    the signed eigenvalues and each carries the half-weight of the
    grouping.  The 2/d!^2 prefactor is left out by contract.
    """
    if s < 1:
        raise DomainError(f"s must be positive: {s}")
    d, profiles = _resolve_degree(profiles, d)
    table = characters.char_table(d)
    n = len(profiles)
    out: dict[Fraction, Fraction] = {}
    for lam in table.partitions:
        f = f_bar(lam, s + 1)
        if s % 2 == 1 and f <= 0:
            continue  # the transpose carries the representative
        dim = table.value(lam, (1,) * d)
        weight = Fraction(dim) ** (2 - n)
        for mu in profiles:
            weight *= table.value(lam, mu)
        if s % 2 == 0:
            weight /= 2
        if weight == 0:
            continue
        out[f] = out.get(f, Fraction(0)) + weight
        if out[f] == 0:
            del out[f]
    return out


def structure_resummation(r: int, s: int, profiles=(), *, d: int | None = None
                          ) -> Fraction:
    """(2/d!^2) sum_m C(m) m^r -- must match the direct character sum at
    every admissible r >= 1."""
    d, profiles = _resolve_degree(profiles, d)
    coeffs = structure_coefficients(s, profiles, d=d)
    acc = Fraction(0)
    for m, c in coeffs.items():
        acc += c * m**r
    return acc * 2 / Fraction(math.factorial(d)) ** 2


def gap_interval(d: int, s: int) -> tuple[Fraction, Fraction]:
    """The open eigenvalue interval just below the maximum that no
    partition can reach."""
    if d < 2:
        raise DomainError(f"gap interval needs d >= 2, got {d}")
    return f_bar((d - 1, 1) if d > 2 else (1, 1), s + 1), f_bar((d,), s + 1)


# ---------------------------------------------------------------------------
# Orbifold specialization
# ---------------------------------------------------------------------------

def orbifold_hurwitz(r: int, t: int, mu, *, connected: bool = False) -> HurwitzResult:
    """Double Hurwitz numbers against the uniform profile (t, t, ..., t).

    Exactly zero whenever t does not divide d.
    """
    if t < 1:
        raise DomainError(f"t must be positive: {t}")
    mu = check_partition(mu)
    d = sum(mu)
    if d % t:
        return HurwitzResult(
            kind="orbifold", d=d, r=r, t=t, profiles=(mu,), connected=connected,
            value=Fraction(0), genus=None,
        )
    nu = (t,) * (d // t)
    base = completed_hurwitz(r, 1, (mu, nu), connected=connected)
    return HurwitzResult(
        kind="orbifold", d=d, r=r, s=1, t=t, profiles=(mu, nu),
        connected=connected, value=base.value, genus=base.genus,
    )


# ---------------------------------------------------------------------------
# Stationary Gromov-Witten correlators of the sphere
# ---------------------------------------------------------------------------

def _normalize_insertions(insertions) -> tuple[tuple[int, int], ...]:
    out = []
    for s, m in sorted(dict(insertions).items()):
        if s < 1 or m < 0:
            raise DomainError(f"bad insertion {s}:{m}")
        if m:
            out.append((int(s), int(m)))
    return tuple(out)


def gw_correlator(mu, nu, insertions, *, connected: bool = False) -> Fraction:
    """Stationary degree-d correlators relative to two profiles.

    Value = (1/(z(mu) z(nu))) sum_lam chi chi / d!^2 *
    prod_s (f_bar_{s+1}/s!)^{m_s}; the connected version applies the
    typed inclusion-exclusion over components.
    """
    mu = check_partition(mu)
    nu = check_partition(nu)
    if sum(mu) != sum(nu):
        raise DomainError(f"profiles of different degrees: {mu}, {nu}")
    d = sum(mu)
    ins = _normalize_insertions(insertions)
    orders = tuple(s for s, _ in ins)
    counts = tuple(m for _, m in ins)

    def mixed(sub_counts, profs, dd):
        def factor(lam):
            acc = Fraction(1)
            for s, m in zip(orders, sub_counts):
                if m:
                    acc *= f_bar(lam, s + 1) ** m
            return acc
        return character_sum(dd, profs, factor)

    if connected:
        value = connected_transform_multi(mixed, counts, (mu, nu), d=d)
    else:
        value = mixed(counts, (mu, nu), d)
    scale = Fraction(1, class_data(mu).stabilizer * class_data(nu).stabilizer)
    for s, m in ins:
        scale /= Fraction(math.factorial(s)) ** m
    return value * scale


def gw_genus(mu, nu, insertions) -> Fraction:
    """Genus from the dimension constraint sum s m_s = 2g - 2 + l(mu) + l(nu)."""
    mu = check_partition(mu)
    nu = check_partition(nu)
    weight = sum(s * m for s, m in _normalize_insertions(insertions))
    return Fraction(weight + 2 - len(mu) - len(nu), 2)


# ---------------------------------------------------------------------------
# Higher-genus target surfaces
# ---------------------------------------------------------------------------

def higher_genus_target(h: int, base: HurwitzResult) -> HurwitzResult:
    """Lift a sphere-target count to a genus-h target: multiply by d!^{2h}
    after the caller has already substituted r -> r - 2dh in the base."""
    if h < 0:
        raise DomainError(f"target genus must be nonnegative: {h}")
    scale = Fraction(math.factorial(base.d)) ** (2 * h)
    value = base.value.scale(scale) if isinstance(base.value, MultiPoly) \
        else base.value * scale
    r = None if base.r is None else base.r + 2 * base.d * h
    return HurwitzResult(
        kind=base.kind, d=base.d, r=r, s=base.s, t=base.t,
        profiles=base.profiles, connected=base.connected, value=value,
        gspec=base.gspec, genus=None,
        extra={**base.extra, "target_genus": h, "base_r": base.r},
    )


def shifted_base_order(r: int, d: int, h: int) -> int:
    """The base-instance order r - 2dh; negative shifts are domain errors."""
    rr = r - 2 * d * h
    if rr < 0:
        raise DomainError(f"r - 2dh = {rr} is negative (r={r}, d={d}, h={h})")
    return rr
