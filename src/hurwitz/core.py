"""Hurwitz numbers, exactly, from symmetric-group character sums.

The two evaluation routes are:

* completed cycles -- the weight of a partition ``lam`` is a power of
  the shifted-power-sum eigenvalue ``f_bar``;
* hypergeometric (rational weight ``G``) -- the weight is the z^r
  coefficient of the product of ``G`` evaluated at ``z`` times each box
  content, kept as an exact polynomial in the formal u/v variables.

Every family is a sum over partitions of a weight times a factor, and
``weighted_sweep``, the one reducer, sums it for every r of a sweep at
once.  ``character_weights`` supplies the weights (``hurwitz.jack`` the
Jack weights); ``completed_sweep`` and ``character_sum`` are its
completed-cycle and one-r cases.  The hypergeometric factor is
``content_product``: the z^r coefficient factors into elementary and
complete symmetric functions of the nonzero contents
(``content_sequences``, plain integer sequences), so no series is
multiplied.  The b-deformed engine in ``hurwitz.jack`` runs the same
product over deformed contents.  ``_resolve_degree`` is the one place
that turns (profiles, d) into a checked degree.

Each family evaluates a whole r-range in one pass (its ``*_sweep``
function, reading the weights once), and its single-r function is the
one-r case.  Connected numbers come from any disconnected evaluator
through ``connected_transform_multi``: the exponential formula, solved
by the recursion on the component that holds sheet 1, with every
sub-instance memoized across every r of a sweep (``connected_sweep``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import characters
from .errors import DomainError
from .exactnum import MultiPoly, format_rational, zeta_neg
from .partitions import (
    Partition,
    check_partition,
    class_data,
    contents,
    transpose,
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
    # a' = (2a+1)/2 and b' = (2b+1)/2 over the diagonal hooks (a, b)
    lt = transpose(lam)
    num = 0
    for i, p in enumerate(lam):
        if p <= i:
            break
        num += (2 * (p - i) - 1) ** s - (1 - 2 * (lt[i] - i)) ** s
    c = _c_const(s)
    return Fraction(num * c.denominator + c.numerator * 2**s, 2**s * c.denominator * s)


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


def character_weights(d: int, profiles):
    """Yield ``(lam, weight)`` for every nonzero weight
    (dim/d!)^2 prod_i chi_lam(mu_i)/dim, in canonical partition order."""
    table = characters.char_table(d)
    cols = [table.column(mu) for mu in profiles]
    fact2 = Fraction(1, math.factorial(d)) ** 2
    power = 2 - len(profiles)  # of dim; negative past two profiles
    for i, (lam, dim) in enumerate(zip(table.partitions, table.dims)):
        weight = fact2 * dim ** power if power >= 0 else fact2 / dim ** -power
        for col in cols:
            chi = col[i]
            if chi == 0:
                break
            weight *= chi
        else:
            yield lam, weight


def weighted_sweep(weights, factor, r_values) -> dict:
    """{r: sum over (lam, weight) of weight * factor(lam)(r)} for every r.

    ``factor(lam)`` is called once per partition and returns its term as
    a function of r, a Fraction or a MultiPoly (they share ``*``, ``+``
    and ``== 0``).  Each sum runs left to right over the canonical order
    of ``weights``; an empty sum is ``Fraction(0)``.
    """
    r_values = list(r_values)
    totals = None
    for lam, weight in weights:
        term = factor(lam)
        if totals is None:
            totals = [term(r) * weight for r in r_values]
        else:
            totals = [total + term(r) * weight for total, r in zip(totals, r_values)]
    return dict(zip(r_values, totals or [Fraction(0)] * len(r_values)))


def character_sum(d: int, profiles, factor):
    """sum over lam of (dim/d!)^2 prod_i chi_lam(mu_i)/dim * factor(lam),
    the one-r case of ``weighted_sweep``."""
    weights = character_weights(d, profiles)
    return weighted_sweep(weights, lambda lam: lambda _: factor(lam), (0,))[0]


def completed_sweep(r_values, s: int, profiles, d: int) -> dict:
    """{r: the character sum of f_bar(lam, s+1)^r} for every r of ``r_values``."""
    def factor(lam):
        f = f_bar(lam, s + 1)
        return lambda r: f**r
    return weighted_sweep(character_weights(d, profiles), factor, r_values)


def _as_polynomial(value, nvars: int) -> MultiPoly:
    """A sum of polynomial terms as a polynomial: the empty sum,
    ``Fraction(0)``, is the one value that is not one already."""
    return value or MultiPoly.zero(nvars)


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

def _orders(r_values) -> list[int]:
    r_values = list(r_values)
    if any(r < 0 for r in r_values):
        raise DomainError(f"r must be nonnegative: {min(r_values)}")
    return r_values


def completed_hurwitz_sweep(r_values, s: int, profiles=(), *, d: int | None = None,
                            connected: bool = False) -> list[HurwitzResult]:
    """``completed_hurwitz`` at every r of ``r_values``, in one pass.

    The disconnected values are one ``completed_sweep``; the connected
    ones share one transform memo.
    """
    r_values = _orders(r_values)
    if s < 1:
        raise DomainError(f"s must be positive: {s}")
    d, profiles = _resolve_degree(profiles, d)
    if connected:
        def disconnected(rr, profs, dd):
            return completed_sweep((rr,), s, profs, dd)[rr]

        values = connected_sweep(disconnected, r_values, profiles, d=d)
    else:
        values = completed_sweep(r_values, s, profiles, d)
    return [HurwitzResult(
        kind="completed", d=d, r=r, s=s, profiles=profiles, connected=connected,
        value=values[r], genus=rh_genus(r, s, d, profiles),
    ) for r in r_values]


def completed_hurwitz(r: int, s: int, profiles=(), *, d: int | None = None,
                      connected: bool = False) -> HurwitzResult:
    """Hurwitz numbers with r completed (s+1)-cycles and fixed profiles."""
    return completed_hurwitz_sweep((r,), s, profiles, d=d, connected=connected)[0]


def classical_hurwitz_sweep(r_values, d: int, *, connected: bool = False
                            ) -> list[HurwitzResult]:
    """Simple-branch-points-only counts, completed cycles with s = 1 and
    N = 0, at every r of ``r_values``."""
    results = completed_hurwitz_sweep(r_values, 1, (), d=d, connected=connected)
    for result in results:
        result.kind = "classical"
    return results


def classical_hurwitz(r: int, d: int, *, connected: bool = False) -> HurwitzResult:
    """The one-r case of ``classical_hurwitz_sweep``."""
    return classical_hurwitz_sweep((r,), d, connected=connected)[0]


# ---------------------------------------------------------------------------
# Hypergeometric Hurwitz numbers
# ---------------------------------------------------------------------------

def _complete_sequence(weights, r: int) -> list:
    """h_0..h_r of the weights: the z-coefficients of prod_c 1/(1 - cz)."""
    seq = [1] + [0] * r
    for c in weights:
        for n in range(1, r + 1):
            seq[n] += c * seq[n - 1]
    return seq


def content_sequences(weights, gspec: GSpec, r: int):
    """The symmetric functions of the nonzero weights, to order r.

    Returns ``(e, h, hk)``: ``e[k]`` and ``h[n]`` are the elementary and
    complete symmetric functions (``None`` when ``gspec`` has no u, or
    no v, blocks), and ``hk[n]`` is h_n of the weights repeated K times.
    They are the z-coefficients of prod_c (1 + cz), prod_c 1/(1 - cz)
    and prod_c (1 - cz)^{-K}.  Ints for contents, Fractions for deformed
    contents.
    """
    nonzero = [c for c in weights if c]
    e = h = None
    if gspec.L:
        e = [1] + [0] * r
        for i, c in enumerate(nonzero):
            for k in range(min(i + 1, r), 0, -1):
                e[k] += c * e[k - 1]
    if gspec.M:
        h = _complete_sequence(nonzero, r)
    return e, h, _complete_sequence(nonzero * gspec.K, r)


def content_product(weights, gspec: GSpec, r: int,
                    caps: tuple[int, ...] | None = None) -> MultiPoly:
    """[z^r] of the product over box weights c of G(z * c), exact in u's and v's.

    The weights are the box contents, or the deformed contents of the
    b-deformed engine; zero weights contribute the factor 1.  The
    coefficient of ``u^a v^b`` is prod e_{a_i} prod h_{b_j} hk_{r-|a|-|b|}
    (see ``content_sequences``); ``caps`` drops monomials beyond them.
    """
    e, h, hk = content_sequences(weights, gspec, r)
    seqs = [e] * gspec.L + [h] * gspec.M
    caps = (r,) * gspec.nvars if caps is None else caps
    out = MultiPoly(gspec.nvars)
    for expo in itertools.product(*(range(min(cap, r) + 1) for cap in caps)):
        rest = r - sum(expo)
        if rest < 0:
            continue
        coeff = hk[rest]
        for seq, a in zip(seqs, expo):
            coeff *= seq[a]
        if coeff:
            out.terms[expo] = Fraction(coeff)
    return out


@lru_cache(maxsize=None)
def _content_coefficient(d: int, lam: Partition, gspec: GSpec, r: int,
                         caps: tuple[int, ...] | None) -> MultiPoly:
    """[z^r] of prod over boxes of G(z * content), exact in u's and v's."""
    return content_product(contents(lam), gspec, r, caps)


def hypergeometric_hurwitz_sweep(r_values, gspec: GSpec, profiles=(), *,
                                 d: int | None = None, connected: bool = False,
                                 caps: tuple[int, ...] | None = None
                                 ) -> list[HurwitzResult]:
    """``hypergeometric_hurwitz`` at every r of ``r_values``, in one pass.

    The disconnected values are one ``weighted_sweep`` over the memoized
    ``_content_coefficient``; the connected ones share one transform memo.
    """
    r_values = _orders(r_values)
    d, profiles = _resolve_degree(profiles, d)
    if caps is not None:
        caps = tuple(caps)
        if len(caps) != gspec.nvars:
            raise DomainError(f"caps arity {len(caps)} != {gspec.nvars} variables")

    if connected:
        def disconnected(rr, profs, dd):
            return character_sum(
                dd, profs, lambda lam: _content_coefficient(dd, lam, gspec, rr, caps)
            )

        values = connected_sweep(disconnected, r_values, profiles, d=d)
    else:
        def factor(lam):
            return lambda rr: _content_coefficient(d, lam, gspec, rr, caps)

        values = weighted_sweep(character_weights(d, profiles), factor, r_values)
    results = []
    for r in r_values:
        value = _as_polynomial(values[r], gspec.nvars)
        if caps is not None:  # the connected transform multiplies capped values
            value = value.truncate(caps)
        results.append(HurwitzResult(
            kind="hypergeometric", d=d, r=r, profiles=profiles, connected=connected,
            value=value, gspec=gspec, genus=rh_genus(r, 1, d, profiles),
        ))
    return results


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
    return hypergeometric_hurwitz_sweep((r,), gspec, profiles, d=d, connected=connected,
                                        caps=caps)[0]


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
        return _content_coefficient(d, lam, gspec, r, caps) * f_bar(lam, 2) ** r_simple

    return _as_polynomial(character_sum(d, profiles, factor), gspec.nvars)


# ---------------------------------------------------------------------------
# Connected numbers by the exponential formula
# ---------------------------------------------------------------------------

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


def connected_transform_multi(evaluator, counts: tuple[int, ...], profiles, *,
                              d: int, memo: dict | None = None) -> Fraction | MultiPoly:
    """Connected value from a disconnected evaluator with typed insertions.

    ``counts`` lists how many insertions of each type the instance
    carries.  Let ``h(c, P, d)`` be the disconnected value times the
    profile class sizes.  Summed against ``x^d y^c / c!`` (``h`` already
    carries the sheets' ``1/d!``), with the profile parts as ordinary
    variables, the series of ``h`` is the exponential of the series of
    its connected part ``h°``.  The sheet derivative of that identity is
    the recursion on the component that holds sheet 1 (Stanley, EC2
    §5.1)::

        h°(c, P, d) = h(c, P, d) - (1/d) sum_{d1 < d} d1
            sum_{P1 within P, |P1_j| = d1} sum_{c1 <= c} prod_t C(c_t, c1_t)
            h°(c1, P1, d1) h(c - c1, P - P1, d - d1)

    The evaluator is called as ``evaluator(sub_counts, sub_profiles,
    sub_degree)`` and must return the disconnected number in the same
    normalization as the target; a sub-instance is evaluated only when
    the connected factor it multiplies is nonzero.  Both kinds of
    sub-instance are memoized in ``memo``: calls that pass the same dict
    with the same evaluator and profiles (the r of a sweep) compute
    each sub-instance once.
    """
    d, profiles = _resolve_degree(profiles, d)
    memo = {} if memo is None else memo
    h_memo = memo.setdefault("disconnected", {})
    connected_memo = memo.setdefault("connected", {})

    def h_tilde(sub_counts, sub_profiles, dd):
        key = (sub_counts, sub_profiles, dd)
        if key not in h_memo:
            scale = math.prod(class_data(mu).class_size for mu in sub_profiles)
            h_memo[key] = evaluator(sub_counts, sub_profiles, dd) * scale
        return h_memo[key]

    def h_connected(sub_counts, sub_profiles, dd):
        key = (sub_counts, sub_profiles, dd)
        if key in connected_memo:
            return connected_memo[key]
        rest = None
        for d1 in range(1, dd):
            for p1 in itertools.product(*(_sub_multisets(mu, d1) for mu in sub_profiles)):
                p2 = tuple(_multiset_difference(mu, sub) for mu, sub in zip(sub_profiles, p1))
                for c1 in itertools.product(*(range(m + 1) for m in sub_counts)):
                    first = h_connected(c1, p1, d1)
                    if first == 0:
                        continue
                    second = h_tilde(tuple(m - m1 for m, m1 in zip(sub_counts, c1)),
                                     p2, dd - d1)
                    if second == 0:
                        continue
                    weight = d1
                    for m, m1 in zip(sub_counts, c1):
                        weight *= math.comb(m, m1)
                    term = first * second * weight
                    rest = term if rest is None else rest + term
        value = h_tilde(sub_counts, sub_profiles, dd)
        if rest is not None:
            value = value + rest * Fraction(-1, dd)
        connected_memo[key] = value
        return value

    scale = math.prod(class_data(mu).class_size for mu in profiles)
    return h_connected(tuple(counts), profiles, d) * Fraction(1, scale)


def connected_sweep(evaluator, r_values, profiles=(), *, d: int | None = None) -> dict:
    """{r: connected number} for every r of ``r_values``, from a
    disconnected evaluator over (r, profiles), with one memo for them all.

    ``evaluator(r_i, sub_profiles, d_i)`` supplies every sub-instance;
    zero-insertion components are legal (they carry the unramified
    sheets), but every component covers at least one sheet.
    """
    d, profiles = _resolve_degree(profiles, d)
    memo: dict = {}

    def multi(counts, profs, dd):
        return evaluator(counts[0], profs, dd)

    return {r: connected_transform_multi(multi, (r,), profiles, d=d, memo=memo)
            for r in r_values}


def connected_transform(evaluator, r: int, profiles=(), *, d: int | None = None):
    """Connected number from a disconnected evaluator over (r, profiles),
    the one-r case of ``connected_sweep``."""
    return connected_sweep(evaluator, (r,), profiles, d=d)[r]


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
    scale = Fraction(math.factorial(d) ** 2, 1 if s % 2 else 2)
    out: dict[Fraction, Fraction] = {}
    for lam, weight in character_weights(d, profiles):
        f = f_bar(lam, s + 1)
        if s % 2 == 1 and f <= 0:
            continue  # the transpose carries the representative
        out[f] = out.get(f, Fraction(0)) + weight * scale
        if out[f] == 0:
            del out[f]
    return out


def structure_resummation(r: int, s: int, profiles=(), *, d: int | None = None
                          ) -> Fraction:
    """(2/d!^2) sum_m C(m) m^r -- must match the direct character sum at
    every admissible r >= 1."""
    d, profiles = _resolve_degree(profiles, d)
    return resum_structure(structure_coefficients(s, profiles, d=d), r, d)


def resum_structure(coeffs: dict[Fraction, Fraction], r: int, d: int) -> Fraction:
    """(2/d!^2) sum_m C(m) m^r of the structure coefficients of degree d."""
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

def orbifold_hurwitz_sweep(r_values, t: int, mu, *, connected: bool = False
                           ) -> list[HurwitzResult]:
    """Double Hurwitz numbers against the uniform profile (t, t, ..., t)
    at every r of ``r_values``, in one pass.

    Exactly zero whenever t does not divide d.
    """
    if t < 1:
        raise DomainError(f"t must be positive: {t}")
    mu = check_partition(mu)
    d = sum(mu)
    if d % t:
        return [HurwitzResult(
            kind="orbifold", d=d, r=r, t=t, profiles=(mu,), connected=connected,
            value=Fraction(0), genus=None,
        ) for r in r_values]
    results = completed_hurwitz_sweep(r_values, 1, (mu, (t,) * (d // t)), connected=connected)
    for result in results:
        result.kind, result.t = "orbifold", t
    return results


def orbifold_hurwitz(r: int, t: int, mu, *, connected: bool = False) -> HurwitzResult:
    """The one-r case of ``orbifold_hurwitz_sweep``."""
    return orbifold_hurwitz_sweep((r,), t, mu, connected=connected)[0]


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
    connected transform with one insertion count per order s.
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
    return value * _gw_scale(mu, nu, ins)


def _gw_scale(mu, nu, ins) -> Fraction:
    """1/(z(mu) z(nu)) prod_s (1/s!)^{m_s} for normalized insertions."""
    scale = Fraction(1, class_data(mu).stabilizer * class_data(nu).stabilizer)
    for s, m in ins:
        scale /= Fraction(math.factorial(s)) ** m
    return scale


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
    value = base.value * scale
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
