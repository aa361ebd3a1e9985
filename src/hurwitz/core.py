"""Hurwitz numbers, exactly, from symmetric-group character sums.

The two evaluation routes are:

* completed cycles -- the weight of a partition ``lam`` is a power of
  the shifted-power-sum eigenvalue ``f_bar``;
* hypergeometric (rational weight ``G``) -- the weight is the z^r
  coefficient of the product of ``G`` evaluated at ``z`` times each box
  content, kept as an exact polynomial in the formal u/v variables.

Every family is a sum over partitions of a weight times a factor.
``character_weights`` supplies the weights, which depend on (degree,
profiles) alone: each list is built once and kept in a bounded memo.
The completed-cycle families sum them once per integer eigenvalue
``F = f_bar(lam, s+1) Q`` (``completed_spectrum``), and every value is
the finite sum ``sum_F A_F F^r`` over ``D Q^r``.  Every other factor
goes through ``weighted_sweep``, the one reducer, for every r of a
sweep at once; ``character_sum`` is its one-r case.  The hypergeometric
factor is ``content_factor``: the z^r coefficient factors into
elementary and complete symmetric functions of the nonzero contents
(``content_sequences``, plain integer sequences, built once per
partition for a whole sweep), so no series is multiplied, and a single
monomial's coefficient needs no polynomial.  The b-deformed engine in
``hurwitz.jack`` runs the same factor over its deformed contents
``alpha j - i``, as the integers ``p j - q i`` for ``alpha = p/q``.
``_resolve_degree`` is the one place that turns (profiles, d) into a
checked degree.

Each family evaluates a whole r-range in one pass (its ``*_sweep``
function, reading the weights once), and its single-r function is the
one-r case.  Connected numbers come from the disconnected ones by the
exponential formula, solved once, by the recursion on the component
that holds sheet 1, in ``_exponential_formula``: it runs on {key:
coefficient} dicts per (profiles, degree), with one of two products.
The completed-cycle families (classical, completed, orbifold) run it on
their spectra, with no r in it: ``connected_spectrum`` builds the
integer coefficients ``B_F`` of their connected numbers once per
request.  The content families' connected ``_character_sweep`` runs it
on the insertion counts ``(r,)``, with one ``weighted_sweep`` over every
order per (profiles, degree); ``connected_transform_multi`` runs it on
typed insertion counts from any disconnected evaluator (GW).

The sums run on Python ints over one known denominator per value.  A
character weight is an integer ``W`` over ``D = d!^2 prod |C_mu|``
(``_scale``; the central characters are integers), ``f_bar(lam, s) Q_s``
is an integer for ``Q_s = f_bar_denominator(s)``, and the exponential
formula, scaled by ``D prod_t Q_t^{c_t}``, has integer coefficients in
place of its ``1/d``.  Each returned value is one division of an
integer (or an int-coefficient polynomial) total.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from . import characters
from .errors import DomainError
from .exactnum import MultiPoly, format_rational, zeta_neg
from .partitions import (
    Partition,
    check_partition,
    class_data,
)
from .records import Frozen, Record, set_field


# ---------------------------------------------------------------------------
# Completed-cycle eigenvalues
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _c_const(s: int) -> Fraction:
    return (1 - Fraction(1, 2**s)) * zeta_neg(s)


@lru_cache(maxsize=1 << 14)
def f_bar(lam: Partition, s: int) -> Fraction:
    """Shifted power sum (1/s)(sum a'^s - (-b')^s + c_s) in Frobenius coordinates."""
    lam = check_partition(lam)
    if s < 2:
        raise DomainError(f"f_bar index must be at least 2, got {s}")
    # a' = (2a+1)/2 and b' = (2b+1)/2 over the diagonal hooks (a, b): the
    # leg b of diagonal box i is #{j : lam[j] > i} - i - 1
    num = 0
    rows = len(lam)  # #{j : lam[j] > i}, which only shrinks as i grows
    for i, p in enumerate(lam):
        if p <= i:
            break
        while lam[rows - 1] <= i:
            rows -= 1
        num += (2 * (p - i) - 1) ** s - (1 - 2 * (rows - i)) ** s
    c = _c_const(s)
    return Fraction(num * c.denominator + c.numerator * 2**s, 2**s * c.denominator * s)


def m_ds(d: int, s: int) -> Fraction:
    """Top eigenvalue M_{d,s} = f_bar((d,), s+1): the row's one hook has a' = d-1/2, b' = 1/2."""
    if d < 1 or s < 1:
        raise DomainError(f"m_ds wants d >= 1 and s >= 1, got d={d}, s={s}")
    return f_bar((d,), s + 1)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

class GSpec(Frozen):
    """Rational weight shape: (1-z)^{-K} times L strict (u) and M weak (v) blocks."""

    __slots__ = ("K", "L", "M")

    def __init__(self, K: int = 0, L: int = 0, M: int = 0):
        set_field(self, "K", K)
        set_field(self, "L", L)
        set_field(self, "M", M)
        if K < 0 or L < 0 or M < 0:
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
            raise DomainError(f"profiles of different degrees: {profiles}")
        inferred = sizes.pop()
        if d is not None and d != inferred:
            raise DomainError(f"explicit d={d} contradicts profiles of size {inferred}")
        d = inferred
    if d is None:
        raise DomainError("degree d is required when no profiles are given")
    if d < 1:
        raise DomainError(f"degree must be positive: {d}")
    return d, profiles


def _degrees(name: str, vec, blocks: int | None = None) -> tuple[int, ...]:
    """``vec``, one degree per u or v block, as ints: refused when one is
    negative or, given ``blocks``, when it holds another number of them."""
    vec = tuple(map(int, vec))
    if min(vec, default=0) < 0:
        raise DomainError(f"{name} block degrees must be nonnegative: {vec}")
    if blocks is not None and len(vec) != blocks:
        raise DomainError(f"{name} {vec} must hold {blocks} degrees, one per block")
    return vec


def _orders(r_values, name: str = "r") -> list[int]:
    r_values = list(r_values)
    if any(r < 0 for r in r_values):
        raise DomainError(f"{name} must be nonnegative: {min(r_values)}")
    return r_values


def rh_genus(r: int, s: int, d: int, profiles) -> Fraction:
    """Genus from rs = 2g - 2 - d(N-2) + sum of profile lengths."""
    n = len(profiles)
    ell = sum(len(mu) for mu in profiles)
    return Fraction(r * s + 2 + d * (n - 2) - ell, 2)


def f_bar_denominator(s: int) -> int:
    """``Q_s``, the least common denominator of ``f_bar(lam, s)`` over
    every partition, so that ``f_bar(lam, s) * Q_s`` is an integer.

    ``f_bar(lam, s)`` is ``c_s/s`` plus, over the boxes of ``lam``,
    ``g(c) = ((c + 1/2)^s - (c - 1/2)^s)/s`` at the box content ``c``.
    ``g`` has degree ``s - 1``, so ``Q g`` is integer-valued once it is
    integral at ``s`` consecutive integers.  ``Q_2 = 1``: ``f_bar(lam, 2)``
    is the content sum.
    """
    if s < 2:
        raise DomainError(f"f_bar index must be at least 2, got {s}")
    c_s = _c_const(s)
    q = c_s.denominator * s // math.gcd(c_s.numerator, s)  # that of c_s/s
    scale = s * 2**s  # g(c) = ((2c+1)^s - (2c-1)^s) / scale
    for c in range(s):
        q = math.lcm(q, scale // math.gcd((2 * c + 1) ** s - (2 * c - 1) ** s, scale))
    return q


def _scaled_f_bar(lam: Partition, s: int, q: int) -> int:
    """``f_bar(lam, s) * q`` for a multiple ``q`` of ``f_bar_denominator(s)``."""
    f = f_bar(lam, s)
    return f.numerator * (q // f.denominator)


def character_weights(d: int, profiles) -> tuple[int, tuple]:
    """The character weights over one denominator, as ``(D, weights)``.

    ``weights`` is the tuple of ``(lam, W)`` for every nonzero
    ``W = dim^2 prod_i omega_lam(mu_i)``, in canonical partition order,
    and ``D = d!^2 prod_i |C_{mu_i}|``, so the weight
    ``(dim/d!)^2 prod_i chi_lam(mu_i)/dim`` is ``W/D``.  The central
    character ``omega_lam(mu) = |C_mu| chi_lam(mu)/dim`` is an integer
    (Isaacs, Character Theory of Finite Groups, Thm 3.7), so every ``W``
    is an int.  The pair depends on (d, profiles) alone, never on r or
    the family, and is listed once into a bounded memo (64 entries).
    """
    return _character_weights(d, tuple(map(tuple, profiles)))


def _scale(profiles, d: int) -> int:
    """``D = d!^2 prod |C_mu|`` over the profiles: the denominator of the
    character weights, and the scale of the exponential formula."""
    return math.factorial(d) ** 2 * math.prod(class_data(mu).class_size for mu in profiles)


@lru_cache(maxsize=64)
def _character_weights(d: int, profiles: tuple[Partition, ...]) -> tuple[int, tuple]:
    table = characters.char_table(d)
    sizes = [class_data(mu).class_size for mu in profiles]
    cols = [table.column(mu) for mu in profiles]
    weights = []
    for i, (lam, dim) in enumerate(zip(table.partitions, table.dims)):
        weight = dim * dim
        for size, col in zip(sizes, cols):
            chi = col[i]
            if chi == 0:
                break
            weight *= size * chi // dim
        else:
            weights.append((lam, weight))
    return _scale(profiles, d), tuple(weights)


def _over(total, denominator: int):
    """``total / denominator`` for an int, Fraction or MultiPoly total."""
    if isinstance(total, MultiPoly):
        return total.scale(Fraction(1, denominator))
    return Fraction(total, denominator)


def _integral(value):
    """``value`` with every integral coefficient as an int, so that sums
    and products of it run on ints."""
    if isinstance(value, MultiPoly):
        out = MultiPoly(value.nvars)
        out.terms = {e: _integral(c) for e, c in value.terms.items()}
        return out
    return value.numerator if value.denominator == 1 else value


def weighted_sweep(weights, factor, r_values, denominator: int | None = None) -> dict:
    """{r: sum over (lam, weight) of weight * factor(lam)(r), divided by
    ``denominator``} for every r.

    ``factor(lam)`` is called once per partition and returns its term as
    a function of r: an int, a Fraction or a MultiPoly.  The r are keys
    the terms read, orders or any hashable query.  Int weights and
    terms keep the sums on Python ints; ``denominator`` (omitted: no
    division) then divides each total once.  A polynomial term is added
    into its total in place (``MultiPoly.add_scaled``); the factor's own
    polynomial is never changed.  Each sum runs left to right over the
    canonical order of ``weights``; an empty sum is ``Fraction(0)``.
    """
    r_values = list(r_values)
    totals: list = [None] * len(r_values)
    for lam, weight in weights:
        term = factor(lam)
        for i, r in enumerate(r_values):
            value, total = term(r), totals[i]
            if isinstance(value, MultiPoly) and (total is None or isinstance(total, MultiPoly)):
                if total is None:
                    total = totals[i] = MultiPoly(value.nvars)
                total.add_scaled(value, weight)
            else:
                totals[i] = value * weight if total is None else total + value * weight
    totals = [Fraction(0) if total is None else total for total in totals]
    if denominator is not None:
        totals = [_over(total, denominator) for total in totals]
    return dict(zip(r_values, totals))


def character_sum(d: int, profiles, factor, denominator: int = 1):
    """sum over lam of (dim/d!)^2 prod_i chi_lam(mu_i)/dim * factor(lam) /
    denominator, the one-r case of ``weighted_sweep``.

    A ``factor`` with int values over one ``denominator`` keeps the sum
    on ints.
    """
    weight_denominator, weights = character_weights(d, profiles)
    return weighted_sweep(weights, lambda lam: lambda _: factor(lam), (0,),
                          weight_denominator * denominator)[0]


def _character_sweep(factor, r_values, profiles, d: int, *, connected: bool = False,
                     caps=None) -> dict:
    """{r: the character sum of ``factor``} for every r, the connected
    number when ``connected``.

    ``factor`` is a ``weighted_sweep`` factor with integer (or
    int-coefficient polynomial) terms.  Disconnected, it is one
    ``weighted_sweep`` over the weights' denominator ``D``.  Connected, it
    is ``_exponential_formula`` over the insertion counts ``(r,)``: the
    disconnected totals at each (profiles, degree) are one sweep over
    r = 0..max, over ``D``, the formula's scale, so each total is taken
    as it is.  ``caps`` bounds the products.  The content families take
    this path; the completed-cycle families read ``completed_spectrum``
    instead.
    """
    if not connected:
        denominator, weights = character_weights(d, profiles)
        return weighted_sweep(weights, factor, r_values, denominator)
    r_values = list(r_values)
    orders = range(max(r_values, default=0) + 1)

    def disconnected(profs, dd):
        totals = weighted_sweep(character_weights(dd, profs)[1], factor, orders)
        return {(r,): total for r, total in totals.items()}
    connected_totals = _exponential_formula(
        disconnected, _count_product((orders[-1],), caps), profiles, d,
        {(r,) for r in r_values})
    return {r: _over(connected_totals.get((r,), 0), _scale(profiles, d)) for r in r_values}


def completed_spectrum(s: int, profiles, d: int) -> tuple[int, dict[int, int]]:
    """``(D, A)``: ``A`` sums the character weights over ``D``
    (``character_weights``) per integer eigenvalue ``F = f_bar(lam, s+1)
    Q``, ``Q = f_bar_denominator(s + 1)``, in first-seen order with zero
    sums dropped, so the character sum of ``f_bar(lam, s+1)^r`` is
    ``sum_F A[F] F^r / (D Q^r)`` at every r (``0**0 == 1``)."""
    if s < 1:
        raise DomainError(f"s must be positive: {s}")
    denominator, weights = character_weights(d, profiles)
    q = f_bar_denominator(s + 1)
    spectrum: dict[int, int] = {}
    for lam, weight in weights:
        f = _scaled_f_bar(lam, s + 1, q)
        spectrum[f] = spectrum.get(f, 0) + weight
    return denominator, {f: a for f, a in spectrum.items() if a}


def completed_sweep(r_values, s: int, profiles, d: int, *, connected: bool = False) -> dict:
    """{r: the character sum of f_bar(lam, s+1)^r} for every r of ``r_values``,
    the connected number when ``connected``.

    Each value is ``sum_F A_F F^r / (D Q^r)`` over one spectrum for the
    whole range: ``completed_spectrum``, or ``connected_spectrum`` when
    ``connected``.
    """
    r_values = _orders(r_values)
    denominator, spectrum = (connected_spectrum if connected else completed_spectrum)(
        s, profiles, d)
    q = f_bar_denominator(s + 1)
    return {r: Fraction(sum(a * f**r for f, a in spectrum.items()), denominator * q**r)
            for r in r_values}


def _content_value(value, nvars: int, monomial=None):
    """A content-product sum as its value: a polynomial (the empty sum
    made one), or the coefficient of ``monomial`` (taken here from a
    connected sum, of capped polynomials)."""
    if monomial is None:
        return value or MultiPoly.zero(nvars)
    return value.coefficient(monomial) if isinstance(value, MultiPoly) else value


class HurwitzResult(Record):
    """An exact Hurwitz number together with the data that produced it.

    Mutable and unhashable; ``extra`` is a fresh dict unless one is given.
    """

    __slots__ = ("kind", "d", "r", "profiles", "connected", "value", "s", "t",
                 "gspec", "genus", "extra")

    def __init__(self, kind: str, d: int, r: int | None, profiles: tuple[Partition, ...],
                 connected: bool, value: Fraction | MultiPoly, s: int | None = None,
                 t: int | None = None, gspec: GSpec | None = None,
                 genus: Fraction | None = None, extra: dict | None = None):
        self.kind = kind
        self.d = d
        self.r = r
        self.profiles = profiles
        self.connected = connected
        self.value = value
        self.s = s
        self.t = t
        self.gspec = gspec
        self.genus = genus
        self.extra = {} if extra is None else extra

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

def completed_hurwitz_sweep(r_values, s: int, profiles=(), *, d: int | None = None,
                            connected: bool = False) -> list[HurwitzResult]:
    """``completed_hurwitz`` at every r of ``r_values``, in one pass.

    The values are one ``completed_sweep``.
    """
    r_values = list(r_values)
    d, profiles = _resolve_degree(profiles, d)
    values = completed_sweep(r_values, s, profiles, d, connected=connected)
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
    and prod_c (1 - cz)^{-K}, homogeneous of degree k or n in the
    weights.  Ints for integer weights, which every engine passes;
    Fractions for Fraction weights.
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


def _content_terms(sequences, gspec: GSpec, caps, monomial):
    """``r -> [z^r] prod_c G(z c)`` from ``content_sequences``: the
    polynomial without the monomials beyond ``caps``, or the coefficient
    prod e[a_i] prod h[b_j] hk[r - |a| - |b|] of ``monomial = (a, b)``.
    The polynomial's u/v parts are listed once, over the nonzero entries
    within the caps and the order; each r multiplies them by ``hk``."""
    e, h, hk = sequences
    rows = [e] * gspec.L + [h] * gspec.M
    if monomial is not None:
        shift = sum(monomial)
        uv = math.prod(row[a] for row, a in zip(rows, monomial)) if shift < len(hk) else 0
        return lambda r: uv * hk[r - shift] if r >= shift else 0

    parts = [((), 0, 1)]  # (exponent, degree, coefficient)
    for row, cap in zip(rows, (len(hk),) * gspec.nvars if caps is None else caps):
        entries = [(a, x) for a, x in enumerate(row[:cap + 1]) if x]
        parts = [(expo + (a,), degree + a, coeff * x) for expo, degree, coeff in parts
                 for a, x in entries if degree + a < len(hk)]

    def polynomial(r):
        out = MultiPoly(gspec.nvars)
        for expo, degree, coeff in parts:
            coeff = degree <= r and coeff * hk[r - degree]
            if coeff:
                out.terms[expo] = coeff
        return out
    return polynomial


def _caps_or_monomial(gspec: GSpec, caps, monomial) -> tuple:
    """``caps`` and ``monomial`` as block degrees (``_degrees``), refused
    together."""
    caps, monomial = (None if expo is None else _degrees(name, expo, gspec.nvars)
                      for name, expo in (("caps", caps), ("monomial", monomial)))
    if caps is not None and monomial is not None:
        raise DomainError("give caps or a monomial, not both")
    return caps, monomial


def content_factor(gspec: GSpec, r_max: int, *, caps: tuple[int, ...] | None = None,
                   monomial: tuple[int, ...] | None = None, alpha=1):
    """The content-product factor ``lam -> (r -> term)`` of ``weighted_sweep``
    for r <= ``r_max``, with ``caps`` or ``monomial`` as for ``_content_terms``,
    over the box weights ``alpha j - i`` (the contents at ``alpha = 1``).

    With ``alpha = p/q`` in lowest terms, each partition's sequences are
    those of the integer weights ``p j - q i``, built once by the
    ``_content_coefficient`` memo: every term is integral and ``q^r``
    times the true one (``content_sequences`` is homogeneous), so the
    caller divides each total by ``q^r``.
    """
    caps, monomial = _caps_or_monomial(gspec, caps, monomial)
    alpha = Fraction(alpha)

    def factor(lam):
        sequences = _content_coefficient(lam, gspec, r_max, alpha.numerator, alpha.denominator)
        return _content_terms(sequences, gspec, caps, monomial)
    return factor


@lru_cache(maxsize=4096)
def _content_coefficient(lam: Partition, gspec: GSpec, r_max: int, p: int, q: int):
    """``content_sequences`` to ``r_max`` of the integer box weights
    ``p j - q i`` of ``lam`` (its contents at p = q = 1), kept across
    calls: a process's later requests, connected sub-degrees and ``verify
    jack``'s b = 0 check ask for the same partition, blocks and order.
    ``verify oracle`` reads one entry per partition and degree, at L = M =
    1, for every monotone gspec of its block lists."""
    weights = [p * j - q * i for i, row in enumerate(lam) for j in range(row)]
    return content_sequences(weights, gspec, r_max)


def hypergeometric_hurwitz_sweep(r_values, gspec: GSpec, profiles=(), *,
                                 d: int | None = None, connected: bool = False,
                                 caps: tuple[int, ...] | None = None,
                                 monomial: tuple[int, ...] | None = None
                                 ) -> list[HurwitzResult]:
    """``hypergeometric_hurwitz`` at every r of ``r_values``, in one pass.

    The values are one ``_character_sweep`` over ``content_factor``.
    Connected, the exponential formula's products drop the monomials beyond
    ``caps`` (or beyond ``monomial``, whose coefficient is then taken).
    """
    r_values = _orders(r_values)
    d, profiles = _resolve_degree(profiles, d)
    r_max = max(r_values, default=0)
    caps, monomial = _caps_or_monomial(gspec, caps, monomial)
    cap = monomial if connected and monomial is not None else caps
    factor = content_factor(gspec, r_max, caps=cap, monomial=None if connected else monomial)
    values = _character_sweep(factor, r_values, profiles, d, connected=connected, caps=cap)
    return [HurwitzResult(
        kind="hypergeometric", d=d, r=r, profiles=profiles, connected=connected,
        value=_content_value(values[r], gspec.nvars, monomial), gspec=gspec,
        genus=rh_genus(r, 1, d, profiles),
    ) for r in r_values]


def hypergeometric_hurwitz(r: int, gspec: GSpec, profiles=(), *,
                           d: int | None = None, connected: bool = False,
                           caps: tuple[int, ...] | None = None,
                           monomial: tuple[int, ...] | None = None) -> HurwitzResult:
    """[z^r] of the content-product character sum for a rational weight.

    The value is a MultiPoly whose coefficient of
    ``u1^a1 .. v1^b1 ..`` refines the count by the number of
    transpositions drawn from each monotone block.  ``caps`` bounds the
    tracked degree per formal variable (coefficients inside the caps
    stay exact); with ``monomial`` the value is that one coefficient.
    """
    return hypergeometric_hurwitz_sweep((r,), gspec, profiles, d=d, connected=connected,
                                        caps=caps, monomial=monomial)[0]


def mixed_simple_hypergeometric(r_simple: int, r: int, gspec: GSpec, profiles=(),
                                *, d: int | None = None,
                                caps: tuple[int, ...] | None = None,
                                monomial: tuple[int, ...] | None = None):
    """Disconnected count mixing r_simple unconstrained transpositions with
    the rational-weight blocks of ``gspec`` at z-order ``r``: a MultiPoly,
    or the coefficient of ``monomial``.  One ``_character_sweep`` over
    ``content_factor`` times ``f_bar(lam, 2)^r_simple``.

    Each central factor acts on an irreducible block by its scalar
    eigenvalue, so the weights simply multiply.
    """
    _orders((r_simple,), "r_simple")
    _orders((r,))
    d, profiles = _resolve_degree(profiles, d)
    content = content_factor(gspec, r, caps=caps, monomial=monomial)

    def factor(lam):  # f_bar(lam, 2) is an integer: Q_2 = 1
        term, simple = content(lam), _scaled_f_bar(lam, 2, 1) ** r_simple
        return lambda r: term(r) * simple
    value = _character_sweep(factor, (r,), profiles, d)[r]
    return _content_value(value, gspec.nvars, monomial)


# ---------------------------------------------------------------------------
# Connected numbers by the exponential formula
# ---------------------------------------------------------------------------

def _sub_multisets(mu: Partition, size: int):
    """Every split ``(sub, rest)`` of mu into a sub-multiset of the given
    total and the parts left over, both sorted, larger parts taken first."""
    multiplicities = class_data(mu).multiplicities

    def rec(idx, remaining):
        if idx == len(multiplicities):
            if remaining == 0:
                yield (), ()
            return
        p, m = multiplicities[idx]
        for take in range(min(m, remaining // p), -1, -1):
            for sub, rest in rec(idx + 1, remaining - take * p):
                yield (p,) * take + sub, (p,) * (m - take) + rest

    yield from rec(0, size)


@lru_cache(maxsize=4096)
def _profile_splits(profiles, d1: int) -> tuple:
    """``(P1, P - P1)`` for every choice of a sub-multiset ``P1_j`` of
    total ``d1`` of each profile ``P_j``."""
    return tuple(
        (tuple(sub for sub, _ in split), tuple(rest for _, rest in split))
        for split in itertools.product(*(_sub_multisets(mu, d1) for mu in profiles)))


def _exponential_formula(a, product, profiles, d: int, keys=None) -> dict:
    """The connected totals at (``profiles``, ``d``) from the disconnected
    ones, by the exponential formula.

    Let ``h(c, P, d)`` be a disconnected value with ``c`` insertions
    (counted per type) times the profile class sizes.  Summed against
    ``x^d y^c / c!`` (``h`` already carries the sheets' ``1/d!``), with
    the profile parts as ordinary variables, the series of ``h`` is the
    exponential of the series of its connected part ``h°``.  The sheet
    derivative of that identity is the recursion on the component that
    holds sheet 1 (Stanley, EC2 §5.1).  It is solved on the disconnected
    totals ``a(P, d)``, scaled by ``d!^2`` (``_scale``), and the same
    scaling ``b`` of ``h°``, where ``d1 C(d, d1)^2 / d = C(d, d1)
    C(d-1, d1-1)`` takes the place of the ``1/d``::

        b(P, d) = a(P, d) - sum_{d1 < d} C(d, d1) C(d-1, d1-1)
            sum_{P1 within P, |P1_j| = d1} b(P1, d1) * a(P - P1, d - d1)

    ``a(P, d)`` and ``b(P, d)`` are {key: coefficient} dicts, keyed by
    the insertion counts ``c`` or, on spectra, by eigenvalues.
    ``product(out, first, second, weight, keys)`` adds ``weight`` times
    the terms of ``first * second`` into ``out``, only those at ``keys``
    unless it is None: ``_spectrum_product`` or a ``_count_product``.
    Both dicts are memoized per (profiles, degree) and hold no zero
    coefficient; ``a(P - P1, d - d1)`` is read only when the ``b`` it
    multiplies is nonempty.  The top degree keeps only ``keys`` (None:
    every key), and its ``b`` is returned.  Profile splits are cached
    across calls (``_profile_splits``).
    """
    a_memo: dict = {}
    b_memo: dict = {}

    def disconnected(profs, dd):
        if (profs, dd) not in a_memo:
            a_memo[profs, dd] = {k: v for k, v in a(profs, dd).items() if v != 0}
        return a_memo[profs, dd]

    def b(profs, dd):
        if (profs, dd) in b_memo:
            return b_memo[profs, dd]
        top = keys if dd == d else None
        out = {k: v for k, v in disconnected(profs, dd).items() if top is None or k in top}
        for d1 in range(1, dd):
            pairs = math.comb(dd, d1) * math.comb(dd - 1, d1 - 1)
            for p1, p2 in _profile_splits(profs, d1):
                first = b(p1, d1)
                if first:
                    product(out, first, disconnected(p2, dd - d1), -pairs, top)
        b_memo[profs, dd] = out = {k: v for k, v in out.items() if v != 0}
        return out

    return b(profiles, d)


def _spectrum_product(out, first, second, weight, keys):
    """``out += weight * first * second`` on spectra: coefficients multiply
    and keys (eigenvalues) add."""
    for m, x in first.items():
        x *= weight
        for n, y in second.items():
            if keys is None or m + n in keys:
                out[m + n] = out.get(m + n, 0) + x * y


def _count_product(bound: tuple[int, ...], caps=None):
    """``out += weight * first * second`` on insertion counts: the term
    of ``c1`` and ``c2`` goes to ``c = c1 + c2`` with the weight ``prod_t
    C(c_t, c1_t)``, for every ``c <= bound``; ``caps`` drops the
    monomials beyond them."""
    def product(out, first, second, weight, keys):
        for c1, x in first.items():
            for c2, y in second.items():
                c = tuple(map(operator.add, c1, c2))
                if c in keys if keys is not None else all(map(operator.le, c, bound)):
                    term = x * y if caps is None else x.mul(y, caps)
                    term = term * (weight * math.prod(map(math.comb, c, c1)))
                    out[c] = out[c] + term if c in out else term
    return product


def connected_transform_multi(evaluator, counts: tuple[int, ...], profiles, *,
                              d: int, denominators: tuple[int, ...] | None = None,
                              caps: tuple[int, ...] | None = None) -> Fraction | MultiPoly:
    """Connected value from a disconnected evaluator with typed insertions.

    ``counts`` lists how many insertions of each type the instance
    carries.  The evaluator is called as ``evaluator(sub_counts,
    sub_profiles, sub_degree)`` and returns the disconnected number (a
    Fraction, an int or a MultiPoly) in the same normalization as the
    target, once per sub-instance: below the top degree at every
    ``sub_counts <= counts``, at the top degree only at ``counts``.  Each
    value times its scale ``d!^2 prod |C_P| prod_t Q_t^{c_t}``
    (``Q_t = denominators[t]``, default 1) is an integral total, and
    ``_exponential_formula`` solves the recursion over the insertion
    counts (``_count_product``) on them.  The connected value is the
    top total divided once by its scale.  ``caps`` drops the monomials
    beyond it from every product of polynomial values.
    """
    d, profiles = _resolve_degree(profiles, d)
    counts = tuple(_orders(counts))
    denominators = (1,) * len(counts) if denominators is None else tuple(denominators)
    below = list(itertools.product(*(range(m + 1) for m in counts)))

    def scale(sub_counts, base):
        return base * math.prod(map(pow, denominators, sub_counts))

    def disconnected(profs, dd):
        base = _scale(profs, dd)
        return {c: _integral(evaluator(c, profs, dd) * scale(c, base))
                for c in ((counts,) if dd == d else below)}
    totals = _exponential_formula(disconnected, _count_product(counts, caps), profiles, d,
                                  {counts})
    return _over(totals.get(counts, 0), scale(counts, _scale(profiles, d)))


def connected_transform(evaluator, r: int, profiles=(), *, d: int | None = None):
    """Connected number from a disconnected evaluator over (r, profiles),
    the one-count case of ``connected_transform_multi``."""
    return connected_transform_multi(lambda counts, profs, dd: evaluator(counts[0], profs, dd),
                                     (r,), profiles, d=d)


def connected_spectrum(s: int, profiles, d: int) -> tuple[int, dict[int, int]]:
    """The connected completed-cycle numbers at every r, as ``(D, B)``:
    the number with r completed (s+1)-cycles is ``sum_F B[F] F^r / (D
    Q^r)``, with ``D = d!^2 prod |C_P|``, ``Q = f_bar_denominator(s + 1)``
    and ``B`` an {integer eigenvalue ``F = f_bar(lam, s+1) Q``: nonzero
    integer} dict (``0**0 == 1`` keeps the key 0 exact at r = 0).

    The disconnected total with c insertions is ``sum_F A[F] F^c``, ``A``
    its ``completed_spectrum``, and since ``sum_{c1} C(c, c1) m^{c1}
    n^{c - c1} = (m + n)^c`` the recursion over the insertion counts holds
    eigenvalue by eigenvalue, with no r in it: ``_exponential_formula`` on
    the spectra, whose products add keys (``_spectrum_product``).
    """
    d, profiles = _resolve_degree(profiles, d)
    return _scale(profiles, d), _exponential_formula(
        lambda profs, dd: completed_spectrum(s, profs, dd)[1], _spectrum_product,
        profiles, d)


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
    d, profiles = _resolve_degree(profiles, d)
    denominator, spectrum = completed_spectrum(s, profiles, d)
    q = f_bar_denominator(s + 1)
    # the weight W/D times d!^2, halved for even s
    scale = denominator // math.factorial(d) ** 2 * (1 if s % 2 else 2)
    # for odd s the transpose of each positive key carries its negative
    return {Fraction(f, q): Fraction(a, scale) for f, a in spectrum.items()
            if s % 2 == 0 or f > 0}


def structure_resummation(r: int, s: int, profiles=(), *, d: int | None = None
                          ) -> Fraction:
    """(2/d!^2) sum_m C(m) m^r -- must match the direct character sum at
    every admissible r >= 1."""
    d, profiles = _resolve_degree(profiles, d)
    return resum_structure(structure_coefficients(s, profiles, d=d), r, d)


def resum_structure(coeffs: dict[Fraction, Fraction], r: int, d: int) -> Fraction:
    """(2/d!^2) sum_m C(m) m^r of the structure coefficients of degree d.

    The sum runs on integer numerators over one common denominator of the
    keys (``Q``) and one of the coefficients (``P``):
    ``sum (C P) (m Q)^r / (P Q^r)``, divided once."""
    q = math.lcm(*(m.denominator for m in coeffs))
    p = math.lcm(*(c.denominator for c in coeffs.values()))
    total = sum(c.numerator * (p // c.denominator) * (m.numerator * (q // m.denominator)) ** r
                for m, c in coeffs.items())
    return Fraction(2 * total, p * q**r * math.factorial(d) ** 2)


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
    d, (mu,) = _resolve_degree((mu,), None)
    r_values = _orders(r_values)
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
    d, (mu, nu) = _resolve_degree((mu, nu), None)
    ins = _normalize_insertions(insertions)
    orders = tuple(s for s, _ in ins)
    counts = tuple(m for _, m in ins)
    denominators = tuple(f_bar_denominator(s + 1) for s in orders)

    def mixed(sub_counts, profs, dd):
        def factor(lam):
            return math.prod(_scaled_f_bar(lam, s + 1, q) ** m
                             for s, q, m in zip(orders, denominators, sub_counts) if m)
        return character_sum(dd, profs, factor,
                             math.prod(q**m for q, m in zip(denominators, sub_counts)))

    if connected:
        value = connected_transform_multi(mixed, counts, (mu, nu), d=d,
                                          denominators=denominators)
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
    _, (mu, nu) = _resolve_degree((mu, nu), None)
    weight = sum(s * m for s, m in _normalize_insertions(insertions))
    return Fraction(weight + 2 - len(mu) - len(nu), 2)
