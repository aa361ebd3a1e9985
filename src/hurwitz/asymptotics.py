"""Closed-form large-genus leading terms and exact-vs-asymptotic reports.

Every leading term is evaluated in exact rational arithmetic; ratios
are formed exactly and only rendered to decimal strings of
``RATIO_DIGITS`` significant digits, so reports carry no rounding noise.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from .core import (GSpec, _degrees, _normalize_insertions, _orders, _resolve_degree,
                   content_sequences, m_ds)
from .errors import DomainError, EmptyReportError
from .exactnum import MultiPoly, exact, format_rational, stirling
from .partitions import class_data, contents
from .records import Frozen, set_field

# significant digits of a rendered ratio, about 128 bits
RATIO_DIGITS = 38


# ---------------------------------------------------------------------------
# Dominant pole coefficients
# ---------------------------------------------------------------------------

def _stirling_tables(d: int, k: int, v_order: int):
    """``_pole_constant`` as the scalar (d-1)^{(d-2)K}/(d!^2 (d-2)!^K) and
    the int rows e[a] = [d; d-a] for a < d and h[b] = {b+d-1; d-1} for
    b <= ``v_order``: A = scalar * prod e[a_i] * prod h[b_j] / (d-1)^{|a|+|b|}."""
    scalar = Fraction((d - 1) ** ((d - 2) * k),
                      math.factorial(d) ** 2 * math.factorial(d - 2) ** k)
    e = [stirling(1, d, d - a) for a in range(d)]
    h = [stirling(2, b + d - 1, d - 1) for b in range(v_order + 1)]
    return scalar, e, h


def _pole_constant(d: int, k: int, a_vec=(), b_vec=()) -> Fraction:
    """The Stirling pole constant A of the monomial u^a_vec v^b_vec,

        A = (d-1)^{(d-2)K - sum a - sum b} prod [d; d-a_i] prod {b_j+d-1; d-1}
            / (d!^2 (d-2)!^K),

    0 when some a_i >= d.  A pole of order K at 1/(d-1) with top
    coefficient A adds A r^{K-1}/(K-1)! (d-1)^r to [z^r] (Flajolet and
    Sedgewick, Analytic Combinatorics, Thm IV.9).
    """
    if k < 1:
        raise DomainError(f"need K >= 1, got {k}")
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    a_vec, b_vec = _degrees("a", a_vec), _degrees("b", b_vec)
    if max(a_vec, default=0) >= d:
        return Fraction(0)
    scalar, e, h = _stirling_tables(d, k, max(b_vec, default=0))
    numerator = math.prod(e[a] for a in a_vec) * math.prod(h[b] for b in b_vec)
    return scalar * Fraction(numerator, (d - 1) ** (sum(a_vec) + sum(b_vec)))


def _check_pole(d: int, gspec: GSpec, profiles, sign: int, v_order: int) -> bool:
    """Check the arguments of a pole coefficient; whether the profile
    sign (+-1)^{Nd - sum l} flips it (only at the column pole)."""
    if gspec.K < 1:
        raise DomainError("pole_coefficient needs at least one literal pole (K >= 1)")
    if d < 2:
        raise DomainError(f"degree {d} has no pole (need d >= 2)")
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if v_order < 0:
        raise DomainError(f"v_order must be nonnegative, got {v_order}")
    _, profiles = _resolve_degree(profiles, d)
    return sign == -1 and (d * len(profiles) - sum(map(len, profiles))) % 2 == 1


def _pole(d: int, gspec: GSpec, flip: bool, scalar: Fraction, e, h) -> MultiPoly:
    """The coefficient scalar * prod e[a_i] * prod h[b_j] / (d-1)^{|a|+|b|}
    of every u^a v^b, negated when ``flip``, from the int rows ``e`` (to
    a = d-1: the u part is a polynomial of that degree) and ``h`` (to
    ``v_order``), ``None`` without u or v blocks.  The box is walked on
    integer numerators, and each term is divided once."""
    terms = [((), -scalar.numerator if flip else scalar.numerator)]
    for row in [e] * gspec.L + [h] * gspec.M:
        terms = [(expo + (i,), n * x) for expo, n in terms for i, x in enumerate(row) if x]
    poly = MultiPoly(gspec.nvars)
    poly.terms = {expo: Fraction(n, scalar.denominator * (d - 1) ** sum(expo))
                  for expo, n in terms}
    return poly


def _pole_read(gspec: GSpec, flip: bool, scalar: Fraction, e, h) -> tuple:
    """What ``_pole`` reads of its inputs: the signed scalar, the ``e`` row
    when ``gspec`` has u blocks and the ``h`` row when it has v blocks,
    each without its trailing zeros (``_pole`` skips zero entries).  Equal
    reads give equal polynomials."""
    def trimmed(row, blocks):
        if not blocks:
            return None
        while row and not row[-1]:
            row = row[:-1]
        return tuple(row)
    return -scalar if flip else scalar, trimmed(e, gspec.L), trimmed(h, gspec.M)


def _limit_inputs(d: int, gspec: GSpec, profiles, sign: int, v_order: int) -> tuple:
    """``_pole``'s inputs (flip, scalar, e, h) by literal limit evaluation:
    see ``pole_coefficient``."""
    flip = _check_pole(d, gspec, profiles, sign, v_order)
    m = d - 1
    signed = [sign * c for c in contents((d,) if sign == 1 else (1,) * d)]
    e, h, _ = content_sequences(signed, gspec, max(m, v_order))
    # c = m is the vanishing factor the pole cancels
    rest = [c for c in signed if c and c != m]
    limit = Fraction(m ** (gspec.K * len(rest)),
                     math.factorial(d) ** 2 * math.prod((m - c) ** gspec.K for c in rest))
    # e_k vanishes beyond the d-1 nonzero contents; h is read to v_order
    return flip, limit, e, h and h[:v_order + 1]


def _stirling_inputs(d: int, gspec: GSpec, profiles, sign: int, v_order: int) -> tuple:
    """``_pole``'s inputs (flip, scalar, e, h) from the Stirling tables of
    the pole constant (``_stirling_tables``)."""
    flip = _check_pole(d, gspec, profiles, sign, v_order)
    return (flip, *_stirling_tables(d, gspec.K, v_order))


def pole_coefficient(d: int, gspec: GSpec, profiles=(), sign: int = 1, *,
                     v_order: int = 6) -> MultiPoly:
    """Top coefficient A of the dominant pole at z = sign/(d-1), which adds
    ~ A r^{K-1}/(K-1)! (sign (d-1))^r to [z^r], by literal limit evaluation.

    A is exact in the u's and truncated at ``v_order`` in each v (an
    honest power series there).  Only the row partition (sign +) or the
    column partition (sign -) reaches the extreme content +-(d-1);
    cancelling the vanishing literal factor of that box and substituting
    z = sign/(d-1) in every remaining factor gives the limit exactly.  The
    u and v factors of every box, the vanishing one included, multiply to
    the e and h sequences of the scaled contents c z: those of the integer
    contents ``sign c`` (``content_sequences``, on ints) over (d-1)^k and
    (d-1)^n.  The other literal factors, ``1/(1 - sign c/(d-1))^K``, are
    one scalar (``_limit_inputs``).
    """
    return _pole(d, gspec, *_limit_inputs(d, gspec, profiles, sign, v_order))


def pole_coefficient_stirling(d: int, gspec: GSpec, profiles=(), sign: int = 1, *,
                              v_order: int = 6) -> MultiPoly:
    """The same coefficient, read from the Stirling tables of the pole
    constant; the u/v series are identical at both poles (content and z0
    signs cancel)."""
    return _pole(d, gspec, *_stirling_inputs(d, gspec, profiles, sign, v_order))


# ---------------------------------------------------------------------------
# Leading terms as r-sweeps: one constant per family, then the transfer at
# each r; each single-r function is the one-r case of its sweep
# ---------------------------------------------------------------------------

def first_r(k: int) -> int:
    """The first r with a nonzero transfer: r^{K-1} vanishes at r = 0
    once K >= 2."""
    return 1 if k >= 2 else 0


def _transfer(r_values, d: int, k: int, constant) -> dict:
    """{r: constant * r^{K-1}/(K-1)! * (d-1)^r}, the leading term of [z^r]
    at a pole of order K at 1/(d-1); 0 below ``first_r(k)``."""
    fact = math.factorial(k - 1)
    return {r: Fraction(r ** (k - 1), fact) * (d - 1) ** r * constant
            for r in _orders(r_values)}


def monotone_leading_sweep(r_values, d: int, k: int, a_vec=(), b_vec=()) -> dict:
    """Leading terms for rational weights with K weak blocks growing with r.

    The transfer 2 * r^{K-1}/(K-1)! * (d-1)^r * A of the pole constant A
    (``_pole_constant``), the poles at +-(d-1) adding alike.  Every term
    is 0 when some a_i >= d (the Stirling factor vanishes).
    """
    return _transfer(r_values, d, k, 2 * _pole_constant(d, k, a_vec, b_vec))


def monotone_leading_term(r: int, d: int, k: int, a_vec=(), b_vec=()) -> Fraction:
    return monotone_leading_sweep((r,), d, k, a_vec, b_vec)[r]


def completed_leading_sweep(r_values, d: int, s: int) -> dict:
    """{r: (2/d!^2) * M_{d,s}^r} for the completed-cycle family."""
    scale, m = Fraction(2, math.factorial(d) ** 2), m_ds(d, s)
    return {r: scale * m ** r for r in _orders(r_values)}


def completed_leading_term(r: int, d: int, s: int) -> Fraction:
    return completed_leading_sweep((r,), d, s)[r]


def b_leading_sweep(r_values, d: int, n_profiles: int, ell_sum: int, k: int,
                    a_vec=(), b_vec=(), b=0) -> dict:
    """Leading terms of the b-deformed family at a rational b, exact in Q.

    The regime is decided by comparing |alpha| with 1 exactly, alpha =
    b+1; at |alpha| = 1 (alpha = +-1) both dominant poles contribute and
    their regime factors add.  Each pole carries the Jack norm of its own
    extreme partition: d! prod (1+m*alpha) for the row, d! alpha prod
    (m+alpha) for the column (as the hook-product norm gives; the two
    agree only at alpha = 1).
    """
    constant = _pole_constant(d, k, a_vec, b_vec)
    # the Jack norms below replace the d! of the constant's d!^2
    common = _transfer(r_values, d, k, constant * math.factorial(d))
    alpha = Fraction(exact(b)) + 1
    if not constant:
        return dict.fromkeys(common, Fraction(0))
    norm_row, norm_col = 1, alpha
    for m in range(1, d):
        norm_row *= 1 + alpha * m
        norm_col *= alpha + m
    row, col = abs(alpha) >= 1, abs(alpha) <= 1
    if row and norm_row == 0:
        raise DomainError(f"degenerate deformation: row norm vanishes at b+1={alpha}")
    if col and norm_col == 0:
        raise DomainError(f"degenerate deformation: column norm vanishes at b+1={alpha}")
    out = {}
    for r, c in common.items():
        term = 0
        if row:
            term += alpha ** (r + (n_profiles - 1) * d - ell_sum) * norm_row ** -1
        if col:
            term += (-1) ** ((r + n_profiles * d - ell_sum) % 2) * norm_col ** -1
        out[r] = term * c
    return out


def b_leading_term(r: int, d: int, n_profiles: int, ell_sum: int, k: int,
                   a_vec=(), b_vec=(), b=0):
    return b_leading_sweep((r,), d, n_profiles, ell_sum, k, a_vec, b_vec, b)[r]


def gw_leading_sweep(m_values, mu, nu, s: int, insertions=()) -> dict:
    """{m: (2/(z(mu) z(nu) d!^2)) * prod_t (M_{d,t}/t!)^{n_t} * (M_{d,s}/s!)^m}
    over counts m of order-s insertions, beside the fixed ``insertions``
    {t: n_t}."""
    d, (mu, nu) = _resolve_degree((mu, nu), None)
    acc = Fraction(2, class_data(mu).stabilizer * class_data(nu).stabilizer
                   * math.factorial(d) ** 2)
    for t, n in _normalize_insertions(insertions):
        acc *= (m_ds(d, t) / math.factorial(t)) ** n
    step = m_ds(d, s) / math.factorial(s)
    return {m: acc * step ** m for m in _orders(m_values)}


def gw_leading_term(mu, nu, insertions) -> Fraction:
    """The leading term at the insertions {s: m_s}: the sweep at m = 0."""
    return gw_leading_sweep((0,), mu, nu, 1, insertions)[0]


# ---------------------------------------------------------------------------
# Ratio reports
# ---------------------------------------------------------------------------

def _decimal_str(q: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = RATIO_DIGITS
        return str(Decimal(q.numerator) / Decimal(q.denominator))


class RatioEntry(Frozen):
    __slots__ = ("r", "exact", "asymptotic", "ratio", "ratio_decimal")

    def __init__(self, r: int, exact: Fraction, asymptotic: Fraction, ratio: Fraction,
                 ratio_decimal: str):
        set_field(self, "r", r)
        set_field(self, "exact", exact)
        set_field(self, "asymptotic", asymptotic)
        set_field(self, "ratio", ratio)
        set_field(self, "ratio_decimal", ratio_decimal)


class RatioReport(Frozen):
    """Exact/asymptotic comparison over an r sweep, zero rows dropped."""

    __slots__ = ("entries", "final_error", "final_error_decimal", "monotone_from",
                 "diverging")

    def __init__(self, entries: tuple[RatioEntry, ...], final_error: Fraction,
                 final_error_decimal: str, monotone_from: int, diverging: bool):
        set_field(self, "entries", entries)
        set_field(self, "final_error", final_error)
        set_field(self, "final_error_decimal", final_error_decimal)
        set_field(self, "monotone_from", monotone_from)
        set_field(self, "diverging", diverging)

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "r": e.r,
                    "exact": format_rational(e.exact),
                    "asymptotic": format_rational(e.asymptotic),
                    "ratio": e.ratio_decimal,
                }
                for e in self.entries
            ],
            "final_abs_error": self.final_error_decimal,
            "monotone_from": self.monotone_from,
            "diverging": self.diverging,
        }

    def csv_rows(self) -> list[list[str]]:
        rows = [["r", "exact", "asymptotic", "ratio"]]
        for e in self.entries:
            rows.append([
                str(e.r), format_rational(e.exact),
                format_rational(e.asymptotic), e.ratio_decimal,
            ])
        return rows


def ratio_report(exact_fn, asymptotic_fn, r_values) -> RatioReport:
    """Tabulate exact/asymptotic ratios over ``r_values``.

    Rows with exact value 0 are dropped (that is the parity filter); if
    every row drops, the request was vacuous and raises
    ``EmptyReportError``.
    """
    entries = []
    for r in r_values:
        exact = Fraction(exact_fn(r))
        if exact == 0:
            continue
        asym = Fraction(asymptotic_fn(r))
        if asym == 0:
            raise DomainError(f"asymptotic value vanishes at r={r} while exact does not")
        ratio = exact / asym
        entries.append(RatioEntry(r, exact, asym, ratio, _decimal_str(ratio)))
    if not entries:
        raise EmptyReportError("every exact value in the requested range is zero")
    errors = [abs(e.ratio - 1) for e in entries]
    i = len(errors) - 1  # back to the start of the non-increasing tail
    while i and errors[i] <= errors[i - 1]:
        i -= 1
    return RatioReport(
        entries=tuple(entries),
        final_error=errors[-1],
        final_error_decimal=_decimal_str(errors[-1]),
        monotone_from=entries[i].r,
        diverging=len(errors) > 1 and errors[-1] > errors[0],
    )
