"""Exact scalar and polynomial arithmetic.

Values are exact: ``int`` while every operand is an int, else
``fractions.Fraction`` (``exact`` coerces); floats never appear (reports
render ratios through ``decimal``, see :mod:`hurwitz.asymptotics`).

``MultiPoly`` is a sparse polynomial in a fixed tuple of formal
variables (the u's and v's of rational weight functions).  ``TruncSeries``
(a z-series truncated at a fixed order, with ``MultiPoly`` coefficients)
and its factors are the independent reference for the content engine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational as _RationalABC

from .errors import DomainError


def format_rational(q: Fraction) -> str:
    """Canonical string form: ``p/q``, or just ``n`` for integers."""
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# Bernoulli numbers, zeta at negative integers, Stirling numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, convention B_1 = -1/2, by the defining recurrence."""
    if n < 0:
        raise DomainError(f"bernoulli index must be nonnegative: {n}")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli(k)
    return -acc / (n + 1)


def zeta_neg(s: int) -> Fraction:
    """zeta(-s) = -B_{s+1}/(s+1) for positive integers s."""
    if s < 1:
        raise DomainError(f"zeta_neg wants a positive integer, got {s}")
    return -bernoulli(s + 1) / (s + 1)


@lru_cache(maxsize=4096)
def _stirling(kind: int, n: int, k: int) -> int:
    """Rows 0..n of the triangle filled in place, cut at column k:
    [m+1, j] = [m, j-1] + m [m, j] and {m+1, j} = {m, j-1} + j {m, j}."""
    row = [1] + [0] * k
    for m in range(n):
        for j in range(min(m + 1, k), 0, -1):
            row[j] = row[j - 1] + (m if kind == 1 else j) * row[j]
        row[0] = 0
    return row[k]


def stirling(kind: int, n: int, k: int) -> int:
    """Unsigned Stirling numbers: kind 1 counts permutations of n with k
    cycles, kind 2 counts set partitions of n into k blocks.

    ``k > n`` returns 0 (the convention of the generating identities);
    negative arguments are domain errors.
    """
    if kind not in (1, 2):
        raise DomainError(f"stirling kind must be 1 or 2, got {kind}")
    if n < 0 or k < 0:
        raise DomainError(f"stirling arguments must be nonnegative: n={n}, k={k}")
    if k > n:
        return 0
    return _stirling(kind, n, k)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

def exact(value) -> int | Fraction:
    """An exact coefficient: an int stays an int, any other rational
    becomes a Fraction, anything else (a float) is a ``DomainError``."""
    if type(value) is int or type(value) is Fraction:
        return value
    if isinstance(value, _RationalABC):
        return Fraction(value)
    raise DomainError(f"expected a rational coefficient, got {value!r}")


class MultiPoly:
    """Sparse polynomial over a fixed number of formal variables.

    Exponent keys are tuples of length ``nvars``; zero coefficients are
    never stored, so ``terms == {}`` is the canonical zero.  Coefficients
    are ints where every operand was an int (the content products, the
    exponential formula's scaled totals), Fractions otherwise.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], int | Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != nvars:
                    raise DomainError(
                        f"exponent {expo} has arity {len(expo)}, expected {nvars}"
                    )
                if any(e < 0 for e in expo):
                    raise DomainError(f"negative exponent in {expo}")
                q = exact(coeff)
                if q:
                    self.terms[expo] = self.terms.get(expo, 0) + q
                    if not self.terms[expo]:
                        del self.terms[expo]

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise DomainError(f"variable index {index} out of range for {nvars} variables")
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {expo: 1})

    # -- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def coefficient(self, expo) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    # -- arithmetic ----------------------------------------------------
    def _check_arity(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise DomainError(f"arity mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, _RationalABC):
            other = MultiPoly.constant(self.nvars, other)
        self._check_arity(other)
        out = MultiPoly(self.nvars)
        out.terms = dict(self.terms)
        out.add_scaled(other, 1)
        return out

    __radd__ = __add__

    def add_scaled(self, other: "MultiPoly", weight) -> None:
        """``self += weight * other`` in place; ``other`` is left as it is."""
        acc = self.terms
        for expo, coeff in other.terms.items():
            s = acc.get(expo, 0) + coeff * weight
            if s:
                acc[expo] = s
            else:
                acc.pop(expo, None)

    def __neg__(self):
        out = MultiPoly(self.nvars)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, _RationalABC):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def scale(self, q) -> "MultiPoly":
        q = exact(q)
        out = MultiPoly(self.nvars)
        if q:
            out.terms = {e: c * q for e, c in self.terms.items()}
        return out

    def mul(self, other: "MultiPoly", caps=None) -> "MultiPoly":
        """Product, optionally dropping monomials whose exponent exceeds
        ``caps`` in any variable.  Since exponents only grow, all kept
        coefficients are exact."""
        self._check_arity(other)
        out = MultiPoly(self.nvars)
        out.add_product(self, other, caps)
        return out

    def add_product(self, a: "MultiPoly", b: "MultiPoly", caps=None) -> None:
        """``self += a * b`` in place, without the monomials beyond ``caps``;
        ``a`` and ``b`` are left as they are."""
        acc = self.terms
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                expo = tuple(x + y for x, y in zip(e1, e2))
                if caps is not None and any(e > cap for e, cap in zip(expo, caps)):
                    continue
                s = acc.get(expo, 0) + c1 * c2
                if s:
                    acc[expo] = s
                else:
                    acc.pop(expo, None)

    def __mul__(self, other):
        if isinstance(other, _RationalABC):
            return self.scale(other)
        return self.mul(other)

    __rmul__ = __mul__

    def truncate(self, caps) -> "MultiPoly":
        out = MultiPoly(self.nvars)
        out.terms = {
            e: c for e, c in self.terms.items()
            if all(x <= cap for x, cap in zip(e, caps))
        }
        return out

    def evaluate(self, values) -> Fraction:
        values = [Fraction(v) for v in values]
        if len(values) != self.nvars:
            raise DomainError("wrong number of values for evaluation")
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, expo):
                term *= v**e
            total += term
        return total

    # -- comparison / display -------------------------------------------
    def __eq__(self, other):
        if isinstance(other, _RationalABC):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for expo, coeff in sorted(self.terms.items()):
            mono = monomial_name(expo, default_names(self.nvars))
            bits.append(f"{coeff}*{mono}" if mono != "1" else f"{coeff}")
        return "MultiPoly(" + " + ".join(bits) + ")"

    def to_json(self, names=None) -> list[dict]:
        names = names or default_names(self.nvars)
        return [
            {"monomial": monomial_name(expo, names), "coeff": format_rational(coeff)}
            for expo, coeff in sorted(self.terms.items())
        ]


def default_names(nvars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(nvars)]


def monomial_name(expo, names) -> str:
    bits = []
    for name, e in zip(names, expo):
        if e == 1:
            bits.append(name)
        elif e > 1:
            bits.append(f"{name}^{e}")
    return " ".join(bits) if bits else "1"


# ---------------------------------------------------------------------------
# Truncated power series in z over MultiPoly
# ---------------------------------------------------------------------------

class TruncSeries:
    """Series c_0 + c_1 z + ... + c_r z^r; arithmetic truncates at order r."""

    __slots__ = ("order", "nvars", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise DomainError(f"series order must be nonnegative: {order}")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise DomainError(f"need {order + 1} coefficients, got {len(coeffs)}")
        self.order = order
        self.nvars = coeffs[0].nvars
        for c in coeffs:
            if c.nvars != self.nvars:
                raise DomainError("mixed coefficient arities in series")
        self.coeffs = coeffs

    @classmethod
    def one(cls, nvars: int, order: int) -> "TruncSeries":
        return cls(order, [MultiPoly.constant(nvars, 1)]
                   + [MultiPoly.zero(nvars) for _ in range(order)])

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if self.order != other.order:
            raise DomainError("series order mismatch")
        return TruncSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, q) -> "TruncSeries":
        return TruncSeries(self.order, [c.scale(q) for c in self.coeffs])

    def mul(self, other: "TruncSeries", caps=None) -> "TruncSeries":
        """The product truncated at the order, each coefficient product
        added into its z-coefficient in place (``MultiPoly.add_product``)."""
        if self.order != other.order:
            raise DomainError("series order mismatch")
        self.coeffs[0]._check_arity(other.coeffs[0])
        out = [MultiPoly(self.nvars) for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if not a.terms:
                continue
            for j, b in enumerate(other.coeffs[:self.order + 1 - i]):
                if b.terms:
                    out[i + j].add_product(a, b, caps)
        return TruncSeries(self.order, out)

    def __mul__(self, other):
        return self.mul(other)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TruncSeries(order={self.order}, coeffs={self.coeffs!r})"


def geometric_factor(c, weight: MultiPoly, order: int) -> TruncSeries:
    """Truncation of 1/(1 - weight*c*z): coefficients (weight*c)^j."""
    c = exact(c)
    coeffs = [MultiPoly.constant(weight.nvars, 1)]
    for _ in range(order):
        coeffs.append(coeffs[-1].mul(weight).scale(c))
    return TruncSeries(order, coeffs)


def affine_factor(c, weight: MultiPoly, order: int) -> TruncSeries:
    """The numerator factor 1 + weight*c*z (exact, degree <= 1)."""
    c = exact(c)
    coeffs = [MultiPoly.constant(weight.nvars, 1)]
    if order >= 1:
        coeffs.append(weight.scale(c))
        coeffs.extend(MultiPoly.zero(weight.nvars) for _ in range(order - 1))
    return TruncSeries(order, coeffs)


def geometric_power(c, k: int, order: int, nvars: int = 0) -> TruncSeries:
    """Truncation of 1/(1 - c*z)^k with scalar c and k >= 0."""
    if k < 0:
        raise DomainError(f"geometric power wants k >= 0, got {k}")
    if k == 0:
        return TruncSeries.one(nvars, order)
    c = exact(c)
    return TruncSeries(order, [MultiPoly.constant(nvars, math.comb(j + k - 1, j) * c ** j)
                               for j in range(order + 1)])


def coeff_z(series: TruncSeries, r: int) -> MultiPoly:
    """Exact coefficient of z^r; asking beyond the truncation is an error."""
    if r < 0 or r > series.order:
        raise DomainError(f"coefficient order {r} outside truncation 0..{series.order}")
    return series.coeffs[r]
