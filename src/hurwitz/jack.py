"""Jack polynomials in the power-sum basis and the b-deformed engine.

The monomial symmetric functions enter over the power sums through one
triangular solve: p_mu expands over the monomials of the coarsenings of
mu, which dominate mu and so come first in canonical order.

Jack polynomials are computed by Gram-Schmidt over monomial symmetric
functions in dominance order, under the deformed Hall product
``<p_lam, p_mu> = delta * z(lam) * alpha^len(lam)``.  The reverse-lex
partition order is a linear extension of dominance, and the Jack family
is the unique dominance-unitriangular orthogonal family, so the
orthogonalisation lands exactly on it.  The J-normalisation pins the
coefficient of ``p_1^d`` to 1 (equivalently the monomial ``m_{1^d}``
carries coefficient d!).

The b-deformed Hurwitz engine replaces squared dimensions by Jack
norms, characters by Jack characters, and each box content ``j - i`` by
``(b+1)(j-1) - (i-1)``.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache

from .core import (GSpec, _as_polynomial, _orders, _resolve_degree, content_product,
                   weighted_sweep)
from .errors import DomainError, SingularParameterError, SizeLimitError
from .exactnum import MultiPoly
from .partitions import (
    Partition,
    check_partition,
    class_data,
    enumerate_partitions,
    transpose,
)
from .records import Frozen, set_field

DEFAULT_JACK_CEILING = 8


# ---------------------------------------------------------------------------
# Power sums versus monomial symmetric functions
# ---------------------------------------------------------------------------

def _fills(parts: Partition, slots: tuple[int, ...], memo: dict) -> int:
    """The ways to send each of the labelled ``parts`` to one of the
    ``slots`` (capacities in decreasing order) so that every slot fills
    exactly; ``memo`` holds one row's counts, keyed on (parts left,
    capacities left)."""
    if not parts:
        return 1  # the capacities left sum to 0
    key = (len(parts), slots)
    count = memo.get(key)
    if count is None:
        first, rest = parts[0], parts[1:]
        count = memo[key] = sum(
            _fills(rest, tuple(sorted(slots[:j] + (s - first,) + slots[j + 1:], reverse=True)),
                   memo)
            for j, s in enumerate(slots) if s >= first)
    return count


@lru_cache(maxsize=None)
def _m_in_p_matrix(d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row lam: the expansion of m_lam over the p basis.

    p_mu = sum of c(mu, lam) m_lam over the coarsenings lam of mu, with c
    counted by ``_fills``.  A coarsening dominates mu, so it comes earlier
    in canonical order, and the rows solve in that order:
    m_mu = (p_mu - sum of c(mu, lam) m_lam over earlier lam) / c(mu, mu).
    """
    parts = enumerate_partitions(d)
    rows: list[tuple[Fraction, ...]] = []
    for i, mu in enumerate(parts):
        memo: dict = {}
        row = [Fraction(0)] * len(parts)
        row[i] = Fraction(1)  # p_mu
        for lam, m_lam in zip(parts, rows):
            c = _fills(mu, lam, memo)
            if c:
                row = [x - c * y for x, y in zip(row, m_lam)]
        diagonal = _fills(mu, mu, memo)
        rows.append(tuple(x / diagonal for x in row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Jack basis by Gram-Schmidt
# ---------------------------------------------------------------------------

class PSumExpansion(Frozen):
    """A degree-d symmetric function as exact coefficients over p_mu."""

    __slots__ = ("degree", "alpha", "coeffs")

    def __init__(self, degree: int, alpha: Fraction,
                 coeffs: tuple[tuple[Partition, Fraction], ...]):
        set_field(self, "degree", degree)
        set_field(self, "alpha", alpha)
        set_field(self, "coeffs", coeffs)

    def coefficient(self, mu) -> Fraction:
        mu = check_partition(mu)
        for part, c in self.coeffs:
            if part == mu:
                return c
        return Fraction(0)

    def as_dict(self) -> dict[Partition, Fraction]:
        return dict(self.coeffs)

    def to_json(self) -> dict[str, str]:
        return {",".join(map(str, mu)): str(c) for mu, c in self.coeffs}


def _check_jack_degree(d: int):
    if d > DEFAULT_JACK_CEILING:
        raise SizeLimitError(f"degree {d} exceeds the Jack ceiling {DEFAULT_JACK_CEILING}")


_jack_cache: dict[tuple[int, Fraction], dict[Partition, dict[Partition, Fraction]]] = {}
_jack_lock = threading.Lock()


def _jack_basis(d: int, alpha: Fraction) -> dict[Partition, dict[Partition, Fraction]]:
    alpha = Fraction(alpha)
    if alpha == 0:
        raise SingularParameterError("alpha = 0 degenerates the Hall product")
    key = (d, alpha)
    cached = _jack_cache.get(key)
    if cached is not None:
        return cached
    with _jack_lock:
        cached = _jack_cache.get(key)
        if cached is not None:
            return cached
        parts = enumerate_partitions(d)
        m_in_p = _m_in_p_matrix(d)
        weights = {
            mu: Fraction(class_data(mu).stabilizer) * alpha ** len(mu)
            for mu in parts
        }

        def dot(f: dict, g: dict) -> Fraction:
            acc = Fraction(0)
            for mu, c in f.items():
                other = g.get(mu)
                if other is not None:
                    acc += c * other * weights[mu]
            return acc

        basis: dict[Partition, dict[Partition, Fraction]] = {}
        norms: dict[Partition, Fraction] = {}
        # increasing dominance order = reversed canonical enumeration
        for idx in range(len(parts) - 1, -1, -1):
            lam = parts[idx]
            vec = {
                mu: c for mu, c in zip(parts, m_in_p[idx]) if c
            }
            for prev, pvec in basis.items():
                proj = dot(vec, pvec)
                if proj:
                    scale = proj / norms[prev]
                    for mu, c in pvec.items():
                        nv = vec.get(mu, Fraction(0)) - scale * c
                        if nv:
                            vec[mu] = nv
                        else:
                            vec.pop(mu, None)
            norm = dot(vec, vec)
            if norm == 0:
                raise SingularParameterError(
                    f"vanishing Gram pivot at {lam} for alpha={alpha}"
                )
            lead = vec.get((1,) * d, Fraction(0))
            if lead == 0:
                raise SingularParameterError(
                    f"vanishing p_1^{d} coefficient at {lam} for alpha={alpha}"
                )
            basis[lam] = vec
            norms[lam] = norm
        jays = {
            lam: {mu: c / basis[lam][(1,) * d] for mu, c in basis[lam].items()}
            for lam in parts
        }
        _jack_cache[key] = jays
    return jays


def jack_in_psums(lam, alpha) -> PSumExpansion:
    """J-normalised Jack polynomial of shape lam over the power-sum basis."""
    lam = check_partition(lam)
    d = sum(lam)
    _check_jack_degree(d)
    alpha = Fraction(alpha)
    vec = _jack_basis(d, alpha)[lam]
    coeffs = tuple(
        (mu, vec[mu]) for mu in enumerate_partitions(d) if mu in vec
    )
    return PSumExpansion(degree=d, alpha=alpha, coeffs=coeffs)


def jack_norm(lam, alpha) -> Fraction:
    """Squared Hall norm of J_lam: the double product over diagram boxes
    of (alpha*arm + leg + 1) and (alpha*arm + leg + alpha)."""
    lam = check_partition(lam)
    alpha = Fraction(alpha)
    lt = transpose(lam)
    out = Fraction(1)
    for i in range(len(lam)):
        for j in range(lam[i]):
            arm = lam[i] - (j + 1)
            leg = lt[j] - (i + 1)
            out *= (alpha * arm + leg + 1) * (alpha * arm + leg + alpha)
    return out


def jack_character(lam, mu, alpha) -> Fraction:
    """Normalised Jack character: coefficient of p_mu in J_lam over |class(mu)|."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    d = sum(lam)
    if d != sum(mu):
        raise DomainError(f"size mismatch: |{lam}| != |{mu}|")
    _check_jack_degree(d)
    return _jack_basis(d, alpha)[lam].get(mu, Fraction(0)) / class_data(mu).class_size


# ---------------------------------------------------------------------------
# b-content Hurwitz coefficients
# ---------------------------------------------------------------------------

def deformed_contents(lam, alpha) -> list[Fraction]:
    """Box weights alpha*(j-1) - (i-1), row by row (1-based boxes)."""
    lam = check_partition(lam)
    alpha = Fraction(alpha)
    return [alpha * j - i for i, p in enumerate(lam) for j in range(p)]


def jack_weights(d: int, profiles, b):
    """Yield ``(lam, weight)`` for every nonzero Jack weight
    prod_i theta_lam(mu_i) / j_lam at alpha = b + 1, in canonical order."""
    _check_jack_degree(d)
    alpha = Fraction(b) + 1
    if alpha == 0:
        raise SingularParameterError("b = -1 degenerates the deformation (alpha = 0)")
    for lam in enumerate_partitions(d):
        norm = jack_norm(lam, alpha)
        if norm == 0:
            raise SingularParameterError(
                f"vanishing Jack norm at {lam} for alpha={alpha}"
            )
        weight = Fraction(1) / norm
        for mu in profiles:
            theta = jack_character(lam, mu, alpha)
            if theta == 0:
                break
            weight *= theta
        else:
            yield lam, weight


def b_hurwitz_sweep(r_values, gspec: GSpec, profiles=(), b=0, *,
                    d: int | None = None,
                    caps: tuple[int, ...] | None = None) -> dict:
    """{r: [z^r] of the b-deformed content-product sum} for every r of
    ``r_values``, exact in u's and v's, in one ``weighted_sweep``.

    At b = 0 this coincides with the undeformed hypergeometric engine.
    """
    r_values = _orders(r_values)
    d, profiles = _resolve_degree(profiles, d)
    alpha = Fraction(b) + 1

    def factor(lam):
        deformed = deformed_contents(lam, alpha)
        return lambda rr: content_product(deformed, gspec, rr, caps)

    totals = weighted_sweep(jack_weights(d, profiles, b), factor, r_values)
    return {r: _as_polynomial(total, gspec.nvars) for r, total in totals.items()}


def b_hurwitz_coefficient(r: int, gspec: GSpec, profiles=(), b=0, *,
                          d: int | None = None,
                          caps: tuple[int, ...] | None = None) -> MultiPoly:
    """[z^r] of the b-deformed content-product sum, exact in u's and v's,
    the one-r case of ``b_hurwitz_sweep``."""
    return b_hurwitz_sweep((r,), gspec, profiles, b, d=d, caps=caps)[r]
