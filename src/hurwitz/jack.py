"""Jack polynomials in the power-sum basis and the b-deformed engine.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .core import GSpec, _resolve_degree, content_product
from .errors import DomainError, SingularParameterError, SizeLimitError
from .exactnum import MultiPoly
from .partitions import (
    Partition,
    check_partition,
    class_data,
    enumerate_partitions,
    transpose,
)

DEFAULT_JACK_CEILING = 8


# ---------------------------------------------------------------------------
# Power sums versus monomial symmetric functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _p_in_m_matrix(d: int) -> tuple[tuple[int, ...], ...]:
    """Row mu, column lam: the coefficient of m_lam in p_mu.

    Equals the number of ways to assign the (labelled) parts of mu to
    the slots of lam so that every slot fills exactly.
    """
    parts = enumerate_partitions(d)

    def count(mu: Partition, lam: Partition) -> int:
        slots = list(lam)

        def rec(idx: int) -> int:
            if idx == len(mu):
                return 1 if all(s == 0 for s in slots) else 0
            total = 0
            for i, s in enumerate(slots):
                if s >= mu[idx]:
                    slots[i] -= mu[idx]
                    total += rec(idx + 1)
                    slots[i] += mu[idx]
            return total

        return rec(0)

    return tuple(tuple(count(mu, lam) for lam in parts) for mu in parts)


@lru_cache(maxsize=None)
def _m_in_p_matrix(d: int) -> tuple[tuple[Fraction, ...], ...]:
    """Row lam: the expansion of m_lam over the p basis (matrix inverse)."""
    parts = enumerate_partitions(d)
    n = len(parts)
    a = [[Fraction(v) for v in row] for row in _p_in_m_matrix(d)]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise DomainError("power-sum transition matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    # p = A m with A = p_in_m, so row lam of A^{-1} expands m_lam over the p's
    return tuple(tuple(row) for row in inv)


# ---------------------------------------------------------------------------
# Jack basis by Gram-Schmidt
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PSumExpansion:
    """A degree-d symmetric function as exact coefficients over p_mu."""

    degree: int
    alpha: Fraction
    coeffs: tuple[tuple[Partition, Fraction], ...]

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


def _check_jack_degree(d: int, ceiling: int):
    if d > ceiling:
        raise SizeLimitError(f"degree {d} exceeds the Jack ceiling {ceiling}")


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


def jack_in_psums(lam, alpha, ceiling: int = DEFAULT_JACK_CEILING) -> PSumExpansion:
    """J-normalised Jack polynomial of shape lam over the power-sum basis."""
    lam = check_partition(lam)
    d = sum(lam)
    _check_jack_degree(d, ceiling)
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


def jack_character(lam, mu, alpha, ceiling: int = DEFAULT_JACK_CEILING) -> Fraction:
    """Normalised Jack character: coefficient of p_mu in J_lam over |class(mu)|."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise DomainError(f"size mismatch: |{lam}| != |{mu}|")
    expansion = jack_in_psums(lam, alpha, ceiling)
    return expansion.coefficient(mu) / class_data(mu).class_size


# ---------------------------------------------------------------------------
# b-content Hurwitz coefficients
# ---------------------------------------------------------------------------

def deformed_contents(lam, alpha) -> list[Fraction]:
    """Box weights alpha*(j-1) - (i-1), row by row (1-based boxes)."""
    lam = check_partition(lam)
    alpha = Fraction(alpha)
    return [alpha * j - i for i, p in enumerate(lam) for j in range(p)]


def b_hurwitz_coefficient(r: int, gspec: GSpec, profiles=(), b=0, *,
                          d: int | None = None,
                          caps: tuple[int, ...] | None = None,
                          ceiling: int = DEFAULT_JACK_CEILING) -> MultiPoly:
    """[z^r] of the b-deformed content-product sum, exact in u's and v's.

    At b = 0 this coincides with the undeformed hypergeometric engine.
    """
    if r < 0:
        raise DomainError(f"r must be nonnegative: {r}")
    d, profiles = _resolve_degree(profiles, d)
    _check_jack_degree(d, ceiling)
    alpha = Fraction(b) + 1
    if alpha == 0:
        raise SingularParameterError("b = -1 degenerates the deformation (alpha = 0)")

    total = MultiPoly.zero(gspec.nvars)
    for lam in enumerate_partitions(d):
        norm = jack_norm(lam, alpha)
        if norm == 0:
            raise SingularParameterError(
                f"vanishing Jack norm at {lam} for alpha={alpha}"
            )
        weight = Fraction(1) / norm
        for mu in profiles:
            theta = jack_character(lam, mu, alpha, ceiling)
            if theta == 0:
                weight = Fraction(0)
                break
            weight *= theta
        if weight == 0:
            continue
        coefficient = content_product(deformed_contents(lam, alpha), gspec, r, caps)
        total = total + coefficient.scale(weight)
    return total
