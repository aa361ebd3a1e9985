"""Jack polynomials in the power-sum basis and the b-deformed engine.

Jack polynomials are computed by Gram-Schmidt over the elementary
products ``e_{lam'}`` (one ``e_c`` per column length c of lam) in
dominance order, in the power-sum basis, under the deformed Hall product
``<p_lam, p_mu> = delta * z(lam) * alpha^len(lam)``.  Each ``e_c`` is
``sum over mu |- c of (-1)^(c - len(mu)) p_mu / z(mu)``, and ``e_{lam'}``
is ``m_lam`` plus monomials that lam dominates, so it spans what the
monomials span at each step.  The reverse-lex partition order is a
linear extension of dominance, and the Jack family is the unique
dominance-unitriangular orthogonal family, so the orthogonalisation
lands exactly on it.  The J-normalisation pins the coefficient of
``p_1^d`` to 1 (equivalently the monomial ``m_{1^d}`` carries
coefficient d!).

The b-deformed Hurwitz engine replaces squared dimensions by Jack
norms, characters by Jack characters, and each box content ``j - i`` by
``(b+1)(j-1) - (i-1)``.  It sums on ints: with ``b + 1 = p/q`` the box
weights are ``p(j-1) - q(i-1)`` and the Jack weights share one
denominator, so each value is divided once.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .core import (GSpec, _content_value, _orders, _over, _resolve_degree, content_factor,
                   weighted_sweep)
from .errors import DomainError, SingularParameterError, SizeLimitError
from .exactnum import MultiPoly, exact
from .partitions import (
    Partition,
    check_partition,
    class_data,
    enumerate_partitions,
    transpose,
)

DEFAULT_JACK_CEILING = 8


# ---------------------------------------------------------------------------
# Jack basis by Gram-Schmidt
# ---------------------------------------------------------------------------

def _check_jack_degree(d: int):
    if d > DEFAULT_JACK_CEILING:
        raise SizeLimitError(f"degree {d} exceeds the Jack ceiling {DEFAULT_JACK_CEILING}")


def hall_product(d: int, alpha: Fraction):
    """The deformed Hall product of two degree-d expansions {mu: coefficient}
    over the p basis, <p_lam, p_mu> = delta * z(lam) * alpha^len(lam)."""
    weights = {mu: class_data(mu).stabilizer * alpha ** len(mu)
               for mu in enumerate_partitions(d)}

    def dot(f: dict, g: dict) -> Fraction:
        acc = Fraction(0)
        for mu, c in f.items():
            other = g.get(mu)
            if other is not None:
                acc += c * other * weights[mu]
        return acc

    return dot


def _elementary_in_psums(lam: Partition) -> dict[Partition, Fraction]:
    """e_{lam'} over the p basis: the product, over the column lengths c of
    lam, of e_c = sum over mu |- c of (-1)^(c - len(mu)) p_mu / z(mu)."""
    vec = {(): Fraction(1)}
    for c in transpose(lam):
        e_c = [(mu, Fraction((-1) ** (c - len(mu)), class_data(mu).stabilizer))
               for mu in enumerate_partitions(c)]
        product: dict[Partition, Fraction] = {}
        for nu, x in vec.items():
            for mu, y in e_c:
                key = tuple(sorted(nu + mu, reverse=True))
                product[key] = product.get(key, 0) + x * y
        vec = product
    return vec


# past JACK_CACHE_SIZE bases the oldest (d, alpha) is evicted first
JACK_CACHE_SIZE = 64
_jack_cache: dict[tuple[int, Fraction], dict[Partition, dict[Partition, Fraction]]] = {}
_jack_lock = threading.Lock()


def _jack_basis(d: int, alpha: Fraction) -> dict[Partition, dict[Partition, Fraction]]:
    alpha = Fraction(exact(alpha))
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
        dot = hall_product(d, alpha)
        basis: dict[Partition, dict[Partition, Fraction]] = {}
        norms: dict[Partition, Fraction] = {}
        # increasing dominance order = reversed canonical enumeration
        for lam in reversed(parts):
            vec = _elementary_in_psums(lam)
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
        if len(_jack_cache) > JACK_CACHE_SIZE:
            del _jack_cache[next(iter(_jack_cache))]
    return jays


def jack_in_psums(lam, alpha) -> dict[Partition, Fraction]:
    """J-normalised Jack polynomial of shape lam over the power-sum basis,
    as {mu: coefficient} over its nonzero coefficients in canonical order."""
    lam = check_partition(lam)
    d = sum(lam)
    _check_jack_degree(d)
    vec = _jack_basis(d, alpha)[lam]
    return {mu: vec[mu] for mu in enumerate_partitions(d) if mu in vec}


def jack_norm(lam, alpha) -> Fraction:
    """Squared Hall norm of J_lam: the double product over diagram boxes
    of (alpha*arm + leg + 1) and (alpha*arm + leg + alpha)."""
    lam = check_partition(lam)
    alpha = Fraction(exact(alpha))
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
    alpha = Fraction(exact(alpha))
    return [alpha * j - i for i, p in enumerate(lam) for j in range(p)]


def jack_weights(d: int, profiles, b) -> tuple:
    """The ``(lam, weight)`` pairs of every nonzero Jack weight
    prod_i theta_lam(mu_i) / j_lam at alpha = b + 1, in canonical order,
    as a tuple."""
    _check_jack_degree(d)
    alpha = Fraction(exact(b)) + 1
    if alpha == 0:
        raise SingularParameterError("b = -1 degenerates the deformation (alpha = 0)")
    weights = []
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
            weights.append((lam, weight))
    return tuple(weights)


def b_hurwitz_sweep(r_values, gspec: GSpec, profiles=(), b=0, *,
                    d: int | None = None, caps: tuple[int, ...] | None = None,
                    monomial: tuple[int, ...] | None = None) -> dict:
    """{r: [z^r] of the b-deformed content-product sum} for every r of
    ``r_values``, exact in u's and v's, in one ``weighted_sweep`` over
    ``content_factor`` of the deformed contents.  ``caps`` bounds the
    tracked degrees; ``monomial`` makes each value that one coefficient.

    The sums run on ints: with ``alpha = b + 1 = p/q`` the factor reads
    the integer box weights ``p j - q i`` (q times the deformed
    contents), the Jack weights are put over their common denominator
    ``D``, and each total is divided once, by ``D q^r``.  At b = 0 this
    coincides with the undeformed hypergeometric engine.
    """
    r_values = _orders(r_values)
    d, profiles = _resolve_degree(profiles, d)
    alpha = Fraction(exact(b)) + 1
    factor = content_factor(gspec, max(r_values, default=0), caps=caps, monomial=monomial,
                            alpha=alpha)
    weights = jack_weights(d, profiles, b)
    denominator = math.lcm(*(weight.denominator for _, weight in weights))
    totals = weighted_sweep(
        [(lam, weight.numerator * (denominator // weight.denominator)) for lam, weight in weights],
        factor, r_values)
    return {r: _content_value(_over(total, denominator * alpha.denominator**r), gspec.nvars,
                              monomial)
            for r, total in totals.items()}


def b_hurwitz_coefficient(r: int, gspec: GSpec, profiles=(), b=0, *,
                          d: int | None = None,
                          caps: tuple[int, ...] | None = None) -> MultiPoly:
    """[z^r] of the b-deformed content-product sum, exact in u's and v's,
    the one-r case of ``b_hurwitz_sweep``."""
    return b_hurwitz_sweep((r,), gspec, profiles, b, d=d, caps=caps)[r]
