"""Reference paths that only the tests read.

Each is a slower or more literal route to a quantity the library
computes another way: the tests check the library against them.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import reduce

from hurwitz.core import GSpec, _content_terms, content_sequences, rh_genus
from hurwitz.errors import SizeLimitError
from hurwitz.exactnum import MultiPoly, TruncSeries
from hurwitz.oracle import (
    FactorizationQuery,
    GroupAlgebraElement,
    Perm,
    block_walk,
    central_idempotent,
    class_perms,
    compose,
    identity,
    inverse,
    transpositions,
)
from hurwitz.partitions import class_data, enumerate_partitions


def count_factorizations_dfs(query: FactorizationQuery, *, guard: int = 6) -> Fraction:
    """``oracle.count_factorizations`` by raw depth-first enumeration of
    every tuple.

    Exponentially slow; the audit path of the dynamic-programming walk.
    """
    d = query.d
    if sum(b.count for b in query.blocks) > guard:
        raise SizeLimitError("DFS oracle guard exceeded")
    taus = transpositions(d)
    count = 0

    def walk_blocks(prefix: Perm, blocks):
        nonlocal count
        if not blocks:
            if prefix == identity(d):
                count += 1
            return
        head, tail = blocks[0], blocks[1:]
        strict = head.constraint == "strict"

        def walk(p: Perm, remaining: int, last: int):
            if remaining == 0:
                walk_blocks(p, tail)
                return
            for tau, b in taus:
                if head.constraint != "none" and (b < last or (strict and b == last)):
                    continue
                walk(compose(p, tau), remaining - 1, b)

        walk(prefix, head.count, 0)

    def walk_profiles(p: Perm, profiles):
        if not profiles:
            walk_blocks(p, query.blocks)
            return
        for sigma in class_perms(d, profiles[0]):
            walk_profiles(compose(p, sigma), profiles[1:])

    walk_profiles(identity(d), query.profiles)
    return Fraction(count, math.factorial(d) * math.prod(
        class_data(mu).class_size for mu in query.profiles))


def count_factorizations_by_walks(d: int, block_lists, profile_lists) -> list[list[Fraction]]:
    """``oracle.count_factorizations_sweep`` on whole permutation walks: the
    identity coefficient of (product of the profiles' class sums) * (block
    element), read as the convolution of the literal profile product with
    each block list's ``block_walk`` (keyed by the inverse), over
    d! * prod of class sizes.  No class function is assumed central."""
    out = []
    products = []
    for profiles in profile_lists:
        product = reduce(operator.mul, (GroupAlgebraElement.class_sum(d, mu) for mu in profiles),
                         GroupAlgebraElement.identity(d))
        products.append((product.coeffs.items(), math.factorial(d) * math.prod(
            class_data(mu).class_size for mu in profiles)))
    for blocks in block_lists:
        walk = {inverse(p): n for p, n in block_walk(d, tuple(blocks))}
        out.append([Fraction(sum(n * walk.get(p, 0) for p, n in product), denominator)
                    for product, denominator in products])
    return out


def block_walk_from_identity(d: int, blocks) -> dict[Perm, int]:
    """``oracle.block_walk`` in one pass from the identity, block by block,
    with no memo: {product: number of admissible transposition sequences}."""
    taus = transpositions(d)
    acc: dict[Perm, int] = {identity(d): 1}
    for block in blocks:
        if block.count == 0:
            continue
        if block.constraint == "none":
            cur = acc
            for _ in range(block.count):
                nxt: dict[Perm, int] = {}
                for p, n in cur.items():
                    for tau, _b in taus:
                        q = compose(p, tau)
                        nxt[q] = nxt.get(q, 0) + n
                cur = nxt
            acc = cur
        else:
            strict = block.constraint == "strict"
            states: dict[tuple[Perm, int], int] = {(p, 0): n for p, n in acc.items()}
            for _ in range(block.count):
                nxt_states: dict[tuple[Perm, int], int] = {}
                for (p, last), n in states.items():
                    for tau, b in taus:
                        if b < last or (strict and b == last):
                            continue
                        key = (compose(p, tau), b)
                        nxt_states[key] = nxt_states.get(key, 0) + n
                states = nxt_states
            acc = {}
            for (p, _last), n in states.items():
                acc[p] = acc.get(p, 0) + n
    return acc


def resolution_of_identity(d: int) -> bool:
    """Whether the central idempotents of degree d sum to the identity."""
    total = GroupAlgebraElement.zero(d)
    for lam in enumerate_partitions(d):
        total = total + central_idempotent(lam)
    return total == GroupAlgebraElement.identity(d)


def content_product(weights, gspec: GSpec, r: int,
                    caps: tuple[int, ...] | None = None) -> MultiPoly:
    """[z^r] of the product over box weights c of G(z * c), exact in u's and v's.

    The weights are the box contents, or the deformed contents of the
    b-deformed engine; zero weights contribute the factor 1.  The
    coefficient of ``u^a v^b`` is prod e_{a_i} prod h_{b_j} hk_{r-|a|-|b|}
    (see ``content_sequences``); ``caps`` drops monomials beyond them.
    The one-r case of ``core.content_factor``, with Fraction coefficients,
    read from the sequences of these weights with no memo."""
    poly = _content_terms(content_sequences(weights, gspec, r), gspec, caps, None)(r)
    poly.terms = {expo: Fraction(coeff) for expo, coeff in poly.terms.items()}
    return poly


def resum_structure_fractions(coeffs, r: int, d: int) -> Fraction:
    """``core.resum_structure`` as a Fraction sum, one key at a time."""
    acc = Fraction(0)
    for m, c in coeffs.items():
        acc += c * m**r
    return acc * 2 / Fraction(math.factorial(d)) ** 2


def series_product_by_sums(a: TruncSeries, b: TruncSeries, caps=None) -> TruncSeries:
    """``TruncSeries.mul`` as a sum of whole coefficient products: each
    ``a_i b_j`` is built by ``MultiPoly.mul`` and added with ``+``."""
    out = [MultiPoly.zero(a.nvars) for _ in range(a.order + 1)]
    for i, x in enumerate(a.coeffs):
        for j in range(a.order + 1 - i):
            y = b.coeffs[j]
            if not x.is_zero() and not y.is_zero():
                out[i + j] = out[i + j] + x.mul(y, caps)
    return TruncSeries(a.order, out)


def admissible_parity(r: int, s: int, d: int, profiles) -> bool:
    """Whether the Riemann-Hurwitz genus is an integer for these data."""
    return rh_genus(r, s, d, profiles).denominator == 1


def format_partition(lam) -> str:
    return ",".join(str(p) for p in lam)
