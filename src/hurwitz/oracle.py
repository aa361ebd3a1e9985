"""Independent brute-force ground truth in small symmetric groups.

Everything here counts or multiplies explicit permutations; the
character machinery never enters the counting path, which is the whole
point: these are the oracles the fast character-sum engine is checked
against.

Permutations are tuples ``p`` with ``p[i]`` the image of ``i`` (0-based).
Products are ``(p * q)(i) = p[q[i]]``, i.e. ``q`` acts first; a sequence
of factors multiplies left to right with the leftmost applied last,
which matches reading a factorization ``sigma_1 sigma_2 ... = id``.

Transposition sequences with monotone constraints compare the *larger*
moved point: for ``(a b)`` with ``a < b``, weak blocks require
``b_i <= b_{i+1}`` and strict blocks ``b_i < b_{i+1}``; the constraint
resets at every block boundary.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache, partial, reduce

from .errors import DomainError, SizeLimitError
from .exactnum import MultiPoly, affine_factor, exact, geometric_factor, geometric_power
from .partitions import Partition, check_partition, class_data, contents, enumerate_partitions
from .records import Frozen, set_field

ORACLE_MAX_DEGREE = 6
ORACLE_MAX_TRANSPOSITIONS = 10

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q, q applied first."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def identity(d: int) -> Perm:
    return tuple(range(d))


def cycle_type(p: Perm) -> Partition:
    seen = [False] * len(p)
    lens = []
    for i in range(len(p)):
        if seen[i]:
            continue
        n = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            n += 1
        lens.append(n)
    return tuple(sorted(lens, reverse=True))


def _check_degree(d: int):
    if d < 1:
        raise DomainError(f"degree must be positive: {d}")
    if d > ORACLE_MAX_DEGREE:
        raise SizeLimitError(f"oracle degree {d} exceeds the guard {ORACLE_MAX_DEGREE}")


def _check_transpositions(n: int):
    if n < 0:
        raise DomainError(f"transposition count must be nonnegative: {n}")
    if n > ORACLE_MAX_TRANSPOSITIONS:
        raise SizeLimitError(f"{n} transpositions exceed the guard {ORACLE_MAX_TRANSPOSITIONS}")


@lru_cache(maxsize=None)
def group(d: int) -> tuple[Perm, ...]:
    _check_degree(d)
    return tuple(itertools.permutations(range(d)))


@lru_cache(maxsize=None)
def transpositions(d: int) -> tuple[tuple[Perm, int], ...]:
    """All transpositions with their larger moved point (1-based)."""
    _check_degree(d)
    out = []
    for b in range(1, d):
        for a in range(b):
            p = list(range(d))
            p[a], p[b] = p[b], p[a]
            out.append((tuple(p), b + 1))
    return tuple(out)


@lru_cache(maxsize=None)
def class_perms(d: int, mu: Partition) -> tuple[Perm, ...]:
    _check_degree(d)
    mu = check_partition(mu)
    if sum(mu) != d:
        raise DomainError(f"{mu} is not a partition of {d}")
    return tuple(p for p in group(d) if cycle_type(p) == mu)


def class_representative(d: int, mu) -> Perm:
    """Canonical permutation of cycle type mu: consecutive cycles."""
    mu = check_partition(mu)
    if sum(mu) != d:
        raise DomainError(f"{mu} is not a partition of {d}")
    out = list(range(d))
    start = 0
    for part in mu:
        for k in range(part):
            out[start + k] = start + (k + 1) % part
        start += part
    return tuple(out)


# ---------------------------------------------------------------------------
# Group algebra elements
# ---------------------------------------------------------------------------

class GroupAlgebraElement:
    """Sparse linear combination of permutations of S_d: int coefficients
    until a rational (the dim/d! of a central idempotent) enters."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs=None):
        _check_degree(d)
        self.d = d
        self.coeffs: dict[Perm, int | Fraction] = {}
        if coeffs:
            for p, c in coeffs.items():
                c = exact(c)
                if c:
                    self.coeffs[tuple(p)] = c

    @classmethod
    def zero(cls, d: int) -> "GroupAlgebraElement":
        return cls(d)

    @classmethod
    def identity(cls, d: int) -> "GroupAlgebraElement":
        return cls(d, {identity(d): 1})

    @classmethod
    def class_sum(cls, d: int, mu) -> "GroupAlgebraElement":
        return cls(d, {p: 1 for p in class_perms(d, check_partition(mu))})

    @classmethod
    def jucys_murphy(cls, d: int, k: int) -> "GroupAlgebraElement":
        """J_k = sum of (i k) for i < k; J_1 = 0."""
        if not 1 <= k <= d:
            raise DomainError(f"Jucys-Murphy index {k} out of range 1..{d}")
        out = cls(d)
        for p, b in transpositions(d):
            if b == k:
                out.coeffs[p] = 1
        return out

    def _check(self, other: "GroupAlgebraElement"):
        if self.d != other.d:
            raise DomainError("degree mismatch in group algebra")

    def __add__(self, other):
        self._check(other)
        out = GroupAlgebraElement(self.d)
        out.coeffs = dict(self.coeffs)
        for p, c in other.coeffs.items():
            s = out.coeffs.get(p, 0) + c
            if s:
                out.coeffs[p] = s
            else:
                out.coeffs.pop(p, None)
        return out

    def __neg__(self):
        out = GroupAlgebraElement(self.d)
        out.coeffs = {p: -c for p, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q) -> "GroupAlgebraElement":
        q = exact(q)
        out = GroupAlgebraElement(self.d)
        if q:
            out.coeffs = {p: c * q for p, c in self.coeffs.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            self._check(other)
            out = GroupAlgebraElement(self.d)
            acc = out.coeffs
            for p, cp in self.coeffs.items():
                for q, cq in other.coeffs.items():
                    r = compose(p, q)
                    s = acc.get(r, 0) + cp * cq
                    if s:
                        acc[r] = s
                    else:
                        acc.pop(r, None)
            return out
        return self.scale(other)

    __rmul__ = __mul__

    def coefficient(self, p: Perm) -> int | Fraction:
        return self.coeffs.get(tuple(p), 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.d == other.d
            and self.coeffs == other.coeffs
        )

    def class_coefficients(self) -> dict[Partition, int | Fraction]:
        """Per-class coefficient; raises if the element is not central."""
        out: dict[Partition, int | Fraction] = {}
        for mu in enumerate_partitions(self.d):
            vals = {self.coefficient(p) for p in class_perms(self.d, mu)}
            if len(vals) != 1:
                raise DomainError(f"element is not constant on the class {mu}")
            out[mu] = vals.pop()
        return out

    def __repr__(self):
        return f"GroupAlgebraElement(d={self.d}, {len(self.coeffs)} terms)"


# ---------------------------------------------------------------------------
# Factorization counting
# ---------------------------------------------------------------------------

CONSTRAINTS = ("none", "weak", "strict")


class Block(Frozen):
    """One run of transpositions with a monotonicity constraint."""

    __slots__ = ("count", "constraint")

    def __init__(self, count: int, constraint: str):
        set_field(self, "count", count)
        set_field(self, "constraint", constraint)
        if count < 0:
            raise DomainError(f"block count must be nonnegative: {count}")
        if constraint not in CONSTRAINTS:
            raise DomainError(f"unknown constraint {constraint!r}")


class FactorizationQuery(Frozen):
    """Count factorizations id = sigma_1..sigma_N * (transposition blocks)."""

    __slots__ = ("d", "profiles", "blocks")

    def __init__(self, d: int, profiles: tuple[Partition, ...] = (),
                 blocks: tuple[Block, ...] = ()):
        set_field(self, "d", d)
        set_field(self, "blocks", tuple(blocks))
        set_field(self, "profiles", _checked_lists(d, (profiles,))[0][0])
        _check_transpositions(sum(b.count for b in self.blocks))


def _checked_lists(d: int, profile_lists) -> list[tuple[tuple[Partition, ...], int]]:
    """``(profiles, denominator)`` of every profile list after the degree
    guard: its profiles as partitions of ``d``, and the ``d! prod |C_mu|``
    that normalizes a raw count."""
    profile_lists = [tuple(check_partition(mu) for mu in profiles)
                     for profiles in profile_lists]
    _check_degree(d)
    for profiles in profile_lists:
        for mu in profiles:
            if sum(mu) != d:
                raise DomainError(f"profile {mu} does not partition {d}")
    return [(profiles, math.factorial(d) * math.prod(
        class_data(mu).class_size for mu in profiles)) for profiles in profile_lists]


@lru_cache(maxsize=None)
def block_walk(d: int, blocks: tuple[Block, ...]) -> tuple[tuple[Perm, int], ...]:
    """Number of admissible transposition sequences reaching each product.

    Pure dynamic programming over literal products: states are
    (running product, larger point of the previous transposition in the
    current block, 0 in an unconstrained one); merging equal states only
    collects identical branches of the depth-first walk, so the counts are
    exactly the sequence counts.  The walk of ``blocks`` is the memoized
    walk of ``blocks[:-1]`` extended by the last block: between blocks the
    states collapse to ``{product: count}``, and the next block starts
    again from 0, so the extension is exact.  An unconstrained block
    carries no state either, so a walk ending in k of them is the walk
    ending in k - 1 extended by one transposition.
    """
    taus = transpositions(d)
    if not blocks:
        return ((identity(d), 1),)
    *head, block = blocks
    monotone, strict = block.constraint != "none", block.constraint == "strict"
    steps = block.count
    if not monotone and steps > 1:
        head, steps = head + [Block(steps - 1, "none")], 1
    states: dict[tuple[Perm, int], int] = {(p, 0): n for p, n in block_walk(d, tuple(head))}
    for _ in range(steps):
        nxt: dict[tuple[Perm, int], int] = {}
        for (p, last), n in states.items():
            for tau, b in taus:
                if b < last or (strict and b == last):
                    continue
                key = (compose(p, tau), b if monotone else 0)
                nxt[key] = nxt.get(key, 0) + n
        states = nxt
    walk: dict[Perm, int] = {}
    for (p, _last), n in states.items():
        walk[p] = walk.get(p, 0) + n
    return tuple(walk.items())


@lru_cache(maxsize=ORACLE_MAX_DEGREE)
def _class_algebra(d: int) -> tuple:
    """``(sums, representatives, sizes, structure)`` of the class algebra of
    S_d, over the partitions of d in canonical order: the class
    coefficients of each class sum ``C_mu`` by its partition, one
    permutation and the size of each class, and ``structure[s][n]``, the
    ``(r, c)`` with ``C_s C_n = sum_r c C_r``.

    The structure constant ``c = #{a in C_s : a^-1 g in C_n}`` at the
    representative ``g`` of class r is counted literally, over d! * p(d)
    compositions: no character enters."""
    parts = enumerate_partitions(d)
    index = {mu: i for i, mu in enumerate(parts)}
    classes = {p: index[cycle_type(p)] for p in group(d)}
    representatives = [class_representative(d, mu) for mu in parts]
    structure: list[list[list[tuple[int, int]]]] = [[[] for _ in parts] for _ in parts]
    for r, g in enumerate(representatives):
        counts: dict[tuple[int, int], int] = {}
        for a in group(d):
            key = classes[a], classes[compose(inverse(a), g)]
            counts[key] = counts.get(key, 0) + 1
        for (s, n), c in counts.items():
            structure[s][n].append((r, c))
    sums = {mu: [int(i == j) for j in range(len(parts))] for mu, i in index.items()}
    return sums, representatives, [class_data(mu).class_size for mu in parts], structure


def _class_product(structure, x: list[int], y: list[int]) -> list[int]:
    """The class coefficients of (sum_s x_s C_s) (sum_n y_n C_n)."""
    out = [0] * len(x)
    for s, a in enumerate(x):
        if a:
            row = structure[s]
            for n, b in enumerate(y):
                if b:
                    for r, c in row[n]:
                        out[r] += a * b * c
    return out


def _raw_counts(d: int, block_lists, profile_lists) -> tuple[list[int], list[list[int]]]:
    """``(denominators, raws)``: the ``d! * prod |C_mu|`` of every profile
    list, and per block list the raw count of every profile list, in order.

    Every factor of a factorization is central: a profile's class sum, and
    a block's walk (a power of the transposition class sum, or h_k / e_k of
    the Jucys-Murphy elements).  So the raw count, the identity coefficient
    of (product of the class sums) * (product of the block walks), is
    ``sum_r X[r] W[r] |C_r|`` over the class coefficients X of the profile
    product and W of the block product, both multiplied in the class
    algebra (``_class_algebra``).  Each distinct block is walked once, by
    the ``block_walk`` memo, and read at one representative per class.
    The profile lists and every block list's transposition count are
    checked as a ``FactorizationQuery`` checks them, before any count.
    """
    lists = _checked_lists(d, profile_lists)
    block_lists = [tuple(blocks) for blocks in block_lists]
    for blocks in block_lists:
        _check_transpositions(sum(b.count for b in blocks))
    sums, representatives, sizes, structure = _class_algebra(d)
    product, one = partial(_class_product, structure), sums[(1,) * d]
    profile_sides = [[x * size for x, size in zip(
        reduce(product, map(sums.__getitem__, profiles), one), sizes)]
        for profiles, _ in lists]
    walks = {}
    for block in dict.fromkeys(block for blocks in block_lists for block in blocks):
        walk = dict(block_walk(d, (block,)))
        walks[block] = [walk.get(g, 0) for g in representatives]
    raws = []
    for blocks in block_lists:
        w = reduce(product, map(walks.__getitem__, blocks), one)
        raws.append([sum(map(operator.mul, x, w)) for x in profile_sides])
    return [denominator for _, denominator in lists], raws


def count_factorizations_sweep(d: int, block_lists, profile_lists) -> list[list[Fraction]]:
    """The normalized count of every profile list of ``profile_lists`` under
    every block list of ``block_lists``, one list of counts per block list,
    in order: raw count / (d! * prod of class sizes), with the raw counts
    of ``_raw_counts``."""
    denominators, raws = _raw_counts(d, block_lists, profile_lists)
    return [[Fraction(raw, denominator) for raw, denominator in zip(row, denominators)]
            for row in raws]


def count_factorizations(query: FactorizationQuery) -> Fraction:
    """Normalized count: raw count / (d! * prod of class sizes), the
    one-block-list, one-profile-list case of ``count_factorizations_sweep``."""
    return count_factorizations_sweep(query.d, (query.blocks,), (query.profiles,))[0][0]


# ---------------------------------------------------------------------------
# Jucys-Murphy elements and symmetric polynomials of them
# ---------------------------------------------------------------------------

def jm_series(g, d: int) -> list[GroupAlgebraElement]:
    """The z-coefficients of prod_{i=2..d} G(z J_i), to z^{len(g) - 1},
    by literal expansion in the group algebra.

    ``g`` holds the z-coefficients of G, with ``g[0] = G(0) = 1``, so the
    factor of J_1 = 0 is 1 and the product starts at i = 2.
    """
    _check_degree(d)
    if not g or g[0] != 1:
        raise DomainError(f"the series of G must start with G(0) = 1, got {list(g)[:1]}")
    top = max(t for t, c in enumerate(g) if c)
    series = [GroupAlgebraElement.identity(d)] + [GroupAlgebraElement.zero(d) for _ in g[1:]]
    for i in range(2, d + 1):
        powers = [None, GroupAlgebraElement.jucys_murphy(d, i)]  # J_i^t at t >= 1
        while len(powers) <= top:
            powers.append(powers[-1] * powers[1])
        for n in range(len(g) - 1, 0, -1):  # from the top, so series[< n] is still old
            for t in range(1, min(n, top) + 1):
                if g[t] and not series[n - t].is_zero():
                    term = series[n - t] * powers[t]
                    series[n] = series[n] + (term if g[t] == 1 else term.scale(g[t]))
    return series


def jm_symmetric_evaluate(kind: str, k: int, d: int) -> GroupAlgebraElement:
    """e_k or h_k of the Jucys-Murphy elements: the z^k coefficient of
    ``jm_series`` for G = 1 + z or 1/(1 - z)."""
    if kind not in ("e", "h"):
        raise DomainError(f"kind must be 'e' or 'h', got {kind!r}")
    if k < 0:
        raise DomainError(f"symmetric-polynomial degree must be nonnegative: {k}")
    if k > 8:
        raise SizeLimitError(f"symmetric-polynomial degree {k} outside the guard 0..8")
    return jm_series([1 if kind == "h" or t < 2 else 0 for t in range(k + 1)], d)[k]


# ---------------------------------------------------------------------------
# Central idempotents and the content-eigenvalue property
# ---------------------------------------------------------------------------

def central_idempotent(lam) -> GroupAlgebraElement:
    """F_lambda = (dim/d!) sum_mu chi_lambda(mu) C_mu."""
    from . import characters  # local import keeps the counting paths character-free

    lam = check_partition(lam)
    d = sum(lam)
    _check_degree(d)
    table = characters.char_table(d)
    out = GroupAlgebraElement(d)
    scale = Fraction(characters.dim(lam), math.factorial(d))
    for mu in table.partitions:
        chi = table.value(lam, mu)
        if not chi:
            continue
        for p in class_perms(d, mu):
            out.coeffs[p] = scale * chi
    return out


def idempotent_check(lam, *, z_order: int = 4, literal_order: int = 1,
                     u_values=(), v_values=()) -> dict:
    """Verify idempotency, orthogonality, and the content-eigenvalue law.

    The weight function G(z) = prod (1+u z) / ((1-z)^literal_order
    prod (1-v z)) is evaluated at z * J_i for every i; acting on
    F_lambda each z-coefficient must equal the scalar obtained by
    evaluating the same product at the box contents of lambda.  All u, v
    are specialised to the supplied rationals.  Every product is taken on
    class coefficients in ``_class_algebra``, so a z-coefficient off the
    centre fails the law."""
    lam = check_partition(lam)
    d = sum(lam)
    _check_degree(d)
    product = partial(_class_product, _class_algebra(d)[3])

    def vector(element):  # class coefficients, or None off the centre
        try:
            return list(element.class_coefficients().values())
        except DomainError:
            return None

    f_lam = vector(central_idempotent(lam))
    idempotent = product(f_lam, f_lam) == f_lam
    orthogonal = all(not any(product(f_lam, vector(central_idempotent(eta))))
                     for eta in enumerate_partitions(d) if eta != lam)

    u_values = [exact(u) for u in u_values]
    v_values = [exact(v) for v in v_values]

    def scalar_series(c: int):
        s = geometric_power(c, literal_order, z_order)
        one = MultiPoly.constant(0, 1)
        for u in u_values:
            s = s.mul(affine_factor(c, one.scale(u), z_order))
        for v in v_values:
            s = s.mul(geometric_factor(c, one.scale(v), z_order))
        return [coeff.constant_value() for coeff in s.coeffs]

    series = jm_series(scalar_series(1), d)

    # scalar side: same product over the contents of lambda
    eigen = [1] + [0] * z_order
    for c in contents(lam):
        g = scalar_series(c)
        eigen = [
            sum(eigen[t] * g[n - t] for t in range(n + 1))
            for n in range(z_order + 1)
        ]

    eigen_ok = all(x is not None and product(x, f_lam) == [eigen[n] * f for f in f_lam]
                   for n, x in enumerate(map(vector, series)))
    return {
        "partition": lam,
        "idempotent": idempotent,
        "orthogonal": orthogonal,
        "eigenvalue_law": eigen_ok,
        "passed": idempotent and orthogonal and eigen_ok,
    }


# ---------------------------------------------------------------------------
# Brute-force irreducible characters from permutation modules
# ---------------------------------------------------------------------------

def _tabloids(lam: Partition, d: int):
    """Ordered set partitions of range(d) with block sizes lam, each as
    the tuple of the block index of every point."""
    def rec(labels: list, remaining: list, block: int):
        if block == len(lam):
            yield tuple(labels)
            return
        for chosen in itertools.combinations(remaining, lam[block]):
            for x in chosen:
                labels[x] = block
            rest = [x for x in remaining if x not in chosen]
            yield from rec(labels, rest, block + 1)

    yield from rec([0] * d, list(range(d)), 0)


def permutation_characters(lam) -> dict[Partition, int]:
    """{mu: trace of a permutation of cycle type mu on the tabloid module of
    shape lam} for every mu of |lam|, from one enumeration of the tabloids.

    This is an honest fixed-point count on explicitly enumerated
    tabloids, with no character theory behind it: a permutation fixes a
    tabloid when it maps every point into the point's own block.
    """
    lam = check_partition(lam)
    d = sum(lam)
    _check_degree(d)
    sigmas = {mu: class_representative(d, mu) for mu in enumerate_partitions(d)}
    fixed = dict.fromkeys(sigmas, 0)
    for labels in _tabloids(lam, d):
        for mu, sigma in sigmas.items():
            if tuple(map(labels.__getitem__, sigma)) == labels:  # labels[sigma[x]] == labels[x]
                fixed[mu] += 1
    return fixed


def bruteforce_character_table(d: int) -> dict[Partition, dict[Partition, int | Fraction]]:
    """Irreducible characters from permutation characters alone.

    Young's rule makes the permutation characters unitriangular over the
    irreducibles in dominance order, so Gram-Schmidt with the class
    inner product peels them off top-down.  Each lambda's permutation
    character is one ``permutation_characters`` pass over its tabloids.
    Independent of the Murnaghan-Nakayama path.

    The inner products of true characters are integers, so the peeling
    runs on ints; an inner product that leaves a remainder is kept as its
    exact Fraction, never floored, so a wrong permutation character gives
    a wrong (non-integral) table instead of a plausible one.
    """
    _check_degree(d)
    parts = enumerate_partitions(d)
    sizes = {mu: class_data(mu).class_size for mu in parts}
    order = math.factorial(d)

    def inner(f, g):
        total = sum(sizes[mu] * f[mu] * g[mu] for mu in parts)
        return total // order if total % order == 0 else Fraction(total, order)

    chars: dict[Partition, dict[Partition, int | Fraction]] = {}
    for lam in parts:  # reverse-lex order extends dominance downward
        vec = permutation_characters(lam)
        for prev in chars.values():
            c = inner(vec, prev)
            if c:
                vec = {mu: vec[mu] - c * prev[mu] for mu in parts}
        chars[lam] = vec
    return chars
