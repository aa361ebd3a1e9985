"""Integer partitions and their combinatorial anatomy.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  The canonical enumeration
order is reverse-lexicographic -- ``(d,)`` first, ``(1,)*d`` last -- and
every table or cached partition sum in this package indexes partitions
in exactly that order, so fixtures and on-disk caches stay stable.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, SizeLimitError
from .records import Frozen, set_field

Partition = tuple[int, ...]

DEFAULT_PARTITION_CEILING = 40


def check_partition(lam) -> Partition:
    """Validate and normalise a partition given as any iterable of ints."""
    lam = tuple(int(p) for p in lam)
    for i, p in enumerate(lam):
        if p < 1:
            raise DomainError(f"partition parts must be positive: {lam}")
        if i and lam[i - 1] < p:
            raise DomainError(f"partition parts must be weakly decreasing: {lam}")
    return lam


@lru_cache(maxsize=64)  # above the default ceiling, so every degree stays
def _partitions_of(d: int) -> tuple[Partition, ...]:
    """Every partition of ``d`` in reverse-lex order, by the next-partition
    step of Zoghbi and Stojmenovic's ZS1: lower the last part above 1, at
    index h, by one and refill the parts after it with copies of the new
    value, then one remainder.  ``x[h + 1:]`` are ones throughout."""
    if d == 0:
        return ((),)
    x = [1] * d
    x[0] = d
    m, h = 1, 0  # the number of parts; the index of the last part above 1
    out = [(d,)]
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # the unit taken from x[h] plus the ones after it
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1 if t == 0 else h + 2
            if t > 1:
                h += 1
                x[h] = t
        out.append(tuple(x[:m]))
    return tuple(out)


def partition_tuple(d: int) -> tuple[Partition, ...]:
    """All partitions of ``d``, each exactly once, in reverse-lex order, as
    one tuple memoized per degree, up to ``DEFAULT_PARTITION_CEILING``
    (read at call time)."""
    if d < 0:
        raise DomainError(f"cannot partition the negative integer {d}")
    if d > DEFAULT_PARTITION_CEILING:
        raise SizeLimitError(
            f"degree {d} exceeds the partition ceiling {DEFAULT_PARTITION_CEILING}")
    return _partitions_of(d)


def enumerate_partitions(d: int) -> list[Partition]:
    """``partition_tuple(d)`` as a list."""
    return list(partition_tuple(d))


def transpose(lam) -> Partition:
    """The conjugate partition, by counting column heights."""
    lam = check_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def contents(lam) -> list[int]:
    """Contents ``j - i`` of the diagram boxes ``(i, j)``, row by row."""
    lam = check_partition(lam)
    return [j - i for i, p in enumerate(lam) for j in range(p)]


def hook_lengths(lam) -> list[list[int]]:
    """Hook lengths arranged like the diagram rows."""
    lam = check_partition(lam)
    lt = transpose(lam)
    return [
        [lam[i] - j + lt[j] - i - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


class ClassData(Frozen):
    """Conjugacy-class data of a cycle type: |class|, stabilizer order, multiplicities."""

    __slots__ = ("class_size", "stabilizer", "multiplicities")

    def __init__(self, class_size: int, stabilizer: int,
                 multiplicities: tuple[tuple[int, int], ...]):
        set_field(self, "class_size", class_size)
        set_field(self, "stabilizer", stabilizer)
        set_field(self, "multiplicities", multiplicities)

    def multiplicity(self, part: int) -> int:
        for p, m in self.multiplicities:
            if p == part:
                return m
        return 0


def class_data(mu) -> ClassData:
    """Class size d!/z(mu), stabilizer z(mu) = prod i^{m_i} m_i!, multiplicity map."""
    return _class_data(tuple(mu))


@lru_cache(maxsize=4096)
def _class_data(mu: tuple) -> ClassData:
    # checked on a miss only; lru_cache stores no exception, so a bad mu raises every call
    mu = check_partition(mu)
    mult = Counter(mu)
    stab = 1
    for part, m in mult.items():
        stab *= part**m * math.factorial(m)
    return ClassData(
        class_size=math.factorial(sum(mu)) // stab,
        stabilizer=stab,
        multiplicities=tuple(sorted(mult.items(), reverse=True)),
    )


class FrobeniusShifted(Frozen):
    """Shifted Frobenius coordinates: R diagonal boxes, half-integer arms/legs.

    Both coordinate lists are strictly decreasing, all entries >= 1/2,
    and their total sum equals the size of the partition.
    """

    __slots__ = ("r", "a", "b")

    def __init__(self, r: int, a: tuple[Fraction, ...], b: tuple[Fraction, ...]):
        set_field(self, "r", r)
        set_field(self, "a", a)
        set_field(self, "b", b)


def frobenius_shifted(lam) -> FrobeniusShifted:
    """Half-integer arm/leg lengths of the diagonal hooks of ``lam``."""
    lam = check_partition(lam)
    lt = transpose(lam)
    r = sum(1 for i, p in enumerate(lam) if p >= i + 1)
    a = tuple(Fraction(2 * (lam[i] - (i + 1)) + 1, 2) for i in range(r))
    b = tuple(Fraction(2 * (lt[i] - (i + 1)) + 1, 2) for i in range(r))
    return FrobeniusShifted(r, a, b)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated list of parts; empty string means the empty partition."""
    text = text.strip().strip("[]()")
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise DomainError(f"cannot parse partition from {text!r}") from exc
    return check_partition(parts)
