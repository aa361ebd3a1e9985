import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

from hurwitz.errors import DomainError, SizeLimitError
from hurwitz.partitions import (
    class_data,
    check_partition,
    contents,
    enumerate_partitions,
    frobenius_shifted,
    hook_lengths,
    parse_partition,
    partition_tuple,
    transpose,
)
from reference import format_partition


def pentagonal_count(n: int) -> int:
    """Independent partition counter via the Euler pentagonal recurrence."""
    table = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table.append(total)
    return table[n]


@st.composite
def partitions(draw, max_size=12):
    n = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    remaining = n
    bound = n
    while remaining > 0:
        p = draw(st.integers(min_value=1, max_value=min(bound, remaining)))
        parts.append(p)
        bound = p
        remaining -= p
    return tuple(parts)


class TestEnumeration:
    def test_empty_degree(self):
        assert enumerate_partitions(0) == [()]

    def test_degree_four_order(self):
        assert enumerate_partitions(4) == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1),
        ]

    def test_count_ten(self):
        assert len(enumerate_partitions(10)) == 42 == pentagonal_count(10)

    @pytest.mark.parametrize("d", range(13))
    def test_counts_match_pentagonal(self, d):
        assert len(enumerate_partitions(d)) == pentagonal_count(d)

    def test_reverse_lex_order(self):
        for d in range(9):
            parts = enumerate_partitions(d)
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)

    def test_ceiling(self, monkeypatch):
        with pytest.raises(SizeLimitError, match="partition ceiling 40"):
            enumerate_partitions(41)
        # the ceiling is read at call time
        monkeypatch.setattr("hurwitz.partitions.DEFAULT_PARTITION_CEILING", 5)
        with pytest.raises(SizeLimitError, match="partition ceiling 5"):
            enumerate_partitions(6)
        monkeypatch.setattr("hurwitz.partitions.DEFAULT_PARTITION_CEILING", 41)
        assert len(enumerate_partitions(41)) == 44583

    def test_negative(self):
        with pytest.raises(DomainError):
            enumerate_partitions(-1)

    def test_next_partition_step_matches_the_recursion(self):
        # the recursive enumeration the iterative step replaced, kept as
        # its reference
        @lru_cache(maxsize=None)
        def recursive(remaining, max_part):
            if remaining == 0:
                return ((),)
            return tuple((first,) + rest
                         for first in range(min(remaining, max_part), 0, -1)
                         for rest in recursive(remaining - first, first))

        for d in range(41):
            assert partition_tuple(d) == recursive(d, max(d, 1)), d
            assert enumerate_partitions(d) == list(recursive(d, max(d, 1)))

    def test_one_tuple_per_degree(self):
        assert partition_tuple(12) is partition_tuple(12)
        with pytest.raises(SizeLimitError, match="partition ceiling 40"):
            partition_tuple(41)
        with pytest.raises(DomainError):
            partition_tuple(-1)


class TestTranspose:
    def test_examples(self):
        assert transpose((3, 1)) == (2, 1, 1)
        assert transpose((5,)) == (1, 1, 1, 1, 1)
        assert transpose(()) == ()

    def test_column_counts(self):
        lam = (6, 5, 3, 1)
        cols = tuple(sum(1 for p in lam if p >= j + 1) for j in range(6))
        assert transpose(lam) == cols == (4, 3, 3, 2, 2, 1)

    @given(partitions())
    def test_involution(self, lam):
        assert transpose(transpose(lam)) == lam
        assert sum(transpose(lam)) == sum(lam)


class TestClassData:
    def test_identity_class(self):
        cd = class_data((1, 1, 1, 1))
        assert cd.class_size == 1 and cd.stabilizer == 24

    def test_transposition_class(self):
        cd = class_data((2, 1, 1))
        assert cd.stabilizer == 2 * 1 * math.factorial(2) == 4
        assert cd.class_size == 6

    def test_three_cycles(self):
        cd = class_data((3,))
        assert cd.class_size == 2 and cd.stabilizer == 3

    @pytest.mark.parametrize("d", range(1, 13))
    def test_class_sizes_sum_to_group_order(self, d):
        assert sum(class_data(mu).class_size for mu in enumerate_partitions(d)) \
            == math.factorial(d)

    @given(partitions(max_size=10))
    def test_product_is_group_order(self, mu):
        cd = class_data(mu)
        assert cd.class_size * cd.stabilizer == math.factorial(sum(mu))
        assert cd.multiplicity(1) == sum(1 for p in mu if p == 1)

    def test_validated_on_every_miss(self):
        # the memo stores no exception: a refused profile is refused again
        for _ in range(2):
            with pytest.raises(DomainError, match="weakly decreasing"):
                class_data((1, 2))
        assert class_data([2, 1]) == class_data((2, 1))
        assert class_data((2.0, 1)) == class_data((2, 1))
        assert class_data((2.0, 1)).multiplicities == ((2, 1), (1, 1))


class TestFrobenius:
    def test_worked_example(self):
        fc = frobenius_shifted((6, 5, 3, 1))
        assert fc.r == 3
        assert fc.a == (Fraction(11, 2), Fraction(7, 2), Fraction(1, 2))
        assert fc.b == (Fraction(7, 2), Fraction(3, 2), Fraction(1, 2))

    def test_single_box(self):
        fc = frobenius_shifted((1,))
        assert (fc.r, fc.a, fc.b) == (1, (Fraction(1, 2),), (Fraction(1, 2),))

    def test_single_row(self):
        fc = frobenius_shifted((4,))
        assert (fc.r, fc.a, fc.b) == (1, (Fraction(7, 2),), (Fraction(1, 2),))

    @given(partitions())
    def test_invariants(self, lam):
        fc = frobenius_shifted(lam)
        assert sum(fc.a) + sum(fc.b) == sum(lam)
        ft = frobenius_shifted(transpose(lam))
        assert (ft.a, ft.b) == (fc.b, fc.a)
        for seq in (fc.a, fc.b):
            assert all(x >= Fraction(1, 2) for x in seq)
            assert all(seq[i] > seq[i + 1] for i in range(len(seq) - 1))
            assert all((x - Fraction(1, 2)).denominator == 1 for x in seq)


class TestContents:
    @pytest.mark.parametrize("d", range(1, 13))
    def test_transpose_negates(self, d):
        for lam in enumerate_partitions(d):
            assert sorted(contents(transpose(lam))) == sorted(-c for c in contents(lam))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_extreme_content_only_for_hooks(self, d):
        for lam in enumerate_partitions(d):
            extreme = max(abs(c) for c in contents(lam))
            if lam in ((d,), (1,) * d):
                assert extreme == d - 1
            else:
                assert extreme < d - 1


class TestHooksAndParsing:
    def test_hooks(self):
        assert hook_lengths((2, 1)) == [[3, 1], [1]]

    def test_validation(self):
        with pytest.raises(DomainError):
            check_partition((1, 2))
        with pytest.raises(DomainError):
            check_partition((0,))

    def test_parse_format_roundtrip(self):
        assert parse_partition("6,5,3,1") == (6, 5, 3, 1)
        assert parse_partition("") == ()
        assert parse_partition("[3,1]") == (3, 1)
        assert format_partition((3, 1)) == "3,1"
        with pytest.raises(DomainError):
            parse_partition("2,x")
