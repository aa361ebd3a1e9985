"""The package's value classes: construction, equality, hashing, repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from hurwitz.asymptotics import RatioEntry, RatioReport
from hurwitz.core import GSpec, HurwitzResult
from hurwitz.errors import DomainError, SizeLimitError
from hurwitz.oracle import Block, FactorizationQuery
from hurwitz.partitions import ClassData, FrobeniusShifted
from hurwitz.records import Frozen, Record, set_field

HALF = Fraction(1, 2)
ENTRY = RatioEntry(3, Fraction(2), Fraction(1), Fraction(2), "2")

# (class, positional fields, the same as keywords, repr); every field is
# given, so changing any one of them must break equality.
FROZEN = [
    (ClassData, (6, 1, ((1, 3),)),
     {"class_size": 6, "stabilizer": 1, "multiplicities": ((1, 3),)},
     "ClassData(class_size=6, stabilizer=1, multiplicities=((1, 3),))"),
    (FrobeniusShifted, (1, (HALF,), (HALF,)), {"r": 1, "a": (HALF,), "b": (HALF,)},
     "FrobeniusShifted(r=1, a=(Fraction(1, 2),), b=(Fraction(1, 2),))"),
    (GSpec, (1, 2, 3), {"K": 1, "L": 2, "M": 3}, "GSpec(K=1, L=2, M=3)"),
    (RatioEntry, (3, Fraction(2), Fraction(1), Fraction(2), "2"),
     {"r": 3, "exact": Fraction(2), "asymptotic": Fraction(1), "ratio": Fraction(2),
      "ratio_decimal": "2"},
     "RatioEntry(r=3, exact=Fraction(2, 1), asymptotic=Fraction(1, 1), "
     "ratio=Fraction(2, 1), ratio_decimal='2')"),
    (RatioReport, ((ENTRY,), Fraction(1), "1", 3, False),
     {"entries": (ENTRY,), "final_error": Fraction(1), "final_error_decimal": "1",
      "monotone_from": 3, "diverging": False},
     f"RatioReport(entries=({ENTRY!r},), final_error=Fraction(1, 1), "
     "final_error_decimal='1', monotone_from=3, diverging=False)"),
    (Block, (2, "weak"), {"count": 2, "constraint": "weak"},
     "Block(count=2, constraint='weak')"),
    (FactorizationQuery, (3, ((2, 1),), (Block(1, "none"),)),
     {"d": 3, "profiles": ((2, 1),), "blocks": (Block(1, "none"),)},
     "FactorizationQuery(d=3, profiles=((2, 1),), "
     "blocks=(Block(count=1, constraint='none'),))"),
]
IDS = [case[0].__name__ for case in FROZEN]


@pytest.mark.parametrize("cls, args, kwargs, text", FROZEN, ids=IDS)
class TestFrozenValues:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs, text):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and hash(a) == hash(b) and not (a != b)
        assert [getattr(a, name) for name in kwargs] == list(args)

    def test_every_field_takes_part_in_equality(self, cls, args, kwargs, text):
        base = cls(*args)
        for name in kwargs:
            other = cls(*args)
            object.__setattr__(other, name, "changed")
            assert base != other
        assert base != args and base.__eq__(args) is NotImplemented

    def test_assignment_is_refused(self, cls, args, kwargs, text):
        value = cls(*args)
        name = next(iter(kwargs))
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.undeclared = 1

    def test_repr_names_every_field(self, cls, args, kwargs, text):
        assert repr(cls(*args)) == text

    def test_copy_and_pickle_keep_the_value(self, cls, args, kwargs, text):
        value = cls(*args)
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value)


class TestDefaults:
    def test_gspec_defaults(self):
        assert GSpec() == GSpec(0, 0, 0) == GSpec(K=0)
        assert GSpec(2) == GSpec(K=2, L=0, M=0) and GSpec(M=1) == GSpec(0, 0, 1)

    def test_factorization_query_defaults_and_normalisation(self):
        q = FactorizationQuery(2)
        assert q.profiles == () and q.blocks == ()
        q = FactorizationQuery(3, [[2, 1]], [Block(1, "none")])
        assert q.profiles == ((2, 1),) and q.blocks == (Block(1, "none"),)
        assert q == FactorizationQuery(d=3, profiles=((2, 1),), blocks=(Block(1, "none"),))
        assert {q: 1}[FactorizationQuery(3, ((2, 1),), (Block(1, "none"),))] == 1

    def test_gspec_and_block_are_cache_keys(self):
        assert len({GSpec(1), GSpec(K=1), GSpec(1, 0, 0)}) == 1
        assert len({Block(1, "weak"), Block(count=1, constraint="weak"), Block(1, "none")}) == 2


class TestHurwitzResult:
    FIELDS = dict(kind="classical", d=3, r=2, profiles=(), connected=False,
                  value=Fraction(1, 2))

    def test_defaults(self):
        res = HurwitzResult(**self.FIELDS)
        assert (res.s, res.t, res.gspec, res.genus, res.extra) == (None, None, None, None, {})
        assert res == HurwitzResult("classical", 3, 2, (), False, Fraction(1, 2))

    def test_extra_is_not_shared(self):
        a, b = HurwitzResult(**self.FIELDS), HurwitzResult(**self.FIELDS)
        a.extra["x"] = 1
        assert b.extra == {} and a != b
        given = {"y": 2}
        assert HurwitzResult(**self.FIELDS, extra=given).extra is given

    def test_mutable_and_unhashable(self):
        res = HurwitzResult(**self.FIELDS)
        res.kind = "completed"
        assert res.kind == "completed"
        assert res != HurwitzResult(**self.FIELDS)
        with pytest.raises(TypeError):
            hash(res)
        with pytest.raises(AttributeError):
            res.undeclared = 1

    def test_repr(self):
        res = HurwitzResult(**self.FIELDS, s=1, gspec=GSpec(1))
        assert repr(res) == (
            "HurwitzResult(kind='classical', d=3, r=2, profiles=(), connected=False, "
            "value=Fraction(1, 2), s=1, t=None, gspec=GSpec(K=1, L=0, M=0), genus=None, "
            "extra={})")


class TestConstructorChecks:
    @pytest.mark.parametrize("kwargs", [{"K": -1}, {"L": -1}, {"M": -2}],
                             ids=["K", "L", "M"])
    def test_gspec_counts(self, kwargs):
        with pytest.raises(DomainError, match=r"GSpec wants nonnegative counts, got GSpec\("):
            GSpec(**kwargs)

    @pytest.mark.parametrize("args, message", [
        ((-1, "none"), "block count must be nonnegative: -1"),
        ((1, "sideways"), "unknown constraint 'sideways'"),
    ], ids=["count", "constraint"])
    def test_block(self, args, message):
        with pytest.raises(DomainError, match=message):
            Block(*args)

    @pytest.mark.parametrize("kwargs, error", [
        ({"d": 3, "profiles": ((2,),)}, DomainError),
        ({"d": 3, "profiles": ((1, 2),)}, DomainError),
        ({"d": 7}, SizeLimitError),
        ({"d": 2, "blocks": (Block(11, "none"),)}, SizeLimitError),
    ], ids=["wrong-degree", "not-a-partition", "degree-guard", "transposition-guard"])
    def test_factorization_query(self, kwargs, error):
        with pytest.raises(error):
            FactorizationQuery(**kwargs)


class Pair(Frozen):
    """A frozen record that writes only ``__slots__`` and ``__init__``."""

    __slots__ = ("left", "right")

    def __init__(self, left, right=0):
        set_field(self, "left", left)
        set_field(self, "right", right)


class Box(Frozen):
    __slots__ = ("item",)

    def __init__(self, item):
        set_field(self, "item", item)


class Cell(Record):
    __slots__ = ("item",)

    def __init__(self, item):
        self.item = item


class TestFieldsFromSlots:
    """The bases build equality, hashing, repr and pickling from ``__slots__``."""

    def test_compares_and_hashes_by_fields(self):
        a, b = Pair(1, HALF), Pair(left=1, right=HALF)
        assert a == b and not (a != b) and hash(a) == hash(b)
        assert a != Pair(1) and a != Pair(2, HALF) and len({a, b, Pair(1)}) == 2
        assert a != (1, HALF) and a.__eq__((1, HALF)) is NotImplemented

    def test_prints_and_pickles_by_fields(self):
        value = Pair(1, HALF)
        assert repr(value) == "Pair(left=1, right=Fraction(1, 2))"
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and hash(twin) == hash(value) and twin is not value

    def test_one_field(self):
        assert Box(3) == Box(3) and hash(Box(3)) == hash(Box(3)) and Box(3) != Box(4)
        assert Box(3) != Cell(3) and repr(Box(3)) == "Box(item=3)"

    def test_mutable_record_compares_but_does_not_hash(self):
        cell = Cell([1])
        assert cell == Cell([1])
        cell.item.append(2)
        assert cell != Cell([1]) and cell == Cell([1, 2])
        with pytest.raises(TypeError):
            hash(cell)
