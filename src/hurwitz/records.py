"""Bases of the package's small value classes.

Each value class lists its fields in ``__slots__`` and writes only its
``__init__``, which holds the defaults and the argument checks.  The
bases read ``__slots__`` for the rest: equality, and for frozen classes
hashing, compare the tuple of fields; ``repr`` prints what a dataclass
would; frozen classes refuse assignment and give ``copy`` and ``pickle``
a ``__reduce__``.  A ``Record`` is mutable and unhashable.  (The package
does not use ``dataclasses``: importing it pulls in ``inspect``, ``ast``
and ``tokenize``, and each decorated class ``exec``s its generated
methods, which every fresh interpreter, so every shell invocation of the
CLI, pays for.)
"""

from __future__ import annotations

from operator import attrgetter

# what a frozen ``__init__`` assigns its fields with
set_field = object.__setattr__


class Record:
    """``ClassName(field=value, ...)`` over the fields in ``__slots__``,
    equal to another instance of its class with equal fields."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:  # ``Frozen`` adds none
            # the tuple of fields (the one field itself, for one slot)
            cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields are set once, in ``__init__``, through
    ``object.__setattr__``; its ``__init__`` takes the fields positionally
    in ``__slots__`` order.  Hashable when its fields are."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
