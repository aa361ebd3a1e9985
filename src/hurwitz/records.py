"""Bases of the package's small value classes.

Each value class lists its fields in ``__slots__`` and writes its own
``__init__``, ``__eq__`` and, when frozen, ``__hash__``: these are the
calls that run once per instance or per cache lookup.  The bases add
what is read rarely: the ``repr`` a dataclass would print, and for
frozen classes the refusal to assign and a ``__reduce__`` for ``copy``
and ``pickle``.  (The package does not use ``dataclasses``: importing it
pulls in ``inspect``, ``ast`` and ``tokenize``, and each decorated class
``exec``s its generated methods, which every fresh interpreter, so every
shell invocation of the CLI, pays for.)
"""

from __future__ import annotations

# what a frozen ``__init__`` assigns its fields with
set_field = object.__setattr__


class Record:
    """``ClassName(field=value, ...)`` over the fields in ``__slots__``."""

    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields are set once, in ``__init__``, through
    ``object.__setattr__``; its ``__init__`` takes the fields positionally
    in ``__slots__`` order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
