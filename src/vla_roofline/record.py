"""Immutable value records: frozen dataclasses without importing
``dataclasses``, which loads ``inspect`` and compiles every class's methods
when the package is imported."""

from operator import attrgetter

# Stores a field from ``__init__``, past the assignment guard of Record.
set_field = object.__setattr__


class Record:
    """A value type whose ``__slots__`` name its fields, in order; a slot
    named with a leading underscore holds a value derived from them.
    ``__init__`` takes the fields in that order, stores them with
    ``set_field``, then validates."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._positions = {name: i for i, name in enumerate(cls._fields)}
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1
                                   else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)


def replace(obj: Record, **changes) -> Record:
    """A copy of ``obj`` with ``changes`` applied, validated as a new record;
    ``__init__`` takes the fields by position, as ``__reduce__`` does."""
    values = list(obj._values(obj))
    for name, value in changes.items():
        position = obj._positions.get(name)
        if position is None:
            raise TypeError(f"{obj.__class__.__qualname__}.__init__() got an "
                            f"unexpected keyword argument {name!r}")
        values[position] = value
    return obj.__class__(*values)
