"""Immutable records with the value semantics of a frozen dataclass: the
fields are the ``__slots__``, at least two, set once through :func:`fill`;
``==``, hashing and ``repr`` go by them in order, and assignment raises
AttributeError.  A subclass that declares no slots keeps its parent's fields."""

from operator import attrgetter


def fill(record, *values):
    """Set the fields of a new record, in ``__slots__`` order, through the
    slot descriptors, which the assignment guard does not see."""
    for set_field, value in zip(record._setters, values):
        set_field(record, value)
    return record


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._names = names = cls.__slots__
            cls._setters = tuple(getattr(cls, name).__set__ for name in names)
            # the field tuple, as attrgetter of two or more names returns one;
            # a C callable does not bind, so call it as self._fields(self)
            cls._fields = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")
