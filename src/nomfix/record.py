"""Immutable records with the value semantics of a frozen dataclass: the
fields are the ``__slots__``, set once through :func:`fill`; ``==``, hashing
and ``repr`` go by them in order, and assignment raises AttributeError."""


def fill(record, *values):
    """Set the fields of a new record, in ``__slots__`` order, through the
    slot descriptors, which the assignment guard does not see."""
    for set_field, value in zip(record._setters, values):
        set_field(record, value)
    return record


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through the constructor
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")
