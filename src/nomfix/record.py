"""Immutable records with the value semantics of a frozen dataclass: the
fields are the ``__slots__``, at least two, set once through :func:`fill`;
``==``, hashing and ``repr`` go by them in order, and assignment raises
AttributeError.  A subclass that declares no slots keeps its parent's fields.
A :class:`Family` holds members with distinct names, such as the operations
of a binding signature or the orbits of an orbit-finite set."""

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


class Family:
    """A tuple of members with distinct ``name``s, ``==`` and hashing by it, and
    lookup by name.  A subclass sets the messages ``_repeated`` and ``_unknown``,
    formatted with the name, and aliases ``_members`` and ``_lookup``."""

    __slots__ = ("_members", "_by_name")

    def __init__(self, members):
        self._members = tuple(members)
        self._by_name = {}
        for member in self._members:
            if member.name in self._by_name:
                raise ValueError(self._repeated.format(member.name))
            self._by_name[member.name] = member

    def _lookup(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(self._unknown.format(name)) from None

    def __contains__(self, name):
        return name in self._by_name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._members == other._members

    def __hash__(self):
        return hash(self._members)

    def __repr__(self):
        return f"{self.__class__.__qualname__}({list(self._by_name)})"


class lazy:
    """An attribute computed by ``compute(instance)`` on first read and kept by
    ``setattr``, which then shadows this descriptor.  Unlike ``cached_property``
    it never reads the instance ``__dict__``, which slows later loads on it."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        setattr(instance, self.name, value := self.compute(instance))
        return value
