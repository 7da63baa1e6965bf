"""Immutable value classes without the dataclasses module.

Importing dataclasses loads inspect, and each class it builds compiles its
methods from generated source: 10-20 ms of every CLI process's start-up
in all.  A Value subclass lists its fields in _fields, in constructor
order; the constructor takes them by position or by name, as a dataclass
did, stores them and then calls __post_init__ through the class, once per
instance, which may normalise a field with object.__setattr__.
Instances of the same class are equal when their fields are, hash over
the field tuple and refuse assignment; cached_property values live in the
instance dict, as do the fields, so copy and pickle carry them over.
"""


class Value:
    _fields = ()

    def __init__(self, *values, **named):
        fields = self._fields
        if named:  # the fields after the positional ones, by name
            values += tuple([named.pop(f) for f in fields[len(values):] if f in named])
        if named or len(values) != len(fields):  # unknown, repeated or missing
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        self.__dict__.update(zip(fields, values))
        self.__post_init__()

    def __post_init__(self):
        pass

    def _key(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
