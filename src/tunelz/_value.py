"""Slotted value classes, in place of ``@dataclass``.

``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and ``exec``s generated code for every class it builds,
all of which every command paid at start-up.  A subclass lists its
fields, in constructor order, in ``__slots__`` and sets each of them in
its own ``__init__`` (through ``object.__setattr__`` when frozen).

The limits on reading numbers from input text, on the length of a
symbol sequence and on quoting input in an error are kept here too,
shared by the ABC and token-stream loaders and the baseline.
"""

# Longest number read from input text.  Longer ones are refused unread:
# int() of a long digit string is slow, and a value past Python's int/str
# digit limit could neither be read nor printed in an error.
MAX_DIGITS = 100
# Most symbols a sequence may hold: the longest tune is a few hundred
# quavers, and this keeps a short input from expanding to gigabytes.
MAX_STREAM_SYMBOLS = 1_000_000
# Most characters of input text quoted in an error
_MAX_QUOTED = 120


def excerpt(text: str, show=repr) -> str:
    """``show(text)``, cut after ``_MAX_QUOTED`` characters with the full length noted."""
    if len(text) <= _MAX_QUOTED:
        return show(text)
    return f"{show(text[:_MAX_QUOTED])}... ({len(text)} characters)"


class Value:
    """Field-wise ``==`` between objects of one class; unhashable, since mutable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__: unpickling must not assign fields one by one
        return type(self), self._values()


class FrozenValue(Value):
    """A Value whose fields cannot change after construction; hashed by its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
