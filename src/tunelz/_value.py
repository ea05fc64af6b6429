"""Slotted value classes, in place of ``@dataclass``.

``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and ``exec``s generated code for every class it builds,
all of which every command paid at start-up.  A subclass lists its
fields once, in constructor order, in ``__slots__``; ``Value`` compiles
its ``__init__`` from that list, one plain line per field, and the
``defaults`` class keyword gives the defaults of the last fields.

The input boundary is kept here too: the one reader of input files, its
twin for standard input, and the limits on reading numbers from input
text, on the length of a symbol sequence and on quoting input, shared by
the loaders and the baseline.
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


class IngestError(ValueError):
    """An input file that cannot be read or has the wrong shape."""


def read_text(path, what: str) -> str:
    """A file's UTF-8 text, line breaks read as ``\\n``; IngestError names an unreadable one."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {what} {path}: {exc}") from exc


def read_stdin(stdin, what: str) -> str:
    """Binary ``stdin`` read as read_text reads a file; IngestError names it ``-``."""
    try:
        text = stdin.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {what} -: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def excerpt(text: str, show=repr) -> str:
    """``show(text)``, cut after ``_MAX_QUOTED`` characters with the full length noted."""
    if len(text) <= _MAX_QUOTED:
        return show(text)
    return f"{show(text[:_MAX_QUOTED])}... ({len(text)} characters)"


class Value:
    """Field-wise ``==`` between objects of one class; unhashable, since mutable."""

    __slots__ = ()

    def __init_subclass__(cls, defaults=()):
        fields = cls.__match_args__ = cls.__slots__
        if not fields:  # FrozenValue itself
            return
        if issubclass(cls, FrozenValue):
            sets = [f"object.__setattr__(self, {name!r}, {name})" for name in fields]
        else:
            sets = [f"self.{name} = {name}" for name in fields]
        # exec'd once per class, as dataclasses does: the same bytecode as a
        # hand-written __init__, where a generic one taking *args is slower
        namespace = {}
        exec(f"def __init__(self, {', '.join(fields)}): {'; '.join(sets)}", namespace)
        init = cls.__init__ = namespace["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        init.__defaults__ = defaults

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
