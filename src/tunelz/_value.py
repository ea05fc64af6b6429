"""Slotted, frozen value classes, in place of ``@dataclass(frozen=True)``.

``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and ``exec``s generated code for every class it builds,
all of which every command paid at start-up.  A subclass lists its
fields once, in constructor order, in ``__slots__``; ``Value`` compiles
its ``__init__`` from that list, one plain call per field, the
``defaults`` class keyword gives the defaults of the last fields, and
``plain`` reads the fields back out as JSON-ready data for the exports.
Every value is frozen and hashed by its fields.

The input boundary is kept here too: the one reader of input files, its
twin for standard input, the one writer of output files, the one reader
of numbers in text and flags, the one loader of JSON text and reader of
its fields, and the limits on the length of a symbol sequence and on
quoting input, shared by the loaders and the baseline.
"""

import json
import sys
from enum import Enum
from fractions import Fraction

# Longest number tunelz takes, where a digit is ASCII 0-9 (int() and
# str.isdigit take other scripts' digits too), whether it comes in text,
# JSON, a flag or a token stream built in Python.  A longer one is refused
# by its size, and in text unread, as int() of a long digit string is
# slow; so an error prints every number it names in full.
MAX_DIGITS = 100
# Most symbols a sequence may hold: the longest tune is a few hundred
# quavers.  This bounds the memory a short input can expand to, and the
# LZ77 parse's time, which grows about quadratically: 20,000 letters over
# 2 symbols, the slowest alphabet, parse in about 0.4 s (one core of a
# 2-core x86-64 host, CPython 3.11).
MAX_STREAM_SYMBOLS = 20_000
# Most characters of input text quoted in an error
_MAX_QUOTED = 120
_SCALARS = frozenset({str, int, float, bool, type(None)})  # plain returns these as they are
# JSON kinds: a name for errors, and the types a value loads as (bool is not int) or values
STRING = ("a string", (str,))
INTEGER = ("a JSON integer", (int,))
NUMBER = ("a JSON number", (int, float))
ARRAY = ("an array", (list,))
OBJECT = ("an object", (dict,))


class IngestError(ValueError):
    """An input file that cannot be read or has the wrong shape."""


def read_text(path, what: str) -> str:
    """A file's UTF-8 text, less a leading byte-order mark, line breaks read
    as ``\\n``; IngestError names an unreadable one."""
    try:
        with open(path, encoding="utf-8-sig") as file:
            return file.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {what} {path}: {exc}") from exc


def write_text(path, what: str, text: str) -> None:
    """Write ``text`` to a file as UTF-8; an OSError names a file that cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as file:
            file.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {what} {path}: {exc}") from exc


def read_stdin(stdin, what: str) -> str:
    """Binary ``stdin`` read as read_text reads a file; IngestError names it ``-``."""
    try:
        text = stdin.read().decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {what} -: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def integer(text: str) -> int:
    """``text`` read as ASCII digits, at most ``MAX_DIGITS`` of them (int() takes
    "+1", " 1", "1_0" and "١" too); ValueError's message completes "number …"."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("is not an integer")
    if len(text) > MAX_DIGITS:
        raise ValueError(f"of more than {MAX_DIGITS} digits")
    return int(text)


def _json_integer(text: str) -> int:
    if len(text) - text.startswith("-") > MAX_DIGITS:  # as integer() refuses it
        raise ValueError(f"an integer of more than {MAX_DIGITS} digits")
    return int(text)


def _json_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_json(text: str, what: str, top: type):
    """``text`` read as JSON whose top level is a ``top`` (list or dict), with no NaN,
    Infinity or integer of over ``MAX_DIGITS`` digits; ValueError says why ``what`` is not."""
    try:
        value = json.loads(text, parse_int=_json_integer, parse_constant=_json_constant)
    except (ValueError, RecursionError) as exc:  # or nesting deeper than the stack
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    if type(value) is not top:
        raise ValueError(f"{what} is not a JSON {'array' if top is list else 'object'}")
    return value


def field(fields: dict, name: str, kind: tuple, what: str, *default):
    """``item`` of ``fields[name]``, or a ``default`` given for an absent field."""
    if name in fields:
        return item(fields[name], kind, f"{what} {name}")
    if not default:
        raise ValueError(f"{what} lacks field {name!r}")
    return default[0]


def item(value, kind: tuple, what: str):
    """``value``, if it is of ``kind``; ValueError names ``what`` and ``kind``, quoting it."""
    name, accepted = kind
    if type(value) in accepted or value in accepted:
        return value
    raise ValueError(f"{what} is not {name}: {excerpt(json.dumps(value), str)}")


def excerpt(text: str, show=repr) -> str:
    """``show(text)``, cut after ``_MAX_QUOTED`` characters with the full length noted."""
    if len(text) <= _MAX_QUOTED:
        return show(text)
    return f"{show(text[:_MAX_QUOTED])}... ({len(text)} characters)"


def shown(value, show=str) -> str:
    """``show(value)`` excerpted, for an error that quotes a value such as a token or a
    field; an int too long for ``str`` to write, or a value holding one, by its size."""
    try:
        return excerpt(show(value), str)
    except ValueError:  # str() refuses an int past the interpreter's digit limit
        size = f"an integer of more than {sys.get_int_max_str_digits()} digits"
        return size if type(value) is int else f"{type(value).__name__} holding {size}"


class Value:
    """Fields fixed at construction: field-wise ``==`` between objects of
    one class, a hash of the fields, and no assignment or deletion."""

    __slots__ = ()

    def __init_subclass__(cls, defaults=()):
        fields = cls.__match_args__ = cls.__slots__
        # exec'd once per class, as dataclasses does, where a generic __init__
        # taking *args is slower; each field is set through its slot's own
        # setter, which the refusing __setattr__ does not see
        namespace = {f"_set{i}": cls.__dict__[name].__set__ for i, name in enumerate(fields)}
        sets = [f"_set{i}(self, {name})" for i, name in enumerate(fields)]
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

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # rebuilt through __init__: unpickling must not assign fields one by one
        return type(self), self._values()


def plain(value):
    """``value`` as JSON-ready data: a Value becomes a dict of its fields in
    ``__slots__`` order, a tuple or list a list, a Fraction a float and an
    enum member its value, each read through ``plain`` in turn; any other
    value raises TypeError."""
    # exact types first: isinstance(value, Fraction) runs through ABCMeta
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is Fraction:
        return value.numerator / value.denominator  # float(value), without two int() calls
    if kind is tuple or kind is list:
        return [plain(item) for item in value]
    if isinstance(value, Value):
        fields = {}
        for name in value.__slots__:
            field = getattr(value, name)
            fields[name] = field if type(field) in _SCALARS else plain(field)
        return fields
    if isinstance(value, Enum):
        return value._value_  # .value, without its descriptor
    raise TypeError(f"no plain form for a {kind.__qualname__}")

