"""ABC notation parsing and normalization onto the quaver grid.

A tune body is flattened into a fixed-duration symbol sequence: one
symbol per quaver (eighth note), drawn from the two-octave alphabet
A-G / a-g.  A note lasting k quavers becomes k consecutive identical
letters, accidentals fold onto the bare letter, repeats are expanded
literally, and everything else (bars, spaces, ornaments) is discarded.

The grid is strict.  Durations that are not a whole number of quavers,
pitches outside the two-octave range, rests, and chords are rejected
rather than approximated, because silent quantization would corrupt the
complexity estimates computed downstream.  A ``%`` starts a comment
that runs to the end of its line anywhere in the text, header lines
included; each comment is blanked, not cut, and there is no ``\\%``
escape.  Rejections carry a kind, a human-readable detail, and a
character offset.  A header error's offset counts in the ABC text; a
body error's counts in the tune body as written, from the line after
``K:``.

Everything here is a pure function of its inputs.
"""

import re
from enum import Enum
from fractions import Fraction
from itertools import accumulate

from ._value import MAX_DIGITS, MAX_STREAM_SYMBOLS, Value, excerpt, integer

QUAVER = Fraction(1, 8)
PITCH_LETTERS = frozenset("ABCDEFGabcdefg")


class Category(Enum):
    REEL = "reel"
    JIG = "jig"
    OTHER = "other"


# The paper's two tune shapes: each standard meter's length in quavers and
# category.  A tune with no M: line is read in the first meter.
STANDARD_SHAPES = {(4, 4): (128, Category.REEL), (6, 8): (96, Category.JIG)}
DEFAULT_METER = next(iter(STANDARD_SHAPES))
_STANDARD_NAMES = " or ".join(f"{category.value} ({n}/{d}, {length})"
                              for (n, d), (length, category) in STANDARD_SHAPES.items())


class ErrorKind(Enum):
    OUT_OF_RANGE_NOTE = "out_of_range_note"
    NON_QUAVER_DURATION = "non_quaver_duration"
    WRONG_LENGTH = "wrong_length"
    UNSUPPORTED_CONSTRUCT = "unsupported_construct"
    MALFORMED_HEADER = "malformed_header"


class NormalizationError(ValueError):
    """A tune that cannot be represented on the strict quaver grid."""

    def __init__(self, kind: ErrorKind, detail: str, location: int = 0):
        super().__init__(f"{kind.value}: {detail} (offset {location})")
        self.kind = kind
        self.detail = detail
        self.location = location

    def __reduce__(self):
        # ``args`` holds only the message, so pickle and copy rebuild from the fields
        return type(self), (self.kind, self.detail, self.location)


class AbcTune(Value, defaults=(None,)):
    __slots__ = (
        "reference_number", "title", "meter", "unit_note_length", "key", "body", "rhythm")


class QuaverSequence(Value):
    """A normalized melody: one pitch symbol per quaver, in order."""

    __slots__ = ("symbols", "category")


_FIELD_RE = re.compile(r"^([A-Za-z])\s*:\s*(.*?)\s*$")
# from a "%" to the end of its line, where str.splitlines ends one
_COMMENT_RE = re.compile(r"%[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
_NUMBER = rf"([0-9]{{1,{MAX_DIGITS}}})"
_TOO_LONG = 10**MAX_DIGITS  # the least number of more than MAX_DIGITS digits
_RATIO_RE = re.compile(rf"^{_NUMBER}\s*/\s*{_NUMBER}$")
_METER_LETTERS = {"C": (4, 4), "C|": (2, 2)}  # common and cut time


def _ratio(value: str, what: str, location: int, at_most_one=False) -> tuple[int, int]:
    """An ``n/d`` header value whose numbers are at least 1, and with n <= d if
    ``at_most_one``; else MALFORMED_HEADER, naming ``what`` and quoting ``value``."""
    m = _RATIO_RE.match(value)
    n, d = map(int, m.groups()) if m else (0, 0)
    if n and d and (n <= d or not at_most_one):
        return n, d
    raise NormalizationError(ErrorKind.MALFORMED_HEADER, f"unusable {what} {excerpt(value)}",
                             location)


def _check_digits(what: str, numbers: tuple[int, ...]) -> None:
    """MALFORMED_HEADER if a number of ``what`` has more than ``MAX_DIGITS`` digits;
    ``parse_abc`` reads none such, but a hand-built tune may hold one."""
    if max(map(abs, numbers)) >= _TOO_LONG:
        raise NormalizationError(ErrorKind.MALFORMED_HEADER,
                                 f"{what} has a number of more than {MAX_DIGITS} digits")


def parse_abc(source: str) -> list[AbcTune]:
    """Split ABC text into tunes, one per block starting at an ``X:`` line.

    Header fields X, T, M, L, K and R are extracted (M defaults to
    ``DEFAULT_METER``, the first of the ``STANDARD_SHAPES``, and L to
    1/8); other header lines are ignored.  The body is everything
    after the ``K:`` line up to the next ``X:`` line or end of input.
    Every ``%`` comment, header lines included, is first blanked to
    spaces up to its line break, so header values are read without it
    and every offset counts in ``source`` as written.
    Raises NormalizationError with kind MALFORMED_HEADER, naming the
    offending line, when a block has no ``K:`` line or a field value is
    unusable.
    """
    source = _COMMENT_RE.sub(lambda m: " " * len(m[0]), source)
    lines = source.splitlines(keepends=True)
    offsets = list(accumulate((len(line) for line in lines), initial=0))
    starts = [i for i, line in enumerate(lines)
              if line.lstrip()[:1] == "X" and _is_field(line, "X")]
    ends = starts[1:] + [len(lines)]
    return [_parse_block(lines, offsets, start, end) for start, end in zip(starts, ends)]


def _is_field(line: str, letter: str) -> bool:
    m = _FIELD_RE.match(line.strip())
    return bool(m and m.group(1) == letter)


def _parse_block(lines: list[str], offsets: list[int], start: int, end: int) -> AbcTune:
    reference = None
    title = ""
    meter = DEFAULT_METER
    unit = QUAVER
    key = None
    rhythm = None
    body_start = None

    for i in range(start, end):
        stripped = lines[i].strip()
        if not stripped:
            continue
        m = _FIELD_RE.match(stripped)
        if not m:
            raise NormalizationError(
                ErrorKind.MALFORMED_HEADER,
                f"expected a header field before K:, got {excerpt(stripped)}",
                offsets[i],
            )
        letter, value = m.group(1), m.group(2)
        if letter == "X":
            try:
                reference = integer(value)
            except ValueError as exc:
                raise NormalizationError(
                    ErrorKind.MALFORMED_HEADER,
                    f"reference number {exc}: {excerpt(stripped)}",
                    offsets[i],
                ) from None
        elif letter == "T":
            title = title or value
        elif letter == "M":
            meter = _METER_LETTERS.get(value) or _ratio(value, "meter", offsets[i])
        elif letter == "L":
            unit = Fraction(*_ratio(value, "unit note length", offsets[i], at_most_one=True))
        elif letter == "R":
            rhythm = value
        elif letter == "K":
            key = value
            body_start = i + 1
            break
        # any other field letter: retained in the source, ignored here

    if key is None:
        raise NormalizationError(
            ErrorKind.MALFORMED_HEADER,
            f"tune block is missing its K: line: {excerpt(lines[start].strip())}",
            offsets[start],
        )

    return AbcTune(
        reference_number=reference,
        title=title,
        meter=meter,
        unit_note_length=unit,
        key=key,
        body="".join(lines[body_start:end]),
        rhythm=rhythm,
    )


# ------------------------------------------------------------- body scanning

# stripped like spaces: ornaments with no pitch-grid content, line
# continuations, and the commonest whitespace (spared an isspace() call,
# which the scanner makes only after testing for a bar line)
_SILENT = frozenset("~.HTuv-)\\ \n")
_RESTS = frozenset("zZx")
# written note length: digits, then slashes, then digits after the last
# slash; ASCII digits only, since int() refuses digits such as "²"
_LENGTH_RE = re.compile(r"([0-9]*)(/*)([0-9]*)")
# digits of a length, an ending or a tuplet; str.isdigit also takes "²" and "٢"
_DIGITS = frozenset("0123456789")
# an octave mark or a written length; most notes have neither
_NOTE_SUFFIX = _DIGITS | frozenset("',/")
# the commonest written lengths, one digit with no suffix after it
_ONE_DIGIT = {str(k): k for k in range(1, 10)}


def _quaver_notes(body: str, unit_note_length: Fraction) -> list[tuple[str, int]]:
    """``(letter, quavers)`` per note in one pass over the body, repeats written out.

    A bar line is ``|``, ``||``, ``|]`` or ``[|``.  ``|:`` (also ``||:``
    and ``|]:``) starts a section.  ``:|`` plays the section again, from
    its start or, with no ``|:``, from the last ``:|`` or the body's
    start, and a new section starts after it; so do ``::`` and ``:|:``.
    With numbered endings the first pass plays through ending 1, and
    the second pass stops where ending 1 began and goes on into ending 2:
    ``|1``, ``:|1`` and ``[1`` open ending 1 unless one is open in the
    section, and ``|2``, ``:|2`` and ``[2`` change nothing.  Any other
    ending digit is an error, at the digit, or at the ``[`` of ``[3``.  A
    ``:|`` takes no ``]`` or ``|`` after it, ``::`` nothing at all, and a
    colon in no ``:|`` or ``::`` is a stray colon.  The first construct
    that cannot be read raises at once; the first note that does not
    fill whole quavers raises only once the scan has ended.
    """
    _check_digits("unit note length", (unit_note_length.numerator, unit_note_length.denominator))
    # a note lasts unit * num/den whole notes, that is 8 * unit * num/den quavers
    unit_num, unit_den = 8 * unit_note_length.numerator, unit_note_length.denominator
    bare = divmod(unit_num, unit_den)  # the quavers of a note with no written length
    out: list[tuple[str, int]] = []
    append = out.append
    section_start = 0  # where the section a ":|" repeats begins in out
    ending_1_at = None  # where ending 1 of that section begins in out
    off_grid = None  # the error for the first note whose duration cannot be written out
    i = 0
    n = len(body)
    while i < n:
        c = body[i]
        start = i
        if c in "^_=":  # accidentals fold onto the bare letter
            while i < n and body[i] in "^_=":
                i += 1
            if i >= n or body[i] not in PITCH_LETTERS:
                raise NormalizationError(
                    ErrorKind.UNSUPPORTED_CONSTRUCT,
                    "accidental without a pitch letter",
                    start,
                )
            c = body[i]
        if c in PITCH_LETTERS:
            i += 1
            if i == n or body[i] not in _NOTE_SUFFIX:
                num = den = 1
                quavers, rest = bare
            else:
                num = _ONE_DIGIT.get(body[i])
                if num is not None and (i + 1 == n or body[i + 1] not in _NOTE_SUFFIX):
                    den = 1
                    i += 1
                elif body[i] in "',":
                    raise NormalizationError(
                        ErrorKind.OUT_OF_RANGE_NOTE,
                        f"{c}{body[i]} lies outside the two-octave alphabet",
                        start,
                    )
                else:
                    m = _LENGTH_RE.match(body, i)
                    if m.end() - i > MAX_DIGITS:
                        raise NormalizationError(
                            ErrorKind.NON_QUAVER_DURATION,
                            f"{c} has a written length of more than {MAX_DIGITS} characters",
                            start,
                        )
                    digits, slashes, divisor = m.groups()
                    num = int(digits) if digits else 1
                    # A/ halves, A// quarters, A/3 divides by 3 and A//3 by 6
                    den = 2 ** (len(slashes) - 1) * int(divisor) if divisor else 2 ** len(slashes)
                    if num == 0 or den == 0:
                        raise NormalizationError(
                            ErrorKind.NON_QUAVER_DURATION, "zero duration", start
                        )
                    i = m.end()
                quavers, rest = divmod(unit_num * num, unit_den * den)
            if rest and off_grid is None:
                off_grid = NormalizationError(
                    ErrorKind.NON_QUAVER_DURATION,
                    f"{c} lasts {Fraction(unit_num * num, unit_den * den)} quavers",
                    start,
                )
            append((c, quavers))
        elif c in _SILENT:
            i += 1
        elif c == "|" or c == ":":
            i += 1
            if c == ":":
                if i == n or body[i] not in ":|":
                    raise NormalizationError(
                        ErrorKind.UNSUPPORTED_CONSTRUCT, "stray colon", start
                    )
                # ":|" ends a repeat, and so does "::", whose repeat start then
                # changes nothing: the next section starts here either way
                out += out[section_start:len(out) if ending_1_at is None else ending_1_at]
                section_start, ending_1_at = len(out), None
                i += 1
                if body[i - 1] == ":":
                    continue
            elif i < n and body[i] in "]|":
                i += 1
            if i < n and body[i] == ":":  # repeat start
                section_start, ending_1_at = len(out), None
                i += 1
            elif i < n and body[i] in _DIGITS:
                ending_1_at = _ending(body[i], i, ending_1_at, len(out))
                i += 1
        elif c.isspace():
            i += 1
        elif c == "{":
            close = body.find("}", i)
            if close == -1:
                raise NormalizationError(
                    ErrorKind.UNSUPPORTED_CONSTRUCT, "unterminated grace group", i
                )
            i = close + 1
        elif c == '"':
            close = body.find('"', i + 1)
            if close == -1:
                raise NormalizationError(
                    ErrorKind.UNSUPPORTED_CONSTRUCT, "unterminated annotation", i
                )
            i = close + 1
        elif c == "(":
            if i + 1 < n and body[i + 1] in _DIGITS:
                raise NormalizationError(
                    ErrorKind.NON_QUAVER_DURATION,
                    f"tuplet group ({body[i + 1]} cannot sit on the quaver grid",
                    i,
                )
            i += 1  # slur
        elif c == "[":
            if i + 1 < n and body[i + 1] in _DIGITS:
                ending_1_at = _ending(body[i + 1], i, ending_1_at, len(out))
                i += 2
            elif i + 1 < n and body[i + 1] == "|":
                i += 2
            elif i + 2 < n and body[i + 1].isalpha() and body[i + 2] == ":":
                raise NormalizationError(
                    ErrorKind.UNSUPPORTED_CONSTRUCT, "inline field change", i
                )
            else:
                raise NormalizationError(
                    ErrorKind.UNSUPPORTED_CONSTRUCT, "chord", i
                )
        elif c in _RESTS:
            raise NormalizationError(
                ErrorKind.UNSUPPORTED_CONSTRUCT,
                "rest has no symbol in the pitch alphabet",
                i,
            )
        elif c in "<>":
            raise NormalizationError(
                ErrorKind.NON_QUAVER_DURATION,
                "broken rhythm cannot sit on the quaver grid",
                i,
            )
        else:
            raise NormalizationError(
                ErrorKind.UNSUPPORTED_CONSTRUCT, f"unsupported character {c!r}", i
            )
    if off_grid is not None:
        raise off_grid
    return out


def _ending(digit: str, location: int, ending_1_at: int | None, here: int) -> int | None:
    """Where ending 1 begins once ending ``digit`` is read at ``here`` in the
    output: the first ``1`` of a section opens it, ``2`` carries no content."""
    if digit == "1":
        return here if ending_1_at is None else ending_1_at
    if digit == "2":
        return ending_1_at
    raise NormalizationError(
        ErrorKind.UNSUPPORTED_CONSTRUCT, f"ending |{digit} beyond second", location
    )


def expand_body(body: str, unit_note_length: Fraction = QUAVER) -> str:
    """Expand a tune body into quaver-grid symbols, one letter per quaver.

    Each note lasting k quavers (unit note length x written multiplier,
    measured in quavers) becomes k repeated letters; repeats are written
    out; accidentals fold to the bare letter.  No standard-length gate
    is applied here (see ``normalize``), but a body lasting more than
    ``MAX_STREAM_SYMBOLS`` quavers raises WRONG_LENGTH, judged on the
    quaver count before any symbol string is built, and so only once
    the scan has found no unreadable construct and no off-grid note.
    """
    pairs = _quaver_notes(body, unit_note_length)
    total = sum([quavers for _, quavers in pairs])
    if total > MAX_STREAM_SYMBOLS:
        raise NormalizationError(
            ErrorKind.WRONG_LENGTH,
            f"body lasts {total} quavers, more than the ceiling of {MAX_STREAM_SYMBOLS}",
        )
    return "".join([letter * quavers for letter, quavers in pairs])


def normalize(tune: AbcTune) -> QuaverSequence:
    """Flatten a parsed tune into its quaver-grid symbol sequence.

    Accepts only a tune of one of the ``STANDARD_SHAPES``: a standard
    meter and its length in quavers, which give its category (a reel or a
    jig); anything else raises WRONG_LENGTH, judged on the quaver count
    before any symbol string is built.  A meter or unit note length number
    of more than ``MAX_DIGITS`` digits, which ``parse_abc`` never reads,
    raises MALFORMED_HEADER.
    """
    pairs = _quaver_notes(tune.body, tune.unit_note_length)
    total = sum([quavers for _, quavers in pairs])
    length, category = STANDARD_SHAPES.get(tune.meter, (None, None))
    if total != length:
        _check_digits("meter", tune.meter)
        raise NormalizationError(
            ErrorKind.WRONG_LENGTH,
            f"meter {tune.meter[0]}/{tune.meter[1]} with {total} quavers is not a "
            f"standard-length {_STANDARD_NAMES}",
        )
    return QuaverSequence("".join([letter * quavers for letter, quavers in pairs]), category)
