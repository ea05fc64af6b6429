"""ABC notation parsing and normalization onto the quaver grid.

A tune body is flattened into a fixed-duration symbol sequence: one
symbol per quaver (eighth note), drawn from the two-octave alphabet
A-G / a-g.  A note lasting k quavers becomes k consecutive identical
letters, accidentals fold onto the bare letter, repeats are expanded
literally, and everything else (bars, spaces, ornaments) is discarded.

The grid is strict.  Durations that are not a whole number of quavers,
pitches outside the two-octave range, rests, and chords are rejected
rather than approximated, because silent quantization would corrupt the
complexity estimates computed downstream.  Rejections carry a kind, a
human-readable detail, and a character offset into the tune body.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate

QUAVER = Fraction(1, 8)
PITCH_LETTERS = frozenset("ABCDEFGabcdefg")

REEL_METER = (4, 4)
REEL_LENGTH = 128
JIG_METER = (6, 8)
JIG_LENGTH = 96


class Category(Enum):
    REEL = "reel"
    JIG = "jig"
    OTHER = "other"


class ErrorKind(Enum):
    OUT_OF_RANGE_NOTE = "out_of_range_note"
    NON_QUAVER_DURATION = "non_quaver_duration"
    WRONG_LENGTH = "wrong_length"
    UNSUPPORTED_CONSTRUCT = "unsupported_construct"
    MALFORMED_HEADER = "malformed_header"


class NormalizationError(Exception):
    """A tune that cannot be represented on the strict quaver grid."""

    def __init__(self, kind: ErrorKind, detail: str, location: int = 0):
        super().__init__(f"{kind.value}: {detail} (offset {location})")
        self.kind = kind
        self.detail = detail
        self.location = location


@dataclass
class AbcTune:
    reference_number: int
    title: str
    meter: tuple[int, int]
    unit_note_length: Fraction
    key: str
    body: str
    rhythm: str | None = None


@dataclass(frozen=True)
class QuaverSequence:
    """A normalized melody: one pitch symbol per quaver, in order."""

    symbols: str
    category: Category


_FIELD_RE = re.compile(r"^([A-Za-z])\s*:\s*(.*?)\s*$")
# Longest number (or note length) read from ABC text.  Longer ones are
# refused unread: int() of a long digit string is slow, and a value past
# Python's int/str digit limit could neither be read nor printed in a detail.
_MAX_DIGITS = 100
_NUMBER = rf"(\d{{1,{_MAX_DIGITS}}})"
_METER_RE = re.compile(rf"^{_NUMBER}\s*/\s*{_NUMBER}$")


def _parse_meter(value: str, location: int) -> tuple[int, int]:
    value = value.strip()
    if value == "C":
        return (4, 4)
    if value == "C|":
        return (2, 2)
    m = _METER_RE.match(value)
    if not m or int(m.group(1)) < 1 or int(m.group(2)) < 1:
        raise NormalizationError(
            ErrorKind.MALFORMED_HEADER, f"unusable meter {value!r}", location
        )
    return (int(m.group(1)), int(m.group(2)))


def _parse_unit_length(value: str, location: int) -> Fraction:
    m = _METER_RE.match(value.strip())
    if m and 0 < int(m.group(1)) <= int(m.group(2)):
        return Fraction(int(m.group(1)), int(m.group(2)))
    raise NormalizationError(
        ErrorKind.MALFORMED_HEADER, f"unusable unit note length {value!r}", location
    )


def parse_abc(source: str) -> list[AbcTune]:
    """Split ABC text into tunes, one per block starting at an ``X:`` line.

    Header fields X, T, M, L, K and R are extracted (M defaults to 4/4,
    L to 1/8); other header lines are ignored.  The body is everything
    after the ``K:`` line up to the next ``X:`` line or end of input.
    Raises NormalizationError with kind MALFORMED_HEADER, naming the
    offending line, when a block has no ``K:`` line or a field value is
    unusable.
    """
    lines = source.splitlines(keepends=True)
    offsets = list(accumulate((len(line) for line in lines), initial=0))
    starts = [i for i, line in enumerate(lines) if _is_field(line, "X")]
    ends = starts[1:] + [len(lines)]
    return [_parse_block(lines, offsets, start, end) for start, end in zip(starts, ends)]


def _is_field(line: str, letter: str) -> bool:
    m = _FIELD_RE.match(line.strip())
    return bool(m and m.group(1) == letter)


def _parse_block(lines: list[str], offsets: list[int], start: int, end: int) -> AbcTune:
    reference = None
    title = ""
    meter = REEL_METER
    unit = QUAVER
    key = None
    rhythm = None
    body_start = None

    for i in range(start, end):
        raw = lines[i]
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        m = _FIELD_RE.match(stripped)
        if not m:
            raise NormalizationError(
                ErrorKind.MALFORMED_HEADER,
                f"expected a header field before K:, got {stripped!r}",
                offsets[i],
            )
        letter, value = m.group(1), m.group(2)
        if letter == "X":
            try:
                reference = int(value)
            except ValueError:
                raise NormalizationError(
                    ErrorKind.MALFORMED_HEADER,
                    f"reference number is not an integer: {stripped!r}",
                    offsets[i],
                ) from None
        elif letter == "T":
            title = title or value
        elif letter == "M":
            meter = _parse_meter(value, offsets[i])
        elif letter == "L":
            unit = _parse_unit_length(value, offsets[i])
        elif letter == "R":
            rhythm = value
        elif letter == "K":
            key = value
            body_start = i + 1
            break
        # any other field letter: retained in the source, ignored here

    if reference is None or key is None:
        missing = "X:" if reference is None else "K:"
        raise NormalizationError(
            ErrorKind.MALFORMED_HEADER,
            f"tune block is missing its {missing} line: {lines[start].strip()!r}",
            offsets[start],
        )

    body_lines = []
    for i in range(body_start, end):
        line = lines[i]
        if line.strip().startswith("%"):
            continue
        body_lines.append(line.split("%")[0] if "%" in line else line)
    return AbcTune(
        reference_number=reference,
        title=title,
        meter=meter,
        unit_note_length=unit,
        key=key,
        body="".join(body_lines),
        rhythm=rhythm,
    )


# ------------------------------------------------------------- body scanning

# ornaments with no pitch-grid content; stripped like spaces
_SILENT = frozenset("~.HTuv-)")
_RESTS = frozenset("zZx")
# written note length: digits, then slashes, then digits after the last
# slash; ASCII digits only, since int() refuses digits such as "²"
_LENGTH_RE = re.compile(r"([0-9]*)(/*)([0-9]*)")
_LENGTH_START = frozenset("0123456789/")  # most notes have no written length


@dataclass
class _Note:
    letter: str
    num: int  # written length: num/den unit note lengths
    den: int
    location: int


class _Marker(Enum):
    BAR = "bar"
    REPEAT_START = "repeat_start"
    REPEAT_END = "repeat_end"
    ENDING_1 = "ending_1"
    ENDING_2 = "ending_2"


def _scan_body(body: str) -> list:
    """Tokenize a tune body into note and structure events."""
    events: list = []
    i = 0
    n = len(body)
    while i < n:
        c = body[i]
        if c.isspace() or c == "\\" or c in _SILENT:
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
            if i + 1 < n and body[i + 1].isdigit():
                raise NormalizationError(
                    ErrorKind.NON_QUAVER_DURATION,
                    f"tuplet group ({body[i + 1]} cannot sit on the quaver grid",
                    i,
                )
            i += 1  # slur
        elif c == "|":
            events.append(_Marker.BAR)
            i += 1
            if i < n and body[i] in "]|":
                i += 1
            if i < n and body[i] == ":":
                events.append(_Marker.REPEAT_START)
                i += 1
            elif i < n and body[i].isdigit():
                events.append(_ending_marker(body[i], i))
                i += 1
        elif c == ":":
            if i + 1 < n and body[i + 1] == ":":
                events.append(_Marker.REPEAT_END)
                events.append(_Marker.REPEAT_START)
                i += 2
            elif i + 1 < n and body[i + 1] == "|":
                events.append(_Marker.REPEAT_END)
                i += 2
                if i < n and body[i] == ":":
                    events.append(_Marker.REPEAT_START)
                    i += 1
                elif i < n and body[i].isdigit():
                    events.append(_ending_marker(body[i], i))
                    i += 1
            else:
                raise NormalizationError(
                    ErrorKind.UNSUPPORTED_CONSTRUCT, "stray colon", i
                )
        elif c == "[":
            if i + 1 < n and body[i + 1].isdigit():
                events.append(_ending_marker(body[i + 1], i))
                i += 2
            elif i + 1 < n and body[i + 1] == "|":
                events.append(_Marker.BAR)
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
        elif c in "^_=":
            start = i
            while i < n and body[i] in "^_=":
                i += 1
            if i >= n or body[i] not in PITCH_LETTERS:
                raise NormalizationError(
                    ErrorKind.UNSUPPORTED_CONSTRUCT,
                    "accidental without a pitch letter",
                    start,
                )
            i = _scan_note(body, i, start, events)
        elif c in PITCH_LETTERS:
            i = _scan_note(body, i, i, events)
        else:
            raise NormalizationError(
                ErrorKind.UNSUPPORTED_CONSTRUCT, f"unsupported character {c!r}", i
            )
    return events


def _ending_marker(digit: str, location: int) -> _Marker:
    if digit == "1":
        return _Marker.ENDING_1
    if digit == "2":
        return _Marker.ENDING_2
    raise NormalizationError(
        ErrorKind.UNSUPPORTED_CONSTRUCT, f"ending |{digit} beyond second", location
    )


def _scan_note(body: str, i: int, note_start: int, events: list) -> int:
    letter = body[i]
    i += 1
    n = len(body)
    if i < n and body[i] in "',":
        raise NormalizationError(
            ErrorKind.OUT_OF_RANGE_NOTE,
            f"{letter}{body[i]} lies outside the two-octave alphabet",
            note_start,
        )
    if i == n or body[i] not in _LENGTH_START:
        events.append(_Note(letter, 1, 1, note_start))
        return i
    m = _LENGTH_RE.match(body, i)
    if m.end() - i > _MAX_DIGITS:
        raise NormalizationError(
            ErrorKind.NON_QUAVER_DURATION,
            f"{letter} has a written length of more than {_MAX_DIGITS} characters",
            note_start,
        )
    digits, slashes, divisor = m.groups()
    num = int(digits) if digits else 1
    # A/ halves, A// quarters, A/3 divides by 3 and A//3 by 6
    den = 2 ** (len(slashes) - 1) * int(divisor) if divisor else 2 ** len(slashes)
    if num == 0 or den == 0:
        raise NormalizationError(
            ErrorKind.NON_QUAVER_DURATION, "zero duration", note_start
        )
    events.append(_Note(letter, num, den, note_start))
    return m.end()


def _expand_repeats(events: list) -> list[_Note]:
    """Write out repeated sections literally.

    ``|: section :|`` plays the section twice; a ``:|`` without an
    opening ``|:`` repeats from the start of the current section.  With
    numbered endings the first pass plays through ending 1, the second
    pass stops where ending 1 began and continues into ending 2.
    """
    out: list[_Note] = []
    section: list[_Note] = []
    ending_1_at: int | None = None
    for ev in events:
        if isinstance(ev, _Note):
            section.append(ev)
        elif ev is _Marker.REPEAT_START:
            out.extend(section)
            section = []
            ending_1_at = None
        elif ev is _Marker.REPEAT_END:
            out.extend(section)
            out.extend(section if ending_1_at is None else section[:ending_1_at])
            section = []
            ending_1_at = None
        elif ev is _Marker.ENDING_1:
            if ending_1_at is None:
                ending_1_at = len(section)
        # BAR and ENDING_2 carry no content: ending-2 notes simply
        # continue the stream after the second pass stops short.
    out.extend(section)
    return out


def _quaver_notes(body: str, unit_note_length: Fraction) -> list[tuple[str, int]]:
    """``(letter, quavers)`` per note, repeats written out; scan errors win."""
    # a note lasts unit * num/den whole notes, that is 8 * unit * num/den quavers
    unit_num, unit_den = 8 * unit_note_length.numerator, unit_note_length.denominator
    pairs = []
    for note in _expand_repeats(_scan_body(body)):
        quavers, rest = divmod(unit_num * note.num, unit_den * note.den)
        if rest:
            duration = Fraction(unit_num * note.num, unit_den * note.den)
            raise NormalizationError(
                ErrorKind.NON_QUAVER_DURATION, f"{note.letter} lasts {duration} quavers",
                note.location,
            )
        pairs.append((note.letter, quavers))
    return pairs


def expand_body(body: str, unit_note_length: Fraction = QUAVER) -> str:
    """Expand a tune body into quaver-grid symbols, one letter per quaver.

    Each note lasting k quavers (unit note length x written multiplier,
    measured in quavers) becomes k repeated letters; repeats are written
    out; accidentals fold to the bare letter.  No length gate is applied
    here -- see ``normalize`` for the standard-length filter.
    """
    return "".join(letter * quavers for letter, quavers in _quaver_notes(body, unit_note_length))


def normalize(tune: AbcTune) -> QuaverSequence:
    """Flatten a parsed tune into its quaver-grid symbol sequence.

    Accepts only standard-length tunes: 4/4 with 128 quavers (reel) or
    6/8 with 96 (jig); anything else raises WRONG_LENGTH, judged on the
    quaver count before any symbol string is built.
    """
    pairs = _quaver_notes(tune.body, tune.unit_note_length)
    total = sum(quavers for _, quavers in pairs)
    if tune.meter == REEL_METER and total == REEL_LENGTH:
        category = Category.REEL
    elif tune.meter == JIG_METER and total == JIG_LENGTH:
        category = Category.JIG
    else:
        raise NormalizationError(
            ErrorKind.WRONG_LENGTH,
            f"meter {tune.meter[0]}/{tune.meter[1]} with {total} quavers is not a "
            f"standard-length reel (4/4, {REEL_LENGTH}) or jig (6/8, {JIG_LENGTH})",
        )
    return QuaverSequence("".join(letter * quavers for letter, quavers in pairs), category)
