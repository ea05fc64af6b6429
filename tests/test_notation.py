"""ABC parsing and quaver-grid normalization."""

import json
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tunelz.notation import (
    AbcTune,
    Category,
    ErrorKind,
    NormalizationError,
    expand_body,
    normalize,
    parse_abc,
)

import goldens

UNIT = Fraction(1, 8)
# ~2,000 bodies of 0-12 atoms drawn over every scanner branch, each with its
# expand_body outcome under L:1/8 and L:3/16 (symbols, or [kind, detail,
# offset]), recorded before the body scanner became a single pass.
BODY_OUTCOMES = json.loads(
    (Path(__file__).parent / "data" / "body_outcomes.json").read_text(encoding="utf-8")
)


def make_tune(body, meter=(4, 4), unit=UNIT, key="Gmajor"):
    return AbcTune(1, "Test Tune", meter, unit, key, body)


# ------------------------------------------------------------- parse_abc


def test_parse_sally_fixture(sally_path):
    tunes = parse_abc(sally_path.read_text(encoding="utf-8"))
    assert len(tunes) == 1
    tune = tunes[0]
    assert tune.reference_number == 1
    assert tune.title == "Sally Gardens"
    assert tune.meter == (4, 4)
    assert tune.unit_note_length == Fraction(1, 8)
    assert tune.key == "Gmajor"
    assert tune.rhythm == "reel"
    assert tune.body.strip()


def test_parse_empty_source():
    assert parse_abc("") == []


def test_parse_preserves_block_order(extreme_reels_path):
    tunes = parse_abc(extreme_reels_path.read_text(encoding="utf-8"))
    assert [t.reference_number for t in tunes] == [2, 3]
    assert [t.title for t in tunes] == ["The Concertina Reel", "The Star of Munster"]


def test_parse_defaults_unit_length_and_meter():
    tunes = parse_abc("X:9\nK:D\nABcd ABcd|\n")
    assert tunes[0].unit_note_length == Fraction(1, 8)
    assert tunes[0].meter == (4, 4)
    assert tunes[0].title == ""


def test_parse_honours_explicit_unit_length():
    (tune,) = parse_abc("X:1\nL:1/4\nK:D\nAB|\n")
    assert tune.unit_note_length == Fraction(1, 4)


@pytest.mark.parametrize("value,expected", [("C", (4, 4)), ("C|", (2, 2))])
def test_parse_meter_letters(value, expected):
    (tune,) = parse_abc(f"X:1\nM:{value}\nK:D\nAB|\n")
    assert tune.meter == expected


def test_parse_skips_blank_header_lines():
    (tune,) = parse_abc("X:1\n\nT:A\n\nM:6/8\nK:D\nABc def|\n")
    assert tune.title == "A"
    assert tune.meter == (6, 8)


def test_header_error_after_a_blank_line_is_at_its_own_line():
    with pytest.raises(NormalizationError) as exc:
        parse_abc("X:1\n\nM:4/0\nK:D\n")
    assert exc.value.detail == "unusable meter '4/0'"
    assert exc.value.location == len("X:1\n\n")


def test_parse_missing_key_line():
    with pytest.raises(NormalizationError) as exc:
        parse_abc("X:1\nT:No Key\nM:4/4\n")
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER
    assert "K:" in exc.value.detail


def test_parse_bad_reference_number():
    with pytest.raises(NormalizationError) as exc:
        parse_abc("X:first\nK:D\nAB|\n")
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER
    assert "X:first" in exc.value.detail


# Numbers in headers are ASCII digits 0-9, as int() alone would not require
@pytest.mark.parametrize("header, detail", [
    ("X: 1_0", "reference number is not an integer: 'X: 1_0'"),
    ("X: +5", "reference number is not an integer: 'X: +5'"),
    ("X: \u0661\u0662", "reference number is not an integer: 'X: \u0661\u0662'"),
    ("X: " + "9" * 101, "reference number of more than 100 digits: 'X: " + "9" * 101 + "'"),
    ("X: " + "9" * 5000,
     "reference number of more than 100 digits: 'X: " + "9" * 117 + "'... (5003 characters)"),
    ("X: 1\nM: \u0664/\u0664", "unusable meter '\u0664/\u0664'"),
    ("X: 1\nL: \u0661/\u0668", "unusable unit note length '\u0661/\u0668'"),
], ids=["X-underscore", "X-plus", "X-arabic-indic", "X-101-digits", "X-5000-digits",
        "M-arabic-indic", "L-arabic-indic"])
def test_header_numbers_are_ascii_digits(header, detail):
    with pytest.raises(NormalizationError) as exc:
        parse_abc(f"{header}\nK:D\nAB|\n")
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER
    assert exc.value.detail == detail


def test_reference_number_of_100_digits_is_read():
    (tune,) = parse_abc("X: " + "9" * 100 + "\nK:D\nAB|\n")
    assert tune.reference_number == 10**100 - 1


def test_parse_body_line_before_key_is_malformed():
    with pytest.raises(NormalizationError) as exc:
        parse_abc("X:1\nABCD ABCD|\nK:D\n")
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER


def test_parse_finds_indented_reference_lines_only():
    tunes = parse_abc("  X:1\nK:G\nAB\n\tX : 2\nK:D\ncd\nXY\nX\n")
    assert [tune.reference_number for tune in tunes] == [1, 2]
    assert tunes[1].body == "cd\nXY\nX\n"


def test_parse_ignores_unknown_header_fields():
    (tune,) = parse_abc("X:1\nZ:someone\nN:a note\nK:D\nAB|\n")
    assert tune.key == "D"


def test_parse_strips_comment_lines_from_body():
    (tune,) = parse_abc("X:1\nK:D\nAB|% trailing\n% a comment line\ncd|\n")
    assert "%" not in tune.body
    assert "cd" in tune.body


def test_a_comment_is_blanked_so_that_later_offsets_count_in_the_body_as_written():
    with pytest.raises(NormalizationError) as exc:
        normalize(parse_abc("X:1\nK:D\nAB % note\nCDz\n")[0])
    assert exc.value.location == 12
    (tune,) = parse_abc("X:1\nK:D\nAB|% trailing\r\n% a comment line\ncd|\n")
    assert tune.body == "AB|" + " " * 10 + "\r\n" + " " * 16 + "\ncd|\n"


@pytest.mark.parametrize("line_break", ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                        "\x85", "\u2028", "\u2029"])
def test_a_comment_is_blanked_up_to_its_line_break_which_stays(line_break):
    source = line_break.join(["X: 1 % one", "K: D % key", "AB % c", "cd|\n"])
    (tune,) = parse_abc(source)
    assert (tune.reference_number, tune.key) == (1, "D")
    assert tune.body == f"AB    {line_break}cd|\n"


_HEADER = {"X": "1", "T": "Sally", "M": "4/4", "L": "1/8", "R": "jig", "K": "D"}


@pytest.mark.parametrize("letter, value, field, expected", [
    ("X", "3", "reference_number", 3),
    ("T", "Sally Gardens", "title", "Sally Gardens"),
    ("M", "6/8", "meter", (6, 8)),
    ("L", "1/16", "unit_note_length", Fraction(1, 16)),
    ("R", "reel", "rhythm", "reel"),
    ("K", "Dmix", "key", "Dmix"),
])
def test_a_header_value_is_read_without_its_trailing_comment(letter, value, field, expected):
    header = {**_HEADER, letter: f"{value} % a comment"}
    source = "".join(f"{k}: {v}\n" for k, v in header.items()) + "AB\n"
    (tune,) = parse_abc(source)
    assert getattr(tune, field) == expected
    assert tune.body == "AB\n"


def test_a_commented_body_normalizes_as_the_body_without_its_comments(sally_path):
    header, body = sally_path.read_text(encoding="utf-8").split("K: Gmajor\n")
    commented = "".join(f"% bar line {n}\n{line} % end of line {n}\n"
                        for n, line in enumerate(body.splitlines()))
    (tune,) = parse_abc(f"{header}K: Gmajor\n{commented}")
    assert normalize(tune).symbols == goldens.SALLY


# ------------------------------------------------------------- expansion


def test_sally_normalizes_to_reference_sequence(sally_path):
    (tune,) = parse_abc(sally_path.read_text(encoding="utf-8"))
    seq = normalize(tune)
    assert seq.category is Category.REEL
    assert seq.symbols == goldens.SALLY


def test_extreme_reels_normalize(extreme_reels_path):
    concertina, star = parse_abc(extreme_reels_path.read_text(encoding="utf-8"))
    assert normalize(concertina).symbols == goldens.CONCERTINA
    assert normalize(star).symbols == goldens.STAR_OF_MUNSTER


def test_crotchet_becomes_two_quavers():
    assert expand_body("A2", UNIT) == "AA"


def test_dotted_crotchet_and_minim():
    assert expand_body("A3", UNIT) == "AAA"
    assert expand_body("g4", UNIT) == "gggg"


def test_unit_note_length_scales_durations():
    assert expand_body("AB", Fraction(1, 4)) == "AABB"
    assert expand_body("A2", Fraction(1, 4)) == "AAAA"


@pytest.mark.parametrize("body,expected", [
    ("^F", "F"),
    ("_B", "B"),
    ("=c", "c"),
    ("^^f", "f"),
    ("^FGA", "FGA"),
])
def test_accidentals_fold_to_bare_letter(body, expected):
    assert expand_body(body, UNIT) == expected


def test_bars_and_whitespace_discarded():
    assert expand_body("AB | cd |\nef |]", UNIT) == "ABcdef"


def test_ornaments_graces_slurs_ties_stripped():
    assert expand_body("~A .B {gfe}c (de) A-A2", UNIT) == "ABcdeAAA"


def test_quoted_chord_annotation_stripped():
    assert expand_body('"Am" ABcd', UNIT) == "ABcd"


def test_plain_repeat_expands_twice():
    assert expand_body("|: AB :|", UNIT) == "ABAB"


def test_implicit_repeat_start():
    assert expand_body("AB :|", UNIT) == "ABAB"


def test_numbered_endings():
    assert expand_body("|: AB |1 cd :|2 ef |", UNIT) == "ABcdABef"


def test_bracket_style_endings():
    assert expand_body("|: AB [1 cd :| [2 ef |", UNIT) == "ABcdABef"


def test_two_repeat_sections():
    assert expand_body("|: AB :| |: cd :|", UNIT) == "ABABcdcd"


def test_repeat_start_after_double_bar():
    assert expand_body("AB ||: cd :|", UNIT) == "ABcdcd"


def test_double_colon_repeats_both_sides():
    assert expand_body("AB :: cd :|", UNIT) == "ABABcdcd"


def test_material_before_repeat_plays_once():
    assert expand_body("AB |: cd :|", UNIT) == "ABcdcd"


def test_multibar_endings():
    body = "|: AB | cd |1 ef | ga :|2 eg | fa |"
    assert expand_body(body, UNIT) == "ABcdefga" + "ABcdegfa"


@pytest.mark.parametrize("body", ["|: AB |1 cd |1 ef :|2 ga |", "|: AB [1 cd [1 ef :|2 ga |"])
def test_second_pass_stops_at_the_first_ending_1_mark(body):
    assert expand_body(body, UNIT) == "ABcdef" + "ABga"


# what each bar line does to repeats, as the _quaver_notes docstring and the
# README table give it: a string is the expansion, a triple the error
_UNSUPPORTED = ErrorKind.UNSUPPORTED_CONSTRUCT


@pytest.mark.parametrize("body, outcome", [
    # only a bar line that begins with "|" takes a "]" or "|" after it
    ("AB :|] cd", (_UNSUPPORTED, "unsupported character ']'", 5)),
    ("|: AB :|: cd :|", "ABABcdcd"),
    ("AB :|| cd", "ABABcd"),
    ("AB [| cd", "ABcd"),
    ("AB |]: cd :|", "ABcdcd"),
    # an ending past the second is reported at its digit after ":|", at the "[" of "[3"
    ("|: AB :|3 cd", (_UNSUPPORTED, "ending |3 beyond second", 8)),
    ("|: AB [3 cd", (_UNSUPPORTED, "ending |3 beyond second", 6)),
    # a colon belongs to ":|" or "::", and nothing more is read after "::"
    ("AB : cd", (_UNSUPPORTED, "stray colon", 3)),
    ("AB ::: cd", (_UNSUPPORTED, "stray colon", 5)),
])
def test_bar_lines_read_as_documented(body, outcome):
    if isinstance(outcome, str):
        assert expand_body(body, UNIT) == outcome
        return
    with pytest.raises(NormalizationError) as exc:
        expand_body(body, UNIT)
    assert (exc.value.kind, exc.value.detail, exc.value.location) == outcome


# ------------------------------------------------------------- rejections


def expect_error(body, kind, unit=UNIT):
    with pytest.raises(NormalizationError) as exc:
        expand_body(body, unit)
    assert exc.value.kind is kind
    return exc.value


@pytest.mark.parametrize("body", ["a'", "A,", "ab'c", "G,2"])
def test_octave_marks_are_out_of_range(body):
    expect_error(body, ErrorKind.OUT_OF_RANGE_NOTE)


@pytest.mark.parametrize("body", ["A/2", "A/", "B//", "A3/2"])
def test_fractional_durations_rejected(body):
    expect_error(body, ErrorKind.NON_QUAVER_DURATION)


def test_triplet_rejected():
    err = expect_error("(3ABc", ErrorKind.NON_QUAVER_DURATION)
    assert "tuplet" in err.detail


def test_broken_rhythm_rejected():
    expect_error("A>B", ErrorKind.NON_QUAVER_DURATION)


@pytest.mark.parametrize("body", ["z", "Z2", "AzB", "x"])
def test_rests_rejected(body):
    expect_error(body, ErrorKind.UNSUPPORTED_CONSTRUCT)


def test_chord_rejected():
    expect_error("[AB]", ErrorKind.UNSUPPORTED_CONSTRUCT)


def test_inline_field_rejected():
    expect_error("AB[K:D]cd", ErrorKind.UNSUPPORTED_CONSTRUCT)


def test_unknown_character_rejected():
    expect_error("AB*cd", ErrorKind.UNSUPPORTED_CONSTRUCT)


def test_error_location_points_into_body():
    err = expect_error("ABCD z", ErrorKind.UNSUPPORTED_CONSTRUCT)
    assert err.location == 5


def test_wrong_length_rejected():
    tune = make_tune("AB | cd |")
    with pytest.raises(NormalizationError) as exc:
        normalize(tune)
    assert exc.value.kind is ErrorKind.WRONG_LENGTH
    assert "4 quavers" in exc.value.detail


def test_wrong_meter_rejected():
    # 96 quavers under 4/4 is not a standard form of either category
    tune = make_tune("A8" * 12, meter=(4, 4))
    with pytest.raises(NormalizationError) as exc:
        normalize(tune)
    assert exc.value.kind is ErrorKind.WRONG_LENGTH


@pytest.mark.parametrize("value", ["0/8", "1/0", "0/0", "9/8"])
def test_unusable_unit_length_rejected(value):
    with pytest.raises(NormalizationError) as exc:
        parse_abc(f"X:1\nL:{value}\nK:G\nABcd\n")
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER
    assert exc.value.detail == f"unusable unit note length {value!r}"


# parse_abc reads no header number of more than 100 digits, and one past the
# interpreter's int/str digit limit could not be printed in a message
@pytest.mark.parametrize("meter, unit, field", [
    ((4, 4), Fraction(1, 10**5000), "unit note length"),
    ((4, 4), Fraction(10**100, 10**100 + 1), "unit note length"),
    ((10**5000, 4), UNIT, "meter"),
    ((4, -(10**100)), UNIT, "meter"),
])
def test_hand_built_header_number_past_the_digit_rule_is_refused(meter, unit, field):
    with pytest.raises(NormalizationError) as exc:
        normalize(make_tune("ABcd", meter=meter, unit=unit))
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER
    assert exc.value.detail == f"{field} has a number of more than 100 digits"


def test_expand_body_refuses_a_unit_past_the_digit_rule():
    with pytest.raises(NormalizationError) as exc:
        expand_body("A", Fraction(1, 10**5000))
    assert exc.value.detail == "unit note length has a number of more than 100 digits"


def test_header_numbers_of_100_digits_are_read():
    big = 10**100 - 1
    assert expand_body(f"A{big}", Fraction(1, big)) == "A" * 8
    with pytest.raises(NormalizationError) as exc:
        normalize(make_tune("ABcd", meter=(big, 4)))
    assert exc.value.kind is ErrorKind.WRONG_LENGTH
    assert exc.value.detail.startswith(f"meter {big}/4 with 4 quavers")


def test_whole_note_unit_length_accepted():
    (tune,) = parse_abc("X:1\nL:8/8\nK:G\nA\n")
    assert tune.unit_note_length == 1
    assert expand_body(tune.body, tune.unit_note_length) == "A" * 8


def test_non_ascii_digit_is_not_a_duration():
    err = expect_error("AB\u00b2", ErrorKind.UNSUPPORTED_CONSTRUCT)
    assert err.location == 2


# after a bar line, a repeat end, "[" or "(", only an ASCII digit opens an
# ending or a tuplet; str.isdigit would also take these
@pytest.mark.parametrize("body, detail, location", [
    ("AB|\u00b2cd", "unsupported character '\u00b2'", 3),
    ("AB:|\u00b2cd", "unsupported character '\u00b2'", 4),
    ("AB(\u00b2cd", "unsupported character '\u00b2'", 3),
    ("AB||\u0662cd", "unsupported character '\u0662'", 4),
    # "[" before anything but an ending digit, "|" or an inline field opens a chord
    ("AB[\u0662cd", "chord", 2),
])
def test_non_ascii_digit_opens_no_ending_or_tuplet(body, detail, location):
    err = expect_error(body, ErrorKind.UNSUPPORTED_CONSTRUCT)
    assert (err.detail, err.location) == (detail, location)


def test_scan_error_wins_over_earlier_duration_error():
    err = expect_error("A/ B z", ErrorKind.UNSUPPORTED_CONSTRUCT)
    assert err.location == 5


def test_duration_error_wins_over_wrong_length():
    with pytest.raises(NormalizationError) as exc:
        normalize(make_tune("A/ B2000000"))
    assert exc.value.kind is ErrorKind.NON_QUAVER_DURATION
    assert exc.value.detail == "A lasts 1/2 quavers"
    assert exc.value.location == 0


def test_wrong_length_is_judged_before_the_string_is_built():
    tune = make_tune("A2000000")
    tracemalloc.start()
    try:
        with pytest.raises(NormalizationError) as exc:
            normalize(tune)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.kind is ErrorKind.WRONG_LENGTH
    assert "with 2000000 quavers" in exc.value.detail
    assert peak < 64 * 1024


@pytest.mark.parametrize("body, unit, outcome", [
    ("A9", UNIT, "A" * 9),
    ("A0", UNIT, (ErrorKind.NON_QUAVER_DURATION, "zero duration", 0)),
    ("A10", UNIT, "A" * 10),
    ("A2/", UNIT, "A"),
    ("A2'", UNIT, (ErrorKind.UNSUPPORTED_CONSTRUCT, "unsupported character \"'\"", 2)),
    ("B A2", UNIT, "BAA"),
    ("A2|1 B :|2 c", UNIT, "AABAAc"),
    ("B A2", Fraction(3, 16), (ErrorKind.NON_QUAVER_DURATION, "B lasts 3/2 quavers", 0)),
    ("A2 B", Fraction(3, 16), (ErrorKind.NON_QUAVER_DURATION, "B lasts 3/2 quavers", 3)),
], ids=["one-digit", "zero", "two-digits", "digit-then-slash", "digit-then-octave-mark",
        "digit-at-the-end", "digit-before-an-ending", "bare-note-off-grid",
        "bare-note-off-grid-after-a-digit"])
def test_written_lengths_read_on_and_off_the_common_path(body, unit, outcome):
    if isinstance(outcome, str):
        assert expand_body(body, unit) == outcome
        return
    with pytest.raises(NormalizationError) as exc:
        expand_body(body, unit)
    assert (exc.value.kind, exc.value.detail, exc.value.location) == outcome


def test_body_outcomes_match_the_recorded_golden():
    for case in BODY_OUTCOMES:
        for unit in ("1/8", "3/16"):
            try:
                outcome = expand_body(case["body"], Fraction(unit))
            except NormalizationError as err:
                outcome = [err.kind.value, err.detail, err.location]
            assert outcome == case[unit], (case["body"], unit)


def test_expand_body_has_no_length_gate():
    # no standard-length gate: only the stream ceiling bounds the body
    assert expand_body("A20000") == "A" * 20_000


def _past_the_ceiling(total):
    return f"body lasts {total} quavers, more than the ceiling of 20000"


# the ceiling is judged on the total once the scan has ended, so an
# unreadable construct or an off-grid note anywhere in the body comes first
@pytest.mark.parametrize("body, kind, detail, location", [
    ("A" + "9" * 30, ErrorKind.WRONG_LENGTH, _past_the_ceiling("9" * 30), 0),
    ("AB |: c" + "9" * 30 + " d :|", ErrorKind.WRONG_LENGTH,
     _past_the_ceiling(2 * 10**30 + 2), 0),
    ("A/ B" + "9" * 30, ErrorKind.NON_QUAVER_DURATION, "A lasts 1/2 quavers", 0),
    ("B" + "9" * 30 + " z", ErrorKind.UNSUPPORTED_CONSTRUCT,
     "rest has no symbol in the pitch alphabet", 32),
    ("B" + "9" * 30 + " A/", ErrorKind.NON_QUAVER_DURATION, "A lasts 1/2 quavers", 32),
], ids=["alone", "in-a-repeat", "after-an-off-grid-note", "before-a-rest",
        "before-an-off-grid-note"])
def test_note_longer_than_any_string_is_a_duration_error(body, kind, detail, location):
    with pytest.raises(NormalizationError) as exc:
        expand_body(body)
    assert (exc.value.kind, exc.value.detail, exc.value.location) == (kind, detail, location)


@pytest.mark.parametrize("body, total", [
    ("A" + "9" * 18, "9" * 18),
    ("A" + "9" * 30, "9" * 30),
    ("|: A999999 :|", 1_999_998),
], ids=["18-digit-note", "30-digit-note", "repeat-past-the-ceiling"])
def test_body_past_the_ceiling_builds_no_string(body, total):
    tracemalloc.start()
    try:
        with pytest.raises(NormalizationError) as exc:
            expand_body(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.kind, exc.value.detail, exc.value.location) == (
        ErrorKind.WRONG_LENGTH, _past_the_ceiling(total), 0)
    assert peak < 64 * 1024


# Python converts no int of more than 4,300 digits to or from str, so a
# number that long must be refused before it is read or printed.


@pytest.mark.parametrize("length", [
    pytest.param("9" * 5000, id="5000-digits"),
    pytest.param("3/" + "9" * 5000, id="5000-digit-divisor"),
    pytest.param("/" * 5000, id="5000-slashes"),
    pytest.param("9" * 1_000_000, id="1000000-digits"),
])
def test_oversized_note_length_is_a_duration_error(length):
    tune = make_tune("AB A" + length + " cd")
    start = time.perf_counter()
    with pytest.raises(NormalizationError) as exc:
        normalize(tune)
    assert time.perf_counter() - start < 1
    assert exc.value.kind is ErrorKind.NON_QUAVER_DURATION
    assert exc.value.detail == "A has a written length of more than 100 characters"
    assert exc.value.location == 3


def test_note_length_of_100_characters_is_read():
    assert normalize(make_tune("A" + "0" * 97 + "128")).symbols == "A" * 128


def test_longest_note_length_reaches_the_length_gate():
    with pytest.raises(NormalizationError) as exc:
        normalize(make_tune("A" + "9" * 100))
    assert exc.value.kind is ErrorKind.WRONG_LENGTH
    assert f"with {10**100 - 1} quavers" in exc.value.detail


@pytest.mark.parametrize("field,value,detail", [
    ("L", "1/{}", "unusable unit note length"),
    ("M", "4/{}", "unusable meter"),
], ids=["L", "M"])
@pytest.mark.parametrize("digits", [5000, 1_000_000])
def test_oversized_header_number_is_malformed(field, value, detail, digits):
    value = value.format("9" * digits)
    start = time.perf_counter()
    with pytest.raises(NormalizationError) as exc:
        parse_abc(f"X:1\n{field}:{value}\nK:G\nABcd\n")
    assert time.perf_counter() - start < 1
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER
    # a detail quotes at most 120 characters of the value and notes its length
    assert exc.value.detail == f"{detail} '{value[:120]}'... ({len(value)} characters)"
    assert exc.value.location == 4


@pytest.mark.parametrize("source, detail", [
    ("X:1\n" + "?" * 10**6 + "\nK:G\n",
     "expected a header field before K:, got '" + "?" * 120 + "'... (1000000 characters)"),
    ("X:" + "a" * 10**6 + "\nK:G\n",
     "reference number is not an integer: 'X:" + "a" * 118 + "'... (1000002 characters)"),
    ("X:" + " " * 200 + "1\nT:t\n",
     "tune block is missing its K: line: 'X:" + " " * 118 + "'... (203 characters)"),
], ids=["not-a-field", "reference", "missing-K"])
def test_long_header_line_is_excerpted_in_the_detail(source, detail):
    with pytest.raises(NormalizationError) as exc:
        parse_abc(source)
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER
    assert exc.value.detail == detail


def test_jig_gate(jig_path):
    jig, truncated = parse_abc(jig_path.read_text(encoding="utf-8"))
    seq = normalize(jig)
    assert seq.category is Category.JIG
    assert len(seq.symbols) == 96
    with pytest.raises(NormalizationError) as exc:
        normalize(truncated)
    assert exc.value.kind is ErrorKind.WRONG_LENGTH


# ------------------------------------------------------------- properties

LETTERS = "ABCDEFGabcdefg"


@given(st.text(alphabet=LETTERS, min_size=128, max_size=128))
def test_idempotent_folding(letters):
    # a body of bare letters and bar lines comes back unchanged in order
    bars = [letters[i:i + 8] for i in range(0, 128, 8)]
    tune = make_tune(" | ".join(bars))
    assert normalize(tune).symbols == letters


@given(
    st.lists(
        st.tuples(st.sampled_from(LETTERS), st.integers(min_value=1, max_value=8)),
        min_size=1,
        max_size=64,
    )
)
def test_total_duration_equals_sequence_length(notes):
    body = " ".join(f"{letter}{dur}" if dur > 1 else letter for letter, dur in notes)
    expanded = expand_body(body, UNIT)
    assert len(expanded) == sum(dur for _, dur in notes)
    assert expanded == "".join(letter * dur for letter, dur in notes)


# written note -> multiplier of the unit note length
_WRITTEN = st.one_of(
    st.just(("", Fraction(1))),
    st.integers(1, 32).map(lambda n: (str(n), Fraction(n))),
    st.tuples(st.integers(1, 32), st.integers(1, 16)).map(
        lambda nd: (f"{nd[0]}/{nd[1]}", Fraction(*nd))
    ),
    st.just(("/", Fraction(1, 2))),
    st.just(("//", Fraction(1, 4))),
)
_UNITS = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(3, 16)]


@given(
    st.lists(st.tuples(st.sampled_from(LETTERS), _WRITTEN), min_size=1, max_size=24),
    st.sampled_from(_UNITS),
)
def test_durations_match_fraction_oracle(notes, unit):
    body, expected, error = "", "", None
    for letter, (suffix, multiplier) in notes:
        if body:
            body += " "
        quavers = unit * multiplier / Fraction(1, 8)
        if error is None and quavers.denominator != 1:
            error = (f"{letter} lasts {quavers} quavers", len(body))
        expected += letter * int(quavers)
        body += letter + suffix
    if error is None:
        assert expand_body(body, unit) == expected
    else:
        with pytest.raises(NormalizationError) as exc:
            expand_body(body, unit)
        assert exc.value.kind is ErrorKind.NON_QUAVER_DURATION
        assert (exc.value.detail, exc.value.location) == error


# A body as (short form, long form) atom pairs: the long form writes every
# note length out in full (A -> A1/1, c3 -> c3/1), so the scanner reads it on
# its general path, whatever shortcut it takes for the short form.
_NOTE_LENGTHS = st.sampled_from(["", "0", "1", "2", "3", "4", "6", "8", "9", "10", "16", "24"])
_LONG_FORM_ATOMS = st.one_of(
    st.tuples(st.sampled_from(["", "^", "_", "="]), st.sampled_from(LETTERS), _NOTE_LENGTHS).map(
        lambda note: (note[0] + note[1] + note[2],
                      note[0] + note[1] + (note[2] or "1") + "/1")),
    # few atoms that raise at once, so that most bodies reach the deferred errors
    st.sampled_from(["A/", "B3/2", " ", "\n", "|", "|:", ":|", "::", "|1", ":|2", "[2", "{g}",
                     '"Am"', "~", "z", "A'", "(3", "*"]).map(lambda atom: (atom, atom)),
)


@given(st.lists(_LONG_FORM_ATOMS, max_size=16), st.sampled_from(_UNITS))
@settings(max_examples=300)
def test_long_form_lengths_give_the_same_outcome(atoms, unit):
    def outcome(body):
        try:
            return expand_body(body, unit)
        except NormalizationError as err:
            return err.kind, err.detail
    short = outcome("".join(short for short, _ in atoms))
    assert outcome("".join(long for _, long in atoms)) == short


def test_normalization_is_deterministic(sally_path):
    source = sally_path.read_text(encoding="utf-8")
    first = normalize(parse_abc(source)[0])
    second = normalize(parse_abc(source)[0])
    assert first == second
