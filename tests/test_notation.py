"""ABC parsing and quaver-grid normalization."""

import json
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

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


def test_parse_body_line_before_key_is_malformed():
    with pytest.raises(NormalizationError) as exc:
        parse_abc("X:1\nABCD ABCD|\nK:D\n")
    assert exc.value.kind is ErrorKind.MALFORMED_HEADER


def test_parse_ignores_unknown_header_fields():
    (tune,) = parse_abc("X:1\nZ:someone\nN:a note\nK:D\nAB|\n")
    assert tune.key == "D"


def test_parse_strips_comment_lines_from_body():
    (tune,) = parse_abc("X:1\nK:D\nAB|% trailing\n% a comment line\ncd|\n")
    assert "%" not in tune.body
    assert "cd" in tune.body


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


def test_whole_note_unit_length_accepted():
    (tune,) = parse_abc("X:1\nL:8/8\nK:G\nA\n")
    assert tune.unit_note_length == 1
    assert expand_body(tune.body, tune.unit_note_length) == "A" * 8


def test_non_ascii_digit_is_not_a_duration():
    err = expect_error("AB\u00b2", ErrorKind.UNSUPPORTED_CONSTRUCT)
    assert err.location == 2


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


def test_body_outcomes_match_the_recorded_golden():
    for case in BODY_OUTCOMES:
        for unit in ("1/8", "3/16"):
            try:
                outcome = expand_body(case["body"], Fraction(unit))
            except NormalizationError as err:
                outcome = [err.kind.value, err.detail, err.location]
            assert outcome == case[unit], (case["body"], unit)


def test_expand_body_has_no_length_gate():
    assert expand_body("A2000000") == "A" * 2_000_000


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
    assert exc.value.detail == f"{detail} {value!r}"
    assert exc.value.location == 4


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


def test_normalization_is_deterministic(sally_path):
    source = sally_path.read_text(encoding="utf-8")
    first = normalize(parse_abc(source)[0])
    second = normalize(parse_abc(source)[0])
    assert first == second
