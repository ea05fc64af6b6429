"""LZ77 coder: golden parses, round trips, and oracle equivalence."""

import json
import string
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tunelz.baseline import _random_string
from tunelz.lz import (
    Algorithm,
    BackRef,
    CorruptStream,
    MAX_STREAM_SYMBOLS,
    Literal,
    Lz78Token,
    TokenStream,
    _lz77_parse,
    compress,
    compress_lz77,
    compress_lz78,
    compression_ratio,
    decompress,
    stream_from_json,
    stream_from_text,
    stream_to_json,
    stream_to_text,
    token_count,
)

import goldens
import oracles


# ----------------------------------------------------------------- goldens


def test_sally_canonical_parse():
    stream = compress_lz77(goldens.SALLY)
    assert stream.tokens == goldens.as_lz77_tokens(goldens.SALLY_LZ77_CANONICAL)
    assert len(stream.tokens) == 47


def test_sally_parse_matches_published_outside_the_merge():
    # The canonical parse reproduces the published 48-entry stream except
    # that published entries 26-27 ([0,2] and a literal g) collapse into
    # the strictly longer overlapping copy [60,3].
    tokens = compress_lz77(goldens.SALLY).tokens
    published = goldens.as_lz77_tokens(goldens.SALLY_LZ77_PUBLISHED)
    assert tokens[:25] == published[:25]
    assert tokens[25] == BackRef(60, 3)
    assert tokens[26:] == published[27:]


def test_sally_leading_tokens():
    tokens = compress_lz77(goldens.SALLY).tokens
    assert tokens[:14] == goldens.as_lz77_tokens(
        ["g", "g", "d", "g", "b", "b", (3, 2), "D", "b", "E", (7, 3), "a",
         (7, 2), (8, 2)]
    )
    assert tokens[24] == BackRef(0, 29)


def test_concertina_golden_parse():
    stream = compress_lz77(goldens.CONCERTINA)
    assert stream.tokens == goldens.as_lz77_tokens(goldens.CONCERTINA_LZ77)
    assert len(stream.tokens) == goldens.CONCERTINA_TOKEN_COUNT
    assert compression_ratio(stream) == Fraction(128, 26)


def test_star_of_munster_golden_parse():
    stream = compress_lz77(goldens.STAR_OF_MUNSTER)
    assert stream.tokens == goldens.as_lz77_tokens(goldens.STAR_LZ77)
    assert len(stream.tokens) == goldens.STAR_TOKEN_COUNT
    assert compression_ratio(stream) == Fraction(2)


def test_overlapping_run_copy():
    stream = compress_lz77("aaaa")
    assert stream.tokens == (Literal("a"), BackRef(0, 3))
    assert decompress(stream) == "aaaa"


def test_empty_input():
    stream = compress_lz77("")
    assert stream.tokens == ()
    assert stream.source_length == 0
    assert decompress(stream) == ""


def test_ratio_of_all_literals_is_one():
    stream = compress_lz77("abcdefg")
    assert all(isinstance(t, Literal) for t in stream.tokens)
    assert compression_ratio(stream) == 1


def test_ratio_undefined_for_empty_stream():
    with pytest.raises(ValueError):
        compression_ratio(compress_lz77(""))


# ------------------------------------------------------------- decompress


def test_decompress_round_trips_goldens():
    for seq in (goldens.SALLY, goldens.CONCERTINA, goldens.STAR_OF_MUNSTER):
        assert decompress(compress_lz77(seq)) == seq


def test_decompress_rejects_forward_reference():
    stream = TokenStream(Algorithm.LZ77, (Literal("a"), BackRef(1, 2)), 3)
    with pytest.raises(CorruptStream):
        decompress(stream)


def test_decompress_rejects_short_backref():
    stream = TokenStream(Algorithm.LZ77, (Literal("a"), BackRef(0, 1)), 2)
    with pytest.raises(CorruptStream):
        decompress(stream)


def test_decompress_rejects_wrong_source_length():
    stream = TokenStream(Algorithm.LZ77, (Literal("a"),), 5)
    with pytest.raises(CorruptStream):
        decompress(stream)


@pytest.mark.parametrize("stream, message", [
    (TokenStream(Algorithm.LZ77, (Lz78Token(0, "a"),), 1),
     "token 0 is not an LZ77 token: Lz78Token(prefix_index=0, extension='a')"),
    (TokenStream(Algorithm.LZ78, (Literal("a"),), 1),
     "token 0 is not an LZ78 token: Literal(symbol='a')"),
], ids=["lz78-token-in-lz77", "literal-in-lz78"])
def test_decompress_rejects_a_token_of_the_other_coder(stream, message):
    with pytest.raises(CorruptStream) as exc:
        decompress(stream)
    assert str(exc.value) == message


def test_decompress_stops_at_the_token_that_passes_the_declared_length():
    # stream_from_json refuses this stream at load, with the same message
    stream = TokenStream(Algorithm.LZ77, (Literal("a"), BackRef(0, 10**6)), 3)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStream) as exc:
            decompress(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "token 1: decodes to 1000001 symbols, stream claims 3"
    assert peak < 64 * 1024


@pytest.mark.parametrize("load, text, message", [
    (stream_from_text, "a [0,2000000]",
     "token 1: decodes to 2000001 symbols, more than the ceiling of 20000"),
    (stream_from_json,
     json.dumps({"algorithm": "lz77", "source_length": 2_000_001,
                 "tokens": [{"symbol": "a"}, {"start": 0, "length": 2_000_000}]}),
     "stream claims 2000001 symbols, more than the ceiling of 20000"),
], ids=["text", "json"])
def test_loaded_stream_stops_at_the_ceiling(load, text, message):
    assert MAX_STREAM_SYMBOLS == 20_000
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStream) as exc:
            load(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 64 * 1024


def test_text_stream_at_the_ceiling_loads():
    stream = stream_from_text(f"a [0,{MAX_STREAM_SYMBOLS - 1}]")
    assert stream.source_length == MAX_STREAM_SYMBOLS


def test_decompress_stops_at_a_literal_past_the_declared_length():
    stream = TokenStream(Algorithm.LZ77, (Literal("a"), Literal("b"), Literal("c")), 2)
    with pytest.raises(CorruptStream, match="^token 2: decodes to 3 symbols, stream claims 2$"):
        decompress(stream)


# from "length-0" on, the edges of the index of each bigram's first start,
# in which the last symbol counts as a new bigram: no bigram at all, one,
# the last symbol left over, a parse ending on a bigram's first start,
# bigrams of letters past ASCII (which raw compress accepts), a two-symbol
# match that ends the string, a bigram whose first start does not extend
# while a later start does, a new bigram right after a repeated one, and a
# repeated bigram after a repeated one, followed by a new one
@pytest.mark.parametrize("seq", ["\u00e9\u00e9\u00e9", "0120120", "a1a1\u00e9a1",
                                 "", "a", "ab", "aab", "abaabb",
                                 "\u00e9\u00df\u00e9\u00df\u0416\u0416\u0416\u00e9\u0416",
                                 "abcab", "abxabyaby", "abcabdc", "abcabcx"],
                         ids=["accented", "digits", "mixed", "length-0", "length-1", "length-2",
                              "length-3", "ends-on-first-bigram", "non-ascii-bigrams",
                              "ends-on-two-symbol-match", "later-start-extends",
                              "new-bigram-after-match", "new-bigram-two-on"])
def test_non_letter_symbols_parse_as_the_oracle_does(seq):
    assert oracles.plain_tokens(compress_lz77(seq)) == oracles.naive_compress_lz77(seq)


def test_parse_of_a_long_run_holds_about_one_pointer_per_symbol():
    # the index of first starts is one list entry per symbol, about 8 MB here
    seq = "a" * 10**6
    tracemalloc.start()
    try:
        parse = _lz77_parse(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse == [None, (0, 10**6 - 1)]
    assert peak < 16 * 1024 * 1024


def test_paper_grid_strings_parse_as_the_oracle_does():
    lengths = (50, 96, 100, 128, 150, 200)
    strings = [_random_string("abcdefghijklm", length, 7, index)
               for length in lengths for index in range(300)]
    assert len(strings) == 1800
    for seq in strings:
        assert oracles.plain_tokens(compress_lz77(seq)) == oracles.naive_compress_lz77(seq)


def test_shared_literals_are_plain_frozen_values():
    tokens = compress_lz77("abAB").tokens
    assert compress_lz77("ab").tokens[0] is tokens[0]  # shared, though identity is no contract
    for tok, ch in zip(tokens, "abAB"):
        assert tok == Literal(ch)
        assert hash(tok) == hash(Literal(ch))
        with pytest.raises(AttributeError):
            tok.symbol = "c"
        assert tok.symbol == ch


def test_decompress_checks_the_whole_stream_before_decoding():
    stream = TokenStream(Algorithm.LZ77, (Literal("a"), BackRef(0, 10**6), BackRef(5, 1)),
                         10**6 + 1)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptStream) as exc:
            decompress(stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "token 2: back-reference length 1 < 2"
    assert peak < 64 * 1024


# ------------------------------------------------------------ the token check
#
# decompress and both stream loaders judge every token value in one place,
# so a stream built in Python and one loaded from JSON fail alike

# an int that str() refuses under the interpreter's default int/str digit limit
HUGE = 10**4300 + 1
# field values of every kind a token could be given, small ints most often, and
# ints of more than 100 digits, as a stream may not hold, on either side of HUGE
FIELD_VALUES = st.one_of(st.integers(-2, 8), st.text("ab", max_size=3), st.none(),
                         st.booleans(), st.floats(), st.integers(),
                         st.integers(min_value=HUGE), st.integers(max_value=-HUGE),
                         st.integers(10**100, 10**4300), st.integers(-(10**4300), -(10**100)))
JSON_FIELD_VALUES = st.one_of(st.integers(-2, 8), st.text("ab", max_size=3), st.none(),
                              st.booleans(), st.floats(allow_nan=False, allow_infinity=False))


@given(st.sampled_from(Algorithm),
       st.lists(st.one_of(st.builds(Literal, FIELD_VALUES),
                          st.builds(BackRef, FIELD_VALUES, FIELD_VALUES),
                          st.builds(Lz78Token, FIELD_VALUES, FIELD_VALUES)), max_size=6),
       FIELD_VALUES)
@settings(max_examples=400, deadline=None)
def test_decompress_returns_the_claimed_symbols_or_raises_corrupt_stream(algorithm, tokens,
                                                                         source_length):
    stream = TokenStream(algorithm, tuple(tokens), source_length)
    try:
        symbols = decompress(stream)
    except CorruptStream:
        return
    assert type(symbols) is str
    assert len(symbols) == source_length


@given(st.sampled_from(["lz77", "lz78"]),
       st.lists(st.one_of(st.fixed_dictionaries({"symbol": JSON_FIELD_VALUES}),
                          st.fixed_dictionaries({"start": JSON_FIELD_VALUES,
                                                 "length": JSON_FIELD_VALUES}),
                          st.fixed_dictionaries({"prefix": JSON_FIELD_VALUES,
                                                 "extension": JSON_FIELD_VALUES})), max_size=6),
       JSON_FIELD_VALUES)
@settings(max_examples=400, deadline=None)
def test_json_stream_loads_only_if_decompress_accepts_it(algorithm, tokens, source_length):
    text = json.dumps({"algorithm": algorithm, "source_length": source_length, "tokens": tokens})
    try:
        stream = stream_from_json(text)
    except CorruptStream:
        return
    assert len(decompress(stream)) == source_length


@pytest.mark.parametrize("algorithm, objects, tokens, message", [
    (Algorithm.LZ77, [{"symbol": "ab"}], (Literal("ab"),),
     "token 0: symbol 'ab' is not a one-character string"),
    (Algorithm.LZ77, [{"symbol": ""}], (Literal(""),),
     "token 0: symbol '' is not a one-character string"),
    (Algorithm.LZ77, [{"symbol": 5}], (Literal(5),),
     "token 0: symbol 5 is not a one-character string"),
    (Algorithm.LZ77, [{"symbol": None}], (Literal(None),),
     "token 0: symbol None is not a one-character string"),
    (Algorithm.LZ77, [{"symbol": "a"}, {"start": 0.0, "length": 2}],
     (Literal("a"), BackRef(0.0, 2)), "token 1: start 0.0 is not an integer"),
    (Algorithm.LZ77, [{"symbol": "a"}, {"start": 0, "length": 2.0}],
     (Literal("a"), BackRef(0, 2.0)), "token 1: length 2.0 is not an integer"),
    (Algorithm.LZ77, [{"symbol": "a"}, {"start": False, "length": 2}],
     (Literal("a"), BackRef(False, 2)), "token 1: start False is not an integer"),
    (Algorithm.LZ77, [{"symbol": "a"}, {"start": 0, "length": "2"}],
     (Literal("a"), BackRef(0, "2")), "token 1: length '2' is not an integer"),
    (Algorithm.LZ78, [{"prefix": 0.0, "extension": "a"}], (Lz78Token(0.0, "a"),),
     "token 0: phrase index 0.0 is not an integer"),
    (Algorithm.LZ78, [{"prefix": True, "extension": "a"}], (Lz78Token(True, "a"),),
     "token 0: phrase index True is not an integer"),
    (Algorithm.LZ78, [{"prefix": 0, "extension": 3}], (Lz78Token(0, 3),),
     "token 0: extension 3 is not a one-character string"),
    (Algorithm.LZ78, [{"prefix": 0, "extension": "ab"}], (Lz78Token(0, "ab"),),
     "token 0: extension 'ab' is not a one-character string"),
], ids=["symbol-two-characters", "symbol-empty", "symbol-int", "symbol-null", "start-float",
        "length-float", "start-bool", "length-string", "prefix-float", "prefix-bool",
        "extension-int", "extension-two-characters"])
def test_a_json_and_a_built_stream_with_one_fault_fail_alike(algorithm, objects, tokens,
                                                            message):
    text = json.dumps({"algorithm": algorithm.value, "source_length": 3, "tokens": objects})
    with pytest.raises(CorruptStream) as loaded:
        stream_from_json(text)
    with pytest.raises(CorruptStream) as built:
        decompress(TokenStream(algorithm, tokens, 3))
    assert str(loaded.value) == str(built.value) == message


@pytest.mark.parametrize("source_length", ["3", 3.0, True, None])
def test_decompress_refuses_a_source_length_that_is_not_an_int(source_length):
    stream = TokenStream(Algorithm.LZ77, (Literal("a"), BackRef(0, 2)), source_length)
    with pytest.raises(CorruptStream) as exc:
        decompress(stream)
    assert str(exc.value) == f"stream source_length is not an integer: {source_length!r}"


NINES = "9" * 100  # 10**100 - 1, the longest number a stream may hold

# every int of a stream has at most 100 digits, as every number tunelz reads
# has: a longer field or source_length is named by its size, and a count of
# decoded symbols, at most one field past the claim, is printed in full
HUGE_INTS = [
    pytest.param(Algorithm.LZ77, (Literal("a"), BackRef(0, 10**5000)), 3,
                 "token 1: length of more than 100 digits", id="length"),
    pytest.param(Algorithm.LZ77, (Literal("a"), BackRef(10**5000, 2)), 3,
                 "token 1: start of more than 100 digits", id="start"),
    pytest.param(Algorithm.LZ77, (Literal("a"),), 10**5000,
                 "stream source_length of more than 100 digits", id="source-length"),
    pytest.param(Algorithm.LZ77, (Literal("a"),), -(10**5000),
                 "stream source_length of more than 100 digits", id="negative-source-length"),
    pytest.param(Algorithm.LZ78, (Lz78Token(10**5000, "a"),), 1,
                 "token 0: phrase index of more than 100 digits", id="phrase-index"),
    pytest.param(Algorithm.LZ77, (Literal("a"), BackRef(-(10**5000), 2)), 3,
                 "token 1: start of more than 100 digits", id="negative-start"),
    pytest.param(Algorithm.LZ77, (Lz78Token(10**200, "a"),), 1,
                 "token 0 is not an LZ77 token: Lz78Token(prefix_index=1" + "0" * 96
                 + "... (240 characters)", id="wrong-kind"),
    # between the interpreter's lowest int/str digit limit, 640, and its default
    pytest.param(Algorithm.LZ77, (Literal("a"), BackRef(0, 10**700)), 3,
                 "token 1: length of more than 100 digits", id="length-past-the-limit"),
    pytest.param(Algorithm.LZ77, (Literal("a"), BackRef(0, 10**100 - 1)), 3,
                 "token 1: decodes to 1" + "0" * 100 + " symbols, stream claims 3",
                 id="length-past-the-count"),
    pytest.param(Algorithm.LZ77, (Literal("a"), BackRef(0, 10**100 - 2), Literal("b")),
                 10**100 - 1, f"token 2: decodes to 1{'0' * 100} symbols, stream claims {NINES}",
                 id="literal-past-the-limit"),
    pytest.param(Algorithm.LZ77, (Literal("a"), BackRef(0, 10**100 - 3)), 10**100 - 1,
                 f"decoded {NINES[:-1]}8 symbols, stream claims {NINES}", id="decoded-count"),
    pytest.param(Algorithm.LZ77, (Literal("a"), BackRef(0, 10**100 - 2), BackRef(-1, 2)),
                 10**100 - 1, f"token 2: start -1 outside emitted prefix of {NINES}",
                 id="emitted-prefix"),
]


def _refusal(algorithm, tokens, source_length) -> str:
    with pytest.raises(CorruptStream) as exc:
        decompress(TokenStream(algorithm, tokens, source_length))
    return str(exc.value)


@pytest.mark.parametrize("algorithm, tokens, source_length, message", HUGE_INTS)
def test_an_int_too_long_to_print_is_named_by_field_and_size(algorithm, tokens, source_length,
                                                             message):
    assert _refusal(algorithm, tokens, source_length) == message


@pytest.mark.parametrize("digit_limit", [0, 640, None], ids=["no-limit", "640", "default"])
def test_huge_ints_read_the_same_under_any_int_str_digit_limit(digit_limit):
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(default if digit_limit is None else digit_limit)
    try:
        messages = [_refusal(*case.values[:3]) for case in HUGE_INTS]
    finally:
        sys.set_int_max_str_digits(default)
    assert messages == [case.values[3] for case in HUGE_INTS]


def test_a_wrong_kind_token_holding_an_int_str_cannot_write_is_named_by_its_size():
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        message = _refusal(Algorithm.LZ77, (Lz78Token(10**700, "a"),), 1)
    finally:
        sys.set_int_max_str_digits(default)
    assert message == ("token 0 is not an LZ77 token: "
                       "Lz78Token holding an integer of more than 640 digits")


# ------------------------------------------------------------ serialization


def test_text_form_matches_notation():
    stream = compress_lz77(goldens.CONCERTINA)
    text = stream_to_text(stream)
    assert text.startswith("A A F A B [1,3] [0,8] B [16,2] [15,10]")
    assert stream_from_text(text) == stream


def test_text_form_one_based_display():
    stream = compress_lz77(goldens.SALLY)
    text = stream_to_text(stream, index_base=1)
    assert "[4,2]" in text  # published tables print this position 1-based
    assert stream_from_text(text, index_base=1) == stream


@pytest.mark.parametrize("convert", [
    lambda: stream_to_text(compress_lz77("ababab"), index_base=2),
    lambda: stream_from_text("a b [2,2]", index_base=2),
], ids=["to-text", "from-text"])
def test_text_form_index_base_is_0_or_1(convert):
    with pytest.raises(ValueError) as exc:
        convert()
    assert str(exc.value) == "index_base must be 0 or 1"


def test_json_form_round_trip():
    stream = compress_lz77(goldens.SALLY)
    assert stream_from_json(stream_to_json(stream)) == stream


# decompress reads a text that does not start with { as a text stream, so
# the top level's kind is checked here
@pytest.mark.parametrize("text, message", [
    ("[]", "stream is not a JSON object"),
    ('{"algorithm": "lz77", "tokens": []}', "stream lacks field 'source_length'"),
    ('{"algorithm": true, "source_length": 0, "tokens": []}',
     "stream algorithm is not lz77 or lz78: true"),
    ('{"algorithm": "lz78", "source_length": -0.0, "tokens": []}',
     "stream source_length is not a JSON integer: -0.0"),
    ('{"algorithm": "lz78", "source_length": 1e400, "tokens": []}',
     "stream source_length is not a JSON integer: Infinity"),
], ids=["top-level-array", "missing-length", "algorithm-bool", "length-negative-zero",
        "length-overflowing-float"])
def test_json_form_names_the_field_and_the_kind_it_wants(text, message):
    with pytest.raises(CorruptStream) as exc:
        stream_from_json(text)
    assert str(exc.value) == message


# every symbol of the text form is a letter (is_symbol), as raw compress
# input is; the JSON form carries any one-character string
@pytest.mark.parametrize("stream, message", [
    (compress_lz78("ab ab"), "token 2: extension ' ' is not a letter"),
    (compress_lz77("1a1a"), "token 0: symbol '1' is not a letter"),
    (compress_lz78("a1a1a1"), "token 1: extension '1' is not a letter"),
    (TokenStream(Algorithm.LZ77, (Literal("a" * 1000),), 1),
     "token 0: symbol '" + "a" * 119 + "... (1002 characters) is not a letter"),
], ids=["lz78-space", "lz77-digit", "lz78-digit", "lz77-long-symbol"])
def test_text_form_writes_only_letters(stream, message):
    with pytest.raises(ValueError) as exc:
        stream_to_text(stream)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize("text, algorithm, message", [
    ("a ] % [0,2]", None, "token 1: symbol ']' is not a letter"),
    ("a b ,", Algorithm.LZ77, "token 2: symbol ',' is not a letter"),
    ("1", Algorithm.LZ77, "token 0: symbol '1' is not a letter"),
    ("a 1?", None, "token 1: extension '?' is not a letter"),
    ("a ?", Algorithm.LZ78, "token 1: extension '?' is not a letter"),
    ("a 1]", Algorithm.LZ78, "token 1: extension ']' is not a letter"),
], ids=["lz77-bracket", "lz77-comma", "lz77-digit", "lz78-question", "lz78-bare-question",
        "lz78-bracket"])
def test_text_form_reads_only_letters(text, algorithm, message):
    with pytest.raises(CorruptStream) as exc:
        stream_from_text(text, algorithm)
    assert str(exc.value) == message


def test_text_form_rejects_garbage():
    with pytest.raises(CorruptStream):
        stream_from_text("[3,2] what?", algorithm=Algorithm.LZ77)


@pytest.mark.parametrize("text, algorithm, message", [
    ("a [" + "0" * 101 + ",2]", Algorithm.LZ77,
     "token 1: number of more than 100 digits in '[" + "0" * 101 + ",2]'"),
    ("a " + "9" * 5000 + "b", Algorithm.LZ78,
     "token 1: number of more than 100 digits in '" + "9" * 120 + "'... (5001 characters)"),
], ids=["lz77-101-digits", "lz78-5000-digits"])
def test_text_form_refuses_long_numbers_unread(text, algorithm, message):
    with pytest.raises(CorruptStream) as exc:
        stream_from_text(text, algorithm)
    assert str(exc.value) == message


# a number is ASCII digits, so any other digit is refused as a symbol or within a token
@pytest.mark.parametrize("text, message", [
    ("a [\u0660,\u0662]", "unrecognized LZ77 token '[\u0660,\u0662]'"),
    ("a \u00b2", "token 1: symbol '\u00b2' is not a letter"),
    ("a \u0662", "token 1: symbol '\u0662' is not a letter"),
    ("a [0,\u00b2]", "unrecognized LZ77 token '[0,\u00b2]'"),
], ids=["arabic-indic-ref", "superscript", "arabic-indic", "superscript-ref"])
def test_text_form_refuses_digits_other_than_ascii(text, message):
    with pytest.raises(CorruptStream) as exc:
        stream_from_text(text)
    assert str(exc.value) == message


def test_text_form_reads_numbers_of_100_digits():
    stream = stream_from_text("a b [" + "0" * 99 + "1,2]")
    assert stream.tokens[2] == BackRef(1, 2)
    assert decompress(stream) == "abbb"


@pytest.mark.parametrize("load, text, message", [
    (stream_from_text, "1a " + "?" * 10**6 + "b",
     "unrecognized LZ78 token '" + "?" * 120 + "'... (1000001 characters)"),
    (stream_from_json, json.dumps({"algorithm": "q" * 10**6, "source_length": 1, "tokens": []}),
     'stream algorithm is not lz77 or lz78: "' + "q" * 119 + "... (1000002 characters)"),
], ids=["lz78-text", "json-algorithm"])
def test_long_stream_input_is_excerpted_in_the_error(load, text, message):
    # the command line cases are in test_cli.test_unloadable_input_is_a_one_line_error
    with pytest.raises(CorruptStream) as exc:
        load(text)
    assert str(exc.value) == message


def test_long_int_token_field_is_named_by_its_size():
    assert (_refusal(Algorithm.LZ77, (Literal("a"), BackRef(10**200, 2)), 3)
            == "token 1: start of more than 100 digits")
    assert (_refusal(Algorithm.LZ77, (Literal("a"), BackRef(10**100 - 1, 2)), 3)
            == f"token 1: start {NINES} outside emitted prefix of 1")


# -------------------------------------------------------------- properties

ALPHABET = "ABCDEFGabcdefg"


def sequences(max_size):
    return st.integers(min_value=1, max_value=14).flatmap(
        lambda k: st.text(alphabet=ALPHABET[:k], max_size=max_size)
    )


@given(sequences(max_size=512))
@settings(max_examples=150, deadline=None)
def test_round_trip(seq):
    assert decompress(compress_lz77(seq)) == seq


@given(sequences(max_size=256))
@settings(max_examples=150, deadline=None)
def test_matches_naive_oracle(seq):
    assert oracles.plain_tokens(compress_lz77(seq)) == oracles.naive_compress_lz77(seq)


def wide_sequences(max_size):
    """Up to 26 ASCII letters and up to 4 past ASCII: new bigrams are common."""
    return st.tuples(st.integers(1, 26), st.integers(0, 4)).flatmap(
        lambda sizes: st.text(alphabet=string.ascii_lowercase[:sizes[0]]
                              + "\u00e9\u00df\u0416\U0001d11e"[:sizes[1]], max_size=max_size)
    )


@given(wide_sequences(max_size=256))
@settings(max_examples=150, deadline=None)
def test_matches_naive_oracle_over_wide_alphabets(seq):
    assert oracles.plain_tokens(compress_lz77(seq)) == oracles.naive_compress_lz77(seq)


@st.composite
def repetitive_sequences(draw):
    """Concatenated picks of a few short motifs: long matches, often to the end."""
    letters = ALPHABET[:draw(st.integers(1, 4))]
    motifs = draw(st.lists(st.text(letters, min_size=1, max_size=12), min_size=1, max_size=4))
    seq = ""
    for motif in draw(st.lists(st.sampled_from(motifs), max_size=200)):
        if len(seq) + len(motif) > 200:
            break
        seq += motif
    if draw(st.booleans()):  # end inside a motif, so a match can run to the end
        seq += draw(st.sampled_from(motifs))[:draw(st.integers(1, 11))]
    return seq


@given(repetitive_sequences())
@settings(max_examples=300, deadline=None)
def test_matches_naive_oracle_on_repetitive_input(seq):
    assert oracles.plain_tokens(compress_lz77(seq)) == oracles.naive_compress_lz77(seq)


@given(st.one_of(sequences(max_size=256), repetitive_sequences()),
       st.sampled_from(list(Algorithm)))
@settings(max_examples=150, deadline=None)
def test_token_count_matches_compress(seq, algorithm):
    assert token_count(seq, algorithm) == len(compress(seq, algorithm).tokens)


@pytest.mark.parametrize("seq", [
    "a" * 200,
    "ab" * 100,
    "abc" * 50 + "ab",
    "aab" * 64,
    goldens.SALLY,
    goldens.CONCERTINA,
    goldens.STAR_OF_MUNSTER,
])
def test_matches_naive_oracle_on_structured_inputs(seq):
    assert oracles.plain_tokens(compress_lz77(seq)) == oracles.naive_compress_lz77(seq)


@given(sequences(max_size=128))
@settings(max_examples=100, deadline=None)
def test_literal_emitted_iff_no_match(seq):
    # reconstruct token start positions, then check each literal against
    # the oracle's match finder
    pos = 0
    for token in compress_lz77(seq).tokens:
        match = oracles.naive_longest_match(seq, pos)
        if isinstance(token, Literal):
            assert match is None
            pos += 1
        else:
            assert match == (token.start, token.length)
            pos += token.length


@given(sequences(max_size=128).filter(lambda s: len(s) >= 2))
@settings(max_examples=100, deadline=None)
def test_token_count_shrinks_under_self_concatenation(seq):
    single = len(compress_lz77(seq).tokens)
    doubled = len(compress_lz77(seq + seq).tokens)
    assert doubled < 2 * single


@given(sequences(max_size=256).filter(lambda s: s))
@settings(max_examples=100, deadline=None)
def test_ratio_bounds(seq):
    stream = compress_lz77(seq)
    ratio = compression_ratio(stream)
    assert 1 <= ratio <= len(seq)
    all_literals = all(isinstance(t, Literal) for t in stream.tokens)
    assert (ratio == 1) == all_literals


@given(sequences(max_size=300))
@settings(max_examples=60, deadline=None)
def test_text_serialization_round_trip(seq):
    stream = compress_lz77(seq)
    assert stream_from_text(stream_to_text(stream), Algorithm.LZ77) == stream
    assert stream_from_json(stream_to_json(stream)) == stream


@given(st.text(max_size=64), st.sampled_from(Algorithm), st.sampled_from((0, 1)))
@settings(max_examples=300, deadline=None)
def test_text_form_reads_back_what_it_writes(seq, algorithm, index_base):
    # any symbols at all, well within the ceiling: the writer refuses a stream,
    # or the reader gets it back
    stream = compress(seq, algorithm)
    try:
        text = stream_to_text(stream, index_base)
    except ValueError:
        assert stream_from_json(stream_to_json(stream)) == stream  # JSON carries any symbol
        return
    assert stream_from_text(text, algorithm, index_base) == stream


@given(st.one_of(sequences(max_size=300), repetitive_sequences()),
       st.sampled_from(Algorithm), st.sampled_from((0, 1)))
@settings(max_examples=100, deadline=None)
def test_text_form_decodes_without_naming_the_coder(seq, algorithm, index_base):
    # the text form alone says which coder made it, so decompress needs no --algo
    text = stream_to_text(compress(seq, algorithm), index_base)
    assert decompress(stream_from_text(text, index_base=index_base)) == seq
