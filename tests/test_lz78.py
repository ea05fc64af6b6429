"""LZ78 coder: golden parse, dictionary behaviour, round trips."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tunelz.lz import (
    Algorithm,
    CorruptStream,
    Lz78Token,
    TokenStream,
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
from test_lz77 import repetitive_sequences


# ----------------------------------------------------------------- goldens


def test_sally_canonical_parse():
    stream = compress_lz78(goldens.SALLY)
    assert len(stream.tokens) == goldens.SALLY_LZ78_TOKEN_COUNT
    assert stream.tokens == goldens.as_lz78_tokens(goldens.SALLY_LZ78_CANONICAL)


def test_sally_parse_matches_published_outside_amendments():
    tokens = compress_lz78(goldens.SALLY).tokens
    published = goldens.as_lz78_tokens(goldens.SALLY_LZ78_PUBLISHED)
    for position, (got, want) in enumerate(zip(tokens, published), start=1):
        if position in goldens.SALLY_LZ78_AMENDED_ENTRIES:
            continue
        assert got == want, f"entry {position}"
    # entry 36: the canonical string reads D where the published table
    # has the stray B; entry 56: "ggg" is already phrase 31, so the
    # stream ends with a terminal token instead of re-deriving it
    assert tokens[35] == Lz78Token(12, "D")
    assert tokens[55] == Lz78Token(31, None)


def test_sally_cumulative_note_counts():
    stream = compress_lz78(goldens.SALLY)
    assert goldens.cumulative_counts(stream) == goldens.SALLY_LZ78_CUMULATIVE


def test_sally_leading_tokens_and_token_50():
    tokens = compress_lz78(goldens.SALLY).tokens
    assert tokens[:5] == goldens.as_lz78_tokens(
        [(0, "g"), (1, "d"), (1, "b"), (0, "b"), (3, "D")]
    )
    # phrase 38 is "GFG"; token 50 extends it with D
    assert tokens[49] == Lz78Token(38, "D")


def test_sally_ratio():
    stream = compress_lz78(goldens.SALLY)
    assert compression_ratio(stream) == Fraction(128, 56)


def test_terminal_partial_phrase():
    stream = compress_lz78("aaaa")
    assert stream.tokens == goldens.as_lz78_tokens([(0, "a"), (1, "a"), (1, None)])
    assert decompress(stream) == "aaaa"


def test_empty_input():
    stream = compress_lz78("")
    assert stream.tokens == ()
    assert decompress(stream) == ""


# --------------------------------------------------------------- decoding


def test_decompress_rejects_future_phrase_index():
    stream = TokenStream(Algorithm.LZ78, (Lz78Token(0, "a"), Lz78Token(5, "b")), 3)
    with pytest.raises(CorruptStream):
        decompress(stream)


def test_decompress_rejects_terminal_before_end():
    stream = TokenStream(
        Algorithm.LZ78, (Lz78Token(0, "a"), Lz78Token(1, None), Lz78Token(0, "b")), 4
    )
    with pytest.raises(CorruptStream):
        decompress(stream)


def test_decompress_rejects_wrong_source_length():
    stream = TokenStream(Algorithm.LZ78, (Lz78Token(0, "a"),), 2)
    with pytest.raises(CorruptStream):
        decompress(stream)


@pytest.mark.parametrize("last, end", [(Lz78Token(2, "c"), 6), (Lz78Token(2, None), 5)])
def test_decompress_stops_at_the_token_that_passes_the_declared_length(last, end):
    tokens = (Lz78Token(0, "a"), Lz78Token(1, "b"), last)
    stream = TokenStream(Algorithm.LZ78, tokens, 4)
    with pytest.raises(CorruptStream, match=f"^token 2: decodes to {end} symbols, stream claims 4$"):
        decompress(stream)


# ------------------------------------------------------------ serialization


def test_text_form_matches_notation():
    stream = compress_lz78(goldens.SALLY)
    text = stream_to_text(stream)
    assert text.startswith("g 1d 1b b 3D 4E 4D 4a 7D 7E F G E D 8b 1e")
    assert stream_from_text(text, Algorithm.LZ78) == stream


def test_text_form_terminal_token():
    stream = compress_lz78("aaaa")
    text = stream_to_text(stream)
    assert text == "a 1a 1"
    assert stream_from_text(text) == stream  # digits force LZ78 detection


# a number is ASCII digits, so any other digit is refused as a symbol or within a token;
# the messages are those with the coder inferred, then with LZ78 named
@pytest.mark.parametrize("text, messages", [
    ("a \u00b2", ("token 1: symbol '\u00b2' is not a letter",
                  "token 1: extension '\u00b2' is not a letter")),
    ("a 1\u00b2", ("token 1: extension '\u00b2' is not a letter",
                   "token 1: extension '\u00b2' is not a letter")),
    ("\u0661a", ("unrecognized LZ77 token '\u0661a'", "unrecognized LZ78 token '\u0661a'")),
], ids=["superscript", "superscript-extension", "arabic-indic-prefix"])
def test_text_form_refuses_digits_other_than_ascii(text, messages):
    for algorithm, message in zip((None, Algorithm.LZ78), messages):
        with pytest.raises(CorruptStream) as exc:
            stream_from_text(text, algorithm)
        assert str(exc.value) == message


def test_json_round_trip():
    stream = compress_lz78(goldens.SALLY)
    assert stream_from_json(stream_to_json(stream)) == stream


# -------------------------------------------------------------- properties

ALPHABET = "ABCDEFGabcdefg"


def sequences(max_size):
    return st.integers(min_value=1, max_value=14).flatmap(
        lambda k: st.text(alphabet=ALPHABET[:k], max_size=max_size)
    )


@given(sequences(max_size=512))
@settings(max_examples=150, deadline=None)
def test_round_trip(seq):
    assert decompress(compress_lz78(seq)) == seq


def phrases_of(stream):
    phrases = [""]
    for token in stream.tokens:
        if token.extension is not None:
            phrases.append(phrases[token.prefix_index] + token.extension)
    return phrases[1:]


@given(sequences(max_size=400))
@settings(max_examples=150, deadline=None)
def test_dictionary_grows_one_distinct_phrase_per_token(seq):
    stream = compress_lz78(seq)
    non_terminal = [t for t in stream.tokens if t.extension is not None]
    phrases = phrases_of(stream)
    assert len(phrases) == len(non_terminal)
    assert len(set(phrases)) == len(phrases)


@given(sequences(max_size=400))
@settings(max_examples=150, deadline=None)
def test_prefix_indices_reference_existing_phrases(seq):
    stream = compress_lz78(seq)
    for emitted_before, token in enumerate(stream.tokens):
        assert token.prefix_index < 1 + emitted_before


@given(sequences(max_size=400))
@settings(max_examples=100, deadline=None)
def test_terminal_token_only_at_end(seq):
    tokens = compress_lz78(seq).tokens
    for token in tokens[:-1]:
        assert token.extension is not None


@given(sequences(max_size=300))
@settings(max_examples=60, deadline=None)
def test_serialization_round_trip(seq):
    stream = compress_lz78(seq)
    assert stream_from_text(stream_to_text(stream), Algorithm.LZ78) == stream
    assert stream_from_json(stream_to_json(stream)) == stream


@st.composite
def ending_on_known_phrase(draw):
    """A prefix whose parse ends on a token boundary, then one of its phrases."""
    seq = draw(sequences(max_size=300))
    phrases, end = [""], 0
    for prefix, extension in oracles.naive_compress_lz78(seq):
        if extension is None:
            break
        phrases.append(phrases[prefix] + extension)
        end += len(phrases[-1])
    assume(len(phrases) > 1)
    return seq[:end] + draw(st.sampled_from(phrases[1:]))


def assert_matches_oracle(seq):
    """Both the coder and the count agree with the naive parse; returns it."""
    expected = oracles.naive_compress_lz78(seq)
    assert oracles.plain_lz78_tokens(compress_lz78(seq)) == expected
    assert token_count(seq, Algorithm.LZ78) == len(expected)
    return expected


@given(st.one_of(sequences(max_size=400), repetitive_sequences()))
@settings(max_examples=200, deadline=None)
def test_matches_naive_oracle(seq):
    assert_matches_oracle(seq)


@given(ending_on_known_phrase())
@settings(max_examples=150, deadline=None)
def test_terminal_token_matches_naive_oracle(seq):
    assert assert_matches_oracle(seq)[-1][1] is None


@pytest.mark.parametrize("seq", ["", "a", "aaaa", "ab" * 100, goldens.SALLY,
                                 goldens.CONCERTINA, goldens.STAR_OF_MUNSTER])
def test_matches_naive_oracle_on_structured_inputs(seq):
    assert_matches_oracle(seq)
