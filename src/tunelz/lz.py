"""Lempel-Ziv token coders used to estimate melodic complexity.

Two coders operate on plain symbol sequences (strings of one-character
pitch symbols):

* LZ77: greedy left-to-right parse into literals and back-references
  ``[start, length]`` over an unbounded window.  A back-reference may
  overlap the text it is producing (self-extending copy), which is what
  lets a run such as ``dddd`` compress to a literal plus one copy.
* LZ78: incremental phrase dictionary.  Each token names a previously
  emitted phrase (0 = the empty phrase) plus one new symbol; the final
  token may omit the extension when the input ends exactly on a known
  phrase.

Token count, not bit cost, is the unit of account: the compression ratio
of a stream is ``source_length / token_count`` as an exact rational.
All functions here are pure and safe to call from multiple threads.
"""

import json
import re
from enum import Enum
from fractions import Fraction
from itertools import count

from ._value import (ARRAY, INTEGER, MAX_DIGITS, MAX_STREAM_SYMBOLS, Value, excerpt, field,
                     integer, load_json, plain, shown)

MIN_MATCH = 2
_TOO_LONG = 10 ** MAX_DIGITS  # the least int of more than MAX_DIGITS digits
CODER_NAME = ("lz77 or lz78", ("lz77", "lz78"))  # JSON kind of a saved stream's or curve's coder


class Algorithm(Enum):
    LZ77 = "lz77"
    LZ78 = "lz78"


class CorruptStream(ValueError):
    """A token stream violates its own invariants and cannot be decoded."""


class Literal(Value):
    """A single symbol emitted verbatim."""

    __slots__ = ("symbol",)


class BackRef(Value):
    """Copy ``length`` symbols starting at absolute 0-based ``start``.

    ``start`` always precedes the position where the token begins
    emitting, but ``start + length`` may reach past it: the copy
    proceeds symbol by symbol, so it can consume symbols it produced
    itself.
    """

    __slots__ = ("start", "length")


Lz77Token = Literal | BackRef
# one shared literal per ASCII letter, the symbols of every tune; frozen
# values, so compress_lz77 need not build a new one per literal token
_LETTER_LITERALS = {ch: Literal(ch)
                    for ch in "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"}


class Lz78Token(Value, defaults=(None,)):
    """Dictionary phrase ``prefix_index`` extended by one symbol.

    ``prefix_index`` 0 is the empty phrase; index k >= 1 is the phrase
    created by the k-th token of the stream.  ``extension`` is None only
    on a final token whose phrase already exists in the dictionary.
    """

    __slots__ = ("prefix_index", "extension")


class TokenStream(Value):
    __slots__ = ("algorithm", "tokens", "source_length")


def _lz77_parse(seq: str) -> list[tuple[int, int] | None]:
    """Greedy LZ77 parse: ``(start, length)`` per back-reference, None per literal.

    At each position the longest match against any earlier start is
    taken, with the smallest start among the longest.  A match starting
    at ``s`` may run past ``pos`` (overlapping copy), so a probe of
    length ``k`` asks whether ``seq[pos:pos+k]`` occurs inside
    ``seq[:pos+k-1]``.  ``first[pos]`` is the smallest start of the
    bigram at ``pos``, built by ``map`` alone: ``setdefault`` keeps the
    first start each bigram is given.  The last symbol counts as a new
    bigram, so ``first`` has one entry per symbol.  A position that is
    its bigram's first start is a literal.  A repeated bigram followed
    by a new one is a match of two symbols, since a longer match would
    copy the new bigram from an earlier start.  Otherwise, whether a
    match exists is monotone in ``k``, so the search gallops through
    lengths 3, 4, 6, 10, ... until a probe fails, then bisects that last
    gap.  The smallest start of a longer match is never below that of a
    shorter one, so each probe searches from the last start found.
    """
    find = seq.find
    n = len(seq)
    first = list(map({}.setdefault, zip(seq, seq[1:]), count()))
    first.append(n - 1)
    parse: list[tuple[int, int] | None] = []
    pos = 0
    while pos < n:
        start = first[pos]
        if start == pos:
            parse.append(None)
            pos += 1
            continue
        if first[pos + 1] == pos + 1:
            parse.append((start, MIN_MATCH))
            pos += MIN_MATCH
            continue
        lo, hi, k = MIN_MATCH, n - pos + 1, MIN_MATCH + 1  # lo matches, hi does not
        while k < hi:
            found = find(seq[pos:pos + k], start, pos + k - 1)
            if found == -1:
                hi = k
                break
            start, lo = found, k
            k += k - MIN_MATCH
        while hi - lo > 1:
            mid = (lo + hi) // 2
            found = find(seq[pos:pos + mid], start, pos + mid - 1)
            if found == -1:
                hi = mid
            else:
                start, lo = found, mid
        parse.append((start, lo))
        pos += lo
    return parse


def compress_lz77(seq: str) -> TokenStream:
    """Greedy LZ77 parse of ``seq`` over an unbounded window.

    At each position the longest match against any earlier starting
    position is taken (ties broken toward the smallest start, overlap
    allowed); matches shorter than two symbols become literals.
    """
    tokens: list[Lz77Token] = []
    letter = _LETTER_LITERALS.get
    pos = 0
    for match in _lz77_parse(seq):
        if match is None:
            ch = seq[pos]
            tokens.append(letter(ch) or Literal(ch))
            pos += 1
        else:
            tokens.append(BackRef(*match))
            pos += match[1]
    return TokenStream(Algorithm.LZ77, tuple(tokens), len(seq))


def _lz78_parse(seq: str) -> list[tuple[int, str | None]]:
    """Incremental LZ78 parse: ``(prefix_index, extension)`` per token.

    The dictionary is a trie held as one ``{symbol: phrase index}`` dict
    per phrase, listed by phrase index (0 = the empty phrase), so walking
    it builds no key per input symbol.  ``extension`` is None only on a
    final token whose phrase is already known.
    """
    trie: list[dict[str, int]] = [{}]
    root = children = trie[0]
    parse: list[tuple[int, str | None]] = []
    node = 0
    for ch in seq:
        child = children.get(ch)
        if child is not None:
            node = child
            children = trie[child]
            continue
        children[ch] = len(trie)
        trie.append({})
        parse.append((node, ch))
        node = 0
        children = root
    if node:
        parse.append((node, None))
    return parse


def compress_lz78(seq: str) -> TokenStream:
    """Incremental LZ78 parse of ``seq``.

    Each token consumes the longest known phrase plus one following
    symbol and enters the extended phrase into the dictionary (phrases
    are numbered from 1 in emission order).  If the input ends exactly
    on a known phrase, a terminal token without extension is emitted.
    """
    tokens = tuple(Lz78Token(node, ch) for node, ch in _lz78_parse(seq))
    return TokenStream(Algorithm.LZ78, tokens, len(seq))


def compress(seq: str, algorithm: Algorithm) -> TokenStream:
    """Parse ``seq`` with the coder named by ``algorithm``."""
    if algorithm is Algorithm.LZ77:
        return compress_lz77(seq)
    return compress_lz78(seq)


def token_count(seq: str, algorithm: Algorithm) -> int:
    """``len(compress(seq, algorithm).tokens)``, without building any token."""
    if algorithm is Algorithm.LZ77:
        return len(_lz77_parse(seq))
    return len(_lz78_parse(seq))


def is_symbol(ch) -> bool:
    """The rule of symbol: one character for which ``str.isalpha`` holds.

    Raw ``compress`` input and the text stream form carry only such
    symbols, so no symbol reads back as a number, a bracket or a space.
    The JSON form, the coders and ``decompress`` take any one-character
    string.
    """
    return type(ch) is str and len(ch) == 1 and ch.isalpha()


def _letter(i: int, name: str, ch, error: type) -> str:
    """``ch``, if it is a symbol; else ``error`` names token ``i``'s ``name`` field."""
    if not is_symbol(ch):
        raise error(f"token {i}: {name} {shown(ch, repr)} is not a letter")
    return ch


def _check_limit(i: int, end: int, limit: int, bound: str) -> None:
    """Refuse token ``i`` if the stream then decodes to ``end`` > ``limit`` symbols.

    ``limit`` and each back-reference length have at most ``MAX_DIGITS``
    digits, so ``end``, the first count past ``limit``, has at most one
    more, and the error prints both in full.
    """
    if end > limit:
        raise CorruptStream(f"token {i}: decodes to {end} symbols, {bound} {limit}")


def _check_field(i: int, name: str, value, kind: type) -> None:
    if type(value) is not kind or kind is str and len(value) != 1:
        wanted = "an integer" if kind is int else "a one-character string"
        raise CorruptStream(f"token {i}: {name} {shown(value, repr)} is not {wanted}")
    if kind is int and not -_TOO_LONG < value < _TOO_LONG:
        raise CorruptStream(f"token {i}: {name} of more than {MAX_DIGITS} digits")


def _stream_length(algorithm: Algorithm, tokens: tuple, limit: int, bound: str) -> int:
    """The number of symbols ``tokens`` decode to, found without decoding them.

    The one judge of token values: the decoders check nothing themselves.
    Raises CorruptStream at the first token not of ``algorithm``'s kind;
    with a symbol or extension not a one-character ``str``, or a start,
    length or phrase index not an ``int`` (a bool is not one) or of more
    than ``MAX_DIGITS`` digits, the rule of every number tunelz reads;
    naming a start or phrase not yet decoded; that is a short
    back-reference or an early terminal token; or that passes
    ``limit`` symbols, which ``bound`` names in the error, as in "stream
    claims".
    """
    length = 0
    if algorithm is Algorithm.LZ77:
        for i, tok in enumerate(tokens):
            if isinstance(tok, Literal):
                _check_field(i, "symbol", tok.symbol, str)
                length += 1
                _check_limit(i, length, limit, bound)
            elif not isinstance(tok, BackRef):
                raise CorruptStream(f"token {i} is not an LZ77 token: {shown(tok, repr)}")
            else:
                _check_field(i, "start", tok.start, int)
                _check_field(i, "length", tok.length, int)
                if tok.length < MIN_MATCH:
                    raise CorruptStream(
                        f"token {i}: back-reference length {tok.length} < {MIN_MATCH}")
                if not 0 <= tok.start < length:
                    raise CorruptStream(
                        f"token {i}: start {tok.start} outside emitted prefix of {length}")
                length += tok.length
                _check_limit(i, length, limit, bound)
        return length
    phrase_lengths = [0]  # by phrase index; 0 is the empty phrase
    for i, tok in enumerate(tokens):
        if not isinstance(tok, Lz78Token):
            raise CorruptStream(f"token {i} is not an LZ78 token: {shown(tok, repr)}")
        _check_field(i, "phrase index", tok.prefix_index, int)
        if not 0 <= tok.prefix_index < len(phrase_lengths):
            raise CorruptStream(f"token {i}: phrase index {tok.prefix_index} not yet defined")
        phrase = phrase_lengths[tok.prefix_index]
        if tok.extension is None:
            if i != len(tokens) - 1:
                raise CorruptStream(f"token {i}: terminal token before end of stream")
        else:
            _check_field(i, "extension", tok.extension, str)
            phrase += 1
            phrase_lengths.append(phrase)
        length += phrase
        _check_limit(i, length, limit, bound)
    return length


def _checked(stream: TokenStream) -> TokenStream:
    """``stream``, if it decodes to exactly ``source_length`` symbols, an ``int`` of at
    most ``MAX_DIGITS`` digits; else CorruptStream."""
    claimed = stream.source_length
    if type(claimed) is not int:
        raise CorruptStream(f"stream source_length is not an integer: {shown(claimed, repr)}")
    if not -_TOO_LONG < claimed < _TOO_LONG:
        raise CorruptStream(f"stream source_length of more than {MAX_DIGITS} digits")
    length = _stream_length(stream.algorithm, stream.tokens, claimed, "stream claims")
    if length != claimed:
        raise CorruptStream(f"decoded {length} symbols, stream claims {claimed}")
    return stream


def decompress(stream: TokenStream) -> str:
    """Reconstruct the source sequence of a token stream.

    Raises CorruptStream when a token fails ``_stream_length``'s check or
    the stream does not decode to its ``source_length``, an ``int`` of at
    most ``MAX_DIGITS`` digits.  All is checked before a symbol is decoded,
    so a token past it builds nothing.
    """
    _checked(stream)
    if stream.algorithm is Algorithm.LZ77:
        return _decompress_lz77(stream.tokens)
    return _decompress_lz78(stream.tokens)


def _decompress_lz77(tokens: tuple[Lz77Token, ...]) -> str:
    out: list[str] = []
    for tok in tokens:
        if isinstance(tok, Literal):
            out.append(tok.symbol)
        else:
            for k in range(tok.start, tok.start + tok.length):  # so overlaps self-extend
                out.append(out[k])
    return "".join(out)


def _decompress_lz78(tokens: tuple[Lz78Token, ...]) -> str:
    phrases = [""]
    out: list[str] = []
    for tok in tokens:
        if tok.extension is None:
            out.append(phrases[tok.prefix_index])
        else:
            phrase = phrases[tok.prefix_index] + tok.extension
            phrases.append(phrase)
            out.append(phrase)
    return "".join(out)


def compression_ratio(stream: TokenStream) -> Fraction:
    """Source length over token count, each token counting as one unit."""
    if not stream.tokens:
        raise ValueError("compression ratio is undefined for an empty stream")
    return Fraction(stream.source_length, len(stream.tokens))


# ----------------------------------------------------------------- text form
#
# Literals print as bare letters.  LZ77 back-references print as [i,j];
# LZ78 tokens print as index+letter ("1d"), a zero index is dropped, and
# a terminal token prints as the bare index.  Tokens are space-separated.
# Numbers are written in ASCII digits.  Every symbol is a letter
# (``is_symbol``), so none is read as a number, a bracket or a space.

_LZ77_REF_RE = re.compile(r"\[([0-9]+),([0-9]+)\]")
_LZ78_TOKEN_RE = re.compile(r"([0-9]*)(.?)")
_DIGIT_RE = re.compile(r"[0-9]")


def stream_to_text(stream: TokenStream, index_base: int = 0) -> str:
    """Render a stream in the compact text notation.

    ``index_base`` shifts displayed LZ77 positions (0 or 1); storage is
    always 0-based.  A symbol or extension that is not a letter
    (``is_symbol``) raises ValueError naming its token, so the text
    always reads back, through ``stream_from_text``, as this stream.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    parts: list[str] = []
    for i, tok in enumerate(stream.tokens):
        if isinstance(tok, Literal):
            parts.append(_letter(i, "symbol", tok.symbol, ValueError))
        elif isinstance(tok, BackRef):
            parts.append(f"[{tok.start + index_base},{tok.length}]")
        elif tok.extension is None:
            parts.append(str(tok.prefix_index))
        else:
            extension = _letter(i, "extension", tok.extension, ValueError)
            parts.append(extension if tok.prefix_index == 0 else f"{tok.prefix_index}{extension}")
    return " ".join(parts)


def stream_from_text(
    text: str,
    algorithm: Algorithm | None = None,
    index_base: int = 0,
) -> TokenStream:
    """Parse the text notation back into a TokenStream.

    When ``algorithm`` is None it is inferred: bracketed pairs mean
    LZ77, digit-prefixed tokens mean LZ78, and a stream of bare letters
    defaults to LZ77 (both coders decode it identically).  The text form
    declares no length, so it is summed from the tokens, which are
    checked as ``decompress`` checks them; a symbol or extension that is
    not a letter (``is_symbol``), a stream that decodes to more than
    ``MAX_STREAM_SYMBOLS`` symbols, or a number of more than ``MAX_DIGITS``
    digits, refused unread, raises CorruptStream.  A number is ASCII
    digits, so a digit of another script is refused as a symbol or as
    part of an unrecognized token.
    """
    if index_base not in (0, 1):
        raise ValueError("index_base must be 0 or 1")
    if algorithm is None:
        lz78 = "[" not in text and _DIGIT_RE.search(text) is not None
        algorithm = Algorithm.LZ78 if lz78 else Algorithm.LZ77
    tokens: list[Lz77Token | Lz78Token] = []
    for i, word in enumerate(text.split()):
        if algorithm is Algorithm.LZ77:
            m = _LZ77_REF_RE.fullmatch(word)
            if m:
                start, length = m.groups()
                tokens.append(BackRef(_number(i, word, start) - index_base,
                                      _number(i, word, length)))
            elif len(word) == 1:
                tokens.append(Literal(_letter(i, "symbol", word, CorruptStream)))
            else:
                raise CorruptStream(f"unrecognized LZ77 token {excerpt(word)}")
        else:
            m = _LZ78_TOKEN_RE.fullmatch(word)
            if not m:
                raise CorruptStream(f"unrecognized LZ78 token {excerpt(word)}")
            digits, extension = m.groups()
            if extension:
                _letter(i, "extension", extension, CorruptStream)
            prefix = _number(i, word, digits) if digits else 0
            tokens.append(Lz78Token(prefix, extension or None))
    parsed = tuple(tokens)
    length = _stream_length(algorithm, parsed, MAX_STREAM_SYMBOLS, "more than the ceiling of")
    return TokenStream(algorithm, parsed, length)


def _number(i: int, word: str, digits: str) -> int:
    try:
        return integer(digits)
    except ValueError as exc:
        raise CorruptStream(f"token {i}: number {exc} in {excerpt(word)}") from None


# ----------------------------------------------------------------- JSON form


def stream_to_json(stream: TokenStream) -> str:
    payload = plain(stream)
    for token in payload["tokens"]:
        if "prefix_index" in token:  # an LZ78 token; the file format calls it prefix
            token["prefix"] = token.pop("prefix_index")
    return json.dumps(payload, sort_keys=True)


def stream_from_json(text: str) -> TokenStream:
    """Load a stream saved by ``stream_to_json``.

    Raises CorruptStream when the text is not such a stream, when it
    declares a ``source_length`` above ``MAX_STREAM_SYMBOLS``, or when its
    tokens fail the check ``decompress`` makes, with the same message.
    """
    try:
        payload = load_json(text, "stream", dict)
        algorithm = Algorithm(field(payload, "algorithm", CODER_NAME, "stream"))
        source_length = field(payload, "source_length", INTEGER, "stream")
        raw = field(payload, "tokens", ARRAY, "stream")
    except ValueError as exc:
        raise CorruptStream(str(exc)) from exc
    if source_length > MAX_STREAM_SYMBOLS:
        raise CorruptStream(f"stream claims {source_length} symbols, "
                            f"more than the ceiling of {MAX_STREAM_SYMBOLS}")
    tokens = tuple(_token_from_json(i, entry) for i, entry in enumerate(raw))
    return _checked(TokenStream(algorithm, tokens, source_length))


def _token_from_json(i: int, entry) -> Lz77Token | Lz78Token:
    """One token object: {symbol}, {start, length} or {prefix, extension}, values unchecked."""
    keys = set(entry) if isinstance(entry, dict) else None
    if keys == {"symbol"}:
        return Literal(entry["symbol"])
    if keys == {"start", "length"}:
        return BackRef(entry["start"], entry["length"])
    if keys == {"prefix", "extension"}:
        return Lz78Token(entry["prefix"], entry["extension"])
    raise CorruptStream(f"token {i} is not a valid token object: {shown(json.dumps(entry))}")
