"""Brute-force reference implementations the production code is checked
against.  Deliberately written as plain triple loops over plain tuples so
they share nothing with the production matcher."""

import random

from tunelz._value import excerpt
from tunelz.lz import BackRef, Literal, Lz78Token
from tunelz.notation import ErrorKind, NormalizationError, normalize, parse_abc


def naive_longest_match(seq, pos):
    """Try every earlier start, extend symbol by symbol (overlap allowed).

    Returns (start, length) for the first (= smallest-start) longest
    match of length >= 2, or None.
    """
    best_len = 0
    best_start = None
    n = len(seq)
    for start in range(pos):
        k = 0
        while pos + k < n and seq[start + k] == seq[pos + k]:
            k += 1
        if k >= 2 and k > best_len:
            best_len = k
            best_start = start
    if best_start is None:
        return None
    return best_start, best_len


def naive_compress_lz77(seq):
    """Greedy parse driven entirely by the naive matcher."""
    tokens = []
    pos = 0
    while pos < len(seq):
        match = naive_longest_match(seq, pos)
        if match is None:
            tokens.append(seq[pos])
            pos += 1
        else:
            tokens.append(match)
            pos += match[1]
    return tokens


def plain_tokens(stream):
    """Production LZ77 stream as the oracle's plain representation."""
    out = []
    for tok in stream.tokens:
        if isinstance(tok, Literal):
            out.append(tok.symbol)
        elif isinstance(tok, BackRef):
            out.append((tok.start, tok.length))
        else:
            raise TypeError(f"not an LZ77 token: {tok!r}")
    return out


def naive_compress_lz78(seq):
    """LZ78 parse against a plain list of phrases, scanned in full at each step.

    Returns (prefix, extension) pairs.  The extension is None only
    on a final pair whose phrase runs exactly to the end of ``seq``.
    """
    phrases = [""]
    tokens = []
    pos = 0
    while pos < len(seq):
        best = 0
        for index, phrase in enumerate(phrases):
            if len(phrase) > len(phrases[best]) and seq.startswith(phrase, pos):
                best = index
        end = pos + len(phrases[best])
        if end == len(seq):
            tokens.append((best, None))
            break
        tokens.append((best, seq[end]))
        phrases.append(phrases[best] + seq[end])
        pos = end + 1
    return tokens


def plain_lz78_tokens(stream):
    """Production LZ78 stream as the oracle's plain pairs."""
    out = []
    for tok in stream.tokens:
        if not isinstance(tok, Lz78Token):
            raise TypeError(f"not an LZ78 token: {tok!r}")
        out.append((tok.prefix, tok.extension))
    return out


def choices_draw(letters, length, seed, index):
    """The baseline's random string as ``random.choices`` draws it, one
    ``random()`` call a letter, from the generator seeded for this string."""
    return "".join(random.Random(f"{seed}:{length}:{index}").choices(letters, k=length))


def dump_entry_outcome(type_name, meter, body):
    """A dump entry's outcome as read from the ABC block written in front of
    its body: the QuaverSequence, or the error as ``(kind, detail, offset)``.

    A meter that is None, or blank once each line's ``%`` comment is cut,
    is the standard one of the type (6/8 for a jig, else 4/4).  A meter of
    more than one line is refused before the block is written.  An error
    ``parse_abc`` finds in the block has its offset moved into the body, an
    offset on the written header lines becoming 0.
    """
    if all(not line.split("%")[0].strip() for line in (meter or "").splitlines()):
        meter = "6/8" if type_name.strip().lower() == "jig" else "4/4"
    meter = meter.rstrip()
    if len(meter.splitlines()) > 1:
        return ErrorKind.MALFORMED_HEADER, f"unusable meter {excerpt(meter)}", 0
    header = f"X: 1\nM: {meter}\nK:\n"
    try:
        tunes = parse_abc(f"{header}{body}\n")
    except NormalizationError as err:
        return err.kind, err.detail, max(err.location - len(header), 0)
    if len(tunes) != 1:
        return (ErrorKind.MALFORMED_HEADER, f"abc body holds {len(tunes)} tunes (an X: line "
                "starts a new one); a dump entry must hold exactly one", 0)
    try:
        return normalize(tunes[0])
    except NormalizationError as err:
        return err.kind, err.detail, err.location
