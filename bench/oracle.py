"""Brute-force LZ parses that share no code with the program under test.

Both are quadratic or worse and meant for short sequences (a tune is at
most a few hundred symbols).  Tokens are plain values: a literal is a
one-character string, an LZ77 back-reference a ``(start, length)`` pair
and an LZ78 token a ``(prefix_index, extension_or_None)`` pair.
"""


def lz77(seq: str) -> list:
    """Greedy parse; longest match of two or more symbols against any
    earlier start, overlap allowed, ties to the smallest start."""
    tokens = []
    pos = 0
    n = len(seq)
    while pos < n:
        best_start, best_len = None, 1
        for start in range(pos):
            k = 0
            while pos + k < n and seq[start + k] == seq[pos + k]:
                k += 1
            if k > best_len:
                best_start, best_len = start, k
        if best_start is None:
            tokens.append(seq[pos])
            pos += 1
        else:
            tokens.append((best_start, best_len))
            pos += best_len
    return tokens


def lz78(seq: str) -> list:
    """Each token is the longest known phrase plus one new symbol; a
    final token without a symbol when the input ends on a known phrase."""
    phrases = [""]
    tokens = []
    pos = 0
    n = len(seq)
    while pos < n:
        index = max(
            (i for i, p in enumerate(phrases) if seq.startswith(p, pos)),
            key=lambda i: len(phrases[i]),
        )
        end = pos + len(phrases[index])
        if end == n:
            tokens.append((index, None))
            break
        tokens.append((index, seq[end]))
        phrases.append(seq[pos:end + 1])
        pos = end + 1
    return tokens


def lz77_text(tokens: list) -> str:
    """The program's documented text notation for an LZ77 token list."""
    return " ".join(t if isinstance(t, str) else f"[{t[0]},{t[1]}]" for t in tokens)
