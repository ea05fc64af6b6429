"""Frozen reference data for the three fully worked-out reels.

The published reference tables for Sally Gardens are internally
inconsistent in three places, so both the published token streams and
the canonical ones (what a single consistent coder produces) are kept:

* The tune table prints the cell at quaver offsets 72-75 / 104-107 as
  ``GGBG``, but both published parses of the second occurrence and the
  LZ77 parse of the first require ``GGDG``.  The canonical 128-symbol
  string therefore reads D at offsets 74 and 106, which is the only
  variant that any complete published parse reproduces.
* The published LZ78 parse writes entry 36 as phrase 12 + B (mirroring
  the tune-table letter above; the canonical string gives 12 + D), and
  writes its final entry as phrase 19 + g even though the full phrase
  "ggg" already sits in the dictionary at index 31 -- a proper
  dictionary coder emits the terminal token 31 with no extension.
* The published LZ77 parse spends two entries ([0,2] then a literal g)
  on the run at offsets 61-63, ignoring the strictly longer overlapping
  self-copy [60,3] that the same notation uses elsewhere (the other two
  reels' published streams rely on such copies, e.g. [16,2], [112,2]).
  The canonical greedy parse takes the longer match, giving 47 tokens
  instead of the published 48.

The Concertina Reel and Star of Munster streams are reproduced by the
canonical coder entry for entry.
"""

from tunelz.lz import BackRef, Literal, Lz78Token

# --------------------------------------------------------------- sequences

SALLY_ROWS = (
    "ggdgbbgb" "DbEbDbab" "DDbDEFGE" "Dbabgede",
    "ggdgbbgb" "DbEbDbab" "DDbDEFGE" "Dbabgggg",
    "DGGFGGDG" "GGDGAGFG" "EAAGAAEA" "AABGAGEG",
    "DGGFGGDG" "GGDGAGFG" "DDbDEFGE" "Dbabgggg",
)
SALLY = "".join(SALLY_ROWS)

CONCERTINA = (
    "AAFABAFA" "AAFABAFA" "BBBABBBA" "BBBABAFA"
    "AAFABAFA" "AAFABAFA" "FABcdddA" "BAFEDDDD"
    "AdddAddd" "AddABAFA" "BBBABBBA" "BBBABAFA"
    "AdddAddd" "AddABAFA" "FABcdddA" "BAFEDDDD"
)

STAR_OF_MUNSTER = (
    "ccAcBBGB" "AGEFGEDG" "EAABcBcd" "eaafgfed"
    "cBAcBAGB" "AGEFGEDG" "EAABcded" "cABGAAAA"
    "eaabageg" "agbgagef" "gfgagfef" "gfafgfdf"
    "eaabageg" "agbgagef" "gggeaaga" "bgafgeee"
)

# ------------------------------------------------------------ LZ78 streams

# (prefix index, extension) per token, as published.
SALLY_LZ78_PUBLISHED = [
    (0, "g"), (1, "d"), (1, "b"), (0, "b"), (3, "D"), (4, "E"), (4, "D"),
    (4, "a"), (7, "D"), (7, "E"), (0, "F"), (0, "G"), (0, "E"), (0, "D"),
    (8, "b"), (1, "e"),
    (0, "d"), (0, "e"), (1, "g"), (17, "g"), (4, "b"), (5, "b"), (13, "b"),
    (14, "b"), (0, "a"), (9, "b"), (14, "E"), (11, "G"), (13, "D"),
    (15, "g"), (19, "g"), (14, "G"), (12, "F"),
    (12, "G"), (32, "G"), (12, "B"), (12, "A"), (33, "G"), (13, "A"),
    (0, "A"), (37, "A"), (39, "A"), (40, "B"), (37, "G"), (13, "G"),
    (35, "F"), (34, "D"),
    (34, "G"), (32, "A"), (38, "D"), (24, "D"), (13, "F"), (12, "E"),
    (24, "a"), (4, "g"), (19, "g"),
]

# Entries 36 and 56 amended to what a consistent dictionary coder emits
# on the canonical string (see module docstring).
SALLY_LZ78_CANONICAL = list(SALLY_LZ78_PUBLISHED)
SALLY_LZ78_CANONICAL[35] = (12, "D")
SALLY_LZ78_CANONICAL[55] = (31, None)
SALLY_LZ78_AMENDED_ENTRIES = (36, 56)  # 1-based positions of the amendments

SALLY_LZ78_CUMULATIVE = [
    1, 3, 5, 6, 9, 11, 13, 15, 18, 21, 22, 23, 24, 25, 28, 30,
    31, 32, 34, 36, 38, 42, 44, 46, 47, 51, 53, 55, 57, 61, 64, 66, 68,
    70, 73, 75, 77, 80, 82, 83, 86, 89, 91, 94, 96, 100, 103,
    106, 109, 113, 116, 118, 120, 123, 125, 128,
]

# ------------------------------------------------------------ LZ77 streams

# Literals as single letters, back-references as (start, length) with
# 0-based starts (the published table prints them 1-based).
SALLY_LZ77_PUBLISHED = [
    "g", "g", "d", "g", "b", "b", (3, 2), "D", "b", "E", (7, 3), "a",
    (7, 2), (8, 2), "D", "E", "F", "G",
    "E", (12, 4), "g", "e", "d", "e", (0, 29), (0, 2), "g", "D", "G", "G",
    (21, 2),
    "G", (64, 3), (69, 3), "A", (66, 3), "E", "A", (76, 2), (81, 2),
    (80, 3), "A", "B", (75, 3), "E", (69, 4),
    (67, 13), (48, 16),
]

SALLY_LZ77_PUBLISHED_CUMULATIVE = [
    1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 14, 15, 17, 19, 20, 21, 22, 23,
    24, 28, 29, 30, 31, 32, 61, 63, 64, 65, 66, 67, 69,
    70, 73, 76, 77, 80, 81, 82, 84, 86, 89, 90, 91, 94, 95, 99,
    112, 128,
]

# Canonical greedy parse: published entries 26-27 collapse into the
# overlapping run copy [60,3]; everything else is identical.
SALLY_LZ77_CANONICAL = (
    SALLY_LZ77_PUBLISHED[:25] + [(60, 3)] + SALLY_LZ77_PUBLISHED[27:]
)
SALLY_LZ77_MERGED_ENTRIES = (26, 27)  # 1-based published entries merged

CONCERTINA_LZ77 = [
    "A", "A", "F", "A", "B", (1, 3), (0, 8), "B", (16, 2), (15, 10),
    (5, 11), (0, 8), (2, 3), "c", "d", (52, 2), (3, 4), "E", "D", (60, 3),
    "A", (52, 4), (65, 6), (11, 22), (65, 15), (48, 16),
]

STAR_LZ77 = [
    "c", "c", "A", "c", "B", "B", "G", "B", "A", "G", "E", "F", (9, 2),
    "D", (9, 2), "A", "A", "B", (3, 2), "c", "d", "e", "a", "a", "f", "g",
    "f", "e", "d", (3, 2), (2, 3), (8, 2), (7, 14), (23, 2), (31, 2),
    (18, 2), "G", (17, 2), (17, 2), (24, 3), "b", "a", "g", "e", "g",
    (68, 2), "b", (71, 3), "e", (27, 3), (71, 3), (29, 2), (27, 3),
    (26, 4), "d", (29, 2), (65, 16), (112, 2), (24, 3), (71, 2), (74, 3),
    (27, 2), "e", (125, 2),
]

# ------------------------------------------------------ published counts

SALLY_LZ78_TOKEN_COUNT = 56
SALLY_LZ77_PUBLISHED_TOKEN_COUNT = 48
CONCERTINA_TOKEN_COUNT = 26
STAR_TOKEN_COUNT = 64

BASELINE_EXPECTED = {50: 1.13, 100: 1.24, 150: 1.33, 200: 1.40, 96: 1.23, 128: 1.29}
BASELINE_TOLERANCE = 0.03


# ----------------------------------------------------------- converters


def as_lz77_tokens(entries):
    return tuple(
        Literal(e) if isinstance(e, str) else BackRef(*e) for e in entries
    )


def as_lz78_tokens(entries):
    return tuple(Lz78Token(prefix, ext) for prefix, ext in entries)


def cumulative_counts(stream):
    """Running total of symbols decoded after each token."""
    total = 0
    out = []
    phrase_lengths = [0]
    for tok in stream.tokens:
        if isinstance(tok, Literal):
            total += 1
        elif isinstance(tok, BackRef):
            total += tok.length
        else:
            length = phrase_lengths[tok.prefix] + (tok.extension is not None)
            if tok.extension is not None:
                phrase_lengths.append(length)
            total += length
        out.append(total)
    return out
