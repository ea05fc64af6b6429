"""Acceptance suite: one test per numbered criterion, printing a PASS
line when it holds (run with ``pytest tests/test_acceptance.py -v -s``).

Two companion checks compare the coders' output against the published
reference tables verbatim.  Those tables are internally inconsistent in
three places (see tests/goldens.py), so a single consistent coder
cannot reproduce them entry for entry; the checks are marked as strict
expected failures to keep the inconsistency visible without hiding it
behind a weakened assertion.
"""

import json
import random
from fractions import Fraction

import pytest

from tunelz import (
    Category,
    ErrorKind,
    NormalizationError,
    aggregate,
    analyze,
    compress_lz77,
    compress_lz78,
    compression_ratio,
    decompress,
    estimate_baseline,
    expand_body,
    normalize,
    normalize_ratio,
    parse_abc,
)
from tunelz._value import plain
from tunelz.baseline import BaselineCurve, BaselinePoint, baseline_at
from tunelz.corpus import TuneRecord
from tunelz.lz import BackRef, Literal, Lz78Token
from tunelz.notation import QuaverSequence

import goldens
import oracles

REFERENCE_CURVE = BaselineCurve(
    13, 1000, (BaselinePoint(96, 1.23, 0.0), BaselinePoint(128, 1.29, 0.0)), 0
)


def ok(line: str) -> None:
    print(f"\nacceptance {line}")


# -------------------------------------------------------------- criterion 1


def test_criterion_1_lz78_golden_parse():
    stream = compress_lz78(goldens.SALLY)
    assert len(stream.tokens) == 56
    assert goldens.cumulative_counts(stream) == goldens.SALLY_LZ78_CUMULATIVE
    assert goldens.cumulative_counts(stream)[:3] == [1, 3, 5]
    assert goldens.cumulative_counts(stream)[-1] == 128
    assert compression_ratio(stream) == Fraction(128, 56)

    published = goldens.as_lz78_tokens(goldens.SALLY_LZ78_PUBLISHED)
    mismatches = [
        position
        for position, (got, want) in enumerate(zip(stream.tokens, published), start=1)
        if got != want
    ]
    assert tuple(mismatches) == goldens.SALLY_LZ78_AMENDED_ENTRIES
    assert stream.tokens[35] == Lz78Token(12, "D")   # table letter typo
    assert stream.tokens[55] == Lz78Token(31, None)  # terminal phrase known
    ok("criterion 1: PASS - 56 tokens, cumulative counts exact, 54/56 "
       "entries verbatim, 2 entries at their self-consistent values")


@pytest.mark.xfail(
    strict=True,
    reason="published LZ78 table entries 36 and 56 contradict the tune string "
           "its own LZ77 table encodes and the coder's dictionary state",
)
def test_criterion_1_lz78_published_table_verbatim():
    stream = compress_lz78(goldens.SALLY)
    assert stream.tokens == goldens.as_lz78_tokens(goldens.SALLY_LZ78_PUBLISHED)


# -------------------------------------------------------------- criterion 2


def test_criterion_2_lz77_golden_parse():
    stream = compress_lz77(goldens.SALLY)
    published = goldens.as_lz77_tokens(goldens.SALLY_LZ77_PUBLISHED)

    assert stream.tokens == goldens.as_lz77_tokens(goldens.SALLY_LZ77_CANONICAL)
    # every published entry is reproduced except 26-27, which merge into
    # the strictly longer overlapping copy the published notation itself
    # uses elsewhere (criterion 3 streams)
    assert stream.tokens[:25] == published[:25]
    assert stream.tokens[25] == BackRef(60, 3)
    assert stream.tokens[26:] == published[27:]
    assert len(stream.tokens) == 47
    assert float(compression_ratio(stream)) == pytest.approx(2.7, abs=0.05)
    assert decompress(stream) == goldens.SALLY
    ok("criterion 2: PASS with documented divergence - 46/48 published "
       "entries verbatim; published entries 26-27 merge into [60,3] under "
       "the canonical overlap rule (47 tokens, ratio 128/47)")


@pytest.mark.xfail(
    strict=True,
    reason="published LZ77 table spends two entries on the run at offsets "
           "61-63, skipping the longer overlapping copy [60,3] that the "
           "same notation uses in the other published streams; one greedy "
           "rule cannot reproduce both",
)
def test_criterion_2_lz77_published_table_verbatim():
    stream = compress_lz77(goldens.SALLY)
    assert len(stream.tokens) == 48
    assert stream.tokens == goldens.as_lz77_tokens(goldens.SALLY_LZ77_PUBLISHED)


# -------------------------------------------------------------- criterion 3


def test_criterion_3_extreme_reels():
    concertina = compress_lz77(goldens.CONCERTINA)
    assert len(concertina.tokens) == 26
    assert concertina.tokens == goldens.as_lz77_tokens(goldens.CONCERTINA_LZ77)
    assert concertina.tokens[:10] == goldens.as_lz77_tokens(
        ["A", "A", "F", "A", "B", (1, 3), (0, 8), "B", (16, 2), (15, 10)]
    )
    ratio = compression_ratio(concertina)
    assert ratio == Fraction(128, 26)
    assert float(ratio) == pytest.approx(128 / 26, abs=1e-9)
    assert round(float(ratio), 4) == 4.9231

    star = compress_lz77(goldens.STAR_OF_MUNSTER)
    assert len(star.tokens) == 64
    assert compression_ratio(star) == 2
    ok("criterion 3: PASS - Concertina Reel 26 tokens (ratio 128/26, "
       "rounding to 4.9231, held to 1e-9), Star of Munster 64 tokens "
       "(ratio exactly 2)")


# -------------------------------------------------------------- criterion 4


def test_criterion_4_baseline_reproduction():
    lengths = sorted(goldens.BASELINE_EXPECTED)
    curve = estimate_baseline(lengths, alphabet_size=13, samples=1000, seed=7)
    observed = {p.length: p.mean_ratio for p in curve.points}
    for length, expected in goldens.BASELINE_EXPECTED.items():
        assert observed[length] == pytest.approx(
            expected, abs=goldens.BASELINE_TOLERANCE
        ), f"length {length}"
    ok("criterion 4: PASS - mean ratios at "
       + ", ".join(f"{n}:{observed[n]:.3f}" for n in lengths)
       + " all within +/-0.03 of the published values")


# -------------------------------------------------------------- criterion 5


def test_criterion_5_normalization_formula():
    value = normalize_ratio(2.61, 96, 128, REFERENCE_CURVE)
    assert value == pytest.approx(2.73, abs=0.01)
    assert baseline_at(REFERENCE_CURVE, 96) == 1.23
    ok(f"criterion 5: PASS - normalize_ratio(2.61, 96, 128) = {value:.4f} "
       "within +/-0.01 of 2.73")


# -------------------------------------------------------------- criterion 6


def _synthetic_reel_records(count: int, seed: int) -> list[TuneRecord]:
    rng = random.Random(seed)
    letters = "ABCDEFGabcdefg"
    records = []
    for i in range(count):
        # bar-structured so the strings compress unevenly, like real tunes
        bars = [
            "".join(rng.choices(letters, k=4)) * 2 for _ in range(8)
        ]
        symbols = ("".join(bars) * 2)[:128]
        records.append(
            TuneRecord(
                id=f"synth-{i:03d}",
                name=f"Synthetic Reel {i}",
                category=Category.REEL,
                key="D",
                abc="",
                outcome=QuaverSequence(symbols, Category.REEL),
            )
        )
    return records


def test_criterion_6_corpus_properties():
    records = _synthetic_reel_records(40, seed=1234)

    def run_once():
        reports = analyze(records)
        stats = aggregate(reports, Category.REEL, bin_count=20)
        return reports, stats

    reports, stats = run_once()
    for report in reports:
        assert report.length == 128
        assert report.ratio_lz77 == Fraction(128, report.lz77_tokens)
        assert report.ratio_lz78 == Fraction(128, report.lz78_tokens)
    assert float(stats.min.ratio) <= stats.mean_ratio <= float(stats.max.ratio)
    assert stats.histogram.bin_count == 20
    assert sum(stats.histogram.counts) == stats.count == len(records)

    reports_again, stats_again = run_once()
    assert reports_again == reports
    assert json.dumps(plain(stats_again), sort_keys=True) == json.dumps(
        plain(stats), sort_keys=True
    )
    ok("criterion 6: PASS - exact token-count ratios, mean within "
       "[min, max], 20-bin histogram mass equals tune count, repeated "
       "runs identical (published 60-tune means stay out of reach: the "
       "sample tunes are not identified)")


# -------------------------------------------------------------- criterion 7


BULK_SEQUENCES = 10_000
ALPHABET = "ABCDEFGabcdefg"


def test_criterion_7_round_trip_bulk():
    rng = random.Random(20260808)
    longest = 0
    for _ in range(BULK_SEQUENCES):
        size = rng.randint(1, 14)
        length = rng.randint(0, 512)
        longest = max(longest, length)
        seq = "".join(rng.choices(ALPHABET[:size], k=length))
        assert decompress(compress_lz77(seq)) == seq
        assert decompress(compress_lz78(seq)) == seq
    assert longest > 500
    ok(f"criterion 7a: PASS - decompress(compress(s)) = s for "
       f"{BULK_SEQUENCES} random sequences, lengths 0-512, alphabets 1-14, "
       f"both coders")


def test_criterion_7_production_matcher_equals_naive_oracle():
    rng = random.Random(977)
    checked = 0
    for _ in range(300):
        size = rng.randint(1, 14)
        length = rng.randint(0, 256)
        seq = "".join(rng.choices(ALPHABET[:size], k=length))
        assert oracles.plain_tokens(compress_lz77(seq)) == oracles.naive_compress_lz77(seq)
        checked += 1
    for seq in (goldens.SALLY, goldens.CONCERTINA, goldens.STAR_OF_MUNSTER,
                "a" * 256, "ab" * 128, "abc" * 85):
        assert oracles.plain_tokens(compress_lz77(seq)) == oracles.naive_compress_lz77(seq)
        checked += 1
    ok(f"criterion 7b: PASS - production matcher equals the naive cubic "
       f"oracle on {checked} sequences up to length 256")


def test_criterion_7_lz78_dictionary_distinctness():
    rng = random.Random(4242)
    for _ in range(400):
        size = rng.randint(1, 14)
        seq = "".join(rng.choices(ALPHABET[:size], k=rng.randint(0, 400)))
        stream = compress_lz78(seq)
        phrases = [""]
        for token in stream.tokens:
            if token.extension is not None:
                phrases.append(phrases[token.prefix] + token.extension)
        non_terminal = sum(1 for t in stream.tokens if t.extension is not None)
        assert len(phrases) - 1 == non_terminal
        assert len(set(phrases)) == len(phrases)
    ok("criterion 7c: PASS - LZ78 dictionary holds exactly one distinct "
       "phrase per non-terminal token")


def test_criterion_7_normalization_laws():
    rng = random.Random(55)
    for _ in range(2000):
        ratio = rng.uniform(1.0, 8.0)
        l1, l2, l3 = (rng.randint(96, 128) for _ in range(3))
        assert normalize_ratio(ratio, l1, l1, REFERENCE_CURVE) == ratio
        composed = normalize_ratio(
            normalize_ratio(ratio, l1, l2, REFERENCE_CURVE), l2, l3, REFERENCE_CURVE
        )
        direct = normalize_ratio(ratio, l1, l3, REFERENCE_CURVE)
        assert abs(composed - direct) <= 1e-12 * abs(direct)
    ok("criterion 7d: PASS - normalization identity exact and composition "
       "law within 1e-12 relative over 2000 draws")


# -------------------------------------------------------------- criterion 8


def test_criterion_8_abc_normalization(sally_path):
    (tune,) = parse_abc(sally_path.read_text(encoding="utf-8"))
    sequence = normalize(tune)
    assert sequence.symbols == goldens.SALLY
    assert len(sequence.symbols) == 128
    assert sequence.category is Category.REEL

    assert expand_body("A2") == "AA"

    with pytest.raises(NormalizationError) as out_of_range:
        expand_body("a'")
    assert out_of_range.value.kind is ErrorKind.OUT_OF_RANGE_NOTE

    with pytest.raises(NormalizationError) as fractional:
        expand_body("A/2")
    assert fractional.value.kind is ErrorKind.NON_QUAVER_DURATION

    with pytest.raises(NormalizationError) as triplet:
        expand_body("(3ABc")
    assert triplet.value.kind is ErrorKind.NON_QUAVER_DURATION
    ok("criterion 8: PASS - reference ABC normalizes to the 128-symbol "
       "sequence; crotchets double; out-of-range and non-quaver input "
       "rejected with the expected error kinds")
