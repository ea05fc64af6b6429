"""Random-string compression baseline and length normalization.

Compression ratios grow with string length even for structureless
input, so tunes of different lengths (96-quaver jigs vs 128-quaver
reels) are not directly comparable.  This module estimates the expected
ratio of uniformly random strings as a function of length and uses it
to rescale a tune's ratio to what it would be at a reference length.

Sampling is deterministic: every (length, sample index) pair derives
its own generator from the master seed, so results do not depend on
evaluation order and are reproducible bit for bit.
"""

import bisect
import functools
import json
import math
import random
import statistics

from ._value import ARRAY, INTEGER, NUMBER, OBJECT, Value, field, item, load_json, plain, shown
from .lz import CODER_NAME, Algorithm, token_count

DEFAULT_ALPHABET_SIZE = 13
DEFAULT_SAMPLES = 1000
# LZ77 time grows about quadratically on random strings: one of 2,000
# letters over 2 symbols, the slowest alphabet, parses in about 7 ms
# (6.6 to 7.0 ms on one core of a 2-core x86-64 host, CPython 3.11)
MAX_LENGTH = 2_000
# the work one request may ask for, samples × Σ(length + _DRAW_COST) over
# its distinct lengths; the paper's grid at 1,000 samples asks for 820,000
SYMBOL_BUDGET = 1_000_000
# seeding and drawing a string takes about 8 us at length 1 and 13 us at 128
# (CPython 3.11, one core of a 2-core x86-64 host), at most as long as parsing
# 16 symbols at 1 us each (the parse takes about 0.5 us a symbol on the paper's
# grid and 3.3 us over 2 symbols at MAX_LENGTH); the most samples of length 1
# that the budget admits, 58,823, take about 0.6 s
_DRAW_COST = 16
# string.ascii_lowercase; importing string would compile Template's regex at start-up
_LOWERCASE = "abcdefghijklmnopqrstuvwxyz"


class CurveRangeError(ValueError):
    """A query length outside the sampled span; no extrapolation."""


class BaselinePoint(Value):
    __slots__ = ("length", "mean_ratio", "std_dev")


class BaselineCurve(Value, defaults=(Algorithm.LZ77,)):
    """Mean ratios of random strings by length, as ``algorithm`` parses them."""

    __slots__ = ("alphabet_size", "samples_per_length", "points", "rng_seed", "algorithm")


def mean_and_spread(values: list[float]) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation of one or more floats;
    one value has a spread of 0.0."""
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    return statistics.fmean(values), spread


@functools.cache
def _letter_tables(letters: str) -> tuple[bytes, bytes]:
    """For each value k of the top 8, then the top 16, bits of a ``random()``
    draw x, the letter ``floor(x * n)`` picks from ``letters``, or 0 where k
    leaves it open.

    x with top bits k (``bits`` of them) lies in [k, k + 1) / 2**bits, and the
    rounded product fl(x * n) in [n*k, n*(k + 1)) / 2**bits: the lower end is
    exact, and x is at least 2**-53 short of the upper one, more than half a
    float's spacing there once it is multiplied by n.  So letter m is known for
    every k with m * 2**bits <= n*k and n*(k + 1) <= (m + 1) * 2**bits, and the
    one k, if any, that holds (m + 1) * 2**bits / n inside it is open: fewer
    than n keys in all, and none when n is a power of 2.
    """
    n = len(letters)

    def table(bits: int) -> bytes:
        size = 1 << bits
        out = bytearray()
        for m, letter in enumerate(letters.encode("ascii")):
            first = -(-m * size // n)  # the least k with m * size <= n*k
            end = (m + 1) * size // n  # past the greatest k with n*(k + 1) <= (m + 1) * size
            out += bytes([letter]) * (end - first)
            if (m + 1) * size % n:  # k = end holds (m + 1) * size / n inside it
                out.append(0)
        return bytes(out)

    return table(8), table(16)


def _exact_letter(letters: str, words: bytes) -> int:
    """The letter, as a byte, that ``choices`` picks with the two 32-bit words of
    one ``random()`` call, little-endian in ``words``."""
    a = int.from_bytes(words[:4], "little") >> 5
    b = int.from_bytes(words[4:], "little") >> 6
    x = (a * 67108864.0 + b) * (1.0 / 9007199254740992.0)  # as random() computes it
    return ord(letters[math.floor(x * len(letters))])


def _random_string(letters: str, length: int, seed: int, index: int) -> str:
    """The ``length`` letters that ``rng.choices(letters, k=length)`` draws.

    ``choices`` calls ``random()`` once a letter, which reads two 32-bit words
    w0 and w1 of the generator, and one ``getrandbits`` call gives the same
    words, least significant first.  The top byte of each w0 picks its letter
    through one ``translate``; the few that straddle two letters look up the
    top two bytes, and the rarer ones that still straddle compute ``random()``.
    """
    rng = random.Random(f"{seed}:{length}:{index}")
    words = rng.getrandbits(64 * length).to_bytes(8 * length, "little")
    by_byte, by_two_bytes = _letter_tables(letters)
    drawn = bytearray(words[3::8].translate(by_byte))
    i = drawn.find(0)
    while i >= 0:
        j = 8 * i
        drawn[i] = (by_two_bytes[words[j + 3] << 8 | words[j + 2]]
                    or _exact_letter(letters, words[j:j + 8]))
        i = drawn.find(0, i + 1)
    return drawn.decode("ascii")


def estimate_baseline(
    lengths: list[int],
    alphabet_size: int = DEFAULT_ALPHABET_SIZE,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    algorithm: Algorithm = Algorithm.LZ77,
) -> BaselineCurve:
    """Sample mean compression ratios of uniform random strings.

    For each requested length, ``samples`` independent strings over the
    first ``alphabet_size`` lowercase letters are compressed and the
    mean and sample standard deviation of their ratios recorded.  A
    length above ``MAX_LENGTH``, or a request whose ``samples`` times
    the sum of ``length + 16`` over its distinct lengths passes
    ``SYMBOL_BUDGET``, raises ValueError before any string is drawn.
    """
    if not lengths:
        raise ValueError("at least one length is required")
    if not all(1 <= length <= MAX_LENGTH for length in lengths):
        raise ValueError(f"lengths must be in 1..{MAX_LENGTH}")
    if not 1 <= alphabet_size <= 26:
        raise ValueError("alphabet_size must be in 1..26")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    work = samples * sum(length + _DRAW_COST for length in set(lengths))
    if work > SYMBOL_BUDGET:
        raise ValueError(f"samples * sum of (length + {_DRAW_COST}) is {work}, "
                         f"more than the budget of {SYMBOL_BUDGET}")

    letters = _LOWERCASE[:alphabet_size]
    points = []
    for length in sorted(set(lengths)):
        ratios = []
        for index in range(samples):
            text = _random_string(letters, length, seed, index)
            ratios.append(length / token_count(text, algorithm))
        points.append(BaselinePoint(length, *mean_and_spread(ratios)))
    return BaselineCurve(alphabet_size, samples, tuple(points), seed, algorithm)


def baseline_at(curve: BaselineCurve, length: int) -> float:
    """Mean ratio at ``length``: sampled value, or linear interpolation
    between the two bracketing sample points."""
    points = curve.points
    if not points:
        raise CurveRangeError("baseline curve has no points")
    if not points[0].length <= length <= points[-1].length:
        raise CurveRangeError(
            f"length {length} outside sampled span "
            f"[{points[0].length}, {points[-1].length}]"
        )
    # the first point at or past length; curve lengths strictly increase
    i = bisect.bisect_left(points, length, key=lambda point: point.length)
    point = points[i]
    if point.length == length:
        return point.mean_ratio
    left = points[i - 1]
    t = (length - left.length) / (point.length - left.length)
    return left.mean_ratio + t * (point.mean_ratio - left.mean_ratio)


def normalize_ratio(
    raw_ratio: float,
    own_length: int,
    reference_length: int,
    curve: BaselineCurve,
) -> float:
    """Rescale ``raw_ratio`` to the ratio expected at ``reference_length``.

    Multiplies by the baseline ratio at the reference length and divides
    by the baseline at the string's own length.  The factor is formed
    first so equal lengths rescale by exactly 1.0.
    """
    factor = baseline_at(curve, reference_length) / baseline_at(curve, own_length)
    return raw_ratio * factor


# -------------------------------------------------------------- persistence


def curve_to_json(curve: BaselineCurve) -> str:
    return json.dumps(plain(curve), sort_keys=True, indent=2)


def curve_from_json(text: str) -> BaselineCurve:
    """Load a curve saved by ``curve_to_json``.

    Raises ValueError at the first fault: text ``_value.load_json`` refuses;
    a curve, ``points`` or point that is not an object, array and object; a
    field missing or not a JSON number (an integer for a length, count or
    seed); no points; lengths not strictly increasing; a length or sample
    count below 1 or an alphabet size outside 1..26, which ``estimate_baseline``
    never draws; a mean ratio not finite and > 0, or a spread not finite and
    >= 0; or an ``algorithm``, the coder of the ratios, not "lz77" or "lz78".
    """
    what = "baseline curve"
    payload = load_json(text, what, dict)
    points = []
    for index, p in enumerate(field(payload, "points", ARRAY, what)):
        where = f"{what} point {index}"
        item(p, OBJECT, where)
        points.append(BaselinePoint(field(p, "length", INTEGER, where),
                                    float(field(p, "mean_ratio", NUMBER, where)),
                                    float(field(p, "std_dev", NUMBER, where))))
    curve = BaselineCurve(
        field(payload, "alphabet_size", INTEGER, what),
        field(payload, "samples_per_length", INTEGER, what), tuple(points),
        field(payload, "rng_seed", INTEGER, what),
        # a curve saved without it holds LZ77 ratios
        Algorithm(field(payload, "algorithm", CODER_NAME, what, "lz77")))
    if not points:
        raise ValueError("baseline curve has no points")
    for left, right in zip(points, points[1:]):
        if left.length >= right.length:
            raise ValueError(
                f"baseline curve lengths not strictly increasing: {left.length}, {right.length}"
            )
    if points[0].length < 1:  # the least, as lengths increase
        raise ValueError(f"baseline curve length must be >= 1: {shown(points[0].length)}")
    if not 1 <= curve.alphabet_size <= 26:
        raise ValueError(f"baseline curve alphabet_size must be in 1..26: "
                         f"{shown(curve.alphabet_size)}")
    if curve.samples_per_length < 1:
        raise ValueError(f"baseline curve samples_per_length must be >= 1: "
                         f"{shown(curve.samples_per_length)}")
    for point in points:
        if not (math.isfinite(point.mean_ratio) and point.mean_ratio > 0):
            raise ValueError(
                f"baseline curve mean_ratio at length {point.length} "
                f"is not finite and > 0: {point.mean_ratio}"
            )
        if not (math.isfinite(point.std_dev) and point.std_dev >= 0):
            raise ValueError(
                f"baseline curve std_dev at length {point.length} "
                f"is not finite and >= 0: {point.std_dev}"
            )
    return curve


def curve_to_csv(curve: BaselineCurve) -> str:
    lines = ["length,mean_ratio"]
    lines += [f"{p.length},{p.mean_ratio:.6f}" for p in curve.points]
    return "\n".join(lines) + "\n"
