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

from __future__ import annotations

import json
import math
import random

from ._value import Value, excerpt, is_int, plain, shown
from .lz import Algorithm, token_count

DEFAULT_ALPHABET_SIZE = 13
DEFAULT_SAMPLES = 1000
# LZ77 time grows about quadratically on random strings: one of 2,000
# letters over 2 symbols, the slowest alphabet, parses in about 7 ms
# (6.6 to 7.0 ms on one core of a 2-core x86-64 host, CPython 3.11)
MAX_LENGTH = 2_000
# the work one request may ask for, samples × Σ(length + _DRAW_COST) over
# its distinct lengths; the paper's grid at 1,000 samples asks for 820,000
SYMBOL_BUDGET = 1_000_000
# seeding and drawing a string takes about 14 us, as long as parsing 16
# symbols at 1 us each (the parse takes about 0.5 us a symbol on the paper's
# grid and 3.3 us over 2 symbols at MAX_LENGTH); the most samples of length 1
# that the budget admits, 58,823, take about 1 s
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

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(p.length for p in self.points)


def mean_and_spread(values: list[float]) -> tuple[float, float]:
    """Mean and sample (n-1) standard deviation of one or more floats.

    The mean is ``math.fsum(values) / n``, as ``statistics.fmean`` gives
    it.  The spread is the square root of the exact sample variance,
    rounded once, as ``statistics.stdev`` gives it from Python 3.11 on
    (3.10 rounds twice, so its last digit can differ).  One value has a
    spread of 0.0.
    """
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    # a float is an integer over a power of two, so the largest
    # denominator is common to all and the sums below are exact
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(den for _, den in ratios)
    scaled = [num * (scale // den) for num, den in ratios]
    total = sum(scaled)
    squares = sum([x * x for x in scaled])
    return mean, _sqrt_of_fraction(n * squares - total * total, n * (n - 1) * scale * scale)


def _sqrt_of_fraction(num: int, den: int) -> float:
    """``sqrt(num / den)`` correctly rounded: an integer root of at least
    55 bits, rounded to odd, then one rounding to a float."""
    shift = (num.bit_length() - den.bit_length() - 109) // 2  # 109 = 2 * 53 + 3
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num  # an inexact root gets an odd last bit
    return math.ldexp(root, shift)


def _random_string(letters: str, length: int, seed: int, index: int) -> str:
    rng = random.Random(f"{seed}:{length}:{index}")
    return "".join(rng.choices(letters, k=length))


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
    for i, point in enumerate(points):
        if point.length == length:
            return point.mean_ratio
        if point.length > length:
            left = points[i - 1]
            t = (length - left.length) / (point.length - left.length)
            return left.mean_ratio + t * (point.mean_ratio - left.mean_ratio)
    raise AssertionError("unreachable")


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

    Raises ValueError when the curve, its ``points`` or a point is not a
    JSON object, array and object, when a field is missing or not a JSON
    number (an integer for a length, count or seed; never a bool), when
    there are no points, when lengths are not strictly increasing, when a
    field is out of the range ``estimate_baseline`` draws from (a length
    or sample count below 1, an alphabet size outside 1..26), or when a
    mean ratio is not a finite positive number, or when ``algorithm``, the
    coder the ratios were sampled with, is present and neither ``"lz77"``
    nor ``"lz78"``.
    """
    try:
        payload = json.loads(text)
    except RecursionError as exc:  # nesting deeper than the interpreter's stack
        raise ValueError(f"baseline curve is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("baseline curve is not a JSON object")
    algorithm = payload.get("algorithm", "lz77")  # a curve saved without it holds LZ77 ratios
    if algorithm not in ("lz77", "lz78"):
        raise ValueError(f"baseline curve algorithm is not lz77 or lz78: "
                         f"{excerpt(json.dumps(algorithm), str)}")
    try:
        if not isinstance(payload["points"], list):
            raise ValueError("baseline curve points is not an array")
        points = []
        for index, p in enumerate(payload["points"]):
            if not isinstance(p, dict):
                raise ValueError(f"baseline curve point {index} is not an object")
            points.append(BaselinePoint(_field(p, "length", int), _field(p, "mean_ratio", float),
                                        _field(p, "std_dev", float)))
        curve = BaselineCurve(
            alphabet_size=_field(payload, "alphabet_size", int),
            samples_per_length=_field(payload, "samples_per_length", int),
            points=tuple(points),
            rng_seed=_field(payload, "rng_seed", int),
            algorithm=Algorithm(algorithm),
        )
    except KeyError as exc:
        raise ValueError(f"baseline curve lacks field {exc}") from None
    except (TypeError, OverflowError) as exc:  # or a ratio past a float's range
        raise ValueError(f"baseline curve has a non-numeric field: {exc}") from None
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
    return curve


def _field(fields: dict, name: str, kind: type):
    """``fields[name]`` as ``kind``: an int from a JSON integer, a float from
    any JSON number; TypeError names any other value, a bool included."""
    value = fields[name]
    if not (is_int(value) or kind is float and type(value) is float):
        raise TypeError(f"{name} is not {'an integer' if kind is int else 'a number'}: "
                        f"{excerpt(json.dumps(value), str)}")
    return kind(value)


def curve_to_csv(curve: BaselineCurve) -> str:
    lines = ["length,mean_ratio"]
    lines += [f"{p.length},{p.mean_ratio:.6f}" for p in curve.points]
    return "\n".join(lines) + "\n"
