"""Corpus ingestion, per-tune analysis and aggregate statistics.

Tunes arrive either as ABC files or as a JSON dump (an array of objects
in the style of the public tune-database exports: identifier, name,
type, mode, meter and a bare ABC body per entry).  Every ingested entry
becomes exactly one TuneRecord; tunes the normalizer rejects are kept
with their error rather than dropped, so accepted + rejected always
equals the number of entries ingested.

Statistics of record use the LZ77 ratio.  Aggregation folds reports in
id order, so results do not depend on how the per-tune work was
scheduled.
"""

from __future__ import annotations

import csv
import io
import json
from enum import Enum
from fractions import Fraction
from pathlib import Path

from ._value import FrozenValue, Value, excerpt
from .baseline import BaselineCurve, mean_and_spread, normalize_ratio
from .lz import Algorithm, compress_lz77, compression_ratio, token_count
from .notation import (
    AbcTune,
    Category,
    ErrorKind,
    NormalizationError,
    QuaverSequence,
    normalize,
    parse_abc,
)

DEFAULT_BINS = 20
_ID_KEYS = ("setting_id", "tune_id")  # dump identifier, first present wins


class IngestError(ValueError):
    """A corpus input file that cannot be read or has the wrong shape."""


class EmptyCategoryError(ValueError):
    """Aggregation requested for a category with no reports."""


class TuneRecord(Value):
    __slots__ = __match_args__ = ("id", "name", "category", "key", "abc", "outcome")

    def __init__(self, id: str, name: str, category: Category, key: str, abc: str,
                 outcome: QuaverSequence | NormalizationError):
        self.id = id
        self.name = name
        self.category = category
        self.key = key
        self.abc = abc
        self.outcome = outcome

    @property
    def accepted(self) -> bool:
        return isinstance(self.outcome, QuaverSequence)


class ComplexityReport(FrozenValue):
    __slots__ = __match_args__ = (
        "id", "name", "category", "length", "lz77_tokens", "lz78_tokens",
        "ratio_lz77", "ratio_lz78", "normalized_ratio")

    def __init__(self, id: str, name: str, category: Category, length: int,
                 lz77_tokens: int, lz78_tokens: int, ratio_lz77: Fraction,
                 ratio_lz78: Fraction, normalized_ratio: float | None = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "lz77_tokens", lz77_tokens)
        object.__setattr__(self, "lz78_tokens", lz78_tokens)
        object.__setattr__(self, "ratio_lz77", ratio_lz77)
        object.__setattr__(self, "ratio_lz78", ratio_lz78)
        object.__setattr__(self, "normalized_ratio", normalized_ratio)


class HistogramSpec(FrozenValue):
    __slots__ = __match_args__ = ("bin_count", "lower", "upper", "counts")

    def __init__(self, bin_count: int, lower: float, upper: float, counts: tuple[int, ...]):
        object.__setattr__(self, "bin_count", bin_count)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "counts", counts)


class CorpusStats(FrozenValue):
    __slots__ = __match_args__ = (
        "category", "count", "mean_ratio", "std_dev", "min", "max", "histogram", "degenerate")

    def __init__(self, category: Category, count: int, mean_ratio: float, std_dev: float,
                 min: tuple[str, Fraction], max: tuple[str, Fraction],
                 histogram: HistogramSpec, degenerate: bool = False):
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "mean_ratio", mean_ratio)
        object.__setattr__(self, "std_dev", std_dev)
        object.__setattr__(self, "min", min)
        object.__setattr__(self, "max", max)
        object.__setattr__(self, "histogram", histogram)
        object.__setattr__(self, "degenerate", degenerate)


class Order(Enum):
    EASIEST_FIRST = "easiest"
    HARDEST_FIRST = "hardest"


def category_from_type(type_name: str) -> Category:
    lowered = type_name.strip().lower()
    if lowered == "reel":
        return Category.REEL
    if lowered == "jig":
        return Category.JIG
    return Category.OTHER


# ------------------------------------------------------------------ ingest


def ingest_json_dump(path: str | Path) -> list[TuneRecord]:
    """Load a JSON dump and run the normalizer on every entry.

    Each entry must carry an identifier (``setting_id``, else
    ``tune_id``), a ``name``, a ``type`` and an ``abc`` body; ``meter``
    and ``mode`` are used when present (meter otherwise defaults by
    type).  ``name``, ``type`` and ``mode`` are taken as given, line
    breaks included.  Unknown fields are ignored.  A file that is not a
    JSON array of such objects raises IngestError; problems with an
    individual tune land in that record's outcome, including an ``abc``
    body that holds more than one tune (MALFORMED_HEADER).
    """
    path = Path(path)
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read dump {path}: {exc}") from exc
    # ValueError also covers a number past Python's int/str digit limit,
    # and RecursionError nesting deeper than the interpreter's stack
    except (ValueError, RecursionError) as exc:
        raise IngestError(f"dump {path} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list):
        raise IngestError(f"dump {path} is not a JSON array")

    records = []
    for n, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise IngestError(f"dump {path} entry {n} is not an object")
        tune_id = next(
            (str(entry[k]) for k in _ID_KEYS if entry.get(k) not in (None, "")), None
        )
        if tune_id is None or not all(k in entry for k in ("name", "type", "abc")):
            raise IngestError(f"dump {path} entry {n} lacks one of id/name/type/abc")
        category = category_from_type(str(entry["type"]))
        meter = str(entry.get("meter") or _default_meter(category)).rstrip()
        mode = str(entry.get("mode") or "C")
        body = str(entry["abc"])
        outcome: QuaverSequence | NormalizationError
        try:
            if len(meter.splitlines()) > 1:  # it would end the M: line early
                raise NormalizationError(
                    ErrorKind.MALFORMED_HEADER, f"unusable meter {excerpt(meter)}")
            # name, type and mode stay on the record: the block needs only the meter
            tunes = parse_abc(f"X: 1\nM: {meter}\nK:\n{body}\n")
            if len(tunes) != 1:
                raise NormalizationError(
                    ErrorKind.MALFORMED_HEADER,
                    f"abc body holds {len(tunes)} tunes (an X: line starts a new one); "
                    "a dump entry must hold exactly one",
                )
            outcome = normalize(tunes[0])
        except NormalizationError as err:
            outcome = err
        records.append(
            TuneRecord(
                id=tune_id,
                name=str(entry["name"]),
                category=category,
                key=mode,
                abc=body,
                outcome=outcome,
            )
        )
    return records


def _default_meter(category: Category) -> str:
    return "6/8" if category is Category.JIG else "4/4"


def records_from_abc(source: str, origin: str = "-") -> list[TuneRecord]:
    """One record per tune block in ABC text; ids are ``<origin>:<X number>``.

    Category comes from the R: header when present, otherwise from the
    normalized meter and length (OTHER for rejected tunes).
    """
    return [
        _record_from_tune(tune, f"{origin}:{tune.reference_number}")
        for tune in parse_abc(source)
    ]


def ingest_abc_files(paths: list[str | Path]) -> list[TuneRecord]:
    """Parse one or more ABC files into records, one per tune block."""
    records = []
    for path in paths:
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise IngestError(f"cannot read ABC file {path}: {exc}") from exc
        try:
            records.extend(records_from_abc(source, path.stem))
        except NormalizationError as exc:
            raise IngestError(f"ABC file {path}: {exc}") from exc
    return records


def _record_from_tune(tune: AbcTune, record_id: str) -> TuneRecord:
    outcome: QuaverSequence | NormalizationError
    try:
        outcome = normalize(tune)
    except NormalizationError as err:
        outcome = err
    if tune.rhythm:
        category = category_from_type(tune.rhythm)
    elif isinstance(outcome, QuaverSequence):
        category = outcome.category
    else:
        category = Category.OTHER
    return TuneRecord(
        id=record_id,
        name=tune.title,
        category=category,
        key=tune.key,
        abc=tune.body,
        outcome=outcome,
    )


# ----------------------------------------------------------------- analysis


def analyze(
    records: list[TuneRecord],
    curve: BaselineCurve | None = None,
    reference_length: int | None = None,
) -> list[ComplexityReport]:
    """Compress every accepted record with both coders.

    When ``curve`` and ``reference_length`` are given, each report also
    carries its ratio rescaled to the reference length.  Rejected
    records yield no report (their errors stay on the records).
    """
    if (curve is None) != (reference_length is None):
        raise ValueError("length normalization needs both a curve and a reference length")
    reports = []
    for record in records:
        if not record.accepted:
            continue
        symbols = record.outcome.symbols
        stream_77 = compress_lz77(symbols)
        lz78_tokens = token_count(symbols, Algorithm.LZ78)
        ratio_77 = compression_ratio(stream_77)
        normalized = None
        if curve is not None:
            normalized = normalize_ratio(
                float(ratio_77), len(symbols), reference_length, curve
            )
        reports.append(
            ComplexityReport(
                id=record.id,
                name=record.name,
                category=record.category,
                length=len(symbols),
                lz77_tokens=len(stream_77.tokens),
                lz78_tokens=lz78_tokens,
                ratio_lz77=ratio_77,
                ratio_lz78=Fraction(len(symbols), lz78_tokens),
                normalized_ratio=normalized,
            )
        )
    return reports


def rejection_summary(records: list[TuneRecord]) -> dict[str, int]:
    """Count rejected records per error kind."""
    counts: dict[str, int] = {}
    for record in records:
        if not record.accepted:
            kind = record.outcome.kind.value
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def build_histogram(values: list[float], bin_count: int = DEFAULT_BINS) -> HistogramSpec:
    """Equal-width bins over [min, max]; the maximum lands in the last bin.

    Constant data gets a unit-width range starting at the single value,
    so every count sits in the first bin.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    if not values:
        raise ValueError("histogram needs at least one value")
    lower = min(values)
    upper = max(values)
    if upper == lower:
        upper = lower + 1.0
    width = (upper - lower) / bin_count
    counts = [0] * bin_count
    for value in values:
        index = min(int((value - lower) / width), bin_count - 1)
        counts[index] += 1
    return HistogramSpec(bin_count, lower, upper, tuple(counts))


def aggregate(
    reports: list[ComplexityReport],
    category: Category,
    bin_count: int = DEFAULT_BINS,
) -> CorpusStats:
    """Mean, spread, extremes and histogram of a category's LZ77 ratios.

    Standard deviation uses the sample (n-1) convention; a single-report
    category gets std 0 and the ``degenerate`` flag.  The extremes are
    the reports ``rank`` would put first in each order, so ties break
    by name then id.
    """
    selected = sorted(
        (r for r in reports if r.category is category),
        key=lambda r: r.id,
    )
    if not selected:
        raise EmptyCategoryError(f"no reports in category {category.value!r}")
    ratios = [float(r.ratio_lz77) for r in selected]
    mean, std = mean_and_spread(ratios)
    low = min(selected, key=_rank_key(Order.HARDEST_FIRST))
    high = min(selected, key=_rank_key(Order.EASIEST_FIRST))
    return CorpusStats(
        category=category,
        count=len(selected),
        mean_ratio=mean,
        std_dev=std,
        min=(low.id, low.ratio_lz77),
        max=(high.id, high.ratio_lz77),
        histogram=build_histogram(ratios, bin_count),
        degenerate=len(selected) == 1,
    )


def rank(reports: list[ComplexityReport], order: Order = Order.EASIEST_FIRST) -> list[ComplexityReport]:
    """Sort by repetitiveness: easiest first means highest ratio first.

    Ties break by ascending name then id, in both orders.
    """
    return sorted(reports, key=_rank_key(order))


def _rank_key(order: Order):
    if order is Order.EASIEST_FIRST:
        return lambda r: (-r.ratio_lz77, r.name, r.id)
    return lambda r: (r.ratio_lz77, r.name, r.id)


# ------------------------------------------------------------------ exports


def reports_to_csv(reports: list[ComplexityReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["id", "name", "category", "length", "lz77_tokens", "lz78_tokens",
         "ratio_lz77", "ratio_lz78", "normalized_ratio"]
    )
    for r in reports:
        writer.writerow(
            [
                r.id,
                r.name,
                r.category.value,
                r.length,
                r.lz77_tokens,
                r.lz78_tokens,
                f"{float(r.ratio_lz77):.6f}",
                f"{float(r.ratio_lz78):.6f}",
                "" if r.normalized_ratio is None else f"{r.normalized_ratio:.6f}",
            ]
        )
    return out.getvalue()


def report_to_dict(report: ComplexityReport) -> dict:
    return {
        "id": report.id,
        "name": report.name,
        "category": report.category.value,
        "length": report.length,
        "lz77_tokens": report.lz77_tokens,
        "lz78_tokens": report.lz78_tokens,
        "ratio_lz77": float(report.ratio_lz77),
        "ratio_lz78": float(report.ratio_lz78),
        "normalized_ratio": report.normalized_ratio,
    }


def stats_to_dict(stats: CorpusStats) -> dict:
    return {
        "category": stats.category.value,
        "count": stats.count,
        "mean_ratio": stats.mean_ratio,
        "std_dev": stats.std_dev,
        "min": {"id": stats.min[0], "ratio": float(stats.min[1])},
        "max": {"id": stats.max[0], "ratio": float(stats.max[1])},
        "degenerate": stats.degenerate,
        "histogram": {
            "bin_count": stats.histogram.bin_count,
            "lower": stats.histogram.lower,
            "upper": stats.histogram.upper,
            "counts": list(stats.histogram.counts),
        },
    }


def histogram_to_csv(hist: HistogramSpec) -> str:
    width = (hist.upper - hist.lower) / hist.bin_count
    lines = ["bin_lower,bin_upper,count"]
    for i, count in enumerate(hist.counts):
        lines.append(
            f"{hist.lower + i * width:.6f},{hist.lower + (i + 1) * width:.6f},{count}"
        )
    return "\n".join(lines) + "\n"


def histogram_to_text(hist: HistogramSpec, width: int = 40) -> str:
    """Terminal bar rendering, one line per bin."""
    peak = max(hist.counts) or 1
    bin_width = (hist.upper - hist.lower) / hist.bin_count
    lines = []
    for i, count in enumerate(hist.counts):
        lo = hist.lower + i * bin_width
        hi = hist.lower + (i + 1) * bin_width
        bar = "#" * round(count / peak * width)
        lines.append(f"{lo:8.4f}-{hi:8.4f} |{bar} {count}")
    return "\n".join(lines) + "\n"
