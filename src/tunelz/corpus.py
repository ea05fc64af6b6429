"""Corpus ingestion, per-tune analysis and aggregate statistics.

Tunes arrive either as ABC files or as a JSON dump (an array of objects
in the style of the public tune-database exports: identifier, name,
type, mode, meter and a bare ABC body per entry).  Every ingested entry
becomes exactly one TuneRecord; tunes the normalizer rejects are kept
with their error rather than dropped, so accepted + rejected always
equals the number of entries ingested.

Statistics of record use the LZ77 ratio, normalized to one length when
the reports carry a curve's rescaling.  Aggregate statistics do not
depend on the order of the reports: sums are exact and ties between
extremes break by name then id.
"""

import csv
import io
import os
from enum import Enum
from fractions import Fraction
from operator import attrgetter

from ._value import (OBJECT, STRING, IngestError, Value, excerpt, field, item,
                     load_json, plain, read_text)
from .baseline import BaselineCurve, baseline_at, mean_and_spread, normalize_ratio
from .lz import Algorithm, compress_lz77, compression_ratio, token_count
from .notation import (
    _COMMENT_RE,
    AbcTune,
    Category,
    ErrorKind,
    NormalizationError,
    QuaverSequence,
    category_from_type,
    normalize,
    parse_abc,
)

DEFAULT_BINS = 20
# Most histogram bins: each costs about 100 bytes of output, so a short
# --bins must not ask for megabytes
MAX_BINS = 10_000
# Characters in the text histogram's longest bar
BAR_WIDTH = 40
_ID_KEYS = ("setting_id", "tune_id")  # dump identifier, first present wins
_ID = ("a string or a JSON integer", (str, int))
_OPTIONAL_STRING = ("a string or null", (str, type(None)))


class EmptyCategoryError(ValueError):
    """Aggregation requested for a category with no reports."""


class TuneRecord(Value):
    __slots__ = ("id", "name", "category", "key", "abc", "outcome")

    @property
    def accepted(self) -> bool:
        return isinstance(self.outcome, QuaverSequence)


class ComplexityReport(Value, defaults=(None,)):
    """One accepted tune's token counts and ratios.  ``lz78_tokens`` and
    ``ratio_lz78`` are ``None`` when ``analyze`` did not count LZ78, and
    ``normalized_ratio`` is ``None`` without a curve."""

    __slots__ = (
        "id", "name", "category", "length", "lz77_tokens", "lz78_tokens",
        "ratio_lz77", "ratio_lz78", "normalized_ratio")


class HistogramSpec(Value):
    __slots__ = ("bin_count", "lower", "upper", "counts")


class Extreme(Value):
    """The report at one end of a category's ratios: its id and that ratio."""

    __slots__ = ("id", "ratio")


class CorpusStats(Value, defaults=(False,)):
    __slots__ = (
        "category", "count", "mean_ratio", "std_dev", "min", "max", "histogram", "degenerate")


class Order(Enum):
    EASIEST_FIRST = "easiest"
    HARDEST_FIRST = "hardest"


# ------------------------------------------------------------------ ingest


def ingest_json_dump(path: str | os.PathLike) -> list[TuneRecord]:
    """Load a JSON dump and run the normalizer on every entry.

    Each entry must carry an identifier (``setting_id``, else
    ``tune_id``; a string or an integer), a ``name``, a ``type`` and an
    ``abc`` body, all strings; ``meter`` and ``mode`` are used when they
    are non-empty strings (meter otherwise defaults by type) and may be
    null.  ``name``, ``type`` and ``mode`` are taken as given, line
    breaks included.  Unknown fields are ignored.  A file that is not a
    JSON array of such objects raises IngestError; problems with an
    individual tune land in that record's outcome, including an ``abc``
    body that holds more than one tune (MALFORMED_HEADER).
    """
    what = f"dump {path}"
    text = read_text(path, "dump")
    try:
        return [_dump_record(entry, f"{what} entry {n}")
                for n, entry in enumerate(load_json(text, what, list))]
    except ValueError as exc:
        raise IngestError(str(exc)) from exc


def _dump_record(entry, what: str) -> TuneRecord:
    """A dump entry's record, as ingest_json_dump says, its fields checked in one fixed order."""
    item(entry, OBJECT, what)
    id_key = next((k for k in _ID_KEYS if entry.get(k) not in (None, "")), None)
    if id_key is None:
        raise ValueError(f"{what} lacks field {' or '.join(map(repr, _ID_KEYS))}")
    category = category_from_type(field(entry, "type", STRING, what))
    meter = (field(entry, "meter", _OPTIONAL_STRING, what, None) or "").rstrip()
    record_id = str(field(entry, id_key, _ID, what))
    name = field(entry, "name", STRING, what)
    key = field(entry, "mode", _OPTIONAL_STRING, what, None) or "C"
    body = field(entry, "abc", STRING, what)
    return TuneRecord(record_id, name, category, key, body, _entry_outcome(meter, category, body))


def _entry_outcome(meter: str, category: Category, body: str) -> QuaverSequence | NormalizationError:
    # name and mode stay on the record; a meter blank once its comment is blanked
    # (null and "" too) is left to parse_abc, which reads the tune in its category's meter
    if not _COMMENT_RE.sub("", meter).strip():
        header = f"X: 1\nR: {category.value}\nK:\n"
    elif len(meter.splitlines()) > 1:  # it would end the M: line early
        return NormalizationError(ErrorKind.MALFORMED_HEADER, f"unusable meter {excerpt(meter)}")
    else:
        header = f"X: 1\nM: {meter}\nK:\n"
    try:
        tunes = parse_abc(f"{header}{body}\n")
    except NormalizationError as err:
        # offsets count from the block's start: move them into the body,
        # and an error on a header line written here to 0
        return NormalizationError(err.kind, err.detail, max(err.location - len(header), 0))
    if len(tunes) != 1:
        return NormalizationError(ErrorKind.MALFORMED_HEADER, f"abc body holds {len(tunes)} tunes "
                                  "(an X: line starts a new one); a dump entry must hold exactly one")
    return _outcome(tunes[0])


def stem(path: str | os.PathLike) -> str:
    """``PurePath(path).stem``: the base name cut at a last dot that is not its first or last."""
    head, dot, tail = os.path.basename(path).rpartition(".")
    return head if head and tail else head + dot + tail


def records_from_abc(source: str, origin: str = "-") -> list[TuneRecord]:
    """One record per tune block in ABC text; ids are ``<origin>:<X number>``.

    Category comes from the R: header when present, otherwise from the
    normalized meter and length (OTHER for rejected tunes).
    """
    return [
        _record_from_tune(tune, f"{origin}:{tune.reference_number}")
        for tune in parse_abc(source)
    ]


def ingest_abc_files(paths: list[str | os.PathLike]) -> list[TuneRecord]:
    """Parse one or more ABC files into records, one per tune block."""
    records = []
    for path in paths:
        records.extend(records_from_abc_file(read_text(path, "ABC file"), path))
    return records


def records_from_abc_file(source: str, path: str | os.PathLike) -> list[TuneRecord]:
    """``records_from_abc`` of the text read from ``path``; IngestError names the file."""
    try:
        return records_from_abc(source, stem(path))
    except NormalizationError as exc:
        raise IngestError(f"ABC file {path}: {exc}") from exc


def _outcome(tune: AbcTune) -> QuaverSequence | NormalizationError:
    """``normalize(tune)``, or the NormalizationError it raised without its traceback,
    whose frames would keep the input, a whole dump even, alive with the record."""
    try:
        return normalize(tune)
    except NormalizationError as err:
        return err.with_traceback(None)


def _record_from_tune(tune: AbcTune, record_id: str) -> TuneRecord:
    outcome = _outcome(tune)
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
    *,
    lz78: bool = True,
) -> list[ComplexityReport]:
    """Compress every accepted record with LZ77, and count its LZ78 phrases
    unless ``lz78`` is false, which leaves both LZ78 fields ``None``.

    When ``curve`` and ``reference_length`` are given, each report also
    carries its LZ77 ratio rescaled to the reference length, so the curve
    must hold LZ77 ratios.  Rejected records yield no report (their
    errors stay on the records).

    Raises ValueError when only one of ``curve`` and ``reference_length``
    is given, or when the curve holds LZ78 ratios; CurveRangeError, a
    ValueError, when the reference length, even with no record accepted,
    or an accepted tune's length lies outside the curve's sampled span.
    """
    if (curve is None) != (reference_length is None):
        raise ValueError("length normalization needs both a curve and a reference length")
    if curve is not None and curve.algorithm is not Algorithm.LZ77:
        raise ValueError(f"length normalization needs an lz77 baseline curve, "
                         f"not {curve.algorithm.value}")
    if curve is not None:  # so a reference outside the span fails with no tune accepted too
        baseline_at(curve, reference_length)
    reports = []
    for record in records:
        if not record.accepted:
            continue
        symbols = record.outcome.symbols
        stream_77 = compress_lz77(symbols)
        lz78_tokens = ratio_78 = None
        if lz78:
            lz78_tokens = token_count(symbols, Algorithm.LZ78)
            ratio_78 = Fraction(len(symbols), lz78_tokens)
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
                ratio_lz78=ratio_78,
                normalized_ratio=normalized,
            )
        )
    return reports


def build_histogram(values: list[float], bin_count: int = DEFAULT_BINS) -> HistogramSpec:
    """Equal-width bins over [min, max]; the maximum lands in the last bin.

    Constant data gets a unit-width range starting at the single value,
    so every count sits in the first bin.  ``bin_count`` outside
    1..``MAX_BINS`` raises ValueError.
    """
    if not 1 <= bin_count <= MAX_BINS:
        raise ValueError(f"bin_count must be in 1..{MAX_BINS}")
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
    """Mean, spread, extremes and histogram of a category's LZ77 ratios:
    the normalized ones when every report of the category carries one,
    so that categories of different lengths compare at one length, else
    the raw ones.

    Standard deviation uses the sample (n-1) convention; a single-report
    category gets std 0 and the ``degenerate`` flag.  The extremes are
    the reports ``rank`` would put first in each order by that ratio, so
    ties break by name then id.
    """
    selected = [r for r in reports if r.category is category]
    if not selected:
        raise EmptyCategoryError(f"no reports in category {category.value!r}")
    normalized = all(r.normalized_ratio is not None for r in selected)
    ratio = attrgetter("normalized_ratio" if normalized else "ratio_lz77")
    ratios = [float(ratio(r)) for r in selected]
    mean, std = mean_and_spread(ratios)
    low = min(selected, key=_rank_key(Order.HARDEST_FIRST, ratio))
    high = min(selected, key=_rank_key(Order.EASIEST_FIRST, ratio))
    return CorpusStats(
        category=category,
        count=len(selected),
        mean_ratio=mean,
        std_dev=std,
        min=Extreme(low.id, ratio(low)),
        max=Extreme(high.id, ratio(high)),
        histogram=build_histogram(ratios, bin_count),
        degenerate=len(selected) == 1,
    )


def rank(reports: list[ComplexityReport], order: Order = Order.EASIEST_FIRST) -> list[ComplexityReport]:
    """Sort by repetitiveness: easiest first means highest ratio first.

    Ties break by ascending name then id, in both orders.
    """
    return sorted(reports, key=_rank_key(order))


def _rank_key(order: Order, ratio=attrgetter("ratio_lz77")):
    if order is Order.EASIEST_FIRST:
        return lambda r: (-ratio(r), r.name, r.id)
    return lambda r: (ratio(r), r.name, r.id)


# ------------------------------------------------------------------ exports


def reports_to_csv(reports: list[ComplexityReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ComplexityReport.__slots__)
    # csv writes None, a report without a normalized ratio, as an empty field
    writer.writerows([f"{value:.6f}" if type(value) is float else value
                      for value in row.values()] for row in plain(reports))
    return out.getvalue()


def _bins(hist: HistogramSpec) -> list[tuple[float, float, int]]:
    """``(lower edge, upper edge, count)`` per bin."""
    width = (hist.upper - hist.lower) / hist.bin_count
    return [(hist.lower + i * width, hist.lower + (i + 1) * width, count)
            for i, count in enumerate(hist.counts)]


def histogram_to_csv(hist: HistogramSpec) -> str:
    lines = ["bin_lower,bin_upper,count"]
    lines += [f"{lo:.6f},{hi:.6f},{count}" for lo, hi, count in _bins(hist)]
    return "\n".join(lines) + "\n"


def histogram_to_text(hist: HistogramSpec) -> str:
    """Terminal bar rendering, one line per bin; the fullest bin's bar is
    ``BAR_WIDTH`` characters long."""
    peak = max(hist.counts) or 1
    lines = [f"{lo:8.4f}-{hi:8.4f} |{'#' * round(count / peak * BAR_WIDTH)} {count}"
             for lo, hi, count in _bins(hist)]
    return "\n".join(lines) + "\n"
