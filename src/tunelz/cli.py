"""Command-line front end: tunelz <subcommand> [flags] [paths...].

Machine-readable output goes to stdout, diagnostics to stderr.  Each
command returns the records it read and its stdout text, and ``main``
alone writes: stdout once, then one stderr line per rejected tune (exit
1), or in place of both one error line (exit 2, as for a usage error);
else exit 0.  Every subcommand is a pure function of its arguments,
input files and seed, so repeated runs produce byte-identical output.
"""

import argparse
import contextlib
import json
import sys

from . import baseline as bl
from . import corpus as cp
from . import lz
from ._value import excerpt, integer, plain, read_stdin, read_text, write_text

PROG = "tunelz"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage error is its usage lines, then argparse's
    message cut once through ``excerpt``, all written through ``_warn``;
    subparsers are of this class too."""

    def error(self, message):
        _warn(*self.format_usage().splitlines(), f"{self.prog}: error: {excerpt(message, str)}")
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Estimate the complexity of monophonic dance tunes "
                    "with Lempel-Ziv token coders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags of the commands that read tune collections, declared once
    tunes = argparse.ArgumentParser(add_help=False)
    tunes.add_argument("--dump", help="JSON dump instead of ABC paths")
    tunes.add_argument("paths", nargs="*")
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--baseline", dest="baseline_path", help="baseline curve JSON")
    curve.add_argument("--normalize-to", type=integer, dest="normalize_to",
                       help="reference length for normalized ratios")
    # the formats of the commands that print one row per tune
    reports = argparse.ArgumentParser(add_help=False)
    reports.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("normalize", help="flatten ABC tunes onto the quaver grid")
    p.set_defaults(run=cmd_normalize)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("paths", nargs="+")

    p = sub.add_parser("compress", help="tokenize a tune or raw symbol sequence")
    p.set_defaults(run=cmd_compress)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--algo", choices=[a.value for a in lz.Algorithm], default="lz77")
    p.add_argument("--index-base", type=integer, choices=(0, 1), default=0,
                   help="display base for back-reference positions")
    p.add_argument("path", help="ABC file, raw symbol file, or - for stdin")

    p = sub.add_parser("decompress", help="rebuild the symbol sequence of a token stream")
    p.set_defaults(run=cmd_decompress)
    p.add_argument("--index-base", type=integer, choices=(0, 1), default=0)
    p.add_argument("path", help="token stream file (text or JSON), or - for stdin")

    p = sub.add_parser("analyze", parents=[reports, tunes, curve],
                       help="per-tune token counts and ratios")
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("corpus", parents=[tunes, curve],
                       help="aggregate statistics over a tune collection")
    p.set_defaults(run=cmd_corpus)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--category", default="all",
                   choices=[c.value for c in cp.Category] + ["all"])
    p.add_argument("--bins", type=integer, default=cp.DEFAULT_BINS)
    p.add_argument("--hist-out", dest="hist_out", help="write histogram CSV to a file")

    p = sub.add_parser("baseline", help="sample random-string compression ratios")
    p.set_defaults(run=cmd_baseline)
    p.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    p.add_argument("--lengths", required=True,
                   help="comma-separated string lengths, e.g. 96,128")
    p.add_argument("--alphabet", type=integer, default=bl.DEFAULT_ALPHABET_SIZE)
    p.add_argument("--samples", type=integer, default=bl.DEFAULT_SAMPLES)
    p.add_argument("--algo", choices=[a.value for a in lz.Algorithm], default="lz77")
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out", help="write the full curve as JSON to a file")

    p = sub.add_parser("rank", parents=[reports, tunes],
                       help="order tunes from most to least repetitive")
    p.set_defaults(run=cmd_rank)
    p.add_argument("--order", choices=[o.value for o in cp.Order], default="easiest")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        records, out = args.run(args)
        # each character UTF-8 cannot encode, a lone surrogate as a dump's "\ud800"
        # reads, as repr writes it: no locale fails the write or gets a byte not UTF-8
        sys.stdout.write(out.encode("utf-8", "backslashreplace").decode("utf-8"))
    except (OSError, ValueError) as exc:
        _warn(f"{PROG}: error: {exc}")
        return 2
    rejected = [r for r in records if not r.accepted]
    _warn(*[f"{PROG}: rejected {excerpt(r.id, str)} ({excerpt(r.name, str)}): {r.outcome}"
            for r in rejected])
    return 1 if rejected else 0


def _warn(*lines: str) -> None:
    """Write each line to stderr through ``_one_line``, so that it stays one line."""
    with contextlib.suppress(OSError):  # as argparse, so a closed stderr keeps the exit code
        sys.stderr.write("".join([f"{_one_line(line)}\n" for line in lines]))


def _one_line(text: str) -> str:
    """``text`` with every character that ``str.isprintable`` refuses, a line break
    or a tab among them, escaped as ``repr`` writes it: one line, one column."""
    if text.isprintable():
        return text
    return "".join([c if c.isprintable() else repr(c)[1:-1] for c in text])


# ----------------------------------------------------------------- commands


def _read_input(path: str) -> str:
    return read_stdin(sys.stdin.buffer, "input") if path == "-" else read_text(path, "input")


def _load_records(args) -> list[cp.TuneRecord]:
    if args.dump:
        if args.paths:
            raise cp.IngestError("give either --dump or ABC paths, not both")
        return cp.ingest_json_dump(args.dump)
    if not args.paths:
        raise cp.IngestError("no input: give ABC paths or --dump")
    return cp.ingest_abc_files(args.paths)


def _analyze(args, records: list[cp.TuneRecord], *, lz78: bool = True) -> list[cp.ComplexityReport]:
    """``cp.analyze`` under the curve flags; every fault of the curve names its file."""
    path, reference = args.baseline_path, args.normalize_to
    if (path is None) != (reference is None):
        raise cp.IngestError("--baseline and --normalize-to go together")
    if path is None:
        return cp.analyze(records, lz78=lz78)
    text = read_text(path, "baseline curve")
    try:
        curve = bl.curve_from_json(text)
    except ValueError as exc:  # each message starts "baseline curve": the path goes after it
        detail = str(exc).removeprefix("baseline curve")
        raise cp.IngestError(f"baseline curve {path}{detail}") from exc
    try:
        return cp.analyze(records, curve, reference, lz78=lz78)
    except ValueError as exc:
        raise cp.IngestError(f"baseline curve {path} is not usable: {exc}") from exc


def _json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def _lines(lines) -> str:
    return "".join([f"{line}\n" for line in lines])


def cmd_normalize(args) -> tuple[list[cp.TuneRecord], str]:
    records = cp.ingest_abc_files(args.paths)
    accepted = [r for r in records if r.accepted]
    if args.format == "json":
        return records, _json([{"id": r.id, "name": r.name, "category": r.category.value,
                                "length": len(r.outcome.symbols), "symbols": r.outcome.symbols}
                               for r in accepted])
    return records, _lines(f"{_one_line(r.id)}\t{r.category.value}\t"
                           f"{len(r.outcome.symbols)}\t{r.outcome.symbols}" for r in accepted)


def _sequences_for_compression(args) -> tuple[list[str], list[cp.TuneRecord]]:
    """Symbol sequences of an ABC file and its records, or of raw letters
    and no records when it has no tune."""
    text = _read_input(args.path)
    records = cp.records_from_abc_file(text, args.path)
    if records:
        return [r.outcome.symbols for r in records if r.accepted], records
    bad = next((i for i, ch in enumerate(text) if not (lz.is_symbol(ch) or ch.isspace())), None)
    if bad is not None:
        raise ValueError(f"raw symbol {text[bad]!r} at offset {bad} is not a letter")
    symbols = "".join(text.split())
    if len(symbols) > lz.MAX_STREAM_SYMBOLS:
        raise ValueError(f"raw input {args.path} holds {len(symbols)} symbols, "
                         f"more than the ceiling of {lz.MAX_STREAM_SYMBOLS}")
    return [symbols], []


def cmd_compress(args) -> tuple[list[cp.TuneRecord], str]:
    sequences, records = _sequences_for_compression(args)
    algorithm = lz.Algorithm(args.algo)
    outputs = []
    for symbols in sequences:
        stream = lz.compress(symbols, algorithm)
        if args.format == "json":
            outputs.append(lz.stream_to_json(stream))
        else:
            block = lz.stream_to_text(stream, index_base=args.index_base)
            if stream.tokens:
                ratio = lz.compression_ratio(stream)
                block += (f"\nratio {stream.source_length}/{len(stream.tokens)}"
                          f" ≈ {float(ratio):.2f}")
            outputs.append(block)
    return records, "\n\n".join(outputs) + "\n" if outputs else ""


def cmd_decompress(args) -> tuple[list[cp.TuneRecord], str]:
    text = _read_input(args.path)
    head = text.lstrip()[:2]
    try:
        # a text stream's "[" always opens a back-reference, "[i,j]", digits first
        if head[:1] == "{" or head[:1] == "[" and not head[1:].isdigit():
            stream = lz.stream_from_json(text)
        else:
            stream = lz.stream_from_text(text, index_base=args.index_base)
        symbols = lz.decompress(stream)
    except lz.CorruptStream as exc:
        # the path goes last, so each message still starts with what went wrong
        raise lz.CorruptStream(f"{exc} (token stream {args.path})") from exc
    return [], f"{symbols}\n"


def _reports_text(reports: list[cp.ComplexityReport], fmt: str) -> str:
    return _json(plain(reports)) if fmt == "json" else cp.reports_to_csv(reports)


def cmd_analyze(args) -> tuple[list[cp.TuneRecord], str]:
    records = _load_records(args)
    reports = _analyze(args, records)
    if args.format != "text":
        return records, _reports_text(reports, args.format)
    return records, _lines(
        f"{_one_line(r.id)}\t{_one_line(r.name)}\t{r.category.value}\t{r.length}\t"
        f"lz77 {r.lz77_tokens}\tlz78 {r.lz78_tokens}\tratio {float(r.ratio_lz77):.4f}"
        + ("" if r.normalized_ratio is None else f"\tnorm {r.normalized_ratio:.4f}")
        for r in reports)


def _selected_categories(args, reports) -> list[cp.Category]:
    if args.category != "all":
        return [cp.Category(args.category)]
    present = {r.category for r in reports}
    return [c for c in cp.Category if c in present]


def cmd_corpus(args) -> tuple[list[cp.TuneRecord], str]:
    records = _load_records(args)
    reports = _analyze(args, records, lz78=False)
    stats_list = [cp.aggregate(reports, c, args.bins)
                  for c in _selected_categories(args, reports)]
    if args.hist_out:
        if len(stats_list) != 1:
            raise cp.IngestError("--hist-out needs exactly one category")
        write_text(args.hist_out, "histogram", cp.histogram_to_csv(stats_list[0].histogram))
    if args.format == "json":
        return records, _json(plain(stats_list))
    out = []
    for stats in stats_list:
        flag = "  (single tune: spread not meaningful)" if stats.degenerate else ""
        out += [f"{stats.category.value}: {stats.count} tunes{flag}\n",
                f"  mean ratio {stats.mean_ratio:.4f}  std dev {stats.std_dev:.4f}\n",
                f"  min {float(stats.min.ratio):.4f}  {_one_line(stats.min.id)}\n",
                f"  max {float(stats.max.ratio):.4f}  {_one_line(stats.max.id)}\n",
                cp.histogram_to_text(stats.histogram)]
    return records, "".join(out)


def cmd_baseline(args) -> tuple[list[cp.TuneRecord], str]:
    try:
        lengths = [integer(part) for part in map(str.strip, args.lengths.split(",")) if part]
    except ValueError:
        raise ValueError("--lengths wants comma-separated integers, "
                         f"got {excerpt(args.lengths)}") from None
    curve = bl.estimate_baseline(
        lengths,
        alphabet_size=args.alphabet,
        samples=args.samples,
        seed=args.seed,
        algorithm=lz.Algorithm(args.algo),
    )
    if args.out:
        write_text(args.out, "baseline curve", bl.curve_to_json(curve))
    if args.format == "json":
        return [], bl.curve_to_json(curve) + "\n"
    if args.format == "text":
        return [], _lines(f"length {p.length}: mean {p.mean_ratio:.4f}  std {p.std_dev:.4f}"
                          for p in curve.points)
    return [], bl.curve_to_csv(curve)


def cmd_rank(args) -> tuple[list[cp.TuneRecord], str]:
    records = _load_records(args)
    # the text ranking prints only the LZ77 ratio
    reports = cp.analyze(records, lz78=args.format != "text")
    ranked = cp.rank(reports, cp.Order(args.order))
    if args.format != "text":
        return records, _reports_text(ranked, args.format)
    return records, _lines(f"{place}\t{_one_line(r.id)}\t{_one_line(r.name)}\t"
                           f"{float(r.ratio_lz77):.4f}" for place, r in enumerate(ranked, start=1))


if __name__ == "__main__":
    raise SystemExit(main())
