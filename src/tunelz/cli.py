"""Command-line front end: tunelz <subcommand> [flags] [paths...].

Machine-readable output goes to stdout, diagnostics to stderr.  Each
command returns the records it read, and ``main`` alone picks the exit
code: 0 all good, 1 some tunes were rejected (one stderr line each,
after the command's stdout), 2 fatal input or usage error (no rejection
lines).  Every subcommand is a pure function of its arguments, input
files and seed, so repeated runs produce byte-identical output.
"""

import argparse
import json
import sys

from . import baseline as bl
from . import corpus as cp
from . import lz
from ._value import excerpt, integer, plain, read_stdin, read_text, write_text

PROG = "tunelz"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors quote each argument through ``excerpt``.

    argparse quotes a refused value whole (an invalid integer or choice,
    an ambiguous option, unrecognized arguments), so each argument this
    parser read, and the value after an ``=`` in it, is excerpted
    wherever the message holds it.  Subparsers are of this class too.
    """

    _argv: tuple[str, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        self._argv = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(list(self._argv), namespace)

    def error(self, message):
        # longest first, so that a shorter argument cannot cut into a longer one's quote
        texts = {text for arg in self._argv for text in (arg, arg.partition("=")[2]) if text}
        for text in sorted(texts, key=len, reverse=True):
            message = message.replace(repr(text), excerpt(text)).replace(text, excerpt(text, str))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Estimate the complexity of monophonic dance tunes "
                    "with Lempel-Ziv token coders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # flags of the commands that read tune collections, declared once
    tunes = argparse.ArgumentParser(add_help=False)
    tunes.add_argument("--format", choices=("text", "json", "csv"), default="text")
    tunes.add_argument("--dump", help="JSON dump instead of ABC paths")
    tunes.add_argument("paths", nargs="*")
    curve = argparse.ArgumentParser(add_help=False)
    curve.add_argument("--baseline", dest="baseline_path", help="baseline curve JSON")
    curve.add_argument("--normalize-to", type=integer, dest="normalize_to",
                       help="reference length for normalized ratios")

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

    p = sub.add_parser("analyze", parents=[tunes, curve],
                       help="per-tune token counts and ratios")
    p.set_defaults(run=cmd_analyze)

    p = sub.add_parser("corpus", parents=[tunes, curve],
                       help="aggregate statistics over a tune collection")
    p.set_defaults(run=cmd_corpus)
    p.add_argument("--category", default="all",
                   choices=[c.value for _, c in cp.STANDARD_SHAPES.values()] + ["all"])
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

    p = sub.add_parser("rank", parents=[tunes],
                       help="order tunes from most to least repetitive")
    p.set_defaults(run=cmd_rank)
    p.add_argument("--order", choices=[o.value for o in cp.Order], default="easiest")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        records = args.run(args)
    except (OSError, ValueError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    rejected = [r for r in records if not r.accepted]
    for record in rejected:
        print(f"{PROG}: rejected {_one_line(record.id)} ({_one_line(record.name)}): "
              f"{record.outcome}", file=sys.stderr)
    return 1 if rejected else 0


def _one_line(text: str) -> str:
    """``text`` cut by ``excerpt``, with each character that ``str.isprintable``
    refuses (a line break among them) escaped as ``repr`` writes it."""
    return excerpt(text, lambda part: part if part.isprintable() else "".join(
        [c if c.isprintable() else repr(c)[1:-1] for c in part]))


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


def _analyze(args, records: list[cp.TuneRecord]) -> list[cp.ComplexityReport]:
    """``cp.analyze`` under the curve flags; every fault of the curve names its file."""
    path, reference = args.baseline_path, args.normalize_to
    if (path is None) != (reference is None):
        raise cp.IngestError("--baseline and --normalize-to go together")
    if path is None:
        return cp.analyze(records)
    text = read_text(path, "baseline curve")
    try:
        curve = bl.curve_from_json(text)
    except ValueError as exc:  # each message starts "baseline curve": the path goes after it
        detail = str(exc).removeprefix("baseline curve")
        raise cp.IngestError(f"baseline curve {path}{detail}") from exc
    try:
        return cp.analyze(records, curve, reference)
    except ValueError as exc:
        raise cp.IngestError(f"baseline curve {path} is not usable: {exc}") from exc


def cmd_normalize(args) -> list[cp.TuneRecord]:
    records = cp.ingest_abc_files(args.paths)
    accepted = [r for r in records if r.accepted]
    if args.format == "json":
        payload = [{"id": r.id, "name": r.name, "length": len(r.outcome.symbols),
                    **plain(r.outcome)} for r in accepted]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in accepted:
            print(f"{r.id}\t{r.outcome.category.value}\t"
                  f"{len(r.outcome.symbols)}\t{r.outcome.symbols}")
    return records


def _sequences_for_compression(args) -> tuple[list[str], list[cp.TuneRecord]]:
    """Symbol sequences of an ABC file and its records, or of raw letters
    and no records when it has no tune."""
    text = _read_input(args.path)
    records = cp.records_from_abc_file(text, args.path)
    if records:
        return [r.outcome.symbols for r in records if r.accepted], records
    bad = next((i for i, ch in enumerate(text) if not (ch.isalpha() or ch.isspace())), None)
    if bad is not None:
        raise ValueError(f"raw symbol {text[bad]!r} at offset {bad} is not a letter")
    symbols = "".join(text.split())
    if len(symbols) > lz.MAX_STREAM_SYMBOLS:
        raise ValueError(f"raw input {args.path} holds {len(symbols)} symbols, "
                         f"more than the ceiling of {lz.MAX_STREAM_SYMBOLS}")
    return [symbols], []


def cmd_compress(args) -> list[cp.TuneRecord]:
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
    if outputs:
        print("\n\n".join(outputs))
    return records


def cmd_decompress(args) -> list[cp.TuneRecord]:
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
    print(symbols)
    return []


def cmd_analyze(args) -> list[cp.TuneRecord]:
    records = _load_records(args)
    reports = _analyze(args, records)
    if args.format == "text":
        for r in reports:
            extra = "" if r.normalized_ratio is None else f"\tnorm {r.normalized_ratio:.4f}"
            print(f"{r.id}\t{r.name}\t{r.category.value}\t{r.length}\t"
                  f"lz77 {r.lz77_tokens}\tlz78 {r.lz78_tokens}\t"
                  f"ratio {float(r.ratio_lz77):.4f}{extra}")
    else:
        _print_reports(reports, args.format)
    return records


def _print_reports(reports: list[cp.ComplexityReport], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(plain(reports), indent=2, sort_keys=True))
    else:
        print(cp.reports_to_csv(reports), end="")


def _selected_categories(args, reports) -> list[cp.Category]:
    if args.category != "all":
        return [cp.Category(args.category)]
    present = {r.category for r in reports}
    return [c for c in cp.Category if c in present]


def cmd_corpus(args) -> list[cp.TuneRecord]:
    records = _load_records(args)
    reports = _analyze(args, records)
    stats_list = [cp.aggregate(reports, c, args.bins)
                  for c in _selected_categories(args, reports)]
    if args.hist_out:  # before any output, so that a failure leaves stdout empty
        if len(stats_list) != 1:
            raise cp.IngestError("--hist-out needs exactly one category")
        write_text(args.hist_out, "histogram", cp.histogram_to_csv(stats_list[0].histogram))
    if args.format == "json":
        print(json.dumps([cp.stats_to_dict(s) for s in stats_list],
                         indent=2, sort_keys=True))
    elif args.format == "csv":
        print(cp.reports_to_csv(reports), end="")
    else:
        for stats in stats_list:
            flag = "  (single tune: spread not meaningful)" if stats.degenerate else ""
            print(f"{stats.category.value}: {stats.count} tunes{flag}")
            print(f"  mean ratio {stats.mean_ratio:.4f}  std dev {stats.std_dev:.4f}")
            print(f"  min {float(stats.min[1]):.4f}  {stats.min[0]}")
            print(f"  max {float(stats.max[1]):.4f}  {stats.max[0]}")
            print(cp.histogram_to_text(stats.histogram), end="")
    return records


def cmd_baseline(args) -> list[cp.TuneRecord]:
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
        print(bl.curve_to_json(curve))
    elif args.format == "text":
        for p in curve.points:
            print(f"length {p.length}: mean {p.mean_ratio:.4f}  std {p.std_dev:.4f}")
    else:
        print(bl.curve_to_csv(curve), end="")
    return []


def cmd_rank(args) -> list[cp.TuneRecord]:
    records = _load_records(args)
    reports = cp.analyze(records)
    ranked = cp.rank(reports, cp.Order(args.order))
    if args.format == "text":
        for place, r in enumerate(ranked, start=1):
            print(f"{place}\t{r.id}\t{r.name}\t{float(r.ratio_lz77):.4f}")
    else:
        _print_reports(ranked, args.format)
    return records


if __name__ == "__main__":
    raise SystemExit(main())
