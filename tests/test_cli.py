"""End-to-end runs of the tunelz command line."""

import argparse
import contextlib
import io
import json
import operator
import os
import random
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tunelz
from tunelz import corpus as cp
from tunelz import lz
from tunelz._value import IngestError, integer, read_stdin
from tunelz.cli import _one_line, _Parser, build_parser, main

import goldens

DATA_DIR = Path(__file__).parent / "data"
# argv (with {data} for tests/data) -> exit code and stdout, recorded
# before the CLI was last refactored; every case must stay byte-identical.
STDOUT_GOLDEN = json.loads((DATA_DIR / "cli_stdout.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- normalize


def test_normalize_text(capsys, sally_path):
    code, out, err = run(capsys, "normalize", str(sally_path))
    assert code == 0
    assert err == ""
    line = out.strip()
    assert line == f"sally_gardens:1\treel\t128\t{goldens.SALLY}"


def test_normalize_json(capsys, sally_path):
    code, out, _ = run(capsys, "normalize", "--format", "json", str(sally_path))
    assert code == 0
    (entry,) = json.loads(out)
    assert entry["symbols"] == goldens.SALLY
    assert entry["category"] == "reel"


# a record's category is its R: label's, and its shape's only where it has
# none, in normalize as in every other command
@pytest.mark.parametrize("rhythm, category", [("jig", "jig"), ("hornpipe", "other")])
def test_normalize_prints_the_category_of_the_record(capsys, tmp_path, rhythm, category):
    path = tmp_path / "labelled.abc"
    path.write_text(f"X: 1\nT: Sally\nR: {rhythm}\nM: 4/4\nK: G\n{goldens.SALLY}\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "normalize", str(path))
    assert (code, out) == (0, f"labelled:1\t{category}\t128\t{goldens.SALLY}\n")
    code, out, _ = run(capsys, "normalize", "--format", "json", str(path))
    assert code == 0 and json.loads(out)[0]["category"] == category
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0 and out.split("\t")[2] == category


def test_normalize_reports_rejections(capsys, jig_path):
    code, out, err = run(capsys, "normalize", str(jig_path))
    assert code == 1
    assert len(out.strip().splitlines()) == 1
    assert "wrong_length" in err


# ---------------------------------------------------------------- compress


def test_compress_lz77_text(capsys, sally_path):
    code, out, _ = run(capsys, "compress", "--algo", "lz77", str(sally_path))
    assert code == 0
    tokens_line, ratio_line = out.strip().splitlines()
    assert len(tokens_line.split()) == 47
    assert tokens_line.startswith("g g d g b b [3,2] D b E [7,3]")
    assert ratio_line == "ratio 128/47 ≈ 2.72"


def test_compress_lz78_text(capsys, sally_path):
    code, out, _ = run(capsys, "compress", "--algo", "lz78", str(sally_path))
    assert code == 0
    tokens_line, ratio_line = out.strip().splitlines()
    assert len(tokens_line.split()) == 56
    assert ratio_line == "ratio 128/56 ≈ 2.29"


def test_compress_one_based_display(capsys, sally_path):
    _, out, _ = run(capsys, "compress", "--index-base", "1", str(sally_path))
    assert "[4,2]" in out.splitlines()[0]


def test_compress_raw_sequence(capsys, tmp_path):
    raw = tmp_path / "seq.txt"
    raw.write_text("aaaa\n", encoding="utf-8")
    code, out, _ = run(capsys, "compress", str(raw))
    assert code == 0
    assert out.splitlines()[0] == "a [0,3]"


def test_compress_spaced_x_header_is_abc(capsys, tmp_path, sally_path):
    spaced = tmp_path / "spaced.abc"
    spaced.write_text(sally_path.read_text(encoding="utf-8").replace("X: 1", "X : 1", 1),
                      encoding="utf-8")
    _, expected, _ = run(capsys, "compress", str(sally_path))
    code, out, _ = run(capsys, "compress", str(spaced))
    assert code == 0
    assert out == expected
    # an ABC file whose one tune is rejected prints nothing, in either format
    rejected = tmp_path / "rejected.abc"
    rejected.write_text("X:1\nK:\n", encoding="utf-8")
    for fmt in ("text", "json"):
        code, out, err = run(capsys, "compress", "--format", fmt, str(rejected))
        assert (code, out) == (1, "")
        assert err.startswith("tunelz: rejected rejected:1 (): wrong_length")


def test_compress_raw_input_past_the_ceiling_names_the_file(capsys, tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("a" * 20_001, encoding="utf-8")
    code, out, err = run(capsys, "compress", str(path))
    assert code == 2
    assert out == ""
    assert err == (f"tunelz: error: raw input {path} holds 20001 symbols, "
                   "more than the ceiling of 20000\n")


def test_compress_raw_input_at_the_ceiling_round_trips(capsys, tmp_path):
    raw = tmp_path / "seq.txt"
    raw.write_text("a" * 20_000 + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "compress", "--format", "json", str(raw))
    assert code == 0
    stream = tmp_path / "stream.json"
    stream.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "decompress", str(stream))
    assert (code, err) == (0, "")
    assert out == "a" * 20_000 + "\n"


def test_raw_compress_at_the_ceiling_stays_under_a_cpu_limit(tmp_path):
    # LZ77 time grows about quadratically, and 2 letters is the slowest
    # alphabet: this compress takes about 0.5 s of CPU on one core of a 2-core
    # x86-64 host (CPython 3.11), so only a worse order of growth passes 10 s
    symbols = "".join(random.Random(0).choices("ab", k=20_000))
    raw = tmp_path / "seq.txt"
    raw.write_text(symbols, encoding="utf-8")
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_CPU, (10, 10)); "
            "from tunelz.cli import main; sys.exit(main())")
    env = {**os.environ, "PYTHONPATH": str(Path(tunelz.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-c", code, "compress", "--format", "json", str(raw)],
                            env=env, capture_output=True, encoding="utf-8", check=False)
    assert (result.returncode, result.stderr) == (0, "")
    assert lz.decompress(lz.stream_from_json(result.stdout)) == symbols


@pytest.mark.parametrize("algo, raw, message", [
    ("lz77", "ab1ab1\n", "raw symbol '1' at offset 2 is not a letter"),
    ("lz78", "a a\n1a1", "raw symbol '1' at offset 4 is not a letter"),
], ids=["lz77", "lz78"])
def test_compress_rejects_raw_non_letter(capsys, tmp_path, algo, raw, message):
    path = tmp_path / "seq.txt"
    path.write_text(raw, encoding="utf-8")
    code, out, err = run(capsys, "compress", "--algo", algo, str(path))
    assert code == 2
    assert out == ""
    assert err == f"tunelz: error: {message}\n"


def test_compress_json(capsys, sally_path):
    _, out, _ = run(capsys, "compress", "--format", "json", str(sally_path))
    payload = json.loads(out)
    assert payload["algorithm"] == "lz77"
    assert payload["source_length"] == 128
    assert len(payload["tokens"]) == 47


# -------------------------------------------------------------- decompress


def test_compress_decompress_round_trip(capsys, tmp_path, sally_path):
    _, out, _ = run(capsys, "compress", str(sally_path))
    tokens_file = tmp_path / "tokens.txt"
    tokens_file.write_text(out.splitlines()[0] + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "decompress", str(tokens_file))
    assert code == 0
    assert out.strip() == goldens.SALLY


def test_decompress_lz78_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"a 1a 1"), encoding="utf-8"))
    code, out, _ = run(capsys, "decompress", "-")
    assert code == 0
    assert out.strip() == "aaaa"


def test_decompress_json_stream(capsys, tmp_path, sally_path):
    _, out, _ = run(capsys, "compress", "--format", "json", "--algo", "lz78",
                    str(sally_path))
    stream_file = tmp_path / "stream.json"
    stream_file.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "decompress", str(stream_file))
    assert code == 0
    assert out.strip() == goldens.SALLY


def test_decompress_corrupt_stream(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[5,2] a", encoding="utf-8")
    code, _, err = run(capsys, "decompress", str(bad))
    assert code == 2
    # a "[" with a digit after it opens a back-reference of a text stream, not JSON
    assert err == ("tunelz: error: token 0: start 5 outside emitted prefix of 0"
                   f" (token stream {bad})\n")


def test_decompress_refuses_a_text_symbol_that_is_not_a_letter(capsys, tmp_path):
    # compress writes no such literal: its raw input and its text form hold letters only
    path = tmp_path / "tokens.txt"
    path.write_text("a ] % [0,2]", encoding="utf-8")
    code, out, err = run(capsys, "decompress", str(path))
    assert (code, out) == (2, "")
    assert err == f"tunelz: error: token 1: symbol ']' is not a letter (token stream {path})\n"


@pytest.mark.parametrize("tokens, message", [
    ([5], "token 0 is not a valid token object: 5"),
    # a token object's keys pick its class; its values are judged as decompress judges them
    ([{"symbol": "a"}, {"symbol": 3}], "token 1: symbol 3 is not a one-character string"),
    ([{"symbol": "ab"}], "token 0: symbol 'ab' is not a one-character string"),
    ([{"start": 0, "length": "2"}], "token 0: length '2' is not an integer"),
    ([{"prefix": 0, "extension": "ab"}],
     "token 0 is not an LZ77 token: Lz78Token(prefix=0, extension='ab')"),
    ([{"prefix": 0}], "token 0 is not a valid token object"),
    ([{"symbol": "a", "start": 0, "length": 2}], "token 0 is not a valid token object"),
    ({"symbol": "a"}, 'stream tokens is not an array: {"symbol": "a"}'),
])
def test_decompress_rejects_bad_json_tokens(capsys, tmp_path, tokens, message):
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({"algorithm": "lz77", "source_length": 2, "tokens": tokens}),
                    encoding="utf-8")
    code, out, err = run(capsys, "decompress", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"tunelz: error: {message}")
    assert err.count("\n") == 1


def test_decompress_json_stops_at_the_declared_length(capsys, tmp_path):
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({"algorithm": "lz77", "source_length": 3,
                                "tokens": [{"symbol": "a"}, {"start": 0, "length": 10**6}]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "decompress", str(path))
    assert code == 2
    assert out == ""
    assert err == ("tunelz: error: token 1: decodes to 1000001 symbols, stream claims 3"
                   f" (token stream {path})\n")


def test_decompress_decodes_a_text_stream_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "tokens.txt"
    path.write_text(lz.stream_to_text(lz.compress_lz77(goldens.SALLY)), encoding="utf-8")
    decodes = []

    def counted(tokens):
        decodes.append(len(tokens))
        return decompress_lz77(tokens)

    decompress_lz77 = lz._decompress_lz77
    monkeypatch.setattr(lz, "_decompress_lz77", counted)
    code, out, _ = run(capsys, "decompress", str(path))
    assert (code, out) == (0, goldens.SALLY + "\n")
    assert len(decodes) == 1


def test_decompress_has_no_format_flag(capsys, tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("a b [0,2]", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["decompress", "--format", "text", str(path)])
    assert exc.value.code == 2


def test_decompress_has_no_algo_flag(capsys, tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("a b [0,2]", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["decompress", "--algo", "lz77", str(path)])
    assert exc.value.code == 2


# ----------------------------------------------------------------- analyze


def test_analyze_json(capsys, sally_path):
    code, out, _ = run(capsys, "analyze", "--format", "json", str(sally_path))
    assert code == 0
    (report,) = json.loads(out)
    assert report["lz78_tokens"] == 56
    assert report["lz77_tokens"] == 47
    assert report["length"] == 128


def test_analyze_csv(capsys, extreme_reels_path):
    code, out, _ = run(capsys, "analyze", "--format", "csv", str(extreme_reels_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("id,name,category")
    assert len(lines) == 3


def test_analyze_with_baseline(capsys, tmp_path, jig_path):
    curve_file = tmp_path / "curve.json"
    run(capsys, "baseline", "--lengths", "96,128", "--alphabet", "13",
        "--samples", "200", "--seed", "7", "--out", str(curve_file))
    code, out, err = run(capsys, "analyze", "--format", "json",
                         "--baseline", str(curve_file), "--normalize-to", "128",
                         str(jig_path))
    assert code == 1  # the truncated tune is rejected
    (report,) = json.loads(out)
    assert report["normalized_ratio"] > report["ratio_lz77"]


@pytest.mark.parametrize("curve", [
    '{"points": []}',
    '{"alphabet_size": 13, "samples_per_length": 1, "rng_seed": 0, '
    '"points": [{"length": 96, "mean_ratio": 0, "std_dev": 0}]}',
], ids=["missing-fields", "zero-mean"])
def test_analyze_rejects_bad_curve(capsys, tmp_path, sally_path, curve):
    curve_file = tmp_path / "curve.json"
    curve_file.write_text(curve, encoding="utf-8")
    code, out, err = run(capsys, "analyze", "--baseline", str(curve_file),
                         "--normalize-to", "128", str(sally_path))
    assert code == 2
    assert out == ""
    assert err.startswith("tunelz: error: baseline curve")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["analyze", "corpus"])
def test_curve_of_lz78_ratios_is_refused_by_name(capsys, tmp_path, jig_path, command):
    curve_file = tmp_path / "curve.json"
    run(capsys, "baseline", "--lengths", "96,128", "--algo", "lz78", "--samples", "20",
        "--out", str(curve_file))
    code, out, err = run(capsys, command, "--baseline", str(curve_file),
                         "--normalize-to", "128", str(jig_path))
    assert (code, out) == (2, "")
    assert err == (f"tunelz: error: baseline curve {curve_file} is not usable: "
                   "length normalization needs an lz77 baseline curve, not lz78\n")


# a tune that writes no meter is read in its category's, so a meterless
# R: jig is judged as a 6/8 jig of 96 quavers
@pytest.mark.parametrize("bar, code, out, err", [
    ("gab", 0, "jig:1\tJ\tjig\t96\tlz77 4\tlz78 23\tratio 24.0000\n", ""),
    ("gabc", 1, "", "tunelz: rejected jig:1 (J): wrong_length: meter 6/8 with 128 quavers is "
                    "not a standard-length reel (4/4, 128) or jig (6/8, 96) (offset 0)\n"),
], ids=["96-quavers", "128-quavers"])
def test_analyze_reads_a_meterless_jig_in_6_8(capsys, tmp_path, bar, code, out, err):
    path = tmp_path / "jig.abc"
    path.write_text(f"X: 1\nT: J\nR: jig\nK: G\n{bar * 32}\n", encoding="utf-8")
    assert run(capsys, "analyze", str(path)) == (code, out, err)


def test_analyze_from_dump(capsys, dump_path):
    code, out, err = run(capsys, "analyze", "--format", "json", "--dump",
                         str(dump_path))
    assert code == 1
    reports = json.loads(out)
    assert {r["id"] for r in reports} == {"27", "1403"}
    assert "rejected" in err


# ------------------------------------------------------------------ corpus


def test_corpus_text(capsys, extreme_reels_path, sally_path):
    code, out, _ = run(capsys, "corpus", str(sally_path), str(extreme_reels_path))
    assert code == 0
    assert out.startswith("reel: 3 tunes")
    assert "mean ratio" in out
    assert "|" in out  # histogram bars


def test_corpus_json(capsys, extreme_reels_path):
    code, out, _ = run(capsys, "corpus", "--format", "json", str(extreme_reels_path))
    assert code == 0
    (stats,) = json.loads(out)
    assert stats["count"] == 2
    assert stats["max"]["id"] == "extreme_reels:2"
    assert stats["histogram"]["bin_count"] == 20


def test_corpus_bins_flag(capsys, extreme_reels_path):
    _, out, _ = run(capsys, "corpus", "--format", "json", "--bins", "5",
                    str(extreme_reels_path))
    (stats,) = json.loads(out)
    assert stats["histogram"]["bin_count"] == 5


def test_corpus_hist_out(capsys, tmp_path, extreme_reels_path):
    hist_file = tmp_path / "hist.csv"
    code, _, _ = run(capsys, "corpus", "--category", "reel",
                     "--hist-out", str(hist_file), str(extreme_reels_path))
    assert code == 0
    lines = hist_file.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "bin_lower,bin_upper,count"
    assert len(lines) == 21


def test_corpus_category_other_selects_the_block_that_all_prints(capsys, tmp_path):
    dump = tmp_path / "dump.json"
    dump.write_text(json.dumps([
        {"setting_id": "1", "name": "Reel", "type": "reel", "abc": goldens.SALLY},
        {"setting_id": "2", "name": "Hornpipe", "type": "hornpipe", "abc": goldens.SALLY},
    ]), encoding="utf-8")
    code, every, _ = run(capsys, "corpus", "--dump", str(dump))
    assert code == 0
    other = every[every.index("other: 1 tunes"):]
    hist = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "corpus", "--category", "other", "--bins", "3",
                       "--hist-out", str(hist), "--dump", str(dump))
    assert (code, out.startswith("other: 1 tunes")) == (0, True)
    assert run(capsys, "corpus", "--category", "other", "--dump", str(dump)) == (0, other, "")
    assert hist.read_text(encoding="utf-8") == ("bin_lower,bin_upper,count\n"
                                                "2.723404,3.056738,1\n"
                                                "3.056738,3.390071,0\n"
                                                "3.390071,3.723404,0\n")


@pytest.mark.parametrize("argv, message", [
    (["corpus", "--hist-out", "{tmp}/hist.csv", "--dump", "{dump}"],
     "--hist-out needs exactly one category"),
    (["corpus", "--format", "json", "--hist-out", "{tmp}/hist.csv", "--dump", "{dump}"],
     "--hist-out needs exactly one category"),
    (["corpus", "--category", "reel", "--hist-out", "{tmp}/no/hist.csv", "--dump", "{dump}"],
     "cannot write histogram {tmp}/no/hist.csv: [Errno 2] No such file or directory: "
     "'{tmp}/no/hist.csv'"),
    (["corpus", "--category", "reel", "--hist-out", "{tmp}", "--dump", "{dump}"],
     "cannot write histogram {tmp}: [Errno 21] Is a directory: '{tmp}'"),
    (["baseline", "--lengths", "4", "--samples", "2", "--out", "{tmp}/no/curve.json"],
     "cannot write baseline curve {tmp}/no/curve.json: [Errno 2] No such file or directory: "
     "'{tmp}/no/curve.json'"),
], ids=["hist-out-two-categories", "hist-out-two-categories-json", "hist-out-no-directory",
        "hist-out-is-a-directory", "out-no-directory"])
def test_output_file_failure_prints_nothing_but_one_error_line(
        capsys, tmp_path, dump_path, argv, message):
    fill = {"tmp": str(tmp_path), "dump": str(dump_path)}
    code, out, err = run(capsys, *[arg.format(**fill) for arg in argv])
    assert (code, out) == (2, "")
    assert err == f"tunelz: error: {message.format(**fill)}\n"


def test_corpus_from_dump_exit_code(capsys, dump_path):
    code, out, err = run(capsys, "corpus", "--dump", str(dump_path))
    assert code == 1
    assert "reel: 1 tunes" in out
    assert "jig: 1 tunes" in out


@pytest.mark.parametrize("command", ["normalize", "compress", "analyze", "corpus", "rank"])
def test_each_rejection_is_one_line_after_the_stdout(command, jig_path):
    both = io.StringIO()
    with contextlib.redirect_stdout(both), contextlib.redirect_stderr(both):
        code = main([command, str(jig_path)])
    out, line, end = both.getvalue().rsplit("\n", 2)
    assert code == 1
    assert out and "rejected" not in out and end == ""
    assert line.startswith("tunelz: rejected jig_and_truncated:5 (Broken Fancy): wrong_length")


# an id or a name is shown with each character str.isprintable refuses
# escaped, and cut as every quotation of input is, so a rejection is one line
@pytest.mark.parametrize("field, value, shown", [
    ("name", "Line\nBreak", "Line\\nBreak"),
    ("name", "Line\u2028Break", "Line\\u2028Break"),
    ("setting_id", "7\r", "7\\r"),
    ("setting_id", "\r", "\\r"),
    ("name", "n" * 10**6, "n" * 120 + "... (1000000 characters)"),
    ("name", "Sí Bheag, Sí Mhór", "Sí Bheag, Sí Mhór"),
], ids=["newline", "line-separator", "carriage-return-id", "carriage-return-only-id",
        "1mb-name", "printable"])
def test_a_rejection_is_one_line_whatever_its_id_or_name(capsys, tmp_path, field, value, shown):
    path = tmp_path / "dump.json"
    entry = {"setting_id": 1, "name": "N", "type": "reel", "abc": "z"}
    path.write_text(json.dumps([entry | {field: value}]), encoding="utf-8")
    code, _, err = run(capsys, "corpus", "--dump", str(path))
    shows = {"setting_id": "1", "name": "N"} | {field: shown}
    (line,) = err.splitlines()
    assert code == 1
    assert line.startswith(f"tunelz: rejected {shows['setting_id']} ({shows['name']}): "
                           "unsupported_construct: ")


# a path or an argument is printed as given, but for each character that
# str.isprintable refuses, escaped; so the error stays one line, the last
@pytest.mark.parametrize("char", ["\n", "\r", "\x85", "\u2028"],
                         ids=["newline", "carriage-return", "next-line", "line-separator"])
@pytest.mark.parametrize("argv, arg", [
    (["analyze", "{tmp}/a{c}b.abc"], 1),
    (["corpus", "--dump", "{tmp}/d{c}.json"], 2),
    (["analyze", "--baseline", "{tmp}/c{c}.json", "--normalize-to", "128", "{sally}"], 2),
    (["corpus", "--category", "reel", "--hist-out", "{tmp}/no{c}/h.csv", "--dump", "{dump}"], 4),
    (["decompress", "{stream}", "x{c}y"], 2),
], ids=["abc-path", "dump-path", "baseline-path", "hist-out-path", "decompress-extra-argument"])
def test_an_error_is_one_line_whatever_an_argument_holds(capsys, tmp_path, sally_path, dump_path,
                                                         char, argv, arg):
    fill = {"tmp": tmp_path, "c": char, "sally": sally_path, "dump": dump_path,
            "stream": DATA_DIR / "sally_gardens.lz77.txt"}
    argv = [part.format(**fill) for part in argv]
    (tmp_path / f"c{char}.json").write_text("{}", encoding="utf-8")  # a curve with no fields
    try:
        code = main(argv)
    except SystemExit as exc:  # a usage error
        code = exc.code
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert (code, out) == (2, "")
    assert err == "".join(f"{line}\n" for line in lines)
    assert lines[-1].startswith("tunelz: error: ")
    assert argv[arg].replace(char, repr(char)[1:-1]) in lines[-1]


# an id or a name in a text row is printed as a rejection shows it: each
# character str.isprintable refuses, a tab among them, escaped, so every row
# is one record and its columns hold; the run prints what it would print for
# a dump or a file whose text holds those escapes as plain characters
HELD, SHOWN = "L\nB\tT\u2028E", "L\\nB\\tT\\u2028E"


@pytest.mark.parametrize("command", ["analyze", "corpus", "rank"])
def test_a_text_row_is_one_record_whatever_a_dump_id_or_name_holds(capsys, tmp_path, dump_path,
                                                                   command):
    first, *rest = json.loads(dump_path.read_text(encoding="utf-8"))
    path = tmp_path / "dump.json"
    runs = []
    for text in (HELD, SHOWN):
        path.write_text(json.dumps([first | {"setting_id": f"27{text}", "name": text}, *rest]),
                        encoding="utf-8")
        runs.append(run(capsys, command, "--dump", str(path)))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1 and f"27{SHOWN}" in runs[0][1]


# a lone surrogate, which a dump's "\ud800" or "\udcff" reads as, is written
# as repr writes it, so that a CSV run neither fails nor prints a byte that is
# not UTF-8, whatever the locale: it prints what it would print for a dump
# whose text holds that escape as plain characters
@pytest.mark.parametrize("held", ["A\ud800B", "A\udcffB"], ids=["ud800", "udcff"])
@pytest.mark.parametrize("command", ["analyze", "rank"])
def test_a_csv_row_escapes_a_lone_surrogate_whatever_the_locale(tmp_path, command, held):
    shown = repr(held)[1:-1]
    env = {**os.environ, "PYTHONPATH": str(Path(tunelz.__file__).parent.parent)}
    env.pop("PYTHONIOENCODING", None)
    outputs = set()
    for name, locale in [(held, {"LC_ALL": "C"}), (held, {"PYTHONIOENCODING": "utf-8"}),
                         (shown, {"PYTHONIOENCODING": "utf-8"})]:
        path = tmp_path / "dump.json"
        path.write_text(json.dumps([SALLY_ENTRY | {"setting_id": f"7{name}", "name": name}]),
                        encoding="utf-8")
        result = subprocess.run([sys.executable, "-m", "tunelz.cli", command, "--format", "csv",
                                 "--dump", str(path)], env=env | locale, capture_output=True,
                                check=False)
        assert (result.returncode, result.stderr) == (0, b""), locale
        outputs.add(result.stdout)
    (out,) = outputs
    assert f"7{shown},{shown},".encode() in out


@pytest.mark.parametrize("command", ["normalize", "analyze", "corpus", "rank"])
def test_a_text_row_is_one_record_whatever_an_abc_file_name_holds(capsys, tmp_path, sally_path,
                                                                  command):
    runs = []
    for name in ("a\nb.abc", "a\\nb.abc"):
        path = tmp_path / name
        path.write_text(sally_path.read_text(encoding="utf-8"), encoding="utf-8")
        runs.append(run(capsys, command, str(path)))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "a\\nb:1" in runs[0][1]


@pytest.mark.parametrize("argv", [
    ["normalize", "{jig}"], ["compress", "{jig}"], ["decompress", "{stream}"],
    ["analyze", "{jig}"], ["corpus", "{jig}"], ["rank", "{jig}"],
    ["baseline", "--lengths", "4", "--samples", "2"],
], ids=lambda argv: argv[0])
def test_a_closed_stdout_is_one_error_line(capsys, monkeypatch, jig_path, argv):
    # stdout is written once, where a failed write is an error like any
    # other: no rejection lines follow it
    def broken_pipe(text):
        raise BrokenPipeError(32, "Broken pipe")

    fill = {"jig": jig_path, "stream": DATA_DIR / "sally_gardens.lz77.txt"}
    monkeypatch.setattr(sys.stdout, "write", broken_pipe)
    code = main([part.format(**fill) for part in argv])
    monkeypatch.undo()
    assert (code, capsys.readouterr().err) == (2, "tunelz: error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv, want", [
    (["analyze", "{tmp}/missing.abc"], 2),
    (["analyze", "--bins", "1"], 2),
    (["analyze", "{jig}"], 1),
], ids=["error", "usage-error", "rejection"])
def test_a_closed_stderr_keeps_the_exit_code(capsys, monkeypatch, tmp_path, jig_path, argv, want):
    # a line that stderr cannot take is dropped, as argparse drops its own
    def closed(text):
        raise OSError(9, "Bad file descriptor")

    monkeypatch.setattr(sys.stderr, "write", closed)
    try:
        code = main([part.format(tmp=tmp_path, jig=jig_path) for part in argv])
    except SystemExit as exc:  # a usage error
        code = exc.code
    monkeypatch.undo()
    assert code == want
    assert bool(capsys.readouterr().out) == (want == 1)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("reference, reel, jig", [
    pytest.param(None, "2.7234", "2.5263", id="raw"),
    pytest.param("128", "2.7234", "2.6381", id="128"),
    pytest.param("96", "2.6080", "2.5263", id="96"),
])
def test_corpus_statistics_are_of_normalized_ratios_under_a_curve(capsys, data_dir, dump_path,
                                                                  fmt, reference, reel, jig):
    # the sample dump's reel is 128 quavers long and its jig 96, so a curve moves
    # the statistics of the category whose length is not the reference length
    curve = [] if reference is None else [
        "--baseline", str(data_dir / "baseline_curve.json"), "--normalize-to", reference]
    code, out, _ = run(capsys, "corpus", "--format", fmt, *curve, "--dump", str(dump_path))
    assert code == 1
    if fmt == "text":
        assert re.findall(r"mean ratio (\S+)", out) == [reel, jig]
        return
    stats = json.loads(out)
    assert [f"{s['mean_ratio']:.4f}" for s in stats] == [reel, jig]
    # one tune each: the extremes and the histogram's lower edge are of the same ratio
    for s in stats:
        assert s["min"]["ratio"] == s["max"]["ratio"] == s["histogram"]["lower"] == s["mean_ratio"]


# the per-tune CSV of Sally Gardens and the extreme reels, byte for byte as
# `corpus --format csv --bins 5` printed it when corpus had that format
_CORPUS_CSV = (
    "id,name,category,length,lz77_tokens,lz78_tokens,ratio_lz77,ratio_lz78,normalized_ratio\n"
    "sally_gardens:1,Sally Gardens,reel,128,47,56,2.723404,2.285714,\n"
    "extreme_reels:2,The Concertina Reel,reel,128,26,44,4.923077,2.909091,\n"
    "extreme_reels:3,The Star of Munster,reel,128,64,58,2.000000,2.206897,\n"
)


def test_the_per_tune_csv_is_analyzes_alone(capsys, sally_path, extreme_reels_path):
    paths = [str(sally_path), str(extreme_reels_path)]
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--format", "csv", "--bins", "5", *paths])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    errors = [line for line in err.splitlines() if "error:" in line]
    assert errors == err.splitlines()[-1:]
    assert errors[0].startswith("tunelz corpus: error: argument --format: invalid choice: 'csv'")
    assert run(capsys, "analyze", "--format", "csv", *paths) == (0, _CORPUS_CSV, "")


# the LZ78 count of each accepted tune is made only where it is printed
@pytest.mark.parametrize("argv, counts_lz78", [
    (["corpus"], False),
    (["corpus", "--format", "json"], False),
    (["rank"], False),
    (["rank", "--format", "json"], True),
    (["rank", "--format", "csv"], True),
    (["analyze"], True),
    (["analyze", "--format", "json"], True),
    (["analyze", "--format", "csv"], True),
], ids=lambda value: "-".join(value) if isinstance(value, list) else None)
def test_lz78_is_counted_only_where_it_is_printed(capsys, monkeypatch, dump_path, argv,
                                                  counts_lz78):
    asked = []
    count = cp.token_count

    def spy(seq, algorithm):
        asked.append(algorithm)
        return count(seq, algorithm)

    monkeypatch.setattr(cp, "token_count", spy)
    code, out, _ = run(capsys, *argv, "--dump", str(dump_path))
    accepted = sum(r.accepted for r in cp.ingest_json_dump(dump_path))
    assert (code, accepted) == (1, 2)
    assert asked == [lz.Algorithm.LZ78] * accepted * counts_lz78
    assert ("lz78" in out) is counts_lz78


def test_corpus_runs_are_byte_identical(capsys, extreme_reels_path):
    _, first, _ = run(capsys, "corpus", "--format", "json", str(extreme_reels_path))
    _, second, _ = run(capsys, "corpus", "--format", "json", str(extreme_reels_path))
    assert first == second


# ---------------------------------------------------------------- baseline


def test_baseline_csv(capsys):
    code, out, _ = run(capsys, "baseline", "--lengths", "8,16",
                       "--alphabet", "5", "--samples", "30", "--seed", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "length,mean_ratio"
    assert lines[1].startswith("8,") and lines[2].startswith("16,")


def test_baseline_deterministic(capsys):
    args = ("baseline", "--lengths", "10,20", "--alphabet", "4",
            "--samples", "25", "--seed", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_baseline_out_file(capsys, tmp_path):
    curve_file = tmp_path / "curve.json"
    code, _, _ = run(capsys, "baseline", "--lengths", "6,12", "--alphabet", "4",
                     "--samples", "10", "--seed", "1", "--out", str(curve_file))
    assert code == 0
    payload = json.loads(curve_file.read_text(encoding="utf-8"))
    assert [p["length"] for p in payload["points"]] == [6, 12]


def test_baseline_takes_an_alphabet_of_26_letters_and_refuses_27(capsys):
    code, out, _ = run(capsys, "baseline", "--lengths", "8", "--alphabet", "26", "--samples", "3")
    assert code == 0 and out.startswith("length,mean_ratio\n8,")
    assert run(capsys, "baseline", "--lengths", "8", "--alphabet", "27") == (
        2, "", "tunelz: error: alphabet_size must be in 1..26\n")


def test_baseline_length_past_the_ceiling_is_refused_undrawn(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "baseline", "--lengths", "96,2001")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == "tunelz: error: lengths must be in 1..2000\n"


def test_baseline_bad_lengths(capsys):
    code, _, err = run(capsys, "baseline", "--lengths", "ten")
    assert code == 2
    assert "lengths" in err


# ----------------------------------------------------------- number flags

# each flag that takes a number, with the argv its command needs, and the
# values it is limited to, if any
INT_FLAGS = [
    (["compress", "x"], "--index-base", (0, 1)),
    (["decompress", "x"], "--index-base", (0, 1)),
    (["analyze"], "--normalize-to", None),
    (["corpus"], "--normalize-to", None),
    (["corpus"], "--bins", None),
    (["baseline", "--lengths", "4"], "--alphabet", None),
    (["baseline", "--lengths", "4"], "--samples", None),
    (["baseline", "--lengths", "4"], "--seed", None),
]


def _command_actions():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, action) for name, command in sub.choices.items()
            for action in command._actions]


def test_no_flag_reads_its_number_with_int():
    actions = _command_actions()
    assert [(name, a.dest) for name, a in actions if a.type is int] == []
    numbered = sorted((name, a.option_strings[0]) for name, a in actions if a.type is integer)
    assert numbered == sorted((argv[0], flag) for argv, flag, _ in INT_FLAGS)


@settings(max_examples=200, deadline=None)
@given(text=st.one_of(
    st.text(),
    st.text("0123456789", max_size=110),
    st.from_regex(r"[-+ ]?[0-9_\u0660-\u0669\u00b2]{0,4}\s?", fullmatch=True),
))
def test_number_flags_take_1_to_100_ascii_digits(text):
    # --flag=TEXT, so that a TEXT starting with "-" is not read as an option
    digits = text.isascii() and text.isdigit() and len(text) <= 100
    parser = build_parser()
    for argv, flag, choices in INT_FLAGS:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                args = parser.parse_args([argv[0], f"{flag}={text}", *argv[1:]])
            except SystemExit as exc:
                args = exc
        if digits and (choices is None or int(text) in choices):
            assert getattr(args, flag[2:].replace("-", "_")) == int(text), flag
        else:
            assert isinstance(args, SystemExit) and args.code == 2, (flag, text)
            assert f"argument {flag}: " in err.getvalue().splitlines()[-1]


def _curve_with(changes):
    payload = json.loads((DATA_DIR / "baseline_curve.json").read_text(encoding="utf-8"))
    for name, value in changes.items():
        (payload["points"][0] if name in ("length", "mean_ratio") else payload)[name] = value
    return json.dumps(payload)


# command lines that read a number int() or float() would have taken, and the
# last stderr line of each; {curve} is a curve file holding the given fields
@pytest.mark.parametrize("argv, curve, last", [
    (["baseline", "--lengths", "\u0661\u0660,+2_0", "--samples", "3"], None,
     "tunelz: error: --lengths wants comma-separated integers, got '\u0661\u0660,+2_0'"),
    (["baseline", "--lengths", "10", "--samples", "\u0663", "--alphabet", "+1_3"], None,
     "tunelz baseline: error: argument --samples: invalid integer value: '\u0663'"),
    (["baseline", "--lengths", "10", "--samples", "3", "--alphabet", "+1_3"], None,
     "tunelz baseline: error: argument --alphabet: invalid integer value: '+1_3'"),
    (["baseline", "--lengths", "10", "--samples", "3", "--seed", "-4"], None,
     "tunelz baseline: error: argument --seed: invalid integer value: '-4'"),
    (["corpus", "--bins", "2000000", "{data}/extreme_reels.abc"], None,
     "tunelz: error: bin_count must be in 1..10000"),
    (["corpus", "--bins", "0", "{data}/extreme_reels.abc"], None,
     "tunelz: error: bin_count must be in 1..10000"),
    *[(["analyze", "--baseline", "{curve}", "--normalize-to", "128",
        "{data}/sally_gardens.abc"], {name: value},
       "tunelz: error: baseline curve {curve} "
       f"{where}{name} is not {kind}: {shown}")
      for where, name, value, kind, shown in [
          ("point 0 ", "length", 96.7, "a JSON integer", "96.7"),
          ("", "alphabet_size", "13", "a JSON integer", '"13"'),
          ("", "samples_per_length", 1000.9, "a JSON integer", "1000.9"),
          ("", "rng_seed", True, "a JSON integer", "true"),
          ("point 0 ", "mean_ratio", "1.23", "a JSON number", '"1.23"')]],
], ids=["lengths", "samples", "alphabet", "negative-seed", "bins-past-ceiling", "bins-0",
        "curve-length-float", "curve-alphabet-string", "curve-samples-float",
        "curve-seed-bool", "curve-ratio-string"])
def test_unreadable_number_exits_2_with_one_error_line(tmp_path, argv, curve, last):
    names = {"data": DATA_DIR, "curve": tmp_path / "curve.json"}
    if curve is not None:
        names["curve"].write_text(_curve_with(curve), encoding="utf-8")
    env = {**os.environ, "PYTHONUTF8": "1",
           "PYTHONPATH": str(Path(tunelz.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-m", "tunelz.cli",
                             *[arg.format(**names) for arg in argv]],
                            env=env, capture_output=True, encoding="utf-8", check=False)
    assert (result.returncode, result.stdout) == (2, "")
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert lines[-1] == last.format(**names)
    if last.startswith("tunelz: error: "):  # not argparse's, which prints the usage first
        assert len(lines) == 1


LONG = "x" * 100_000


class _Refused(Exception):
    """A usage error, raised in place of being printed."""


def _refusal(argv):
    """The prog and the whole message of the usage error that argparse gives
    ``argv``, or None when it takes ``argv``."""
    def refuse(parser, message):
        raise _Refused(parser.prog, message)

    with mock.patch.object(_Parser, "error", refuse):
        try:
            build_parser().parse_args(argv)
        except _Refused as exc:
            return exc.args
    return None


def _error_line(prog, message):
    """A usage error's last stderr line: argparse's message, cut after 120
    characters with its length noted, then escaped as every stderr line is."""
    if len(message) > 120:
        message = f"{message[:120]}... ({len(message)} characters)"
    return _one_line(f"{prog}: error: {message}")


# argparse's three messages that quote a refused argument whole, the first also
# for a value given after "="; whether the choices are quoted depends on the
# Python version.  The message is cut once, whatever it quotes.
@pytest.mark.parametrize("argv, prog, message", [
    (["baseline", "--lengths", "10", "--samples", LONG], "tunelz baseline",
     f"argument --samples: invalid integer value: '{LONG}'"),
    (["baseline", "--lengths", "10", f"--samples={LONG}"], "tunelz baseline",
     f"argument --samples: invalid integer value: '{LONG}'"),
    (["baseline", "--lengths", "10", "--format", LONG], "tunelz baseline",
     f"argument --format: invalid choice: '{LONG}' (choose from "),
    (["baseline", "--lengths", "10", LONG], "tunelz", f"unrecognized arguments: {LONG}"),
], ids=["invalid-integer", "invalid-integer-after-equals", "invalid-choice", "unrecognized"])
def test_refused_argument_is_quoted_through_excerpt(argv, prog, message):
    env = {**os.environ, "PYTHONPATH": str(Path(tunelz.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-m", "tunelz.cli", *argv], env=env,
                            capture_output=True, encoding="utf-8", check=False)
    assert (result.returncode, result.stdout) == (2, "")
    refused_by, whole = _refusal(argv)
    assert refused_by == prog and whole.startswith(message)
    assert result.stderr.splitlines()[-1] == _error_line(prog, whole)
    assert len(result.stderr) < 1000


# argparse alone refuses each list in a few hundredths of a second, so only a
# cost per argument over the whole message passes 10 s of CPU
@pytest.mark.parametrize("extra", [
    [chr(0x4E00 + i) for i in range(32_000)],
    [f"{i:0150d}" for i in range(8_000)],
], ids=["32000-of-1-character", "8000-of-150-characters"])
def test_many_refused_arguments_are_one_short_line_under_a_cpu_limit(extra):
    code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_CPU, (10, 10)); "
            "from tunelz.cli import main; sys.exit(main())")
    env = {**os.environ, "PYTHONPATH": str(Path(tunelz.__file__).parent.parent)}
    result = subprocess.run([sys.executable, "-c", code, "decompress", *extra], env=env,
                            capture_output=True, encoding="utf-8", check=False)
    assert (result.returncode, result.stdout) == (2, "")
    assert len(result.stderr) < 1000


# Property: whatever argument list argparse refuses, the run ends in exit 2
# with nothing on stdout, and its last stderr line holds at most 120
# characters of argparse's message
_VALUE_FLAGS = [(name, action.option_strings[0]) for name, action in _command_actions()
                if action.type is integer or action.choices is not None]
_OPTIONS = sorted({option for _, action in _command_actions() for option in action.option_strings}
                  - {"-h", "--help"})
# the arguments that complete each command line
_COMPLETE = {"normalize": ["x.abc"], "compress": ["x"], "decompress": ["x"], "analyze": ["x.abc"],
             "corpus": ["x.abc"], "baseline": ["--lengths", "4"], "rank": ["x.abc"]}


def _not_help(arg):
    """False for an argument that argparse may read as -h, --help or an abbreviation of it."""
    return re.match("--?h", arg) is None


_DRAWN = st.one_of(
    st.text(),
    st.text(st.sampled_from("x-=\n\u2028"), max_size=10),
    st.builds(operator.mul, st.sampled_from(["x", "a\nb", "\u2028", "-x=y"]),
              st.integers(40, 2000)),  # long text
    st.sampled_from(["CSV", "jsonx", "lz7", "reel ", "2", "01", "-1", "1e3", "0x10", "\u0661"]),
).filter(_not_help)
_ARGUMENT = st.one_of(
    _DRAWN,
    st.builds("{}={}".format, st.one_of(st.sampled_from(_OPTIONS), _DRAWN.map("--{}".format)),
              _DRAWN),
).filter(_not_help)


@st.composite
def _refused_argvs(draw):
    if draw(st.booleans()):  # a number or choice flag given drawn text
        command, flag = draw(st.sampled_from(_VALUE_FLAGS))
        text = draw(_DRAWN)
        given = draw(st.sampled_from([[f"{flag}={text}"], [flag, text]]))
        return [command, *given, *_COMPLETE[command]]
    # drawn arguments after a complete command line
    command = draw(st.sampled_from(["compress", "decompress", "baseline"]))
    return [command, *_COMPLETE[command], *draw(st.lists(_ARGUMENT, min_size=1, max_size=4))]


@settings(deadline=None)
@given(argv=_refused_argvs())
def test_every_refused_argument_list_is_one_bounded_error_line(argv):
    refusal = _refusal(argv)
    assume(refusal is not None)
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          pytest.raises(SystemExit) as exc):
        main(argv)
    assert (exc.value.code, out.getvalue()) == (2, "")
    lines = err.getvalue().splitlines()
    assert err.getvalue() == "".join(f"{line}\n" for line in lines)
    assert lines[0].startswith("usage: ") and lines[-1] == _error_line(*refusal)


def test_curve_out_of_range_is_refused(capsys, tmp_path, sally_path):
    curve = tmp_path / "curve.json"
    for changes, detail in [({"length": -5}, "length must be >= 1: -5"),
                            ({"alphabet_size": 0}, "alphabet_size must be in 1..26: 0"),
                            ({"samples_per_length": -3}, "samples_per_length must be >= 1: -3")]:
        curve.write_text(_curve_with(changes), encoding="utf-8")
        code, out, err = run(capsys, "analyze", "--baseline", str(curve), "--normalize-to", "128",
                             str(sally_path))
        assert (code, out) == (2, "")
        assert err == f"tunelz: error: baseline curve {curve} {detail}\n"


# a reference length past the curve, and a tune (the 96-quaver jig) before it
@pytest.mark.parametrize("points, reference, tunes, span", [
    ((96, 128), "500", "sally_gardens.abc", "length 500 outside sampled span [96, 128]"),
    ((128,), "128", "jig_and_truncated.abc", "length 96 outside sampled span [128, 128]"),
], ids=["reference-length", "tune-length"])
@pytest.mark.parametrize("command", ["analyze", "corpus"])
def test_length_outside_the_curve_names_the_curve_file(capsys, tmp_path, command, points,
                                                       reference, tunes, span):
    payload = json.loads((DATA_DIR / "baseline_curve.json").read_text(encoding="utf-8"))
    payload["points"] = [p for p in payload["points"] if p["length"] in points]
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, command, "--baseline", str(curve), "--normalize-to", reference,
                         str(DATA_DIR / tunes))
    assert (code, out) == (2, "")
    assert err == f"tunelz: error: baseline curve {curve} is not usable: {span}\n"


# the reference length is checked against the curve even when no tune is accepted
@pytest.mark.parametrize("argv, reference", [
    (["analyze", "{tmp}/short.abc"], "500"),
    (["corpus", "--dump", "{tmp}/empty.json"], "5"),
], ids=["analyze-all-rejected", "corpus-empty-dump"])
def test_reference_outside_the_curve_fails_with_no_tune_accepted(capsys, tmp_path, argv,
                                                                 reference):
    (tmp_path / "short.abc").write_text("X: 1\nM: 4/4\nK: G\nABc\n", encoding="utf-8")
    (tmp_path / "empty.json").write_text("[]", encoding="utf-8")
    curve = DATA_DIR / "baseline_curve.json"
    code, out, err = run(capsys, *[arg.format(tmp=tmp_path) for arg in argv],
                         "--baseline", str(curve), "--normalize-to", reference)
    assert (code, out) == (2, "")
    assert err == (f"tunelz: error: baseline curve {curve} is not usable: "
                   f"length {reference} outside sampled span [96, 128]\n")


def test_bins_at_the_ceiling_are_written(capsys, extreme_reels_path):
    code, out, _ = run(capsys, "corpus", "--format", "json", "--bins", "10000",
                       str(extreme_reels_path))
    assert code == 0
    (stats,) = json.loads(out)
    assert len(stats["histogram"]["counts"]) == 10_000


# -------------------------------------------------------------------- rank


def test_rank_easiest(capsys, extreme_reels_path):
    code, out, _ = run(capsys, "rank", str(extreme_reels_path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("1\textreme_reels:2\tThe Concertina Reel")
    assert lines[1].startswith("2\textreme_reels:3\tThe Star of Munster")


def test_rank_hardest(capsys, extreme_reels_path):
    _, out, _ = run(capsys, "rank", "--order", "hardest", str(extreme_reels_path))
    assert out.strip().splitlines()[0].split("\t")[2] == "The Star of Munster"


# ------------------------------------------------------------------- misc


def _help_entries(capsys, command) -> dict[str, str]:
    """Each flag's and positional's entry in ``tunelz COMMAND --help``."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    return {m.group(1): m.group(0)
            for m in re.finditer(r"^  (--[a-z-]+|paths)\b.*(?:\n {5,}\S.*)*", out, re.M)}


@pytest.mark.parametrize("command, shared", [
    ("corpus", ("--dump", "paths", "--baseline", "--normalize-to")),
    ("rank", ("--format", "--dump", "paths")),
])
def test_shared_flags_read_the_same_in_help(capsys, command, shared):
    analyze = _help_entries(capsys, "analyze")
    assert "JSON dump instead of ABC paths" in analyze["--dump"]
    entries = _help_entries(capsys, command)
    assert [entries[flag] for flag in shared] == [analyze[flag] for flag in shared]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--algo", "zip", "whatever"])
    assert exc.value.code == 2


@pytest.mark.parametrize("name, stem", [
    ("a.b.abc", "a.b"), ("x", "x"), (".abc", ".abc"), ("dir/x.abc", "x"), ("x.", "x."),
    ("..abc", "."),
])
def test_record_ids_name_the_file_as_its_stem(capsys, tmp_path, sally_path, name, stem):
    # the stem is the base name cut at its last dot, unless that dot comes first or last
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(sally_path.read_text(encoding="utf-8") + "\nX: 2\nT: Short\nK: G\nABcd\n",
                    encoding="utf-8")
    rejected = f"tunelz: rejected {stem}:2 (Short): wrong_length"
    code, out, err = run(capsys, "normalize", str(path))
    assert code == 1
    assert out.startswith(f"{stem}:1\t")
    assert err.startswith(rejected)
    code, _, err = run(capsys, "compress", str(path))
    assert code == 1
    assert err.startswith(rejected)


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "no_such_file.abc")
    assert code == 2
    assert "error" in err


def test_dump_and_paths_conflict(capsys, dump_path, sally_path):
    code, _, err = run(capsys, "analyze", "--dump", str(dump_path), str(sally_path))
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("argv, message", [
    *[([command, "--normalize-to", "128", "{sally}"],
       "--baseline and --normalize-to go together") for command in ("analyze", "corpus")],
    *[([command, "--baseline", "{curve}", "{sally}"],
       "--baseline and --normalize-to go together") for command in ("analyze", "corpus")],
    *[([command], "no input: give ABC paths or --dump")
      for command in ("analyze", "corpus", "rank")],
], ids=["analyze-reference-alone", "corpus-reference-alone", "analyze-curve-alone",
        "corpus-curve-alone", "analyze-no-input", "corpus-no-input", "rank-no-input"])
def test_incomplete_input_flags_are_one_error_line(capsys, data_dir, sally_path, argv, message):
    fill = {"sally": str(sally_path), "curve": str(data_dir / "baseline_curve.json")}
    code, out, err = run(capsys, *[arg.format(**fill) for arg in argv])
    assert (code, out, err) == (2, "", f"tunelz: error: {message}\n")


NOT_UTF8 = b"X:1\nT:Caf\xe9\nK:G\nABcd\n"
NOT_JSON = b"not json"
LONG_INT = b'[{"setting_id": ' + b"9" * 5000 + b"}]"
DEEP = b"[" * 100_000
SALLY_ENTRY = {"setting_id": "1", "name": "Sally", "type": "reel", "abc": goldens.SALLY}
# Each JSON input names its file in its own place: a dump inside the message,
# a curve in a prefix and a token stream in a suffix.  The fault's own text
# follows the input's subject, and reads the same for the same fault.
_JSON_LINES = {
    "dump": (["corpus", "--dump", "{f}"], "dump {{f}} {fault}\n"),
    "baseline": (["analyze", "--baseline", "{f}", "--normalize-to", "128", "{sally}"],
                 "baseline curve {{f}} {fault}\n"),
    "decompress": (["decompress", "{f}"], "stream {fault} (token stream {{f}})\n"),
}
_JSON_PROBES = [
    *[(fault, source, content, text) for fault, contents, text in [
        ("open-brace", (b"{", b"{", b"{"), "is not valid JSON: Expecting property name "
         "enclosed in double quotes: line 1 column 2 (char 1)"),
        ("deep", (DEEP, DEEP, b'{"tokens": ' + DEEP), "is not valid JSON: maximum recursion "
         "depth exceeded while decoding a JSON array from a unicode string"),
        ("long-int", (LONG_INT, b'{"rng_seed": -%s}' % (b"9" * 5000),
                      b'{"source_length": %s}' % (b"9" * 5000)),
         "is not valid JSON: an integer of more than 100 digits"),
        *[(name, (b'[{"setting_id": %s}]' % constant, b'{"points": [{"std_dev": %s}]}' % constant,
                  b'{"source_length": %s}' % constant),
           f"is not valid JSON: {constant.decode()} is not a JSON number")
          for name, constant in [("nan", b"NaN"), ("infinity", b"Infinity"),
                                 ("minus-infinity", b"-Infinity")]],
    ] for source, content in zip(_JSON_LINES, contents)],
    # a stream's top level is an object: decompress reads as JSON any text that
    # starts with "{", or with a "[" that opens no text back-reference "[i,j]"
    ("top-level-kind", "dump", b"{}", "is not a JSON array"),
    ("top-level-kind", "baseline", b"[]", "is not a JSON object"),
    ("top-level-kind", "decompress", b"[]", "is not a JSON object"),
    ("token-array", "decompress", b' [{"symbol": "a"}]', "is not a JSON object"),
    ("missing-field", "dump", b'[{"setting_id": 1, "name": "n", "type": "reel"}]',
     "entry 0 lacks field 'abc'"),
    ("missing-field", "baseline", b'{"rng_seed": 0}', "lacks field 'points'"),
    ("missing-field", "decompress", b'{"tokens": []}', "lacks field 'algorithm'"),
    ("wrong-kind", "dump", b'[{"setting_id": 1, "name": 5, "type": "reel", "abc": ""}]',
     "entry 0 name is not a string: 5"),
    ("wrong-kind", "baseline", b'{"points": 5}', "points is not an array: 5"),
    ("wrong-kind", "decompress", b'{"algorithm": "lz77", "source_length": 1, "tokens": 5}',
     "tokens is not an array: 5"),
]


@pytest.mark.parametrize("argv, content, message", [
    (["normalize", "{f}"], NOT_UTF8, "cannot read ABC file {f}: 'utf-8' codec"),
    (["analyze", "{f}"], NOT_UTF8, "cannot read ABC file {f}: 'utf-8' codec"),
    (["corpus", "{f}"], NOT_UTF8, "cannot read ABC file {f}: 'utf-8' codec"),
    (["rank", "{f}"], NOT_UTF8, "cannot read ABC file {f}: 'utf-8' codec"),
    (["compress", "{f}"], NOT_UTF8, "cannot read input {f}: 'utf-8' codec"),
    (["decompress", "{f}"], NOT_UTF8, "cannot read input {f}: 'utf-8' codec"),
    (["corpus", "--dump", "{f}"], NOT_UTF8, "cannot read dump {f}: 'utf-8' codec"),
    *[(["corpus", "--dump", "{f}"], json.dumps([SALLY_ENTRY, entry]).encode(),
       "dump {f} entry 1 is not an object: %s\n" % json.dumps(entry))
      for entry in (5, ["x"])],
    (["analyze", "--baseline", "{f}", "--normalize-to", "128", "{sally}"], NOT_JSON,
     "baseline curve {f} is not valid JSON: Expecting value"),
    (["analyze", "--baseline", "{f}", "--normalize-to", "128", "{sally}"], NOT_UTF8,
     "cannot read baseline curve {f}: 'utf-8' codec"),
    (["decompress", "{f}"], b'{"tokens": ',
     "stream is not valid JSON: Expecting value: line 1 column 12 (char 11) (token stream {f})\n"),
    (["decompress", "{f}"], b"a [0,2000000]",
     "token 1: decodes to 2000001 symbols, more than the ceiling of 20000 (token stream {f})\n"),
    (["decompress", "{f}"], json.dumps({
        "algorithm": "lz77", "source_length": 2_000_001,
        "tokens": [{"symbol": "a"}, {"start": 0, "length": 2_000_000}]}).encode(),
     "stream claims 2000001 symbols, more than the ceiling of 20000 (token stream {f})\n"),
    (["decompress", "{f}"], b"a [0," + b"9" * 5000 + b"]",
     "token 1: number of more than 100 digits in '[0," + "9" * 117
     + "'... (5004 characters) (token stream {f})\n"),
    (["decompress", "{f}"], b"a " + b"x" * 10**6,
     "unrecognized LZ77 token '" + "x" * 120 + "'... (1000000 characters) (token stream {f})\n"),
    (["decompress", "{f}"], json.dumps({
        "algorithm": "lz77", "source_length": 1, "tokens": [{"symbol": "a" * 10**6}]}).encode(),
     "token 0: symbol '" + "a" * 119
     + "... (1000002 characters) is not a one-character string (token stream {f})\n"),
    (["compress", "{f}"], b"X: 1\nM: 4/0\nK: D\nABcd\n",
     "ABC file {f}: malformed_header: unusable meter '4/0' (offset 5)\n"),
    *[(["decompress", "{f}"],
       b'{"algorithm": "lz77", "source_length": %s, "tokens": [{"symbol": "a"}]}' % length,
       "stream source_length is not a JSON integer: %s (token stream {f})\n"
       % length.decode())
      for length in (b'"1"', b"1.9", b"true")],
    *[(_JSON_LINES[source][0], content, _JSON_LINES[source][1].format(fault=text))
      for _, source, content, text in _JSON_PROBES],
], ids=["normalize", "analyze", "corpus", "rank", "compress", "decompress", "dump-not-utf8",
        "dump-entry-number", "dump-entry-list", "baseline-not-json", "baseline-not-utf8",
        "decompress-not-json",
        "decompress-text-past-ceiling", "decompress-json-past-ceiling",
        "decompress-text-long-number", "decompress-text-long-token",
        "decompress-json-long-token", "compress-malformed-header",
        "decompress-json-length-string", "decompress-json-length-float",
        "decompress-json-length-bool",
        *[f"{source}-{fault}" for fault, source, _, _ in _JSON_PROBES]])
def test_unloadable_input_is_a_one_line_error(capsys, tmp_path, sally_path, argv, content,
                                              message):
    path = tmp_path / "input"
    path.write_bytes(content)
    names = {"f": path, "sally": sally_path}
    code, out, err = run(capsys, *[arg.format(**names) for arg in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("tunelz: error: " + message.format(**names))
    assert err.count("\n") == 1


def _run_on_stdin(data, *argv):
    # a new interpreter under the C locale, in which Python would decode
    # sys.stdin leniently, passing undecodable bytes on as lone surrogates
    env = {**os.environ, "LC_ALL": "C",
           "PYTHONPATH": str(Path(tunelz.__file__).parent.parent)}
    return subprocess.run([sys.executable, "-m", "tunelz.cli", *argv, "-"], input=data,
                          env=env, capture_output=True, check=False)


@pytest.mark.parametrize("command", ["compress", "decompress"])
def test_stdin_is_strict_utf8_whatever_the_locale(command):
    result = _run_on_stdin(NOT_UTF8, command)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == (b"tunelz: error: cannot read input -: 'utf-8' codec can't decode "
                             b"byte 0xe9 in position 9: invalid continuation byte\n")


def test_stdin_that_is_not_utf8_names_standard_input():
    # in process, the branch that _run_on_stdin above reaches in a child
    with pytest.raises(IngestError) as exc:
        read_stdin(io.BytesIO(NOT_UTF8), "input")
    assert str(exc.value) == ("cannot read input -: 'utf-8' codec can't decode byte 0xe9 "
                              "in position 9: invalid continuation byte")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_stdin_reads_line_breaks_as_a_file_does(capsys, sally_path, newline):
    text = sally_path.read_text(encoding="utf-8") + "\nX: 2\nT: Caf\u00e9\nK: G\nABcd\n"
    _, expected, _ = run(capsys, "compress", str(sally_path))
    result = _run_on_stdin(text.replace("\n", newline).encode(), "compress")
    assert (result.returncode, result.stdout.decode()) == (1, expected)
    assert result.stderr.decode().startswith("tunelz: rejected -:2 (Caf\u00e9): wrong_length")


# a file saved by an editor that writes a UTF-8 byte-order mark reads as it
# would without one; the two copies share a name, so record ids match too
@pytest.mark.parametrize("argv, source", [
    (["analyze", "{f}"], "sally_gardens.abc"),
    (["normalize", "{f}"], "sally_gardens.abc"),
    (["compress", "{f}"], "sally_gardens.abc"),
    (["corpus", "--dump", "{f}"], "thesession_sample.json"),
    (["analyze", "--baseline", "{f}", "--normalize-to", "128", "{sally}"],
     "baseline_curve.json"),
    (["decompress", "{f}"], "sally_gardens.lz77.txt"),
    (["decompress", "{f}"], "sally_gardens.lz78.json"),
    (["compress", "-"], "sally_gardens.abc"),
    (["decompress", "-"], "sally_gardens.lz77.txt"),
], ids=["analyze", "normalize", "compress", "dump", "baseline-curve", "text-stream",
        "json-stream", "compress-stdin", "decompress-stdin"])
def test_a_leading_byte_order_mark_is_skipped(capsys, monkeypatch, tmp_path, sally_path,
                                               argv, source):
    content = (DATA_DIR / source).read_bytes()
    results = []
    for folder, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
        path = tmp_path / folder / source
        path.parent.mkdir()
        path.write_bytes(mark + content)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(mark + content),
                                                          encoding="utf-8"))
        code, out, _ = run(capsys, *[arg.format(f=path, sally=sally_path) for arg in argv])
        results.append((code, out))
    plain, marked = results
    assert marked == plain
    assert plain[0] in (0, 1) and plain[1]


# Property: whatever bytes a file holds, every subcommand ends in a result,
# recorded rejections or a one-line error, and no exception escapes main.
_ATOMS = st.sampled_from([
    # ABC headers and body
    "X:1\n", "X : 2\n", "T:t\n", "M:4/4\n", "M:6/8\n", "M:C\n", "M:4/0\n", "L:1/8\n",
    "L:1/16\n", "L:3/16\n", "R:reel\n", "K:G\n", "%c\n", "\n", " ", "A", "B2", "c/", "d3/2",
    "^f", "_B", "=e", "A'", "C,", "|", "|:", ":|", "::", "|1", "|2", ":|2", "[2", "|3", "|\u00b2",
    "(3", "{g}", '"Am"', "[K:D]", "[", "z", "<", "~", "\\", "*",
    # token streams, text and JSON
    "a ", "[", "]", ",", "(", ")", "{", "}", ":", '"', '"algorithm"', '"lz77"', '"lz78"',
    '"source_length"', '"tokens"', '"symbol"', '"start"', '"length"', '"prefix"',
    '"extension"', "null", "-",
    # dump entries
    '"setting_id"', '"tune_id"', '"name"', '"type"', '"abc"', '"reel"', '"jig"', '"meter"',
    # baseline curves
    '"points"', '"mean_ratio"', '"std_dev"', '"alphabet_size"', '"samples_per_length"',
    '"rng_seed"', "NaN", "-Infinity", "1e400",
])
_NUMBERS = st.integers(0, 10**4).map(str)
_DUMPS = st.lists(
    st.fixed_dictionaries({
        "setting_id": st.one_of(st.integers(0, 10**4), st.text(max_size=3)),
        "name": st.text(max_size=5),
        "type": st.sampled_from(["reel", "jig", "polka", ""]),
        # Sally Gardens' notes make an accepted reel, whose id and name a text row prints
        "abc": st.one_of(st.lists(st.one_of(_ATOMS, _NUMBERS), max_size=12).map("".join),
                         st.just(goldens.SALLY)),
    }),
    max_size=3,
).map(json.dumps)
_RATIOS = st.one_of(st.floats(), st.integers(-2, 2))  # NaN and infinities among the floats
_CURVES = st.fixed_dictionaries({
    "alphabet_size": st.integers(0, 27), "samples_per_length": st.integers(0, 3),
    "rng_seed": st.integers(0, 3),
    "points": st.lists(st.fixed_dictionaries({
        "length": st.integers(0, 200), "mean_ratio": _RATIOS, "std_dev": _RATIOS}), max_size=3),
}).map(json.dumps)
_CONTENTS = st.one_of(
    st.binary(max_size=200),
    st.lists(st.one_of(_ATOMS, _NUMBERS), max_size=30).map("".join).map(str.encode),
    _DUMPS.map(str.encode),
    st.text(max_size=5).map(f"X:1\nT:{{}}\nK:G\n{goldens.SALLY}\n".format).map(str.encode),
    _CURVES.map(str.encode),
)
# each reads the arbitrary file as its last argument
_SUBCOMMANDS = (
    ["normalize"], ["compress", "--algo", "lz77"], ["compress", "--algo", "lz78"],
    ["decompress"], ["analyze"], ["corpus"], ["rank"], ["corpus", "--dump"], ["rank", "--dump"],
    ["analyze", "--normalize-to", "128", str(DATA_DIR / "sally_gardens.abc"), "--baseline"],
)
# the tabs in each stdout row of a text command that prints one row per accepted record
_ROW_TABS = {"normalize": 3, "analyze": 6, "rank": 3}
_REJECTION = re.compile(
    rf"tunelz: rejected .* \(.*\): ({'|'.join(kind.value for kind in tunelz.ErrorKind)}): ")


@settings(deadline=None)
@given(content=_CONTENTS)
# an accepted tune whose name holds a tab, and in a dump a line break
@example(content=json.dumps([SALLY_ENTRY | {"name": "a\tb\nc"}]).encode())
@example(content=f"X:1\nT:a\tb\nK:G\n{goldens.SALLY}\n".encode())
def test_every_subcommand_is_total_on_arbitrary_input(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "arbitrary_input"
    path.write_bytes(content)
    for argv in _SUBCOMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, str(path)])
        assert code in (0, 1, 2), argv
        # a result prints nothing to stderr, rejections one line each, and an
        # error one line
        lines = err.getvalue().splitlines()
        assert err.getvalue() == "".join(f"{line}\n" for line in lines), argv
        if code == 0:
            assert lines == [], argv
        elif code == 1:
            assert lines and all(_REJECTION.match(line) for line in lines), (argv, lines)
        else:
            assert len(lines) == 1 and lines[0].startswith("tunelz: error: "), (argv, lines)
        if code == 2 or argv[0] not in _ROW_TABS:
            continue
        # a result or rejections print one row per accepted record, whatever an id or name holds
        curve = "--baseline" in argv  # the arbitrary file is the curve, of Sally Gardens
        if "--dump" in argv:
            records = cp.ingest_json_dump(path)
        else:
            records = cp.ingest_abc_files([DATA_DIR / "sally_gardens.abc" if curve else path])
        rows = out.getvalue().splitlines()
        assert out.getvalue() == "".join(f"{row}\n" for row in rows), argv
        assert len(rows) == sum(r.accepted for r in records), (argv, rows)
        tabs = _ROW_TABS[argv[0]] + curve
        assert all(row.count("\t") == tabs for row in rows), (argv, rows)


@pytest.mark.parametrize("case", sorted(STDOUT_GOLDEN))
def test_stdout_matches_golden(capsys, case):
    argv = case.replace("{data}", str(DATA_DIR)).split()
    try:
        code, out, _ = run(capsys, *argv)
    except SystemExit as exc:  # a usage error
        code, out = exc.code, capsys.readouterr().out
    assert (code, out) == (STDOUT_GOLDEN[case]["exit"], STDOUT_GOLDEN[case]["stdout"])


def test_module_run_as_a_script_exits_with_mains_code(capsys, monkeypatch):
    # python -m tunelz.cli, in process; runpy warns of a module it runs that is
    # already imported, so the test runs a fresh copy
    monkeypatch.delitem(sys.modules, "tunelz.cli")
    stream = DATA_DIR / "sally_gardens.lz77.txt"
    monkeypatch.setattr(sys, "argv", ["tunelz", "decompress", str(stream)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("tunelz.cli", run_name="__main__")
    assert (exc.value.code, capsys.readouterr().out) == (0, goldens.SALLY + "\n")


@pytest.mark.parametrize("argv", [
    ["normalize", "x.abc"],
    ["compress", "x.abc"],
    ["decompress", "x.txt"],
    ["analyze", "x.abc"],
    ["corpus", "x.abc"],
    ["rank", "x.abc"],
])
def test_seed_is_a_usage_error_outside_baseline(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--seed", "1", *argv[1:]])
    assert exc.value.code == 2


def test_baseline_accepts_seed(capsys):
    code, _, _ = run(capsys, "baseline", "--lengths", "4", "--samples", "2", "--seed", "1")
    assert code == 0


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S -I: no site hooks or environment, so only tunelz and what it imports load;
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, and the test leaves no bytecode behind
    src = str(Path(tunelz.__file__).parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import tunelz.cli; "
            "print(sorted({'__future__', 'dataclasses', 'inspect', 'pathlib'} & set(sys.modules))); "
            # the runtime is stdlib-only: every module loaded is the standard library's
            "print(sorted({name.partition('.')[0] for name in sys.modules}"
            " - set(sys.stdlib_module_names) - {'tunelz', '__main__'}))")
    result = subprocess.run([sys.executable, "-S", "-I", "-B", "-c", code],
                            capture_output=True, encoding="utf-8", check=True)
    assert result.stdout == "[]\n[]\n"
