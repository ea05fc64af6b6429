"""Corpus ingestion, analysis, aggregation and ranking."""

import copy
import gc
import json
import pickle
import tracemalloc
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tunelz.baseline import BaselineCurve, BaselinePoint
from tunelz.corpus import (
    BAR_WIDTH,
    Category,
    ComplexityReport,
    EmptyCategoryError,
    IngestError,
    Order,
    aggregate,
    analyze,
    build_histogram,
    histogram_to_csv,
    histogram_to_text,
    ingest_abc_files,
    ingest_json_dump,
    rank,
    records_from_abc,
    reports_to_csv,
    stats_to_dict,
)
from tunelz.notation import ErrorKind, NormalizationError, QuaverSequence
from tunelz.corpus import TuneRecord
from tunelz.lz import Algorithm, compress_lz78, compression_ratio

import goldens

DATA_DIR = Path(__file__).parent / "data"

CURVE = BaselineCurve(
    13, 1000, (BaselinePoint(96, 1.23, 0.0), BaselinePoint(128, 1.29, 0.0)), 0
)


def make_report(id_, ratio, name=None, category=Category.REEL):
    tokens = int(128 / ratio)
    return ComplexityReport(
        id=id_,
        name=name or id_,
        category=category,
        length=128,
        lz77_tokens=tokens,
        lz78_tokens=tokens,
        ratio_lz77=Fraction(ratio).limit_denominator(10**6),
        ratio_lz78=Fraction(ratio).limit_denominator(10**6),
    )


# ------------------------------------------------------------------ ingest


def test_dump_ingestion_keeps_rejections(dump_path):
    records = ingest_json_dump(dump_path)
    assert len(records) == 4  # conservation: one record per entry
    by_id = {r.id: r for r in records}
    sally = by_id["27"]
    assert sally.accepted
    assert sally.category is Category.REEL
    assert sally.outcome.symbols == goldens.SALLY
    jig = by_id["1403"]  # setting id wins over tune id
    assert jig.accepted
    assert jig.category is Category.JIG
    polka = by_id["301"]
    assert not polka.accepted
    assert polka.category is Category.OTHER
    assert polka.outcome.kind is ErrorKind.WRONG_LENGTH
    rests = by_id["9917"]
    assert not rests.accepted
    assert rests.outcome.kind is ErrorKind.UNSUPPORTED_CONSTRUCT


def test_dump_body_holding_a_second_tune_is_rejected(tmp_path):
    tail = "\nX: 2\nK: G\nz z z [CEG] A,,"
    entries = [
        {"setting_id": "7", "name": "Tail", "type": "reel", "abc": goldens.SALLY + tail},
        {"setting_id": "8", "name": "Plain", "type": "reel", "abc": goldens.SALLY},
    ]
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    hidden, plain = ingest_json_dump(path)
    assert not hidden.accepted
    assert hidden.outcome.kind is ErrorKind.MALFORMED_HEADER
    assert "holds 2 tunes" in hidden.outcome.detail
    assert hidden.abc == goldens.SALLY + tail
    assert plain.accepted
    assert plain.outcome.symbols == goldens.SALLY


def test_dump_entry_with_an_oversized_number_fails_alone(tmp_path):
    nines = "9" * 5000
    entries = [
        {"setting_id": "1", "name": "Long note", "type": "reel", "abc": "A" + nines},
        {"setting_id": "2", "name": "Long meter", "type": "reel", "meter": "4/" + nines,
         "abc": goldens.SALLY},
        {"setting_id": "3", "name": "Plain", "type": "reel", "abc": goldens.SALLY},
    ]
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    note, meter, plain = ingest_json_dump(path)
    assert note.outcome.kind is ErrorKind.NON_QUAVER_DURATION
    assert meter.outcome.kind is ErrorKind.MALFORMED_HEADER
    assert plain.accepted
    assert plain.outcome.symbols == goldens.SALLY


@pytest.mark.parametrize("field, value", [
    ("name", "Sally\nGardens"),
    ("name", "Sally\rGardens"),
    ("name", "Sally\u2028Gardens"),
    ("name", "S\nX: 2"),
    ("type", "re\nel"),
    ("mode", "D\nminor"),
    ("meter", "4/4\n"),
], ids=["name-newline", "name-carriage-return", "name-line-separator", "name-x-line",
        "type-newline", "mode-newline", "meter-trailing-newline"])
def test_dump_fields_with_line_breaks_are_taken_as_given(tmp_path, field, value):
    entry = {"setting_id": "1", "name": "Sally", "type": "reel", "abc": goldens.SALLY}
    entry[field] = value
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    (record,) = ingest_json_dump(path)
    assert record.accepted, record.outcome
    assert record.outcome.symbols == goldens.SALLY
    assert record.name == entry["name"]
    assert record.key == entry.get("mode", "C")


@pytest.mark.parametrize("meter, shown", [
    ("4/4\nK: G", "'4/4\\nK: G'"),
    ("\n4/4", "'\\n4/4'"),
    ("4/\r4\n", "'4/\\r4'"),
], ids=["newline", "leading-newline", "carriage-return"])
def test_dump_meter_with_a_line_break_inside_is_malformed(tmp_path, meter, shown):
    entry = {"setting_id": "1", "name": "Sally", "type": "reel", "meter": meter,
             "abc": goldens.SALLY}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    (record,) = ingest_json_dump(path)
    assert record.outcome.kind is ErrorKind.MALFORMED_HEADER
    assert record.outcome.detail == f"unusable meter {shown}"


def test_dump_meter_is_read_without_its_comment(tmp_path):
    body = "ABcdef" * 16
    entry = {"setting_id": "1", "name": "Six", "type": "jig", "meter": "6/8 % jig", "abc": body}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    (record,) = ingest_json_dump(path)
    assert record.outcome == QuaverSequence(body, Category.JIG)


@pytest.mark.parametrize("type_name, body, category, shape", [
    ("Jig", "ABcdef" * 16, Category.JIG, Category.JIG),
    ("reel", goldens.SALLY, Category.REEL, Category.REEL),
    ("polka", goldens.SALLY, Category.OTHER, Category.REEL),
    ("other", goldens.SALLY, Category.OTHER, Category.REEL),
], ids=["jig", "reel", "unknown-type", "other"])
def test_dump_entry_without_a_meter_takes_the_standard_meter_of_its_type(
        tmp_path, type_name, body, category, shape):
    # a jig is read in 6/8, any other type in 4/4
    entry = {"setting_id": "1", "name": "T", "type": type_name, "abc": body}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    (record,) = ingest_json_dump(path)
    assert record.category is category
    assert record.outcome == QuaverSequence(body, shape)


@pytest.mark.parametrize("meter, body, offset", [
    ("4/0", goldens.SALLY, 0),
    ("4/4", "ABcd\nX: 2\nEFGA", 10),
    ("4/4", "ABcd\nX: two\nK:\nEFGA", 5),
], ids=["written-meter-line", "second-block-body", "second-block-x-line"])
def test_dump_header_error_offset_is_a_body_offset(tmp_path, meter, body, offset):
    entry = {"setting_id": "1", "name": "Sally", "type": "reel", "meter": meter, "abc": body}
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    (record,) = ingest_json_dump(path)
    assert record.outcome.kind is ErrorKind.MALFORMED_HEADER
    assert record.outcome.location == offset
    assert str(record.outcome).endswith(f"(offset {offset})")


def test_dump_type_mapping_is_case_insensitive(dump_path):
    records = ingest_json_dump(dump_path)
    assert {r.id: r.category.value for r in records}["1403"] == "jig"


def test_empty_dump(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]", encoding="utf-8")
    assert ingest_json_dump(path) == []


def test_dump_must_be_an_array(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"not": "an array"}', encoding="utf-8")
    with pytest.raises(IngestError):
        ingest_json_dump(path)


def test_dump_entry_missing_required_key(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text('[{"name": "No Body", "type": "reel"}]', encoding="utf-8")
    with pytest.raises(IngestError) as exc:
        ingest_json_dump(path)
    assert str(exc.value) == f"dump {path} entry 0 lacks field 'setting_id' or 'tune_id'"
    path.write_text('[{"tune_id": 7, "name": "No Body", "type": "reel"}]', encoding="utf-8")
    with pytest.raises(IngestError) as exc:
        ingest_json_dump(path)
    assert str(exc.value) == f"dump {path} entry 0 lacks field 'abc'"


_SALLY_ENTRY = {"setting_id": "1", "name": "Sally", "type": "reel", "abc": goldens.SALLY}


@pytest.mark.parametrize("fields, message", [
    ({"setting_id": True}, "setting_id is not a string or a JSON integer: true"),
    ({"setting_id": 1.5}, "setting_id is not a string or a JSON integer: 1.5"),
    ({"setting_id": ["1"]}, 'setting_id is not a string or a JSON integer: ["1"]'),
    ({"setting_id": None, "tune_id": {"k": 1}},
     'tune_id is not a string or a JSON integer: {"k": 1}'),
    ({"name": ["a"]}, 'name is not a string: ["a"]'),
    ({"name": None}, "name is not a string: null"),
    ({"type": 1}, "type is not a string: 1"),
    ({"type": None}, "type is not a string: null"),
    ({"abc": None}, "abc is not a string: null"),
    ({"abc": {"k": 1}}, 'abc is not a string: {"k": 1}'),
    ({"meter": 4}, "meter is not a string or null: 4"),
    ({"meter": ["6/8"]}, 'meter is not a string or null: ["6/8"]'),
    ({"mode": False}, "mode is not a string or null: false"),
    ({"mode": {"k": 1}}, 'mode is not a string or null: {"k": 1}'),
], ids=["id-bool", "id-float", "id-list", "tune-id-object", "name-list", "name-null",
        "type-number", "type-null", "abc-null", "abc-object", "meter-number", "meter-list",
        "mode-bool", "mode-object"])
def test_dump_entry_field_that_is_not_a_string_is_refused(tmp_path, fields, message):
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([_SALLY_ENTRY, {**_SALLY_ENTRY, **fields}]), encoding="utf-8")
    with pytest.raises(IngestError) as exc:
        ingest_json_dump(path)
    assert str(exc.value) == f"dump {path} entry 1 {message}"


@pytest.mark.parametrize("entry", [5, ["x"]], ids=["number", "list"])
def test_dump_entry_that_is_not_an_object_is_refused(tmp_path, entry):
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([_SALLY_ENTRY, entry]), encoding="utf-8")
    with pytest.raises(IngestError) as exc:
        ingest_json_dump(path)
    assert str(exc.value) == f"dump {path} entry 1 is not an object: {json.dumps(entry)}"


def test_dump_offset_after_a_comment_counts_in_the_abc_body(tmp_path):
    body = "AB % a comment here\nCDz"
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([{**_SALLY_ENTRY, "abc": body}]), encoding="utf-8")
    (record,) = ingest_json_dump(path)
    assert record.outcome.kind is ErrorKind.UNSUPPORTED_CONSTRUCT
    assert record.outcome.location == body.index("z") == 22


@pytest.mark.parametrize("fields, record_id, key", [
    ({"setting_id": 27}, "27", "C"),
    ({"setting_id": 0}, "0", "C"),
    ({"setting_id": None, "tune_id": 5}, "5", "C"),
    ({"setting_id": "", "tune_id": "5"}, "5", "C"),
    ({"meter": None, "mode": None}, "1", "C"),
    ({"meter": "", "mode": ""}, "1", "C"),
    ({"meter": "4/4", "mode": "Dmix"}, "1", "Dmix"),
    # a meter blank once its comment is blanked takes the default too
    ({"meter": "% jig"}, "1", "C"),
    ({"meter": " % 6/8 "}, "1", "C"),
    ({"meter": "   "}, "1", "C"),
    ({"meter": "\n"}, "1", "C"),
], ids=["int-id", "zero-id", "int-tune-id", "empty-setting-id", "null-defaults",
        "empty-defaults", "given", "comment-meter", "spaced-comment-meter", "spaces-meter",
        "line-break-meter"])
def test_dump_entry_takes_integer_ids_and_null_or_empty_defaults(tmp_path, fields, record_id, key):
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([{**_SALLY_ENTRY, **fields}]), encoding="utf-8")
    (record,) = ingest_json_dump(path)
    assert (record.id, record.key) == (record_id, key)
    assert record.outcome == QuaverSequence(goldens.SALLY, Category.REEL)


def test_rejected_dump_entry_keeps_no_hold_on_the_dump(tmp_path):
    filler = "x" * 4_000_000
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([{**_SALLY_ENTRY, "abc": "ABcd", "notes": filler}]),
                    encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        (record,) = ingest_json_dump(path)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.outcome.kind is ErrorKind.WRONG_LENGTH
    # the rejection must not pin the dump's text or its decoded entries
    assert retained < len(filler) // 20


_REJECTED_DUMP = [
    {**_SALLY_ENTRY, "meter": "4/4\nK: G"},
    {**_SALLY_ENTRY, "meter": "4/0"},
    {**_SALLY_ENTRY, "abc": "ABcd\nX: 2\nEFGA"},
    {**_SALLY_ENTRY, "abc": "ABcd\nX: 2\nK: G\nEFGA"},
    {**_SALLY_ENTRY, "abc": "ABcd"},
    {**_SALLY_ENTRY, "abc": "ABzd"},
]
_REJECTED_ABC = "X: 1\nM: 4/4\nK: G\nABcd\n\nX: 2\nK: G\nABzd\n\nX: 3\nK: G\nA/B/cd\n"
_SHORT = ("wrong_length: meter 4/4 with 4 quavers is not a standard-length reel "
          "(4/4, 128) or jig (6/8, 96) (offset 0)")
_REST = "unsupported_construct: rest has no symbol in the pitch alphabet (offset 2)"
_REJECTIONS = {
    "dump": [
        "malformed_header: unusable meter '4/4\\nK: G' (offset 0)",
        "malformed_header: unusable meter '4/0' (offset 0)",
        "malformed_header: expected a header field before K:, got 'EFGA' (offset 10)",
        "malformed_header: abc body holds 2 tunes (an X: line starts a new one); "
        "a dump entry must hold exactly one (offset 0)",
        _SHORT,
        _REST,
    ],
    "abc": [_SHORT, _REST, "non_quaver_duration: A lasts 1/2 quavers (offset 0)"],
}


def _error_fields(err):
    return type(err), err.kind, err.detail, err.location, err.args, str(err)


@pytest.mark.parametrize("route", sorted(_REJECTIONS))
def test_rejected_outcome_keeps_no_traceback_or_context(tmp_path, route):
    if route == "dump":
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(_REJECTED_DUMP), encoding="utf-8")
        records = ingest_json_dump(path)
    else:
        path = tmp_path / "tunes.abc"
        path.write_text(_REJECTED_ABC, encoding="utf-8")
        records = ingest_abc_files([path])
    assert [str(r.outcome) for r in records] == _REJECTIONS[route]
    for record in records:
        assert record.outcome.__traceback__ is None
        assert record.outcome.__context__ is None
        for duplicate in (copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))):
            assert _error_fields(duplicate(record.outcome)) == _error_fields(record.outcome)


def test_dump_not_json(tmp_path):
    path = tmp_path / "busted.json"
    path.write_text("not json at all", encoding="utf-8")
    with pytest.raises(IngestError):
        ingest_json_dump(path)


def test_abc_file_ingestion(sally_path):
    records = ingest_abc_files([sally_path])
    assert len(records) == 1
    record = records[0]
    assert record.id == "sally_gardens:1"
    assert record.accepted
    assert record.category is Category.REEL
    assert len(record.outcome.symbols) == 128


def test_crlf_abc_file_reads_as_its_lf_copy(tmp_path, sally_path):
    crlf = tmp_path / sally_path.name
    crlf.write_bytes(sally_path.read_bytes().replace(b"\n", b"\r\n"))
    assert ingest_abc_files([crlf]) == ingest_abc_files([sally_path])


# the characters at which str.splitlines ends a line; a comment runs up to the first
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
ABC_FILES = sorted(path.name for path in DATA_DIR.glob("*.abc"))


def _as_read(record: TuneRecord) -> tuple:
    outcome = record.outcome
    if not record.accepted:
        outcome = (outcome.kind, outcome.detail)
    return record.id, record.name, record.category, record.key, outcome


@pytest.mark.parametrize("name", ABC_FILES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_comment_on_any_line_leaves_every_record_as_read(name, data):
    source = (DATA_DIR / name).read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    comments = data.draw(st.dictionaries(
        st.integers(0, len(lines) - 1),
        st.tuples(st.sampled_from(["", " ", "\t"]),
                  st.text(st.characters(blacklist_characters=LINE_BREAKS), max_size=20)),
        min_size=1))
    for i, (space, comment) in comments.items():
        content = lines[i].rstrip(LINE_BREAKS)
        lines[i] = f"{content}{space}%{comment}{lines[i][len(content):]}"
    expected = [_as_read(r) for r in records_from_abc(source, "f")]
    assert [_as_read(r) for r in records_from_abc("".join(lines), "f")] == expected


def test_abc_ingestion_no_paths():
    assert ingest_abc_files([]) == []


def test_abc_ingestion_mixed_outcomes(jig_path):
    records = ingest_abc_files([jig_path])
    assert len(records) == 2
    jig, truncated = records
    assert jig.accepted and jig.category is Category.JIG
    assert not truncated.accepted
    assert truncated.outcome.kind is ErrorKind.WRONG_LENGTH


def test_abc_ingestion_unreadable_path(tmp_path):
    with pytest.raises(IngestError):
        ingest_abc_files([tmp_path / "nowhere.abc"])


def test_abc_file_not_utf8_names_the_path(tmp_path):
    path = tmp_path / "latin1.abc"
    path.write_bytes(b"X:1\nT:Caf\xe9\nK:G\nABcd\n")
    with pytest.raises(IngestError) as exc:
        ingest_abc_files([path])
    assert str(exc.value).startswith(f"cannot read ABC file {path}: 'utf-8' codec")


@pytest.mark.parametrize("content, message", [
    pytest.param(b"\xff[]", "cannot read dump {}: 'utf-8' codec", id="not-utf8"),
    pytest.param(b'[{"setting_id": ' + b"9" * 5000 + b"}]",
                 "dump {} is not valid JSON: an integer of more than 100 digits",
                 id="5000-digit-id"),
    pytest.param(b"[" * 100_000, "dump {} is not valid JSON: maximum recursion",
                 id="nested-100000-deep"),
])
def test_unloadable_dump_names_the_path(tmp_path, content, message):
    path = tmp_path / "dump.json"
    path.write_bytes(content)
    with pytest.raises(IngestError) as exc:
        ingest_json_dump(path)
    assert str(exc.value).startswith(message.format(path))


def test_category_falls_back_to_normalized_meter(tmp_path):
    path = tmp_path / "nor.abc"
    path.write_text("X:1\nT:Unlabelled\nM:6/8\nK:D\n"
                    "|: FAF DED | FAF A2F | GBG EFE | GBG B2G :|\n"
                    "|: faf ded | faf a2f | gbg efe | gbg b2g :|\n",
                    encoding="utf-8")
    (record,) = ingest_abc_files([path])
    assert record.category is Category.JIG


# ----------------------------------------------------------------- analyze


def test_analyze_sally(sally_path):
    reports = analyze(ingest_abc_files([sally_path]))
    assert len(reports) == 1
    report = reports[0]
    assert report.length == 128
    assert report.lz77_tokens == 47
    assert report.lz78_tokens == 56
    assert report.ratio_lz77 == Fraction(128, 47)
    assert report.ratio_lz78 == Fraction(128, 56)
    assert report.normalized_ratio is None


def test_analyze_star_ratio_exactly_two(extreme_reels_path):
    reports = analyze(ingest_abc_files([extreme_reels_path]))
    star = next(r for r in reports if "Star" in r.name)
    assert star.ratio_lz77 == 2


def test_analyze_lz78_counts_equal_the_coders_stream(data_dir, dump_path):
    records = ingest_abc_files(sorted(data_dir.glob("*.abc"))) + ingest_json_dump(dump_path)
    accepted = [r for r in records if r.accepted]
    reports = analyze(records)
    assert [r.id for r in reports] == [r.id for r in accepted]
    assert len(reports) == 6  # every accepted tune in tests/data
    for record, report in zip(accepted, reports):
        stream = compress_lz78(record.outcome.symbols)
        assert report.lz78_tokens == len(stream.tokens), record.id
        assert report.ratio_lz78 == compression_ratio(stream), record.id
        assert type(report.ratio_lz78) is Fraction


def test_analyze_empty():
    assert analyze([]) == []


def test_analyze_skips_rejected_records(jig_path):
    records = ingest_abc_files([jig_path])
    reports = analyze(records)
    assert len(reports) == 1
    assert len(records) - len(reports) == 1  # skip summary from the records


def test_analyze_with_normalization(sally_path):
    reports = analyze(ingest_abc_files([sally_path]), CURVE, 128)
    assert reports[0].normalized_ratio == pytest.approx(float(Fraction(128, 47)))


def test_analyze_normalizes_jig_up_to_reel_length(jig_path):
    records = [r for r in ingest_abc_files([jig_path]) if r.accepted]
    (report,) = analyze(records, CURVE, 128)
    expected = float(report.ratio_lz77) * 1.29 / 1.23
    assert report.normalized_ratio == pytest.approx(expected)


def test_analyze_requires_curve_and_reference_together(sally_path):
    records = ingest_abc_files([sally_path])
    with pytest.raises(ValueError):
        analyze(records, CURVE, None)
    with pytest.raises(ValueError):
        analyze(records, None, 128)


def test_analyze_refuses_a_curve_of_lz78_ratios(sally_path):
    # the reports' ratios are LZ77 ratios, so only an LZ77 curve can rescale them
    curve = BaselineCurve(13, 1000, CURVE.points, 0, Algorithm.LZ78)
    with pytest.raises(ValueError, match="^length normalization needs an lz77 baseline "
                                         "curve, not lz78$"):
        analyze(ingest_abc_files([sally_path]), curve, 128)


# --------------------------------------------------------------- aggregate


def test_aggregate_extremes(extreme_reels_path):
    reports = analyze(ingest_abc_files([extreme_reels_path]))
    stats = aggregate(reports, Category.REEL)
    assert stats.count == 2
    assert stats.max[0] == "extreme_reels:2"
    assert float(stats.max[1]) == pytest.approx(128 / 26)
    assert stats.min[0] == "extreme_reels:3"
    assert stats.min[1] == 2
    assert stats.min[1] <= Fraction(stats.mean_ratio).limit_denominator() <= stats.max[1]


def test_aggregate_single_report_is_degenerate():
    stats = aggregate([make_report("only", 2.0)], Category.REEL)
    assert stats.count == 1
    assert stats.std_dev == 0.0
    assert stats.degenerate


def test_aggregate_constant_ratios_fill_one_bin():
    reports = [make_report(f"r{i}", 2.0) for i in range(3)]
    stats = aggregate(reports, Category.REEL)
    assert stats.mean_ratio == 2.0
    assert stats.std_dev == 0.0
    assert sum(stats.histogram.counts) == 3
    assert stats.histogram.counts[0] == 3


def test_aggregate_empty_category():
    with pytest.raises(EmptyCategoryError):
        aggregate([make_report("a", 2.0)], Category.JIG)


def test_aggregate_uses_sample_std():
    reports = [make_report("a", 2.0), make_report("b", 3.0)]
    stats = aggregate(reports, Category.REEL)
    assert stats.std_dev == pytest.approx(0.7071067811865476)


def test_aggregate_breaks_ties_at_both_extremes_by_name_then_id():
    reports = [
        make_report("5", 3.0, name="Bravo"),
        make_report("4", 3.0, name="Alpha"),
        make_report("3", 3.0, name="Alpha"),
        make_report("2", 1.0, name="Bravo"),
        make_report("1", 1.0, name="Bravo"),
        make_report("0", 2.0, name="Alpha"),
    ]
    stats = aggregate(reports, Category.REEL)
    assert (stats.max[0], stats.min[0]) == ("3", "1")


def test_histogram_mass_and_last_bin():
    hist = build_histogram([1.0, 1.5, 2.0, 2.0], bin_count=4)
    assert sum(hist.counts) == 4
    assert hist.counts[-1] == 2  # maxima land in the last bin
    assert hist.lower == 1.0 and hist.upper == 2.0


@given(st.lists(st.floats(min_value=1.0, max_value=10.0), min_size=1, max_size=60))
@settings(max_examples=150)
def test_histogram_mass_property(values):
    hist = build_histogram(values)
    assert hist.bin_count == 20
    assert sum(hist.counts) == len(values)


def test_rank_easiest_first(extreme_reels_path):
    reports = analyze(ingest_abc_files([extreme_reels_path]))
    ranked = rank(reports, Order.EASIEST_FIRST)
    assert [r.name for r in ranked] == ["The Concertina Reel", "The Star of Munster"]
    assert rank(reports, Order.HARDEST_FIRST)[0].name == "The Star of Munster"


def test_rank_first_matches_aggregate_max(extreme_reels_path):
    reports = analyze(ingest_abc_files([extreme_reels_path]))
    stats = aggregate(reports, Category.REEL)
    assert rank(reports, Order.EASIEST_FIRST)[0].id == stats.max[0]


def test_rank_breaks_ties_by_name_then_id():
    reports = [
        make_report("2", 2.0, name="Bravo"),
        make_report("1", 2.0, name="Alpha"),
        make_report("0", 2.0, name="Bravo"),
    ]
    assert [r.id for r in rank(reports)] == ["1", "0", "2"]


def test_rank_empty():
    assert rank([]) == []


# ----------------------------------------------------------------- exports


def test_reports_csv(extreme_reels_path):
    reports = analyze(ingest_abc_files([extreme_reels_path]))
    text = reports_to_csv(reports)
    lines = text.strip().splitlines()
    assert lines[0] == ("id,name,category,length,lz77_tokens,lz78_tokens,"
                        "ratio_lz77,ratio_lz78,normalized_ratio")
    assert len(lines) == 3
    assert "extreme_reels:2,The Concertina Reel,reel,128,26" in lines[1]


def test_stats_json_round_trips(extreme_reels_path):
    reports = analyze(ingest_abc_files([extreme_reels_path]))
    payload = stats_to_dict(aggregate(reports, Category.REEL))
    blob = json.dumps(payload, sort_keys=True)
    assert json.loads(blob) == payload
    assert payload["histogram"]["bin_count"] == 20
    assert sum(payload["histogram"]["counts"]) == payload["count"]


def test_histogram_csv_shape():
    hist = build_histogram([2.0, 2.5, 3.0], bin_count=5)
    lines = histogram_to_csv(hist).strip().splitlines()
    assert lines[0] == "bin_lower,bin_upper,count"
    assert len(lines) == 6
    assert lines[1].startswith("2.000000,")


def test_histogram_text_bars():
    hist = build_histogram([2.0, 2.0, 3.0], bin_count=2)
    text = histogram_to_text(hist)
    assert "#" * BAR_WIDTH + " 2" in text  # the fullest bin's bar is BAR_WIDTH long
    assert "|" + "#" * (BAR_WIDTH // 2) + " 1" in text
    assert text.count("\n") == 2


def test_histogram_needs_a_value():
    with pytest.raises(ValueError, match="^histogram needs at least one value$"):
        build_histogram([])


def test_pipeline_output_is_deterministic(extreme_reels_path, sally_path):
    def run():
        reports = analyze(ingest_abc_files([sally_path, extreme_reels_path]))
        stats = aggregate(reports, Category.REEL)
        return reports_to_csv(reports) + json.dumps(stats_to_dict(stats), sort_keys=True)

    assert run() == run()


def test_stats_and_csv_rows_do_not_depend_on_report_order(data_dir):
    records = ingest_abc_files(sorted(data_dir.glob("*.abc")))
    reports = analyze(records + ingest_json_dump(data_dir / "thesession_sample.json"), CURVE, 128)
    # the two Sally Gardens reels tie on ratio, and so do the two jigs, which
    # are also both extremes of their category
    tied = {}
    for r in reports:
        tied.setdefault((r.category, r.ratio_lz77), []).append(r.id)
    assert sorted(len(ids) for ids in tied.values()) == [1, 1, 2, 2]
    header, *lines = reports_to_csv(reports).splitlines(keepends=True)
    row = {r.id: line for r, line in zip(reports, lines)}

    def stats(order):
        return json.dumps([stats_to_dict(aggregate(order, c)) for c in (Category.REEL, Category.JIG)],
                          sort_keys=True)

    expected = stats(reports)
    for order in permutations(reports):  # given, reversed and every other order
        assert stats(order) == expected
        assert reports_to_csv(order) == header + "".join(row[r.id] for r in order)


def test_records_with_direct_sequences_analyze_cleanly():
    # analyze() accepts hand-built records, not just ingested ones
    record = TuneRecord(
        id="synthetic",
        name="Synthetic",
        category=Category.REEL,
        key="D",
        abc="",
        outcome=QuaverSequence("AB" * 64, Category.REEL),
    )
    (report,) = analyze([record])
    assert report.lz77_tokens < 10
