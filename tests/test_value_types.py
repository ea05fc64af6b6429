"""Contract of the public value types: construction, equality, hashing,
immutability, repr, pickling and copying, whatever class machinery
implements them."""

import copy
import pickle
from enum import Enum
from fractions import Fraction

import pytest

import tunelz
from tunelz import (
    AbcTune,
    Algorithm,
    BackRef,
    BaselineCurve,
    BaselinePoint,
    Category,
    ComplexityReport,
    CorpusStats,
    ErrorKind,
    HistogramSpec,
    Literal,
    Lz78Token,
    NormalizationError,
    QuaverSequence,
    TokenStream,
    TuneRecord,
)

POINT = BaselinePoint(96, 1.25, 0.5)
HIST = HistogramSpec(2, 1.0, 2.0, (1, 0))
SEQ = QuaverSequence("ab", Category.JIG)

# (type, fields in declaration order as (name, value), exact repr)
CASES = [
    (Literal, [("symbol", "a")], "Literal(symbol='a')"),
    (BackRef, [("start", 0), ("length", 2)], "BackRef(start=0, length=2)"),
    (Lz78Token, [("prefix_index", 1), ("extension", "d")],
     "Lz78Token(prefix_index=1, extension='d')"),
    (TokenStream,
     [("algorithm", Algorithm.LZ77), ("tokens", (Literal("a"), BackRef(0, 2))),
      ("source_length", 3)],
     "TokenStream(algorithm=<Algorithm.LZ77: 'lz77'>, tokens=(Literal(symbol='a'), "
     "BackRef(start=0, length=2)), source_length=3)"),
    (BaselinePoint, [("length", 96), ("mean_ratio", 1.25), ("std_dev", 0.5)],
     "BaselinePoint(length=96, mean_ratio=1.25, std_dev=0.5)"),
    (BaselineCurve,
     [("alphabet_size", 13), ("samples_per_length", 10), ("points", (POINT,)),
      ("rng_seed", 7), ("algorithm", Algorithm.LZ78)],
     "BaselineCurve(alphabet_size=13, samples_per_length=10, points=(BaselinePoint("
     "length=96, mean_ratio=1.25, std_dev=0.5),), rng_seed=7, "
     "algorithm=<Algorithm.LZ78: 'lz78'>)"),
    (QuaverSequence, [("symbols", "ab"), ("category", Category.REEL)],
     "QuaverSequence(symbols='ab', category=<Category.REEL: 'reel'>)"),
    (AbcTune,
     [("reference_number", 1), ("title", "T"), ("meter", (6, 8)),
      ("unit_note_length", Fraction(1, 8)), ("key", "G"), ("body", "AB"),
      ("rhythm", "jig")],
     "AbcTune(reference_number=1, title='T', meter=(6, 8), "
     "unit_note_length=Fraction(1, 8), key='G', body='AB', rhythm='jig')"),
    (TuneRecord,
     [("id", "7"), ("name", "N"), ("category", Category.JIG), ("key", "D"),
      ("abc", "AB"), ("outcome", SEQ)],
     "TuneRecord(id='7', name='N', category=<Category.JIG: 'jig'>, key='D', abc='AB', "
     "outcome=QuaverSequence(symbols='ab', category=<Category.JIG: 'jig'>))"),
    (ComplexityReport,
     [("id", "7"), ("name", "N"), ("category", Category.REEL), ("length", 128),
      ("lz77_tokens", 40), ("lz78_tokens", 50), ("ratio_lz77", Fraction(16, 5)),
      ("ratio_lz78", Fraction(64, 25)), ("normalized_ratio", 3.5)],
     "ComplexityReport(id='7', name='N', category=<Category.REEL: 'reel'>, length=128, "
     "lz77_tokens=40, lz78_tokens=50, ratio_lz77=Fraction(16, 5), "
     "ratio_lz78=Fraction(64, 25), normalized_ratio=3.5)"),
    (HistogramSpec, [("bin_count", 2), ("lower", 1.0), ("upper", 2.0), ("counts", (1, 0))],
     "HistogramSpec(bin_count=2, lower=1.0, upper=2.0, counts=(1, 0))"),
    (CorpusStats,
     [("category", Category.REEL), ("count", 1), ("mean_ratio", 1.5), ("std_dev", 0.0),
      ("min", ("7", Fraction(3, 2))), ("max", ("7", Fraction(3, 2))), ("histogram", HIST),
      ("degenerate", True)],
     "CorpusStats(category=<Category.REEL: 'reel'>, count=1, mean_ratio=1.5, std_dev=0.0, "
     "min=('7', Fraction(3, 2)), max=('7', Fraction(3, 2)), histogram=HistogramSpec("
     "bin_count=2, lower=1.0, upper=2.0, counts=(1, 0)), degenerate=True)"),
]
MUTABLE = (AbcTune, TuneRecord)
# last field optional
WITH_DEFAULT = (Lz78Token, BaselineCurve, ComplexityReport, CorpusStats, AbcTune)
ALL = pytest.mark.parametrize("cls, fields, text", CASES, ids=[c[0].__name__ for c in CASES])
FROZEN = pytest.mark.parametrize(
    "cls, fields, text", [c for c in CASES if c[0] not in MUTABLE],
    ids=[c[0].__name__ for c in CASES if c[0] not in MUTABLE])


def build(cls, fields):
    return cls(*[value for _, value in fields])


def test_every_public_value_type_is_covered():
    classes = [getattr(tunelz, name) for name in tunelz.__all__]
    values = {c for c in classes if isinstance(c, type) and not issubclass(c, (Enum, Exception))}
    assert values == {cls for cls, _, _ in CASES}


@ALL
def test_positional_and_keyword_construction_agree(cls, fields, text):
    by_position = build(cls, fields)
    by_keyword = cls(**dict(fields))
    for name, value in fields:
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    assert cls.__match_args__ == tuple(name for name, _ in fields)


@ALL
def test_wrong_field_sets_are_type_errors(cls, fields, text):
    values = [value for _, value in fields]
    with pytest.raises(TypeError):
        cls(*values, "extra")
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0][0]: values[0]})  # first field given twice
    if cls not in WITH_DEFAULT:
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_defaults():
    assert Lz78Token(3).extension is None
    assert BaselineCurve(13, 10, (POINT,), 7).algorithm is Algorithm.LZ77
    report = ComplexityReport("7", "N", Category.REEL, 128, 40, 50, Fraction(16, 5),
                              Fraction(64, 25))
    assert report.normalized_ratio is None
    stats = CorpusStats(Category.JIG, 2, 1.5, 0.1, ("a", Fraction(1)), ("b", Fraction(2)), HIST)
    assert stats.degenerate is False
    tune = AbcTune(1, "T", (4, 4), Fraction(1, 8), "G", "AB")
    assert tune.rhythm is None


@ALL
def test_equality_is_field_wise_and_type_strict(cls, fields, text):
    obj = build(cls, fields)
    assert obj == build(cls, fields)
    assert not obj != build(cls, fields)
    values = tuple(value for _, value in fields)
    assert obj != values
    assert not obj == values
    assert obj != object()
    for other, other_fields, _ in CASES:
        if other is not cls:
            assert obj != build(other, other_fields)
    name, value = fields[-1]
    changed = cls(**{**dict(fields), name: "changed"})
    assert obj != changed
    assert not obj == changed


@FROZEN
def test_frozen_types_hash_by_fields(cls, fields, text):
    a, b = build(cls, fields), build(cls, fields)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("cls", MUTABLE, ids=[cls.__name__ for cls in MUTABLE])
def test_mutable_records_are_unhashable_and_assignable(cls):
    fields = next(f for c, f, _ in CASES if c is cls)
    obj = build(cls, fields)
    with pytest.raises(TypeError):
        hash(obj)
    for name, _ in fields:
        setattr(obj, name, "new")
        assert getattr(obj, name) == "new"


@FROZEN
def test_frozen_fields_refuse_assignment_and_deletion(cls, fields, text):
    obj = build(cls, fields)
    for name, value in fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, "new")
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.no_such_field = 1


@ALL
def test_repr(cls, fields, text):
    assert repr(build(cls, fields)) == text


@ALL
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trip(cls, fields, text, protocol):
    obj = build(cls, fields)
    back = pickle.loads(pickle.dumps(obj, protocol))
    assert type(back) is cls
    assert back == obj
    assert repr(back) == text


@ALL
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
def test_copies_equal_the_original(cls, fields, text, duplicate):
    obj = build(cls, fields)
    twin = duplicate(obj)
    assert type(twin) is cls
    assert twin == obj
    assert repr(twin) == text


# A NormalizationError compares by identity, like any exception, so its
# duplicates are checked field by field, message included.
ERROR = NormalizationError(ErrorKind.WRONG_LENGTH, "96 quavers, expected 128", 3)


def pickled(protocol):
    return lambda obj: pickle.loads(pickle.dumps(obj, protocol))


DUPLICATES = {
    **{f"pickle{p}": pickled(p) for p in range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}
EVERY_DUPLICATE = pytest.mark.parametrize(
    "duplicate", list(DUPLICATES.values()), ids=list(DUPLICATES))


def error_fields(err):
    return type(err), err.kind, err.detail, err.location, err.args, str(err)


@EVERY_DUPLICATE
def test_normalization_error_survives_pickling_and_copying(duplicate):
    twin = duplicate(ERROR)
    assert twin is not ERROR
    assert error_fields(twin) == error_fields(ERROR)
    assert str(twin) == "wrong_length: 96 quavers, expected 128 (offset 3)"


@EVERY_DUPLICATE
def test_rejected_record_survives_pickling_and_copying(duplicate):
    record = TuneRecord("7", "N", Category.JIG, "D", "AB", ERROR)
    twin = duplicate(record)
    assert type(twin) is TuneRecord
    assert not twin.accepted
    assert [twin.id, twin.name, twin.category, twin.key, twin.abc] == ["7", "N", Category.JIG, "D", "AB"]
    assert error_fields(twin.outcome) == error_fields(ERROR)
