"""Random-string baseline curve and length normalization."""

import json
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tunelz import baseline
from tunelz.baseline import (
    BaselineCurve,
    BaselinePoint,
    CurveRangeError,
    baseline_at,
    curve_from_json,
    curve_to_csv,
    curve_to_json,
    estimate_baseline,
    normalize_ratio,
)
from tunelz.lz import Algorithm
from tunelz.notation import Category

import oracles

# curve pinned to the published random-string means at the two tune lengths
REFERENCE_CURVE = BaselineCurve(
    alphabet_size=13,
    samples_per_length=1000,
    points=(BaselinePoint(96, 1.23, 0.0), BaselinePoint(128, 1.29, 0.0)),
    rng_seed=0,
)


def test_reproducible_for_fixed_seed():
    a = estimate_baseline([20, 40], alphabet_size=5, samples=50, seed=11)
    b = estimate_baseline([20, 40], alphabet_size=5, samples=50, seed=11)
    assert a == b


def test_seed_changes_samples():
    a = estimate_baseline([40], alphabet_size=5, samples=50, seed=1)
    b = estimate_baseline([40], alphabet_size=5, samples=50, seed=2)
    assert a.points != b.points


def test_points_sorted_and_deduplicated():
    curve = estimate_baseline([40, 20, 40], alphabet_size=5, samples=10, seed=0)
    assert [point.length for point in curve.points] == [20, 40]


def test_length_one_is_a_single_literal():
    curve = estimate_baseline([1], alphabet_size=13, samples=25, seed=3)
    (point,) = curve.points
    assert point.mean_ratio == 1.0
    assert point.std_dev == 0.0


def test_mean_ratio_never_below_one():
    curve = estimate_baseline([5, 30, 60], alphabet_size=2, samples=60, seed=5)
    assert all(p.mean_ratio >= 1.0 for p in curve.points)


def test_longer_strings_compress_better():
    curve = estimate_baseline([50, 200], alphabet_size=13, samples=200, seed=7)
    by_length = {p.length: p.mean_ratio for p in curve.points}
    assert by_length[200] > by_length[50]


def test_lz78_baseline_is_supported():
    curve = estimate_baseline([30], alphabet_size=5, samples=20, seed=1,
                              algorithm=Algorithm.LZ78)
    assert curve.points[0].mean_ratio >= 1.0


@pytest.mark.parametrize("kwargs", [
    {"lengths": []},
    {"lengths": [0]},
    {"lengths": [10], "alphabet_size": 0},
    {"lengths": [10], "alphabet_size": 27},
    {"lengths": [10], "samples": 0},
])
def test_precondition_violations(kwargs):
    with pytest.raises(ValueError):
        estimate_baseline(**{"alphabet_size": 13, "samples": 5, **kwargs})


def test_the_whole_lowercase_alphabet_is_drawn_and_loads_back():
    curve = estimate_baseline([40], alphabet_size=26, samples=5, seed=1)
    assert curve.alphabet_size == 26
    assert curve_from_json(curve_to_json(curve)) == curve


def test_length_past_the_ceiling_draws_no_string(monkeypatch):
    drawn = []
    monkeypatch.setattr(baseline, "_random_string", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=r"^lengths must be in 1\.\.2000$"):
        estimate_baseline([10, baseline.MAX_LENGTH + 1], samples=2)
    assert drawn == []


@pytest.mark.parametrize("size", range(1, 27))
def test_random_string_is_the_string_choices_draws(size):
    letters = baseline._LOWERCASE[:size]
    for length in (1, 2, 50, 128, 200, baseline.MAX_LENGTH):
        for seed in (0, 7, 2**40):
            for index in (0, 1, 999):
                assert (baseline._random_string(letters, length, seed, index)
                        == oracles.choices_draw(letters, length, seed, index))


@pytest.mark.parametrize("size", range(1, 27))
def test_letter_tables_hold_the_letter_every_draw_of_a_key_picks(size):
    letters = baseline._LOWERCASE[:size]
    for bits, table in zip((8, 16), baseline._letter_tables(letters)):
        assert len(table) == 1 << bits
        # n letters leave n - (n & -n) keys open: none for a power of 2
        assert table.count(0) == size - (size & -size)
        step = 1 / (1 << bits)
        for k in range(1 << bits):
            # the letters of the least and the greatest random() with these top bits
            least = math.floor(k * step * size)
            greatest = math.floor(((k + 1) * step - 2**-53) * size)
            assert table[k] == (ord(letters[least]) if least == greatest else 0)


def test_random_string_computes_a_letter_two_bytes_leave_open(monkeypatch):
    exact = []
    letter = baseline._exact_letter
    monkeypatch.setattr(baseline, "_exact_letter",
                        lambda *args: exact.append(args) or letter(*args))
    for index in range(10):
        assert (baseline._random_string("abcdefghijklm", baseline.MAX_LENGTH, 0, index)
                == oracles.choices_draw("abcdefghijklm", baseline.MAX_LENGTH, 0, index))
    assert exact


PAPER_GRID = [50, 96, 100, 128, 150, 200]


def test_budget_admits_the_paper_grid_and_refuses_past_it_undrawn(monkeypatch):
    drawn = []
    monkeypatch.setattr(baseline, "_random_string",
                        lambda letters, length, seed, index: drawn.append(length) or "a" * length)
    cost = sum(PAPER_GRID) + len(PAPER_GRID) * baseline._DRAW_COST  # 820 per sample
    most = baseline.SYMBOL_BUDGET // cost
    for samples in (300, 1000, most):  # the benchmark's, the paper's and the largest
        estimate_baseline(PAPER_GRID + PAPER_GRID, samples=samples)  # a repeat costs nothing
        assert len(drawn) == samples * len(PAPER_GRID)
        drawn.clear()
    message = (rf"^samples \* sum of \(length \+ 16\) is {(most + 1) * cost}, "
               r"more than the budget of 1000000$")
    with pytest.raises(ValueError, match=message):
        estimate_baseline(PAPER_GRID, samples=most + 1)
    assert drawn == []


def test_largest_admitted_request_finishes_within_30_s():
    # a sample's parse time per symbol grows with its length and is greatest
    # over 2 symbols, so the slowest admitted request spends the whole budget
    # on the longest length over 2 symbols (about 3.5 s on a 2-core x86-64 host)
    samples = baseline.SYMBOL_BUDGET // (baseline.MAX_LENGTH + baseline._DRAW_COST)
    with pytest.raises(ValueError, match="more than the budget"):
        estimate_baseline([baseline.MAX_LENGTH], alphabet_size=2, samples=samples + 1)
    start = time.perf_counter()
    curve = estimate_baseline([baseline.MAX_LENGTH], alphabet_size=2, samples=samples)
    assert time.perf_counter() - start < 30
    assert curve.samples_per_length == samples == 496


# ---------------------------------------------------------------- lookup


def test_exact_lookup():
    assert baseline_at(REFERENCE_CURVE, 96) == 1.23
    assert baseline_at(REFERENCE_CURVE, 128) == 1.29


def test_linear_interpolation_midpoint():
    curve = BaselineCurve(13, 10, (BaselinePoint(50, 1.0, 0.0),
                                   BaselinePoint(100, 2.0, 0.0)), 0)
    assert baseline_at(curve, 75) == pytest.approx(1.5)


def test_no_extrapolation():
    with pytest.raises(CurveRangeError):
        baseline_at(REFERENCE_CURVE, 300)
    with pytest.raises(CurveRangeError):
        baseline_at(REFERENCE_CURVE, 50)
    with pytest.raises(CurveRangeError, match="^baseline curve has no points$"):
        baseline_at(BaselineCurve(13, 10, (), 0), 96)


# ---------------------------------------------------------- normalization


def test_published_normalization_example():
    assert normalize_ratio(2.61, 96, 128, REFERENCE_CURVE) == pytest.approx(2.73, abs=0.01)


def test_readme_library_example_gives_its_commented_values(monkeypatch):
    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    code = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    *statements, last = code.strip().splitlines()
    monkeypatch.chdir(root)  # the example opens a path relative to the checkout
    names = {}
    exec("\n".join(statements), names)
    normalized = eval(last.split("#")[0], names)
    assert (len(names["seq"].symbols), names["seq"].category) == (128, Category.REEL)
    assert "# 128 one-letter symbols, category REEL" in code
    assert len(names["stream"].tokens) == 47 and "# 47 tokens" in code
    assert names["ratio"] == Fraction(128, 47) and "# Fraction(128, 47)" in code
    assert f"# \u2248 {normalized:.2f}: a jig's ratio at reel length" in code


def test_normalizing_down_scales_the_other_way():
    value = normalize_ratio(2.00, 128, 96, REFERENCE_CURVE)
    assert value == pytest.approx(2.00 * 1.23 / 1.29)


@given(
    ratio=st.floats(min_value=1.0, max_value=16.0),
    length=st.integers(min_value=96, max_value=128),
)
def test_normalization_identity(ratio, length):
    assert normalize_ratio(ratio, length, length, REFERENCE_CURVE) == ratio


@given(
    ratio=st.floats(min_value=1.0, max_value=16.0),
    lengths=st.tuples(
        st.integers(min_value=96, max_value=128),
        st.integers(min_value=96, max_value=128),
        st.integers(min_value=96, max_value=128),
    ),
)
@settings(max_examples=200)
def test_normalization_composes(ratio, lengths):
    l1, l2, l3 = lengths
    composed = normalize_ratio(
        normalize_ratio(ratio, l1, l2, REFERENCE_CURVE), l2, l3, REFERENCE_CURVE
    )
    direct = normalize_ratio(ratio, l1, l3, REFERENCE_CURVE)
    assert composed == pytest.approx(direct, rel=1e-12)


# ------------------------------------------------------------ persistence


def test_json_round_trip():
    curve = estimate_baseline([10, 20], alphabet_size=4, samples=12, seed=9)
    assert curve_from_json(curve_to_json(curve)) == curve


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_json_round_trip_keeps_the_coder(algorithm):
    curve = estimate_baseline([10, 20], alphabet_size=4, samples=12, seed=9, algorithm=algorithm)
    assert curve.algorithm is algorithm
    text = curve_to_json(curve)
    assert json.loads(text)["algorithm"] == algorithm.value
    assert curve_from_json(text) == curve


def test_json_curve_without_a_coder_holds_lz77_ratios():
    text = (Path(__file__).parent / "data" / "baseline_curve.json").read_text(encoding="utf-8")
    assert "algorithm" not in json.loads(text)
    assert curve_from_json(text).algorithm is Algorithm.LZ77


@pytest.mark.parametrize("changes, message", [
    ({"rng_seed": None}, "lacks field 'rng_seed'"),
    ({"points": [{"length": 96, "std_dev": 0.0}]}, "lacks field 'mean_ratio'"),
    ({"points": [{"length": 96, "mean_ratio": "x", "std_dev": 0.0}]},
     '^baseline curve point 0 mean_ratio is not a JSON number: "x"$'),
    ({"alphabet_size": [13]}, r"^baseline curve alphabet_size is not a JSON integer: \[13\]$"),
    ({"points": []}, "no points"),
    ({"points": [{"length": 128, "mean_ratio": 1.29, "std_dev": 0.0},
                 {"length": 96, "mean_ratio": 1.23, "std_dev": 0.0}]},
     "not strictly increasing: 128, 96"),
    ({"points": [{"length": 96, "mean_ratio": 1.23, "std_dev": 0.0},
                 {"length": 96, "mean_ratio": 1.23, "std_dev": 0.0}]},
     "not strictly increasing: 96, 96"),
    ({"points": [{"length": 96, "mean_ratio": 0, "std_dev": 0.0}]}, "finite and > 0"),
    ({"points": [{"length": 96, "mean_ratio": -1.2, "std_dev": 0.0}]}, "finite and > 0"),
    ({"points": [{"length": 96, "mean_ratio": float("inf"), "std_dev": 0.0}]},
     "finite and > 0"),
    # a count, length or seed is a JSON integer, a ratio or spread a JSON number;
    # int() and float() would have read each of these
    ({"points": [{"length": 96.7, "mean_ratio": 1.23, "std_dev": 0.0}]},
     "^baseline curve point 0 length is not a JSON integer: 96.7$"),
    ({"alphabet_size": "13"}, '^baseline curve alphabet_size is not a JSON integer: "13"$'),
    ({"samples_per_length": 1000.9},
     "^baseline curve samples_per_length is not a JSON integer: 1000.9$"),
    ({"rng_seed": True}, "^baseline curve rng_seed is not a JSON integer: true$"),
    ({"points": [{"length": 96, "mean_ratio": "1.23", "std_dev": 0.0}]},
     '^baseline curve point 0 mean_ratio is not a JSON number: "1.23"$'),
    ({"points": [{"length": 96, "mean_ratio": 1.23, "std_dev": False}]},
     "^baseline curve point 0 std_dev is not a JSON number: false$"),
    ({"points": [{"length": 96, "mean_ratio": 10**400, "std_dev": 0.0}]},
     "^baseline curve is not valid JSON: an integer of more than 100 digits$"),
    # in range of what estimate_baseline draws
    ({"points": [{"length": -5, "mean_ratio": 1.23, "std_dev": 0.0}]},
     "^baseline curve length must be >= 1: -5$"),
    ({"points": [{"length": 0, "mean_ratio": 1.0, "std_dev": 0.0},
                 {"length": 96, "mean_ratio": 1.23, "std_dev": 0.0}]},
     "^baseline curve length must be >= 1: 0$"),
    ({"alphabet_size": 0}, "^baseline curve alphabet_size must be in 1..26: 0$"),
    ({"alphabet_size": 27}, "^baseline curve alphabet_size must be in 1..26: 27$"),
    ({"samples_per_length": -3}, "^baseline curve samples_per_length must be >= 1: -3$"),
    ({"samples_per_length": 0}, "^baseline curve samples_per_length must be >= 1: 0$"),
    # a value of the wrong JSON kind where an object or array is due; a list
    # or string in place of changes is the whole curve
    ([], "^baseline curve is not a JSON object$"),
    ("curve", "^baseline curve is not a JSON object$"),
    ({"points": 5}, "^baseline curve points is not an array: 5$"),
    ({"points": {"length": 96}}, r'^baseline curve points is not an array: \{"length": 96\}$'),
    ({"points": [5]}, "^baseline curve point 0 is not an object: 5$"),
    ({"points": [{"length": 96, "mean_ratio": 1.23, "std_dev": 0.0}, [128]]},
     r"^baseline curve point 1 is not an object: \[128\]$"),
    # the coder the ratios were sampled with
    ({"algorithm": "lz79"}, '^baseline curve algorithm is not lz77 or lz78: "lz79"$'),
    ({"algorithm": "LZ77"}, '^baseline curve algorithm is not lz77 or lz78: "LZ77"$'),
    ({"algorithm": 77}, "^baseline curve algorithm is not lz77 or lz78: 77$"),
    # a spread is finite and >= 0; JSON's NaN is refused as it loads
    ({"points": [{"length": 96, "mean_ratio": 1.23, "std_dev": -0.5}]},
     "^baseline curve std_dev at length 96 is not finite and >= 0: -0.5$"),
    ({"points": [{"length": 96, "mean_ratio": 1.23, "std_dev": float("-inf")}]},
     "^baseline curve std_dev at length 96 is not finite and >= 0: -inf$"),
    ({"points": [{"length": 96, "mean_ratio": 1.23, "std_dev": float("nan")}]},
     "^baseline curve is not valid JSON: NaN is not a JSON number$"),
    ({"points": [{"length": 96, "mean_ratio": 1.23}]}, "^baseline curve point 0 lacks field 'std_dev'$"),
    ({"points": None}, "^baseline curve lacks field 'points'$"),
])
def test_json_load_rejects_bad_curve(changes, message):
    if isinstance(changes, dict):
        payload = json.loads(curve_to_json(REFERENCE_CURVE)) | changes
        changes = {k: v for k, v in payload.items() if v is not None}
    # JSON has no Infinity: an infinite float is written as 1e400, which loads as one
    text = json.dumps(changes).replace("Infinity", "1e400")
    with pytest.raises(ValueError, match=message) as exc:
        curve_from_json(text)
    assert type(exc.value) is ValueError


def test_json_load_takes_integral_ratios_as_floats():
    payload = json.loads(curve_to_json(REFERENCE_CURVE))
    payload["points"] = [{"length": 96, "mean_ratio": 2, "std_dev": 0}]
    (point,) = curve_from_json(json.dumps(payload)).points
    assert (point.mean_ratio, point.std_dev) == (2.0, 0.0)
    assert type(point.mean_ratio) is type(point.std_dev) is float


def test_csv_export():
    lines = curve_to_csv(REFERENCE_CURVE).strip().splitlines()
    assert lines[0] == "length,mean_ratio"
    assert lines[1] == "96,1.230000"
    assert lines[2] == "128,1.290000"
