"""Random-string baseline curve and length normalization."""

import json
import statistics
import sys
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
    mean_and_spread,
    normalize_ratio,
)
from tunelz.lz import Algorithm
from tunelz.notation import Category

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
    assert curve.lengths == (20, 40)


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


def test_length_past_the_ceiling_draws_no_string(monkeypatch):
    drawn = []
    monkeypatch.setattr(baseline, "_random_string", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match=r"^lengths must be in 1\.\.1000000$"):
        estimate_baseline([10, 1_000_001], samples=2)
    assert drawn == []


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


@pytest.mark.parametrize("changes, message", [
    ({"rng_seed": None}, "lacks field 'rng_seed'"),
    ({"points": [{"length": 96, "std_dev": 0.0}]}, "lacks field 'mean_ratio'"),
    ({"points": [{"length": 96, "mean_ratio": "x", "std_dev": 0.0}]}, "non-numeric"),
    ({"alphabet_size": [13]}, "non-numeric"),
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
     "non-numeric field: length is not an integer: 96.7"),
    ({"alphabet_size": "13"}, 'non-numeric field: alphabet_size is not an integer: "13"'),
    ({"samples_per_length": 1000.9},
     "non-numeric field: samples_per_length is not an integer: 1000.9"),
    ({"rng_seed": True}, "non-numeric field: rng_seed is not an integer: true"),
    ({"points": [{"length": 96, "mean_ratio": "1.23", "std_dev": 0.0}]},
     'non-numeric field: mean_ratio is not a number: "1.23"'),
    ({"points": [{"length": 96, "mean_ratio": 1.23, "std_dev": False}]},
     "non-numeric field: std_dev is not a number: false"),
    ({"points": [{"length": 96, "mean_ratio": 10**400, "std_dev": 0.0}]},
     "non-numeric field: int too large to convert to float"),
])
def test_json_load_rejects_bad_curve(changes, message):
    payload = json.loads(curve_to_json(REFERENCE_CURVE)) | changes
    text = json.dumps({k: v for k, v in payload.items() if v is not None})
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


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev rounds twice before Python 3.11")
@given(st.lists(st.floats(min_value=-1e12, max_value=1e12), min_size=1, max_size=300))
@settings(max_examples=300)
def test_mean_and_spread_match_statistics(values):
    spread = statistics.stdev(values) if len(values) > 1 else 0.0
    assert mean_and_spread(values) == (statistics.fmean(values), spread)
