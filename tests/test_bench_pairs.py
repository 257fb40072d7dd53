"""The statistics of tools/bench_pairs.py, on synthetic runs (no benchmark is run)."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
compare = bench_pairs.compare


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_a_clear_gain_on_a_higher_is_better_metric():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [p * 1.3 for p in parent]
    got = compare(parent, change, "higher", 0.25)
    assert got["wins"] == 10 and got["pairs"] == 10
    assert got["gain"] is True
    assert got["regression"] == "within bound"
    assert got["ratio"] == pytest.approx(1.3)
    assert got["worsening"] == pytest.approx(-0.3)


def test_eight_wins_in_ten_is_no_gain():
    parent = [100.0] * 10
    change = [130.0] * 8 + [90.0, 90.0]
    got = compare(parent, change, "higher", 0.25)
    assert got["wins"] == 8 and got["gain"] is False


def test_nine_wins_in_ten_is_a_gain_only_beyond_the_parents_iqr():
    parent = [90.0, 95.0, 100.0, 105.0, 110.0, 90.0, 95.0, 100.0, 105.0, 110.0]
    small = [p + 1.0 for p in parent[:9]] + [80.0]
    got = compare(parent, small, "higher", 0.25)
    assert got["wins"] == 9
    assert got["gain"] is False  # median gap 1 is inside the parent's IQR of 10
    large = [p + 30.0 for p in parent[:9]] + [80.0]
    assert compare(parent, large, "higher", 0.25)["gain"] is True


def test_ties_count_for_neither_side():
    got = compare([1.0, 2.0, 3.0], [1.0, 3.0, 2.0], "higher", 0.25)
    assert got["wins"] == 1


def test_lower_is_better_metrics_win_when_smaller():
    parent = [34.0, 34.2, 34.1, 34.3, 34.0]
    change = [33.0, 33.1, 33.2, 33.0, 33.1]
    got = compare(parent, change, "lower", 0.1)
    assert got["wins"] == 5 and got["gain"] is True
    assert got["regression"] == "within bound"
    worse = compare(parent, [40.0] * 5, "lower", 0.1)
    assert worse["wins"] == 0 and worse["gain"] is False
    assert worse["regression"] == "worse than bound"
    assert worse["worsening"] == pytest.approx(40.0 / 34.1 - 1.0)


def test_a_spread_wider_than_the_bound_is_unresolved():
    parent = [0.2, 0.3, 0.2, 0.3, 0.25]  # IQR 0.1 is 40% of the median
    change = [0.21, 0.29, 0.2, 0.3, 0.26]
    assert compare(parent, change, "lower", 0.25)["regression"] == "unresolved"
    # unless every change run is better than every parent run
    assert compare(parent, [0.1] * 5, "lower", 0.25)["regression"] == "within bound"


def test_a_worsening_just_inside_the_bound_passes():
    parent = [100.0] * 5
    assert compare(parent, [80.0] * 5, "higher", 0.25)["regression"] == "within bound"
    assert compare(parent, [74.0] * 5, "higher", 0.25)["regression"] == "worse than bound"


@pytest.mark.parametrize(
    "parent, change, better",
    [([], [], "higher"), ([1.0, 2.0], [1.0], "higher"), ([1.0], [1.0], "faster")],
)
def test_bad_arguments_are_refused(parent, change, better):
    with pytest.raises(ValueError):
        compare(parent, change, better, 0.25)
