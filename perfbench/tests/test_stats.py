"""req_tail_s comes from the same samples as req_p50_s and is never below it."""

import statistics

import pytest
from hypothesis import given, strategies as st

import stats


@given(st.lists(st.floats(0.001, 10.0), min_size=40, max_size=200))
def test_tail_never_below_median(samples):
    summary = stats.summarize(samples, 40)
    assert summary.count == len(samples)
    assert summary.level == pytest.approx(1 - stats.BEYOND / 40)
    slack = 1e-9 * max(samples)
    assert min(samples) - slack <= summary.p50 <= summary.tail <= max(samples) + slack


def test_estimates_of_a_constant_are_the_constant():
    summary = stats.summarize([0.25] * 50, 50)
    assert summary.p50 == pytest.approx(0.25)
    assert summary.tail == pytest.approx(0.25)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    samples = [float(i) for i in range(45)]
    summary = stats.summarize(samples, 45)
    assert summary.level == pytest.approx(35 / 45)
    # on evenly spaced samples the estimate sits at the rank it stands for
    assert summary.p50 == pytest.approx(22.0, abs=0.01)
    assert summary.tail == pytest.approx(34.5, abs=0.01)
    assert summary.tail < 44.0


def test_beta_cdf_closed_forms():
    for x in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
        assert stats.beta_cdf(1, 1, x) == pytest.approx(x)
        assert stats.beta_cdf(3, 1, x) == pytest.approx(x ** 3)
        assert stats.beta_cdf(1, 4, x) == pytest.approx(1 - (1 - x) ** 4)
    assert stats.beta_cdf(40.5, 40.5, 0.5) == pytest.approx(0.5)


def test_harrell_davis_matches_scipy():
    mstats = pytest.importorskip("scipy.stats.mstats")
    samples = sorted((i * 7919) % 101 / 10 for i in range(83))
    for p in (0.5, 0.8795):
        assert stats.harrell_davis(samples, p) == pytest.approx(
            float(mstats.hdquantiles(samples, prob=[p])[0]))


def test_too_few_samples_is_an_error():
    with pytest.raises(ValueError):
        stats.summarize([1.0] * 39, 39)
    with pytest.raises(ValueError):
        stats.summarize([1.0] * 41, 42)


def test_more_samples_keep_the_percentile():
    few = stats.summarize([float(i % 21) for i in range(84)], 84)
    many = stats.summarize([float(i % 21) for i in range(105)], 84)
    assert many.level == few.level == pytest.approx(74 / 84)
    assert many.tail == pytest.approx(few.tail, rel=0.05)


def test_description_states_count_and_percentile():
    text = stats.summarize([float(i) for i in range(45)], 45).describe()
    assert "45 samples" in text
    assert "p77.8" in text


def test_speed_correction_undoes_a_slow_spell():
    # the machine runs at half speed for samples 10..29: both the requests
    # and the calibration loop take twice as long there
    slow = [2.0 if 10 <= j < 30 else 1.0 for j in range(40)]
    seconds = [0.3 * f for f in slow]
    calibration = [0.01 * f for f in slow]
    corrected = stats.speed_corrected(seconds, calibration, 0.01, 4)
    assert corrected == pytest.approx([0.3] * 40)


def test_one_odd_calibration_time_moves_nothing():
    calibration = [0.01] * 9
    calibration[4] = 0.05
    corrected = stats.speed_corrected([0.2] * 9, calibration, 0.01, 4)
    assert corrected == pytest.approx([0.2] * 9)


def test_speed_correction_needs_one_calibration_per_sample():
    with pytest.raises(ValueError):
        stats.speed_corrected([0.1, 0.2], [0.01], 0.01, 4)


@given(st.lists(st.floats(0.001, 10.0), min_size=40, max_size=200))
def test_harrell_davis_grows_with_the_percentile(samples):
    ordered = sorted(samples)
    level = 1 - stats.BEYOND / len(ordered)
    slack = 1e-12 * ordered[-1]
    assert stats.harrell_davis(ordered, level) >= stats.harrell_davis(ordered, 0.5) - slack
