import pytest

from perfbench.stats import min_samples, percentile


@pytest.mark.parametrize("q, need", [(50, 20), (75, 40), (90, 100),
                                     (99, 1000)])
def test_min_samples_leaves_ten_beyond(q, need):
    assert min_samples(q) == need
    # exactly ten samples lie above the percentile at the minimum count
    assert round(need * (100 - q) / 100) == 10


@pytest.mark.parametrize("q", [50, 90, 99])
def test_percentile_refuses_too_few_samples(q):
    need = min_samples(q)
    with pytest.raises(ValueError):
        percentile(list(range(need - 1)), q)
    assert percentile(list(range(need)), q) == pytest.approx(
        (need - 1) * q / 100)


def test_percentile_interpolates_and_ignores_order():
    samples = [float(v) for v in reversed(range(1, 101))]
    assert percentile(samples, 50) == pytest.approx(50.5)
    assert percentile(samples, 90) == pytest.approx(90.1)


@pytest.mark.parametrize("q", [0, 100, -5])
def test_percentile_range_is_open(q):
    with pytest.raises(ValueError):
        min_samples(q)
