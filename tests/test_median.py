"""Checks for the exponential-mechanism median.

The reference probabilities are recomputed here by direct enumeration
(plain python floats, exp taken directly) so the log-space implementation
is checked against an independent route.
"""
import math

import numpy as np
import pytest

from dpreg import DegenerateInputWarning, RandomStream, dp_median, median_interval_probs
from dpreg.median import _dp_medians


def oracle_probs(values, eps, lo, hi):
    clipped = sorted(min(max(float(v), lo), hi) for v in values)
    edges = [lo] + clipped + [hi]
    m = len(clipped)
    weights = []
    for i in range(m + 1):
        length = edges[i + 1] - edges[i]
        utility = -abs(i - m / 2.0)
        weights.append(length * math.exp(eps * utility / 2.0))
    total = sum(weights)
    return [w / total for w in weights]


CASES = [
    [0.5],
    [0.1, 0.9],
    [-0.3, 0.0, 0.3],
    [0.2, 0.2, 0.7, 1.4],          # tie inside the range
    [-5.0, -0.1, 0.4, 0.4, 3.0],   # values beyond the clipping range
    [0.9, -1.2, 0.3, 1.7, -0.6, 0.05],
]


@pytest.mark.parametrize("values", CASES)
@pytest.mark.parametrize("eps", [0.1, 1.0, 10.0])
def test_interval_probabilities_match_enumeration(values, eps):
    edges, probs = median_interval_probs(values, eps, -2.0, 2.0)
    expected = oracle_probs(values, eps, -2.0, 2.0)
    assert len(edges) == len(values) + 2
    assert len(probs) == len(values) + 1
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    for got, want in zip(probs, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_probabilities_for_all_tied_values():
    # 101 copies of 0.5 leave only the two boundary intervals with positive
    # length, so all mass sits on them in proportion to length alone: the
    # two utilities are equal (-50.5) and cancel. Direct exponentiation
    # underflows here, which is exactly what the log-space path must survive.
    edges, probs = median_interval_probs([0.5] * 101, 100.0, -2.0, 2.0)
    assert probs[0] == pytest.approx(2.5 / 4.0, abs=1e-12)
    assert probs[-1] == pytest.approx(1.5 / 4.0, abs=1e-12)
    assert np.all(probs[1:-1] == 0.0)


def test_all_values_clipped_to_one_bound():
    _, probs = median_interval_probs([-2.0, -3.5, -2.0], 1.0, -2.0, 2.0)
    # only the last interval has positive length
    assert probs[-1] == pytest.approx(1.0, abs=1e-15)
    assert probs[:-1].sum() == 0.0


def test_sampled_value_stays_in_range():
    for seed, values in enumerate(CASES):
        s = RandomStream(seed, 0)
        for _ in range(200):
            v = dp_median(values, 1.0, -2.0, 2.0, s)
            assert -2.0 <= v <= 2.0


def test_sampling_frequencies_match_probabilities():
    values = [0.1, 0.4, 0.6, 0.9]
    eps = 2.0
    edges, probs = median_interval_probs(values, eps, -2.0, 2.0)
    n = 50_000
    s = RandomStream(77, 0)
    draws = np.array([dp_median(values, eps, -2.0, 2.0, s) for _ in range(n)])
    counts = np.histogram(draws, bins=edges)[0]
    for count, p in zip(counts, probs):
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(count / n - p) <= 5.0 * sigma + 1e-12


def test_symmetric_values_give_centred_output():
    values = [-1.0, -0.5, 0.5, 1.0]
    s = RandomStream(8, 0)
    total = 0.0
    n = 100_000
    for _ in range(n):
        total += dp_median(values, 1.0, -2.0, 2.0, s)
    assert abs(total / n) <= 0.02


def test_empty_input_returns_midpoint_with_warning():
    s = RandomStream(0, 0)
    with pytest.warns(DegenerateInputWarning):
        assert dp_median([], 1.0, -2.0, 2.0, s) == 0.0
    with pytest.warns(DegenerateInputWarning):
        assert dp_median([], 1.0, 0.0, 1.0, s) == 0.5


def test_consumes_exactly_two_uniform_draws():
    s = RandomStream(9, 0)
    dp_median([0.2, 0.8, 0.5], 1.0, -2.0, 2.0, s)
    after = s.uniform()
    t = RandomStream(9, 0)
    t.uniform()
    t.uniform()
    assert after == t.uniform()


def test_replay_is_deterministic():
    a = dp_median([0.2, 0.8], 0.7, -2.0, 2.0, RandomStream(13, 1))
    b = dp_median([0.2, 0.8], 0.7, -2.0, 2.0, RandomStream(13, 1))
    assert a == b


def test_rejects_bad_parameters():
    s = RandomStream(0, 0)
    with pytest.raises(ValueError):
        dp_median([0.1], 0.0, -2.0, 2.0, s)
    with pytest.raises(ValueError):
        dp_median([0.1], -1.0, -2.0, 2.0, s)
    with pytest.raises(ValueError):
        dp_median([0.1], 1.0, 2.0, -2.0, s)
    with pytest.raises(ValueError):
        median_interval_probs([0.1], 1.0, 1.0, 1.0)
    inf, nan = float("inf"), float("nan")
    values = [0.1, 0.2, 0.3, 0.4]
    for eps in (inf, nan, 1e-320):  # inf once returned 0.0316, and all-NaN probabilities
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            dp_median(values, eps, 0.0, 1.0, s)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            median_interval_probs(values, eps, 0.0, 1.0)
    for lo, hi in ((-inf, 1.0), (0.0, inf), (-inf, inf), (nan, 1.0), (0.0, nan)):
        with pytest.raises(ValueError, match="clip range must be finite"):
            dp_median(values, 1.0, lo, hi, s)
        with pytest.raises(ValueError, match="clip range must be finite"):
            median_interval_probs(values, 1.0, lo, hi)
        with pytest.raises(ValueError, match="clip range must be finite"):
            dp_median([], 1.0, lo, hi, s)
    # Nothing was drawn by the rejected calls.
    assert s.uniform() == RandomStream(0, 0).uniform()


def test_multi_budget_median_equals_dp_median_bitwise():
    # Sort once, reweight per budget: each output is dp_median at that
    # budget on a stream that yields the same two uniforms.
    g = RandomStream(30, 0)
    cases = [g.normal(size=400) * 0.3, np.round(g.uniform(300), 1) * 5.0 - 2.5,
             np.array([0.7]), np.full(9, 2.5)]
    budgets = (0.01, 0.3, 1.0, 30.0)
    for values in cases:
        for seed in range(20):
            got = _dp_medians(values, budgets, -2.0, 2.0, RandomStream(seed, 3).uniform(2))
            for eps, value in zip(budgets, got):
                assert value.hex() == dp_median(values, eps, -2.0, 2.0, RandomStream(seed, 3)).hex()
