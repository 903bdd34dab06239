"""Checks for the exponential-mechanism median.

The reference probabilities are recomputed here by direct enumeration
(plain python floats, exp taken directly) so the log-space implementation
is checked against an independent route.
"""
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from dpreg import RandomStream, dp_median, median_interval_probs
import dpreg.median as median
from dpreg.median import _dp_medians, _locate, _prepare, _trust_floor, _weights
from dpreg.noise import _EPSILON_FLOOR


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
    # Objects numpy converts with float(), an int past int64 among them.
    np.array([Fraction(1, 3), Decimal("-0.25"), 2**70, 0.5], dtype=object),
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


def bulk_medians(values, eps, lo, hi, seed, n):
    """n successive ``dp_median`` draws on ``RandomStream(seed, 0)``, in bulk.

    ``_dp_medians`` runs up to 10,000 pools of ``values`` at a time, each on
    its own uniform pair in the order ``dp_median`` draws them, so the
    draws are the loop's bit for bit; the first 1,000 are checked against
    the public loop.
    """
    s = RandomStream(seed, 0)
    parts = []
    for start in range(0, n, 10_000):
        size = min(10_000, n - start)
        parts.append(_dp_medians([[values]] * size, (eps,), lo, hi, s.uniform(2 * size))[0])
    draws = np.concatenate(parts)
    loop = RandomStream(seed, 0)
    want = [dp_median(values, eps, lo, hi, loop).hex() for _ in range(1000)]
    assert [v.hex() for v in draws[:1000].tolist()] == want
    return draws


def test_sampling_frequencies_match_probabilities():
    values = [0.1, 0.4, 0.6, 0.9]
    eps = 2.0
    edges, probs = median_interval_probs(values, eps, -2.0, 2.0)
    n = 50_000
    draws = bulk_medians(values, eps, -2.0, 2.0, 77, n)
    counts = np.histogram(draws, bins=edges)[0]
    for count, p in zip(counts, probs):
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert abs(count / n - p) <= 5.0 * sigma + 1e-12


def test_symmetric_values_give_centred_output():
    n = 100_000
    draws = bulk_medians([-1.0, -0.5, 0.5, 1.0], 1.0, -2.0, 2.0, 8, n)
    assert abs(sum(draws.tolist()) / n) <= 0.02


def test_empty_input_returns_uniform_point_of_clip_range():
    # An empty list is one interval, the clip range, so the mechanism runs
    # as on any other input: it draws its two uniforms and returns the
    # point the second one picks. It used to return the midpoint without
    # drawing, a data-dependent branch with no privacy guarantee.
    for seed, (lo, hi) in enumerate(((-2.0, 2.0), (0.0, 1.0))):
        s = RandomStream(seed, 0)
        got = dp_median([], 1.0, lo, hi, s)
        u = RandomStream(seed, 0).uniform(3)
        assert got.hex() == (lo + (hi - lo) * u[1]).hex()
        assert s.uniform() == u[2]
        assert median_interval_probs([], 1.0, lo, hi)[1].tolist() == [1.0]
    # Uniform on the range, the law a single value gives too.
    draws = bulk_medians([], 0.3, -2.0, 2.0, 5, 20_000)
    counts = np.histogram(draws, bins=8, range=(-2.0, 2.0))[0]
    assert abs(counts / 20_000 - 0.125).max() <= 5.0 * math.sqrt(0.125 * 0.875 / 20_000)


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
    # A span that overflows (-1.5e308 to 1.5e308) once gave NaN weights and
    # an infinite median.
    for lo, hi in ((-inf, 1.0), (0.0, inf), (-inf, inf), (nan, 1.0), (0.0, nan),
                   (-1.5e308, 1.5e308)):
        with pytest.raises(ValueError, match="clip range must be finite"):
            dp_median(values, 1.0, lo, hi, s)
        with pytest.raises(ValueError, match="clip range must be finite"):
            median_interval_probs(values, 1.0, lo, hi)
        with pytest.raises(ValueError, match="clip range must be finite"):
            dp_median([], 1.0, lo, hi, s)
    # Nothing was drawn by the rejected calls.
    assert s.uniform() == RandomStream(0, 0).uniform()


def test_clip_bounds_of_more_than_4300_digits_are_refused_by_their_own_rule():
    # str() of such an int raises Python's digit-limit ValueError, which once
    # replaced the message; the message names the bounds as the floats it reads.
    from dpreg import TheilSenHyper

    message = r"^clip range must be finite with lower < upper, got \[0\.0, inf\]$"
    with pytest.raises(ValueError, match=message):
        TheilSenHyper(r_lo=0, r_hi=10**5000)
    with pytest.raises(ValueError, match=message):
        dp_median([0.1], 1.0, 0, 10**5000, RandomStream(0, 0))


def test_nan_values_are_refused_before_a_draw_and_infinities_clip():
    # A NaN once came back as the median itself, outside the clip range, or
    # gave all-NaN weights, under which the sampler took the first interval
    # at every epsilon, and all-NaN probabilities.
    nan, inf = float("nan"), float("inf")
    s = RandomStream(1, 0)
    for values in ([nan], [0.1, nan, 0.3], np.array([nan, nan])):
        with pytest.raises(ValueError, match="must not be NaN"):
            dp_median(values, 1.0, -2.0, 2.0, s)
        with pytest.raises(ValueError, match="must not be NaN"):
            median_interval_probs(values, 1.0, -2.0, 2.0)
    assert s.uniform() == RandomStream(1, 0).uniform()
    # ±inf clip to the range's ends: the same release as those ends.
    for seed in range(5):
        got = dp_median([-inf, 0.1, inf], 1.0, -2.0, 2.0, RandomStream(seed, 0))
        assert got == dp_median([-2.0, 0.1, 2.0], 1.0, -2.0, 2.0, RandomStream(seed, 0))
    edges, probs = median_interval_probs([inf, 0.1, -inf], 1.0, -2.0, 2.0)
    assert edges.tolist() == [-2.0, -2.0, 0.1, 2.0, 2.0] and np.isfinite(probs).all()


def test_rank_tables_are_read_only_and_the_last_one_is_kept():
    table = median._rank_table
    table.cache_clear()
    first = table(5, (0.25, 1.0))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 2.0
    assert table(5, (0.25, 1.0)) is first and table.cache_info().hits == 1
    table(6, (0.25, 1.0))
    assert table(5, (0.25, 1.0)) is not first  # one table is kept, the last one built


def test_huge_budgets_overflow_the_rank_penalty_without_warning():
    # Near the largest double, the rank penalty of every interval but the
    # two middle ones of these 41 values overflows to inf, which is weight
    # 0. The overflow once warned, and so raised under RuntimeWarning
    # errors. The two middle ones share the mass by length, which differs
    # in the last bits: their penalty is 0, so the lengths are not rounded
    # away (they once got 0.5 each).
    values = np.linspace(-1.0, 1.0, 41)
    lengths = np.diff(values)[19:21]
    for eps in (1e300, 1e308, np.finfo(np.float64).max):
        probs = median_interval_probs(values, eps, -2.0, 2.0)[1]
        assert probs[20:22].tolist() == pytest.approx((lengths / lengths.sum()).tolist(),
                                                      rel=1e-12)
        assert probs[20] < 0.5 < probs[21] and probs.sum() == probs[20] + probs[21]
        for seed in range(5):
            assert -0.05 <= dp_median(values, eps, -2.0, 2.0, RandomStream(seed, 0)) <= 0.05
    # With every value tied, each positive-length interval's penalty
    # overflows; the limit of the mechanism's law picks the outer two, by
    # length. The row's maximum was -inf and every weight NaN.
    for eps in (1.7e308, np.finfo(np.float64).max):
        probs = median_interval_probs([0.5] * 6, eps, -2.0, 2.0)[1]
        assert probs.tolist() == pytest.approx([0.625, 0, 0, 0, 0, 0, 0.375], abs=1e-15)
        picks = [dp_median([0.5] * 6, eps, -2.0, 2.0, RandomStream(seed, 0)) for seed in range(40)]
        assert min(picks) < 0.5 < max(picks)
    # Ties on one side only: the best-ranked positive-length interval alone.
    probs = median_interval_probs([0.5] * 5 + [1.0], 1.7e308, -2.0, 2.0)[1]
    assert probs.tolist() == [0, 0, 0, 0, 0, 1, 0]


def test_a_tie_at_the_best_rank_keeps_the_neighbours_lengths(log_rows):
    # The two values tie, so the best interval has length 0 and its two
    # neighbours, of lengths 2.5 and 1.5, share the mass by length at any
    # epsilon. Their penalty is measured from the best rank of positive
    # length, so a huge epsilon no longer rounds their lengths away (this
    # gave 0.5/0/0.5 at 1e300).
    for eps in (1e3, 1e300, 1.7e308):
        probs = median_interval_probs([0.5, 0.5], eps, -2.0, 2.0)[1]
        assert probs.tolist() == pytest.approx([0.625, 0.0, 0.375], abs=1e-15), eps
        picks = [dp_median([0.5, 0.5], eps, -2.0, 2.0, RandomStream(seed, 0)) for seed in range(40)]
        assert min(picks) < 0.5 < max(picks)
    # The table's largest weight is 2.5 e^-500 at 1e3, far below its floor.
    assert len(log_rows) == 3 + 3 * 40


def test_rows_below_the_trust_floor_take_the_log_pass(log_rows):
    # Every table weight is within the clip span times e^-705 of the
    # mechanism's, so a row whose largest weight is at least e^105 times
    # that keeps every weight to e^-600 of it (DECISIONS.md, D13).
    assert _trust_floor(4.0) == pytest.approx(4.0 * math.exp(-105.0), rel=1e-12)
    # A best interval of 1e-50, below the floor of 1.6e-45 for the span 4:
    # at epsilon 1 its neighbours carry the row, at 1e3 nothing does.
    values = [0.0, 1e-50]
    for eps, via_log in ((1.0, 0), (1e3, 1)):
        log_rows.clear()
        probs = median_interval_probs(values, eps, -2.0, 2.0)[1]
        assert probs.tolist() == pytest.approx(oracle_probs(values, eps, -2.0, 2.0), abs=1e-12)
        assert sum(log_rows) == via_log
    # Only the rows below the floor are replaced: budgets run in one pass,
    # and a pool with a best interval above it takes no row to the log pass.
    log_rows.clear()
    budgets = (1.0, 1e3, 1e300)
    got = _dp_medians([[values], [[0.5, 0.5]], [[0.1, 0.9]]], budgets, -2.0, 2.0, [0.3, 0.6] * 3)
    assert log_rows == [2, 2]
    for l, pool in enumerate((values, [0.5, 0.5], [0.1, 0.9])):
        for j, eps in enumerate(budgets):
            want = _dp_medians([[pool]], (eps,), -2.0, 2.0, [0.3, 0.6])
            assert got[j, l].hex() == want[0, 0].hex()


def test_log_pass_is_the_old_pass_where_the_best_rank_has_length():
    # Before the rank table every row took this pass with the penalty
    # measured from the best rank. Measured from the best rank of positive
    # length, it subtracts 0 wherever the best rank has length, so those
    # rows keep their weights bit for bit, at every budget up to 1e300.
    def old_pass(edges, halves):
        m = edges.size - 2
        with np.errstate(divide="ignore", over="ignore"):
            a = np.multiply(-halves[:, None], np.abs(np.arange(m + 1) - m / 2.0) - (m % 2) / 2.0)
            a += np.log(np.diff(edges))
        a -= a.max(axis=1, keepdims=True)
        return np.exp(np.maximum(a, -705.0)) - np.exp(np.array([-705.0]))

    halves = 0.5 * np.array([_EPSILON_FLOOR, 0.01, 1.0, 1e3, 1e6, 1e15, 1e300])
    g = RandomStream(45, 0)
    checked = 0
    for m in (0, 1, 2, 3, 4, 7, 10, 101, 2500):
        for digits in (1, 2, 4):
            edges = _prepare([[np.round(g.normal(size=m), digits)]], -2.0, 2.0)[0]
            if np.diff(edges)[m // 2 : m // 2 + 1 + m % 2].max() > 0.0:
                got = median._log_weights(edges, halves)
                assert got.tobytes() == old_pass(edges, halves).tobytes(), (m, digits)
                checked += 1
    assert checked >= 20


def test_huge_budgets_keep_the_interval_lengths():
    # The rank penalty is measured from the best rank, whose penalty is 0,
    # so a huge epsilon leaves the best intervals' log lengths intact. With
    # the penalty |i - m/2| of odd m, eps/2 * 1/2 once rounded them away:
    # 0.098/0.902 at 1e15, 0.018/0.982 at 1e17 and 0.5/0.5 at 1e300.
    for eps in (1e15, 1e17, 1e300):
        probs = median_interval_probs([0.0, 0.1, 1.0], eps, -2.0, 2.0)[1]
        assert probs.tolist() == pytest.approx([0.0, 0.1, 0.9, 0.0], abs=1e-12), eps
    # One value: both intervals have the best rank, at any epsilon.
    probs = median_interval_probs([0.5], np.finfo(np.float64).max, -2.0, 2.0)[1]
    assert probs.tolist() == pytest.approx([0.625, 0.375], abs=1e-15)


def test_multi_budget_median_equals_dp_median_bitwise():
    # One weight pass for every budget and pool: each output is dp_median
    # at that budget on a stream that yields the same two uniforms.
    g = RandomStream(30, 0)
    cases = [g.normal(size=400) * 0.3, np.round(g.uniform(300), 1) * 5.0 - 2.5,
             np.array([0.7]), np.full(9, 2.5)]
    budgets = (0.01, 0.3, 1.0, 30.0)
    for values in cases:
        for seed in range(20):
            got = _dp_medians([[values]], budgets, -2.0, 2.0, RandomStream(seed, 3).uniform(2))
            assert got.shape == (len(budgets), 1)
            for eps, value in zip(budgets, got[:, 0]):
                assert value.hex() == dp_median(values, eps, -2.0, 2.0, RandomStream(seed, 3)).hex()
    # Two pools in one call equal each pool alone, and a pool split into
    # parts equals its concatenation.
    a, b = cases[0][:300], cases[1]
    u = RandomStream(31, 0).uniform(4)
    both = _dp_medians([[a[:100], a[100:]], [b]], budgets, -2.0, 2.0, u)
    assert both.tolist() == np.column_stack([
        _dp_medians([[a]], budgets, -2.0, 2.0, u[:2])[:, 0],
        _dp_medians([[b]], budgets, -2.0, 2.0, u[2:])[:, 0]]).tolist()


def sequential_cdf_picks(values, epsilon, lo, hi, u):
    """The interval the sampler this module replaced picks at each uniform in ``u``.

    Per budget it normalized the weights, took their sequential cumsum and
    searched it, clamping a search past the end to the last interval.
    """
    v = np.sort(np.clip(np.asarray(values, dtype=np.float64), lo, hi))
    m = v.size
    with np.errstate(divide="ignore"):
        log_lengths = np.log(np.diff(np.concatenate(([lo], v, [hi]))))
    utilities = -np.abs(np.arange(m + 1, dtype=np.float64) - m / 2.0)
    log_w = log_lengths + 0.5 * epsilon * utilities
    log_w -= log_w.max()
    w = np.exp(log_w)
    cdf = np.cumsum(w / w.sum())
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


def oracle_value_sets():
    g = RandomStream(41, 0)
    for m in (0, 1, 2, 3, 17, 500, 2500, 5000, 20000):
        piled = g.normal(size=m)
        piled[: (7 * m) // 10] = -2.0 - g.uniform((7 * m) // 10)  # at or past clip_lo
        yield m, "normal", g.normal(size=m) * 0.5
        yield m, "rounded", np.round(g.uniform(m) * 4.0 - 2.0, 1)
        yield m, "all tied", np.full(m, 0.3)
        yield m, "piled at a clip bound", piled
        yield m, "1e-9 spread", 0.2 + 1e-9 * g.normal(size=m)
        yield m, "1e-12 spread", 0.2 + 1e-12 * g.normal(size=m)


ORACLE_BUDGETS = (_EPSILON_FLOOR, 1e-6, 0.01, 0.1, 1.0, 10.0, 1e3, 1e6)


@pytest.fixture
def log_rows(monkeypatch):
    """The rows that ``_weights`` hands to its log-domain pass, counted as they go."""
    counted = []

    def counting(edges, halves):
        counted.append(halves.size)
        return log_weights(edges, halves)

    log_weights = median._log_weights
    monkeypatch.setattr(median, "_log_weights", counting)
    return counted


def test_sampler_picks_the_interval_of_the_sequential_cdf_sampler(log_rows):
    # The block locate compares unnormalized prefix sums with u * total;
    # the old sampler compared a cumsum of normalized weights with u. They
    # can differ only where u lies within rounding of an interval boundary,
    # which a random interior u never meets (DECISIONS.md, D9). The
    # weights are the production ones: the rank table's, and the log
    # pass's on rows whose best ranks tie or are tiny (D13).
    g = RandomStream(42, 0)
    cases = 0
    halves = 0.5 * np.array(ORACLE_BUDGETS)
    for m, kind, values in oracle_value_sets():
        w = _weights(_prepare([[values]], -2.0, 2.0), halves)
        us = g.uniform(70)
        got = np.column_stack([_locate(w, np.array([u]))[:, 0] for u in us])
        want = [sequential_cdf_picks(values, eps, -2.0, 2.0, us) for eps in ORACLE_BUDGETS]
        assert got.tolist() == np.array(want).tolist(), (m, kind)
        cases += got.size
    assert cases >= 30_000
    # Both paths ran: of the 432 rows, those whose best ranks tie (rounded,
    # all-tied and piled values) at large budgets took the log pass.
    assert 0 < sum(log_rows) < (cases // 70) // 4


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_extreme_uniforms_pick_intervals_of_positive_weight(u, log_rows):
    # At u = 1 - 2^-53 the old sampler could run past a cdf whose rounded
    # total fell short of u, and took the last interval even where it had
    # probability 0 (a tied pair, or a mass of 1e-300). At u = 0 the pick is
    # the first interval of positive weight.
    halves = 0.5 * np.array(ORACLE_BUDGETS)
    old_misses = 0
    for m, kind, values in oracle_value_sets():
        edges = _prepare([[values]], -2.0, 2.0)
        picks = _locate(_weights(edges, halves), np.array([u]))[:, 0]
        for eps, pick in zip(ORACLE_BUDGETS, picks):
            probs = median_interval_probs(values, eps, -2.0, 2.0)[1]
            assert probs[pick] > 0.0, (m, kind, eps)
            if u == 0.0:
                assert pick == np.flatnonzero(probs)[0]
            old_misses += probs[sequential_cdf_picks(values, eps, -2.0, 2.0, u)] == 0.0
    if u > 0.0:
        assert old_misses > 0  # the old clamp did pick intervals of probability 0 here
    assert sum(log_rows) > 0  # and the log pass's rows were among them


def test_median_weights_stay_within_four_arrays_of_the_input_size():
    # Edges, weights and at most two temporaries (the rank distances, then
    # the log lengths): four arrays of about m floats at one budget, 15.33
    # MiB here. The old sampler held six, 22.89 MiB.
    m = 500_000
    values = RandomStream(44, 0).uniform(m) * 4.0 - 2.0
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _dp_medians([[values]], (1.0 / 3.0,), -2.0, 2.0, (0.3, 0.6))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4.2 * 8 * m
