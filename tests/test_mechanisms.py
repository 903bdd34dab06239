import math

import numpy as np
import pytest

import dpreg.mechanisms as mech
from dpreg import (
    Bounds,
    Dataset,
    FitResult,
    NoiseLedger,
    PolyFitResult,
    PrivacyBudget,
    RandomStream,
    TheilSenHyper,
    ZeroNoiseStream,
    denormalize_fit,
    dp_rss_fit,
    dp_rss_poly_fit,
    dp_ss_fit,
    dp_theil_sen_fit,
    l2_error,
)
from dpreg.mechanisms import FALLBACK_ALPHA, FALLBACK_BETA, FITTERS, _pair_projections
from dpreg.simplex import _refined_fits


def ols_oracle(ds):
    design = np.column_stack([ds.x, np.ones(len(ds))])
    coef = np.linalg.lstsq(design, ds.y, rcond=None)[0]
    return float(coef[0]), float(coef[1])


def test_budget_validation():
    with pytest.raises(ValueError):
        PrivacyBudget(0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(-1.0)
    with pytest.raises(ValueError):
        PrivacyBudget(float("inf"))
    assert PrivacyBudget(0.5).epsilon == 0.5
    # The smallest epsilon whose largest Laplace scale, dp_ss's 4/epsilon,
    # is finite; below it the scale overflows.
    tiny = 4.0 / np.finfo(np.float64).max
    assert PrivacyBudget(tiny).epsilon == tiny
    for bad in (float("nan"), -float("inf"), 1e-320, np.nextafter(tiny, 0.0)):
        with pytest.raises(ValueError):
            PrivacyBudget(bad)
    ds = Dataset(np.array([0.5]), np.array([0.5]))
    for fit in (dp_rss_fit, dp_ss_fit, dp_theil_sen_fit):
        for bad in (0.0, float("inf"), 1e-320):
            with pytest.raises(ValueError):
                fit(ds, bad, RandomStream(0, 0))


def test_zero_noise_recovers_ols_on_exact_line(three_point_line):
    for fit in (dp_rss_fit, dp_ss_fit):
        res = fit(three_point_line, 1.0, ZeroNoiseStream(0, 0))
        assert res.alpha_hat == pytest.approx(0.5, abs=1e-12)
        assert res.beta_hat == pytest.approx(0.2, abs=1e-12)
        assert not res.fallback


def test_zero_noise_matches_least_squares_oracle(random_dataset):
    for seed in range(20):
        ds = random_dataset(seed, n=60)
        a, b = ols_oracle(ds)
        for fit in (dp_rss_fit, dp_ss_fit):
            res = fit(ds, 2.0, ZeroNoiseStream(0, 0))
            assert res.alpha_hat == pytest.approx(a, abs=1e-10)
            assert res.beta_hat == pytest.approx(b, abs=1e-10)


def test_accepts_budget_object_and_plain_float(three_point_line):
    a = dp_rss_fit(three_point_line, PrivacyBudget(1.5), RandomStream(3, 0))
    b = dp_rss_fit(three_point_line, 1.5, RandomStream(3, 0))
    assert a == b


def test_fallback_fit_is_fixed_line():
    assert FALLBACK_ALPHA == 0.0
    assert FALLBACK_BETA == 0.5
    empty = Dataset(np.array([]), np.array([]))
    # with the noise silenced the size estimate is exactly zero, which must
    # trip the guard deterministically
    for fit in (dp_rss_fit, dp_ss_fit):
        res = fit(empty, 1.0, ZeroNoiseStream(0, 0))
        assert res == FitResult(0.0, 0.5, fallback=True)
    # and specific noisy streams land there too
    assert dp_rss_fit(empty, 1.0, RandomStream(1, 0)).fallback
    assert dp_ss_fit(empty, 1.0, RandomStream(0, 0)).fallback


def test_equal_x_data_falls_back():
    ds = Dataset(np.full(5, 0.3), np.linspace(0.1, 0.9, 5))
    for fit in (dp_rss_fit, dp_ss_fit):
        res = fit(ds, 1.0, ZeroNoiseStream(0, 0))
        assert res.fallback
        assert (res.alpha_hat, res.beta_hat) == (0.0, 0.5)


def test_fallback_never_returns_non_finite_values():
    ds = Dataset(np.array([0.2, 0.9]), np.array([0.8, 0.1]))
    for seed in range(200):
        for fit in (dp_rss_fit, dp_ss_fit, dp_theil_sen_fit):
            res = fit(ds, 0.01, RandomStream(seed, 0))
            assert math.isfinite(res.alpha_hat) and math.isfinite(res.beta_hat)
            if res.fallback:
                assert (res.alpha_hat, res.beta_hat) == (0.0, 0.5)


def test_budget_ledgers_account_for_whole_epsilon(three_point_line):
    led = NoiseLedger()
    dp_rss_fit(three_point_line, 0.8, RandomStream(0, 0), ledger=led)
    assert led.total_epsilon() == pytest.approx(0.8, abs=1e-12)
    assert [e.scale for e in led.events] == [2.5, 2.5]  # 2 / eps each

    led = NoiseLedger()
    dp_ss_fit(three_point_line, 0.8, RandomStream(0, 0), ledger=led)
    assert led.total_epsilon() == pytest.approx(0.8, abs=1e-12)
    assert [e.scale for e in led.events] == [5.0] * 4  # 4 / eps each

    led = NoiseLedger()
    dp_theil_sen_fit(three_point_line, 0.9, RandomStream(0, 0), ledger=led)
    assert led.total_epsilon() == pytest.approx(0.9, abs=1e-12)
    assert led.events[0].scale == pytest.approx(3.0 / 0.9)
    assert [e.scale for e in led.events[1:]] == [None, None]


def test_reproducible_and_stream_sensitive(random_dataset):
    ds = random_dataset(7, n=100)
    for fit in (dp_rss_fit, dp_ss_fit, dp_theil_sen_fit):
        first = fit(ds, 0.5, RandomStream(11, 4))
        second = fit(ds, 0.5, RandomStream(11, 4))
        other = fit(ds, 0.5, RandomStream(11, 5))
        assert first == second
        assert first != other


def test_pair_projections_worked_example():
    z25, z75 = _pair_projections(np.array([0.2, 0.6]), np.array([0.3, 0.7]),
                                 np.array([0, 1]))
    assert z25 == pytest.approx([0.35])
    assert z75 == pytest.approx([0.85])


def test_pair_projections_drops_leftover_and_ties():
    # odd permutation length: the trailing element is unpaired
    z25, z75 = _pair_projections(np.array([0.2, 0.6, 0.9]),
                                 np.array([0.3, 0.7, 0.1]),
                                 np.array([0, 1, 2]))
    assert len(z25) == 1 and len(z75) == 1
    # pairs with equal x have no slope and are skipped
    z25, z75 = _pair_projections(np.array([0.5, 0.5]), np.array([0.1, 0.9]),
                                 np.array([0, 1]))
    assert len(z25) == 0 and len(z75) == 0


def test_theil_sen_combines_medians_into_line(monkeypatch):
    # With the two percentile medians pinned to 0.35 and 0.85 the fitted
    # line must pass through (0.25, 0.35) and (0.75, 0.85).
    outputs = iter([0.35, 0.85])
    calls = []

    def fake_medians(values, epsilons, lo, hi, uniforms):
        calls.append((len(values), list(epsilons), lo, hi, len(uniforms)))
        return [next(outputs)]

    monkeypatch.setattr(mech, "_dp_medians", fake_medians)
    x = np.linspace(0.05, 0.95, 10)
    ds = Dataset(x, np.clip(0.5 * x + 0.2, 0.0, 1.0))
    res = dp_theil_sen_fit(ds, 0.9, ZeroNoiseStream(5, 0),
                           hyper=TheilSenHyper(k=3))
    assert res.alpha_hat == pytest.approx(1.0, abs=1e-12)
    assert res.beta_hat == pytest.approx(0.1, abs=1e-12)
    assert len(calls) == 2
    for n_values, epsilons, lo, hi, n_uniforms in calls:
        assert n_values == 15        # three rounds of five pairs accumulate
        assert epsilons == [pytest.approx(0.3)]
        assert (lo, hi) == (-2.0, 2.0)
        assert n_uniforms == 2       # each median draws its own pair


def test_theil_sen_small_or_degenerate_inputs_fall_back():
    empty = Dataset(np.array([]), np.array([]))
    single = Dataset(np.array([0.4]), np.array([0.6]))
    flat_x = Dataset(np.full(6, 0.3), np.linspace(0.0, 1.0, 6))
    for ds in (empty, single, flat_x):
        res = dp_theil_sen_fit(ds, 1.0, RandomStream(0, 0))
        assert res == FitResult(0.0, 0.5, fallback=True)


def test_theil_sen_hyper_validation():
    with pytest.raises(ValueError):
        TheilSenHyper(k=0)
    with pytest.raises(ValueError):
        TheilSenHyper(k=2.5)
    with pytest.raises(ValueError):
        TheilSenHyper(r_lo=1.0, r_hi=-1.0)
    # An infinite clip bound once gave FitResult(nan, nan) with no fallback.
    for lo, hi in ((-math.inf, 2.0), (-2.0, math.inf), (math.nan, 2.0)):
        with pytest.raises(ValueError, match="clip range must be finite"):
            TheilSenHyper(r_lo=lo, r_hi=hi)
    assert TheilSenHyper().k == 1


def test_theil_sen_concentrates_on_near_collinear_data():
    g = RandomStream(19, 0)
    x = g.uniform(1000)
    y = np.clip(0.5 * x + 0.2 + 1e-6 * g.normal(1000), 0.0, 1.0)
    ds = Dataset(x, y)
    hits = 0
    runs = 100
    for seed in range(runs):
        res = dp_theil_sen_fit(ds, 100.0, RandomStream(seed, 1))
        if abs(res.alpha_hat - 0.5) < 0.05 and abs(res.beta_hat - 0.2) < 0.05:
            hits += 1
    assert hits >= 0.95 * runs


def test_refined_fit_beats_plain_sums_at_moderate_budget(random_dataset):
    # Paired comparison on one dataset: the recombined-statistics fit has
    # lower median squared line error than the plain eight-sum fit.
    ds = random_dataset(23, n=5000, alpha=-0.7, beta=0.8, sigma=0.05)
    truth = (-0.7, 0.8)
    rss_err, ss_err = [], []
    for i in range(1000):
        rss_err.append(l2_error(truth, dp_rss_fit(ds, 10.0, RandomStream(501, i + 1))))
        ss_err.append(l2_error(truth, dp_ss_fit(ds, 10.0, RandomStream(501, i + 1))))
    assert np.median(rss_err) < np.median(ss_err)


def test_denormalize_worked_examples():
    bounds = Bounds(0.0, 10.0, 0.0, 100.0)
    res = denormalize_fit(FitResult(0.5, 0.2), bounds)
    assert res.alpha_hat == pytest.approx(5.0, abs=1e-12)
    assert res.beta_hat == pytest.approx(20.0, abs=1e-12)

    shifted = denormalize_fit(FitResult(1.0, 0.0), Bounds(2.0, 4.0, 0.0, 1.0))
    assert shifted.alpha_hat == pytest.approx(0.5, abs=1e-12)
    assert shifted.beta_hat == pytest.approx(-1.0, abs=1e-12)

    identity = denormalize_fit(FitResult(0.3, 0.4), Bounds(0.0, 1.0, 0.0, 1.0))
    assert (identity.alpha_hat, identity.beta_hat) == (0.3, 0.4)

    assert denormalize_fit(FitResult(0.0, 0.5, fallback=True), bounds).fallback


def test_denormalized_line_tracks_normalized_line():
    g = RandomStream(31, 0)
    for _ in range(10):
        u = g.uniform(4)
        bounds = Bounds(u[0], u[0] + 1.0 + u[1], -u[2], u[2] + 0.5)
        fit = FitResult(float(2.0 * u[3] - 1.0), float(u[0]))
        raw = denormalize_fit(fit, bounds)
        for x_raw in (bounds.x_min, bounds.x_max, 0.5 * (bounds.x_min + bounds.x_max)):
            x_unit = (x_raw - bounds.x_min) / bounds.x_span
            want = bounds.y_min + bounds.y_span * (fit.alpha_hat * x_unit + fit.beta_hat)
            got = raw.alpha_hat * x_raw + raw.beta_hat
            assert got == pytest.approx(want, abs=1e-10)


CORE_BUDGETS = (0.05, 0.3, 1.0, 10.0)


def fit_bits(fit):
    """Hex of every number in a fit, so 0.0 and -0.0 differ too."""
    if fit is None:
        return None
    if isinstance(fit, PolyFitResult):
        return (tuple(c.hex() for c in fit.coeffs), fit.fallback)
    if isinstance(fit, FitResult):
        return (fit.alpha_hat.hex(), fit.beta_hat.hex(), fit.fallback)
    return tuple(c.hex() for c in fit)


def core_cases():
    """(name, multi-budget core, public fitter) for every mechanism."""
    cases = [(name, mech._FIT_CORES[name], FITTERS[name]) for name in FITTERS]
    k3 = TheilSenHyper(k=3)
    cases.append(("dp_theil_sen k=3",
                  lambda d, b, s: mech._theil_sen_fits(d, b, s, hyper=k3),
                  lambda d, e, s: dp_theil_sen_fit(d, e, s, hyper=k3)))
    cases.append(("dp_rss_poly d=3",
                  lambda d, b, s: _refined_fits(d, 3, b, s),
                  lambda d, e, s: dp_rss_poly_fit(d, 3, e, s)))
    return cases


def test_multi_budget_cores_equal_public_fitters_bitwise(random_dataset):
    assert set(mech._FIT_CORES) == set(FITTERS)
    datasets = [random_dataset(3, n=60), random_dataset(4, n=3),
                Dataset(np.array([0.2, 0.9]), np.array([0.8, 0.1])),
                Dataset(np.full(4, 0.3), np.linspace(0.1, 0.9, 4)),
                Dataset(np.array([0.5]), np.array([0.5]))]
    for name, core, fitter in core_cases():
        for ds in datasets:
            for make in (RandomStream, ZeroNoiseStream):
                for seed in range(8):
                    shared = make(seed, 2)
                    fits = core(ds, CORE_BUDGETS, shared)
                    after = shared.uniform()
                    assert len(fits) == len(CORE_BUDGETS)
                    for eps, got in zip(CORE_BUDGETS, fits):
                        alone = make(seed, 2)
                        want = fitter(ds, eps, alone)
                        if isinstance(want, PolyFitResult):
                            want = None if want.fallback else want.coeffs
                        assert fit_bits(got) == fit_bits(want), (name, len(ds), seed, eps)
                        # one draw serves all budgets: the stream ends where one fit ends
                        assert alone.uniform() == after, (name, len(ds), seed, eps)


def test_multi_budget_cores_check_every_budget_before_drawing(random_dataset):
    ds = random_dataset(5, n=20)
    for name, core, _ in core_cases():
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            for budgets in ((bad, 1.0, 2.0), (1.0, 2.0, bad)):
                stream = RandomStream(8, 1)
                with pytest.raises(ValueError):
                    core(ds, budgets, stream)
                assert stream.uniform() == RandomStream(8, 1).uniform(), (name, budgets)
