import math
import re

import numpy as np
import pytest

import dpreg.mechanisms as mech
import dpreg.median as median
from dpreg import (
    Bounds,
    Dataset,
    ExperimentGrid,
    FitResult,
    NoiseLedger,
    RandomStream,
    TheilSenHyper,
    denormalize_fit,
    dp_rss_fit,
    dp_rss_poly_fit,
    dp_ss_fit,
    dp_theil_sen_fit,
    l2_error,
)
from dpreg.mechanisms import FALLBACK_ALPHA, FALLBACK_BETA, FITTERS, MECHANISMS, _pair_projections
from dpreg.noise import _EPSILON_FLOOR, _LARGEST_SCALE, _as_epsilon
from dpreg.simplex import _cell_sums, _laplace_draw, _solve_refined

from zero_noise import ZeroNoiseStream

RSS, SS, THEIL_SEN = (MECHANISMS[name] for name in ("dp_rss", "dp_ss", "dp_theil_sen"))


def ols_oracle(ds):
    design = np.column_stack([ds.x, np.ones(len(ds))])
    coef = np.linalg.lstsq(design, ds.y, rcond=None)[0]
    return float(coef[0]), float(coef[1])


def test_budget_validation():
    with pytest.raises(ValueError):
        _as_epsilon(0.0)
    with pytest.raises(ValueError):
        _as_epsilon(-1.0)
    with pytest.raises(ValueError):
        _as_epsilon(float("inf"))
    assert _as_epsilon(0.5) == 0.5
    # The smallest epsilon at which every noisy sum, and the product of any
    # two, stays finite; 4/max_double, where dp_ss's scale 4/epsilon itself
    # overflows, is far below it.
    assert 1e-153 < _EPSILON_FLOOR < 1e-151
    assert _as_epsilon(_EPSILON_FLOOR) == _EPSILON_FLOOR
    for bad in (float("nan"), -float("inf"), 1e-320, 4.0 / np.finfo(np.float64).max,
                2.3e-308, np.nextafter(_EPSILON_FLOOR, 0.0)):
        with pytest.raises(ValueError):
            _as_epsilon(bad)
    ds = Dataset(np.array([0.5]), np.array([0.5]))
    for fit in (dp_rss_fit, dp_ss_fit, dp_theil_sen_fit):
        for bad in (0.0, float("inf"), 1e-320):
            with pytest.raises(ValueError):
                fit(ds, bad, RandomStream(0, 0))


def test_text_budgets_are_refused():
    # float() reads "1.0" and b"1.0" as 1.0, so a text budget once fitted at
    # epsilon 1, and a string of epsilons swept one epsilon per character.
    # It reads np.True_, a bytearray, a memoryview and a 0-d array too, and
    # None, a list or a complex raised TypeError: only a real number passes.
    ds = Dataset(np.array([0.5]), np.array([0.5]))
    for bad in ("1.0", b"1.0", "inf", np.True_, bytearray(b"1.0"), memoryview(b"2"),
                np.array(1.0), None, [1.0], 1j):
        with pytest.raises(ValueError, match=re.escape(f"epsilon must be a number, got {bad!r}")):
            _as_epsilon(bad)
        for fit in (dp_rss_fit, dp_ss_fit, dp_theil_sen_fit):
            with pytest.raises(ValueError, match="epsilon must be a number"):
                fit(ds, bad, RandomStream(0, 0))
        with pytest.raises(ValueError, match="epsilon must be a number"):
            dp_rss_poly_fit(ds, 2, bad, RandomStream(0, 0))
    with pytest.raises(ValueError, match="epsilon must be a number, got '1'"):
        ExperimentGrid(epsilons="12", iterations=1, methods=("dp_rss",))
    with pytest.raises(ValueError, match="epsilon must be a number"):
        ExperimentGrid(epsilons=(np.True_,), iterations=1, methods=("dp_rss",))


def test_epsilon_floor_scale_is_the_largest_laplace_share_of_the_registry():
    # noise sits below the registry, so the floor's scale is a literal;
    # a record with a larger Laplace share must raise it.
    laplace = [m.share for m in MECHANISMS.values() if any(is_laplace for _, is_laplace in m.parts)]
    assert _LARGEST_SCALE == max(laplace) == 4
    assert _EPSILON_FLOOR == _LARGEST_SCALE * 53 * math.log(2) / math.sqrt(np.finfo(float).max)


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


def test_accepts_any_real_budget_as_its_float(three_point_line):
    # A budget is a plain number; a numpy scalar or an int fits as its float.
    b = dp_rss_fit(three_point_line, 1.5, RandomStream(3, 0))
    assert dp_rss_fit(three_point_line, np.float64(1.5), RandomStream(3, 0)) == b
    assert dp_rss_fit(three_point_line, 2, RandomStream(3, 0)) == dp_rss_fit(
        three_point_line, 2.0, RandomStream(3, 0))


def test_fallback_fit_is_fixed_line():
    assert FALLBACK_ALPHA == 0.0
    assert FALLBACK_BETA == 0.5
    empty = Dataset(np.array([]), np.array([]))
    # with the noise silenced the size estimate is exactly zero, which must
    # trip the guard deterministically
    for fit in (dp_rss_fit, dp_ss_fit):
        res = fit(empty, 1.0, ZeroNoiseStream(0, 0))
        assert res == FitResult((0.0, 0.5), fallback=True)
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
    assert [(e.label, e.epsilon, e.scale) for e in led.events] == [
        ("25th-percentile median", 0.45, None), ("75th-percentile median", 0.45, None)]


class ScaleRecordingStream(RandomStream):
    """A stream that records the scale of every Laplace draw and the uniforms it reads."""

    def __init__(self, seed, stream_index=0):
        super().__init__(seed, stream_index)
        self.scales = []
        self.uniforms = []

    def laplace(self, scale, size=None):
        self.scales.append(scale)
        return super().laplace(scale, size)

    def _laplace_u(self, size):
        u = super()._laplace_u(size)
        self.uniforms.append(np.array(u, copy=True))
        return u


def ledger_cases():
    """(name, fit(data, eps, stream, ledger)) for every fitter, k = 3 and d = 3."""
    cases = [(name, lambda d, e, s, led, fit=fit: fit(d, e, s, ledger=led))
             for name, fit in FITTERS.items()]
    cases.append(("dp_theil_sen k=3",
                  lambda d, e, s, led: dp_theil_sen_fit(d, e, s, TheilSenHyper(k=3), led)))
    cases.append(("dp_rss_poly d=3", lambda d, e, s, led: dp_rss_poly_fit(d, 3, e, s, led)))
    return cases


LEDGER_BUDGETS = (_EPSILON_FLOOR, 0.1, 0.3, 0.7, 1.0, 2.5, 1e6)


def test_drawn_laplace_scales_equal_the_ledger_scales(random_dataset):
    # Every Laplace draw uses, bit for bit, a scale that the ledger
    # declares, and every declared Laplace part is drawn. Theil-Sen declares
    # no Laplace part, and its fit reads no Laplace uniform and draws at no
    # scale. A Laplace release reads one uniform per cell and scales the
    # unit draw they give after (DECISIONS.md, D3), so its fit must equal,
    # bit for bit, the fit of that unit draw times the declared scale.
    ds = random_dataset(2, n=60)
    for name, fit in ledger_cases():
        for eps in LEDGER_BUDGETS:
            stream, led = ScaleRecordingStream(5, 1), NoiseLedger()
            got = fit(ds, eps, stream, led)
            declared = {e.scale for e in led.events if e.scale is not None}
            assert led.total_epsilon() == pytest.approx(eps, rel=1e-12), (name, eps)
            if name.startswith("dp_theil_sen"):
                assert (stream.scales, stream.uniforms, declared) == ([], [], set()), (name, eps)
                continue
            release = SS if name == "dp_ss" else RSS
            matrix = release.reading(got.degree)
            (scale,), (u,) = declared, stream.uniforms
            assert stream.scales == [] and u.shape == (len(matrix),), (name, eps)
            t = np.maximum(u, 2.0**-53) - 0.5
            unit = -(np.sign(t) * np.log1p(-2.0 * np.abs(t)))
            sums = _cell_sums([ds], release.rows, got.degree, len(matrix))[0]
            stats = (unit * scale + sums) @ matrix
            coeffs, fallback = _solve_refined(stats[None])
            want = FitResult(tuple(coeffs[0].tolist()), bool(fallback[0]))
            assert fit_bits(got) == fit_bits(want), (name, eps)


def test_every_ledger_is_the_same_on_every_input(random_dataset):
    # A ledger that read the data, as Theil-Sen's fallback once made it,
    # would leak through the budget it reports.
    empty = Dataset(np.array([]), np.array([]))
    for name, fit in ledger_cases():
        for eps in LEDGER_BUDGETS:
            ledgers = []
            for ds in (empty, random_dataset(3, n=60)):
                led = NoiseLedger()
                fit(ds, eps, RandomStream(0, 0), led)
                ledgers.append(led.events)
            assert ledgers[0] == ledgers[1], (name, eps)


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


def plain_pair_projections(x, y, perm):
    """Reference: every gather first, one filter, the plain expressions."""
    if perm.size % 2 == 1:
        perm = perm[:-1]
    i, j = perm[0::2], perm[1::2]
    xi, xj, yi, yj = x[i], x[j], y[i], y[j]
    keep = xj != xi
    xi, xj, yi, yj = xi[keep], xj[keep], yi[keep], yj[keep]
    slope = (yj - yi) / (xj - xi)
    mid_x = 0.5 * (xi + xj)
    mid_y = 0.5 * (yi + yj)
    return slope * (0.25 - mid_x) + mid_y, slope * (0.75 - mid_x) + mid_y


def test_pair_projections_equal_plain_expressions_bitwise():
    rng = np.random.default_rng(17)
    for case in range(200):
        n = int(rng.integers(0, 2000))
        x, y = rng.random(n), rng.random(n)
        if case % 2:  # many equal-x pairs
            x = np.round(x * rng.integers(1, 12)) / 12
        perm = rng.permutation(n)
        got = _pair_projections(x, y, perm)
        want = plain_pair_projections(x, y, perm)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], case


def test_theil_sen_combines_medians_into_line(monkeypatch):
    # With the two percentile medians pinned to 0.35 and 0.85 the fitted
    # line must pass through (0.25, 0.35) and (0.75, 0.85).
    calls = []

    def fake_medians(pools, epsilons, lo, hi, uniforms, tables=None):
        calls.append(([sum(len(part) for part in pool) for pool in pools], list(epsilons),
                      lo, hi, len(uniforms)))
        return np.array([[0.35, 0.85]])

    monkeypatch.setattr(mech, "_dp_medians", fake_medians)
    x = np.linspace(0.05, 0.95, 10)
    ds = Dataset(x, np.clip(0.5 * x + 0.2, 0.0, 1.0))
    res = dp_theil_sen_fit(ds, 0.9, ZeroNoiseStream(5, 0),
                           hyper=TheilSenHyper(k=3))
    assert res.alpha_hat == pytest.approx(1.0, abs=1e-12)
    assert res.beta_hat == pytest.approx(0.1, abs=1e-12)
    # Both medians run through one call.
    assert len(calls) == 1
    n_values, epsilons, lo, hi, n_uniforms = calls[0]
    assert n_values == [15, 15]      # three rounds of five pairs accumulate
    assert epsilons == [pytest.approx(0.15)]  # eps/2 per median, over k = 3
    assert (lo, hi) == (-2.0, 2.0)
    assert n_uniforms == 4           # each median draws its own pair


def test_theil_sen_small_or_degenerate_inputs_release_points_of_the_clip_range():
    # The fitter's draws and its ledger never depend on the data. With no
    # pair of distinct x each median runs on an empty list, which is one
    # interval, the clip range, so p25 and p75 are uniform points of it; the
    # matching is drawn all the same. Falling back on these inputs, as the
    # fitter once did, made the fallback line certain on one record and
    # impossible on two.
    empty = Dataset(np.array([]), np.array([]))
    single = Dataset(np.array([0.4]), np.array([0.6]))
    flat_x = Dataset(np.full(6, 0.3), np.linspace(0.0, 1.0, 6))
    for ds in (empty, single, flat_x):
        for seed in range(5):
            led = NoiseLedger()
            res = dp_theil_sen_fit(ds, 1.0, RandomStream(seed, 0), ledger=led)
            replay = RandomStream(seed, 0)
            replay.permutation(len(ds))
            u = replay.uniform(4)
            p25, p75 = -2.0 + 4.0 * u[1], -2.0 + 4.0 * u[3]
            alpha = (p75 - p25) / 0.5
            assert (res.alpha_hat.hex(), res.beta_hat.hex(), res.fallback) == (
                alpha.hex(), (p25 - alpha * 0.25).hex(), False)
            assert [e.label for e in led.events] == [
                "25th-percentile median", "75th-percentile median"]
            assert led.total_epsilon() == pytest.approx(1.0, abs=1e-12)
    # Zero records and one record give the same output on the same stream.
    assert dp_theil_sen_fit(empty, 0.5, RandomStream(3, 1)) == dp_theil_sen_fit(
        single, 0.5, RandomStream(3, 1))


def test_theil_sen_hyper_validation():
    with pytest.raises(ValueError):
        TheilSenHyper(k=0)
    # k counts matchings, as a seed or a stream index counts: numpy
    # integers pass, bools and floats do not.
    for bad in (2.5, True, False, np.bool_(True), 2.0, "2", np.int64(0), -1):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            TheilSenHyper(k=bad)
    assert TheilSenHyper(k=np.int64(2)).k == 2 and type(TheilSenHyper(k=np.int64(2)).k) is int
    with pytest.raises(ValueError):
        TheilSenHyper(r_lo=1.0, r_hi=-1.0)
    # An infinite clip bound once gave FitResult(nan, nan) with no fallback.
    for lo, hi in ((-math.inf, 2.0), (-2.0, math.inf), (math.nan, 2.0)):
        with pytest.raises(ValueError, match="clip range must be finite"):
            TheilSenHyper(r_lo=lo, r_hi=hi)
    # Finite bounds whose span overflows once gave a slope of order 1e308
    # with no fallback.
    with pytest.raises(ValueError, match="clip range must be finite"):
        TheilSenHyper(r_lo=-1.5e308, r_hi=1.5e308)
    # A finite span whose line can still leave the doubles: the slope
    # 2 (p75 - p25), or the intercept p25 - (p75 - p25)/2, overflowed.
    for lo, hi in ((-1.7e308, -1e308), (-5e307, 5e307), (1e308, 1.7e308)):
        with pytest.raises(ValueError, match="lets a slope or intercept overflow"):
            TheilSenHyper(r_lo=lo, r_hi=hi)
    assert TheilSenHyper().k == 1


def test_theil_sen_at_the_widest_accepted_clip_range_is_finite(random_dataset):
    # The widest accepted ranges have span max/2; RuntimeWarnings are
    # errors in this suite, so no step of these fits may overflow either.
    top = np.finfo(np.float64).max
    for lo, hi in ((-top / 4, top / 4), (0.0, top / 2), (-top / 2, 0.0)):
        hyper = TheilSenHyper(r_lo=lo, r_hi=hi)
        for ds in (random_dataset(8, n=30), Dataset(np.array([]), np.array([]))):
            for seed in range(20):
                fit = dp_theil_sen_fit(ds, 0.1, RandomStream(seed, 1), hyper)
                assert all(math.isfinite(c) for c in fit.coeffs) and not fit.fallback


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
    res = denormalize_fit(FitResult((0.5, 0.2)), bounds)
    assert res.alpha_hat == pytest.approx(5.0, abs=1e-12)
    assert res.beta_hat == pytest.approx(20.0, abs=1e-12)

    shifted = denormalize_fit(FitResult((1.0, 0.0)), Bounds(2.0, 4.0, 0.0, 1.0))
    assert shifted.alpha_hat == pytest.approx(0.5, abs=1e-12)
    assert shifted.beta_hat == pytest.approx(-1.0, abs=1e-12)

    identity = denormalize_fit(FitResult((0.3, 0.4)), Bounds(0.0, 1.0, 0.0, 1.0))
    assert (identity.alpha_hat, identity.beta_hat) == (0.3, 0.4)

    assert denormalize_fit(FitResult((0.0, 0.5), fallback=True), bounds).fallback


def test_line_accessors_and_denormalize_refuse_a_curve():
    line = FitResult((0.5, 0.2))
    assert line.degree == 1
    assert (line.alpha_hat, line.beta_hat) == (0.5, 0.2)
    cubic = FitResult((0.1, 0.2, 0.3, 0.4))
    assert cubic.degree == 3
    for read in (lambda f: f.alpha_hat, lambda f: f.beta_hat,
                 lambda f: denormalize_fit(f, Bounds(0.0, 10.0, 0.0, 100.0))):
        with pytest.raises(ValueError, match="degree-3 fit is not a line"):
            read(cubic)


def test_denormalized_line_tracks_normalized_line():
    g = RandomStream(31, 0)
    for _ in range(10):
        u = g.uniform(4)
        bounds = Bounds(u[0], u[0] + 1.0 + u[1], -u[2], u[2] + 0.5)
        fit = FitResult((float(2.0 * u[3] - 1.0), float(u[0])))
        raw = denormalize_fit(fit, bounds)
        for x_raw in (bounds.x_min, bounds.x_max, 0.5 * (bounds.x_min + bounds.x_max)):
            x_unit = (x_raw - bounds.x_min) / bounds.x_span
            want = bounds.y_min + bounds.y_span * (fit.alpha_hat * x_unit + fit.beta_hat)
            got = raw.alpha_hat * x_raw + raw.beta_hat
            assert got == pytest.approx(want, abs=1e-10)


CORE_BUDGETS = (0.05, 0.3, 1.0, 10.0)


def fit_bits(fit):
    """Hex of every number in a fit, so 0.0 and -0.0 differ too."""
    return (tuple(c.hex() for c in fit.coeffs), fit.fallback)


def core_cases():
    """(name, multi-budget core, public fitter) for every mechanism.

    A core draws every budget's release from one stream and solves the
    stack of releases in one batched call.
    """
    def core(release, hyper=None):
        def results(coeffs, fallback):
            return [FitResult(tuple(c), f) for c, f in zip(coeffs.tolist(), fallback.tolist())]
        hyper = release.hyper if hyper is None else hyper
        return lambda d, b, s: results(*release.solve(release.draw(release, [[(d, s)]], b, hyper)))

    cases = [(name, core(MECHANISMS[name]), FITTERS[name]) for name in FITTERS]
    k3 = TheilSenHyper(k=3)
    cases.append(("dp_theil_sen k=3", core(THEIL_SEN, k3),
                  lambda d, e, s: dp_theil_sen_fit(d, e, s, hyper=k3)))
    cases.append(("dp_rss_poly d=3", core(MECHANISMS["dp_rss_poly"], 3),
                  lambda d, e, s: dp_rss_poly_fit(d, 3, e, s)))
    return cases


def test_multi_budget_cores_equal_public_fitters_bitwise(random_dataset):
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
                        assert fit_bits(got) == fit_bits(want), (name, len(ds), seed, eps)
                        # one draw serves all budgets: the stream ends where one fit ends
                        assert alone.uniform() == after, (name, len(ds), seed, eps)


def test_theil_sen_draw_builds_one_rank_table_per_projection_count(random_dataset):
    # The medians' rank table depends on the number of projections and the
    # budgets alone, and median keeps the last one built, so a draw over 100
    # pairs of one dataset builds it once and an identical draw builds none;
    # a pair with another count builds its own (DECISIONS.md, D13, D23).
    table = median._rank_table
    table.cache_clear()
    ds = random_dataset(6, n=500)
    budgets = (0.1, 0.5, 1.0, 2.0, 8.0)
    for _ in range(2):  # the second, identical draw builds no table
        draws = mech._theil_sen_draw(THEIL_SEN, [[(ds, RandomStream(7, i)) for i in range(100)]],
                                     budgets, THEIL_SEN.hyper)
        assert draws.shape == (100 * len(budgets), 2) and table.cache_info().misses == 1
    tied = Dataset(np.array([0.2, 0.2, 0.4, 0.6]), np.array([0.1, 0.2, 0.3, 0.4]))
    pairs = [(ds, RandomStream(7, 0)), (ds, RandomStream(7, 1)), (tied, RandomStream(7, 2))]
    mech._theil_sen_draw(THEIL_SEN, [pairs], budgets, THEIL_SEN.hyper)
    assert table.cache_info().misses == 2 and table.cache_info().currsize == 1
    m = _pair_projections(tied.x, tied.y, RandomStream(7, 2).permutation(4))[0].size
    assert m in (1, 2)
    hits = table.cache_info().hits
    table(m, tuple(0.5 * (b / 2) for b in budgets))  # the tied pair's table is the one kept
    assert table.cache_info().hits == hits + 1 and table.cache_info().misses == 2


def test_blocked_theil_sen_draw_equals_one_draw_per_pair_bitwise(random_dataset, monkeypatch):
    # Consecutive pairs with as many projections share one median pass, cut
    # where the weight array would pass _BLOCK_ENTRIES or the count changes.
    # Every row still equals its pair's draw alone, bit for bit, and every
    # stream ends where its lone draw ends (DECISIONS.md, D16).
    blocks, log_rows = [], []

    def counting(pools, *args):
        blocks.append(len(pools) // 2)
        return dp_medians(pools, *args)

    def log_counting(edges, halves):
        log_rows.append(edges.size - 2)
        return log_weights(edges, halves)

    dp_medians, log_weights = mech._dp_medians, median._log_weights
    monkeypatch.setattr(mech, "_dp_medians", counting)
    monkeypatch.setattr(median, "_log_weights", log_counting)
    ds = random_dataset(6, n=500)
    tied = Dataset(np.round(ds.x * 3) / 3, ds.y)  # fewer projections: equal-x pairs drop out
    empty, single = Dataset(np.array([]), np.array([])), Dataset(np.array([0.4]), np.array([0.6]))
    line = np.linspace(0.25, 1.0, 4)
    collinear = Dataset(line, line)  # every projection ties, so rows take the log pass at 1e300
    datasets = [ds] * 40 + [tied] + [ds] * 70 + [empty, single, empty] + [collinear] * 5 + [ds] * 2
    budgets = (0.1, 1.0, 8.0, 1e300)
    for hyper in (THEIL_SEN.hyper, TheilSenHyper(k=3)):
        streams = [RandomStream(7, i) for i in range(len(datasets))]
        blocks.clear()
        log_rows.clear()
        got = mech._theil_sen_draw(THEIL_SEN, [list(zip(datasets, streams))], budgets, hyper)
        assert log_rows.count(2 * hyper.k) == 10  # each collinear pool, in one block of 5 pairs
        per_block = mech._BLOCK_ENTRIES // (len(budgets) * 2 * median._width(250 * hyper.k))
        assert sum(blocks) == len(datasets) and blocks.count(per_block) >= 2, blocks
        assert max(blocks) == per_block and 5 in blocks  # the collinear pairs share one pass
        want = []
        for i, data in enumerate(datasets):
            alone = RandomStream(7, i)
            want.append(mech._theil_sen_draw(THEIL_SEN, [[(data, alone)]], budgets, hyper))
            assert streams[i].uniform() == alone.uniform(), (hyper.k, i)
        np.testing.assert_array_equal(got.view(np.int64), np.concatenate(want).view(np.int64))


def test_multi_budget_cores_check_every_budget_before_drawing(random_dataset):
    ds = random_dataset(5, n=20)
    for name, core, _ in core_cases():
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            for budgets in ((bad, 1.0, 2.0), (1.0, 2.0, bad)):
                stream = RandomStream(8, 1)
                with pytest.raises(ValueError):
                    core(ds, budgets, stream)
                assert stream.uniform() == RandomStream(8, 1).uniform(), (name, budgets)


def test_draws_check_the_degree_and_every_budget_before_the_first_pair():
    # The sweep's pairs are a generator that builds each stream, and in
    # fresh mode its dataset, as it is taken; none may be taken for a bad call.
    def untouched():
        raise AssertionError("a pair was taken before the checks")
        yield

    draws = [lambda p, b, m=m: m.draw(m, p, b, m.hyper) for m in MECHANISMS.values()
             if m.hyper is not None]
    draws.append(lambda p, b: _laplace_draw(RSS, p, b, degree=3))
    for draw in draws:
        for budgets in ((1.0, 0.0), (float("nan"),), (-1.0, 2.0)):
            with pytest.raises(ValueError):
                draw(untouched(), budgets)
    for degree in (0, 1.5):
        with pytest.raises(ValueError, match="degree"):
            _laplace_draw(RSS, untouched(), (1.0,), degree)
    with pytest.raises(ValueError, match="dp_ss releases a line only"):
        _laplace_draw(SS, untouched(), (1.0,), 2)


def test_every_mechanism_at_the_epsilon_floor_is_finite_or_falls_back(random_dataset):
    # At the smallest accepted epsilon the noise is about 1e152 per sum.
    # Every fit must still be finite or the fallback, and no step may
    # overflow: RuntimeWarnings are errors in this suite, so this also
    # shows that the batched solvers raise none on the rows they keep.
    fitters = [dp_rss_fit, dp_ss_fit, dp_theil_sen_fit]
    fitters += [lambda d, e, s, k=k: dp_rss_poly_fit(d, k, e, s) for k in (1, 2, 3)]
    datasets = [random_dataset(6, n=40), Dataset(np.array([0.2, 0.9]), np.array([0.8, 0.1])),
                Dataset(np.array([0.5]), np.array([0.5]))]
    kept = 0
    for fit in fitters:
        for ds in datasets:
            for seed in range(40):
                res = fit(ds, _EPSILON_FLOOR, RandomStream(seed, 4))
                assert all(math.isfinite(v) for v in res.coeffs)
                kept += not res.fallback
    assert kept > 0
