import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from dpreg import (
    METHOD_NAMES,
    ExperimentGrid,
    ExperimentRow,
    FitResult,
    MetricResult,
    RandomStream,
    RSS_VARIANCES,
    SS_VARIANCES,
    STATISTIC_ORDER,
    SetupConfig,
    generate_setup,
    l1_error,
    l2_error,
    line_errors,
    reference_setup,
    run_experiment,
    simulate_baseline_stats,
    simulate_refined_stats,
    verify_variances,
)
from dpreg.cli import MECHANISM_NAMES
from dpreg.evaluate import _generate_on
from dpreg.mechanisms import _FIT_CORES, FITTERS


def test_setup_config_validation():
    with pytest.raises(ValueError):
        SetupConfig(n=0, alpha=0.0, beta=0.5, sigma=0.1, seed=0)
    with pytest.raises(ValueError):
        SetupConfig(n=10, alpha=0.0, beta=0.5, sigma=-0.1, seed=0)
    with pytest.raises(ValueError):
        SetupConfig(n=10, alpha=0.0, beta=0.5, sigma=0.1, seed=-1)


def test_reference_setups():
    one = reference_setup(1, seed=7)
    assert (one.n, one.alpha, one.beta, one.sigma) == (5000, -0.7, 0.8, 0.05)
    two = reference_setup(2, seed=7)
    assert (two.n, two.alpha, two.beta, two.sigma) == (10000, 0.5, 0.2, 0.1)
    with pytest.raises(ValueError):
        reference_setup(3, seed=7)


def test_generate_setup_is_deterministic_and_bounded():
    cfg = SetupConfig(n=4000, alpha=0.5, beta=0.2, sigma=0.4, seed=5)
    ds = generate_setup(cfg)
    again = generate_setup(cfg)
    assert np.array_equal(ds.x, again.x)
    assert np.array_equal(ds.y, again.y)
    assert len(ds) == 4000
    assert ds.x.min() >= 0.0 and ds.x.max() < 1.0
    assert ds.y.min() >= 0.0 and ds.y.max() <= 1.0
    # a wide sigma actually exercises the clipping
    assert (ds.y == 0.0).any() or (ds.y == 1.0).any()


def test_generate_setup_noiseless_line():
    cfg = SetupConfig(n=100, alpha=0.0, beta=0.5, sigma=0.0, seed=1)
    ds = generate_setup(cfg)
    assert np.all(ds.y == 0.5)


def test_l1_error_worked_examples():
    assert l1_error((0.3, 0.4), (0.3, 0.4)) == 0.0
    # mean of |x_i| over x_i = i/1000 is 1001/2000
    assert l1_error((0.0, 0.0), (1.0, 0.0)) == pytest.approx(0.5005, abs=1e-12)
    assert l1_error((0.0, 0.0), (0.0, 0.1)) == pytest.approx(0.1, abs=1e-12)
    assert l1_error(FitResult(0.0, 0.0), FitResult(1.0, 0.0)) == pytest.approx(0.5005)


def test_l1_error_close_to_exact_integral():
    g = RandomStream(2, 0)
    xs = np.linspace(0.0, 1.0, 1_000_001)
    for _ in range(10):
        a, b = 4.0 * g.uniform(2) - 2.0
        dense = float(np.mean(np.abs(a * xs + b)))
        assert abs(l1_error((0.0, 0.0), (a, b)) - dense) <= 1e-3


def test_l2_error_worked_examples():
    assert l2_error((0.1, 0.2), (1.1, 0.2)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert l2_error((0.0, 0.0), (0.0, 0.1)) == pytest.approx(0.01, rel=1e-12)
    assert l2_error((0.5, 0.2), (0.5, 0.2)) == 0.0


def test_l2_error_matches_quadrature():
    xs = np.linspace(0.0, 1.0, 2001)
    g = RandomStream(3, 0)
    for _ in range(200):
        a, b = 4.0 * g.uniform(2) - 2.0
        oracle = simpson((a * xs + b) ** 2, x=xs)
        assert l2_error((0.0, 0.0), (a, b)) == pytest.approx(oracle, abs=1e-9)


def test_metric_result():
    m = line_errors((0.0, 0.0), (1.0, 0.0))
    assert m.l1 == pytest.approx(0.5005, abs=1e-12)
    assert m.l2 == pytest.approx(1.0 / 3.0, rel=1e-12)
    with pytest.raises(ValueError):
        MetricResult(-0.1, 0.0)


def test_experiment_grid_validation():
    ExperimentGrid((0.5, 1.0), 3, ("dp_rss",))
    with pytest.raises(ValueError):
        ExperimentGrid((), 3, ("dp_rss",))
    with pytest.raises(ValueError):
        ExperimentGrid((1.0, 0.5), 3, ("dp_rss",))
    with pytest.raises(ValueError):
        ExperimentGrid((-1.0,), 3, ("dp_rss",))
    for bad in (float("inf"), float("nan"), 1e-320):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            ExperimentGrid((0.5, bad), 3, ("dp_rss",))
    with pytest.raises(ValueError):
        ExperimentGrid((1.0,), 0, ("dp_rss",))
    with pytest.raises(ValueError):
        ExperimentGrid((1.0,), 3, ())
    with pytest.raises(ValueError, match="least_squares"):
        ExperimentGrid((1.0,), 3, ("least_squares",))


def test_method_names_come_from_the_fitter_registry():
    assert METHOD_NAMES == tuple(FITTERS) == tuple(_FIT_CORES) == (
        "dp_rss", "dp_ss", "dp_theil_sen")
    assert MECHANISM_NAMES == METHOD_NAMES + ("dp_rss_poly",)
    assert ExperimentGrid((1.0,), 1, METHOD_NAMES).methods == METHOD_NAMES


def test_run_experiment_shape_and_determinism():
    setup = SetupConfig(n=200, alpha=0.5, beta=0.2, sigma=0.05, seed=9)
    grid = ExperimentGrid((0.5, 2.0), 5, ("dp_theil_sen", "dp_rss"))
    rows = run_experiment(setup, grid)
    assert [(r.method, r.epsilon) for r in rows] == [
        ("dp_rss", 0.5), ("dp_rss", 2.0),
        ("dp_theil_sen", 0.5), ("dp_theil_sen", 2.0),
    ]
    assert rows == run_experiment(setup, grid)
    for r in rows:
        assert r.mean_l1 >= 0 and r.mean_l2 >= 0
        assert r.std_l1 >= 0 and r.std_l2 >= 0


def test_run_experiment_single_iteration_has_nan_std():
    setup = SetupConfig(n=50, alpha=0.5, beta=0.2, sigma=0.05, seed=9)
    rows = run_experiment(setup, ExperimentGrid((1.0,), 1, ("dp_rss",)))
    assert len(rows) == 1
    assert math.isnan(rows[0].std_l1) and math.isnan(rows[0].std_l2)
    assert rows[0].mean_l1 == rows[0].median_l1


def test_run_experiment_fresh_data_mode_is_reproducible():
    setup = SetupConfig(n=100, alpha=0.5, beta=0.2, sigma=0.05, seed=4)
    grid = ExperimentGrid((1.0,), 4, ("dp_rss",))
    fixed = run_experiment(setup, grid)
    fresh = run_experiment(setup, grid, fresh_data_per_iteration=True)
    assert fresh == run_experiment(setup, grid, fresh_data_per_iteration=True)
    assert fresh != fixed


def per_cell_rows(setup, grid, fresh_data_per_iteration=False):
    """The semantics of ``run_experiment``: one public fit per cell.

    Each (method, epsilon, iteration) cell builds its own stream, draws its
    own data in fresh mode, and scores its fit with ``l1_error`` and
    ``l2_error``.
    """
    fixed = None if fresh_data_per_iteration else generate_setup(setup)
    truth = (setup.alpha, setup.beta)
    rows = []
    for method in sorted(grid.methods):
        for eps in grid.epsilons:
            l1s, l2s = [], []
            for i in range(grid.iterations):
                stream = RandomStream(setup.seed, i + 1)
                data = _generate_on(stream, setup) if fresh_data_per_iteration else fixed
                fit = FITTERS[method](data, eps, stream)
                l1s.append(l1_error(truth, fit))
                l2s.append(l2_error(truth, fit))
            l1s, l2s = np.array(l1s), np.array(l2s)
            many = grid.iterations > 1
            rows.append(ExperimentRow(
                method, eps,
                float(np.mean(l1s)), float(np.std(l1s, ddof=1)) if many else float("nan"),
                float(np.mean(l2s)), float(np.std(l2s, ddof=1)) if many else float("nan"),
                float(np.median(l1s)), float(np.median(l2s)),
            ))
    return rows


def row_bits(rows):
    return [tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(r))
            for r in rows]


@pytest.mark.parametrize("fresh", [False, True])
@pytest.mark.parametrize("n", [2, 3, 50])
def test_run_experiment_equals_per_cell_loop_bitwise(n, fresh):
    # Tiny n makes most fits fall back; the rows must still match exactly.
    setup = SetupConfig(n=n, alpha=0.5, beta=0.2, sigma=0.3, seed=11)
    grid = ExperimentGrid((0.05, 1.0, 10.0), 25, METHOD_NAMES)
    assert row_bits(run_experiment(setup, grid, fresh)) == row_bits(
        per_cell_rows(setup, grid, fresh))


def test_run_experiment_equals_per_cell_loop_on_reference_setups():
    grid = ExperimentGrid((0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0), 4, METHOD_NAMES)
    for index, seed in ((1, 101), (2, 202)):
        setup = reference_setup(index, seed)
        assert row_bits(run_experiment(setup, grid)) == row_bits(per_cell_rows(setup, grid))
    single = ExperimentGrid((0.5,), 1, METHOD_NAMES)
    setup = reference_setup(1, 7)
    assert row_bits(run_experiment(setup, single, True)) == row_bits(
        per_cell_rows(setup, single, True))


def test_simulated_stat_arrays_have_trial_shape(three_point_line):
    ref = simulate_refined_stats(three_point_line, 1.0, 64, RandomStream(0, 0))
    assert list(ref) == list(STATISTIC_ORDER)
    assert ref["n"].shape == (64,)
    base = simulate_baseline_stats(three_point_line, 1.0, 64, RandomStream(0, 0))
    assert set(base) == set(STATISTIC_ORDER)
    assert base["n"].shape == (64,)


def test_theoretical_variance_constants():
    assert RSS_VARIANCES == {"n": 12.0, "s_x": 32.0 / 3.0, "s_y": 32.0 / 3.0,
                             "s_x2": 20.0 / 3.0, "s_xy": 20.0 / 3.0}
    assert SS_VARIANCES == {"n": 16.0, "s_x": 32.0, "s_y": 32.0,
                            "s_x2": 32.0, "s_xy": 32.0}


def test_verify_variances_scaling_and_floor():
    with pytest.raises(ValueError):
        verify_variances(1.0, 50_000, RandomStream(0, 0))
    for bad in (0.0, float("inf"), float("nan"), 1e-320):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            verify_variances(bad, 100_000, RandomStream(0, 0))
    rows = verify_variances(2.0, 100_000, RandomStream(1, 0))
    assert len(rows) == 10
    assert [r.statistic for r in rows[::2]] == list(STATISTIC_ORDER)
    by_key = {(r.method, r.statistic): r for r in rows}
    # quadrupling: variances scale as 1/epsilon^2
    assert by_key[("dp_rss", "n")].theoretical_var == pytest.approx(3.0)
    assert by_key[("dp_ss", "s_x")].theoretical_var == pytest.approx(8.0)
    for r in rows:
        assert r.relative_error <= 0.05
        assert r.relative_error == pytest.approx(
            abs(r.empirical_var - r.theoretical_var) / r.theoretical_var)
