import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from dpreg import (
    METHOD_NAMES,
    ExperimentGrid,
    ExperimentRow,
    FitResult,
    NoiseLedger,
    RandomStream,
    RSS_VARIANCES,
    SS_VARIANCES,
    STATISTIC_ORDER,
    SetupConfig,
    generate_setup,
    l1_error,
    l2_error,
    reference_setup,
    run_experiment,
    simulate_stats,
    verify_variances,
)
from dpreg.cli import MECHANISM_NAMES
from dpreg.data import _CHUNK, Dataset
from dpreg.evaluate import (
    _KEPT_MAX_N,
    _TRIAL_CHUNK,
    VARIANCES,
    _datasets,
    _fixed_dataset,
    _gap_means,
    _kept_setup,
    _line_errors,
)
from dpreg.mechanisms import FITTERS, MECHANISMS, _fit
from dpreg.simplex import LINEAR_COLUMNS, _cell_sums, _laplace_draw

from zero_noise import ZeroNoiseStream


def test_setup_config_validation():
    with pytest.raises(ValueError):
        SetupConfig(n=0, alpha=0.0, beta=0.5, sigma=0.1, seed=0)
    with pytest.raises(ValueError):
        SetupConfig(n=10, alpha=0.0, beta=0.5, sigma=-0.1, seed=0)
    with pytest.raises(ValueError):
        SetupConfig(n=10, alpha=0.0, beta=0.5, sigma=0.1, seed=-1)
    for name in ("alpha", "beta", "sigma"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            values = dict(alpha=0.0, beta=0.5, sigma=0.1)
            values[name] = bad
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SetupConfig(n=10, seed=0, **values)
    # Counts and seeds follow the rules of seeds and stream indices: numpy
    # integers pass, as plain ints, and bools do not.
    cfg = SetupConfig(n=np.int64(10), alpha=0.0, beta=0.5, sigma=0.1, seed=np.uint32(3))
    assert (cfg.n, cfg.seed) == (10, 3) and type(cfg.n) is type(cfg.seed) is int
    assert ExperimentGrid((1.0,), np.int16(4), ("dp_rss",)).iterations == 4
    for bad in (True, 10.0):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            SetupConfig(n=bad, alpha=0.0, beta=0.5, sigma=0.1, seed=0)
    # A bool is not a number here: True would run at alpha 1, False at sigma 0.
    for name in ("alpha", "beta", "sigma"):
        for bad in (True, False, np.bool_(True)):
            values = dict(alpha=0.0, beta=0.5, sigma=0.1)
            values[name] = bad
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                SetupConfig(n=10, seed=0, **values)


def test_setup_values_of_more_than_4300_digits_are_refused_by_their_own_rule():
    # str() of such an int raises Python's digit-limit ValueError, which once
    # replaced the message; the message names the field and the float it reads.
    for name, big in (("alpha", 10**5000), ("beta", -(10**5000))):
        values = {"alpha": 0.0, "beta": 0.5, "sigma": 0.1, name: big}
        with pytest.raises(ValueError, match=f"^{name} must be finite, got -?inf$"):
            SetupConfig(n=10, seed=0, **values)


def test_setup_config_refuses_values_that_are_not_real_numbers():
    # Text, None, a list and a complex once raised TypeError from math.isfinite.
    for bad in ("0.5", None, [0.5], 1j):
        with pytest.raises(ValueError, match="beta must be a number"):
            SetupConfig(n=10, alpha=0.0, beta=bad, sigma=0.1, seed=0)


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
    assert l1_error(FitResult((0.0, 0.0)), FitResult((1.0, 0.0))) == pytest.approx(0.5005)


def test_l1_error_grid_size_must_be_a_positive_integer():
    # n_points = 0 once gave NaN with a RuntimeWarning, -5 gave 0.6 and 2.5
    # gave 0.9; numpy integers pass, as they do for seeds.
    for bad in (0, -5, 2.5, 3.0, True, np.int64(0), "10", None):
        with pytest.raises(ValueError, match="n_points must be a positive integer"):
            l1_error((0.0, 0.0), (1.0, 0.2), bad)
    assert l1_error((0.0, 0.0), (1.0, 0.2), np.int64(3)) == l1_error((0.0, 0.0), (1.0, 0.2), 3)
    assert l1_error((0.0, 0.0), (1.0, 0.2), 1) == pytest.approx(1.2, abs=1e-15)


def test_line_errors_refuse_a_curve():
    cubic = FitResult((0.1, 0.2, 0.3, 0.4))
    for metric in (l1_error, l2_error):
        with pytest.raises(ValueError, match="degree-3 fit is not a line"):
            metric((0.0, 0.0), cubic)


def test_l1_error_close_to_exact_integral():
    g = RandomStream(2, 0)
    xs = np.linspace(0.0, 1.0, 1_000_001)
    for _ in range(10):
        a, b = 4.0 * g.uniform(2) - 2.0
        dense = float(np.mean(np.abs(a * xs + b)))
        assert abs(l1_error((0.0, 0.0), (a, b)) - dense) <= 1e-3


def test_closed_form_l1_matches_the_grid_mean():
    # The closed form against the mean it replaces, np.mean(np.abs(A x + B))
    # on x = i/1000, on 1.1e5 lines: A and B at one scale from 1e-6 to
    # 1e6, and up to 1e304; integer A and quarter-integer B with the root
    # on a grid point; A = 0. It stays within 4 ulps of |A| + |B|: 2 at
    # most here, and 1.5 against the same grid values summed in extended
    # precision, so the grid mean's own rounding is part of it (DECISIONS.md, D13).
    g = np.random.default_rng(13)
    scale = 10.0 ** g.uniform(-6.0, 6.0, 60_000)
    huge = 10.0 ** g.uniform(300.0, 304.0, 5_000)
    c = g.integers(1, 41, 40_000) * g.choice([-1, 1], 40_000)
    root = g.integers(0, 1001, 40_000)
    quarters = g.integers(-4000, 4001, 5_000) / 4.0
    a = np.concatenate([g.normal(size=60_000) * scale, g.normal(size=5_000) * huge,
                        250.0 * c, np.zeros(5_000)])
    b = np.concatenate([g.normal(size=60_000) * scale, g.normal(size=5_000) * huge,
                        -c * root / 4.0, quarters])
    assert len(a) >= 100_000
    xs = np.arange(1, 1001, dtype=np.float64) / 1000
    l1 = _gap_means(a, b, 1000)
    for start in range(0, len(a), 2000):
        part = slice(start, start + 2000)
        grid = np.mean(np.abs(a[part, None] * xs + b[part, None]), axis=1)
        assert np.isfinite(grid).all() and np.isfinite(l1[part]).all()
        ulps = np.abs(l1[part] - grid) / np.spacing(np.abs(a[part]) + np.abs(b[part]))
        assert ulps.max() <= 4.0, start + int(ulps.argmax())
    # A = 0 is exactly |B|, where the grid mean's pairwise sum is not.
    assert (l1[-5_000:] == np.abs(b[-5_000:])).all()
    flat = 10.0 ** g.uniform(-6.0, 6.0, 1000) * g.normal(size=1000)
    assert (_line_errors((0.0, 0.0), np.column_stack([np.zeros(1000), flat]))[0]
            == np.abs(flat)).all()
    # Equal lines score exactly 0, and one line scores as its row, bit for bit.
    assert (_line_errors((0.5, 0.2), np.tile([0.5, 0.2], (3, 1)))[0] == 0.0).all()
    for i in range(0, len(a), 997):
        assert l1_error((a[i], b[i]), (0.0, 0.0)).hex() == l1[i].hex()
        assert l1_error((a[i], b[i]), (a[i], b[i])) == 0.0


def test_l2_error_worked_examples():
    assert l2_error((0.1, 0.2), (1.1, 0.2)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert l2_error((0.0, 0.0), (0.0, 0.1)) == pytest.approx(0.01, rel=1e-12)
    assert l2_error((0.5, 0.2), (0.5, 0.2)) == 0.0


def test_l2_error_equals_the_sweep_score_bitwise():
    # l2_error scores one line on floats, the sweep a stack of them through
    # _line_errors; both run the one l2 form, so each line scores the same
    # bits, past 1e154 too, where the form overflows to inf or NaN without
    # a warning.
    g = np.random.default_rng(4)
    lines = g.normal(size=(3000, 2)) * 10.0 ** g.uniform(-6.0, 200.0, (3000, 1))
    lines = np.concatenate([lines, [[1e300, -1e300], [0.0, 1e160], [0.5, 0.2]]])
    for truth in ((0.5, 0.2), (-0.7, 0.8)):
        stacked = _line_errors(truth, lines)[1]
        assert np.isinf(stacked).any() and np.isnan(stacked).any()
        for (a, b), want in zip(lines.tolist(), stacked.tolist()):
            assert l2_error(truth, (a, b)).hex() == want.hex(), (truth, a, b)


def test_l2_error_matches_quadrature():
    xs = np.linspace(0.0, 1.0, 2001)
    g = RandomStream(3, 0)
    for _ in range(200):
        a, b = 4.0 * g.uniform(2) - 2.0
        oracle = simpson((a * xs + b) ** 2, x=xs)
        assert l2_error((0.0, 0.0), (a, b)) == pytest.approx(oracle, abs=1e-9)


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


def test_method_names_come_from_the_mechanism_registry():
    # Every name table is read from the registry: the line records give the
    # fitters and the sweep's methods, and the CLI offers every record.
    lines = [name for name, m in MECHANISMS.items() if m.hyper is not None]
    assert FITTERS == {name: MECHANISMS[name].fit for name in lines}
    assert METHOD_NAMES == tuple(lines) == ("dp_rss", "dp_ss", "dp_theil_sen")
    assert MECHANISM_NAMES == tuple(MECHANISMS) == METHOD_NAMES + ("dp_rss_poly",)
    assert ExperimentGrid((1.0,), 1, METHOD_NAMES).methods == METHOD_NAMES
    assert all(name in MECHANISMS for name in VARIANCES)


def test_a_record_added_to_the_registry_alone_is_served(monkeypatch, three_point_line):
    # dp_ss's cells under a new name and new ledger labels, added to the
    # registry and nowhere else: the fitter path, its ledger, the sweep and
    # the simulator serve it as they serve dp_ss.
    ss = MECHANISMS["dp_ss"]
    parts = tuple((f"toy {label}", laplace) for label, laplace in ss.parts)
    monkeypatch.setitem(MECHANISMS, "toy", dataclasses.replace(ss, parts=parts))
    ds = reference_setup(1, 3)
    got_ledger, want_ledger = NoiseLedger(), NoiseLedger()
    got = _fit("toy", three_point_line, 0.7, RandomStream(5, 1), got_ledger)
    assert got == FITTERS["dp_ss"](three_point_line, 0.7, RandomStream(5, 1), want_ledger)
    assert [e.label for e in got_ledger.events] == [label for label, _ in parts]
    assert [(e.epsilon, e.scale) for e in got_ledger.events] == [
        (e.epsilon, e.scale) for e in want_ledger.events]
    toy = run_experiment(ds, ExperimentGrid((0.5, 2.0), 6, ("toy",)))
    ss = run_experiment(ds, ExperimentGrid((0.5, 2.0), 6, ("dp_ss",)))
    assert [r.method for r in toy] == ["toy", "toy"]
    assert row_bits([dataclasses.replace(r, method="dp_ss") for r in toy]) == row_bits(ss)
    for stat, values in simulate_stats("toy", three_point_line, 0.7, 9, RandomStream(2, 0)).items():
        want = simulate_stats("dp_ss", three_point_line, 0.7, 9, RandomStream(2, 0))[stat]
        assert values.tobytes() == want.tobytes(), stat
    # The module-level tables were read at import, so they do not list it.
    assert "toy" not in METHOD_NAMES and "toy" not in FITTERS


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


def fresh_dataset(setup, stream):
    """One iteration's fresh data, by the plain per-stream expression: x, then the noise."""
    x = stream.uniform(setup.n)
    y = np.clip(setup.alpha * x + setup.beta + setup.sigma * stream.normal(setup.n), 0.0, 1.0)
    return Dataset(x, y)


def per_cell_rows(setup, grid, fresh_data_per_iteration=False):
    """The semantics of ``run_experiment``: one public fit per cell.

    Each (method, epsilon, iteration) cell builds its own stream, draws its
    own data in fresh mode with ``fresh_dataset``, not the blocked draw under
    test, and scores its fit with ``l1_error`` and ``l2_error``.
    """
    fixed = None if fresh_data_per_iteration else generate_setup(setup)
    truth = (setup.alpha, setup.beta)
    rows = []
    for method in sorted(grid.methods):
        for eps in grid.epsilons:
            l1s, l2s = [], []
            for i in range(grid.iterations):
                stream = RandomStream(setup.seed, i + 1)
                data = fresh_dataset(setup, stream) if fresh_data_per_iteration else fixed
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
@pytest.mark.parametrize("n", [2, 3, 50, 500, 1000, 3000, 7000, 20000])
def test_run_experiment_equals_per_cell_loop_bitwise(n, fresh):
    # Tiny n makes most fits fall back; the rows must still match exactly.
    # Fresh data is drawn, and summed, in blocks of data._CHUNK // n
    # datasets. Over 25 iterations, n = 1000 and 7000 fill several blocks
    # and n = 500 less than one; n = 3000 at 7 iterations ends on a block of
    # 2 after one of 5, and n = 20000, past data._CHUNK, is a block alone.
    iterations = {3000: 7, 20000: 3}.get(n, 25)
    setup = SetupConfig(n=n, alpha=0.5, beta=0.2, sigma=0.3, seed=11)
    grid = ExperimentGrid((0.05, 1.0, 10.0), iterations, METHOD_NAMES)
    assert row_bits(run_experiment(setup, grid, fresh)) == row_bits(
        per_cell_rows(setup, grid, fresh))


@pytest.mark.parametrize("fresh", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_run_experiment_equals_per_cell_loop_in_fallback_heavy_cells(n, fresh):
    # At n = 2..5 and epsilon = 0.05 most dp_rss and dp_ss fits fall back,
    # so every batched solve mixes fallback rows with kept ones.
    setup = SetupConfig(n=n, alpha=0.5, beta=0.2, sigma=0.3, seed=20 + n)
    grid = ExperimentGrid((0.05,), 100, ("dp_rss", "dp_ss"))
    assert row_bits(run_experiment(setup, grid, fresh)) == row_bits(
        per_cell_rows(setup, grid, fresh))
    fixed = generate_setup(setup)
    for method in grid.methods:
        fallbacks = 0
        for i in range(grid.iterations):
            stream = RandomStream(setup.seed, i + 1)
            data = fresh_dataset(setup, stream) if fresh else fixed
            fallbacks += FITTERS[method](data, 0.05, stream).fallback
        assert 50 <= fallbacks < grid.iterations, (method, fallbacks)


@pytest.mark.parametrize("fresh", [False, True])
def test_run_experiment_equals_per_cell_loop_at_one_iteration(fresh):
    # A (budgets, 1) error array: each cell's std takes the NaN guard of the
    # axis-1 reductions, and its mean and median are its one error.
    setup = SetupConfig(n=60, alpha=-0.4, beta=0.7, sigma=0.1, seed=13)
    grid = ExperimentGrid((0.1, 1.0, 10.0), 1, METHOD_NAMES)
    assert row_bits(run_experiment(setup, grid, fresh)) == row_bits(
        per_cell_rows(setup, grid, fresh))


@pytest.mark.parametrize("n", [50, 1000, 3000, 20000])
def test_fresh_datasets_are_read_only_views_with_their_own_caches(n):
    # The blocked draw hands out views of its x and y block, never of the
    # scratch that holds the uniforms: each is read-only on a read-only
    # base, so no write can change a record under its cached sums.
    setup = SetupConfig(n=n, alpha=0.5, beta=0.2, sigma=0.3, seed=6)
    count = 2 * max(1, _CHUNK // n) + 1  # two full blocks and one of a dataset
    pairs = list(itertools.chain.from_iterable(
        _datasets(setup, RandomStream._substreams(setup.seed, 1, count + 1))))
    assert [s.stream_index for _, s in pairs] == list(range(1, count + 1))
    for ds, stream in pairs:
        want = fresh_dataset(setup, RandomStream(setup.seed, stream.stream_index))
        assert (ds.x.tobytes(), ds.y.tobytes()) == (want.x.tobytes(), want.y.tobytes())
        assert ds.cache == {}
        for values in (ds.x, ds.y):
            assert not values.flags.writeable
            assert values.base is not None and not values.base.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.5
    assert len({id(ds.cache) for ds, _ in pairs}) == count
    bases = {id(values.base) for ds, _ in pairs for values in (ds.x, ds.y)}
    assert len(bases) == 3  # one x and y block per block of datasets
    rss = MECHANISMS["dp_rss"]
    _cell_sums([pairs[0][0]], rss.rows, 1, len(rss.reading(1)))
    assert all(ds.cache == {} for ds, _ in pairs[1:])


def test_run_experiment_equals_per_cell_loop_on_reference_setups():
    grid = ExperimentGrid((0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0), 4, METHOD_NAMES)
    for index, seed in ((1, 101), (2, 202)):
        setup = reference_setup(index, seed)
        assert row_bits(run_experiment(setup, grid)) == row_bits(per_cell_rows(setup, grid))
    single = ExperimentGrid((0.5,), 1, METHOD_NAMES)
    setup = reference_setup(1, 7)
    assert row_bits(run_experiment(setup, single, True)) == row_bits(
        per_cell_rows(setup, single, True))


def test_kept_fixed_datasets_give_the_per_cell_rows_bitwise():
    # run_experiment keeps the fixed datasets of its last two setups, with
    # their cached sums (D21). Interleaved setups, one call per method, and
    # a call after a public generate_setup of the same config all read them
    # and must give the per-cell loop's rows, which draw their own.
    _kept_setup.cache_clear()
    grid = ExperimentGrid((0.1, 1.0, 8.0), 6, METHOD_NAMES)
    setups = [SetupConfig(n=500, alpha=-0.7, beta=0.8, sigma=0.05, seed=31),
              SetupConfig(n=3000, alpha=0.5, beta=0.2, sigma=0.1, seed=32)]
    want = [row_bits(per_cell_rows(setup, grid)) for setup in setups]
    for k in (0, 1, 0):
        assert row_bits(run_experiment(setups[k], grid)) == want[k]
    for method in METHOD_NAMES:
        alone = ExperimentGrid(grid.epsilons, grid.iterations, (method,))
        assert row_bits(run_experiment(setups[1], alone)) == [
            r for r in want[1] if r[0] == method]
    drawn = generate_setup(setups[0])
    again = generate_setup(setups[0])
    assert drawn is not again and drawn.cache == {} and again.cache == {}
    assert row_bits(run_experiment(setups[0], grid)) == want[0]
    assert drawn.cache == {} and again.cache == {}
    info = _kept_setup.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def test_kept_fixed_datasets_are_bounded_and_keyed_on_exact_bits():
    _kept_setup.cache_clear()
    one = ExperimentGrid((1.0,), 1, ("dp_rss",))
    for seed in range(1, 5):
        run_experiment(SetupConfig(n=100, alpha=0.5, beta=0.2, sigma=0.1, seed=seed), one)
        assert _kept_setup.cache_info().currsize == min(seed, 2)
    # Past 2^19 records the dataset is drawn per call and never kept.
    big = SetupConfig(n=_KEPT_MAX_N + 1, alpha=0.5, beta=0.2, sigma=0.1, seed=5)
    before = _kept_setup.cache_info()
    run_experiment(big, one)
    assert _kept_setup.cache_info() == before
    # SetupConfig.__eq__ takes -0.0 for 0.0, but the two draw different bits.
    zero, negative = (SetupConfig(n=50, alpha=z, beta=z, sigma=z, seed=3) for z in (0.0, -0.0))
    assert zero == negative
    _kept_setup.cache_clear()
    kept = [_fixed_dataset(setup) for setup in (zero, negative)]
    assert _kept_setup.cache_info().currsize == 2
    for setup, ds in zip((zero, negative), kept):
        assert ds.y.tobytes() == generate_setup(setup).y.tobytes()
        assert row_bits(run_experiment(setup, one)) == row_bits(per_cell_rows(setup, one))
    assert kept[0].y.tobytes() != kept[1].y.tobytes()


def test_kept_fixed_datasets_serve_concurrent_sweeps():
    # Four threads sweep two setups at once, with thread switches forced
    # often: each row must still be the per-cell loop's, whichever thread
    # drew a kept dataset or filled its cached sums.
    grid = ExperimentGrid((0.5, 4.0), 8, ("dp_rss", "dp_ss"))
    setups = [SetupConfig(n=400, alpha=0.3, beta=0.4, sigma=0.1, seed=s) for s in (41, 42)]
    want = [row_bits(per_cell_rows(setup, grid)) for setup in setups]
    _kept_setup.cache_clear()
    got, interval = [], sys.getswitchinterval()

    def sweep(k):
        for j in range(6):
            setup = (k + j) % 2
            got.append((setup, row_bits(run_experiment(setups[setup], grid))))

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 24
    assert all(rows == want[setup] for setup, rows in got)


def test_simulated_stat_arrays_have_trial_shape(three_point_line):
    for method in ("dp_rss", "dp_ss"):
        stats = simulate_stats(method, three_point_line, 1.0, 64, RandomStream(0, 0))
        assert list(stats) == list(STATISTIC_ORDER)
        assert all(v.shape == (64,) for v in stats.values())
    with pytest.raises(ValueError, match="method must be one of"):
        simulate_stats("dp_theil_sen", three_point_line, 1.0, 64, RandomStream(0, 0))


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


class RecordingStream(RandomStream):
    """A stream that keeps a copy of the uniforms of every Laplace draw it makes."""

    def __init__(self, seed, stream_index=0):
        super().__init__(seed, stream_index)
        self.uniforms = []

    def _laplace_u(self, size, out=None):
        u = super()._laplace_u(size, out=out)
        self.uniforms.append(np.array(u, copy=True))
        return u


@pytest.mark.parametrize("trials", [1, 7, 3000])
def test_refined_trial_rows_are_consecutive_dp_rss_releases(three_point_line, trials):
    # Entry t of each simulated statistic is, bit for bit, that statistic of
    # the t-th consecutive release on the same stream, for both Laplace
    # releases: both take one row of uniforms per release, in the same
    # order, and read them through one core, simplex._laplace_release.
    # 3000 trials take the blocked Laplace path (18000 and 24000 values),
    # the smaller draws the one-line one (DECISIONS.md, D3).
    eps = 0.7
    for method, cells in (("dp_rss", 6), ("dp_ss", 8)):
        release = MECHANISMS[method]
        scale = release.share / eps
        bulk = RecordingStream(11, 2)
        stats = simulate_stats(method, three_point_line, eps, trials, bulk)
        (u,) = bulk.uniforms
        assert u.shape == (trials, cells)
        single = RecordingStream(11, 2)
        releases = _laplace_draw(release, [[(three_point_line, single)] * trials], (eps,))
        assert np.concatenate(single.uniforms).tobytes() == u.tobytes()
        noise = RandomStream(11, 2).laplace(scale, (trials, cells))
        noisy = noise + _cell_sums([three_point_line], release.rows, 1, cells)[0]
        want = (noisy[:, None, :] @ release.reading(1))[:, 0]
        assert releases.tobytes() == want.tobytes()
        fit_stream = RecordingStream(11, 2)
        FITTERS[method](three_point_line, eps, fit_stream)
        assert fit_stream.uniforms[0].tobytes() == u[0].tobytes()
        for stat in STATISTIC_ORDER:
            assert stats[stat].tobytes() == releases[:, LINEAR_COLUMNS[stat]].tobytes(), stat


def test_verify_draws_the_uniforms_of_consecutive_fits(three_point_line):
    # Each chunk fills its reused buffer with the uniforms that as many
    # consecutive dp_rss releases, then as many dp_ss ones, take on the
    # same stream: six full chunks of trials and a partial one of 1696.
    trials = 100_000
    bulk = RecordingStream(21, 3)
    verify_variances(1.0, trials, bulk)
    single = RecordingStream(21, 3)
    shapes = []
    for start in range(0, trials, _TRIAL_CHUNK):
        size = min(_TRIAL_CHUNK, trials - start)
        for method, cells in (("dp_rss", 6), ("dp_ss", 8)):
            _laplace_draw(MECHANISMS[method], [[(three_point_line, single)] * size], (1.0,))
            shapes.append((size, cells))
    assert [u.shape for u in bulk.uniforms] == shapes
    assert np.concatenate([u.ravel() for u in bulk.uniforms]).tobytes() == np.concatenate(
        single.uniforms).tobytes()


def test_zero_noise_verify_reads_exactly_zero_variance():
    # ZeroNoiseStream fills the buffer it is given with 1/2, so every noise
    # value verify reads is +0.0 and every empirical variance exactly 0.
    buffer = np.full((4, 3), 0.25)
    assert ZeroNoiseStream(0, 0)._laplace_u((4, 3), out=buffer) is buffer
    assert (buffer == 0.5).all()
    rows = verify_variances(1.0, 100_000, ZeroNoiseStream(0, 0))
    assert len(rows) == 10
    assert all(r.empirical_var == 0.0 for r in rows), rows


def test_simulators_check_the_budget_and_trial_count_before_drawing(three_point_line):
    # Both simulators check the budget with _as_epsilon and the trial count
    # with _as_count, as every fitter and count does, before any uniform is
    # drawn; verify_variances then holds its floor.
    stream = RecordingStream(3, 0)
    bad_budgets = (0, 0.0, -1.0, True, float("nan"), float("inf"), 1e-320)
    bad_counts = (0, -1, True, 2.0, 1e6, "3", None)
    for method in ("dp_rss", "dp_ss"):
        for bad in bad_budgets:
            with pytest.raises(ValueError, match="epsilon must be"):
                simulate_stats(method, three_point_line, bad, 5, stream)
        for bad in bad_counts:
            with pytest.raises(ValueError, match="trials must be a positive integer"):
                simulate_stats(method, three_point_line, 1.0, bad, stream)
    for bad in bad_budgets:
        with pytest.raises(ValueError, match="epsilon must be"):
            verify_variances(bad, 100_000, stream)
    for bad in bad_counts + (100_000.0,):
        with pytest.raises(ValueError, match="trials must be a positive integer"):
            verify_variances(1.0, bad, stream)
    with pytest.raises(ValueError, match="trials must be at least 100000 for a stable estimate"):
        verify_variances(1.0, 99_999, stream)
    assert stream.uniforms == []
    # numpy numbers pass, as plain ones.
    want = simulate_stats("dp_ss", three_point_line, 0.5, 4, RandomStream(3, 1))
    got = simulate_stats("dp_ss", three_point_line, np.float64(0.5), np.int64(4),
                         RandomStream(3, 1))
    assert all(got[stat].tobytes() == want[stat].tobytes() for stat in STATISTIC_ORDER)


def chunk_values(epsilon, trials, stream):
    """The noise of every released statistic of ``verify_variances``'s trials, concatenated.

    Replays its draw order, refined then baseline releases one chunk of
    trials at a time, and reads each chunk's Laplace noise by the columns
    of the release's statistics.
    """
    columns = [LINEAR_COLUMNS[stat] for stat in STATISTIC_ORDER]
    parts = {}
    for start in range(0, trials, _TRIAL_CHUNK):
        size = min(_TRIAL_CHUNK, trials - start)
        for method in ("dp_rss", "dp_ss"):
            release = MECHANISMS[method]
            reading = release.reading(1)[:, columns]
            noise = stream.laplace(release.share / epsilon, (size, len(reading)))
            for stat, values in zip(STATISTIC_ORDER, (noise @ reading).T):
                parts.setdefault((method, stat), []).append(values)
    return {key: np.concatenate(v) for key, v in parts.items()}


def test_merged_variance_equals_np_var_of_all_trials():
    # 100000 trials are six full chunks and a partial one of 1696.
    trials = 100_000
    assert trials % _TRIAL_CHUNK != 0 and trials > _TRIAL_CHUNK
    for eps in (0.3, 1.0, 5.0):
        rows = verify_variances(eps, trials, RandomStream(21, 3))
        values = chunk_values(eps, trials, RandomStream(21, 3))
        assert all(v.size == trials for v in values.values())
        for r in rows:
            want = float(np.var(values[r.method, r.statistic], ddof=1))
            assert r.empirical_var == pytest.approx(want, rel=1e-12, abs=0.0)


def test_verify_variances_memory_does_not_grow_with_trials():
    peaks = []
    for trials in (200_000, 2_000_000):
        tracemalloc.start()
        try:
            verify_variances(1.0, trials, RandomStream(2, 0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6, peaks


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_fresh_sweep_memory_does_not_grow_with_iterations(method):
    # A fresh sweep draws and sums its datasets one block at a time, so ten
    # times the iterations keeps the same peak: 640 datasets of 1,000
    # records held at once would take about 10 MB (DECISIONS.md, D22).
    setup = SetupConfig(n=1000, alpha=0.5, beta=0.2, sigma=0.1, seed=9)
    peaks = []
    for iterations in (64, 640):
        grid = ExperimentGrid((0.5, 2.0), iterations, (method,))
        tracemalloc.start()
        try:
            run_experiment(setup, grid, True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2e6, peaks
