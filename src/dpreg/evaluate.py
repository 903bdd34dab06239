"""Synthetic data, error metrics, and Monte Carlo harnesses.

``generate_setup`` draws a clipped linear-Gaussian dataset; ``l1_error`` and
``l2_error`` measure the distance between a true and an estimated line over
the unit interval; ``run_experiment`` sweeps mechanisms over an epsilon grid
with paired substreams; ``verify_variances`` compares the empirical variance
of every released statistic against its closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, as_dataset
from .mechanisms import _FIT_CORES, FITTERS, FitResult, _ss_sums
from .noise import RandomStream, _as_epsilon
from .simplex import LINEAR_COLUMNS, _group_sums, transfer_matrix


@dataclass(frozen=True)
class SetupConfig:
    """Linear-Gaussian synthetic data: y = alpha x + beta + N(0, sigma^2), clipped."""

    n: int
    alpha: float
    beta: float
    sigma: float
    seed: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


METHOD_NAMES = tuple(FITTERS)


@dataclass(frozen=True)
class ExperimentGrid:
    """Epsilon sweep: which budgets, how many iterations, which methods."""

    epsilons: tuple
    iterations: int
    methods: tuple

    def __post_init__(self):
        eps = tuple(_as_epsilon(e) for e in self.epsilons)
        if len(eps) == 0:
            raise ValueError("epsilons must not be empty")
        if any(b <= a for a, b in zip(eps, eps[1:])):
            raise ValueError(f"epsilons must be strictly increasing, got {self.epsilons!r}")
        object.__setattr__(self, "epsilons", eps)
        if not isinstance(self.iterations, int) or self.iterations < 1:
            raise ValueError(f"iterations must be a positive integer, got {self.iterations!r}")
        methods = tuple(self.methods)
        if len(methods) == 0:
            raise ValueError("methods must not be empty")
        for m in methods:
            if m not in FITTERS:
                raise ValueError(f"unknown method {m!r}; choose from {sorted(FITTERS)}")
        object.__setattr__(self, "methods", methods)


def reference_setup(index: int, seed: int) -> SetupConfig:
    """The two benchmark setups used throughout the tests and docs."""
    if index == 1:
        return SetupConfig(n=5000, alpha=-0.7, beta=0.8, sigma=0.05, seed=seed)
    if index == 2:
        return SetupConfig(n=10000, alpha=0.5, beta=0.2, sigma=0.1, seed=seed)
    raise ValueError(f"reference setup index must be 1 or 2, got {index}")


def _generate_on(stream: RandomStream, cfg: SetupConfig) -> Dataset:
    x = stream.uniform(cfg.n)
    y = np.clip(cfg.alpha * x + cfg.beta + cfg.sigma * stream.normal(cfg.n), 0.0, 1.0)
    return Dataset(x, y)


def generate_setup(cfg: SetupConfig) -> Dataset:
    """Draw the setup's dataset on substream 0 of its seed.

    x is uniform on [0, 1); y is the line plus Gaussian noise, clipped to
    [0, 1]. Substream 0 is reserved for data so iteration substreams
    (1, 2, ...) never overlap it.
    """
    return _generate_on(RandomStream(cfg.seed, 0), cfg)


def _line_params(fit) -> tuple[float, float]:
    if isinstance(fit, FitResult):
        return (fit.alpha_hat, fit.beta_hat)
    a, b = fit
    return (float(a), float(b))


def l1_error(true_fit, est_fit, n_points: int = 1000) -> float:
    """Mean absolute gap between two lines on the grid i/n, i = 1..n."""
    a_true, b_true = _line_params(true_fit)
    a_est, b_est = _line_params(est_fit)
    da, db = a_true - a_est, b_true - b_est
    xs = np.arange(1, n_points + 1, dtype=np.float64) / n_points
    return float(np.mean(np.abs(da * xs + db)))


def l2_error(true_fit, est_fit) -> float:
    """Integral of the squared gap between two lines over [0, 1], exactly.

    With gap A x + B the integral is A^2/3 + A B + B^2.
    """
    a_true, b_true = _line_params(true_fit)
    a_est, b_est = _line_params(est_fit)
    da, db = a_true - a_est, b_true - b_est
    return da * da / 3.0 + da * db + db * db


@dataclass(frozen=True)
class MetricResult:
    """Both line-error metrics of one fit against the truth."""

    l1: float
    l2: float

    def __post_init__(self):
        if self.l1 < 0 or self.l2 < 0:
            raise ValueError(f"errors cannot be negative, got l1={self.l1}, l2={self.l2}")


def line_errors(true_fit, est_fit) -> MetricResult:
    """Evaluate both metrics at once."""
    return MetricResult(l1_error(true_fit, est_fit), l2_error(true_fit, est_fit))


@dataclass(frozen=True)
class ExperimentRow:
    """Aggregated errors of one (method, epsilon) cell.

    Standard deviations are sample (ddof = 1) values and are NaN when the
    cell holds a single iteration.
    """

    method: str
    epsilon: float
    mean_l1: float
    std_l1: float
    mean_l2: float
    std_l2: float
    median_l1: float
    median_l2: float


def _errors_of_fits(true_fit, fits, n_points: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """``l1_error`` and ``l2_error`` of each fit, bit for bit, in one array pass.

    Row j of the (len(fits), n_points) gap grid holds the values that
    ``l1_error`` averages for fit j, and a row mean sums them in the same
    pairwise order as the mean of a single row.
    """
    a_true, b_true = _line_params(true_fit)
    da = a_true - np.array([fit.alpha_hat for fit in fits])
    db = b_true - np.array([fit.beta_hat for fit in fits])
    xs = np.arange(1, n_points + 1, dtype=np.float64) / n_points
    l1 = np.mean(np.abs(da[:, None] * xs + db[:, None]), axis=1)
    return l1, da * da / 3.0 + da * db + db * db


def run_experiment(
    setup: SetupConfig,
    grid: ExperimentGrid,
    fresh_data_per_iteration: bool = False,
) -> list[ExperimentRow]:
    """Monte Carlo error sweep over the grid, rows sorted by (method, epsilon).

    Iteration i always runs on substream i + 1 of the setup seed, and that
    substream is shared across every (method, epsilon) cell, so comparisons
    between cells are paired. By default all cells see the one dataset drawn
    on substream 0; with ``fresh_data_per_iteration`` each iteration draws
    its own dataset from its substream before fitting.

    No mechanism's draws depend on epsilon, so one draw per iteration and
    method serves every epsilon cell: each method's multi-budget core fits
    all of the grid's budgets from it (DECISIONS.md, D3). The rows equal,
    bit for bit, a loop that calls ``FITTERS[method](data, eps,
    RandomStream(seed, i + 1))`` and ``l1_error``/``l2_error`` per cell.
    """
    fixed = None if fresh_data_per_iteration else generate_setup(setup)
    truth = (setup.alpha, setup.beta)
    rows = []
    for method in sorted(grid.methods):
        fits_at = _FIT_CORES[method]
        l1s = np.empty((len(grid.epsilons), grid.iterations))
        l2s = np.empty_like(l1s)
        for i in range(grid.iterations):
            stream = RandomStream(setup.seed, i + 1)
            data = _generate_on(stream, setup) if fresh_data_per_iteration else fixed
            l1s[:, i], l2s[:, i] = _errors_of_fits(truth, fits_at(data, grid.epsilons, stream))
        ddof_ok = grid.iterations > 1
        for eps, l1, l2 in zip(grid.epsilons, l1s, l2s):
            rows.append(
                ExperimentRow(
                    method=method,
                    epsilon=eps,
                    mean_l1=float(np.mean(l1)),
                    std_l1=float(np.std(l1, ddof=1)) if ddof_ok else float("nan"),
                    mean_l2=float(np.mean(l2)),
                    std_l2=float(np.std(l2, ddof=1)) if ddof_ok else float("nan"),
                    median_l1=float(np.median(l1)),
                    median_l2=float(np.median(l2)),
                )
            )
    return rows


# Theoretical variances of each released statistic at budget epsilon,
# multiplied by epsilon^2 (i.e. the epsilon = 1 values). For the refined
# mechanism each group total sums three Laplace(2/eps) terms, so the size
# estimate averages two variance-24 readings; the statistic estimates
# combine a variance-8 and variance-40 reading (or 16 and 32) with
# inverse-variance weights. The baseline's eight sums carry Laplace(4/eps)
# noise, variance 32 each, and its size estimate averages them down to 16.
RSS_VARIANCES = {
    "n": 12.0,
    "s_x": 32.0 / 3.0,
    "s_y": 32.0 / 3.0,
    "s_x2": 20.0 / 3.0,
    "s_xy": 20.0 / 3.0,
}
SS_VARIANCES = {
    "n": 16.0,
    "s_x": 32.0,
    "s_y": 32.0,
    "s_x2": 32.0,
    "s_xy": 32.0,
}
STATISTIC_ORDER = ("n", "s_x", "s_y", "s_x2", "s_xy")


def simulate_refined_stats(data, epsilon: float, trials: int, stream: RandomStream):
    """Refined statistics over ``trials`` releases, as a dict of arrays.

    Each release is the one ``dp_rss_fit`` makes. The noise is drawn as one
    (trials, 3) block per group, x-group first, and refined by the same
    transfer matrix as a single fit.
    """
    noise = stream.laplace(2.0 / epsilon, size=(2, trials, 3))
    noisy = np.concatenate(noise, axis=1)
    noisy += _group_sums(as_dataset(data), 1)
    columns = transfer_matrix(1)[:, [LINEAR_COLUMNS[stat] for stat in STATISTIC_ORDER]]
    return dict(zip(STATISTIC_ORDER, columns.T @ noisy.T))


def simulate_baseline_stats(data, epsilon: float, trials: int, stream: RandomStream):
    """Baseline noisy statistics over ``trials`` releases, as a dict of arrays."""
    ds = as_dataset(data)
    sums = _ss_sums(ds)
    noisy = stream.laplace(4.0 / epsilon, size=(trials, 8))
    noisy += sums
    return {
        "n": noisy.sum(axis=1) / 4.0,
        "s_x": noisy[:, 0],
        "s_y": noisy[:, 2],
        "s_x2": noisy[:, 6],
        "s_xy": noisy[:, 4],
    }


@dataclass(frozen=True)
class VarianceRow:
    """Empirical vs theoretical variance of one released statistic."""

    statistic: str
    method: str
    empirical_var: float
    theoretical_var: float
    relative_error: float


def verify_variances(epsilon: float, trials: int, stream: RandomStream) -> list[VarianceRow]:
    """Empirical noise variances of both mechanisms on a fixed dataset.

    Runs ``trials`` privatizations (at least 1e5; variance estimates have
    relative standard error about sqrt(2/trials)) and reports each released
    statistic against its closed-form variance. The dataset itself only
    shifts the statistics, so any fixed one verifies the noise law.
    """
    epsilon = _as_epsilon(epsilon)
    if trials < 100_000:
        raise ValueError(f"trials must be at least 100000 for a stable estimate, got {trials}")
    ds = Dataset(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.45, 0.7]))
    ref = simulate_refined_stats(ds, epsilon, trials, stream)
    base = simulate_baseline_stats(ds, epsilon, trials, stream)
    rows = []
    for stat in STATISTIC_ORDER:
        for method, values, theory in (
            ("dp_rss", ref[stat], RSS_VARIANCES[stat] / epsilon**2),
            ("dp_ss", base[stat], SS_VARIANCES[stat] / epsilon**2),
        ):
            emp = float(np.var(values, ddof=1))
            rows.append(
                VarianceRow(
                    statistic=stat,
                    method=method,
                    empirical_var=emp,
                    theoretical_var=theory,
                    relative_error=abs(emp - theory) / theory,
                )
            )
    return rows
