"""Synthetic data, error metrics, and Monte Carlo harnesses.

``generate_setup`` draws a clipped linear-Gaussian dataset; ``l1_error`` and
``l2_error`` measure the distance between a true and an estimated line over
the unit interval; ``run_experiment`` sweeps the registry's line mechanisms
(``mechanisms.MECHANISMS``) over an epsilon grid with paired substreams and
one batched solve per method; ``verify_variances`` compares the empirical
variance of every released statistic against its closed form.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import _CHUNK, Dataset, as_dataset
from .mechanisms import FITTERS, MECHANISMS, FitResult, _lines
from .noise import (RandomStream, _Run, _as_count, _as_epsilon, _as_float, _as_index,
                    _box_muller, _unit_laplace)
from .simplex import LINEAR_COLUMNS, _cell_sums, _laplace_release


@dataclass(frozen=True)
class SetupConfig:
    """Linear-Gaussian synthetic data: y = alpha x + beta + N(0, sigma^2), clipped."""

    n: int
    alpha: float
    beta: float
    sigma: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n", _as_count(self.n, "n"))
        for name in ("alpha", "beta", "sigma"):
            value = _as_float(getattr(self, name), name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        object.__setattr__(self, "seed", _as_index(self.seed, "seed"))


METHOD_NAMES = tuple(FITTERS)  # the registry's line mechanisms


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
        object.__setattr__(self, "iterations", _as_count(self.iterations, "iterations"))
        methods = tuple(self.methods)
        if len(methods) == 0:
            raise ValueError("methods must not be empty")
        lines = _lines()
        for m in methods:
            if m not in lines:
                raise ValueError(f"unknown method {m!r}; choose from {sorted(lines)}")
        object.__setattr__(self, "methods", methods)


def reference_setup(index: int, seed: int) -> SetupConfig:
    """The two benchmark setups used throughout the tests and docs."""
    if index == 1:
        return SetupConfig(n=5000, alpha=-0.7, beta=0.8, sigma=0.05, seed=seed)
    if index == 2:
        return SetupConfig(n=10000, alpha=0.5, beta=0.2, sigma=0.1, seed=seed)
    raise ValueError(f"reference setup index must be 1 or 2, got {index}")


def _datasets(cfg: SetupConfig, streams):
    """Blocks of ``(dataset, stream)`` pairs for ``streams``, each dataset drawn on its stream.

    Yields a list of pairs per ``max(1, data._CHUNK // n)`` consecutive
    streams, the blocks that a draw sums (DECISIONS.md, D22). Each stream
    draws n uniforms as x, then n as its normals' u1, then n as their u2,
    into rows of its block. Box-Muller, the line ``alpha x + beta + sigma z``
    and the clip to [0, 1] then run once per block, in place, in the order
    of the per-stream expression, so every dataset is bit-identical to
    ``clip(alpha * x + beta + sigma * stream.normal(n), 0, 1)`` on
    ``x = stream.uniform(n)``. u1 and u2 sit in two scratch blocks that
    every block reuses; x and y sit in a new block that its datasets view
    (``Dataset._rows``) and no scratch ever backs (DECISIONS.md, D18).
    """
    n = cfg.n
    streams = iter(streams)
    scratch = None
    while block := list(itertools.islice(streams, max(1, _CHUNK // n))):
        if scratch is None:  # the first block is the largest
            scratch = np.empty((2, len(block), n))
        u1, u2 = scratch[:, : len(block)]
        xy = np.empty((2, len(block), n))
        x, y = xy
        for k, stream in enumerate(block):
            stream.uniform(out=x[k])
            stream.uniform(out=u1[k])
            stream.uniform(out=u2[k])
        z = _box_muller(u1, u2)
        np.multiply(x, cfg.alpha, out=y)
        y += cfg.beta
        z *= cfg.sigma
        y += z
        np.clip(y, 0.0, 1.0, out=y)
        yield list(zip(Dataset._rows(xy), block))


def generate_setup(cfg: SetupConfig) -> Dataset:
    """Draw the setup's dataset on substream 0 of its seed.

    x is uniform on [0, 1); y is the line plus Gaussian noise, clipped to
    [0, 1]. Substream 0 is reserved for data so iteration substreams
    (1, 2, ...) never overlap it.
    """
    return next(_datasets(cfg, [RandomStream(cfg.seed, 0)]))[0][0]


# Setups of up to 2^19 records keep their fixed dataset, two at most: about
# 16 MiB of coordinates (DECISIONS.md, D21).
_KEPT_MAX_N = 1 << 19


@functools.lru_cache(maxsize=2)
def _kept_setup(n: int, seed: int, *bits: str) -> Dataset:
    """``generate_setup`` of the setup whose alpha, beta and sigma have these ``float.hex``."""
    return generate_setup(SetupConfig(n, *map(float.fromhex, bits), seed))


def _fixed_dataset(cfg: SetupConfig) -> Dataset:
    """The setup's dataset, kept with the sums it caches if it has at most ``_KEPT_MAX_N``.

    Keyed on the floats' bits, not on ``SetupConfig.__eq__``, which takes
    -0.0 for 0.0. A kept dataset is read-only: it and its sums equal a new draw's.
    """
    if cfg.n > _KEPT_MAX_N:
        return generate_setup(cfg)
    return _kept_setup(cfg.n, cfg.seed, *(float(v).hex() for v in (cfg.alpha, cfg.beta, cfg.sigma)))


def _line_params(fit) -> tuple[float, float]:
    if isinstance(fit, FitResult):
        return (fit.alpha_hat, fit.beta_hat)
    a, b = fit
    return (float(a), float(b))


def l1_error(true_fit, est_fit, n_points: int = 1000) -> float:
    """Mean absolute gap between two lines on the grid i/n, i = 1..n, in closed form.

    ``n_points`` must be a positive integer; anything else raises ValueError.
    """
    return float(_line_errors(true_fit, np.array(_line_params(est_fit)), n_points)[0])


def _gap_means(da, db, n_points: int):
    """Mean of |da i/n + db| over i = 1..n, for floats or arrays of them (DECISIONS.md, D13).

    The gap is linear in i, so it keeps one sign on the k grid points
    before its root, i < -db n / da, and the other on the rest, and each
    side sums as an arithmetic series. With ``head`` the first k points'
    share of the mean, ``da k(k+1)/(2n^2) + db k/n``, and ``total`` all n
    points', the mean is ``|head| + |total - head|``. A root that no grid
    point separates gives k = 0 or n; equal lines (0/0) give k = n and 0.
    """
    n = float(n_points)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        k = np.fmax(np.fmin(np.ceil(-db / da * n) - 1.0, n), 0.0)
    head = da * (k * (k + 1.0) / (2.0 * n * n)) + db * (k / n)
    total = da * ((n + 1.0) / (2.0 * n)) + db
    return np.abs(head) + np.abs(total - head)


def _squared_gaps(da, db):
    """The l2 form of ``l2_error``, elementwise in floats or arrays of them."""
    with np.errstate(over="ignore", invalid="ignore"):  # a gap past 1e154 gives inf or NaN
        return da * da / 3.0 + da * db + db * db


def l2_error(true_fit, est_fit) -> float:
    """Integral of the squared gap between two lines over [0, 1], exactly.

    With gap A x + B the integral is A^2/3 + A B + B^2.
    """
    (a_true, b_true), (a, b) = _line_params(true_fit), _line_params(est_fit)
    return float(_squared_gaps(a_true - a, b_true - b))


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


def _line_errors(true_fit, coeffs: np.ndarray, n_points: int = 1000):
    """``l1_error`` and ``l2_error`` of each line of an (N, 2) stack, or of one (2,) line.

    ``l1_error`` reads it on one line, on numpy scalars; ``l2_error`` reads
    its l2 form, ``_squared_gaps``, alone. Both are elementwise in the lines'
    coefficients, so each row of a stack equals that line alone, bit for bit.
    """
    n_points = _as_count(n_points, "n_points")
    a_true, b_true = _line_params(true_fit)
    da, db = a_true - coeffs[..., 0], b_true - coeffs[..., 1]
    return _gap_means(da, db, n_points), _squared_gaps(da, db)


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
    method serves every epsilon cell. One draw per method takes every
    iteration's ``(data, stream)`` pair, the substreams seeded in blocks.
    The fixed dataset's pairs are one ``noise._Run``, which a Laplace draw
    reads whole (D24); fresh datasets are drawn in blocks of at most
    ``data._CHUNK`` records (D18), and each block is summed in one pass
    (D17, D22). The releases are solved and scored in one batched pass, and
    reduced per cell along axis 1 (DECISIONS.md, D3). The
    rows equal, bit for bit, a loop that calls ``FITTERS[method](data, eps,
    RandomStream(seed, i + 1))`` and ``l1_error``/``l2_error`` per cell.
    Repeated sweeps of one setup reuse its fixed dataset and sums (D21).
    """
    fixed = None if fresh_data_per_iteration else _fixed_dataset(setup)
    truth = (setup.alpha, setup.beta)
    rows = []
    for method in sorted(grid.methods):
        mech = MECHANISMS[method]
        run = _Run(fixed, setup.seed, 1, grid.iterations + 1)  # streams built as they are taken
        blocks = [run] if fixed is not None else _datasets(setup, (s for _, s in run))
        coeffs, _ = mech.solve(mech.draw(mech, blocks, grid.epsilons, mech.hyper))
        # Line i * len(epsilons) + j is iteration i at epsilons[j]. On these
        # contiguous copies an axis-1 reduction sums row j as it sums alone.
        l1s, l2s = (e.reshape(grid.iterations, -1).T.copy() for e in _line_errors(truth, coeffs))
        ddof_ok = grid.iterations > 1
        std_l1, std_l2 = (np.std(e, axis=1, ddof=1) if ddof_ok else np.full(len(e), np.nan)
                          for e in (l1s, l2s))
        columns = (np.mean(l1s, axis=1), std_l1, np.mean(l2s, axis=1), std_l2,
                   np.median(l1s, axis=1), np.median(l2s, axis=1))
        rows += [ExperimentRow(method, eps, *stats)
                 for eps, *stats in zip(grid.epsilons, *(c.tolist() for c in columns))]
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
# The releases that ``verify_variances`` checks, the refined release first.
VARIANCES = {"dp_rss": RSS_VARIANCES, "dp_ss": SS_VARIANCES}
STATISTIC_ORDER = ("n", "s_x", "s_y", "s_x2", "s_xy")


def simulate_stats(method: str, data, epsilon: float, trials: int, stream: RandomStream):
    """Statistics of ``trials`` releases of a Laplace line record, as a dict of arrays.

    Checks the budget and the trial count, then reads one (trials, cells)
    block of uniforms as the fits do (``simplex._laplace_release``), so entry
    t is, bit for bit, that of the t-th consecutive fit of ``method`` on ``stream``.
    """
    laplace = {name: m for name, m in _lines().items() if m.reading is not None}
    if method not in laplace:
        raise ValueError(f"method must be one of {sorted(laplace)}, got {method!r}")
    mech = laplace[method]
    neg_scales = np.array([-mech.share / _as_epsilon(epsilon)])
    trials = _as_count(trials, "trials")
    matrix = mech.reading(1)
    sums = _cell_sums([as_dataset(data)], mech.rows, 1, len(matrix))[0]
    uniforms = stream._laplace_u((trials, len(matrix)))
    releases = _laplace_release(matrix, sums[None], uniforms, neg_scales)
    return {stat: releases[:, LINEAR_COLUMNS[stat]] for stat in STATISTIC_ORDER}


@dataclass(frozen=True)
class VarianceRow:
    """Empirical vs theoretical variance of one released statistic."""

    statistic: str
    method: str
    empirical_var: float
    theoretical_var: float
    relative_error: float


# Trials that ``verify_variances`` draws, reads and reduces at a time; its
# two buffers take about 1.6 MB, whatever the trial count (DECISIONS.md, D7).
_TRIAL_CHUNK = 1 << 14
_MIN_TRIALS = 100_000  # the fewest that ``verify_variances`` and ``dpreg verify`` take


def verify_variances(epsilon: float, trials: int, stream: RandomStream) -> list[VarianceRow]:
    """Empirical noise variances of the releases in ``VARIANCES``.

    Runs ``trials`` privatizations (at least 1e5; variance estimates have
    relative standard error about sqrt(2/trials)) and reports each released
    statistic against its closed-form variance. A release reads its noisy
    cell sums linearly, so the data only shift its statistics: the noise
    alone is drawn and read.

    Trials run ``_TRIAL_CHUNK`` at a time, refined releases then baseline
    ones on ``stream``. A chunk's uniforms turn into noise in one reused
    buffer and one matrix product reads them into another, so memory does
    not grow with ``trials``. The chunks' sums of the read noise and of its
    squares merge by ``math.fsum`` into the sample (ddof = 1) variance
    (DECISIONS.md, D7).
    """
    epsilon = _as_epsilon(epsilon)
    trials = _as_count(trials, "trials")
    if trials < _MIN_TRIALS:
        raise ValueError(
            f"trials must be at least {_MIN_TRIALS} for a stable estimate, got {trials}")
    columns = [LINEAR_COLUMNS[stat] for stat in STATISTIC_ORDER]
    readings = {method: MECHANISMS[method].reading(1)[:, columns].T for method in VARIANCES}
    # One pair of buffers, sized for the widest release, serves both releases.
    uniforms = np.empty(_TRIAL_CHUNK * max(reading.shape[1] for reading in readings.values()))
    read = np.empty(_TRIAL_CHUNK * len(columns))
    sums = {method: ([], []) for method in VARIANCES}
    for start in range(0, trials, _TRIAL_CHUNK):
        size = min(_TRIAL_CHUNK, trials - start)
        for method, reading in readings.items():
            cells = reading.shape[1]
            u = stream._laplace_u((size, cells), out=uniforms[: size * cells].reshape(size, cells))
            noise = _unit_laplace(u, -MECHANISMS[method].share / epsilon)
            values = np.matmul(reading, noise.T, out=read[: len(columns) * size].reshape(-1, size))
            linear, square = sums[method]
            linear.append(values.sum(axis=1))
            square.append(np.square(values, out=values).sum(axis=1))
    rows = []
    for i, stat in enumerate(STATISTIC_ORDER):
        for method, variances in VARIANCES.items():
            linear, square = (math.fsum(part[i] for part in parts) for parts in sums[method])
            emp = (square - linear * linear / trials) / (trials - 1)
            theory = variances[stat] / epsilon**2
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
