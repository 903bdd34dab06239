"""epsilon-DP simple linear regression mechanisms and their registry.

Three fitters share one contract: records in the unit square, an epsilon
budget, a seeded stream, and a :class:`FitResult` out. Degenerate draws
return the fixed fallback fit (0, 0.5) with the flag set instead of
raising, so Monte Carlo loops never die mid-run. ``FITTERS`` maps each
mechanism name to its fitter; the CLI dispatches through it.

Each fitter runs its mechanism's private multi-budget core on a
one-element budget tuple. A core ``(data, budgets, stream) -> fits`` draws
the mechanism's uniforms once and runs only the epsilon-dependent
arithmetic per budget, so fit j equals, bit for bit, the fitter at
``budgets[j]`` on the same stream. The experiment harness sweeps budgets
through ``_FIT_CORES``; the cores keep no ledger, because their fits
together are not epsilon-DP at any one budget (DECISIONS.md, D3).

* ``dp_rss_fit`` is degree 1 of the refined release in :mod:`dpreg.simplex`:
  two privatized simplex query groups, refined sufficient statistics, and
  the normal equations. It falls back when the refined size or x-spread is
  not positive or the equations are numerically singular.
* ``dp_ss_fit`` privatizes eight clamped sums directly (the baseline the
  refined mechanism improves on).
* ``dp_theil_sen_fit`` privatizes the 25th/75th percentiles of pairwise
  line projections with the exponential-mechanism median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Bounds, as_dataset, exact_sum
from .median import _check_clip, _dp_medians
from .noise import NoiseLedger, RandomStream, _as_epsilon
from .simplex import _refined_fits, refined_fit

FALLBACK_ALPHA = 0.0
FALLBACK_BETA = 0.5


@dataclass(frozen=True)
class FitResult:
    """Fitted line y = alpha_hat * x + beta_hat.

    ``fallback`` is True when the mechanism hit a degenerate draw and
    returned the fixed fallback fit (0, 0.5) instead of an estimate.
    """

    alpha_hat: float
    beta_hat: float
    fallback: bool = False


@dataclass(frozen=True)
class TheilSenHyper:
    """Tuning knobs of the private Theil-Sen fitter.

    ``k`` is the number of random matchings whose pair projections are
    pooled; ``r_lo``/``r_hi``, which must be finite, clip the projected
    values before the private median (the default [-2, 2] covers every line
    reachable from data in the unit square).
    """

    k: int = 1
    r_lo: float = -2.0
    r_hi: float = 2.0

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        _check_clip(self.r_lo, self.r_hi)


_FALLBACK_FIT = FitResult(FALLBACK_ALPHA, FALLBACK_BETA, fallback=True)


def dp_rss_fit(data, budget, stream: RandomStream, ledger: NoiseLedger | None = None) -> FitResult:
    """Fit a line from the refined release of the two simplex groups.

    Degree 1 of :func:`dpreg.simplex.refined_fit`: Laplace noise at scale
    2/epsilon on each group sum, refined estimates of n, S_x, S_y, S_{x^2},
    S_{xy}, and the 2x2 normal equations. Falls back when the refined size
    or x-spread is not positive or the equations are numerically singular.
    """
    return _line_fit(refined_fit(data, 1, budget, stream, ledger))


def _line_fit(coeffs) -> FitResult:
    return _FALLBACK_FIT if coeffs is None else FitResult(*coeffs)


def _rss_fits(data, budgets, stream: RandomStream) -> list[FitResult]:
    """``dp_rss_fit`` at each budget from one draw of the noise; simulation only."""
    return [_line_fit(coeffs) for coeffs in _refined_fits(data, 1, budgets, stream)]


# Clamped sums released by dp_ss_fit, in draw order. Each of the four
# complementary pairs (s, s') has per-record contribution s + s' = 1, so the
# pair costs epsilon/4 at Laplace scale 4/epsilon and the eight noisy sums
# total 4n in expectation.
_SS_LABELS = ("s_x", "s_1mx", "s_y", "s_1my", "s_xy", "s_1mxy", "s_x2", "s_1mx2")


def _ss_sums(ds) -> np.ndarray:
    cached = ds.cache.get("ss_sums")
    if cached is None:
        x, y = ds.x, ds.y
        xy = x * y
        xx = x * x
        cached = np.array(
            [
                exact_sum(x),
                exact_sum(1.0 - x),
                exact_sum(y),
                exact_sum(1.0 - y),
                exact_sum(xy),
                exact_sum(1.0 - xy),
                exact_sum(xx),
                exact_sum(1.0 - xx),
            ]
        )
        ds.cache["ss_sums"] = cached
    return cached


def _ss_solve(noisy: np.ndarray) -> FitResult:
    s_x, _, s_y, _, s_xy, _, s_x2, _ = noisy
    n_tilde = math.fsum(noisy) / 4.0
    if n_tilde <= 0:
        return _FALLBACK_FIT
    n_var = s_x2 - s_x * s_x / n_tilde
    if n_var <= 0:
        return _FALLBACK_FIT
    n_cov = s_xy - s_x * s_y / n_tilde
    alpha = n_cov / n_var
    beta = (s_y - alpha * s_x) / n_tilde
    return FitResult(float(alpha), float(beta))


def _ss_fits(data, budgets, stream: RandomStream) -> list[FitResult]:
    """``dp_ss_fit`` at each budget from one draw of the noise; simulation only.

    Every budget is checked before any uniform is drawn.
    """
    ds = as_dataset(data)
    epsilons = [_as_epsilon(b) for b in budgets]
    sums = _ss_sums(ds)
    noise = stream.laplace(np.array([4.0 / eps for eps in epsilons]), size=8)
    return [_ss_solve(sums + z) for z in noise]


def dp_ss_fit(data, budget, stream: RandomStream, ledger: NoiseLedger | None = None) -> FitResult:
    """Baseline fitter: privatize eight clamped sums, then solve.

    Releases S_x, S_{1-x}, S_y, S_{1-y}, S_{xy}, S_{1-xy}, S_{x^2},
    S_{1-x^2}, each with Laplace noise at scale 4/epsilon, estimates the
    size as a quarter of their total, and plugs the noisy sums into the
    covariance form of the least-squares solution.
    """
    ds = as_dataset(data)
    eps = _as_epsilon(budget)
    (fit,) = _ss_fits(ds, (eps,), stream)
    if ledger is not None:
        for i in range(0, 8, 2):
            ledger.record(f"pair {_SS_LABELS[i]}/{_SS_LABELS[i + 1]}", eps / 4.0, scale=4.0 / eps)
    return fit


def _pair_projections(x: np.ndarray, y: np.ndarray, perm: np.ndarray):
    """Project each matched pair's line onto x = 0.25 and x = 0.75.

    ``perm`` pairs consecutive entries; an odd leftover index is dropped.
    Pairs with equal x coordinates define no slope and contribute nothing.
    """
    if perm.size % 2 == 1:
        perm = perm[:-1]
    i, j = perm[0::2], perm[1::2]
    xi, xj = x[i], x[j]
    yi, yj = y[i], y[j]
    keep = xj != xi
    xi, xj, yi, yj = xi[keep], xj[keep], yi[keep], yj[keep]
    slope = (yj - yi) / (xj - xi)
    mid_x = 0.5 * (xi + xj)
    mid_y = 0.5 * (yi + yj)
    z25 = slope * (0.25 - mid_x) + mid_y
    z75 = slope * (0.75 - mid_x) + mid_y
    return z25, z75


def _theil_sen_fits(
    data,
    budgets,
    stream: RandomStream,
    hyper: TheilSenHyper | None = None,
) -> list[FitResult]:
    """``dp_theil_sen_fit`` at each budget from one draw; simulation only.

    The size uniform, the matchings, the projections and their sort are
    shared by every budget; only the median weights are recomputed per
    budget. Every budget is checked before any uniform is drawn.
    """
    ds = as_dataset(data)
    epsilons = [_as_epsilon(b) for b in budgets]
    hyper = hyper or TheilSenHyper()
    n = len(ds)
    if n < 2:
        return [_FALLBACK_FIT] * len(epsilons)
    # The size estimate n + Laplace(3/eps) is drawn to keep the stream
    # layout, but the median's rank utility does not read it.
    stream.laplace(np.array([3.0 / eps for eps in epsilons]))
    z25_parts, z75_parts = [], []
    for _ in range(hyper.k):
        z25, z75 = _pair_projections(ds.x, ds.y, stream.permutation(n))
        z25_parts.append(z25)
        z75_parts.append(z75)
    z25_all = np.concatenate(z25_parts)
    z75_all = np.concatenate(z75_parts)
    if z25_all.size == 0:
        return [_FALLBACK_FIT] * len(epsilons)
    parts = [eps / 3.0 for eps in epsilons]
    u = stream.uniform(4)
    p25s = _dp_medians(z25_all, parts, hyper.r_lo, hyper.r_hi, u[:2])
    p75s = _dp_medians(z75_all, parts, hyper.r_lo, hyper.r_hi, u[2:])
    fits = []
    for p25, p75 in zip(p25s, p75s):
        alpha = (p75 - p25) / 0.5
        fits.append(FitResult(alpha, p25 - alpha * 0.25))
    return fits


def dp_theil_sen_fit(
    data,
    budget,
    stream: RandomStream,
    hyper: TheilSenHyper | None = None,
    ledger: NoiseLedger | None = None,
) -> FitResult:
    """Fit a line from private percentiles of pairwise projections.

    The budget splits three ways: a Laplace size estimate, then one private
    median for each of the 25th- and 75th-percentile projection lists,
    pooled over ``hyper.k`` random matchings. The line through the two
    private percentile points gives the fit. Fewer than two records, or no
    pair with distinct x values, falls back.
    """
    ds = as_dataset(data)
    eps = _as_epsilon(budget)
    (fit,) = _theil_sen_fits(ds, (eps,), stream, hyper)
    if ledger is not None and len(ds) >= 2:
        part = eps / 3.0
        ledger.record("size estimate", part, scale=3.0 / eps)
        if not fit.fallback:  # the medians ran
            ledger.record("25th-percentile median", part)
            ledger.record("75th-percentile median", part)
    return fit


def denormalize_fit(fit: FitResult, bounds: Bounds) -> FitResult:
    """Map a unit-square fit back to the original data scale.

    Inverts the affine map of :func:`dpreg.data.normalize`: a line through
    the normalized data corresponds to slope (dy/dx) * alpha' and intercept
    y_min + dy * (beta' - (x_min/dx) * alpha') on the raw scale. Pure
    post-processing, so it costs no budget; the fallback flag is preserved.
    """
    dx, dy = bounds.x_span, bounds.y_span
    alpha = (dy / dx) * fit.alpha_hat
    beta = bounds.y_min + dy * (fit.beta_hat - (bounds.x_min / dx) * fit.alpha_hat)
    return FitResult(alpha, beta, fit.fallback)


FITTERS = {
    "dp_rss": dp_rss_fit,
    "dp_ss": dp_ss_fit,
    "dp_theil_sen": dp_theil_sen_fit,
}

# Multi-budget core of each fitter, ``(data, budgets, stream) -> fits``.
# Simulation only: the fits together are not epsilon-DP at any one budget
# (DECISIONS.md, D3), so the cores stay private and keep no ledger.
_FIT_CORES = {
    "dp_rss": _rss_fits,
    "dp_ss": _ss_fits,
    "dp_theil_sen": _theil_sen_fits,
}
