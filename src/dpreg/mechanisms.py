"""epsilon-DP simple linear regression mechanisms and their registry.

Three fitters share one contract: records in the unit square, an epsilon
budget, a seeded stream, and a :class:`FitResult` out. Degenerate draws
return the fixed fallback fit (0, 0.5) with the flag set instead of
raising, so Monte Carlo loops never die mid-run. ``FITTERS`` maps each
mechanism name to its fitter; the experiment harness and the CLI both
dispatch through it.

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
from .median import dp_median
from .noise import NoiseLedger, RandomStream, _as_epsilon
from .simplex import refined_fit

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
    pooled; ``r_lo``/``r_hi`` clip the projected values before the private
    median (the default [-2, 2] covers every line reachable from data in
    the unit square).
    """

    k: int = 1
    r_lo: float = -2.0
    r_hi: float = 2.0

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if not (self.r_lo < self.r_hi):
            raise ValueError(f"clip range must satisfy r_lo < r_hi, got [{self.r_lo}, {self.r_hi}]")


_FALLBACK_FIT = FitResult(FALLBACK_ALPHA, FALLBACK_BETA, fallback=True)


def dp_rss_fit(data, budget, stream: RandomStream, ledger: NoiseLedger | None = None) -> FitResult:
    """Fit a line from the refined release of the two simplex groups.

    Degree 1 of :func:`dpreg.simplex.refined_fit`: Laplace noise at scale
    2/epsilon on each group sum, refined estimates of n, S_x, S_y, S_{x^2},
    S_{xy}, and the 2x2 normal equations. Falls back when the refined size
    or x-spread is not positive or the equations are numerically singular.
    """
    coeffs = refined_fit(data, 1, budget, stream, ledger)
    return _FALLBACK_FIT if coeffs is None else FitResult(*coeffs)


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


def dp_ss_fit(data, budget, stream: RandomStream, ledger: NoiseLedger | None = None) -> FitResult:
    """Baseline fitter: privatize eight clamped sums, then solve.

    Releases S_x, S_{1-x}, S_y, S_{1-y}, S_{xy}, S_{1-xy}, S_{x^2},
    S_{1-x^2}, each with Laplace noise at scale 4/epsilon, estimates the
    size as a quarter of their total, and plugs the noisy sums into the
    covariance form of the least-squares solution.
    """
    ds = as_dataset(data)
    eps = _as_epsilon(budget)
    scale = 4.0 / eps
    noisy = _ss_sums(ds) + stream.laplace(scale, size=8)
    if ledger is not None:
        for i in range(0, 8, 2):
            ledger.record(f"pair {_SS_LABELS[i]}/{_SS_LABELS[i + 1]}", eps / 4.0, scale=scale)
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
    hyper = hyper or TheilSenHyper()
    n = len(ds)
    if n < 2:
        return _FALLBACK_FIT
    part = eps / 3.0
    n_tilde = n + stream.laplace(3.0 / eps)
    if ledger is not None:
        ledger.record("size estimate", part, scale=3.0 / eps)
    z25_parts, z75_parts = [], []
    for _ in range(hyper.k):
        z25, z75 = _pair_projections(ds.x, ds.y, stream.permutation(n))
        z25_parts.append(z25)
        z75_parts.append(z75)
    z25_all = np.concatenate(z25_parts)
    z75_all = np.concatenate(z75_parts)
    if z25_all.size == 0:
        return _FALLBACK_FIT
    p25 = dp_median(z25_all, part, hyper.r_lo, hyper.r_hi, stream, size_hint=n_tilde)
    p75 = dp_median(z75_all, part, hyper.r_lo, hyper.r_hi, stream, size_hint=n_tilde)
    if ledger is not None:
        ledger.record("25th-percentile median", part)
        ledger.record("75th-percentile median", part)
    alpha = (p75 - p25) / 0.5
    beta = p25 - alpha * 0.25
    return FitResult(alpha, beta)


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
