"""Exponential-mechanism private median over a clipped range.

The mechanism clips the values to [clip_lo, clip_hi], splits that range into
the intervals between consecutive sorted values (range endpoints included as
sentinels), scores each interval by how balanced the counts on either side of
it are, and samples an interval with probability proportional to
``length * exp(epsilon * utility / 2)``, then a uniform point inside it.
The rank utility has add/remove sensitivity 1, so the release is epsilon-DP.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .noise import RandomStream, _as_epsilon


class DegenerateInputWarning(UserWarning):
    """Emitted when a mechanism answers degenerate input with a fallback."""


def _check_clip(clip_lo: float, clip_hi: float) -> None:
    if not (math.isfinite(clip_lo) and math.isfinite(clip_hi) and clip_lo < clip_hi):
        raise ValueError(f"clip range must be finite with lower < upper, got [{clip_lo}, {clip_hi}]")


def _prepare(values, clip_lo: float, clip_hi: float):
    """The budget-free part of the mechanism: edges, log lengths, utilities."""
    v = np.sort(np.clip(np.asarray(values, dtype=np.float64), clip_lo, clip_hi))
    m = v.size
    edges = np.concatenate(([clip_lo], v, [clip_hi]))
    with np.errstate(divide="ignore"):  # log(0) -> -inf marks zero-length intervals
        log_lengths = np.log(np.diff(edges))
    utilities = -np.abs(np.arange(m + 1, dtype=np.float64) - m / 2.0)
    return edges, log_lengths, utilities


def _interval_probs(log_lengths, utilities, epsilon: float) -> np.ndarray:
    """Selection probabilities at one budget, normalized in log space."""
    log_w = log_lengths + 0.5 * epsilon * utilities
    log_w -= log_w.max()
    w = np.exp(log_w)
    return w / w.sum()


def median_interval_probs(values, epsilon: float, clip_lo: float, clip_hi: float):
    """Interval edges and selection probabilities of the median mechanism.

    Returns ``(edges, probs)`` where ``edges`` has m + 2 entries (clip_lo,
    the m clipped sorted values, clip_hi) and ``probs[i]`` is the probability
    of picking the interval ``[edges[i], edges[i + 1]]``. Interval i has i
    values below it and m - i at or above, giving rank utility
    ``-|i - m/2|``; zero-length intervals (tied values) get zero mass.
    Weights are normalized in log space with max-subtraction, so large
    ``epsilon * m`` products cannot overflow.
    """
    epsilon = _as_epsilon(epsilon)
    _check_clip(clip_lo, clip_hi)
    edges, log_lengths, utilities = _prepare(values, clip_lo, clip_hi)
    return edges, _interval_probs(log_lengths, utilities, epsilon)


def _dp_medians(values, epsilons, clip_lo: float, clip_hi: float, uniforms) -> list[float]:
    """``dp_median`` of non-empty ``values`` at each budget, from one uniform pair.

    Sorts once and reweights per budget. ``uniforms`` are the two uniforms
    a single ``dp_median`` call draws, interval pick first, so entry j
    equals ``dp_median(values, epsilons[j], ...)`` on a stream that yields
    them. Together the outputs are not epsilon-DP at any one budget. The
    caller has checked every budget and the clip range.
    """
    edges, log_lengths, utilities = _prepare(values, clip_lo, clip_hi)
    u_interval, u_point = uniforms
    out = []
    for epsilon in epsilons:
        cdf = np.cumsum(_interval_probs(log_lengths, utilities, epsilon))
        idx = int(np.searchsorted(cdf, u_interval, side="right"))
        idx = min(idx, cdf.size - 1)  # guard the u ~= 1 rounding edge
        lo, hi = edges[idx], edges[idx + 1]
        out.append(float(lo + (hi - lo) * u_point))
    return out


def dp_median(
    values,
    epsilon: float,
    clip_lo: float,
    clip_hi: float,
    stream: RandomStream,
) -> float:
    """epsilon-DP median of ``values`` within [clip_lo, clip_hi].

    Consumes exactly two uniforms per call: one to pick an interval from
    :func:`median_interval_probs`, one for the point inside it, so replaying
    a stream replays the output. Empty input returns the midpoint of the
    clip range, emits a :class:`DegenerateInputWarning`, and draws nothing.
    """
    epsilon = _as_epsilon(epsilon)
    _check_clip(clip_lo, clip_hi)
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        warnings.warn(
            "dp_median called with no values; returning the clip-range midpoint",
            DegenerateInputWarning,
            stacklevel=2,
        )
        return 0.5 * (clip_lo + clip_hi)
    return _dp_medians(values, (epsilon,), clip_lo, clip_hi, stream.uniform(2))[0]
