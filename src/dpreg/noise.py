"""Seeded randomness, Laplace sampling, privacy budgets and their audit ledger.

All mechanism randomness flows through :class:`RandomStream` so that a run is
fully determined by ``(seed, stream_index)``. Laplace draws use the explicit
inverse CDF (one uniform per draw) and normals use Box-Muller, so the draw
sequence is stable across numpy versions; only the underlying uniform bit
stream is delegated to PCG64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PrivacyBudget:
    """Total epsilon available to one mechanism invocation."""

    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _as_epsilon(self.epsilon))


# How each release splits its budget: its parts in draw order, each a
# (ledger label, Laplace?) pair. Every part spends eps / len(parts), and a
# Laplace part draws at scale len(parts) / eps; the rest are
# exponential-mechanism medians. dp_rss_poly, at every degree, releases the
# two groups of dp_rss. Shares stay integers: eps * (1/3) is not eps / 3
# (DECISIONS.md, D8).
_RELEASE_PARTS = {
    "dp_rss": (("x-group sums", True), ("xy-group sums", True)),
    "dp_ss": (("pair s_x/s_1mx", True), ("pair s_y/s_1my", True),
              ("pair s_xy/s_1mxy", True), ("pair s_x2/s_1mx2", True)),
    "dp_theil_sen": (("size estimate", True), ("25th-percentile median", False),
                     ("75th-percentile median", False)),
}
_SHARES = {release: len(parts) for release, parts in _RELEASE_PARTS.items()}

# dp_ss's 4/epsilon is the largest Laplace scale per budget of any release.
# A draw is at most 52 ln 2 (about 36.0) scales, since u is raised to
# 2^-53; the floor allows 53 ln 2 (about 36.7), which leaves 2% of
# sqrt(max double) for the exact sum, so at or above it every noisy sum, and
# the product of any two, is finite. It is about 1.1e-152.
_LARGEST_SCALE = max(_SHARES[release] for release, parts in _RELEASE_PARTS.items()
                     if any(laplace for _, laplace in parts))
_EPSILON_FLOOR = _LARGEST_SCALE * 53 * math.log(2) / math.sqrt(np.finfo(np.float64).max)


def _as_epsilon(budget) -> float:
    """The epsilon of a ``PrivacyBudget`` or a number; every budget's one check.

    Raises ValueError for a bool, NaN, infinity, and values below
    ``_EPSILON_FLOOR``, where the largest draws and their products overflow.
    """
    if isinstance(budget, PrivacyBudget):
        return budget.epsilon
    if isinstance(budget, bool):  # float(True) would pass as 1.0
        raise ValueError(f"epsilon must be a number, got {budget}")
    eps = float(budget)
    if not (eps >= _EPSILON_FLOOR and math.isfinite(eps)):
        raise ValueError(
            f"epsilon must be positive and finite, with a finite Laplace scale "
            f"{_LARGEST_SCALE:g}/epsilon, got {eps}; the smallest epsilon at which every "
            f"noisy sum, and the product of two, stays finite is {_EPSILON_FLOOR:.4g}"
        )
    return eps


class RandomStream:
    """Deterministic random source identified by (seed, stream_index).

    Equal (seed, stream_index) pairs replay the same draw sequence;
    distinct stream indices under one seed give statistically independent
    substreams, so each Monte Carlo iteration can own its own stream.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        if seed < 0 or stream_index < 0:
            raise ValueError("seed and stream_index must be non-negative integers")
        self.seed = int(seed)
        self.stream_index = int(stream_index)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_index,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(seed={self.seed}, stream_index={self.stream_index})"

    def uniform(self, size=None):
        """Uniform draws on [0, 1); scalar float when size is None."""
        return self._gen.random(size)

    def laplace(self, scale, size=None):
        """Centered Laplace draws via the inverse CDF, one uniform each.

        ``scale`` must be positive and finite, or a 1-D array of such
        scales. An array draws the uniforms of ``size`` once and scales that
        one draw by each entry, giving shape ``(len(scale),) + size``; row j
        equals, bit for bit, ``laplace(scale[j], size)`` on the same stream.

        A draw of more than ``_BLOCK`` values is transformed in place, one
        block at a time. It allocates the array of uniforms, which a scalar
        scale overwrites with its result, and two scratch blocks of
        ``_BLOCK`` floats; an array scale adds its ``(len(scale),) + size``
        result. Every value equals the unblocked expression's bit for bit
        (DECISIONS.md, D5).
        """
        b = _scale_value(scale)
        u = self._gen.random(size)
        if size is not None and u.size > _BLOCK:
            if isinstance(b, np.ndarray):
                return np.multiply.outer(-b, _unit_laplace_in_place(u))
            return _unit_laplace_in_place(u, -b)
        # F^{-1}(u) = -b * sign(u - 1/2) * ln(1 - 2|u - 1/2|), computed with
        # log1p so values of u near 1/2 lose no precision. u = 0 is raised to
        # 2^-53, the smallest positive uniform, so no draw is infinite and
        # the two extreme draws stay exact negatives. sign(.) * ln(.) is
        # exact, so -b enters after the single rounding and every scale
        # rounds the same real product it would round on its own.
        t = np.maximum(u, _U_MIN) - 0.5
        unit = np.sign(t) * np.log1p(-2.0 * np.abs(t))
        if isinstance(b, np.ndarray):
            return np.multiply.outer(-b, unit)
        unit *= -b
        return float(unit) if size is None else unit

    def normal(self, size=None):
        """Standard normal draws via Box-Muller (two uniforms per draw)."""
        u1 = self._gen.random(size)
        u2 = self._gen.random(size)
        out = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        return float(out) if size is None else out

    def permutation(self, n: int) -> np.ndarray:
        """Uniformly random permutation of range(n)."""
        return self._gen.permutation(n)


class ZeroNoiseStream(RandomStream):
    """Stream whose Laplace draws are exactly zero.

    Used to check that mechanisms reduce to their non-private estimators
    when the noise is switched off; scale validation is kept so misuse
    still surfaces.
    """

    def __init__(self, seed: int = 0, stream_index: int = 0):
        super().__init__(seed, stream_index)

    def laplace(self, scale, size=None):
        b = _scale_value(scale)
        draw = 0.0 if size is None else np.zeros(size)
        return np.zeros(b.shape + np.shape(draw)) if isinstance(b, np.ndarray) else draw


# Draws of more than this many values are transformed block by block, in
# place; smaller ones (every fit's) keep the one-line expression, which is
# faster below a block.
_BLOCK = 1 << 14
# The smallest positive value Generator.random returns; u = 0 is raised to it.
_U_MIN = 2.0**-53


def _unit_laplace_in_place(u, neg_b=None):
    """Overwrite ``u`` with ``sign(t) * log1p(-2|t|)``, t = max(u, 2^-53) - 1/2.

    Each block runs the unblocked expression's operations in the same order
    into two scratch blocks, so every value is bit-identical to it. A
    ``neg_b`` (-scale) multiplies each block as its last step.
    """
    flat = u.reshape(-1)
    t_buf = np.empty(_BLOCK)
    a_buf = np.empty(_BLOCK)
    for start in range(0, flat.size, _BLOCK):
        out = flat[start:start + _BLOCK]
        t = t_buf[:out.size]
        a = a_buf[:out.size]
        np.maximum(out, _U_MIN, out=t)
        np.subtract(t, 0.5, out=t)
        np.abs(t, out=a)
        np.multiply(a, -2.0, out=a)
        np.log1p(a, out=a)
        # sign(t) goes to the output block: numpy 2.4 runs sign in place
        # over its input about 4x slower than into another array.
        np.sign(t, out=out)
        np.multiply(out, a, out=out)
        if neg_b is not None:
            np.multiply(out, neg_b, out=out)
    return u


def _scale_value(scale):
    """``scale`` as a float, or as a 1-D float array; raises if any is bad."""
    if np.ndim(scale) == 0:
        b = float(scale)
        if not (b > 0) or not math.isfinite(b):
            raise ValueError(f"Laplace scale must be positive and finite, got {scale!r}")
        return b
    b = np.asarray(scale, dtype=np.float64)
    if b.ndim != 1 or not np.all((b > 0) & np.isfinite(b)):
        raise ValueError(f"Laplace scales must be a 1-D array of positive finite values, "
                         f"got {scale!r}")
    return b


@dataclass(frozen=True)
class NoiseEvent:
    """One privacy-budget expenditure: which release, how much, what noise."""

    label: str
    epsilon: float
    scale: float | None = None


@dataclass
class NoiseLedger:
    """Audit trail of the budget consumed by one mechanism invocation.

    Mechanisms append one event per released query group; the sum of the
    ``epsilon`` fields equals the total budget spent, which the tests audit.
    """

    events: list[NoiseEvent] = field(default_factory=list)

    def record(self, label: str, epsilon: float, scale: float | None = None) -> None:
        self.events.append(NoiseEvent(label, epsilon, scale))

    def total_epsilon(self) -> float:
        return math.fsum(e.epsilon for e in self.events)
