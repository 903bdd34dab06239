"""epsilon-DP polynomial regression via telescoping simplex groups.

The per-record group vectors of degree d, and the degree-d fitter. Each
record contributes the x-group of length 2d + 1,

    (x^{2d}, x^{2d-1} - x^{2d}, ..., 1 - x),

whose entries telescope to exactly 1, and the xy-group of length d + 2,

    (x^d y, (x^{d-1} - x^d) y, ..., (1 - x) y, 1 - y),

which also sums to 1. The release, refinement and solve are the ones
:mod:`dpreg.simplex` runs for every degree; degree 1 is the linear fitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .noise import NoiseLedger, RandomStream
from .simplex import _check_degree, _check_unit, refined_fit


@dataclass(frozen=True)
class PolyFitResult:
    """Fitted polynomial y = coeffs[0] x^d + ... + coeffs[d].

    Coefficients are ordered highest power first. ``fallback`` marks runs
    that hit a degenerate draw and returned the constant fit y = 0.5.
    """

    coeffs: tuple
    fallback: bool = False

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def poly_group1_contribution(x, degree: int) -> np.ndarray:
    """Per-record x-group vector, highest power first; accepts arrays.

    Entry 0 is x^{2d}; entry k (k = 1..2d) is x^{2d-k} - x^{2d-k+1}. All
    entries are non-negative on [0, 1] and sum to exactly 1, so the group's
    sum vector moves by l1-distance 1 when one record is added or removed.
    Array input of shape S yields shape S + (2d+1,).
    """
    d = _check_degree(degree)
    _check_unit(x, "x")
    x = np.asarray(x, dtype=np.float64)
    powers = x[..., None] ** np.arange(2 * d + 1)  # powers[..., k] = x^k
    parts = [powers[..., 2 * d]]
    for j in range(2 * d, 0, -1):
        parts.append(powers[..., j - 1] - powers[..., j])
    return np.stack(parts, axis=-1)


def poly_group2_contribution(x, y, degree: int) -> np.ndarray:
    """Per-record xy-group vector of length d + 2; accepts arrays.

    Entry 0 is x^d y; entry k (k = 1..d) is (x^{d-k} - x^{d-k+1}) y; the
    last entry is 1 - y. Non-negative on the unit square, summing to 1.
    """
    d = _check_degree(degree)
    _check_unit(x, "x")
    _check_unit(y, "y")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    powers = x[..., None] ** np.arange(d + 1)
    parts = [powers[..., d] * y]
    for j in range(d, 0, -1):
        parts.append((powers[..., j - 1] - powers[..., j]) * y)
    parts.append(1.0 - y)
    return np.stack(parts, axis=-1)


def dp_rss_poly_fit(
    data,
    degree: int,
    budget,
    stream: RandomStream,
    ledger: NoiseLedger | None = None,
) -> PolyFitResult:
    """Fit a degree-``degree`` polynomial with refined private statistics.

    Spends half the budget on each group, refines every power sum, and
    solves the normal equations (:func:`dpreg.simplex.refined_fit`). Degree
    1 is ``dp_rss_fit``: same noise, statistics, fallbacks and coefficients.
    Falls back to the constant fit y = 0.5 when the refined size or x-spread
    is not positive or the normal equations are numerically singular.
    """
    d = _check_degree(degree)
    coeffs = refined_fit(data, d, budget, stream, ledger)
    if coeffs is None:
        return PolyFitResult((0.0,) * d + (0.5,), fallback=True)
    return PolyFitResult(tuple(coeffs))
