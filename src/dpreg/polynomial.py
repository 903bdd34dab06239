"""epsilon-DP polynomial regression of any degree d.

The per-record group vectors, their release, refinement and solve live in
:mod:`dpreg.simplex` (``group_contributions`` returns the vectors); this
module wraps the degree-d fit in a result type. Degree 1 is the linear
fitter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .noise import NoiseLedger, RandomStream
from .simplex import _check_degree, refined_fit


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
