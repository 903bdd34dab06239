"""epsilon-DP polynomial regression via telescoping simplex groups.

Generalizes the linear refined-statistics mechanism to degree d. Each record
contributes two simplex vectors: the x-group of length 2d + 1,

    (x^{2d}, x^{2d-1} - x^{2d}, ..., 1 - x),

whose entries telescope to exactly 1, and the xy-group of length d + 2,

    (x^d y, (x^{d-1} - x^d) y, ..., (1 - x) y, 1 - y),

which also sums to 1. Privatizing each group componentwise at Laplace scale
1/eps_half therefore costs eps_half per group. Prefix sums of either noisy
vector recover every power sum S_{x^l} (l = 1..2d) and S_{x^l y} (l = 0..d)
in two independent ways, which are averaged with inverse-variance weights
proportional to the number of Laplace terms in each reading. The refined
sums fill the (d+1) x (d+1) normal equations, solved by partial-pivoting
Gaussian elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import as_dataset, exact_sum
from .mechanisms import _as_epsilon
from .noise import NoiseLedger, RandomStream
from .simplex import _check_unit


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


def _check_degree(degree: int) -> int:
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise ValueError(f"degree must be an integer >= 1, got {degree!r}")
    return int(degree)


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


def _poly_component_rows(x: np.ndarray, y: np.ndarray, d: int):
    """Yield ``(group, entry, row)`` for every component of both groups.

    ``group`` is 0 for the x-group and 1 for the xy-group. Each row is one
    contiguous array over the records, equal bit for bit to column ``entry``
    of ``poly_group1_contribution`` or ``poly_group2_contribution``, so the
    ``(n, 2d+1)`` and ``(n, d+2)`` stacks are never built. The powers use
    the same ``np.power`` loop with an array exponent as those functions; a
    scalar or stride-0 exponent can take a different, not bit-identical,
    path.
    """
    exponent = np.empty_like(x)

    def power(k: int) -> np.ndarray:
        exponent.fill(k)
        return np.power(x, exponent)

    upper = power(2 * d)  # x^j, walking j down from 2d
    yield 0, 0, upper
    for j in range(2 * d, 0, -1):
        if j == d:
            yield 1, 0, upper * y
        lower = power(j - 1)
        diff = lower - upper
        yield 0, 2 * d - j + 1, diff
        if j <= d:
            yield 1, d - j + 1, diff * y
        upper = lower
    yield 1, d + 1, 1.0 - y


def poly_exact_groups(data, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free group sum vectors of a dataset, cached per degree.

    Each component sum is exact and bit-identical to ``math.fsum``.
    """
    d = _check_degree(degree)
    ds = as_dataset(data)
    key = ("poly_groups", d)
    cached = ds.cache.get(key)
    if cached is None:
        cached = (np.empty(2 * d + 1), np.empty(d + 2))
        for group, entry, row in _poly_component_rows(ds.x, ds.y, d):
            cached[group][entry] = exact_sum(row)
        ds.cache[key] = cached
    return cached


def _weighted(reading1, m1: int, reading2, m2: int):
    """Average two readings with weights inverse to their Laplace-term counts."""
    total = m1 + m2
    return (m2 / total) * reading1 + (m1 / total) * reading2


def poly_refined_estimates(noisy_g1: np.ndarray, noisy_g2: np.ndarray, degree: int):
    """Refined (n_hat, S_{x^l} for l=1..2d, S_{x^l y} for l=0..d).

    ``noisy_g1`` and ``noisy_g2`` are the privatized group sum vectors. For
    each target the direct reading telescopes down from the leading noisy
    component and the complement reading subtracts the remaining components
    from the other group's total; the two are combined by term count.
    """
    d = _check_degree(degree)
    g1 = np.asarray(noisy_g1, dtype=np.float64)
    g2 = np.asarray(noisy_g2, dtype=np.float64)
    if g1.shape != (2 * d + 1,) or g2.shape != (d + 2,):
        raise ValueError(
            f"expected group vectors of lengths {2 * d + 1} and {d + 2}, "
            f"got {g1.shape} and {g2.shape}"
        )
    prefix1 = np.cumsum(g1)
    prefix2 = np.cumsum(g2)
    n_x = prefix1[-1]
    n_y = prefix2[-1]
    n_hat = _weighted(n_x, 2 * d + 1, n_y, d + 2)

    s_x = np.empty(2 * d)
    for l in range(1, 2 * d + 1):
        direct = prefix1[2 * d - l]  # S~_{x^{2d}} + telescoping terms down to x^l
        complement = n_y - (prefix1[2 * d] - prefix1[2 * d - l])
        s_x[l - 1] = _weighted(direct, 2 * d - l + 1, complement, d + 2 + l)

    s_xy = np.empty(d + 1)
    for l in range(0, d + 1):
        direct = prefix2[d - l]
        complement = n_x - (prefix2[d] - prefix2[d - l]) - g2[d + 1]
        s_xy[l] = _weighted(direct, d - l + 1, complement, 2 * d + l + 2)

    return n_hat, s_x, s_xy


def _solve_normal_equations(a: np.ndarray, b: np.ndarray):
    """Solve the small dense system by Gaussian elimination, or None.

    Partial pivoting; declares the system singular when any pivot magnitude
    falls below 1e-12 times the largest entry of ``a``, or when the ratio of
    the largest to smallest pivot (a cheap condition proxy) exceeds 1e12.
    """
    a = a.astype(np.float64, copy=True)
    b = b.astype(np.float64, copy=True)
    m = a.shape[0]
    floor = 1e-12 * np.abs(a).max()
    pivots = np.empty(m)
    for col in range(m):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if p != col:
            a[[col, p]] = a[[p, col]]
            b[[col, p]] = b[[p, col]]
        pivot = a[col, col]
        if abs(pivot) <= floor:
            return None
        pivots[col] = abs(pivot)
        for row in range(col + 1, m):
            factor = a[row, col] / pivot
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    if pivots.max() / pivots.min() > 1e12:
        return None
    x = np.empty(m)
    for row in range(m - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def dp_rss_poly_fit(
    data,
    degree: int,
    budget,
    stream: RandomStream,
    ledger: NoiseLedger | None = None,
) -> PolyFitResult:
    """Fit a degree-``degree`` polynomial with refined private statistics.

    Spends half the budget on each group, refines every power sum, and
    solves the normal equations. Degree 1 reduces to the linear refined
    fitter: the groups, draw order, and weights all coincide. Falls back to
    the constant fit y = 0.5 when the refined size is non-positive or the
    normal equations are numerically singular.
    """
    d = _check_degree(degree)
    ds = as_dataset(data)
    eps = _as_epsilon(budget)
    half = eps / 2.0
    g1, g2 = poly_exact_groups(ds, d)
    noisy1 = g1 + stream.laplace(1.0 / half, size=2 * d + 1)
    noisy2 = g2 + stream.laplace(1.0 / half, size=d + 2)
    if ledger is not None:
        ledger.record("x-group sums", half, scale=1.0 / half)
        ledger.record("xy-group sums", half, scale=1.0 / half)
    n_hat, s_x, s_xy = poly_refined_estimates(noisy1, noisy2, d)
    fallback = PolyFitResult((0.0,) * d + (0.5,), fallback=True)
    if n_hat <= 0:
        return fallback
    # Normal-equation matrix over the monomial basis x^d..x^0: entry (i, j)
    # is the refined sum of x^{2d-i-j}, with S_{x^0} read as n_hat.
    s_x_full = np.concatenate(([n_hat], s_x))  # s_x_full[p] = S_{x^p}
    design = np.empty((d + 1, d + 1))
    for i in range(d + 1):
        for j in range(d + 1):
            design[i, j] = s_x_full[2 * d - i - j]
    moments = s_xy[::-1].copy()  # entry i = refined S_{x^{d-i} y}
    coeffs = _solve_normal_equations(design, moments)
    if coeffs is None:
        return fallback
    return PolyFitResult(tuple(float(c) for c in coeffs))
