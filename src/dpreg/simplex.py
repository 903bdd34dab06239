"""Simplex query groups and the refined release, for every degree d.

Each record contributes a non-negative vector summing to 1 to each of two
query groups, so adding or removing one record moves each group's sum
vector by l1-distance 1. A group privatized with per-component Laplace
noise at scale 1/eps is therefore eps-DP, and the total of a noisy group
doubles as a free estimate of the dataset size. In doubles the sum is 1 up
to rounding: ``sensitivity_oracle`` measures the exact excess, which is
below an ulp of 1.

For degree d the x-group has the 2d + 1 telescoping entries

    (x^{2d}, x^{2d-1} - x^{2d}, ..., x - x^2, 1 - x)

and the xy-group the d + 2 entries

    (x^d y, (x^{d-1} - x^d) y, ..., (1 - x) y, 1 - y).

Degree 1 is the linear release: (x^2, x - x^2, 1 - x) and
(xy, (1 - x)y, 1 - y). One release adds Laplace noise at scale 2/eps to all
3d + 3 group sums, x-group first. Prefix sums of either noisy group read
every power sum S_{x^l} (l = 0..2d, where S_{x^0} = n) and S_{x^l y}
(l = 0..d) in two independent ways: directly from its own group, and as the
other group's total minus the complementary components. The refined
statistic averages the two readings with inverse-variance weights, which
are proportional to how many Laplace terms each reading sums. That map is
linear, so it is one (3d+3) x (3d+2) matrix, ``transfer_matrix(d)``, and it
refines a leading axis of trials as readily as a single release.

``refined_fit`` solves the normal equations on the refined statistics. It
falls back (returns None) under one rule for every degree: when the refined
size n is not positive, when the x-spread n S_{x^2} - S_x^2 is not
positive, or when partial-pivoting elimination finds the system singular.

``_component_rows`` is the one definition of the per-record vectors; the
release sums its rows, and ``group_contributions`` returns them per record.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .data import _check_unit_interval, as_dataset, exact_sum
from .noise import NoiseLedger, RandomStream, _as_epsilon


def _check_degree(degree: int) -> int:
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise ValueError(f"degree must be an integer >= 1, got {degree!r}")
    return int(degree)


def _component_rows(x: np.ndarray, y: np.ndarray, d: int):
    """Yield ``(group, entry, row)`` for every component of both groups.

    ``group`` is 0 for the x-group and 1 for the xy-group. Each row is one
    contiguous array over the records, holding column ``entry`` of every
    record's group vector, so the ``(n, 2d+1)`` and ``(n, d+2)`` stacks are
    never built. The powers use the ``np.power`` loop with an array
    exponent; a scalar or stride-0 exponent can take a different, not
    bit-identical, path, and ``x * x`` differs from it in the last bit for
    about 5% of x. x^1 and x^0 are exact in that loop, so they are not
    computed.
    """
    exponent = np.empty_like(x)

    def power(k: int):
        if k <= 1:
            return x if k else 1.0
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


def _group_sums(ds, d: int) -> np.ndarray:
    """The 3d + 3 exact group sums of a ``Dataset``, x-group first; cached.

    Reads the arrays ``Dataset`` already validated, so no range check runs.
    """
    key = ("simplex_groups", d)
    sums = ds.cache.get(key)
    if sums is None:
        sums = np.empty(3 * d + 3)
        for group, entry, row in _component_rows(ds.x, ds.y, d):
            sums[group * (2 * d + 1) + entry] = exact_sum(row)
        sums.setflags(write=False)
        ds.cache[key] = sums
    return sums


def exact_group_stats(data, degree: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free sums of the x-group and the xy-group, cached per degree.

    Returns views of one cached vector: the 2d + 1 x-group sums, then the
    d + 2 xy-group sums. Each sum is exact and correctly rounded,
    bit-identical to ``math.fsum`` of the components.
    """
    d = _check_degree(degree)
    sums = _group_sums(as_dataset(data), d)
    return sums[: 2 * d + 1], sums[2 * d + 1 :]


@lru_cache(maxsize=None)
def transfer_matrix(degree: int) -> np.ndarray:
    """Map from the 3d + 3 noisy group sums to the 3d + 2 refined statistics.

    Columns are (n, S_x, ..., S_{x^{2d}}, S_y, S_{xy}, ..., S_{x^d y}). Each
    column weights a direct and a complement reading by the other's Laplace
    term count over their total; the two readings use disjoint noise terms,
    so every entry is one weight with the reading's sign. Read-only.
    """
    d = _check_degree(degree)
    unit = np.eye(3 * d + 3)
    g1, g2 = unit[: 2 * d + 1], unit[2 * d + 1 :]
    n_x, n_y = g1.sum(axis=0), g2.sum(axis=0)
    readings = [(n_x, n_y)]
    for l in range(1, 2 * d + 1):  # S_{x^l}: telescope x^{2d} down to x^l
        readings.append((g1[: 2 * d - l + 1].sum(axis=0), n_y - g1[2 * d - l + 1 :].sum(axis=0)))
    for l in range(d + 1):  # S_{x^l y}
        readings.append((g2[: d - l + 1].sum(axis=0), n_x - g2[d - l + 1 :].sum(axis=0)))
    columns = []
    for direct, complement in readings:
        m_d, m_c = np.abs(direct).sum(), np.abs(complement).sum()
        columns.append((m_c * direct + m_d * complement) / (m_d + m_c))
    matrix = np.column_stack(columns)
    matrix.setflags(write=False)
    return matrix


# Column of each statistic in ``transfer_matrix(1)``.
LINEAR_COLUMNS = {"n": 0, "s_x": 1, "s_x2": 2, "s_y": 3, "s_xy": 4}


def _refined_releases(ds, d: int, epsilons, stream: RandomStream) -> list[np.ndarray]:
    """Refined statistics at each budget, all from one draw of the noise.

    Draws the 3d + 3 uniforms of one release once and scales them by 2/eps
    per budget, so entry j equals, bit for bit, the release at
    ``epsilons[j]`` alone on the same stream. Together the entries are not
    eps-DP at any one budget; only a single entry is a private release.
    """
    noise = stream.laplace(np.array([1.0 / (eps / 2.0) for eps in epsilons]), size=3 * d + 3)
    sums, matrix = _group_sums(ds, d), transfer_matrix(d)
    return [(sums + z) @ matrix for z in noise]


def refined_release(
    data,
    degree: int,
    budget,
    stream: RandomStream,
    ledger: NoiseLedger | None = None,
) -> np.ndarray:
    """One private release of the refined statistics of ``transfer_matrix``.

    Spends half the budget on each group: one Laplace draw at scale 2/eps
    for all 3d + 3 group sums, x-group first, so a replayed stream replays
    the noise.
    """
    d = _check_degree(degree)
    eps = _as_epsilon(budget)
    half = eps / 2.0
    (stats,) = _refined_releases(as_dataset(data), d, (eps,), stream)
    if ledger is not None:
        ledger.record("x-group sums", half, scale=1.0 / half)
        ledger.record("xy-group sums", half, scale=1.0 / half)
    return stats


def _solve_normal_equations(a, b):
    """Solve the small dense system by Gaussian elimination, or None.

    Partial pivoting on Python floats, which for systems this small is
    several times faster than NumPy scalars. Declares the system singular
    when any pivot magnitude falls below 1e-12 times the largest entry of
    ``a``, or when the ratio of the largest to smallest pivot (a cheap
    condition proxy) exceeds 1e12.
    """
    a = [list(row) for row in a]
    b = list(b)
    m = len(a)
    floor = 1e-12 * max([abs(v) for row in a for v in row])
    pivots = []
    for col in range(m):
        p = col
        for row in range(col + 1, m):
            if abs(a[row][col]) > abs(a[p][col]):
                p = row
        if p != col:
            a[col], a[p] = a[p], a[col]
            b[col], b[p] = b[p], b[col]
        top = a[col]
        pivot = top[col]
        if abs(pivot) <= floor:
            return None
        pivots.append(abs(pivot))
        for row in range(col + 1, m):
            cur = a[row]
            factor = cur[col] / pivot
            for k in range(col, m):
                cur[k] -= factor * top[k]
            b[row] -= factor * b[col]
    if max(pivots) / min(pivots) > 1e12:
        return None
    x = [0.0] * m
    for row in range(m - 1, -1, -1):
        cur = a[row]
        acc = 0.0
        for k in range(row + 1, m):
            acc += cur[k] * x[k]
        x[row] = (b[row] - acc) / cur[row]
    return x


def _coefficients(stats: list, d: int) -> list | None:
    """Solve the normal equations on refined statistics, or None to fall back."""
    n_hat, s_x, s_x2 = stats[0], stats[1], stats[2]
    if n_hat <= 0 or s_x2 * n_hat - s_x * s_x <= 0:
        return None
    # Entry (i, j) is S_{x^{2d-i-j}}, at stats[2d-i-j]; right-hand side
    # entry i is S_{x^{d-i} y}, at stats[3d+1-i].
    design = [[stats[2 * d - i - j] for j in range(d + 1)] for i in range(d + 1)]
    return _solve_normal_equations(design, [stats[3 * d + 1 - i] for i in range(d + 1)])


def refined_fit(
    data,
    degree: int,
    budget,
    stream: RandomStream,
    ledger: NoiseLedger | None = None,
) -> list | None:
    """Least-squares coefficients, highest power first, from one release.

    Fills the (d+1) x (d+1) normal equations over the monomials x^d..x^0
    with the refined statistics and solves them. Returns None, the fallback,
    when the refined size or x-spread is not positive or the system is
    numerically singular.
    """
    d = _check_degree(degree)
    return _coefficients(refined_release(data, d, budget, stream, ledger).tolist(), d)


def _refined_fits(data, degree: int, budgets, stream: RandomStream) -> list:
    """``refined_fit`` at each budget from one draw of the noise; simulation only.

    Every budget is checked before any uniform is drawn.
    """
    d = _check_degree(degree)
    epsilons = [_as_epsilon(b) for b in budgets]
    releases = _refined_releases(as_dataset(data), d, epsilons, stream)
    return [_coefficients(stats.tolist(), d) for stats in releases]


def group_contributions(x, y, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Each record's x-group and xy-group vectors, as the release sums them.

    ``x`` and ``y`` broadcast to a common shape S; the result has shapes
    S + (2d+1,) and S + (d+2,), in the entry order of the module docstring.
    The columns are the rows of ``_component_rows`` over the flattened
    records, so each value is bit for bit one that ``exact_group_stats``
    adds. Raises ValueError, as ``Dataset`` does, when a coordinate lies
    outside [0, 1] or is NaN.
    """
    d = _check_degree(degree)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    shape = x.shape
    x, y = np.ravel(x), np.ravel(y)  # contiguous, as a Dataset's arrays are
    _check_unit_interval(x, "x")
    _check_unit_interval(y, "y")
    groups = (np.empty((x.size, 2 * d + 1)), np.empty((x.size, d + 2)))
    for group, entry, row in _component_rows(x, y, d):
        groups[group][:, entry] = row
    return tuple(g.reshape(shape + g.shape[1:]) for g in groups)


def sensitivity_oracle(degree: int, grid_step: float) -> tuple:
    """Exact worst l1 norm of one record's group vectors over a unit grid.

    Adding a record shifts each group's sums by exactly that record's
    vector from ``group_contributions``, so its largest l1 norm is the
    group's sensitivity. Evaluates every (x, y) on a grid with the given
    step (endpoints included), sums each record's components as Fractions,
    with no rounding, and returns the worst norm of the x-group and of the
    xy-group as two ``Fraction``s. The norms are 1 up to rounding: the
    double-valued components can exceed 1 by less than an ulp of 1, which a
    float sum rounds away.
    """
    from fractions import Fraction  # 4 ms to import; only the oracle needs it

    d = _check_degree(degree)
    if not (0 < grid_step <= 0.1):
        raise ValueError(f"grid_step must lie in (0, 0.1], got {grid_step}")
    pts = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
    xg, yg = np.meshgrid(pts, pts, indexing="ij")
    worst = []
    for group in group_contributions(xg, yg, d):
        # Equal vectors have equal norms; the x-group repeats along y.
        rows = np.unique(np.abs(group).reshape(-1, group.shape[-1]), axis=0)
        worst.append(max(sum(map(Fraction, row)) for row in rows.tolist()))
    return tuple(worst)
