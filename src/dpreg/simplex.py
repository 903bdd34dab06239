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
(xy, (1 - x)y, 1 - y). One release spends half the budget on each group
(the two ledger parts of its record in ``mechanisms.MECHANISMS``): Laplace
noise at scale 2/eps on all 3d + 3 group sums, x-group first. Prefix sums
of either noisy group read every power sum S_{x^l} (l = 0..2d, where
S_{x^0} = n) and S_{x^l y} (l = 0..d) in two independent ways: directly
from its own group, and as the other group's total minus the complementary
components. The refined statistic averages the two readings with
inverse-variance weights: a direct reading of m of the K = 3d + 3 sums,
less m/K times its own group's total minus the other's. Both totals
estimate n, and their difference is the release's only redundancy, so this
is also its least-squares reading (DECISIONS.md, D11). The map is one
(3d+3) x (3d+2) matrix, ``transfer_matrix(d)``, and it refines a leading
axis of trials as readily as a single release.

This module holds the cells and readings of this release, ``dp_rss``, and
of the NoisyStats baseline ``dp_ss``, whose eight cells are read plainly;
their records in ``mechanisms.MECHANISMS`` name them. ``_cell_sums`` sums
a list of datasets' cells in one pass and caches them, and
``_laplace_draw`` draws one release of a record per budget for each
``(data, stream)`` pair of the blocks its caller cuts, and keeps no ledger;
the fitters run it on a block of one pair at one budget through
``mechanisms._fit``. The post-processing after it costs no budget and runs
on any (N, 3d + 2) stack of statistics at once.
``_solve_refined`` solves each row's normal equations by
``_solve_systems``, a batched elimination that repeats the operations of a
scalar one row by row, so a row's coefficients do not depend on the stack.
A row falls back under one rule for every degree and both releases: when
the size n is not positive, when the x-spread n S_{x^2} - S_x^2 is not
positive, or when partial-pivoting elimination finds the system singular.

``_component_rows`` is the one definition of the paper's per-record
vectors; the release sums its rows, and ``group_contributions`` returns
them per record.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .data import _check_range, _exact_sums, as_dataset
from .noise import _Run, _as_count, _as_epsilon, _unit_laplace

# The largest degree a release takes. The fallback rule's pivot-ratio bound
# (D2) refused every noise-free fit tried above degree 17, so a higher
# degree could only fall back; 32 leaves room for data that condition
# better, and bounds a fit's cells at 99 per record (DECISIONS.md, D10).
_MAX_DEGREE = 32


def _as_degree(degree) -> int:
    """``degree`` as a positive int of at most ``_MAX_DEGREE``; every degree's one check."""
    d = _as_count(degree, "degree")
    if d > _MAX_DEGREE:
        raise ValueError(f"degree must be at most {_MAX_DEGREE}, got {d}; every noise-free fit "
                         "tried above degree 17 falls back as singular (DECISIONS.md, D10)")
    return d


def _component_rows(x: np.ndarray, y: np.ndarray, d: int):
    """Yield ``(cell, row)`` for every component of both groups.

    Cells 0 to 2d are the x-group's entries, and cells 2d + 1 to 3d + 2 the
    xy-group's. Each row is one contiguous array over the records, holding
    one entry of every record's group vector, so the ``(n, 3d+3)`` stack is
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
    yield 0, upper
    for j in range(2 * d, 0, -1):
        if j == d:
            yield 2 * d + 1, upper * y
        lower = power(j - 1)
        diff = lower - upper
        yield 2 * d - j + 1, diff
        if j <= d:
            yield 3 * d + 2 - j, diff * y
        upper = lower
    yield 3 * d + 2, 1.0 - y


def _ss_rows(x: np.ndarray, y: np.ndarray, d: int):
    """``(cell, row)`` for each of the eight clamped cells of ``dp_ss``.

    Cells 2j and 2j + 1 are part j: a pair (s, 1 - s) per record, so the
    eight noisy sums total 4n in expectation. ``d`` is always 1.
    """
    xy = x * y
    xx = x * x
    return enumerate((x, 1.0 - x, y, 1.0 - y, xy, 1.0 - xy, xx, 1.0 - xx))


def exact_group_stats(data, degree: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free sums of the x-group and the xy-group, cached per degree.

    Returns views of one cached vector: the 2d + 1 x-group sums, then the
    d + 2 xy-group sums. Each sum is exact and correctly rounded,
    bit-identical to ``math.fsum`` of the components.
    """
    d = _as_degree(degree)
    sums = _cell_sums([as_dataset(data)], _component_rows, d, 3 * d + 3)[0]
    return sums[: 2 * d + 1], sums[2 * d + 1 :]


@lru_cache(maxsize=None, typed=True)  # typed, so True is refused, not served 1's entry
def transfer_matrix(degree: int) -> np.ndarray:
    """Map from the K = 3d + 3 noisy group sums to the 3d + 2 refined statistics.

    Columns are (n, S_x, ..., S_{x^{2d}}, S_y, S_{xy}, ..., S_{x^d y}). The
    direct reading of a column sums the first m cells of its own group (m =
    2d + 1 - l for S_{x^l}, d + 1 - l for S_{x^l y}), and its complement
    reading the other K - m, so their inverse-variance weights are (K - m)/K
    and m/K. The column is (K - m)/K on its m direct cells, -m/K on the rest
    of its group and m/K on the other group, each entry one correctly
    rounded division of two small integers. Read-only.
    """
    d = _as_degree(degree)
    k = 3 * d + 3
    cell = np.arange(k)[:, None]
    first = np.repeat([0, 2 * d + 1], [2 * d + 1, d + 1])  # first cell of each column's group
    m = np.concatenate([np.arange(2 * d + 1, 0, -1), np.arange(d + 1, 0, -1)])
    own = (cell > 2 * d) == (first > 0)
    direct = own & (cell < first + m)
    matrix = np.where(direct, k - m, np.where(own, -m, m)) / k
    matrix.setflags(write=False)
    return matrix


# Column of each statistic in ``transfer_matrix(1)``.
LINEAR_COLUMNS = {"n": 0, "s_x": 1, "s_x2": 2, "s_y": 3, "s_xy": 4}


@lru_cache(maxsize=None)
def _ss_reading(degree: int) -> np.ndarray:
    """NoisyStats' plain readings of the eight ``dp_ss`` cells, (8, 5); read-only.

    n is a quarter of every cell, and S_x, S_y, S_{xy}, S_{x^2} are cells
    0, 2, 4 and 6 alone. A line is all that ``dp_ss`` releases.
    """
    if degree != 1:
        raise ValueError(f"dp_ss releases a line only, got degree {degree}")
    matrix = np.zeros((8, 5))
    matrix[:, LINEAR_COLUMNS["n"]] = 0.25
    for stat, cell in (("s_x", 0), ("s_y", 2), ("s_xy", 4), ("s_x2", 6)):
        matrix[cell, LINEAR_COLUMNS[stat]] = 1.0
    matrix.setflags(write=False)
    return matrix


def _cell_sums(datasets, rows, d: int, count: int) -> list:
    """The exact sums of the ``count`` cells of ``rows(x, y, d)`` on each ``Dataset`` of a list.

    Cached read-only under ``(rows, d)``, so records with the same cells
    share them. One ``data._exact_sums`` pass sums the distinct uncached
    datasets, building their cell rows one chunk of records at a time, so
    no full-length row is held and a chunk may hold many small datasets.
    It reads arrays that ``Dataset`` validated, so no range check runs.
    """
    key = (rows, d)
    todo = list({id(ds): ds for ds in datasets if key not in ds.cache}.values())
    if todo:
        columns = [(ds.x, ds.y) for ds in todo]
        for ds, sums in zip(todo, _exact_sums(columns, count, lambda x, y: rows(x, y, d))):
            sums.setflags(write=False)
            ds.cache[key] = sums
    return [ds.cache[key] for ds in datasets]


def _laplace_draw(release, blocks, budgets, degree: int = 1) -> np.ndarray:
    """Statistics of Laplace record ``release`` for each ``(data, stream)`` pair and budget.

    ``blocks`` is an iterable of blocks, each an iterable of pairs; the
    caller sizes them. Checks the degree and every budget before it takes
    the first pair, and keeps per pair only its cell sums and the uniforms
    of one unit draw, ``stream._laplace_u(k)``. Each block's uncached
    datasets are summed in one ``_cell_sums`` pass, each once however many
    pairs share it; a sum draws nothing, so every stream's draws keep their
    order. A ``noise._Run`` block's sums are read once and its uniforms in
    one call (D24). In ``_laplace_release``, one inverse-CDF pass turns the
    stacked uniforms into noise, one broadcast scales it by
    ``release.share``/eps per budget, and one stack of one-row products
    reads them, each the product ``z @ release.reading(d)`` of one row, so
    row p * len(budgets) + j equals, bit for bit, the release of pair p at
    ``budgets[j]`` alone (DECISIONS.md, D3, D17 and D22). Together a pair's
    rows are not eps-DP at any one budget; one row alone is.
    """
    d = _as_degree(degree)
    matrix = release.reading(d)
    k = len(matrix)
    neg_scales = np.array([-release.share / _as_epsilon(b) for b in budgets])
    sums, uniforms = [], []
    for block in blocks:
        if isinstance(block, _Run):  # one dataset's sums, shared by every row (D24)
            datasets, drawn = [as_dataset(block.data)], block.laplace_u(k)
        else:
            pairs = [(as_dataset(data), s._laplace_u(k)) for data, s in block]
            datasets, drawn = [ds for ds, _ in pairs], [u for _, u in pairs]
        sums.append(np.array(_cell_sums(datasets, release.rows, d, k)).reshape(-1, k))
        uniforms.append(np.reshape(drawn, (-1, k)))
    if len(sums) > 1:  # a run's shared sums, repeated for the rows of other blocks
        sums = [np.broadcast_to(s, u.shape) for s, u in zip(sums, uniforms)]
    return _laplace_release(matrix, np.concatenate(sums), np.concatenate(uniforms), neg_scales)


def _laplace_release(matrix, sums, uniforms, neg_scales) -> np.ndarray:
    """``_laplace_draw``'s arithmetic on (N, k) uniforms and (N, k) or shared (1, k) sums."""
    noise = _unit_laplace(uniforms)[:, None, :] * neg_scales[:, None]
    noise += sums[:, None, :]
    return (noise.reshape(-1, 1, len(matrix)) @ matrix)[:, 0]


def _solve_systems(aug: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian elimination of a stack of augmented systems [a | b], (N, m, m + 1).

    Overwrites ``aug`` and the (N,) mask ``fallback`` of rows given up on,
    and returns the (N, m) solutions and the mask widened by every row with
    a pivot of at most 1e-12 times its largest entry of a, or a largest to
    smallest pivot ratio above 1e12. A row runs the operations, in order,
    of partial pivoting on one system in Python floats: a later row takes
    the pivot only if strictly larger, and the largest entry and pivot
    extremes skip NaN, as ``max`` and ``min`` do after their first item (a
    NaN first item makes every pivot NaN, which passes any floor). A row
    that falls back becomes the identity system before it can divide by
    zero, so no warning is raised on it or hidden on others.
    """
    n, m = aug.shape[:2]
    identity = np.eye(m, m + 1)
    if fallback.any():
        aug[fallback] = identity
    floor = 1e-12 * np.fmax.reduce(np.abs(aug[:, :, :m]), axis=(1, 2))
    for col in range(m):
        if col + 1 < m:
            p, best = col, np.abs(aug[:, col, col])
            for row in range(col + 1, m):
                cand = np.abs(aug[:, row, col])
                take = cand > best
                p, best = np.where(take, row, p), np.where(take, cand, best)
            if (p != col).any():
                lanes = np.arange(n)
                aug[lanes, col], aug[lanes, p] = aug[lanes, p], aug[:, col].copy()
        pivot = aug[:, col, col]
        singular = np.abs(pivot) <= floor
        if singular.any():
            fallback |= singular
            aug[singular] = identity
        size = np.abs(pivot)
        largest = size if col == 0 else np.fmax(largest, size)
        smallest = size if col == 0 else np.fmin(smallest, size)
        if col + 1 < m:
            factor = aug[:, col + 1 :, col] / pivot[:, None]
            aug[:, col + 1 :, col + 1 :] -= factor[:, :, None] * aug[:, col, None, col + 1 :]
    fallback |= largest / smallest > 1e12
    x = np.empty((n, m))
    for row in range(m - 1, -1, -1):
        acc = 0.0
        for k in range(row + 1, m):
            acc = acc + aug[:, row, k] * x[:, k]
        x[:, row] = (aug[:, row, m] - acc) / aug[:, row, row]
    return x, fallback


def _fallback_coeffs(d: int) -> tuple:
    """Coefficients of the fallback fit at degree d, the constant y = 0.5."""
    return (0.0,) * d + (0.5,)


@lru_cache(maxsize=None)
def _augmented_columns(d: int) -> np.ndarray:
    """Columns of the refined statistics that fill the degree-d system [a | b].

    a[i, j] is S_{x^{2d-i-j}}, column 2d-i-j; b[i] is S_{x^{d-i} y}, 3d+1-i.
    """
    i = np.arange(d + 1)
    return np.column_stack([2 * d - np.add.outer(i, i), 3 * d + 1 - i])


def _solve_refined(stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of a stack of Laplace releases, and fallbacks.

    ``stats`` is (N, 3d + 2), the statistics of one release per row. Returns the (N, d + 1)
    coefficients, highest power first, and an (N,) fallback mask; a
    fallback row holds the constant fit y = 0.5. A row falls back when its
    size or x-spread is not positive (a NaN is neither), or when
    ``_solve_systems`` finds its normal equations singular (DECISIONS.md,
    D2).
    """
    d = (stats.shape[1] - 2) // 3
    n_hat, s_x, s_x2 = stats[:, 0], stats[:, 1], stats[:, 2]
    fallback = (n_hat <= 0) | (s_x2 * n_hat - s_x * s_x <= 0)
    x, fallback = _solve_systems(stats[:, _augmented_columns(d)], fallback)
    x[fallback] = _fallback_coeffs(d)
    return x, fallback


def group_contributions(x, y, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Each record's x-group and xy-group vectors, as the release sums them.

    ``x`` and ``y`` broadcast to a common shape S; the result has shapes
    S + (2d+1,) and S + (d+2,), in the entry order of the module docstring.
    The columns are the rows of ``_component_rows`` over the flattened
    records, so each value is bit for bit one that ``exact_group_stats``
    adds. Raises ValueError, as ``Dataset`` does, when a coordinate lies
    outside [0, 1] or is NaN.
    """
    d = _as_degree(degree)
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    shape = x.shape
    x, y = np.ravel(x), np.ravel(y)  # contiguous, as a Dataset's arrays are
    _check_range(x, "x")
    _check_range(y, "y")
    cells = np.empty((x.size, 3 * d + 3))
    for cell, row in _component_rows(x, y, d):
        cells[:, cell] = row
    return tuple(g.reshape(shape + g.shape[1:]) for g in np.split(cells, [2 * d + 1], axis=1))


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

    d = _as_degree(degree)
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
