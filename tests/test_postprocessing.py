"""The batched post-processing against the scalar code it replaced.

Every Laplace release's coefficients come from stacks of releases,
``_solve_refined`` on ``_solve_systems``, for dp_rss and dp_ss alike. The
scalar solvers they replaced are kept here as oracles, operation for
operation, and every row of a batch must equal them bit for bit (compared
by ``float.hex``), fallbacks included. dp_ss's own covariance-form solve,
which ``_solve_refined`` replaced, is kept as a reference to rounding.
"""
import math

import numpy as np
import pytest

from dpreg import Dataset, RandomStream
from dpreg.mechanisms import FALLBACK_ALPHA, FALLBACK_BETA, MECHANISMS
from dpreg.simplex import _cell_sums, _laplace_draw, _solve_refined, _solve_systems, _ss_rows


def solve_stack(a, b, fallback=None):
    """``_solve_systems`` on copies of a stack of systems a x = b."""
    aug = np.concatenate([np.asarray(a, np.float64), np.asarray(b, np.float64)[:, :, None]], 2)
    return _solve_systems(aug, np.zeros(len(aug), bool) if fallback is None else fallback.copy())


def scalar_solve(a, b):
    """Gaussian elimination with partial pivoting on Python floats, or None."""
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


def scalar_coefficients(stats, d):
    """The scalar refined solve: size and x-spread tests, then elimination."""
    n_hat, s_x, s_x2 = stats[0], stats[1], stats[2]
    if n_hat <= 0 or s_x2 * n_hat - s_x * s_x <= 0:
        return None
    design = [[stats[2 * d - i - j] for j in range(d + 1)] for i in range(d + 1)]
    return scalar_solve(design, [stats[3 * d + 1 - i] for i in range(d + 1)])


def scalar_ss(noisy):
    """The scalar dp_ss solve on one row of eight noisy sums, or None."""
    s_x, _, s_y, _, s_xy, _, s_x2, _ = noisy
    n_tilde = math.fsum(noisy) / 4.0
    if n_tilde <= 0:
        return None
    n_var = s_x2 - s_x * s_x / n_tilde
    if n_var <= 0:
        return None
    n_cov = s_xy - s_x * s_y / n_tilde
    alpha = n_cov / n_var
    return [alpha, (s_y - alpha * s_x) / n_tilde]


def hexes(values):
    return [float(v).hex() for v in values]


def assert_rows_match(got, fallback, oracle_rows, fallback_row=None):
    """Each row equals its oracle; a fallback row holds ``fallback_row`` if given."""
    outcomes = set()
    for j, want in enumerate(oracle_rows):
        outcomes.add(want is None)
        assert bool(fallback[j]) == (want is None), j
        if want is not None or fallback_row is not None:
            assert hexes(got[j]) == hexes(fallback_row if want is None else want), j
    return outcomes


def random_systems(m, g):
    """Systems of order m: wide-range reals, and small integers with ties and singular ones."""
    wide = g.normal(size=(200, m, m)) * 10.0 ** g.integers(-8, 9, size=(200, m, 1))
    ties = g.integers(-2, 3, size=(200, m, m)).astype(np.float64)
    hankel = np.array([[[s[i + j] for j in range(m)] for i in range(m)]
                       for s in np.cumsum(g.uniform(size=(200, 2 * m)), axis=1)])
    a = np.concatenate([wide, ties, hankel])
    return a, g.normal(size=(len(a), m))


def test_solve_systems_equals_scalar_elimination_bitwise():
    g = np.random.default_rng(11)
    for m in (2, 3, 4, 5):  # the normal equations of degrees 1 to 4
        a, b = random_systems(m, g)
        x, fallback = solve_stack(a, b)
        want = [scalar_solve(ai.tolist(), bi.tolist()) for ai, bi in zip(a, b)]
        assert assert_rows_match(x, fallback, want) == {True, False}, m
        # A row's result does not depend on the rest of the stack.
        for j in range(0, len(a), 97):
            alone = solve_stack(a[j : j + 1], b[j : j + 1])
            assert hexes(alone[0][0]) == hexes(x[j]) and alone[1][0] == fallback[j]


def test_solve_systems_edges_bitwise():
    nan, inf = math.nan, math.inf
    below = np.nextafter(1e-12, 0.0)
    above = np.nextafter(1e-12, 1.0)
    cases = [
        # The 1e-12 floor: a pivot equal to it is singular, one ulp above is not.
        ([[1.0, 0.0], [0.0, 1e-12]], [1.0, 1.0], None),
        ([[1.0, 0.0], [0.0, above]], [1.0, 1.0], "solved"),
        ([[1.0, 0.0], [0.0, -below]], [1.0, 1.0], None),
        ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0], None),
        # The 1e12 ratio guard: elimination grows the middle pivot to 2,
        # above the largest entry, so a last pivot above the floor can still
        # make the ratio exceed 1e12 (1.9e-12) or not (2.1e-12).
        ([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.9e-12]], [1.0, 2.0, 3.0], None),
        ([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 2.1e-12]], [1.0, 2.0, 3.0], "solved"),
        ([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 2e-12]], [1.0, 2.0, 3.0], "either"),
        # Tied pivots: only a strictly larger magnitude takes the pivot row.
        ([[1.0, 2.0], [-1.0, 3.0]], [1.0, -1.0], "solved"),
        ([[-1.0, 2.0], [1.0, 3.0]], [1.0, -1.0], "solved"),
        ([[2.0, 1.0, 1.0], [-2.0, 1.0, 3.0], [2.0, -1.0, 1.0]], [1.0, 0.0, -1.0], "solved"),
        ([[-0.0, 1.0], [0.0, 2.0]], [1.0, 1.0], None),
        # Exactly singular.
        ([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0], None),
        # Back substitution starts each sum at +0.0, so a -0.0 product
        # and a -0.0 right-hand side give -0.0, not +0.0.
        ([[1.0, -1.0], [0.0, 1.0]], [-0.0, 0.0], "solved"),
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]], [1.0, 1.0, 1.0], None),
        # NaN and infinity. A leading NaN entry is the first pivot, and it
        # makes every later pivot NaN, which passes any floor; any infinity
        # makes the floor infinite, so the first pivot is singular.
        ([[nan, 1.0], [1.0, 0.0]], [1.0, 1.0], "solved"),
        ([[nan, -inf], [1.0, 2.0]], [1.0, 1.0], "solved"),
        ([[1.0, nan], [2.0, 3.0]], [1.0, 1.0], "solved"),
        ([[2.0, 1.0], [1.0, 3.0]], [nan, 1.0], "solved"),
        ([[inf, 1.0], [1.0, 1.0]], [1.0, 1.0], None),
        # A NaN after the first entry does not reach the floor, so a zero
        # pivot is still singular.
        ([[1.0, 1.0, nan], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 1.0, 1.0], None),
        # A NaN pivot after the first does not reach the pivot extremes, so
        # the ratio guard still sees 2 / 1.9e-12.
        ([[1.0, 1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.9e-12, 0.0],
          [0.0, 0.0, 0.0, nan]], [1.0, 1.0, 1.0, 1.0], None),
        ([[1.0, 1.0], [1.0, -inf]], [1.0, 1.0], None),
    ]
    for m in (2, 3, 4):
        sized = [c for c in cases if len(c[1]) == m]
        a = np.array([c[0] for c in sized])
        b = np.array([c[1] for c in sized])
        want = [scalar_solve(c[0], c[1]) for c in sized]
        for (_, _, outcome), w in zip(sized, want):
            assert outcome == "either" or (w is None) == (outcome is None), (sized, w)
        x, fallback = solve_stack(a, b)
        assert_rows_match(x, fallback, want)
    # Rows given up on before the call stay given up on.
    x, fallback = solve_stack(np.array([[[2.0, 1.0], [1.0, 3.0]]] * 2), np.ones((2, 2)),
                              np.array([True, False]))
    assert fallback.tolist() == [True, False] and hexes(x[1]) == hexes([0.4, 0.2])


BUDGETS = (0.01, 0.05, 0.5, 5.0, 50.0)


def refined_stacks(d):
    """Releases of small and random datasets at budgets from 0.01 to 50.

    The refined releases at degree d, and at d = 1 the dp_ss releases too.
    """
    g = RandomStream(40 + d, 0)
    datasets = [Dataset(np.array([]), np.array([])), Dataset(np.array([0.4]), np.array([0.6])),
                Dataset(np.full(5, 0.3), np.linspace(0.1, 0.9, 5))]
    for n in (2, 3, 5, 40, 400):
        x = g.uniform(n)
        datasets.append(Dataset(x, np.clip(0.6 * x + 0.2 + 0.1 * g.normal(n), 0.0, 1.0)))
    names = ("dp_rss", "dp_ss") if d == 1 else ("dp_rss",)
    return np.concatenate([_laplace_draw(MECHANISMS[name], [[(ds, RandomStream(seed, 1))]], BUDGETS,
                                         degree=d)
                           for name in names for ds in datasets for seed in range(15)])


def test_solve_refined_equals_scalar_coefficients_bitwise():
    nan, inf = math.nan, math.inf
    for d in (1, 2, 3, 4):
        stats = refined_stacks(d)
        good = stats[-1].copy()
        crafted = []
        for column, value in ((0, nan), (0, inf), (0, -inf), (0, 0.0), (1, nan),
                              (3 * d + 1, nan), (2 * d, nan)):
            row = good.copy()
            row[column] = value
            crafted.append(row)
        stats = np.concatenate([stats, crafted])
        coeffs, fallback = _solve_refined(stats)
        want = [scalar_coefficients(row.tolist(), d) for row in stats]
        outcomes = assert_rows_match(coeffs, fallback, want, [0.0] * d + [0.5])
        assert outcomes == {True, False}, d


def test_ss_solve_equals_scalar_bitwise():
    # dp_ss reads its eight noisy sums with a matrix and solves them by
    # _solve_refined; its old covariance-form solve, scalar_ss, is the
    # reference. On drawn releases the two make the same fallbacks and
    # agree on the coefficients to 1e-10 relative: the elimination and the
    # reading of n by a matrix product move only the last bits.
    release = MECHANISMS["dp_ss"]
    reading = release.reading(1)
    g = RandomStream(50, 0)
    rows = []
    for n in (0, 1, 2, 3, 5, 40):
        x = g.uniform(n)
        ds = Dataset(x, np.clip(0.5 * x + 0.2 + 0.1 * g.normal(n), 0.0, 1.0))
        for seed in range(30):
            scales = np.array([4.0 / eps for eps in BUDGETS])
            unit = RandomStream(seed, 1).laplace(1.0, size=8)
            noisy = np.multiply.outer(scales, unit) + _cell_sums([ds], _ss_rows, 1, 8)[0]
            drawn = _laplace_draw(release, [[(ds, RandomStream(seed, 1))]], BUDGETS)
            assert drawn.tobytes() == np.array([z @ reading for z in noisy]).tobytes()
            rows.append(noisy)
    noisy = np.concatenate(rows)
    coeffs, fallback = _solve_refined(np.array([z @ reading for z in noisy]))
    want = [scalar_ss(row) for row in noisy.tolist()]
    assert fallback.tolist() == [w is None for w in want]
    assert set(fallback.tolist()) == {True, False}
    for got, w in zip(coeffs.tolist(), want):
        fallback_line = [FALLBACK_ALPHA, FALLBACK_BETA]
        assert got == (fallback_line if w is None else pytest.approx(w, rel=1e-10, abs=0.0))
    # Crafted rows of eight sums, and their outcomes now:
    nan = math.nan
    crafted = np.array([
        [1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # size exactly 0: falls back, as before
        [2.0, 0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 2.0],   # x-spread exactly 0: falls back, as before
        # A NaN sum: the matrix reads it into every statistic (NaN times 0
        # is NaN), where it used to reach n and s_y alone. The coefficients
        # are NaN with no fallback, as before.
        [2.0, 0.0, nan, 0.0, 1.0, 0.0, 2.0, 2.0],
        [1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, -nan],
        # The noise-free sums of three records at x = 0.01: the x-spread
        # rounds to a positive value, so the covariance form returned the
        # line 32 x + 0.18; the pivot guard now falls back.
        _cell_sums([Dataset(np.full(3, 0.01), np.array([0.1, 0.5, 0.9]))], _ss_rows, 1, 8)[0],
    ])
    coeffs, fallback = _solve_refined(np.array([z @ reading for z in crafted]))
    assert fallback.tolist() == [True, True, False, False, True]
    assert all(math.isnan(v) for v in coeffs[2:4].ravel())
    assert coeffs[[0, 1, 4]].tolist() == [[FALLBACK_ALPHA, FALLBACK_BETA]] * 3
    assert [scalar_ss(row) is None for row in crafted[[0, 1, 4]].tolist()] == [True, True, False]
    assert scalar_ss(crafted[4].tolist()) == pytest.approx([32.0, 0.18])
