import math

import numpy as np
import pytest

from dpreg import (
    Dataset,
    NoiseLedger,
    PolyFitResult,
    RandomStream,
    ZeroNoiseStream,
    dp_rss_fit,
    dp_rss_poly_fit,
    exact_group_stats,
    group_contributions,
)
from dpreg.simplex import (
    _component_rows,
    _solve_normal_equations,
    refined_release,
    transfer_matrix,
)


def stacked_power_groups(x, y, degree):
    """Reference group vectors, built apart from ``_component_rows``.

    Every power of x comes from one broadcast ``x ** arange(2d + 1)``; the
    x-group is (x^{2d}, x^{2d-1} - x^{2d}, ..., 1 - x) and the xy-group
    (x^d y, (x^{d-1} - x^d) y, ..., (1 - x) y, 1 - y).
    """
    d = degree
    powers = x[..., None] ** np.arange(2 * d + 1)  # powers[..., k] = x^k
    g1 = [powers[..., 2 * d]]
    g1 += [powers[..., j - 1] - powers[..., j] for j in range(2 * d, 0, -1)]
    g2 = [powers[..., d] * y]
    g2 += [(powers[..., j - 1] - powers[..., j]) * y for j in range(d, 0, -1)]
    g2.append(1.0 - y)
    return np.stack(g1, axis=-1), np.stack(g2, axis=-1)


def test_contribution_dimensions():
    g1, g2 = group_contributions(0.5, 0.5, 2)
    assert g1.shape == (5,)
    assert g2.shape == (4,)
    g1, g2 = group_contributions(np.full((2, 3), 0.5), 0.25, 3)
    assert g1.shape == (2, 3, 7)
    assert g2.shape == (2, 3, 5)


def test_degree_one_matches_linear_transforms():
    x, y = 0.3, 0.8
    g1, g2 = group_contributions(x, y, 1)
    assert g1 == pytest.approx((0.09, 0.21, 0.7), abs=1e-15)
    assert g2 == pytest.approx((x * y, (1 - x) * y, 1 - y), abs=1e-15)


def test_boundary_contributions():
    d = 3
    at0 = group_contributions(0.0, 0.5, d)[0]
    assert at0[:-1] == pytest.approx(np.zeros(2 * d), abs=0)
    assert at0[-1] == 1.0
    at1 = group_contributions(1.0, 0.5, d)[0]
    assert at1[0] == 1.0
    assert at1[1:] == pytest.approx(np.zeros(2 * d), abs=0)


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_contributions_nonnegative_and_sum_to_one(degree):
    g = RandomStream(degree, 0)
    x = g.uniform(500)
    y = g.uniform(500)
    tol = 4.0 * np.finfo(np.float64).eps
    c1, c2 = group_contributions(x, y, degree)
    assert c1.shape == (500, 2 * degree + 1)
    assert c2.shape == (500, degree + 2)
    for c in (c1, c2):
        assert (c >= 0.0).all()
        assert np.abs(c.sum(axis=-1) - 1.0).max() <= tol


def test_degree_validation():
    for bad in (0, -1, 1.5):
        with pytest.raises(ValueError):
            group_contributions(0.5, 0.5, bad)
        with pytest.raises(ValueError):
            dp_rss_poly_fit(Dataset(np.array([0.5]), np.array([0.5])), bad,
                            1.0, RandomStream(0, 0))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_noise_free_estimates_recover_power_sums(degree, random_dataset):
    # Oracle: plain fsum of the monomials, computed without the telescoped
    # group representation.
    ds = random_dataset(degree, n=150)
    stats = refined_release(ds, degree, 1.0, ZeroNoiseStream(0, 0))
    n_hat, s_x, s_xy = stats[0], stats[1 : 2 * degree + 1], stats[2 * degree + 1 :]
    assert n_hat == pytest.approx(150.0, rel=1e-12)
    for ell in range(1, 2 * degree + 1):
        want = math.fsum(ds.x ** ell)
        assert s_x[ell - 1] == pytest.approx(want, rel=1e-10)
    for ell in range(0, degree + 1):
        want = math.fsum((ds.x ** ell) * ds.y)
        assert s_xy[ell] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_component_rows_equal_contribution_columns(degree):
    # The summed rows must be the reference vectors' columns bit for bit,
    # so the group sums stay fsum of the same components; and
    # group_contributions must return those same columns.
    rng = np.random.default_rng(degree)
    x = np.concatenate([[0.0, 1.0, 2.0 ** -1074, 0.5, 1.0 - 2.0 ** -53], rng.random(3000)])
    y = np.concatenate([[1.0, 0.0, 0.5, 2.0 ** -1074, 1.0], rng.random(3000)])
    columns = stacked_power_groups(x, y, degree)
    shaped = group_contributions(x.reshape(5, 601), y.reshape(5, 601), degree)
    for got, got_2d, want in zip(group_contributions(x, y, degree), shaped, columns):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got_2d.reshape(want.shape).view(np.int64), want.view(np.int64))
    seen = {0: [], 1: []}
    for group, entry, row in _component_rows(x, y, degree):
        want = np.ascontiguousarray(columns[group][:, entry])
        assert row.flags.c_contiguous
        assert np.array_equal(row.view(np.int64), want.view(np.int64)), (group, entry)
        seen[group].append(entry)
    assert sorted(seen[0]) == list(range(2 * degree + 1))
    assert sorted(seen[1]) == list(range(degree + 2))
    ds = Dataset(x, y)
    g1, g2 = exact_group_stats(ds, degree)
    assert [v.hex() for v in g1.tolist()] == [
        math.fsum(columns[0][:, k]).hex() for k in range(2 * degree + 1)]
    assert [v.hex() for v in g2.tolist()] == [
        math.fsum(columns[1][:, k]).hex() for k in range(degree + 2)]


def test_degree_one_estimates_match_linear_refinement(random_dataset):
    # Oracle: the linear refinement written out by hand, each statistic a
    # direct and a complement reading weighted by the other's term count.
    ds = random_dataset(9, n=70)
    g1, g2 = exact_group_stats(ds)
    z = RandomStream(40, 0).laplace(2.0, 6)
    a = g1 + z[:3]
    b = g2 + z[3:]
    n_x, n_y = a.sum(), b.sum()
    want = [
        0.5 * (n_x + n_y),
        (2 / 3) * (a[0] + a[1]) + (1 / 3) * (n_y - a[2]),
        (5 / 6) * a[0] + (1 / 6) * (n_y - a[1] - a[2]),
        (2 / 3) * (b[0] + b[1]) + (1 / 3) * (n_x - b[2]),
        (5 / 6) * b[0] + (1 / 6) * (n_x - b[1] - b[2]),
    ]
    assert np.concatenate([a, b]) @ transfer_matrix(1) == pytest.approx(want, rel=1e-12)


def test_degree_one_fit_matches_linear_fit(random_dataset):
    # Beside n = 90 at epsilon 0.7, small n and extreme budgets, where
    # fallbacks are common: degree 1 must fall back, and fit, exactly when
    # dp_rss does.
    cases = [(seed, 90, 0.7) for seed in range(30)]
    cases += [(seed, 50 + seed, eps) for seed in range(300) for eps in (0.05, 1.0, 10.0)]
    fallbacks = 0
    for seed, n, eps in cases:
        ds = random_dataset(seed, n=n)
        lin = dp_rss_fit(ds, eps, RandomStream(seed, 2))
        poly = dp_rss_poly_fit(ds, 1, eps, RandomStream(seed, 2))
        assert poly.fallback == lin.fallback, (seed, n, eps)
        assert poly.coeffs == (lin.alpha_hat, lin.beta_hat), (seed, n, eps)
        fallbacks += lin.fallback
    assert fallbacks >= 50


def test_quadratic_zero_noise_recovery():
    x = np.linspace(0.0, 1.0, 50)
    y = 0.25 * x * x + 0.25 * x + 0.2
    res = dp_rss_poly_fit(Dataset(x, y), 2, 1.0, ZeroNoiseStream(0, 0))
    assert not res.fallback
    assert res.degree == 2
    assert res.coeffs == pytest.approx((0.25, 0.25, 0.2), abs=1e-10)


def test_poly_fallback_paths():
    empty = Dataset(np.array([]), np.array([]))
    res = dp_rss_poly_fit(empty, 2, 1.0, ZeroNoiseStream(0, 0))
    assert res == PolyFitResult((0.0, 0.0, 0.5), fallback=True)
    assert res.degree == 2
    assert dp_rss_poly_fit(empty, 2, 1.0, RandomStream(0, 0)).fallback

    flat = Dataset(np.full(8, 0.4), np.linspace(0.1, 0.8, 8))
    res = dp_rss_poly_fit(flat, 2, 1.0, ZeroNoiseStream(0, 0))
    assert res.fallback and res.coeffs == (0.0, 0.0, 0.5)


def test_normal_equation_solver_flags_singularity():
    assert _solve_normal_equations(np.eye(3), np.array([1.0, 2.0, 3.0])) == pytest.approx(
        [1.0, 2.0, 3.0])
    assert _solve_normal_equations(np.ones((2, 2)), np.ones(2)) is None
    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    assert _solve_normal_equations(nearly, np.ones(2)) is None


def test_poly_budget_ledger(random_dataset):
    led = NoiseLedger()
    dp_rss_poly_fit(random_dataset(1, n=40), 3, 0.6, RandomStream(0, 0), ledger=led)
    assert led.total_epsilon() == pytest.approx(0.6, abs=1e-12)
    assert all(e.scale == pytest.approx(2.0 / 0.6) for e in led.events)


def test_poly_sensitivity_on_grid():
    pts = np.linspace(0.0, 1.0, 21)
    xg, yg = np.meshgrid(pts, pts, indexing="ij")
    c1, c2 = group_contributions(xg, yg, 2)
    assert np.abs(np.abs(c1).sum(axis=-1) - 1.0).max() <= 1e-12
    assert np.abs(np.abs(c2).sum(axis=-1) - 1.0).max() <= 1e-12
