import math
from fractions import Fraction

import numpy as np
import pytest

from dpreg import (
    RSS_VARIANCES,
    Dataset,
    NoiseLedger,
    RandomStream,
    ZeroNoiseStream,
    exact_group_stats,
    group_contributions,
    sensitivity_oracle,
)
import dpreg.simplex
from dpreg.simplex import (
    LINEAR_COLUMNS,
    _solve_normal_equations,
    refined_fit,
    refined_release,
    transfer_matrix,
)


@pytest.mark.parametrize("x, expected", [
    (0.0, (0.0, 0.0, 1.0)),
    (1.0, (1.0, 0.0, 0.0)),
    (0.5, (0.25, 0.25, 0.5)),
    (0.3, (0.09, 0.21, 0.7)),
])
def test_x_transform_values(x, expected):
    got = group_contributions(x, 0.5, 1)[0]
    assert got.shape == (3,)
    assert got == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("x, y, expected", [
    (0.5, 0.5, (0.25, 0.25, 0.5)),
    (1.0, 0.0, (0.0, 0.0, 1.0)),
    (0.0, 1.0, (0.0, 1.0, 0.0)),
    (1.0, 1.0, (1.0, 0.0, 0.0)),
])
def test_xy_transform_values(x, y, expected):
    got = group_contributions(x, y, 1)[1]
    assert got == pytest.approx(expected, abs=1e-15)


def test_transforms_reject_out_of_range_inputs():
    # The same check, and message, as Dataset's.
    for bad in (-0.1, 1.1, float("nan"), float("inf"), -float("inf")):
        for degree in (1, 3):
            with pytest.raises(ValueError, match=r"record 0: x=.* outside \[0, 1\]"):
                group_contributions(bad, 0.5, degree)
            with pytest.raises(ValueError, match=r"record 2: y=.* outside \[0, 1\]"):
                group_contributions(0.5, [0.1, 0.2, bad], degree)
    # Arrays are checked in full, not only their first record.
    grid = np.full((4, 5), 0.5)
    grid[3, 2] = 1.0 + 2.0 ** -52
    with pytest.raises(ValueError, match="record 17: x="):
        group_contributions(grid, 0.5, 1)


def test_components_nonnegative_and_sum_to_one():
    g = RandomStream(1, 0)
    x = g.uniform(2000)
    y = g.uniform(2000)
    tol = 4.0 * np.finfo(np.float64).eps
    x_group, xy_group = group_contributions(x, y, 1)
    assert x_group.shape == (2000, 3) and xy_group.shape == (2000, 3)
    for stacked in (x_group, xy_group):
        assert (stacked >= 0.0).all()
        assert np.abs(stacked.sum(axis=-1) - 1.0).max() <= tol


def test_exact_group_stats_worked_example():
    ds = Dataset(np.array([0.5, 1.0]), np.array([0.5, 0.0]))
    g1, g2 = exact_group_stats(ds)
    assert g1 == pytest.approx((1.25, 0.25, 0.5), abs=1e-15)
    assert g2 == pytest.approx((0.25, 0.25, 1.5), abs=1e-15)


def test_exact_group_stats_empty_and_repeated():
    g1, g2 = exact_group_stats(Dataset(np.array([]), np.array([])))
    assert g1.tolist() == [0.0, 0.0, 0.0]
    assert g2.tolist() == [0.0, 0.0, 0.0]

    ds = Dataset(np.full(100, 0.5), np.full(100, 0.5))
    g1, g2 = exact_group_stats(ds)
    assert g1 == pytest.approx((25.0, 25.0, 50.0), abs=1e-12)
    assert g2 == pytest.approx((25.0, 25.0, 50.0), abs=1e-12)


def test_group_totals_recover_dataset_size(random_dataset):
    for seed in range(5):
        ds = random_dataset(seed, n=317)
        for degree in (1, 3):
            g1, g2 = exact_group_stats(ds, degree)
            assert math.fsum(g1) == pytest.approx(317.0, abs=1e-12)
            assert math.fsum(g2) == pytest.approx(317.0, abs=1e-12)


def test_exact_group_stats_cached_on_dataset(random_dataset):
    ds = random_dataset(3)
    first = exact_group_stats(ds)
    again = exact_group_stats(ds)
    assert np.shares_memory(first[0], again[0]) and np.shares_memory(first[1], again[1])
    assert not np.shares_memory(exact_group_stats(ds, 2)[0], first[0])


def test_privatize_draw_order_and_scales(random_dataset):
    # One release draws every group sum's noise at scale 2/eps in one go,
    # x-group first, before the transfer matrix refines it.
    ds = random_dataset(6, n=40)
    for degree in (1, 2):
        got = refined_release(ds, degree, 0.5, RandomStream(6, 0))
        ref = RandomStream(6, 0)
        z1 = ref.laplace(4.0, 2 * degree + 1)
        z2 = ref.laplace(4.0, degree + 2)
        g1, g2 = exact_group_stats(ds, degree)
        want = np.concatenate([g1 + z1, g2 + z2]) @ transfer_matrix(degree)
        assert np.array_equal(got, want)


def test_privatize_zero_noise_is_identity(random_dataset):
    ds = random_dataset(2)
    got = refined_release(ds, 1, 0.5, ZeroNoiseStream(0, 0))
    assert np.array_equal(got, np.concatenate(exact_group_stats(ds)) @ transfer_matrix(1))


def test_privatize_rejects_nonpositive_budget(random_dataset):
    ds = random_dataset(0, n=10)
    for bad in (0.0, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            refined_release(ds, 1, bad, RandomStream(0, 0))
        with pytest.raises(ValueError):
            refined_fit(ds, 2, bad, RandomStream(0, 0))


def test_refine_zero_noise_recovers_exact_sums(random_dataset):
    ds = random_dataset(4, n=200)
    n_hat, s_x, s_x2, s_y, s_xy = refined_release(ds, 1, 0.5, ZeroNoiseStream(0, 0))
    assert n_hat == pytest.approx(200.0, rel=1e-12)
    assert s_x == pytest.approx(math.fsum(ds.x), rel=1e-12)
    assert s_y == pytest.approx(math.fsum(ds.y), rel=1e-12)
    assert s_x2 == pytest.approx(math.fsum(ds.x * ds.x), rel=1e-12)
    assert s_xy == pytest.approx(math.fsum(ds.x * ds.y), rel=1e-12)


def test_refine_requires_even_budget_split(random_dataset):
    # The weights assume equally noisy components, so a release always
    # spends half the budget on each group at the same scale.
    for degree in (1, 3):
        ledger = NoiseLedger()
        refined_release(random_dataset(1, n=30), degree, 0.8, RandomStream(0, 0), ledger)
        assert [(e.label, e.epsilon, e.scale) for e in ledger.events] == [
            ("x-group sums", 0.4, 2.5), ("xy-group sums", 0.4, 2.5)]


def test_refine_propagates_single_noise_terms():
    # Row k of the transfer matrix is how far one unit of noise on group sum
    # k moves each refined statistic: its inverse-variance weight, signed.
    # Rows: x^2, x - x^2, 1 - x, xy, (1 - x)y, 1 - y.
    # Columns: n, S_x, S_{x^2}, S_y, S_{xy}.
    h, a, b, c, e = 1 / 2, 2 / 3, 1 / 3, 5 / 6, 1 / 6
    want = np.array([
        [h, a, c, b, e],
        [h, a, -e, b, e],
        [h, -b, -e, b, e],
        [h, b, e, a, c],
        [h, b, e, a, -e],
        [h, b, e, -b, -e],
    ])
    assert np.array_equal(transfer_matrix(1), want)
    assert not transfer_matrix(1).flags.writeable


def test_refine_broadcasts_and_is_unbiased(random_dataset):
    # Monte Carlo over a leading trials axis: refined estimates centre on
    # the exact sums within four standard errors.
    ds = random_dataset(6, n=80)
    exact = np.concatenate(exact_group_stats(ds))
    eps = 0.5
    trials = 100_000
    z = RandomStream(21, 0).laplace(2.0 / eps, size=(trials, 6))
    refined = (exact + z) @ transfer_matrix(1)
    assert refined.shape == (trials, 5)
    centre = exact @ transfer_matrix(1)
    for stat, k in LINEAR_COLUMNS.items():
        sims = refined[:, k]
        var = RSS_VARIANCES[stat] / eps ** 2
        assert abs(sims.mean() - centre[k]) <= 4.0 * math.sqrt(var / trials)
        # Laplace mixtures have heavy tails; allow five relative sigmas.
        assert abs(sims.var(ddof=1) - var) <= 5.0 * var * math.sqrt(5.0 / trials)


def test_transfer_matrix_gives_closed_form_variances():
    # Each group sum carries Laplace(2) noise at epsilon = 1, variance 8,
    # so the refined variances are the diagonal of T^T (8 I) T: no sampling.
    got = np.diag(transfer_matrix(1).T @ (8.0 * np.eye(6)) @ transfer_matrix(1))
    for stat, k in LINEAR_COLUMNS.items():
        assert got[k] == pytest.approx(RSS_VARIANCES[stat], rel=1e-15)
    # At every degree a statistic's two readings split the 3d + 3 noisy
    # sums between them, m terms and 3d + 3 - m, and inverse-variance
    # weights give the harmonic combination 8 m (3d + 3 - m) / (3d + 3).
    for d in (1, 2, 3, 4):
        direct_terms = ([2 * d + 1] + [2 * d - l + 1 for l in range(1, 2 * d + 1)]
                        + [d - l + 1 for l in range(d + 1)])
        want = [8.0 * m * (3 * d + 3 - m) / (3 * d + 3) for m in direct_terms]
        t = transfer_matrix(d)
        assert 8.0 * (t * t).sum(axis=0) == pytest.approx(want, rel=1e-14)


def test_one_fallback_rule_for_every_degree(monkeypatch):
    # Fallback on a non-positive size, a non-positive x-spread
    # n S_{x^2} - S_x^2, or a singular system, whatever the degree.
    x = np.linspace(0.0, 1.0, 40)
    y = 0.2 + 0.3 * x
    for d in (1, 3):
        good = [math.fsum(x ** p) for p in range(2 * d + 1)]
        good += [math.fsum(x ** p * y) for p in range(d + 1)]

        def fit(stats):
            monkeypatch.setattr(dpreg.simplex, "refined_release", lambda *a, **k: np.array(stats))
            return refined_fit(None, d, 1.0, None)

        coeffs = fit(good)
        assert coeffs[-2:] == pytest.approx([0.3, 0.2]) and len(coeffs) == d + 1
        assert fit([-1.0] + good[1:]) is None
        # An x-spread of -n: the elimination alone would still solve it.
        spread = list(good)
        spread[2] = good[1] ** 2 / good[0] - 1.0
        design = [[spread[2 * d - i - j] for j in range(d + 1)] for i in range(d + 1)]
        assert _solve_normal_equations(design, [1.0] * (d + 1)) is not None
        assert fit(spread) is None
    monkeypatch.undo()
    # Equal x: the x-spread rounds to +4.4e-16, so only the pivot guard
    # stops a garbage line.
    ds = Dataset(np.full(5, 0.3), np.linspace(0.1, 0.9, 5))
    n, s_x, s_x2 = refined_release(ds, 1, 1.0, ZeroNoiseStream(0, 0))[:3]
    assert s_x2 * n - s_x * s_x > 0
    for d in (1, 3):
        assert refined_fit(ds, d, 1.0, ZeroNoiseStream(0, 0)) is None


def test_added_record_delta_matches_transform(random_dataset):
    # Adding one record shifts each group's sums by exactly that record's
    # contribution, whose l1 norm is 1: the sensitivity argument.
    ds = random_dataset(8, n=50)
    for x, y in ((0.3, 0.9), (0.0, 1.0), (1.0, 0.0)):
        grown = Dataset(np.append(ds.x, x), np.append(ds.y, y))
        for degree in (1, 2):
            contributions = group_contributions(x, y, degree)
            for before, after, delta in zip(exact_group_stats(ds, degree),
                                            exact_group_stats(grown, degree), contributions):
                assert after - before == pytest.approx(delta, abs=1e-12)


def test_sensitivity_exceeds_one_by_less_than_an_ulp():
    # Summed exactly, a record's components can exceed 1, but by less than
    # an ulp of 1 (2^-52); the x-group's worst excess is below half an ulp.
    for degree in (1, 2):
        worst = sensitivity_oracle(degree, 0.01)
        assert len(worst) == 2
        for norm in worst:
            assert isinstance(norm, Fraction)
            assert 1 < norm < 1 + Fraction(1, 2**52)
        assert float(worst[0]) == 1.0
    # The oracle sees an excess that a float sum rounds away: at x = 0.1
    # the x-group components sum to 1 in doubles, but to 1 + 3.3e-17 exactly.
    parts = group_contributions(0.1, 0.5, 1)[0].tolist()
    assert math.fsum(parts) == sum(parts) == 1.0
    assert 1 < sum(map(Fraction, parts)) < 1 + Fraction(1, 2**54)
    # the l1 norm never dips below 1 either: check on an independent grid
    lo = min(
        float(np.abs(vector).sum())
        for x in np.linspace(0.0, 1.0, 21)
        for y in np.linspace(0.0, 1.0, 21)
        for vector in group_contributions(x, y, 1)
    )
    assert lo == pytest.approx(1.0, abs=1e-12)


def test_sensitivity_oracle_validates_step():
    for bad in (0.0, -0.01, 0.2):
        with pytest.raises(ValueError):
            sensitivity_oracle(1, bad)
    for bad in (0, 1.5, "group1"):
        with pytest.raises(ValueError):
            sensitivity_oracle(bad, 0.01)
