import math
from fractions import Fraction

import numpy as np
import pytest

from dpreg import (
    RSS_VARIANCES,
    SS_VARIANCES,
    Dataset,
    NoiseLedger,
    RandomStream,
    dp_rss_fit,
    dp_rss_poly_fit,
    dp_ss_fit,
    exact_group_stats,
    group_contributions,
    sensitivity_oracle,
)
from dpreg.mechanisms import MECHANISMS
from dpreg.simplex import (
    _MAX_DEGREE,
    LINEAR_COLUMNS,
    _cell_sums,
    _laplace_draw,
    _solve_refined,
    _solve_systems,
    _ss_rows,
    transfer_matrix,
)

from zero_noise import ZeroNoiseStream

RSS, SS = MECHANISMS["dp_rss"], MECHANISMS["dp_ss"]


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
        got = _laplace_draw(RSS, [[(ds, RandomStream(6, 0))]], (0.5,), degree)[0]
        ref = RandomStream(6, 0)
        z1 = ref.laplace(4.0, 2 * degree + 1)
        z2 = ref.laplace(4.0, degree + 2)
        g1, g2 = exact_group_stats(ds, degree)
        want = np.concatenate([g1 + z1, g2 + z2]) @ transfer_matrix(degree)
        assert np.array_equal(got, want)
    # dp_ss draws its eight cells at scale 4/eps and exists at degree 1 only.
    got = _laplace_draw(SS, [[(ds, RandomStream(6, 0))]], (0.5,))[0]
    sums = _cell_sums([ds], _ss_rows, 1, 8)[0] + RandomStream(6, 0).laplace(8.0, 8)
    assert np.array_equal(got, sums @ SS.reading(1))
    for degree in (2, 3):
        with pytest.raises(ValueError, match="dp_ss releases a line only"):
            _laplace_draw(SS, [[(ds, RandomStream(6, 0))]], (0.5,), degree)


def test_pair_major_draw_equals_one_pair_draws_bitwise(random_dataset):
    # A draw over N (data, stream) pairs returns, pair-major, the rows that
    # each pair draws alone, and each row is the per-row product z @ matrix
    # of the noisy sums at its budget's scale, bit for bit; its streams mix
    # RandomStream and ZeroNoiseStream, its datasets differ in size.
    datasets = [random_dataset(1, n=40), random_dataset(2, n=3),
                Dataset(np.array([]), np.array([])), random_dataset(3, n=200)]
    budgets = (0.05, 0.5, 2.0)

    def pairs():
        return [(ds, make(seed, 1)) for seed, (ds, make) in
                enumerate(zip(datasets * 2, [RandomStream, ZeroNoiseStream, RandomStream] * 3))]

    for name, degrees in (("dp_rss", (1, 2, 3)), ("dp_ss", (1,))):
        release = MECHANISMS[name]
        for d in degrees:
            matrix = release.reading(d)
            got = _laplace_draw(release, [pairs()], budgets, d)
            assert got.shape == (len(pairs()) * len(budgets), matrix.shape[1])
            alone = [_laplace_draw(release, [[pair]], budgets, d) for pair in pairs()]
            assert got.tobytes() == np.concatenate(alone).tobytes(), (name, d)
            scales = np.array([release.share / eps for eps in budgets])
            rows = [z @ matrix for ds, stream in pairs()
                    for z in np.multiply.outer(scales, stream.laplace(1.0, len(matrix)))
                    + _cell_sums([ds], release.rows, d, len(matrix))[0]]
            assert got.tobytes() == np.array(rows).tobytes(), (name, d)


def test_stacked_one_row_products_equal_per_row_products():
    # The draw reads all its rows with (Z[:, None, :] @ M)[:, 0], which
    # numpy runs as one per-row product each, z @ M; a plain Z @ M can sum
    # in another order. Pinned here, so a numpy that changes it fails.
    g = RandomStream(17, 0)
    matrices = [transfer_matrix(d) for d in (1, 2, 3)] + [SS.reading(1)]
    for matrix in matrices:
        for n in (1, 2, 7, 64, 300, 1400):
            z = (g.uniform((n, len(matrix))) - 0.5) * 10.0 ** g.uniform((n, 1)) * 1e3
            want = np.array([row @ matrix for row in z])
            assert (z[:, None, :] @ matrix)[:, 0].tobytes() == want.tobytes(), (matrix.shape, n)


def test_privatize_zero_noise_is_identity(random_dataset):
    ds = random_dataset(2)
    got = _laplace_draw(RSS, [[(ds, ZeroNoiseStream(0, 0))]], (0.5,))[0]
    assert np.array_equal(got, np.concatenate(exact_group_stats(ds)) @ transfer_matrix(1))


def test_privatize_rejects_nonpositive_budget(random_dataset):
    ds = random_dataset(0, n=10)
    for bad in (0.0, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _laplace_draw(RSS, [[(ds, RandomStream(0, 0))]], (bad,))
        with pytest.raises(ValueError):
            dp_rss_poly_fit(ds, 2, bad, RandomStream(0, 0))


def test_refine_zero_noise_recovers_exact_sums(random_dataset):
    ds = random_dataset(4, n=200)
    n_hat, s_x, s_x2, s_y, s_xy = _laplace_draw(RSS, [[(ds, ZeroNoiseStream(0, 0))]], (0.5,))[0]
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
        dp_rss_poly_fit(random_dataset(1, n=30), degree, 0.8, RandomStream(0, 0), ledger)
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


def _two_readings_transfer(d):
    """The refined reading as the paper states it: per statistic, a direct and a
    complement reading of the noisy sums, weighted by the other's term count."""
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
    return np.column_stack(columns)


def test_closed_form_transfer_matrix_equals_two_readings_bytewise():
    # The closed form, (K - m)/K, -m/K and m/K per column, is the
    # inverse-variance average of the two readings, sign bits included, at
    # every degree a release takes.
    for d in range(1, _MAX_DEGREE + 1):
        got = transfer_matrix(d)
        assert got.dtype == np.float64 and got.shape == (3 * d + 3, 3 * d + 2)
        assert got.tobytes() == _two_readings_transfer(d).tobytes(), d
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 0.0


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
    # At epsilon = 1 each cell of a Laplace release with share s carries
    # Laplace(s) noise, variance 2 s^2 (8 for dp_rss, 32 for dp_ss), so the
    # variances of its statistics are the diagonal of R^T (2 s^2 I) R for
    # its reading matrix R: no sampling.
    variances = {"dp_rss": RSS_VARIANCES, "dp_ss": SS_VARIANCES}
    for name in variances:
        release = MECHANISMS[name]
        r = release.reading(1)
        got = np.diag(r.T @ (2.0 * release.share ** 2 * np.eye(len(r))) @ r)
        for stat, k in LINEAR_COLUMNS.items():
            assert got[k] == pytest.approx(variances[name][stat], rel=1e-15), (name, stat)
    # At every degree a statistic's two readings split the 3d + 3 noisy
    # sums between them, m terms and 3d + 3 - m, and inverse-variance
    # weights give the harmonic combination 8 m (3d + 3 - m) / (3d + 3).
    for d in (1, 2, 3, 4):
        direct_terms = ([2 * d + 1] + [2 * d - l + 1 for l in range(1, 2 * d + 1)]
                        + [d - l + 1 for l in range(d + 1)])
        want = [8.0 * m * (3 * d + 3 - m) / (3 * d + 3) for m in direct_terms]
        t = transfer_matrix(d)
        assert 8.0 * (t * t).sum(axis=0) == pytest.approx(want, rel=1e-14)


def test_one_fallback_rule_for_every_degree():
    # Fallback on a non-positive size, a non-positive x-spread
    # n S_{x^2} - S_x^2, or a singular system, whatever the degree.
    x = np.linspace(0.0, 1.0, 40)
    y = 0.2 + 0.3 * x
    for d in (1, 3):
        good = [math.fsum(x ** p) for p in range(2 * d + 1)]
        good += [math.fsum(x ** p * y) for p in range(d + 1)]

        def fit(stats):
            coeffs, fallback = _solve_refined(np.array([stats]))
            return None if fallback[0] else coeffs[0].tolist()

        coeffs = fit(good)
        assert coeffs[-2:] == pytest.approx([0.3, 0.2]) and len(coeffs) == d + 1
        assert fit([-1.0] + good[1:]) is None
        # An x-spread of -n: the elimination alone would still solve it.
        spread = list(good)
        spread[2] = good[1] ** 2 / good[0] - 1.0
        design = [[spread[2 * d - i - j] for j in range(d + 1)] for i in range(d + 1)]
        aug = np.column_stack([design, np.ones(d + 1)])[None]
        _, singular = _solve_systems(aug, np.zeros(1, bool))
        assert not singular[0]
        assert fit(spread) is None
    # Equal x: the x-spread rounds to +4.4e-16, so only the pivot guard
    # stops a garbage line.
    ds = Dataset(np.full(5, 0.3), np.linspace(0.1, 0.9, 5))
    n, s_x, s_x2 = _laplace_draw(RSS, [[(ds, ZeroNoiseStream(0, 0))]], (1.0,))[0, :3]
    assert s_x2 * n - s_x * s_x > 0
    for d in (1, 3):
        assert dp_rss_poly_fit(ds, d, 1.0, ZeroNoiseStream(0, 0)).fallback
    # dp_ss runs the same rule. Three records at x = 0.01 leave it a
    # positive x-spread too; its old covariance-form solve, which had no
    # pivot guard, returned the line 32 x + 0.18 here.
    ds = Dataset(np.full(3, 0.01), np.array([0.1, 0.5, 0.9]))
    n, s_x, s_x2 = _laplace_draw(SS, [[(ds, ZeroNoiseStream(0, 0))]], (1.0,))[0, :3]
    assert s_x2 * n - s_x * s_x > 0
    for fitter in (dp_ss_fit, dp_rss_fit):
        assert fitter(ds, 1.0, ZeroNoiseStream(0, 0)).fallback


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


def test_ss_parts_exceed_one_by_less_than_half_an_ulp():
    # Each of dp_ss's four ledger parts is a pair (s, 1 - s) of cells per
    # record. 1 - s rounds by at most half an ulp of 0.5, so summed exactly
    # the pair's norm stays strictly below 1 + 2^-53; on the 0.005 grid
    # every part reaches 1 + 2^-54 (DECISIONS.md, D6).
    pts = np.linspace(0.0, 1.0, 201)
    xg, yg = (g.ravel() for g in np.meshgrid(pts, pts, indexing="ij"))
    cells = dict(_ss_rows(xg, yg, 1))
    for part in range(4):
        pairs = np.unique(np.abs(np.column_stack([cells[2 * part], cells[2 * part + 1]])), axis=0)
        worst = max(Fraction(s) + Fraction(t) for s, t in pairs.tolist())
        assert 1 < worst < 1 + Fraction(1, 2**53), part


def test_sensitivity_oracle_validates_step():
    for bad in (0.0, -0.01, 0.2):
        with pytest.raises(ValueError):
            sensitivity_oracle(1, bad)
    for bad in (0, 1.5, "group1"):
        with pytest.raises(ValueError):
            sensitivity_oracle(bad, 0.01)
