"""Release acceptance checks.

Each test covers one numbered release criterion and prints a single
``ACCEPTANCE <n> PASS/FAIL`` line (run pytest with ``-s`` to see the lines
for passing tests too), so the suite output doubles as the release
checklist. Criterion 5 is split into three sub-claims. The third (5c)
checks the refined fit and the median baseline at small budgets against the
mean squared line errors their noise ledgers predict; DECISIONS.md derives
the predictions and explains why 5c keeps its older name.
"""
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import simpson

from dpreg import (
    Bounds,
    Dataset,
    ExperimentGrid,
    FitResult,
    NoiseLedger,
    RandomStream,
    RSS_VARIANCES,
    SS_VARIANCES,
    STATISTIC_ORDER,
    TheilSenHyper,
    denormalize_fit,
    dp_median,
    dp_rss_fit,
    dp_ss_fit,
    dp_theil_sen_fit,
    exact_group_stats,
    generate_setup,
    group_contributions,
    l1_error,
    l2_error,
    median_interval_probs,
    normalize,
    reference_setup,
    run_experiment,
    sensitivity_oracle,
    simulate_stats,
    verify_variances,
)
from dpreg.cli import main as cli_main
from dpreg.mechanisms import MECHANISMS
from dpreg.simplex import LINEAR_COLUMNS

from zero_noise import ZeroNoiseStream


def report(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {description}{suffix}")
    assert passed, f"criterion {number} failed: {description}{suffix}"


def test_criterion_1_variance_table():
    rows = verify_variances(1.0, 1_000_000, RandomStream(0, 0))
    worst = max(r.relative_error for r in rows)
    by_key = {(r.method, r.statistic): r.empirical_var for r in rows}
    ratio_gap = 0.0
    for stat in STATISTIC_ORDER:
        want = SS_VARIANCES[stat] / RSS_VARIANCES[stat]
        got = by_key[("dp_ss", stat)] / by_key[("dp_rss", stat)]
        ratio_gap = max(ratio_gap, abs(got - want) / want)
    report(
        1,
        "released-statistic variances match theory within 2%, "
        "variance ratios within 5%",
        worst <= 0.02 and ratio_gap <= 0.05,
        f"worst variance error {worst:.2%}, worst ratio error {ratio_gap:.2%}",
    )


def test_criterion_2_unit_sensitivity_everywhere():
    pts = np.linspace(0.0, 1.0, 101)
    xg, yg = np.meshgrid(pts, pts, indexing="ij")
    gaps, excess = [], []
    for degree in (1, 2, 3):
        for contribution in group_contributions(xg, yg, degree):
            l1 = np.abs(contribution).sum(axis=-1)
            gaps.append(float(np.abs(l1 - 1.0).max()))
        # Summed exactly, the worst norm may exceed 1, by less than an ulp.
        excess += [abs(norm - 1) for norm in sensitivity_oracle(degree, 0.01)]
    report(
        2,
        "per-record l1 contribution is 1 on a 101x101 grid, both groups at "
        "degrees 1-3: within 1e-12 in floats, and the exact worst norm within 2^-52",
        max(gaps) <= 1e-12 and max(excess) <= Fraction(1, 2**52),
        f"max |l1 - 1| = {max(gaps):.2e}, worst exact |l1 - 1| = {float(max(excess)):.3g}",
    )


def test_criterion_3_zero_noise_equals_least_squares():
    worst = 0.0
    ds = Dataset(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.45, 0.7]))
    exact = dp_rss_fit(ds, 1.0, ZeroNoiseStream(0, 0))
    worst = max(worst, abs(exact.alpha_hat - 0.5), abs(exact.beta_hat - 0.2))
    for seed in range(100):
        g = RandomStream(seed, 7)
        x = g.uniform(80)
        y = np.clip(0.4 * x + 0.3 + 0.08 * g.normal(80), 0.0, 1.0)
        data = Dataset(x, y)
        design = np.column_stack([x, np.ones(80)])
        a, b = np.linalg.lstsq(design, y, rcond=None)[0]
        for fit in (dp_rss_fit(data, 1.0, ZeroNoiseStream(0, 0)),
                    dp_ss_fit(data, 1.0, ZeroNoiseStream(0, 0))):
            worst = max(worst, abs(fit.alpha_hat - a), abs(fit.beta_hat - b))
    report(
        3,
        "with noise switched off both sufficient-statistics fits equal "
        "ordinary least squares on 100 random datasets",
        worst <= 1e-10,
        f"worst coefficient gap {worst:.2e}",
    )


def test_criterion_4_released_statistics_are_unbiased():
    ds = Dataset(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.45, 0.7]))
    g1, g2 = exact_group_stats(ds)
    exact = {
        "n": 3.0,
        "s_x": 1.5,
        "s_y": 1.35,
        "s_x2": float(np.sum(ds.x**2)),
        "s_xy": float(np.sum(ds.x * ds.y)),
    }
    eps = 0.5
    trials = 100_000
    refined = simulate_stats("dp_rss", ds, eps, trials, RandomStream(4, 0))
    baseline = simulate_stats("dp_ss", ds, eps, trials, RandomStream(4, 1))
    worst_sigmas = 0.0
    for stat in STATISTIC_ORDER:
        for values, theory in ((refined[stat], RSS_VARIANCES[stat]),
                               (baseline[stat], SS_VARIANCES[stat])):
            se = math.sqrt(theory / eps**2 / trials)
            worst_sigmas = max(worst_sigmas, abs(float(values.mean()) - exact[stat]) / se)
    report(
        4,
        "every released statistic is unbiased (100k trials, all means "
        "within 4 standard errors)",
        worst_sigmas <= 4.0,
        f"worst deviation {worst_sigmas:.2f} standard errors",
    )


BENCH_EPSILONS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
BENCH_ITERATIONS = 1000
BENCH_SEEDS = {1: 101, 2: 202}


@pytest.fixture(scope="module")
def benchmark_rows():
    grid = ExperimentGrid(BENCH_EPSILONS, BENCH_ITERATIONS,
                          ("dp_rss", "dp_ss", "dp_theil_sen"))
    tables = {}
    for index, seed in BENCH_SEEDS.items():
        rows = run_experiment(reference_setup(index, seed=seed), grid)
        tables[index] = {(r.method, r.epsilon): r for r in rows}
    return tables


def test_criterion_5a_error_shrinks_with_budget(benchmark_rows):
    worst = 0.0
    for table in benchmark_rows.values():
        for method in ("dp_rss", "dp_ss", "dp_theil_sen"):
            for lo, hi in zip(BENCH_EPSILONS, BENCH_EPSILONS[1:]):
                a, b = table[(method, lo)], table[(method, hi)]
                slack = 2.0 * math.sqrt(
                    (a.std_l1**2 + b.std_l1**2) / BENCH_ITERATIONS)
                worst = max(worst, (b.mean_l1 - a.mean_l1) / slack)
    report(
        "5a",
        "mean error decreases as the budget grows (both setups, every "
        "method, successive budgets, two-standard-error slack)",
        worst <= 1.0,
        f"worst increase {worst:.2f}x the allowed slack",
    )


def test_criterion_5b_refined_fit_beats_plain_sums(benchmark_rows):
    margins = []
    for table in benchmark_rows.values():
        for eps in BENCH_EPSILONS:
            margins.append(table[("dp_ss", eps)].mean_l2
                           / table[("dp_rss", eps)].mean_l2)
    report(
        "5b",
        "the refined fit has lower mean squared line error than the "
        "plain-sums fit at every budget in both setups",
        min(margins) > 1.0,
        f"smallest advantage {min(margins):.2f}x",
    )


# Check 5c compares the refined fit with the median baseline at small
# budgets. It holds each method's mean squared line error to a prediction
# built from the budgets in its NoiseLedger and from the noise laws written
# down here, not read off the sweep; l1 has no such prediction and is only
# reported. The derivation and the measured-vs-predicted table are in
# DECISIONS.md (D1). The test keeps its old name, from a claim that the
# refined fit halves the median baseline's error: no source backs that claim
# and a faithful program cannot meet it, but the name keeps the check
# traceable across the suite's history.
SMALL_EPSILONS = (0.1, 0.25, 0.5)
PREDICTION_MATCHINGS = 200
# Substream for the ledger probes and the prediction's matchings. The sweep
# uses 0 for data and 1..BENCH_ITERATIONS for iterations, never this one.
PREDICTION_STREAM = 1_000_000
# Each cell's |measured - predicted| must stay within this many combined
# standard errors. Twelve correlated cells, a right-skewed l2 (a sample that
# misses the rare large errors has both a low mean and a low standard error)
# and the refined fit's delta-method remainder (0.6 SE at most) put a correct
# program past 3 SE in 2 of 44 seed pairs other than the committed ones, with
# a worst |z| of 3.59 (tests/seed_pair_study.py reruns them); programs whose
# noise disagrees with their ledger reach 10.9 to 21. See DECISIONS.md (D1).
Z_BOUND = 4.0
# l2 of a gap line A x + B is d^T M d with d = (A, B).
L2_FORM = np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])


def _ledger_events(fitter, data, eps):
    ledger = NoiseLedger()
    fitter(data, eps, RandomStream(0, PREDICTION_STREAM), ledger=ledger)
    return {e.label: e for e in ledger.events}


def _predicted_rss_l2(data, truth, eps):
    """Delta-method E[l2] of dp_rss from the Laplace scales in its ledger.

    Noise vector z = six group components, x-group then xy-group, with
    variance 2 b^2 at each group's ledger scale b. The statistics are z read
    by the record's reading matrix R, so their covariance is
    R^T diag(var z) R.
    """
    events = _ledger_events(dp_rss_fit, data, eps)
    b1, b2 = events["x-group sums"].scale, events["xy-group sums"].scale
    noise_var = np.array([2.0 * b1 * b1] * 3 + [2.0 * b2 * b2] * 3)
    order = [LINEAR_COLUMNS[stat] for stat in ("n", "s_x", "s_y", "s_x2", "s_xy")]
    reading = MECHANISMS["dp_rss"].reading(1)[:, order]
    cov = reading.T @ np.diag(noise_var) @ reading
    x, y = data.x, data.y
    n, sx, sy = float(len(x)), math.fsum(x), math.fsum(y)
    sx2, sxy = math.fsum(x * x), math.fsum(x * y)
    det = n * sx2 - sx * sx
    alpha = (n * sxy - sx * sy) / det
    beta = (sx2 * sy - sx * sxy) / det
    # gradients over (n, s_x, s_y, s_x2, s_xy)
    d_det = np.array([sx2, -2.0 * sx, 0.0, n, 0.0])
    d_num_a = np.array([sxy, -sy, -sx, 0.0, n])
    d_num_b = np.array([0.0, -sxy, sx2, sy, -sx])
    jac = np.array([d_num_a - alpha * d_det, d_num_b - beta * d_det]) / det
    noise_l2 = float(np.trace(L2_FORM @ jac @ cov @ jac.T))
    return l2_error(truth, (alpha, beta)) + noise_l2, 0.0


def _matching_projections(data, stream):
    """One random matching's pair lines evaluated at x = 0.25 and 0.75."""
    perm = stream.permutation(len(data.x))
    i, j = perm[0:len(perm) - 1:2], perm[1::2]
    x0, x1, y0, y1 = data.x[i], data.x[j], data.y[i], data.y[j]
    keep = x0 != x1
    x0, x1, y0, y1 = x0[keep], x1[keep], y0[keep], y1[keep]
    slope = (y1 - y0) / (x1 - x0)
    return y0 + slope * (0.25 - x0), y0 + slope * (0.75 - x0)


def _release_moments(values, eps, clip):
    # the release is uniform on the chosen interval: mixture mean, variance
    edges, probs = median_interval_probs(values, eps, *clip)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    mean = float(probs @ mid)
    return mean, float(probs @ ((mid - mean) ** 2 + (hi - lo) ** 2 / 12.0))


def _predicted_theil_sen_l2(data, truth, eps, matchings):
    """E[l2] of dp_theil_sen from exact percentile-release moments.

    Given a matching, P25 and P75 are independent releases with exact mean
    and variance from ``median_interval_probs`` at the ledger's per-median
    epsilon; the fitted line is P25 (1.5 - 2x) + P75 (2x - 0.5), and both
    weights integrate in square to 7/12 over [0, 1]. Averaged over the
    sampled matchings; the standard error is over matchings.
    """
    events = _ledger_events(dp_theil_sen_fit, data, eps)
    hyper = TheilSenHyper()
    clip = (hyper.r_lo, hyper.r_hi)
    per_matching = []
    for z25, z75 in matchings:
        m25, v25 = _release_moments(z25, events["25th-percentile median"].epsilon, clip)
        m75, v75 = _release_moments(z75, events["75th-percentile median"].epsilon, clip)
        line = (2.0 * (m75 - m25), 1.5 * m25 - 0.5 * m75)
        per_matching.append(l2_error(truth, line) + 7.0 / 12.0 * (v25 + v75))
    per_matching = np.array(per_matching)
    se = per_matching.std(ddof=1) / math.sqrt(per_matching.size)
    return float(per_matching.mean()), float(se)


def criterion_5c_cells(tables, seeds, iterations):
    """Measured vs predicted mean l2 at every (setup, small eps).

    Returns ``(setup, eps, {method: (row, predicted, z)})`` tuples, where z
    is the gap in combined standard errors of the sweep and the prediction.
    """
    cells = []
    for index, seed in seeds.items():
        setup = reference_setup(index, seed=seed)
        data = generate_setup(setup)
        truth = (setup.alpha, setup.beta)
        stream = RandomStream(seed, PREDICTION_STREAM)
        matchings = [_matching_projections(data, stream) for _ in range(PREDICTION_MATCHINGS)]
        for eps in SMALL_EPSILONS:
            predictions = {
                "dp_rss": _predicted_rss_l2(data, truth, eps),
                "dp_theil_sen": _predicted_theil_sen_l2(data, truth, eps, matchings),
            }
            by_method = {}
            for method, (predicted, se_pred) in predictions.items():
                row = tables[index][(method, eps)]
                se_mc = row.std_l2 / math.sqrt(iterations)
                z = (row.mean_l2 - predicted) / math.hypot(se_mc, se_pred)
                by_method[method] = (row, predicted, z)
            cells.append((index, eps, by_method))
    return cells


def test_criterion_5c_refined_fit_halves_median_fit_error(benchmark_rows):
    cells = criterion_5c_cells(benchmark_rows, BENCH_SEEDS, BENCH_ITERATIONS)
    parts = []
    for setup, eps, by_method in cells:
        (rss, rss_pred, _), (ts, ts_pred, _) = by_method["dp_rss"], by_method["dp_theil_sen"]
        parts.append(
            f"s{setup} eps={eps}: l2 ratio {ts.mean_l2 / rss.mean_l2:.3f} "
            f"(pred {ts_pred / rss_pred:.3f}), l1 ratio {ts.mean_l1 / rss.mean_l1:.3f}"
        )
    worst = max(abs(z) for *_, by_method in cells for _, _, z in by_method.values())
    report(
        "5c",
        "at small budgets the refined fit's and the median baseline's mean "
        "squared line errors each match the prediction from their ledgers "
        f"(within {Z_BOUND:g} standard errors); Theil-Sen/refined ratios",
        worst <= Z_BOUND,
        "; ".join(parts) + f"; worst |z| {worst:.2f}",
    )


def test_criterion_6_line_error_metrics_match_quadrature():
    worst_l2 = 0.0
    xs = np.linspace(0.0, 1.0, 2001)
    g = RandomStream(6, 0)
    for _ in range(1000):
        a, b = 4.0 * g.uniform(2) - 2.0
        oracle = float(simpson((a * xs + b) ** 2, x=xs))
        worst_l2 = max(worst_l2, abs(l2_error((0.0, 0.0), (a, b)) - oracle))
    l1_gap = abs(l1_error((0.0, 0.0), (1.0, 0.0)) - 0.5005)
    dense = np.linspace(0.0, 1.0, 1_000_001)
    worst_l1 = 0.0
    for _ in range(50):
        a, b = 4.0 * g.uniform(2) - 2.0
        approx = float(np.mean(np.abs(a * dense + b)))
        worst_l1 = max(worst_l1, abs(l1_error((0.0, 0.0), (a, b)) - approx))
    report(
        6,
        "squared line error matches quadrature to 1e-9 on 1000 random "
        "lines; absolute line error matches its worked value and a dense "
        "average",
        worst_l2 <= 1e-9 and l1_gap <= 1e-12 and worst_l1 <= 1e-3,
        f"worst l2 gap {worst_l2:.1e}, worst l1 gap {worst_l1:.1e}",
    )


def _enumerated_probs(values, eps, lo, hi):
    # independent direct-exponentiation enumeration (duplicated from the
    # median unit tests on purpose: this module must stand alone)
    clipped = sorted(min(max(float(v), lo), hi) for v in values)
    edges = [lo] + clipped + [hi]
    m = len(clipped)
    weights = []
    for i in range(m + 1):
        length = edges[i + 1] - edges[i]
        weights.append(length * math.exp(eps * -abs(i - m / 2.0) / 2.0))
    total = sum(weights)
    return [w / total for w in weights]


def test_criterion_7_private_median_distribution():
    g = RandomStream(7, 0)
    worst = 0.0
    for size in range(1, 7):
        for eps in (0.1, 1.0, 10.0):
            values = (4.0 * g.uniform(size) - 2.0).tolist()
            _, probs = median_interval_probs(values, eps, -2.0, 2.0)
            expected = _enumerated_probs(values, eps, -2.0, 2.0)
            worst = max(worst, float(np.abs(probs - np.array(expected)).max()))
    s = RandomStream(7, 1)
    in_range = all(
        -2.0 <= dp_median([0.3, -0.8, 1.1], 1.0, -2.0, 2.0, s) <= 2.0
        for _ in range(500)
    )
    report(
        7,
        "private-median interval probabilities match direct enumeration "
        "(sizes 1-6) and samples stay inside the clipping range",
        worst <= 1e-12 and in_range,
        f"worst probability gap {worst:.1e}",
    )


def test_criterion_8_rescaling_round_trip():
    worst = 0.0
    g = RandomStream(8, 0)
    for _ in range(100):
        u = g.uniform(6)
        bounds = Bounds(
            float(-5.0 + 4.0 * u[0]), float(0.5 + 5.0 * u[1]),
            float(-20.0 + 10.0 * u[2]), float(1.0 + 30.0 * u[3]),
        )
        n = 60
        raw_x = bounds.x_min + bounds.x_span * g.uniform(n)
        raw_y = bounds.y_min + bounds.y_span * np.clip(
            0.5 * (raw_x - bounds.x_min) / bounds.x_span + 0.2
            + 0.05 * g.normal(n), 0.0, 1.0)
        ds = normalize(list(zip(raw_x, raw_y)), bounds)
        fit = denormalize_fit(dp_rss_fit(ds, 1.0, ZeroNoiseStream(0, 0)), bounds)
        design = np.column_stack([raw_x, np.ones(n)])
        a, b = np.linalg.lstsq(design, raw_y, rcond=None)[0]
        scale = max(1.0, abs(a), abs(b))
        worst = max(worst, abs(fit.alpha_hat - a) / scale,
                    abs(fit.beta_hat - b) / scale)
    example = denormalize_fit(FitResult((0.5, 0.2)), Bounds(0.0, 10.0, 0.0, 100.0))
    example_ok = (abs(example.alpha_hat - 5.0) <= 1e-12
                  and abs(example.beta_hat - 20.0) <= 1e-12)
    report(
        8,
        "normalize, fit noise-free, denormalize reproduces raw-scale "
        "least squares on 100 random bounded datasets",
        worst <= 1e-9 and example_ok,
        f"worst relative coefficient gap {worst:.1e}",
    )


def test_criterion_9_cli_runs_are_reproducible(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    data = tmp_path / "data.csv"
    data.write_text("x,y\n0,0.2\n0.5,0.45\n1,0.7\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 40, "alpha": 0.5, "beta": 0.2, "sigma": 0.05, "seed": 3,
        "epsilons": [0.5, 1.0], "iterations": 2,
        "methods": ["dp_rss", "dp_ss", "dp_theil_sen"],
    }))
    results = tmp_path / "results.csv"
    variances = tmp_path / "variances.csv"

    def snapshot():
        assert cli_main(["fit", str(data), "--epsilon", "0.5", "--seed", "9"]) == 0
        fit_out = capsys.readouterr().out
        assert cli_main(["experiment", str(config), "--output", str(results)]) == 0
        assert cli_main(["verify", "--epsilon", "1.0", "--trials", "100000",
                         "--output", str(variances)]) == 0
        capsys.readouterr()
        return (
            fit_out,
            results.read_bytes(),
            (tmp_path / "results.csv.manifest.json").read_bytes(),
            variances.read_bytes(),
            (tmp_path / "variances.csv.manifest.json").read_bytes(),
        )

    first = snapshot()
    second = snapshot()
    report(
        9,
        "rerunning each CLI subcommand with the same flags reproduces "
        "every output byte for byte",
        first == second,
    )
