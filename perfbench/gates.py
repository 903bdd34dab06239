"""Output gates of the benchmark.

Each gate takes what the program produced plus what the benchmark knows
independently, and returns a list of problems; an empty list passes. The
tolerances hold for any correct implementation on any seed, with wide
margins over the worst gaps seen on the current code (given per gate), and
none of them compares methods with each other or pins today's random draws.
"""

from __future__ import annotations

import math

import numpy as np

RSS_TOL = 1e-2  # worst |coef - OLS| seen over 60 seeds: 7e-5
THEIL_SEN_TOL = 5e-2  # worst seen: 1.5e-3
POLY_SUP_TOL = 5e-2  # worst sup-norm gap on the grid seen: 2.3e-3
SWEEP_L1_MAX = 0.1  # worst mean L1 at epsilon >= 1 seen: 0.03
VARIANCE_TOL = 0.02  # relative variance error, as in acceptance check 1
VARIANCE_MIN_SIGMAS = 8.0
# Kurtosis of one Laplace variate, the heaviest-tailed released statistic
# (a dp_ss sum); the sample variance of T draws then has relative standard
# error sqrt((kurtosis - 1) / T).
LAPLACE_KURTOSIS = 6.0
LEDGER_RTOL = 1e-12
POLY_GRID = np.linspace(0.0, 1.0, 1001)


def ols_line(x, y) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y on x."""
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_line_fit(out: dict, ols: tuple[float, float], tol: float) -> list[str]:
    """A ``dpreg fit`` JSON result for a linear mechanism against OLS."""
    problems = []
    if out.get("fallback") is not False:
        problems.append(f"fallback is {out.get('fallback')!r}, want false")
    got = (out.get("alpha_hat"), out.get("beta_hat"))
    if not _finite(got):
        return problems + [f"non-finite coefficients {got!r}"]
    gap = max(abs(got[0] - ols[0]), abs(got[1] - ols[1]))
    if gap > tol:
        problems.append(f"coefficients {got} differ from OLS {ols} by {gap:.3g} > {tol}")
    return problems


def check_poly_fit(out: dict, ols_coeffs, tol: float = POLY_SUP_TOL) -> list[str]:
    """A ``dpreg fit --mechanism dp_rss_poly`` result against the OLS curve."""
    problems = []
    if out.get("fallback") is not False:
        problems.append(f"fallback is {out.get('fallback')!r}, want false")
    coeffs = out.get("coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != len(ols_coeffs) or not _finite(coeffs):
        return problems + [f"coefficients {coeffs!r} are not {len(ols_coeffs)} finite numbers"]
    gap = float(np.max(np.abs(np.polyval(coeffs, POLY_GRID) - np.polyval(ols_coeffs, POLY_GRID))))
    if gap > tol:
        problems.append(f"curve differs from the OLS curve by {gap:.3g} > {tol} in sup norm")
    return problems


_ROW_NUMBERS = ("mean_l1", "std_l1", "mean_l2", "std_l2", "median_l1", "median_l2")


def check_sweep_rows(rows: list[dict], methods, epsilons) -> list[str]:
    """One finite row per (method, epsilon); mean L1 small at epsilon >= 1."""
    problems = []
    cells = {}
    for row in rows:
        key = (row.get("method"), row.get("epsilon"))
        if key in cells:
            problems.append(f"duplicate row {key}")
        cells[key] = row
    for method in methods:
        for eps in epsilons:
            row = cells.get((method, eps))
            if row is None:
                problems.append(f"missing row ({method}, {eps})")
                continue
            values = [row.get(k) for k in _ROW_NUMBERS]
            if not _finite(values):
                problems.append(f"non-finite values in row ({method}, {eps}): {values}")
            elif eps >= 1.0 and row["mean_l1"] > SWEEP_L1_MAX:
                problems.append(
                    f"mean L1 {row['mean_l1']:.4g} > {SWEEP_L1_MAX} in row ({method}, {eps})")
    extra = set(cells) - {(m, e) for m in methods for e in epsilons}
    if extra:
        problems.append(f"unexpected rows {sorted(extra)}")
    return problems


def check_same_rows(first: list[dict], again: list[dict]) -> list[str]:
    """The same seed run twice in one process gives identical rows."""
    if first != again:
        return ["rows differ between two runs of the same seed"]
    return []


def variance_trials_needed(tol: float = VARIANCE_TOL,
                           sigmas: float = VARIANCE_MIN_SIGMAS) -> int:
    """Fewest trials at which ``tol`` is ``sigmas`` standard errors."""
    return math.ceil((LAPLACE_KURTOSIS - 1.0) * (sigmas / tol) ** 2)


def check_variance_rows(rows: list[dict], trials: int, statistics) -> list[str]:
    """Every released statistic's variance within 2% of its closed form."""
    if trials < variance_trials_needed():
        return [f"{trials} trials make the {VARIANCE_TOL:.0%} bound fewer than "
                f"{VARIANCE_MIN_SIGMAS:g} standard errors"]
    problems = []
    seen = {(r.get("statistic"), r.get("method")): r for r in rows}
    for stat in statistics:
        for method in ("dp_rss", "dp_ss"):
            row = seen.get((stat, method))
            if row is None:
                problems.append(f"missing variance row ({stat}, {method})")
                continue
            err = row.get("relative_error")
            if not _finite([err, row.get("empirical_var")]):
                problems.append(f"non-finite variance row ({stat}, {method})")
            elif err > VARIANCE_TOL:
                problems.append(f"variance of ({stat}, {method}) off by {err:.2%}")
    return problems


def check_ledger(ledger, epsilon: float) -> list[str]:
    """Ledger events are all positive and ``total_epsilon()`` is the budget."""
    if not ledger.events:
        return ["ledger recorded no events"]
    problems = [f"event {e.label!r} has epsilon {e.epsilon} <= 0"
                for e in ledger.events if not e.epsilon > 0]
    total = ledger.total_epsilon()
    if not abs(total - epsilon) <= LEDGER_RTOL * epsilon:
        problems.append(f"ledger total {total!r} differs from requested epsilon {epsilon!r}")
    return problems
