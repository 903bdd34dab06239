"""Self-test of the benchmark: every gate can fail, and the current code passes.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dpreg  # noqa: E402
import dpreg.cli  # noqa: E402
from dpreg import NoiseLedger, RandomStream  # noqa: E402

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2)


def small_fit_csv(tmp_path, seed, rows=100_000):
    xi, yi = workloads.fit_data(seed, rows)
    path = tmp_path / f"data-{seed}.csv"
    workloads.write_csv(path, xi, yi)
    return path, xi / workloads.SCALE, yi / workloads.SCALE


def dpreg_fit(capsys, path, seed, flags):
    code = dpreg.cli.main(["fit", str(path), "--epsilon", "1.0", "--seed", str(seed), *flags])
    assert code == 0
    return json.loads(capsys.readouterr().out)


# -- fit gates --------------------------------------------------------------------

def test_csv_text_parses_to_the_generated_values(tmp_path):
    path, x, y = small_fit_csv(tmp_path, 5, rows=1000)
    pairs = dpreg.cli._read_xy_csv(str(path))
    assert np.array_equal(np.array(pairs), np.column_stack([x, y]))
    assert x.min() >= 0.0 and y.max() <= 1.0


@pytest.mark.parametrize("seed", SEEDS)
def test_fit_gates_accept_current_code(tmp_path, capsys, seed):
    path, x, y = small_fit_csv(tmp_path, seed)
    line = gates.ols_line(x, y)
    for lane, flags in workloads.FIT_LANES.items():
        out = dpreg_fit(capsys, path, seed, flags)
        if lane == "dp_rss_poly":
            assert gates.check_poly_fit(out, np.polyfit(x, y, 3)) == []
        else:
            tol = gates.RSS_TOL if lane == "dp_rss" else gates.THEIL_SEN_TOL
            assert gates.check_line_fit(out, line, tol) == []


def test_fit_gates_reject_wrong_fits(tmp_path, capsys):
    path, x, y = small_fit_csv(tmp_path, 7)
    line = gates.ols_line(x, y)
    out = dpreg_fit(capsys, path, 7, workloads.FIT_LANES["dp_rss"])
    swapped = dict(out, alpha_hat=out["beta_hat"], beta_hat=out["alpha_hat"])
    assert gates.check_line_fit(swapped, line, gates.RSS_TOL)
    assert gates.check_line_fit(dict(out, fallback=True), line, gates.RSS_TOL)
    assert gates.check_line_fit(dict(out, alpha_hat=None), line, gates.RSS_TOL)
    shifted = dict(out, beta_hat=out["beta_hat"] + 2 * gates.THEIL_SEN_TOL)
    assert gates.check_line_fit(shifted, line, gates.THEIL_SEN_TOL)

    poly = np.polyfit(x, y, 3)
    out = dpreg_fit(capsys, path, 7, workloads.FIT_LANES["dp_rss_poly"])
    assert gates.check_poly_fit(dict(out, coeffs=out["coeffs"][::-1]), poly)
    assert gates.check_poly_fit(dict(out, coeffs=out["coeffs"][1:]), poly)
    assert gates.check_poly_fit(dict(out, fallback=True), poly)


# -- sweep gates ------------------------------------------------------------------

def sweep_rows(seed, methods=workloads.SWEEP_METHODS, iterations=30):
    ev = dpreg.evaluate
    grid = ev.ExperimentGrid(workloads.EPSILONS, iterations, methods)
    return workloads._rows(ev.run_experiment(ev.reference_setup(1, seed), grid))


@pytest.mark.parametrize("seed", SEEDS)
def test_sweep_gates_accept_current_code(seed):
    rows = sweep_rows(seed)
    assert gates.check_sweep_rows(rows, workloads.SWEEP_METHODS, workloads.EPSILONS) == []
    assert gates.check_same_rows(rows, sweep_rows(seed)) == []


def test_sweep_gates_reject_wrong_rows():
    rows = sweep_rows(3, ("dp_rss",))
    ok = gates.check_sweep_rows
    assert ok(rows[1:], ("dp_rss",), workloads.EPSILONS)  # a cell is missing
    assert ok(rows + rows[:1], ("dp_rss",), workloads.EPSILONS)  # a cell twice
    bad = [dict(r, std_l2=float("nan")) if r["epsilon"] == 0.5 else r for r in rows]
    assert ok(bad, ("dp_rss",), workloads.EPSILONS)
    bad = [dict(r, mean_l1=0.3) if r["epsilon"] == 1.0 else r for r in rows]
    assert ok(bad, ("dp_rss",), workloads.EPSILONS)
    # A wrong fitter, one that swaps the coefficients, fails the error bound.
    mech = dpreg.mechanisms

    def swapped_fit(data, budget, stream, ledger=None):
        fit = mech.dp_rss_fit(data, budget, stream, ledger)
        return mech.FitResult(fit.beta_hat, fit.alpha_hat)

    saved = dpreg.evaluate._FITTERS["dp_rss"]
    dpreg.evaluate._FITTERS["dp_rss"] = swapped_fit
    try:
        wrong = sweep_rows(3, ("dp_rss",))
    finally:
        dpreg.evaluate._FITTERS["dp_rss"] = saved
    assert ok(wrong, ("dp_rss",), workloads.EPSILONS)
    assert gates.check_same_rows(rows, wrong)


# -- variance gate ----------------------------------------------------------------

def test_trial_count_gives_eight_standard_errors():
    assert workloads.VERIFY_TRIALS >= gates.variance_trials_needed()
    # 2% is 8 standard errors of a Laplace variance estimate at 800 000 trials.
    assert gates.variance_trials_needed() == 800_000


@pytest.mark.parametrize("seed", SEEDS)
def test_variance_gate_accepts_current_code(seed):
    _, rows = workloads.verify_lane(dpreg, seed, 0)
    assert gates.check_variance_rows(rows, workloads.VERIFY_TRIALS, run.STATISTICS) == []


def test_variance_gate_rejects_wrong_rows():
    _, rows = workloads.verify_lane(dpreg, 4, 0)
    check = gates.check_variance_rows
    assert check(rows, 100_000, run.STATISTICS)  # too few trials to resolve 2%
    assert check(rows[:-1], workloads.VERIFY_TRIALS, run.STATISTICS)
    off = [dict(r, relative_error=0.03) if r["statistic"] == "s_xy" else r for r in rows]
    assert check(off, workloads.VERIFY_TRIALS, run.STATISTICS)
    # Noise at the wrong scale (a sampler off by 5%) shows up as a variance error.
    ds = workloads.ledger_datasets(dpreg, "verify_bulk", 0)[0]
    stream = RandomStream(4, 1)
    ref = dpreg.evaluate.simulate_refined_stats(ds, 1.0 / 1.05, workloads.VERIFY_TRIALS, stream)
    emp = float(np.var(ref.s_x, ddof=1))
    theory = dpreg.evaluate.RSS_VARIANCES["s_x"]
    wrong = [dict(r, relative_error=abs(emp - theory) / theory)
             if (r["statistic"], r["method"]) == ("s_x", "dp_rss") else r for r in rows]
    assert check(wrong, workloads.VERIFY_TRIALS, run.STATISTICS)


# -- ledger gate ------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ledger_gate_accepts_current_code(workload):
    fit_xy = workloads.fit_data(0, 10_000) if workload == "fit_csv_1m" else None
    tally = run.Tally()
    run.ledger_gate(dpreg, workload, 0, fit_xy, tally)
    assert tally.problems == []
    assert tally.attempted >= 2 * len(workloads.LEDGER_EPSILONS)


def test_ledger_gate_rejects_wrong_ledgers():
    ds = workloads.ledger_datasets(dpreg, "mc_sweep", 0)[0]
    ledger = NoiseLedger()
    dpreg.mechanisms.dp_rss_fit(ds, 1.0, RandomStream(0, 1), ledger=ledger)
    assert gates.check_ledger(ledger, 1.0) == []
    short = NoiseLedger(ledger.events[:1])  # one group left out: epsilon/2 short
    assert gates.check_ledger(short, 1.0)
    zero = NoiseLedger(ledger.events + [dpreg.noise.NoiseEvent("free", 0.0)])
    assert gates.check_ledger(zero, 1.0)
    assert gates.check_ledger(NoiseLedger(), 1.0)
    over = NoiseLedger([dpreg.noise.NoiseEvent("a", 0.5), dpreg.noise.NoiseEvent("b", 0.5 + 1e-9)])
    assert gates.check_ledger(over, 1.0)


# -- failure accounting -----------------------------------------------------------

def test_exceptions_count_as_failed_operations():
    def boom(r):
        raise RuntimeError("broken lane")

    lanes = workloads.lanes(dpreg, "mc_fresh_small", 0)[:1] + [("dp_ss", boom)]
    rounds = workloads.run_rounds(lanes, 0.0)
    assert len(rounds) == 1 and "error" in rounds[0]["lanes"][1]
    tally = run.Tally()
    run.gate_in_process_rounds("mc_fresh_small", rounds, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "broken lane" in tally.problems[0]


# -- tracing ----------------------------------------------------------------------

def test_tracer_wraps_every_caller_and_restores():
    ev, mech = dpreg.evaluate, dpreg.mechanisms
    originals = (mech.dp_rss_fit, ev._FITTERS["dp_rss"], dpreg.cli._LINEAR_FITTERS["dp_rss"],
                 dpreg.RandomStream.__init__, dpreg.Dataset.__dict__["from_records"])
    tracer = tracing.Tracer().install_all()
    try:
        assert tracer.absent == []
        assert ev._FITTERS["dp_rss"] is not originals[1]
        assert dpreg.cli._LINEAR_FITTERS["dp_rss"] is mech.dp_rss_fit
        grid = ev.ExperimentGrid((1.0,), 3, ("dp_rss",))
        ev.run_experiment(ev.reference_setup(1, 0), grid)
    finally:
        tracer.restore()
    assert (mech.dp_rss_fit, ev._FITTERS["dp_rss"], dpreg.cli._LINEAR_FITTERS["dp_rss"],
            dpreg.RandomStream.__init__, dpreg.Dataset.__dict__["from_records"]) == originals
    summary = tracer.summary()
    assert summary["stats"]["mechanisms.dp_rss_fit"]["calls"] == 3
    assert summary["stats"]["simplex.exact_group_stats"]["calls"] == 3
    assert summary["counts"]["simplex.exact_group_stats.distinct"] == 1
    assert summary["counts"]["simplex.exact_group_stats.rows"] == 5000
    spans = tracer.span_records()
    by_id = {s[5]: s for s in spans}
    for name, start, end, parent, _, _ in spans:
        assert start <= end
        if name == "simplex.refine":
            assert by_id[parent][0] == "mechanisms.dp_rss_fit"
    root = [s for s in spans if s[3] == -1]
    assert [s[0] for s in root] == ["evaluate.run_experiment"]
    stats = summary["stats"]["evaluate.run_experiment"]
    assert 0 < stats["self_s"] < stats["s"]


def test_tracer_reports_missing_names_as_absent():
    tracer = tracing.Tracer().install_all({"simplex.no_such_function": None,
                                           "nomodule.f": None,
                                           "noise.RandomStream.no_such_method": None,
                                           "simplex.refine": None})
    tracer.restore()
    assert tracer.absent == ["simplex.no_such_function", "nomodule.f",
                             "noise.RandomStream.no_such_method"]
    metrics, absent = run.per_layer_metrics(
        {"rounds": [{"wall_s": 1.0}], "traced_rounds": [{"wall_s": 1.0}],
         "trace": tracer.summary()})
    assert set(metrics) == set(run.PER_LAYER)
    assert absent == tracer.absent


# -- benchmark definition ---------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
