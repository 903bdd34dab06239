"""Workload inputs and the operations one round of each workload runs.

Every input derives from the workload seed. A round runs each lane of the
workload once; a lane is one operation on one mechanism (or, for
``verify_bulk``, the variance check) and reports how many units of work it
completed: fits, or privatized trials.

``fit_csv_1m`` runs ``dpreg fit`` as a subprocess, so its lanes live in
``run.py``; this module writes its CSV. The other workloads run in-process
in ``worker.py``. Both use ``run_rounds`` for the timed loop.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
import traceback

import numpy as np

WORKLOADS = ("fit_csv_1m", "mc_sweep", "mc_fresh_small", "verify_bulk")

FIT_ROWS = 1_000_000
FIT_EPSILON = 1.0
FIT_NOISE_SIGMA = 0.05
FIT_POLY_DEGREE = 3
# Lane name -> extra ``dpreg fit`` flags.
FIT_LANES = {
    "dp_rss": ["--mechanism", "dp_rss"],
    "dp_theil_sen": ["--mechanism", "dp_theil_sen"],
    "dp_rss_poly": ["--mechanism", "dp_rss_poly", "--degree", str(FIT_POLY_DEGREE)],
}

EPSILONS = (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
SWEEP_METHODS = ("dp_rss", "dp_ss", "dp_theil_sen")
SWEEP_SETUPS = (1, 2)
SWEEP_ITERATIONS = 100
FRESH_N = 1000
FRESH_ITERATIONS = 50
VERIFY_TRIALS = 1_000_000
VERIFY_EPSILON = 1.0
LEDGER_EPSILONS = (0.1, 0.3, 1.0, 8.0)


def import_dpreg():
    """Import dpreg and every module the benchmark calls into."""
    dpreg = importlib.import_module("dpreg")
    for name in ("cli", "data", "noise", "simplex", "polynomial", "mechanisms", "median",
                 "evaluate"):
        importlib.import_module(f"dpreg.{name}")
    return dpreg


def sizes(workload: str) -> dict:
    """Input sizes recorded beside the results."""
    if workload == "fit_csv_1m":
        return {"rows": FIT_ROWS, "epsilon": FIT_EPSILON, "lanes": list(FIT_LANES)}
    if workload == "mc_sweep":
        return {"setups": list(SWEEP_SETUPS), "n": [5000, 10000], "epsilons": list(EPSILONS),
                "iterations": SWEEP_ITERATIONS, "lanes": list(SWEEP_METHODS)}
    if workload == "mc_fresh_small":
        return {"n": FRESH_N, "epsilons": list(EPSILONS), "iterations": FRESH_ITERATIONS,
                "fresh_data_per_iteration": True, "lanes": list(SWEEP_METHODS)}
    return {"trials": VERIFY_TRIALS, "epsilon": VERIFY_EPSILON, "lanes": ["verify"]}


def run_rounds(lane_fns, seconds: float, first_round: int = 0, tracer=None) -> list[dict]:
    """Run rounds of every lane until the next round would pass ``seconds``.

    At least one round always runs. A lane that raises is recorded with its
    traceback and the round goes on.
    """
    rounds = []
    start = time.perf_counter()
    r = first_round
    while True:
        if tracer is not None:
            tracer.run_id = r
        t0 = time.perf_counter()
        samples = []
        for lane, fn in lane_fns:
            s0 = time.perf_counter()
            try:
                units, payload = fn(r)
            except Exception:  # the benchmark counts it and keeps measuring
                samples.append({"lane": lane, "units": 0, "error": traceback.format_exc(),
                                "wall_s": time.perf_counter() - s0})
                continue
            samples.append({"lane": lane, "units": units, "payload": payload,
                            "wall_s": time.perf_counter() - s0})
        t1 = time.perf_counter()
        rounds.append({"round": r, "wall_s": t1 - t0, "lanes": samples})
        r += 1
        if (t1 - start) + (t1 - t0) > seconds:
            return rounds


# -- fit_csv_1m -------------------------------------------------------------

SCALE = 10**9  # values are written with nine decimals


def fit_data(seed: int, rows: int = FIT_ROWS) -> tuple[np.ndarray, np.ndarray]:
    """A noisy line in the unit square, as integer multiples of 1e-9.

    ``x / 1e9`` is exactly the double that parsing the written text gives,
    so the benchmark's own least-squares fit sees the program's input.
    """
    rng = np.random.default_rng([seed, rows])
    alpha = rng.uniform(-0.5, 0.5)
    beta = 0.5 - 0.5 * alpha + rng.uniform(-0.1, 0.1)
    x = rng.random(rows)
    y = np.clip(alpha * x + beta + FIT_NOISE_SIGMA * rng.standard_normal(rows), 0.0, 1.0)
    return np.rint(x * SCALE).astype(np.int64), np.rint(y * SCALE).astype(np.int64)


def _fixed_point(v: np.ndarray) -> np.ndarray:
    """Text ``D.DDDDDDDDD`` of each value v / 1e9 in [0, 1], as bytes."""
    out = np.empty((v.size, 11), dtype=np.uint8)
    out[:, 0] = ord("0") + v // SCALE
    out[:, 1] = ord(".")
    frac = v % SCALE
    for k in range(9):
        out[:, 2 + k] = ord("0") + (frac // 10 ** (8 - k)) % 10
    return out


def write_csv(path, xi: np.ndarray, yi: np.ndarray) -> None:
    """Write the ``x,y`` CSV that ``dpreg fit`` reads."""
    col = np.empty((xi.size, 1), dtype=np.uint8)
    rows = np.hstack([_fixed_point(xi), np.full_like(col, ord(",")),
                      _fixed_point(yi), np.full_like(col, ord("\n"))])
    with open(path, "wb") as fh:
        fh.write(b"x,y\n")
        fh.write(rows.tobytes())


# -- in-process workloads -----------------------------------------------------

def _rows(rows) -> list[dict]:
    return [dataclasses.asdict(r) for r in rows]


def sweep_lane(dpreg, seed: int, method: str):
    """Acceptance-shape sweep of one method on both reference setups."""
    ev = dpreg.evaluate
    grid = ev.ExperimentGrid(EPSILONS, SWEEP_ITERATIONS, (method,))
    tables = [_rows(ev.run_experiment(ev.reference_setup(index, seed), grid))
              for index in SWEEP_SETUPS]
    return len(SWEEP_SETUPS) * len(EPSILONS) * SWEEP_ITERATIONS, tables


def fresh_lane(dpreg, seed: int, method: str):
    """Fresh-data sweep of one method: a new n=1000 dataset per iteration."""
    ev = dpreg.evaluate
    grid = ev.ExperimentGrid(EPSILONS, FRESH_ITERATIONS, (method,))
    setup = ev.SetupConfig(n=FRESH_N, alpha=-0.7, beta=0.8, sigma=0.05, seed=seed)
    rows = ev.run_experiment(setup, grid, fresh_data_per_iteration=True)
    return len(EPSILONS) * FRESH_ITERATIONS, [_rows(rows)]


def verify_lane(dpreg, seed: int, round_index: int):
    """One bulk variance check on its own substream of the seed."""
    rows = dpreg.evaluate.verify_variances(
        VERIFY_EPSILON, VERIFY_TRIALS, dpreg.noise.RandomStream(seed, round_index + 1))
    return VERIFY_TRIALS, _rows(rows)


def lanes(dpreg, workload: str, seed: int):
    """``(lane name, callable(round_index) -> (units, payload))`` pairs.

    A sweep lane's payload is one table of rows per setup; the variance
    lane's is one list of rows.
    """
    if workload == "mc_sweep":
        return [(m, lambda r, m=m: sweep_lane(dpreg, seed, m)) for m in SWEEP_METHODS]
    if workload == "mc_fresh_small":
        return [(m, lambda r, m=m: fresh_lane(dpreg, seed, m)) for m in SWEEP_METHODS]
    if workload == "verify_bulk":
        return [("verify", lambda r: verify_lane(dpreg, seed, r))]
    raise ValueError(f"{workload} does not run in-process")


# -- ledger sample --------------------------------------------------------------

def ledger_datasets(dpreg, workload: str, seed: int, fit_xy=None) -> list:
    """The datasets a workload's fits see, for the privacy-ledger gate."""
    ev = dpreg.evaluate
    if workload == "fit_csv_1m":
        xi, yi = fit_xy
        return [dpreg.data.Dataset(xi / SCALE, yi / SCALE)]
    if workload == "mc_sweep":
        return [ev.generate_setup(ev.reference_setup(i, seed)) for i in SWEEP_SETUPS]
    if workload == "mc_fresh_small":
        # The datasets of the first three iterations, drawn as run_experiment
        # draws them: x, then the noise, from the iteration's substream.
        datasets = []
        for i in range(3):
            stream = dpreg.noise.RandomStream(seed, i + 1)
            x = stream.uniform(FRESH_N)
            y = np.clip(-0.7 * x + 0.8 + 0.05 * stream.normal(FRESH_N), 0.0, 1.0)
            datasets.append(dpreg.data.Dataset(x, y))
        return datasets
    # verify_variances privatizes this fixed three-point dataset.
    return [dpreg.data.Dataset(np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.45, 0.7]))]


def ledger_fitters(dpreg, workload: str) -> dict:
    """Mechanism name -> ``f(data, epsilon, stream, ledger)`` for the workload."""
    mech = dpreg.mechanisms
    fitters = {
        "dp_rss": lambda d, e, s, led: mech.dp_rss_fit(d, e, s, ledger=led),
        "dp_ss": lambda d, e, s, led: mech.dp_ss_fit(d, e, s, ledger=led),
        "dp_theil_sen": lambda d, e, s, led: mech.dp_theil_sen_fit(d, e, s, ledger=led),
        "dp_rss_poly": lambda d, e, s, led: dpreg.polynomial.dp_rss_poly_fit(
            d, FIT_POLY_DEGREE, e, s, ledger=led),
    }
    if workload == "fit_csv_1m":
        names = list(FIT_LANES)
    elif workload == "verify_bulk":
        names = ["dp_rss", "dp_ss"]
    else:
        names = list(SWEEP_METHODS)
    return {n: fitters[n] for n in names}
