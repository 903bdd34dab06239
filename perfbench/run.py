"""dpreg benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):
``fit_csv_1m``, ``mc_sweep``, ``mc_fresh_small``, ``verify_bulk``. The
program runs from ``src/`` in child processes: ``dpreg fit`` as
``python3 -m dpreg.cli fit``, the in-process workloads in ``worker.py``.
Every output is checked by the gates in ``gates.py``, and a sample of fits
per mechanism is rerun with a ``NoiseLedger`` and checked against the
requested budget. Each failed operation (non-zero exit, exception,
non-finite output, failed gate) counts in ``failed``.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics from spans, per round of
the workload, plus ``trace_overhead_ratio``. The lines before it give the
same numbers by name, the per-mechanism figures, and the run metadata; the
full record, with spans, is written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import gates
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150.0
STATISTICS = ("n", "s_x", "s_y", "s_x2", "s_xy")

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_mb": "MB",
}

_LAYERS = [
    ("cli.main", ("self_s",)),
    ("data.Dataset.from_records", ("s",)),
    ("data.Dataset.init", ("s", "calls")),
    ("simplex.exact_group_stats", ("s", "calls", "rows", "compute_ratio")),
    ("polynomial.poly_exact_groups", ("s", "rows")),
    ("polynomial.dp_rss_poly_fit", ("self_s",)),
    ("simplex.privatize_groups", ("s", "calls")),
    ("simplex.refine", ("s", "calls")),
    ("mechanisms.dp_rss_fit", ("self_s", "calls", "fallback_ratio")),
    ("mechanisms.dp_ss_fit", ("self_s", "calls", "fallback_ratio")),
    ("mechanisms.dp_theil_sen_fit", ("self_s", "calls", "fallback_ratio")),
    ("median.dp_median", ("s", "calls", "values")),
    ("noise.RandomStream.init", ("s", "calls")),
    ("noise.RandomStream.laplace", ("s", "calls", "variates")),
    ("noise.RandomStream.permutation", ("s",)),
    ("noise.RandomStream.uniform", ("s",)),
    ("noise.RandomStream.normal", ("s",)),
    ("evaluate.run_experiment", ("self_s",)),
    ("evaluate.l1_error", ("s",)),
    ("evaluate.l2_error", ("s",)),
    ("evaluate.simulate_refined_stats", ("s",)),
    ("evaluate.simulate_baseline_stats", ("s",)),
    ("evaluate.verify_variances", ("self_s",)),
]
_FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "count",
                "values": "count", "variates": "count",
                "compute_ratio": "ratio", "fallback_ratio": "ratio"}
PER_LAYER = {f"{base}.{field}": _FIELD_UNITS[field] for base, fields in _LAYERS for field in fields}
PER_LAYER["trace_overhead_ratio"] = "ratio"

# Per-mechanism figures printed under the names the workloads were specified with.
_SHORT = {"dp_rss": "rss", "dp_ss": "ss", "dp_theil_sen": "theil_sen", "dp_rss_poly": "poly"}


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.problems.append(f"{what}: " + "; ".join(problems))
        return not problems


# -- child processes ----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, err_path: Path) -> dict:
    """Run a child to completion; its stdout, exit code, wall time and peak RSS.

    The child is killed if it outlives ``CHILD_TIMEOUT_S``; either way it has
    been waited for when this returns.
    """
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        reaped = False
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            proc.stdout.close()
            if not reaped:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"stdout": out.decode(errors="replace"), "code": proc.returncode, "wall_s": wall,
            "peak_mb": usage.ru_maxrss / 1024.0, "stderr_tail": err_path.read_text()[-2000:]}


def measure_setup(env: dict, tally: Tally) -> list[float]:
    """Wall time of a fresh interpreter importing dpreg, several times."""
    samples = []
    for i in range(SETUP_SAMPLES):
        res = run_child([sys.executable, "-c", "import dpreg"], env, WORK / "setup.err")
        if tally.record(f"setup {i}", [] if res["code"] == 0 else
                        [f"import dpreg exited {res['code']}: {res['stderr_tail']}"]):
            samples.append(res["wall_s"])
    return samples


# -- fit_csv_1m -----------------------------------------------------------------

def fit_lane_fns(csv_path: Path, seed: int, env: dict, traced: list | None):
    """Lanes running one ``dpreg fit`` subprocess each.

    With ``traced`` a list, each fit runs under ``worker.py fit`` with spans
    on, and the per-fit trace summaries are appended to it.
    """
    def make(lane, flags):
        def run(round_index):
            argv = ["fit", str(csv_path), "--epsilon", repr(workloads.FIT_EPSILON),
                    "--seed", str(seed), *flags]
            if traced is None:
                cmd = [sys.executable, "-m", "dpreg.cli", *argv]
            else:
                summary = WORK / f"fit-{lane}-{round_index}.summary.json"
                spans = WORK / f"fit-{lane}-{round_index}.spans.json"
                cmd = [sys.executable, str(HERE / "worker.py"), "fit",
                       "--summary", str(summary), "--spans", str(spans), "--", *argv]
            res = run_child(cmd, env, WORK / f"fit-{lane}.err")
            payload = {"code": res["code"], "peak_mb": res["peak_mb"],
                       "stderr_tail": res["stderr_tail"], "out": None}
            if res["code"] == 0:
                payload["out"] = json.loads(res["stdout"])
            if traced is not None and res["code"] == 0:
                traced.append({"lane": lane, "round": round_index,
                               "summary": json.loads(summary.read_text()),
                               "spans": json.loads(spans.read_text())})
                summary.unlink()
                spans.unlink()
            return 1, payload
        return run
    return [(lane, make(lane, flags)) for lane, flags in workloads.FIT_LANES.items()]


def run_fit_csv(args, env: dict) -> dict:
    xi, yi = workloads.fit_data(args.seed)
    csv_path = WORK / "fit_csv_1m.csv"
    workloads.write_csv(csv_path, xi, yi)
    try:
        if args.trace:
            half = args.seconds / 2.0
            rounds = workloads.run_rounds(fit_lane_fns(csv_path, args.seed, env, None), half)
            traced: list = []
            traced_rounds = workloads.run_rounds(
                fit_lane_fns(csv_path, args.seed, env, traced), half, len(rounds))
        else:
            rounds = workloads.run_rounds(fit_lane_fns(csv_path, args.seed, env, None),
                                          args.seconds)
            traced, traced_rounds = None, []
    finally:
        csv_path.unlink()
    result = {"rounds": rounds, "traced_rounds": traced_rounds, "fit_xy": (xi, yi)}
    if traced is not None:
        result["trace"] = merge_summaries([t["summary"] for t in traced])
        result["spans"] = [{"lane": t["lane"], "round": t["round"], **t["spans"]} for t in traced]
    return result


def merge_summaries(summaries: list[dict]) -> dict:
    stats: dict = {}
    counts: dict = {}
    absent: set = set()
    for s in summaries:
        for name, st in s["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += st[k]
        for name, c in s["counts"].items():
            counts[name] = counts.get(name, 0) + c
        absent.update(s["absent"])
    return {"stats": stats, "counts": counts, "absent": sorted(absent)}


def gate_fit_rounds(rounds, fit_xy, tally: Tally) -> None:
    xi, yi = fit_xy
    x, y = xi / workloads.SCALE, yi / workloads.SCALE
    line = gates.ols_line(x, y)
    poly = np.polyfit(x, y, workloads.FIT_POLY_DEGREE)
    for rnd in rounds:
        for s in rnd["lanes"]:
            problems = _sample_error(s)
            if not problems:
                p = s["payload"]
                if p["code"] != 0:
                    problems = [f"exit {p['code']}: {p['stderr_tail']}"]
                elif s["lane"] == "dp_rss_poly":
                    problems = gates.check_poly_fit(p["out"], poly)
                else:
                    tol = gates.RSS_TOL if s["lane"] == "dp_rss" else gates.THEIL_SEN_TOL
                    problems = gates.check_line_fit(p["out"], line, tol)
            s["ok"] = tally.record(f"round {rnd['round']} {s['lane']}", problems)


# -- in-process workloads -------------------------------------------------------

def run_in_process(args, env: dict) -> dict:
    out = WORK / f"worker-{args.workload}.json"
    spans = WORK / f"spans-{args.workload}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "loop", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(float(args.seconds)),
           "--trace", str(args.trace), "--out", str(out), "--spans", str(spans)]
    res = run_child(cmd, env, WORK / f"worker-{args.workload}.err")
    if res["code"] != 0:
        return {"error": f"worker exited {res['code']}: {res['stderr_tail']}"}
    result = json.loads(out.read_text())
    out.unlink()
    result["peak_mb"] = res["peak_mb"]
    result.setdefault("traced_rounds", [])
    if args.trace:
        result["spans_path"] = str(spans.relative_to(ROOT))
    return result


def gate_in_process_rounds(workload, rounds, tally: Tally) -> None:
    first: dict = {}
    for rnd in rounds:
        for s in rnd["lanes"]:
            problems = _sample_error(s)
            if not problems and workload == "verify_bulk":
                problems = gates.check_variance_rows(s["payload"], s["units"], STATISTICS)
            elif not problems:
                for table in s["payload"]:
                    problems += gates.check_sweep_rows(table, (s["lane"],), workloads.EPSILONS)
                if s["lane"] in first:
                    problems += gates.check_same_rows(first[s["lane"]], s["payload"])
                else:
                    first[s["lane"]] = s["payload"]
            s["ok"] = tally.record(f"round {rnd['round']} {s['lane']}", problems)


def _sample_error(sample) -> list[str]:
    return [sample["error"].strip().splitlines()[-1]] if "error" in sample else []


# -- privacy ledger -------------------------------------------------------------

def ledger_gate(dpreg, workload: str, seed: int, fit_xy, tally: Tally) -> None:
    """Rerun a sample of fits per mechanism with a ledger; check the budget."""
    datasets = workloads.ledger_datasets(dpreg, workload, seed, fit_xy)
    for name, fit in workloads.ledger_fitters(dpreg, workload).items():
        for d, data in enumerate(datasets):
            for k, eps in enumerate(workloads.LEDGER_EPSILONS):
                ledger = dpreg.noise.NoiseLedger()
                try:
                    fit(data, eps, dpreg.noise.RandomStream(seed, 1000 + k), ledger)
                    problems = gates.check_ledger(ledger, eps)
                except Exception as exc:  # counted as a failed operation
                    problems = [f"{type(exc).__name__}: {exc}"]
                tally.record(f"ledger {name} dataset {d} epsilon {eps}", problems)


# -- metrics --------------------------------------------------------------------

def lane_samples(rounds) -> dict:
    """Lane -> units per operation, wall seconds and peak MB of its passing samples."""
    out: dict = {}
    for rnd in rounds:
        for s in rnd["lanes"]:
            if s.get("ok"):
                lane = out.setdefault(s["lane"], {"units": s["units"], "walls": [], "peaks": []})
                lane["walls"].append(s["wall_s"])
                if isinstance(s["payload"], dict):
                    lane["peaks"].append(s["payload"]["peak_mb"])
    return out


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def slow_tail(times) -> float:
    """90th percentile of a list of times, 0.0 when empty.

    Load on a shared host comes and goes in phases of seconds to minutes
    that slow every operation by up to 1.4x, and the share of a run spent in
    each phase varies from run to run, so medians move with it. The slow
    phase itself is about equally slow whenever it comes, and nearly every
    run meets it, so the time that one operation in ten exceeds repeats more
    closely between runs than the median or the third quartile. With the
    three or four samples a lane of ``fit_csv_1m`` gets, it is close to the
    slowest one.
    """
    if len(times) < 2:
        return float(times[0]) if times else 0.0
    return float(statistics.quantiles(times, n=10, method="inclusive")[8])


def end_to_end_metrics(result, setup_samples) -> tuple[dict, dict]:
    by_lane = lane_samples(result["rounds"])
    rates = [v["units"] / slow_tail(v["walls"]) for v in by_lane.values()]
    geomean = math.exp(sum(map(math.log, rates)) / len(rates)) if rates else 0.0
    if "peak_mb" in result:
        peak = result["peak_mb"]
    else:
        peak = max((_median(v["peaks"]) for v in by_lane.values()), default=0.0)
    metrics = {
        "setup_s": _median(setup_samples),
        "ops_per_s": geomean,
        "peak_mb": peak,
    }
    return metrics, by_lane


def named_figures(workload, by_lane) -> dict:
    """Per-mechanism figures under their specified names, with units."""
    figures = {}
    for lane, v in by_lane.items():
        wall = slow_tail(v["walls"])
        if workload == "fit_csv_1m":
            figures[f"fit_{_SHORT[lane]}_s"] = (wall, "s")
            figures[f"fit_{_SHORT[lane]}_peak_mb"] = (_median(v["peaks"]), "MB")
        elif workload == "verify_bulk":
            figures["verify_trials_per_s"] = (v["units"] / wall, "1/s")
        else:
            prefix = "sweep" if workload == "mc_sweep" else "fresh"
            figures[f"{prefix}_{_SHORT[lane]}_fits_per_s"] = (v["units"] / wall, "1/s")
    return figures


def per_layer_metrics(result) -> tuple[dict, list[str]]:
    trace = result.get("trace", {"stats": {}, "counts": {}, "absent": []})
    rounds = max(len(result["traced_rounds"]), 1)
    stats, counts = trace["stats"], trace["counts"]
    metrics = {}
    for name in PER_LAYER:
        if name == "trace_overhead_ratio":
            untraced = slow_tail([r["wall_s"] for r in result["rounds"]])
            traced = slow_tail([r["wall_s"] for r in result["traced_rounds"]])
            metrics[name] = traced / untraced if untraced else 0.0
            continue
        base, field = name.rsplit(".", 1)
        st = stats.get(base, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if field in ("s", "self_s", "calls"):
            metrics[name] = st[field] / rounds
        elif field == "compute_ratio":
            metrics[name] = counts.get(base + ".distinct", 0) / st["calls"] if st["calls"] else 0.0
        elif field == "fallback_ratio":
            metrics[name] = counts.get(base + ".fallbacks", 0) / st["calls"] if st["calls"] else 0.0
        else:
            metrics[name] = counts.get(f"{base}.{field}", 0) / rounds
    return metrics, list(trace["absent"])


# -- metadata -------------------------------------------------------------------

def run_metadata(args) -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dpreg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": workloads.sizes(args.workload),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


# -- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "dpreg" / "__init__.py").is_file():
        print(f"perfbench: no dpreg package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    dpreg = workloads.import_dpreg()
    if Path(dpreg.__file__).resolve().parent != (SRC / "dpreg").resolve():
        print(f"perfbench: imported dpreg from {dpreg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    env = child_env()
    tally = Tally()
    meta = run_metadata(args)
    setup_samples = measure_setup(env, tally)

    if args.workload == "fit_csv_1m":
        result = run_fit_csv(args, env)
        for rounds in (result["rounds"], result["traced_rounds"]):
            gate_fit_rounds(rounds, result["fit_xy"], tally)
    else:
        result = run_in_process(args, env)
        if "error" in result:
            tally.record("worker", [result["error"]])
            result = {"rounds": [], "traced_rounds": []}
        for rounds in (result["rounds"], result["traced_rounds"]):
            gate_in_process_rounds(args.workload, rounds, tally)
    ledger_gate(dpreg, args.workload, args.seed, result.get("fit_xy"), tally)

    e2e, by_lane = end_to_end_metrics(result, setup_samples) if result["rounds"] else ({}, {})
    figures = named_figures(args.workload, by_lane)
    figures["error_rate"] = (tally.failed / tally.attempted, "ratio")
    if args.trace:
        values, absent = per_layer_metrics(result)
        units = PER_LAYER
    else:
        values, absent = {k: e2e.get(k, 0.0) for k in END_TO_END}, []
        units = END_TO_END

    record = {
        "meta": meta, "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems, "metrics": values, "figures": figures, "absent": absent,
        "rounds": [[{k: v for k, v in s.items() if k != "payload"} for s in r["lanes"]]
                   for r in result["rounds"] + result["traced_rounds"]],
    }
    if "spans" in result:
        spans_path = WORK / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps(result["spans"]))
        record["spans_path"] = str(spans_path.relative_to(ROOT))
    elif "spans_path" in result:
        record["spans_path"] = result["spans_path"]
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("meta " + json.dumps(meta))
    for problem in tally.problems:
        print("FAILED " + problem)
    if absent:
        print("absent (reported as 0): " + ", ".join(absent))
    for name, (value, unit) in figures.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    correct = tally.failed == 0 and bool(result["rounds"])
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
