"""Acceptance check 5c on 44 seed pairs other than the committed one.

Runs the check's own logic, ``test_acceptance.criterion_5c_cells``, on the
tables of ``run_experiment`` at epsilon 0.1, 0.25 and 0.5 with 1000
iterations, for the seed pairs (1001 + i, 2001 + i) and (3001 + i, 4001 + i),
i = 0 to 21 (setup 1's seed first). It prints each pair's worst |z|, the
mean and spread of z per (setup, method), the number of pairs with a cell
past 3, and the worst |z| overall (DECISIONS.md, D1). Rerun it after any
change to a mechanism's draws, instead of picking seeds:

    PYTHONPATH=src python tests/seed_pair_study.py

It takes about a minute on two cores. pytest does not collect
it, since its name does not start with ``test_``.
"""

import statistics
import time

from test_acceptance import BENCH_ITERATIONS, SMALL_EPSILONS, criterion_5c_cells

from dpreg import ExperimentGrid, reference_setup, run_experiment

SEED_PAIRS = ([{1: 1001 + i, 2: 2001 + i} for i in range(22)]
              + [{1: 3001 + i, 2: 4001 + i} for i in range(22)])
METHODS = ("dp_rss", "dp_theil_sen")


def main():
    start = time.perf_counter()
    grid = ExperimentGrid(SMALL_EPSILONS, BENCH_ITERATIONS, METHODS)
    worsts, zs = [], {}
    for seeds in SEED_PAIRS:
        tables = {}
        for index, seed in seeds.items():
            rows = run_experiment(reference_setup(index, seed=seed), grid)
            tables[index] = {(r.method, r.epsilon): r for r in rows}
        cells = [(abs(z), z, setup, eps, method)
                 for setup, eps, by_method in criterion_5c_cells(tables, seeds, BENCH_ITERATIONS)
                 for method, (_, _, z) in by_method.items()]
        for _, z, setup, _, method in cells:
            zs.setdefault((setup, method), []).append(z)
        _, z, setup, eps, method = max(cells)
        worsts.append((abs(z), seeds))
        print(f"seeds ({seeds[1]}, {seeds[2]}): worst z {z:+.2f} "
              f"(setup {setup}, eps {eps}, {method})", flush=True)
    for (setup, method), values in sorted(zs.items()):
        print(f"setup {setup} {method}: z mean {statistics.fmean(values):+.2f}, "
              f"spread {statistics.stdev(values):.2f}")
    worst, seeds = max(worsts, key=lambda w: w[0])
    past = sum(w > 3.0 for w, _ in worsts)
    print(f"{len(worsts)} seed pairs: worst |z| {worst:.2f} at seeds ({seeds[1]}, {seeds[2]}), "
          f"{past} pairs past 3; {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
