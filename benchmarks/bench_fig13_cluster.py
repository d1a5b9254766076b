"""Fig. 13 — cluster upgrade: migrations and time gain vs InPlaceTP share.

Paper anchors on the 10-host x 10-VM cluster: 154 migrations at 0 %
compatibility; 109 (-17 % time) at 20 %; ~73 % fewer migrations / 68 % less
time at 60 %; 25 migrations / ~80 % gain at 80 % (3 min 54 s vs up to
19 min all-migration).
"""

import argparse

from repro.bench.report import format_table, print_experiment
from repro.bench.runner import cluster_fraction_cell
from repro.par import ParallelRunner

FRACTIONS = [0.0, 0.2, 0.4, 0.6, 0.8]
PAPER_MIGRATIONS = {0.0: 154, 0.2: 109, 0.6: 42, 0.8: 25}
PAPER_GAINS = {0.2: 0.17, 0.6: 0.68, 0.8: 0.80}


def _rows(results):
    """Table rows from per-fraction cells, in :data:`FRACTIONS` order.

    Cells return absolute totals only; the time *gain* is relative to the
    all-migration baseline, so it is computed here once every cell's
    total is in.
    """
    baseline_s = results[0]["total_s"]
    rows = []
    for result in results:
        fraction = result["fraction"]
        gain = 1.0 - result["total_s"] / baseline_s
        rows.append([
            f"{fraction:.0%}",
            result["migration_count"],
            PAPER_MIGRATIONS.get(fraction, "-"),
            result["total_minutes"],
            f"{gain:.0%}",
            f"{PAPER_GAINS[fraction]:.0%}" if fraction in PAPER_GAINS else "-",
        ])
    return rows


def run():
    return _rows([cluster_fraction_cell({"fraction": fraction})
                  for fraction in FRACTIONS])


HEADERS = ["InPlaceTP share", "migrations", "paper", "total (min)",
           "time gain", "paper gain"]


def test_fig13_cluster(benchmark):
    rows = benchmark(run)
    print_experiment("Fig. 13", "cluster upgrade vs InPlaceTP share",
                     format_table(HEADERS, rows))


def run_parallel(workers=1):
    """The same rows as :func:`run`, one worker cell per fraction."""
    cells = [{"fraction": fraction} for fraction in FRACTIONS]
    runner = ParallelRunner(workers=workers, task_timeout_s=600.0)
    return _rows(runner.map_tasks(cluster_fraction_cell, cells,
                                  labels=[f"frac{c['fraction']:g}"
                                          for c in cells]))


def test_fig13_parallel_matches_serial():
    assert run_parallel(workers=1) == run()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    print_experiment("Fig. 13", "cluster upgrade vs InPlaceTP share",
                     format_table(HEADERS, run_parallel(args.workers)))
