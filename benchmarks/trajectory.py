"""Perf trajectory: append one record per run of the repository benchmark.

Runs ``perfbench/run.py`` on a fixed seed for each workload, end to end
(``--trace 0``, ``REPEATS`` times) and traced (``--trace 1``, once), each
for ``SECONDS``, and appends one record to ``BENCH_trajectory.json`` at
the repository root.  A record holds the measured commit, ``host_env``,
the median of each end-to-end metric over the repeats, and the traced
run's top layers by self time.  Seed, run length and repeat count are
constants so that every record is comparable with every other.  Every
number is wall clock, so records compare only across runs on one host;
nothing here is a byte-compared payload.

    PYTHONPATH=src python benchmarks/trajectory.py --label "what changed"
    PYTHONPATH=src python benchmarks/trajectory.py --tree ../parent \\
        --commit <sha> --label parent

``--tree`` measures another checkout (a copy of an older commit) and
still appends to this repository's file.  A record names one commit: a
checkout whose tracked files differ from its HEAD, or a copy without
``.git``, is refused unless ``--commit`` names the commit it holds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.bench.report import host_env

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"
WORKLOADS = ("sentinel-replay", "host-transplant", "fleet-campaign")
SEED = 4242
#: seconds per run, end to end and traced
SECONDS = 10.0
#: end-to-end runs per workload; the record keeps their median
REPEATS = 3
#: layers kept from each traced run
TOP_LAYERS = 5
END_TO_END = ("ops_per_s", "op_p50_s", "op_p90_s", "setup_s", "peak_rss_mb")


def run_bench(tree: Path, workload: str, trace: int) -> Dict:
    """One ``perfbench/run.py`` process; returns its closing JSON line."""
    completed = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"trajectory: {workload} --trace {trace} exited "
                         f"{completed.returncode}: {completed.stderr.strip()}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def top_self_times(metrics: Dict) -> List[List]:
    """``[layer, self_s]`` for the layers with the largest non-zero self
    time per traced operation, largest first."""
    layers = sorted(((name[:-len(".self_s")], entry["value"])
                     for name, entry in metrics.items()
                     if name.endswith(".self_s") and entry["value"] > 0),
                    key=lambda item: (-item[1], item[0]))
    return [list(layer) for layer in layers[:TOP_LAYERS]]


def measure(tree: Path, workload: str) -> Dict:
    runs = [run_bench(tree, workload, trace=0) for _ in range(REPEATS)]
    traced = run_bench(tree, workload, trace=1)
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs) and traced["correct"],
        "end_to_end_median": {
            name: statistics.median(r["metrics"][name]["value"]
                                    for r in runs)
            for name in END_TO_END
        },
        "top_self_s": top_self_times(traced["metrics"]),
    }


def checkout_commit(tree: Path) -> Optional[str]:
    """HEAD of ``tree``, or None when ``tree`` is not a git checkout or
    its tracked files differ from HEAD (the code measured is then no
    commit's)."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True, check=False)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout
    return None if dirty.strip() else head.stdout.strip()


def append_record(path: Path, record: Dict) -> List[Dict]:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout to measure (default: this one)")
    parser.add_argument("--commit",
                        help="commit that --tree holds; needed when it "
                             "is not a clean git checkout")
    parser.add_argument("--label", default="",
                        help="what this record measures")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    commit = args.commit or checkout_commit(tree)
    if commit is None:
        parser.error(f"{tree} is not a clean git checkout; pass --commit")
    record = {
        "commit": commit,
        "label": args.label,
        "host_env": host_env(),
        "seed": SEED,
        "seconds": SECONDS,
        "repeats": REPEATS,
        "workloads": {
            workload: measure(tree, workload) for workload in WORKLOADS
        },
    }
    records = append_record(TRAJECTORY, record)
    print(json.dumps(record, indent=1, sort_keys=True))
    print(f"trajectory: record {len(records)} appended to {TRAJECTORY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
