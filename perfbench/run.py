"""The repository benchmark: closed-loop workloads over the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload sentinel-replay --seed 1 \\
        --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and a Chrome/Perfetto span file under
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads,
metrics and the first baseline are described in ``perfbench/README.md``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from the line above)
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
#: ``fleet-campaign`` runs on request, for its profile and for comparisons
#: made close together in time; it is not a workload of ``BENCHMARK.json``
#: because its run-to-run spread reaches the bound (see README.md)
WORKLOAD_NAMES = ("fleet-campaign", "sentinel-replay", "host-transplant")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help="print this process's set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    try:
        import harness
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}",
              file=sys.stderr)
        return 2
    return harness.main(args, STARTED, os.path.abspath(__file__),
                        os.path.join(HERE, "out"))


if __name__ == "__main__":
    sys.exit(main())
