"""One cold start: a fresh interpreter imports, generates and warms up.

``python3 perfbench/coldstart.py --workload NAME --seed N`` imports the
benchmark's client code (which imports ``repro``), generates the
workload's campaign from the seed, finishes one warm-up unit, and prints
one JSON line with the phases it timed itself.  The caller times the whole
process from outside; that wall time is one ``setup_s`` sample.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402 - timed from interpreter start
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.campaigns import WORKLOADS
    from perfbench.measure import warm_up

    imported = time.perf_counter()
    WORKLOADS[args.workload].generate(args.seed)
    generated = time.perf_counter()
    warm_up(args.workload)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - _START,
                      "generate_s": generated - imported,
                      "warmup_s": done - generated}))


if __name__ == "__main__":
    main()
