"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py --runs 10 [--workloads packet aqm fluid]

Runs ``perfbench/run.py --trace 0`` ``--runs`` times per set and workload,
each run with its own seed (set A seeds 1..N, set B seeds N+1..2N),
alternating between the sets so that drift in the host hits both alike.  For every end-to-end
metric of ``BENCHMARK.json`` on every workload it prints each set's median
and quartiles and the spread ``(q3 - q1) / median``, and says whether

* each spread stays within the metric's bound, and
* the two medians differ, in either direction, by at most the bound as a
  share of set A's median: for two sets of the same code a large gap
  either way is disagreement.

Exits 0 when every metric agrees, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.stats import quartile_spread  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _one_run(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run reported incorrect "
                         f"output\n{done.stdout}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=workloads,
                        choices=workloads)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    samples = {(w, s): [] for w in args.workloads for s in "AB"}
    for i in range(1, args.runs + 1):
        for workload in args.workloads:
            for set_name in ("AB" if i % 2 else "BA"):
                seed = i if set_name == "A" else args.runs + i
                samples[workload, set_name].append(
                    _one_run(workload, seed, args.seconds))
                print(f"run {i} {workload} set {set_name} done", flush=True)

    agree = True
    print(f"{'workload':<8} {'metric':<16} {'bound':>6}  "
          f"{'A median [q1, q3]':>34} {'spread':>7}  "
          f"{'B median [q1, q3]':>34} {'spread':>7}  {'B - A':>8}  verdict")
    for workload in args.workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, spreads, medians = [], [], []
            for set_name in "AB":
                values = [run[name] for run in samples[workload, set_name]]
                q1, median, q3, spread = quartile_spread(values)
                cells.append(f"{median:>12.6g} [{q1:>9.6g}, {q3:>9.6g}]")
                spreads.append(spread)
                medians.append(median)
            change = (medians[1] - medians[0]) / medians[0]
            ok = abs(change) <= bound and max(spreads) <= bound
            agree &= ok
            print(f"{workload:<8} {name:<16} {bound:>6.3f}  {cells[0]} "
                  f"{spreads[0]:>7.4f}  {cells[1]} {spreads[1]:>7.4f}  "
                  f"{change:>+8.4f}  {'ok' if ok else 'DISAGREE'}")
    print("all metrics agree" if agree else "some metrics disagree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
