"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload packet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one table

``--trace 0`` measures the end-to-end metrics (untraced); ``--trace 1`` runs
the traced measurement and reports the per-layer metrics instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch stores live under
``.bench_build/perfbench/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("packet", "aqm", "fluid")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh interpreter, then one combined table."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print(f"{'metric':<28}{'unit':>8}" + "".join(f"{w:>16}" for w in results))
    for metric in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        cells = "".join(f"{results[w]['metrics'][metric]['value']:>16.6g}"
                        for w in results)
        print(f"{metric:<28}{unit:>8}{cells}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {w: r["metrics"] for w, r in results.items()},
    }))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no repro sources under {ROOT / 'src'}; "
                         "run from a checkout of the repository\n")
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.layers import traced
    from perfbench.measure import measure

    if hasattr(os, "sched_setaffinity"):
        # One CPU for the measured code, the pace probes and the cold starts
        # alike, so that the probes see the pace the measured code gets.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=build))
    try:
        if args.trace:
            outcome = traced(args.workload, args.seed, scratch)
        else:
            outcome = measure(args.workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:<28} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
