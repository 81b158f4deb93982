"""Untraced measurement: cold and warm campaign passes, checks, metrics.

A run is a closed loop with one client: ``run_campaign(..., max_workers=1)``
executes the workload's campaign serially in this process.

* A **cold pass** runs the campaign into a fresh :class:`ResultStore`, so
  every unit simulates and writes back.  Per-unit latency is timed from
  outside, between consecutive ``progress`` callbacks, so it includes the
  write-back.  A run makes ``COLD_ROUNDS`` cold passes, each into its own
  store, and every round must compute byte-identical payloads.
* **Warm passes** follow each cold pass over its populated store until the
  round's share of ``--seconds`` is used; every unit must be a hit whose
  payload is byte-identical to the cold pass's.
* **Set-up** is timed in fresh interpreters (:mod:`perfbench.coldstart`):
  import, generate the specs and finish one warm-up unit, several times.

Every timed interval (a cold unit, a warm pass, a cold start) lies among
pace probes and is reported scaled by the host pace they saw
(:mod:`perfbench.pace`): a cold unit by the two probes that bracket it, the
median warm pass and the median cold start by the mean of all the probes
taken between the passes or starts.  The raw wall-clock medians are printed
beside the metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.experiments.results_io import result_document
from repro.spec import SpecBase, execute

from . import pace
from .campaigns import WORKLOADS
from .stats import tail_p90

__all__ = [
    "RecordingStore",
    "RunOutcome",
    "acked_bytes",
    "check_cold",
    "cold_pass",
    "cold_starts",
    "measure",
    "payload_digest",
    "unit_problems",
    "warm_pass",
    "warm_up",
]

clock = time.perf_counter

ROOT = Path(__file__).resolve().parents[1]
COLDSTART = Path(__file__).resolve().parent / "coldstart.py"

#: Fresh interpreters timed per run; ``setup_s`` is their median.
SETUP_STARTS = 9

#: Upper end of the Jain index check: 1 plus the float rounding of
#: (sum g)^2 / (n sum g^2), which reads 1.0000000000000002 for equal goodputs.
JAIN_MAX = 1 + 4 * sys.float_info.epsilon

#: Cold passes per run, each into a fresh store.  A unit's latency is the
#: median of its scaled latencies over the rounds.
COLD_ROUNDS = 4

#: Warm passes after each cold round, made even when the round used up its
#: share of ``--seconds``.
WARM_PASSES_PER_ROUND = 2


class RecordingStore(ResultStore):
    """A :class:`ResultStore` that remembers what one pass wrote and read."""

    def __init__(self, root: Path) -> None:
        super().__init__(root)
        self.written: dict[str, dict] = {}
        self.read: list[tuple[str, dict]] = []

    def put_document(self, document: dict) -> str:
        key = super().put_document(document)
        self.written[key] = document
        return key

    def get(self, key: str) -> dict | None:
        document = super().get(key)
        if document is not None:
            self.read.append((key, document))
        return document


def payload_digest(document: dict) -> str:
    """sha256 of the canonical payload JSON (the telemetry sidecar and the
    spec are outside the payload)."""
    text = json.dumps(document["payload"], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def acked_bytes(document: dict) -> float:
    """Simulated payload bytes acked over all flows of one unit."""
    payload = document["payload"]
    if "flow" in payload:
        return payload["flow"]["bytes_acked"]
    return payload["summary"]["total_bytes_acked"]


def _finite(value: object) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def unit_problems(spec: SpecBase, document: dict) -> list[str]:
    """Physical invariants one unit's result must satisfy (empty when ok)."""
    payload = document["payload"]
    rate = spec.path_config.bottleneck_rate_bps
    horizon = spec.duration
    problems = []
    if "flow" in payload:
        goodputs = [payload["flow"]["goodput_bps"]]
        total = payload["flow"]["bytes_acked"]
        headline = goodputs[0]
        jain = None
    else:
        summary = payload["summary"]
        goodputs = [flow["goodput_bps"] for flow in payload["flows"]]
        total = summary["total_bytes_acked"]
        headline = payload["aggregate_goodput_bps"]
        jain = payload["jain_index"]
        declared = len(spec.scenario.flows) if spec.scenario else len(spec.flows)
        if len(payload["flows"]) != declared:
            problems.append(f"{len(payload['flows'])} flows, spec declares {declared}")
        if spec.churn is None and summary["n_flows"] != declared:
            problems.append(f"summary.n_flows {summary['n_flows']} != {declared}")
        if spec.churn is not None and summary["n_flows"] <= declared:
            problems.append(f"churn added no flows (summary.n_flows "
                            f"{summary['n_flows']})")
        if not (_finite(jain) and 0 < jain <= JAIN_MAX):
            problems.append(f"Jain index {jain!r} outside (0, 1]")
    values = [*goodputs, total, headline]
    if not all(_finite(v) for v in values):
        problems.append(f"non-finite value among {values!r}")
        return problems
    if not headline > 0:
        problems.append(f"goodput {headline!r} is not positive")
    if any(g > rate for g in goodputs):
        problems.append(f"a flow's goodput exceeds the {rate:.0f} b/s bottleneck")
    if total * 8 > rate * horizon:
        problems.append(f"{total} bytes acked exceed rate x horizon")
    return problems


def claim_problems(reno: dict, restricted: dict) -> list[str]:
    """The paper's claim on the default-testbed pair."""
    reno_flow = reno["payload"]["flow"]
    rss_flow = restricted["payload"]["flow"]
    problems = []
    if rss_flow["send_stalls"] > reno_flow["send_stalls"]:
        problems.append("restricted stalled more often than Reno")
    if not rss_flow["goodput_bps"] > reno_flow["goodput_bps"]:
        problems.append("restricted goodput not above Reno's")
    return problems


@dataclass
class ColdPass:
    """What the cold pass wrote, and how long each unit took."""

    #: Wall seconds per unit, in the order the units finished: campaign
    #: order, since the pass runs serially.
    latencies: list[float]
    #: cache key -> the document written, in campaign order.
    documents: dict[str, dict]
    labels: dict[str, str]
    #: Pace probe times: one before the pass and one after each unit
    #: (empty without a probe).
    paces: list[float]


def cold_pass(campaign: CampaignSpec, store: RecordingStore,
              run: Callable = run_campaign,
              probe: Callable[[], float] | None = None) -> ColdPass:
    """Run ``campaign`` into the empty ``store``; every unit must compute.

    With ``probe``, a pace probe runs before the pass and after each unit,
    outside the units' timed intervals.
    """
    paces: list[float] = []
    begins: list[float] = []
    ends: list[float] = []

    def between(*_) -> None:
        ends.append(clock())
        if probe is not None:
            paces.append(probe())
        begins.append(clock())

    if probe is not None:
        paces.append(probe())
    begins.append(clock())
    manifest = run(campaign, store, max_workers=1, progress=between)
    statuses = {unit.status for unit in manifest.units}
    if statuses != {"computed"}:
        raise RuntimeError(f"cold pass over a fresh store reported {statuses}")
    latencies = [end - begin for begin, end in zip(begins, ends)]
    documents = {unit.cache_key: store.written[unit.cache_key]
                 for unit in manifest.units}
    labels = {unit.cache_key: unit.label for unit in manifest.units}
    return ColdPass(latencies, documents, labels, paces)


def warm_pass(campaign: CampaignSpec, store: RecordingStore,
              digests: dict[str, str],
              run: Callable = run_campaign) -> tuple[float, int]:
    """One pass over the populated store: ``(wall seconds, units ok)``.

    A unit is ok when it was a hit whose payload digest matches the cold
    pass's; the comparison runs after the timed call.
    """
    store.read.clear()
    begin = clock()
    manifest = run(campaign, store, max_workers=1)
    wall = clock() - begin
    served = {key: payload_digest(document) for key, document in store.read}
    ok = sum(1 for unit in manifest.units
             if unit.status == "hit"
             and served.get(unit.cache_key) == digests[unit.cache_key])
    return wall, ok


def cold_starts(workload: str, seed: int, n: int) -> tuple[list[float], list[dict]]:
    """Time ``n`` fresh interpreters that import, generate and warm up.

    Returns the outside wall times and each probe's own phase timings.
    """
    walls, probes = [], []
    command = [sys.executable, str(COLDSTART), "--workload", workload,
               "--seed", str(seed)]
    for _ in range(n):
        start = clock()
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        walls.append(clock() - start)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return walls, probes


@dataclass
class RunOutcome:
    """Everything one benchmark run measured and checked."""

    attempted: int = 0
    ok: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems


def check_cold(campaign: CampaignSpec, cold: ColdPass, outcome: RunOutcome,
               claim: tuple[str, str] | None) -> dict[str, str]:
    """Check every cold unit, and the paper's claim on the ``claim`` pair of
    labels; returns the payload digests the warm passes must match."""
    specs = {unit.cache_key: unit.spec for unit in campaign.expand()}
    bad: set[str] = set()
    for key, document in cold.documents.items():
        for problem in unit_problems(specs[key], document):
            bad.add(key)
            outcome.problems.append(f"{cold.labels[key]}: {problem}")
    if claim is not None:
        by_label = {label: key for key, label in cold.labels.items()}
        pair = [by_label[label] for label in claim]
        for problem in claim_problems(*(cold.documents[key] for key in pair)):
            bad.update(pair)
            outcome.problems.append(f"default-testbed pair: {problem}")
    outcome.attempted += len(cold.documents)
    outcome.ok += len(cold.documents) - len(bad)
    return {key: payload_digest(document)
            for key, document in cold.documents.items()}


def sim_digest(cold: ColdPass, digests: dict[str, str]) -> str:
    """sha256 over the cold pass's payload digests in campaign order."""
    joined = "".join(f"{key}:{digests[key]}\n" for key in cold.documents)
    return hashlib.sha256(joined.encode()).hexdigest()


def warm_up(workload: str) -> None:
    """Finish one warm-up unit so lazy imports land outside the timing."""
    result_document(execute(WORKLOADS[workload].warmup()))


def measure(workload: str, seed: int, seconds: float, scratch: Path) -> RunOutcome:
    """The untraced run behind every end-to-end metric."""
    outcome = RunOutcome()
    raw: dict[str, list[float]] = {"setup": [], "unit": [], "warm": []}
    setup_paces = pace.probes()
    for _ in range(SETUP_STARTS):
        (wall,), _probes = cold_starts(workload, seed, 1)
        raw["setup"].append(wall)
        setup_paces += pace.probes()
    campaign = WORKLOADS[workload].generate(seed)
    warm_up(workload)

    began = clock()
    latencies: dict[str, list[float]] = {}
    warm_paces: list[float] = []
    for round_ in range(COLD_ROUNDS):
        store = RecordingStore(scratch / f"round{round_}")
        cold = cold_pass(campaign, store, probe=pace.probe)
        if round_ == 0:
            digests = check_cold(campaign, cold, outcome,
                                 WORKLOADS[workload].claim)
            total_acked = sum(acked_bytes(d) for d in cold.documents.values())
            outcome.notes.append(f"sim_digest {sim_digest(cold, digests)}")
        else:
            for key, document in cold.documents.items():
                if payload_digest(document) != digests[key]:
                    outcome.problems.append(
                        f"{cold.labels[key]}: cold round {round_} computed a "
                        "different payload")
                else:
                    outcome.ok += 1
            outcome.attempted += len(cold.documents)
        for key, latency, before, after in zip(
                cold.documents, cold.latencies, cold.paces, cold.paces[1:]):
            latencies.setdefault(key, []).append(
                pace.scaled(latency, before, after))
        raw["unit"].extend(cold.latencies)
        store.written.clear()
        round_passes = 0
        deadline = began + seconds * (round_ + 1) / COLD_ROUNDS
        warm_paces += pace.probes()
        while round_passes < WARM_PASSES_PER_ROUND or clock() < deadline:
            wall, ok = warm_pass(campaign, store, digests)
            raw["warm"].append(wall)
            warm_paces += pace.probes()
            round_passes += 1
            outcome.attempted += len(digests)
            outcome.ok += ok
            if ok != len(digests):
                outcome.problems.append(
                    f"a warm pass served {ok} identical hits of "
                    f"{len(digests)} units")

    unit_latencies = [statistics.median(v) for v in latencies.values()]
    metrics = outcome.metrics
    metrics["setup_s"] = (
        pace.scaled(statistics.median(raw["setup"]), *setup_paces), "s")
    metrics["acked_mb_per_s"] = (total_acked / 1e6 / sum(unit_latencies), "MB/s")
    metrics["unit_p50_s"] = (statistics.median(unit_latencies), "s")
    tail = tail_p90(unit_latencies)
    if tail is not None:
        metrics["unit_p90_s"] = (tail[0], "s")
    metrics["hits_per_s"] = (
        len(digests) / pace.scaled(statistics.median(raw["warm"]), *warm_paces),
        "1/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["ok_frac"] = (outcome.ok / outcome.attempted, "ratio")
    outcome.notes.append(
        f"unit latency samples {len(unit_latencies)} (median of "
        f"{COLD_ROUNDS} cold rounds), beyond p90 "
        f"{tail[1] if tail else 'too few'}; {len(raw['warm'])} warm passes; "
        f"measured {clock() - began:.1f} s")
    outcome.notes.append(
        "raw wall medians: cold start {:.4f} s, unit {:.5f} s, warm pass "
        "{:.4f} s".format(*(statistics.median(raw[k])
                            for k in ("setup", "unit", "warm"))))
    return outcome
