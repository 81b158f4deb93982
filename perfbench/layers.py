"""The traced run: per-layer metrics from spans, a profile and counters.

Three measurements of the same campaign, in one process:

1. **Set-up probes** — fresh interpreters report their own import and
   warm-up times (``setup.*``).
2. **Reference pass** — cold pass plus ``WARM_PASSES`` warm passes, untraced.
   Its wall time is the denominator of ``trace.overhead_ratio``; its
   documents' telemetry sidecars give the phase times (``phase.*``) and the
   engine rates, which profiling would distort.
3. **Traced pass** — the same passes into a fresh store under cProfile, with
   spans around the public calls (``execute``, ``SpecBase.cache_key``,
   ``result_document``, ``ResultStore.get``/``put_document`` and
   ``run_campaign``).  Self time per ``repro`` package comes from the
   profile, attributed by each function's file path (``tcp/cc`` kept apart
   from ``tcp``, everything outside ``repro`` in ``ext``); exact call counts
   come from the same profile.  A span's self time is its duration minus
   the part its child spans cover.

Work counts (events, packets, drops, marks, retransmits, steps) come from
the result documents and repeat exactly for the same code and seed.
"""

from __future__ import annotations

import cProfile
import contextlib
import json
import os
import pstats
import statistics
from pathlib import Path
from typing import Callable, Iterator

import repro
import repro.experiments.results_io as results_io
import repro.spec as spec_api
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.spec import SpecBase

from .campaigns import WORKLOADS
from .measure import (
    SETUP_STARTS,
    RecordingStore,
    RunOutcome,
    check_cold,
    clock,
    cold_pass,
    cold_starts,
    warm_pass,
    warm_up,
)

__all__ = ["LAYERS", "SpanRecorder", "layer_of", "profile_layers", "traced"]

#: Profile buckets, each reported as ``<layer>.self_s``.  ``other`` holds
#: ``repro``'s top-level modules and any package not named here; ``ext``
#: everything outside ``repro`` (stdlib, numpy, json, builtins).
LAYERS = ("sim", "net", "tcp", "tcp.cc", "host", "core", "control", "fluid",
          "metrics", "spec", "experiments", "campaign", "workloads", "obs",
          "instrumentation", "analysis", "other", "ext")

#: Warm passes in each of the reference and traced measurements.
WARM_PASSES = 3


def layer_of(filename: str, package_root: str) -> str:
    """The profile bucket of a function defined in ``filename``."""
    prefix = package_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return "ext"
    parts = Path(filename[len(prefix):]).parts
    if len(parts) < 2:
        return "other"
    if parts[:2] == ("tcp", "cc"):
        return "tcp.cc"
    return parts[0] if parts[0] in LAYERS else "other"


def profile_layers(profile: cProfile.Profile, package_root: str
                   ) -> tuple[dict[str, float], dict[tuple[str, str], int]]:
    """``(self seconds per layer, call counts per (layer, function))``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[tuple[str, str], int] = {}
    for (filename, _line, function), (_cc, ncalls, tottime, _ct, _callers) \
            in pstats.Stats(profile).stats.items():
        layer = layer_of(filename, package_root)
        self_s[layer] += tottime
        name = (layer, f"{Path(filename).name}:{function}")
        calls[name] = calls.get(name, 0) + ncalls
    return self_s, calls


class SpanRecorder:
    """In-memory spans ``[id, parent id, name, start, end]``, one stack."""

    def __init__(self, clock: Callable[[], float] = clock) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable) -> Callable:
        def spanned(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [len(self.spans), parent, name, self._clock(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[4] = self._clock()
        return spanned

    @contextlib.contextmanager
    def around_public_calls(self) -> Iterator[None]:
        """Wrap the public calls a campaign makes; restore them on exit."""
        targets = [(spec_api, "execute", "execute"),
                   (SpecBase, "cache_key", "cache_key"),
                   (results_io, "result_document", "result_document"),
                   (ResultStore, "get", "store.get"),
                   (ResultStore, "put_document", "store.put")]
        originals = [(owner, attr, getattr(owner, attr))
                     for owner, attr, _name in targets]
        try:
            for (owner, attr, fn), (_o, _a, name) in zip(originals, targets):
                setattr(owner, attr, self.wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus what direct children cover."""
        covered = [0.0] * len(self.spans)
        for _id, parent, _name, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for span_id, _parent, name, start, end in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - covered[span_id])
        return out

    def campaign_overhead(self) -> float:
        """``run_campaign`` wall time minus the ``execute`` spans it covers."""
        total = {s[0]: s[4] - s[3] for s in self.spans if s[2] == "run_campaign"}
        for _id, parent, name, start, end in self.spans:
            if name == "execute" and parent in total:
                total[parent] -= end - start
        return sum(total.values())

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end}) + "\n")


def _passes(campaign: CampaignSpec, claim: tuple[str, str] | None,
            store: RecordingStore, outcome: RunOutcome,
            run: Callable = run_campaign):
    cold = cold_pass(campaign, store, run=run)
    digests = check_cold(campaign, cold, outcome, claim)
    store.written.clear()
    for _ in range(WARM_PASSES):
        _wall, ok = warm_pass(campaign, store, digests, run=run)
        outcome.attempted += len(digests)
        outcome.ok += ok
    return cold


def _document_counts(documents) -> dict[str, float]:
    """Exact work counts summed over the cold pass's documents.

    The ``sim``/``net``/``tcp``/``host`` counts are the packet engine's;
    fluid results model drops and stalls too, but those belong to ``fluid``.
    """
    counts = dict.fromkeys(
        ("sim.events", "net.packets_forwarded", "net.drops", "net.ce_marks",
         "tcp.retransmits", "tcp.timeouts", "host.send_stalls", "fluid.steps",
         "phase.compile_s", "phase.simulate_s", "phase.summarize_s",
         "sim.simulate_s", "fluid.simulate_s"), 0.0)
    for document in documents:
        payload = document["payload"]
        telemetry = document.get("telemetry") or {"spans": {}, "counters": {}}
        counters, spans = telemetry["counters"], telemetry["spans"]
        for phase in ("compile", "simulate", "summarize"):
            counts[f"phase.{phase}_s"] += spans.get(phase, 0.0)
        if payload["backend"] == "fluid":
            counts["fluid.steps"] += counters.get("fluid_steps", 0)
            counts["fluid.simulate_s"] += spans.get("simulate", 0.0)
            continue
        counts["sim.events"] += counters.get("events", 0)
        counts["sim.simulate_s"] += spans.get("simulate", 0.0)
        counts["net.packets_forwarded"] += counters.get("packets_forwarded", 0)
        counts["net.drops"] += payload["bottleneck_drops"]
        counts["net.ce_marks"] += payload["bottleneck_marks"]
        flows = [payload["flow"]] if "flow" in payload else payload["flows"]
        counts["tcp.timeouts"] += sum(flow["timeouts"] for flow in flows)
        if "flow" in payload:
            counts["tcp.retransmits"] += payload["flow"]["pkts_retrans"]
            counts["host.send_stalls"] += payload["flow"]["send_stalls"]
        else:
            counts["tcp.retransmits"] += payload["summary"]["total_retransmits"]
            counts["host.send_stalls"] += payload["summary"]["total_send_stalls"]
    return counts


def traced(workload: str, seed: int, scratch: Path, *,
           campaign: CampaignSpec | None = None,
           starts: int = SETUP_STARTS) -> RunOutcome:
    """The traced run behind every per-layer metric (see module docstring).

    ``campaign`` replaces the workload's generated campaign (tests use a
    small one); ``starts`` is the number of set-up probes.
    """
    outcome = RunOutcome()
    _walls, probes = cold_starts(workload, seed, starts)
    claim = None
    if campaign is None:
        campaign = WORKLOADS[workload].generate(seed)
        claim = WORKLOADS[workload].claim
    warm_up(workload)

    reference = RecordingStore(scratch / "reference")
    start = clock()
    cold = _passes(campaign, claim, reference, RunOutcome())
    untraced_wall = clock() - start
    counts = _document_counts(cold.documents.values())
    document_bytes = sum(p.stat().st_size
                         for p in reference.objects_dir.glob("*/*.json"))

    store = RecordingStore(scratch / "traced")
    recorder = SpanRecorder()
    profile = cProfile.Profile()
    with recorder.around_public_calls():
        start = clock()
        profile.enable()
        _passes(campaign, claim, store, outcome,
                run=recorder.wrap("run_campaign", run_campaign))
        profile.disable()
        traced_wall = clock() - start
    recorder.write(scratch.parent / f"spans-{workload}-{seed}.jsonl")

    package_root = os.path.dirname(repro.__file__)
    self_s, calls = profile_layers(profile, package_root)
    spans = recorder.self_times()
    m = outcome.metrics
    m["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
    m["setup.warmup_s"] = (statistics.median(p["warmup_s"] for p in probes), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    for name in ("sim.events", "net.packets_forwarded", "net.drops",
                 "net.ce_marks", "tcp.retransmits", "tcp.timeouts",
                 "host.send_stalls", "fluid.steps"):
        m[name] = (counts[name], "count")
    for name in ("phase.compile_s", "phase.simulate_s", "phase.summarize_s"):
        m[name] = (counts[name], "s")
    m["sim.events_per_s"] = (_rate(counts["sim.events"], counts["sim.simulate_s"]), "1/s")
    m["fluid.steps_per_s"] = (_rate(counts["fluid.steps"], counts["fluid.simulate_s"]), "1/s")
    m["control.pid_updates"] = (calls.get(("control", "pid.py:update"), 0), "count")
    m["spec.cache_key_s"] = (spans.get("cache_key", 0.0), "s")
    m["results_io.document_s"] = (spans.get("result_document", 0.0), "s")
    m["results_io.document_bytes"] = (document_bytes, "bytes")
    m["store.put_s"] = (spans.get("store.put", 0.0), "s")
    m["store.get_s"] = (spans.get("store.get", 0.0), "s")
    m["store.hits"] = (store.hits, "count")
    m["store.misses"] = (store.misses, "count")
    m["campaign.overhead_s"] = (recorder.campaign_overhead(), "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.accounted_frac"] = (sum(self_s.values()) / traced_wall, "ratio")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return outcome


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
