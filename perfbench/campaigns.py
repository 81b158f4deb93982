"""Seeded campaign generators for the benchmark workloads.

Each workload is a :class:`repro.campaign.CampaignSpec` generated from the
workload seed alone; the program under test only ever sees the generated
specs.  Each workload has a fixed design: Latin-hypercube points over its
parameter ranges (one draw per equal-width stratum of each range,
shuffled).  The seed moves every design point by up to ``JITTER`` of its
value and picks the simulator seeds, so two seeds give different paths
(different cache keys, different digests) at nearly the same cost.  That
keeps the run-to-run spread of the end-to-end metrics a property of the
host, not of the seed.

``WORKLOADS`` maps each name to its generator, its warm-up unit and the
reason it exists; ``LAYER_MAP`` records which end-to-end metric each
per-layer metric should move, and on which workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.campaign import CampaignSpec
from repro.experiments.aqm_gallery import (
    GALLERY_CCS,
    GALLERY_DISCIPLINES,
    aqm_gallery_spec,
)
from repro.experiments.throughput import throughput_spec
from repro.fluid import FlowArrivalSpec
from repro.spec import MultiFlowSpec, RunSpec, SpecBase, dumbbell
from repro.workloads.scenarios import PathConfig

__all__ = [
    "LAYER_MAP",
    "WORKLOADS",
    "Workload",
    "aqm_campaign",
    "fluid_campaign",
    "packet_campaign",
    "strata",
]

#: Relative half-width of the seed's move around each design point.
JITTER = 0.03

#: Round-trip times simulated by each fluid single flow and scalar mix.  The
#: fluid engine's cost follows its step count, which grows with the run's
#: length in RTTs; at these lengths no unit takes under ~10 ms.
SINGLE_RTTS = 80
MIX_RTTS = 90


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """``n`` draws from ``[lo, hi)``, one per equal-width stratum, shuffled."""
    width = (hi - lo) / n
    values = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(values)
    return values


class _Draws:
    """A workload's fixed design points, moved by its seed."""

    def __init__(self, workload: str, seed: int) -> None:
        self._design = random.Random(f"{workload}:design")
        self._seed = random.Random(f"{workload}:{seed}")

    def points(self, n: int, lo: float, hi: float) -> list[float]:
        return [value * (1 + JITTER * (2 * self._seed.random() - 1))
                for value in strata(self._design, n, lo, hi)]

    def seed(self) -> int:
        return self._seed.randrange(1, 2**31)


def packet_campaign(seed: int) -> CampaignSpec:
    """Reno/restricted single-flow pairs on drop-tail dumbbells (E2 shape).

    The paper's default-testbed pair (100 Mb/s, 60 ms, 100-packet IFQ) always
    comes first, over 1 s: that already shows the paper's claim (Reno stalls
    once in slow start, restricted never does and acks twice the bytes).  The
    other 49 pairs run 0.6 s each and draw bottleneck rate, RTT and IFQ size
    from the seed — the seed alone would not change a lossless single-flow
    packet run.
    """
    draws = _Draws("packet", seed)
    units = [throughput_spec(duration=1.0, seed=seed)]
    for rate, rtt, ifq in zip(draws.points(49, 8e6, 24e6),
                              draws.points(49, 0.020, 0.100),
                              draws.points(49, 10, 100)):
        config = PathConfig(bottleneck_rate_bps=round(rate, -3),
                            rtt=round(rtt, 4), ifq_capacity_packets=int(ifq))
        units.append(throughput_spec(duration=0.6, config=config,
                                     seed=draws.seed()))
    return CampaignSpec(name=f"perfbench-packet-{seed}", units=tuple(units))


def aqm_campaign(seed: int) -> CampaignSpec:
    """E13 gallery cells: every cc on every discipline, per drawn path.

    Each of 7 paths fixes a bottleneck rate, RTT and router buffer (half
    to one-and-a-half bandwidth-delay products, so drop-tail cells lose
    packets and exercise recovery) and runs all 16 cells on it for 0.6 s.
    """
    draws = _Draws("aqm", seed)
    units = []
    for rate, rtt, buffer in zip(draws.points(7, 6e6, 12e6),
                                 draws.points(7, 0.020, 0.060),
                                 draws.points(7, 0.5, 1.5)):
        bdp_packets = rate * rtt / (8 * 1500)
        config = PathConfig(bottleneck_rate_bps=round(rate, -3),
                            rtt=round(rtt, 4),
                            router_buffer_packets=max(8, int(buffer * bdp_packets)))
        cell_seed = draws.seed()
        units.extend(aqm_gallery_spec(cc, discipline, config=config,
                                      duration=0.6, seed=cell_seed)
                     for cc in GALLERY_CCS for discipline in GALLERY_DISCIPLINES)
    return CampaignSpec(name=f"perfbench-aqm-{seed}", units=tuple(units))


def _mixed(n: int) -> list[str]:
    return ["reno" if i % 2 == 0 else "restricted" for i in range(n)]


def fluid_campaign(seed: int) -> CampaignSpec:
    """Fluid populations heavy in PID work, none shorter than ~10 ms.

    * 51 restricted single flows over 80 RTTs (scalar model);
    * 38 Reno/restricted dumbbell mixes of 4..32 flows over 90 RTTs
      (the scalar ``FluidMultiFlowModel``);
    * 9 64-flow mixes over 1.5 s and 2 churned restricted populations of
      about 5k arrivals over 1.5 s (both on the vector
      ``FluidPopulationModel``).
    """
    draws = _Draws("fluid", seed)
    units: list[SpecBase] = []
    for rate, rtt, ifq in zip(draws.points(51, 100e6, 200e6),
                              draws.points(51, 0.040, 0.100),
                              draws.points(51, 50, 120)):
        config = PathConfig(bottleneck_rate_bps=round(rate, -3),
                            rtt=round(rtt, 4), ifq_capacity_packets=int(ifq))
        units.append(RunSpec(cc="restricted", config=config,
                             duration=round(SINGLE_RTTS * rtt, 2),
                             seed=draws.seed(), backend="fluid"))
    for n, rate, rtt in zip(draws.points(38, 4, 33),
                            draws.points(38, 50e6, 200e6),
                            draws.points(38, 0.040, 0.100)):
        config = PathConfig(bottleneck_rate_bps=round(rate, -3),
                            rtt=round(rtt, 4))
        units.append(MultiFlowSpec(
            scenario=dumbbell(config, int(n), ccs=_mixed(int(n))),
            duration=round(MIX_RTTS * rtt, 2), seed=draws.seed(),
            backend="fluid"))
    for rate, rtt in zip(draws.points(9, 100e6, 400e6),
                         draws.points(9, 0.040, 0.100)):
        config = PathConfig(bottleneck_rate_bps=round(rate, -3),
                            rtt=round(rtt, 4))
        units.append(MultiFlowSpec(
            scenario=dumbbell(config, 64, ccs=_mixed(64)),
            duration=1.5, seed=draws.seed(), backend="fluid"))
    for rate, rtt, arrivals, size in zip(draws.points(2, 50e6, 80e6),
                                         draws.points(2, 0.090, 0.120),
                                         draws.points(2, 3100, 3600),
                                         draws.points(2, 50e3, 100e3)):
        config = PathConfig(bottleneck_rate_bps=round(rate, -3),
                            rtt=round(rtt, 4))
        churn = FlowArrivalSpec(rate_per_s=round(arrivals, 1),
                                mean_size_bytes=round(size), cc="restricted")
        units.append(MultiFlowSpec(
            scenario=dumbbell(config, 2, ccs="restricted"), duration=1.5,
            seed=draws.seed(), backend="fluid", churn=churn))
    return CampaignSpec(name=f"perfbench-fluid-{seed}", units=tuple(units))


_SMALL = PathConfig(bottleneck_rate_bps=10e6, rtt=0.02,
                    ifq_capacity_packets=20)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its generator, warm-up unit and purpose."""

    name: str
    generate: Callable[[int], CampaignSpec]
    #: A short unit of the workload's kind, run once before timing so lazy
    #: imports and first-call set-up are paid outside the measured passes.
    warmup: Callable[[], SpecBase]
    why: str
    #: Campaign labels of the (Reno, restricted) default-testbed pair on
    #: which the paper's claim is checked, if the workload has one.
    claim: tuple[str, str] | None = None


WORKLOADS: dict[str, Workload] = {
    "packet": Workload(
        "packet", packet_campaign,
        lambda: RunSpec(cc="restricted", config=_SMALL, duration=0.5),
        "the paper's headline on the packet engine: sim, net and tcp carry "
        "~80% of self time and fluid does none (target of a packet hot-path "
        "change)",
        claim=("unit0/reno", "unit0/restricted")),
    "aqm": Workload(
        "aqm", aqm_campaign,
        lambda: aqm_gallery_spec("reno", "red", config=_SMALL, duration=0.5),
        "multi-flow packet runs where the network queue works: AQM dequeue "
        "decisions, CE marks, loss recovery, cubic/prague; a drop-tail fast "
        "path should not move it"),
    "fluid": Workload(
        "fluid", fluid_campaign,
        lambda: RunSpec(cc="restricted", config=_SMALL, duration=5.0,
                        backend="fluid"),
        "fluid populations heavy in PID work: fluid, control and metrics do "
        "nearly all of it and sim/net/tcp none (target of a vectorised "
        "fluid PID change)"),
}


_ALL = ("packet", "aqm", "fluid")
_PACKET = ("packet", "aqm")

#: per-layer metric -> (end-to-end metrics it should move, workloads).
LAYER_MAP: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "setup.import_s": (("setup_s",), _ALL),
    "setup.warmup_s": (("setup_s",), _ALL),
    "sim.self_s": (("acked_mb_per_s",), _PACKET),
    "sim.events": (("acked_mb_per_s",), _PACKET),
    "sim.events_per_s": (("acked_mb_per_s",), _PACKET),
    "net.self_s": (("acked_mb_per_s",), _PACKET),
    "net.packets_forwarded": (("acked_mb_per_s",), _PACKET),
    "net.drops": (("acked_mb_per_s",), ("aqm",)),
    "net.ce_marks": (("acked_mb_per_s",), ("aqm",)),
    "tcp.self_s": (("acked_mb_per_s",), ("aqm", "packet")),
    "tcp.retransmits": (("acked_mb_per_s",), ("aqm",)),
    "tcp.timeouts": (("acked_mb_per_s",), ("aqm",)),
    "tcp.cc.self_s": (("acked_mb_per_s",), ("aqm",)),
    "host.self_s": (("acked_mb_per_s",), ("packet",)),
    "host.send_stalls": (("acked_mb_per_s",), ("packet",)),
    "core.self_s": (("unit_p50_s", "unit_p90_s", "acked_mb_per_s"), ("fluid",)),
    "control.self_s": (("unit_p50_s", "unit_p90_s", "acked_mb_per_s"), ("fluid",)),
    "control.pid_updates": (("unit_p50_s", "unit_p90_s", "acked_mb_per_s"), ("fluid",)),
    "fluid.self_s": (("acked_mb_per_s", "unit_p50_s"), ("fluid",)),
    "fluid.steps": (("acked_mb_per_s", "unit_p50_s"), ("fluid",)),
    "fluid.steps_per_s": (("acked_mb_per_s", "unit_p50_s"), ("fluid",)),
    "metrics.self_s": (("unit_p90_s",), ("fluid",)),
    "ext.self_s": (("acked_mb_per_s", "unit_p90_s"), ("fluid",)),
    "phase.compile_s": (("unit_p50_s",), _ALL),
    "phase.simulate_s": (("acked_mb_per_s", "unit_p50_s"), _ALL),
    "phase.summarize_s": (("unit_p50_s", "unit_p90_s"), ("fluid",)),
    "spec.cache_key_s": (("hits_per_s",), _ALL),
    "results_io.document_s": (("unit_p50_s", "hits_per_s"), _ALL),
    "results_io.document_bytes": (("unit_p50_s", "hits_per_s"), _ALL),
    "store.put_s": (("unit_p50_s",), _ALL),
    "store.get_s": (("hits_per_s",), _ALL),
    "store.hits": (("hits_per_s",), _ALL),
    "store.misses": (("unit_p50_s",), _ALL),
    "campaign.overhead_s": (("unit_p50_s",), _ALL),
    "spec.self_s": (("hits_per_s",), _ALL),
    "experiments.self_s": (("unit_p50_s",), _ALL),
    "campaign.self_s": (("unit_p50_s", "hits_per_s"), _ALL),
    "workloads.self_s": (("unit_p50_s",), _PACKET),
    "obs.self_s": (("acked_mb_per_s",), _ALL),
    "instrumentation.self_s": (("acked_mb_per_s",), _PACKET),
    "analysis.self_s": (("unit_p50_s",), ("aqm", "fluid")),
    "other.self_s": (("acked_mb_per_s",), _PACKET),
    "trace.wall_s": ((), _ALL),
    "trace.accounted_frac": ((), _ALL),
    "trace.overhead_ratio": ((), _ALL),
}
