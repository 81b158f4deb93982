"""The traced run on a small campaign: exact counts, declared metrics, checks."""

import json
from pathlib import Path

import pytest

from perfbench.campaigns import LAYER_MAP, WORKLOADS
from perfbench.layers import traced
from perfbench.measure import unit_problems
from repro.campaign import CampaignSpec
from repro.experiments.aqm_gallery import aqm_gallery_spec
from repro.experiments.throughput import throughput_spec
from repro.fluid import FlowArrivalSpec
from repro.spec import MultiFlowSpec, RunSpec, dumbbell
from repro.workloads.scenarios import PathConfig

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = PathConfig(bottleneck_rate_bps=10e6, rtt=0.03, ifq_capacity_packets=20,
                   router_buffer_packets=12)

#: One unit of every engine path the workloads drive, a few seconds in all.
CAMPAIGN = CampaignSpec(name="perfbench-test", units=(
    throughput_spec(duration=0.5, config=SMALL, seed=3),
    aqm_gallery_spec("cubic", "red", config=SMALL, duration=0.6, seed=3),
    RunSpec(cc="restricted", config=SMALL, duration=4.0, seed=3,
            backend="fluid"),
    MultiFlowSpec(scenario=dumbbell(SMALL, 2, ccs="restricted"), duration=1.0,
                  seed=3, backend="fluid",
                  churn=FlowArrivalSpec(rate_per_s=200.0, cc="restricted")),
))

EXACT = ("sim.events", "net.packets_forwarded", "fluid.steps",
         "control.pid_updates", "store.hits", "store.misses")


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    return [traced("fluid", 3, tmp_path_factory.mktemp(f"run{i}") / "scratch",
                   campaign=CAMPAIGN, starts=1)
            for i in range(2)]


def test_counts_repeat_exactly(two_runs):
    first, second = (run.metrics for run in two_runs)
    for name in EXACT:
        assert first[name] == second[name], name
        assert first[name][0] > 0, name


def test_traced_run_is_correct_and_emits_every_declared_metric(two_runs):
    declared = {m["name"] for m in BENCH["per_layer"]}
    for run in two_runs:
        assert run.correct, run.problems
        assert set(run.metrics) == declared
        assert run.metrics["store.hits"][0] == 3 * len(CAMPAIGN.expand())
        accounted = run.metrics["trace.accounted_frac"][0]
        assert 0.9 < accounted <= 1.0


def test_every_declared_metric_has_a_recorded_intent():
    assert set(LAYER_MAP) == {m["name"] for m in BENCH["per_layer"]}
    assert set(WORKLOADS) == {w["name"] for w in BENCH["workloads"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for moves, workloads in LAYER_MAP.values():
        assert set(moves) <= e2e and set(workloads) <= set(WORKLOADS)


def _single(goodput, acked):
    return {"payload": {"flow": {"goodput_bps": goodput,
                                 "bytes_acked": acked}}}


def test_unit_checks_flag_impossible_results():
    spec = RunSpec(config=SMALL, duration=1.0)
    assert unit_problems(spec, _single(5e6, 600_000)) == []
    assert unit_problems(spec, _single(11e6, 600_000))  # above the rate
    assert unit_problems(spec, _single(5e6, 2_000_000))  # above rate x horizon
    assert unit_problems(spec, _single(0.0, 0))
    assert unit_problems(spec, _single(float("nan"), 10))
