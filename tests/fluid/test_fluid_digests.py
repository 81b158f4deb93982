"""Payload digest pins for the fluid engines.

Each case executes one small fluid spec and hashes its result payload: the
canonical JSON the result store keeps, with the telemetry sidecar left
out.  The spec cases cover the three fluid integrators and the restricted
controller inside each of them:

* a restricted and a Reno single flow on a small IFQ (``FluidFlowModel``;
  both stall, the Reno flow inside a growth burst);
* an 8-flow Reno/restricted mix with staggered starts
  (``FluidMultiFlowModel``);
* a 64-flow Reno/restricted mix (``FluidPopulationModel``, restricted flows
  on its side channel);
* a churned restricted population (``FluidPopulationModel`` with streamed
  departures).

The spec-level stack only runs the stock send-stall policy, so model-level
cases (raw engine results) cover the other two: Reno and restricted single
flows and an 8-flow mix under ``CLAMP_ONLY`` and ``IGNORE``, and a
``CLAMP_ONLY`` 64-flow vector mix on shared sender queues.

A moved digest means the engines compute different numbers.  Speed work on
these engines must leave every digest in place; a deliberate change to the
model updates the pins and says why.  Print the current digests with
``PYTHONPATH=src python tests/fluid/test_fluid_digests.py``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.results_io import result_document, to_jsonable
from repro.fluid.model import (
    FluidFlowInput,
    FluidFlowModel,
    FluidMultiFlowModel,
    fluid_growth_rule,
)
from repro.fluid.vector import FlowArrivalSpec, FluidPopulationModel
from repro.spec import MultiFlowSpec, RunSpec, dumbbell, execute
from repro.tcp.state import LocalCongestionPolicy
from repro.workloads.scenarios import PathConfig


def _mixed(n: int) -> list[str]:
    return ["reno" if i % 2 == 0 else "restricted" for i in range(n)]


def _cases() -> dict[str, object]:
    small_ifq = PathConfig(bottleneck_rate_bps=100e6, rtt=0.06,
                           ifq_capacity_packets=12)
    mix = PathConfig(bottleneck_rate_bps=120e6, rtt=0.05)
    churn_path = PathConfig(bottleneck_rate_bps=60e6, rtt=0.1)
    return {
        "restricted_single": RunSpec(cc="restricted", config=small_ifq,
                                     duration=4.0, backend="fluid"),
        "reno_single": RunSpec(cc="reno", config=small_ifq, duration=4.0,
                               backend="fluid"),
        "scalar_mix_8": MultiFlowSpec(
            scenario=dumbbell(mix, 8, ccs=_mixed(8),
                              start_times=[0.1 * i for i in range(8)]),
            duration=4.0, backend="fluid"),
        "vector_mix_64": MultiFlowSpec(
            scenario=dumbbell(mix, 64, ccs=_mixed(64)),
            duration=1.0, backend="fluid"),
        "churn_restricted": MultiFlowSpec(
            scenario=dumbbell(churn_path, 2, ccs="restricted"),
            duration=1.0, backend="fluid",
            churn=FlowArrivalSpec(rate_per_s=400.0, mean_size_bytes=60e3,
                                  cc="restricted")),
    }


def _mix_inputs(config: PathConfig, n: int, share: int) -> list[FluidFlowInput]:
    """``n`` alternating Reno/restricted flows, ``share`` per sender IFQ."""
    ccs = _mixed(n)
    return [FluidFlowInput(name=f"flow{i}", cc=ccs[i],
                           rule=fluid_growth_rule(ccs[i], config), ifq=i // share)
            for i in range(n)]


def _policy_runs() -> dict[str, object]:
    """Model-level runs under the non-default send-stall policies."""
    runs = {}
    small_ifq = PathConfig(bottleneck_rate_bps=100e6, rtt=0.06,
                           ifq_capacity_packets=12)
    mix = PathConfig(bottleneck_rate_bps=120e6, rtt=0.05,
                     ifq_capacity_packets=12)
    for policy in (LocalCongestionPolicy.CLAMP_ONLY, LocalCongestionPolicy.IGNORE):
        name = policy.name.lower()
        for cc in ("reno", "restricted"):
            runs[f"{name}_{cc}_single"] = lambda policy=policy, cc=cc: FluidFlowModel(
                small_ifq, fluid_growth_rule(cc, small_ifq),
                options=small_ifq.tcp_options(local_congestion_policy=policy),
            ).run(4.0)
        runs[f"{name}_scalar_mix_8"] = lambda policy=policy: FluidMultiFlowModel(
            mix, _mix_inputs(mix, 8, 1),
            options=mix.tcp_options(local_congestion_policy=policy),
        ).run(3.0)
    runs["clamp_only_vector_shared_64"] = lambda: FluidPopulationModel(
        mix, _mix_inputs(mix, 64, 4),
        options=mix.tcp_options(local_congestion_policy=LocalCongestionPolicy.CLAMP_ONLY),
    ).run(1.0)
    return runs


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def payload_digest(spec) -> str:
    """sha256 of the canonical payload JSON of ``spec``'s result."""
    return _sha256(result_document(execute(spec))["payload"])


def run_digest(name: str) -> str:
    """sha256 of the canonical JSON of a model-level run's raw result."""
    return _sha256(to_jsonable(_policy_runs()[name]()))


#: case -> sha256 of its payload, taken before the restricted controller
#: step was inlined into the fluid engines.
PINNED = {
    "reno_single":
        "1ff4d7ac771a47052ba2527e27e99634d6616ab39f07effb2c885c44538f57cb",
    "restricted_single":
        "b7353ba4998fa9cb0ecb85437481ade780c4c30acb5d1753f284067e58d023a0",
    "scalar_mix_8":
        "4bfa9bdfcc75e545937c8928430c7fea4a7cdbbd532684aefa9d76dae2ba54a1",
    "vector_mix_64":
        "0887204ad3911e692b9b369aebce043455aac73607fa676d61007b3e21bf0c76",
    "churn_restricted":
        "6b4d75874b5134270546d5628632067dbb5f0799a5830ac3ccb64e64494f21cd",
}


#: model-level run -> sha256 of its raw result, taken at the same point.
PINNED_RUNS = {
    "clamp_only_reno_single":
        "6cd908db0171c4f9f8e41101a710a70372025250cf5a555cd701a6541e880b9c",
    "ignore_reno_single":
        "d4e0922a7a6611a938878230d50ece59344fcf7af803a016b7f6292241728a0f",
    "clamp_only_restricted_single":
        "ee044e3f1a04a0e28c7c9a937195506b09d433fd8f30eaca048461c572529217",
    "clamp_only_scalar_mix_8":
        "9b58abc97c638aaf818b28e307c734afd8070dc36bbc638042ed6c483e9624bb",
    "ignore_restricted_single":
        "ca668f03eadf2b696975774a9da71c8d2f03cf6dd896dedb038808ffd92e74c9",
    "ignore_scalar_mix_8":
        "81ae9658e8d70c4871f2c4ff784f740f3a1c21964cae0361136c9c446e0ed322",
    "clamp_only_vector_shared_64":
        "47327e37f6651b1145dd75b7eca03a6753e5bc0eb5cdae2bc1ce9fe4673ad162",
}


def test_every_case_is_pinned():
    assert set(_cases()) == set(PINNED)
    assert set(_policy_runs()) == set(PINNED_RUNS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_payload_digest(name):
    assert payload_digest(_cases()[name]) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_policy_run_digest(name):
    assert run_digest(name) == PINNED_RUNS[name]


if __name__ == "__main__":
    for name, spec in _cases().items():
        print(f'    "{name}": "{payload_digest(spec)}",')
    for name in _policy_runs():
        print(f'    "{name}": "{run_digest(name)}",')
