"""Metric arithmetic: tail percentiles, pace scaling, span self time and
layer attribution."""

import os
import statistics
from types import SimpleNamespace

import pytest

from perfbench import measure
from perfbench.layers import SpanRecorder, layer_of
from perfbench.pace import PACE_REF_S, scaled
from perfbench.stats import quartile_spread, tail_p90

ROOT = os.path.join(os.sep, "checkout", "src", "repro")


def test_p90_needs_ten_samples_beyond_it():
    # 91 samples: p90 = 81.0 and only 82..90 (nine samples) lie beyond it
    assert tail_p90([float(i) for i in range(91)]) is None
    value, beyond = tail_p90([float(i) for i in range(100)])
    assert value == pytest.approx(89.1)
    assert beyond == 10


def test_p90_counts_only_samples_strictly_beyond():
    # ties at the top leave fewer than ten samples beyond the percentile
    assert tail_p90([1.0] * 80 + [2.0] * 40) is None


def test_quartile_spread_matches_statistics():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, median, q3, spread = quartile_spread(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert spread == pytest.approx((q3 - q1) / median)


class _Clock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_covered_children():
    # outer 0..10 holds middle 1..7, which holds leaves 2..3 and 4..6
    recorder = SpanRecorder(clock=_Clock(0, 1, 2, 3, 4, 6, 7, 10))
    leaf = recorder.wrap("leaf", lambda: None)
    middle = recorder.wrap("middle", lambda: (leaf(), leaf()))
    recorder.wrap("outer", middle)()
    assert [(s[1], s[2]) for s in recorder.spans] == [
        (None, "outer"), (0, "middle"), (1, "leaf"), (1, "leaf")]
    assert recorder.self_times() == {"outer": 4, "middle": 3, "leaf": 3}


def test_campaign_overhead_subtracts_only_execute_children():
    # run_campaign 0..5 holds execute 1..2 and store.get 2.5..3
    recorder = SpanRecorder(clock=_Clock(0.0, 1.0, 2.0, 2.5, 3.0, 5.0))
    execute = recorder.wrap("execute", lambda: None)
    get = recorder.wrap("store.get", lambda: None)
    recorder.wrap("run_campaign", lambda: (execute(), get()))()
    assert recorder.campaign_overhead() == pytest.approx(4.0)
    assert recorder.self_times()["run_campaign"] == pytest.approx(3.5)


@pytest.mark.parametrize("relative, layer", [
    ("sim/engine.py", "sim"),
    ("net/aqm.py", "net"),
    ("tcp/stack.py", "tcp"),
    ("tcp/cc/cubic.py", "tcp.cc"),
    ("control/pid.py", "control"),
    ("fluid/vector.py", "fluid"),
    ("units.py", "other"),
    ("lint/engine.py", "other"),
])
def test_layer_attribution_by_path(relative, layer):
    assert layer_of(os.path.join(ROOT, *relative.split("/")), ROOT) == layer


@pytest.mark.parametrize("filename", [
    "~",
    os.path.join(os.sep, "usr", "lib", "python3", "json", "encoder.py"),
    os.path.join(os.sep, "checkout", "src", "repro_extra", "sim", "x.py"),
])
def test_code_outside_repro_is_ext(filename):
    assert layer_of(filename, ROOT) == "ext"


def test_pace_scales_by_the_mean_of_the_bracketing_probes():
    assert scaled(1.0, PACE_REF_S, PACE_REF_S) == pytest.approx(1.0)
    assert scaled(1.0, 2 * PACE_REF_S, 2 * PACE_REF_S) == pytest.approx(0.5)
    assert scaled(3.0, PACE_REF_S, 2 * PACE_REF_S) == pytest.approx(2.0)


def test_cold_pass_keeps_pace_probes_out_of_unit_latencies(monkeypatch):
    # each unit takes 1 tick and each probe 5; probes bracket every unit
    now = [0.0]
    monkeypatch.setattr(measure, "clock", lambda: now[0])

    def probe():
        now[0] += 5.0
        return 5.0

    def run(campaign, store, max_workers, progress):
        units = []
        for i in range(3):
            now[0] += 1.0
            store.written[f"k{i}"] = {"payload": {}}
            units.append(SimpleNamespace(status="computed", cache_key=f"k{i}",
                                         label=f"unit{i}"))
            progress(units[-1], i + 1, 3)
        return SimpleNamespace(units=units)

    store = SimpleNamespace(written={})
    cold = measure.cold_pass(None, store, run=run, probe=probe)
    assert cold.latencies == [1.0, 1.0, 1.0]
    assert cold.paces == [5.0] * 4
    assert list(cold.documents) == ["k0", "k1", "k2"]
