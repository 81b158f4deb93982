"""The fluid restricted rule's inline PID step against ``PIDController``.

:class:`repro.fluid.model.RestrictedFluid` writes the controller step out
inline instead of calling :class:`repro.control.pid.PIDController`.  These
tests drive both with the same (occupancy, dt) sequences and require
bit-identical results: the rule's increment equals the controller's output
passed through the set-point guard (the rule's code before the inlining,
kept here as the reference), and the integral terms agree after every step.
"""

from __future__ import annotations

import random
import struct

import pytest

from repro.control.pid import PIDController, PIDGains
from repro.core.config import RestrictedSlowStartConfig
from repro.errors import ControlError
from repro.fluid.model import RestrictedFluid


def _bits(value: float) -> bytes:
    """IEEE-754 bit pattern, so 0.0 and -0.0 count as different."""
    return struct.pack("<d", float(value))


class _Reference:
    """The restricted rule as a guard around a real ``PIDController``."""

    def __init__(self, config: RestrictedSlowStartConfig, ack_quantum: float) -> None:
        self.config = config
        self.ack_quantum = ack_quantum
        self.pid = PIDController(
            config.resolved_gains(),
            setpoint=config.setpoint_fraction,
            output_min=config.min_increment_per_ack,
            output_max=config.max_increment_per_ack,
            derivative_filter_tau=config.derivative_filter_tau,
        )

    def increment(self, acked: float, occupancy: float, capacity: int,
                  dt: float) -> float:
        output = self.pid.update(occupancy, dt)
        guard = self.config.hard_setpoint_guard
        if guard and occupancy >= self.config.setpoint_fraction:
            output = min(output, 0.0)
        delta = output * acked
        if guard and delta > 0.0 and capacity > 0:
            headroom = (self.config.setpoint_fraction - occupancy) * capacity
            delta = min(delta, max(headroom, 0.0) + output * self.ack_quantum)
        return delta

    def on_reduction(self) -> None:
        if self.config.reset_integral_on_congestion:
            self.pid.reset()


def _random_config(rng: random.Random, case: int) -> RestrictedSlowStartConfig:
    kp = rng.choice([0.0, rng.uniform(0.01, 5.0), rng.uniform(5.0, 200.0)])
    # cycle through ki = 0 and kd = 0 so every combination is covered
    ki = 0.0 if case % 4 in (0, 1) else rng.uniform(0.01, 400.0)
    kd = 0.0 if case % 4 in (0, 2) else rng.uniform(0.001, 2.0)
    low = rng.choice([-1.0, -0.5, 0.0])
    return RestrictedSlowStartConfig(
        setpoint_fraction=rng.choice([0.9, rng.uniform(0.3, 1.0)]),
        gains=PIDGains(kp=kp, ki=ki, kd=kd),
        max_increment_per_ack=rng.choice([1.0, rng.uniform(0.1, 3.0)]),
        min_increment_per_ack=low,
        derivative_filter_tau=0.0 if case % 8 < 4 else rng.uniform(1e-4, 0.05),
        hard_setpoint_guard=rng.random() < 0.75,
        reset_integral_on_congestion=rng.random() < 0.75,
    )


def _drive(config: RestrictedSlowStartConfig, rng: random.Random,
           steps: int = 400) -> None:
    quantum = rng.choice([1.0, 2.0, 3.0])
    rule = RestrictedFluid(config, ack_quantum=quantum)
    reference = _Reference(config, quantum)
    capacity = rng.choice([0, 5, 20, 100, 1000])
    occupancy = rng.uniform(0.0, 1.0)
    for step in range(steps):
        # a random walk with jumps well past both clamps
        if rng.random() < 0.1:
            occupancy = rng.uniform(-2.0, 4.0)
        else:
            occupancy += rng.gauss(0.0, 0.05)
        dt = rng.choice([1e-5, 1e-4, rng.uniform(1e-4, 0.05), 0.2])
        acked = rng.uniform(0.0, 64.0)
        got = rule.increment(acked, 10.0, occupancy, capacity, dt)
        want = reference.increment(acked, occupancy, capacity, dt)
        assert _bits(got) == _bits(want), (step, got, want)
        assert _bits(rule._integral) == _bits(reference.pid.integral), step
        if rng.random() < 0.03:
            rule.on_reduction()
            reference.on_reduction()
            assert _bits(rule._integral) == _bits(reference.pid.integral), step


@pytest.mark.parametrize("case", range(48))
def test_random_configs_match_pid_controller(case):
    rng = random.Random(1000 + case)
    _drive(_random_config(rng, case), rng)


@pytest.mark.parametrize("rtt", [0.01, 0.06, 0.2])
def test_path_default_config_matches_pid_controller(rtt):
    _drive(RestrictedSlowStartConfig.for_path(rtt), random.Random(int(rtt * 1e3)))


def test_guard_off_increment_is_raw_controller_output():
    config = RestrictedSlowStartConfig.for_path(0.06, hard_setpoint_guard=False)
    rule = RestrictedFluid(config)
    pid = _Reference(config, 2.0).pid
    for occupancy in (0.0, 0.5, 0.95, 1.5, -0.3, 0.89):
        assert _bits(rule.increment(1.0, 10.0, occupancy, 100, 0.01)) == _bits(
            pid.update(occupancy, 0.01))


def test_occupancy_exactly_at_the_set_point_grants_nothing():
    # integral action built up below the set point keeps the raw output
    # positive at the set point itself; the guard must zero it there
    config = RestrictedSlowStartConfig(gains=PIDGains(kp=1.0, ki=20.0))
    rule = RestrictedFluid(config)
    reference = _Reference(config, 2.0)
    setpoint = config.setpoint_fraction
    for occupancy in (0.1, 0.2, 0.3, setpoint):
        got = rule.increment(4.0, 10.0, occupancy, 100, 0.01)
        assert _bits(got) == _bits(reference.increment(4.0, occupancy, 100, 0.01))
    assert reference.pid.last_output > 0.0
    assert got == 0.0


def test_saturated_loop_bleeds_integral_like_the_controller():
    # an occupancy pinned far below the set point saturates the output at
    # its maximum; back-calculation must bound the integral identically
    config = RestrictedSlowStartConfig(gains=PIDGains(kp=2.0, ki=50.0, kd=0.1),
                                       derivative_filter_tau=0.005)
    rule = RestrictedFluid(config)
    reference = _Reference(config, 2.0)
    for _ in range(500):
        got = rule.increment(4.0, 10.0, 0.0, 100, 0.001)
        want = reference.increment(4.0, 0.0, 100, 0.001)
        assert _bits(got) == _bits(want)
    assert reference.pid.last_output == config.max_increment_per_ack
    assert _bits(rule._integral) == _bits(reference.pid.integral)


def test_non_positive_dt_rejected_like_the_controller():
    rule = RestrictedFluid()
    with pytest.raises(ControlError):
        rule.increment(1.0, 10.0, 0.5, 100, 0.0)
    with pytest.raises(ControlError):
        PIDController(PIDGains(kp=1.0), setpoint=0.9).update(0.5, 0.0)
