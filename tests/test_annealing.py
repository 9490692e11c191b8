"""Annealing weight search: determinism, monotone best trace, schedules."""

from __future__ import annotations

import math

import pytest

from orbitlb.errors import ValidationError
from orbitlb.annealing import AnnealingSchedule, simulated_annealing
from orbitlb.model import ServiceDemand
from orbitlb.oracle import exact_oracle
from tests.conftest import chain_graph

FAST = AnnealingSchedule(iterations_per_level=20, stop_temperature=0.1, seed=1)


def test_single_link_energy_is_ratio():
    g = chain_graph([10.0])
    d = ServiceDemand(0, "v0", "v1", 4.0, ())
    result = simulated_annealing(g, [d], FAST)
    assert result.energy == 0.4
    assert result.report.r == 0.4
    assert result.acceptance_ratio == 1.0


def test_zero_iterations_returns_unit_weights():
    g = chain_graph([10.0, 10.0])
    d = ServiceDemand(0, "v0", "v2", 4.0, ())
    schedule = AnnealingSchedule(iterations_per_level=0, seed=0)
    result = simulated_annealing(g, [d], schedule)
    assert result.w == {"p0": 1, "p1": 1}
    assert result.best_energy_trace == (0.4,)


def test_finds_diamond_optimum(diamond, diamond_demand):
    schedule = AnnealingSchedule(iterations_per_level=40, stop_temperature=0.05, seed=2)
    result = simulated_annealing(diamond, [diamond_demand], schedule)
    assert result.energy == 0.8  # full volume admitted over the wide path
    assert result.acceptance_ratio == 1.0


def test_energy_never_beats_exhaustive_optimum(diamond, diamond_demand):
    oracle = exact_oracle(diamond, [diamond_demand], w_max=3)
    for seed in range(5):
        schedule = AnnealingSchedule(iterations_per_level=15, stop_temperature=0.2, seed=seed)
        result = simulated_annealing(diamond, [diamond_demand], schedule)
        assert result.energy >= oracle.best_r - 1e-9


def test_weights_stay_at_least_one(diamond, diamond_demand):
    result = simulated_annealing(diamond, [diamond_demand], FAST)
    assert all(v >= 1 for v in result.w.values())


def test_best_trace_is_monotone_nonincreasing(diamond, diamond_demand):
    result = simulated_annealing(diamond, [diamond_demand], FAST)
    trace = result.best_energy_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[-1] == result.energy


def test_same_seed_is_deterministic(diamond, diamond_demand):
    a = simulated_annealing(diamond, [diamond_demand], FAST)
    b = simulated_annealing(diamond, [diamond_demand], FAST)
    assert a.w == b.w
    assert a.energy == b.energy
    assert a.best_energy_trace == b.best_energy_trace


def test_rejections_penalize_energy():
    g = chain_graph([10.0])
    demands = [
        ServiceDemand(0, "v0", "v1", 10.0, ()),
        ServiceDemand(1, "v0", "v1", 10.0, ()),  # cannot fit alongside
    ]
    result = simulated_annealing(g, demands, FAST)
    assert result.energy == pytest.approx(2.0)  # r = 1 plus one rejection
    assert result.acceptance_ratio == 0.5


def test_schedule_validation():
    with pytest.raises(ValidationError):
        AnnealingSchedule(initial_temperature=0.0)
    with pytest.raises(ValidationError):
        AnnealingSchedule(cooling=1.0)
    with pytest.raises(ValidationError):
        AnnealingSchedule(iterations_per_level=-1)
    with pytest.raises(ValidationError):
        AnnealingSchedule(stop_temperature=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            AnnealingSchedule(initial_temperature=bad)
        with pytest.raises(ValidationError):
            AnnealingSchedule(stop_temperature=bad)
