"""Offline weight search by simulated annealing.

The search walks integer weight vectors: one uniformly chosen link weight
moves by +1 or -1 (clamped to stay at least 1) per step.  A vector's energy
is the max link utilization of the greedily admitted stream plus 1.0 for
every rejected demand, so one scalar drives both utilization and acceptance.
Moves are accepted by the Metropolis rule; the best vector ever visited is
returned, so the result never regresses as the schedule lengthens.  Each
trial is routed with the current vector's result as ``prev``, so only the
demands a move touches are routed again.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import ValidationError
from .model import NfviGraph, ServiceDemand
from .routing import StreamResult, route_stream, unit_weights

REJECTION_PENALTY = 1.0


@dataclass(frozen=True)
class AnnealingSchedule:
    initial_temperature: float = 1.0
    cooling: float = 0.95
    iterations_per_level: int = 100
    stop_temperature: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        for name, t in (("initial", self.initial_temperature), ("stop", self.stop_temperature)):
            if not (math.isfinite(t) and t > 0):
                problems.append(f"{name} temperature must be finite and positive, got {t}")
        if not (0 < self.cooling < 1):
            problems.append(f"cooling factor must be in (0, 1), got {self.cooling}")
        if self.iterations_per_level < 0:
            problems.append(f"iterations per level must be >= 0, got {self.iterations_per_level}")
        if problems:
            raise ValidationError(problems)


@dataclass
class SaResult:
    w: dict[str, int]
    report_result: StreamResult
    energy: float
    best_energy_trace: tuple[float, ...]

    @property
    def report(self):
        return self.report_result.report

    @property
    def acceptance_ratio(self) -> float:
        return self.report_result.acceptance_ratio


def _energy(result: StreamResult) -> float:
    return result.report.r + REJECTION_PENALTY * len(result.rejected_ids)


def simulated_annealing(
    g: NfviGraph, demands: list[ServiceDemand], schedule: AnnealingSchedule | None = None
) -> SaResult:
    """Best weight vector found under the schedule, deterministic per seed.

    A zero-iteration schedule returns the unit-weight starting point
    unchanged.
    """
    if schedule is None:
        schedule = AnnealingSchedule()
    rng = random.Random(schedule.seed)
    link_ids = list(g.link_ids)
    current_w = unit_weights(g)
    current_result = route_stream(g, current_w, demands)
    current_e = _energy(current_result)
    best_w = dict(current_w)
    best_result = current_result
    best_e = current_e
    trace = [best_e]
    temperature = schedule.initial_temperature
    while temperature > schedule.stop_temperature and link_ids:
        for _ in range(schedule.iterations_per_level):
            eid = link_ids[rng.randrange(len(link_ids))]
            step = 1 if rng.random() < 0.5 else -1
            proposed = max(1, current_w[eid] + step)
            if proposed == current_w[eid]:
                trace.append(best_e)
                continue
            trial_w = dict(current_w)
            trial_w[eid] = proposed
            trial_result = route_stream(g, trial_w, demands, current_result)
            trial_e = _energy(trial_result)
            delta = trial_e - current_e
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current_w, current_result, current_e = trial_w, trial_result, trial_e
            if trial_e < best_e:
                best_w, best_result, best_e = dict(trial_w), trial_result, trial_e
            trace.append(best_e)
        temperature *= schedule.cooling
    return SaResult(
        w=best_w,
        report_result=best_result,
        energy=best_e,
        best_energy_trace=tuple(trace),
    )
