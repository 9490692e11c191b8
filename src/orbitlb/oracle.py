"""Exhaustive search for the weight vector minimizing max link utilization.

Every integer weight vector in {1..w_max}^|E| is enumerated in lexicographic
order (link declaration order, first link most significant).  A vector is
feasible when every demand routes through its chain and the combined
allocation respects all link bandwidths and node compute capacities.  Ties
on the objective keep the lexicographically smallest vector.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import OracleGuardError
from .fileio import csv_text
from .model import NfviGraph, ServiceDemand
from .routing import route_all

GUARD_LIMIT = 10**7
LOG_LIMIT = 10000


@dataclass(frozen=True)
class OracleEntry:
    w: tuple[int, ...]
    feasible: bool
    r: float  # nan when some demand cannot be routed at all


@dataclass
class OracleResult:
    best_w: dict[str, int] | None
    best_r: float | None
    combinations: int
    log: tuple[OracleEntry, ...]

    @property
    def feasible(self) -> bool:
        return self.best_w is not None

    def log_csv(self) -> str:
        return csv_text(
            "w_vector,feasible,r",
            ((" ".join(map(str, e.w)), int(e.feasible), e.r) for e in self.log),
        )


def exact_oracle(
    g: NfviGraph,
    demands: list[ServiceDemand],
    w_max: int,
    log_limit: int = LOG_LIMIT,
) -> OracleResult:
    """Minimize r over all weight vectors by direct enumeration.

    Refuses instances above 10^7 combinations.  The feasibility log keeps
    the first ``log_limit`` entries; the enumeration count is always exact.
    """
    link_ids = list(g.link_ids)
    combinations = w_max ** len(link_ids)
    if combinations > GUARD_LIMIT:
        raise OracleGuardError(combinations, GUARD_LIMIT)
    best_w: tuple[int, ...] | None = None
    best_r: float | None = None
    log: list[OracleEntry] = []
    result = None
    for combo in itertools.product(range(1, w_max + 1), repeat=len(link_ids)):
        w = dict(zip(link_ids, combo))
        # the previous vector differs in the last links only
        result = route_all(g, w, demands, result)
        if result is None:
            feasible = False
            r = math.nan
        else:
            r = result.report.r
            feasible = result.report.within_capacity()
        if len(log) < log_limit:
            log.append(OracleEntry(combo, feasible, r))
        # strict improvement keeps the lexicographically first optimum
        if feasible and (best_r is None or r < best_r):
            best_w, best_r = combo, r
    return OracleResult(
        best_w=dict(zip(link_ids, best_w)) if best_w is not None else None,
        best_r=best_r,
        combinations=combinations,
        log=tuple(log),
    )
