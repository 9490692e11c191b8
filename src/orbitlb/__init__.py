"""Online and offline load balancing for service-chained traffic.

The package models a network of capacitated links and function-hosting
nodes, routes traffic over equal-cost multipath shortest paths, and offers
three solvers for the weight/admission problem: an exhaustive weight
oracle, a simulated-annealing search, and an online group-based admission
algorithm with provable cost guarantees.
"""

from __future__ import annotations

from importlib import resources

from .annealing import AnnealingSchedule, SaResult, simulated_annealing
from .errors import (
    OracleGuardError,
    OrbitlbError,
    ParseError,
    PartitionError,
    RoutingError,
    ValidationError,
)
from .fileio import (
    format_number,
    load_demands,
    load_topology,
    serialize_demands,
    serialize_topology,
    write_text,
)
from .milp import (
    FeasibilityReport,
    MilpModel,
    SolutionCandidate,
    build_model,
    candidate_from_routing,
    check_solution,
    export_lp,
    write_lp,
)
from .model import DemandStream, Link, NfviGraph, ServiceDemand
from .oracle import OracleResult, exact_oracle
from .orbit import (
    AdmissionDecision,
    GuaranteeReport,
    OrbitState,
    process_demand,
    run_stream,
    verify_guarantees,
)
from .partition import Partition, Partitioning, partition
from .routing import (
    FlowAllocation,
    ShortestPathField,
    StreamResult,
    UtilizationReport,
    ecmp_dag,
    max_link_utilization,
    route_all,
    route_demand_sfc,
    route_stream,
    select_waypoints,
    shortest_path_field,
    unit_weights,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissionDecision",
    "AnnealingSchedule",
    "DemandStream",
    "FeasibilityReport",
    "FlowAllocation",
    "GuaranteeReport",
    "Link",
    "MilpModel",
    "NfviGraph",
    "OracleGuardError",
    "OracleResult",
    "OrbitState",
    "OrbitlbError",
    "ParseError",
    "Partition",
    "PartitionError",
    "Partitioning",
    "RoutingError",
    "SaResult",
    "ServiceDemand",
    "ShortestPathField",
    "SolutionCandidate",
    "StreamResult",
    "UtilizationReport",
    "ValidationError",
    "build_model",
    "candidate_from_routing",
    "check_solution",
    "dataset_path",
    "ecmp_dag",
    "exact_oracle",
    "export_lp",
    "format_number",
    "load_demands",
    "load_topology",
    "max_link_utilization",
    "partition",
    "process_demand",
    "route_all",
    "route_demand_sfc",
    "route_stream",
    "run_stream",
    "select_waypoints",
    "serialize_demands",
    "serialize_topology",
    "shortest_path_field",
    "simulated_annealing",
    "unit_weights",
    "verify_guarantees",
    "write_lp",
    "write_text",
]


def dataset_path(name: str) -> str:
    """Filesystem path of a bundled dataset file, e.g. ``internet2.topo``."""
    ref = resources.files(__package__).joinpath("datasets", name)
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled dataset named {name!r}")
    return str(ref)
