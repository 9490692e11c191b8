"""Exception types shared across the package."""

from __future__ import annotations


class OrbitlbError(Exception):
    """Base class for all package-specific errors."""


class ParseError(OrbitlbError):
    """A line of an input file could not be parsed."""

    def __init__(self, path: str, line_no: int, message: str) -> None:
        self.path = path
        self.line_no = line_no
        self.message = message
        super().__init__(f"{path}:{line_no}: {message}")


class ValidationError(OrbitlbError):
    """Input data violates a structural invariant.

    ``violations`` lists every problem found, one human-readable string each.
    """

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class RoutingError(OrbitlbError):
    """A routing request cannot be satisfied (e.g. unreachable exit)."""


class PartitionError(OrbitlbError):
    """Partitioning parameters are infeasible for the given graph."""


class OracleGuardError(OrbitlbError):
    """Exhaustive enumeration refused because the search space is too large."""

    def __init__(self, combinations: int, limit: int) -> None:
        self.combinations = combinations
        self.limit = limit
        super().__init__(
            f"enumeration of {combinations} weight vectors exceeds the guard "
            f"limit of {limit}"
        )
