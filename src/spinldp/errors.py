"""Shared exception types.

Every module raises subclasses of SpinLDPError so the CLI can map runtime
failures to exit code 1 with the error name, and config problems to exit 2.
"""


class SpinLDPError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SpinLDPError):
    """Invalid experiment configuration (bad field, missing key, bad range)."""


class NonCoercive(SpinLDPError):
    """Convex conjugate is +infinity: objective keeps growing under bracket expansion."""


class NotConvex(SpinLDPError):
    """Midpoint-convexity violation detected on the probe grid."""


class PathLeavesDomain(SpinLDPError):
    """Closed-form extremal exits the admissible state interval."""


class NoFeasiblePath(SpinLDPError):
    """Every candidate trajectory has infinite action."""


class DomainExit(SpinLDPError):
    """Hamiltonian flow left the admissible state interval."""


class NotInRange(SpinLDPError):
    """Flux vector has a component outside range(D^T)."""


class Infeasible(SpinLDPError):
    """No nonnegative flux decomposition exists."""


class NotWellDefined(SpinLDPError):
    """Mass-constrained flux decomposition missing or non-unique."""


class DependenceSetTooLarge(SpinLDPError):
    """Observable's dependence set does not fit inside the torus."""


class SeriesNotConverged(SpinLDPError):
    """A truncated series did not meet its tail bound within its term budget."""


class SolverNotConverged(SpinLDPError):
    """An iterative solver spent its iteration budget with the iterate still moving."""
