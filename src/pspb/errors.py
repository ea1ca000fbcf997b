"""Exception types raised across the package.

Bad input raises ``ValueError`` or a ``PspbError`` subclass whose message names the
argument at fault: its field, segment, time or pin. A numerical failure on valid input
raises ``SingularSystem``, ``NumericalBlowup`` or ``OverflowError``. A value of the wrong
Python type may raise ``TypeError``. The tests check this rule for the inputs README.md
lists, not for every public call on every float.
"""


class PspbError(Exception):
    """Base class for all package errors."""


class ConstraintCountMismatch(PspbError):
    """Constraint count does not equal degree + 1 (system not square)."""


class SingularSystem(PspbError):
    """Constraint matrix is singular (duplicate or contradictory anchors)."""


class UnknownScheme(PspbError):
    """Scheme name is not one of the six built-in identifiers."""


class MissingWaypointDerivative(PspbError):
    """A scheme demands a derivative value the waypoint does not carry."""


class NonContiguousPhases(PspbError):
    """Stance end time and swing start time do not chain."""


class OutOfDomain(PspbError):
    """Evaluation time lies outside the trajectory span, or a CSV reference's times."""


class SeriesMismatch(PspbError):
    """Two sampled series differ in time grid or derivative order."""


class NumericalBlowup(PspbError):
    """Simulated state exceeded sanity bounds (diverged controller)."""


class ConfigError(PspbError):
    """Invalid run configuration."""
