"""Piecewise polynomial gait trajectories with via-point accuracy analysis."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConstraintCountMismatch,
    MissingWaypointDerivative,
    NonContiguousPhases,
    NumericalBlowup,
    OutOfDomain,
    PspbError,
    SeriesMismatch,
    SingularSystem,
    UnknownScheme,
)
from .metrics import (
    ContinuityReport,
    SampledSeries,
    ade,
    continuity_report,
    mae,
    rmse,
    sample,
    via_point_rmse,
)
from .poly import Polynomial, differentiate
from .reference import (
    CsvReference,
    PolynomialReference,
    SinusoidReference,
    waypoints_from_reference,
)
from .schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    SCHEME_NAMES,
    PiecewiseTrajectory,
    SchemeSpec,
    Waypoint,
    builtin_scheme,
    evaluate,
    generate_gait,
    generate_phase,
)
from .solver import (
    SEGMENT_END,
    SEGMENT_START,
    Constraint,
    SolvedSegment,
    residuals,
    solve_segment,
)
from .simulation import (
    THIGH,
    TRUNK,
    BodyParams,
    PDGains,
    SimState,
    hip_dynamics,
    pd_torque,
    simulate_tracking,
)

__all__ = [
    "ConfigError", "ConstraintCountMismatch", "MissingWaypointDerivative",
    "NonContiguousPhases", "NumericalBlowup", "OutOfDomain", "PspbError",
    "SeriesMismatch", "SingularSystem", "UnknownScheme", "ContinuityReport",
    "SampledSeries", "ade", "continuity_report", "mae", "rmse", "sample",
    "via_point_rmse", "Polynomial", "differentiate", "CsvReference",
    "PolynomialReference", "SinusoidReference", "waypoints_from_reference",
    "DEFAULT_STANCE_TIMES", "DEFAULT_SWING_TIMES", "SCHEME_NAMES",
    "PiecewiseTrajectory", "SchemeSpec", "Waypoint", "builtin_scheme", "evaluate",
    "generate_gait", "generate_phase", "SEGMENT_END", "SEGMENT_START", "Constraint",
    "SolvedSegment", "residuals", "solve_segment", "THIGH", "TRUNK", "BodyParams",
    "PDGains", "SimState", "hip_dynamics", "pd_torque", "simulate_tracking",
]
