"""The six blend schemes and phase/gait trajectory composition.

A scheme names the polynomial degree and constraint allocation of each of
the three segments in a phase. The "-1" variants spend their spare
constraints on boundary derivatives (acceleration, jerk); the "-2"
variants spend them on mid-segment position pins. Segments are solved
independently and matched only through shared waypoint values, which is
exactly why derivative orders constrained on a single side of a via point
jump there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    MissingWaypointDerivative,
    NonContiguousPhases,
    OutOfDomain,
    UnknownScheme,
)
from .poly import MAX_DERIVATIVE
from .solver import (
    MID_POINT,
    SEGMENT_END,
    SEGMENT_START,
    Anchor,
    Constraint,
    SolvedSegment,
    solve_segment,
)

START, MID, END = "start", "mid", "end"

# (side, derivative order) per segment, in solve order. P=0, V=1, A=2, J=3.
_PVA = [(START, 0), (START, 1), (START, 2), (END, 0), (END, 1), (END, 2)]
_PV_PV = [(START, 0), (START, 1), (END, 0), (END, 1)]

_SCHEME_TABLES: dict[str, tuple[tuple[int, ...], tuple[list, ...]]] = {
    "434-1": (
        (4, 3, 4),
        (
            [(START, 0), (START, 1), (START, 2), (END, 0), (END, 1)],
            _PV_PV,
            [(START, 0), (START, 1), (END, 0), (END, 1), (END, 2)],
        ),
    ),
    "434-2": (
        (4, 3, 4),
        (
            [(START, 0), (START, 1), (MID, 0), (END, 0), (END, 1)],
            _PV_PV,
            [(START, 0), (START, 1), (MID, 0), (END, 0), (END, 1)],
        ),
    ),
    "545-1": (
        (5, 4, 5),
        (
            [(START, 0), (START, 1), (START, 2), (START, 3), (END, 0), (END, 1)],
            [(START, 0), (START, 1), (START, 2), (END, 0), (END, 1)],
            _PVA,
        ),
    ),
    "545-2": (
        (5, 4, 5),
        (
            _PVA,
            [(START, 0), (START, 1), (MID, 0), (END, 0), (END, 1)],
            _PVA,
        ),
    ),
    "656-1": (
        (6, 5, 6),
        (
            [(START, 0), (START, 1), (START, 2), (START, 3),
             (END, 0), (END, 1), (END, 2)],
            _PVA,
            [(START, 0), (START, 1), (START, 2),
             (END, 0), (END, 1), (END, 2), (END, 3)],
        ),
    ),
    "656-2": (
        (6, 5, 6),
        (
            [(START, 0), (START, 1), (START, 2), (MID, 0),
             (END, 0), (END, 1), (END, 2)],
            _PVA,
            [(START, 0), (START, 1), (START, 2), (MID, 0),
             (END, 0), (END, 1), (END, 2)],
        ),
    ),
}

SCHEME_NAMES = tuple(_SCHEME_TABLES)


@dataclass(frozen=True)
class Waypoint:
    """Kinematic values at one via or phase-boundary time.

    Derivatives are optional; a scheme that demands one the waypoint
    lacks fails loudly rather than silently assuming zero.
    """

    time: float
    position: float
    velocity: float | None = None
    acceleration: float | None = None
    jerk: float | None = None

    def derivative(self, order: int) -> float | None:
        return (self.position, self.velocity, self.acceleration, self.jerk)[order]


@dataclass(frozen=True)
class SchemeSpec:
    """Segment degrees plus per-segment constraint template."""

    name: str
    segment_degrees: tuple[int, int, int]
    segment_constraints: tuple[tuple[tuple[str, int], ...], ...]

    def __post_init__(self):
        for degree, cons in zip(self.segment_degrees, self.segment_constraints):
            if len(cons) != degree + 1:
                raise ValueError(
                    f"scheme {self.name}: segment of degree {degree} has "
                    f"{len(cons)} constraints, needs {degree + 1}"
                )
            if any(side == MID and order != 0 for side, order in cons):
                raise ValueError("mid-point constraints must be position-only")

    @property
    def family(self) -> str:
        return "".join(str(d) for d in self.segment_degrees)

    def boundary_orders(self, segment: int, side: str) -> frozenset[int]:
        """Derivative orders constrained at one end of one segment."""
        return frozenset(
            order for s, order in self.segment_constraints[segment] if s == side
        )


def builtin_scheme(name: str) -> SchemeSpec:
    """Look up one of 434-1, 434-2, 545-1, 545-2, 656-1, 656-2."""
    try:
        degrees, constraints = _SCHEME_TABLES[name]
    except KeyError:
        raise UnknownScheme(
            f"unknown scheme {name!r}; expected one of {', '.join(SCHEME_NAMES)}"
        ) from None
    return SchemeSpec(name, degrees, tuple(tuple(c) for c in constraints))


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Ordered solved segments with the constraint orders at each boundary.

    ``boundary_orders[i]`` is (start orders, end orders) of segment i; the
    continuity report uses them to flag which jumps are zero by
    construction. Evaluation is right-continuous at via times.
    """

    segments: tuple[SolvedSegment, ...]
    boundary_orders: tuple[tuple[frozenset[int], frozenset[int]], ...]
    phase_label: str = "full"

    def __post_init__(self):
        for left, right in zip(self.segments, self.segments[1:]):
            if left.t_end != right.t_start:
                raise ValueError("segments must be contiguous")

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    @property
    def via_times(self) -> tuple[float, ...]:
        return tuple(s.t_start for s in self.segments[1:])


def evaluate(traj: PiecewiseTrajectory, t, order: int | slice = 0):
    """Derivative order(s) at time(s) t; right-continuous at via times.

    ``t`` is a float or an array; ``order`` is an int or a slice of the
    orders 0..3. Array times give one row per selected order.
    """
    times = np.asarray(t, dtype=float)
    inside = (traj.t_start <= times) & (times <= traj.t_end)
    if not inside.all():
        raise OutOfDomain(
            f"t={times[~inside][0]} outside trajectory span "
            f"[{traj.t_start}, {traj.t_end}]"
        )
    idx = np.searchsorted(traj.via_times, times, side="right")
    if times.ndim == 0:
        return traj.segments[idx].kinematics(t)[order]
    values = np.empty((MAX_DERIVATIVE + 1, *times.shape))
    for i in np.unique(idx):
        values[:, idx == i] = traj.segments[i].kinematics(times[idx == i])
    return values[order]


MidpointSource = Mapping[int, float] | Callable[[float], float] | None
SideOverrides = Mapping[tuple[int, str, int], float] | None


def generate_phase(
    scheme: SchemeSpec,
    waypoints: Sequence[Waypoint],
    midpoint_positions: MidpointSource = None,
    side_overrides: SideOverrides = None,
    phase_label: str = "full",
) -> PiecewiseTrajectory:
    """Solve the three segments of one phase from four waypoints.

    ``midpoint_positions`` supplies mid-segment position pins for the "-2"
    variants: either a mapping from segment index to position or a callable
    sampled at the segment's mid time. ``side_overrides`` maps
    (segment, side, order) to a value that replaces the shared waypoint
    value on that side only; it exists to reproduce deliberately
    mismatched via-point values.
    """
    if len(waypoints) != 4:
        raise ValueError(f"a phase needs exactly 4 waypoints, got {len(waypoints)}")
    times = [w.time for w in waypoints]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"waypoint times must be strictly increasing: {times}")

    segments = []
    orders = []
    for i in range(3):
        w_start, w_end = waypoints[i], waypoints[i + 1]
        constraints = []
        for side, order in scheme.segment_constraints[i]:
            if side == MID:
                value = _midpoint_value(
                    midpoint_positions, i, 0.5 * (w_start.time + w_end.time), scheme
                )
                constraints.append(Constraint(0, MID_POINT, value))
                continue
            anchor = SEGMENT_START if side == START else SEGMENT_END
            waypoint = w_start if side == START else w_end
            if side_overrides and (i, side, order) in side_overrides:
                value = side_overrides[(i, side, order)]
            else:
                value = waypoint.derivative(order)
                if value is None:
                    raise MissingWaypointDerivative(
                        f"scheme {scheme.name} segment {i + 1} needs "
                        f"derivative order {order} at t={waypoint.time}, "
                        "but the waypoint does not define it"
                    )
            constraints.append(Constraint(order, anchor, value))
        segments.append(solve_segment(
            scheme.segment_degrees[i], constraints, w_start.time, w_end.time
        ))
        orders.append((scheme.boundary_orders(i, START), scheme.boundary_orders(i, END)))

    return PiecewiseTrajectory(tuple(segments), tuple(orders), phase_label)


def generate_gait(
    scheme: SchemeSpec,
    stance_waypoints: Sequence[Waypoint],
    swing_waypoints: Sequence[Waypoint],
    stance_midpoints: MidpointSource = None,
    swing_midpoints: MidpointSource = None,
    side_overrides: SideOverrides = None,
) -> PiecewiseTrajectory:
    """One full gait cycle: stance phase then swing phase, six segments."""
    if stance_waypoints[-1].time != swing_waypoints[0].time:
        raise NonContiguousPhases(
            f"stance ends at {stance_waypoints[-1].time} but swing starts "
            f"at {swing_waypoints[0].time}"
        )
    stance = generate_phase(
        scheme, stance_waypoints, stance_midpoints, side_overrides, "stance"
    )
    swing = generate_phase(scheme, swing_waypoints, swing_midpoints, None, "swing")
    return PiecewiseTrajectory(
        stance.segments + swing.segments,
        stance.boundary_orders + swing.boundary_orders,
        "full",
    )


def _midpoint_value(
    source: MidpointSource, segment: int, t_mid: float, scheme: SchemeSpec
) -> float:
    if callable(source):
        return float(source(t_mid))
    if source is not None and segment in source:
        return float(source[segment])
    raise MissingWaypointDerivative(
        f"scheme {scheme.name} needs a mid-point position for segment "
        f"{segment + 1} (t={t_mid}) and none was supplied"
    )


# Default phase timing (seconds). Stance via times follow the analyzed
# 0.12 s / 0.48 s split of a 0.6 s stance; swing splits its 0.4 s span in
# the same 20% / 60% / 20% proportion.
DEFAULT_STANCE_TIMES = (0.0, 0.12, 0.48, 0.6)
DEFAULT_SWING_TIMES = (0.6, 0.68, 0.92, 1.0)
