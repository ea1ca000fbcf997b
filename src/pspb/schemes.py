"""The six blend schemes and phase/gait trajectory composition.

A scheme names the constraint template of each of the three segments in a
phase; a segment's degree is its constraint count minus one. The "-1"
variants spend their spare constraints on boundary derivatives
(acceleration, jerk); the "-2" variants spend them on mid-segment position
pins. Segments are solved independently and matched only through shared
waypoint values, which is exactly why derivative orders constrained on a
single side of a via point jump there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import zip_longest
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    MissingWaypointDerivative,
    NonContiguousPhases,
    OutOfDomain,
    UnknownScheme,
)
from .poly import MAX_DERIVATIVE, Polynomial, horner_rows, is_order
from .solver import SEGMENT_END, SEGMENT_START, SolvedSegment, _solve_stacked, _template

# Where a constraint sits, as normalized segment time tau.
START, MID, END = SEGMENT_START, 0.5, SEGMENT_END

# Shortest segment generate_phase accepts, as a fraction of its phase. A
# shorter one is a timing typo, and its derivatives explode as 1/T^k.
MIN_SEGMENT_FRACTION = 1e-6

# (tau, derivative order) per segment, in solve order. P=0, V=1, A=2, J=3.
_PVA = [(START, 0), (START, 1), (START, 2), (END, 0), (END, 1), (END, 2)]
_PV_PV = [(START, 0), (START, 1), (END, 0), (END, 1)]

_SCHEME_TABLES: dict[str, tuple[list, ...]] = {
    "434-1": (
        [(START, 0), (START, 1), (START, 2), (END, 0), (END, 1)],
        _PV_PV,
        [(START, 0), (START, 1), (END, 0), (END, 1), (END, 2)],
    ),
    "434-2": (
        [(START, 0), (START, 1), (MID, 0), (END, 0), (END, 1)],
        _PV_PV,
        [(START, 0), (START, 1), (MID, 0), (END, 0), (END, 1)],
    ),
    "545-1": (
        [(START, 0), (START, 1), (START, 2), (START, 3), (END, 0), (END, 1)],
        [(START, 0), (START, 1), (START, 2), (END, 0), (END, 1)],
        _PVA,
    ),
    "545-2": (
        _PVA,
        [(START, 0), (START, 1), (MID, 0), (END, 0), (END, 1)],
        _PVA,
    ),
    "656-1": (
        [(START, 0), (START, 1), (START, 2), (START, 3),
         (END, 0), (END, 1), (END, 2)],
        _PVA,
        [(START, 0), (START, 1), (START, 2),
         (END, 0), (END, 1), (END, 2), (END, 3)],
    ),
    "656-2": (
        [(START, 0), (START, 1), (START, 2), (MID, 0),
         (END, 0), (END, 1), (END, 2)],
        _PVA,
        [(START, 0), (START, 1), (START, 2), (MID, 0),
         (END, 0), (END, 1), (END, 2)],
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
    """Per-segment constraint templates; n constraints solve a degree n - 1 segment."""

    name: str
    segment_constraints: tuple[tuple[tuple[float, int], ...], ...]

    def __post_init__(self):
        if len(self.segment_constraints) != 3:
            raise ValueError(f"a phase has 3 segments, got {len(self.segment_constraints)}")
        for tau, order in (pin for cons in self.segment_constraints for pin in cons):
            # Pin values come from the waypoints or the mid-point source only.
            if tau not in (START, MID, END):
                raise ValueError(f"pin {(tau, order)}: tau must be START, MID or END")
            if not is_order(order):
                raise ValueError(f"pin {(tau, order)}: order must be in 0..{MAX_DERIVATIVE}")
            if tau == MID and order != 0:
                raise ValueError("mid-point constraints must be position-only")

    @property
    def segment_degrees(self) -> tuple[int, ...]:
        return tuple(len(cons) - 1 for cons in self.segment_constraints)

    @cached_property
    def _compiled(self):
        """(pins, cond) of all six segments, stance then swing, their templates
        identity-padded into one stack, and per segment each pin's source and order,
        then its mid-point pins' places. The source is int(2 * tau): 0 the start
        waypoint, 1 a mid-point, 2 the end one; 3 pads every row to the widest."""
        pins = [tuple((k, tau) for tau, k in cons) for cons in self.segment_constraints]
        templates = [_template(len(p) - 1, p) for p in pins]
        width = max(map(len, pins))
        stack = np.tile(np.eye(width), (6, 1, 1))
        for padded, (m, _) in zip(stack, templates * 2):
            padded[:len(m), :len(m)] = m
        plan = [([(int(2 * tau), k) for tau, k in cons] + [(3, 0)] * (width - len(cons)),
                 [j for j, (tau, _) in enumerate(cons) if tau == MID])
                for cons in self.segment_constraints]
        return [(p, cond) for p, (_, cond) in zip(pins, templates)] * 2, stack, plan


@cache
def builtin_scheme(name: str) -> SchemeSpec:
    """Look up one of 434-1, 434-2, 545-1, 545-2, 656-1, 656-2, built once per name."""
    try:
        constraints = _SCHEME_TABLES[name]
    except KeyError:
        raise UnknownScheme(
            f"unknown scheme {name!r}; expected one of {', '.join(SCHEME_NAMES)}"
        ) from None
    return SchemeSpec(name, tuple(tuple(c) for c in constraints))


class PiecewiseTrajectory:
    """Ordered, contiguous solved segments; evaluation is right-continuous at via times.
    Held as their zero-padded (segment, width) ascending coefficients, (t_start, t_end)
    spans and (pins, cond) slots: a solved gait builds ``segments`` only on first use."""

    def __init__(self, segments: Sequence[SolvedSegment]):
        self.segments = segments = tuple(segments)
        for left, right in zip(segments, segments[1:]):
            if left.t_end != right.t_start:
                raise ValueError("segments must be contiguous")
        self._coeffs = _padded(s.polynomial.coefficients for s in segments)
        self._spans = [(s.t_start, s.t_end) for s in segments]
        self._slots = [(s.pins, s.condition_estimate) for s in segments]

    @classmethod
    def _of(cls, coeffs: np.ndarray, spans: list, slots: list) -> PiecewiseTrajectory:
        """A trajectory on a solve's arrays, with no segment objects."""
        traj = cls.__new__(cls)
        traj._coeffs, traj._spans, traj._slots = coeffs, spans, slots
        return traj

    def _rows(self, rows: slice) -> PiecewiseTrajectory:
        """Segments ``rows`` as a trajectory on views of these arrays."""
        return self._of(self._coeffs[rows], self._spans[rows], self._slots[rows])

    @cached_property
    def segments(self) -> tuple[SolvedSegment, ...]:
        """Built on first use. Each is given as its ``_view`` a one-row view of these arrays
        and of this table (not of this trajectory: no reference cycle)."""
        segments = []
        for i, (c, (pins, cond)) in enumerate(zip(self._coeffs, self._slots)):
            segments.append(SolvedSegment(Polynomial(tuple(c[:len(pins)].tolist())),
                                          *self._spans[i], cond, pins))
            view = vars(segments[-1])["_view"] = self._rows(slice(i, i + 1))
            view._table = tuple(part[..., i:i + 1] for part in self._table)
        return tuple(segments)

    @property
    def t_start(self) -> float:
        return self._spans[0][0]

    @property
    def t_end(self) -> float:
        return self._spans[-1][1]

    @property
    def via_times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self._spans[1:])

    _table = cached_property(lambda self: _build_table(self._coeffs, self._spans))


def _build_table(coeffs: np.ndarray, spans):
    """Segment starts, T**k by (order, segment), and the one place that differentiates:
    order k + 1 from order k as ``i * c`` (``differentiate``'s bits), all segments at once,
    highest power first, zero-padded on the left into one (power, order, segment) array."""
    c = coeffs.T
    table = np.zeros((len(c), MAX_DERIVATIVE + 1, len(spans)))
    for k in range(MAX_DERIVATIVE + 1):
        table[k:, k] = c[::-1]
        c = c[1:] * np.arange(1.0, len(c))[:, None]
    powers = [[(b - a)**k for a, b in spans] for k in range(MAX_DERIVATIVE + 1)]
    return np.array([a for a, _ in spans]), np.array(powers), table


def _read_table(table, idx, tau, order: int | slice):
    """Order(s) at normalized time ``tau`` on segments ``idx``, divided by T**k: the only
    reader of a table, Horner over its rows one power at a time, only the orders asked."""
    _, powers, coeffs = table
    rows = (row.take(idx, axis=-1) for row in coeffs[:, order])
    return horner_rows(rows, tau) / powers[order].take(idx, axis=-1)


def _stack(traj):
    """A trajectory or a tuple's: its table (cached, or stacked) and each one's rows in it."""
    if not isinstance(traj, tuple):
        return (traj,), traj._table, [(0, len(traj._spans))]
    ends = np.cumsum([0] + [len(one._spans) for one in traj])
    coeffs = _padded(row for one in traj for row in one._coeffs.tolist())
    spans = [span for one in traj for span in one._spans]
    return traj, _build_table(coeffs, spans), zip(ends, ends[1:])


def _padded(rows) -> np.ndarray:
    """Ascending coefficient rows zero-padded to the widest, as one (row, width) array."""
    return np.array(list(zip_longest(*rows, fillvalue=0.0)), ndmin=2).T


def evaluate(traj: PiecewiseTrajectory | tuple[PiecewiseTrajectory, ...], t,
             order: int | slice = 0):
    """Derivative order(s) at time(s) t; right-continuous at via times.

    ``t`` is a float or an array; ``order`` is an int or a slice of the
    orders 0..3. A slice adds a leading axis, one row per order, so a
    float ``t`` returns a numpy float, or a 1-d array for a slice. A tuple of
    trajectories is read at the same times from one table stacked over all their
    segments: a trajectory axis follows any order axis.
    """
    _check_order(order)
    times = np.asarray(t, dtype=float)
    trajs, table, rows = _stack(traj)
    starts, powers, _ = table
    idx = []
    for one, (first, end) in zip(trajs, rows):
        outside = ~((one.t_start <= times) & (times <= one.t_end))
        if outside.any():
            raise OutOfDomain(f"t={times[outside][0]} outside trajectory span "
                              f"[{one.t_start}, {one.t_end}]")
        idx.append(np.searchsorted(starts[first + 1:end], times, side="right") + first)
    idx = (np.array(idx, np.intp).reshape(len(trajs), *times.shape) if isinstance(traj, tuple)
           else idx[0])  # a tuple's (trajectory, *times.shape) indices, the empty tuple's too
    return _read_table(table, idx, (times - starts.take(idx)) / powers[1].take(idx), order)


def _check_order(order: int | slice):
    """A ValueError unless ``order`` is an order (``is_order``: so not a bool,
    which numpy would read as a mask) or a slice selecting one."""
    if not (range(MAX_DERIVATIVE + 1)[order] if isinstance(order, slice) else is_order(order)):
        raise ValueError(f"order {order!r} selects none of the orders 0..{MAX_DERIVATIVE}")


MidpointSource = Mapping[int, float] | Callable[[float], float] | None


def generate_phase(
    scheme: SchemeSpec,
    waypoints: Sequence[Waypoint],
    midpoint_positions: MidpointSource = None,
) -> PiecewiseTrajectory:
    """Solve the three segments of one phase from four waypoints.

    ``midpoint_positions`` supplies mid-segment position pins for the "-2"
    variants: either a mapping from segment index to position or a callable
    sampled at the segment's mid time.
    """
    return _solve_phases(scheme, [(waypoints, midpoint_positions)])


def generate_gait(
    scheme: SchemeSpec,
    stance_waypoints: Sequence[Waypoint],
    swing_waypoints: Sequence[Waypoint],
    stance_midpoints: MidpointSource = None,
    swing_midpoints: MidpointSource = None,
) -> PiecewiseTrajectory:
    """One full gait cycle: stance phase then swing phase, six segments."""
    if stance_waypoints[-1].time != swing_waypoints[0].time:
        raise NonContiguousPhases(
            f"stance ends at {stance_waypoints[-1].time} but swing starts "
            f"at {swing_waypoints[0].time}"
        )
    return _solve_phases(scheme, [(stance_waypoints, stance_midpoints),
                                  (swing_waypoints, swing_midpoints)])


def _solve_phases(scheme: SchemeSpec, phases) -> PiecewiseTrajectory:
    """Check and read each (waypoints, midpoints) phase, then solve them all at once.
    The scheme's compile is read first, so a singular one raises before any phase."""
    slots, stack, plan = scheme._compiled
    rhs, spans = [], []
    for waypoints, midpoints in phases:
        if len(waypoints) != 4:
            raise ValueError(f"a phase needs exactly 4 waypoints, got {len(waypoints)}")
        times = [w.time for w in waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"waypoint times must be strictly increasing: {times}")
        if any(b - a < MIN_SEGMENT_FRACTION * (times[-1] - times[0])
               for a, b in zip(times, times[1:])):
            raise ValueError(
                f"each segment must span at least {MIN_SEGMENT_FRACTION:g} of its "
                f"phase, got waypoint times {times}"
            )
        values = [(w.position, w.velocity, w.acceleration, w.jerk) for w in waypoints]
        for i, (pins, mids) in enumerate(plan):
            ends = values[i], (0.0,), values[i + 1], (0.0,)
            T = times[i + 1] - times[i]
            try:  # a missing value (None) or an overflowing power stops this read
                powers = 1.0, T, T**2, T**3
                row = [ends[e][k] * powers[k] for e, k in pins]
            except (TypeError, OverflowError):  # so read pin by pin: the first bad one raises
                row = [_read_pin(scheme, i, e, k, ends, times, midpoints) for e, k in pins]
            else:
                for j in mids:
                    row[j] = _read_pin(scheme, i, 1, 0, ends, times, midpoints)
            rhs += row
            spans.append((times[i], times[i + 1]))
    slots = slots[:len(spans)]
    return PiecewiseTrajectory._of(_solve_stacked(slots, stack, rhs, spans), spans, slots)


def _read_pin(scheme: SchemeSpec, segment: int, source: int, order: int, ends, times,
              midpoints):
    """One pin's value times T**order, as the segment's row reads it, but on its own."""
    if source == 1:
        t_mid = 0.5 * (times[segment] + times[segment + 1])
        if callable(midpoints):
            return float(midpoints(t_mid))
        if midpoints is not None and segment in midpoints:
            return float(midpoints[segment])
        raise MissingWaypointDerivative(
            f"scheme {scheme.name} needs a mid-point position for segment "
            f"{segment + 1} (t={t_mid}) and none was supplied"
        )
    value = ends[source][order]
    if value is None:
        raise MissingWaypointDerivative(
            f"scheme {scheme.name} segment {segment + 1} needs derivative order {order} "
            f"at t={times[segment + source // 2]}, but the waypoint does not define it"
        )
    return value * (times[segment + 1] - times[segment])**order


# Default phase timing (seconds). Stance via times follow the analyzed
# 0.12 s / 0.48 s split of a 0.6 s stance; swing splits its 0.4 s span in
# the same 20% / 60% / 20% proportion.
DEFAULT_STANCE_TIMES = (0.0, 0.12, 0.48, 0.6)
DEFAULT_SWING_TIMES = (0.6, 0.68, 0.92, 1.0)
