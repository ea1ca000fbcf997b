"""The six blend schemes and phase/gait trajectory composition.

A scheme names the constraint template of each of the three segments in a
phase; a segment's degree is its constraint count minus one. The "-1"
variants spend their spare constraints on boundary derivatives
(acceleration, jerk); the "-2" variants spend them on mid-segment position
pins. Segments are solved independently and matched only through shared
waypoint values, which is exactly why derivative orders constrained on a
single side of a via point jump there. Solved segments, the cached templates
and the stacked solve live here, beside the trajectories they feed.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, lru_cache
from itertools import zip_longest
from typing import Callable, Mapping, Sequence

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _gesv  # np.linalg.solve's, for a vector b

from .errors import (ConstraintCountMismatch, MissingWaypointDerivative, NonContiguousPhases,
                     OutOfDomain, SingularSystem, UnknownScheme)
from .poly import MAX_DERIVATIVE, Polynomial, _Record, horner_rows, is_order

ORDER_NAMES = ("position", "velocity", "acceleration", "jerk")
SEGMENT_START = 0.0
SEGMENT_END = 1.0

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


class Waypoint(_Record):
    """Kinematic values at one via or phase-boundary time.

    Derivatives are optional; a scheme that demands one the waypoint
    lacks fails loudly rather than silently assuming zero.
    """

    time: float
    position: float
    velocity: float | None = None
    acceleration: float | None = None
    jerk: float | None = None

    def __post_init__(self):  # else the solve fails, naming no waypoint
        for name in ("position", "velocity", "acceleration", "jerk"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"waypoint at t={self.time}: {name} {value!r} is not finite")

    def derivative(self, order: int) -> float | None:
        return (self.position, self.velocity, self.acceleration, self.jerk)[order]


class SchemeSpec(_Record):
    """Per-segment constraint templates; n constraints solve a degree n - 1 segment."""

    name: str
    segment_constraints: tuple[tuple[tuple[float, int], ...], ...]

    def __post_init__(self):
        if len(self.segment_constraints) != 3:
            raise ValueError(f"a phase has 3 segments, got {len(self.segment_constraints)}")
        for i, cons in enumerate(self.segment_constraints, start=1):
            if not cons:  # else the first solve fails in numpy, naming no segment
                raise ValueError(f"segment {i} has no constraints")
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
        identity-padded into one stack, and a phase's read plan: each entry of its row as
        (i, j), then the mid-points' entries. ``i = 4 * slot + order`` indexes the phase's
        16 values w0.position ... w3.jerk and a 0.0 (a mid-point reads 16, padding -1), and
        ``j = 4 * segment + order`` the 12 powers of its three spans, flattened."""
        pins = [tuple((k, tau) for tau, k in cons) for cons in self.segment_constraints]
        templates = [_template(len(p) - 1, p) for p in pins]
        width = max(map(len, pins))
        stack = np.tile(np.eye(width), (6, 1, 1))
        for padded, (m, _) in zip(stack, templates * 2):
            padded[:len(m), :len(m)] = m
        plan = [pin for g, cons in enumerate(self.segment_constraints)
                for pin in [(4 * {START: g, MID: 4, END: g + 1}[tau] + k, 4 * g + k)
                            for tau, k in cons] + [(-1, 4 * g)] * (width - len(cons))]
        mids = [m for m, (i, _) in enumerate(plan) if i == 16]
        return [(p, cond) for p, (_, cond) in zip(pins, templates)] * 2, stack, (plan, mids)


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


class SolvedSegment(_Record):
    """One solved segment on [t_start, t_end] seconds.

    ``pins`` are the (order, tau) pairs its constraints fixed, so two
    adjacent segments agree by construction on exactly the orders both pin
    to their shared waypoint.
    """

    polynomial: Polynomial
    t_start: float
    t_end: float
    condition_estimate: float
    pins: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        _check_span(self.t_start, self.t_end)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def kinematics(self, t):
        """Position, velocity, acceleration, jerk at physical time(s) t in
        [t_start, t_end]: this segment evaluated as a one-segment trajectory."""
        return tuple(evaluate(self._view, t, slice(None)))

    @cached_property
    def _view(self):
        """This segment as a one-row trajectory. A gait's segment is given a view of its
        row of the gait's arrays and table instead (not the gait: no reference cycle)."""
        return PiecewiseTrajectory((self,))._rows(slice(None))  # its arrays, not itself

    def pinned_orders(self, tau: float) -> frozenset[int]:
        """Derivative orders constrained at normalized time tau."""
        return frozenset(order for order, at in self.pins if at == tau)


def _check_span(t_start: float, t_end: float) -> tuple[float, float, float, float]:
    """(1.0, T, T**2, T**3) of the duration T, as floats: the one place they are formed."""
    T = float(t_end - t_start)
    try:
        powers = 1.0, T, T**2, T**3
        if T == math.inf:  # inf**3 is inf, and raises nothing
            raise OverflowError
    except OverflowError:  # Python's (34, 'Numerical result out of range') names nothing
        raise OverflowError(f"segment [{t_start}, {t_end}]: duration {T!r} to "
                            f"the power {MAX_DERIVATIVE} overflows") from None
    if not powers[MAX_DERIVATIVE] > 0:
        raise ValueError("segment must have t_end > t_start and a duration whose cube is "
                         f"nonzero, got [{t_start}, {t_end}]")
    return powers


@lru_cache(maxsize=256)
def _template(degree: int, pins: tuple[tuple[int, float], ...]):
    """Read-only tau-space matrix of the (order, tau) pins, and its
    infinity-norm condition number."""
    if len(pins) != degree + 1:
        raise ConstraintCountMismatch(
            f"degree {degree} needs exactly {degree + 1} constraints, got {len(pins)}"
        )
    matrix = np.array([
        [math.perm(j, k) * tau ** (j - k) if j >= k else 0.0 for j in range(degree + 1)]
        for k, tau in pins
    ])
    cond = float(np.linalg.cond(matrix, np.inf))
    if not math.isfinite(cond):
        raise SingularSystem(f"constraint matrix is singular: {_describe(pins)}")
    matrix.setflags(write=False)
    return matrix, cond


def _solve_stacked(slots, matrices, rhs) -> np.ndarray:
    """(slot, width) ascending coefficients: item p of ``matrices``, the template of
    ``slots[p] = (pins, cond)`` identity-padded, solved against row p of the flat ``rhs`` by
    ``_gesv``: numpy's ``solve1``, ``np.linalg.solve``'s kernel for a vector right side, so no
    (..., w, 1) view in or out. Padding solves to +0.0 (bit-identical to unpadded up to width 7).
    No fallback: operands are float64 in compiled shapes; ``_template`` refused singular ones.
    No errstate: gesv clears FP flags unless a pivot is 0. Checked finite; caller checked spans."""
    n = len(slots)
    b = np.fromiter(rhs, float, len(rhs)).reshape(n, -1)  # as np.array(rhs), but faster
    coeffs = _gesv(matrices[:n], b)
    if not np.isfinite(coeffs).all():  # a row's padding is finite if the rest of it is
        bad = next(pins for (pins, _), row in zip(slots, coeffs) if not np.isfinite(row).all())
        raise SingularSystem(f"solve produced non-finite coefficients: {_describe(bad)}")
    return coeffs


def _describe(pins: tuple[tuple[int, float], ...]) -> str:
    return ", ".join(f"{ORDER_NAMES[k]}@tau={tau:g}" for k, tau in pins)


class PiecewiseTrajectory:
    """Ordered, contiguous solved segments; evaluation is right-continuous at via times.
    Held as their zero-padded (segment, width) ascending coefficients, (t_start, t_end)
    spans and (pins, cond) slots: a solved gait builds ``segments`` only on first use."""

    def __init__(self, segments: Sequence[SolvedSegment]):
        self.segments = segments = tuple(segments)
        if not segments:
            raise ValueError("a trajectory needs at least one segment")
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

    _table = cached_property(lambda self: _build_table(self._coeffs[None], self._spans))


def _build_table(coeffs: np.ndarray, spans):
    """Shared segment starts, ``_check_span``'s T**k by (order, segment), and the one place that
    differentiates (``PolynomialReference`` reads a one-segment table too): (trajectory, segment,
    width) coefficients, order k + 1 from order k as ``i * c``, all at once, highest power first,
    zero-padded on the left into one (power, trajectory, order, segment) array."""
    c = coeffs.transpose(2, 0, 1)
    table = np.zeros((len(c), len(coeffs), MAX_DERIVATIVE + 1, len(spans)))
    powers = np.array([_check_span(a, b) for a, b in spans]).T
    # Past a row's bound on its reads, sum |c| / T**k, a fine grid finds the order that overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(MAX_DERIVATIVE + 1):
            table[k:, :, k] = c[::-1]
            c = c[1:] * np.arange(1.0, len(c))[:, None, None]
        if not np.isfinite(np.abs(table).sum(axis=0) / powers).all():
            taus = np.linspace(0.0, 1.0, 1025)[:, None, None, None]
            grid = _read_table(((), powers, table), np.arange(len(spans)), taus, slice(None))
            if (bad := ~np.isfinite(grid).all(axis=(0, 1)).T).any():  # by (segment, order)
                i, k = np.argwhere(bad)[0]
                raise OverflowError(f"segment [{spans[i][0]}, {spans[i][1]}]: its order {k} "
                                    f"({ORDER_NAMES[k]}) overflows")
    return np.array([a for a, _ in spans]), powers, table


def _read_table(table, idx, tau, order: int | slice):
    """Order(s) at normalized time ``tau`` on segments ``idx``, divided by T**k, one row per
    trajectory: the only reader of a table, Horner over its rows one power at a time."""
    _, powers, coeffs = table
    rows = (row.take(idx, axis=-1) for row in coeffs[:, :, order])
    values = horner_rows(rows, tau)  # a new array: each row has the trajectory axis
    values /= powers[order].take(idx, axis=-1)
    return values


def _stack(trajs: tuple):
    """The trajectories and one table of them all: a 1-tuple's cached one, else one built on the
    first one's spans, each trajectory's coefficients zero-padded to the widest."""
    if len(trajs) == 1:
        return trajs, trajs[0]._table
    spans = trajs[0]._spans if trajs else []
    coeffs = _padded(row for one in trajs for row in one._coeffs.tolist())
    return trajs, _build_table(coeffs.reshape(len(trajs), len(spans), coeffs.shape[1]), spans)


def _read_stack(stack, times: np.ndarray, rows: slice, order: int | slice):
    """Order(s) at ``times`` on segments ``rows`` of every trajectory of a ``_stack``: the one
    place that turns a time into a segment. Unchecked: the times lie in the rows' span and the
    trajectories share their segment times, so one ``searchsorted`` on the shared starts up to
    the rows' end finds each segment (a phase's end reads its last at tau 1)."""
    _, (starts, powers, _) = stack
    idx = np.searchsorted(starts[1:rows.stop], times, side="right")
    tau = times - starts.take(idx)
    tau /= powers[1].take(idx)
    return _read_table(stack[1], idx, tau, order)


def _padded(rows) -> np.ndarray:
    """Ascending coefficient rows zero-padded to the widest, as one (row, width) array."""
    return np.array(list(zip_longest(*rows, fillvalue=0.0)), ndmin=2).T


def evaluate(traj: PiecewiseTrajectory, t, order: int | slice = 0):
    """Derivative order(s) at time(s) t; right-continuous at via times.

    ``t`` is a float or an array; ``order`` is an int or a slice of the
    orders 0..3. A slice adds a leading axis, one row per order, so a
    float ``t`` returns a numpy float, or a 1-d array for a slice.
    """
    _check_order(order)
    times = np.asarray(t, dtype=float)
    outside = ~((traj.t_start <= times) & (times <= traj.t_end))
    if outside.any():
        raise OutOfDomain(f"t={times[outside][0]} outside trajectory span "
                          f"[{traj.t_start}, {traj.t_end}]")
    return _read_stack(_stack((traj,)), times, slice(len(traj._spans)), order)[0]


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
    if (len(stance_waypoints) and len(swing_waypoints)  # an empty phase fails the count check
            and stance_waypoints[-1].time != swing_waypoints[0].time):
        raise NonContiguousPhases(
            f"stance ends at {stance_waypoints[-1].time} but swing starts "
            f"at {swing_waypoints[0].time}"
        )
    return _solve_phases(scheme, [(stance_waypoints, stance_midpoints),
                                  (swing_waypoints, swing_midpoints)])


def _solve_phases(scheme: SchemeSpec, phases) -> PiecewiseTrajectory:
    """Check and read each (waypoints, midpoints) phase, then solve them all at once.
    The scheme's compile is read first, so a singular one raises before any phase."""
    slots, stack, (plan, mids) = scheme._compiled
    rhs, spans = [], []
    for waypoints, midpoints in phases:
        if len(waypoints) != 4:
            raise ValueError(f"a phase needs exactly 4 waypoints, got {len(waypoints)}")
        w0, w1, w2, w3 = waypoints
        t0, t1, t2, t3 = times = [w0.time, w1.time, w2.time, w3.time]
        if not t0 < t1 < t2 < t3:  # a NaN time too
            raise ValueError(f"waypoint times must be strictly increasing: {times}")
        limit = MIN_SEGMENT_FRACTION * (t3 - t0)
        if limit == math.inf:  # t1 and t2 lie strictly between t0 and t3
            if math.isinf(t0) or math.isinf(t3):
                raise ValueError(f"waypoint times must be finite: {times}")
            limit = 0.0  # a phase too long for a float: _check_span names its long segment
        if min(t1 - t0, t2 - t1, t3 - t2) < limit:
            raise ValueError(
                f"each segment must span at least {MIN_SEGMENT_FRACTION:g} of its "
                f"phase, got waypoint times {times}"
            )
        vals = [w0.position, w0.velocity, w0.acceleration, w0.jerk, w1.position, w1.velocity,
                w1.acceleration, w1.jerk, w2.position, w2.velocity, w2.acceleration, w2.jerk,
                w3.position, w3.velocity, w3.acceleration, w3.jerk, 0.0]
        # One pass reads the row; a refused span or a missing value (None) stops it. The
        # re-read checks each segment's span before its pins, so the first fault raises.
        try:
            pw = _check_span(t0, t1) + _check_span(t1, t2) + _check_span(t2, t3)
            row = [vals[i] * pw[j] for i, j in plan]
        except (ValueError, OverflowError, TypeError):
            row = [_read_pin(scheme, i, j, vals, times, midpoints,
                             _check_span(times[j >> 2], times[(j >> 2) + 1])) for i, j in plan]
        else:
            for m in mids:
                row[m] = _read_pin(scheme, *plan[m], vals, times, midpoints, None)
        rhs += row
        spans += (t0, t1), (t1, t2), (t2, t3)
    slots = slots[:len(spans)]
    return PiecewiseTrajectory._of(_solve_stacked(slots, stack, rhs), spans, slots)


def _read_pin(scheme: SchemeSpec, i: int, j: int, vals, times, midpoints, powers):
    """Plan entry (i, j)'s value times T**order, as the phase's row reads it, but on its own."""
    slot, (segment, order) = i >> 2, divmod(j, 4)
    if slot == 4:
        t_mid = 0.5 * (times[segment] + times[segment + 1])
        if not callable(midpoints) and segment not in (midpoints or {}):
            raise MissingWaypointDerivative(
                f"scheme {scheme.name} needs a mid-point position for segment {segment + 1} "
                f"(t={t_mid}) and none was supplied")
        value = float(midpoints(t_mid) if callable(midpoints) else midpoints[segment])
        if not math.isfinite(value):  # else the solve fails, naming no segment
            raise ValueError(f"scheme {scheme.name} segment {segment + 1} (t={t_mid}): "
                             f"mid-point position {value!r} is not finite")
        return value
    value = vals[i]
    if value is None:
        raise MissingWaypointDerivative(
            f"scheme {scheme.name} segment {segment + 1} needs derivative order {order} "
            f"at t={times[slot]}, but the waypoint does not define it"
        )
    return value * powers[order]


# Default phase timing (seconds). Stance via times follow the analyzed
# 0.12 s / 0.48 s split of a 0.6 s stance; swing splits its 0.4 s span in
# the same 20% / 60% / 20% proportion.
DEFAULT_STANCE_TIMES = (0.0, 0.12, 0.48, 0.6)
DEFAULT_SWING_TIMES = (0.6, 0.68, 0.92, 1.0)
