"""Accuracy and smoothness metrics: RMSE/ADE, via-point windows, continuity.

ADE here is RMSE / sqrt(N): the reported-error pairs this package mirrors
all share a constant RMSE/ADE ratio of sqrt(101), which pins both the
formula and the default sample count of 101. A conventional
mean-absolute-error is available separately as ``mae`` since that is what
most readers expect "average error" to mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SeriesMismatch
from .poly import MAX_DERIVATIVE
from .schemes import (
    SEGMENT_END, SEGMENT_START, PiecewiseTrajectory, _check_order, _read_stack, _read_table, _stack,
    evaluate,
)

DEFAULT_SAMPLES = 101
DEFAULT_VIA_WINDOW = 0.01  # seconds either side of a via point
VIA_WINDOW_SAMPLES = 21  # per via window, endpoints included

# ref(t, order), read like evaluate: a float or an array of times in, the
# same shape out.
Reference = Callable[[float | np.ndarray, int], float | np.ndarray]


@dataclass(frozen=True)
class SampledSeries:
    """One derivative order of a trajectory on a strictly increasing grid."""

    times: np.ndarray
    values: np.ndarray
    order: int
    unit: str = ""

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape or times.ndim != 1:
            raise ValueError("times and values must be 1-d and the same length")
        if len(times) < 2:
            raise ValueError("a series needs at least 2 samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def sample(traj: PiecewiseTrajectory, n: int = DEFAULT_SAMPLES,
           order: int = 0) -> SampledSeries:
    """n uniform samples over the trajectory span, endpoints included."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    times = np.linspace(traj.t_start, traj.t_end, n)
    values = evaluate(traj, times, order)
    return SampledSeries(times, values, order, unit=f"deg/s^{order}" if order else "deg")


def _check_pair(a: SampledSeries, b: SampledSeries):
    if a.order != b.order:
        raise SeriesMismatch(f"order mismatch: {a.order} vs {b.order}")
    if len(a.times) != len(b.times) or not np.array_equal(a.times, b.times):
        raise SeriesMismatch("series are sampled on different time grids")


def _rms(err: np.ndarray):  # over the last axis
    return np.sqrt(np.mean(err**2, axis=-1))


def rmse(a: SampledSeries, b: SampledSeries) -> float:
    _check_pair(a, b)
    return float(_rms(a.values - b.values))


def ade(a: SampledSeries, b: SampledSeries) -> float:
    """RMSE / sqrt(N); see module docstring for where this comes from."""
    return rmse(a, b) / math.sqrt(len(a.values))


def mae(a: SampledSeries, b: SampledSeries) -> float:
    """Plain mean absolute error, for readers who expect that semantics."""
    _check_pair(a, b)
    return float(np.mean(np.abs(a.values - b.values)))


@dataclass(frozen=True)
class ViaWindowError:
    """Windowed RMSE around one via point."""

    via_time: float
    rmse: float
    window: tuple[float, float]
    clipped: bool


def via_point_rmse(
    traj: PiecewiseTrajectory,
    reference: Reference,
    order: int | slice = 0,
    window: float = DEFAULT_VIA_WINDOW,
) -> list:
    """RMSE of traj vs reference over [v - window, v + window] per via point.

    Windows that would spill past the trajectory domain are clipped and
    flagged. ``order`` is an int or, as in ``evaluate``, a slice of orders
    0..3 that returns one list per order from one evaluation. ``reference``
    is called once per order, as reference(times, order), one row per window.
    """
    if not window > 0:  # NaN included
        raise ValueError(f"window must be positive, got {window}")
    _check_order(order)
    rows = order if isinstance(order, slice) else slice(order, order + 1)
    (windows,) = _via_windows(_stack((traj,)), reference, rows, window)
    results = [[ViaWindowError(*row) for row in per_order] for per_order in windows]
    return results if isinstance(order, slice) else results[0]


def _via_windows(stack, reference: Reference, rows: slice, window: float) -> list:
    """Per trajectory of a ``_stack`` on one span and via times, per order in ``rows`` and
    per via point: a ``ViaWindowError``'s fields."""
    if not (trajs := stack[0]):
        return []
    t0, t1, vias = trajs[0].t_start, trajs[0].t_end, trajs[0].via_times
    lo, hi = [max(v - window, t0) for v in vias], [min(v + window, t1) for v in vias]
    times = np.linspace(lo, hi, VIA_WINDOW_SAMPLES, axis=-1)
    expected = np.array([reference(times, k) for k in range(MAX_DERIVATIVE + 1)[rows]])
    rms = _rms(_read_stack(stack, times, slice(len(vias) + 1), rows) - expected)
    return [[[[v, r, (a, b), v - window < t0 or v + window > t1]
              for v, a, b, r in zip(vias, lo, hi, per_order)]
             for per_order in per_traj] for per_traj in rms.tolist()]


@dataclass(frozen=True)
class ContinuityJump:
    """One derivative order at one via point."""

    via_time: float
    order: int
    jump: float
    constrained_both_sides: bool


@dataclass(frozen=True)
class ContinuityReport:
    jumps: tuple[ContinuityJump, ...]

    def at(self, via_time: float, order: int) -> ContinuityJump:
        for j in self.jumps:
            if j.via_time == via_time and j.order == order:
                return j
        raise KeyError((via_time, order))


def continuity_report(traj: PiecewiseTrajectory) -> ContinuityReport:
    """|right limit - left limit| per via point per order, exact at tau 1 on each segment
    but the last and tau 0 on the next (sampling could straddle or miss a via time)."""
    (jumps,) = _jumps(_stack((traj,)))
    return ContinuityReport(tuple(ContinuityJump(*jump) for jump in jumps))


def _jumps(stack):
    """Per trajectory of a ``_stack``, a list of each jump's ``ContinuityJump`` fields."""
    trajs, table = stack
    end, start = _read_table(table, np.arange(len(table[0])),
                             np.reshape([SEGMENT_END, SEGMENT_START], (2, 1, 1, 1)), slice(None))
    jumps = np.abs(start[..., 1:] - end[..., :-1]).swapaxes(1, 2).tolist()  # row i to i + 1
    for one, per_row in zip(trajs, jumps):
        report = []
        for (pins, _), (after, _), (via, _), per_order in zip(
                one._slots, one._slots[1:], one._spans[1:], per_row):
            both = ({k for k, at in pins if at == SEGMENT_END}
                    & {k for k, at in after if at == SEGMENT_START})
            report += [[via, order, jump, order in both] for order, jump in enumerate(per_order)]
        yield report
