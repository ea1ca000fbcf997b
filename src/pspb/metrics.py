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
from .schemes import PiecewiseTrajectory, evaluate

DEFAULT_SAMPLES = 101
DEFAULT_VIA_WINDOW = 0.01  # seconds either side of a via point

Reference = Callable[[float, int], float]


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


def rmse(a: SampledSeries, b: SampledSeries) -> float:
    _check_pair(a, b)
    return float(np.sqrt(np.mean((a.values - b.values) ** 2)))


def ade(a: SampledSeries, b: SampledSeries) -> float:
    """RMSE / sqrt(N); see module docstring for where this comes from."""
    _check_pair(a, b)
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
    order: int = 0,
    window: float = DEFAULT_VIA_WINDOW,
    samples_per_window: int = 21,
) -> list[ViaWindowError]:
    """RMSE of traj vs reference over [v - window, v + window] per via point.

    Windows that would spill past the trajectory domain are clipped and
    flagged. ``reference`` is called as reference(t, order).
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    out = []
    for v in traj.via_times:
        lo, hi = v - window, v + window
        clipped = lo < traj.t_start or hi > traj.t_end
        lo, hi = max(lo, traj.t_start), min(hi, traj.t_end)
        times = np.linspace(lo, hi, samples_per_window)
        err = evaluate(traj, times, order) - [reference(t, order) for t in times]
        out.append(ViaWindowError(v, float(np.sqrt(np.mean(err**2))), (lo, hi), clipped))
    return out


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
    """|right limit - left limit| per via point per order, computed
    analytically from the segment polynomials (sampling could straddle or
    miss a via time; the polynomials are exact)."""
    jumps = []
    for i, v in enumerate(traj.via_times):
        left, right = traj.segments[i], traj.segments[i + 1]
        left_vals = left.kinematics(left.t_end)
        right_vals = right.kinematics(right.t_start)
        left_orders = traj.boundary_orders[i][1]
        right_orders = traj.boundary_orders[i + 1][0]
        for order in range(4):
            jumps.append(ContinuityJump(
                v,
                order,
                abs(right_vals[order] - left_vals[order]),
                order in (left_orders & right_orders),
            ))
    return ContinuityReport(tuple(jumps))
