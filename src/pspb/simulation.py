"""Desk-scale hip joint simulation: PD tracking of a generated trajectory.

The trunk is a fixed base; the thigh swings about the hip as a rigid
pendulum under gravity, driven by a PD torque tracking the trajectory.
Fixed-step RK4 keeps the numbers reproducible. Trajectory angles are in
degrees and are converted to radians at the simulation boundary.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import cached_property

import numpy as np

from .errors import NumericalBlowup
from .metrics import SampledSeries, rmse
from .poly import _Record
from .schemes import PiecewiseTrajectory, evaluate

GRAVITY = 9.81  # m/s^2
BLOWUP_LIMIT = 1e6  # rad or rad/s; beyond this the controller has diverged
MAX_STEPS = 10**6  # RK4 steps per run; about 170 bytes each at peak, in float columns


def _check_finite(params, what: str):
    """A ValueError naming the first field of ``params`` that is inf or NaN."""
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite, got {name}={value}")


class BodyParams(_Record):
    """Rigid segment: mass (kg), length (m), center of mass offset (m)."""

    mass: float
    length: float
    com: float

    def __post_init__(self):
        _check_finite(self, "mass, length, and com")
        if not all(0 < x for x in (self.mass, self.length, self.com)):
            raise ValueError("mass, length, and com must be positive")
        if self.com >= self.length:
            raise ValueError("center of mass must lie within the segment")

    @cached_property
    def inertia_about_joint(self) -> float:
        # uniform rod about its center, shifted to the proximal joint
        return self.mass * self.com**2 + self.mass * self.length**2 / 12


# Body segment parameters of the thigh (sagittal-plane leg model).
THIGH = BodyParams(mass=15.961, length=0.5287, com=0.3183)


class SimState(_Record):
    """Hip angle and angular velocity of the thigh pendulum."""

    theta: float  # hip angle, rad
    omega: float  # rad/s


class PDGains(_Record):
    """Proportional and derivative gains of the PD torque law."""

    kp: float = 500.0  # N*m/rad
    kd: float = 50.0   # N*m*s/rad

    def __post_init__(self):
        _check_finite(self, "gains")
        if not (0 <= self.kp and 0 <= self.kd):
            raise ValueError("gains must be non-negative")


def hip_dynamics(state: SimState, torque: float,
                 thigh: BodyParams = THIGH) -> tuple[float, float]:
    """(d theta, d omega) of the thigh pendulum under the given torque."""
    alpha = (torque - thigh.mass * GRAVITY * thigh.com * math.sin(state.theta)) \
        / thigh.inertia_about_joint
    return state.omega, alpha


def rk4_step(deriv, t: float, state: SimState, dt: float) -> SimState:
    k1 = deriv(t, state)
    k2 = deriv(t + dt / 2, SimState(state.theta + dt / 2 * k1[0],
                                    state.omega + dt / 2 * k1[1]))
    k3 = deriv(t + dt / 2, SimState(state.theta + dt / 2 * k2[0],
                                    state.omega + dt / 2 * k2[1]))
    k4 = deriv(t + dt, SimState(state.theta + dt * k3[0],
                                state.omega + dt * k3[1]))
    return SimState(
        state.theta + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
        state.omega + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]),
    )


class TrackingResult(_Record):
    """Simulated angle and velocity, the reference angle, and the angle's RMSE and ADE."""

    angle: SampledSeries       # rad
    velocity: SampledSeries    # rad/s
    reference_angle: SampledSeries
    rmse: float                # rad
    ade: float                 # rad


def simulate_tracking(
    traj: PiecewiseTrajectory,
    thigh: BodyParams = THIGH,
    gains: PDGains = PDGains(),
    dt: float = 1e-4,
    feedforward: bool = False,
    gravity_compensation: bool = False,
) -> TrackingResult:
    """Track the trajectory with a PD-driven thigh; RK4 at fixed dt.

    The initial state matches the trajectory's initial angle and velocity.
    """
    shortest = min(t_end - t_start for t_start, t_end in traj._spans)
    if not 0 < dt <= shortest / 10:
        raise ValueError(f"dt must be in (0, {shortest / 10:g}] for this trajectory")
    n = round(min((traj.t_end - traj.t_start) / dt, MAX_STEPS + 1))
    if n > MAX_STEPS:
        raise ValueError(f"dt={dt:g} needs more than {MAX_STEPS} steps for this trajectory")

    deg = math.pi / 180.0
    times = traj.t_start + dt * np.arange(n + 1)
    times[-1] = traj.t_end

    # The reference at each distinct RK4 stage time (rk4_step's arithmetic), in
    # one array evaluation: the n + 1 grid times, the n midpoints t + h/2, and
    # t + h where it rounds off the next grid time (near 0, on grids straddling it).
    # Stage 1 reads grid column i, stage 4 column i + 1 with those patched in.
    starts = times[:-1]
    steps = times[1:] - times[:-1]
    halves = steps / 2
    off = np.flatnonzero(starts + steps != times[1:])
    stages = np.concatenate([times, starts + halves, starts[off] + steps[off]])
    refs = evaluate(traj, np.minimum(stages, traj.t_end, out=stages),
                    slice(3) if feedforward else slice(2))
    refs *= deg
    stage4 = refs[:, 1:n + 1].copy()
    stage4[:, off] = refs[:, 2 * n + 1:]

    # rk4_step over hip_dynamics and the PD and gravity torques (their oracles live in
    # tests/conftest.py), inlined on Python floats with the same operations in the same order,
    # so the result is bit-identical (test_stage_reference_table_is_bit_identical pins it; 2.0
    # is rk4_step's 2, and CPython multiplies two floats faster than an int and a float). Each
    # step reads memoryviews: h, h/2 and h/6 (divided once per array, the same bits as per
    # step), then pos, vel and feedforward torque at stage 1, stages 2 and 3, and stage 4.
    # There are two loop bodies. The plain PD one, with both options off (the CLI's only case
    # and the default), has no feedforward or gravity term, and runs faster for it. Only the
    # general one, for the other three cases, carries them: a switched-off term adds -0.0,
    # which leaves any float unchanged, so on plain PD both give the same bits. A state past
    # the limit breaks either loop.
    kp, kd, inertia = gains.kp, gains.kd, thigh.inertia_about_joint
    mgc, sin = thigh.mass * GRAVITY * thigh.com, math.sin
    columns = [memoryview(a) for a in (steps, halves, steps / 6)]
    for part in refs[:, :n], refs[:, n + 1:2 * n + 1], stage4:
        columns += [memoryview(part[0]), memoryview(part[1]),
                    memoryview(inertia * part[2]) if feedforward else itertools.repeat(-0.0)]
    theta, omega = refs[:2, 0].tolist()  # the start state: grid column 0 is t_start
    thetas, omegas = array("d", [theta]), array("d", [omega])
    high, low = BLOWUP_LIMIT, -BLOWUP_LIMIT  # abs(x) <= limit as two compares, no calls
    if feedforward or gravity_compensation:
        for h, h2, h6, p1, v1, f1, p2, v2, f2, p4, v4, f4 in zip(*columns):
            g = mgc * sin(theta)
            a1 = (kp * (p1 - theta) + kd * (v1 - omega) + f1
                  + (g if gravity_compensation else -0.0) - g) / inertia
            th, om2 = theta + h2 * omega, omega + h2 * a1
            g = mgc * sin(th)
            a2 = (kp * (p2 - th) + kd * (v2 - om2) + f2
                  + (g if gravity_compensation else -0.0) - g) / inertia
            th, om3 = theta + h2 * om2, omega + h2 * a2
            g = mgc * sin(th)
            a3 = (kp * (p2 - th) + kd * (v2 - om3) + f2
                  + (g if gravity_compensation else -0.0) - g) / inertia
            th, om4 = theta + h * om3, omega + h * a3
            g = mgc * sin(th)
            a4 = (kp * (p4 - th) + kd * (v4 - om4) + f4
                  + (g if gravity_compensation else -0.0) - g) / inertia
            theta = theta + h6 * (omega + 2.0 * om2 + 2.0 * om3 + om4)
            omega = omega + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            if not (low <= theta <= high and low <= omega <= high):  # a NaN state too
                break
            thetas.append(theta)
            omegas.append(omega)
    else:
        for h, h2, h6, p1, v1, _, p2, v2, _, p4, v4, _ in zip(*columns):
            a1 = (kp * (p1 - theta) + kd * (v1 - omega) - mgc * sin(theta)) / inertia
            th, om2 = theta + h2 * omega, omega + h2 * a1
            a2 = (kp * (p2 - th) + kd * (v2 - om2) - mgc * sin(th)) / inertia
            th, om3 = theta + h2 * om2, omega + h2 * a2
            a3 = (kp * (p2 - th) + kd * (v2 - om3) - mgc * sin(th)) / inertia
            th, om4 = theta + h * om3, omega + h * a3
            a4 = (kp * (p4 - th) + kd * (v4 - om4) - mgc * sin(th)) / inertia
            theta = theta + h6 * (omega + 2.0 * om2 + 2.0 * om3 + om4)
            omega = omega + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            if not (low <= theta <= high and low <= omega <= high):  # a NaN state too
                break
            thetas.append(theta)
            omegas.append(omega)
    if len(thetas) <= n:  # a loop broke off at the first state past the limit
        raise NumericalBlowup(
            f"state diverged at t={times[len(thetas)]:.4f}: {SimState(theta, omega)}")

    angle = SampledSeries(times, np.frombuffer(thetas), 0, "rad")
    reference_angle = SampledSeries(times, refs[0, :n + 1].copy(), 0, "rad")
    error = rmse(angle, reference_angle)
    return TrackingResult(
        angle=angle,
        velocity=SampledSeries(times, np.frombuffer(omegas), 1, "rad/s"),
        reference_angle=reference_angle,
        rmse=error,
        ade=error / math.sqrt(n + 1),  # ade's own formula on this one RMSE
    )


def free_swing_energy(state: SimState, thigh: BodyParams = THIGH) -> float:
    """Mechanical energy of the unforced pendulum (zero at hanging rest)."""
    return 0.5 * thigh.inertia_about_joint * state.omega**2 \
        + thigh.mass * GRAVITY * thigh.com * (1 - math.cos(state.theta))
