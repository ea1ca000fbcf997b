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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalBlowup
from .metrics import SampledSeries, ade, rmse
from .schemes import PiecewiseTrajectory, evaluate

GRAVITY = 9.81  # m/s^2
BLOWUP_LIMIT = 1e6  # rad or rad/s; beyond this the controller has diverged
MAX_STEPS = 10**6  # RK4 steps per run; about 170 bytes each at peak, in float columns


@dataclass(frozen=True)
class BodyParams:
    """Rigid segment: mass (kg), length (m), center of mass offset (m)."""

    mass: float
    length: float
    com: float

    def __post_init__(self):
        if min(self.mass, self.length, self.com) <= 0:
            raise ValueError("mass, length, and com must be positive")
        if self.com >= self.length:
            raise ValueError("center of mass must lie within the segment")

    @cached_property
    def inertia_about_joint(self) -> float:
        # uniform rod about its center, shifted to the proximal joint
        return self.mass * self.com**2 + self.mass * self.length**2 / 12


# Body segment parameters used throughout (sagittal-plane leg model).
THIGH = BodyParams(mass=15.961, length=0.5287, com=0.3183)
TRUNK = BodyParams(mass=17.761, length=0.7050, com=0.2965)


@dataclass(frozen=True)
class SimState:
    theta: float  # hip angle, rad
    omega: float  # rad/s


@dataclass(frozen=True)
class PDGains:
    kp: float = 500.0  # N*m/rad
    kd: float = 50.0   # N*m*s/rad

    def __post_init__(self):
        if self.kp < 0 or self.kd < 0:
            raise ValueError("gains must be non-negative")


def hip_dynamics(state: SimState, torque: float,
                 thigh: BodyParams = THIGH) -> tuple[float, float]:
    """(d theta, d omega) of the thigh pendulum under the given torque."""
    alpha = (torque - thigh.mass * GRAVITY * thigh.com * math.sin(state.theta)) \
        / thigh.inertia_about_joint
    return state.omega, alpha


def gravity_torque(theta: float, thigh: BodyParams = THIGH) -> float:
    """Torque that exactly holds the pendulum still at angle theta."""
    return thigh.mass * GRAVITY * thigh.com * math.sin(theta)


def pd_torque(state: SimState, ref_position: float, ref_velocity: float,
              gains: PDGains, ref_acceleration: float | None = None,
              thigh: BodyParams = THIGH) -> float:
    """PD law; optional inertial feedforward when a reference acceleration
    is supplied."""
    torque = gains.kp * (ref_position - state.theta) \
        + gains.kd * (ref_velocity - state.omega)
    if ref_acceleration is not None:
        torque += thigh.inertia_about_joint * ref_acceleration
    return torque


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


@dataclass(frozen=True)
class TrackingResult:
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
    refs = evaluate(traj, np.minimum(np.concatenate(
        [times, starts + halves, starts[off] + steps[off]]), traj.t_end),
        slice(3) if feedforward else slice(2)) * deg
    stage4 = refs[:, 1:n + 1].copy()
    stage4[:, off] = refs[:, 2 * n + 1:]

    # rk4_step over pd_torque, gravity_torque and hip_dynamics, inlined on Python
    # floats with the same operations in the same order, so the result is bit-identical
    # (test_stage_reference_table_is_bit_identical pins it). A switched-off feedforward
    # or gravity term adds -0.0, which leaves any float unchanged. Each step reads
    # memoryviews: h, h/2 and h/6 (divided once per array, the same bits as per step),
    # then pos, vel and feedforward torque at stage 1, stages 2 and 3, and stage 4.
    kp, kd, inertia = gains.kp, gains.kd, thigh.inertia_about_joint
    mgc, sin = thigh.mass * GRAVITY * thigh.com, math.sin
    columns = [memoryview(a) for a in (steps, halves, steps / 6)]
    for part in refs[:, :n], refs[:, n + 1:2 * n + 1], stage4:
        columns += [memoryview(part[0]), memoryview(part[1]),
                    memoryview(inertia * part[2]) if feedforward else itertools.repeat(-0.0)]
    theta, omega = refs[:2, 0].tolist()  # the start state: grid column 0 is t_start
    thetas, omegas = array("d", [theta]), array("d", [omega])
    high, low = BLOWUP_LIMIT, -BLOWUP_LIMIT  # abs(x) > limit as two compares, no calls
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
        theta = theta + h6 * (omega + 2 * om2 + 2 * om3 + om4)
        omega = omega + h6 * (a1 + 2 * a2 + 2 * a3 + a4)
        if theta > high or theta < low or omega > high or omega < low:
            raise NumericalBlowup(
                f"state diverged at t={times[len(thetas)]:.4f}: {SimState(theta, omega)}"
            )
        thetas.append(theta)
        omegas.append(omega)

    angle = SampledSeries(times, np.frombuffer(thetas), 0, "rad")
    reference_angle = SampledSeries(times, refs[0, :n + 1].copy(), 0, "rad")
    return TrackingResult(
        angle=angle,
        velocity=SampledSeries(times, np.frombuffer(omegas), 1, "rad/s"),
        reference_angle=reference_angle,
        rmse=rmse(angle, reference_angle),
        ade=ade(angle, reference_angle),
    )


def free_swing_energy(state: SimState, thigh: BodyParams = THIGH) -> float:
    """Mechanical energy of the unforced pendulum (zero at hanging rest)."""
    return 0.5 * thigh.inertia_about_joint * state.omega**2 \
        + thigh.mass * GRAVITY * thigh.com * (1 - math.cos(state.theta))
