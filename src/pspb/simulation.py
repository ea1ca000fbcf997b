"""Desk-scale hip joint simulation: PD tracking of a generated trajectory.

The trunk is a fixed base; the thigh swings about the hip as a rigid
pendulum under gravity, driven by a PD torque tracking the trajectory.
Fixed-step RK4 keeps the numbers reproducible. Trajectory angles are in
degrees and are converted to radians at the simulation boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowup
from .metrics import SampledSeries, ade, rmse
from .schemes import PiecewiseTrajectory, evaluate

GRAVITY = 9.81  # m/s^2
BLOWUP_LIMIT = 1e6  # rad or rad/s; beyond this the controller has diverged


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

    @property
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
    shortest = min(s.duration for s in traj.segments)
    if dt <= 0 or dt > shortest / 10:
        raise ValueError(f"dt must be in (0, {shortest / 10:g}] for this trajectory")

    deg = math.pi / 180.0

    def deriv(t: float, state: SimState) -> tuple[float, float]:
        pos, vel, acc = (v * deg for v in
                         evaluate(traj, min(t, traj.t_end), slice(3)))
        torque = pd_torque(state, pos, vel, gains,
                           acc if feedforward else None, thigh)
        if gravity_compensation:
            torque += gravity_torque(state.theta, thigh)
        return hip_dynamics(state, torque, thigh)

    n_steps = int(round((traj.t_end - traj.t_start) / dt))
    times = traj.t_start + dt * np.arange(n_steps + 1)
    times[-1] = traj.t_end

    p0, v0 = (v * deg for v in evaluate(traj, traj.t_start, slice(2)))
    state = SimState(p0, v0)
    thetas, omegas = [p0], [v0]
    for i in range(n_steps):
        step = times[i + 1] - times[i]
        state = rk4_step(deriv, times[i], state, step)
        if abs(state.theta) > BLOWUP_LIMIT or abs(state.omega) > BLOWUP_LIMIT:
            raise NumericalBlowup(
                f"state diverged at t={times[i + 1]:.4f}: {state}"
            )
        thetas.append(state.theta)
        omegas.append(state.omega)

    angle = SampledSeries(times, np.array(thetas), 0, "rad")
    reference_angle = SampledSeries(times, evaluate(traj, times, 0) * deg, 0, "rad")
    return TrackingResult(
        angle=angle,
        velocity=SampledSeries(times, np.array(omegas), 1, "rad/s"),
        reference_angle=reference_angle,
        rmse=rmse(angle, reference_angle),
        ade=ade(angle, reference_angle),
    )


def free_swing_energy(state: SimState, thigh: BodyParams = THIGH) -> float:
    """Mechanical energy of the unforced pendulum (zero at hanging rest)."""
    return 0.5 * thigh.inertia_about_joint * state.omega**2 \
        + thigh.mass * GRAVITY * thigh.com * (1 - math.cos(state.theta))
