import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import TRUNK, gravity_torque, pd_torque
from pspb import metrics, simulation
from pspb.errors import NumericalBlowup
from pspb.reference import PolynomialReference, SinusoidReference, waypoints_from_reference
from pspb.schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    Waypoint,
    builtin_scheme,
    evaluate,
    generate_gait,
    generate_phase,
)
from pspb.simulation import (
    GRAVITY,
    THIGH,
    BodyParams,
    PDGains,
    SimState,
    free_swing_energy,
    hip_dynamics,
    rk4_step,
    simulate_tracking,
)


def smooth_trajectory(amplitude=10.0, times=DEFAULT_STANCE_TIMES):
    rng = np.random.default_rng(2)
    ref = PolynomialReference(tuple(amplitude * rng.uniform(-1, 1, 8)))
    waypoints = waypoints_from_reference(ref, times)
    return generate_phase(builtin_scheme("656-2"), waypoints,
                          midpoint_positions=lambda t: ref(t, 0))


def test_body_params_table_values():
    assert (THIGH.mass, THIGH.length, THIGH.com) == (15.961, 0.5287, 0.3183)
    assert (TRUNK.mass, TRUNK.length, TRUNK.com) == (17.761, 0.7050, 0.2965)


def test_body_params_validation():
    with pytest.raises(ValueError):
        BodyParams(1.0, 0.5, 0.6)
    with pytest.raises(ValueError):
        BodyParams(-1.0, 0.5, 0.3)


def test_hanging_equilibrium():
    assert hip_dynamics(SimState(0.0, 0.0), 0.0) == (0.0, 0.0)


def test_gravity_compensation_holds_any_angle():
    for theta in (0.3, -1.2, math.pi / 2):
        state = SimState(theta, 0.0)
        dtheta, domega = hip_dynamics(state, gravity_torque(theta))
        assert (dtheta, domega) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_horizontal_free_acceleration():
    # hand value: alpha = -m g c / (m c^2 + m L^2 / 12) at theta = pi/2
    m, L, c = THIGH.mass, THIGH.length, THIGH.com
    want = -m * GRAVITY * c / (m * c**2 + m * L**2 / 12)
    _, alpha = hip_dynamics(SimState(math.pi / 2, 0.0), 0.0)
    assert alpha == pytest.approx(want, rel=1e-12)


def test_pd_torque_zero_error():
    state = SimState(0.5, -0.2)
    assert pd_torque(state, 0.5, -0.2, PDGains(100, 10)) == 0.0


def test_pd_torque_definitional():
    torque = pd_torque(SimState(0.0, 0.0), 0.1, 0.0, PDGains(100, 0))
    assert torque == pytest.approx(10.0)


def test_pd_torque_zero_gains():
    assert pd_torque(SimState(1.0, 1.0), 0.0, 0.0, PDGains(0, 0)) == 0.0


def test_pd_feedforward_term():
    torque = pd_torque(SimState(0, 0), 0, 0, PDGains(0, 0), ref_acceleration=2.0)
    assert torque == pytest.approx(2.0 * THIGH.inertia_about_joint)


def test_equilibrium_tracking():
    waypoints = [Waypoint(t, 0.0, 0.0, 0.0, 0.0) for t in DEFAULT_STANCE_TIMES]
    traj = generate_phase(builtin_scheme("656-1"), waypoints)
    result = simulate_tracking(traj, gains=PDGains(200, 20), dt=1e-3,
                               gravity_compensation=True)
    assert result.rmse <= 1e-6


def test_open_loop_cannot_track():
    traj = smooth_trajectory()
    result = simulate_tracking(traj, gains=PDGains(0, 0), dt=1e-3)
    assert result.rmse > 1e-3


def test_rejects_too_large_dt():
    traj = smooth_trajectory()
    with pytest.raises(ValueError):
        simulate_tracking(traj, dt=0.05)


def test_step_cap(monkeypatch):
    traj = smooth_trajectory()  # spans 0.6 s
    monkeypatch.setattr(simulation, "MAX_STEPS", 600)
    assert len(simulate_tracking(traj, dt=1e-3).angle.times) == 601
    with pytest.raises(ValueError, match="more than 600 steps"):
        simulate_tracking(traj, dt=0.99e-3)
    with pytest.raises(ValueError, match="more than 600 steps"):
        simulate_tracking(traj, dt=5e-324)  # span / dt overflows to inf


def scalar_reference_tracking(traj, gains, dt, feedforward, gravity_compensation,
                              thigh=THIGH, evaluate_at=evaluate):
    """Angles and velocities from one scalar evaluate per RK4 stage, up to
    and including the first state past the blow-up limit."""
    deg = math.pi / 180.0

    def deriv(t, state):
        pos, vel, acc = (v * deg for v in
                         evaluate_at(traj, min(t, traj.t_end), slice(3)))
        torque = pd_torque(state, pos, vel, gains, acc if feedforward else None, thigh)
        if gravity_compensation:
            torque += gravity_torque(state.theta, thigh)
        return hip_dynamics(state, torque, thigh)

    n_steps = int(round((traj.t_end - traj.t_start) / dt))
    times = traj.t_start + dt * np.arange(n_steps + 1)
    times[-1] = traj.t_end
    state = SimState(*(v * deg for v in evaluate_at(traj, traj.t_start, slice(2))))
    thetas, omegas = [state.theta], [state.omega]
    for i in range(n_steps):
        state = rk4_step(deriv, times[i], state, times[i + 1] - times[i])
        thetas.append(state.theta)
        omegas.append(state.omega)
        if max(abs(state.theta), abs(state.omega)) > simulation.BLOWUP_LIMIT:
            break
    return times[:len(thetas)], np.array(thetas), np.array(omegas)


def assert_matches_scalar_tracking(monkeypatch, feedforward, gravity_compensation,
                                   thigh):
    """simulate_tracking's inlined RK4 loop against rk4_step, pd_torque,
    gravity_torque and hip_dynamics, bit for bit."""
    gains = PDGains(800, 40)
    calls = []

    def counting_evaluate(*args):
        calls.append(args[1])
        return evaluate(*args)

    monkeypatch.setattr(simulation, "evaluate", counting_evaluate)
    # 1e-3 divides both 0.6 s spans; 7e-4 and 1.3e-3 do not, so the last
    # step is longer or shorter than dt.
    for times, dt in itertools.product((DEFAULT_STANCE_TIMES, DEFAULT_SWING_TIMES),
                                       (1e-3, 7e-4, 1.3e-3)):
        traj = smooth_trajectory(times=times)
        calls.clear()
        result = simulate_tracking(traj, thigh=thigh, gains=gains, dt=dt,
                                   feedforward=feedforward,
                                   gravity_compensation=gravity_compensation)
        assert len(calls) <= 3
        want_times, want_theta, want_omega = scalar_reference_tracking(
            traj, gains, dt, feedforward, gravity_compensation, thigh)
        assert np.array_equal(result.angle.times, want_times)
        assert np.array_equal(result.angle.values, want_theta)
        assert np.array_equal(result.velocity.values, want_omega)
        want_reference = [evaluate(traj, t, 0) * (math.pi / 180.0) for t in want_times]
        assert np.array_equal(result.reference_angle.values, want_reference)


@pytest.mark.parametrize("feedforward,gravity_compensation",
                         list(itertools.product([False, True], repeat=2)))
def test_stage_reference_table_is_bit_identical(monkeypatch, feedforward,
                                                gravity_compensation):
    assert_matches_scalar_tracking(monkeypatch, feedforward, gravity_compensation,
                                   THIGH)


@pytest.mark.parametrize("feedforward,gravity_compensation",
                         list(itertools.product([False, True], repeat=2)))
def test_stage_reference_table_is_bit_identical_for_trunk(monkeypatch, feedforward,
                                                          gravity_compensation):
    assert_matches_scalar_tracking(monkeypatch, feedforward, gravity_compensation,
                                   TRUNK)


def recorded_evaluate_calls(monkeypatch, inner=evaluate):
    """The (times, order) of every evaluate call simulate_tracking makes;
    ``inner`` computes the values it gets back."""
    calls = []

    def recording_evaluate(traj, t, order=0):
        calls.append((np.array(t, dtype=float), order))
        return inner(traj, t, order)

    monkeypatch.setattr(simulation, "evaluate", recording_evaluate)
    return calls


def bit_keyed_evaluate(traj, t, order=0):
    """evaluate plus an offset keyed to the low bits of each time, so two
    times one ulp apart read visibly different references."""
    return evaluate(traj, t, order) + np.asarray(t, dtype=float).view(np.int64) % 997 * 1e-9


@pytest.mark.parametrize("feedforward", [False, True])
def test_each_distinct_stage_time_is_evaluated_once(monkeypatch, feedforward):
    traj = smooth_trajectory()
    calls = recorded_evaluate_calls(monkeypatch)
    result = simulate_tracking(traj, gains=PDGains(800, 40),  # default dt
                               feedforward=feedforward)
    times = result.angle.times
    n = len(times) - 1
    assert n == 6000 and len(calls) == 1
    (stages, stage_order), = calls
    # One array call: the n + 1 grid times, then the n midpoints t + h/2; the
    # acceleration only when feedforward needs it.
    assert stage_order == (slice(3) if feedforward else slice(2))
    assert stages.shape == (2 * n + 1,)
    assert np.array_equal(stages[:n + 1], times)
    assert np.array_equal(stages[n + 1:], times[:-1] + (times[1:] - times[:-1]) / 2)
    # The start state is read from grid column 0, at t_start.
    deg = math.pi / 180.0
    assert result.angle.values[0] == evaluate(traj, traj.t_start, 0) * deg
    assert result.velocity.values[0] == evaluate(traj, traj.t_start, 1) * deg


# A grid straddling 0: step 1's t + h rounds one ulp off times[2].
STRADDLING_STANCE = (-1.2165247109551624e-06, 0.01, 0.02, 0.03)
STRADDLING_SWING = (0.03, 0.04, 0.05, 0.06)
STRADDLING_DT = 6.115245573805161e-05


@pytest.mark.parametrize("feedforward,gravity_compensation",
                         list(itertools.product([False, True], repeat=2)))
def test_stage_four_off_the_grid_is_evaluated_where_rk4_puts_it(
        monkeypatch, feedforward, gravity_compensation):
    rng = np.random.default_rng(2)
    ref = PolynomialReference(tuple(10.0 * rng.uniform(-1, 1, 8)))
    traj = generate_gait(builtin_scheme("656-1"),
                         waypoints_from_reference(ref, STRADDLING_STANCE),
                         waypoints_from_reference(ref, STRADDLING_SWING),
                         lambda t: ref(t, 0), lambda t: ref(t, 0))
    gains = PDGains(800, 40)
    # Values keyed to time bits: a stage 4 that read times[2] instead of its
    # own t + h would no longer match the scalar oracle.
    calls = recorded_evaluate_calls(monkeypatch, bit_keyed_evaluate)
    result = simulate_tracking(traj, gains=gains, dt=STRADDLING_DT, feedforward=feedforward,
                               gravity_compensation=gravity_compensation)
    times = result.angle.times
    n = len(times) - 1
    ends = times[:-1] + (times[1:] - times[:-1])
    assert list(np.flatnonzero(ends != times[1:])) == [1]
    # The off-grid end is read at its own time, once, after the grid and midpoints.
    stages = calls[0][0]
    assert len(calls) == 1 and stages.shape == (2 * n + 2,)
    assert stages[-1] == ends[1] != times[2]
    want_times, want_theta, want_omega = scalar_reference_tracking(
        traj, gains, STRADDLING_DT, feedforward, gravity_compensation,
        evaluate_at=bit_keyed_evaluate)
    assert np.array_equal(times, want_times)
    assert np.array_equal(result.angle.values, want_theta)
    assert np.array_equal(result.velocity.values, want_omega)
    want_reference = [bit_keyed_evaluate(traj, t, 0) * (math.pi / 180.0) for t in want_times]
    assert np.array_equal(result.reference_angle.values, want_reference)


@pytest.mark.parametrize("feedforward,gravity_compensation",
                         list(itertools.product([False, True], repeat=2)))
def test_blowup_detected(feedforward, gravity_compensation):
    # positive feedback: negative gains are rejected, so destabilize
    # with an absurd kd on a tiny dt budget instead
    traj = smooth_trajectory(amplitude=50.0)
    gains = PDGains(1e9, 0)
    with pytest.raises(NumericalBlowup) as info:
        simulate_tracking(traj, gains=gains, dt=1e-3, feedforward=feedforward,
                          gravity_compensation=gravity_compensation)
    # The message names the first step past the limit and its state, from the plain PD
    # loop body (both off) or the general one, whose switched-off terms stand in as -0.0.
    times, thetas, omegas = scalar_reference_tracking(traj, gains, 1e-3, feedforward,
                                                      gravity_compensation)
    assert len(times) < round((traj.t_end - traj.t_start) / 1e-3) + 1
    assert str(info.value) == (
        f"state diverged at t={times[-1]:.4f}: {SimState(float(thetas[-1]), float(omegas[-1]))}"
    )


@pytest.mark.parametrize("feedforward,gravity_compensation",
                         list(itertools.product([False, True], repeat=2)))
def test_ade_is_metrics_ade_to_the_bit(feedforward, gravity_compensation):
    # simulate_tracking takes the ADE from its one RMSE, by ade's own formula.
    result = simulate_tracking(smooth_trajectory(), gains=PDGains(800, 40), dt=1e-3,
                               feedforward=feedforward,
                               gravity_compensation=gravity_compensation)
    assert result.rmse == metrics.rmse(result.angle, result.reference_angle)
    assert result.ade == metrics.ade(result.angle, result.reference_angle)
    assert result.ade > 0.0


@pytest.mark.parametrize("make, message", [
    (lambda: PDGains(500.0, math.nan), "gains must be finite, got kd=nan"),
    (lambda: PDGains(math.inf, 0.0), "gains must be finite, got kp=inf"),
    (lambda: BodyParams(15.0, 0.5, math.nan), "mass, length, and com must be finite, got com=nan"),
    (lambda: BodyParams(math.inf, 0.5, 0.3), "mass, length, and com must be finite, got mass=inf"),
    (lambda: BodyParams(15.0, math.inf, 0.3),
     "mass, length, and com must be finite, got length=inf"),
], ids=["kd_nan", "kp_inf", "com_nan", "mass_inf", "length_inf"])
def test_non_finite_gains_and_body_params_are_refused(make, message):
    # NaN fails every comparison, so `kp < 0` used to let it through; a gain of
    # inf met a zero error at the first RK4 stage and made the state NaN.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


@pytest.mark.parametrize("kp, kd", [(500.0, math.nan), (math.inf, 0.0)])
def test_a_nan_state_is_a_divergence(kp, kd):
    # Gains set past their check make the state NaN at the first step. Every
    # comparison with NaN is false, so the guard reads "not within the limit":
    # the run used to return an rmse of nan and raise nothing.
    ref = SinusoidReference(30.0, 1.0)
    traj = generate_gait(builtin_scheme("656-1"),
                         *(waypoints_from_reference(ref, times)
                           for times in (DEFAULT_STANCE_TIMES, DEFAULT_SWING_TIMES)))
    gains = PDGains()
    object.__setattr__(gains, "kp", kp)
    object.__setattr__(gains, "kd", kd)
    with pytest.raises(NumericalBlowup) as info:
        simulate_tracking(traj, gains=gains, dt=1e-3)
    assert str(info.value) == "state diverged at t=0.0010: SimState(theta=nan, omega=nan)"


def test_tracking_memory_is_bounded_per_step():
    # Angles go into flat buffers and the reference is read from memoryviews,
    # so the peak stays a few float columns per step, not lists of floats.
    traj = smooth_trajectory()
    n = 10**5
    dt = (traj.t_end - traj.t_start) / n
    simulate_tracking(traj, dt=100 * dt)  # builds the trajectory's table first
    tracemalloc.start()
    try:
        result = simulate_tracking(traj, dt=dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.angle.times) == n + 1
    assert peak / n <= 200


def free_swing_final_state(dt, t_final=0.5, theta0=1.0):
    def deriv(t, state):
        return hip_dynamics(state, 0.0)

    state = SimState(theta0, 0.0)
    steps = int(round(t_final / dt))
    for i in range(steps):
        state = rk4_step(deriv, i * dt, state, dt)
    return state


def test_rk4_richardson_ratio():
    coarse = free_swing_final_state(2e-3)
    medium = free_swing_final_state(1e-3)
    fine = free_swing_final_state(5e-4)
    err_coarse = abs(coarse.theta - fine.theta)
    err_medium = abs(medium.theta - fine.theta)
    # global error ~ dt^4: halving dt cuts the Richardson difference ~16x
    ratio = err_coarse / err_medium
    assert 8 <= ratio <= 32


def test_free_swing_energy_drift():
    dt = 1e-4
    state = SimState(1.0, 0.0)
    e0 = free_swing_energy(state)

    def deriv(t, s):
        return hip_dynamics(s, 0.0)

    for i in range(int(round(1.0 / dt))):
        state = rk4_step(deriv, i * dt, state, dt)
    drift = abs(free_swing_energy(state) - e0) / e0
    assert drift <= 1e-3


def test_stiffer_gains_track_better():
    traj = smooth_trajectory()
    errors = []
    for kp in (500, 1000, 2000, 4000):
        result = simulate_tracking(traj, gains=PDGains(kp, 50), dt=1e-3)
        errors.append(result.rmse)
    assert errors == sorted(errors, reverse=True)
