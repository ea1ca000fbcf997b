import numpy as np
import pytest

from pspb import poly
from pspb.errors import (
    MissingWaypointDerivative,
    NonContiguousPhases,
    OutOfDomain,
    UnknownScheme,
)
from pspb.reference import PolynomialReference, waypoints_from_reference
from pspb.schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    END,
    MID,
    SCHEME_NAMES,
    START,
    Waypoint,
    builtin_scheme,
    evaluate,
    generate_gait,
    generate_phase,
)

STANCE = list(DEFAULT_STANCE_TIMES)
SWING = list(DEFAULT_SWING_TIMES)


def zero_waypoints(times):
    return [Waypoint(t, 0.0, 0.0, 0.0, 0.0) for t in times]


def generic_reference(seed=0):
    rng = np.random.default_rng(seed)
    return PolynomialReference(tuple(rng.uniform(-5, 5, 8)))


def build_phase(name, ref=None, times=STANCE, **kwargs):
    ref = ref or generic_reference()
    return generate_phase(
        builtin_scheme(name),
        waypoints_from_reference(ref, times),
        midpoint_positions=lambda t: ref(t, 0),
        **kwargs,
    )


def test_unknown_scheme():
    with pytest.raises(UnknownScheme):
        builtin_scheme("777-1")


def test_constraint_counts_match_degrees():
    for name in SCHEME_NAMES:
        scheme = builtin_scheme(name)
        for degree, cons in zip(scheme.segment_degrees, scheme.segment_constraints):
            assert len(cons) == degree + 1


def test_545_1_template():
    scheme = builtin_scheme("545-1")
    assert scheme.segment_degrees == (5, 4, 5)
    assert scheme.boundary_orders(0, START) == {0, 1, 2, 3}
    assert scheme.boundary_orders(0, END) == {0, 1}
    assert scheme.boundary_orders(1, START) == {0, 1, 2}
    assert scheme.boundary_orders(1, END) == {0, 1}
    assert scheme.boundary_orders(2, START) == {0, 1, 2}
    assert scheme.boundary_orders(2, END) == {0, 1, 2}


def test_434_2_template():
    scheme = builtin_scheme("434-2")
    for seg in (0, 2):
        assert scheme.boundary_orders(seg, START) == {0, 1}
        assert scheme.boundary_orders(seg, END) == {0, 1}
        assert (MID, 0) in scheme.segment_constraints[seg]
    assert (MID, 0) not in scheme.segment_constraints[1]


def test_656_2_template():
    scheme = builtin_scheme("656-2")
    for seg in range(3):
        assert scheme.boundary_orders(seg, START) == {0, 1, 2}
        assert scheme.boundary_orders(seg, END) == {0, 1, 2}
    assert (MID, 0) in scheme.segment_constraints[0]
    assert (MID, 0) in scheme.segment_constraints[2]
    assert (MID, 0) not in scheme.segment_constraints[1]


def test_zero_waypoints_give_zero_trajectory():
    traj = generate_phase(builtin_scheme("656-1"), zero_waypoints(STANCE))
    for t in np.linspace(0, 0.6, 25):
        for order in range(4):
            assert evaluate(traj, t, order) == pytest.approx(0.0, abs=1e-12)


def test_stance_via_times():
    traj = build_phase("434-1")
    assert traj.via_times == (0.12, 0.48)


def test_545_1_acceleration_jumps_at_first_via():
    traj = build_phase("545-1")
    v1 = traj.via_times[0]
    left = traj.segments[0].kinematics(traj.segments[0].t_end)
    right = traj.segments[1].kinematics(traj.segments[1].t_start)
    assert abs(right[0] - left[0]) <= 1e-9
    assert abs(right[1] - left[1]) <= 1e-9
    assert abs(right[2] - left[2]) > 1e-6
    assert v1 == 0.12


def test_missing_derivative_is_hard_error():
    waypoints = [Waypoint(t, 0.0, 0.0) for t in STANCE]  # no acceleration
    with pytest.raises(MissingWaypointDerivative):
        generate_phase(builtin_scheme("656-1"), waypoints)


def test_missing_midpoint_is_hard_error():
    with pytest.raises(MissingWaypointDerivative):
        generate_phase(builtin_scheme("434-2"), zero_waypoints(STANCE))


def test_midpoint_mapping_source():
    traj = generate_phase(
        builtin_scheme("434-2"), zero_waypoints(STANCE),
        midpoint_positions={0: 1.0, 2: -1.0},
    )
    t_mid = 0.5 * (STANCE[0] + STANCE[1])
    assert evaluate(traj, t_mid, 0) == pytest.approx(1.0, abs=1e-9)


def test_gait_composition():
    ref = generic_reference()
    traj = generate_gait(
        builtin_scheme("434-1"),
        waypoints_from_reference(ref, STANCE),
        waypoints_from_reference(ref, SWING),
    )
    assert len(traj.segments) == 6
    assert traj.via_times == (0.12, 0.48, 0.6, 0.68, 0.92)
    assert traj.phase_label == "full"


def test_gait_rejects_noncontiguous_phases():
    with pytest.raises(NonContiguousPhases):
        generate_gait(
            builtin_scheme("434-1"),
            zero_waypoints(STANCE),
            zero_waypoints([0.7, 0.8, 0.9, 1.0]),
        )


def test_mismatched_phase_boundary_positions_flagged_not_rejected():
    stance = zero_waypoints(STANCE)
    swing = [Waypoint(t, 5.0, 0.0, 0.0, 0.0) for t in SWING]
    traj = generate_gait(builtin_scheme("434-1"), stance, swing)
    left = traj.segments[2].kinematics(0.6)[0]
    right = traj.segments[3].kinematics(0.6)[0]
    assert abs(right - left) == pytest.approx(5.0, abs=1e-9)


def test_evaluate_out_of_domain():
    traj = build_phase("434-1")
    with pytest.raises(OutOfDomain):
        evaluate(traj, -0.1, 0)
    with pytest.raises(OutOfDomain):
        evaluate(traj, 0.61, 0)
    with pytest.raises(OutOfDomain):
        evaluate(traj, np.array([0.0, 0.3, 0.61]), 0)
    with pytest.raises(OutOfDomain):
        evaluate(traj, np.array([-0.1, 0.3]), slice(None))


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_evaluate_array_matches_scalar_bitwise(name):
    ref = generic_reference(5)
    traj = generate_gait(
        builtin_scheme(name),
        waypoints_from_reference(ref, STANCE),
        waypoints_from_reference(ref, SWING),
        lambda t: ref(t, 0),
        lambda t: ref(t, 0),
    )
    times = np.union1d(np.linspace(traj.t_start, traj.t_end, 37),
                       [traj.t_start, *traj.via_times, traj.t_end])
    table = evaluate(traj, times, slice(None))
    assert table.shape == (4, len(times))
    for order in range(4):
        column = evaluate(traj, times, order)
        scalar = np.array([evaluate(traj, t, order) for t in times])
        assert np.array_equal(column, scalar)
        assert np.array_equal(table[order], scalar)
        # Loop reference: last segment starting at or before t, then Horner
        # on the formal derivative over tau, then the 1/T^k factor.
        loop = []
        for t in times:
            seg = [s for s in traj.segments if s.t_start <= t][-1]
            tau = (t - seg.t_start) / seg.duration
            deriv = poly.differentiate(seg.polynomial, order)
            loop.append(poly.horner(deriv, tau) / seg.duration**order)
        assert np.array_equal(scalar, loop)
    for t, row in zip(times, table.T):
        assert np.array_equal(row[:3], evaluate(traj, t, slice(3)))


def test_evaluate_right_continuous_at_via():
    # deliberately break position continuity at via1 and check which side wins
    traj = build_phase("545-1", side_overrides={(1, START, 0): 99.0})
    assert evaluate(traj, 0.12, 0) == pytest.approx(99.0, abs=1e-9)


def test_final_time_belongs_to_last_segment():
    traj = build_phase("434-1")
    assert evaluate(traj, 0.6, 0) == pytest.approx(
        traj.segments[-1].kinematics(0.6)[0], abs=1e-12
    )


def test_waypoint_interpolation():
    ref = generic_reference(3)
    waypoints = waypoints_from_reference(ref, STANCE)
    for name in SCHEME_NAMES:
        traj = generate_phase(
            builtin_scheme(name), waypoints,
            midpoint_positions=lambda t: ref(t, 0),
        )
        for w in waypoints:
            got = evaluate(traj, w.time, 0)
            assert abs(got - w.position) <= 1e-9 * (1 + abs(w.position))


def test_434_middle_segment_jerk_constant():
    for name in ("434-1", "434-2"):
        traj = build_phase(name, generic_reference(9))
        mid = traj.segments[1]
        jerks = [mid.kinematics(t)[3]
                 for t in np.linspace(mid.t_start, mid.t_end, 50)]
        assert max(jerks) - min(jerks) <= 1e-9
