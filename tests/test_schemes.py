import numpy as np
import pytest

from pspb import poly, schemes, solver
from pspb.cli import _phases
from pspb.errors import (
    MissingWaypointDerivative,
    NonContiguousPhases,
    OutOfDomain,
    SingularSystem,
    UnknownScheme,
)
from pspb.metrics import continuity_report
from pspb.reference import PolynomialReference, waypoints_from_reference
from pspb.schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    END,
    MID,
    SCHEME_NAMES,
    START,
    PiecewiseTrajectory,
    SchemeSpec,
    Waypoint,
    builtin_scheme,
    evaluate,
    generate_gait,
    generate_phase,
)
from pspb.solver import Constraint, solve_segment

STANCE = list(DEFAULT_STANCE_TIMES)
SWING = list(DEFAULT_SWING_TIMES)


def zero_waypoints(times):
    return [Waypoint(t, 0.0, 0.0, 0.0, 0.0) for t in times]


def generic_reference(seed=0):
    rng = np.random.default_rng(seed)
    return PolynomialReference(tuple(rng.uniform(-5, 5, 8)))


def build_gait(name, ref):
    return generate_gait(
        builtin_scheme(name),
        waypoints_from_reference(ref, STANCE),
        waypoints_from_reference(ref, SWING),
        lambda t: ref(t, 0),
        lambda t: ref(t, 0),
    )


def same_bits(a, b):
    """Equal to the last bit, the sign of zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


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
    # A segment's degree is its constraint count minus one, so the tables
    # must spell out the family each scheme is named after.
    for name in SCHEME_NAMES:
        family = tuple(int(d) for d in name[:3])
        assert builtin_scheme(name).segment_degrees == family
        assert tuple(s.polynomial.degree for s in build_phase(name).segments) == family


def pinned(traj, tau):
    return [seg.pinned_orders(tau) for seg in traj.segments]


def test_545_1_template():
    traj = build_phase("545-1")
    assert builtin_scheme("545-1").segment_degrees == (5, 4, 5)
    assert pinned(traj, START) == [{0, 1, 2, 3}, {0, 1, 2}, {0, 1, 2}]
    assert pinned(traj, END) == [{0, 1}, {0, 1}, {0, 1, 2}]


def test_434_2_template():
    traj = build_phase("434-2")
    assert pinned(traj, START) == [{0, 1}] * 3
    assert pinned(traj, END) == [{0, 1}] * 3
    assert pinned(traj, MID) == [{0}, set(), {0}]


def test_656_2_template():
    traj = build_phase("656-2")
    assert pinned(traj, START) == [{0, 1, 2}] * 3
    assert pinned(traj, END) == [{0, 1, 2}] * 3
    assert pinned(traj, MID) == [{0}, set(), {0}]


@pytest.mark.parametrize("tau", [0.3, 0.25, 1e-9, float("nan")])
def test_scheme_spec_rejects_pins_between_start_mid_end(tau):
    # generate_phase has a value only at START, MID and END; a pin at 0.3
    # used to take the end waypoint's value without complaint.
    pins = ((START, 0), (START, 1), (tau, 0), (END, 0), (END, 1))
    with pytest.raises(ValueError, match="START, MID or END"):
        SchemeSpec("custom", (pins, pins, pins))
    SchemeSpec("custom", tuple(((START, 0), (MID, 0), (END, 0)) for _ in range(3)))


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
    traj = build_gait(name, generic_reference(5))
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
    # via_point_rmse's shape: one row of 21 times per via window, via included.
    windows = np.array([np.linspace(v - 0.01, v + 0.01, 21) for v in traj.via_times])
    assert windows.shape == (5, 21)
    flat = evaluate(traj, windows.ravel(), slice(None))
    assert same_bits(evaluate(traj, windows, slice(None)), flat.reshape(4, 5, 21))
    for order in range(4):
        assert same_bits(evaluate(traj, windows, order), flat[order].reshape(5, 21))


def test_evaluate_pads_low_degree_segments_bitwise():
    # Degrees 1, 6 and 3: in the trajectory's coefficient table the linear
    # segment's position row sits under five powers of zero padding.
    spec = SchemeSpec("padded", (
        ((START, 0), (END, 0)),
        ((START, 0), (START, 1), (START, 2), (START, 3), (END, 0), (END, 1), (END, 2)),
        ((START, 0), (START, 1), (END, 0), (END, 1)),
    ))
    assert spec.segment_degrees == (1, 6, 3)
    traj = generate_phase(spec, waypoints_from_reference(generic_reference(7), STANCE))
    times = np.union1d(np.linspace(traj.t_start, traj.t_end, 41),
                       [traj.t_start, *traj.via_times, traj.t_end])
    table = evaluate(traj, times, slice(None))
    for t, column in zip(times, table.T):
        seg = [s for s in traj.segments if s.t_start <= t][-1]
        tau = (t - seg.t_start) / seg.duration
        assert same_bits(column, [
            poly.horner(poly.differentiate(seg.polynomial, k), tau) / seg.duration**k
            for k in range(4)
        ])


def test_kinematics_is_a_one_segment_evaluate():
    for seg in build_gait("656-2", generic_reference(3)).segments:
        one = PiecewiseTrajectory((seg,))
        times = np.linspace(seg.t_start, seg.t_end, 17)
        assert same_bits(seg.kinematics(times), evaluate(one, times, slice(None)))
        for t in (seg.t_start, float(times[5]), seg.t_end):
            assert same_bits(seg.kinematics(t), evaluate(one, t, slice(None)))


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_phase_halves_evaluate_like_the_gait(name):
    traj = build_gait(name, generic_reference(11))
    stance, swing = _phases(traj)
    # The gait is right-continuous at 0.6, where swing takes over, so the
    # stance half is compared on [0, 0.6) only.
    for half, times in ((stance, np.linspace(0.0, 0.6, 57)[:-1]),
                        (swing, np.linspace(0.6, 1.0, 57))):
        assert same_bits(evaluate(half, times, slice(None)),
                         evaluate(traj, times, slice(None)))


def test_evaluate_right_continuous_at_via():
    # deliberately break position continuity at the via and check which side wins
    seg_a = solve_segment(1, [Constraint(0, START, 0.0), Constraint(0, END, 1.0)],
                          0.0, 0.12)
    seg_b = solve_segment(1, [Constraint(0, START, 99.0), Constraint(0, END, 0.0)],
                          0.12, 0.6)
    traj = PiecewiseTrajectory((seg_a, seg_b))
    assert evaluate(traj, 0.12, 0) == pytest.approx(99.0, abs=1e-9)
    jump = continuity_report(traj).at(0.12, 0)
    assert jump.jump == pytest.approx(98.0) and jump.constrained_both_sides


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


def per_segment_solves(scheme, phases, midpoint):
    """Each segment of each phase solved on its own with solve_segment, on
    the Constraints the scheme's templates name."""
    segments = []
    for waypoints in phases:
        for i, pins in enumerate(scheme.segment_constraints):
            w_start, w_end = waypoints[i], waypoints[i + 1]
            constraints = [
                Constraint(order, tau, midpoint(0.5 * (w_start.time + w_end.time))
                           if tau == MID else
                           (w_start if tau == START else w_end).derivative(order))
                for tau, order in pins
            ]
            segments.append(solve_segment(len(pins) - 1, constraints,
                                          w_start.time, w_end.time))
    return segments


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_stacked_gait_matches_per_segment_solves_bitwise(name):
    # A gait solves each segment slot once for both phases; every segment
    # must still equal its own solve_segment call to the last bit, and a
    # lone phase must equal its half of the gait.
    rng = np.random.default_rng(SCHEME_NAMES.index(name))
    scheme = builtin_scheme(name)
    for _ in range(25):
        ref = PolynomialReference(tuple(rng.uniform(-5, 5, 8)))
        stance = waypoints_from_reference(
            ref, [0.0, rng.uniform(0.08, 0.2), rng.uniform(0.4, 0.52), 0.6])
        swing = waypoints_from_reference(
            ref, [0.6, rng.uniform(0.64, 0.72), rng.uniform(0.88, 0.96), 1.0])
        midpoint = lambda t: ref(t, 0)
        gait = generate_gait(scheme, stance, swing, midpoint, midpoint)
        alone = per_segment_solves(scheme, (stance, swing), midpoint)
        halves = (generate_phase(scheme, stance, midpoint).segments
                  + generate_phase(scheme, swing, midpoint).segments)
        for got, want, half in zip(gait.segments, alone, halves, strict=True):
            for other in (want, half):
                assert same_bits(got.polynomial.coefficients, other.polynomial.coefficients)
                assert (got.t_start, got.t_end, got.pins, got.condition_estimate) == \
                    (other.t_start, other.t_end, other.pins, other.condition_estimate)


def test_scheme_compiles_its_templates_once(monkeypatch):
    # A spec builds nothing until its first solve, then at most one template
    # per segment slot, and nothing for any later gait.
    built = []
    real_template = solver._template

    def counting_template(degree, pins):
        built.append(pins)
        return real_template(degree, pins)

    monkeypatch.setattr(solver, "_template", counting_template)
    monkeypatch.setattr(schemes, "_template", counting_template)
    # A fresh spec: the cached built-in one may have compiled in an earlier test.
    scheme = SchemeSpec("656-2", builtin_scheme("656-2").segment_constraints)
    assert built == []
    for seed in range(100):
        ref = generic_reference(seed)
        generate_gait(scheme, waypoints_from_reference(ref, STANCE),
                      waypoints_from_reference(ref, SWING),
                      lambda t: ref(t, 0), lambda t: ref(t, 0))
        if seed == 0:
            assert 0 < len(built) <= 3
            first_gait = list(built)
    assert built == first_gait


def test_gait_errors_keep_stance_first_order():
    # Stance values are read before the swing table is checked, as when each
    # phase was solved in turn: a stance waypoint without the acceleration
    # 656-1 pins wins over a short or unsorted swing table.
    stance = [Waypoint(t, 0.0, 0.0) for t in STANCE]
    for swing in (zero_waypoints(SWING[:3]), zero_waypoints([0.6, 0.9, 0.8, 1.0])):
        with pytest.raises(MissingWaypointDerivative) as err:
            generate_gait(builtin_scheme("656-1"), stance, swing)
        assert str(err.value) == ("scheme 656-1 segment 1 needs derivative order 2 "
                                  "at t=0.0, but the waypoint does not define it")
    with pytest.raises(ValueError, match="strictly increasing"):
        generate_gait(builtin_scheme("656-1"), zero_waypoints(STANCE),
                      [Waypoint(t, 0.0) for t in (0.6, 0.9, 0.8, 1.0)])
    # Mid-point sources are called in segment order, stance before swing.
    calls = []
    ref = generic_reference(2)
    generate_gait(builtin_scheme("434-2"), waypoints_from_reference(ref, STANCE),
                  waypoints_from_reference(ref, SWING),
                  lambda t: calls.append(("stance", t)) or ref(t, 0),
                  lambda t: calls.append(("swing", t)) or ref(t, 0))
    assert calls == [("stance", 0.06), ("stance", 0.54), ("swing", 0.64), ("swing", 0.96)]


def test_singular_or_nonfinite_gait_names_its_pins():
    line = ((START, 0), (END, 0))
    spec = SchemeSpec("singular", (line, ((START, 0), (START, 0)), line))
    for solve in (lambda: generate_phase(spec, zero_waypoints(STANCE)),
                  lambda: generate_gait(spec, zero_waypoints(STANCE), zero_waypoints(SWING))):
        with pytest.raises(SingularSystem, match=r"singular: position@tau=0, position@tau=0$"):
            solve()
    # Finite waypoints whose solve overflows: the slot's pins are named too.
    huge = [Waypoint(t, (-1) ** i * 1e308, 0.0, 0.0, 0.0) for i, t in enumerate(SWING)]
    with pytest.raises(SingularSystem, match="non-finite coefficients: position@tau=0, "
                       "velocity@tau=0, acceleration@tau=0, position@tau=1, velocity@tau=1$"):
        generate_gait(builtin_scheme("434-1"), zero_waypoints(STANCE), huge)


def test_scheme_spec_has_three_segments():
    line = ((START, 0), (END, 0))
    for count in (2, 4):
        with pytest.raises(ValueError, match="3 segments"):
            SchemeSpec("custom", (line,) * count)


def test_builtin_schemes_are_built_once():
    for name in SCHEME_NAMES:
        assert builtin_scheme(name) is builtin_scheme(name)


@pytest.mark.parametrize("order", [4, -1])
def test_scheme_spec_rejects_pin_orders_outside_0_to_3(order):
    line = ((START, 0), (END, 0))
    with pytest.raises(ValueError, match=rf"pin \(1\.0, {order}\): order must be in 0\.\.3"):
        SchemeSpec("custom", (line, ((START, 0), (END, order)), line))
