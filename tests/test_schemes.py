import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspb import poly, schemes, solver
from pspb.cli import _phases
from pspb.errors import (
    MissingWaypointDerivative,
    NonContiguousPhases,
    OutOfDomain,
    SingularSystem,
    UnknownScheme,
)
from pspb.metrics import continuity_report, sample, via_point_rmse
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
from pspb.simulation import simulate_tracking
from pspb.solver import Constraint, SolvedSegment, residuals, solve_segment

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


def padded_phase():
    """Degrees 1, 6 and 3: in the trajectory's coefficient table the linear
    segment's position row sits under five powers of zero padding."""
    spec = SchemeSpec("padded", (
        ((START, 0), (END, 0)),
        ((START, 0), (START, 1), (START, 2), (START, 3), (END, 0), (END, 1), (END, 2)),
        ((START, 0), (START, 1), (END, 0), (END, 1)),
    ))
    assert spec.segment_degrees == (1, 6, 3)
    return generate_phase(spec, waypoints_from_reference(generic_reference(7), STANCE))


def test_evaluate_pads_low_degree_segments_bitwise():
    traj = padded_phase()
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


@pytest.mark.parametrize("name", [*SCHEME_NAMES, "padded"])
def test_continuity_jumps_match_the_scalar_oracle_bitwise(name):
    # Limits read from the table at tau 1 and 0 against Horner on each
    # segment's formal derivative, one scalar at a time.
    traj = padded_phase() if name == "padded" else build_gait(name, generic_reference(13))
    report = continuity_report(traj)
    assert len(report.jumps) == 4 * len(traj.via_times)
    for v, left, right in zip(traj.via_times, traj.segments, traj.segments[1:]):
        for k in range(4):
            before, after = (
                poly.horner(poly.differentiate(seg.polynomial, k), tau) / seg.duration**k
                for seg, tau in ((left, 1.0), (right, 0.0)))
            jump = report.at(v, k).jump
            assert type(jump) is float and same_bits(jump, abs(after - before))


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


def segment_systems(scheme, phases, midpoint):
    """(degree, Constraints, t_start, t_end) of each segment of each phase,
    with the values the scheme's templates name."""
    systems = []
    for waypoints in phases:
        for i, pins in enumerate(scheme.segment_constraints):
            w_start, w_end = waypoints[i], waypoints[i + 1]
            constraints = [
                Constraint(order, tau, midpoint(0.5 * (w_start.time + w_end.time))
                           if tau == MID else
                           (w_start if tau == START else w_end).derivative(order))
                for tau, order in pins
            ]
            systems.append((len(pins) - 1, constraints, w_start.time, w_end.time))
    return systems


def per_segment_solves(scheme, phases, midpoint):
    """Each segment of each phase solved on its own with solve_segment, on
    the Constraints the scheme's templates name."""
    return [solve_segment(*system) for system in segment_systems(scheme, phases, midpoint)]


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_stacked_gait_matches_per_segment_solves_bitwise(name):
    # A gait is one padded solve for both phases; every segment
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


def test_gait_segments_equal_their_public_construction():
    # Segments are built from the gait's coefficient array on first use; each must
    # equal the segment built through the public constructors, and hold plain float
    # coefficients.
    rng = np.random.default_rng(29)
    for name in SCHEME_NAMES:
        for _ in range(20):
            gait, _, _ = random_gait(builtin_scheme(name), rng)
            for seg in gait.segments:
                coeffs = seg.polynomial.coefficients
                assert all(type(c) is float for c in coeffs)
                assert seg == SolvedSegment(poly.Polynomial(coeffs), seg.t_start, seg.t_end,
                                            seg.condition_estimate, seg.pins)
                assert seg.polynomial.degree == len(coeffs) - 1 == len(seg.pins) - 1


def test_gait_errors_keep_their_pin_order():
    # 656-2's first segment pins the start acceleration before its mid-point:
    # with both missing, the derivative, first in pin order, is named.
    stance = [Waypoint(STANCE[0], 1.0, 0.0)] + zero_waypoints(STANCE[1:])
    with pytest.raises(MissingWaypointDerivative) as err:
        generate_gait(builtin_scheme("656-2"), stance, zero_waypoints(SWING))
    assert str(err.value) == ("scheme 656-2 segment 1 needs derivative order 2 "
                              "at t=0.0, but the waypoint does not define it")
    # A mapping without segment 2 (index 2) fails at the third segment.
    with pytest.raises(MissingWaypointDerivative) as err:
        generate_phase(builtin_scheme("434-2"), zero_waypoints(STANCE), {0: 1.0, 1: 2.0})
    assert str(err.value) == ("scheme 434-2 needs a mid-point position for segment 3 "
                              "(t=0.54) and none was supplied")
    # Durations whose cube underflows solve to finite coefficients, then fail
    # the span check.
    tiny = [t * 1e-110 for t in STANCE]
    with pytest.raises(ValueError) as err:
        generate_phase(builtin_scheme("434-1"), zero_waypoints(tiny))
    assert str(err.value) == ("segment must have t_end > t_start and a duration whose "
                              f"cube is nonzero, got [{tiny[0]}, {tiny[1]}]")
    # A NaN value solves to NaN coefficients, named by the first segment's pins.
    nan = [Waypoint(t, math.nan, 0.0, 0.0, 0.0) for t in STANCE]
    with pytest.raises(SingularSystem) as err:
        generate_phase(builtin_scheme("545-1"), nan)
    assert str(err.value) == (
        "solve produced non-finite coefficients: position@tau=0, velocity@tau=0, "
        "acceleration@tau=0, jerk@tau=0, position@tau=1, velocity@tau=1")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SCHEME_NAMES),
       durations=st.lists(st.floats(1e-3, 10), min_size=6, max_size=6),
       values=st.lists(st.floats(-10, 10), min_size=32, max_size=32))
def test_gait_matches_per_segment_solves_for_any_duration(name, durations, values):
    # T**k comes from Python's float power, as in solve_segment; numpy's power
    # differs from it in the last bit for some durations (a few percent at k = 3).
    times = list(itertools.accumulate(durations, initial=0.0))
    rows = [values[4 * i:4 * i + 4] for i in range(8)]
    stance = [Waypoint(t, *row) for t, row in zip(times[:4], rows)]
    swing = [Waypoint(t, *row) for t, row in zip(times[3:], rows[4:])]
    midpoint = math.sin
    scheme = builtin_scheme(name)
    gait = generate_gait(scheme, stance, swing, midpoint, midpoint)
    alone = per_segment_solves(scheme, (stance, swing), midpoint)
    for got, want in zip(gait.segments, alone, strict=True):
        assert same_bits(got.polynomial.coefficients, want.polynomial.coefficients)
        assert (got.t_start, got.t_end, got.pins, got.condition_estimate) == \
            (want.t_start, want.t_end, want.pins, want.condition_estimate)


def test_singular_or_nonfinite_gait_names_its_pins():
    line = ((START, 0), (END, 0))
    spec = SchemeSpec("singular", (line, ((START, 0), (START, 0)), line))
    # The compile is read before any phase, so a three-waypoint phase names the pins too.
    for solve in (lambda: generate_phase(spec, zero_waypoints(STANCE)),
                  lambda: generate_gait(spec, zero_waypoints(STANCE), zero_waypoints(SWING)),
                  lambda: generate_phase(spec, zero_waypoints(STANCE[:3]))):
        with pytest.raises(SingularSystem, match=r"singular: position@tau=0, position@tau=0$"):
            solve()
    # Finite waypoints whose solve overflows: the first bad segment's pins are named too.
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


@pytest.mark.parametrize("order", [4, -1, -4, slice(5, 9), slice(4, None), True, False,
                                   2.0, 1.5])
def test_scheme_spec_rejects_pin_orders_outside_0_to_3(order):
    line = ((START, 0), (END, 0))
    with pytest.raises(ValueError, match=re.escape(f"pin {(1.0, order)}: order must be in 0..3")):
        SchemeSpec("custom", (line, ((START, 0), (END, order)), line))
    # Nor is it an order to read: an int used to index the coefficient table
    # like a sequence (-1 gave the jerk, 4 an IndexError), an empty slice
    # returned an empty array, and numpy read a bool as a mask (True gave all
    # four orders). A float equal to an order is no order either: 2.0 used to
    # pass every check that compared it with range(4).
    ref = generic_reference(4)
    gait = build_gait("656-1", ref)
    for read in (lambda: evaluate(gait, 0.3, order),
                 lambda: evaluate(gait, np.array([0.1, 0.3]), order),
                 lambda: via_point_rmse(gait, ref, order),
                 lambda: sample(gait, 11, order)):
        with pytest.raises(ValueError, match=re.escape(f"order {order!r} selects none")):
            read()


# The nine pins a SchemeSpec takes, as (tau, order): orders 0-3 at START or
# END, and the position at MID, as enumerated by test_solver.py's
# test_every_scheme_template_is_singular_or_well_conditioned.
PINS = [(tau, k) for tau in (START, END) for k in range(4)] + [(MID, 0)]
PV_PV = ((START, 0), (START, 1), (END, 0), (END, 1))
PVA = ((START, 0), (START, 1), (START, 2), (END, 0), (END, 1), (END, 2))
HERMITE_7 = tuple(PINS[:8])  # orders 0-3 at both ends: degree 7
WIDE_SPECS = (
    SchemeSpec("9-4-9", (HERMITE_7 + ((MID, 0),), PV_PV, HERMITE_7 + ((MID, 0),))),
    SchemeSpec("8-6-8", (HERMITE_7, PVA, HERMITE_7)),
    SchemeSpec("9-6-4", (HERMITE_7 + ((MID, 0),), PVA, PV_PV)),
)


def nonsingular_pin_sets():
    """Every pin set of PINS whose template is nonsingular, smallest first."""
    sets = []
    for size in range(1, len(PINS) + 1):
        for subset in itertools.combinations(PINS, size):
            try:
                solver._template(size - 1, tuple((k, tau) for tau, k in subset))
            except SingularSystem:
                continue
            sets.append(subset)
    assert len(sets) == 511 - 135
    return sets


def between_656_1(pins):
    """A spec with ``pins`` in the middle slot and 656-1's width-7 outer templates."""
    outer = builtin_scheme("656-1").segment_constraints
    return SchemeSpec("middle", (outer[0], pins, outer[2]))


def random_phases(rng):
    """A random degree-7 reference, stance and swing waypoints on it at random
    via times, and its mid-point source."""
    ref = PolynomialReference(tuple(rng.uniform(-5, 5, 8)))
    stance = waypoints_from_reference(
        ref, [0.0, rng.uniform(0.08, 0.2), rng.uniform(0.4, 0.52), 0.6])
    swing = waypoints_from_reference(
        ref, [0.6, rng.uniform(0.64, 0.72), rng.uniform(0.88, 0.96), 1.0])
    return ref, stance, swing, lambda t: ref(t, 0)


def random_gait(scheme, rng):
    """A gait of ``scheme`` on ``random_phases``, with the phases and mid-point
    source it was solved from."""
    _, stance, swing, midpoint = random_phases(rng)
    return generate_gait(scheme, stance, swing, midpoint, midpoint), (stance, swing), midpoint


@pytest.mark.parametrize("scheme", [builtin_scheme(name) for name in SCHEME_NAMES]
                         + [WIDE_SPECS[0]], ids=lambda scheme: scheme.name)
def test_one_solve_per_gait_and_per_phase(monkeypatch, scheme):
    # A gait is one solve on the scheme's six padded templates and a phase
    # one on the first three, however wide the widest template is.
    shapes = []
    real_solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: shapes.append(a.shape) or real_solve(a, b))
    width = max(scheme.segment_degrees) + 1
    gait, (stance, _), midpoint = random_gait(scheme, np.random.default_rng(3))
    assert shapes == [(6, width, width)]
    phase = generate_phase(scheme, stance, midpoint)
    assert shapes == [(6, width, width), (3, width, width)]
    assert len(gait.segments) == 6 and len(phase.segments) == 3


def test_padded_middle_templates_match_solve_segment_bitwise():
    # Every admissible template of width up to 7, padded to 7 between 656-1's
    # outer templates, gives each gait segment solve_segment's exact bits.
    rng = np.random.default_rng(17)
    pin_sets = [pins for pins in nonsingular_pin_sets() if len(pins) <= 7]
    assert len(pin_sets) == 366
    for pins in pin_sets:
        scheme = between_656_1(pins)
        for _ in range(2):
            gait, phases, midpoint = random_gait(scheme, rng)
            alone = per_segment_solves(scheme, phases, midpoint)
            for got, want in zip(gait.segments, alone, strict=True):
                assert same_bits(got.polynomial.coefficients, want.polynomial.coefficients)
                assert (got.t_start, got.t_end, got.pins, got.condition_estimate) == \
                    (want.t_start, want.t_end, want.pins, want.condition_estimate)


def test_templates_wider_than_7_meet_the_round_trip_bound():
    # Past width 7, bit-identity to the unpadded solve is not promised: the
    # BLAS may switch kernels with the size (one OpenBLAS build differed in
    # 860 of 21,620 random draws at width 9). Such specs are held to
    # test_solver.py's round-trip residual bound instead:
    # n * eps * cond * max|b| per tau-space constraint, over T**order.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(19)
    wide = [between_656_1(pins) for pins in nonsingular_pin_sets() if len(pins) > 7]
    assert len(wide) == 10
    for scheme in [*wide, *WIDE_SPECS]:
        for _ in range(10):
            gait, phases, midpoint = random_gait(scheme, rng)
            for seg, (degree, cons, t_start, t_end) in zip(
                    gait.segments, segment_systems(scheme, phases, midpoint), strict=True):
                T = t_end - t_start
                assert (seg.t_start, seg.t_end) == (t_start, t_end)
                tolerance = (degree + 1) * eps * seg.condition_estimate
                rhs_scale = max(abs(x.value) * T**x.order for x in cons)
                for x, residual in zip(cons, residuals(seg, cons), strict=True):
                    assert residual <= tolerance * rhs_scale / T**x.order


def exact_solve(pins, rhs):
    """The tau-space matrix of the (order, tau) pins, and the x with
    matrix @ x == rhs, both in exact rationals (Gauss-Jordan elimination)."""
    n = len(pins)
    matrix = [[math.perm(j, k) * Fraction(tau) ** (j - k) if j >= k else Fraction(0)
               for j in range(n)] for k, tau in pins]
    rows = [row + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for j in range(n):
        pivot = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[pivot] = rows[pivot], rows[j]
        for i in range(n):
            if i != j and rows[i][j] != 0:
                factor = rows[i][j] / rows[j][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[j])]
    return matrix, [row[n] / row[j] for j, row in enumerate(rows)]


def test_gait_coefficients_match_an_exact_solve():
    # Each segment's system solved exactly, in rationals, on the very float
    # right side the stacked solve sees. LU with partial pivoting is
    # backward stable: the exact residual of the float coefficients x is a
    # few eps * |A| |x| (infinity norms), and their relative error at most
    # cond times that. Over 1,080 built-in and 4,512 padded-middle segments
    # the worst were 0.33 eps * |A| |x| and 0.16 eps * cond.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(23)
    cases = [(builtin_scheme(name), 3) for name in SCHEME_NAMES]
    cases += [(between_656_1(pins), 1) for pins in nonsingular_pin_sets()[::19]]
    for scheme, count in cases:
        for _ in range(count):
            gait, phases, midpoint = random_gait(scheme, rng)
            for seg, (_, cons, t_start, t_end) in zip(
                    gait.segments, segment_systems(scheme, phases, midpoint), strict=True):
                rhs = [x.value * (t_end - t_start)**x.order for x in cons]
                matrix, exact = exact_solve(seg.pins, rhs)
                got = [Fraction(c) for c in seg.polynomial.coefficients]
                scale = max(sum(map(abs, row)) for row in matrix) * max(map(abs, got))
                residual = max(abs(sum(a * c for a, c in zip(row, got)) - Fraction(b))
                               for row, b in zip(matrix, rhs))
                assert residual <= 2 * eps * scale
                error = max(abs(c - e) for c, e in zip(got, exact))
                assert error <= 2 * eps * seg.condition_estimate * max(map(abs, exact))


EVERY_SPEC = [builtin_scheme(name) for name in SCHEME_NAMES] + list(WIDE_SPECS)


@pytest.mark.parametrize("seed", range(3))
def test_tuple_forms_match_one_call_per_trajectory_bitwise(seed):
    # Gaits of every built-in scheme and of the wide specs on the same phases,
    # then their stance halves and their swing halves: each tuple read in one
    # call gives each trajectory's own call's bits, in order.
    ref, stance, swing, midpoint = random_phases(np.random.default_rng(seed))
    gaits = tuple(generate_gait(spec, stance, swing, midpoint, midpoint)
                  for spec in EVERY_SPEC)
    for trajs in (gaits, *zip(*map(_phases, gaits))):
        first = trajs[0]
        grid = np.concatenate([np.linspace(first.t_start, first.t_end, 41), first.via_times])
        for t in (grid, grid[:40].reshape(5, 8), first.via_times[0], first.t_end):
            for order in (*range(4), slice(None), slice(1, 3)):
                axis = 1 if isinstance(order, slice) else 0
                assert same_bits(evaluate(trajs, t, order),
                                 np.stack([evaluate(one, t, order) for one in trajs], axis))
        for order, window in ((0, 0.01), (3, 0.01), (slice(None), 0.01), (slice(None), 0.2)):
            assert repr(via_point_rmse(trajs, ref, order, window)) == repr(
                [via_point_rmse(one, ref, order, window) for one in trajs])
        assert repr(continuity_report(trajs)) == repr(list(map(continuity_report, trajs)))


def test_tuple_forms_of_no_trajectory_are_empty():
    times = np.linspace(0.0, 1.0, 7)
    assert evaluate((), times, slice(None)).shape == (4, 0, 7)
    assert evaluate((), times, 2).shape == (0, 7)
    assert via_point_rmse((), generic_reference(), slice(None)) == []
    assert continuity_report(()) == []


def test_tuple_out_of_domain_names_the_span_it_misses():
    gait = build_gait("434-1", generic_reference(2))
    stance, swing = _phases(gait)
    for t, missed in ((0.3, swing), (0.8, stance)):
        span = f"t={t} outside trajectory span [{missed.t_start}, {missed.t_end}]"
        with pytest.raises(OutOfDomain, match=re.escape(span)):
            evaluate((gait, stance, swing), np.array([0.6, t]), slice(None))


def test_via_point_rmse_reads_a_tuple_only_on_one_span_and_via_times():
    rng = np.random.default_rng(5)
    ref, stance, swing, midpoint = random_phases(rng)
    scheme = builtin_scheme("545-1")
    gait = generate_gait(scheme, stance, swing, midpoint, midpoint)
    other, _, _ = random_gait(scheme, rng)  # the same span, other via times
    assert (other.t_start, other.t_end) == (gait.t_start, gait.t_end)
    assert other.via_times != gait.via_times
    for trajs in ((gait, other), _phases(gait)):
        with pytest.raises(ValueError, match="must share one span and via times"):
            via_point_rmse(trajs, ref, slice(None))


def free(seg):
    """``seg`` through the public constructor: a segment with no gait table behind it."""
    return SolvedSegment(seg.polynomial, seg.t_start, seg.t_end, seg.condition_estimate, seg.pins)


def same_reads(got, want):
    """Bit-identical and of the same types (numpy floats stay numpy floats)."""
    return [type(x) for x in got] == [type(x) for x in want] and same_bits(got, want)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(EVERY_SPEC), seed=st.integers(0, 2**32 - 1))
def test_a_solved_gait_reads_like_one_built_from_its_segments(spec, seed):
    # A solved gait holds its solve's coefficient array, spans and slots. The same
    # gait built from free copies of its segments, and each segment alone, read the
    # same bits: evaluate, continuity_report, via_point_rmse, kinematics, residuals
    # and the two halves _phases takes as row ranges of the gait's arrays.
    rng = np.random.default_rng(seed)
    ref, stance, swing, midpoint = random_phases(rng)
    gait = generate_gait(spec, stance, swing, midpoint, midpoint)
    rebuilt = PiecewiseTrajectory(tuple(map(free, gait.segments)))
    times = np.sort(rng.uniform(gait.t_start, gait.t_end, 29))
    for t in (times, gait.via_times[1], gait.t_end):
        for order in (0, 2, slice(None)):
            got, want = evaluate(gait, t, order), evaluate(rebuilt, t, order)
            assert type(got) is type(want) and same_bits(got, want)
    assert repr(continuity_report(gait)) == repr(continuity_report(rebuilt))
    assert repr(via_point_rmse(gait, ref, slice(None))) == repr(
        via_point_rmse(rebuilt, ref, slice(None)))
    for seg, alone in zip(gait.segments, rebuilt.segments, strict=True):
        for t in (np.linspace(seg.t_start, seg.t_end, 5), seg.t_start, seg.t_end):
            assert same_reads(seg.kinematics(t), alone.kinematics(t))
        pins = [Constraint(k, tau, 1.0) for k, tau in seg.pins]
        assert repr(residuals(seg, pins)) == repr(residuals(alone, pins))
    for half, part in zip(_phases(gait), (rebuilt.segments[:3], rebuilt.segments[3:])):
        whole = PiecewiseTrajectory(part)
        t = np.linspace(half.t_start, half.t_end, 13)
        assert same_bits(evaluate(half, t, slice(None)), evaluate(whole, t, slice(None)))
        assert repr(continuity_report(half)) == repr(continuity_report(whole))
        assert (half.t_start, half.t_end, half.via_times) == \
            (whole.t_start, whole.t_end, whole.via_times)


def test_solving_and_reading_a_gait_builds_no_segment_objects(monkeypatch):
    # Solving, evaluating (one gait, a tuple, the halves), the continuity and via
    # metrics, sampling and tracking read the gait's arrays: no SolvedSegment or
    # Polynomial is built until ``segments`` is read.
    ref, stance, swing, midpoint = random_phases(np.random.default_rng(4))
    built = []
    for cls in (SolvedSegment, poly.Polynomial):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, init=cls.__post_init__: built.append(self) or init(self))
    gaits = tuple(generate_gait(builtin_scheme(name), stance, swing, midpoint, midpoint)
                  for name in SCHEME_NAMES)
    halves = [half for gait in gaits for half in _phases(gait)]
    for trajs in (*gaits, gaits, *halves, tuple(halves[::2]), tuple(halves[1::2])):
        first = trajs[0] if isinstance(trajs, tuple) else trajs
        evaluate(trajs, np.linspace(first.t_start, first.t_end, 9), slice(None))
        continuity_report(trajs)
    via_point_rmse(gaits, ref, slice(None))
    sample(gaits[0], 11, 3)
    simulate_tracking(gaits[-1], dt=1e-3)
    assert built == []
    assert not any("segments" in vars(traj) for traj in (*gaits, *halves))
    assert len(gaits[0].segments) == 6 and len(built) == 12  # built on request only


def test_a_short_span_fails_after_every_row_is_read():
    # The span check runs after the solve, as it did when each segment was built: a
    # swing waypoint missing a derivative is named before a stance span whose cube
    # underflows, and so are non-finite coefficients.
    tiny = [t * 1e-110 for t in STANCE]
    swing = [Waypoint(tiny[-1], 0.0, 0.0, 0.0, 0.0), Waypoint(0.68, 0.0),
             *zero_waypoints(SWING[2:])]
    for name in ("434-1", "656-1"):
        with pytest.raises(MissingWaypointDerivative) as err:
            generate_gait(builtin_scheme(name), zero_waypoints(tiny), swing)
        assert str(err.value) == (f"scheme {name} segment 1 needs derivative order 1 "
                                  "at t=0.68, but the waypoint does not define it")
        with pytest.raises(ValueError) as err:
            generate_gait(builtin_scheme(name), zero_waypoints(tiny),
                          zero_waypoints([tiny[-1], *SWING[1:]]))
        assert str(err.value) == ("segment must have t_end > t_start and a duration whose "
                                  f"cube is nonzero, got [{tiny[0]}, {tiny[1]}]")
    nan = [Waypoint(t, math.nan, 0.0, 0.0, 0.0) for t in SWING[1:]]
    with pytest.raises(SingularSystem, match="^solve produced non-finite coefficients: "):
        generate_gait(builtin_scheme("545-1"), zero_waypoints(tiny),
                      [Waypoint(tiny[-1], 0.0, 0.0, 0.0, 0.0), *nan])


def test_a_gait_segment_reads_its_row_of_the_gait_table(monkeypatch):
    # A gait builds one table; its segments' kinematics and residuals read their rows
    # of it, through a one-row view that holds no reference to the gait. A free
    # segment builds its own one-row table, once.
    ref, stance, swing, midpoint = random_phases(np.random.default_rng(8))
    gait = generate_gait(builtin_scheme("656-2"), stance, swing, midpoint, midpoint)
    tables = []
    monkeypatch.setattr(schemes, "_build_table",
                        lambda *args, build=schemes._build_table: tables.append(1) or build(*args))
    for seg in gait.segments:
        seg.kinematics(np.linspace(seg.t_start, seg.t_end, 3))
        residuals(seg, [Constraint(k, tau, 0.0) for k, tau in seg.pins])
        assert seg._view is not gait and not any(v is gait for v in vars(seg._view).values())
    assert tables == [1]
    alone = free(gait.segments[2])
    for t in (alone.t_start, alone.t_end):
        alone.kinematics(t)
    assert tables == [1, 1]
