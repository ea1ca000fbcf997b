import numpy as np
import pytest

from pspb import poly
from pspb.errors import ConstraintCountMismatch, SingularSystem
from pspb.solver import (
    MID_POINT,
    SEGMENT_END,
    SEGMENT_START,
    Constraint,
    assemble_system,
    at_tau,
    residuals,
    solve_segment,
)


def c(order, anchor, value):
    return Constraint(order, anchor, value)


def test_assemble_linear_interpolation_system():
    matrix, rhs = assemble_system(
        1, [c(0, SEGMENT_START, 0.0), c(0, SEGMENT_END, 1.0)], 1.0
    )
    assert np.array_equal(matrix, [[1, 0], [1, 1]])
    assert np.array_equal(rhs, [0, 1])


def test_cubic_boundary_system_solution():
    seg = solve_segment(
        3,
        [c(0, SEGMENT_START, 0), c(1, SEGMENT_START, 0),
         c(0, SEGMENT_END, 1), c(1, SEGMENT_END, 0)],
        0.0, 1.0,
    )
    assert seg.polynomial.coefficients == pytest.approx((0, 0, 3, -2), abs=1e-12)


def test_underdetermined_rejected():
    with pytest.raises(ConstraintCountMismatch):
        assemble_system(3, [c(0, SEGMENT_START, 0)] * 3, 1.0)


def test_table_quartic_segment():
    # quartic with P,V,A at start and P,V at end
    cons = [
        c(0, SEGMENT_START, 0), c(1, SEGMENT_START, 0), c(2, SEGMENT_START, 0),
        c(0, SEGMENT_END, 1), c(1, SEGMENT_END, 0),
    ]
    seg = solve_segment(4, cons, 0.0, 1.0)
    assert max(residuals(seg, cons)) <= 1e-12
    assert poly.horner(seg.polynomial, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert poly.horner(seg.polynomial, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_system_gives_zero_polynomial():
    cons = [
        c(0, SEGMENT_START, 0), c(1, SEGMENT_START, 0), c(2, SEGMENT_START, 0),
        c(0, SEGMENT_END, 0), c(1, SEGMENT_END, 0),
    ]
    seg = solve_segment(4, cons, 0.0, 0.5)
    assert seg.polynomial.coefficients == pytest.approx((0,) * 5, abs=1e-14)


def test_contradictory_positions_raise():
    cons = [
        c(0, SEGMENT_START, 0), c(0, at_tau(0.0), 1), c(1, SEGMENT_START, 0),
        c(0, SEGMENT_END, 1), c(1, SEGMENT_END, 0), c(2, SEGMENT_END, 0),
    ]
    with pytest.raises(SingularSystem):
        solve_segment(5, cons, 0.0, 1.0)


def test_midpoint_anchor_rejects_derivatives():
    with pytest.raises(ValueError):
        Constraint(1, MID_POINT, 0.0)


def test_condition_estimate_at_least_one():
    seg = solve_segment(
        1, [c(0, SEGMENT_START, 0), c(0, SEGMENT_END, 1)], 0.0, 1.0
    )
    assert seg.condition_estimate >= 1.0


def _hermite_constraints(degree, rng):
    """Exactly determined two-point Hermite set (always nonsingular)."""
    n_start = (degree + 2) // 2
    cons = [c(k, SEGMENT_START, rng.uniform(-100, 100)) for k in range(n_start)]
    cons += [c(k, SEGMENT_END, rng.uniform(-100, 100))
             for k in range(degree + 1 - n_start)]
    return cons


def test_round_trip_residuals_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        degree = int(rng.integers(3, 7))
        duration = rng.uniform(0.05, 2.0)
        cons = _hermite_constraints(degree, rng)
        seg = solve_segment(degree, cons, 0.0, duration)
        scale = 1 + max(abs(x.value) for x in cons)
        assert max(residuals(seg, cons)) <= 1e-9 * scale


def test_scale_covariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        degree = int(rng.integers(3, 7))
        cons = _hermite_constraints(degree, rng)
        seg1 = solve_segment(degree, cons, 0.0, 0.7)
        s = 3.5
        scaled = [c(x.order, x.anchor, s * x.value) for x in cons]
        seg2 = solve_segment(degree, scaled, 0.0, 0.7)
        got = np.array(seg2.polynomial.coefficients)
        want = s * np.array(seg1.polynomial.coefficients)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_position_only_solve_independent_of_duration():
    cons = [c(0, at_tau(tau), v) for tau, v in
            [(0.0, 1.0), (0.25, -2.0), (0.5, 0.5), (0.75, 3.0), (1.0, -1.0)]]
    seg_a = solve_segment(4, cons, 0.0, 1.0)
    seg_b = solve_segment(4, cons, 0.0, 2.0)
    assert seg_a.polynomial.coefficients == pytest.approx(
        seg_b.polynomial.coefficients, rel=1e-12, abs=1e-12
    )


def test_velocity_constraints_scale_with_duration():
    # same physical boundary values solved over T and 2T must agree
    # in physical units at the matched boundary points
    values = dict(p0=1.0, v0=-2.0, p1=4.0, v1=0.5)
    for T in (1.0, 2.0):
        cons = [
            c(0, SEGMENT_START, values["p0"]), c(1, SEGMENT_START, values["v0"]),
            c(0, SEGMENT_END, values["p1"]), c(1, SEGMENT_END, values["v1"]),
        ]
        seg = solve_segment(3, cons, 0.0, T)
        pos0, vel0, _, _ = seg.kinematics(0.0)
        pos1, vel1, _, _ = seg.kinematics(T)
        assert (pos0, vel0) == pytest.approx((values["p0"], values["v0"]), abs=1e-10)
        assert (pos1, vel1) == pytest.approx((values["p1"], values["v1"]), abs=1e-10)


def _closed_form_cubic(p0, v0, p1, v1, T):
    d = p1 - p0
    return (p0, v0 * T, 3 * d - T * (2 * v0 + v1), -2 * d + T * (v0 + v1))


def _closed_form_quintic(p0, v0, a0, p1, v1, a1, T):
    d = p1 - p0
    return (
        p0,
        v0 * T,
        a0 * T**2 / 2,
        10 * d - T * (6 * v0 + 4 * v1) - T**2 * (3 * a0 - a1) / 2,
        -15 * d + T * (8 * v0 + 7 * v1) + T**2 * (3 * a0 - 2 * a1) / 2,
        6 * d - 3 * T * (v0 + v1) - T**2 * (a0 - a1) / 2,
    )


def test_cubic_matches_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(30):
        p0, v0, p1, v1 = rng.uniform(-50, 50, 4)
        T = rng.uniform(0.1, 2.0)
        cons = [c(0, SEGMENT_START, p0), c(1, SEGMENT_START, v0),
                c(0, SEGMENT_END, p1), c(1, SEGMENT_END, v1)]
        seg = solve_segment(3, cons, 0.0, T)
        want = _closed_form_cubic(p0, v0, p1, v1, T)
        assert seg.polynomial.coefficients == pytest.approx(
            want, rel=1e-10, abs=1e-10
        )


def test_quintic_matches_closed_form():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p0, v0, a0, p1, v1, a1 = rng.uniform(-50, 50, 6)
        T = rng.uniform(0.1, 2.0)
        cons = [c(0, SEGMENT_START, p0), c(1, SEGMENT_START, v0),
                c(2, SEGMENT_START, a0), c(0, SEGMENT_END, p1),
                c(1, SEGMENT_END, v1), c(2, SEGMENT_END, a1)]
        seg = solve_segment(5, cons, 0.0, T)
        want = _closed_form_quintic(p0, v0, a0, p1, v1, a1, T)
        assert seg.polynomial.coefficients == pytest.approx(
            want, rel=1e-10, abs=1e-10
        )
