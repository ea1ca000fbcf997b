import numpy as np
import pytest

from pspb import poly
from pspb.errors import OutOfDomain
from pspb.poly import Polynomial
from pspb.solver import SolvedSegment


def test_zero_polynomial():
    assert poly.horner(Polynomial((0,)), 5.0) == 0.0


@pytest.mark.parametrize("coefficients, message", [
    ((), "polynomial needs at least one coefficient"),
    ((1.0, float("nan")), "coefficients must be finite"),
    ((float("inf"),), "coefficients must be finite"),
], ids=["empty", "nan", "inf"])
def test_polynomial_refuses_no_or_non_finite_coefficients(coefficients, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Polynomial(coefficients)


def test_hand_solved_cubic():
    # p(0)=0, p'(0)=0, p(1)=1, p'(1)=0 -> 3t^2 - 2t^3
    p = Polynomial((0, 0, 3, -2))
    assert poly.horner(p, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert poly.horner(p, 0.5) == pytest.approx(0.5, abs=1e-15)


def test_square_binomial():
    assert poly.horner(Polynomial((1, 2, 1)), 2.0) == 9.0


def test_degree_is_structural():
    p = Polynomial((1.0, 2.0, 0.0))
    assert p.degree == 2


def test_differentiate_cubic():
    d = poly.differentiate(Polynomial((0, 0, 3, -2)), 1)
    assert d.coefficients == (0.0, 6.0, -6.0)


def test_differentiate_constant():
    assert poly.differentiate(Polynomial((7,)), 1).coefficients == (0.0,)


def test_cubic_has_constant_jerk():
    assert poly.differentiate(Polynomial((0, 0, 0, 1)), 3).coefficients == (6.0,)


def test_differentiate_identity_at_zero():
    p = Polynomial((1, 2, 3))
    assert poly.differentiate(p, 0).coefficients == p.coefficients


@pytest.mark.parametrize("k", [-1, 4, 2.0, 1.5, True])
def test_differentiate_rejects_out_of_range(k):
    with pytest.raises(ValueError):
        poly.differentiate(Polynomial((1, 1)), k)


def test_an_order_is_an_integer_in_0_to_3():
    assert all(map(poly.is_order, [0, 3, np.int64(2), np.uint8(1)]))
    assert not any(map(poly.is_order, [-1, 4, 2.0, np.float64(2), 1.5, True, False,
                                       np.True_, "2", None]))
    assert poly.differentiate(Polynomial((1, 2, 3)), np.int64(2)).coefficients == (6.0,)


def test_eval_kinematics_linear_ramp():
    # slope 1 in normalized time over T=2 -> physical velocity 0.5
    out = SolvedSegment(Polynomial((0, 1)), 0.0, 2.0, 1.0).kinematics(1.0)
    assert out == pytest.approx((0.5, 0.5, 0.0, 0.0))


def test_eval_kinematics_cubic_at_zero():
    out = SolvedSegment(Polynomial((0, 0, 3, -2)), 0.0, 1.0, 1.0).kinematics(0.0)
    assert out == pytest.approx((0.0, 0.0, 6.0, -12.0))


def test_eval_kinematics_constant():
    out = SolvedSegment(Polynomial((4.2,)), 0.0, 1.7, 1.0).kinematics(0.3)
    assert out == pytest.approx((4.2, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("t", [0.4, 2.1, np.array([1.0, 2.5])])
def test_eval_kinematics_outside_its_span_raises(t):
    # kinematics is a one-segment evaluate, so it no longer extrapolates.
    with pytest.raises(OutOfDomain):
        SolvedSegment(Polynomial((0, 1)), 0.5, 2.0, 1.0).kinematics(t)


def test_eval_kinematics_rejects_bad_duration():
    with pytest.raises(ValueError):
        SolvedSegment(Polynomial((1,)), 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="cube"):
        SolvedSegment(Polynomial((1,)), 0.0, 1e-300, 1.0)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(200):
        degree = rng.integers(0, 7)
        p = Polynomial(tuple(rng.uniform(-10, 10, degree + 1)))
        t = rng.uniform(0, 1)
        exact = poly.horner(poly.differentiate(p, 1), t)
        fd = (poly.horner(p, t + h) - poly.horner(p, t - h)) / (2 * h)
        assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))


def test_repeated_first_derivative_equals_second():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = Polynomial(tuple(rng.uniform(-10, 10, rng.integers(1, 8))))
        twice = poly.differentiate(poly.differentiate(p, 1), 1)
        assert twice.coefficients == poly.differentiate(p, 2).coefficients


def test_eval_is_linear():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = rng.integers(1, 8)
        a, b = rng.uniform(-10, 10, 2)
        pc, qc = rng.uniform(-10, 10, n), rng.uniform(-10, 10, n)
        t = rng.uniform(0, 1)
        combined = poly.horner(Polynomial(tuple(a * pc + b * qc)), t)
        separate = a * poly.horner(Polynomial(tuple(pc)), t) \
            + b * poly.horner(Polynomial(tuple(qc)), t)
        assert combined == pytest.approx(separate, rel=1e-12, abs=1e-12)
