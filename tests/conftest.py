import math

import pytest

from pspb.poly import Polynomial
from pspb.simulation import GRAVITY, THIGH, BodyParams, PDGains, SimState


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # expose the call-phase outcome so the acceptance fixture can print
    # a PASS/FAIL line per criterion
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        item.rep_call = rep


# The tests' oracle (``from conftest import differentiate, horner``): one
# polynomial's formal derivative, coefficient by coefficient, and Horner's rule
# over it, written apart from ``pspb``, which differentiates only in its
# trajectory table (``schemes._build_table``).

def horner(poly: Polynomial, t):
    """Evaluate by Horner's scheme at a float or element-wise on an array."""
    acc = 0.0
    for c in reversed(poly.coefficients):
        acc = acc * t + c
    return acc


def differentiate(poly: Polynomial, k: int) -> Polynomial:
    """k-th formal derivative."""
    coeffs = list(poly.coefficients)
    for _ in range(k):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:] or [0.0]
    return Polynomial(tuple(coeffs))


# The tests' torque oracles (``from conftest import TRUNK, gravity_torque, pd_torque``):
# ``simulate_tracking`` inlines both laws in its RK4 loop, and a second body, the trunk,
# checks that loop on other parameters than the thigh's.

TRUNK = BodyParams(mass=17.761, length=0.7050, com=0.2965)


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
