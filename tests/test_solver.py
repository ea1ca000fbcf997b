import ast
import inspect
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pspb
from conftest import horner
from pspb import schemes, solver
from pspb.errors import ConstraintCountMismatch, SingularSystem
from pspb.schemes import MID, SchemeSpec
from pspb.solver import (
    SEGMENT_END,
    SEGMENT_START,
    Constraint,
    residuals,
    solve_segment,
)


def c(order, tau, value):
    return Constraint(order, tau, value)


def test_linear_interpolation_template():
    matrix, cond = schemes._template(1, ((0, SEGMENT_START), (0, SEGMENT_END)))
    assert np.array_equal(matrix, [[1, 0], [1, 1]])
    assert not matrix.flags.writeable
    assert cond == 4.0
    seg = solve_segment(
        1, [c(0, SEGMENT_START, 0.0), c(0, SEGMENT_END, 1.0)], 0.0, 2.0
    )
    assert seg.polynomial.coefficients == (0.0, 1.0)


def test_repeated_template_is_not_rebuilt(monkeypatch):
    cons = [c(0, SEGMENT_START, 1.0), c(1, SEGMENT_START, -2.0),
            c(0, SEGMENT_END, 4.0), c(1, SEGMENT_END, 0.5)]
    first = solve_segment(3, cons, 0.0, 1.0)

    def rebuilt(*args, **kwargs):
        raise AssertionError("template matrix was inverted again")

    monkeypatch.setattr(np.linalg, "inv", rebuilt)
    monkeypatch.setattr(np.linalg, "cond", rebuilt)
    flipped = [c(x.order, x.tau, -x.value) for x in cons]
    again = solve_segment(3, flipped, 2.0, 2.3)
    assert again.condition_estimate == first.condition_estimate
    assert max(residuals(again, flipped)) < 1e-12


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
        solve_segment(3, [c(0, SEGMENT_START, 0)] * 3, 0.0, 1.0)


def test_table_quartic_segment():
    # quartic with P,V,A at start and P,V at end
    cons = [
        c(0, SEGMENT_START, 0), c(1, SEGMENT_START, 0), c(2, SEGMENT_START, 0),
        c(0, SEGMENT_END, 1), c(1, SEGMENT_END, 0),
    ]
    seg = solve_segment(4, cons, 0.0, 1.0)
    assert max(residuals(seg, cons)) <= 1e-12
    assert horner(seg.polynomial, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert horner(seg.polynomial, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_homogeneous_system_gives_zero_polynomial():
    cons = [
        c(0, SEGMENT_START, 0), c(1, SEGMENT_START, 0), c(2, SEGMENT_START, 0),
        c(0, SEGMENT_END, 0), c(1, SEGMENT_END, 0),
    ]
    seg = solve_segment(4, cons, 0.0, 0.5)
    assert seg.polynomial.coefficients == pytest.approx((0,) * 5, abs=1e-14)


def test_contradictory_positions_raise():
    cons = [
        c(0, SEGMENT_START, 0), c(0, 0.0, 1), c(1, SEGMENT_START, 0),
        c(0, SEGMENT_END, 1), c(1, SEGMENT_END, 0), c(2, SEGMENT_END, 0),
    ]
    with pytest.raises(SingularSystem):
        solve_segment(5, cons, 0.0, 1.0)


def one_segment(*orders):
    """A solve on [0, t_end] pinning each order to 1.0, the last pin at the end."""
    cons = [c(k, SEGMENT_END if i == len(orders) - 1 else SEGMENT_START, 1.0)
            for i, k in enumerate(orders)]
    return lambda t_end: solve_segment(len(orders) - 1, cons, 0.0, t_end)


def phase(name):
    """A phase of the scheme on waypoint times 0, t_end, 2 t_end, 3 t_end."""
    def solve(t_end):
        waypoints = [schemes.Waypoint(i * t_end, 0.0, 0.0, 0.0, 0.0) for i in range(4)]
        return schemes.generate_phase(schemes.builtin_scheme(name), waypoints, lambda t: 0.0)
    return solve


@pytest.mark.parametrize("solve, t_end, message", [
    # Position pins only: no value needs more than duration**0.
    (one_segment(0, 0), 1e200, "segment [0.0, 1e+200]: duration 1e+200 to the power 3 overflows"),
    # A jerk pin needs duration**3.
    (one_segment(0, 1, 2, 3), 1e120,
     "segment [0.0, 1e+120]: duration 1e+120 to the power 3 overflows"),
    # An acceleration pin needs duration**2, which overflows first; the one check names the cube.
    (one_segment(0, 1, 2, 0), 1e160,
     "segment [0.0, 1e+160]: duration 1e+160 to the power 3 overflows"),
    # A numpy scalar duration is read as a Python float, whose power raises where numpy's
    # only warns.
    (one_segment(0, 0), np.float64(1e200),
     "segment [0.0, 1e+200]: duration 1e+200 to the power 3 overflows"),
    # Every scheme, whatever it pins, whether duration**2 is finite or not.
    *[(phase(name), t_end, f"segment [0.0, {t_end}]: duration {t_end} to the power 3 overflows")
      for name in schemes.SCHEME_NAMES for t_end in (1e120, 1e300)],
    # A duration too long for a float: inf**3 is inf, with no error of its own.
    (lambda t_end: solve_segment(3, [c(k, tau, 1.0) for tau in (SEGMENT_START, SEGMENT_END)
                                     for k in (0, 1)], -t_end, t_end), 1.7e308,
     "segment [-1.7e+308, 1.7e+308]: duration inf to the power 3 overflows"),
], ids=["span_check", "jerk_pin", "acceleration_pin", "numpy_scalar",
        *[f"{name}-{t_end:g}" for name in schemes.SCHEME_NAMES for t_end in (1e120, 1e300)],
        "infinite_duration"])
def test_an_overflowing_duration_names_the_segment(solve, t_end, message):
    # Python's float power used to raise OverflowError(34, 'Numerical result out of
    # range'), whose text names neither the segment nor its duration. A duration's powers
    # are formed and checked in one place, so one fault has one text.
    with pytest.raises(OverflowError) as info:
        solve(t_end)
    assert str(info.value) == message


def test_midpoint_anchor_rejects_derivatives():
    cubic = ((SEGMENT_START, 0), (SEGMENT_START, 1), (SEGMENT_END, 0), (SEGMENT_END, 1))
    SchemeSpec("ok", (cubic,) * 3)
    mid_velocity = ((SEGMENT_START, 0), (MID, 1), (SEGMENT_END, 0), (SEGMENT_END, 1))
    with pytest.raises(ValueError, match="position-only"):
        SchemeSpec("mid-velocity", (cubic, mid_velocity, cubic))


@pytest.mark.parametrize("order", [-1, 4, 2.0, 1.5, True, False])
def test_constraint_order_outside_0_to_3_rejected(order):
    # 1.5 used to fail only inside the solve, and True to be recorded in pins.
    with pytest.raises(ValueError, match="constraint order"):
        Constraint(order, SEGMENT_START, 0.0)
    assert Constraint(np.int64(2), SEGMENT_START, 0.0).order == 2


@pytest.mark.parametrize("tau", [-0.1, 1.5, math.nan])
def test_constraint_tau_outside_segment_rejected(tau):
    with pytest.raises(ValueError, match="tau"):
        Constraint(0, tau, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_constraint_value_must_be_finite(value):
    # Bad input is refused where it is given, naming its tau, not found by the solve as
    # a SingularSystem that names no pin.
    with pytest.raises(ValueError) as err:
        Constraint(1, SEGMENT_END, value)
    assert str(err.value) == f"constraint value at tau=1.0 must be finite, got {value}"


def test_condition_estimate_at_least_one():
    seg = solve_segment(
        1, [c(0, SEGMENT_START, 0), c(0, SEGMENT_END, 1)], 0.0, 1.0
    )
    assert seg.condition_estimate >= 1.0
    # Tau-space conditioning depends on the template alone, not the duration.
    cons = [c(k, tau, 1.0) for tau in (SEGMENT_START, SEGMENT_END) for k in range(3)]
    estimates = [solve_segment(5, cons, 0.0, T).condition_estimate for T in (1.0, 1e-9)]
    assert estimates[0] == estimates[1]
    assert 1.0 <= estimates[0] < math.inf


def test_every_scheme_template_is_singular_or_well_conditioned():
    # A SchemeSpec pin is one of nine: orders 0-3 at START or END, or the
    # position at MID. Row order leaves the infinity-norm condition number
    # unchanged, so the 511 nonempty pin sets cover every user template.
    # Each is exactly singular or far from it, so no conditioning gate is needed.
    pins = [(k, tau) for tau in (SEGMENT_START, SEGMENT_END) for k in range(4)]
    pins.append((0, MID))
    singular, worst = 0, 0.0
    for size in range(1, len(pins) + 1):
        for subset in itertools.combinations(pins, size):
            constraints = [c(k, tau, 0.0) for k, tau in subset]
            try:
                seg = solve_segment(size - 1, constraints, 0.0, 1.0)
            except SingularSystem:
                singular += 1
                continue
            worst = max(worst, seg.condition_estimate)
    assert singular == 135
    assert worst <= 1e7


def test_package_exports_no_modules_or_removed_names():
    for name in pspb.__all__:
        assert not inspect.ismodule(getattr(pspb, name)), name
    for name in ("Anchor", "at_tau", "MID_POINT", "assemble_system"):
        assert name not in pspb.__all__
        assert not hasattr(solver, name)


def test_no_import_inside_a_function_and_no_cycle_between_solver_and_schemes():
    # schemes holds the segments, the template cache and the stacked solve; solver
    # imports it one way, at its top, so no module imports inside a function.
    src = Path(pspb.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.name, node.lineno) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
        if path.name == "schemes.py":
            found |= {(path.name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and "solver" in (
                          (node.module or "").split(".") + [a.name for a in node.names])}
    assert not found, sorted(found)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src.parent), os.environ.get("PYTHONPATH")]))}
    for module in ("pspb.solver", "pspb.schemes"):
        run = subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr


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


# Template rows a round-trip draw picks from: position through jerk at
# either end of the segment, and the mid-point position pin of the "-2"
# schemes.
PIN_CHOICES = [(k, tau) for tau in (SEGMENT_START, SEGMENT_END) for k in range(4)]
PIN_CHOICES.append((0, MID))


@st.composite
def templates(draw):
    degree = draw(st.integers(3, 6))
    pins = draw(st.lists(st.sampled_from(PIN_CHOICES), min_size=degree + 1,
                         max_size=degree + 1, unique=True))
    # Magnitudes from 1e-3 to 1e3, or exactly zero; nothing that could
    # underflow once scaled by duration**order.
    magnitude = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-3, 3))
    values = draw(st.lists(magnitude.map(lambda m: m[0] * 10.0 ** m[1]),
                           min_size=degree + 1, max_size=degree + 1))
    duration = 10.0 ** draw(st.floats(-6, 3))
    return degree, [c(k, tau, v) for (k, tau), v in zip(pins, values)], duration


@settings(max_examples=300, deadline=None)
@given(templates())
def test_round_trip_residuals_property(template):
    degree, cons, duration = template
    try:
        seg = solve_segment(degree, cons, 0.0, duration)
    except SingularSystem:
        assume(False)
    # The solve sees the right-hand side b_i = value_i * T**order_i. LU with
    # partial pivoting is backward stable, so each tau-space residual is at
    # most a small multiple of n * eps * ||A|| * ||x|| <= n * eps * cond *
    # ||b||, and evaluating the solution back adds another term of that
    # size. In physical units, constraint i's residual is that over
    # T**order_i. Over 18,000 random nonsingular draws the worst residual
    # was 0.035 of this bound.
    n = degree + 1
    tolerance = n * np.finfo(float).eps * seg.condition_estimate
    rhs_scale = max(abs(x.value) * duration**x.order for x in cons)
    for x, residual in zip(cons, residuals(seg, cons)):
        assert residual <= tolerance * rhs_scale / duration**x.order


@st.composite
def spans(draw):
    """Ends drawn independently, so t_start + (t_end - t_start) may round past t_end."""
    t_start = draw(st.floats(-1e3, 1e3))
    return t_start, draw(st.floats(t_start + 1e-3, t_start + 1e3))


@settings(max_examples=300, deadline=None)
@example(template=(4, [c(0, SEGMENT_START, 1.0), c(1, SEGMENT_START, -2.0), c(0, MID, 0.5),
                       c(0, SEGMENT_END, 4.0), c(1, SEGMENT_END, 0.5)], None),
         span=(0.10629102970580115, 0.47288309692384983))
@given(templates(), spans())
def test_round_trip_residuals_on_spans_off_zero(template, span):
    # The example's t_start + T rounds past its t_end; residuals must still
    # read every pin inside the span, and meet the same bound as at t_start 0.
    degree, cons, _ = template
    try:
        seg = solve_segment(degree, cons, *span)
    except SingularSystem:
        assume(False)
    T = seg.duration
    tolerance = (degree + 1) * np.finfo(float).eps * seg.condition_estimate
    rhs_scale = max(abs(x.value) * T**x.order for x in cons)
    for x, residual in zip(cons, residuals(seg, cons), strict=True):
        assert residual <= tolerance * rhs_scale / T**x.order


def test_scale_covariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        degree = int(rng.integers(3, 7))
        cons = _hermite_constraints(degree, rng)
        seg1 = solve_segment(degree, cons, 0.0, 0.7)
        s = 3.5
        scaled = [c(x.order, x.tau, s * x.value) for x in cons]
        seg2 = solve_segment(degree, scaled, 0.0, 0.7)
        got = np.array(seg2.polynomial.coefficients)
        want = s * np.array(seg1.polynomial.coefficients)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_position_only_solve_independent_of_duration():
    cons = [c(0, tau, v) for tau, v in
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


def test_every_source_and_test_file_parses_with_python_3_10_grammar():
    # CI runs 3.10 too; a 3.11-only form (except*, a nested same-quote f-string) fails here.
    root = Path(__file__).resolve().parent.parent
    paths = sorted([*root.glob("src/**/*.py"), *root.glob("tests/**/*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
