"""Every reference reads time arrays the way ``evaluate`` does: ``ref(times,
k)`` equals ``ref(t, k)`` read one float time at a time, bit for bit."""

import functools
import math
import re
import warnings

import numpy as np
import pytest

from conftest import differentiate, horner
from pspb.errors import ConfigError, OutOfDomain
from pspb.poly import Polynomial
from pspb.reference import (
    CsvReference,
    PolynomialReference,
    SinusoidReference,
    waypoints_from_reference,
)
from pspb.schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    builtin_scheme,
    evaluate,
    generate_gait,
)

SINE = SinusoidReference(20.0, 1.0)


def gait():
    return generate_gait(
        builtin_scheme("656-2"),
        waypoints_from_reference(SINE, DEFAULT_STANCE_TIMES),
        waypoints_from_reference(SINE, DEFAULT_SWING_TIMES),
        lambda t: SINE(t, 0),
        lambda t: SINE(t, 0),
    )


def span_times(traj):
    """A uniform grid plus the span ends and every via time."""
    return np.union1d(np.linspace(traj.t_start, traj.t_end, 41),
                      [traj.t_start, *traj.via_times, traj.t_end])


def csv_reference(tmp_path):
    lines = ["t,pos,vel"] + [f"{t:.12g},{SINE(t, 0):.12g},{SINE(t, 1):.12g}"
                             for t in np.linspace(0, 1, 401)]
    path = tmp_path / "ref.csv"
    path.write_text("\n".join(lines) + "\n")
    return CsvReference.from_file(path)


@pytest.mark.parametrize("kind", ["sinusoid", "polynomial", "csv", "evaluate"])
def test_array_call_matches_float_calls(kind, tmp_path):
    traj = gait()
    ref = {
        "sinusoid": SINE,
        "polynomial": PolynomialReference(tuple(np.random.default_rng(3).uniform(-5, 5, 8))),
        "csv": csv_reference(tmp_path),
        "evaluate": functools.partial(evaluate, traj),
    }[kind]
    times = span_times(traj)
    for order in range(4):
        values = ref(times, order)
        assert values.shape == times.shape
        assert np.array_equal(values, [ref(t, order) for t in times.tolist()])


def test_float_time_evaluates_like_an_array_column():
    traj = gait()
    times = span_times(traj)
    table = evaluate(traj, times, slice(3))
    for t, column in zip(times.tolist(), table.T):
        row = evaluate(traj, t, slice(3))
        assert isinstance(row, np.ndarray) and row.shape == (3,)
        assert np.array_equal(row, column)
    assert isinstance(evaluate(traj, 0.3, 0), np.float64)


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


@pytest.mark.parametrize("order", range(4))
def test_polynomial_reference_matches_fresh_derivative(order):
    # Against the tests' oracle, bit for bit and zero signs included: degrees 0-8, some
    # with signed zero coefficients, read at an array of times and one float at a time.
    rng = np.random.default_rng(4)
    times = np.concatenate([np.linspace(-1.5, 2.5, 41), [0.0, -0.0, 1e-300, -5e-324]])
    cases = [(-0.0,), (0.0, -0.0, -0.0)]  # -0.0 + -0.0 keeps its sign at negative times
    for degree in range(9):
        coefficients = rng.uniform(-5, 5, degree + 1)
        coefficients[rng.random(degree + 1) < 0.3] = -0.0
        cases.append(tuple(coefficients.tolist()))
    for coefficients in cases:
        degree = len(coefficients) - 1
        ref = PolynomialReference(coefficients)
        want = differentiate(Polynomial(coefficients), order)
        for _ in range(2):  # the first call fills the derivative cache
            values = ref(times, order)
            assert values.shape == times.shape and same_bits(values, horner(want, times))
            floats = [ref(t, order) for t in times.tolist()]
            assert all(type(v) is float for v in floats)
            assert same_bits(floats, [horner(want, t) for t in times.tolist()])
        if order > degree:  # zeros of t's shape, not a scalar
            assert same_bits(values, np.zeros(times.shape))
            assert ref(np.zeros((2, 3)), order).shape == (2, 3)
    assert str(PolynomialReference((-0.0,))(-1.0, 0)) == "-0.0"


@pytest.mark.parametrize("order", [-1, 4, 5, True, False, 2.0, 1.5])
@pytest.mark.parametrize("kind", ["sinusoid", "polynomial", "csv"])
def test_every_reference_rejects_an_order_outside_0_to_3(kind, order, tmp_path):
    ref = {
        "sinusoid": SINE,
        "polynomial": PolynomialReference((1.0, 2.0)),
        "csv": csv_reference(tmp_path),
    }[kind]
    for t in (0.5, np.array([0.25, 0.5])):
        with pytest.raises(ValueError, match=f"order {order!r} selects none of the orders 0..3"):
            ref(t, order)


def test_csv_reference_needs_a_position_column():
    # A file's header starts t,pos, so only a table built in code can lack one.
    with pytest.raises(ConfigError, match="^reference must include a position column$"):
        CsvReference([0.0, 1.0], {1: np.array([0.0, 1.0])})


@pytest.mark.parametrize("field, value, message", [
    ("period", 0.0, "period must be positive and finite, got 0.0"),
    ("period", -1.0, "period must be positive and finite, got -1.0"),
    ("period", float("nan"), "period must be positive and finite, got nan"),
    ("period", float("inf"), "period must be positive and finite, got inf"),
    ("amplitude", float("nan"), "amplitude must be finite, got nan"),
    ("amplitude", float("-inf"), "amplitude must be finite, got -inf"),
], ids=["zero_period", "negative_period", "nan_period", "inf_period", "nan_amplitude",
        "inf_amplitude"])
def test_sinusoid_reference_checks_its_fields(field, value, message):
    # Refused when built, not at the first call (period 0 divides by zero there).
    with pytest.raises(ValueError) as err:
        SinusoidReference(**{field: value})
    assert str(err.value) == f"sinusoid {message}"
    # A period this short is positive and finite: only its call overflows.
    with pytest.raises(OverflowError, match="period 1e-310 is too short"):
        SinusoidReference(period=1e-310)(0.5)


def test_sinusoid_names_the_time_whose_phase_overflows():
    # 2 pi / period * t overflows: a float's phase is checked, an array's overflow is
    # numpy's error under an errstate that raises. Either names the largest-magnitude time.
    ref, text = SinusoidReference(30.0, 1.0), "sinusoid reference: 2 pi / period * t overflows"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t, named in ((1e308, "1e+308"), (-1e308, "-1e+308")):
            with pytest.raises(OverflowError) as err:
                ref(t, 0)
            assert str(err.value) == f"{text} at t={named}"
        with np.errstate(all="raise"):
            for t, named in ((np.array([0.0, 1e308, -1.5e308]), "-1.5e+308"),
                             (np.float64(1e308), "1e+308")):
                with pytest.raises(OverflowError) as err:
                    ref(t, 2)
                assert str(err.value) == f"{text} at t={named}"
        # A phase that stays finite reads as before.
        assert ref(1e300, 1) == 60.0 * math.pi * np.sin(2 * math.pi * 1e300 + math.pi / 2)
        assert ref(np.array([0.25]), 0).tolist() == [30.0]


@pytest.mark.parametrize("errstate", ["default", "ignore", "warn"])
def test_sinusoid_phase_overflow_raises_under_any_errstate(errstate):
    # A numpy time's phase is formed under its own errstate: a caller's that ignores or
    # warns gives no warning and no NaN, but the same error as a Python float's.
    ref, text = SinusoidReference(30.0, 1.0), "sinusoid reference: 2 pi / period * t overflows"
    state = {} if errstate == "default" else {"all": errstate}
    with warnings.catch_warnings(), np.errstate(**state):
        warnings.simplefilter("error")
        for t in (1e308, np.float64(1e308), np.array([0.0, 1e308])):
            with pytest.raises(OverflowError) as err:
                ref(t, 0)
            assert str(err.value) == f"{text} at t=1e+308"
        assert ref(np.array([0.0, 0.25]), 0).tolist() == [0.0, 30.0]


def test_csv_derivative_that_overflows_names_its_column():
    # Central differences of positions a float holds can pass one: the first filled column
    # that does is named, with its first time, not numpy's bare warning and an inf column.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as err:
            CsvReference([0.0, 1e-300, 1.0], {0: [-1e308, 1e308, 0.0]})
        assert str(err.value) == ("reference column 'vel' (order 1), filled by central "
                                  "differences, overflows at t=0")
        with pytest.raises(OverflowError, match=r"^reference column 'acc' \(order 2\), .* at t=0$"):
            CsvReference([0.0, 1e-300, 1.0], {0: [0.0, 0.0, 0.0], 1: [-1e308, 1e308, 0.0]})
        # A file's own derivative column is read as given: no column is filled past it.
        ref = CsvReference([0.0, 1e-300, 1.0], {0: [0.0, 0.0, 0.0], 1: [0.0, 0.0, 0.0],
                                                2: [0.0, 0.0, 0.0], 3: [-1e308, 1e308, 0.0]})
        assert ref(1.0, 3) == 0.0


@pytest.mark.parametrize("order, column, shape", [
    (0, [0.0, 1.0], "(2,)"),
    (0, [0.0, 1.0, 2.0, 3.0], "(4,)"),
    (1, [1.0], "(1,)"),  # broadcast through the finiteness check, then failed in numpy
    (0, 1.0, "()"),
    (2, [[0.0, 1.0, 2.0]], "(1, 3)"),
    (0, [[0.0], [1.0, 2.0], [3.0]], "ragged"),  # numpy's own error names no column
], ids=["short", "long", "one_value", "scalar", "two_d", "ragged"])
def test_csv_reference_checks_its_column_lengths(order, column, shape):
    columns = {0: [0.0, 1.0, 2.0], order: column}
    with pytest.raises(ConfigError) as err:
        CsvReference([0.0, 0.5, 1.0], columns)
    assert str(err.value) == (f"reference column of order {order} has shape {shape}, "
                              "not one value per time (3)")
    # Checked before the finiteness check, which reads every column.
    with pytest.raises(ConfigError, match=f"has shape {re.escape(shape)}, not one value"):
        CsvReference([0.0, 0.5, float("nan")], columns)


@pytest.mark.parametrize("t, first", [
    (2.0, 2.0), (-5.0, -5.0), (math.nan, math.nan), (1.0 + 1e-15, 1.0 + 1e-15),
    (np.array([0.5, 1.5, -1.0]), 1.5), (np.array([[0.0], [-1e-300]]), -1e-300),
    (np.array([1.0, math.nan]), math.nan),
], ids=["past_end", "before_start", "nan", "just_past_end", "array", "two_d", "array_nan"])
def test_csv_reference_refuses_to_extrapolate(t, first):
    ref = CsvReference([0.0, 1.0], {0: [0.0, 1.0]})
    # Inside and at either end, a float or an array: read by linear interpolation.
    for inside in (0.0, 0.25, 1.0):
        assert ref(inside) == inside and ref(inside, 1) == 1.0
    assert ref(np.array([0.0, 0.25, 1.0])).tolist() == [0.0, 0.25, 1.0]
    # Outside, or NaN: the first such time and the span, in every order.
    for order in range(4):
        with pytest.raises(OutOfDomain) as err:
            ref(t, order)
        assert str(err.value) == f"t={first} outside reference span [0.0, 1.0]"
