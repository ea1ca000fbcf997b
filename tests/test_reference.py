"""Every reference reads time arrays the way ``evaluate`` does: ``ref(times,
k)`` equals ``ref(t, k)`` read one float time at a time, bit for bit."""

import functools

import numpy as np
import pytest

from pspb.errors import ConfigError
from pspb.poly import Polynomial, differentiate, horner
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


@pytest.mark.parametrize("order", range(4))
def test_polynomial_reference_matches_fresh_derivative(order):
    coefficients = tuple(np.random.default_rng(4).uniform(-5, 5, 8))
    ref = PolynomialReference(coefficients)
    want = differentiate(Polynomial(coefficients), order)
    times = np.linspace(-1.5, 2.5, 41)
    for _ in range(2):  # the first call fills the derivative cache
        assert np.array_equal(ref(times, order), horner(want, times))
        assert [ref(t, order) for t in times.tolist()] == \
            [horner(want, t) for t in times.tolist()]


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
