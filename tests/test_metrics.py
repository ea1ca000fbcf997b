import math
from dataclasses import replace

import numpy as np
import pytest

from pspb.errors import SeriesMismatch
from pspb.metrics import (
    SampledSeries,
    ade,
    continuity_report,
    mae,
    rmse,
    sample,
    via_point_rmse,
)
from pspb.reference import PolynomialReference, waypoints_from_reference
from pspb.schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    SCHEME_NAMES,
    Waypoint,
    builtin_scheme,
    evaluate,
    generate_gait,
    generate_phase,
)


def series(values, order=0):
    values = list(values)
    return SampledSeries(np.arange(len(values), dtype=float), values, order)


def zero_phase(name="434-1"):
    waypoints = [Waypoint(t, 0.0, 0.0, 0.0, 0.0) for t in DEFAULT_STANCE_TIMES]
    return generate_phase(builtin_scheme(name), waypoints,
                          midpoint_positions=lambda t: 0.0)


def generic_phase(name, seed=1):
    rng = np.random.default_rng(seed)
    ref = PolynomialReference(tuple(rng.uniform(-5, 5, 8)))
    waypoints = waypoints_from_reference(ref, DEFAULT_STANCE_TIMES)
    return generate_phase(builtin_scheme(name), waypoints,
                          midpoint_positions=lambda t: ref(t, 0)), ref


def test_sample_zero_trajectory():
    s = sample(zero_phase(), 101, 0)
    assert len(s.values) == 101
    assert np.all(s.values == 0)


def test_sample_includes_endpoints():
    s = sample(zero_phase(), 101, 0)
    assert s.times[0] == 0.0
    assert s.times[-1] == 0.6


def test_sample_rejects_small_n():
    with pytest.raises(ValueError):
        sample(zero_phase(), 1, 0)


def test_rmse_identical_series():
    a = series([1, 2, 3])
    assert rmse(a, a) == 0.0


def test_rmse_constant_offset():
    a = series([1.0, 2.0, 3.0])
    b = series([1.5, 2.5, 3.5])
    assert rmse(a, b) == pytest.approx(0.5)


def test_rmse_hand_value():
    a = series([0.0, 0.0])
    b = series([3.0, 4.0])
    assert rmse(a, b) == pytest.approx(math.sqrt(12.5))


def test_ade_hand_value():
    a = series([0.0, 0.0])
    b = series([3.0, 4.0])
    assert ade(a, b) == pytest.approx(2.5)


def test_ade_rmse_ratio_is_sqrt_n():
    rng = np.random.default_rng(0)
    a = series(rng.normal(size=101))
    b = series(rng.normal(size=101))
    assert ade(a, b) / rmse(a, b) == pytest.approx(1 / math.sqrt(101), abs=1e-15)


def test_mae_differs_from_ade():
    a = series([0.0, 0.0])
    b = series([3.0, 4.0])
    assert mae(a, b) == pytest.approx(3.5)


def test_series_mismatch_rejected():
    a = series([1, 2, 3])
    b = series([1, 2, 3], order=1)
    with pytest.raises(SeriesMismatch):
        rmse(a, b)
    c = SampledSeries([0.0, 0.5, 1.0], [1, 2, 3], 0)
    with pytest.raises(SeriesMismatch):
        rmse(a, c)


def test_rmse_translation_invariant():
    rng = np.random.default_rng(4)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    assert rmse(series(a + 7), series(b + 7)) == rmse(series(a), series(b))


def test_via_rmse_small_for_smooth_scheme():
    # 656 matches the reference through acceleration at every via point,
    # so the windowed error stays small; it is not exactly zero because
    # the segments deviate from the reference inside the window
    traj, ref = generic_phase("656-1")
    for order in range(3):
        for w in via_point_rmse(traj, ref, order):
            assert w.rmse <= 1e-3 * (1 + abs(ref(w.via_time, order)))


def test_via_window_bounds():
    traj, ref = generic_phase("434-1")
    results = via_point_rmse(traj, ref, 0, window=0.01)
    assert results[0].window == (0.11, 0.13)
    assert results[1].window == (0.47, 0.49)
    assert not results[0].clipped


def test_via_window_clipping_flagged():
    traj, ref = generic_phase("434-1")
    results = via_point_rmse(traj, ref, 0, window=0.2)
    assert results[0].clipped
    assert results[0].window[0] == traj.t_start


def test_via_rmse_identically_zero_against_self():
    traj, _ = generic_phase("434-1")
    from pspb.schemes import evaluate

    self_ref = lambda t, order: evaluate(traj, t, order)
    for order in range(4):
        assert all(w.rmse == 0.0 for w in via_point_rmse(traj, self_ref, order))


def window_bits(windows):
    """Each window's floats as int64 bits, sign of zero included, and its flag."""
    return [(np.array([w.via_time, w.rmse, *w.window]).view(np.int64).tolist(), w.clipped)
            for w in windows]


@pytest.mark.parametrize("window", [0.01, 0.2])
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_via_rmse_slice_stacks_int_orders_bitwise(name, window):
    ref = PolynomialReference(tuple(np.random.default_rng(7).uniform(-5, 5, 8)))
    traj = generate_gait(builtin_scheme(name),
                         waypoints_from_reference(ref, DEFAULT_STANCE_TIMES),
                         waypoints_from_reference(ref, DEFAULT_SWING_TIMES),
                         lambda t: ref(t, 0), lambda t: ref(t, 0))
    stacked = via_point_rmse(traj, ref, slice(None), window)
    assert len(stacked) == 4
    for order, windows in enumerate(stacked):
        assert window_bits(windows) == window_bits(via_point_rmse(traj, ref, order, window))
    assert [window_bits(w) for w in via_point_rmse(traj, ref, slice(1, 3), window)] == \
        [window_bits(w) for w in stacked[1:3]]
    # Each window's RMSE is the one over its own 21-point linspace.
    for order, windows in enumerate(stacked):
        for w in windows:
            t = np.linspace(*w.window, 21)
            err = evaluate(traj, t, order) - ref(t, order)
            own = replace(w, rmse=float(np.sqrt(np.mean(err**2))))
            assert window_bits([w]) == window_bits([own])
    # 0.2 s reaches past both ends of the 1 s gait from its first and last via points.
    assert [w.clipped for w in stacked[0]] == ([False] * 5 if window == 0.01
                                               else [True, False, False, False, True])


def test_acceleration_jump_leaves_position_window_small():
    # bounded acceleration jump integrates to a continuous position
    traj, ref = generic_phase("545-1")
    pos = via_point_rmse(traj, ref, 0)
    acc = via_point_rmse(traj, ref, 2)
    scale = max(abs(ref(t, 2)) for t in np.linspace(0, 0.6, 50))
    assert all(w.rmse < 1e-2 for w in pos)
    assert acc[0].rmse > 1e-4 * scale


def test_continuity_zero_trajectory():
    report = continuity_report(zero_phase())
    assert all(j.jump == 0.0 for j in report.jumps)


def test_continuity_flags_match_scheme():
    traj, _ = generic_phase("545-1")
    report = continuity_report(traj)
    # via1: left end {P,V}, right start {P,V,A} -> shared orders 0,1
    assert report.at(0.12, 0).constrained_both_sides
    assert report.at(0.12, 1).constrained_both_sides
    assert not report.at(0.12, 2).constrained_both_sides


def test_continuity_guaranteed_orders_are_tight():
    for name, smooth_orders in [
        ("434-1", (0, 1)), ("434-2", (0, 1)),
        ("545-1", (0, 1)), ("545-2", (0, 1)),
        ("656-1", (0, 1, 2)), ("656-2", (0, 1, 2)),
    ]:
        traj, _ = generic_phase(name, seed=12)
        report = continuity_report(traj)
        for v in traj.via_times:
            for order in smooth_orders:
                assert report.at(v, order).jump <= 1e-9
            first_free = max(smooth_orders) + 1
            assert report.at(v, first_free).jump > 1e-6
