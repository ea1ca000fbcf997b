"""Compare every scheme against the reference it was built from.

Each trajectory interpolates the same waypoints, so the errors below are
pure blending error: how far the piecewise polynomial strays from the
reference between waypoints, and how badly each via point is disturbed
within a +/-0.01 s window.

Run:  python3 demos/accuracy_vs_reference.py
"""

from pspb import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    SCHEME_NAMES,
    SampledSeries,
    SinusoidReference,
    ade,
    builtin_scheme,
    generate_gait,
    rmse,
    sample,
    via_point_rmse,
    waypoints_from_reference,
)

reference = SinusoidReference(amplitude=30.0, period=1.0)
stance = waypoints_from_reference(reference, DEFAULT_STANCE_TIMES)
swing = waypoints_from_reference(reference, DEFAULT_SWING_TIMES)
midpoints = lambda t: reference(t, 0)

labels = ("Hip (Pos)", "Hip (Vel)", "Hip (Accel)", "Hip (Jerk)")

for name in SCHEME_NAMES:
    traj = generate_gait(builtin_scheme(name), stance, swing, midpoints, midpoints)
    print(f"scheme {name}")
    for order, label in enumerate(labels):
        gen = sample(traj, 101, order)
        ref_series = SampledSeries(gen.times, reference(gen.times, order), order)
        print(f"  {label:<12} RMSE {rmse(gen, ref_series):12.4f}   "
              f"ADE {ade(gen, ref_series):10.4f}")
    windows = via_point_rmse(traj, reference, order=2)
    worst = max(w.rmse for w in windows)
    print(f"  worst windowed acceleration error at a via point: {worst:.4f}\n")
