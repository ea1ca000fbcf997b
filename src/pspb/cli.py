"""Command-line entry points: generate, compare, benchmark.

All three verbs read one JSON config and write CSVs into an output
directory. Numeric fields are rendered with 9 significant digits so
repeated runs with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ConfigError, NumericalBlowup, PspbError, SingularSystem
from .metrics import (
    DEFAULT_SAMPLES,
    DEFAULT_VIA_WINDOW,
    SampledSeries,
    ade,
    continuity_report,
    rmse,
    sample,
    via_point_rmse,
)
from .reference import CsvReference, SinusoidReference, waypoints_from_reference
from .schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    SCHEME_NAMES,
    PiecewiseTrajectory,
    Waypoint,
    builtin_scheme,
    evaluate,
    generate_gait,
)
from .simulation import PDGains, simulate_tracking

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

QUANTITY_LABELS = ("Hip (Pos)", "Hip (Vel)", "Hip (Accel)", "Hip (Jerk)")


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            _fmt(v) if isinstance(v, float) else str(v) for v in row
        ))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class RunConfig:
    """Validated view over the JSON config document."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.schemes = raw.get("schemes", list(SCHEME_NAMES))
        unknown = [s for s in self.schemes if s not in SCHEME_NAMES]
        if unknown:
            raise ConfigError(f"schemes: unknown scheme(s) {unknown}")
        self.stance_times = self._times(raw, "stance_times", DEFAULT_STANCE_TIMES)
        self.swing_times = self._times(raw, "swing_times", DEFAULT_SWING_TIMES)
        if self.stance_times[-1] != self.swing_times[0]:
            raise ConfigError("stance_times must end where swing_times begins")
        self.samples = int(raw.get("samples", DEFAULT_SAMPLES))
        if self.samples < 2:
            raise ConfigError(f"samples: need at least 2, got {self.samples}")
        self.via_window = float(raw.get("via_window", DEFAULT_VIA_WINDOW))
        if self.via_window <= 0:
            raise ConfigError("via_window must be positive")
        self.reference = self._reference(raw.get("reference"))
        self.waypoints = self._waypoints(raw.get("waypoints"))
        self.midpoints = self._midpoints(raw.get("midpoints"))
        sim = raw.get("sim", {})
        self.sim_enabled = bool(sim.get("enabled", False))
        self.gains = PDGains(float(sim.get("kp", 500.0)), float(sim.get("kd", 50.0)))
        self.sim_dt = float(sim.get("dt", 1e-4))

    @staticmethod
    def _times(raw, key, default):
        times = [float(t) for t in raw.get(key, default)]
        if len(times) != 4:
            raise ConfigError(f"{key}: need exactly 4 times, got {len(times)}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(f"{key}: times must be strictly increasing: {times}")
        return times

    @staticmethod
    def _reference(spec):
        if spec is None:
            return None
        if "csv" in spec:
            path = Path(spec["csv"])
            if not path.exists():
                raise ConfigError(f"reference.csv: file not found: {path}")
            return CsvReference.from_file(path)
        if spec.get("name") == "sinusoid":
            period = float(spec.get("period", 1.0))
            if not period > 0:
                raise ConfigError(f"reference.period must be positive, got {period}")
            return SinusoidReference(float(spec.get("amplitude", 30.0)), period)
        raise ConfigError(f"reference: expected 'csv' or name 'sinusoid', got {spec}")

    @staticmethod
    def _waypoints(spec):
        if spec is None:
            return None
        out = {}
        for phase in ("stance", "swing"):
            if phase not in spec:
                raise ConfigError(f"waypoints: missing {phase!r} table")
            rows = spec[phase]
            if len(rows) != 4:
                raise ConfigError(f"waypoints.{phase}: need 4 rows, got {len(rows)}")
            wps = []
            for row in rows:
                vals = [float(x) for x in row] + [None] * (5 - len(row))
                wps.append(Waypoint(*vals[:5]))
            out[phase] = wps
        return out

    @staticmethod
    def _midpoints(spec):
        if spec is None:
            return None
        return {
            phase: {int(k): float(v) for k, v in table.items()}
            for phase, table in spec.items()
        }

    def phase_waypoints(self, phase: str) -> list[Waypoint]:
        if self.waypoints is not None:
            return self.waypoints[phase]
        if self.reference is None:
            raise ConfigError(
                "config needs either an explicit waypoint table or a reference"
            )
        times = self.stance_times if phase == "stance" else self.swing_times
        return waypoints_from_reference(self.reference, times)

    def phase_midpoints(self, phase: str):
        if self.midpoints is not None and phase in self.midpoints:
            return self.midpoints[phase]
        if self.reference is not None:
            return lambda t: self.reference(t, 0)
        return None

    def build_gait(self, scheme_name: str):
        scheme = builtin_scheme(scheme_name)
        return generate_gait(
            scheme,
            self.phase_waypoints("stance"),
            self.phase_waypoints("swing"),
            self.phase_midpoints("stance"),
            self.phase_midpoints("swing"),
        )


def run_generate(config: RunConfig, out: Path) -> None:
    n = config.samples
    for name in config.schemes:
        traj = config.build_gait(name)
        rows = []
        for phase in _sub_trajectory(traj, 0, 3), _sub_trajectory(traj, 3, 6):
            lo, hi = phase.t_start, phase.t_end
            times = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
            # The last grid time may round a hair past the phase end.
            values = evaluate(phase, [min(t, hi) for t in times], slice(None))
            rows += [[t, *v] for t, v in zip(times, values.T)]
        _write_csv(
            out / f"profile_{name}.csv",
            ["t", "position", "velocity", "acceleration", "jerk"],
            rows,
        )
        report = continuity_report(traj)
        _write_csv(
            out / f"continuity_{name}.csv",
            ["via_time", "order", "jump", "constrained_both_sides"],
            [[j.via_time, j.order, j.jump, int(j.constrained_both_sides)]
             for j in report.jumps],
        )
        if config.sim_enabled:
            result = simulate_tracking(traj, gains=config.gains, dt=config.sim_dt)
            _write_csv(
                out / f"tracking_{name}.csv",
                ["t", "angle_rad", "velocity_rad_s", "reference_rad"],
                [[float(t), float(a), float(w), float(r)] for t, a, w, r in zip(
                    result.angle.times, result.angle.values,
                    result.velocity.values, result.reference_angle.values)],
            )
            print(f"{name}: tracking RMSE {result.rmse:.6g} rad")


def run_compare(config: RunConfig, out: Path) -> None:
    if config.reference is None:
        raise ConfigError("compare needs a reference (csv or sinusoid)")
    ref = config.reference
    error_rows, via_rows, text = [], [], []
    for name in config.schemes:
        traj = config.build_gait(name)
        scopes = {
            "full": traj,
            "stance": _sub_trajectory(traj, 0, 3),
            "swing": _sub_trajectory(traj, 3, 6),
        }
        text.append(f"scheme {name}")
        for scope, sub in scopes.items():
            for order, label in enumerate(QUANTITY_LABELS):
                gen = sample(sub, config.samples, order)
                ref_series = SampledSeries(
                    gen.times,
                    [ref(t, order) for t in gen.times],
                    order,
                    gen.unit,
                )
                r, a = rmse(gen, ref_series), ade(gen, ref_series)
                error_rows.append([name, scope, label, float(r), float(a)])
                if scope == "full":
                    text.append(f"  {label:<12} RMSE {_fmt(r):>14}  ADE {_fmt(a):>14}")
        for order in range(4):
            for w in via_point_rmse(traj, ref, order, config.via_window):
                via_rows.append([
                    name, float(w.via_time), order, float(w.rmse), int(w.clipped),
                ])
    _write_csv(out / "error_report.csv",
               ["scheme", "scope", "quantity", "rmse", "ade"], error_rows)
    _write_csv(out / "via_rmse.csv",
               ["scheme", "via_time", "order", "rmse", "clipped"], via_rows)
    report = "\n".join(text) + "\n"
    (out / "error_report.txt").write_text(report, encoding="utf-8")
    print(report, end="")


def _sub_trajectory(traj, lo, hi):
    return PiecewiseTrajectory(
        traj.segments[lo:hi], traj.boundary_orders[lo:hi],
        "stance" if lo == 0 else "swing",
    )


def run_benchmark(config: RunConfig, repetitions: int, out: Path) -> None:
    if repetitions < 100:
        raise ConfigError(f"benchmark needs >= 100 repetitions, got {repetitions}")
    rows = []
    print(f"{'family':<8}{'median (s)':>14}{'mean (s)':>14}   reps")
    for family in ("434", "545", "656"):
        name = f"{family}-1"
        if not any(s.startswith(family) for s in config.schemes):
            continue
        elapsed = []
        for _ in range(repetitions):
            start = time.perf_counter()
            config.build_gait(name)
            elapsed.append(time.perf_counter() - start)
        med, mean = statistics.median(elapsed), statistics.fmean(elapsed)
        rows.append([family, float(med), float(mean), repetitions])
        print(f"{family:<8}{med:>14.6g}{mean:>14.6g}   {repetitions}")
    _write_csv(out / "benchmark.csv",
               ["family", "median_s", "mean_s", "repetitions"], rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pspb",
        description="Piecewise polynomial gait trajectory generation and analysis",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("generate", "compare", "benchmark"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        if verb == "benchmark":
            p.add_argument("--repetitions", type=int, default=1000)
    args = parser.parse_args(argv)

    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = RunConfig(raw)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.verb == "generate":
            run_generate(config, out)
        elif args.verb == "compare":
            run_compare(config, out)
        else:
            run_benchmark(config, args.repetitions, out)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularSystem, NumericalBlowup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PspbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
