"""Command-line entry points: generate, compare, benchmark.

All three verbs read one JSON config and write CSVs into an output
directory. Numeric fields are rendered with 9 significant digits so
repeated runs with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Iterable

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalBlowup, PspbError, SingularSystem
from .metrics import (
    DEFAULT_SAMPLES,
    DEFAULT_VIA_WINDOW,
    _rms,
    continuity_report,
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

MAX_SAMPLES = 10**6  # per phase; at the cap a profile CSV is about 115 MB per scheme
CSV_BLOCK_ROWS = 4096  # rows per `%`: the writer's memory does not grow with the table

QUANTITY_LABELS = ("Hip (Pos)", "Hip (Vel)", "Hip (Accel)", "Hip (Jerk)")


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _write_text(path: Path, chunks: Iterable[str]) -> None:
    """Rewrite ``path`` in place, then cut it to length: no ``O_TRUNC``, so
    no ext4 writeback on close, and the inode, mode and links are kept."""
    with open(path, "w", encoding="utf-8",
              opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        fh.writelines(chunks)
        fh.truncate()


def _write_csv(path: Path, header: list[str], rows: list[list] | np.ndarray) -> None:
    """Rows (a list of rows or a 2-d float array) read as flat cells: floats as
    ``_fmt`` renders them, anything else by ``str``, each column's format taken
    from its first-row cell; one ``%`` per block of ``CSV_BLOCK_ROWS`` rows."""
    table = rows if isinstance(rows, np.ndarray) else np.asarray(rows, dtype=object)
    row = ",".join("%.9g" if isinstance(v, float) else "%s" for v in table[:1].ravel()) + "\n"
    blocks = (table[i:i + CSV_BLOCK_ROWS] for i in range(0, len(table), CSV_BLOCK_ROWS))
    _write_text(path, itertools.chain([",".join(header) + "\n"], (
        row * len(block) % tuple(block.ravel().tolist()) for block in blocks)))


def _number(value, key: str, kind=float):
    """``kind(value)`` if that is a finite number, else a ConfigError.

    A JSON true/false is not a number, and a float must convert exactly
    (``samples: 2.7`` is an error, not 2).
    """
    if isinstance(value, bool):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    if isinstance(value, float) and number != value:
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return number


class RunConfig:
    """Validated view over the JSON config document."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        self.schemes = raw.get("schemes", list(SCHEME_NAMES))
        if not (isinstance(self.schemes, list)
                and all(isinstance(s, str) for s in self.schemes)):
            raise ConfigError(f"schemes: expected a list of names, got {self.schemes}")
        unknown = [s for s in self.schemes if s not in SCHEME_NAMES]
        if unknown:
            raise ConfigError(f"schemes: unknown scheme(s) {unknown}")
        self.stance_times = self._times(raw, "stance_times", DEFAULT_STANCE_TIMES)
        self.swing_times = self._times(raw, "swing_times", DEFAULT_SWING_TIMES)
        if self.stance_times[-1] != self.swing_times[0]:
            raise ConfigError("stance_times must end where swing_times begins")
        self.samples = _number(raw.get("samples", DEFAULT_SAMPLES), "samples", int)
        if not 2 <= self.samples <= MAX_SAMPLES:
            raise ConfigError(f"samples: need 2 to {MAX_SAMPLES}, got {self.samples}")
        self.via_window = _number(raw.get("via_window", DEFAULT_VIA_WINDOW), "via_window")
        if self.via_window <= 0:
            raise ConfigError("via_window must be positive")
        self.reference = self._reference(
            raw.get("reference"), (self.stance_times[0], self.swing_times[-1])
        )
        self.waypoints = self._waypoints(raw.get("waypoints"))
        self.midpoints = self._midpoints(raw.get("midpoints"))
        sim = raw.get("sim", {})
        if not isinstance(sim, dict):
            raise ConfigError(f"sim must be a JSON object, got {sim!r}")
        self.sim_enabled = sim.get("enabled", False)
        if not isinstance(self.sim_enabled, bool):
            raise ConfigError(f"sim.enabled: expected a boolean, got {self.sim_enabled!r}")
        self.gains = PDGains(_number(sim.get("kp", 500.0), "sim.kp"),
                             _number(sim.get("kd", 50.0), "sim.kd"))
        self.sim_dt = _number(sim.get("dt", 1e-4), "sim.dt")

    @staticmethod
    def _times(raw, key, default):
        times = raw.get(key, default)
        if not isinstance(times, (list, tuple)):
            raise ConfigError(f"{key}: expected a list of 4 times, got {times!r}")
        times = [_number(t, key) for t in times]
        if len(times) != 4:
            raise ConfigError(f"{key}: need exactly 4 times, got {len(times)}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(f"{key}: times must be strictly increasing: {times}")
        return times

    @staticmethod
    def _reference(spec, span):
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise ConfigError(f"reference must be a JSON object, got {spec!r}")
        if "csv" in spec:
            if not isinstance(spec["csv"], str):
                raise ConfigError(f"reference.csv: expected a path, got {spec['csv']!r}")
            path = Path(spec["csv"])
            if not path.exists():
                raise ConfigError(f"reference.csv: file not found: {path}")
            ref = CsvReference.from_file(path)
            if not ref.times[0] <= span[0] <= span[1] <= ref.times[-1]:
                raise ConfigError(
                    f"reference.csv: times [{ref.times[0]:g}, {ref.times[-1]:g}] "
                    f"do not cover the gait [{span[0]:g}, {span[1]:g}]"
                )
            return ref
        if spec.get("name") == "sinusoid":
            amplitude = _number(spec.get("amplitude", 30.0), "reference.amplitude")
            period = _number(spec.get("period", 1.0), "reference.period")
            if period <= 0:
                raise ConfigError(f"reference.period: must be positive, got {period}")
            return SinusoidReference(amplitude, period)
        raise ConfigError(f"reference: expected 'csv' or name 'sinusoid', got {spec}")

    @staticmethod
    def _waypoints(spec):
        if spec is None:
            return None
        if not isinstance(spec, dict):
            raise ConfigError(f"waypoints must be a JSON object, got {spec!r}")
        out = {}
        for phase in ("stance", "swing"):
            if phase not in spec:
                raise ConfigError(f"waypoints: missing {phase!r} table")
            rows = spec[phase]
            if not isinstance(rows, list) or len(rows) != 4:
                raise ConfigError(f"waypoints.{phase}: need a list of 4 rows, got {rows!r}")
            wps = []
            for row in rows:
                if not isinstance(row, list) or not 2 <= len(row) <= 5:
                    raise ConfigError(
                        f"waypoints.{phase}: a row is [t, pos, vel, acc, jerk] with "
                        f"vel, acc and jerk optional, got {row!r}"
                    )
                wps.append(Waypoint(*(_number(x, f"waypoints.{phase}") for x in row)))
            out[phase] = wps
        return out

    @staticmethod
    def _midpoints(spec):
        if spec is None:
            return None
        if not (isinstance(spec, dict)
                and all(isinstance(table, dict) for table in spec.values())):
            raise ConfigError(f"midpoints: expected an object of objects, got {spec!r}")
        out = {}
        for phase, table in spec.items():
            key = f"midpoints.{phase}"
            if phase not in ("stance", "swing"):
                raise ConfigError(f"{key}: unknown phase {phase!r}; expected stance or swing")
            out[phase] = {}
            for k, v in table.items():
                segment = _number(k, key, int)
                if segment not in range(3):
                    raise ConfigError(f"{key}: unknown segment {k!r}; expected 0, 1 or 2")
                out[phase][segment] = _number(v, key)
        return out

    @functools.cached_property
    def _gait_inputs(self):
        """Stance and swing waypoints, then their mid-point sources, shared by
        every scheme: read on the first build, so ``__init__`` reads no reference."""
        ref, tables = self.reference, self.midpoints or {}
        if self.waypoints is not None:
            waypoints = [self.waypoints["stance"], self.waypoints["swing"]]
        elif ref is None:
            raise ConfigError("config needs either an explicit waypoint table or a reference")
        else:
            waypoints = [waypoints_from_reference(ref, times)
                         for times in (self.stance_times, self.swing_times)]
        sampled = None if ref is None else lambda t: ref(t, 0)
        return (*waypoints, *(tables.get(phase, sampled) for phase in ("stance", "swing")))

    def build_gait(self, scheme_name: str):
        return generate_gait(builtin_scheme(scheme_name), *self._gait_inputs)


def run_generate(config: RunConfig, out: Path) -> None:
    for name in config.schemes:
        traj = config.build_gait(name)
        rows = []
        for phase in _phases(traj):
            times = np.linspace(phase.t_start, phase.t_end, config.samples)
            rows.append(np.column_stack([times, evaluate(phase, times, slice(None)).T]))
        _write_csv(
            out / f"profile_{name}.csv",
            ["t", "position", "velocity", "acceleration", "jerk"],
            np.concatenate(rows),
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
                np.column_stack([result.angle.times, result.angle.values,
                                 result.velocity.values,
                                 result.reference_angle.values]),
            )
            print(f"{name}: tracking RMSE {result.rmse:.6g} rad")


def run_compare(config: RunConfig, out: Path) -> None:
    if config.reference is None:
        raise ConfigError("compare needs a reference (csv or sinusoid)")
    ref = config.reference
    error_rows, via_rows, text = [], [], []
    for name in config.schemes:
        traj = config.build_gait(name)
        stance, swing = _phases(traj)
        scopes = {"full": traj, "stance": stance, "swing": swing}
        text.append(f"scheme {name}")
        for scope, sub in scopes.items():
            # All four orders from one grid; ADE is RMSE / sqrt(N) as in metrics.ade.
            times = np.linspace(sub.t_start, sub.t_end, config.samples)
            err = evaluate(sub, times, slice(None)) - [ref(times, k) for k in range(4)]
            for label, r in zip(QUANTITY_LABELS, _rms(err).tolist()):
                a = r / math.sqrt(config.samples)
                error_rows.append([name, scope, label, r, a])
                if scope == "full":
                    text.append(f"  {label:<12} RMSE {_fmt(r):>14}  ADE {_fmt(a):>14}")
        vias = via_point_rmse(traj, ref, slice(None), config.via_window)
        via_rows += [[name, float(w.via_time), order, w.rmse, int(w.clipped)]
                     for order, windows in enumerate(vias) for w in windows]
    _write_csv(out / "error_report.csv",
               ["scheme", "scope", "quantity", "rmse", "ade"], error_rows)
    _write_csv(out / "via_rmse.csv",
               ["scheme", "via_time", "order", "rmse", "clipped"], via_rows)
    report = "\n".join(text) + "\n"
    _write_text(out / "error_report.txt", [report])
    print(report, end="")


def _phases(traj):
    """The stance and swing halves of a six-segment gait."""
    return PiecewiseTrajectory(traj.segments[:3]), PiecewiseTrajectory(traj.segments[3:])


GAITS_PER_ROUND = 10
BOOTSTRAP_SAMPLES = 500


def run_benchmark(config: RunConfig, repetitions: int, out: Path) -> None:
    """Time ``generate_gait`` for one scheme per family (434-1, 545-1, 656-1) in
    ``repetitions`` rounds, each ``GAITS_PER_ROUND`` gaits per family, the family
    order reversed every other round so host drift falls on all of them alike. Each
    family's step over the one before is the median of its per-round ratios, with a
    bootstrap 95% interval."""
    if repetitions < 100:
        raise ConfigError(f"benchmark needs >= 100 repetitions, got {repetitions}")
    names = [f"{family}-1" for family in ("434", "545", "656")
             if any(s.startswith(family) for s in config.schemes)]
    for name in names:
        config.build_gait(name)  # untimed: the first build samples the waypoints
    per_gait = {name: [] for name in names}
    for round_ in range(repetitions):
        for name in names[::-1] if round_ % 2 else names:
            start = time.perf_counter()
            for _ in range(GAITS_PER_ROUND):
                config.build_gait(name)
            per_gait[name].append((time.perf_counter() - start) / GAITS_PER_ROUND)
    rows, previous = [], None
    print(f"{'family':<8}{'median (s)':>14}{'mean (s)':>14}{'reps':>7}   ratio [95% interval]")
    for name in names:
        elapsed = per_gait[name]
        med, mean = statistics.median(elapsed), statistics.fmean(elapsed)
        line = f"{name[:3]:<8}{med:>14.6g}{mean:>14.6g}{repetitions:>7}"
        step = ["", "", ""]
        if previous is not None:
            ratio, low, high = _ratio_interval(
                [b / a for a, b in zip(per_gait[previous], elapsed)])
            step = [_fmt(ratio), _fmt(low), _fmt(high)]
            line += f"   {ratio:.4f} [{low:.4f}, {high:.4f}]"
        rows.append([name[:3], float(med), float(mean), repetitions, *step])
        print(line)
        previous = name
    _write_csv(out / "benchmark.csv", ["family", "median_s", "mean_s", "repetitions",
                                       "ratio_to_previous", "ratio_low", "ratio_high"], rows)


def _ratio_interval(ratios: list[float]) -> tuple[float, float, float]:
    """Median of the per-round ratios, and the 2.5th and 97.5th percentiles of the
    medians of ``BOOTSTRAP_SAMPLES`` resamples (a fixed seed: the same ratios give
    the same interval)."""
    rng = random.Random(0)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios)))
               for _ in range(BOOTSTRAP_SAMPLES)]
    cuts = statistics.quantiles(medians, n=40)
    return statistics.median(ratios), cuts[0], cuts[-1]


@functools.cache
def _parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

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
    except (SingularSystem, NumericalBlowup, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (PspbError, ValueError) as exc:  # ConfigError and any other bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
