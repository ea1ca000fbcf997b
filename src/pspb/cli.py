"""Command-line entry points: generate, compare, benchmark.

All three verbs read one JSON config and write CSVs into an output
directory. Numeric fields are rendered with 9 significant digits so
repeated runs with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
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
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalBlowup, PspbError, SingularSystem
from .metrics import (
    DEFAULT_SAMPLES,
    DEFAULT_VIA_WINDOW,
    continuity_report,
    via_point_rmse,
)
from .reference import CsvReference, SinusoidReference, waypoints_from_reference
from .schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    SCHEME_NAMES,
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


def _write_text(paths: list[Path], chunks: Iterable[Iterable[Iterable[str]]]) -> None:
    """Rewrite each path in place with its strings from every chunk (one iterable of them per
    path, read as it is written), then cut it to length: no ``O_TRUNC``, so no ext4
    writeback on close, and the inode, mode and links are kept."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", encoding="utf-8", opener=lambda p, flags:
                                          os.open(p, flags & ~os.O_TRUNC, 0o666)))
                 for path in paths]
        for chunk in chunks:
            for fh, texts in zip(files, chunk):
                fh.writelines(texts)
        for fh in files:
            fh.truncate()


def _csv_blocks(rows: list[list] | np.ndarray) -> Iterator[str]:
    """Rows (a list of rows or a 2-d float array) read as flat cells: floats as
    ``_fmt`` renders them, anything else by ``str``, each column's format taken
    from its first-row cell; one ``%`` per block of ``CSV_BLOCK_ROWS`` rows."""
    table = rows if isinstance(rows, np.ndarray) else np.asarray(rows, dtype=object)
    row = ",".join("%.9g" if isinstance(v, float) else "%s" for v in table[:1].ravel()) + "\n"
    blocks = (table[i:i + CSV_BLOCK_ROWS] for i in range(0, len(table), CSV_BLOCK_ROWS))
    return (row * len(block) % tuple(block.ravel().tolist()) for block in blocks)


def _write_csv(paths: list[Path], header: list[str], tables: Iterable[Iterable]) -> None:
    """Each path's header, then its table from each item of ``tables`` (one table per path,
    rows as ``_csv_blocks`` reads them): each table is formatted a block at a time."""
    head = [[",".join(header) + "\n"]] * len(paths)
    _write_text(paths, itertools.chain([head], (map(_csv_blocks, item) for item in tables)))


def _number(value, path: str, kind=float, low=-math.inf, high=math.inf):
    """``kind(value)`` if ``value`` is a finite JSON number in ``(low, high]``, else a
    ConfigError. A true/false or a numeric string is not a number, and a float must
    convert exactly (``samples: 2.7`` is an error, not 2).
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf or an int no float holds
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    number = kind(value)
    if isinstance(value, float) and number != value:
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if not low < number <= high:
        raise ConfigError(f"{path}: need a number in ({low}, {high}], got {value!r}")
    return number


def _check(test, what: str):
    """A reader that passes on a value ``test`` accepts, or names ``what`` it expected."""
    def read(value, path):
        if not test(value):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        return value
    return read


def _list(read, what: str, sizes=range(sys.maxsize)):
    """A reader for a JSON list of ``what``, each item read by ``read``."""
    items = _check(lambda value: isinstance(value, list) and len(value) in sizes,
                   f"a list of {what}")
    return lambda value, path: [read(item, path) for item in items(value, path)]


def _times(value, path: str) -> list[float]:
    times = _list(_number, "4 times", {4})(value, path)
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigError(f"{path}: times must be strictly increasing: {times}")
    return times


def _reference(value, path: str):
    """The path of a CSV file, which takes no other key, or a sinusoid."""
    if isinstance(value, dict) and "csv" in value:
        return Path(_read(CSV, value, path)["csv"])
    fields = _read(SINUSOID, value, path)
    return SinusoidReference(fields["amplitude"], fields["period"])


class _Mark(str):
    """A value no reader takes, and why: a key missing from, or repeated in, its object."""


MISSING, REPEATED = _Mark("missing key"), _Mark("repeated key")

# Each key of a JSON object: its default and its reader, a function of the value
# and its path, or the table of a nested object. An absent key whose default is
# None is left out; one whose default is MISSING is an error.
POSITIVE = functools.partial(_number, low=0)
SCHEME = _check(lambda name: name in SCHEME_NAMES, f"one of {', '.join(SCHEME_NAMES)}")
ROW = _list(_number, "2 to 5 numbers [t, pos, vel, acc, jerk]", range(2, 6))
WAYPOINTS = _list(lambda row, path: Waypoint(*ROW(row, path)), "4 rows", {4})
SEGMENTS = {str(segment): (None, _number) for segment in range(3)}
CSV = {"csv": (None, _check(lambda file: isinstance(file, str) and Path(file).exists(),
                            "the path of a file"))}
SINUSOID = {"name": (MISSING, _check(lambda name: name == "sinusoid", "'sinusoid'")),
            "amplitude": (30.0, _number), "period": (1.0, POSITIVE)}
CONFIG = {
    "schemes": (list(SCHEME_NAMES), _list(SCHEME, "scheme names")),
    "stance_times": (list(DEFAULT_STANCE_TIMES), _times),
    "swing_times": (list(DEFAULT_SWING_TIMES), _times),
    "samples": (DEFAULT_SAMPLES,
                functools.partial(_number, kind=int, low=1, high=MAX_SAMPLES)),
    "via_window": (DEFAULT_VIA_WINDOW, POSITIVE),
    "reference": (None, _reference),
    "waypoints": (None, {"stance": (MISSING, WAYPOINTS), "swing": (MISSING, WAYPOINTS)}),
    "midpoints": (None, {"stance": (None, SEGMENTS), "swing": (None, SEGMENTS)}),
    "sim": ({}, {"enabled": (False, _check(lambda on: isinstance(on, bool), "a boolean")),
                 "kp": (500.0, _number), "kd": (50.0, _number), "dt": (1e-4, _number)}),
}


def _read(table: dict, doc, path: str = "") -> dict:
    """``doc`` read through ``table``, each key by its reader, an absent one from
    its default. A key the table does not name is a ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config root'}: expected a JSON object, got {doc!r}")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in table:
            raise ConfigError(
                f"{prefix}{key}: unknown key {key!r}; expected {', '.join(table)}")
    out = {}
    for key, (default, read) in table.items():
        value = doc.get(key, default)
        if isinstance(value, _Mark):
            raise ConfigError(f"{prefix}{key}: {value}")
        if value is not None or key in doc:
            out[key] = (_read(read, value, prefix + key) if isinstance(read, dict)
                        else read(value, prefix + key))
    return out


def _json_object(pairs: list) -> dict:
    """A JSON object from its key-value pairs, a repeated key's value ``REPEATED``."""
    doc = {}
    for key, value in pairs:
        doc[key] = REPEATED if key in doc else value
    return doc


class RunConfig:
    """Validated view over the JSON config document, one attribute per ``CONFIG`` key."""

    def __init__(self, raw: dict):
        self.reference = self.waypoints = self.midpoints = None
        vars(self).update(_read(CONFIG, raw))
        if self.stance_times[-1] != self.swing_times[0]:
            raise ConfigError("stance_times must end where swing_times begins")
        self.gains = PDGains(self.sim["kp"], self.sim["kd"])
        ref = self.reference
        if isinstance(ref, Path):  # read once the whole config has passed
            self.reference = ref = CsvReference.from_file(ref)
            span = (self.stance_times[0], self.swing_times[-1])
            if not ref.times[0] <= span[0] <= span[1] <= ref.times[-1]:
                raise ConfigError(
                    f"reference.csv: times [{ref.times[0]:g}, {ref.times[-1]:g}] "
                    f"do not cover the gait [{span[0]:g}, {span[1]:g}]"
                )

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
        pins = {phase: {int(segment): x for segment, x in table.items()}
                for phase, table in tables.items()}
        return (*waypoints, *(pins.get(phase, sampled) for phase in ("stance", "swing")))

    def build_gait(self, scheme_name: str):
        return generate_gait(builtin_scheme(scheme_name), *self._gait_inputs)


def run_generate(config: RunConfig, out: Path) -> None:
    gaits = tuple(config.build_gait(name) for name in config.schemes)
    reports = continuity_report(gaits)
    # Every scheme's profile at once: each grid block, read once for all, goes to each file.
    _write_csv([out / f"profile_{name}.csv" for name in config.schemes],
               ["t", "position", "velocity", "acceleration", "jerk"],
               ((np.column_stack([times, one.T]) for one in values.swapaxes(0, 1))
                for trajs in zip(*map(_phases, gaits))
                for _, times, values in _grid(trajs, config.samples)))
    for name, traj, report in zip(config.schemes, gaits, reports):
        jumps = [[j.via_time, j.order, j.jump, int(j.constrained_both_sides)]
                 for j in report.jumps]
        _write_csv([out / f"continuity_{name}.csv"],
                   ["via_time", "order", "jump", "constrained_both_sides"], [[jumps]])
        if config.sim["enabled"]:
            result = simulate_tracking(traj, gains=config.gains, dt=config.sim["dt"])
            _write_csv(
                [out / f"tracking_{name}.csv"],
                ["t", "angle_rad", "velocity_rad_s", "reference_rad"],
                [[np.column_stack([result.angle.times, result.angle.values,
                                   result.velocity.values,
                                   result.reference_angle.values])]],
            )
            print(f"{name}: tracking RMSE {result.rmse:.6g} rad")


def run_compare(config: RunConfig, out: Path) -> None:
    if config.reference is None:
        raise ConfigError("compare needs a reference (csv or sinusoid)")
    ref = config.reference
    gaits = tuple(config.build_gait(name) for name in config.schemes)
    # Per scope, every scheme's squared errors in all orders, read in blocks into one array
    # (192 bytes per sample for six schemes), then _rms's mean and root; ADE is RMSE / sqrt(N).
    squares, scopes = np.empty((4, len(gaits), config.samples)), []
    for trajs in zip(*[(g, *_phases(g)) for g in gaits]):
        for rows, times, values in _grid(trajs, config.samples):
            expected = np.array([ref(times, k) for k in range(4)])
            squares[..., rows] = (values - expected[:, None])**2
        scopes.append(np.sqrt(np.mean(squares, axis=-1)))
    vias = via_point_rmse(gaits, ref, slice(None), config.via_window)
    error_rows, via_rows, text = [], [], []
    for i, (name, windows) in enumerate(zip(config.schemes, vias)):
        text.append(f"scheme {name}")
        for scope, rms in zip(("full", "stance", "swing"), scopes):
            for label, r in zip(QUANTITY_LABELS, rms[:, i].tolist()):
                a = r / math.sqrt(config.samples)
                error_rows.append([name, scope, label, r, a])
                if scope == "full":
                    text.append(f"  {label:<12} RMSE {_fmt(r):>14}  ADE {_fmt(a):>14}")
        via_rows += [[name, float(w.via_time), order, w.rmse, int(w.clipped)]
                     for order, per_order in enumerate(windows) for w in per_order]
    _write_csv([out / "error_report.csv"],
               ["scheme", "scope", "quantity", "rmse", "ade"], [[error_rows]])
    _write_csv([out / "via_rmse.csv"],
               ["scheme", "via_time", "order", "rmse", "clipped"], [[via_rows]])
    report = "\n".join(text) + "\n"
    _write_text([out / "error_report.txt"], [[[report]]])
    print(report, end="")


def _phases(traj):
    """The stance and swing halves of a six-segment gait: its rows 0-2 and 3-5."""
    return traj._rows(slice(3)), traj._rows(slice(3, 6))


def _grid(trajs, samples: int):
    """A tuple of trajectories on one span, read in blocks of ``CSV_BLOCK_ROWS`` of its
    ``samples`` times (``np.linspace``'s bits, one sample its start; no T**3 is zero, so no
    step underflows): per block, its rows, times and one read of them."""
    start, stop = trajs[0].t_start, trajs[0].t_end
    step = (stop - start) / max(samples - 1, 1)
    for first in range(0, samples, CSV_BLOCK_ROWS):
        rows = slice(first, min(first + CSV_BLOCK_ROWS, samples))
        times = np.arange(rows.start, rows.stop, dtype=float) * step + start
        if rows.stop == samples > 1:
            times[-1] = stop
        yield rows, times, evaluate(trajs, times, slice(None))


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
    _write_csv([out / "benchmark.csv"], ["family", "median_s", "mean_s", "repetitions",
                                         "ratio_to_previous", "ratio_low", "ratio_high"], [[rows]])


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
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"),
                         object_pairs_hook=_json_object)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, >4,300 digits, too deep
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
