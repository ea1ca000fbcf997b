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
    _jumps,
    _mean_error,
    _via_windows,
)
from .reference import CsvReference, SinusoidReference, waypoints_from_reference
from .schemes import (
    DEFAULT_STANCE_TIMES,
    DEFAULT_SWING_TIMES,
    SCHEME_NAMES,
    Waypoint,
    _read_stack,
    _stack,
    builtin_scheme,
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
SCOPES = {"full": slice(0, 6), "stance": slice(0, 3), "swing": slice(3, 6)}  # a gait's rows


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _write_text(paths: list[Path], chunks: Iterable[Iterable[Iterable[str]]]) -> None:
    """Rewrite each path in place with its strings from every chunk (one iterable of them per
    path, read as it is written; a shorter chunk writes to the first paths), then cut it to
    length. Bare descriptors: a file object's text and buffer layers cost several times the
    system calls on files this small. No ``O_TRUNC``, so no ext4 writeback on close, and the
    inode, mode and links are kept. A path's directory is made only if opening it fails for
    want of one: a run's first write makes ``--out``, so an error raised before it leaves none."""
    fds = []
    try:
        for path in paths:
            try:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
            except (FileNotFoundError, NotADirectoryError):  # a file at --out: mkdir's Errno 17
                path.parent.mkdir(parents=True, exist_ok=True)
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
        for chunk in chunks:
            for fd, texts in zip(fds, chunk):
                for text in texts:
                    data = memoryview(text.encode())
                    while data:  # a short write leaves the rest
                        data = data[os.write(fd, data):]
        for fd in fds:
            os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        for fd in fds:
            os.close(fd)


def _csv_blocks(rows: list[list] | np.ndarray) -> Iterator[str]:
    """Rows (a list of rows or a 2-d float array) read as flat cells: floats as
    ``_fmt`` renders them, anything else by ``str``, each column's format taken
    from its first-row cell; one ``%`` per block of ``CSV_BLOCK_ROWS`` rows."""
    row = ",".join("%.9g" if isinstance(v, float) else "%s" for first in rows[:1] for v in first)
    flat = itertools.chain.from_iterable if isinstance(rows, list) else lambda b: b.ravel().tolist()
    blocks = (rows[i:i + CSV_BLOCK_ROWS] for i in range(0, len(rows), CSV_BLOCK_ROWS))
    return ((row + "\n") * len(block) % tuple(flat(block)) for block in blocks)


def _write_csv(path: Path, header: list, rows: list[list] | np.ndarray) -> None:
    """``path``'s ``header`` row, then ``rows``, formatted a block at a time by ``_csv_blocks``."""
    _write_text([path], [[itertools.chain([",".join(header) + "\n"], _csv_blocks(rows))]])


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
        if twice := [name for i, name in enumerate(self.schemes) if name in self.schemes[:i]]:
            raise ConfigError(f"schemes: {twice[0]!r} is given twice")
        for phase, rows in (self.waypoints or {}).items():  # the times the gait is solved on
            key, times = f"{phase}_times", _times([w.time for w in rows], f"waypoints.{phase}")
            if key in raw and vars(self)[key] != times:
                raise ConfigError(f"{key}: {raw[key]} are not waypoints.{phase}'s times {times}")
            vars(self)[key] = times
        if (end := self.stance_times[-1]) != (begin := self.swing_times[0]):
            raise ConfigError(
                f"waypoints.stance ends at {end} but waypoints.swing starts at {begin}"
                if self.waypoints else "stance_times must end where swing_times begins")
        self.gains = PDGains(self.sim["kp"], self.sim["kd"])
        if isinstance(ref := self.reference, Path):  # read once the whole config has passed
            self.reference = ref = CsvReference.from_file(ref)
            span = (self.stance_times[0], self.swing_times[-1])
            if not ref.times[0] <= span[0] <= span[1] <= ref.times[-1]:
                raise ConfigError(f"reference.csv: times [{ref.times[0]:g}, {ref.times[-1]:g}] "
                                  f"do not cover the gait [{span[0]:g}, {span[1]:g}]")

    @functools.cached_property
    def _gait_inputs(self):
        """Stance and swing waypoints, then their mid-point sources, shared by
        every scheme: read on the first build, so ``__init__`` reads no reference."""
        ref, tables = self.reference, self.midpoints or {}
        if self.waypoints is None and ref is None:
            raise ConfigError("config needs either an explicit waypoint table or a reference")
        waypoints = ([self.waypoints["stance"], self.waypoints["swing"]] if self.waypoints else
                     [waypoints_from_reference(ref, times)
                      for times in (self.stance_times, self.swing_times)])
        sampled = None if ref is None else lambda t: ref(t, 0)
        pins = {phase: {int(segment): x for segment, x in table.items()}
                for phase, table in tables.items()}
        return (*waypoints, *(pins.get(phase, sampled) for phase in ("stance", "swing")))

    def build_gait(self, scheme_name: str):
        return generate_gait(builtin_scheme(scheme_name), *self._gait_inputs)


def run_generate(config: RunConfig, out: Path) -> None:
    names, stack = config.schemes, _stack(tuple(map(config.build_gait, config.schemes)))
    jumps = [[[via, order, jump, int(both)] for via, order, jump, both in report]
             for report in _jumps(stack)]  # read in full first: its errors come before any file
    for name, traj in zip(names, stack[0]) if config.sim["enabled"] else ():
        # Simulated before its file, so a bad dt leaves none; one scheme's steps held at a time.
        result = simulate_tracking(traj, gains=config.gains, dt=config.sim["dt"])
        _write_csv(out / f"tracking_{name}.csv",
                   ["t", "angle_rad", "velocity_rad_s", "reference_rad"],
                   np.column_stack([result.angle.times, result.angle.values,
                                    result.velocity.values, result.reference_angle.values]))
        print(f"{name}: tracking RMSE {result.rmse:.6g} rad")
    # Each grid block, read once for all schemes, goes to each profile; then each continuity table.
    kinds = {"profile": "t,position,velocity,acceleration,jerk\n",
             "continuity": "via_time,order,jump,constrained_both_sides\n"}
    _write_text([out / f"{kind}_{name}.csv" for kind in kinds for name in names],
                itertools.chain([[[head] for head in kinds.values() for _ in names]],
                                _profile_blocks(stack, config.samples),
                                [[()] * len(names) + list(map(_csv_blocks, jumps))]))


def _profile_blocks(stack, samples: int) -> Iterator[Iterator[tuple[str]]]:
    """Per ``_grid`` block of stance, then swing, each profile's text, one scheme at a time: the
    block's times are formatted once and joined into a row template every scheme fills (a
    ``%.9g`` string holds no ``%``, so the template needs no escaping)."""
    for phase in (SCOPES["stance"], SCOPES["swing"]):
        for _, times, values in _grid(stack, phase, samples):
            text = "%.9g\n" * len(times) % tuple(times.tolist())
            rows = ",%.9g,%.9g,%.9g,%.9g\n".join(text.split("\n"))
            yield ((rows % tuple(one.T.ravel().tolist()),) for one in values)


def run_compare(config: RunConfig, out: Path) -> None:
    if (ref := config.reference) is None:
        raise ConfigError("compare needs a reference (csv or sinusoid)")
    stack = _stack(tuple(config.build_gait(name) for name in config.schemes))
    # Per scope, every scheme's squared errors in all orders, read in blocks into one array
    # (192 bytes per sample for six schemes), then rmse's mean and root; ADE is RMSE / sqrt(N).
    squares, scopes = np.empty((len(config.schemes), 4, config.samples)), []
    with np.errstate(over="ignore"):  # an RMSE that overflows is named below, once per verb
        for phase in SCOPES.values():
            for rows, times, values in _grid(stack, phase, config.samples):
                squares[..., rows] = (values - np.array([ref(times, k) for k in range(4)]))**2
            scopes.append(np.sqrt(np.mean(squares, axis=-1)))
    if not np.isfinite(scopes).all():
        _name_overflow(stack, ref, config, scopes)
    vias = _via_windows(stack, ref, slice(None), config.via_window)
    error_rows, via_rows, text = [], [], []
    for i, (name, windows) in enumerate(zip(config.schemes, vias)):
        text.append(f"scheme {name}")
        for scope, rms in zip(SCOPES, scopes):
            for label, r in zip(QUANTITY_LABELS, rms[i].tolist()):
                a = r / math.sqrt(config.samples)
                error_rows.append([name, scope, label, r, a])
                if scope == "full":
                    text.append(f"  {label:<12} RMSE {_fmt(r):>14}  ADE {_fmt(a):>14}")
        via_rows += [[name, float(via), order, r, int(clipped)]
                     for order, per_order in enumerate(windows) for via, r, _, clipped in per_order]
    _write_csv(out / "error_report.csv", ["scheme", "scope", "quantity", "rmse", "ade"], error_rows)
    _write_csv(out / "via_rmse.csv", ["scheme", "via_time", "order", "rmse", "clipped"], via_rows)
    report = "\n".join(text) + "\n"
    _write_text([out / "error_report.txt"], [[[report]]])
    print(report, end="")


def _name_overflow(stack, ref, config: RunConfig, scopes: list) -> None:
    """Raise for the first scope, scheme and order whose RMSE is not finite, its grid read again
    under the caller's errstate: a read that overflows raises as it would have, and errors whose
    mean square overflows raise ``_mean_error``'s OverflowError, naming what they are of."""
    s, i, k = np.argwhere(~np.isfinite(scopes))[0]
    scope, phase = list(SCOPES.items())[s]
    cells = [(values[i, k].copy(), ref(times, k))
             for _, times, values in _grid(stack, phase, config.samples)]
    try:
        _mean_error(*map(np.concatenate, zip(*cells)))
    except OverflowError as exc:
        raise OverflowError(f"scheme {config.schemes[i]}, {scope} {QUANTITY_LABELS[k]} RMSE: "
                            f"{exc}") from None


def _grid(stack, phase: slice, samples: int):
    """Segments ``phase`` of each trajectory of a ``_stack`` on one span, read in blocks of
    ``CSV_BLOCK_ROWS`` of its ``samples`` times (``np.linspace``'s bits, one sample its start; no
    T**3 is zero, so no step underflows): per block, its rows, times and one read of them."""
    if not stack[0]:  # no trajectory, no grid
        return
    spans = stack[0][0]._spans[phase]
    start, stop = spans[0][0], spans[-1][1]
    step = (stop - start) / max(samples - 1, 1)
    for first in range(0, samples, CSV_BLOCK_ROWS):
        rows = slice(first, min(first + CSV_BLOCK_ROWS, samples))
        times = np.arange(rows.start, rows.stop, dtype=float) * step + start
        if rows.stop == samples > 1:
            times[-1] = stop
        yield rows, times, _read_stack(stack, times, phase, slice(None))


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
        med, mean = np.median(elapsed), np.mean(elapsed)
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
    medians = [np.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP_SAMPLES)]
    low, high = np.quantile(medians, [0.025, 0.975], method="weibull")  # statistics' exclusive
    return float(np.median(ratios)), float(low), float(high)


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

    try:  # numpy's overflow, invalid and divide raise here, not warn and write inf or NaN
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            config, out = RunConfig(raw), Path(args.out)
            if args.verb == "generate":
                run_generate(config, out)
            elif args.verb == "compare":
                run_compare(config, out)
            else:
                run_benchmark(config, args.repetitions, out)
    except (PspbError, ArithmeticError, OSError, ValueError) as exc:  # ValueError: bad input
        numeric = isinstance(exc, (SingularSystem, NumericalBlowup, ArithmeticError))
        verb = f"{args.verb}: " if isinstance(exc, FloatingPointError) else ""  # numpy's bare text
        print(f"error: {verb}{exc}", file=sys.stderr)
        return EXIT_NUMERICAL if numeric else EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
