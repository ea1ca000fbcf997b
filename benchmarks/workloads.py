"""The benchmark's three workloads: seeded inputs, one timed operation each,
and checks of the operation's output.

Every workload is a closed loop with a single caller in one process: the
next operation starts only when the previous one has returned.

The timed and untimed paths use only pspb's stable entry points
(``pspb.cli.main``, ``builtin_scheme``, ``generate_gait``,
``waypoints_from_reference``, ``PolynomialReference``), plus the trajectory
accessors the acceptance suite itself relies on (``segments``,
``SolvedSegment.kinematics`` and ``continuity_report``). The checks rest on
properties the scheme construction guarantees, recomputed here with the
benchmark's own arithmetic, never on byte-golden files, so a correct change
that flips a last printed digit still passes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import pspb
import pspb.cli

SCHEMES = ("434-1", "434-2", "545-1", "545-2", "656-1", "656-2")
STANCE_TIMES = (0.0, 0.12, 0.48, 0.6)
SWING_TIMES = (0.6, 0.68, 0.92, 1.0)
VIA_TIMES = (0.12, 0.48, 0.6, 0.68, 0.92)
SAMPLES = 101

# Tolerances, relative to the magnitude of the quantity checked. Solves are
# accurate to ~1e-12 and CSVs carry 9 significant digits, so these leave
# room for any correct rounding while catching a wrong value.
POSITION_RTOL = 1e-6
JUMP_RTOL = 1e-6
# compare's full-cycle grid does not hit the profile grid, so positions
# there are rebuilt from the nearest profile row by a cubic Taylor step.
# Rebuilt RMSEs agree with compare's to within 5e-6 relative.
RMSE_RTOL = 1e-4
RMSE_ATOL = 1e-6
TRACKING_RTOL = 2e-5  # the CLI prints the tracking RMSE with 6 digits


# -- CLI workloads ---------------------------------------------------------


def sinusoid(amplitude: float, period: float, t, order: int = 0):
    """The sinusoid reference, computed independently of pspb."""
    w = 2 * math.pi / period
    return amplitude * w**order * np.sin(w * np.asarray(t) + order * math.pi / 2)


@dataclass
class CliResult:
    codes: dict[str, int]
    stdout: dict[str, str]
    parts: dict[str, float]


class CliWorkload:
    """Runs ``pspb.cli.main`` in process on one seeded JSON config.

    The seed perturbs the sinusoid's amplitude and period; everything else
    is the README's minimal config.
    """

    verbs: tuple[str, ...] = ("generate", "compare")
    sim_enabled = False
    schemes: tuple[str, ...] = SCHEMES

    def __init__(self, seed: int, work_dir: Path, sim_dt: float = 1e-4):
        rng = np.random.default_rng(seed)
        self.amplitude = float(rng.uniform(20.0, 40.0))
        self.period = float(rng.uniform(0.9, 1.1))
        self.config = {
            "schemes": list(self.schemes),
            "stance_times": list(STANCE_TIMES),
            "swing_times": list(SWING_TIMES),
            "reference": {"name": "sinusoid", "amplitude": self.amplitude,
                          "period": self.period},
            "samples": SAMPLES,
            "via_window": 0.01,
            "sim": {"enabled": self.sim_enabled, "kp": 500, "kd": 50,
                    "dt": sim_dt},
        }
        work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = work_dir / "config.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.out = {verb: work_dir / verb for verb in self.verbs}
        self.baseline: dict[str, bytes] | None = None

    def setup_code(self) -> tuple[str, list[str]]:
        """Child-interpreter source: import pspb and parse the config."""
        return (
            "import json, sys, time\n"
            "t0 = time.perf_counter()\n"
            "import pspb.cli\n"
            "raw = json.loads(open(sys.argv[1], encoding='utf-8').read())\n"
            "parse = getattr(pspb.cli, 'RunConfig', None)\n"
            "if parse is not None:\n"
            "    parse(raw)\n"
            "print(time.perf_counter() - t0)\n"
        ), [str(self.config_path)]

    def prepare(self) -> list[None]:
        return [None]

    def execute(self, _op) -> CliResult:
        result = CliResult({}, {}, {})
        for verb in self.verbs:
            buf = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(buf):
                code = pspb.cli.main([verb, "--config", str(self.config_path),
                                      "--out", str(self.out[verb])])
            result.parts[verb] = perf_counter() - start
            result.codes[verb] = code
            result.stdout[verb] = buf.getvalue()
        return result

    def check(self, _op, result: CliResult) -> list[str]:
        bad = [f"{verb} exited {code}" for verb, code in result.codes.items() if code]
        if bad:
            return bad
        gen = self.out["generate"]
        problems = check_profiles(gen, self.schemes, self.amplitude, self.period)
        if "compare" in self.out:
            problems += check_compare(self.out["compare"], gen, self.schemes,
                                      self.amplitude, self.period)
        if self.sim_enabled:
            for scheme in self.schemes:
                problems += check_tracking(gen, scheme, result.stdout["generate"])
        return problems or self._check_deterministic(gen)

    def _check_deterministic(self, gen: Path) -> list[str]:
        """generate's files are byte-identical to those of the first
        operation that passed every other check."""
        files = {p.name: p.read_bytes() for p in sorted(gen.iterdir())}
        if self.baseline is None:
            self.baseline = files
        if files != self.baseline:
            changed = sorted(n for n in files.keys() | self.baseline.keys()
                             if files.get(n) != self.baseline.get(n))
            return [f"generate output differs between runs: {changed}"]
        return []

    def csv_bytes(self) -> int:
        return sum(p.stat().st_size for out in self.out.values()
                   for p in out.glob("*.csv"))


class CliDefault(CliWorkload):
    """``pspb generate`` then ``pspb compare`` on the README minimal config."""

    name = "cli_default"
    traced_ops = 2


class Track(CliWorkload):
    """``pspb generate`` on 656-1 with the PD-tracking simulation on."""

    name = "track"
    traced_ops = 1
    verbs = ("generate",)
    sim_enabled = True
    schemes = ("656-1",)


def _read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_profiles(out: Path, schemes, amplitude: float, period: float) -> list[str]:
    """Positions at phase and via times equal the reference waypoints, and
    jumps on orders constrained on both sides of a via point are ~0."""
    problems = []
    scales = [1.0 + amplitude * (2 * math.pi / period) ** k for k in range(4)]
    for scheme in schemes:
        try:
            rows = _read_table(out / f"profile_{scheme}.csv")
            jumps = _read_table(out / f"continuity_{scheme}.csv")
        except (OSError, ValueError) as exc:
            problems.append(f"{scheme}: unreadable output: {exc}")
            continue
        if rows.shape != (2 * SAMPLES, 5) or not np.all(np.isfinite(rows)):
            problems.append(f"{scheme}: profile has shape {rows.shape} or non-finite values")
            continue
        for t in sorted(set(STANCE_TIMES + SWING_TIMES)):
            at = rows[np.abs(rows[:, 0] - t) <= 1e-9]
            want = float(sinusoid(amplitude, period, t))
            if len(at) == 0:
                problems.append(f"{scheme}: no profile row at t={t}")
            elif np.any(np.abs(at[:, 1] - want) > POSITION_RTOL * scales[0]):
                problems.append(f"{scheme}: position at t={t} is {at[:, 1]}, waypoint {want}")
        if jumps.shape[1:] != (4,) or len(jumps) == 0:
            problems.append(f"{scheme}: continuity table has shape {jumps.shape}")
            continue
        for via, order, jump, both in jumps:
            if both and abs(jump) > JUMP_RTOL * scales[int(order)]:
                problems.append(
                    f"{scheme}: order {int(order)} jumps by {jump} at t={via} "
                    "although both sides constrain it"
                )
    return problems


def profile_position(rows: np.ndarray, t: float) -> float:
    """Position at t rebuilt from the nearest profile row of the same segment.

    A row carries position through jerk, so a cubic Taylor step from it is
    exact up to the quartic term. Rows on the far side of a via point
    belong to another polynomial and are skipped.
    """
    for i in np.argsort(np.abs(rows[:, 0] - t), kind="stable"):
        r = rows[i, 0]
        lo, hi = min(r, t) + 1e-9, max(r, t) - 1e-9
        if not any(lo < v < hi for v in VIA_TIMES):
            best = rows[i]
            break
    h = t - best[0]
    return best[1] + best[2] * h + best[3] * h**2 / 2 + best[4] * h**3 / 6


def check_compare(cmp_out: Path, gen_out: Path, schemes, amplitude: float,
                  period: float) -> list[str]:
    """compare's position RMSE per scope agrees with one recomputed from the
    generated profile against the reference."""
    problems = []
    try:
        with open(cmp_out / "error_report.csv", newline="", encoding="utf-8") as fh:
            reported = {(r["scheme"], r["scope"]): float(r["rmse"])
                        for r in csv.DictReader(fh) if r["quantity"] == "Hip (Pos)"}
    except (OSError, KeyError, ValueError) as exc:
        return [f"error_report.csv unreadable: {exc}"]
    scopes = {"full": (STANCE_TIMES[0], SWING_TIMES[-1]),
              "stance": (STANCE_TIMES[0], STANCE_TIMES[-1]),
              "swing": (SWING_TIMES[0], SWING_TIMES[-1])}
    for scheme in schemes:
        try:
            rows = _read_table(gen_out / f"profile_{scheme}.csv")
        except (OSError, ValueError) as exc:
            problems.append(f"{scheme}: profile unreadable: {exc}")
            continue
        for scope, (lo, hi) in scopes.items():
            times = np.linspace(lo, hi, SAMPLES)
            gen = np.array([profile_position(rows, t) for t in times])
            want = float(np.sqrt(np.mean((gen - sinusoid(amplitude, period, times)) ** 2)))
            got = reported.get((scheme, scope))
            if got is None or abs(got - want) > RMSE_RTOL * want + RMSE_ATOL:
                problems.append(
                    f"{scheme} {scope}: compare reports position RMSE {got}, "
                    f"recomputed {want}"
                )
    return problems


def check_tracking(gen_out: Path, scheme: str, stdout: str) -> list[str]:
    """The tracking RMSE recomputed from tracking_<scheme>.csv matches the
    value the CLI printed."""
    match = re.search(rf"^{re.escape(scheme)}: tracking RMSE (\S+) rad$", stdout, re.M)
    if match is None:
        return [f"{scheme}: no tracking RMSE printed"]
    try:
        rows = _read_table(gen_out / f"tracking_{scheme}.csv")
    except (OSError, ValueError) as exc:
        return [f"{scheme}: tracking CSV unreadable: {exc}"]
    printed = float(match.group(1))
    err = rows[:, 1] - rows[:, 3]
    recomputed = float(np.sqrt(np.mean(err**2)))
    if not abs(printed - recomputed) <= TRACKING_RTOL * recomputed + 1e-12:
        return [f"{scheme}: printed tracking RMSE {printed}, recomputed {recomputed}"]
    return []


# -- library workload -------------------------------------------------------


@dataclass
class GaitInput:
    scheme: str
    stance: list
    swing: list
    midpoints: object
    scales: tuple[float, ...]


class Bulk:
    """``generate_gait`` on fresh random degree-7 polynomial references.

    Every gait gets its own reference and its own via times inside each
    phase, so no two gaits share a segment duration. Inputs are built
    outside the timed region, one batch at a time.
    """

    name = "bulk"

    def __init__(self, seed: int, work_dir: Path, per_scheme: int = 10,
                 traced_batches: int = 5):
        self.rng = np.random.default_rng(seed)
        self.per_scheme = per_scheme
        self.traced_ops = traced_batches * per_scheme * len(SCHEMES)
        self.schemes = {name: pspb.builtin_scheme(name) for name in SCHEMES}

    def setup_code(self):
        """Child-interpreter source: import pspb and build the six schemes."""
        return (
            "import time\n"
            "t0 = time.perf_counter()\n"
            "import pspb\n"
            f"schemes = [pspb.builtin_scheme(n) for n in {SCHEMES!r}]\n"
            "print(time.perf_counter() - t0)\n"
        ), []

    def prepare(self) -> list[GaitInput]:
        rng = self.rng
        ops = []
        for _ in range(self.per_scheme):
            for scheme in SCHEMES:
                ref = pspb.PolynomialReference(tuple(rng.uniform(-5.0, 5.0, 8)))
                stance = (0.0, rng.uniform(0.08, 0.2), rng.uniform(0.4, 0.52), 0.6)
                swing = (0.6, rng.uniform(0.64, 0.72), rng.uniform(0.88, 0.96), 1.0)
                stance_wp = pspb.waypoints_from_reference(ref, stance)
                swing_wp = pspb.waypoints_from_reference(ref, swing)
                values = [(w.position, w.velocity, w.acceleration, w.jerk)
                          for w in stance_wp + swing_wp]
                scales = tuple(1.0 + max(abs(v[k]) for v in values) for k in range(4))
                ops.append(GaitInput(scheme, stance_wp, swing_wp,
                                     _position_of(ref), scales))
        return ops

    def execute(self, op: GaitInput):
        return pspb.generate_gait(self.schemes[op.scheme], op.stance, op.swing,
                                  op.midpoints, op.midpoints)

    def check(self, op: GaitInput, traj) -> list[str]:
        """Each segment meets its waypoints' positions at both ends, and
        orders constrained on both sides of a via point do not jump."""
        waypoints = [op.stance[0:2], op.stance[1:3], op.stance[2:4],
                     op.swing[0:2], op.swing[1:3], op.swing[2:4]]
        if len(traj.segments) != len(waypoints):
            return [f"{op.scheme}: {len(traj.segments)} segments, want 6"]
        problems = []
        tol = POSITION_RTOL * op.scales[0]
        for i, (seg, ends) in enumerate(zip(traj.segments, waypoints)):
            for t, w in zip((seg.t_start, seg.t_end), ends):
                got = seg.kinematics(t)[0]
                if t != w.time or abs(got - w.position) > tol:
                    problems.append(f"{op.scheme} segment {i}: position {got} "
                                    f"at t={t}, waypoint {w.position} at {w.time}")
        for jump in pspb.continuity_report(traj).jumps:
            if jump.constrained_both_sides and \
                    abs(jump.jump) > JUMP_RTOL * op.scales[jump.order]:
                problems.append(f"{op.scheme}: order {jump.order} jumps by "
                                f"{jump.jump} at t={jump.via_time}")
        return problems

    def csv_bytes(self) -> int:
        return 0


def _position_of(ref):
    return lambda t: ref(t, 0)


WORKLOADS = {w.name: w for w in (CliDefault, Bulk, Track)}
