"""In-memory tracer that wraps pspb's public functions from outside.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each traced
function or method by a timing wrapper, in every ``pspb`` module namespace
that holds it, and ``uninstall`` puts the originals back.

Every wrapped layer aggregates a call count, its total time and its self
time (duration minus the time covered by wrapped calls made inside it).
Coarse layers also keep one span per call (id, parent id, name, start,
end) in memory, up to a cap; hot leaves such as ``evaluate`` or
``Polynomial`` construction only aggregate, so a traced simulation with
millions of leaf calls stays small. Spans are written out by ``dump``.

A name a later version of the package no longer has is skipped and listed
in ``absent``, so the per-layer report reads 0 calls for it instead of
crashing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MODULES = ("cli", "schemes", "solver", "poly", "metrics", "reference", "simulation")

# Layers that keep individual spans; all other layers only aggregate.
SPAN_LAYERS = frozenset({
    "cli.main", "cli.run_generate", "cli.run_compare", "cli.write_csv",
    "schemes.generate_gait", "schemes.generate_phase",
    "metrics.sample", "metrics.via_point_rmse", "metrics.continuity_report",
    "simulation.simulate_tracking",
})

# Layers the per-layer report names; any that cannot be wrapped is flagged.
EXPECTED = (
    "cli.main", "cli.write_csv", "schemes.generate_gait", "schemes.generate_phase",
    "schemes.evaluate", "solver.solve_segment", "solver.kinematics",
    "poly.eval_kinematics", "poly.polynomial", "metrics.sample",
    "metrics.via_point_rmse", "metrics.continuity_report", "reference",
    "simulation.rk4_step", "simulation.simulate_tracking",
)

# Four-order kinematics computations counted when made inside evaluate,
# which keeps only one of the four orders.
KINEMATICS_LAYERS = ("poly.eval_kinematics", "solver.kinematics")
EVALUATE = "schemes.evaluate"

SPAN_CAP = 200_000


def _degree(args, kwargs):
    degree = args[0] if args else kwargs.get("degree")
    return f"deg{degree}" if isinstance(degree, int) else None


def _scheme_name(args, kwargs):
    scheme = args[0] if args else kwargs.get("scheme")
    name = getattr(scheme, "name", None)
    return name if isinstance(name, str) else None


SUBKEYS = {"solver.solve_segment": _degree, "schemes.generate_gait": _scheme_name}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.sub_stats: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.under_evaluate: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._restore: list[tuple] = []
        # Wrappers record nothing while paused; the harness unpauses the
        # tracer only around the timed operation.
        self.paused = True

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = []  # (layer name, owner, attribute)
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"pspb.{short}")
            except ImportError:
                continue
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets.append((f"{short}.{attr}", mod, attr))
        cli = modules.get("cli")
        if cli is not None and inspect.isfunction(getattr(cli, "_write_csv", None)):
            targets.append(("cli.write_csv", cli, "_write_csv"))
        solved = getattr(modules.get("solver"), "SolvedSegment", None)
        if inspect.isfunction(getattr(solved, "kinematics", None)):
            targets.append(("solver.kinematics", solved, "kinematics"))
        polynomial = getattr(modules.get("poly"), "Polynomial", None)
        if inspect.isclass(polynomial) and inspect.isfunction(polynomial.__init__):
            targets.append(("poly.polynomial", polynomial, "__init__"))
        ref_mod = modules.get("reference")
        for obj in vars(ref_mod).values() if ref_mod is not None else ():
            if (inspect.isclass(obj) and obj.__module__ == ref_mod.__name__
                    and inspect.isfunction(obj.__dict__.get("__call__"))):
                targets.append(("reference", obj, "__call__"))

        for name, owner, attr in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if inspect.ismodule(owner):
                self._rebind_everywhere(original, wrapper)
            else:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        wrapped = {name for name, _, _ in targets}
        self.absent = [name for name in EXPECTED if name not in wrapped]

    def _rebind_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pspb" or mod_name.startswith("pspb.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack, active = self._stack, self._active
        keep_span = name in SPAN_LAYERS
        subkey = SUBKEYS.get(name)
        count_under = name in KINEMATICS_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if keep_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent[1] if parent is not None else -1
            frame = [0.0, span_id]
            stack.append(frame)
            active[name] += 1
            if count_under and active[EVALUATE]:
                tracer.under_evaluate[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if keep_span:
                    tracer._record_span(span_id, parent, name, start, end)
                if subkey is not None:
                    tracer._record_sub(name, subkey, args, kwargs, duration)

        wrapper.__wrapped__ = fn
        return wrapper

    def _record_span(self, span_id, parent, name, start, end) -> None:
        if len(self.spans) < SPAN_CAP:
            parent_id = parent[1] if parent is not None else -1
            self.spans.append((span_id, parent_id, name, start, end))
        else:
            self.spans_dropped += 1

    def _record_sub(self, name, subkey, args, kwargs, duration) -> None:
        try:
            key = subkey(args, kwargs)
        except (IndexError, AttributeError, TypeError):
            key = None
        if key is not None:
            sub = self.sub_stats[f"{name}.{key}"]
            sub[0] += 1
            sub[1] += duration

    # -- reading ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total_s(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_s(self, name: str) -> float:
        return self.stats[name][2] if name in self.stats else 0.0

    def self_s_of_module(self, module: str) -> float:
        return sum(s[2] for name, s in self.stats.items()
                   if name.split(".")[0] == module)

    def self_s_all(self) -> float:
        return sum(s[2] for s in self.stats.values())

    def us_per_call(self, sub_name: str) -> float:
        calls, total = self.sub_stats.get(sub_name, (0, 0.0))
        return 1e6 * total / calls if calls else 0.0

    def useful_ratio(self) -> float:
        """Orders evaluate returns over orders computed inside it.

        Each evaluate call returns one order. Each four-order kinematics
        computation made inside it computes four; with none observed,
        evaluate computed only what it returned.
        """
        returned = self.calls(EVALUATE)
        if not returned:
            return 0.0
        for layer in KINEMATICS_LAYERS:
            if self.under_evaluate.get(layer):
                return returned / (4 * self.under_evaluate[layer])
        return 1.0

    def dump(self, path: Path) -> None:
        doc = {
            "absent": self.absent,
            "layers": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                       for name, s in sorted(self.stats.items())},
            "sub_layers": {name: {"calls": s[0], "total_s": s[1]}
                           for name, s in sorted(self.sub_stats.items())},
            "spans_dropped": self.spans_dropped,
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
