"""Reference trajectories the generated profiles are compared against.

A reference is any callable ``ref(t, order) -> float`` for orders 0..3.
Real gait data comes in as a CSV table; a built-in sinusoid and a plain
polynomial cover testing and demos without external data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .poly import Polynomial, differentiate, horner
from .schemes import Waypoint


@dataclass(frozen=True)
class SinusoidReference:
    """position = amplitude * sin(2*pi*t / period), derivatives analytic."""

    amplitude: float = 30.0  # deg
    period: float = 1.0      # s

    def __call__(self, t: float, order: int = 0) -> float:
        w = 2 * math.pi / self.period
        phase = w * t + order * math.pi / 2
        return self.amplitude * w**order * math.sin(phase)


@dataclass(frozen=True)
class PolynomialReference:
    """Physical-time polynomial, ascending coefficients."""

    coefficients: tuple[float, ...]

    def __call__(self, t: float, order: int = 0) -> float:
        return float(horner(differentiate(Polynomial(self.coefficients), order), t))


class CsvReference:
    """Reference sampled from a CSV with header t,pos[,vel,acc,jerk].

    Missing derivative columns are filled by central differences on the
    file's own grid (second-order accurate); evaluation between samples is
    linear interpolation.
    """

    COLUMNS = ("t", "pos", "vel", "acc", "jerk")

    def __init__(self, times: Sequence[float], columns: dict[int, np.ndarray]):
        self.times = np.asarray(times, dtype=float)
        if len(self.times) < 2:
            raise ConfigError("reference grid needs at least 2 points")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("reference times must be strictly increasing")
        if 0 not in columns:
            raise ConfigError("reference must include a position column")
        self.columns = dict(columns)
        for order in range(1, 4):
            if order not in self.columns:
                self.columns[order] = np.gradient(
                    self.columns[order - 1], self.times
                )

    @classmethod
    def from_file(cls, path: str | Path) -> "CsvReference":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = [h.strip().lower() for h in next(reader, [])]
            if not header or header[0] != "t" or header[1] != "pos":
                raise ConfigError(
                    f"{path}: expected header starting with t,pos, got {header}"
                )
            rows = [[float(x) for x in row] for row in reader if row]
        if not rows:
            raise ConfigError(f"{path}: no data rows")
        data = np.array(rows)
        columns = {}
        for i, name in enumerate(header[1:], start=1):
            if name not in cls.COLUMNS:
                raise ConfigError(f"{path}: unknown column {name!r}")
            columns[cls.COLUMNS.index(name) - 1] = data[:, i]
        return cls(data[:, 0], columns)

    def __call__(self, t: float, order: int = 0) -> float:
        return float(np.interp(t, self.times, self.columns[order]))


def waypoints_from_reference(reference, times: Sequence[float]) -> list[Waypoint]:
    """Waypoints carrying position through jerk sampled from a reference."""
    return [
        Waypoint(
            time=float(t),
            position=reference(t, 0),
            velocity=reference(t, 1),
            acceleration=reference(t, 2),
            jerk=reference(t, 3),
        )
        for t in times
    ]
