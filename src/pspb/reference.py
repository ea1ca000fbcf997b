"""Reference trajectories the generated profiles are compared against.

A reference is any callable ``ref(t, order)`` for orders 0..3 that, like
``schemes.evaluate``, takes a float or an array of times and returns
values of the same shape. Real gait data comes in as a CSV table; a
built-in sinusoid and a plain polynomial cover testing and demos without
external data.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .poly import MAX_DERIVATIVE, Polynomial, differentiate, horner
from .schemes import Waypoint, _check_order


@dataclass(frozen=True)
class SinusoidReference:
    """position = amplitude * sin(2*pi*t / period), derivatives analytic."""

    amplitude: float = 30.0  # deg
    period: float = 1.0      # s

    def __call__(self, t, order: int = 0):
        _check_order(order)
        w = 2 * math.pi / self.period
        if math.isinf(w):
            raise OverflowError(f"sinusoid reference: period {self.period!r} is too short, "
                                f"2 pi / period is infinite")
        try:
            scale = self.amplitude * w**order
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise OverflowError(f"sinusoid reference: amplitude {self.amplitude!r} * "
                                f"(2 pi / period {self.period!r})**{order} overflows")
        return scale * np.sin(w * t + order * math.pi / 2)


@dataclass(frozen=True)
class PolynomialReference:
    """Physical-time polynomial, ascending coefficients."""

    coefficients: tuple[float, ...]

    @cached_property
    def _derivatives(self) -> tuple[Polynomial, ...]:
        # Built on first call, so each call is one Horner pass.
        polynomial = Polynomial(self.coefficients)
        return tuple(differentiate(polynomial, k) for k in range(MAX_DERIVATIVE + 1))

    def __call__(self, t, order: int = 0):
        _check_order(order)
        return horner(self._derivatives[order], t)


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
        finite = np.isfinite(self.times)
        for column in columns.values():
            finite &= np.isfinite(column)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ConfigError(f"reference sample {i} (t={self.times[i]:g}) is not finite")
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
            if header[:2] != ["t", "pos"]:
                raise ConfigError(
                    f"{path}: expected header starting with t,pos, got {header}"
                )
            if len(set(header)) != len(header):
                raise ConfigError(f"{path}: repeated column in header {header}")
            rows = [row for row in reader if row]
        if not rows:
            raise ConfigError(f"{path}: no data rows")
        for row in rows:
            if len(row) != len(header):
                raise ConfigError(
                    f"{path}: every row needs {len(header)} cells, one per "
                    f"header column, got {row}"
                )
        data = np.array([[float(x) for x in row] for row in rows])
        columns = {}
        for i, name in enumerate(header[1:], start=1):
            if name not in cls.COLUMNS:
                raise ConfigError(f"{path}: unknown column {name!r}")
            columns[cls.COLUMNS.index(name) - 1] = data[:, i]
        return cls(data[:, 0], columns)

    def __call__(self, t, order: int = 0):
        _check_order(order)
        return np.interp(t, self.times, self.columns[order])


def waypoints_from_reference(reference, times: Sequence[float]) -> list[Waypoint]:
    """Waypoints carrying position through jerk sampled from a reference."""
    times = np.asarray(times, dtype=float)
    orders = (reference(times, k).tolist() for k in range(4))
    return [Waypoint(*row) for row in zip(times.tolist(), *orders)]
