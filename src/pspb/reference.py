"""Reference trajectories the generated profiles are compared against.

A reference is any callable ``ref(t, order)`` for orders 0..3 that, like
``schemes.evaluate``, takes a float or an array of times and returns
values of the same shape. Real gait data comes in as a CSV table; a
built-in sinusoid and a plain polynomial cover testing and demos without
external data. A polynomial reference is differentiated by the one
differentiation in the package, ``schemes._build_table``, and read by the one
evaluation kernel, ``poly.horner_rows``.
"""

from __future__ import annotations

import csv
import math
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .poly import Polynomial, _Record, horner_rows
from .schemes import Waypoint, _build_table, _check_domain, _check_order


class SinusoidReference(_Record):
    """position = amplitude * sin(2*pi*t / period), derivatives analytic."""

    amplitude: float = 30.0  # deg
    period: float = 1.0      # s

    def __post_init__(self):
        if not 0 < self.period < math.inf:  # NaN too
            raise ValueError(f"sinusoid period must be positive and finite, got {self.period!r}")
        if not math.isfinite(self.amplitude):
            raise ValueError(f"sinusoid amplitude must be finite, got {self.amplitude!r}")

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
        try:
            with np.errstate(over="raise"):  # a numpy t raises under any caller's errstate
                phase = w * t
        except FloatingPointError:
            phase, t = math.inf, np.ravel(t)[np.nanargmax(np.abs(t))]
        if isinstance(phase, float) and math.isinf(phase):  # a float's overflow raises nothing
            raise OverflowError(f"sinusoid reference: 2 pi / period * t overflows at t={t:g}")
        return scale * np.sin(phase + order * math.pi / 2)


class PolynomialReference(_Record):
    """Physical-time polynomial, ascending coefficients."""

    coefficients: tuple[float, ...]

    @cached_property
    def _rows(self) -> list[list[float]]:
        """Per order, its derivative's coefficients highest power first, read off a
        one-segment table on [0, 1] (T = 1: no division). Built on first call, so
        each call is one Horner pass over Python floats."""
        coefficients = Polynomial(self.coefficients).coefficients  # at least one, all finite
        _, _, table = _build_table(np.array([[coefficients]]), [(0.0, 1.0)])
        return table[:, 0, :, 0].T.tolist()

    def __call__(self, t, order: int = 0):
        _check_order(order)
        return horner_rows(self._rows[order], t)


class CsvReference:
    """Reference sampled from a CSV with header t,pos[,vel,acc,jerk].

    Missing derivative columns are filled by central differences on the
    file's own grid (second-order accurate); evaluation between samples is
    linear interpolation, and a time outside the samples raises ``OutOfDomain``.
    """

    COLUMNS = ("t", "pos", "vel", "acc", "jerk")

    def __init__(self, times: Sequence[float], columns: dict[int, np.ndarray]):
        self.times = np.asarray(times, dtype=float)
        if len(self.times) < 2:
            raise ConfigError("reference grid needs at least 2 points")
        for order, column in columns.items():
            try:
                shape = np.shape(column)
            except ValueError:  # numpy's own inhomogeneous-shape error names no column
                shape = "ragged"
            if shape != (len(self.times),):  # else numpy broadcasts it
                raise ConfigError(f"reference column of order {order} has shape "
                                  f"{shape}, not one value per time ({len(self.times)})")
        finite = np.isfinite([self.times, *columns.values()]).all(axis=0)
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
                with np.errstate(all="ignore"):  # numpy's overflow text names no column
                    self.columns[order] = column = np.gradient(self.columns[order - 1], self.times)
                if not (finite := np.isfinite(column)).all():
                    raise OverflowError(f"reference column {self.COLUMNS[order + 1]!r} (order "
                                        f"{order}), filled by central differences, overflows "
                                        f"at t={self.times[np.argmin(finite)]:g}")

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
        data = []
        for row in rows:
            try:
                data.append([float(x) for x in row])
            except ValueError:  # float()'s own line names neither the file nor the row
                raise ConfigError(f"{path}: every cell must be a number, got {row}") from None
        data = np.array(data)
        columns = {}
        for i, name in enumerate(header[1:], start=1):
            if name not in cls.COLUMNS:
                raise ConfigError(f"{path}: unknown column {name!r}")
            columns[cls.COLUMNS.index(name) - 1] = data[:, i]
        return cls(data[:, 0], columns)

    def __call__(self, t, order: int = 0):
        _check_order(order)
        _check_domain(t, self.times[0], self.times[-1], "reference")
        return np.interp(t, self.times, self.columns[order])


def waypoints_from_reference(reference, times: Sequence[float]) -> list[Waypoint]:
    """Waypoints carrying position through jerk sampled from a reference."""
    times = np.asarray(times, dtype=float)
    orders = (reference(times, k).tolist() for k in range(4))
    return [Waypoint(*row) for row in zip(times.tolist(), *orders)]
