"""Host-speed probe: scales timings to a reference host speed.

The benchmark runs on shared hosts whose speed swings by up to 2x for
seconds to minutes at a time, as other tenants load the same cores. A run's
raw throughput then says as much about the neighbours as about pspb. While
a ``HostSpeedProbe`` is active, a SIGALRM timer interrupts the process ten
times a second to time a fixed ~1 ms kernel owned by the benchmark. Its
mean duration over the run, divided by ``REFERENCE_S``, is the run's
slowdown factor, by which throughput is scaled. Each set-up child instead
times the kernel itself right after it is ready (``measure_slowdown``), and
its set-up time is scaled by that. Raw values are printed beside the scaled
ones.

The kernel mirrors the mix of pspb's hot paths (small frozen dataclasses,
Python-level Horner loops and a small dense solve), so it slows down with
them when the host is contended. It never calls pspb, so a change to pspb
cannot move it. Time spent in the probe while an operation runs is
subtracted from that operation's latency; the per-verb times printed for
cli_default keep it, about 1% at ten 1 ms samples a second.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
KERNEL_ITERATIONS = 30
# Probe kernel time that defines the reference host speed.
REFERENCE_S = 1e-3

_MATRIX = np.vander(np.linspace(0.1, 1.0, 6), 6) + np.eye(6)
_RHS = np.arange(6.0)
_COEFFICIENTS = (1.0, -2.0, 0.5, 0.25, -0.125, 0.0625, 0.03)


@dataclass(frozen=True)
class _Poly:
    coefficients: tuple
    degree: int = field(init=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "degree", len(coeffs) - 1)


def kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_ITERATIONS):
        coeffs = list(_Poly(_COEFFICIENTS).coefficients)
        for _ in range(3):
            coeffs = [k * c for k, c in enumerate(coeffs)][1:] or [0.0]
            value = 0.0
            for c in reversed(_Poly(tuple(coeffs)).coefficients):
                value = value * 0.37 + c
            acc += value
        if i % 4 == 0:
            acc += float(np.linalg.solve(_MATRIX, _RHS)[0])
    return acc


def measure_slowdown(samples: int = 15) -> float:
    """Median probe kernel time over the reference, measured on the spot."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times) / REFERENCE_S


class HostSpeedProbe:
    """Context manager sampling the probe kernel while it is active."""

    def __init__(self):
        self.total_s = 0.0
        self.samples = 0
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        kernel()
        self.total_s += perf_counter() - start
        self.samples += 1

    def __enter__(self) -> "HostSpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # shorter than one interval
            self._sample()

    @property
    def slowdown(self) -> float:
        """Mean probe time over the reference; above 1 on a slower host."""
        return self.total_s / self.samples / REFERENCE_S
