"""Polynomials over normalized segment time, with derivatives up to jerk.

Coefficients are stored in ascending power over tau in [0, 1]. Keeping
segment time normalized keeps the boundary-value systems well conditioned
even for very short segments. ``differentiate`` gives the formal
derivatives of a reference polynomial; a trajectory's table forms its own.
``horner_rows`` is the one evaluation kernel: ``schemes._read_table``, which
``evaluate``, ``continuity_report`` and ``residuals`` call, runs it over a
table of derivative rows, ``horner`` over one polynomial's coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


MAX_DERIVATIVE = 3  # jerk is the highest order the model cares about


def is_order(k) -> bool:
    """A derivative order is an integer (``__index__``, not a bool) in 0..3."""
    return hasattr(k, "__index__") and not isinstance(k, bool) and 0 <= k <= MAX_DERIVATIVE


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial c0 + c1*t + ... + cn*t^n.

    The degree is structural: trailing zero coefficients do not lower it,
    so a degree-6 solve that happens to return c6 == 0 is still degree 6.
    """

    coefficients: tuple[float, ...]
    degree: int = field(init=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "degree", len(coeffs) - 1)


def horner(poly: Polynomial, t):
    """Evaluate by Horner's scheme at a float or element-wise on an array."""
    return horner_rows(reversed(poly.coefficients), t)


def horner_rows(rows, t):
    """Horner's scheme over coefficients (floats or arrays), highest power
    first. Leading zeros leave +0.0, so zero padding changes no bit."""
    acc = 0.0
    for row in rows:
        acc = acc * t + row
    return acc


def differentiate(poly: Polynomial, k: int) -> Polynomial:
    """k-th formal derivative, 0 <= k <= 3."""
    if not is_order(k):
        raise ValueError(f"derivative order must be in [0, {MAX_DERIVATIVE}], got {k}")
    coeffs = list(poly.coefficients)
    for _ in range(k):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:] or [0.0]
    return Polynomial(tuple(coeffs))
