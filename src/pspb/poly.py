"""Polynomials over normalized segment time, with derivatives up to jerk.

Coefficients are stored in ascending power over tau in [0, 1]. Keeping
segment time normalized keeps the boundary-value systems well conditioned
even for very short segments. ``differentiate`` gives the formal
derivatives and ``horner`` evaluates one at a float or an array of tau;
``SolvedSegment.kinematics`` combines the two and recovers physical units
with the segment duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_DERIVATIVE = 3  # jerk is the highest order the model cares about


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
        if not all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "degree", len(coeffs) - 1)


def horner(poly: Polynomial, t):
    """Evaluate by Horner's scheme at a float or element-wise on an array."""
    acc = 0.0
    for c in reversed(poly.coefficients):
        acc = acc * t + c
    return acc


def differentiate(poly: Polynomial, k: int) -> Polynomial:
    """k-th formal derivative, 0 <= k <= 3."""
    if not 0 <= k <= MAX_DERIVATIVE:
        raise ValueError(f"derivative order must be in [0, {MAX_DERIVATIVE}], got {k}")
    coeffs = list(poly.coefficients)
    for _ in range(k):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:] or [0.0]
    return Polynomial(tuple(coeffs))
