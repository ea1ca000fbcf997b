"""Boundary-value solves: kinematic constraints -> segment polynomial.

Each segment is an exactly determined linear system in the coefficients:
one row per constraint, evaluated on normalized time tau in [0, 1] with
duration factors 1/T^k carrying the right-hand side in physical units.
The systems are at most 7x7 (degree 6), so a direct dense solve with
partial pivoting is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintCountMismatch, SingularSystem
from .poly import MAX_DERIVATIVE, Polynomial, differentiate, horner

ORDER_NAMES = ("position", "velocity", "acceleration", "jerk")


@dataclass(frozen=True)
class Anchor:
    """Location of a constraint inside a segment, as normalized time."""

    tau: float
    is_midpoint: bool = False

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"anchor tau must be in [0, 1], got {self.tau}")


SEGMENT_START = Anchor(0.0)
SEGMENT_END = Anchor(1.0)
# The mid-point position constraint sits at tau = 0.5; overridable via at_tau.
MID_POINT = Anchor(0.5, is_midpoint=True)


def at_tau(tau: float) -> Anchor:
    return Anchor(tau)


@dataclass(frozen=True)
class Constraint:
    """Prescribed k-th derivative value at an anchor, in physical units."""

    order: int
    anchor: Anchor
    value: float

    def __post_init__(self):
        if not 0 <= self.order <= MAX_DERIVATIVE:
            raise ValueError(f"constraint order must be in [0, 3], got {self.order}")
        if self.anchor.is_midpoint and self.order != 0:
            raise ValueError("mid-point anchor only carries position constraints")


@dataclass(frozen=True)
class SolvedSegment:
    """One solved segment on [t_start, t_end] seconds."""

    polynomial: Polynomial
    t_start: float
    t_end: float
    condition_estimate: float

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("segment must have t_end > t_start")

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @cached_property
    def _derivatives(self) -> tuple[Polynomial, ...]:
        # Built on first evaluation so that solving alone never pays for it.
        return tuple(differentiate(self.polynomial, k)
                     for k in range(MAX_DERIVATIVE + 1))

    def kinematics(self, t):
        """Position, velocity, acceleration, jerk at physical time(s) t.

        ``t`` is a float or an array. The polynomial lives on
        tau = (t - t_start) / T; the k-th physical derivative picks up a
        1/T^k chain-rule factor.
        """
        T = self.duration
        tau = (t - self.t_start) / T
        return tuple(horner(d, tau) / T**k for k, d in enumerate(self._derivatives))


def _basis_row(degree: int, order: int, tau: float, duration: float) -> np.ndarray:
    """Row of the system: d^k/dtau^k of each monomial at tau, scaled by T^-k."""
    row = np.zeros(degree + 1)
    for j in range(order, degree + 1):
        row[j] = math.perm(j, order) * tau ** (j - order)
    return row / duration**order


def assemble_system(
    degree: int, constraints: list[Constraint], duration: float
) -> tuple[np.ndarray, np.ndarray]:
    """Build the square (degree+1) system; rhs stays in physical units."""
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if len(constraints) != degree + 1:
        raise ConstraintCountMismatch(
            f"degree {degree} needs exactly {degree + 1} constraints, "
            f"got {len(constraints)}"
        )
    matrix = np.vstack(
        [_basis_row(degree, c.order, c.anchor.tau, duration) for c in constraints]
    )
    rhs = np.array([c.value for c in constraints])
    return matrix, rhs


def solve_segment(
    degree: int, constraints: list[Constraint], t_start: float, t_end: float
) -> SolvedSegment:
    """Solve the boundary-value system for one segment."""
    duration = t_end - t_start
    matrix, rhs = assemble_system(degree, constraints, duration)
    try:
        inv = np.linalg.inv(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"constraint matrix is singular: {_describe(constraints)}"
        ) from exc
    # Cheap infinity-norm condition bound; diagnostics only.
    cond = float(
        np.abs(matrix).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    )
    coeffs = np.linalg.solve(matrix, rhs)
    if not np.all(np.isfinite(coeffs)):
        raise SingularSystem(
            f"solve produced non-finite coefficients: {_describe(constraints)}"
        )
    return SolvedSegment(Polynomial(tuple(coeffs)), t_start, t_end, cond)


def residuals(segment: SolvedSegment, constraints: list[Constraint]) -> list[float]:
    """|achieved - specified| per constraint, in physical units."""
    taus = np.array([c.anchor.tau for c in constraints])
    achieved = segment.kinematics(segment.t_start + taus * segment.duration)
    return [abs(float(achieved[c.order][i]) - c.value)
            for i, c in enumerate(constraints)]


def _describe(constraints: list[Constraint]) -> str:
    return ", ".join(
        f"{ORDER_NAMES[c.order]}@tau={c.anchor.tau:g}" for c in constraints
    )
