"""Boundary-value solves: kinematic constraints -> segment polynomial.

A segment's polynomial lives on normalized time tau = (t - t_start) / T in
[0, 1]. Each constraint pins the k-th derivative at some tau, so its row
in the linear system is d^k/dtau^k of the monomials at tau: the matrix
depends only on the degree and the (order, tau) pairs, never on the
duration or the values. The physical value v enters the right-hand side
as v * T^k (chain rule). Each distinct template's matrix and condition
number are therefore built once and cached. A scheme compiles its three
templates, identity-padded to the widest, into one stack: a gait is one padded
solve (partial pivoting), and ``solve_segment`` a stack of one; up to width 7
the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConstraintCountMismatch, SingularSystem
from .poly import MAX_DERIVATIVE, Polynomial, is_order

ORDER_NAMES = ("position", "velocity", "acceleration", "jerk")
SEGMENT_START = 0.0
SEGMENT_END = 1.0


@dataclass(frozen=True)
class Constraint:
    """Prescribed k-th derivative value, in physical units, at normalized time tau."""

    order: int
    tau: float
    value: float

    def __post_init__(self):
        if not is_order(self.order):
            raise ValueError(f"constraint order must be in [0, 3], got {self.order}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"constraint tau must be in [0, 1], got {self.tau}")


@dataclass(frozen=True)
class SolvedSegment:
    """One solved segment on [t_start, t_end] seconds.

    ``pins`` are the (order, tau) pairs its constraints fixed, so two
    adjacent segments agree by construction on exactly the orders both pin
    to their shared waypoint.
    """

    polynomial: Polynomial
    t_start: float
    t_end: float
    condition_estimate: float
    pins: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        # Evaluation divides by T**3, which must not underflow to zero.
        if not self.duration ** MAX_DERIVATIVE > 0:
            raise ValueError(
                "segment must have t_end > t_start and a duration whose cube is "
                f"nonzero, got [{self.t_start}, {self.t_end}]"
            )

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def kinematics(self, t):
        """Position, velocity, acceleration, jerk at physical time(s) t in
        [t_start, t_end]: this segment evaluated as a one-segment trajectory."""
        from .schemes import PiecewiseTrajectory, evaluate  # schemes imports this module
        return tuple(evaluate(PiecewiseTrajectory((self,)), t, slice(None)))

    def pinned_orders(self, tau: float) -> frozenset[int]:
        """Derivative orders constrained at normalized time tau."""
        return frozenset(order for order, at in self.pins if at == tau)


@lru_cache(maxsize=256)
def _template(degree: int, pins: tuple[tuple[int, float], ...]):
    """Read-only tau-space matrix of the (order, tau) pins, and its
    infinity-norm condition number."""
    if len(pins) != degree + 1:
        raise ConstraintCountMismatch(
            f"degree {degree} needs exactly {degree + 1} constraints, got {len(pins)}"
        )
    matrix = np.array([
        [math.perm(j, k) * tau ** (j - k) if j >= k else 0.0 for j in range(degree + 1)]
        for k, tau in pins
    ])
    cond = float(np.linalg.cond(matrix, np.inf))
    if not math.isfinite(cond):
        raise SingularSystem(f"constraint matrix is singular: {_describe(pins)}")
    matrix.setflags(write=False)
    return matrix, cond


def solve_segment(
    degree: int, constraints: list[Constraint], t_start: float, t_end: float
) -> SolvedSegment:
    """Solve the boundary-value system for one segment."""
    pins = tuple((c.order, c.tau) for c in constraints)
    matrix, cond = _template(degree, pins)
    rhs = [[c.value * (t_end - t_start)**c.order for c in constraints]]
    return _solve_stacked([(pins, cond)], matrix[None], rhs, [(t_start, t_end)])[0]


def _solve_stacked(slots, matrices, rhs, spans) -> list[SolvedSegment]:
    """One segment per span: item p of ``matrices``, the template of ``slots[p] = (pins,
    cond)`` identity-padded, against row p of ``rhs``, zero-padded to the same width.
    Each item is its own solve, bit-identical to an unpadded 2-d one up to width 7. The
    coefficients are floats checked finite here, so only each span is checked again."""
    solved = np.linalg.solve(matrices[:len(rhs)], np.array(rhs)[..., None])[..., 0].tolist()
    coeffs = [tuple(x[:len(pins)]) for (pins, _), x in zip(slots, solved)]
    if bad := [pins for (pins, _), c in zip(slots, coeffs) if not all(map(math.isfinite, c))]:
        raise SingularSystem(f"solve produced non-finite coefficients: {_describe(bad[0])}")
    segments = []
    for (pins, cond), c, (t_start, t_end) in zip(slots, coeffs, spans):
        segments.append(segment := object.__new__(SolvedSegment))  # no __init__: no re-checks
        vars(segment).update(polynomial=object.__new__(Polynomial), t_start=t_start,
                             t_end=t_end, condition_estimate=cond, pins=pins)
        vars(segment.polynomial).update(coefficients=c, degree=len(c) - 1)
        segment.__post_init__()
    return segments


def residuals(segment: SolvedSegment, constraints: list[Constraint]) -> list[float]:
    """|achieved - specified| per constraint, in physical units, each read at its own
    tau, so no time is formed that could round past t_end."""
    from .schemes import _build_table, _read_table  # schemes imports this module
    table = _build_table((segment,))
    return [abs(float(_read_table(table, 0, c.tau, c.order)) - c.value) for c in constraints]


def _describe(pins: tuple[tuple[int, float], ...]) -> str:
    return ", ".join(f"{ORDER_NAMES[k]}@tau={tau:g}" for k, tau in pins)
