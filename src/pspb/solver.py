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
from functools import cached_property, lru_cache

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
        _check_span(self.t_start, self.t_end)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def kinematics(self, t):
        """Position, velocity, acceleration, jerk at physical time(s) t in
        [t_start, t_end]: this segment evaluated as a one-segment trajectory."""
        from .schemes import evaluate  # schemes imports this module
        return tuple(evaluate(self._view, t, slice(None)))

    @cached_property
    def _view(self):
        """This segment as a one-row trajectory. A gait's segment is given a view of its
        row of the gait's arrays and table instead (not the gait: no reference cycle)."""
        from .schemes import PiecewiseTrajectory  # schemes imports this module
        return PiecewiseTrajectory((self,))._rows(slice(None))  # its arrays, not itself

    def pinned_orders(self, tau: float) -> frozenset[int]:
        """Derivative orders constrained at normalized time tau."""
        return frozenset(order for order, at in self.pins if at == tau)


def _check_span(t_start: float, t_end: float):
    if not (t_end - t_start) ** MAX_DERIVATIVE > 0:  # evaluation divides by T**3
        raise ValueError("segment must have t_end > t_start and a duration whose cube is "
                         f"nonzero, got [{t_start}, {t_end}]")


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
    rhs = [c.value * (t_end - t_start)**c.order for c in constraints]
    coeffs = _solve_stacked([(pins, cond)], matrix[None], rhs, [(t_start, t_end)])
    return SolvedSegment(Polynomial(tuple(coeffs[0].tolist())), t_start, t_end, cond, pins)


def _solve_stacked(slots, matrices, rhs, spans) -> np.ndarray:
    """(span, width) ascending coefficients: item p of ``matrices``, the template of
    ``slots[p] = (pins, cond)`` identity-padded, solved against row p of the flat ``rhs``
    (its padding solves to +0.0; bit-identical to an unpadded solve up to width 7).
    Checked finite, then each span as ``SolvedSegment`` checks it."""
    n = len(spans)
    coeffs = np.linalg.solve(matrices[:n], np.array(rhs).reshape(n, -1, 1))[..., 0]
    if not np.isfinite(coeffs).all():  # a row's padding is finite if the rest of it is
        bad = next(pins for (pins, _), row in zip(slots, coeffs) if not np.isfinite(row).all())
        raise SingularSystem(f"solve produced non-finite coefficients: {_describe(bad)}")
    for span in spans:
        _check_span(*span)
    return coeffs


def residuals(segment: SolvedSegment, constraints: list[Constraint]) -> list[float]:
    """|achieved - specified| per constraint, in physical units, each read at its own
    tau, so no time is formed that could round past t_end."""
    from .schemes import _read_table  # schemes imports this module
    table = segment._view._table
    return [abs(float(_read_table(table, 0, c.tau, c.order)) - c.value) for c in constraints]


def _describe(pins: tuple[tuple[int, float], ...]) -> str:
    return ", ".join(f"{ORDER_NAMES[k]}@tau={tau:g}" for k, tau in pins)
