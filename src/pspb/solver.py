"""Boundary-value solves: kinematic constraints -> segment polynomial.

A segment's polynomial lives on normalized time tau = (t - t_start) / T in
[0, 1]. Each constraint pins the k-th derivative at some tau, so its row in the
linear system is d^k/dtau^k of the monomials at tau: the matrix depends only on
the degree and the (order, tau) pairs. A value v enters the right-hand side as
v * T^k (chain rule); ``schemes._check_span`` forms T^0..T^3 and checks the span.
Each template's matrix and condition number are built once and cached in ``schemes``. A
scheme's three templates, identity-padded to the widest, are one stack: a gait is one padded
solve and ``solve_segment`` a stack of one (bit for bit alike up to width 7), by numpy's LAPACK
gesv gufunc ``solve1``, ``np.linalg.solve``'s kernel for a vector right side (one view fewer
per solve), with no fallback (operands are float64 in compiled shapes, singular templates are
refused when built) and no errstate (gesv clears the FP flags unless a pivot is 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .poly import Polynomial, is_order
from .schemes import SEGMENT_END, SEGMENT_START, SolvedSegment  # also this module's API
from .schemes import _check_span, _read_table, _solve_stacked, _template


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
        if not math.isfinite(self.value):
            raise ValueError(f"constraint value at tau={self.tau} must be finite, got {self.value}")


def solve_segment(
    degree: int, constraints: list[Constraint], t_start: float, t_end: float
) -> SolvedSegment:
    """Solve the boundary-value system for one segment."""
    pins = tuple((c.order, c.tau) for c in constraints)
    matrix, cond = _template(degree, pins)
    powers = _check_span(t_start, t_end)
    rhs = [c.value * powers[c.order] for c in constraints]
    coeffs = _solve_stacked([(pins, cond)], matrix[None], rhs)
    return SolvedSegment(Polynomial(tuple(coeffs[0].tolist())), t_start, t_end, cond, pins)


def residuals(segment: SolvedSegment, constraints: list[Constraint]) -> list[float]:
    """|achieved - specified| per constraint, in physical units, each read at its own
    tau, so no time is formed that could round past t_end."""
    table = segment._view._table
    return [abs(float(_read_table(table, 0, c.tau, c.order)[0]) - c.value) for c in constraints]
