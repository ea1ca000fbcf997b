"""Boundary-value solves: kinematic constraints -> segment polynomial.

A segment's polynomial lives on normalized time tau = (t - t_start) / T in
[0, 1]. Each constraint pins the k-th derivative at some tau, so its row
in the linear system is d^k/dtau^k of the monomials at tau: the matrix
depends only on the degree and the (order, tau) pairs, never on the
duration or the values. The physical value v enters the right-hand side
as v * T^k (chain rule). Each distinct template's matrix and condition
number are therefore built once and cached, in ``schemes`` beside the solve
and the trajectories they feed. A scheme's three templates, identity-padded to
the widest, are one stack: a gait is one padded solve (partial pivoting), and
``solve_segment`` a stack of one; up to width 7 the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Polynomial, is_order
from .schemes import SEGMENT_END, SEGMENT_START, SolvedSegment  # also this module's API
from .schemes import _read_table, _solve_stacked, _template


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


def solve_segment(
    degree: int, constraints: list[Constraint], t_start: float, t_end: float
) -> SolvedSegment:
    """Solve the boundary-value system for one segment."""
    pins = tuple((c.order, c.tau) for c in constraints)
    matrix, cond = _template(degree, pins)
    try:
        rhs = [c.value * (t_end - t_start)**c.order for c in constraints]
    except OverflowError:
        raise OverflowError(f"segment [{t_start}, {t_end}]: duration {t_end - t_start!r} to the "
                            f"power {max(c.order for c in constraints)} overflows") from None
    coeffs = _solve_stacked([(pins, cond)], matrix[None], rhs, [(t_start, t_end)])
    return SolvedSegment(Polynomial(tuple(coeffs[0].tolist())), t_start, t_end, cond, pins)


def residuals(segment: SolvedSegment, constraints: list[Constraint]) -> list[float]:
    """|achieved - specified| per constraint, in physical units, each read at its own
    tau, so no time is formed that could round past t_end."""
    table = segment._view._table
    return [abs(float(_read_table(table, 0, c.tau, c.order)) - c.value) for c in constraints]
