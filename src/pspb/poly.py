"""Polynomials over normalized segment time, with derivatives up to jerk.

Coefficients are stored in ascending power over tau in [0, 1]. Keeping
segment time normalized keeps the boundary-value systems well conditioned
even for very short segments. ``schemes._build_table`` is the one
differentiation, for trajectories and polynomial references alike, and
``horner_rows`` the one evaluation kernel: ``schemes._read_table``, which every
read of a trajectory goes through, runs it over a table of derivative rows,
``PolynomialReference`` over one such table's rows as Python floats.
"""

from __future__ import annotations

import inspect  # already loaded by numpy
import math


MAX_DERIVATIVE = 3  # jerk is the highest order the model cares about
_setattr = object.__setattr__  # a record's field setter: one global read per field


def is_order(k) -> bool:
    """A derivative order is an integer (``__index__``, not a bool) in 0..3."""
    return hasattr(k, "__index__") and not isinstance(k, bool) and 0 <= k <= MAX_DERIVATIVE


class _Signature:
    """A record class's ``inspect.signature``; None on an instance, so inspect reads its call."""

    def __get__(self, record, cls):
        return cls._signature if record is None else None


class _Record:
    """A frozen record without ``dataclasses``' six ``exec`` calls per class: annotations are
    fields, class attributes defaults, and ``derived`` fields are set by ``__post_init__``."""

    __signature__ = _Signature()

    def __init_subclass__(cls, derived=()):
        cls._fields = tuple(cls.__annotations__)
        cls.__match_args__ = tuple(name for name in cls._fields if name not in derived)
        cls._defaults = {name: vars(cls)[name] for name in cls.__match_args__ if name in vars(cls)}
        P = inspect.Parameter
        cls._signature = inspect.Signature(
            [P(name, P.POSITIONAL_OR_KEYWORD, annotation=cls.__annotations__[name],
               default=cls._defaults.get(name, P.empty)) for name in cls.__match_args__])

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):  # else every field by position: no binding
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or given.keys() & kwargs or values.keys() != set(names):
                self._signature.bind(*args, **kwargs)  # raises the TypeError a call would
            args = [values[name] for name in names]
        for name, value in zip(names, args):  # as a frozen dataclass does: filling
            _setattr(self, name, value)  # vars(self) instead would slow every read
        self.__post_init__()

    def __post_init__(self):
        """Checks and derived fields, for a subclass to define."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Polynomial(_Record, derived=("degree",)):
    """Real polynomial c0 + c1*t + ... + cn*t^n.

    The degree is structural: trailing zero coefficients do not lower it,
    so a degree-6 solve that happens to return c6 == 0 is still degree 6.
    """

    coefficients: tuple[float, ...]
    degree: int

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "degree", len(coeffs) - 1)


def horner_rows(rows, t):
    """Horner's scheme over coefficients (floats or arrays), highest power
    first. Leading zeros leave +0.0, so zero padding changes no bit.

    The first step, ``0.0 * t + row``, makes a new accumulator of the broadcast
    shape; every later step works on it in place, so no row given is ever written
    (an array accumulator is never one of them) and each step's bits are the same
    as ``acc * t + row``'s. A float or numpy scalar accumulator has nothing to write
    in place, so ``*=`` and ``+=`` rebind it."""
    rows = iter(rows)
    acc = 0.0 * t + next(rows)
    for row in rows:
        acc *= t
        acc += row
    return acc
