"""The contract every frozen record type of the package keeps: construction, immutability,
repr, equality and hash, pickling and introspection, checked on one valid example each."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pspb
from pspb.metrics import (ContinuityJump, ContinuityReport, SampledSeries,
                          ViaWindowError)
from pspb.poly import Polynomial
from pspb.reference import PolynomialReference, SinusoidReference
from pspb.schemes import SchemeSpec, SolvedSegment, Waypoint, builtin_scheme
from pspb.simulation import THIGH, BodyParams, PDGains, SimState, TrackingResult
from pspb.solver import Constraint

TIMES = np.array([0.0, 0.5, 1.0])
SERIES = SampledSeries(TIMES, np.array([0.0, 1.0, 0.5]), 0, "rad")
JUMP = ContinuityJump(0.25, 2, 0.5, True)

# (class, one valid example's arguments, its init fields in order, their defaults,
# fields set by __post_init__ rather than the caller)
RECORDS = [
    (Polynomial, ((1.0, -2.0, 0.5),), "coefficients", {}, ("degree",)),
    (Waypoint, (0.2, 10.0, -1.0, None, 3.0), "time position velocity acceleration jerk",
     {"velocity": None, "acceleration": None, "jerk": None}, ()),
    (SchemeSpec, ("434-1", builtin_scheme("434-1").segment_constraints),
     "name segment_constraints", {}, ()),
    (SolvedSegment, (Polynomial((1.0, 2.0)), 0.0, 0.5, 4.0, ((0, 0.0), (0, 1.0))),
     "polynomial t_start t_end condition_estimate pins", {"pins": ()}, ()),
    (SampledSeries, (TIMES, np.array([1.0, 2.0, 4.0]), 1, "deg/s^1"), "times values order unit",
     {"unit": ""}, ()),
    (ViaWindowError, (0.25, 0.01, (0.24, 0.26), False), "via_time rmse window clipped", {}, ()),
    (ContinuityJump, (0.25, 2, 0.5, True), "via_time order jump constrained_both_sides", {}, ()),
    (ContinuityReport, ((JUMP,),), "jumps", {}, ()),
    (SinusoidReference, (20.0, 2.0), "amplitude period", {"amplitude": 30.0, "period": 1.0}, ()),
    (PolynomialReference, ((1.0, 2.0),), "coefficients", {}, ()),
    (BodyParams, (10.0, 0.5, 0.2), "mass length com", {}, ()),
    (SimState, (0.1, -0.2), "theta omega", {}, ()),
    (PDGains, (400.0, 40.0), "kp kd", {"kp": 500.0, "kd": 50.0}, ()),
    (TrackingResult, (SERIES, SERIES, SERIES, 0.01, 0.02),
     "angle velocity reference_angle rmse ade", {}, ()),
    (Constraint, (1, 0.5, 2.0), "order tau value", {}, ()),
]
CASES = pytest.mark.parametrize("cls, args, names, defaults, derived", RECORDS,
                                ids=[entry[0].__name__ for entry in RECORDS])


def _values(record, names, derived):
    return tuple(getattr(record, name) for name in (*names.split(), *derived))


def _hash_or_none(values):
    try:
        return hash(values)
    except TypeError:  # a field holds an array
        return None


@CASES
def test_a_record_builds_by_position_by_keyword_and_with_defaults(cls, args, names, defaults,
                                                                  derived):
    names = names.split()
    record = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    assert repr(by_keyword) == repr(record)
    # Fields are set in order and nothing else: every instance shares its attribute layout.
    assert list(vars(record)) == [*names, *derived]
    required = [arg for name, arg in zip(names, args) if name not in defaults]
    with_defaults = cls(*required)
    for name, default in defaults.items():
        assert getattr(with_defaults, name) == default


@CASES
def test_a_record_refuses_a_missing_unknown_or_repeated_argument(cls, args, names, defaults,
                                                                 derived):
    names = names.split()
    if len(defaults) < len(names):
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*args, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, args[0])
    for name in derived:
        with pytest.raises(TypeError):
            cls(*args, **{name: 0})


@CASES
def test_a_record_is_frozen(cls, args, names, defaults, derived):
    record = cls(*args)
    for name in (*names.split(), *derived, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, args[0])
    for name in (*names.split(), *derived):
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record, names, derived) == _values(cls(*args), names, derived)


@CASES
def test_a_record_reprs_every_field_in_order(cls, args, names, defaults, derived):
    record = cls(*args)
    fields = [*names.split(), *derived]
    expected = f"{cls.__qualname__}(" + ", ".join(
        f"{name}={getattr(record, name)!r}" for name in fields) + ")"
    assert repr(record) == expected


@CASES
def test_a_record_compares_and_hashes_by_class_and_fields(cls, args, names, defaults,
                                                         derived):
    record, twin = cls(*args), cls(*args)
    values = _values(record, names, derived)
    assert record == twin and not record != twin
    assert record != values and values != record  # another class, the same values
    expected = _hash_or_none(values)
    if expected is None:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected


def test_records_of_two_classes_with_the_same_values_differ():
    assert SimState(1.0, 2.0) != PDGains(1.0, 2.0)
    assert SinusoidReference(1.0, 2.0) != SimState(1.0, 2.0)
    assert SimState(1.0, 2.0) != SimState(1.0, 3.0)


@CASES
def test_a_record_pickles_and_copies(cls, args, names, defaults, derived):
    record = cls(*args)
    for restored in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
        assert type(restored) is cls and repr(restored) == repr(record)
        if _hash_or_none(_values(record, names, derived)) is not None:
            assert restored == record


@CASES
def test_a_record_introspects_its_fields(cls, args, names, defaults, derived):
    names = names.split()
    assert cls.__match_args__ == tuple(names)
    params = inspect.signature(cls).parameters
    assert list(params) == names
    assert {name: p.default for name, p in params.items()
            if p.default is not inspect.Parameter.empty} == defaults


@pytest.mark.parametrize("cls", [entry[0] for entry in RECORDS], ids=lambda cls: cls.__name__)
def test_a_record_has_its_own_docstring(cls):
    # help(cls) reads it; it is not made up from the signature.
    assert cls.__dict__.get("__doc__") and not cls.__doc__.startswith(f"{cls.__name__}(")


def test_a_callable_record_keeps_its_call_signature_and_cached_properties():
    assert list(inspect.signature(SinusoidReference()).parameters) == ["t", "order"]
    assert list(inspect.signature(PolynomialReference((1.0,))).parameters) == ["t", "order"]
    ref = PolynomialReference((1.0, 2.0, 3.0))
    assert ref(2.0, 1) == 14.0 and "_rows" in vars(ref)
    assert ref == PolynomialReference((1.0, 2.0, 3.0))
    mass, length, com = THIGH.mass, THIGH.length, THIGH.com
    assert THIGH.inertia_about_joint == mass * com**2 + mass * length**2 / 12


def test_importing_the_cli_runs_no_source_text_through_exec():
    # dataclasses compiles six methods per class from source text with exec, and
    # namedtuple one; importing the package does neither, so every start skips them.
    code = (
        "import builtins, numpy\n"
        "calls, real = [], builtins.exec\n"
        "def counting(source, *args, **kwargs):\n"
        "    if isinstance(source, str):\n"
        "        calls.append(source.strip().splitlines()[0])\n"
        "    return real(source, *args, **kwargs)\n"
        "builtins.exec = counting\n"
        "import pspb.cli\n"
        "builtins.exec = real\n"
        "print(len(calls), calls[:3])\n"
    )
    src = Path(pspb.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split()[0] == "0", run.stdout
