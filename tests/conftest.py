import pytest

from pspb.poly import Polynomial


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # expose the call-phase outcome so the acceptance fixture can print
    # a PASS/FAIL line per criterion
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        item.rep_call = rep


# The tests' oracle (``from conftest import differentiate, horner``): one
# polynomial's formal derivative, coefficient by coefficient, and Horner's rule
# over it, written apart from ``pspb``, which differentiates only in its
# trajectory table (``schemes._build_table``).

def horner(poly: Polynomial, t):
    """Evaluate by Horner's scheme at a float or element-wise on an array."""
    acc = 0.0
    for c in reversed(poly.coefficients):
        acc = acc * t + c
    return acc


def differentiate(poly: Polynomial, k: int) -> Polynomial:
    """k-th formal derivative."""
    coeffs = list(poly.coefficients)
    for _ in range(k):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:] or [0.0]
    return Polynomial(tuple(coeffs))
