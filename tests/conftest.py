"""Shared fixtures: reference parameter triples resolved once per session."""

from fractions import Fraction

import pytest

from dgml.twolevel import MethodParams


def nearest_root(coeffs, lo, hi):
    """The float nearest the one root of a polynomial with a sign change on
    [lo, hi]: bisection in exact rational arithmetic until every point of
    the bracket rounds to the same float."""
    def p(v):
        y = Fraction(0)
        for a in coeffs:
            y = y * v + a
        return y

    lo, hi = Fraction(lo), Fraction(hi)
    below = p(lo) < 0
    assert below != (p(hi) < 0)
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        if (p(mid) < 0) == below:
            lo = mid
        else:
            hi = mid
    return float(lo)


@pytest.fixture(scope="session")
def clustering_triple():
    """Independent reference for the clustering parameters: each quartic's
    root on its bracket, bisected in rational arithmetic and rounded to the
    nearer float."""
    return MethodParams(
        nearest_root((183, -352, 214, -40, -1), 0, 1),
        nearest_root((12, -32, 24, -4, -1), 1, 10),
        nearest_root((4, -8, 8, -8, 3), 0, 1),
    )


@pytest.fixture(scope="session")
def classical_params():
    return MethodParams(8.0 / 9.0, 2.0, 0.5)
