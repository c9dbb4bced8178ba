import math

import pytest
from hypothesis import given, strategies as st

from ddestab.rootfind import BracketError, solve_bracketed


def test_linear_root():
    res = solve_bracketed(lambda x: 2.0 * x - 1.0, 0.0, 1.0)
    assert abs(res.root - 0.5) < 1e-14
    assert abs(res.f_root) < 1e-14


def test_cubic_root():
    res = solve_bracketed(lambda x: x**3 - 2.0, 1.0, 2.0)
    assert abs(res.root - 2.0 ** (1.0 / 3.0)) < 1e-13


def test_transcendental_root():
    res = solve_bracketed(lambda x: math.cos(x) - x, 0.0, 1.0)
    assert abs(math.cos(res.root) - res.root) < 1e-14


def test_endpoint_zero_lo():
    res = solve_bracketed(lambda x: x, 0.0, 1.0)
    assert res.root == 0.0 and res.f_root == 0.0


def test_endpoint_zero_hi():
    res = solve_bracketed(lambda x: x - 1.0, 0.0, 1.0)
    assert res.root == 1.0 and res.f_root == 0.0


def test_no_sign_change_raises():
    with pytest.raises(BracketError):
        solve_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


def test_steep_flat_mix():
    # nearly flat on the left, steep near the root: bisection fallback must rescue
    res = solve_bracketed(lambda x: math.expm1(40.0 * (x - 0.99)), 0.0, 1.0)
    assert abs(res.root - 0.99) < 1e-12


@given(
    r=st.floats(-0.9, 0.9),
    c=st.floats(0.2, 5.0),
)
def test_random_scaled_roots(r, c):
    res = solve_bracketed(lambda x: c * (x - r) ** 3 + 0.1 * (x - r), -1.0, 1.0)
    assert abs(res.root - r) < 1e-7
    lo, hi = res.bracket
    assert lo <= res.root <= hi
