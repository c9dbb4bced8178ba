import math

import numpy as np
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


def _cubic(x, r, c, d, e):
    # c (x - r)^3 + d (x - r) + e, written with products so floats and arrays
    # round alike
    u = x - r
    return c * u * u * u + d * u + e


def test_lanes_equal_scalar_solves():
    rng = np.random.default_rng(2024)
    n = 64
    lo = rng.uniform(-2.0, -0.5, n)
    hi = rng.uniform(0.5, 2.0, n)
    r = rng.uniform(-0.45, 0.45, n)
    c = rng.uniform(0.2, 5.0, n)
    d = rng.uniform(0.01, 1.0, n)
    e = rng.uniform(-0.01, 0.01, n)  # keeps most roots off the float grid
    e[:3] = 0.0
    r[0] = lo[0]  # f(lo) == 0
    r[1] = hi[1]  # f(hi) == 0
    lo[2], hi[2], r[2] = -1.0, 1.0, 0.0  # odd f: the first secant step lands on 0 exactly
    lanes = solve_bracketed(lambda x: _cubic(x, r, c, d, e), lo, hi)
    assert type(lanes.iterations) is int
    assert lanes.iterations == int(lanes.lane_iterations.sum())
    stopped_by_width = 0
    for i in range(n):
        args = (float(r[i]), float(c[i]), float(d[i]), float(e[i]))
        one = solve_bracketed(lambda x: _cubic(x, *args), float(lo[i]), float(hi[i]))
        assert one.root == lanes.root[i]
        assert math.copysign(1.0, one.f_root) == math.copysign(1.0, lanes.f_root[i])
        assert one.f_root == lanes.f_root[i]
        assert one.bracket == (lanes.bracket[0][i], lanes.bracket[1][i])
        assert one.iterations == lanes.lane_iterations[i]
        a, b = one.bracket
        stopped_by_width += one.f_root != 0.0 and b - a <= 1e-15 * max(1.0, abs(a), abs(b))
    assert lanes.root[0] == lo[0] and lanes.lane_iterations[0] == 0
    assert lanes.root[1] == hi[1] and lanes.lane_iterations[1] == 0
    assert lanes.root[2] == 0.0 and lanes.f_root[2] == 0.0 and lanes.lane_iterations[2] == 1
    assert stopped_by_width > 0


def test_lanes_without_sign_change_raise():
    lo = np.array([-1.0, -1.0, -1.0])
    shift = np.array([0.0, 0.0, 2.0])  # the last lane has no root in [-1, 1]
    with pytest.raises(BracketError):
        solve_bracketed(lambda x: x * x * x + shift, lo, 1.0)
