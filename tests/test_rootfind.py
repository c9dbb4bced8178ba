import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddestab.rootfind import _SCALAR_TAIL, BracketError, solve_bracketed


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


def _cubic_family():
    """Brackets and (r, c, d, e) columns of 64 seeded cubic lanes."""
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
    return lo, hi, (r, c, d, e)


def _scalar_solves_match(lanes, lo, hi, params):
    """Each lane's scalar solve, checked bitwise against the lane's outcome."""
    ones = []
    for i in range(lo.size):
        args = tuple(float(v[i]) for v in params)
        one = solve_bracketed(_cubic, float(lo[i]), float(hi[i]), args=args)
        assert one.root == lanes.root[i]
        assert math.copysign(1.0, one.f_root) == math.copysign(1.0, lanes.f_root[i])
        assert one.f_root == lanes.f_root[i]
        assert one.bracket == (lanes.bracket[0][i], lanes.bracket[1][i])
        assert one.iterations == lanes.lane_iterations[i]
        ones.append(one)
    return ones


def test_lanes_equal_scalar_solves():
    lo, hi, params = _cubic_family()
    lanes = solve_bracketed(_cubic, lo, hi, args=params)
    assert type(lanes.iterations) is int
    assert lanes.iterations == int(lanes.lane_iterations.sum())
    stopped_by_width = 0
    for one in _scalar_solves_match(lanes, lo, hi, params):
        a, b = one.bracket
        stopped_by_width += one.f_root != 0.0 and b - a <= 1e-15 * max(1.0, abs(a), abs(b))
    assert lanes.root[0] == lo[0] and lanes.lane_iterations[0] == 0
    assert lanes.root[1] == hi[1] and lanes.lane_iterations[1] == 0
    assert lanes.root[2] == 0.0 and lanes.f_root[2] == 0.0 and lanes.lane_iterations[2] == 1
    assert stopped_by_width > 0


def test_stopped_lanes_are_not_evaluated():
    # a lane-id column rides in args: each lane must reach f exactly as often
    # as its scalar solve calls f, and every call gets args cut to x's lanes;
    # a lane of the scalar tail arrives as one float x with a scalar lane id
    lo, hi, params = _cubic_family()
    n = lo.size
    calls = np.zeros(n, dtype=np.int64)

    def counted(x, lane, *cols):
        ids, xs, *cut = (np.atleast_1d(v) for v in (lane, x, *cols))
        assert ids.shape == xs.shape
        assert np.unique(ids).size == ids.size
        for col, full in zip(cut, params):
            assert np.array_equal(col, full[ids])
        np.add.at(calls, ids, 1)
        return _cubic(x, *cols)

    solve_bracketed(counted, lo, hi, args=(np.arange(n), *params))
    for i in range(n):
        scalar_calls = []

        def one(x, *cols):
            scalar_calls.append(x)
            return _cubic(x, *cols)

        solve_bracketed(one, float(lo[i]), float(hi[i]), args=tuple(float(v[i]) for v in params))
        assert calls[i] == len(scalar_calls), i
    assert calls.min() < calls.max()


def test_last_lanes_finish_on_the_scalar_loop():
    # 32 seeded cubics with roots on multiples of 1/64: those with e = 0 stop
    # on an exact zero, the others on the width test; the slowest lanes reach
    # f one at a time, as floats, and every lane ends bitwise as its scalar
    # solve
    rng = np.random.default_rng(1)
    n = 32
    lo = rng.uniform(-2.0, -0.5, n)
    hi = rng.uniform(0.5, 2.0, n)
    r = np.round(rng.uniform(-0.45, 0.45, n) * 64) / 64
    c = rng.uniform(0.2, 5.0, n)
    d = 10.0 ** rng.uniform(-6.0, 0.0, n)
    e = np.zeros(n)
    e[1::2] = rng.uniform(-1e-3, 1e-3, n // 2)
    tail = set()

    def f(x, lane, *cols):
        if type(x) is float:
            tail.add(lane)
        return _cubic(x, *cols)

    lanes = solve_bracketed(f, lo, hi, args=(np.arange(n), r, c, d, e))
    assert 0 < len(tail) <= _SCALAR_TAIL
    ones = _scalar_solves_match(lanes, lo, hi, (r, c, d, e))
    assert {ones[i].f_root == 0.0 for i in tail} == {True, False}


def test_lanes_without_sign_change_raise():
    lo = np.array([-1.0, -1.0, -1.0])
    shift = np.array([0.0, 0.0, 2.0])  # the last lane has no root in [-1, 1]
    with pytest.raises(BracketError):
        solve_bracketed(lambda x, s: x * x * x + s, lo, 1.0, args=(shift,))


@pytest.mark.parametrize("scale", [1e-300, 1e-15, 1e-8])
def test_tiny_brackets_are_solved_to_relative_width(scale):
    # an absolute width of 1e-15 would stop these solves at once, on a
    # bracket end; relative to the bracket they converge, in lanes (enough
    # for the lockstep loop) as in one solve
    def f(x, c):
        d = x / c - 1.0
        return d + d**3

    roots = scale * np.linspace(0.1, 0.9, 2 * _SCALAR_TAIL + 5)
    lanes = solve_bracketed(f, np.zeros(roots.size), np.full(roots.size, scale), args=(roots,))
    assert np.all(np.abs(lanes.root - roots) <= 1e-14 * roots)
    for c in roots[:3].tolist():
        one = solve_bracketed(f, 0.0, scale, args=(c,))
        assert abs(one.root - c) <= 1e-14 * c
