import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddestab import rootfind
from ddestab.rootfind import _MAX_ITER, _SCALAR_TAIL, _TINY, _XTOL, BracketError, solve_bracketed


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


# the smallest normal double: below |x| = _TINY the stop width is relative
# to |x|, so a bracket of [-1, 1] around this root closes to a few ulps of it
_EDGE_ROOT = 2.2250738585072014e-308


def _edge_cubic(x):
    # test_random_scaled_roots' cubic at r = _EDGE_ROOT, c = 1
    return 1.0 * (x - _EDGE_ROOT) ** 3 + 0.1 * (x - _EDGE_ROOT)


def test_edge_root_meets_the_stop_rule(monkeypatch):
    # the solve encloses the root within its stop width, or hits f = 0,
    # well before _MAX_ITER, and is not flagged; with the limit below its
    # iteration count it returns at the limit, flagged exhausted
    res = solve_bracketed(_edge_cubic, -1.0, 1.0)
    a, b = res.bracket
    assert res.exhausted is False and res.iterations < _MAX_ITER
    assert res.f_root == 0.0 or b - a <= _stop_width(a, b)
    assert abs(res.root - _EDGE_ROOT) <= 1e-15 * _EDGE_ROOT
    monkeypatch.setattr(rootfind, "_MAX_ITER", res.iterations - 1)
    cut = solve_bracketed(_edge_cubic, -1.0, 1.0)
    assert cut.exhausted is True and cut.iterations == res.iterations - 1


@pytest.mark.parametrize("edge_lanes", [1, 2 * _SCALAR_TAIL + 1])
def test_lanes_that_reach_the_iteration_limit_are_flagged(edge_lanes, monkeypatch):
    # edge-root lanes take 23 iterations, the others at most 12.  Under a
    # limit of 16, one edge lane reaches it on the scalar tail, and more
    # than _SCALAR_TAIL of them reach it in lockstep; either way exactly
    # the edge lanes are flagged, each as its scalar solve
    n = 2 * _SCALAR_TAIL + 5
    r = np.linspace(-0.45, 0.45, n)
    r[:edge_lanes] = _EDGE_ROOT
    params = (r, np.ones(n), np.full(n, 0.1), np.zeros(n))
    lo, hi = np.full(n, -1.0), np.ones(n)
    full = solve_bracketed(_cubic, lo, hi, args=params)
    assert not full.exhausted.any()
    assert full.lane_iterations[:edge_lanes].min() > 16 >= full.lane_iterations[edge_lanes:].max()
    monkeypatch.setattr(rootfind, "_MAX_ITER", 16)
    lanes = solve_bracketed(_cubic, lo, hi, args=params)
    assert lanes.exhausted.tolist() == (r == _EDGE_ROOT).tolist()
    for i, one in enumerate(_scalar_solves_match(lanes, lo, hi, params)):
        assert one.exhausted == lanes.exhausted[i], i


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


def test_known_end_values_are_not_evaluated_again():
    # with f at both bracket ends given, the lane solve evaluates neither
    # end and ends bitwise as the solve that evaluates them, the lanes with
    # a root at an end included
    lo, hi, params = _cubic_family()
    points = []

    def counted(x, *cols):
        points.append(np.atleast_1d(x).size)
        return _cubic(x, *cols)

    full = solve_bracketed(counted, lo, hi, args=params)
    evaluated = sum(points)
    points.clear()
    ends = (_cubic(lo, *params), _cubic(hi, *params))
    given = solve_bracketed(counted, lo, hi, args=params, ends=ends)
    # f(hi) is skipped on the lanes f(lo) = 0 does not stop
    assert sum(points) == evaluated - lo.size - int(np.sum(ends[0] != 0.0))
    for got, want in zip(
        (given.root, given.f_root, *given.bracket, given.lane_iterations),
        (full.root, full.f_root, *full.bracket, full.lane_iterations),
    ):
        assert got.tobytes() == want.tobytes()


def _cubic_family_inside():
    """_cubic_family without its lanes that have a root at an end or at the
    first step, so none stops before the second iteration."""
    lo, hi, params = _cubic_family()
    return lo[3:], hi[3:], tuple(v[3:] for v in params)


def test_lane_solve_leaves_the_callers_arrays_unchanged():
    # the lane solve updates its state in place: the caller's brackets and
    # end values keep every bit
    lo, hi, params = _cubic_family_inside()
    ends = (_cubic(lo, *params), _cubic(hi, *params))
    before = [v.tobytes() for v in (lo, hi, *ends)]
    solve_bracketed(_cubic, lo, hi, args=params, ends=ends)
    assert [v.tobytes() for v in (lo, hi, *ends)] == before


def test_lane_solve_writes_into_no_array_f_gives():
    # f may keep the arrays of values it returns: the solve's in-place
    # updates leave each of them as f gave it
    lo, hi, params = _cubic_family_inside()
    given = []

    def kept(x, *cols):
        v = _cubic(x, *cols)
        if type(v) is np.ndarray:  # the scalar tail gets floats
            given.append((v, v.tobytes()))
        return v

    solve_bracketed(kept, lo, hi, args=params)
    assert len(given) > 2
    assert all(v.tobytes() == b for v, b in given)


def test_last_lanes_finish_on_the_scalar_loop():
    # 32 seeded cubics with roots on multiples of 1/64: those with e = 0 stop
    # on an exact zero, the others on the width test; the slowest lanes reach
    # f one at a time, as floats, and every lane ends bitwise as its scalar
    # solve.  e scales with d, so a small d makes a lane of either kind slow
    rng = np.random.default_rng(1)
    n = 32
    lo = rng.uniform(-2.0, -0.5, n)
    hi = rng.uniform(0.5, 2.0, n)
    r = np.round(rng.uniform(-0.45, 0.45, n) * 64) / 64
    c = rng.uniform(0.2, 5.0, n)
    d = 10.0 ** rng.uniform(-6.0, 0.0, n)
    e = np.zeros(n)
    e[1::2] = d[1::2] * rng.uniform(-1e-3, 1e-3, n // 2)
    tail = set()

    def f(x, lane, *cols):
        if type(x) is float:
            tail.add(lane)
        return _cubic(x, *cols)

    lanes = solve_bracketed(f, lo, hi, args=(np.arange(n), r, c, d, e))
    assert 0 < len(tail) <= _SCALAR_TAIL
    ones = _scalar_solves_match(lanes, lo, hi, (r, c, d, e))
    assert {ones[i].f_root == 0.0 for i in tail} == {True, False}


def test_settled_lanes_stop_inside_their_enclosure():
    # a predicate that stops every third lane once its enclosure is narrower
    # than 1e-6: the other lanes end bitwise as their scalar solves, and a
    # stopped lane's enclosure holds the root its scalar solve returns.  A
    # lane stops at the top of an iteration, so it has evaluated f fewer
    # times than its scalar solve, which may end in that iteration on f = 0
    lo, hi, params = _cubic_family()
    seen = []
    calls = np.zeros(lo.size, dtype=np.int64)

    def counted(x, lane, *cols):
        np.add.at(calls, lane, 1)
        return _cubic(x, *cols)

    def settled(lanes, enc_lo, enc_hi):
        assert np.unique(lanes).size == lanes.size and np.all(enc_lo <= enc_hi)
        seen.append(lanes)
        return (lanes % 3 == 0) & (enc_hi - enc_lo < 1e-6)

    lanes = solve_bracketed(counted, lo, hi, args=(np.arange(lo.size), *params), settled=settled)
    assert seen and 0 < lanes.settled.sum() < lo.size
    assert lanes.iterations == int(lanes.lane_iterations.sum())
    for i in range(lo.size):
        args = tuple(float(v[i]) for v in params)
        scalar_calls = []

        def one_counted(x, *cols):
            scalar_calls.append(x)
            return _cubic(x, *cols)

        one = solve_bracketed(one_counted, float(lo[i]), float(hi[i]), args=args)
        if not lanes.settled[i]:
            assert one.root == lanes.root[i]
            assert one.f_root == lanes.f_root[i]
            assert one.bracket == (lanes.bracket[0][i], lanes.bracket[1][i])
            assert one.iterations == lanes.lane_iterations[i]
            assert calls[i] == len(scalar_calls)
            continue
        assert i % 3 == 0 and lanes.lane_iterations[i] <= one.iterations
        assert calls[i] < len(scalar_calls)
        root = lanes.root[i]
        assert min(lanes.bracket[0][i], root) <= one.root <= max(lanes.bracket[1][i], root)
    # without a predicate nothing is flagged, and a scalar solve ignores it
    assert solve_bracketed(_cubic, lo, hi, args=params).settled is None
    never = solve_bracketed(_cubic, -1.0, 1.0, args=(0.1, 1.0, 1.0, 0.0), settled=settled)
    assert never == solve_bracketed(_cubic, -1.0, 1.0, args=(0.1, 1.0, 1.0, 0.0))


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


def _stop_width(a, b):
    scale = max(abs(a), abs(b))
    return _XTOL * (scale if scale < _TINY else max(1.0, scale))


def _steps_to_stop(f, lo, hi, args, step):
    """Iterations, counted as solve_bracketed counts them, of a bracketing
    loop with its stop rule that takes each point from step(a, b, fa, fb)."""
    a, b, fa, fb = lo, hi, f(lo, *args), f(hi, *args)
    for it in range(1, _MAX_ITER + 1):
        if b - a <= _stop_width(a, b):
            return it
        x = step(a, b, fa, fb)
        fx = f(x, *args)
        if fx == 0.0:
            return it
        if (fx > 0.0) == (fa > 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return _MAX_ITER


def _bisection(a, b, fa, fb):
    return 0.5 * (a + b)


def _false_position(a, b, fa, fb):
    return a - fa * (b - a) / (fb - fa)


def _power10(x, c):
    # x**10 - c as products, so floats and arrays round alike
    x2 = x * x
    x4 = x2 * x2
    return x4 * x4 * x2 - c


def _exp_shift(x, c):
    # exp(x) - c with libm on every entry, as on one float
    if type(x) is float:
        return math.exp(x) - c
    return np.array([math.exp(v) for v in x.tolist()]) - c


def _relative(x, c):
    # the family of test_tiny_brackets_are_solved_to_relative_width, as products
    d = x / c - 1.0
    return d + d * d * d


def _stall_family(case, mp):
    """f, its bracket, a column of constants c and each lane's exact root in
    mp's precision."""
    rng = np.random.default_rng(30)
    n = 2 * _SCALAR_TAIL + 5
    if case == "power":
        c = np.concatenate([[0.5], rng.uniform(0.01, 50.0, n - 1)])
        return _power10, 0.0, 1.5, c, [mp.root(mp.mpf(v), 10) for v in c.tolist()]
    if case == "exp":
        c = np.concatenate([[1e-3], 10.0 ** rng.uniform(-8.0, 2.0, n - 1)])
        return _exp_shift, -20.0, 5.0, c, [mp.log(mp.mpf(v)) for v in c.tolist()]
    c = 1e-300 * np.concatenate([np.linspace(0.1, 0.9, n), rng.uniform(0.1, 0.9, n)])
    return _relative, 0.0, 1e-300, c, [mp.mpf(v) for v in c.tolist()]


@pytest.mark.parametrize("case", ["power", "exp", "relative"])
def test_false_position_stalls_are_solved(case):
    # convex on the whole bracket, so plain false position keeps one end and
    # runs to _MAX_ITER on some lanes; the solver meets its stop rule with
    # the root inside the final bracket, in at most three times bisection's
    # iterations and, over the family, under half of them, and every lane
    # ends bitwise as its scalar solve
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        f, lo, hi, c, exact = _stall_family(case, mp)
    lanes = solve_bracketed(f, np.full(c.size, lo), np.full(c.size, hi), args=(c,))
    plain, bisections = [], []
    for i, ci in enumerate(c.tolist()):
        one = solve_bracketed(f, lo, hi, args=(ci,))
        assert one.root == lanes.root[i] and one.f_root == lanes.f_root[i]
        assert one.bracket == (lanes.bracket[0][i], lanes.bracket[1][i])
        assert one.iterations == lanes.lane_iterations[i]
        a, b = one.bracket
        assert one.iterations < _MAX_ITER
        assert b - a <= _stop_width(a, b)
        # f as computed changes sign on the bracket, and the exact root lies
        # in it up to f's rounding, within an ulp of its ends
        assert one.f_root == 0.0 or (f(a, ci) > 0.0) != (f(b, ci) > 0.0)
        assert math.nextafter(a, -math.inf) <= exact[i] <= math.nextafter(b, math.inf), i
        bisections.append(_steps_to_stop(f, lo, hi, (ci,), _bisection))
        assert one.iterations <= 3 * bisections[-1], i
        plain.append(_steps_to_stop(f, lo, hi, (ci,), _false_position))
    assert 2 * lanes.iterations < sum(bisections)
    assert max(plain) == _MAX_ITER


def test_root_next_to_an_end_is_enclosed_at_once():
    # lo lies within an ulp below the root of 3x - c, so the interpolant
    # rounds onto lo; the interior step evaluates half the stop width inside
    # lo instead, which crosses the root and leaves a bracket under the
    # stop width at the top of iteration 2
    rng = np.random.default_rng(31)
    for c in rng.uniform(0.5, 2.0, 20).tolist():
        lo = c / 3.0
        while 3.0 * lo - c >= 0.0:
            lo = math.nextafter(lo, -math.inf)
        res = solve_bracketed(lambda x: 3.0 * x - c, lo, lo + 1.0)
        a, b = res.bracket
        assert res.iterations <= 2 and a <= c / 3.0 <= b and b - a <= _stop_width(a, b), c
