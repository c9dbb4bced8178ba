import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

mp = pytest.importorskip("mpmath")

from ddestab import verify
from ddestab.ddouble import (
    DD,
    DOUBLE_DOUBLE,
    FLOAT,
    FloatBackend,
    _libm,
    _per_run,
    dd,
    dd_exp,
    dd_log,
    dd_log1p,
    dd_sqrt,
)

mp.mp.dps = 40


def _as_mp(x: DD):
    return mp.mpf(x.hi) + mp.mpf(x.lo)


def _ulp_gap(x: DD, ref) -> float:
    # error relative to the double-double resolution (~1e-32 relative);
    # near a zero of the function only absolute accuracy is meaningful
    err = abs(_as_mp(x) - ref)
    if abs(ref) > 1:
        err = err / abs(ref)
    return float(err)


_signed_mag = st.builds(
    lambda m, s: m * s, st.floats(min_value=1e-3, max_value=1e3), st.sampled_from([-1.0, 1.0])
)
# bounded away from zero so products and quotients stay in normal float range
finite = st.one_of(st.just(0.0), _signed_mag)
nonzero = _signed_mag


@given(x=finite, y=finite)
def test_add_matches_mpmath(x, y):
    assert _ulp_gap(dd(x) + dd(y), mp.mpf(x) + mp.mpf(y)) < 1e-30


@given(x=finite, y=finite)
def test_sub_matches_mpmath(x, y):
    assert _ulp_gap(dd(x) - dd(y), mp.mpf(x) - mp.mpf(y)) < 1e-30


@given(x=finite, y=finite)
def test_mul_matches_mpmath(x, y):
    assert _ulp_gap(dd(x) * dd(y), mp.mpf(x) * mp.mpf(y)) < 1e-30


@given(x=finite, y=nonzero)
def test_div_matches_mpmath(x, y):
    assert _ulp_gap(dd(x) / dd(y), mp.mpf(x) / mp.mpf(y)) < 1e-30


@given(x=st.floats(min_value=1e-8, max_value=1e8))
def test_sqrt_matches_mpmath(x):
    assert _ulp_gap(dd_sqrt(dd(x)), mp.sqrt(mp.mpf(x))) < 1e-30


@settings(max_examples=60)
@given(x=st.floats(min_value=-30.0, max_value=30.0))
def test_exp_matches_mpmath(x):
    assert _ulp_gap(dd_exp(dd(x)), mp.exp(mp.mpf(x))) < 1e-28


@settings(max_examples=60)
@given(x=st.floats(min_value=1e-6, max_value=1e6))
def test_log_matches_mpmath(x):
    assert _ulp_gap(dd_log(dd(x)), mp.log(mp.mpf(x))) < 1e-28


@settings(max_examples=60)
@given(x=st.floats(min_value=-0.999, max_value=10.0))
def test_log1p_matches_mpmath(x):
    ref = mp.log1p(mp.mpf(x))
    got = dd_log1p(dd(x))
    if ref == 0:
        assert abs(float(got)) < 1e-30
    else:
        assert _ulp_gap(got, ref) < 1e-28


def test_log_exp_roundtrip():
    x = dd(0.7381923)
    back = dd_log(dd_exp(x))
    assert abs(float(back - x)) < 1e-29


def test_cancellation_showcase():
    # (1 + 1e-17) - 1 vanishes in float but survives in double-double
    one_plus = dd(1.0) + dd(1e-17)
    assert float(one_plus - dd(1.0)) == pytest.approx(1e-17, rel=1e-15)


def test_mixed_scalar_ops():
    x = dd(3.0)
    assert float(x + 1) == 4.0
    assert float(1 + x) == 4.0
    assert float(x * 2) == 6.0
    assert float(2 / x) == pytest.approx(2.0 / 3.0, rel=1e-16)
    assert float(1 - x) == -2.0


def test_backend_parity():
    for mx in (FLOAT, DOUBLE_DOUBLE):
        y = mx.exp(mx.num(0.5))
        assert float(y) == pytest.approx(math.exp(0.5), rel=1e-15)
        y = mx.log(mx.num(2.0))
        assert float(y) == pytest.approx(math.log(2.0), rel=1e-15)
        y = mx.log1p(mx.num(-0.2))
        assert float(y) == pytest.approx(math.log1p(-0.2), rel=1e-15)
        y = mx.sqrt(mx.num(2.0))
        assert float(y) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert FLOAT.name == "float"
    assert DOUBLE_DOUBLE.name == "dd"


# ---------------------------------------------------------------------------
# lanes: every lane bitwise the scalar double-double


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def _assert_lanes_match(fn, *lanes: DD):
    got = fn(*lanes)
    for i in range(lanes[0].hi.size):
        want = fn(*(DD(v.hi[i], v.lo[i]) for v in lanes))
        assert (_bits(got.hi[i]), _bits(got.lo[i])) == (_bits(want.hi), _bits(want.lo)), i
        assert _bits(DOUBLE_DOUBLE.value(got)[i]) == _bits(float(want))


def _seeded_lanes(seed: int, lo: float, hi: float, extra=()) -> DD:
    # dividing by 7 gives every lane a nonzero low word
    x = np.random.default_rng(seed).uniform(lo, hi, 256)
    lanes = dd(x) / 7.0
    edge = np.array(extra, dtype=float)
    return DD(np.concatenate([lanes.hi, edge]), np.concatenate([lanes.lo, np.zeros_like(edge)]))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
def test_lane_arithmetic_matches_scalar(op):
    x = _seeded_lanes(1, -50.0, 50.0)
    y = _seeded_lanes(2, 0.5, 30.0)
    _assert_lanes_match(lambda u, v: getattr(u, f"__{op}__")(v), x, y)
    # a plain float or an array on either side
    _assert_lanes_match(lambda u: getattr(u, f"__{op}__")(3.25), x)
    _assert_lanes_match(lambda u: getattr(u, f"__r{op}__")(1.5), y)


def test_lane_exp_matches_scalar():
    # below -709 the scalar form returns 0; a lane with a half-way quotient
    # checks that rint rounds as round does
    edge = [-709.5, -1e4, 0.0, -0.0, 709.0, -0.5 * 6.931471805599453e-01]
    _assert_lanes_match(dd_exp, _seeded_lanes(3, -40.0, 40.0, edge))


def test_lane_log_matches_scalar():
    edge = [1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0), 1e-300, 1e300]
    _assert_lanes_match(dd_log, _seeded_lanes(4, 1e-3, 1e3, edge))


def test_lane_log1p_matches_scalar():
    edge = [1e-300, -1e-300, 1e-17, 0.0, -0.999]
    _assert_lanes_match(dd_log1p, _seeded_lanes(5, -0.9, 20.0, edge))


def test_lane_sqrt_matches_scalar():
    edge = [0.0, -0.0, 5e-324, 1e300]
    _assert_lanes_match(dd_sqrt, _seeded_lanes(6, 1e-6, 1e6, edge))


@pytest.mark.parametrize(
    "fn, bad, error",
    [
        (dd_exp, 709.5, OverflowError),
        (dd_log, 0.0, ValueError),
        (dd_log, -1.0, ValueError),
        (dd_log1p, -1.0, ValueError),
        (dd_sqrt, -1e-300, ValueError),
    ],
)
def test_one_bad_lane_raises(fn, bad, error):
    with pytest.raises(error):
        fn(dd(bad))
    with pytest.raises(error):
        fn(dd(np.array([0.5, 2.0, bad, 3.0])))


def test_float_lanes_use_libm():
    # np.exp, np.log and np.log1p differ from libm in the last bit on some
    # arguments, so the float backend calls libm per lane
    rng = np.random.default_rng(7)
    cases = [
        (FLOAT.exp, math.exp, rng.uniform(-5.0, 5.0, 4096)),
        (FLOAT.log, math.log, rng.uniform(0.01, 10.0, 4096)),
        (FLOAT.log1p, math.log1p, rng.uniform(-0.5, 5.0, 4096)),
        (FLOAT.sqrt, math.sqrt, rng.uniform(0.0, 10.0, 4096)),
    ]
    for lane_fn, libm_fn, x in cases:
        got = lane_fn(x)
        assert [_bits(v) for v in got] == [_bits(libm_fn(v)) for v in x.tolist()]
    with pytest.raises(ValueError):
        FLOAT.sqrt(np.array([1.0, -1.0]))


def _nan(payload: int) -> float:
    return float(np.array([0x7FF8000000000000 | payload]).view(np.float64)[0])


_RUNS = np.repeat(np.random.default_rng(3).uniform(0.1, 5.0, 40), np.arange(1, 41) * 7)
_LIBM_CASES = {
    "long runs": _RUNS,
    "signed zeros": np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0]),
    "nan runs": np.array([_nan(0), _nan(0), 1.5, _nan(1), _nan(1), _nan(2), 1.5, 1.5]),
    "single entry": np.array([0.75]),
    "empty": np.array([]),
    "empty 2-d": np.empty((0, 3)),
    "2-d": _RUNS.reshape(70, -1),
    "non-contiguous": _RUNS.reshape(70, -1)[::3, 1::2],
    "transposed": _RUNS.reshape(70, -1).T,
    "no runs": np.random.default_rng(4).uniform(0.1, 5.0, 999),
}


@pytest.mark.parametrize("case", sorted(_LIBM_CASES))
@pytest.mark.parametrize("fn", [math.exp, math.log1p, math.sqrt], ids=lambda f: f.__name__)
def test_libm_runs_match_each_entry(case, fn):
    # one libm call per run of bitwise-equal entries gives, entry for entry,
    # the bits of a call per entry; log1p(-0.0) is -0.0, so a +0.0 next to a
    # -0.0 must start a new run
    x = _LIBM_CASES[case]
    got = _libm(fn, x)
    assert got.shape == x.shape and got.dtype == np.float64
    want = [_bits(fn(v)) for v in x.ravel().tolist()]
    assert [_bits(v) for v in got.ravel().tolist()] == want


def test_libm_scalar_path():
    assert _bits(_libm(math.log1p, -0.0)) == _bits(-0.0)
    assert type(_libm(math.exp, 0.5)) is float


def test_float_exp_calls_libm_once_per_run(monkeypatch):
    # leform1's grid repeats each of its 288 (a, theta) points along its r
    # axis, and its coefficient packs are evaluated once per run of equal
    # (a, theta), so exp(theta/a) sees each point once per pack
    calls, runs, rows = [], [], []

    def counted(t):
        calls.append(t)
        return math.exp(t)

    def exp(x):
        if type(x) is np.ndarray:
            hexes = [v.hex() for v in x.ravel().tolist()]
            runs.append(sum(1 for i, h in enumerate(hexes) if i == 0 or h != hexes[i - 1]))
            rows.append(x.size)
        return _libm(counted, x)

    _, grid = verify._REGISTRY["leform1"].gen(256)
    pairs = list(zip(grid["a"].tolist(), grid["theta"].tolist()))
    bases = sum(1 for i, p in enumerate(pairs) if i == 0 or p != pairs[i - 1])
    assert bases == 288
    monkeypatch.setattr(FloatBackend, "exp", staticmethod(exp))
    verify.verify_lemma("leform1", resolution=256)
    assert rows and len(calls) == sum(runs)
    # no exp argument repeats an entry, and none has more than one per base
    assert rows == runs and max(rows) <= bases
    # four packs per base: the grid's a_star, bound_L's coeffs and tangent,
    # and the Moebius coeffs.  A call per row made 221,472 calls here, one
    # per run of exp arguments 1,152
    assert len(calls) <= 4 * bases


def _pairs_bits(*cols):
    return [tuple(_bits(v) for v in vals) for vals in zip(*(c.ravel().tolist() for c in cols))]


_AT = np.repeat(np.random.default_rng(5).uniform(-3.0, -0.5, 12), np.arange(1, 13))
_TH = np.repeat(np.random.default_rng(6).uniform(0.1, 0.9, 6), 13)
_RUN_CASES = {
    # both columns change at other rows, so a run ends where either does
    "runs": (_AT, _TH),
    "no runs": tuple(np.random.default_rng(8).uniform(0.1, 0.9, (2, 50))),
    "signed zeros": (
        np.array([0.0, 0.0, -0.0, -0.0, 0.0, 1.0]),
        np.array([2.0, 2.0, 2.0, -0.0, -0.0, 1.0]),
    ),
    "2-d": (_AT.reshape(6, 13), _TH.reshape(6, 13)),
    "one entry": (np.array([0.5]), np.array([-0.0])),
    "empty": (np.array([]), np.array([])),
}


@pytest.mark.parametrize("case", sorted(_RUN_CASES))
def test_per_run_matches_row_wise(case):
    # once per run and repeated, bitwise what each row gives on its own;
    # copysign and hypot tell +0.0 from -0.0, so a run must end at a sign change
    x, y = _RUN_CASES[case]

    def fn(u, v):
        seen.append(u.size)
        return np.copysign(u + 1.0, v), np.hypot(u, v) * np.copysign(1.0, u)

    seen = []
    got = _per_run(fn, x, y)
    assert all(g.shape == x.shape and g.dtype == np.float64 for g in got)
    want = [fn(np.array([u]), np.array([v])) for u, v in zip(x.ravel().tolist(), y.ravel().tolist())]
    assert _pairs_bits(*got) == [(_bits(p[0]), _bits(q[0])) for p, q in want]
    pairs = _pairs_bits(x, y)
    runs = sum(1 for i, p in enumerate(pairs) if i == 0 or p != pairs[i - 1])
    assert seen[0] == runs
    # one output, not a tuple, keeps its shape as well
    assert _per_run(lambda u: u * 2.0, x).shape == x.shape


def test_backend_where_and_value():
    mask = np.array([True, False, True])
    x, y = np.array([1.0, 2.0, 3.0]), np.array([-1.0, -2.0, -3.0])
    assert FLOAT.where(mask, x, y).tolist() == [1.0, -2.0, 3.0]
    got = DOUBLE_DOUBLE.where(mask, dd(x) / 3.0, math.nan)
    assert np.isnan(DOUBLE_DOUBLE.value(got)[1])
    assert DOUBLE_DOUBLE.value(got)[2] == float(dd(3.0) / 3.0)
    assert FLOAT.where(True, 1.0, 2.0) == 1.0 and FLOAT.value(dd(2.5)) == 2.5
