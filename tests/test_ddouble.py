import math
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

mp = pytest.importorskip("mpmath")

from ddestab import verify
from ddestab.params import NormParams
from ddestab.ddouble import (
    DD,
    DOUBLE_DOUBLE,
    FLOAT,
    FloatBackend,
    _float_exp,
    _libm,
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
    # arguments, so the float backend takes libm's bits on every lane: exp
    # through libm's cexp at x + 0i, whose real part is exp(x), in one C
    # loop, and log and log1p by a libm call per lane, since clog's real
    # part is not libm's log
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
    "0-d": np.array(0.75),
}


@pytest.mark.parametrize("case", sorted(_LIBM_CASES))
@pytest.mark.parametrize("fn", [math.exp, math.log1p, math.sqrt], ids=lambda f: f.__name__)
def test_libm_runs_match_each_entry(case, fn):
    # one libm call per entry, in any layout, gives the bits of each
    # entry's own call; log1p(-0.0) is -0.0, so a +0.0 next to a -0.0 keeps
    # its sign
    x = _LIBM_CASES[case]
    got = _libm(fn, x)
    assert got.shape == x.shape and got.dtype == np.float64
    want = [_bits(fn(v)) for v in x.ravel().tolist()]
    assert [_bits(v) for v in got.ravel().tolist()] == want


def test_libm_scalar_path():
    assert _bits(_libm(math.log1p, -0.0)) == _bits(-0.0)
    assert type(_libm(math.exp, 0.5)) is float


def _exp_bits_match(x: np.ndarray) -> None:
    # FLOAT.exp on an array: a contiguous float64 array of x's shape whose
    # every entry is math.exp of x's, bit for bit
    got = FLOAT.exp(x)
    assert type(got) is np.ndarray and got.shape == x.shape and got.dtype == np.float64
    assert got.flags.c_contiguous
    want = np.array([math.exp(v) for v in x.ravel().tolist()], dtype=float)
    bad = np.flatnonzero(got.ravel().view(np.int64) != want.view(np.int64))
    assert bad.size == 0, [(x.ravel()[i].hex(), got.ravel()[i].hex(), want[i].hex()) for i in bad[:5]]


# the strata of FLOAT.exp's bitwise test: deep underflow into subnormals,
# the ordinary range, around 0, tiny arguments, large ones, and the edge of
# overflow, where glibc's cexp rescales above 709
_EXP_STRATA = [(-745.2, -700.0), (-700.0, -20.0), (-20.0, 20.0), (-1e-8, 1e-8), (20.0, 709.0), (709.0, 709.78)]


def test_float_exp_is_libm_exp_on_strata():
    rng = np.random.default_rng(35)
    x = np.concatenate([rng.uniform(lo, hi, 170_000) for lo, hi in _EXP_STRATA])
    _exp_bits_match(x)


def test_float_exp_special_values():
    tiny = 5e-324
    x = np.array(
        [0.0, -0.0, math.inf, -math.inf, tiny, -tiny, 2.2250738585072014e-308, -1e-310,
         709.0, math.nextafter(709.0, 0.0), math.nextafter(709.0, 800.0), 709.782712893384,
         -745.1332191019411, -745.1332191019412, -708.3964185322641, -744.44, 1e-300]
    )
    _exp_bits_match(x)
    _exp_bits_match(x[::-1].reshape(1, -1).T)
    # NaN payloads and signs come back as the input's, as math.exp gives them
    payloads = [0x7FF8000000000000, 0x7FF8000000000001, 0x7FF800000000BEEF, 0xFFF8000000000005]
    nans = np.array(payloads, dtype=np.uint64).view(np.float64)
    got = FLOAT.exp(np.concatenate([nans, [1.0, -2.0]]))
    assert got[:4].view(np.uint64).tolist() == payloads
    _exp_bits_match(np.concatenate([nans, [1.0, -2.0]]))
    _exp_bits_match(np.array(math.nan))


@pytest.mark.parametrize("case", sorted(_LIBM_CASES))
def test_float_exp_layouts(case):
    _exp_bits_match(_LIBM_CASES[case])
    # asarray: -100.0 times a 0-d array is a numpy scalar
    _exp_bits_match(np.asarray(-100.0 * _LIBM_CASES[case]))


def test_float_exp_overflow_raises_as_math_exp(recwarn):
    # a finite entry past 709.78 raises math.exp's OverflowError, and numpy
    # warns of nothing, so the -W error runs see the same exception
    for x in (np.array([710.0]), np.array([1.0, math.nan, 1e308, -math.inf]), np.array(800.0)):
        with pytest.raises(OverflowError):
            FLOAT.exp(x)
    assert FLOAT.exp(np.array([709.78, math.inf, -1e308])).tolist() == [math.exp(709.78), math.inf, 0.0]
    assert len(recwarn) == 0


def test_float_exp_matches_libm_on_what_the_sweeps_ask(monkeypatch):
    # every array that FLOAT.exp receives in a resolution-64 sweep of all
    # 15 checks and in certificate at check's three CI points
    seen = []

    def exp(x):
        y = _float_exp(x)
        if type(x) is np.ndarray:
            seen.append((x.copy(), y))
        return y

    monkeypatch.setattr(FloatBackend, "exp", staticmethod(exp))
    verify.verify_all(resolution=64)
    for a, theta in ((-2.0, 0.9), (-2.0, 0.39), (-10.0, 0.88)):
        verify.certificate(NormParams(a=a, theta=theta))
    assert sum(x.size for x, _ in seen) > 100_000
    x = np.concatenate([x.ravel() for x, _ in seen])
    got = np.concatenate([y.ravel() for _, y in seen])
    want = np.array([math.exp(v) for v in x.tolist()])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_float_exp_sees_each_base_at_most_twice(monkeypatch):
    # leform1's grid repeats each of its 288 (a, theta) bases along its r
    # axis.  Its margins take the coefficient pack once per base on the
    # base table, once for bound_L and once for the Moebius bound, and its
    # grid's a_star needs no exp, so exp(theta/a) sees each base at most
    # twice.  A call per row made 221,472 calls here
    args = []

    def exp(x):
        args.extend(np.ravel(x).tolist())
        return _libm(math.exp, x)

    _, grid = verify._REGISTRY["leform1"].gen(256)
    table = grid.table
    assert table["a"][grid.base].tobytes() == grid["a"].tobytes()
    ratios = (table["theta"] / table["a"]).tolist()
    assert len(set(ratios)) == 288
    monkeypatch.setattr(FloatBackend, "exp", staticmethod(exp))
    verify.verify_lemma("leform1", resolution=256)
    seen = Counter(args)
    assert set(seen) <= set(ratios)
    assert max(seen.values()) <= 2 and len(args) <= 2 * 288


def test_backend_where_and_value():
    mask = np.array([True, False, True])
    x, y = np.array([1.0, 2.0, 3.0]), np.array([-1.0, -2.0, -3.0])
    assert FLOAT.where(mask, x, y).tolist() == [1.0, -2.0, 3.0]
    got = DOUBLE_DOUBLE.where(mask, dd(x) / 3.0, math.nan)
    assert np.isnan(DOUBLE_DOUBLE.value(got)[1])
    assert DOUBLE_DOUBLE.value(got)[2] == float(dd(3.0) / 3.0)
    assert FLOAT.where(True, 1.0, 2.0) == 1.0 and FLOAT.value(dd(2.5)) == 2.5


# ---------------------------------------------------------------------------
# the generic formulas' contract: inputs converted once, literals met through
# the backend's reflected operators

_SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1e300, -1e300, 1.0, -2.5, 0.1]
_LITERALS = [1.0, -1.0, 0.5, 1.5, 2.0, 3.0, 4.0, 6.0, 2.0 / 945.0]
_OPS = ["add", "sub", "mul", "truediv"]


def _outcome_bits(fn):
    """The bits of fn()'s hi and lo words per entry, or the error it raises:
    a point divided by a zero raises as Python floats do."""
    try:
        with np.errstate(all="ignore"):
            v = fn()
    except ZeroDivisionError as err:
        return type(err).__name__
    words = (v.hi, v.lo) if isinstance(v, DD) else (v,)
    return [np.atleast_1d(np.asarray(w, dtype=float)).view(np.int64).tolist() for w in words]


@pytest.mark.parametrize("mx", [FLOAT, DOUBLE_DOUBLE], ids=["float", "dd"])
@pytest.mark.parametrize("op", _OPS)
def test_float_literal_meets_a_backend_value_as_its_backend_form(mx, op):
    # c op x and x op c with a float literal c give the bits that
    # mx.num(c) gives in its place, on one value and on lanes
    points = [mx.num(v) for v in _SPECIAL]
    lanes = mx.num(np.array(_SPECIAL))
    for x in points + [lanes]:
        for c in _LITERALS:
            k = mx.num(c)
            assert _outcome_bits(lambda: getattr(operator, op)(c, x)) == _outcome_bits(
                lambda: getattr(operator, op)(k, x)
            ), (op, c, x)
            assert _outcome_bits(lambda: getattr(operator, op)(x, c)) == _outcome_bits(
                lambda: getattr(operator, op)(x, k)
            ), (op, c, x)


def test_backend_one_is_a_no_op_on_the_converted_inputs():
    # FLOAT: x * 1.0 is x at every special value.  DOUBLE_DOUBLE: DD(x, 0) *
    # DD(1, 0) is DD(x, 0) on finite values below 2**996, where _split cannot
    # overflow, except -0.0, which two_prod's error term turns into +0.0; inf
    # and nan come back as nan in both words
    for x in [FLOAT.num(v) for v in _SPECIAL] + [FLOAT.num(np.array(_SPECIAL))]:
        assert _outcome_bits(lambda: x * FLOAT.num(1.0)) == _outcome_bits(lambda: x)
    one = DOUBLE_DOUBLE.num(1.0)
    finite = [v for v in _SPECIAL if math.isfinite(v) and _bits(v) != _bits(-0.0)]
    for x in [dd(v) for v in finite] + [dd(np.array(finite))]:
        hi, lo = _outcome_bits(lambda: x * one)
        assert hi == _outcome_bits(lambda: x.hi)[0] and set(lo) == {0}
    assert _outcome_bits(lambda: dd(-0.0) * one) == _outcome_bits(lambda: dd(0.0))
    for v in (math.inf, -math.inf, math.nan):
        got = dd(v) * one
        assert math.isnan(got.hi) and math.isnan(got.lo)


def test_double_double_constant_is_wider_than_a_float_quotient():
    # why _coth_series builds its one: one / 3.0 is a double-double third,
    # 1.0 / 3.0 a rounded float
    third = DOUBLE_DOUBLE.num(1.0) / 3.0
    assert third.hi == 1.0 / 3.0 and third.lo != 0.0
    assert _outcome_bits(lambda: third) != _outcome_bits(lambda: DOUBLE_DOUBLE.num(1.0 / 3.0))
