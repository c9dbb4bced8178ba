import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddestab.params import NormLanes, NormParams
from ddestab.ratmaps import (
    Coeffs,
    R2_eval,
    R_eval,
    coeffs,
    coeffs_generic,
    coth_stable,
    j_generic,
    j_tangent_coeffs,
    psi_inv_generic,
    r_eval,
    r_inv,
    schwarz_margin,
    _log_gap,
    _log_gap_series,
)
from ddestab.ddouble import DD, DOUBLE_DOUBLE, FLOAT
from oracles import chi, chi_iterate, psi_inv

# oracles for the tests below; the package itself uses only psi's inverse


def psi(M: float, np_: NormParams) -> float:
    """Straightening conjugacy M - theta*M/(a - M), a bijection (a, inf) -> R."""
    a = np_.a
    if not M > a:
        raise ValueError(f"conjugacy needs M > {a}, got {M}")
    return M - np_.theta * M / (a - M)


def schwarzian_numeric(f, x: float) -> float:
    """Schwarzian via five-point finite differences of a plain callable.

    The step balances truncation against the eps/s^3 roundoff of the
    third-derivative stencil; expect about five good digits.
    """
    s = 1e-3 * max(1.0, abs(x))
    f_m2 = f(x - 2.0 * s)
    f_m1 = f(x - s)
    f_0 = f(x)
    f_p1 = f(x + s)
    f_p2 = f(x + 2.0 * s)
    d1 = (-f_p2 + 8.0 * f_p1 - 8.0 * f_m1 + f_m2) / (12.0 * s)
    d2 = (-f_p2 + 16.0 * f_p1 - 30.0 * f_0 + 16.0 * f_m1 - f_m2) / (12.0 * s * s)
    d3 = (f_p2 - 2.0 * f_p1 + 2.0 * f_m1 - f_m2) / (2.0 * s ** 3)
    if abs(d1) < 1e-12:
        raise ValueError(f"Schwarzian undefined near critical point at x = {x}")
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


# frozen coefficient values at two reference points (40-digit arithmetic)
ALPHA_05 = 0.33640234921421460
BETA_05 = 0.14688605617640715
ALPHA_037 = 0.49331285155637698
BETA_037 = 0.09513327402336157


def test_r_eval_inverse_pair():
    a = -2.0
    for x in (-0.5, 0.3, 1.0, 7.0):
        u = r_eval(x, a)
        assert r_inv(u, a) == pytest.approx(x, rel=1e-13)


@given(x=st.floats(-0.95, 50.0), a=st.floats(-30.0, -1.05))
def test_r_eval_roundtrip_property(x, a):
    u = r_eval(x, a)
    assert r_inv(u, a) == pytest.approx(x, rel=1e-9, abs=1e-12)


def test_r_eval_pole():
    with pytest.raises(ValueError):
        r_eval(-1.0, -2.0)
    with pytest.raises(ValueError):
        r_inv(-2.0, -2.0)


def test_r_eval_fixes_origin():
    assert r_eval(0.0, -2.0) == 0.0
    assert r_eval(1.0, -2.0) == -1.0  # a*1/(1+1)=a/2


def test_coeffs_frozen_values(np_linear, np_core):
    c5 = coeffs(np_linear)
    assert c5.alpha == pytest.approx(ALPHA_05, abs=5e-16)
    assert c5.beta == pytest.approx(BETA_05, abs=5e-15)
    assert c5.a_star == pytest.approx(-1.0, abs=1e-15)
    assert c5.lam == pytest.approx(math.exp(-0.25), rel=1e-15)
    c37 = coeffs(NormParams(a=-2.0, theta=0.37))
    assert c37.alpha == pytest.approx(ALPHA_037, abs=5e-16)
    assert c37.beta == pytest.approx(BETA_037, abs=5e-15)


def test_coeffs_generic_backend_agreement(np_core):
    lam_f, al_f, be_f, as_f = coeffs_generic(np_core.a, np_core.theta)
    lam_d, al_d, be_d, as_d = coeffs_generic(np_core.a, np_core.theta, DOUBLE_DOUBLE)
    assert float(lam_d) == pytest.approx(lam_f, rel=1e-15)
    assert float(al_d) == pytest.approx(al_f, rel=1e-14)
    assert float(be_d) == pytest.approx(be_f, rel=1e-12)
    assert float(as_d) == pytest.approx(as_f, rel=1e-15)


@pytest.mark.parametrize(
    "a, theta",
    [(-1e13, 0.9999999999999), (-1922892727988.8538, 0.9999999999994669), (-1e12, 0.999999999999),
     (-1e8, 0.9), (-3e6, 0.99999999)],
)
def test_coeffs_where_den_cancels(a, theta):
    # den = a*a + (a - a*a)*lam cancels at these points (to exactly 0 at the
    # first two); alpha and beta come from their series in theta/a instead
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        A, T = mp.mpf(a), mp.mpf(theta)
        lam = mp.exp(T / A)
        alpha = (1 - A) * lam + A
        num = A * A + lam * (1 - 2 * A + 2 * T * (A - 1)) - (1 - A) ** 2 * lam * lam
        beta = -num / (A * A + (A - A * A) * lam)
    _, al, be, _ = coeffs_generic(a, theta)
    assert al == pytest.approx(float(alpha), rel=1e-15)
    assert be == pytest.approx(float(beta), rel=1e-15)
    # on lanes, beside a lane that keeps the direct values, each lane is its scalar pack
    lanes = coeffs_generic(np.array([a, -2.0]), np.array([theta, 0.5]))
    for i, (a_i, th_i) in enumerate([(a, theta), (-2.0, 0.5)]):
        assert [float(v[i]).hex() for v in lanes] == [v.hex() for v in coeffs_generic(a_i, th_i)]


def test_gamma_defined_and_in_range(np_sector):
    g = coeffs(np_sector).gamma
    assert 0.0 < g < 1.0
    # low theta: the log factor degenerates, the coefficient is withheld
    assert coeffs(NormParams(a=-2.0, theta=0.15)).gamma is None


def test_R_pole_guard(np_core):
    c = coeffs(np_core)
    with pytest.raises(ValueError):
        R_eval(1.0 / c.beta, c)


def test_R_slope_at_origin(np_core):
    c = coeffs(np_core)
    eps = 1e-7
    slope = (R_eval(eps, c) - R_eval(-eps, c)) / (2.0 * eps)
    assert slope == pytest.approx(c.alpha, rel=1e-6)
    curv = (R_eval(eps, c) - 2.0 * R_eval(0.0, c) + R_eval(-eps, c)) / eps**2
    assert curv == pytest.approx(2.0 * c.alpha * c.beta, rel=1e-5)


def test_R2_slope_at_origin(np_sector):
    eps = 1e-7
    slope = (R2_eval(eps, np_sector) - R2_eval(-eps, np_sector)) / (2.0 * eps)
    th = np_sector.theta
    k0 = (1.0 + math.log(th) - th) / (2.0 + math.log(th) - th)
    assert slope == pytest.approx(k0 * np_sector.a, rel=1e-6)


@pytest.mark.parametrize(
    "a, theta",
    [(-1e13, 0.9999999999999), (-1922892727988.8538, 0.9999999999994669), (-1e12, 0.999999999999)],
)
def test_R2_where_the_log_gap_cancels(a, theta):
    # 1 + log(theta) - theta, about -(1 - theta)**2/2, summed to 0 or to
    # noise at these points; R2 takes it from its series in 1 - theta
    mp = pytest.importorskip("mpmath")
    rs = [a, 0.5 * a, -0.5, 0.25, 4.0]
    with mp.workdps(60):
        T = mp.mpf(theta)
        g = 1 + mp.log(T) - T
        want = [float(g / (2 + mp.log(T) - T) * a * r / (1 + g / (1 - T) * r)) for r in rs]
    np_ = NormParams(a=a, theta=theta)
    assert [R2_eval(r, np_) for r in rs] == pytest.approx(want, rel=1e-14)
    # on lanes, beside a lane that keeps the direct sum's bits, each lane
    # is its scalar value
    two = NormLanes(a=np.array([a, -2.0]), theta=np.array([theta, 0.9]))
    lanes = R2_eval(np.array([a, -1.5]), two)
    assert lanes[0].item().hex() == R2_eval(a, np_).hex()
    k0 = (1.0 + math.log(0.9) - 0.9) / (2.0 + math.log(0.9) - 0.9)
    k1 = (1.0 + math.log(0.9) - 0.9) / (1.0 - 0.9)
    assert lanes[1].item().hex() == (k0 * -2.0 * -1.5 / (1.0 + k1 * -1.5)).hex()


def _log_gap_cases():
    # thetas whose direct sum 1 + log(theta) - theta lies on both sides of
    # 2**-20: s = 1 - theta of 1e-13, 1e-6 and 1.3e-3 below, 1.5e-3 and 0.5 above
    th = np.array([1.0 - 1e-13, 1.0 - 1e-6, 1.0 - 1.3e-3, 1.0 - 1.5e-3, 0.5])
    gap = 1.0 + np.log(th) - th
    assert (np.abs(gap) < 2.0**-20).tolist() == [True, True, True, False, False]
    return th, gap


def test_log_gap_takes_the_series_only_where_the_sum_cancels():
    th, gap = _log_gap_cases()
    s = 1.0 - th
    series = _log_gap_series(s)
    want = np.where(np.abs(gap) < 2.0**-20, series, gap)
    # FLOAT lanes, and each FLOAT point on its own
    assert _log_gap(gap, s).tobytes() == want.tobytes()
    for i in range(th.size):
        got = _log_gap(float(gap[i]), float(s[i]))
        assert type(got) is float and got.hex() == float(want[i]).hex()
    # lanes that all keep the direct sum get it back untouched
    far = gap[3:]
    assert _log_gap(far, s[3:]) is far
    # the series is the log factor to a few ulps, where the sum has none left
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        exact = [float(1 + mp.log(mp.mpf(t)) - mp.mpf(t)) for t in th.tolist()]
    assert _log_gap(gap, s)[:3] == pytest.approx(exact[:3], rel=1e-14)


def test_log_gap_on_double_double_lanes():
    th, gap = _log_gap_cases()
    q = DOUBLE_DOUBLE.num(th - 1.0)
    dgap = -q + DOUBLE_DOUBLE.log1p(q)
    got = _log_gap(dgap, -q, DOUBLE_DOUBLE)
    near = np.abs(DOUBLE_DOUBLE.value(dgap)) < 2.0**-20
    assert near.tolist() == [True, True, True, False, False]
    want = DOUBLE_DOUBLE.where(near, _log_gap_series(-q), dgap)
    assert (got.hi.tobytes(), got.lo.tobytes()) == (want.hi.tobytes(), want.lo.tobytes())
    # away from theta = 1 the double-double sum comes back untouched
    far = DD(dgap.hi[3:], dgap.lo[3:])
    assert _log_gap(far, DOUBLE_DOUBLE.num(1.0 - th[3:]), DOUBLE_DOUBLE) is far


def test_psi_inverse_pair(np_core):
    for M in (-1.5, -0.5, 0.4, 3.0):
        y = psi(M, np_core)
        assert psi_inv(y, np_core) == pytest.approx(M, rel=1e-12, abs=1e-12)


@given(M=st.floats(-1.8, 20.0), th=st.floats(0.05, 0.95))
def test_psi_roundtrip_property(M, th):
    np_ = NormParams(a=-2.0, theta=th)
    y = psi(M, np_)
    assert psi_inv(y, np_) == pytest.approx(M, rel=1e-8, abs=1e-9)


def test_psi_domain_guard(np_core):
    with pytest.raises(ValueError):
        psi(np_core.a, np_core)


def test_chi_fixes_origin(np_linear):
    assert chi(0.0, np_linear) == pytest.approx(0.0, abs=1e-14)


def test_chi_slope_matches_closed_form(np_linear):
    a, th = np_linear.a, np_linear.theta
    eps = 1e-7
    slope = (chi(eps, np_linear) - chi(-eps, np_linear)) / (2.0 * eps)
    assert slope == pytest.approx((1.0 - th) * a * a / (a - th), rel=1e-6)


def test_chi_iterate_converges(np_linear):
    orbit = chi_iterate(0.5, 200, np_linear)
    assert len(orbit) == 201
    assert abs(orbit[-1]) < 1e-10
    # alternating signs: negative feedback composed with itself
    assert orbit[0] * orbit[1] < 0.0


def test_schwarzian_of_moebius_vanishes():
    from ddestab.models import make_rational

    # the oracle's five good digits put a Moebius map near 1e-4; the shifted
    # recruitment map reads 0.34-0.43 at the same points
    m = make_rational(-2.0)
    for x in (-0.3, 0.2, 2.0):
        assert abs(schwarzian_numeric(m.f, x)) < 1e-3


def test_schwarz_margin_positive_on_linear_region(np_linear):
    for x in (-0.8, -0.2, 0.5, 3.0, 8.0):
        assert schwarz_margin(x, np_linear.a, np_linear.theta) > 0.0


def test_schwarz_margin_matches_numeric_schwarzian(np_linear):
    # margin equals minus the straightened map's schwarzian
    for x in (0.5, 2.0):
        got = schwarz_margin(x, np_linear.a, np_linear.theta)
        num = schwarzian_numeric(lambda t: chi(t, np_linear), x)
        assert got == pytest.approx(-num, rel=2e-3)


def test_coth_stable_branches():
    # both branches around the series switch match the library value
    from ddestab.ddouble import FLOAT

    for t in (0.009999, 0.010001, 1e-5, 0.5, 3.0):
        assert coth_stable(t, FLOAT) == pytest.approx(1.0 / math.tanh(t), rel=1e-13)


def test_J_matches_direct_formula(np_core):
    a, th = np_core.a, np_core.theta
    nu = -th / a
    for r in (-0.2, 0.3, 1.0, 4.0):
        n = math.sqrt(1.0 + 4.0 * r)
        expected = n / math.tanh(nu * n / 2.0)
        assert j_generic(r, a, th) == pytest.approx(expected, rel=1e-13)


def test_J_removable_point(np_core):
    a, th = np_core.a, np_core.theta
    nu = -th / a
    assert j_generic(-0.25, a, th) == pytest.approx(2.0 / nu, rel=1e-10)
    near = j_generic(-0.25 + 1e-9, a, th)
    assert near == pytest.approx(2.0 / nu, rel=1e-7)


def test_J_domain_guard(np_core):
    with pytest.raises(ValueError):
        j_generic(-0.3, np_core.a, np_core.theta)


def test_J_value_at_zero(np_core):
    lam = coeffs(np_core).lam
    j0 = j_generic(0.0, np_core.a, np_core.theta)
    assert j0 == pytest.approx((1.0 + lam) / (1.0 - lam), rel=1e-14)


def test_J_tangent_touches_at_zero(np_core):
    a, th = np_core.a, np_core.theta
    j0, j1 = j_tangent_coeffs(a, th)
    assert j0 == pytest.approx(j_generic(0.0, a, th), rel=1e-13)
    eps = 1e-6
    fd = (j_generic(eps, a, th) - j_generic(-eps, a, th)) / (2.0 * eps)
    assert j1 == pytest.approx(fd, rel=1e-7)


def test_J_tangent_dominates(np_core):
    a, th = np_core.a, np_core.theta
    j0, j1 = j_tangent_coeffs(a, th)
    for r in (-0.2, 0.5, 2.0, 5.0):
        assert j0 + j1 * r >= j_generic(r, a, th) - 1e-12


def test_coeffs_cached(np_core):
    c1 = coeffs(np_core)
    c2 = coeffs(np_core)
    assert isinstance(c1, Coeffs) and isinstance(c2, Coeffs)
    assert c1.alpha == c2.alpha


# ---------------------------------------------------------------------------
# branches on lanes: each lane bitwise its scalar call


def _bits(v) -> list[int]:
    """The words of a float or a double-double, as integers."""
    words = (v.hi, v.lo) if isinstance(v, DD) else (v,)
    return [int(np.float64(w).view(np.int64)) for w in words]


def _lane(v, i):
    return DD(v.hi[i], v.lo[i]) if isinstance(v, DD) else v[i]


BACKENDS = [(FLOAT, FLOAT), (DOUBLE_DOUBLE, DOUBLE_DOUBLE)]


def _assert_lanes_match(fn, lanes_mx, scalar_mx, *cols):
    got = fn(*cols, lanes_mx)
    for i in range(len(cols[0])):
        want = fn(*(float(c[i]) for c in cols), scalar_mx)
        assert _bits(_lane(got, i)) == _bits(want), i


@pytest.mark.parametrize("lanes_mx, scalar_mx", BACKENDS)
def test_psi_inv_lanes_take_their_branch(lanes_mx, scalar_mx):
    rng = np.random.default_rng(11)
    a = rng.uniform(-6.0, -1.05, 256)
    theta = rng.uniform(0.05, 0.95, 256)
    y = rng.uniform(-8.0, 12.0, 256)
    b = a - theta + y
    assert (b >= 0.0).any() and (b < 0.0).any()
    _assert_lanes_match(psi_inv_generic, lanes_mx, scalar_mx, y, a, theta)


@pytest.mark.parametrize("lanes_mx, scalar_mx", BACKENDS)
def test_coth_lanes_take_their_branch(lanes_mx, scalar_mx):
    t = np.concatenate(
        [
            np.random.default_rng(12).uniform(1e-6, 0.03, 256),
            [0.01, math.nextafter(0.01, 0.0), 1e-300, 40.0, 400.0],
        ]
    )
    assert (t < 0.01).any() and (t >= 0.01).any()
    _assert_lanes_match(coth_stable, lanes_mx, scalar_mx, t)


@pytest.mark.parametrize("lanes_mx, scalar_mx", BACKENDS)
def test_j_lanes_take_their_branch(lanes_mx, scalar_mx):
    rng = np.random.default_rng(13)
    r = np.concatenate([[-0.25, -0.25 + 1e-12, 0.0], rng.uniform(-0.25, 5.0, 253)])
    a = rng.uniform(-10.0, -1.05, 256)
    theta = rng.uniform(0.1, 0.9, 256)
    _assert_lanes_match(j_generic, lanes_mx, scalar_mx, r, a, theta)


@pytest.mark.parametrize("mx", [FLOAT, DOUBLE_DOUBLE])
def test_one_bad_branch_lane_raises(mx):
    a, theta = np.full(3, -2.0), np.full(3, 0.4)
    with pytest.raises(ValueError):
        j_generic(np.array([0.5, -0.3, 1.0]), a, theta, mx)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            coth_stable(np.array([0.5, bad, 0.001]), mx)
