import math

import pytest
from hypothesis import given, strategies as st

from ddestab.params import NormParams
from ddestab.ratmaps import (
    Coeffs,
    R2_eval,
    R_eval,
    chi,
    chi_iterate,
    coeffs,
    coeffs_generic,
    coth_stable,
    gamma_coeff,
    j_generic,
    j_tangent_coeffs,
    psi,
    psi_inv,
    r_eval,
    r_inv,
    schwarz_margin,
    schwarzian,
    schwarzian_numeric,
)
from ddestab.ddouble import DOUBLE_DOUBLE

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


def test_gamma_defined_and_in_range(np_core, np_sector):
    g = gamma_coeff(np_sector)
    assert 0.0 < g < 1.0
    assert coeffs(np_sector).gamma == pytest.approx(g)
    # low theta: the log factor degenerates, the coefficient is withheld
    lo = NormParams(a=-2.0, theta=0.15)
    with pytest.raises(ValueError):
        gamma_coeff(lo)
    assert coeffs(lo).gamma is None


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


def test_schwarzian_exact_vs_numeric():
    from ddestab.models import make_ricker_shifted

    m = make_ricker_shifted(math.e**3)
    for x in (-0.5, 0.3, 1.7):
        assert schwarzian(m, x) == pytest.approx(schwarzian_numeric(m, x), rel=1e-4, abs=1e-6)


def test_schwarzian_of_moebius_vanishes():
    from ddestab.models import make_rational

    m = make_rational(-2.0)
    for x in (-0.3, 0.2, 2.0):
        assert abs(schwarzian(m, x)) < 1e-11


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
