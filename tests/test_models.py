import math

import pytest

from ddestab.params import Region
from ddestab.models import (
    AttractorBounds,
    NicholsonParams,
    NoPositiveEquilibrium,
    attractor_bounds,
    make_mackey_glass,
    make_rational,
    make_ricker_shifted,
    make_wazewska,
    make_wright,
    nicholson_global,
)

E3 = math.e**3


def slope_at_zero(m, eps=1e-6):
    """Centred finite difference of the map at its fixed point 0."""
    return (m.f(eps) - m.f(-eps)) / (2.0 * eps)


def test_ricker_shifted_structure():
    m = make_ricker_shifted(E3)
    assert m.f(0.0) == pytest.approx(0.0, abs=1e-15)
    assert slope_at_zero(m) == pytest.approx(1.0 - 3.0)
    with pytest.raises(ValueError):
        make_ricker_shifted(0.8)


def test_wright_structure():
    m = make_wright(-1.6)
    assert m.f(0.0) == 0.0
    assert slope_at_zero(m) == pytest.approx(-1.6)
    with pytest.raises(ValueError):
        make_wright(0.5)


def test_mackey_glass_structure():
    m = make_mackey_glass(2.0, 8.0)
    assert m.f(0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        make_mackey_glass(-1.0, 8.0)
    with pytest.raises(ValueError):
        make_mackey_glass(2.0, 0.5)


def test_wazewska_structure():
    m = make_wazewska(2.0, 1.5)
    assert m.f(0.0) == pytest.approx(2.0)
    assert slope_at_zero(m) == pytest.approx(-2.0 * 1.5)


def test_rational_structure():
    m = make_rational(-2.0)
    assert m.f(0.0) == 0.0
    assert slope_at_zero(m) == pytest.approx(-2.0)


# an oracle for the test below; the package itself does not use it
def lk_coeffs(q: float) -> tuple[float, float]:
    """Envelope calibration for the shifted recruitment map.

    Returns (slope, curvature ratio): slope = derivative at zero = 1 - ln q,
    ratio = -w''(0)/(2 w'(0)) so the Moebius comparison map slope*y/(1+ratio*y)
    matches to second order.  The slope must not vanish, which excludes q = e.
    """
    if not q > 1.0:
        raise ValueError(f"need q > 1, got {q}")
    a = 1.0 - math.log(q)
    if a == 0.0:
        raise ValueError("slope vanishes at q = e; no envelope calibration")
    b = (1.0 + a) / (2.0 * a)
    return a, b


def test_lk_coeffs():
    c1, c2 = lk_coeffs(E3)
    assert c1 == pytest.approx(-2.0)
    assert c2 == pytest.approx((1.0 - 2.0) / (2.0 * -2.0))
    with pytest.raises(ValueError):
        lk_coeffs(math.e)


def test_nicholson_params_derived():
    p = NicholsonParams(p=E3 * 0.5, delta=0.5, gamma_n=1.0, h=1.0)
    assert p.q == pytest.approx(E3)
    assert p.ln_q == pytest.approx(3.0)
    assert p.c == pytest.approx(2.0)
    assert p.n_star == pytest.approx(3.0)
    assert p.theta == pytest.approx(math.exp(-0.5))
    with pytest.raises(NoPositiveEquilibrium):
        NicholsonParams(p=0.4, delta=0.5, gamma_n=1.0, h=1.0).n_star


def test_nicholson_feedback_shape():
    p = NicholsonParams(p=E3 * 0.5, delta=0.5, gamma_n=1.0, h=1.0)
    f = p.feedback().f
    # production at the equilibrium balances decay
    assert f(p.n_star) == pytest.approx(p.delta * p.n_star, rel=1e-12)


def test_nicholson_decision_certified_small_delay():
    for dh in (0.5, 0.9):
        p = NicholsonParams(p=E3, delta=1.0, gamma_n=1.0, h=dh)
        dec = nicholson_global(p)
        assert dec.certified
        assert dec.slope == pytest.approx(-2.0)


def test_nicholson_decision_fails_large_delay():
    p = NicholsonParams(p=E3, delta=1.0, gamma_n=1.0, h=1.2)
    dec = nicholson_global(p)
    assert not dec.certified
    assert dec.region is not None and dec.region.tag is Region.NOT_CERTIFIED


def test_nicholson_decision_threshold_value():
    # q = e^3 puts the shifted slope at -2; the critical decay-delay product
    # solves theta = sharp threshold at that slope
    from ddestab.params import sharp_boundary_theta

    crit = -math.log(sharp_boundary_theta(-2.0))
    assert crit == pytest.approx(1.0088361747215549, abs=1e-13)
    just_under = NicholsonParams(p=E3, delta=1.0, gamma_n=1.0, h=crit * 0.999)
    just_over = NicholsonParams(p=E3, delta=1.0, gamma_n=1.0, h=crit * 1.001)
    assert nicholson_global(just_under).certified
    assert not nicholson_global(just_over).certified


def test_nicholson_unconditional_low_production():
    # q <= e: the shifted slope is already in the unconditional range
    p = NicholsonParams(p=2.0, delta=1.0, gamma_n=1.0, h=50.0)
    dec = nicholson_global(p)
    assert dec.certified
    assert dec.reason.endswith("monotone convergence")
    # moderate production, slope magnitude at most one: still unconditional
    p2 = NicholsonParams(p=math.exp(1.7), delta=1.0, gamma_n=1.0, h=50.0)
    dec2 = nicholson_global(p2)
    assert dec2.certified
    assert dec2.reason == "slope magnitude at most 1: certified for every delay"


def test_attractor_bounds_structure():
    p = NicholsonParams(p=E3, delta=1.0, gamma_n=1.0, h=1.0)
    b = attractor_bounds(p)
    assert isinstance(b, AttractorBounds)
    q = E3

    def g(x):
        return q * x * math.exp(-x)

    assert b.upper == pytest.approx(g(1.0), rel=1e-12)
    assert b.lower == pytest.approx(max(g(g(1.0)), 0.0), rel=1e-9) or b.lower > 0.0
    assert 0.0 < b.lower < 3.0 < b.upper
    assert b.invariant_g and b.invariant_g1
    # population units scale by the shape rate
    p2 = NicholsonParams(p=E3 * 2.0, delta=2.0, gamma_n=0.5, h=1.0)
    b2 = attractor_bounds(p2)
    assert b2.upper_n == pytest.approx(b.upper_n * 2.0, rel=1e-9)


def test_attractor_bounds_requires_steep_slope():
    p = NicholsonParams(p=math.exp(1.5), delta=1.0, gamma_n=1.0, h=1.0)
    with pytest.raises(ValueError):
        attractor_bounds(p)
