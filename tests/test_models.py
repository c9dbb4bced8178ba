import math

import pytest

from ddestab.params import Region
from ddestab.models import (
    AttractorBounds,
    NicholsonParams,
    NoPositiveEquilibrium,
    attractor_bounds,
    branch_entry_margin,
    make_mackey_glass,
    make_rational,
    make_ricker_shifted,
    make_wazewska,
    make_wright,
    nicholson_global,
    third_iterate_margin,
)

E3 = math.e**3

# frozen: root of the production map's value at the positive equilibrium,
# g(x) = q x exp(-x) meeting ln q inside (0, 1), at q = e^3
X1_AT_E3 = 0.17856062787792111
# frozen: upper end of the interval where the third iterate stays above ln q
THIRD_ITERATE_ROOT = 2.833157375247455
# frozen: g-chain from the critical point at ln q = 2.5
G1_25 = 4.4816890703380648
G2_25 = 0.61773910531829499
G3_25 = 4.0575194920213223


def test_ricker_shifted_structure():
    m = make_ricker_shifted(E3)
    assert m(0.0) == pytest.approx(0.0, abs=1e-15)
    assert m.d1(0.0) == pytest.approx(1.0 - 3.0)
    assert m.domain_lo == pytest.approx(-3.0)
    assert m.critical_point == pytest.approx(1.0 - 3.0)
    # derivative vanishes exactly at the critical point
    assert m.d1(m.critical_point) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        make_ricker_shifted(0.8)


def test_ricker_derivative_consistency():
    m = make_ricker_shifted(E3)
    eps = 1e-6
    # abs floors cover x = -1.0, an exact zero of the second derivative
    for x in (-1.0, 0.3, 2.0):
        fd = (m(x + eps) - m(x - eps)) / (2.0 * eps)
        assert m.d1(x) == pytest.approx(fd, rel=1e-8, abs=1e-9)
        fd2 = (m.d1(x + eps) - m.d1(x - eps)) / (2.0 * eps)
        assert m.d2(x) == pytest.approx(fd2, rel=1e-7, abs=1e-6)
        fd3 = (m.d2(x + eps) - m.d2(x - eps)) / (2.0 * eps)
        assert m.d3(x) == pytest.approx(fd3, rel=1e-6, abs=1e-5)


def test_wright_structure():
    m = make_wright(-1.6)
    assert m(0.0) == 0.0
    assert m.d1(0.0) == pytest.approx(-1.6)
    with pytest.raises(ValueError):
        make_wright(0.5)


def test_mackey_glass_structure():
    m = make_mackey_glass(2.0, 8.0)
    assert m(0.0) == pytest.approx(2.0)
    assert m.domain_lo == 0.0
    with pytest.raises(ValueError):
        make_mackey_glass(-1.0, 8.0)
    with pytest.raises(ValueError):
        make_mackey_glass(2.0, 0.5)


def test_wazewska_structure():
    m = make_wazewska(2.0, 1.5)
    assert m(0.0) == pytest.approx(2.0)
    assert m.d1(0.0) == pytest.approx(-3.0)


def test_rational_structure():
    m = make_rational(-2.0)
    assert m(0.0) == 0.0
    assert m.d1(0.0) == pytest.approx(-2.0)
    assert m.domain_lo == pytest.approx(-1.0)


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
    f = p.feedback()
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
    assert dec.certified and dec.unconditional
    # moderate production, slope magnitude at most one: still unconditional
    p2 = NicholsonParams(p=math.exp(1.7), delta=1.0, gamma_n=1.0, h=50.0)
    dec2 = nicholson_global(p2)
    assert dec2.certified and dec2.unconditional


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
    assert b.x1 == pytest.approx(X1_AT_E3, abs=1e-12)
    assert b.invariant_g and b.invariant_g1
    # population units scale by the shape rate
    p2 = NicholsonParams(p=E3 * 2.0, delta=2.0, gamma_n=0.5, h=1.0)
    b2 = attractor_bounds(p2)
    assert b2.upper_n == pytest.approx(b.upper_n * 2.0, rel=1e-9)


def test_attractor_bounds_requires_steep_slope():
    p = NicholsonParams(p=math.exp(1.5), delta=1.0, gamma_n=1.0, h=1.0)
    with pytest.raises(ValueError):
        attractor_bounds(p)


def test_third_iterate_margin_interval():
    # frozen chain values at ln q = 2.5
    q = math.exp(2.5)

    def g(x):
        return q * x * math.exp(-x)

    assert g(1.0) == pytest.approx(G1_25, rel=1e-14)
    assert g(g(1.0)) == pytest.approx(G2_25, rel=1e-13)
    assert g(g(g(1.0))) == pytest.approx(G3_25, rel=1e-13)
    assert third_iterate_margin(2.5) == pytest.approx(G3_25 - 2.5, rel=1e-10)

    for lq in (2.0, 2.3, 2.6, 2.833157):
        assert third_iterate_margin(lq) > 0.0
    # past the frozen root the margin flips sign
    assert third_iterate_margin(THIRD_ITERATE_ROOT + 1e-6) < 0.0
    assert third_iterate_margin(THIRD_ITERATE_ROOT - 1e-6) > 0.0


def test_branch_entry_margin():
    # positivity is only promised from ln q = 2.5 up; below that the
    # lower branch can dip under the tangency threshold
    for lq in (2.5, 2.6, 2.8):
        assert branch_entry_margin(lq) > 0.0
    assert branch_entry_margin(2.1) < 0.0
    with pytest.raises(ValueError):
        branch_entry_margin(1.8)
