"""The generic formulas on the IV interval oracle: 40-digit enclosures of
each formula, from the one code that FLOAT and DOUBLE_DOUBLE run, and the
float values measured against them."""

import functools

import numpy as np
import pytest

from ddestab.ddouble import FLOAT
from ddestab.onedmaps import mn_polys_generic, q_poly_generic, s_poly_generic, t_chain_generic
from ddestab.params import sharp_boundary_theta
from ddestab.ratmaps import coeffs_generic, j_generic, psi_inv_generic
from oracles import IV, IVBackend

if IV is None:
    pytest.skip("the IV oracle needs mpmath, a test extra", allow_module_level=True)

# the inputs each formula is measured at, beside (a, theta) = (-2, 0.39):
# psi_inv's y on either branch of its quadratic (b = a - theta + y below 0,
# then above), j's r above -1/4, and the polynomials' r inside the branch
# interval (a_star, 0), a_star = -1.361
_Y = (-0.5, 3.0)
_R_J = 0.3
_R_POLY = -0.7


def _seven(a: float, theta: float, mx) -> dict:
    """Every value of the seven generic formulas at (a, theta) on backend
    mx, by name; q_poly, s_poly and t_chain take mx's own alpha and beta."""
    lam, alpha, beta, a_star = coeffs_generic(a, theta, mx)
    out = {"lam": lam, "alpha": alpha, "beta": beta, "a_star": a_star}
    for y in _Y:
        out[f"psi_inv(y={y})"] = psi_inv_generic(y, a, theta, mx)
    out["j"] = j_generic(_R_J, a, theta, mx)
    out["m"], out["n"] = mn_polys_generic(_R_POLY, a, theta, mx)
    out["q_poly"] = q_poly_generic(_R_POLY, a, theta, mx, alpha=alpha, beta=beta)
    out["s_poly"] = s_poly_generic(_R_POLY, a, theta, mx, alpha=alpha, beta=beta)
    for k, t in zip((3, 2, 1, 0), t_chain_generic(a, theta, mx, alpha=alpha)):
        out[f"t{k}"] = t
    return out


def _off_by(value: float, box) -> float:
    """How far value lies outside the enclosure box, relative to its larger end."""
    lo, hi = float(box.a), float(box.b)
    return max(lo - value, value - hi, 0.0) / max(abs(lo), abs(hi))


def test_generic_formulas_run_unchanged_on_iv():
    boxes = _seven(-2.0, 0.39, IV)
    floats = _seven(-2.0, 0.39, FLOAT)
    assert boxes.keys() == floats.keys()
    for name, box in boxes.items():
        assert box.delta < 1e-30, name
        assert _off_by(floats[name], box) <= 1e-12, (name, floats[name], box)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP items 13 and 19: the float beta cancels at large slopes "
    "(6.36e-6 against an enclosure at 3.70e-6)",
)
def test_float_beta_at_a_large_slope():
    a, theta = -1e5, 0.999986
    assert _off_by(coeffs_generic(a, theta)[2], coeffs_generic(a, theta, IV)[2]) <= 1e-6


# coeffs_generic by decade of |a|: 20 seeded points a = -10**(d + u) in
# decade d, theta uniform from the sharp boundary up to 1.  num and den
# cancel about 3 digits per decade, so 40 digits do not reach 1e12: IV runs
# at 80, and every enclosure is narrower than 1e-20 relative.  The float
# alpha and beta must lie within _DECADE_RTOL of it, relative
_DECADE_RTOL = 1e-11
_DECADES = range(12)
# beta's worst relative error at these points: 3.4e-10, 6.0e-8, 2.6e-4,
# 0.43 and 47 in decades 1-5.  From |a| = 2**18 on, _uncancelled's series
# takes over where |theta/a| < 2**-19: decade 5 read 657 and decade 6 382
# while it took over from 2**19 and 2**-20.  Decade 0 reads 3.2e-13,
# decades 6-11 at most 1.2e-13
_CANCELLING = (1, 2, 3, 4, 5)


_IV80 = IVBackend(dps=80)


@functools.cache
def _decade_points(decade: int) -> list:
    """The decade's 20 seeded points (a, theta)."""
    rng = np.random.default_rng(1000 + decade)
    out = []
    for u, v in zip(rng.random(20).tolist(), rng.random(20).tolist()):
        a = -(10.0 ** (decade + u))
        low = sharp_boundary_theta(a)
        out.append((a, low + (1.0 - low) * v))
    return out


@functools.cache
def _decade_coeffs(decade: int) -> list:
    """(float alpha, float beta, alpha box, beta box) at each of the decade's points."""
    out = []
    for a, theta in _decade_points(decade):
        _, alpha, beta, _ = coeffs_generic(a, theta)
        _, alpha_box, beta_box, _ = coeffs_generic(a, theta, _IV80)
        out.append((alpha, beta, alpha_box, beta_box))
    return out


@pytest.mark.parametrize("decade", _DECADES)
def test_iv_coeffs_are_narrow_by_decade(decade):
    for _, _, *boxes in _decade_coeffs(decade):
        for box in boxes:
            assert box.delta < 1e-20 * max(abs(box.a), abs(box.b)), box


@pytest.mark.parametrize(
    "decade",
    [
        pytest.param(
            d,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="ROADMAP items 13 and 19: the float beta cancels at large slopes",
            ),
        )
        if d in _CANCELLING
        else d
        for d in _DECADES
    ],
)
def test_float_coeffs_within_iv_by_decade(decade):
    for alpha, beta, alpha_box, beta_box in _decade_coeffs(decade):
        assert _off_by(alpha, alpha_box) <= _DECADE_RTOL, (alpha, alpha_box)
        assert _off_by(beta, beta_box) <= _DECADE_RTOL, (beta, beta_box)


# The six other generic formulas at the same points, each fed the same
# float inputs on FLOAT and on the 80-digit IV, the float alpha and beta
# among them, so each formula's own rounding is measured: psi_inv at
# y = (1 - theta)*a*x/(1 + x), schwarz_margin's argument; j at r on the
# jcal grids' axis; the polynomials at leleka's r axis, its ends a and
# a_star and its middle.  Each bound is stated in its formula's docstring
_X_PSI = (-0.9, 3.0)
_R_JS = (-0.2, 0.3, 5.0)
_FORMULA_RTOL = {
    "psi_inv": 1e-15,
    "j": 1e-14,
    "mn_polys": 1e-13,
    "q_poly": 1e-9,
    "s_poly": 1e-11,
    "t_chain": 1e-13,
}
# mn_polys' N reads up to 1e-6 relative at r = a_star: theta near 1 puts
# a_star near theta/(1 - theta), where N's four complex roots close in, and
# the expanded form cancels.  At r = a and the middle M and N read at most
# 5e-15, and M at most 4.8e-14 at a_star
_N_CANCELS = "ROADMAP item 20: N's expanded form cancels where its four roots close in"


def _formula_values(a: float, theta: float, mx) -> dict:
    """The six formulas' values at (a, theta) on backend mx, by formula."""
    _, alpha, beta, a_star = coeffs_generic(a, theta)
    ys = [(1.0 - theta) * a * x / (1.0 + x) for x in _X_PSI]
    rs = (a, 0.5 * (a + a_star), a_star)
    pack = {"alpha": alpha, "beta": beta}
    return {
        "psi_inv": [psi_inv_generic(y, a, theta, mx) for y in ys],
        "j": [j_generic(r, a, theta, mx) for r in _R_JS],
        "mn_polys": [v for r in rs for v in mn_polys_generic(r, a, theta, mx)],
        "q_poly": [q_poly_generic(r, a, theta, mx, **pack) for r in rs],
        "s_poly": [s_poly_generic(r, a, theta, mx, **pack) for r in rs],
        "t_chain": list(t_chain_generic(a, theta, mx, alpha=alpha)),
    }


@functools.cache
def _decade_errors(decade: int) -> dict:
    """Each formula's largest relative distance from its enclosure over the
    decade's points and inputs."""
    worst = dict.fromkeys(_FORMULA_RTOL, 0.0)
    for a, theta in _decade_points(decade):
        floats, boxes = (_formula_values(a, theta, mx) for mx in (FLOAT, _IV80))
        for name, values in floats.items():
            off = max(_off_by(float(v), box) for v, box in zip(values, boxes[name]))
            worst[name] = max(worst[name], off)
    return worst


@pytest.mark.parametrize("decade", _DECADES)
@pytest.mark.parametrize(
    "formula",
    [
        pytest.param(
            name,
            marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=_N_CANCELS),
        )
        if name == "mn_polys"
        else name
        for name in _FORMULA_RTOL
    ],
)
def test_float_formulas_within_iv_by_decade(formula, decade):
    off = _decade_errors(decade)[formula]
    assert off <= _FORMULA_RTOL[formula], off
