"""The generic formulas on the IV interval oracle: 40-digit enclosures of
each formula, from the one code that FLOAT and DOUBLE_DOUBLE run, and the
float values measured against them."""

import pytest

from ddestab.ddouble import FLOAT
from ddestab.onedmaps import mn_polys_generic, q_poly_generic, s_poly_generic, t_chain_generic
from ddestab.ratmaps import coeffs_generic, j_generic, psi_inv_generic
from oracles import IV

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
