"""Rational feedback envelope, derived coefficients, and conjugacy machinery.

The envelope r(x) = a x / (1 + x) dominates every admissible feedback from
below on x > -1.  Its one-delay response is bounded by a Moebius map R with
coefficients (alpha, beta) depending on (a, theta); a second bound R2 covers
the small-mu corner.  The conjugacy psi straightens the composed interval
map so a Schwarzian-sign argument applies; J is the comparison function
whose tangent-line bound feeds the coefficient inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .ddouble import FLOAT
from .params import NormParams, _any

__all__ = [
    "Coeffs",
    "r_eval",
    "r_inv",
    "coeffs",
    "coeffs_generic",
    "gamma_coeff",
    "R_eval",
    "R2_eval",
    "psi",
    "psi_inv",
    "psi_inv_generic",
    "chi",
    "chi_iterate",
    "schwarzian",
    "schwarzian_numeric",
    "schwarz_margin",
    "j_generic",
    "j_tangent_coeffs",
    "coth_stable",
]


def r_eval(x: float, a: float) -> float:
    """Envelope value a*x/(1+x); pole at x = -1 is outside the state space."""
    if x == -1.0:
        raise ValueError("envelope pole at x = -1")
    return a * x / (1.0 + x)


def r_inv(u: float, a: float) -> float:
    """Inverse of the envelope: u/(a-u); pole at u = a.  u may be an array."""
    if _any(u == a):
        raise ValueError(f"envelope inverse pole at u = {a}")
    return u / (a - u)


@dataclass(frozen=True)
class Coeffs:
    """Derived coefficient pack at one normalized parameter point.

    lam is the one-delay contraction factor exp(theta/a); a_star the envelope
    slope at which the second branch takes over; alpha and beta the Moebius
    response coefficients; gamma the composite slope, defined for theta > 0.16.
    """

    alpha: float
    beta: float
    a_star: float
    lam: float
    gamma: float | None


def coeffs(np_: NormParams) -> Coeffs:
    a, th = np_.a, np_.theta
    lam, alpha, beta, a_star = coeffs_generic(a, th, FLOAT)
    gamma = None
    if th > 0.16:
        lnth = math.log(th)
        gamma = a ** 3 * alpha * (1.0 - th + lnth) / (2.0 - th + lnth)
    return Coeffs(alpha=alpha, beta=beta, a_star=a_star, lam=lam, gamma=gamma)


def coeffs_generic(a, theta, mx=FLOAT):
    """(lam, alpha, beta, a_star) through any arithmetic backend mx."""
    one = mx.num(1.0)
    a = mx.num(a) * one
    th = mx.num(theta) * one
    lam = mx.exp(th / a)
    alpha = (one - a) * lam + a
    oma = one - a
    num = a * a + lam * (one - 2.0 * a + 2.0 * th * (a - one)) - oma * oma * lam * lam
    den = a * a + (a - a * a) * lam
    beta = -(num / den)
    return lam, alpha, beta, _branch_slope(a, th, one)


def _branch_slope(a, theta, one=1.0):
    """a_star = a + theta/(1 - theta), in any backend or on numpy lanes."""
    return a + theta / (one - theta)


def gamma_coeff(np_: NormParams) -> float:
    """Composite slope; raises when theta <= 0.16 where it is not defined."""
    c = coeffs(np_)
    if c.gamma is None:
        raise ValueError(f"composite slope needs theta > 0.16, got {np_.theta}")
    return c.gamma


def R_eval(r: float, c: Coeffs) -> float:
    """Moebius response bound alpha*r/(1 - beta*r); pole at r = 1/beta.

    r may be an array of points sharing the coefficients c.
    """
    den = 1.0 - c.beta * r
    if _any(den == 0.0):
        raise ValueError(f"response pole at r = {1.0 / c.beta}")
    return c.alpha * r / den


def R2_eval(r: float, np_: NormParams) -> float:
    """Corner response bound k0*a*r/(1 + k1*r) for the small-mu regime; r may be an array."""
    a, th = np_.a, np_.theta
    lnth = math.log(th)
    k0 = (1.0 + lnth - th) / (2.0 + lnth - th)
    k1 = (1.0 + lnth - th) / (1.0 - th)
    den = 1.0 + k1 * r
    if _any(den == 0.0):
        raise ValueError(f"corner response pole at r = {-1.0 / k1}")
    return k0 * a * r / den


def psi(M: float, np_: NormParams) -> float:
    """Straightening conjugacy M - theta*M/(a - M), a bijection (a, inf) -> R."""
    a = np_.a
    if not M > a:
        raise ValueError(f"conjugacy needs M > {a}, got {M}")
    return M - np_.theta * M / (a - M)


def psi_inv_generic(y, a, theta, mx=FLOAT):
    """Inverse conjugacy through any arithmetic backend mx.

    Solves x^2 - x*(a - theta + y) + y*a = 0 for the root above a, using the
    cancellation-free branch of the quadratic formula.
    """
    one = mx.num(1.0)
    y = mx.num(y) * one
    a = mx.num(a) * one
    theta = mx.num(theta) * one
    b = a - theta + y
    disc = b * b - 4.0 * y * a
    root = mx.sqrt(disc)
    if float(b) >= 0.0:
        x = (b + root) / 2.0
    else:
        x_minus = (b - root) / 2.0
        x = y * a / x_minus
    return x


def psi_inv(y: float, np_: NormParams) -> float:
    x = float(psi_inv_generic(y, np_.a, np_.theta))
    if not x > np_.a:
        raise AssertionError(
            f"inverse conjugacy landed at {x}, not above {np_.a}"
        )
    return x


def chi(x: float, np_: NormParams) -> float:
    """Straightened one-step map psi_inv((1-theta) * r(x))."""
    return psi_inv((1.0 - np_.theta) * r_eval(x, np_.a), np_)


def chi_iterate(x0: float, n: int, np_: NormParams) -> list[float]:
    """Orbit [x0, chi(x0), ..., chi^n(x0)]."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    orbit = [float(x0)]
    for _ in range(n):
        orbit.append(chi(orbit[-1], np_))
    return orbit


def schwarzian(w, x: float) -> float:
    """Schwarzian derivative from exact derivative callables d1, d2, d3."""
    d1 = w.d1(x)
    if abs(d1) < 1e-12:
        raise ValueError(f"Schwarzian undefined near critical point, w'({x}) = {d1}")
    return w.d3(x) / d1 - 1.5 * (w.d2(x) / d1) ** 2


def schwarzian_numeric(f: Callable[[float], float], x: float) -> float:
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


def schwarz_margin(x, a, theta, mx=FLOAT):
    """Positive quantity certifying S(chi) < 0 at x, any backend.

    chi = psi_inv after a Moebius map g = (1-theta)*r with S(g) = 0, so by the
    composition rule -S(chi)(x) = g'(x)^2 * S(psi)(u) / psi'(u)^2 at
    u = psi_inv(g(x)).  S(psi) > 0 everywhere on (a, inf), hence the margin
    is positive for every a < 0, theta in (0, 1), x > -1.
    """
    one = mx.num(1.0)
    x = mx.num(x) * one
    a = mx.num(a) * one
    theta = mx.num(theta) * one
    gx = (one - theta) * a * x / (one + x)
    gp = (one - theta) * a / ((one + x) * (one + x))
    u = psi_inv_generic(gx, a, theta, mx)
    d = a - u
    psi_p = one - theta * a / (d * d)
    s_psi = 6.0 * theta * a / ((d * d - theta * a) * (d * d - theta * a))
    # S(psi) = -6 theta a / ((u-a)^2 - theta a)^2 is positive since a < 0
    return -(gp * gp) * s_psi / (psi_p * psi_p)


def coth_stable(t, mx=FLOAT):
    """coth(t) for t > 0 with a series branch near zero, any backend."""
    one = mx.num(1.0)
    t = mx.num(t) * one
    if float(t) <= 0.0:
        raise ValueError("coth branch needs t > 0")
    if float(t) < 0.01:
        t2 = t * t
        # 1/t + t/3 - t^3/45 + 2 t^5/945; next term ~ t^7/4725
        return one / t + t * (one / 3.0 - t2 * (one / 45.0 - t2 * (2.0 / 945.0)))
    e = mx.exp(-2.0 * t)
    return (one + e) / (one - e)


def j_generic(r, a, theta, mx=FLOAT):
    """Comparison function N*coth(nu*N/2), N = sqrt(1+4r), nu = -theta/a.

    Defined for r >= -1/4; at r = -1/4 the singularity is removable with
    value 2/nu, returned directly; near it the series branch of coth keeps
    full precision.  Any arithmetic backend mx.
    """
    one = mx.num(1.0)
    r = mx.num(r) * one
    a = mx.num(a) * one
    theta = mx.num(theta) * one
    arg = one + 4.0 * r
    if float(arg) < 0.0:
        raise ValueError("comparison function needs r >= -1/4")
    nu = -theta / a
    if float(arg) == 0.0:
        return 2.0 * (one / nu)
    n = mx.sqrt(arg)
    return n * coth_stable(nu * n / 2.0, mx)


def j_tangent_coeffs(a, theta, mx=FLOAT):
    """Tangent line j0 + j1*r to the comparison function at r = 0, any backend."""
    one = mx.num(1.0)
    a = mx.num(a) * one
    theta = mx.num(theta) * one
    lam = mx.exp(theta / a)
    j0 = (one + lam) / (one - lam)
    j1 = 2.0 * j0 + 4.0 * theta * lam / (a * (one - lam) * (one - lam))
    return j0, j1
