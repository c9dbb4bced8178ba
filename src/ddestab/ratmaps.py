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

import numpy as np

from .ddouble import FLOAT, _per_run
from .params import NormParams, _any

__all__ = [
    "Coeffs",
    "r_eval",
    "r_inv",
    "coeffs",
    "coeffs_generic",
    "R_eval",
    "R2_eval",
    "psi_inv_generic",
    "schwarz_margin",
    "j_generic",
    "j_tangent_coeffs",
    "coth_stable",
]


def r_eval(x: float, a: float) -> float:
    """Envelope value a*x/(1+x); pole at x = -1 is outside the state space.

    x may be an array.
    """
    if _any(x == -1.0):
        raise ValueError("envelope pole at x = -1")
    return a * x / (1.0 + x)


def r_inv(u: float, a: float) -> float:
    """Inverse of the envelope: u/(a-u); pole at u = a.  u may be an array."""
    if _any(u == a):
        raise ValueError(f"envelope inverse pole at u = {a}")
    return u / (a - u)


@dataclass(frozen=True)
class Coeffs:
    """Derived coefficient pack at one normalized parameter point, or at
    each lane of a NormLanes.

    lam is the one-delay contraction factor exp(theta/a); a_star the envelope
    slope at which the second branch takes over; alpha and beta the Moebius
    response coefficients; params the point they belong to.
    """

    alpha: float
    beta: float
    a_star: float
    lam: float
    params: NormParams

    @property
    def gamma(self) -> float | None:
        """Composite slope at one point; None for theta <= 0.16, where its
        log factor degenerates.  Near theta = 1 that factor cancels, and
        _log_gap's series takes over."""
        a, th = self.params.a, self.params.theta
        if not th > 0.16:
            return None
        lnth = math.log(th)
        g = 1.0 - th + lnth
        if abs(g) < 2.0**-20:
            g = _log_gap(th, lnth)
        return a ** 3 * self.alpha * g / (2.0 - th + lnth)


def coeffs(np_: NormParams) -> Coeffs:
    """The coefficient pack at np_; a NormLanes gives one entry per lane."""
    lam, alpha, beta, a_star = coeffs_generic(np_.a, np_.theta)
    return Coeffs(alpha=alpha, beta=beta, a_star=a_star, lam=lam, params=np_)


def _float_runs(fn, a, theta, mx):
    """fn(a, theta, mx); on FLOAT lanes, once per run of equal (a, theta)
    entries, each value repeated over its run (see ddouble._per_run)."""
    if mx is FLOAT and (type(a) is np.ndarray or type(theta) is np.ndarray):
        return _per_run(fn, *np.broadcast_arrays(a, theta))
    return fn(a, theta, mx)


def coeffs_generic(a, theta, mx=FLOAT):
    """(lam, alpha, beta, a_star) through any arithmetic backend mx."""
    return _float_runs(_coeffs_pack, a, theta, mx)


def _coeffs_pack(a, theta, mx=FLOAT):
    one = mx.num(1.0)
    a = mx.num(a) * one
    th = mx.num(theta) * one
    lam = mx.exp(th / a)
    alpha = (one - a) * lam + a
    oma = one - a
    num = a * a + lam * (one - 2.0 * a + 2.0 * th * (a - one)) - oma * oma * lam * lam
    den = a * a + (a - a * a) * lam
    if mx is FLOAT:
        alpha, num, den = _uncancelled(a, th, alpha, num, den)
    beta = -(num / den)
    return lam, alpha, beta, _branch_slope(a, th, one)


def _uncancelled(a, th, alpha, num, den):
    """(alpha, num, den) on floats, with a series where den has cancelled.

    den = a*a + (a - a*a)*lam is a*alpha, and alpha = (1 - a)*lam + a is
    about s + x/2 in s = 1 - theta and x = theta/a.  At a huge slope with
    theta near 1 both come from terms of size a*a or |a| that cancel: at
    a = -1e13, theta = 1 - 1e-13 den rounds to 0 where it is about -0.5.
    Where den is below 2**-26 times its largest term and |x| below 2**-20,
    alpha and num are taken from their power series in x, whose
    coefficients are polynomials in s (cut where the next term is below an
    ulp), and den as a*alpha; every other entry keeps the direct values.
    At a >= -2**19, |x| < 2**-20 puts theta below 1/2 and alpha above 0.49,
    so den keeps its bits: one pass over a clears a sweep's columns.
    """
    lanes = type(den) is np.ndarray
    if not (np.min(a, initial=0.0) if lanes else a) < -(2.0**19):
        return alpha, num, den
    x = th / a
    if lanes:
        cancelled = (np.abs(den) < 2.0**-26 * np.maximum(a * a, -a)) & (np.abs(x) < 2.0**-20)
        if not cancelled.any():
            return alpha, num, den
    elif not (abs(den) < 2.0**-26 * max(a * a, -a) and abs(x) < 2.0**-20):
        return alpha, num, den
    s = 1.0 - th
    # alpha = sum over k of x**k (s + k)/(k + 1)!
    alpha_x = s + x * ((s + 1.0) / 2.0 + x * ((s + 2.0) / 6.0 + x * ((s + 3.0) / 24.0)))
    num_x = -x * (
        (1.0 + s + s * s) / 3.0
        + x * ((1.5 + 2.0 * s + s * s) / 3.0 + x * ((26.0 + 33.0 * s + 11.0 * s * s) / 60.0))
    )
    if lanes:
        return (
            np.where(cancelled, alpha_x, alpha),
            np.where(cancelled, num_x, num),
            np.where(cancelled, a * alpha_x, den),
        )
    return alpha_x, num_x, a * alpha_x


def _branch_slope(a, theta, one=1.0):
    """a_star = a + theta/(1 - theta), in any backend or on numpy lanes."""
    return a + theta / (one - theta)


def R_eval(r: float, c: Coeffs) -> float:
    """Moebius response bound alpha*r/(1 - beta*r); pole at r = 1/beta.

    r may be an array, with c one pack for every entry or a pack on lanes.
    """
    den = 1.0 - c.beta * r
    if _any(den == 0.0):
        raise ValueError(f"response pole at r = {1.0 / c.beta}")
    return c.alpha * r / den


def R2_eval(r: float, np_: NormParams) -> float:
    """Corner response bound k0*a*r/(1 + k1*r) for the small-mu regime.

    r may be an array, and np_ a NormLanes of its length.
    """
    a, th = np_.a, np_.theta
    lnth = FLOAT.log(th)
    g = _log_gap(th, lnth)
    k0 = g / (2.0 + lnth - th)
    k1 = g / (1.0 - th)
    den = 1.0 + k1 * r
    if _any(den == 0.0):
        raise ValueError(f"corner response pole at r = {-1.0 / k1}")
    return k0 * a * r / den


def _log_gap(th, lnth):
    """1 + log(theta) - theta from lnth = log(theta), on a float or an array.

    Near theta = 1 it is about -s*s/2 in s = 1 - theta, and the direct sum
    cancels: to 0 at theta = 1 - 1e-13.  Where the direct sum is below
    2**-20, s < 1.4e-3 and the series -(s**2/2 + s**3/3 + ... + s**7/7)
    takes over, cut where the next term is below an ulp (s is exact for
    theta in [1/2, 2]); every other entry keeps the direct sum's bits.
    """
    g = 1.0 + lnth - th
    near = abs(g) < 2.0**-20
    if not _any(near):
        return g
    s = 1.0 - th
    series = -(s * s) * (0.5 + s * (1.0 / 3.0 + s * (0.25 + s * (0.2 + s * (1.0 / 6.0 + s / 7.0)))))
    return np.where(near, series, g) if type(g) is np.ndarray else series


def psi_inv_generic(y, a, theta, mx=FLOAT):
    """Inverse conjugacy through any arithmetic backend mx.

    Solves x^2 - x*(a - theta + y) + y*a = 0 for the root above a, using the
    cancellation-free branch of the quadratic formula.  On lanes each lane
    takes its own branch.
    """
    one = mx.num(1.0)
    y = mx.num(y) * one
    a = mx.num(a) * one
    theta = mx.num(theta) * one
    b = a - theta + y
    disc = b * b - 4.0 * y * a
    root = mx.sqrt(disc)
    plus = mx.value(b) >= 0.0
    if type(plus) is bool:  # one point: evaluate only the branch it takes
        if plus:
            return (b + root) / 2.0
        x_minus = (b - root) / 2.0
        return y * a / x_minus
    # x_minus may be 0 on a lane that takes the other branch
    with np.errstate(divide="ignore", invalid="ignore"):
        return mx.where(plus, (b + root) / 2.0, y * a / ((b - root) / 2.0))


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
    """coth(t) for t > 0 with a series branch near zero, any backend; on
    lanes each lane takes its own branch."""
    one = mx.num(1.0)
    t = mx.num(t) * one
    tv = mx.value(t)
    if _any(tv <= 0.0):
        raise ValueError("coth branch needs t > 0")
    near = tv < 0.01
    if type(near) is bool:  # one point: evaluate only the branch it takes
        if near:
            return _coth_series(t, one)
        return _coth_exp(t, one, mx)
    # one - e may be 0 on a lane that takes the series branch
    with np.errstate(divide="ignore", invalid="ignore"):
        return mx.where(near, _coth_series(t, one), _coth_exp(t, one, mx))


def _coth_series(t, one):
    t2 = t * t
    # 1/t + t/3 - t^3/45 + 2 t^5/945; next term ~ t^7/4725
    return one / t + t * (one / 3.0 - t2 * (one / 45.0 - t2 * (2.0 / 945.0)))


def _coth_exp(t, one, mx):
    e = mx.exp(-2.0 * t)
    return (one + e) / (one - e)


def j_generic(r, a, theta, mx=FLOAT):
    """Comparison function N*coth(nu*N/2), N = sqrt(1+4r), nu = -theta/a.

    Defined for r >= -1/4; at r = -1/4 the singularity is removable with
    value 2/nu, returned directly; near it the series branch of coth keeps
    full precision.  Any arithmetic backend mx, on one point or on lanes.
    """
    one = mx.num(1.0)
    r = mx.num(r) * one
    a = mx.num(a) * one
    theta = mx.num(theta) * one
    arg = one + 4.0 * r
    av = mx.value(arg)
    if _any(av < 0.0):
        raise ValueError("comparison function needs r >= -1/4")
    nu = -theta / a
    edge = av == 0.0
    if type(edge) is bool:  # one point
        if edge:
            return 2.0 * (one / nu)
        n = mx.sqrt(arg)
        return n * coth_stable(nu * n / 2.0, mx)
    # edge lanes run coth on arg = 1 and take 2/nu instead
    n = mx.sqrt(mx.where(edge, one, arg))
    return mx.where(edge, 2.0 * (one / nu), n * coth_stable(nu * n / 2.0, mx))


def j_tangent_coeffs(a, theta, mx=FLOAT):
    """Tangent line j0 + j1*r to the comparison function at r = 0, any backend."""
    return _float_runs(_j_tangent, a, theta, mx)


def _j_tangent(a, theta, mx=FLOAT):
    one = mx.num(1.0)
    a = mx.num(a) * one
    theta = mx.num(theta) * one
    lam = mx.exp(theta / a)
    j0 = (one + lam) / (one - lam)
    j1 = 2.0 * j0 + 4.0 * theta * lam / (a * (one - lam) * (one - lam))
    return j0, j1
