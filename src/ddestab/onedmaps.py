"""One-delay response maps of the envelope equation and their rational bounds.

For constant history z the solution of x' = -x + r(x(t-h)) crosses zero once
and reaches an extremum F(z) inside the next delay window; for the natural
ramp history the extremum is F1(z).  Both satisfy an implicit identity built
from an exact antiderivative of du / (r(u) - u-part), solved here with a
bracketed root finder on a cancellation-free difference form.  F_solve_r
and F1_solve_r also take an array of rz with per-lane parameters and solve
every lane in lockstep, each lane exactly as its scalar solve.

The explicit rational bounds (L, G, G1) and the polynomial certificates
(M, N, Q, S, T) reduce the map inequalities to sign checks that the verify
module sweeps on dense grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddouble import FLOAT
from .params import NormLanes, NormParams, _any
from .ratmaps import Coeffs, R_eval, R2_eval, _branch_slope, coeffs, j_tangent_coeffs, r_eval
from .rootfind import solve_bracketed

__all__ = [
    "IntervalI",
    "interval_I",
    "t1",
    "MapSolve",
    "phi_antiderivative",
    "phi_diff",
    "F_solve",
    "F_solve_r",
    "F1_solve",
    "F1_solve_r",
    "ramp_slope_ratio",
    "bound_L",
    "bound_G",
    "bound_G1",
    "mn_polys_generic",
    "q_poly_generic",
    "s_poly_generic",
    "t_chain_generic",
    "lambda_composite",
]


@dataclass(frozen=True)
class IntervalI:
    """Admissible constant-history interval (lo, hi], lo = -1.

    Proper when the slope-delay combination a(theta-1) exceeds theta;
    degenerate otherwise (hi <= 0 and the window argument breaks down).
    """

    lo: float
    hi: float
    proper: bool

    def contains(self, z: float) -> bool:
        return self.proper and self.lo < z <= self.hi


def interval_I(np_: NormParams) -> IntervalI:
    a, th = np_.a, np_.theta
    hi = a * (th - 1.0) / th - 1.0
    return IntervalI(lo=-1.0, hi=hi, proper=hi > 0.0)


def t1(z: float, np_: NormParams) -> float:
    """First zero crossing time, shifted into [-h, 0); decreasing in z."""
    iv = interval_I(np_)
    if not iv.proper:
        raise ValueError("admissible interval is empty: need a*(theta-1) > theta")
    if not iv.contains(z):
        raise ValueError(f"z = {z} outside admissible interval ({iv.lo}, {iv.hi:.6g}]")
    return -math.log(1.0 - (1.0 + z) / np_.a)


@dataclass(frozen=True)
class MapSolve:
    """Root-solve outcome for a response-map identity.

    value carries the map value, residual the identity defect at the root
    (|residual| <= 1e-11 in normal operation), bracket the final enclosing
    interval, iterations the solver count.
    """

    value: float
    residual: float
    bracket: tuple[float, float]
    iterations: int


def _sln(s: float) -> float:
    # (s - log1p(s)) / s^2, series branch to keep full precision near 0
    if abs(s) < 0.1:
        return _sln_series(s)
    return (s - math.log1p(s)) / (s * s)


def _sln_lanes(s: np.ndarray) -> np.ndarray:
    """_sln on each entry of an array, bitwise as on one float."""
    out = np.empty_like(s)
    near = np.abs(s) < 0.1
    out[near] = _sln_series(s[near])
    far = s[~near]
    # math.log1p per lane: np.log1p differs from it in the last bit
    log1p = np.fromiter(map(math.log1p, far.tolist()), float, far.size)
    out[~near] = (far - log1p) / (far * far)
    return out


def _sln_series(s):
    acc = 0.0
    p = 1.0
    for j in range(24):
        acc += ((-1) ** j) * p / (j + 2)
        p *= s
    return acc


def phi_antiderivative(u: float, rz: float, a: float) -> float:
    """Raw antiderivative whose differences encode the response identity.

    Direct differences of this form cancel catastrophically near the
    extremum; use phi_diff for any actual computation.  The rz = -1 case
    degenerates to a*log|u| - u.
    """
    eps = 1.0 + rz
    if eps == 0.0:
        if u == 0.0:
            raise ValueError("antiderivative singular at u = 0 for rz = -1")
        return a * math.log(abs(u)) - u
    v = u * eps - rz * a
    if v == 0.0:
        raise ValueError(f"antiderivative log singularity at u = {u}")
    return (a * math.log(abs(v)) - v) / (eps * eps)


def phi_diff(u2: float, u1: float, rz: float, a: float) -> float:
    """phi(u2) - phi(u1) in a cancellation-free form.

    Exact rewrite of the difference of phi_antiderivative values; stays
    accurate to machine precision when u2 and u1 are close or when
    rz -> -1, where the raw form loses every digit.  Takes arrays too.
    """
    eps = 1.0 + rz
    v1 = a - eps * (a - u1)
    # the lane test is inlined: this is the inner loop of every solve
    lanes = type(v1) is np.ndarray
    if (v1 == 0.0).any() if lanes else v1 == 0.0:
        raise ValueError("difference form hit the log singularity at u1")
    w = (u2 - u1) / v1
    s = eps * w
    if (s <= -1.0).any() if lanes else s <= -1.0:
        raise ValueError("difference form crossed the log singularity")
    return w * (a - u1) - a * w * w * (_sln_lanes(s) if lanes else _sln(s))


def _solve_identity(g, lo: float, hi: float) -> MapSolve:
    res = solve_bracketed(g, lo, hi)
    return MapSolve(
        value=res.root,
        residual=res.f_root,
        bracket=res.bracket,
        iterations=res.iterations,
    )


def _solve_F_identity(rz: float, np_: NormParams) -> MapSolve:
    a, th = np_.a, np_.theta

    def g(u: float) -> float:
        return phi_diff(u, rz, rz, a) - th

    if isinstance(rz, np.ndarray):
        return _solve_identity(g, np.minimum(rz, 0.0), np.maximum(rz, 0.0))
    if rz < 0.0:
        return _solve_identity(g, rz, 0.0)
    return _solve_identity(g, 0.0, rz)


def F_solve(z: float, np_: NormParams) -> MapSolve:
    """Extremal response to constant history z; sign opposite to z.

    Defined on the admissible interval; z = 0 returns the exact zero map.
    """
    iv = interval_I(np_)
    if not iv.proper:
        raise ValueError("admissible interval is empty: need a*(theta-1) > theta")
    if z == 0.0:
        return MapSolve(0.0, 0.0, (0.0, 0.0), 0)
    if not iv.contains(z):
        raise ValueError(f"z = {z} outside admissible interval ({iv.lo}, {iv.hi:.6g}]")
    return _solve_F_identity(r_eval(z, np_.a), np_)


def F_solve_r(rz: float, np_: NormParams) -> MapSolve:
    """Constant-history response indexed by the envelope value rz = r(z).

    Avoids huge z when sweeping rz near its deep end.  Negative rz must stay
    at or above the branch slope a_star (otherwise z leaves the admissible
    interval); any positive rz is admissible.  A 1-D array rz solves one lane
    per entry, with one NormParams for all lanes or a NormLanes of rz's length.
    """
    a_star = _branch_slope(np_.a, np_.theta)
    if _any((rz < 0.0) & (rz < a_star)):
        raise ValueError(f"rz = {rz} below branch slope {a_star}")
    if isinstance(rz, np.ndarray):
        return _lane_solves(_solve_F_identity, rz, np_)
    if rz == 0.0:
        return MapSolve(0.0, 0.0, (0.0, 0.0), 0)
    return _solve_F_identity(rz, np_)


# lanes per lockstep solve: 8,192-lane blocks were no faster and raised the
# sweep's peak resident memory by more than a megabyte
_LANE_BLOCK = 4096


def _lane_solves(solve_identity, rz: np.ndarray, np_: NormParams) -> MapSolve:
    """A response map on lanes, in blocks of at most _LANE_BLOCK lanes.

    Lanes with rz = 0 get the exact zero map, as the scalar forms give it.
    The result holds one array entry per lane and the summed iterations.
    """
    a, th = (np.broadcast_to(v, rz.shape) for v in (np_.a, np_.theta))
    value, residual, lo, hi = (np.zeros(rz.shape) for _ in range(4))
    iterations = 0
    lanes = np.flatnonzero(rz != 0.0)
    for start in range(0, lanes.size, _LANE_BLOCK):
        sel = lanes[start : start + _LANE_BLOCK]
        res = solve_identity(rz[sel], NormLanes(a=a[sel], theta=th[sel]))
        value[sel], residual[sel] = res.value, res.residual
        lo[sel], hi[sel] = res.bracket
        iterations += res.iterations
    return MapSolve(value, residual, (lo, hi), iterations)


def ramp_slope_ratio(rz: float, np_: NormParams) -> float:
    """Envelope value one delay after a ramp history with deep value rz.

    Moebius in rz: a*rz*(theta-1) / (theta + rz*(theta-1)); fixes the branch
    slope a_star and contracts (a, 0) into itself.  rz may be an array.
    """
    th = np_.theta
    den = th + rz * (th - 1.0)
    if _any(den == 0.0):
        raise ValueError("ramp slope ratio pole")
    return np_.a * rz * (th - 1.0) / den


def _solve_F1_identity(rz: float, np_: NormParams) -> MapSolve:
    a, th = np_.a, np_.theta
    r1 = ramp_slope_ratio(rz, np_)
    target = r1 * th / rz

    def g(u: float) -> float:
        return phi_diff(u, r1, rz, a) - target

    return _solve_identity(g, r1, 0.0)


def F1_solve(z: float, np_: NormParams) -> MapSolve:
    """Extremal response to the natural ramp history; defined for z >= 0."""
    if z < 0.0:
        raise ValueError(f"ramp response needs z >= 0, got {z}")
    if z == 0.0:
        return MapSolve(0.0, 0.0, (0.0, 0.0), 0)
    return _solve_F1_identity(r_eval(z, np_.a), np_)


def F1_solve_r(rz: float, np_: NormParams) -> MapSolve:
    """Ramp response indexed by the envelope value rz in (a, 0).

    Takes lanes as F_solve_r does.
    """
    if not np.all((np_.a < rz) & (rz < 0.0)):
        raise ValueError(f"rz = {rz} outside ({np_.a}, 0)")
    if isinstance(rz, np.ndarray):
        return _lane_solves(_solve_F1_identity, rz, np_)
    return _solve_F1_identity(rz, np_)


# ---------------------------------------------------------------------------
# explicit rational bounds


def bound_L(r: float, np_: NormParams) -> float:
    """Two-term rational minorant of the constant-history response near 0.

    Built from the tangent line of the comparison function: slope alpha at
    the origin with a quadratic correction over a linear denominator.  r may
    be an array.
    """
    c = coeffs(np_)
    _, j1 = j_tangent_coeffs(np_.a, np_.theta)
    a1 = c.alpha
    a2 = 0.5 * j1 * (1.0 - c.lam)
    a3 = (1.0 - c.lam) / np_.a + a2
    den = 1.0 + a3 * r
    if _any(den == 0.0):
        raise ValueError(f"minorant pole at r = {-1.0 / a3:.6g}")
    return (a1 * r + a2 * r * r) / den


def bound_G(r: float, np_: NormParams) -> float:
    """Closed-form minorant of the ramp response at unit slope ratio."""
    a, th = np_.a, np_.theta
    th3 = th ** 3
    num = a * a * (1.0 - th) + th * a / 2.0 + th3 * (-r - 0.25) * (1.0 / (2.0 * a) - 1.0) / 3.0
    den = a * a - th * (r + a / 2.0) - th3 * (-r - 0.25) * (a / 2.0 + r) / (3.0 * a * a)
    if den == 0.0:
        raise ValueError("ramp minorant pole")
    return r * num / den


def _g1_parts(P: float, np_: NormParams) -> tuple[float, float, float, float, float]:
    a, th = np_.a, np_.theta
    th3 = th ** 3
    P2 = P * P
    P3 = P2 * P
    P4 = P3 * P
    a2 = a * a
    a3 = a2 * a
    a4 = a3 * a
    A1 = (1.0 - th) * P + (th / (2.0 * a)) * P2 + (th3 / (24.0 * a3)) * (2.0 * a - P) * P3
    A2 = (th3 / (6.0 * a3)) * (2.0 * a - P) * P3
    B0 = 1.0 - th * P / (2.0 * a) + th3 * P3 / (24.0 * a3)
    B1 = -th * P2 / a2 + th3 * P3 / (6.0 * a3) + th3 * P4 / (12.0 * a4)
    B2 = th3 * P4 / (3.0 * a4)
    return A1, A2, B0, B1, B2


def _g1_fraction(r: float, np_: NormParams, P: float) -> tuple[float, float]:
    """Numerator and denominator of the ramp minorant bound_G1 at slope ratio P."""
    A1, A2, B0, B1, B2 = _g1_parts(P, np_)
    return A1 * r + A2 * r * r, B0 + r * (B1 + r * B2)


def bound_G1(r: float, np_: NormParams, P: float | None = None) -> float:
    """Taylor-remainder minorant of the ramp response at slope ratio P.

    P defaults to the ratio generated by r itself; P = 1 reproduces bound_G.
    """
    if P is None:
        P = ramp_slope_ratio(r, np_) / r if r != 0.0 else 1.0
    num, den = _g1_fraction(r, np_, P)
    if den == 0.0:
        raise ValueError("ramp minorant pole")
    return num / den


# ---------------------------------------------------------------------------
# polynomial certificates


def mn_polys_generic(r, a, theta, mx=FLOAT):
    """Numerator and denominator polynomials clearing the minorant bound.

    M = 24*(A1 + A2 r)*(theta + r(theta-1))^4 and likewise N for the B side,
    expanded so only ring operations remain (safe in any backend).
    """
    one = mx.num(1.0)
    r = mx.num(r) * one
    a = mx.num(a) * one
    th = mx.num(theta) * one
    q = th - 1.0
    q2 = q * q
    q3 = q2 * q
    q4 = q3 * q
    th2 = th * th
    th3 = th2 * th
    th4 = th3 * th
    th5 = th4 * th
    m_c0 = 13.0 * th3 - th5
    m_c1 = -2.0 * th2 * q * (th + 3.0) * (3.0 * th - 8.0)
    m_c2 = -4.0 * th * (2.0 * th2 - 15.0) * q2
    m_c3 = 24.0 * q3
    m_val = -q2 * a * (m_c0 + r * (m_c1 + r * (m_c2 + r * m_c3)))
    n_c0 = 35.0 * th4 - 9.0 * th5 + th4 * th3 - 3.0 * th5 * th
    n_c1 = th3 * q * (7.0 * th3 - 17.0 * th2 - 47.0 * th + 153.0)
    n_c2 = 12.0 * th2 * (th3 - 2.0 * th2 - 6.0 * th + 19.0) * q2
    n_c3 = -12.0 * th * (3.0 * th - 11.0) * q3
    n_c4 = 24.0 * q4
    n_val = n_c0 + r * (n_c1 + r * (n_c2 + r * (n_c3 + r * n_c4)))
    return m_val, n_val


def q_poly_generic(r, a, theta, mx=FLOAT, alpha=None, beta=None):
    """Certificate polynomial (1 - r*beta)*M - alpha*N; <= 0 closes the chain."""
    from .ratmaps import coeffs_generic

    one = mx.num(1.0)
    r = mx.num(r) * one
    if alpha is None or beta is None:
        _, alpha, beta, _ = coeffs_generic(a, theta, mx)
    m_val, n_val = mn_polys_generic(r, a, theta, mx)
    return (one - r * beta) * m_val - alpha * n_val


def s_poly_generic(r, a, theta, mx=FLOAT, alpha=None, beta=None):
    """Derivative of the certificate polynomial in r, in expanded form."""
    from .ratmaps import coeffs_generic

    one = mx.num(1.0)
    r = mx.num(r) * one
    a = mx.num(a) * one
    th = mx.num(theta) * one
    if alpha is None or beta is None:
        _, alpha, beta, _ = coeffs_generic(a, theta, mx)
    q = th - 1.0
    q2 = q * q
    q3 = q2 * q
    q4 = q3 * q
    q5 = q4 * q
    th2 = th * th
    th3 = th2 * th
    s3 = 96.0 * q4 * (beta * a * q - alpha)
    s2 = (
        -12.0 * q4 * a * th * (2.0 * th2 - 15.0) * beta
        + 36.0 * th * q3 * (3.0 * th - 11.0) * alpha
        - 72.0 * q5 * a
    )
    s1 = (
        -4.0 * a * th2 * q3 * (th + 3.0) * (3.0 * th - 8.0) * beta
        - 24.0 * th2 * q2 * (th3 - 2.0 * th2 - 6.0 * th + 19.0) * alpha
        + 8.0 * a * th * q4 * (2.0 * th2 - 15.0)
    )
    s0 = (
        a * th3 * q2 * (13.0 - th2) * beta
        - th3 * q * (7.0 * th3 - 17.0 * th2 - 47.0 * th + 153.0) * alpha
        + 2.0 * a * th2 * q3 * (th + 3.0) * (3.0 * th - 8.0)
    )
    return s0 + r * (s1 + r * (s2 + r * s3))


def t_chain_generic(a, theta, mx=FLOAT, alpha=None):
    """Descending control sequence (T3, T2, T1, T0) for the derivative sign."""
    from .ratmaps import coeffs_generic

    one = mx.num(1.0)
    a = mx.num(a) * one
    th = mx.num(theta) * one
    if alpha is None:
        _, alpha, _, _ = coeffs_generic(a, theta, mx)
    q = th - 1.0
    q2 = q * q
    th2 = th * th
    th3 = th2 * th
    t3 = th * alpha
    t2 = (-6.0 * a * q2 + 3.0 * th * (3.0 * th - 11.0) * alpha) / (2.0 * th2 - 15.0)
    t1 = (
        2.0 * a * q2 * (2.0 * th2 - 15.0)
        - 6.0 * th * (th3 - 2.0 * th2 - 6.0 * th + 19.0) * alpha
    ) / (3.0 * th2 + th - 24.0)
    t0 = (
        2.0 * a * q2 * (3.0 * th2 + th - 24.0)
        - th * (7.0 * th3 - 17.0 * th2 - 47.0 * th + 153.0) * alpha
    ) / (th2 - 13.0)
    return t3, t2, t1, t0


def lambda_composite(x: float, np_: NormParams, c: Coeffs | None = None) -> float:
    """One full cycle of the small-mu composite bound, defined for x >= 0.

    Envelope, corner response, envelope again, Moebius response; its slope
    at 0 is the gamma coefficient and stays below 1 on the corner region.
    """
    if x < 0.0:
        raise ValueError(f"composite cycle needs x >= 0, got {x}")
    if c is None:
        c = coeffs(np_)
    v1 = r_eval(x, np_.a)
    v2 = R2_eval(v1, np_)
    if v2 <= -1.0:
        raise ValueError(f"corner response left the state space: {v2}")
    v3 = r_eval(v2, np_.a)
    return R_eval(v3, c)
