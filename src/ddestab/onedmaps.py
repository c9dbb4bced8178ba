"""One-delay response maps of the envelope equation and their rational bounds.

For constant history z the solution of x' = -x + r(x(t-h)) crosses zero once
and reaches an extremum F(z) inside the next delay window; for the natural
ramp history the extremum is F1(z).  Both are roots of one identity,
phi(u) - phi(u1) = c, with phi an exact antiderivative of du / (r(u) -
u-part); the maps differ only in the bracket, u1 and c.  It is solved with a
bracketed root finder on a cancellation-free difference form.  F_solve_r
and F1_solve_r also take an array of rz with per-lane parameters, and
F_solve and F1_solve an array of z, and solve every lane in lockstep, each
lane exactly as its scalar solve; F_F1_solve runs the lanes of both maps in
one such solve.

The explicit rational bounds (L, G1) and the polynomial certificates
(M, N, Q, S, T) reduce the map inequalities to sign checks that the verify
module sweeps on dense grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddouble import FLOAT, _each, _libm
from .params import NormLanes, NormParams, _any
from .ratmaps import Coeffs, R_eval, R2_eval, _branch_slope, coeffs, j_tangent_coeffs, r_eval
from .rootfind import solve_bracketed

__all__ = [
    "IntervalI",
    "interval_I",
    "MapSolve",
    "F_solve",
    "F_solve_r",
    "F1_solve",
    "F1_solve_r",
    "F_F1_solve",
    "ramp_slope_ratio",
    "bound_L",
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
        """Whether z lies in the interval; a mask of the entries for an array z."""
        return self.proper and (self.lo < z) & (z <= self.hi)


def interval_I(np_: NormParams) -> IntervalI:
    a, th = np_.a, np_.theta
    hi = a * (th - 1.0) / th - 1.0
    return IntervalI(lo=-1.0, hi=hi, proper=hi > 0.0)


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
    # solver iterates do not repeat, so libm runs on each entry without
    # looking for runs
    out[~near] = (far - _each(math.log1p, far)) / (far * far)
    return out


def _sln_series(s):
    # sum of (-s)^j / (j + 2) for j < 24; the sign goes into the add or
    # subtract, as (-p)/d and -(p/d) round alike.
    # For |s| < 0.1 every partial sum lies in (0.46, 0.54), where floats are
    # at least 2**-54 apart.  With m = max|s|, fl(m**j)/(j + 2) bounds the
    # j-th term of every entry (rounding is monotone); once it is below
    # 2**-57 the term, and each later and smaller one, leaves every sum
    # unchanged, so the loop stops there.  A NaN m never stops it.
    m = float(np.abs(s).max(initial=0.0)) if type(s) is np.ndarray else abs(s)
    acc = 0.5 - s / 3.0
    p = s * s
    pm = m * m
    for j in range(2, 24):
        if pm / (j + 2) < 2.0**-57:
            break
        if j % 2:
            acc -= p / (j + 2)
        else:
            acc += p / (j + 2)
        p *= s
        pm *= m
    return acc


def _phi_base(u1, rz, a) -> tuple:
    """(1 + rz, v1, a - u1): the difference form's terms at u1, which depend
    on neither u2 nor c, so a solve takes them once per lane.

    v1 = a - (1 + rz)*(a - u1) is v at u1.  At a tiny u1 and rz the product
    rounds to a; where v1 has cancelled so, below 2**-26 * max(|a|, 1), it
    is taken as (1 + rz)*u1 - rz*a, the same number with terms that shrink
    with u1 and rz.
    """
    eps = 1.0 + rz
    d1 = a - u1
    v1 = a - eps * d1
    if type(v1) is np.ndarray:
        cancelled = np.abs(v1) < 2.0**-26 * np.maximum(np.abs(a), 1.0)
        v1 = np.where(cancelled, eps * u1 - rz * a, v1)
    elif abs(v1) < 2.0**-26 * max(abs(a), 1.0):
        v1 = eps * u1 - rz * a
    if _any(v1 == 0.0):
        raise ValueError("difference form hit the log singularity at u1")
    return eps, v1, d1


def _identity(u, u1, a, eps, v1, d1, c):
    # both maps solve phi(u) - phi(u1) = c for u; F and F1 differ only in
    # their bracket, u1 and c, which _F_setup and _F1_setup give, and take
    # the terms at u1 from _phi_base.  The lane test is inlined: this is the
    # inner loop of every solve
    w = (u - u1) / v1
    s = eps * w
    lanes = type(s) is np.ndarray
    if (s <= -1.0).any() if lanes else s <= -1.0:
        raise ValueError("difference form crossed the log singularity")
    return w * d1 - a * w * w * (_sln_lanes(s) if lanes else _sln(s)) - c


def _F_setup(rz, np_: NormParams) -> tuple:
    """(lo, hi, u1, c) of the constant-history identity at rz."""
    if isinstance(rz, np.ndarray):
        return np.minimum(rz, 0.0), np.maximum(rz, 0.0), rz, np_.theta
    return min(rz, 0.0), max(rz, 0.0), rz, np_.theta


def _F1_setup(rz, np_: NormParams) -> tuple:
    """(lo, hi, u1, c) of the ramp identity at rz: u from r1 up to 0."""
    r1 = ramp_slope_ratio(rz, np_)
    return r1, 0.0, r1, r1 * np_.theta / rz


def _map_solve(setup, rz, np_: NormParams) -> MapSolve:
    """A response map at the envelope value rz, or on each lane of an array rz.

    rz = 0 gives the exact zero map; the lanes run as _lane_solves does.
    """
    if isinstance(rz, np.ndarray):
        return _lane_solves([(setup, rz, np_)])[0]
    if rz == 0.0:
        return MapSolve(0.0, 0.0, (0.0, 0.0), 0)
    lo, hi, u1, c = setup(rz, np_)
    a = np_.a
    res = solve_bracketed(_identity, lo, hi, args=(u1, a, *_phi_base(u1, rz, a), c))
    return MapSolve(res.root, res.f_root, res.bracket, res.iterations)


def _lane_solves(parts) -> list[MapSolve]:
    """One MapSolve per part (setup, rz, np_), solving every lane of every part at once.

    rz is a 1-D array and np_ one NormParams for its lanes or a NormLanes of
    its length.  A zero rz gives the exact zero map on its lane; all other
    lanes, of all parts, run in one lockstep solve, each lane exactly as its
    scalar solve.  A part's result holds one array entry per lane of its rz
    and the iterations of its lanes.
    """
    cols, sels = [], []
    for setup, rz, np_ in parts:
        a, th = (np.broadcast_to(v, rz.shape) for v in (np_.a, np_.theta))
        sel = np.flatnonzero(rz != 0.0)
        r, lanes = rz[sel], NormLanes(a=a[sel], theta=th[sel])
        lo, hi, u1, c = setup(r, lanes)
        cols.append([np.broadcast_to(v, sel.shape) for v in (lo, hi, u1, r, lanes.a, c)])
        sels.append(sel)
    lo, hi, u1, r, a, c = (np.concatenate(col) for col in zip(*cols))
    res = None
    if lo.size:
        res = solve_bracketed(_identity, lo, hi, args=(u1, a, *_phi_base(u1, r, a), c))
    out, start = [], 0
    for (_, rz, _), sel in zip(parts, sels):
        value, residual, end_a, end_b = (np.zeros(rz.shape) for _ in range(4))
        done = slice(start, start + sel.size)
        start = done.stop
        iterations = 0
        if res is not None:
            value[sel], residual[sel] = res.root[done], res.f_root[done]
            end_a[sel], end_b[sel] = res.bracket[0][done], res.bracket[1][done]
            iterations = int(res.lane_iterations[done].sum())
        out.append(MapSolve(value, residual, (end_a, end_b), iterations))
    return out


def _check_F_domain(z, np_: NormParams) -> None:
    iv = interval_I(np_)
    if not iv.proper:
        raise ValueError("admissible interval is empty: need a*(theta-1) > theta")
    if not np.all(iv.contains(z)):
        raise ValueError(f"z = {z} outside admissible interval ({iv.lo}, {iv.hi:.6g}]")


def _check_F1_domain(z) -> None:
    if _any(z < 0.0):
        raise ValueError(f"ramp response needs z >= 0, got {z}")


def F_solve(z: float, np_: NormParams) -> MapSolve:
    """Extremal response to constant history z; sign opposite to z.

    Defined on the admissible interval; z = 0 returns the exact zero map.
    A 1-D array z solves one lane per entry, as F_solve_r does.
    """
    _check_F_domain(z, np_)
    return _map_solve(_F_setup, r_eval(z, np_.a), np_)


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
    return _map_solve(_F_setup, rz, np_)


def ramp_slope_ratio(rz: float, np_: NormParams) -> float:
    """Envelope value one delay after a ramp history with deep value rz.

    Moebius in rz: a*rz*(theta-1) / (theta + rz*(theta-1)); fixes the branch
    slope a_star and contracts (a, 0) into itself.  rz may be an array, and
    np_ a NormLanes of its length.
    """
    th = np_.theta
    den = th + rz * (th - 1.0)
    if _any(den == 0.0):
        raise ValueError("ramp slope ratio pole")
    return np_.a * rz * (th - 1.0) / den


def F1_solve(z: float, np_: NormParams) -> MapSolve:
    """Extremal response to the natural ramp history; defined for z >= 0.

    Takes lanes as F_solve does.
    """
    _check_F1_domain(z)
    return _map_solve(_F1_setup, r_eval(z, np_.a), np_)


def F1_solve_r(rz: float, np_: NormParams) -> MapSolve:
    """Ramp response indexed by the envelope value rz in (a, 0).

    Takes lanes as F_solve_r does.
    """
    if not np.all((np_.a < rz) & (rz < 0.0)):
        raise ValueError(f"rz = {rz} outside ({np_.a}, 0)")
    return _map_solve(_F1_setup, rz, np_)


def F_F1_solve(z: np.ndarray, z1: np.ndarray, np_: NormParams) -> tuple[MapSolve, MapSolve]:
    """F_solve(z, np_) and F1_solve(z1, np_) as one lockstep solve.

    z and z1 are 1-D arrays, each in its map's domain (an empty z needs no
    admissible interval); the lanes of both run together, and each result is
    bitwise the one its own call gives.
    """
    if z.size:
        _check_F_domain(z, np_)
    _check_F1_domain(z1)
    parts = [(_F_setup, r_eval(z, np_.a), np_), (_F1_setup, r_eval(z1, np_.a), np_)]
    return tuple(_lane_solves(parts))


# ---------------------------------------------------------------------------
# explicit rational bounds


def bound_L(r: float, np_: NormParams) -> float:
    """Two-term rational minorant of the constant-history response near 0.

    Built from the tangent line of the comparison function: slope alpha at
    the origin with a quadratic correction over a linear denominator.  r may
    be an array, and np_ a NormLanes of its length.
    """
    c = coeffs(np_)
    _, j1 = j_tangent_coeffs(np_.a, np_.theta)
    a1 = c.alpha
    a2 = 0.5 * j1 * (1.0 - c.lam)
    a3 = (1.0 - c.lam) / np_.a + a2
    den = 1.0 + a3 * r
    if _any(den == 0.0):
        raise ValueError(f"minorant pole at r = {-1.0 / a3}")
    return (a1 * r + a2 * r * r) / den


def _g1_parts(P: float, np_: NormParams) -> tuple[float, float, float, float, float]:
    a, th = np_.a, np_.theta
    # libm pow on each entry: numpy's ** 3 differs from it in the last bit
    th3 = _libm(lambda t: t ** 3, th)
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
    """Numerator and denominator of the Taylor-remainder minorant G1 of the
    ramp response at slope ratio P: P = ramp_slope_ratio(r)/r bounds the
    ramp response at r, and P = 1 the constant-history one."""
    A1, A2, B0, B1, B2 = _g1_parts(P, np_)
    return A1 * r + A2 * r * r, B0 + r * (B1 + r * B2)


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


def q_poly_generic(r, a, theta, mx=FLOAT, *, alpha, beta):
    """Certificate polynomial (1 - r*beta)*M - alpha*N; <= 0 closes the chain."""
    one = mx.num(1.0)
    r = mx.num(r) * one
    m_val, n_val = mn_polys_generic(r, a, theta, mx)
    return (one - r * beta) * m_val - alpha * n_val


def s_poly_generic(r, a, theta, mx=FLOAT, *, alpha, beta):
    """Derivative of the certificate polynomial in r, in expanded form."""
    one = mx.num(1.0)
    r = mx.num(r) * one
    a = mx.num(a) * one
    th = mx.num(theta) * one
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


def t_chain_generic(a, theta, mx=FLOAT, *, alpha):
    """Descending control sequence (T3, T2, T1, T0) for the derivative sign."""
    one = mx.num(1.0)
    a = mx.num(a) * one
    th = mx.num(theta) * one
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


def lambda_composite(x: float, np_: NormParams, c: Coeffs) -> float:
    """One full cycle of the small-mu composite bound, defined for x >= 0.

    Envelope, corner response, envelope again, Moebius response with c, the
    coefficient pack at np_; its slope at 0 is the gamma coefficient and
    stays below 1 on the corner region.
    """
    if x < 0.0:
        raise ValueError(f"composite cycle needs x >= 0, got {x}")
    v1 = r_eval(x, np_.a)
    v2 = R2_eval(v1, np_)
    if v2 <= -1.0:
        raise ValueError(f"corner response left the state space: {v2}")
    v3 = r_eval(v2, np_.a)
    return R_eval(v3, c)
