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
one such solve.  The lane forms of F_solve_r and F1_solve_r take a settled
predicate: it first sees each lane's bracket ends and, with a probe root,
one more evaluation of the identity (_settle_early), and then the root
solve's iterations on the lanes it leaves (see rootfind).

The explicit rational bounds (L, G1) and the polynomial certificates
(M, N, Q, S, T) reduce the map inequalities to sign checks that the verify
module sweeps on dense grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ddouble import FLOAT, _each, _libm
from .params import NormLanes, NormParams, _any, _per_base
from .ratmaps import Coeffs, R_eval, R2_eval, _branch_slope, _j_tangent, coeffs, r_eval
from .rootfind import _XTOL, BracketError, solve_bracketed

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
    """Admissible constant-history interval (-1, hi]: its left end is the
    envelope pole at -1.

    Proper when the slope-delay combination a(theta-1) exceeds theta;
    degenerate otherwise (hi <= 0 and the window argument breaks down).
    """

    hi: float
    proper: bool

    def contains(self, z: float) -> bool:
        """Whether z lies in the interval; a mask of the entries for an array z."""
        return self.proper and (-1.0 < z) & (z <= self.hi)


def interval_I(np_: NormParams) -> IntervalI:
    a, th = np_.a, np_.theta
    hi = a * (th - 1.0) / th - 1.0
    return IntervalI(hi=hi, proper=hi > 0.0)


@dataclass(frozen=True)
class MapSolve:
    """Root-solve outcome for a response-map identity.

    value carries the map value, residual the identity defect at the root
    (|residual| <= 1e-11 in normal operation), bracket the final enclosing
    interval, iterations the solver count.  For lanes solved with a settled
    predicate, settled flags the lanes it stopped: their value is only known
    to lie, with the full solve's, in [min(bracket[0], value),
    max(bracket[1], value)].  exhausted flags a root solve that reached the
    solver's iteration limit (see rootfind), per lane for lanes.
    """

    value: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    settled: np.ndarray | None = None
    exhausted: bool | np.ndarray = False


def _sln(s: float) -> float:
    # (s - log1p(s)) / s^2, series branch to keep full precision near 0
    if abs(s) < 0.1:
        return _sln_series(s)
    return (s - math.log1p(s)) / (s * s)


def _sln_lanes(s: np.ndarray) -> np.ndarray:
    """_sln on each entry of an array, bitwise as on one float."""
    near = np.abs(s) < 0.1
    k = np.count_nonzero(near)
    if k == s.size:
        return _sln_series(s)
    # solver iterates do not repeat, so libm runs on each entry without
    # looking for runs
    if not k:
        return (s - _each(math.log1p, s)) / (s * s)
    out = np.empty_like(s)
    at_near, at_far = near.nonzero()[0], (~near).nonzero()[0]
    out[at_near] = _sln_series(s[at_near])
    far = s[at_far]
    out[at_far] = (far - _each(math.log1p, far)) / (far * far)
    return out


def _sln_series(s):
    # sum of (-s)^j / (j + 2) for j < 24; the sign goes into the add or
    # subtract, as (-p)/d and -(p/d) round alike.
    # For |s| < 0.1 every partial sum lies in (0.46, 0.54), where floats are
    # at least 2**-54 apart.  With m = max|s|, fl(m**j)/(j + 2) bounds the
    # j-th term of every entry (rounding is monotone); once it is below
    # 2**-57 the term, and each later and smaller one, leaves every sum
    # unchanged, so the loop stops there.  A NaN m never stops it.
    # On lanes each term is divided into one buffer, by the float j + 2
    # (the int converts to it exactly)
    lanes = type(s) is np.ndarray
    m = float(np.abs(s).max(initial=0.0)) if lanes else abs(s)
    acc = 0.5 - s / 3.0
    p = s * s
    pm = m * m
    term = np.empty_like(s) if lanes else None
    for j in range(2, 24):
        d = j + 2.0
        if pm / d < 2.0**-57:
            break
        if lanes:
            np.divide(p, d, out=term)
        else:
            term = p / d
        if j % 2:
            acc -= term
        else:
            acc += term
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
    if np.count_nonzero(s <= -1.0) if lanes else s <= -1.0:
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


def _map_solve(setup, rz, np_: NormParams, settled=None) -> MapSolve:
    """A response map at the envelope value rz, or on each lane of an array rz.

    rz = 0 gives the exact zero map; the lanes run as _lane_solves does,
    with settled, and a scalar solve runs to the end.
    """
    if isinstance(rz, np.ndarray):
        return _lane_solves([(setup, rz, np_)], settled)[0]
    if rz == 0.0:
        return MapSolve(0.0, 0.0, (0.0, 0.0), 0)
    lo, hi, u1, c = setup(rz, np_)
    a = np_.a
    res = solve_bracketed(_identity, lo, hi, args=(u1, a, *_phi_base(u1, rz, a), c))
    return MapSolve(res.root, res.f_root, res.bracket, res.iterations, exhausted=res.exhausted)


def _identity_bound(u, u1, a, eps, v1, d1, c):
    """A bound on the rounding error of _identity at the lanes' points u,
    against the exact identity at the same float inputs.

    In units of 2**-53 the error is at most 5*|w*d1| + |c| + 53*T, where
    T = |a|*w*w/min(1, 1 + s) is at least twice |a*w*w*sln(s)|, as sln(s)
    <= 1/(2*min(1, 1 + s)).  Of the 53: 4 for the products, 1 for the last
    subtractions, 6 for the rounding of s (s*sln'(s) is at most 1/(1 + s)
    + 2*sln(s)), and 42 for sln itself, the larger of the series' 14 and,
    for |s| >= 0.1, 2 for the quotient's roundings and 40 for libm's log1p
    within 2 ulps, which that branch scales by |log1p(s)|/s**2 <= 10/min(1,
    1 + s).  The bound takes 2**-46 on each term, over twice that.  Each
    term grows with |w|, so the bound at u holds between u1 and u too.
    """
    w = (u - u1) / v1
    s = eps * w
    return 2.0**-46 * (np.abs(w * d1) + np.abs(c) + np.abs(a) * w * w / np.minimum(1.0, 1.0 + s))


def _other_end(lo, hi, args) -> tuple:
    """(at_lo, other, f_other): whether each lane's u1 end is lo, its other
    bracket end, and the identity there.  At the u1 end, always one bracket
    end, the identity is exactly -c, as w = +-0 there, so a solve takes f at
    both ends with one evaluation, at the other end alone."""
    at_lo = args[0] == lo
    other = np.where(at_lo, hi, lo)
    return at_lo, other, _identity(other, *args)


def _settle_early(settled, rows, lo, hi, args, at_lo, other, f_other) -> tuple:
    """The lanes a settled predicate stops before any lockstep solve.

    at_lo, other and f_other are _other_end's, and the identity at the u1
    end is -c; a bracket without a sign change raises BracketError as the
    solve would.  The predicate first sees the ends-only enclosure [lo, hi],
    as at the solve's first iteration.  A lane it leaves is then evaluated
    at the probe root t that settled.probe(rows, width) gives for the stop
    width width (verify's _settle_above attaches the probe to every
    predicate it builds); a t that does not lie strictly inside the bracket
    leaves its lane to the solve.

    The exact identity's slope in u is (d1 - a*w/(1 + s))/v1.  As a < 0
    and 1 + s > 0, it keeps one sign on [u1, t] where d1 and w(t) have the
    same sign, as on every bracket of the sweeps; the probe asks for that.
    Where f(t) also has the u1 end's sign and |f(t)| > 2*E(t), E =
    _identity_bound, the exact identity has that sign at t, so the root
    lies past t, |f| falls from u1 to t, and every computed f on [u1, t]
    keeps that sign too: E(t) bounds the error there.  The full solve then
    ends with a bracket past t and at most the stop width wide, inside
    [t - width, other end] (mirrored where u1 is hi), and the predicate
    sees that enclosure.  The point the solve returns, the best it visits,
    lies in that bracket unless rounding makes an earlier point below
    t - width look closer to the root than every later one, which no lane
    of the sweep grids at resolutions 16 and 64 does.

    Returns the mask of the stopped lanes, and each lane's best point, f
    there and enclosure, which the stopped lanes report.
    """
    u1, c = args[0], args[-1]
    f_u1 = -c
    signed = (f_u1 != 0.0) & (f_other != 0.0)
    same_sign = signed & ((f_u1 > 0.0) == (f_other > 0.0))
    if same_sign.any():
        raise BracketError(f"no sign change in {int(same_sign.sum())} of {lo.size} lanes")
    u1_best = np.abs(f_u1) <= np.abs(f_other)
    x, fx = np.where(u1_best, u1, other), np.where(u1_best, f_u1, f_other)
    end_a, end_b = lo.copy(), hi.copy()
    done = settled(rows, lo, hi)
    left = np.flatnonzero(~done & signed)
    if left.size:
        width = _XTOL * np.maximum(1.0, np.maximum(np.abs(lo[left]), np.abs(hi[left])))
        t = settled.probe(rows[left], width)
        inside = (lo[left] < t) & (t < hi[left])
        left, t, width = left[inside], t[inside], width[inside]
        part = [v[left] for v in args]
        f_t = _identity(t, *part)
        lane_u1, _, _, lane_v1, lane_d1, _ = part
        sure = (f_t != 0.0) & ((f_t > 0.0) == (f_u1[left] > 0.0))
        sure &= lane_d1 * ((t - lane_u1) / lane_v1) > 0.0  # d1 and w(t) of one sign
        sure &= np.abs(f_t) > 2.0 * _identity_bound(t, *part)
        left, t, width, f_t = left[sure], t[sure], width[sure], f_t[sure]
        low = np.where(at_lo[left], t - width, lo[left])
        high = np.where(at_lo[left], hi[left], t + width)
        stop = settled(rows[left], low, high)
        left = left[stop]
        done[left] = True
        x[left], fx[left], end_a[left], end_b[left] = t[stop], f_t[stop], low[stop], high[stop]
    return done, x, fx, end_a, end_b


def _lane_solves(parts, settled=None) -> list[MapSolve]:
    """One MapSolve per part (setup, rz, np_), solving every lane of every part at once.

    rz is a 1-D array and np_ one NormParams for its lanes or a NormLanes of
    its length.  A zero rz gives the exact zero map on its lane; all other
    lanes, of all parts, run in one lockstep solve, each lane exactly as its
    scalar solve.  That solve takes the identity at the bracket ends from
    _other_end, which evaluates it at the u1 end of none.  A part's result
    holds one array entry per lane of its rz and the iterations of its
    lanes.

    settled, if given, is the root solve's predicate for a call of one
    part, with each lane named by its index into rz; a zero rz is never
    offered to it.  It first sees each lane's ends-only enclosure and then
    the enclosure one evaluation of the identity at the probe root that its
    probe gives (_settle_early); the lanes it stops there take no
    iteration, and only the others run the lockstep solve.  The result then
    flags its settled lanes.
    """
    cols, sels = [], []
    for setup, rz, np_ in parts:
        sel = (rz != 0.0).nonzero()[0]
        r = rz[sel]
        # a parameter of the point serves every lane as it is; one per lane
        # is cut to the lanes solved, and a number is repeated for them
        a, th = (v[sel] if np.ndim(v) else v for v in (np_.a, np_.theta))
        lo, hi, u1, c = setup(r, NormLanes(a=a, theta=th))
        cols.append([v if np.ndim(v) else np.full(sel.size, v) for v in (lo, hi, u1, r, a, c)])
        sels.append(sel)
    lo, hi, u1, r, a, c = (np.concatenate(col) for col in zip(*cols))
    n = lo.size
    root, f_root, end_a, end_b = (np.zeros(n) for _ in range(4))
    lane_iterations = np.zeros(n, dtype=np.int64)
    stopped, exhausted = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    if n:
        args = (u1, a, *_phi_base(u1, r, a), c)
        at_lo, other, f_other = _other_end(lo, hi, args)
        run, on_lanes = slice(None), None
        if settled is not None:
            (rows,) = sels
            stopped, root, f_root, end_a, end_b = _settle_early(
                settled, rows, lo, hi, args, at_lo, other, f_other
            )
            run = np.flatnonzero(~stopped)
            lo, hi, at_lo, f_other, *args = (v[run] for v in (lo, hi, at_lo, f_other, *args))

            def on_lanes(lanes, lo, hi):
                return settled(rows[run[lanes]], lo, hi)

        if lo.size:
            f_u1 = -args[-1]  # the identity at the u1 end (_other_end)
            ends = (np.where(at_lo, f_u1, f_other), np.where(at_lo, f_other, f_u1))
            res = solve_bracketed(_identity, lo, hi, args=tuple(args), settled=on_lanes, ends=ends)
            root[run], f_root[run] = res.root, res.f_root
            end_a[run], end_b[run] = res.bracket
            lane_iterations[run], exhausted[run] = res.lane_iterations, res.exhausted
            if settled is not None:
                stopped[run] = res.settled
    out, start = [], 0
    for (_, rz, _), sel in zip(parts, sels):
        value, residual, bracket_a, bracket_b = (np.zeros(rz.shape) for _ in range(4))
        flags = np.zeros(rz.shape, dtype=bool) if settled is not None else None
        lane_exhausted = np.zeros(rz.shape, dtype=bool)
        done = slice(start, start + sel.size)
        start = done.stop
        value[sel], residual[sel] = root[done], f_root[done]
        bracket_a[sel], bracket_b[sel] = end_a[done], end_b[done]
        lane_exhausted[sel] = exhausted[done]
        if flags is not None:
            flags[sel] = stopped[done]
        iterations = int(lane_iterations[done].sum())
        out.append(MapSolve(value, residual, (bracket_a, bracket_b), iterations, flags, lane_exhausted))
    return out


def _check_F_domain(z, np_: NormParams) -> None:
    iv = interval_I(np_)
    if not iv.proper:
        raise ValueError("admissible interval is empty: need a*(theta-1) > theta")
    if not np.all(iv.contains(z)):
        raise ValueError(f"z = {z} outside admissible interval (-1.0, {iv.hi:.6g}]")


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


def F_solve_r(rz: float, np_: NormParams, *, settled=None) -> MapSolve:
    """Constant-history response indexed by the envelope value rz = r(z).

    Avoids huge z when sweeping rz near its deep end.  Negative rz must stay
    at or above the branch slope a_star (otherwise z leaves the admissible
    interval); any positive rz is admissible.  A 1-D array rz solves one lane
    per entry, with one NormParams for all lanes or a NormLanes of rz's length,
    and settled(rows, lo, hi), if given, and its probe may stop lanes
    early, named by their index into rz (see _lane_solves).
    """
    a_star = _branch_slope(np_.a, np_.theta)
    if _any((rz < 0.0) & (rz < a_star)):
        raise ValueError(f"rz = {rz} below branch slope {a_star}")
    return _map_solve(_F_setup, rz, np_, settled)


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


def F1_solve_r(rz: float, np_: NormParams, *, settled=None) -> MapSolve:
    """Ramp response indexed by the envelope value rz in (a, 0).

    Takes lanes, and settled, as F_solve_r does.
    """
    if not np.all((np_.a < rz) & (rz < 0.0)):
        raise ValueError(f"rz = {rz} outside ({np_.a}, 0)")
    return _map_solve(_F1_setup, rz, np_, settled)


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
    be an array, and np_ a NormLanes of its length; a1, a2 and a3 are taken
    once per base where the lanes carry a base table.
    """
    a1, a2, a3 = _per_base(np_, _bound_L_coeffs)
    den = 1.0 + a3 * r
    if _any(den == 0.0):
        raise ValueError(f"minorant pole at r = {-1.0 / a3}")
    return (a1 * r + a2 * r * r) / den


def _bound_L_coeffs(np_: NormParams) -> tuple:
    """(a1, a2, a3) of bound_L at np_; the tangent takes the pack's lam."""
    c = coeffs(np_)
    _, j1 = _j_tangent(np_.a, np_.theta, c.lam)
    a2 = 0.5 * j1 * (1.0 - c.lam)
    return c.alpha, a2, (1.0 - c.lam) / np_.a + a2


def _g1_parts(P: float, np_: NormParams) -> tuple[float, float, float, float, float]:
    a, th = np_.a, np_.theta
    # theta**3 and the quotients of (a, theta) alone, once per base where
    # the lanes carry a base table
    th3, c2, c24, c6 = _per_base(np_, _g1_factors)
    P2 = P * P
    P3 = P2 * P
    P4 = P3 * P
    a2 = a * a
    a3 = a2 * a
    a4 = a3 * a
    A1 = (1.0 - th) * P + c2 * P2 + c24 * (2.0 * a - P) * P3
    A2 = c6 * (2.0 * a - P) * P3
    B0 = 1.0 - th * P / (2.0 * a) + th3 * P3 / (24.0 * a3)
    B1 = -th * P2 / a2 + th3 * P3 / (6.0 * a3) + th3 * P4 / (12.0 * a4)
    B2 = th3 * P4 / (3.0 * a4)
    return A1, A2, B0, B1, B2


def _g1_factors(np_: NormParams) -> tuple:
    """(theta**3, theta/(2a), theta**3/(24a**3), theta**3/(6a**3)) at np_."""
    a, th = np_.a, np_.theta
    # libm pow on each entry: numpy's ** 3 differs from it in the last bit
    th3 = _libm(lambda t: t ** 3, th)
    a3 = a * a * a
    return th3, th / (2.0 * a), th3 / (24.0 * a3), th3 / (6.0 * a3)


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
    expanded so only ring operations remain (safe in any backend).  On
    floats M lies within 1e-13 relative of its value at its float inputs
    (at most 4.8e-14 at r = a, a_star and between, measured as
    psi_inv_generic is), and so does N except near theta/(1 - theta),
    where its four complex roots close in as theta nears 1 and the expanded
    form cancels: at r = a_star, near that point when theta is near 1, N
    read up to 1e-6.
    """
    return _mn_at(mx.num(r), _mn_coeffs(a, theta, mx))


def _mn_coeffs(a, theta, mx=FLOAT) -> tuple:
    """M's factor -(theta-1)**2*a and its coefficients in r, then N's: they
    depend on (a, theta) alone, so a sweep takes them once per base and
    _mn_at evaluates them at each r."""
    a = mx.num(a)
    th = mx.num(theta)
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
    n_c0 = 35.0 * th4 - 9.0 * th5 + th4 * th3 - 3.0 * th5 * th
    n_c1 = th3 * q * (7.0 * th3 - 17.0 * th2 - 47.0 * th + 153.0)
    n_c2 = 12.0 * th2 * (th3 - 2.0 * th2 - 6.0 * th + 19.0) * q2
    n_c3 = -12.0 * th * (3.0 * th - 11.0) * q3
    n_c4 = 24.0 * q4
    return -q2 * a, m_c0, m_c1, m_c2, m_c3, n_c0, n_c1, n_c2, n_c3, n_c4


def _mn_at(r, mn) -> tuple:
    """(M, N) at r from the coefficients _mn_coeffs gives, by Horner's rule."""
    m_a, m_c0, m_c1, m_c2, m_c3, n_c0, n_c1, n_c2, n_c3, n_c4 = mn
    m_val = m_a * (m_c0 + r * (m_c1 + r * (m_c2 + r * m_c3)))
    n_val = n_c0 + r * (n_c1 + r * (n_c2 + r * (n_c3 + r * n_c4)))
    return m_val, n_val


def q_poly_generic(r, a, theta, mx=FLOAT, *, alpha, beta):
    """Certificate polynomial (1 - r*beta)*M - alpha*N; <= 0 closes the chain.

    On floats it lies within 1e-9 relative of its value at its float
    inputs, alpha and beta among them: its difference cancels, up to
    6.5e-10 at r = a_star (measured as psi_inv_generic is)."""
    return _q_at(mx.num(r), _mn_coeffs(a, theta, mx), alpha, beta)


def _q_at(r, mn, alpha, beta):
    """The certificate polynomial at r from _mn_coeffs' coefficients."""
    m_val, n_val = _mn_at(r, mn)
    return (1.0 - r * beta) * m_val - alpha * n_val


def s_poly_generic(r, a, theta, mx=FLOAT, *, alpha, beta):
    """Derivative of the certificate polynomial in r, in expanded form.

    On floats it lies within 1e-11 relative of its value at its float
    inputs (at most 1.5e-12, measured as psi_inv_generic is)."""
    return _s_at(mx.num(r), _s_coeffs(a, theta, mx, alpha=alpha, beta=beta))


def _s_coeffs(a, theta, mx=FLOAT, *, alpha, beta) -> tuple:
    """(s0, s1, s2, s3), the coefficients in r of s_poly_generic: of (a,
    theta) alone, with their alpha and beta."""
    a = mx.num(a)
    th = mx.num(theta)
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
    return s0, s1, s2, s3


def _s_at(r, s):
    """s_poly_generic at r from _s_coeffs' coefficients, by Horner's rule."""
    s0, s1, s2, s3 = s
    return s0 + r * (s1 + r * (s2 + r * s3))


def t_chain_generic(a, theta, mx=FLOAT, *, alpha):
    """Descending control sequence (T3, T2, T1, T0) for the derivative sign.

    On floats each lies within 1e-13 relative of its value at its float
    inputs (at most 5.0e-14, measured as psi_inv_generic is)."""
    a = mx.num(a)
    th = mx.num(theta)
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
