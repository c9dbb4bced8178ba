"""Reference implementations that only the tests use; the package does not.

t1 is the first zero-crossing time of the envelope solution from a constant
history.  F_sim and F1_sim integrate the envelope equation and read the
extremum off the grid, an independent check of the root solves F_solve and
F1_solve.  psi_inv, chi and chi_iterate are the scalar straightened map,
the reference for the Schwarzian margin and for orbit runs.  sln_series is
the full 22-term series that onedmaps._sln_series cuts short.  phi_diff
is the map solves' difference form as a plain two-point function.
"""

import math

import numpy as np

from ddestab.ddesim import History, _envelope, _first_node_after, _parabola_refine, integrate
from ddestab.onedmaps import _identity, _phi_base, interval_I
from ddestab.params import NormParams
from ddestab.ratmaps import psi_inv_generic, r_eval


def t1(z: float, np_: NormParams) -> float:
    """First zero crossing time, shifted into [-h, 0); decreasing in z."""
    iv = interval_I(np_)
    if not iv.proper:
        raise ValueError("admissible interval is empty: need a*(theta-1) > theta")
    if not iv.contains(z):
        raise ValueError(f"z = {z} outside admissible interval ({iv.lo}, {iv.hi:.6g}]")
    return -math.log(1.0 - (1.0 + z) / np_.a)


def sln_series(s):
    """(s - log1p(s)) / s^2 near 0: the sum of (-s)^j / (j + 2) for j < 24,
    every term added, on a float or an array."""
    acc = 0.5 - s / 3.0
    p = s * s
    for j in range(2, 24):
        if j % 2:
            acc -= p / (j + 2)
        else:
            acc += p / (j + 2)
        p *= s
    return acc


def phi_diff(u2: float, u1: float, rz: float, a: float) -> float:
    """phi(u2) - phi(u1) in onedmaps' cancellation-free form.

    phi(u) = (a*log|v| - v)/(1 + rz)**2 with v = (1 + rz)*u - rz*a is an
    antiderivative of (a - u)/v.  The map solves' identity at c = 0 is this
    difference; it stays accurate to machine precision when u2 and u1 are
    close or when rz -> -1, where the raw difference loses every digit.
    """
    return _identity(u2, u1, a, *_phi_base(u1, rz, a), 0.0)


def psi_inv(y: float, np_: NormParams) -> float:
    """Inverse straightening conjugacy at one point; the root lies above a."""
    x = float(psi_inv_generic(y, np_.a, np_.theta))
    if not x > np_.a:
        raise AssertionError(f"inverse conjugacy landed at {x}, not above {np_.a}")
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


def extremum_after(y: np.ndarray, tc: float, s: float, lowest: bool) -> float:
    """Smallest (lowest) or largest value of grid data y at nodes after time tc,
    parabola-refined unless it falls on the last node."""
    i_lo = _first_node_after(tc, s)
    pick = np.argmin if lowest else np.argmax
    im = i_lo + int(pick(y[i_lo:]))
    if im <= len(y) - 2:
        return _parabola_refine(y, im, 0.0, s)[1]
    return float(y[im])


def _cubic_at(y: np.ndarray, n_seg_len: int, pos: float, s: float) -> float:
    """Cubic interpolation of grid data at t = pos, stencil within [0, n_seg_len]."""
    jf = int(math.floor(pos / s))
    j0 = min(max(jf - 1, 0), n_seg_len - 3)
    d = pos / s - j0
    val = 0.0
    for k in range(4):
        wgt = 1.0
        for mth in range(4):
            if mth != k:
                wgt *= (d - mth) / (k - mth)
        val += wgt * y[j0 + k]
    return val


def F_sim(z: float, np_: NormParams, step: float | None = None) -> float:
    """Simulated extremal response to constant history z (envelope equation).

    Integrates through the first crossing and scans the following delay
    window for the extremum, with parabolic refinement.  Requires z in the
    admissible interval.
    """
    iv = interval_I(np_)
    if not iv.proper:
        raise ValueError("admissible interval is empty: need a*(theta-1) > theta")
    if z == 0.0:
        return 0.0
    if not iv.contains(z):
        raise ValueError(f"z = {z} outside admissible interval ({iv.lo}, {iv.hi:.6g}]")
    h = np_.delay
    tc = -t1(z, np_)  # first crossing time, in (0, h]
    tr = integrate(_envelope(np_.a), History.constant(z), np_, h + tc, step=step)
    s = tr.step
    y = tr.values
    y_cross = _cubic_at(y, round(h / s), tc, s)
    if abs(y_cross) > 1e-6:
        raise RuntimeError(f"crossing-time consistency check failed: y({tc:.6g}) = {y_cross:.3g}")
    return extremum_after(y, tc, s, lowest=z > 0.0)


def F1_sim(z: float, np_: NormParams, step: float | None = None) -> float:
    """Simulated extremal response to the natural ramp history, z >= 0."""
    if z < 0.0:
        raise ValueError(f"ramp response needs z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    rz = r_eval(z, np_.a)
    tr = integrate(_envelope(np_.a), History.ramp(rz), np_, np_.delay, step=step)
    y = tr.values
    im = int(np.argmin(y))
    if 1 <= im <= len(y) - 2:
        return _parabola_refine(y, im, 0.0, tr.step)[1]
    return float(y[im])
