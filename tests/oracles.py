"""Reference implementations that only the tests use; the package does not.

t1 is the first zero-crossing time of the envelope solution from a constant
history.  F_sim and F1_sim integrate the envelope equation and read the
extremum off the grid, an independent check of the root solves F_solve and
F1_solve.  psi_inv, chi and chi_iterate are the scalar straightened map,
the reference for the Schwarzian margin and for orbit runs.  sln_series is
the full 22-term series that onedmaps._sln_series cuts short.  phi_diff
is the map solves' difference form as a plain two-point function, and
identity_mp their identity in mpmath's precision.
rk4_rows and rk4_integrate are classic RK4 stage by stage on the grid
integrate marches, the reference for ddesim's affine step.  parabola_refine
is the scalar vertex refinement that ddesim does on arrays.  IV is an
interval backend on mpmath's iv arithmetic, on which the generic formulas
give 40-digit enclosures; it is None where mpmath is not installed.
"""

import math

import numpy as np

try:
    from mpmath.ctx_iv import MPIntervalContext
except ImportError:  # mpmath is a test extra
    MPIntervalContext = None

from ddestab import ddesim
from ddestab.ddesim import History, _envelope, _first_node_after, integrate
from ddestab.onedmaps import _identity, _phi_base, interval_I
from ddestab.params import NormParams
from ddestab.ratmaps import psi_inv_generic, r_eval


def t1(z: float, np_: NormParams) -> float:
    """First zero crossing time, shifted into [-h, 0); decreasing in z."""
    iv = interval_I(np_)
    if not iv.proper:
        raise ValueError("admissible interval is empty: need a*(theta-1) > theta")
    if not iv.contains(z):
        raise ValueError(f"z = {z} outside admissible interval (-1.0, {iv.hi:.6g}]")
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


def identity_mp(mp, x, u1, a, eps, v1, d1, c):
    """onedmaps' identity w*d1 - a*w*w*sln(s) - c, w = (x - u1)/v1 and
    s = eps*w, in mp's precision from the same float inputs."""
    x, u1, a, eps, v1, d1, c = (mp.mpf(float(v)) for v in (x, u1, a, eps, v1, d1, c))
    w = (x - u1) / v1
    s = eps * w
    sln = (s - mp.log1p(s)) / (s * s) if s else mp.mpf(0.5)
    return w * d1 - a * w * w * sln - c


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


def parabola_refine(y: np.ndarray, i: int, t0: float, s: float) -> tuple[float, float]:
    """Vertex time and value of the parabola through nodes i - 1, i and i + 1
    of grid data y on times t0 + k*s, the time clipped to one step either
    side; node i itself where the three are collinear.  The scalar reference
    for ddesim._parabola_refine."""
    ym, y0, yp = y[i - 1], y[i], y[i + 1]
    den = yp - 2.0 * y0 + ym
    if den == 0.0:
        return t0 + i * s, y0
    dt = 0.5 * (ym - yp) / den
    dt = min(1.0, max(-1.0, dt))
    d = yp - ym
    v = y0 - d * d / (8.0 * den)
    return t0 + (i + dt) * s, v


def extremum_after(y: np.ndarray, tc: float, s: float, lowest: bool) -> float:
    """Smallest (lowest) or largest value of grid data y at nodes after time tc,
    parabola-refined unless it falls on the last node."""
    i_lo = _first_node_after(tc, s)
    pick = np.argmin if lowest else np.argmax
    im = i_lo + int(pick(y[i_lo:]))
    if im <= len(y) - 2:
        return parabola_refine(y, im, 0.0, s)[1]
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
        raise ValueError(f"z = {z} outside admissible interval (-1.0, {iv.hi:.6g}]")
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
        return parabola_refine(y, im, 0.0, tr.step)[1]
    return float(y[im])


def rk4_rows(y0: float, w_node, w_mid, delta: float, s: float) -> list[float]:
    """Classic RK4 for y' = -delta*y + w(t) from y0 down one segment, stage
    by stage on Python floats, with w given at the nodes and the midpoints."""
    nd, hs, s6 = -delta, 0.5 * s, s / 6.0
    y = [y0]
    for i in range(len(w_mid)):
        yi = y[-1]
        r1 = nd * yi + w_node[i]
        r2 = nd * (yi + hs * r1) + w_mid[i]
        r3 = nd * (yi + hs * r2) + w_mid[i]
        r4 = nd * (yi + s * r3) + w_node[i + 1]
        y.append(yi + s6 * (r1 + 2.0 * (r2 + r3) + r4))
    return y


def rk4_integrate(model, hist: History, params, T: float, step: float | None = None) -> np.ndarray:
    """integrate's march of one history, with rk4_rows for its rows: the
    values on the same nodes, from the same delayed values and stencils."""
    delta, h = ddesim._delta_h(params)
    w = getattr(model, "f", model)
    n, s, K = (v.item() for v in ddesim._step_grid(h, T, step))
    y = np.empty(K + 1)
    y[0] = hist.eval_array(np.zeros(1))[0]
    for k0 in range(0, K, n):
        k1 = min(k0 + n, K)
        cnt = k1 - k0
        if k0 == 0:
            node_del = hist.eval_array(np.arange(-n, cnt - n + 1) * s)
            mid_del = hist.eval_array((np.arange(-n, cnt - n) + 0.5) * s)
        else:
            node_del = y[k0 - n : k1 - n + 1]
            mid_del = ddesim._segment_midpoints(y[k0 - n : k0 + 1], cnt)
        w_node, w_mid = (np.asarray(w(v), dtype=float).tolist() for v in (node_del, mid_del))
        y[k0 : k1 + 1] = rk4_rows(y[k0].item(), w_node, w_mid, delta, s)
    return y


class IVBackend:
    """Interval evaluation namespace at dps digits, drop-in for ddouble's
    FLOAT and DOUBLE_DOUBLE on one point: a generic formula runs on it
    unchanged and returns an enclosure of its exact value at the float
    inputs.

    num is iv.mpf in a context of its own, so mpmath's global iv keeps its
    precision; exp, log and sqrt are iv's, and log1p is iv.log(1 + x);
    value is the float midpoint.  A formula picks its branch by comparing
    values, so its mask is a plain bool, decided on the midpoint, and where
    takes the branch that mask picks.
    """

    name = "iv"

    def __init__(self, dps: int = 40):
        ctx = MPIntervalContext()
        ctx.dps = dps
        self.num, self.exp, self.log, self.sqrt = ctx.mpf, ctx.exp, ctx.log, ctx.sqrt
        self.log1p = lambda x: ctx.log(1 + x)

    @staticmethod
    def value(x) -> float:
        return float(x.mid)

    @staticmethod
    def where(mask: bool, x, y):
        return x if mask else y


IV = IVBackend() if MPIntervalContext is not None else None
