"""Fixed-step method-of-steps integration for x'(t) = -delta x(t) + w(x(t-h)).

Classic fourth-order Runge-Kutta on a uniform grid whose step divides the
delay exactly, so every delayed node value is a previously computed node and
delayed midpoints come from a four-point cubic stencil kept inside one
smoothness segment.  Restarting at delay multiples preserves the method
order despite the derivative jumps there.  Everything is deterministic.

integrate also marches many runs (lanes) in lockstep, one column each, with
each column up to its own horizon bitwise equal to its single run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .params import NormParams, ParamSet
from .onedmaps import interval_I, t1
from .ratmaps import r_eval

__all__ = [
    "History",
    "Trajectory",
    "IntegrationDiverged",
    "integrate",
    "asymptotic_bounds",
    "BoundsResult",
    "F_sim",
    "F1_sim",
]


class IntegrationDiverged(RuntimeError):
    """A non-finite value appeared during integration."""

    def __init__(self, t: float):
        super().__init__(f"integration produced a non-finite value near t = {t:.6g}")
        self.t = t


class History:
    """Initial segment on s <= 0: constant, exponential ramp, or samples.

    The ramp with coefficient c is phi(s) = c*(1 - exp(-s)); it solves
    y' = -y + c backwards from y(0) = 0 in unit-decay time, which is the
    natural continuation appearing after a zero crossing.
    """

    def __init__(self, kind: str, value: float = 0.0, times=None, values=None):
        self.kind = kind
        # an array value gives one history per lane of a lockstep run
        self.value = np.array(value, dtype=float) if np.ndim(value) else float(value)
        self.times = None if times is None else np.asarray(times, dtype=float)
        self.values = None if values is None else np.asarray(values, dtype=float)

    @classmethod
    def constant(cls, z: float) -> "History":
        return cls("constant", value=z)

    @classmethod
    def ramp(cls, c: float) -> "History":
        return cls("ramp", value=c)

    @classmethod
    def from_samples(cls, times, values) -> "History":
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("need matching 1-d time and value arrays, length >= 2")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("sample times must be strictly increasing")
        return cls("sampled", times=t, values=v)

    @classmethod
    def from_csv(cls, path) -> "History":
        ts, vs = [], []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                try:
                    ts.append(float(row[0]))
                    vs.append(float(row[1]))
                except (ValueError, IndexError):
                    continue  # header or malformed row
        if len(ts) < 2:
            raise ValueError(f"history file {path} has fewer than 2 numeric rows")
        return cls.from_samples(ts, vs)

    def check_span(self, h: float) -> None:
        if self.kind == "sampled":
            if self.times[0] > -h + 1e-12 or self.times[-1] < -1e-12:
                raise ValueError(
                    f"sampled history covers [{self.times[0]:.6g}, {self.times[-1]:.6g}], "
                    f"needs [-{h:.6g}, 0]"
                )

    def eval_array(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "constant":
            return np.full_like(s, self.value)
        if self.kind == "ramp":
            return self.value * (1.0 - np.exp(-s))
        return np.interp(s, self.times, self.values)

    def __call__(self, s: float) -> float:
        return float(self.eval_array(np.asarray([s]))[0])


@dataclass
class Trajectory:
    """Uniform-grid solution values starting at t0 with the reported step."""

    t0: float
    step: float
    values: np.ndarray
    delta: float
    h: float
    model_name: str = ""
    _extrema: list | None = field(default=None, repr=False, compare=False)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(len(self.values))

    @property
    def t_end(self) -> float:
        return self.t0 + self.step * (len(self.values) - 1)

    def extrema(self) -> list[tuple[float, float, str]]:
        """Interior extrema as (time, value, kind), parabola-refined."""
        if self._extrema is None:
            self._extrema = _find_extrema(self.values, self.t0, self.step)
        return self._extrema

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "x"])
            for i, v in enumerate(self.values):
                w.writerow(["%.12g" % (self.t0 + i * self.step), "%.12g" % v])


def _find_extrema(y: np.ndarray, t0: float, s: float) -> list:
    out = []
    for i in range(1, len(y) - 1):
        d_prev = y[i] - y[i - 1]
        d_next = y[i + 1] - y[i]
        if d_prev > 0.0 and d_next < 0.0:
            kind = "max"
        elif d_prev < 0.0 and d_next > 0.0:
            kind = "min"
        else:
            continue
        t_ref, v_ref = _parabola_refine(y, i, t0, s)
        out.append((t_ref, v_ref, kind))
    return out


def _parabola_refine(y: np.ndarray, i: int, t0: float, s: float) -> tuple[float, float]:
    ym, y0, yp = y[i - 1], y[i], y[i + 1]
    den = yp - 2.0 * y0 + ym
    if den == 0.0:
        return t0 + i * s, y0
    dt = 0.5 * (ym - yp) / den
    dt = min(1.0, max(-1.0, dt))
    v = y0 - (yp - ym) ** 2 / (8.0 * den)
    return t0 + (i + dt) * s, v


def _extremum_after(y: np.ndarray, tc: float, s: float, lowest: bool) -> float:
    """Smallest (lowest) or largest value of grid data y at nodes after time tc,
    parabola-refined unless it falls on the last node."""
    i_lo = max(1, int(math.ceil(tc / s - 1e-9)))
    pick = np.argmin if lowest else np.argmax
    im = i_lo + int(pick(y[i_lo:]))
    if im <= len(y) - 2:
        return _parabola_refine(y, im, 0.0, s)[1]
    return float(y[im])


def _delta_h(params) -> tuple[float, float]:
    if isinstance(params, ParamSet):
        return params.delta, params.h
    if isinstance(params, NormParams):
        return 1.0, params.delay
    raise TypeError(f"params must be ParamSet or NormParams, got {type(params).__name__}")


# midpoint interpolation weights at offsets 0.5, 1.5, 2.5 on a 4-node stencil
_W_LEFT = (0.3125, 0.9375, -0.3125, 0.0625)
_W_RIGHT = (0.0625, -0.3125, 0.9375, 0.3125)


def _segment_midpoints(prev: np.ndarray, cnt: int) -> np.ndarray:
    """Delayed values at interval midpoints, cubic within the previous segment."""
    n = len(prev) - 1
    mids = np.empty((cnt,) + prev.shape[1:])
    mids[0] = (
        _W_LEFT[0] * prev[0]
        + _W_LEFT[1] * prev[1]
        + _W_LEFT[2] * prev[2]
        + _W_LEFT[3] * prev[3]
    )
    if cnt == 1:
        return mids
    upper = cnt - 1  # vectorized centered stencils for i in [1, upper)
    if upper > 1:
        mids[1:upper] = (
            -prev[0 : upper - 1]
            + 9.0 * prev[1:upper]
            + 9.0 * prev[2 : upper + 1]
            - prev[3 : upper + 2]
        ) / 16.0
    i = cnt - 1
    if i <= n - 2:
        mids[i] = (-prev[i - 1] + 9.0 * prev[i] + 9.0 * prev[i + 1] - prev[i + 2]) / 16.0
    else:
        mids[i] = (
            _W_RIGHT[0] * prev[n - 3]
            + _W_RIGHT[1] * prev[n - 2]
            + _W_RIGHT[2] * prev[n - 1]
            + _W_RIGHT[3] * prev[n]
        )
    return mids


def _step_grid(h: float, T: float, step: float | None) -> tuple[int, float, int]:
    """Nodes per delay n, the step s = h/n and the last node K of a march to T."""
    if not T > 0.0:
        raise ValueError(f"horizon must be positive, got {T}")
    base = h / 256.0 if step is None else float(step)
    if not 0.0 < base <= h:
        raise ValueError(f"step must lie in (0, h], got {base}")
    n = max(4, round(h / base))
    s = h / n
    return n, s, max(1, math.ceil(T / s - 1e-9))


def integrate(model, hist: History, params, T: float, step: float | None = None) -> Trajectory:
    """March the equation from t = 0 to (at least) T; returns the grid solution.

    The step is adjusted to the nearest exact divisor of the delay and
    reported on the trajectory.  The model must accept numpy arrays.

    An array T runs one lane per entry in lockstep.  params then holds one
    parameter point per lane (a NormLanes), the model maps arrays whose last
    axis is the lane, and a constant history may hold one value per lane.  Lanes must share the node count per delay.
    values then has one column per lane and runs to the longest horizon;
    step and h are per-lane arrays.
    """
    delta, h = _delta_h(params)
    w: Callable = getattr(model, "f", model)
    name = getattr(model, "name", getattr(model, "__name__", "w"))
    if isinstance(T, np.ndarray):
        h_lanes = np.broadcast_to(h, T.shape).tolist()
        grids = [_step_grid(hl, Tl, step) for hl, Tl in zip(h_lanes, T.tolist())]
        n, s, K = (np.array(col) for col in zip(*grids))
        if np.any(n != n[0]):
            raise ValueError("lanes must share the number of steps per delay")
        n = int(n[0])
        y = np.empty((int(K.max()) + 1, T.size))
    else:
        n, s, K = _step_grid(h, T, step)
        y = np.empty(K + 1)
    hist.check_span(np.max(h))

    y[0] = hist.eval_array(np.zeros_like(s))
    # overflow inside a blowing-up model is reported via IntegrationDiverged,
    # not as a numpy warning
    with np.errstate(all="ignore"):
        _march(w, hist, y, K, n, s, delta)
    return Trajectory(t0=0.0, step=s, values=y, delta=delta, h=h, model_name=str(name))


def _march(w, hist, y, K, n, s, delta) -> None:
    """RK4 on the rows of y: one node per row, one lane per column if 2-D.

    K is the last node, or each lane's last node; every lane runs to the
    largest, but only nodes up to its own K count towards divergence.
    """
    nd, hs, s6 = -delta, 0.5 * s, s / 6.0
    end = len(y) - 1
    for m in range(math.ceil(end / n)):
        k0 = m * n
        k1 = min((m + 1) * n, end)
        cnt = k1 - k0
        if m == 0:
            node_del = hist.eval_array(np.multiply.outer(np.arange(k0 - n, k1 - n + 1), s))
            mid_del = hist.eval_array(np.multiply.outer(np.arange(k0 - n, k1 - n) + 0.5, s))
        else:
            node_del = y[k0 - n : k1 - n + 1]
            prev = y[(m - 1) * n : m * n + 1]
            mid_del = _segment_midpoints(prev, cnt)
        w_node = np.asarray(w(node_del), dtype=float)
        w_mid = np.asarray(w(mid_del), dtype=float)
        for i in range(cnt):
            yi = y[k0 + i]
            r1 = nd * yi + w_node[i]
            r2 = nd * (yi + hs * r1) + w_mid[i]
            r3 = nd * (yi + hs * r2) + w_mid[i]
            r4 = nd * (yi + s * r3) + w_node[i + 1]
            y[k0 + i + 1] = yi + s6 * (r1 + 2.0 * (r2 + r3) + r4)
        seg = y[k0 : k1 + 1]
        if not np.isfinite(seg).all():
            node = np.arange(k0, k1 + 1).reshape((-1,) + (1,) * (y.ndim - 1))
            bad = np.argwhere((~np.isfinite(seg) & (node <= K)).reshape(cnt + 1, -1))
            if len(bad):
                k, lane = bad[0].tolist()
                raise IntegrationDiverged((k0 + k) * np.reshape(s, -1)[lane].item())


@dataclass(frozen=True)
class BoundsResult:
    lower: float
    upper: float
    confident: bool
    n_extrema: int


def asymptotic_bounds(tr: Trajectory) -> BoundsResult:
    """Late-time envelope of a trajectory from its extrema in the second half.

    Confident when at least five extrema land after the midpoint; otherwise
    falls back to the raw tail range (monotone or short tails).
    """
    cut = tr.t0 + 0.5 * (tr.t_end - tr.t0)
    ext = [(t, v) for (t, v, _k) in tr.extrema() if t >= cut]
    i0 = min(len(tr.values) - 1, int(math.ceil((cut - tr.t0) / tr.step)))
    tail = tr.values[i0:]
    lo = float(tail.min())
    hi = float(tail.max())
    if ext:
        lo = min(lo, min(v for _t, v in ext))
        hi = max(hi, max(v for _t, v in ext))
    return BoundsResult(lower=lo, upper=hi, confident=len(ext) >= 5, n_extrema=len(ext))


def _envelope(a: float):
    def w(x):
        return a * x / (1.0 + x)

    w.__name__ = "envelope"
    return w


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


def _f_sim_parts(z: float, np_: NormParams, step: float | None = None):
    iv = interval_I(np_)
    if not iv.proper:
        raise ValueError("admissible interval is empty: need a*(theta-1) > theta")
    if z == 0.0:
        return 0.0, None, 0.0
    if not iv.contains(z):
        raise ValueError(f"z = {z} outside admissible interval ({iv.lo}, {iv.hi:.6g}]")
    h = np_.delay
    tc = -t1(z, np_)  # first crossing time, in (0, h]
    tr = integrate(_envelope(np_.a), History.constant(z), np_, h + tc, step=step)
    s = tr.step
    n = round(h / s)
    y = tr.values
    y_cross = _cubic_at(y, n, tc, s)
    if abs(y_cross) > 1e-6:
        raise RuntimeError(f"crossing-time consistency check failed: y({tc:.6g}) = {y_cross:.3g}")
    return _extremum_after(y, tc, s, lowest=z > 0.0), tr, y_cross


def F_sim(z: float, np_: NormParams, step: float | None = None) -> float:
    """Simulated extremal response to constant history z (envelope equation).

    Independent check of F_solve: integrates through the first crossing and
    scans the following delay window for the extremum, with parabolic
    refinement.  Requires z in the admissible interval.
    """
    val, _tr, _yc = _f_sim_parts(z, np_, step=step)
    return val


def F1_sim(z: float, np_: NormParams, step: float | None = None) -> float:
    """Simulated extremal response to the natural ramp history, z >= 0."""
    if z < 0.0:
        raise ValueError(f"ramp response needs z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    h = np_.delay
    rz = r_eval(z, np_.a)
    tr = integrate(_envelope(np_.a), History.ramp(rz), np_, h, step=step)
    y = tr.values
    K = len(y) - 1
    im = int(np.argmin(y))
    if 1 <= im <= K - 1:
        _, val = _parabola_refine(y, im, 0.0, tr.step)
    else:
        val = float(y[im])
    return val
