"""Fixed-step method-of-steps integration for x'(t) = -delta x(t) + w(x(t-h)).

Classic fourth-order Runge-Kutta on a uniform grid whose step divides the
delay exactly, so every delayed node value is a previously computed node and
delayed midpoints come from a four-point cubic stencil kept inside one
smoothness segment.  Restarting at delay multiples preserves the method
order despite the derivative jumps there.  Everything is deterministic.

integrate also runs many lanes, each with its own parameters, constant
history and horizon, on a conveyor.  A fixed number of slots march in
lockstep, one delay segment at a time.  A slot keeps only its lane's last
two segments and the lowest node seen so far; at a segment boundary, a slot
whose lane has reached its horizon takes the next waiting lane, longest
first.  Up to its own horizon every lane is bitwise equal to its single run.
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
    "LaneDips",
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


@dataclass
class LaneDips:
    """What integrate returns for lanes, one column per lane.

    values holds each lane's lowest node at or after its start time between
    its two neighbours; the right one is NaN when the lowest node is the
    lane's last.  dip is that node's value, parabola-refined unless it is
    the last node.  rows counts the lockstep rows the conveyor marched.
    """

    step: np.ndarray
    values: np.ndarray
    dip: np.ndarray
    rows: int


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
    i_lo = _first_node_after(tc, s)
    pick = np.argmin if lowest else np.argmax
    im = i_lo + int(pick(y[i_lo:]))
    if im <= len(y) - 2:
        return _parabola_refine(y, im, 0.0, s)[1]
    return float(y[im])


def _first_node_after(tc, s):
    """First node at or after time tc (within 1e-9 steps), never node 0; per lane on arrays."""
    return np.maximum(1, np.ceil(tc / s - 1e-9)).astype(int)


def _delta_h(params) -> tuple[float, float]:
    if isinstance(params, ParamSet):
        return params.delta, params.h
    if isinstance(params, NormParams):
        return 1.0, params.delay
    raise TypeError(f"params must be ParamSet or NormParams, got {type(params).__name__}")


# midpoint interpolation weights at offsets 0.5, 1.5, 2.5 on a 4-node stencil
_W_LEFT = (0.3125, 0.9375, -0.3125, 0.0625)
_W_RIGHT = (0.0625, -0.3125, 0.9375, 0.3125)


def _segment_midpoints(prev: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Delayed values at the midpoints of intervals i0 .. i1-1, cubic within
    the previous segment prev: centered stencils, one-sided at either end."""
    n = len(prev) - 1
    mids = np.empty((i1 - i0,) + prev.shape[1:])
    lo, hi = max(i0, 1), min(i1, n - 1)
    if i0 == 0:
        mids[0] = (
            _W_LEFT[0] * prev[0]
            + _W_LEFT[1] * prev[1]
            + _W_LEFT[2] * prev[2]
            + _W_LEFT[3] * prev[3]
        )
    if lo < hi:
        mids[lo - i0 : hi - i0] = (
            -prev[lo - 1 : hi - 1]
            + 9.0 * prev[lo:hi]
            + 9.0 * prev[lo + 1 : hi + 1]
            - prev[lo + 2 : hi + 2]
        ) / 16.0
    if i1 == n:
        mids[-1] = (
            _W_RIGHT[0] * prev[n - 3]
            + _W_RIGHT[1] * prev[n - 2]
            + _W_RIGHT[2] * prev[n - 1]
            + _W_RIGHT[3] * prev[n]
        )
    return mids


def _step_grid(h, T, step: float | None):
    """Nodes per delay n, the step s = h/n and the last node K of a march to T,
    as numpy scalars, or per lane when h and T are arrays."""
    if not np.all(T > 0.0):
        raise ValueError(f"horizon must be positive, got {T}")
    base = h / 256.0 if step is None else float(step)
    if not np.all((0.0 < base) & (base <= h)):
        raise ValueError(f"step must lie in (0, h], got {base}")
    n = np.maximum(4, np.round(h / base)).astype(int)
    s = h / n
    K = np.maximum(1, np.ceil(T / s - 1e-9))
    if not np.all(K < 2.0**53):
        raise ValueError(f"horizon {T} needs too many steps of {s}")
    return n, s, K.astype(int)


# slots of the lane conveyor, each holding two segments of its lane.  More
# slots march fewer lockstep rows, down to the longest lane's own count: at
# resolution 256, funcrr2's longest lane takes 64 segments, and 512 slots
# finish every other lane within them.  Model values are taken _CHUNK rows
# at a time, so no segment-sized temporaries are made
_SLOTS = 512
_CHUNK = 32


def integrate(model, hist: History, params, T, step: float | None = None):
    """March the equation from t = 0 to (at least) T; returns the grid solution.

    The step is adjusted to the nearest exact divisor of the delay and
    reported on the trajectory.  The model must accept numpy arrays.

    An array T of shape (2, L) runs L lanes on the conveyor and returns
    LaneDips: lane j marches to T[1, j] and reports its lowest node at or
    after T[0, j].  params then holds one parameter point per lane (a
    NormLanes), hist is constant with one value per lane, and all lanes
    share the number of steps per delay.  The model is called as
    model(x, lanes): column c of x belongs to lane lanes[c].
    """
    delta, h = _delta_h(params)
    w: Callable = getattr(model, "f", model)
    if isinstance(T, np.ndarray):
        return _lanes(w, hist, delta, h, T, step)
    n, s, K = (v.item() for v in _step_grid(h, T, step))
    hist.check_span(h)
    y = np.empty(K + 1)
    y[0] = hist(0.0)
    # overflow inside a blowing-up model is reported via IntegrationDiverged,
    # not as a numpy warning
    with np.errstate(all="ignore"):
        _march(w, hist, y, n, s, delta)
    name = getattr(model, "name", getattr(model, "__name__", "w"))
    return Trajectory(t0=0.0, step=s, values=y, delta=delta, h=h, model_name=str(name))


def _rk4_rows(y, w_node, w_mid, nd, s, hs, s6) -> None:
    """Classic RK4 down the rows of y from y[0]; a lane per column if y is 2-D."""
    for i in range(len(y) - 1):
        yi = y[i]
        r1 = nd * yi + w_node[i]
        r2 = nd * (yi + hs * r1) + w_mid[i]
        r3 = nd * (yi + hs * r2) + w_mid[i]
        r4 = nd * (yi + s * r3) + w_node[i + 1]
        y[i + 1] = yi + s6 * (r1 + 2.0 * (r2 + r3) + r4)


def _march(w, hist, y, n, s, delta) -> None:
    """RK4 on the nodes of y, one delay segment at a time."""
    nd, hs, s6 = -delta, 0.5 * s, s / 6.0
    K = len(y) - 1
    for k0 in range(0, K, n):
        k1 = min(k0 + n, K)
        cnt = k1 - k0
        if k0 == 0:
            node_del = hist.eval_array(np.arange(-n, cnt - n + 1) * s)
            mid_del = hist.eval_array((np.arange(-n, cnt - n) + 0.5) * s)
        else:
            node_del = y[k0 - n : k1 - n + 1]
            mid_del = _segment_midpoints(y[k0 - n : k0 + 1], 0, cnt)
        seg = y[k0 : k1 + 1]
        _rk4_rows(
            seg,
            np.asarray(w(node_del), dtype=float),
            np.asarray(w(mid_del), dtype=float),
            nd, s, hs, s6,
        )
        finite = np.isfinite(seg)
        if not finite.all():
            raise IntegrationDiverged((k0 + int(np.argmin(finite))) * s)


def _lanes(w, hist, delta, h, T, step) -> LaneDips:
    if T.ndim != 2 or len(T) != 2:
        raise ValueError(f"lane horizons T need shape (2, lanes), got {T.shape}")
    if hist.kind != "constant":
        raise ValueError("lanes start from a constant history")
    # array arithmetic, not a Python object per lane: thousands of small
    # objects left the heap holding more memory after the sweep's later checks
    n, s, K = _step_grid(np.broadcast_to(h, T.shape[1:]), T[1], step)
    if np.any(n != n[0]):
        raise ValueError("lanes must share the number of steps per delay")
    start = _first_node_after(T[0], s)
    if np.any(start > K):
        raise ValueError("a lane's start time lies past its horizon")
    z = np.broadcast_to(hist.value, K.shape)
    with np.errstate(all="ignore"):
        values, rows = _conveyor(w, z, start, K, int(n[0]), s, -delta, _SLOTS)
    # refined one lane at a time: libm pow in _parabola_refine, as in one run
    dip = np.array(
        [
            col[1] if math.isnan(col[2]) else _parabola_refine(col, 1, 0.0, 1.0)[1]
            for col in values.T
        ]
    )
    return LaneDips(step=s, values=values, dip=dip, rows=rows)


def _conveyor(w, z, start, K, n, s, nd, slots):
    """March lanes on slots one delay segment at a time; returns the stencil
    of each lane's lowest node in [start, K] (see LaneDips) and the rows marched.

    prev and cur hold the last and the current segment of each slot's lane,
    nodes k0 - n .. k0 and k0 .. k0 + n.  Every lane starts on a segment
    boundary, so all slots share the segment rows.
    """
    order = np.argsort(-K, kind="stable")  # longest first, so the tail is short
    width = min(slots, len(K))
    lane = order[:width].copy()
    waiting = width  # order[waiting:] still wait for a slot
    fresh = np.arange(width)  # slots whose lane starts this segment
    prev = np.empty((n + 1, width))
    cur = np.empty((n + 1, width))
    k0 = np.zeros(width, dtype=int)
    low = np.empty(width)
    node = np.empty(width, dtype=int)
    left = np.empty(width)
    right = np.empty(width)
    out = np.empty((3, len(K)))
    row = np.arange(n + 1)[:, None]
    rows = 0
    while width:
        # a new lane's history is constant: its delayed nodes and midpoints are exactly z
        z_new = z[lane[fresh]]
        prev[:, fresh] = z_new
        cur[0, fresh] = z_new
        k0[fresh] = 0
        low[fresh] = np.inf
        node[fresh] = -1
        lane_s, K_s, start_s = s[lane], K[lane], start[lane]
        hs, s6 = 0.5 * lane_s, lane_s / 6.0
        for c0 in range(0, n, _CHUNK):
            c1 = min(c0 + _CHUNK, n)
            mids = _segment_midpoints(prev, c0, c1)
            mids[:, fresh] = z_new
            _rk4_rows(
                cur[c0 : c1 + 1], w(prev[c0 : c1 + 1], lane), w(mids, lane), nd, lane_s, hs, s6
            )
        rows += n

        if not np.isfinite(cur).all():
            bad = np.argwhere(~np.isfinite(cur) & (row <= K_s - k0))
            if len(bad):
                r, j = bad[0].tolist()
                raise IntegrationDiverged(float((k0[j] + r) * lane_s[j]))

        # a lowest node on the last segment's last row gets its right neighbour now
        pending = node == k0
        right[pending] = cur[1, pending]
        # rows of each lane's window [start, K] in this segment; a plain column
        # minimum for the slots whose window spans it
        window = (row >= np.maximum(start_s - k0, 1)) & (row <= K_s - k0)
        seg_low = cur[1:].min(axis=0)
        part = np.flatnonzero(~window[1:].all(axis=0))
        seg_low[part] = np.where(window[:, part], cur[:, part], np.inf).min(axis=0)
        new = np.flatnonzero(seg_low < low)
        # the first lowest row in the window, as argmin over a single run finds it
        r = ((cur == seg_low) & window).argmax(axis=0)[new]
        low[new] = cur[r, new]
        left[new] = cur[r - 1, new]
        node[new] = k0[new] + r
        right[new] = np.where(
            (r < n) & (node[new] < K_s[new]), cur[np.minimum(r + 1, n), new], np.nan
        )

        k0 += n
        prev, cur = cur, prev
        cur[0] = prev[n]
        done = np.flatnonzero(K_s <= k0)
        out[:, lane[done]] = left[done], low[done], right[done]
        take = min(done.size, len(order) - waiting)
        fresh = done[:take]
        lane[fresh] = order[waiting : waiting + take]
        waiting += take
        if take < done.size:
            # no lane waits: drop the empty slots
            keep = np.ones(width, dtype=bool)
            keep[done[take:]] = False
            fresh = np.cumsum(keep)[fresh] - 1
            width = int(keep.sum())
            lane, k0, low, node, left, right = (
                v[keep] for v in (lane, k0, low, node, left, right)
            )
            prev, cur = prev[:, keep], cur[:, keep]
    return out, rows


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


def _envelope(a):
    """The envelope model a*x/(1 + x); on lanes, a holds one slope per lane."""

    def w(x, lanes=None):
        return (a if lanes is None else a[lanes]) * x / (1.0 + x)

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
