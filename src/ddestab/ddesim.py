"""Fixed-step method-of-steps integration for x'(t) = -delta x(t) + w(x(t-h)).

Classic fourth-order Runge-Kutta on a uniform grid whose step divides the
delay exactly, so every delayed node value is a previously computed node and
delayed midpoints come from a four-point cubic stencil kept inside one
smoothness segment.  Restarting at delay multiples preserves the method
order despite the derivative jumps there.  Everything is deterministic.

Inside a delay segment the model reads only delayed values, so each RK4
step is affine in the current value: y+ = A*y + b, with A and the weights
of b the stages' own weights expanded in z = -delta*step (Bellen and
Zennaro, Numerical Methods for Delay Differential Equations, OUP 2003).
A segment takes its offsets b in one array expression, then runs the
two-operation recurrence; the values are those of RK4 stage by stage up
to rounding.

One march runs one history or several: a constant history whose value is
a 1-D array gives a column per value.  Each delay segment takes its
stencil, its model calls and its offsets once for all columns, and every
column is bitwise its own run.

integrate also runs many lanes of the normalised equation (delta = 1),
each with its own parameters, constant history and horizon, on a conveyor.
A fixed number of slots march in lockstep, one delay segment at a time,
two array operations per row.  A slot keeps only its lane's last two
segments and the lowest node seen so far in its window [start, horizon].
A segment the window misses costs the slot no minimum, one it spans takes
a plain column minimum, and only one it covers in part takes a masked
minimum.  At a segment boundary, a slot whose lane has reached its horizon
takes the next waiting lane, longest first.  Up to its own horizon every
lane is bitwise equal to its single run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import NormParams, ParamSet, _table_text

__all__ = [
    "History",
    "Trajectory",
    "LaneDips",
    "IntegrationDiverged",
    "integrate",
    "asymptotic_bounds",
    "BoundsResult",
]


class IntegrationDiverged(RuntimeError):
    """A non-finite value appeared during integration."""

    def __init__(self, t: float):
        super().__init__(f"integration produced a non-finite value near t = {t:.6g}")
        self.t = t


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class History:
    """Initial segment on s <= 0: constant, exponential ramp, or samples.

    The ramp with coefficient c is phi(s) = c*(1 - exp(-s)); it solves
    y' = -y + c backwards from y(0) = 0 in unit-decay time, which is the
    natural continuation appearing after a zero crossing.
    """

    def __init__(self, kind: str, value: float = 0.0, times=None, values=None):
        self.kind = kind
        # an array value gives one constant history per lane, or per column
        # of a single march
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
        """Rows of t,x numbers; a first row with no number in it is a header."""
        ts, vs = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                try:
                    t, x = map(float, row)
                except ValueError:
                    if reader.line_num == 1 and not any(map(_is_number, row)):
                        continue
                    raise ValueError(
                        f"history file {path}, line {reader.line_num}: "
                        f"expected two numbers t,x, got {','.join(row)!r}"
                    ) from None
                ts.append(t)
                vs.append(x)
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
            # an array value gives a column per value, C-contiguous: the
            # model computes each column on one value's layout
            return np.full(s.shape + np.shape(self.value), self.value)
        if self.kind == "ramp":
            return self.value * (1.0 - np.exp(-s))
        return np.interp(s, self.times, self.values)

    def __call__(self, s: float) -> float:
        return float(self.eval_array(np.asarray([s]))[0])


@dataclass
class Trajectory:
    """Uniform-grid solution values starting at t0 with the reported step.

    values is (nodes,), or (nodes, histories) for a run of several constant
    histories; extrema, export_csv and asymptotic_bounds read one history.
    """

    t0: float
    step: float
    values: np.ndarray
    delta: float
    h: float

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(len(self.values))

    @property
    def t_end(self) -> float:
        return self.t0 + self.step * (len(self.values) - 1)

    def extrema(self) -> list[tuple[float, float, str]]:
        """Interior extrema as (time, value, kind), parabola-refined."""
        return _find_extrema(self.values, self.t0, self.step)

    def export_csv(self, path) -> None:
        r"""Header t,x, then t0 + i*step and the value, both %.12g, rows ending in \r\n."""
        with open(path, "wb") as fh:
            fh.write(_table_text(("t", "x"), (self.times, self.values), "\r\n"))


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
    """Nodes whose neighbours both lie strictly below (max) or above (min),
    parabola-refined; a plateau of equal values is no extremum."""
    d = np.diff(y)
    up, down = d[:-1] > 0.0, d[:-1] < 0.0
    nodes = np.flatnonzero((up & (d[1:] < 0.0)) | (down & (d[1:] > 0.0))) + 1
    dt, v = _parabola_refine(y[nodes - 1], y[nodes], y[nodes + 1])
    kinds = ["max" if rising else "min" for rising in up[nodes - 1].tolist()]
    return list(zip((t0 + (nodes + dt) * s).tolist(), v.tolist(), kinds))


def _parabola_refine(ym: np.ndarray, y0: np.ndarray, yp: np.ndarray):
    """Vertex of the parabola through (-1, ym), (0, y0) and (1, yp), per
    entry: its offset in steps, clipped to [-1, 1], and its value; offset 0
    and value y0 where the three points are collinear."""
    den = yp - 2.0 * y0 + ym
    flat = den == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        dt = np.clip(0.5 * (ym - yp) / den, -1.0, 1.0)
        d = yp - ym
        v = y0 - d * d / (8.0 * den)
    return np.where(flat, 0.0, dt), np.where(flat, y0, v)


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
            9.0 * prev[lo:hi]
            - prev[lo - 1 : hi - 1]
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

    A constant history with a 1-D array of values runs in the same march
    with a column per value, bitwise each value's own run, and the
    trajectory's values are (nodes, histories).  A run that diverges raises
    at the earliest non-finite node over all columns.

    An array T of shape (2, L) runs L lanes on the conveyor and returns
    LaneDips: lane j marches to T[1, j] and reports its lowest node at or
    after T[0, j].  Lanes run the normalised equation, delta = 1: params
    then holds one parameter point per lane (a NormLanes), never a
    ParamSet.  hist is constant with one value per lane, and all lanes
    share the number of steps per delay.  The model is called as
    model(x, lanes): column c of x belongs to lane lanes[c].
    """
    delta, h = _delta_h(params)
    w: Callable = getattr(model, "f", model)
    if isinstance(T, np.ndarray):
        if isinstance(params, ParamSet):
            raise ValueError("lanes run the normalised equation: pass a NormLanes, not a ParamSet")
        return _lanes(w, hist, h, T, step)
    n, s, K = (v.item() for v in _step_grid(h, T, step))
    hist.check_span(h)
    if np.ndim(hist.value) and (hist.kind != "constant" or np.ndim(hist.value) != 1):
        raise ValueError("several histories in one run must be constant, a 1-d array of values")
    # one history keeps y 1-D: its end stencils then run on numpy scalars,
    # where a (nodes, 1) column made a run about 20% slower
    y = np.empty((K + 1,) + np.shape(hist.value))
    y[0] = hist.eval_array(np.zeros(1))[0]
    # overflow inside a blowing-up model is reported via IntegrationDiverged,
    # not as a numpy warning
    with np.errstate(all="ignore"):
        _march(w, hist, y, n, s, delta)
    return Trajectory(t0=0.0, step=s, values=y, delta=delta, h=h)


def _affine_weights(s, delta):
    """RK4's step of y' = -delta*y + w(t) as y+ = A*y + b, where
    b = (s/6)*(c0*w_node + c1*w_mid + w_next): the model values enter only
    through delayed nodes and midpoints, so the stages expand to these
    weights in z = -delta*s.  Returns (A, c0, c1, s/6), on floats, or per
    lane on arrays."""
    z = -delta * s
    A = 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))
    c0 = 1.0 + z * (1.0 + z * (0.5 + z / 4.0))
    c1 = 4.0 + z * (2.0 + z / 2.0)
    return A, c0, c1, s / 6.0


def _affine_b(w_node, w_mid, c0, c1, s6):
    """The offsets b of the steps over a run of rows: one array expression,
    elementwise, so a column or a lane gets the bits of its own run."""
    return s6 * (c0 * w_node[:-1] + c1 * w_mid + w_node[1:])


def _affine_rows(y, b, A) -> list:
    """[y, A*y + b[0], ...] on Python floats: the same IEEE operations as
    numpy's, a fraction of the cost per node."""
    rows = [y]
    push = rows.append
    for bi in b:
        y = A * y + bi
        push(y)
    return rows


def _affine_lanes(y, b, A) -> None:
    """y[i+1] = A*y[i] + b[i] down the rows of a 2-D array y, a lane per
    column, written in place: two array passes per row, each lane bitwise
    its _affine_rows.  out goes by position, which numpy parses faster than
    out=."""
    mul, add = np.multiply, np.add
    ys = list(y)
    for i, bi in enumerate(b):
        yn = ys[i + 1]
        add(mul(A, ys[i], yn), bi, yn)


def _march(w, hist, y, n, s, delta) -> None:
    """RK4 on the nodes of y, one delay segment at a time.

    y is (nodes,) for one history, or (nodes, histories) for a constant
    history with an array of values, a column each.  A segment takes one
    stencil, two model calls and one offset expression for all columns,
    then runs each column's rows on Python floats; a diverging run stops at
    the earliest non-finite node of any column."""
    A, c0, c1, s6 = _affine_weights(s, delta)
    K = len(y) - 1
    cols = y.reshape(K + 1, -1).T
    for k0 in range(0, K, n):
        k1 = min(k0 + n, K)
        cnt = k1 - k0
        if k0 == 0:
            node_del = hist.eval_array(np.arange(-n, cnt - n + 1) * s)
            mid_del = hist.eval_array((np.arange(-n, cnt - n) + 0.5) * s)
        else:
            node_del = y[k0 - n : k1 - n + 1]
            mid_del = _segment_midpoints(y[k0 - n : k0 + 1], 0, cnt)
        b = _affine_b(
            np.asarray(w(node_del), dtype=float), np.asarray(w(mid_del), dtype=float), c0, c1, s6
        )
        seg = cols[:, k0 : k1 + 1]
        b_cols = b.reshape(cnt, -1).T.tolist()
        seg[:] = [_affine_rows(y0, bj, A) for y0, bj in zip(seg[:, 0].tolist(), b_cols)]
        # A*y + b is inf or nan wherever y is: a column's last row is finite
        # only if all its rows are
        if not all(map(math.isfinite, seg[:, -1].tolist())):
            finite = np.isfinite(seg).all(axis=0)
            raise IntegrationDiverged((k0 + int(np.argmin(finite))) * s)


def _lanes(w, hist, h, T, step) -> LaneDips:
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
        values, rows = _conveyor(w, z, start, K, int(n[0]), s, _SLOTS)
    # a lane whose lowest node is its last has no right neighbour to refine with
    low, right = values[1], values[2]
    dip = np.where(np.isnan(right), low, _parabola_refine(values[0], low, right)[1])
    return LaneDips(step=s, values=values, dip=dip, rows=rows)


def _conveyor(w, z, start, K, n, s, slots):
    """March lanes on slots one delay segment at a time; returns the stencil
    of each lane's lowest node in [start, K] (see LaneDips) and the rows marched.

    prev and cur hold the last and the current segment of each slot's lane,
    nodes k0 - n .. k0 and k0 .. k0 + n.  Every lane starts on a segment
    boundary, so all slots share the segment rows.  A lane's window covers
    rows wlo..whi of a segment, max(start - k0, 1) .. min(K - k0, n): a
    slot whose window misses the segment (wlo > whi) takes no minimum, one
    whose window spans it (1 .. n) the plain column minimum, and one whose
    window covers part of it a masked minimum on its own column.  Only the
    slots with a new low look for the row that holds it.
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
        A, c0, c1, s6 = _affine_weights(lane_s, 1.0)
        for r0 in range(0, n, _CHUNK):
            r1 = min(r0 + _CHUNK, n)
            mids = _segment_midpoints(prev, r0, r1)
            mids[:, fresh] = z_new
            b = _affine_b(w(prev[r0 : r1 + 1], lane), w(mids, lane), c0, c1, s6)
            _affine_lanes(cur[r0 : r1 + 1], b, A)
        rows += n

        # A*y + b is inf or nan wherever y is: a slot's last row is finite
        # only if all its rows are
        if not np.isfinite(cur[n]).all():
            bad = np.argwhere(~np.isfinite(cur) & (row <= K_s - k0))
            if len(bad):
                r, j = bad[0].tolist()
                raise IntegrationDiverged(float((k0[j] + r) * lane_s[j]))

        # a lowest node on the last segment's last row gets its right neighbour now
        pending = node == k0
        right[pending] = cur[1, pending]
        # rows wlo..whi of each lane's window [start, K] in this segment
        wlo = np.maximum(start_s - k0, 1)
        whi = np.minimum(K_s - k0, n)
        seg_low = cur[1:].min(axis=0)
        seg_low[wlo > whi] = np.inf
        part = np.flatnonzero((wlo <= whi) & ((wlo > 1) | (whi < n)))
        inside = (row >= wlo[part]) & (row <= whi[part])
        seg_low[part] = np.where(inside, cur[:, part], np.inf).min(axis=0)
        new = np.flatnonzero(seg_low < low)
        # the first lowest row in the window, as argmin over a single run
        # finds it, on the columns with a new low only: the window holds a
        # row equal to the low, so no row after whi can come first
        r = ((cur[:, new] == seg_low[new]) & (row >= wlo[new])).argmax(axis=0)
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
