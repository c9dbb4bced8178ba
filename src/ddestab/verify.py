"""Dense-grid verification of every supporting inequality, with reports.

Each registered check sweeps a deterministic grid, evaluates one or more
margins (left side minus right side, so nonnegative means the inequality
holds), and records violations plus the smallest margin seen.  Margins that
land within a per-check threshold of zero are re-evaluated in double-double
arithmetic when the expression allows it, so sign decisions never rest on
float roundoff.  Every check evaluates grid columns: its margins come from
one float pass over a block of rows, the double-double recheck runs on the
rows that need it as lanes too, and response maps and trajectories are
solved and integrated as lanes.  Grids are nested: doubling the resolution
keeps every previously checked point.

Most grids are products of a small base table and an axis (Grid): a float
pass takes each quantity of a base alone (a coefficient pack, a tangent, a
polynomial's coefficients, a delay) once per base and gathers it to the
rows by the grid's base column.  Each check builds its own grid, and
verify_all runs the checks one by one.

The module also assembles per-point stability certificates and writes the
region-figure artifacts.  A certificate fact that a registered check holds
is that check's float margin, from its own margins function on grids of
the one point, and names the check (Fact.backed_by).
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ddouble import DOUBLE_DOUBLE, FLOAT
from .params import (
    MU_SECTOR_MAX,
    NormLanes,
    NormParams,
    Region,
    RegionLabel,
    _rows,
    classify,
    classify_raster,
    linear_boundary_theta,
    linear_criterion,
    local_stability_boundary,
    pi_curve,
    region_boundary_rows,
    sharp_boundary_theta,
    sharp_criterion_margin,
    write_region_csv,
    write_region_json,
    _table_text,
)
from .ratmaps import (
    R2_eval,
    R_eval,
    coeffs,
    coeffs_generic,
    r_inv,
    schwarz_margin,
    j_generic,
    j_tangent_coeffs,
    _branch_slope,
    _log_gap,
)
from .onedmaps import (
    F1_solve_r,
    F_solve_r,
    _g1_fraction,
    _mn_coeffs,
    _q_at,
    _s_at,
    _s_coeffs,
    bound_L,
    lambda_composite,
    ramp_slope_ratio,
    t_chain_generic,
)

__all__ = [
    "LemmaReport",
    "LEMMA_IDS",
    "SolveExhausted",
    "verify_lemma",
    "verify_all",
    "write_report",
    "Fact",
    "Certificate",
    "certificate",
    "sweep_figures",
]


@dataclass
class LemmaReport:
    """Grid-sweep outcome for one registered inequality."""

    lemma_id: str
    resolution: int
    grid_spec: str
    points_checked: int
    violations: list[dict]
    min_margin: float

    def to_json_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "resolution": self.resolution,
            "grid_spec": self.grid_spec,
            "points": self.points_checked,
            "violations": self.violations,
            "min_margin": self.min_margin,
        }

    def summary(self) -> str:
        """One progress line: check id, point count, violations, smallest margin."""
        return (
            f"{self.lemma_id}: points={self.points_checked} "
            f"violations={len(self.violations)} min_margin={self.min_margin:.6g}"
        )


class Grid(dict):
    """A sweep grid: equal-length float64 columns named by point key; row i
    is the point {name: column[i]}.

    A product grid also carries its base table: table, a dict of columns
    with one entry per base, and base, the int64 column of each row's
    entry, so that table[name][base] is column name, bitwise.  Rows come
    base by base, so the grid keeps only counts, the number of rows of
    each base, and base is made from it on demand: a block of rows (_cut)
    makes its own, and the full-length column is never held through a
    sweep.  A float pass takes a quantity of the base columns alone once
    per base, on table, and gathers it by base (_on_points, and _lanes
    with params._per_base).  A Grid without a base table, or a plain dict
    of columns or of floats (one point), is its own base table: a quantity
    is then taken at each row, as every double-double pass takes it.
    """

    table: dict | None = None
    counts: np.ndarray | None = None

    @property
    def base(self) -> np.ndarray | None:
        if self.counts is None:
            return None
        return np.repeat(np.arange(self.counts.size), self.counts)


def _cut(grid: Grid, rows: slice) -> Grid:
    """The rows of grid at rows, a slice of step 1, with the part of the
    base table they use."""
    cut = Grid({name: col[rows] for name, col in grid.items()})
    counts = getattr(grid, "counts", None)
    if counts is not None and _row_count(cut):
        # rows i..j-1 take the tail of base `first` through the head of base `last`
        ends = np.cumsum(counts)
        i, j, _ = rows.indices(int(ends[-1]))
        first, last = np.searchsorted(ends, [i, j - 1], side="right").tolist()
        cut.table = {name: col[first : last + 1] for name, col in grid.table.items()}
        cut.counts = counts[first : last + 1].copy()
        cut.counts[0] -= i - (ends[first] - counts[first])
        cut.counts[-1] -= ends[last] - j
    return cut


def _bases(grid) -> tuple:
    """(table, base): grid's base table and base column, or grid itself
    and None where grid is its own base table."""
    base = getattr(grid, "base", None)
    return (grid, None) if base is None else (grid.table, base)


def _points(grid) -> tuple:
    """(table, base) for a quantity of a point (a, theta): grid's base
    table and base column where the table holds a and theta, and grid
    itself and None where it does not (a band grid's holds mu and a,
    lele2's q)."""
    table, base = _bases(grid)
    if base is None or {"a", "theta"} <= table.keys():
        return table, base
    return grid, None


def _on_points(grid, fn) -> tuple:
    """fn(a, theta), a tuple of columns, at the rows of grid: once per base
    and gathered by base where the base table holds a and theta."""
    table, base = _points(grid)
    return tuple(_rows(v, base) for v in fn(table["a"], table["theta"]))


def _pack(grid, mx) -> tuple:
    """coeffs_generic's (lam, alpha, beta, a_star) at the rows of grid in mx."""
    return _on_points(grid, lambda a, th: coeffs_generic(a, th, mx))


def _lanes(grid) -> NormLanes:
    """The (a, theta) rows of grid as lanes, carrying the base table where
    it holds a and theta (_points)."""
    table, base = _points(grid)
    if base is None:
        return NormLanes(a=grid["a"], theta=grid["theta"])
    bases = NormLanes(a=table["a"], theta=table["theta"])
    return NormLanes(a=grid["a"], theta=grid["theta"], bases=bases, base=base)


@dataclass(frozen=True)
class _LemmaSpec:
    """One registered check.

    gen(n) gives the description of the grid at resolution n and the
    grid, which a FLOAT pass gets in blocks of rows, each with the part of
    the base table it uses (Grid).  margins(grid, mx, lows) evaluates grid
    columns in the backend mx and gives (label, column) pairs in label
    order, NaN where a label does not apply to a row; it takes each
    quantity of a base alone once per base and gathers it by base, and on
    a grid without a base table, as double-double passes get, at each
    row.  lows maps labels to the smallest float margin of the
    rows swept before grid's (a label it lacks has none), or is None.  With
    lows, the response-map checks settle root solves (_solved), and
    funcrr2 marches at h/256 only the lanes its coarse marches do not
    settle (_margins_funcrr2); both settle by _settle_above.  The other
    checks ignore lows, and without it every row is solved and marched to
    the end.  A check with a double-double form has a dd_threshold: it is
    evaluated in FLOAT and then, on the rows where some margin lands within
    dd_threshold of zero, in DOUBLE_DOUBLE.  A check whose dd_threshold is
    None has no double-double form and gets FLOAT only.
    """

    lemma_id: str
    dd_threshold: float | None
    gen: Callable[[int], tuple[str, Grid]]
    margins: Callable[[Grid, object], list[tuple[str, object]]]
    min_margin_override: Callable[[], float] | None = None


# ---------------------------------------------------------------------------
# grid builders
#
# Axes are evaluated on integer index arrays in the operation order of their
# scalar formulas, so every node is bitwise what the scalar expression gives.


def _band_grid(mus: np.ndarray, rows: np.ndarray, off, den: int, region: str) -> Grid:
    """Band sample: for each mu, theta = lo + (hi - lo) * (j + off) / den, j in rows.

    [lo, hi] is [pi_2, pi_1] at mu.  Region "D" keeps it, "Dstar" drops the
    small-mu corner (theta >= 0.8 above the chord pi_3), and "S" clips the
    interval to that corner.  The base table holds each kept mu and its a.
    """
    kept = []
    for mu in mus.tolist():
        lo = pi_curve(2, mu)
        hi = pi_curve(1, mu)
        chord = pi_curve(3, mu) if region != "D" else math.inf
        if region == "S":
            lo = max(lo, chord, 0.8)
            hi = min(hi, 1.0 - 1e-6)
        if hi > lo:
            kept.append((mu, lo, hi, chord))
    mu, lo, hi, chord = (np.array(col) for col in zip(*kept))
    theta = lo[:, None] + (hi - lo)[:, None] * (rows + off) / den
    keep = (region != "Dstar") | ~((theta >= 0.8) & (chord[:, None] <= theta))  # the corner cut
    base = np.broadcast_to(np.arange(mu.size)[:, None], theta.shape)[keep]
    table = {"mu": mu, "a": -1.0 / mu}
    grid = Grid({"mu": mu[base], "theta": theta[keep], "a": table["a"][base]})
    grid.table, grid.counts = table, keep.sum(axis=1)
    return grid


def _cell_band(n_mu: int, n_th: int, region: str, mu_top: float = 1.0) -> Grid:
    """Cell-centered band sample: mu = mu_top * (i + 1) / (n_mu + 1), theta rows j + 0.5."""
    mus = mu_top * (np.arange(n_mu) + 1) / (n_mu + 1)
    return _band_grid(mus, np.arange(n_th), 0.5, n_th, region)


def _row_count(grid: Grid) -> int:
    return len(next(iter(grid.values())))


def _slope_rect(a_far: float, from_linear: bool = False) -> Grid:
    """32x9 (slope, theta) rectangle with a = -1.05 - (a_far - 1.05) * i / 31.

    theta = 0.1 + 0.1 * j, or with from_linear 8 equal steps from the
    slope's linear threshold up to 1 - 1e-6.
    """
    a = -1.05 - (a_far - 1.05) * np.arange(32) / 31
    j = np.arange(9)
    if not from_linear:
        return _times({"a": a}, "theta", 0.1 + 0.1 * j)
    th_lo = np.array([linear_boundary_theta(s) for s in a.tolist()])[:, None]
    return _times({"a": a}, "theta", th_lo + (1.0 - 1e-6 - th_lo) * j / 8)


def _times(base: Grid, name: str, axis: np.ndarray) -> Grid:
    """Repeat each base row once per axis value, in a new column `name`:
    the product grid whose base table is base's columns.

    axis is either one 1-D array every row shares or a 2-D array holding one
    row of values per base row.
    """
    n, m = _row_count(base), axis.shape[-1]
    grid = Grid({col: np.repeat(v, m) for col, v in base.items()})
    grid[name] = axis.ravel() if axis.ndim == 2 else np.tile(axis, n)
    grid.table, grid.counts = dict(base), np.full(n, m)
    return grid


def _skip_zero(axis: np.ndarray) -> np.ndarray:
    """axis without its entries within 1e-12 of zero."""
    return axis[~(np.abs(axis) < 1e-12)]


# ---------------------------------------------------------------------------
# margin sets


def _margins_albet(grid: Grid, mx, lows=None) -> list:
    _, alpha, beta, _ = _pack(grid, mx)
    return [
        ("alpha_pos", alpha),
        ("alpha_below_one", 1.0 - alpha),
        ("beta_pos", beta),
    ]


def _margins_albeta(grid: Grid, mx, lows=None) -> list:
    a = mx.num(grid["a"])
    _, alpha, _, _ = _pack(grid, mx)
    prod = a * alpha
    return [
        ("slope_product_above_minus_one", 1.0 + prod),
        ("slope_product_negative", -prod),
    ]


def _margins_dom(grid: Grid, mx, lows=None) -> list:
    table, base = _bases(grid)  # one band width per mu
    mu = mx.num(table["mu"])
    th = mx.num(grid["theta"])
    a = mx.num(grid["a"])
    k = a * (th - 1.0)
    pi1 = (1.0 - mu) / (1.0 + mu * mu)
    pi2 = mx.log((1.0 + mu) / (1.0 + mu * mu)) / mu
    a_star = _branch_slope(a, th)  # coeffs_generic's a_star, with no pack
    return [
        ("band_width", _rows(pi1 - pi2, base)),
        ("slope_delay_low", k - 1.0),
        ("slope_delay_high", 1.5 - k),
        ("branch_slope_below_minus_one", -1.0 - a_star),
        ("interval_proper", k - th),
    ]


def _margins_jcal_tangent(grid: Grid, mx, lows=None) -> list:
    r = mx.num(grid["r"])
    j0, j1 = _on_points(grid, lambda a, th: j_tangent_coeffs(a, th, mx))
    jv = j_generic(grid["r"], grid["a"], grid["theta"], mx)
    return [("tangent_dominates", j0 + j1 * r - jv)]


_FD_STEP_J = 0.02


def _margins_jcal_concavity(grid: Grid, mx, lows=None) -> list:
    r, a, th = grid["r"], grid["a"], grid["theta"]

    def j(rr):
        return j_generic(rr, a, th, mx)

    h = _FD_STEP_J
    second = (
        -j(r - 2.0 * h) + 16.0 * j(r - h) - 30.0 * j(r) + 16.0 * j(r + h) - j(r + 2.0 * h)
    ) / (12.0 * h * h)
    return [("concave", -second)]


class SolveExhausted(RuntimeError):
    """A sweep's root solve reached the iteration limit on a row it needs."""


def _settle_above(offsets: dict, lows: dict, below: bool = False):
    """The settled(rows, lo, hi) predicate of one block's root solve, or
    of its coarse marches.

    Each label's margin is X - offsets[label] at a row's root or dip X, or
    offsets[label] - X with below.  An enclosure [lo, hi] of X bounds it
    from below by fl(lo - offset) (fl(offset - hi)) and from above by
    fl(hi - offset) (fl(offset - lo)), as rounding is monotone.  A row
    settles once, for every label, its lower bound exceeds 0 and the
    label's least upper bound so far: lows[label], or the smallest upper
    bound the block's rows have shown.  Its margin then lies strictly above
    the label's smallest margin and above 0, so a settled row is neither a
    violation nor where a minimum is taken.

    settled.probe(rows, width) gives the root solve each row's probe root
    (see onedmaps._settle_early): the root at which every label's margin
    reaches its bar, the larger of 0 and the label's least upper bound,
    moved twice the stop width `width` past it, so that an enclosure
    reaching width back from the probe still clears every bar.  A NaN
    offset gives a NaN probe.
    """
    least = {label: lows.get(label, math.inf) for label in offsets}

    def settled(rows, lo, hi):
        ok = np.ones(rows.size, dtype=bool)
        for label, offset in offsets.items():
            x = offset[rows]
            low, high = (x - hi, x - lo) if below else (lo - x, hi - x)
            least[label] = np.fmin(least[label], np.fmin.reduce(high, initial=math.inf))
            ok &= (low > 0.0) & (low > least[label])
        return ok

    def probe(rows, width):
        sign = -1.0 if below else 1.0
        with np.errstate(invalid="ignore"):  # an infinite offset past an infinite bar
            bar = functools.reduce(
                np.minimum if below else np.maximum,
                (offset[rows] + sign * max(least[label], 0.0) for label, offset in offsets.items()),
            )
        return bar + sign * 2.0 * width

    settled.probe = probe
    return settled


def _solved(solve, r, lanes, offsets: dict, lows, below: bool = False):
    """The root column of solve(r, lanes), from which each label's margin is
    X - offsets[label] (offsets[label] - X with below).

    With lows, the solve settles rows by _settle_above, and a settled row
    gives the end of its root enclosure that makes each of its margins the
    lower bound the predicate took; without, every row is solved to the end.

    A solve that reached the iteration limit has no root to the stop width:
    without lows its row gives NaN, so a fact taken from it fails; with
    lows, a sweep, it raises SolveExhausted.
    """
    if lows is None:
        sol = solve(r, lanes)
        if isinstance(sol.value, float):
            return math.nan if sol.exhausted else sol.value
        return np.where(sol.exhausted, math.nan, sol.value)
    sol = solve(r, lanes, settled=_settle_above(offsets, lows, below))
    if sol.exhausted.any():
        raise SolveExhausted(
            f"{int(sol.exhausted.sum())} root solves reached the iteration limit unsettled"
        )
    if below:
        end = np.maximum(sol.bracket[1], sol.value)
    else:
        end = np.minimum(sol.bracket[0], sol.value)
    return np.where(sol.settled, end, sol.value)


# the response-map and trajectory checks have no double-double form: they
# take mx without using it


def _margins_leform1(grid: Grid, mx, lows=None) -> list:
    r, lanes = grid["r"], _lanes(grid)
    offsets = {
        "response_above_tangent_bound": bound_L(r, lanes),
        "response_above_moebius": R_eval(r, coeffs(lanes)),
    }
    f_val = _solved(F_solve_r, r, lanes, offsets, lows)
    return [(label, f_val - offset) for label, offset in offsets.items()]


def _margins_plyus(grid: Grid, mx, lows=None) -> list:
    r, lanes = grid["r"], _lanes(grid)
    offsets = {"response_below_moebius": R_eval(r, coeffs(lanes))}
    f_val = _solved(F_solve_r, r, lanes, offsets, lows, below=True)
    return [(label, offset - f_val) for label, offset in offsets.items()]


def _margins_leform2(grid: Grid, mx, lows=None) -> list:
    r, lanes = grid["r"], _lanes(grid)
    num, den = _g1_fraction(r, lanes, ramp_slope_ratio(r, lanes) / r)
    offsets = {
        "ramp_above_taylor": num / den,
        "ramp_above_moebius": R_eval(r, coeffs(lanes)),
    }
    f1_val = _solved(F1_solve_r, r, lanes, offsets, lows)
    return [("taylor_denominator_pos", den)] + [
        (label, f1_val - offset) for label, offset in offsets.items()
    ]


def _margins_lele(grid: Grid, mx, lows=None) -> list:
    # the certificate polynomial at both ends of the r axis, from one set
    # of coefficients per row
    a = grid["a"]
    _, alpha, beta, a_star = _pack(grid, mx)
    mn = _mn_coeffs(a, grid["theta"], mx)
    return [
        ("certificate_nonpos_deep_end", -_q_at(mx.num(a), mn, alpha, beta)),
        ("certificate_nonpos_branch_end", -_q_at(mx.num(a_star), mn, alpha, beta)),
    ]


def _leleka_coeffs(a, th, mx) -> tuple:
    """leleka's quantities of (a, theta) alone: alpha, beta, the
    coefficients of the certificate polynomial and of its derivative, and
    the chain's three differences."""
    _, alpha, beta, _ = coeffs_generic(a, th, mx)
    t3, t2, t1_, t0 = t_chain_generic(a, th, mx, alpha=alpha)
    mn = _mn_coeffs(a, th, mx)
    s = _s_coeffs(a, th, mx, alpha=alpha, beta=beta)
    return alpha, beta, *mn, *s, t3 - t2, t2 - t1_, t1_ - t0


def _margins_leleka(grid: Grid, mx, lows=None) -> list:
    r = grid["r"]
    alpha, beta, *rest = _on_points(grid, lambda a, th: _leleka_coeffs(a, th, mx))
    mn, s, (t32, t21, t10) = rest[:10], rest[10:14], rest[14:]
    deep = r == grid["a"]  # the deep end of the r axis, once per (a, theta)
    r = mx.num(r)
    return [
        ("derivative_pos", _s_at(r, s)),
        ("certificate_nonpos", -_q_at(r, mn, alpha, beta)),
        ("chain_t3_gt_t2", mx.where(deep, t32, math.nan)),
        ("chain_t2_gt_t1", mx.where(deep, t21, math.nan)),
        ("chain_t1_gt_t0", mx.where(deep, t10, math.nan)),
    ]


# funcrr2's coarse pair, in steps per delay.  Measured at resolutions 16,
# 64 and 256 against h/256, and at 256 also against h/1024, on every lane:
# - every lane's error was at most 0.41 of its _dip_error_bound: at most
#   0.050 for lanes whose lowest node has a right neighbour, 0.41 for the
#   14 whose lowest node is their last (0.047 and 0.49 with the pair 4, 8);
# - for the former, the Richardson term alone missed 7 lanes at 64 and 14
#   at 256, by up to 56 times.  With the parabola term beside it the worst
#   lane reached 0.41 of its bound, with the slope term 0.050.  Without the
#   Richardson term one lane left its bound.
# Only the lowest lane then marches at h/256 at resolutions 64 and 256, and
# at 16 the lowest and the next one.  funcrr2's margins at resolution 256
# took a median of 45 ms so against 96 ms for the parent's, which marched
# the 14 last-node lanes at h/256 too.  The pair 4, 8 took 37 ms, but its
# wider bounds leave 27 lanes to march at h/256 (9 alternated runs in one
# process, on 2 vCPUs shared with other load)
_COARSE_STEPS = (8, 16)


def _funcrr2_runs(grid: Grid):
    """funcrr2's runs, a lane per row: from the constant history z with
    r(z) = r, each lane's lowest node from its first crossing tc up to
    tc + 3h.  Returns march(n=None, rows=None), the LaneDips of the lanes
    in rows (every lane without), marched at h/n steps (h/256 without n);
    z, tc and h are taken once for all marches."""
    from .ddesim import History, _envelope, integrate

    r, lanes = grid["r"], _lanes(grid)
    z = r_inv(r, lanes.a)
    tc = FLOAT.log(1.0 - (1.0 + z) / lanes.a)
    h = lanes.delay
    T = np.stack([tc, tc + 3.0 * h])

    def march(n: int | None = None, rows=slice(None)):
        part = lanes.take(rows)
        step = None if n is None else h[rows] / n
        return integrate(_envelope(part.a), History.constant(z[rows]), part, T[:, rows], step)

    return march


def _dip_error_bound(coarse, finer) -> np.ndarray:
    """A bound on each lane's |finer.dip - h/256 dip|, from the LaneDips of
    two coarse marches, finer at half coarse's step.  Its terms:
    - 4*|finer.dip - coarse.dip|, a step-halving (Richardson) estimate of
      the integration error (Hairer, Norsett and Wanner, Solving ODEs I,
      1993): for a fourth-order method finer's error is about 1/15 of the
      difference;
    - where the lowest node has a right neighbour, one step times the slope
      at the dip node, |right - left|/2, as the window's first node moves by
      up to a step with the step, and the parabola's sampling term
      |dip - low|;
    - where the lowest node is the lane's last, both one-sided slopes
      there, |low - left| and |beyond - low|, and the second difference
      |beyond - 2*low + left|, all over one step of finer: beyond, the node
      past the horizon, bounds a turn of the run within its last step.
    NaN where the lowest node is the last and beyond is not finite, so such
    a lane never settles."""
    left, low, right = finer.values
    beyond = finer.beyond
    last = np.isnan(right)
    with np.errstate(invalid="ignore", over="ignore"):
        turn = np.abs(low - left) + np.abs(beyond - low) + np.abs(beyond - 2.0 * low + left)
    local = np.where(
        last,
        np.where(np.isfinite(beyond), turn, np.nan),
        0.5 * np.abs(right - left) + np.abs(finer.dip - low),
    )
    return 4.0 * np.abs(finer.dip - coarse.dip) + local


def _margins_funcrr2(grid: Grid, mx, lows=None) -> list:
    """dip - corner bound of each run, its dip marched at h/256.

    With lows, in a sweep, every lane marches at the two _COARSE_STEPS, and
    settles by _settle_above on the enclosure _dip_error_bound gives its
    dip at the finer one: a settled lane's margin is the enclosure's lower
    end.  Only the lanes that do not settle march at h/256; a lane with no
    bound (its lowest node is its last and the node past its horizon is
    not finite) never settles."""
    label = "dip_above_corner_bound"
    corner = R2_eval(grid["r"], _lanes(grid))
    march = _funcrr2_runs(grid)
    if lows is None:
        return [(label, march().dip - corner)]
    coarse, finer = (march(n) for n in _COARSE_STEPS)
    err = _dip_error_bound(coarse, finer)
    dip = finer.dip - err
    settled = _settle_above({label: corner}, lows)(np.arange(dip.size), dip, finer.dip + err)
    fine = np.flatnonzero(~settled)
    dip[fine] = march(rows=fine).dip
    return [(label, dip - corner)]


def _margins_lele2(grid: Grid, mx, lows=None) -> list:
    table, base = _bases(grid)  # the terms of q alone, once per q
    q = mx.num(table["q"])
    ell = mx.log1p(q)
    # log(theta) + 1 - theta; near q = 0 the sum cancels and its series takes over
    gap = _log_gap(-q + ell, -q, mx)
    ratio, q2, gap = (_rows(v, base) for v in (gap / (1.0 - q + ell), q * q, gap))
    k = mx.num(grid["k"])
    a = mx.num(grid["a"])
    corner = ratio * k * k / (q2 - k * gap)
    _, _, beta, _ = _pack(grid, mx)
    rv = a * corner / (1.0 + corner)
    return [
        ("corner_above_minus_one", corner + 1.0),
        ("corner_image_in_domain", 1.0 - rv * beta),
    ]


def _margins_expo(grid: Grid, mx, lows=None) -> list:
    x = mx.num(grid["x"])
    ex = mx.exp(x)
    neg = grid["x"] < 0.0
    return [
        ("exp_above_linear", mx.where(neg, ex - 1.0 - x, math.nan)),
        ("exp_below_quadratic", mx.where(neg, 1.0 + x + x * x / 2.0 - ex, math.nan)),
        (
            "exp_above_cubic",
            mx.where(neg, math.nan, ex - (1.0 + x + x * x / 2.0 + x * x * x / 6.0)),
        ),
    ]


def _margins_r303(grid: Grid, mx, lows=None) -> list:
    q = mx.num(grid["q"])
    cubic = q - 0.5 * q * q + 0.4 * q * q * q
    return [("log_above_cubic", mx.log1p(q) - cubic)]


def _r303_endpoint_margin() -> float:
    ((_, m),) = _margins_r303({"q": np.array([-0.2])}, DOUBLE_DOUBLE)
    return float(DOUBLE_DOUBLE.value(m)[0])


def _margins_gss(grid: Grid, mx, lows=None) -> list:
    return [
        (
            "straightened_map_schwarz_neg",
            schwarz_margin(grid["x"], grid["a"], grid["theta"], mx),
        )
    ]


# ---------------------------------------------------------------------------
# generators


def _gen_band_d(n: int):
    return (
        f"band D product grid: mu=i/{n} (i=1..{n - 1}), theta=lo+(hi-lo)*j/{n} (j=0..{n})",
        _band_grid(np.arange(1, n) / n, np.arange(n + 1), 0, n, "D"),
    )


def _gen_albeta(n: int):
    """Band D's rows j >= 1, the same nodes: row j = 0 is dropped."""
    return (
        f"band D interior grid: mu=i/{n} (i=1..{n - 1}), theta=lo+(hi-lo)*j/{n} (j=1..{n}; "
        "lower edge excluded where the product degenerates to -1)",
        _band_grid(np.arange(1, n) / n, np.arange(1, n + 1), 0, n, "D"),
    )


def _gen_jcal_tangent(n: int):
    r = -0.25 + 5.25 * np.arange(1, n + 1) / n
    return (
        f"slope-theta rectangle (32x9) times r=-0.25+5.25*k/{n} (k=1..{n}, r=0 skipped)",
        # r = 0 is the tangency point, equality by construction
        _times(_slope_rect(10.0), "r", _skip_zero(r)),
    )


def _gen_jcal_concavity(n: int):
    return (
        f"slope-theta rectangle (32x9) times r=-0.2+5.2*k/{n} (k=0..{n}; "
        "0.05 clearance keeps the difference stencil inside the domain)",
        _times(_slope_rect(10.0), "r", -0.2 + 5.2 * np.arange(n + 1) / n),
    )


def _gen_leform1(n: int):
    base = _cell_band(32, 9, "D")
    a_star = _branch_slope(base["a"], base["theta"])
    return (
        f"cell-centered band sample (32x9) times r=a_star*(1-k/{n}) (k=0..{n - 1})",
        _times(base, "r", a_star[:, None] * (1.0 - np.arange(n) / n)),
    )


def _gen_plyus(n: int):
    base = _cell_band(32, 9, "D")
    _, _, beta, _ = coeffs_generic(base["a"], base["theta"])
    return (
        f"cell-centered band sample (32x9) times r=(1/beta)*k/{n} (k=1..{n - 1})",
        _times(base, "r", (1.0 / beta[:, None]) * np.arange(1, n) / n),
    )


def _toward_branch(base: Grid, k: np.ndarray, n: int) -> Grid:
    """base times r = a + (a_star - a) * k / n, from the deep end toward a_star."""
    a_star = _branch_slope(base["a"], base["theta"])
    a = base["a"][:, None]
    return _times(base, "r", a + (a_star[:, None] - a) * k / n)


def _gen_leform2(n: int):
    return (
        f"cell-centered band sample (32x9) times r=a+(a_star-a)*k/{n} (k=1..{n})",
        _toward_branch(_cell_band(32, 9, "D"), np.arange(1, n + 1), n),
    )


def _gen_lele(n: int):
    return (
        f"band D-minus-corner product grid: mu=i/{n} (i=1..{n - 1}), theta rows j=0..{n}",
        _band_grid(np.arange(1, n) / n, np.arange(n + 1), 0, n, "Dstar"),
    )


def _gen_leleka(n: int):
    return (
        f"cell-centered band sample (32x9, corner excluded) times r=a+(a_star-a)*k/{n} (k=0..{n})",
        _toward_branch(_cell_band(32, 9, "Dstar"), np.arange(n + 1), n),
    )


def _gen_funcrr2(n: int):
    m = min(n, 128)
    base = _cell_band(8, 5, "S", MU_SECTOR_MAX)
    return (
        f"cell-centered corner sample (8x5) times r=a*(1-k/{m}) (k=1..{m - 1}; "
        "r-axis capped at 128, simulation-backed); lanes settle on _dip_error_bound, "
        "a measured RK4 error bound that is not proved; each run's dip window starts at "
        "tc=log(1-(1+z)/a), which is the first crossing only where tc<=h",
        _times(base, "r", base["a"][:, None] * (1.0 - np.arange(1, m) / m)),
    )


def _gen_lele2(n: int):
    q = -0.2 + 0.2 * np.arange(n) / n
    grid = _times({"q": q}, "k", 1.0 + 0.5 * np.arange(n + 1) / n)
    # the point (a, theta) = (k/q, 1 + q) that beta is taken at
    grid["a"] = grid["k"] / grid["q"]
    grid["theta"] = 1.0 + grid["q"]
    return f"box grid: q=-0.2+0.2*i/{n} (i=0..{n - 1}), k=1+0.5*j/{n} (j=0..{n})", grid


def _gen_expo(n: int):
    x = -5.0 + 10.0 * np.arange(n + 1) / n
    return (f"x=-5+10*i/{n} (i=0..{n}, x=0 skipped)", {"x": _skip_zero(x)})


def _gen_r303(n: int):
    return (
        f"q=-0.2+0.2*i/{n} (i=0..{n - 1}); reported min_margin is the q=-0.2 endpoint value",
        {"q": -0.2 + 0.2 * np.arange(n) / n},
    )


def _gen_gss(n: int):
    return (
        f"slope-theta rectangle (32x9, theta from the linear threshold up) "
        f"times x=-0.9+10.9*k/{n} (k=1..{n})",
        _times(_slope_rect(4.0, from_linear=True), "x", -0.9 + 10.9 * np.arange(1, n + 1) / n),
    )


_REGISTRY: dict[str, _LemmaSpec] = {
    spec.lemma_id: spec
    for spec in (
        _LemmaSpec("albet", 1e-6, _gen_band_d, _margins_albet),
        _LemmaSpec("albeta", 1e-6, _gen_albeta, _margins_albeta),
        _LemmaSpec("dom", 1e-6, _gen_band_d, _margins_dom),
        _LemmaSpec("jcal_tangent", 1e-11, _gen_jcal_tangent, _margins_jcal_tangent),
        _LemmaSpec("jcal_concavity", None, _gen_jcal_concavity, _margins_jcal_concavity),
        _LemmaSpec("leform1", None, _gen_leform1, _margins_leform1),
        _LemmaSpec("plyus", None, _gen_plyus, _margins_plyus),
        _LemmaSpec("leform2", None, _gen_leform2, _margins_leform2),
        _LemmaSpec("lele", 1e-6, _gen_lele, _margins_lele),
        _LemmaSpec("leleka", 1e-6, _gen_leleka, _margins_leleka),
        _LemmaSpec("funcrr2", None, _gen_funcrr2, _margins_funcrr2),
        _LemmaSpec("lele2", 1e-6, _gen_lele2, _margins_lele2),
        _LemmaSpec("expo_bounds", 1e-6, _gen_expo, _margins_expo),
        _LemmaSpec(
            "r303", 1e-6, _gen_r303, _margins_r303, min_margin_override=_r303_endpoint_margin
        ),
        _LemmaSpec("gsslemma_schwarz", 1e-6, _gen_gss, _margins_gss),
    )
}

LEMMA_IDS = list(_REGISTRY)


# ---------------------------------------------------------------------------
# evaluation

# rows per float margin block, and so lanes per lockstep solve; also the
# most rows of one double-double recheck pass.  With settled solves, blocks
# of 4,096, 8,192 and 16,384 rows gave the sweep a pass_s of 0.622, 0.564
# and 0.556 s and a peak resident memory of 49.7, 50.1 and 53.3 MB (medians
# of 5 alternated 8 s benchmark runs, one process on a 2-vCPU VM): past
# 8,192 rows a block saves no time and costs memory.
# funcrr2's grid, at most 5,080 rows, always runs as one block: its coarse
# marches and then its h/256 march of the lanes they do not settle
_LANE_BLOCK = 8192


def _margin_columns(spec: _LemmaSpec, grid: Grid) -> list[tuple[str, np.ndarray]]:
    """(label, float64 margin column) pairs over the rows of grid.

    The float pass runs in blocks of _LANE_BLOCK rows, each with the part
    of the base table its rows use, and each block's margins call gets
    each label's smallest margin over the earlier blocks as lows (see
    _LemmaSpec).  A label whose float margin lands within dd_threshold of
    zero then takes its double-double value: the rows that have one are
    rechecked once per check, for all their labels, in passes of at most
    _LANE_BLOCK rows, as plain columns that are their own base table.
    Double-double lanes are bitwise their own runs, so how the near rows
    are cut into passes moves no bit.
    """
    n = _row_count(grid)
    labels, cols, lows = [], [], {}
    for i in range(0, n, _LANE_BLOCK):
        block = spec.margins(_cut(grid, slice(i, i + _LANE_BLOCK)), FLOAT, lows)
        if not cols:
            labels = [label for label, _ in block]
            cols = [np.empty(n) for _ in block]
        for col, (_, m) in zip(cols, block):
            col[i : i + _LANE_BLOCK] = m
        lows = {
            label: np.fmin(lows.get(label, math.inf), np.fmin.reduce(m, initial=math.inf))
            for label, m in block
        }
    if spec.dd_threshold is not None:
        near = [np.abs(col) < spec.dd_threshold for col in cols]
        rows = np.flatnonzero(np.logical_or.reduce(near))
        for i in range(0, rows.size, _LANE_BLOCK):
            part = rows[i : i + _LANE_BLOCK]
            rechecked = spec.margins({k: v[part] for k, v in grid.items()}, DOUBLE_DOUBLE, None)
            for col, hit, (_, m) in zip(cols, near, rechecked):
                take = hit[part]
                col[part[take]] = DOUBLE_DOUBLE.value(m)[take]
    return list(zip(labels, cols))


def _eval_columns(spec: _LemmaSpec, grid: Grid) -> tuple[list[dict], float]:
    """What the row loop gives, from one margin column per label (_margin_columns).

    The row loop visits margins in row order, then label order.  Its
    min_margin is the first smallest non-NaN margin in that order, which
    also fixes the sign of a zero, and its violations come in that order.
    Columns are scanned one at a time, so no rows-by-labels copy is made.

    The response-map checks and funcrr2 settle rows with the lows of the
    earlier blocks: a settled row's entry is a lower bound of its margin,
    above 0 and above the label's smallest margin, so each label's minimum,
    the first row that takes it, and the violations are those of solving
    and marching every row to the end.
    """
    labels, cols = zip(*_margin_columns(spec, grid))
    firsts = []  # (value, row, label index) of each column's first smallest margin
    for j, col in enumerate(cols):
        low = np.fmin.reduce(col)  # NaN only when every entry is NaN
        if not np.isnan(low):
            i = int(np.argmax(col == low))
            firsts.append((col[i], i, j))
    min_margin = float(min(firsts)[0]) if firsts else math.inf
    hits = sorted((i, j) for j, col in enumerate(cols) for i in np.flatnonzero(col < 0.0).tolist())
    violations = [
        {**{k: float(c[i]) for k, c in grid.items()}, "label": labels[j], "margin": float(cols[j][i])}
        for i, j in hits
    ]
    return violations, min_margin


def verify_lemma(lemma_id: str, resolution: int = 256) -> LemmaReport:
    """Sweep one registered inequality on the grid it builds at resolution."""
    if lemma_id not in _REGISTRY:
        raise KeyError(f"unknown check id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    if resolution < 4:
        raise ValueError("resolution must be at least 4")
    spec = _REGISTRY[lemma_id]
    grid_spec, grid = spec.gen(resolution)
    try:
        violations, min_margin = _eval_columns(spec, grid)
    except SolveExhausted as exc:
        raise SolveExhausted(f"check {lemma_id} at resolution {resolution}: {exc}") from None
    if spec.min_margin_override is not None:
        min_margin = spec.min_margin_override()
    return LemmaReport(
        lemma_id=lemma_id,
        resolution=resolution,
        grid_spec=grid_spec,
        points_checked=_row_count(grid),
        violations=violations,
        min_margin=min_margin,
    )


def write_report(report: LemmaReport, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report.lemma_id}.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n")
    return path


def verify_all(
    resolution: int = 256,
    threads: int | None = None,
    out_dir=None,
    progress: Callable[[str], None] | None = None,
) -> list[LemmaReport]:
    """Run every registered check by verify_lemma, in LEMMA_IDS order;
    optionally write one JSON report each to out_dir and give each report's
    summary line to progress."""
    # threads stays only because perfbench/workloads.py passes threads=1
    if threads not in (None, 1):
        raise ValueError(f"sweeps run in one process; threads must be None or 1, got {threads!r}")
    reports = []
    for lemma_id in LEMMA_IDS:
        rep = verify_lemma(lemma_id, resolution=resolution)
        if out_dir is not None:
            write_report(rep, out_dir)
        if progress is not None:
            progress(rep.summary())
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Fact:
    """One fact of a certificate; backed_by names the registered check whose
    margin it is, or is None for a fact no sweep holds."""

    name: str
    value: float
    requirement: str
    ok: bool
    backed_by: str | None = None


@dataclass(frozen=True)
class Certificate:
    """Certification chain at one parameter point.

    chain lists the verified facts backing the region label; failure holds
    the first failing fact when the point is not certified.
    """

    region: RegionLabel
    chain: list[Fact]
    failure: Fact | None

    @property
    def ok(self) -> bool:
        return self.region.certified and all(f.ok for f in self.chain)


# the x samples of the LINEAR certificate's Schwarz margin, made once
_SCHWARZ_SAMPLES = np.linspace(-0.9, 10.0, 41)
_SCHWARZ_SAMPLES.flags.writeable = False


def _backed(lemma_id: str, grids: list[Grid], labels: tuple[str, ...]) -> list[Fact]:
    """One fact per label: the check's own float margin, its smallest value
    over the rows of grids (NaN if any row gives NaN), needed > 0."""
    margins = _REGISTRY[lemma_id].margins
    per_grid = [dict(margins(grid, FLOAT)) for grid in grids]
    facts = []
    for label in labels:
        value = float(np.minimum.reduce([m[label] for m in per_grid], axis=None))
        facts.append(Fact(label, value, "> 0", value > 0.0, lemma_id))
    return facts


def certificate(np_: NormParams) -> Certificate:
    """Assemble the fact chain that backs the classification at this point.

    A fact that a registered check holds is that check's margin at the
    point: its margins function runs on grids of this one point, and the
    fact names the check in backed_by.  The sharp-criterion margin, the
    straightened slope and the two composite-map facts have no sweep.

    The chain reports classify's decisions: the criterion fact holds where
    the label certifies, the straightened slope (< 0 at every point) where
    linear_criterion does.  CORE omits albeta's 1 + a*alpha, the criterion
    again in a rounding that cancels near the boundary.
    """
    label = classify(np_)
    a, theta = np_.a, np_.theta
    crit_fact = Fact("sharp_criterion_margin", sharp_criterion_margin(np_), "> 0", label.certified)
    if label.tag is Region.NOT_CERTIFIED:
        return Certificate(label, [], crit_fact)

    chain = [crit_fact]
    if label.tag is Region.LINEAR:
        slope = (1.0 - np_.theta) * np_.a * np_.a / (np_.a - np_.theta)
        chain.append(Fact("straightened_slope", slope, "in (-1, 0)", linear_criterion(np_)))
        schwarz = {"x": _SCHWARZ_SAMPLES, "a": a, "theta": theta}
        chain += _backed("gsslemma_schwarz", [schwarz], ("straightened_map_schwarz_neg",))
    elif label.tag is Region.CORE:
        pt = {"a": a, "theta": theta}
        chain += _backed("albeta", [pt], ("slope_product_negative",))
        chain += _backed("albet", [pt], ("beta_pos",))
        chain += _backed("lele", [pt], ("certificate_nonpos_branch_end",))
        # seven spots on (a_star, 0), one scalar solve each
        spots = [{**pt, "r": _branch_slope(a, theta) * (i + 1) / 8} for i in range(7)]
        chain += _backed("leform1", spots, ("response_above_moebius",))
    else:  # SECTOR
        c = coeffs(np_)
        # theta >= 0.8 in the sector, so gamma is defined (theta > 0.16) and
        # q = theta - 1 is exact
        gamma = c.gamma
        chain.append(Fact("composite_slope", gamma, "in (0, 1)", 0.0 < gamma < 1.0))
        q = theta - 1.0
        corner = {"q": q, "k": a * q, "a": a, "theta": theta}
        chain += _backed("lele2", [corner], ("corner_above_minus_one", "corner_image_in_domain"))
        worst = 0.0
        for x in (0.25, 1.0, 4.0):
            worst = max(worst, lambda_composite(x, np_, c) / x)
        chain.append(Fact("composite_cycle_contraction", worst, "< 1", worst < 1.0))
    failure = next((f for f in chain if not f.ok), None)
    return Certificate(label, chain, failure)


# ---------------------------------------------------------------------------
# figures


def sweep_figures(out_dir, n_mu: int = 199, raster: int = 200) -> dict:
    """Write the region-figure artifacts; returns a name-to-path map.

    fig1: global-vs-local theta thresholds against the slope magnitude
          c = 0.02 * i, i = 1..500.
    fig2_curves: the band boundary curves against mu (CSV and JSON).
    fig2_raster: cell-centered region labels over the (theta, mu) square.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}

    cs = [0.02 * i for i in range(1, 501)]
    tgs = [max(0.0, sharp_boundary_theta(-cv)) if cv > 1.0 else 0.0 for cv in cs]
    tls = [local_stability_boundary(-cv) if cv > 1.0 else 0.0 for cv in cs]
    p1 = os.path.join(out_dir, "fig1.csv")
    with open(p1, "wb") as fh:
        fh.write(_table_text(("c", "theta_global", "theta_local"), (cs, tgs, tls), "\n"))
    paths["fig1"] = p1

    rows = region_boundary_rows([i / (n_mu + 1) for i in range(1, n_mu + 1)])
    p2 = os.path.join(out_dir, "fig2_curves.csv")
    write_region_csv(p2, rows)
    paths["fig2_curves"] = p2
    p2j = os.path.join(out_dir, "boundaries.json")
    write_region_json(p2j, rows)
    paths["boundaries"] = p2j

    # theta and mu take the same cell centres; one column of labels per mu
    centres = [(k + 0.5) / raster for k in range(raster)]
    labels = classify_raster(np.array([-1.0 / mu for mu in centres]), np.array(centres))
    cells = ["%.12g" % v for v in centres]
    # the "mu,label" tail of every line, one list over mu per region; each
    # row of the raster is cut into runs of one label, where the label
    # changes, and takes each run's tails as one slice of its label's list
    tails = [[f"{mu},{tag.value}\n" for mu in cells] for tag in Region]
    starts = np.ones(labels.shape, dtype=bool)
    starts[:, 1:] = labels[:, 1:] != labels[:, :-1]
    run_row, run_col = starts.nonzero()
    run_end = np.append(run_col[1:], 0)
    run_end[run_end == 0] = raster  # a run the next row follows ends its row
    runs = zip(run_row.tolist(), run_col.tolist(), run_end.tolist(), labels[run_row, run_col].tolist())
    p3 = os.path.join(out_dir, "fig2_raster.csv")
    with open(p3, "w", newline="") as fh:
        fh.write("theta,mu,label\n")
        row = []
        for i, start, end, code in runs:
            row += tails[code][start:end]
            if end == raster:
                head = cells[i] + ","
                fh.write(head + head.join(row))
                row = []
    paths["fig2_raster"] = p3
    return paths
