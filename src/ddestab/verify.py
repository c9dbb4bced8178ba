"""Dense-grid verification of every supporting inequality, with reports.

Each registered check sweeps a deterministic grid, evaluates one or more
margins (left side minus right side, so nonnegative means the inequality
holds), and records violations plus the smallest margin seen.  Margins that
land within a per-check threshold of zero are re-evaluated in double-double
arithmetic when the expression allows it, so sign decisions never rest on
float roundoff.  Checks without that recheck evaluate whole grid columns,
solving and integrating all points as lanes.  Grids are nested: doubling the
resolution keeps every previously checked point.

The module also assembles per-point stability certificates and writes the
region-figure artifacts.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
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
    classify,
    linear_boundary_theta,
    local_stability_boundary,
    pi_curve,
    sharp_boundary_theta,
    write_region_csv,
    write_region_json,
    _boundary_log,
)
from .ratmaps import (
    R2_eval,
    R_eval,
    coeffs,
    coeffs_generic,
    gamma_coeff,
    r_eval,
    r_inv,
    schwarz_margin,
    chi_iterate,
    j_generic,
    j_tangent_coeffs,
)
from .onedmaps import (
    F1_solve_r,
    F_solve_r,
    _g1_fraction,
    bound_L,
    lambda_composite,
    q_poly_generic,
    ramp_slope_ratio,
    s_poly_generic,
    t_chain_generic,
)

__all__ = [
    "LemmaReport",
    "LEMMA_IDS",
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


# a sweep grid: equal-length float64 columns named by point key; row i is
# the point {name: column[i]}
Grid = dict[str, np.ndarray]


@dataclass(frozen=True)
class _LemmaSpec:
    """One registered check.

    A dd_capable check's margins(pt, mx) evaluates one point dict in backend
    mx; any other check's margins(grid) returns one float64 column per label.
    Both give (label, margin) pairs in label order.
    """

    lemma_id: str
    dd_capable: bool
    gen: Callable[[int], tuple[str, Grid]]
    margins: Callable[..., list[tuple[str, object]]]
    dd_threshold: float = 1e-6
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
    interval to that corner.
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
    mu, lo, hi, chord = (np.array(col)[:, None] for col in zip(*kept))
    theta = lo + (hi - lo) * (rows + off) / den
    keep = (region != "Dstar") | ~((theta >= 0.8) & (chord <= theta))  # the corner cut
    mu = np.broadcast_to(mu, theta.shape)[keep]
    return {"mu": mu, "theta": theta[keep], "a": -1.0 / mu}


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
    """Repeat each base row once per axis value, in a new column `name`.

    axis is either one 1-D array every row shares or a 2-D array holding one
    row of values per base row.
    """
    grid = {col: np.repeat(v, axis.shape[-1]) for col, v in base.items()}
    grid[name] = axis.ravel() if axis.ndim == 2 else np.tile(axis, _row_count(base))
    return grid


def _skip_zero(grid: Grid, name: str) -> Grid:
    """Drop the rows where column `name` is zero (within 1e-12)."""
    keep = ~(np.abs(grid[name]) < 1e-12)
    return {col: v[keep] for col, v in grid.items()}


def _coeff_col(base: Grid, field: str) -> np.ndarray:
    """One coeffs(...) field per (a, theta) base row, as a column."""
    pairs = zip(base["a"].tolist(), base["theta"].tolist())
    return np.array([getattr(coeffs(NormParams(a=a, theta=th)), field) for a, th in pairs])


# ---------------------------------------------------------------------------
# margin sets


def _margins_albet(pt: dict, mx) -> list:
    one = mx.num(1.0)
    _, alpha, beta, _ = coeffs_generic(pt["a"], pt["theta"], mx)
    return [
        ("alpha_pos", alpha),
        ("alpha_below_one", one - alpha),
        ("beta_pos", beta),
    ]


def _margins_albeta(pt: dict, mx) -> list:
    one = mx.num(1.0)
    a = mx.num(pt["a"]) * one
    _, alpha, _, _ = coeffs_generic(pt["a"], pt["theta"], mx)
    prod = a * alpha
    return [
        ("slope_product_above_minus_one", one + prod),
        ("slope_product_negative", -prod),
    ]


def _margins_dom(pt: dict, mx) -> list:
    one = mx.num(1.0)
    mu = mx.num(pt["mu"]) * one
    th = mx.num(pt["theta"]) * one
    a = mx.num(pt["a"]) * one
    k = a * (th - one)
    pi1 = (one - mu) / (one + mu * mu)
    pi2 = mx.log((one + mu) / (one + mu * mu)) / mu
    _, _, _, a_star = coeffs_generic(pt["a"], pt["theta"], mx)
    return [
        ("band_width", pi1 - pi2),
        ("slope_delay_low", k - one),
        ("slope_delay_high", 1.5 * one - k),
        ("branch_slope_below_minus_one", -one - a_star),
        ("interval_proper", k - th),
    ]


def _margins_jcal_tangent(pt: dict, mx) -> list:
    one = mx.num(1.0)
    r = mx.num(pt["r"]) * one
    j0, j1 = j_tangent_coeffs(pt["a"], pt["theta"], mx)
    jv = j_generic(pt["r"], pt["a"], pt["theta"], mx)
    return [("tangent_dominates", j0 + j1 * r - jv)]


_FD_STEP_J = 0.02


def _concavity(r: float, a: float, th: float) -> float:
    def j(rr: float) -> float:
        return j_generic(rr, a, th)

    h = _FD_STEP_J
    second = (
        -j(r - 2.0 * h) + 16.0 * j(r - h) - 30.0 * j(r) + 16.0 * j(r + h) - j(r + 2.0 * h)
    ) / (12.0 * h * h)
    return -second


def _margins_jcal_concavity(grid: Grid) -> list:
    rows = zip(grid["r"].tolist(), grid["a"].tolist(), grid["theta"].tolist())
    return [("concave", np.fromiter((_concavity(*row) for row in rows), float, len(grid["r"])))]


def _by_base(grid: Grid, fn) -> list[np.ndarray]:
    """Columns from fn(r, np_), a tuple of arrays, called once per run of rows
    sharing one (a, theta) base, on that run's r values."""
    a, th = grid["a"], grid["theta"]
    cuts = np.flatnonzero((a[1:] != a[:-1]) | (th[1:] != th[:-1])) + 1
    firsts = np.r_[0, cuts]
    parts = [
        fn(r, NormParams(a=ab, theta=tb))
        for r, ab, tb in zip(np.split(grid["r"], cuts), a[firsts].tolist(), th[firsts].tolist())
    ]
    return [np.concatenate(col) for col in zip(*parts)]


def _margins_leform1(grid: Grid) -> list:
    f_val = F_solve_r(grid["r"], NormLanes(a=grid["a"], theta=grid["theta"])).value
    tangent, moebius = _by_base(grid, lambda r, np_: (bound_L(r, np_), R_eval(r, coeffs(np_))))
    return [
        ("response_above_tangent_bound", f_val - tangent),
        ("response_above_moebius", f_val - moebius),
    ]


def _margins_plyus(grid: Grid) -> list:
    f_val = F_solve_r(grid["r"], NormLanes(a=grid["a"], theta=grid["theta"])).value
    (moebius,) = _by_base(grid, lambda r, np_: (R_eval(r, coeffs(np_)),))
    return [("response_below_moebius", moebius - f_val)]


def _leform2_bounds(r: np.ndarray, np_: NormParams) -> tuple:
    num, den = _g1_fraction(r, np_, ramp_slope_ratio(r, np_) / r)
    return num, den, R_eval(r, coeffs(np_))


def _margins_leform2(grid: Grid) -> list:
    f1_val = F1_solve_r(grid["r"], NormLanes(a=grid["a"], theta=grid["theta"])).value
    num, den, moebius = _by_base(grid, _leform2_bounds)
    return [
        ("taylor_denominator_pos", den),
        ("ramp_above_taylor", f1_val - num / den),
        ("ramp_above_moebius", f1_val - moebius),
    ]


def _margins_lele(pt: dict, mx) -> list:
    a = pt["a"]
    th = pt["theta"]
    _, alpha, beta, a_star = coeffs_generic(a, th, mx)
    q_deep = q_poly_generic(a, a, th, mx, alpha=alpha, beta=beta)
    q_branch = q_poly_generic(a_star, a, th, mx, alpha=alpha, beta=beta)
    return [
        ("certificate_nonpos_deep_end", -q_deep),
        ("certificate_nonpos_branch_end", -q_branch),
    ]


def _margins_leleka(pt: dict, mx) -> list:
    a = pt["a"]
    th = pt["theta"]
    r = pt["r"]
    _, alpha, beta, _ = coeffs_generic(a, th, mx)
    out = [
        ("derivative_pos", s_poly_generic(r, a, th, mx, alpha=alpha, beta=beta)),
        ("certificate_nonpos", -q_poly_generic(r, a, th, mx, alpha=alpha, beta=beta)),
    ]
    if r == a:  # the deep end of the r axis, once per (a, theta)
        t3, t2, t1_, t0 = t_chain_generic(a, th, mx, alpha=alpha)
        out.extend(
            [
                ("chain_t3_gt_t2", t3 - t2),
                ("chain_t2_gt_t1", t2 - t1_),
                ("chain_t1_gt_t0", t1_ - t0),
            ]
        )
    return out


# values per lockstep integration block: 2^18 float64 (2 MB).  Blocks of
# 4 MB ran funcrr2 a fifth faster, but once freed they left the allocator
# holding more memory on each later sweep in the process
_SIM_BLOCK_VALUES = 1 << 18


def _funcrr2_lanes(r: np.ndarray, np_: NormParams) -> tuple:
    """Per row: constant history z with r(z) = r, first crossing time, delay, corner bound."""
    z = r_inv(r, np_.a)
    tc = np.array([math.log(v) for v in (1.0 - (1.0 + z) / np_.a).tolist()])
    return z, tc, np.full(len(r), np_.delay), R2_eval(r, np_)


def _horizon_blocks(K: np.ndarray):
    """Lanes in ascending last node K, in blocks of at most _SIM_BLOCK_VALUES values."""
    block: list[int] = []
    for lane in np.argsort(K, kind="stable").tolist():
        if block and (K[lane] + 1) * (len(block) + 1) > _SIM_BLOCK_VALUES:
            yield np.array(block)
            block = []
        block.append(lane)
    if block:
        yield np.array(block)


def _margins_funcrr2(grid: Grid) -> list:
    from .ddesim import History, _envelope, _extremum_after, _step_grid, integrate

    a, th = grid["a"], grid["theta"]
    z, tc, h, corner = _by_base(grid, _funcrr2_lanes)
    T = tc + 3.0 * h
    K = np.array([_step_grid(hl, Tl, None)[2] for hl, Tl in zip(h.tolist(), T.tolist())])

    # one block per call, so a block's trajectory is freed before the next runs
    def dips(lanes: np.ndarray) -> list[float]:
        tr = integrate(
            _envelope(a[lanes]),
            History.constant(z[lanes]),
            NormLanes(a=a[lanes], theta=th[lanes]),
            T[lanes],
        )
        return [
            _extremum_after(tr.values[: K[lane] + 1, col], tc[lane], tr.step[col], lowest=True)
            for col, lane in enumerate(lanes.tolist())
        ]

    dip = np.empty(len(T))
    # lanes of similar horizon share a block, so few steps run past a horizon
    for lanes in _horizon_blocks(K):
        dip[lanes] = dips(lanes)
    return [("dip_above_corner_bound", dip - corner)]


def _margins_lele2(pt: dict, mx) -> list:
    one = mx.num(1.0)
    q = mx.num(pt["q"]) * one
    k = mx.num(pt["k"]) * one
    a = float(pt["k"]) / float(pt["q"])
    th = 1.0 + float(pt["q"])
    ell = mx.log1p(q)
    corner = ((-q + ell) / (one - q + ell)) * k * k / (q * q - k * (-q + ell))
    _, _, beta, _ = coeffs_generic(a, th, mx)
    a_dd = mx.num(a) * one
    rv = a_dd * corner / (one + corner)
    return [
        ("corner_above_minus_one", corner + one),
        ("corner_image_in_domain", one - rv * beta),
    ]


def _margins_expo(pt: dict, mx) -> list:
    one = mx.num(1.0)
    x = mx.num(pt["x"]) * one
    ex = mx.exp(x)
    if pt["x"] < 0.0:
        return [
            ("exp_above_linear", ex - one - x),
            ("exp_below_quadratic", one + x + x * x / 2.0 - ex),
        ]
    return [
        ("exp_above_cubic", ex - (one + x + x * x / 2.0 + x * x * x / 6.0)),
    ]


def _margins_r303(pt: dict, mx) -> list:
    one = mx.num(1.0)
    q = mx.num(pt["q"]) * one
    cubic = q - 0.5 * q * q + 0.4 * q * q * q
    return [("log_above_cubic", mx.log1p(q) - cubic)]


def _r303_endpoint_margin() -> float:
    m = _margins_r303({"q": -0.2}, DOUBLE_DOUBLE)
    return float(m[0][1])


def _margins_gss(pt: dict, mx) -> list:
    return [
        ("straightened_map_schwarz_neg", schwarz_margin(pt["x"], pt["a"], pt["theta"], mx))
    ]


# ---------------------------------------------------------------------------
# generators


def _gen_band_d(n: int):
    return (
        f"band D product grid: mu=i/{n} (i=1..{n - 1}), theta=lo+(hi-lo)*j/{n} (j=0..{n})",
        _band_grid(np.arange(1, n) / n, np.arange(n + 1), 0, n, "D"),
    )


def _gen_albeta(n: int):
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
        _skip_zero(_times(_slope_rect(10.0), "r", r), "r"),
    )


def _gen_jcal_concavity(n: int):
    return (
        f"slope-theta rectangle (32x9) times r=-0.2+5.2*k/{n} (k=0..{n}; "
        "0.05 clearance keeps the difference stencil inside the domain)",
        _times(_slope_rect(10.0), "r", -0.2 + 5.2 * np.arange(n + 1) / n),
    )


def _gen_leform1(n: int):
    base = _cell_band(32, 9, "D")
    a_star = _coeff_col(base, "a_star")[:, None]
    return (
        f"cell-centered band sample (32x9) times r=a_star*(1-k/{n}) (k=0..{n - 1})",
        _times(base, "r", a_star * (1.0 - np.arange(n) / n)),
    )


def _gen_plyus(n: int):
    base = _cell_band(32, 9, "D")
    beta = _coeff_col(base, "beta")[:, None]
    return (
        f"cell-centered band sample (32x9) times r=(1/beta)*k/{n} (k=1..{n - 1})",
        _times(base, "r", (1.0 / beta) * np.arange(1, n) / n),
    )


def _toward_branch(base: Grid, k: np.ndarray, n: int) -> Grid:
    """base times r = a + (a_star - a) * k / n, from the deep end toward a_star."""
    a = base["a"][:, None]
    a_star = _coeff_col(base, "a_star")[:, None]
    return _times(base, "r", a + (a_star - a) * k / n)


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
        "r-axis capped at 128, simulation-backed)",
        _times(base, "r", base["a"][:, None] * (1.0 - np.arange(1, m) / m)),
    )


def _gen_lele2(n: int):
    q = -0.2 + 0.2 * np.arange(n) / n
    return (
        f"box grid: q=-0.2+0.2*i/{n} (i=0..{n - 1}), k=1+0.5*j/{n} (j=0..{n})",
        _times({"q": q}, "k", 1.0 + 0.5 * np.arange(n + 1) / n),
    )


def _gen_expo(n: int):
    x = -5.0 + 10.0 * np.arange(n + 1) / n
    return (f"x=-5+10*i/{n} (i=0..{n}, x=0 skipped)", _skip_zero({"x": x}, "x"))


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
        _LemmaSpec("albet", True, _gen_band_d, _margins_albet),
        _LemmaSpec("albeta", True, _gen_albeta, _margins_albeta),
        _LemmaSpec("dom", True, _gen_band_d, _margins_dom),
        _LemmaSpec(
            "jcal_tangent", True, _gen_jcal_tangent, _margins_jcal_tangent, dd_threshold=1e-11
        ),
        _LemmaSpec("jcal_concavity", False, _gen_jcal_concavity, _margins_jcal_concavity),
        _LemmaSpec("leform1", False, _gen_leform1, _margins_leform1),
        _LemmaSpec("plyus", False, _gen_plyus, _margins_plyus),
        _LemmaSpec("leform2", False, _gen_leform2, _margins_leform2),
        _LemmaSpec("lele", True, _gen_lele, _margins_lele),
        _LemmaSpec("leleka", True, _gen_leleka, _margins_leleka),
        _LemmaSpec("funcrr2", False, _gen_funcrr2, _margins_funcrr2),
        _LemmaSpec("lele2", True, _gen_lele2, _margins_lele2),
        _LemmaSpec("expo_bounds", True, _gen_expo, _margins_expo),
        _LemmaSpec(
            "r303", True, _gen_r303, _margins_r303, min_margin_override=_r303_endpoint_margin
        ),
        _LemmaSpec("gsslemma_schwarz", True, _gen_gss, _margins_gss),
    )
}

LEMMA_IDS = list(_REGISTRY)


# ---------------------------------------------------------------------------
# evaluation


def _eval_points(lemma_id: str, grid: Grid) -> tuple[list[dict], float]:
    spec = _REGISTRY[lemma_id]
    if not spec.dd_capable:
        return _eval_columns(spec, grid)
    violations: list[dict] = []
    min_margin = math.inf
    for row in zip(*(col.tolist() for col in grid.values())):
        pt = dict(zip(grid, row))
        dd_cache = None
        for label, m in spec.margins(pt, FLOAT):
            mf = float(m)
            if spec.dd_capable and abs(mf) < spec.dd_threshold:
                if dd_cache is None:
                    dd_cache = {l: v for l, v in spec.margins(pt, DOUBLE_DOUBLE)}
                mf = float(dd_cache[label])
            if mf < min_margin:
                min_margin = mf
            if mf < 0.0:
                violations.append({**pt, "label": label, "margin": mf})
    return violations, min_margin


def _eval_columns(spec: _LemmaSpec, grid: Grid) -> tuple[list[dict], float]:
    """What the row loop gives, from one margin column per label.

    The row loop visits margins in row order, then label order.  Its
    min_margin is the first smallest non-NaN margin in that order, which
    also fixes the sign of a zero, and its violations come in that order.
    Columns are scanned one at a time, so no rows-by-labels copy is made.
    """
    labels, cols = zip(*spec.margins(grid))
    lows = []  # (value, row, label index) of each column's first smallest margin
    for j, col in enumerate(cols):
        low = np.fmin.reduce(col)  # NaN only when every entry is NaN
        if not np.isnan(low):
            i = int(np.argmax(col == low))
            lows.append((col[i], i, j))
    min_margin = float(min(lows)[0]) if lows else math.inf
    hits = sorted((i, j) for j, col in enumerate(cols) for i in np.flatnonzero(col < 0.0).tolist())
    violations = [
        {**{k: float(c[i]) for k, c in grid.items()}, "label": labels[j], "margin": float(cols[j][i])}
        for i, j in hits
    ]
    return violations, min_margin


def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("DDE_STAB_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        return 1


def verify_lemma(lemma_id: str, resolution: int = 256, threads: int | None = None) -> LemmaReport:
    """Sweep one registered inequality at the given grid resolution."""
    if lemma_id not in _REGISTRY:
        raise KeyError(f"unknown check id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    if resolution < 4:
        raise ValueError("resolution must be at least 4")
    spec = _REGISTRY[lemma_id]
    grid_spec, grid = spec.gen(resolution)
    n_points = _row_count(grid)
    n_workers = _thread_count(threads)
    if n_workers == 1 or n_points < 512:
        violations, min_margin = _eval_points(lemma_id, grid)
    else:
        chunk = max(64, n_points // (n_workers * 4) + 1)
        starts = range(0, n_points, chunk)
        chunks = [{k: col[i : i + chunk] for k, col in grid.items()} for i in starts]
        violations = []
        min_margin = math.inf
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            for vios, mm in pool.map(_eval_points, [lemma_id] * len(chunks), chunks):
                violations.extend(vios)
                min_margin = min(min_margin, mm)
    if spec.min_margin_override is not None:
        min_margin = spec.min_margin_override()
    return LemmaReport(
        lemma_id=lemma_id,
        resolution=resolution,
        grid_spec=grid_spec,
        points_checked=n_points,
        violations=violations,
        min_margin=min_margin,
    )


def write_report(report: LemmaReport, out_dir) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{report.lemma_id}.json")
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def verify_all(
    resolution: int = 256,
    threads: int | None = None,
    out_dir=None,
    progress: Callable[[str], None] | None = None,
) -> list[LemmaReport]:
    """Run every registered check; optionally write one JSON report each."""
    reports = []
    for lemma_id in LEMMA_IDS:
        rep = verify_lemma(lemma_id, resolution=resolution, threads=threads)
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
    name: str
    value: float
    requirement: str
    ok: bool


@dataclass(frozen=True)
class Certificate:
    """Certification chain at one parameter point.

    chain lists the verified facts backing the region label; failure holds
    the first failing fact when the point is not certified.
    """

    point: tuple[float, float]
    region: RegionLabel
    chain: list[Fact]
    failure: Fact | None

    @property
    def ok(self) -> bool:
        return self.region.certified and all(f.ok for f in self.chain)


def certificate(np_: NormParams) -> Certificate:
    """Assemble the fact chain that backs the classification at this point."""
    label = classify(np_)
    point = (np_.a, np_.theta)
    # the same boundary expression criterion_norm compares, so this fact
    # and classify cannot disagree
    crit_margin = -np_.theta / np_.a - _boundary_log(np_.a)
    crit_fact = Fact("sharp_criterion_margin", crit_margin, "> 0", crit_margin > 0.0)
    if label.tag is Region.NOT_CERTIFIED:
        return Certificate(point, label, [], crit_fact if not crit_fact.ok else None)

    chain = [crit_fact]
    if label.tag is Region.LINEAR:
        slope = (1.0 - np_.theta) * np_.a * np_.a / (np_.a - np_.theta)
        chain.append(Fact("straightened_slope", slope, "in (-1, 0)", -1.0 < slope < 0.0))
        xs = np.linspace(-0.9, 10.0, 41).tolist()
        worst = min(schwarz_margin(x, np_.a, np_.theta) for x in xs)
        chain.append(Fact("straightened_schwarz_margin_min", float(worst), "> 0", worst > 0.0))
        orbit = chi_iterate(0.5, 6, np_)
        ratio = abs(orbit[-1]) / 0.5
        chain.append(Fact("orbit_contraction_sample", ratio, "< 1", ratio < 1.0))
    elif label.tag is Region.CORE:
        c = coeffs(np_)
        prod = np_.a * c.alpha
        chain.append(Fact("slope_product", prod, "in (-1, 0)", -1.0 < prod < 0.0))
        chain.append(Fact("beta_pos", c.beta, "> 0", c.beta > 0.0))
        q_branch = q_poly_generic(c.a_star, np_.a, np_.theta, alpha=c.alpha, beta=c.beta)
        chain.append(Fact("certificate_poly_at_branch", q_branch, "<= 0", q_branch <= 0.0))
        worst = math.inf
        for rz in (c.a_star * (i + 1) / 8 for i in range(7)):
            worst = min(worst, F_solve_r(rz, np_).value - R_eval(rz, c))
        chain.append(Fact("response_bound_spot_min", worst, ">= 0", worst >= -1e-9))
    else:  # SECTOR
        c = coeffs(np_)
        gam = gamma_coeff(np_)
        chain.append(Fact("composite_slope", gam, "in (0, 1)", 0.0 < gam < 1.0))
        corner = R2_eval(np_.a, np_)
        chain.append(Fact("corner_above_minus_one", corner, "> -1", corner > -1.0))
        rv = r_eval(corner, np_.a)
        chain.append(Fact("corner_image_in_domain", rv * c.beta, "< 1", rv * c.beta < 1.0))
        worst = 0.0
        for x in (0.25, 1.0, 4.0):
            worst = max(worst, lambda_composite(x, np_, c) / x)
        chain.append(Fact("composite_cycle_contraction", worst, "< 1", worst < 1.0))
    failure = next((f for f in chain if not f.ok), None)
    return Certificate(point, label, chain, failure)


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

    p1 = os.path.join(out_dir, "fig1.csv")
    with open(p1, "w", newline="") as fh:
        fh.write("c,theta_global,theta_local\n")
        for i in range(1, 501):
            cv = 0.02 * i
            if cv > 1.0:
                tg = max(0.0, sharp_boundary_theta(-cv))
                tl = local_stability_boundary(-cv)
            else:
                tg = 0.0
                tl = 0.0
            fh.write("%.12g,%.12g,%.12g\n" % (cv, tg, tl))
    paths["fig1"] = p1

    mu_values = [i / (n_mu + 1) for i in range(1, n_mu + 1)]
    p2 = os.path.join(out_dir, "fig2_curves.csv")
    write_region_csv(p2, mu_values)
    paths["fig2_curves"] = p2
    p2j = os.path.join(out_dir, "boundaries.json")
    write_region_json(p2j, mu_values)
    paths["boundaries"] = p2j

    p3 = os.path.join(out_dir, "fig2_raster.csv")
    with open(p3, "w", newline="") as fh:
        fh.write("theta,mu,label\n")
        for j in range(raster):
            th = (j + 0.5) / raster
            for i in range(raster):
                mu = (i + 0.5) / raster
                lab = classify(NormParams(a=-1.0 / mu, theta=th)).tag.value
                fh.write("%.12g,%.12g,%s\n" % (th, mu, lab))
    paths["fig2_raster"] = p3
    return paths
