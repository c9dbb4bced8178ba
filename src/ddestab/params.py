"""Parameter records, the sharp delay criterion, and stability-region geometry.

Equations are normalized so the instantaneous decay rate is 1: a slope
parameter a < 0 for the delayed feedback and theta = exp(-delay) in (0, 1).
The criterion compares theta against an explicit boundary curve in a; the
region of delay-independent certification splits into a band between two
curves in the (theta, mu) plane, mu = -1/a.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .ddouble import FLOAT
# no solve here: kept only as the name perfbench/spans.py's tracer patches
from .rootfind import solve_bracketed  # noqa: F401

__all__ = [
    "ParamSet",
    "NormParams",
    "NormLanes",
    "Region",
    "RegionLabel",
    "normalize",
    "sharp_criterion_margin",
    "criterion_norm",
    "linear_criterion",
    "sharp_boundary_theta",
    "linear_boundary_theta",
    "pi_curve",
    "classify",
    "classify_raster",
    "local_stability_boundary",
    "region_boundary_rows",
    "write_region_csv",
    "write_region_json",
]


@dataclass(frozen=True)
class ParamSet:
    """Raw equation parameters: x'(t) = -delta x(t) + feedback with lag h.

    a is the feedback slope at equilibrium (negative feedback).
    """

    a: float
    delta: float
    h: float

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise ValueError(f"decay rate must be positive, got {self.delta}")
        if not (self.h > 0.0):
            raise ValueError(f"delay must be positive, got {self.h}")
        if not (self.a < 0.0):
            raise ValueError(f"feedback slope must be negative, got {self.a}")


@dataclass(frozen=True)
class NormParams:
    """Normalized parameters: slope a < 0 and theta = exp(-delay) in (0, 1)."""

    a: float
    theta: float

    def __post_init__(self):
        if not (self.a < 0.0):
            raise ValueError(f"slope must be negative, got {self.a}")
        if self.a == -math.inf:
            raise ValueError(f"slope must be finite, got {self.a}")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")

    def mu(self) -> float:
        """Reciprocal slope magnitude -1/a; meaningful for a <= -1."""
        return -1.0 / self.a

    @property
    def delay(self) -> float:
        return -FLOAT.log(self.theta)


@dataclass(frozen=True)
class NormLanes(NormParams):
    """NormParams with one parameter point per lane: a and theta are float
    arrays of one shape (or one of them a float), for the lane forms of the
    criteria, the response maps and their bounds, and the integrator.

    The lanes may also carry their base table, as the rows of a product
    grid do: bases holds one lane per distinct point and base, an int
    array of the lanes' shape, each lane's point in it.  A quantity of a
    lane's point alone is then taken once per base and gathered by base
    (_per_base), delay among them."""

    bases: NormLanes | None = field(default=None, repr=False, compare=False)
    base: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not np.all(self.a < 0.0):
            raise ValueError(f"slopes must be negative, got {self.a}")
        if not np.all((0.0 < self.theta) & (self.theta < 1.0)):
            raise ValueError(f"thetas must lie in (0, 1), got {self.theta}")

    @functools.cached_property
    def delay(self):
        """-log(theta) per lane, taken once per lanes object: lanes with a
        base table gather the table's, which lanes cut from them (take)
        share."""
        if self.bases is None:
            return NormParams.delay.fget(self)
        return self.bases.delay[self.base]

    def take(self, rows) -> NormLanes:
        """The lanes at rows (an index, mask or slice), with the base table."""
        base = None if self.base is None else self.base[rows]
        return NormLanes(a=self.a[rows], theta=self.theta[rows], bases=self.bases, base=base)


def _per_base(np_: NormParams, fn):
    """fn(np_), an array or a tuple of arrays with an entry per lane: fn
    once per base and gathered by base, for lanes that carry a base table;
    fn(np_) itself for other lanes and for one point."""
    bases = getattr(np_, "bases", None)
    if bases is None:
        return fn(np_)
    out = fn(bases)
    return tuple(_rows(v, np_.base) for v in out) if type(out) is tuple else _rows(out, np_.base)


def _any(mask) -> bool:
    """Whether a comparison holds anywhere: a plain bool, or any lane of a mask."""
    return mask.any() if type(mask) is np.ndarray else mask


def _rows(v, base):
    """A per-base value at rows: v at each row's base, or v itself where
    base is None (v is then per row already, or one point's)."""
    return v if base is None else v[base]


class Region(Enum):
    LINEAR = "linear"
    CORE = "core"
    SECTOR = "sector"
    NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class RegionLabel:
    tag: Region
    reason: str = ""

    @property
    def certified(self) -> bool:
        return self.tag is not Region.NOT_CERTIFIED


def normalize(p: ParamSet) -> NormParams:
    """Rescale time by delta: slope a/delta, theta = exp(-h delta)."""
    theta = math.exp(-p.h * p.delta)
    if theta == 0.0:
        raise ValueError(f"exp(-delta*h) underflows to 0 at delta*h = {p.delta * p.h:.12g}")
    a = p.a / p.delta
    if a == -math.inf and p.a > -math.inf:
        raise ValueError(f"a/delta overflows at a = {p.a:.12g}, delta = {p.delta:.12g}")
    if a == 0.0:
        raise ValueError(f"a/delta underflows to 0 at a = {p.a:.12g}, delta = {p.delta:.12g}")
    return NormParams(a=a, theta=theta)


def _linear_rhs(a: float) -> float:
    # -(a + 1)/(a*a + 1) at a float slope.  Below about -1.34e154 a*a
    # overflows; the ratio is then -1/a, off by a relative 1/|a|, far below
    # an ulp
    aa = a * a
    return (-a - 1.0) / (aa + 1.0) if aa != math.inf else -1.0 / a


def _boundary_log(a: float) -> float:
    # log((a*a - a) / (a*a + 1)), written as log1p of the linear right-hand
    # side: the ratio drifts to 1 as a -> -inf and the direct form loses
    # digits.  For -1.1e-16 < a < 0 that argument rounds to -1: split the log
    # there instead
    x = _linear_rhs(a)
    return math.log1p(x) if x > -1.0 else math.log(-a) + math.log1p(-a) - math.log1p(a * a)


def sharp_criterion_margin(np_: NormParams) -> float:
    """-theta/a minus the boundary log; a float difference has the comparison's sign."""
    return -np_.theta / np_.a - _boundary_log(np_.a)


def criterion_norm(np_: NormParams) -> bool:
    """Sharp delay criterion in normalized parameters: a positive margin."""
    return sharp_criterion_margin(np_) > 0.0


def linear_criterion(np_: NormParams) -> bool:
    """Strictly stronger sub-criterion with a rational right-hand side.

    When it holds, the interval map built later is certified through its
    linearization alone (negative Schwarzian route).
    """
    return (-np_.theta / np_.a) > _linear_rhs(np_.a)


def sharp_boundary_theta(a: float) -> float:
    """Theta threshold for the sharp criterion at slope a < 0.

    The criterion holds iff theta > this value.  Nonpositive for
    a in [-1, 0): every delay is certified there.
    """
    if not a < 0.0:
        raise ValueError(f"slope must be negative, got {a}")
    return -a * _boundary_log(a)


def linear_boundary_theta(a: float) -> float:
    """Theta threshold for the linear sub-criterion: holds iff theta > this."""
    if not a < 0.0:
        raise ValueError(f"slope must be negative, got {a}")
    aa = a * a
    # where a*a overflows the ratio is 1 + 1/a, which rounds to 1
    return a * (a + 1.0) / (aa + 1.0) if aa != math.inf else 1.0


def pi_curve(j: int, mu: float) -> float:
    """Boundary curves of the certified band in the (theta, mu) plane.

    j=1: upper boundary (linear sub-criterion threshold),
    j=2: lower boundary (sharp criterion threshold),
    j=3: chord separating the small-mu corner treated by composite bounds.
    """
    if not (0.0 < mu <= 1.0):
        raise ValueError(f"mu must lie in (0, 1], got {mu}")
    if j == 1:
        return (1.0 - mu) / (1.0 + mu * mu)
    if j == 2:
        # log1p form of log((1+mu)/(1+mu^2)): exact counterpart of the
        # sharp-criterion threshold written against the slope
        return math.log1p((mu - mu * mu) / (1.0 + mu * mu)) / mu
    if j == 3:
        return (95.0 - 108.0 * mu) / (5.0 * (19.0 + 5.0 * mu))
    raise ValueError(f"curve index must be 1..3, got {j}")


# mu below which the corner region is active: positive root of
# 0.8*(1+mu^2) = 1-mu  (curve 1 crossing the 0.8 floor)
MU_SECTOR_MAX = (-1.0 + math.sqrt(1.64)) / 1.6


def classify(np_: NormParams) -> RegionLabel:
    """Decide certification and name the route that proves it.

    linear: the sub-criterion holds and a one-step Schwarzian argument works.
    core:   band interior; certified through the rational envelope map.
    sector: small-mu corner; needs the composite two-map route.
    not certified: exactly where criterion_norm fails.  At a >= -1 a
    certified point is linear, as -theta/a > 0 >= _linear_rhs(a) there.
    """
    if not criterion_norm(np_):
        return RegionLabel(
            Region.NOT_CERTIFIED,
            reason="sharp criterion fails: theta at or below the boundary curve",
        )
    if linear_criterion(np_):
        return RegionLabel(Region.LINEAR)
    mu = np_.mu()
    if np_.theta >= 0.8 and pi_curve(3, mu) <= np_.theta:
        return RegionLabel(Region.SECTOR)
    return RegionLabel(Region.CORE)


def classify_raster(slopes: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """classify at every (theta, slope) cell, as int8 indices into tuple(Region):
    one row per theta, one column per slope.

    Each slope's boundary log, linear right-hand side and chord are the
    floats classify computes; only the comparisons run on the 2-D grid, a
    later mask overriding an earlier one.  A slope at or above -1 has no
    chord: its cells are linear or not certified, as in classify.
    """
    lanes = NormLanes(a=slopes, theta=thetas[:, None])
    code = {tag: k for k, tag in enumerate(Region)}
    per_slope = [
        (_boundary_log(a), _linear_rhs(a), pi_curve(3, -1.0 / a) if a < -1.0 else math.inf)
        for a in slopes.tolist()
    ]
    sharp, linear, chord = np.array(per_slope).T
    q = -lanes.theta / lanes.a  # each cell's left-hand side of both criteria
    labels = np.full(q.shape, code[Region.CORE], dtype=np.int8)
    labels[(lanes.theta >= 0.8) & (chord <= lanes.theta)] = code[Region.SECTOR]
    labels[q > linear] = code[Region.LINEAR]
    labels[~(q > sharp)] = code[Region.NOT_CERTIFIED]
    return labels


def local_stability_boundary(a: float) -> float:
    """Theta at which the zero solution of the linearization loses stability.

    For slope a < -1 the linear equation x' = -x + a*x(t - h) is stable for
    small h and destabilizes at the delay where a conjugate pair crosses the
    imaginary axis; this returns exp(-h) at that crossing.  For a >= -1 the
    linearization is stable for every delay and there is no boundary.
    """
    if not a < -1.0:
        raise ValueError(f"need slope < -1 for a finite boundary, got {a}")
    # crossing frequency s in (pi/2, pi) solves cos(s) = 1/a (Hayes 1950)
    s = math.acos(1.0 / a)
    h_crit = s / (-a * math.sin(s))
    return math.exp(-h_crit)


def region_boundary_rows(mu_values) -> list[dict]:
    """Boundary-curve table for figure export; one dict per mu."""
    return [
        {
            "mu": float(mu),
            "theta_pi1": pi_curve(1, mu),
            "theta_pi2": pi_curve(2, mu),
            "theta_pi3": pi_curve(3, mu),
            "theta_local": local_stability_boundary(-1.0 / mu),
        }
        for mu in mu_values
    ]


_CSV_FIELDS = ["mu", "theta_pi1", "theta_pi2", "theta_pi3", "theta_local"]


def _table_text(header, cols, eol: str) -> bytes:
    """A numeric table as ASCII bytes: the header names joined by commas,
    then one line per row of the equal-length columns, every cell %.12g,
    each line ending in eol.  All cells go through a single bytes %
    operation, which formats faster than str %."""
    k, rows = len(cols), len(cols[0])
    cells = np.column_stack(cols).ravel().tolist()
    line = ("%.12g," * (k - 1) + "%.12g" + eol).encode("ascii")
    return (",".join(header) + eol).encode("ascii") + (line * rows) % tuple(cells)


def write_region_csv(path, rows) -> None:
    r"""Write region_boundary_rows' table as CSV, 12 significant digits, lines ending in \r\n."""
    cols = [[row[k] for row in rows] for k in _CSV_FIELDS]
    with open(path, "wb") as fh:
        fh.write(_table_text(_CSV_FIELDS, cols, "\r\n"))


def write_region_json(path, rows) -> None:
    """Write region_boundary_rows' table as JSON, full floats: byte for byte
    json.dumps({"fields": ..., "rows": rows}, indent=2, sort_keys=True),
    and a newline.

    json's indented output runs on its pure-Python encoder.  Where rows is
    not empty and each row holds finite Python floats under the fields'
    names, the rows fill one % template built from the sorted names
    instead, each value as float.__repr__, which json writes for a finite
    float; other rows go through json.dumps.
    """
    names = sorted(_CSV_FIELDS)
    keys = set(names)
    plain = bool(rows) and all(row.keys() == keys for row in rows)
    values = [row[k] for row in rows for k in names] if plain else []
    if plain and all(type(v) is float and math.isfinite(v) for v in values):
        head = json.dumps({"fields": _CSV_FIELDS}, indent=2)[:-2] + ',\n  "rows": [\n'
        row = "    {\n" + ",\n".join("      %s: %%r" % json.dumps(k) for k in names) + "\n    }"
        text = head + ",\n".join([row] * len(rows)) % tuple(values) + "\n  ]\n}\n"
    else:
        payload = {"fields": _CSV_FIELDS, "rows": rows}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
