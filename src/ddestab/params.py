"""Parameter records, the sharp delay criterion, and stability-region geometry.

Equations are normalized so the instantaneous decay rate is 1: a slope
parameter a < 0 for the delayed feedback and theta = exp(-delay) in (0, 1).
The criterion compares theta against an explicit boundary curve in a; the
region of delay-independent certification splits into a band between two
curves in the (theta, mu) plane, mu = -1/a.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rootfind import solve_bracketed

__all__ = [
    "ParamSet",
    "NormParams",
    "NormLanes",
    "Region",
    "RegionLabel",
    "normalize",
    "criterion_delta",
    "criterion_norm",
    "linear_criterion",
    "sharp_boundary_theta",
    "linear_boundary_theta",
    "critical_h",
    "pi_curve",
    "classify",
    "local_stability_boundary",
    "region_boundary_rows",
    "write_region_csv",
    "write_region_json",
]


@dataclass(frozen=True)
class ParamSet:
    """Raw equation parameters: x'(t) = -delta x(t) + feedback with lag h.

    a is the feedback slope at equilibrium (negative feedback), b an optional
    amplitude carried along for model builders.
    """

    a: float
    delta: float
    h: float
    b: float = 1.0

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise ValueError(f"decay rate must be positive, got {self.delta}")
        if not (self.h > 0.0):
            raise ValueError(f"delay must be positive, got {self.h}")
        if not (self.a < 0.0):
            raise ValueError(f"feedback slope must be negative, got {self.a}")
        if not (self.b > 0.0):
            raise ValueError(f"amplitude must be positive, got {self.b}")


@dataclass(frozen=True)
class NormParams:
    """Normalized parameters: slope a < 0 and theta = exp(-delay) in (0, 1).

    scale records the amplitude used during normalization so trajectories can
    be mapped back; it does not affect any stability decision.
    """

    a: float
    theta: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.a < 0.0):
            raise ValueError(f"slope must be negative, got {self.a}")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")

    def mu(self) -> float:
        """Reciprocal slope magnitude -1/a; meaningful for a <= -1."""
        return -1.0 / self.a

    @property
    def delay(self) -> float:
        return -math.log(self.theta)


class NormLanes(NormParams):
    """NormParams with one parameter point per lane: a and theta are float
    arrays of one shape, for the lane forms of the response maps and the
    integrator."""

    def __post_init__(self):
        if not np.all(self.a < 0.0):
            raise ValueError(f"slopes must be negative, got {self.a}")
        if not np.all((0.0 < self.theta) & (self.theta < 1.0)):
            raise ValueError(f"thetas must lie in (0, 1), got {self.theta}")

    @property
    def delay(self) -> np.ndarray:
        # libm per lane, as for one point: np.log differs in the last bit
        return -np.array([math.log(th) for th in self.theta.tolist()])


def _any(mask) -> bool:
    """Whether a comparison holds anywhere: a plain bool, or any lane of a mask."""
    return mask.any() if type(mask) is np.ndarray else mask


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
    return NormParams(a=p.a / p.delta, theta=math.exp(-p.h * p.delta), scale=p.b)


def _boundary_log(a: float) -> float:
    # log((a*a - a) / (a*a + 1)), written as log1p((-a - 1)/(a*a + 1)):
    # the ratio drifts to 1 as a -> -inf and the direct form loses digits
    return math.log1p((-a - 1.0) / (a * a + 1.0))


def criterion_delta(a: float, delta: float, h: float) -> bool:
    """Sharp delay criterion in raw parameters.

    True when (-delta/a) * exp(-h*delta) exceeds
    log((a^2 - a*delta) / (delta^2 + a^2)).
    """
    if not (delta > 0.0 and h > 0.0 and a < 0.0):
        raise ValueError("need a < 0, delta > 0, h > 0")
    lhs = (-delta / a) * math.exp(-h * delta)
    rhs = math.log((a * a - a * delta) / (delta * delta + a * a))
    return lhs > rhs


def criterion_norm(np_: NormParams) -> bool:
    """Sharp delay criterion in normalized parameters: -theta/a > boundary log."""
    return (-np_.theta / np_.a) > _boundary_log(np_.a)


def linear_criterion(np_: NormParams) -> bool:
    """Strictly stronger sub-criterion with a rational right-hand side.

    When it holds, the interval map built later is certified through its
    linearization alone (negative Schwarzian route).
    """
    a = np_.a
    return (-np_.theta / a) > -(a + 1.0) / (a * a + 1.0)


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
    return a * (a + 1.0) / (a * a + 1.0)


def critical_h(a: float, delta: float) -> float:
    """Largest certified delay for given slope and decay; inf when unconditional."""
    thr = sharp_boundary_theta(a / delta)
    if thr <= 0.0:
        return math.inf
    return -math.log(thr) / delta


def pi_curve(j: int, mu: float) -> float:
    """Boundary curves of the certified band in the (theta, mu) plane.

    j=1: upper boundary (linear sub-criterion threshold),
    j=2: lower boundary (sharp criterion threshold),
    j=3: chord separating the small-mu corner treated by composite bounds,
    j=4: the constant 0.8 floor of that corner.
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
    if j == 4:
        return 0.8
    raise ValueError(f"curve index must be 1..4, got {j}")


# mu below which the corner region is active: positive root of
# 0.8*(1+mu^2) = 1-mu  (curve 1 crossing the 0.8 floor)
MU_SECTOR_MAX = (-1.0 + math.sqrt(1.64)) / 1.6


def classify(np_: NormParams) -> RegionLabel:
    """Decide certification and name the route that proves it.

    linear: the sub-criterion holds and a one-step Schwarzian argument works.
    core:   band interior; certified through the rational envelope map.
    sector: small-mu corner; needs the composite two-map route.
    """
    if not criterion_norm(np_):
        return RegionLabel(
            Region.NOT_CERTIFIED,
            reason="sharp criterion fails: theta at or below the boundary curve",
        )
    if linear_criterion(np_):
        return RegionLabel(Region.LINEAR)
    if np_.a >= -1.0:
        # unreachable for a in [-1, 0): the linear threshold is <= 0 there;
        # kept as a guard so a logic regression surfaces as a clean label
        return RegionLabel(
            Region.NOT_CERTIFIED,
            reason="slope in [-1, 0) with the linear sub-criterion failing",
        )
    mu = np_.mu()
    if np_.theta >= 0.8 and pi_curve(3, mu) <= np_.theta:
        return RegionLabel(Region.SECTOR)
    return RegionLabel(Region.CORE)


def local_stability_boundary(a: float) -> float:
    """Theta at which the zero solution of the linearization loses stability.

    For slope a < -1 the linear equation x' = -x + a*x(t - h) is stable for
    small h and destabilizes at the delay where a conjugate pair crosses the
    imaginary axis; this returns exp(-h) at that crossing.  For a >= -1 the
    linearization is stable for every delay and there is no boundary.
    """
    if not a < -1.0:
        raise ValueError(f"need slope < -1 for a finite boundary, got {a}")
    # crossing frequency s in (pi/2, pi) solves cos(s) = 1/a
    res = solve_bracketed(lambda s: math.cos(s) - 1.0 / a, 0.5 * math.pi, math.pi)
    s = res.root
    h_crit = s / (-a * math.sin(s))
    return math.exp(-h_crit)


def region_boundary_rows(mu_values) -> list[dict]:
    """Boundary-curve table for figure export; one dict per mu."""
    rows = []
    for mu in mu_values:
        rows.append(
            {
                "mu": float(mu),
                "theta_pi1": pi_curve(1, mu),
                "theta_pi2": pi_curve(2, mu),
                "theta_pi3": pi_curve(3, mu),
                "theta_local": local_stability_boundary(-1.0 / mu),
            }
        )
    return rows


_CSV_FIELDS = ["mu", "theta_pi1", "theta_pi2", "theta_pi3", "theta_local"]


def _fmt(x: float) -> str:
    return "%.12g" % x


def write_region_csv(path, mu_values) -> None:
    rows = region_boundary_rows(mu_values)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_CSV_FIELDS)
        for row in rows:
            w.writerow([_fmt(row[k]) for k in _CSV_FIELDS])


def write_region_json(path, mu_values) -> None:
    rows = region_boundary_rows(mu_values)
    payload = {
        "fields": _CSV_FIELDS,
        "rows": [{k: row[k] for k in _CSV_FIELDS} for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
