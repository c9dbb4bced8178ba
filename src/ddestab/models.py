"""Benchmark feedback nonlinearities and the blowfly-equation certificate.

Builders return a Nonlinearity record: the map with a name for reports.  The
blowfly decision reduces the equation to normalized slope/theta coordinates
and takes check's certificate there; the attractor helpers bound the
late-time range in the humped regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import NormParams, Region, RegionLabel
# not called here: kept only as the names perfbench/spans.py's tracer patches
from .params import classify, sharp_boundary_theta  # noqa: F401
from .rootfind import solve_bracketed  # noqa: F401
from .verify import certificate

__all__ = [
    "Nonlinearity",
    "make_ricker_shifted",
    "make_wright",
    "make_mackey_glass",
    "make_wazewska",
    "make_rational",
    "NicholsonParams",
    "NoPositiveEquilibrium",
    "NicholsonDecision",
    "nicholson_global",
    "AttractorBounds",
    "attractor_bounds",
]


@dataclass(frozen=True)
class Nonlinearity:
    """A named feedback map; f accepts floats or numpy arrays, and
    integrate calls it as model.f."""

    name: str
    f: Callable


def make_ricker_shifted(q: float) -> Nonlinearity:
    """Humped recruitment map shifted to its positive equilibrium.

    w(y) = (y + ln q) * exp(-y) - ln q in units where the decay and spatial
    scales are 1; requires q > 1 so the equilibrium exists.  Slope at zero
    is 1 - ln q; the single critical point sits at 1 - ln q as well.
    """
    if not q > 1.0:
        raise ValueError(f"need q > 1 for a positive equilibrium, got {q}")
    lnq = math.log(q)

    def f(y):
        return (y + lnq) * np.exp(-y) - lnq

    return Nonlinearity(name=f"ricker(q={q:g})", f=f)


def make_wright(a: float) -> Nonlinearity:
    """Saturating exponential feedback a*(1 - exp(-x)); slope a at zero."""
    if not a < 0.0:
        raise ValueError(f"need a negative slope, got {a}")

    def f(x):
        return a * (1.0 - np.exp(-x))

    return Nonlinearity(name=f"wright(a={a:g})", f=f)


def make_mackey_glass(b: float, n: float) -> Nonlinearity:
    """Hill-decay production b/(1 + x^n) on x >= 0; shift before certifying."""
    if not (b > 0.0 and n >= 1.0):
        raise ValueError(f"need b > 0 and n >= 1, got b={b}, n={n}")

    def f(x):
        return b / (1.0 + np.power(x, n))

    return Nonlinearity(name=f"mackey(b={b:g},n={n:g})", f=f)


def make_wazewska(b1: float, b2: float) -> Nonlinearity:
    """Exponential production b1*exp(-b2*x); shift before certifying."""
    if not (b1 > 0.0 and b2 > 0.0):
        raise ValueError(f"need positive coefficients, got b1={b1}, b2={b2}")

    def f(x):
        return b1 * np.exp(-b2 * x)

    return Nonlinearity(name=f"wazewska(b1={b1:g},b2={b2:g})", f=f)


def make_rational(a: float, b: float = 1.0) -> Nonlinearity:
    """Moebius feedback a*x/(1 + b*x) on x > -1/b; zero Schwarzian everywhere."""
    if b <= 0.0:
        raise ValueError(f"need b > 0, got {b}")

    def f(x):
        return a * x / (1.0 + b * x)

    return Nonlinearity(name=f"rational(a={a:g},b={b:g})", f=f)


class NoPositiveEquilibrium(ValueError):
    """Production never exceeds decay: only the trivial equilibrium exists."""


# ---------------------------------------------------------------------------
# blowfly equation


@dataclass(frozen=True)
class NicholsonParams:
    """Blowfly equation N' = -delta N + p N(t-h) exp(-gamma_n N(t-h))."""

    p: float
    delta: float
    gamma_n: float
    h: float

    def __post_init__(self):
        for nm in ("p", "delta", "gamma_n", "h"):
            if not getattr(self, nm) > 0.0:
                raise ValueError(f"{nm} must be positive, got {getattr(self, nm)}")
        if math.isinf(self.p / self.delta):
            raise ValueError(
                f"p/delta must be finite, got p = {self.p:.12g}, delta = {self.delta:.12g}"
            )

    @property
    def q(self) -> float:
        return self.p / self.delta

    @property
    def ln_q(self) -> float:
        return math.log(self.q)

    @property
    def c(self) -> float:
        return self.ln_q - 1.0

    @property
    def theta(self) -> float:
        return math.exp(-self.delta * self.h)

    @property
    def n_star(self) -> float:
        if self.q <= 1.0:
            raise NoPositiveEquilibrium(
                f"p/delta = {self.q:.6g} <= 1: no positive equilibrium"
            )
        return self.ln_q / self.gamma_n

    def feedback(self) -> Nonlinearity:
        p, g = self.p, self.gamma_n

        def f(x):
            return p * x * np.exp(-g * x)

        return Nonlinearity(name=f"blowfly(p={p:g},gamma={g:g})", f=f)


@dataclass(frozen=True)
class NicholsonDecision:
    certified: bool
    theta: float
    slope: float
    n_star: float
    region: RegionLabel | None
    reason: str


def nicholson_global(params: NicholsonParams) -> NicholsonDecision:
    """Global stability decision for the positive blowfly equilibrium.

    The equilibrium-shifted feedback has slope 1 - ln q, so the sharp delay
    criterion applies directly: certified for every delay when ln q <= 2,
    otherwise iff check certifies (slope, theta).
    """
    n_star = params.n_star  # raises when p <= delta
    c = params.c
    theta = params.theta
    slope = -c  # = 1 - ln q
    certified = True
    region = None
    if c <= 0.0:
        reason = "production slope at equilibrium is nonnegative: monotone convergence"
    elif c <= 1.0:
        # slope in [-1, 0): the linear sub-criterion holds at every theta > 0,
        # also where exp(-delta*h) underflows to 0 (delta*h past about 745)
        region = RegionLabel(Region.LINEAR)
        reason = "slope magnitude at most 1: certified for every delay"
    elif theta > 0.0 and (cert := certificate(NormParams(a=slope, theta=theta))).ok:
        # check's verdict at (slope, theta): classify and the facts backing
        # its route, so the two commands agree also within an ulp of the
        # boundary; a theta that underflowed to 0 is not certified
        region = cert.region
        reason = "sharp delay criterion holds at the equilibrium slope"
    else:
        certified = False
        region = RegionLabel(
            Region.NOT_CERTIFIED,
            reason="theta at or below the boundary value for the equilibrium slope",
        )
        reason = region.reason
    return NicholsonDecision(
        certified=certified,
        theta=theta,
        slope=slope,
        n_star=n_star,
        region=region,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# attractor bounds in the humped regime


def _g_iter(u: float, q: float) -> float:
    g = q * u * math.exp(-u)
    # q*u overflows past q of about 1e154, and inf*0 is nan: the log form stays finite
    return g if math.isfinite(g) else u * math.exp(math.log(q) - u)


def _g_lanes(us: np.ndarray, q: float) -> np.ndarray:
    """_g_iter on each entry of us, in numpy arithmetic."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = q * us * np.exp(-us)
    bad = ~np.isfinite(g)
    if bad.any():
        g[bad] = us[bad] * np.exp(math.log(q) - us[bad])
    return g


def _g1_iter(u: float, q: float, theta: float) -> float:
    return theta * math.log(q) + (1.0 - theta) * _g_iter(u, q)


@dataclass(frozen=True)
class AttractorBounds:
    """Late-time range bracket for the blowfly equation, scaled units.

    lower/upper are in u = gamma_n * N units; lower_n/upper_n in N units.
    Each invariant flag confirms that route's own interval maps into itself
    (plain map on [g(g(1)), g(1)], delay-damped map on its
    peak-to-second-iterate bracket).  lower = max of the two routes,
    so the combined bracket need not be invariant under either map alone.
    """

    lower: float
    upper: float
    lower_n: float
    upper_n: float
    invariant_g: bool
    invariant_g1: bool


# sample count of each invariance check in attractor_bounds
_INVARIANCE_SAMPLES = 512


def attractor_bounds(params: NicholsonParams) -> AttractorBounds:
    """Iterate-based attractor bracket; requires the humped regime ln q > 2."""
    q = params.q
    lnq = params.ln_q
    if lnq <= 2.0:
        raise ValueError(f"attractor bracket needs ln q > 2, got {lnq:.6g}")
    theta = params.theta
    upper = _g_iter(1.0, q)  # maximum of the recruitment map
    low_g = _g_iter(upper, q)
    g1_peak = _g1_iter(1.0, q, theta)
    low_g1 = _g1_iter(g1_peak, q, theta)
    lower = max(low_g, low_g1)

    us = np.linspace(low_g, upper, _INVARIANCE_SAMPLES)
    g_vals = _g_lanes(us, q)
    inv_g = bool(g_vals.min() >= low_g - 1e-12 and g_vals.max() <= upper + 1e-12)
    us1 = np.linspace(low_g1, g1_peak, _INVARIANCE_SAMPLES)
    g1_vals = theta * lnq + (1.0 - theta) * _g_lanes(us1, q)
    inv_g1 = bool(
        g1_vals.min() >= low_g1 - 1e-12 and g1_vals.max() <= g1_peak + 1e-12
    )

    return AttractorBounds(
        lower=lower,
        upper=upper,
        lower_n=lower / params.gamma_n,
        upper_n=upper / params.gamma_n,
        invariant_g=inv_g,
        invariant_g1=inv_g1,
    )

