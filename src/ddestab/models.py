"""Benchmark feedback nonlinearities and the blowfly-equation certificate.

Builders return a Nonlinearity record bundling the map with its first three
derivatives, so admissibility checks and Schwarzian evaluations never rely
on finite differences unless explicitly requested.  The blowfly decision
reduces the equation to normalized slope/theta coordinates and reuses the
sharp delay criterion; the attractor helpers bound the late-time range in
the humped regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .params import (
    NormParams,
    Region,
    RegionLabel,
    classify,
    sharp_boundary_theta,
)
from .ratmaps import schwarzian
from .rootfind import BracketError, solve_bracketed

__all__ = [
    "Nonlinearity",
    "make_ricker_shifted",
    "make_wright",
    "make_mackey_glass",
    "make_wazewska",
    "make_rational",
    "shift_to_equilibrium",
    "WReport",
    "check_W",
    "lk_coeffs",
    "NicholsonParams",
    "NoPositiveEquilibrium",
    "NicholsonDecision",
    "nicholson_global",
    "AttractorBounds",
    "attractor_bounds",
    "third_iterate_margin",
    "branch_entry_margin",
]


@dataclass(frozen=True)
class Nonlinearity:
    """A feedback map with exact derivatives and domain metadata.

    f, d1, d2, d3 accept floats or numpy arrays.  domain_lo is the left edge
    of validity (state space is open to its right); critical_point, when not
    None, is the unique zero of d1.
    """

    name: str
    f: Callable
    d1: Callable
    d2: Callable
    d3: Callable
    domain_lo: float = -math.inf
    critical_point: float | None = None

    def __call__(self, x):
        return self.f(x)


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

    def d1(y):
        return (1.0 - y - lnq) * np.exp(-y)

    def d2(y):
        return (y + lnq - 2.0) * np.exp(-y)

    def d3(y):
        return (3.0 - y - lnq) * np.exp(-y)

    return Nonlinearity(
        name=f"ricker(q={q:g})",
        f=f,
        d1=d1,
        d2=d2,
        d3=d3,
        domain_lo=-lnq,
        critical_point=1.0 - lnq,
    )


def make_wright(a: float) -> Nonlinearity:
    """Saturating exponential feedback a*(1 - exp(-x)); slope a at zero."""
    if not a < 0.0:
        raise ValueError(f"need a negative slope, got {a}")

    def f(x):
        return a * (1.0 - np.exp(-x))

    def d1(x):
        return a * np.exp(-x)

    def d2(x):
        return -a * np.exp(-x)

    def d3(x):
        return a * np.exp(-x)

    return Nonlinearity(name=f"wright(a={a:g})", f=f, d1=d1, d2=d2, d3=d3)


def make_mackey_glass(b: float, n: float) -> Nonlinearity:
    """Hill-decay production b/(1 + x^n) on x >= 0; shift before certifying."""
    if not (b > 0.0 and n >= 1.0):
        raise ValueError(f"need b > 0 and n >= 1, got b={b}, n={n}")

    def f(x):
        return b / (1.0 + np.power(x, n))

    def d1(x):
        u = np.power(x, n)
        return -b * n * np.power(x, n - 1.0) / (1.0 + u) ** 2

    def d2(x):
        u = np.power(x, n)
        return -b * n * np.power(x, n - 2.0) * ((n - 1.0) - (n + 1.0) * u) / (1.0 + u) ** 3

    def d3(x):
        u = np.power(x, n)
        poly = (n - 1.0) * (n - 2.0) - 4.0 * (n - 1.0) * (n + 1.0) * u + (n + 1.0) * (n + 2.0) * u * u
        return -b * n * np.power(x, n - 3.0) * poly / (1.0 + u) ** 4

    return Nonlinearity(
        name=f"mackey(b={b:g},n={n:g})", f=f, d1=d1, d2=d2, d3=d3, domain_lo=0.0
    )


def make_wazewska(b1: float, b2: float) -> Nonlinearity:
    """Exponential production b1*exp(-b2*x); shift before certifying."""
    if not (b1 > 0.0 and b2 > 0.0):
        raise ValueError(f"need positive coefficients, got b1={b1}, b2={b2}")

    def f(x):
        return b1 * np.exp(-b2 * x)

    def d1(x):
        return -b1 * b2 * np.exp(-b2 * x)

    def d2(x):
        return b1 * b2 * b2 * np.exp(-b2 * x)

    def d3(x):
        return -b1 * b2 ** 3 * np.exp(-b2 * x)

    return Nonlinearity(name=f"wazewska(b1={b1:g},b2={b2:g})", f=f, d1=d1, d2=d2, d3=d3)


def make_rational(a: float, b: float = 1.0) -> Nonlinearity:
    """Moebius feedback a*x/(1 + b*x); zero Schwarzian everywhere."""
    if b <= 0.0:
        raise ValueError(f"need b > 0, got {b}")

    def f(x):
        return a * x / (1.0 + b * x)

    def d1(x):
        return a / (1.0 + b * x) ** 2

    def d2(x):
        return -2.0 * a * b / (1.0 + b * x) ** 3

    def d3(x):
        return 6.0 * a * b * b / (1.0 + b * x) ** 4

    return Nonlinearity(
        name=f"rational(a={a:g},b={b:g})", f=f, d1=d1, d2=d2, d3=d3, domain_lo=-1.0 / b
    )


class NoPositiveEquilibrium(ValueError):
    """Production never exceeds decay: only the trivial equilibrium exists."""


def shift_to_equilibrium(model: Nonlinearity, delta: float, hi: float = 1e6) -> tuple[Nonlinearity, float]:
    """Shift a positive production map to its equilibrium of x' = -delta x + w(x).

    Finds x* > 0 with w(x*) = delta*x* by bracketed bisection and returns the
    recentered map v(y) = w(x* + y) - delta*x* together with x*.
    """
    if delta <= 0.0:
        raise ValueError("decay must be positive")
    lo = max(model.domain_lo, 0.0) + 1e-12

    def gap(x):
        return float(model.f(x)) - delta * x

    if gap(lo) <= 0.0:
        raise NoPositiveEquilibrium(
            "production below decay at the left edge of the domain"
        )
    try:
        res = solve_bracketed(gap, lo, hi)
    except BracketError as exc:
        raise NoPositiveEquilibrium(
            f"production stays above decay up to x = {hi:g}"
        ) from exc
    x_star = res.root
    off = delta * x_star

    def f(y):
        return model.f(x_star + y) - off

    def d1(y):
        return model.d1(x_star + y)

    def d2(y):
        return model.d2(x_star + y)

    def d3(y):
        return model.d3(x_star + y)

    crit = None if model.critical_point is None else model.critical_point - x_star
    shifted = Nonlinearity(
        name=f"{model.name}@eq",
        f=f,
        d1=d1,
        d2=d2,
        d3=d3,
        domain_lo=model.domain_lo - x_star,
        critical_point=crit,
    )
    return shifted, x_star


# ---------------------------------------------------------------------------
# admissibility battery


@dataclass
class WReport:
    """Outcome of the feedback admissibility battery on a grid.

    violations maps check name (sign, shape, schwarzian) to offending grid
    points; verified_interval is the longest contiguous clean run.
    """

    passed: bool
    interval: tuple[float, float]
    n_points: int
    violations: dict = field(default_factory=dict)
    verified_interval: tuple[float, float] | None = None
    sw_max: float = -math.inf
    w_min: float = math.inf


def check_W(model: Nonlinearity, lo: float, hi: float, n: int = 2001) -> WReport:
    """Check the certification hypotheses for a feedback map on [lo, hi].

    sign: x*w(x) < 0 away from zero (negative feedback through the origin).
    shape: the derivative changes sign at most once (monotone or unimodal).
    schwarzian: S(w) <= 0 wherever the derivative is bounded away from zero.
    Also records the minimum of w (boundedness below) and the largest
    Schwarzian value seen.
    """
    if not (lo < hi):
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if lo <= model.domain_lo:
        raise ValueError(
            f"interval extends to {lo}, at or below the domain edge {model.domain_lo}"
        )
    xs = np.linspace(lo, hi, n)
    report = WReport(passed=True, interval=(lo, hi), n_points=n)
    bad_sign: list[float] = []
    bad_shape: list[float] = []
    bad_sw: list[float] = []

    fx = np.asarray(model.f(xs), dtype=float)
    d1x = np.asarray(model.d1(xs), dtype=float)
    report.w_min = float(fx.min())

    for x, v in zip(xs, fx):
        if abs(x) > 1e-9 and x * v >= 0.0:
            bad_sign.append(float(x))

    # shape: count sign changes of the derivative, ignoring near-zero values
    last_sign = 0
    changes = 0
    for x, d in zip(xs, d1x):
        sgn = 0 if abs(d) < 1e-12 else (1 if d > 0.0 else -1)
        if sgn == 0:
            continue
        if last_sign != 0 and sgn != last_sign:
            changes += 1
            if changes > 1:
                bad_shape.append(float(x))
        last_sign = sgn

    guard = (hi - lo) * 1e-3
    crit = model.critical_point
    for x, d in zip(xs, d1x):
        if abs(d) <= 1e-8:
            continue
        if crit is not None and abs(x - crit) <= guard:
            continue
        sw = float(schwarzian(model, float(x)))
        if sw > report.sw_max:
            report.sw_max = sw
        if sw > 1e-10:
            bad_sw.append(float(x))

    if bad_sign:
        report.violations["sign"] = bad_sign
    if bad_shape:
        report.violations["shape"] = bad_shape
    if bad_sw:
        report.violations["schwarzian"] = bad_sw
    report.passed = not report.violations

    bad_set = set(bad_sign) | set(bad_shape) | set(bad_sw)
    best_len = -1
    best = None
    run_start = None
    for idx, x in enumerate(xs):
        if float(x) in bad_set:
            run_start = None
            continue
        if run_start is None:
            run_start = idx
        if idx - run_start > best_len:
            best_len = idx - run_start
            best = (float(xs[run_start]), float(x))
    report.verified_interval = best
    return report


def lk_coeffs(q: float) -> tuple[float, float]:
    """Envelope calibration for the shifted recruitment map.

    Returns (slope, curvature ratio): slope = derivative at zero = 1 - ln q,
    ratio = -w''(0)/(2 w'(0)) so the Moebius comparison map slope*y/(1+ratio*y)
    matches to second order.  The slope must not vanish, which excludes q = e.
    """
    if not q > 1.0:
        raise ValueError(f"need q > 1, got {q}")
    a = 1.0 - math.log(q)
    if a == 0.0:
        raise ValueError("slope vanishes at q = e; no envelope calibration")
    b = (1.0 + a) / (2.0 * a)
    return a, b


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

        def d1(x):
            return p * (1.0 - g * x) * np.exp(-g * x)

        def d2(x):
            return p * g * (g * x - 2.0) * np.exp(-g * x)

        def d3(x):
            return p * g * g * (3.0 - g * x) * np.exp(-g * x)

        return Nonlinearity(
            name=f"blowfly(p={p:g},gamma={g:g})",
            f=f,
            d1=d1,
            d2=d2,
            d3=d3,
            domain_lo=0.0,
            critical_point=1.0 / g,
        )


@dataclass(frozen=True)
class NicholsonDecision:
    certified: bool
    unconditional: bool
    c: float
    theta: float
    theta_required: float
    slope: float
    n_star: float
    region: RegionLabel | None
    reason: str


def nicholson_global(params: NicholsonParams) -> NicholsonDecision:
    """Global stability decision for the positive blowfly equilibrium.

    The equilibrium-shifted feedback has slope 1 - ln q, so the sharp delay
    criterion applies directly: certified for every delay when ln q <= 2,
    otherwise iff theta exceeds the boundary value at slope -(ln q - 1).
    """
    n_star = params.n_star  # raises when p <= delta
    c = params.c
    theta = params.theta
    slope = -c  # = 1 - ln q
    if c <= 0.0:
        return NicholsonDecision(
            certified=True,
            unconditional=True,
            c=c,
            theta=theta,
            theta_required=-math.inf,
            slope=slope,
            n_star=n_star,
            region=None,
            reason="production slope at equilibrium is nonnegative: monotone convergence",
        )
    theta_required = sharp_boundary_theta(slope)
    if c <= 1.0:
        return NicholsonDecision(
            certified=True,
            unconditional=True,
            c=c,
            theta=theta,
            theta_required=theta_required,
            slope=slope,
            n_star=n_star,
            region=classify(NormParams(a=slope, theta=theta)),
            reason="slope magnitude at most 1: certified for every delay",
        )
    certified = theta > theta_required
    if certified:
        region = classify(NormParams(a=slope, theta=theta))
        reason = "sharp delay criterion holds at the equilibrium slope"
    else:
        region = RegionLabel(
            Region.NOT_CERTIFIED,
            reason="theta at or below the boundary value for the equilibrium slope",
        )
        reason = region.reason
    return NicholsonDecision(
        certified=certified,
        unconditional=False,
        c=c,
        theta=theta,
        theta_required=theta_required,
        slope=slope,
        n_star=n_star,
        region=region,
        reason=reason,
    )


# ---------------------------------------------------------------------------
# attractor bounds in the humped regime


def _g_iter(u: float, q: float) -> float:
    return q * u * math.exp(-u)


def _g1_iter(u: float, q: float, theta: float) -> float:
    return theta * math.log(q) + (1.0 - theta) * _g_iter(u, q)


@dataclass(frozen=True)
class AttractorBounds:
    """Late-time range bracket for the blowfly equation, scaled units.

    lower/upper are in u = gamma_n * N units; lower_n/upper_n in N units.
    x1 is the smallest preimage of the equilibrium under the recruitment
    map on (0, 1); each invariant flag confirms that route's own interval
    maps into itself (plain map on [g(g(1)), g(1)], delay-damped map on
    its peak-to-second-iterate bracket).  lower = max of the two routes,
    so the combined bracket need not be invariant under either map alone.
    """

    lower: float
    upper: float
    lower_n: float
    upper_n: float
    x1: float
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

    res = solve_bracketed(lambda x: _g_iter(x, q) - lnq, 1e-12, 1.0)
    x1 = res.root

    us = np.linspace(low_g, upper, _INVARIANCE_SAMPLES)
    g_vals = q * us * np.exp(-us)
    inv_g = bool(g_vals.min() >= low_g - 1e-12 and g_vals.max() <= upper + 1e-12)
    us1 = np.linspace(low_g1, g1_peak, _INVARIANCE_SAMPLES)
    g1_vals = theta * lnq + (1.0 - theta) * (q * us1 * np.exp(-us1))
    inv_g1 = bool(
        g1_vals.min() >= low_g1 - 1e-12 and g1_vals.max() <= g1_peak + 1e-12
    )

    return AttractorBounds(
        lower=lower,
        upper=upper,
        lower_n=lower / params.gamma_n,
        upper_n=upper / params.gamma_n,
        x1=x1,
        invariant_g=inv_g,
        invariant_g1=inv_g1,
    )


def third_iterate_margin(ln_q: float) -> float:
    """g(g(g(1))) - ln q for the recruitment map; positive keeps the third
    iterate above the equilibrium throughout the certified window."""
    q = math.exp(ln_q)
    u = _g_iter(1.0, q)
    u = _g_iter(u, q)
    u = _g_iter(u, q)
    return u - ln_q


def branch_entry_margin(ln_q: float) -> float:
    """Slack of the deeper-branch entry condition at the criterion boundary.

    (1 + c)*(theta_b - 1) - y1 with theta_b the boundary theta at slope -c
    and y1 the lower root of the quadratic entry condition; nonnegative for
    ln q >= 2.5.
    """
    c = ln_q - 1.0
    if c <= 1.0:
        raise ValueError(f"entry margin needs ln q > 2, got {ln_q}")
    theta_b = sharp_boundary_theta(-c)
    disc = ln_q * ln_q + 4.0 * ln_q - 4.0
    y1 = (2.0 - ln_q - math.sqrt(disc)) / 2.0
    return (1.0 + c) * (theta_b - 1.0) - y1
