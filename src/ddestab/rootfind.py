"""Bracketed root finding, one scalar solve or many lanes in lockstep.

Secant steps accelerated inside a maintained sign-change bracket, with a
forced bisection every third iteration so the bracket width shrinks even
when the secant stalls at one endpoint.  Deterministic: no randomness, and
nothing is assumed of the caller's function beyond sign consistency.

Lanes are independent solves advanced together through numpy arrays, each
lane taking exactly the steps its scalar solve takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


@dataclass(frozen=True)
class RootResult:
    """Solve outcome.  For lanes, root, f_root and the bracket ends are arrays,
    iterations is the sum over lanes and lane_iterations holds each lane's."""

    root: float
    f_root: float
    iterations: int
    bracket: tuple[float, float]
    lane_iterations: np.ndarray | None = None


# a solve stops once the bracket is this narrow relative to max(1, |x|),
# a few ulps, or after this many iterations
_XTOL = 1e-15
_MAX_ITER = 200


def solve_bracketed(f: Callable[[float], float], lo: float, hi: float) -> RootResult:
    """Find x in [lo, hi] with f(x) = 0, given f(lo) and f(hi) of opposite sign.

    Returns the visited point with the smallest |f|.  Stops when the bracket
    width drops below _XTOL * max(1, |x|), when f hits zero exactly, or after
    _MAX_ITER iterations.  An array lo or hi makes one lane per entry, and f
    then maps an array of points to an array of values.
    """
    if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
        return _solve_lanes(f, lo, hi)
    if not lo < hi:
        raise BracketError(f"empty interval [{lo}, {hi}]")
    flo = f(lo)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0, (lo, hi))
    fhi = f(hi)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0, (lo, hi))
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )

    a, b, fa, fb = lo, hi, flo, fhi
    # secant memory: the last two evaluated points
    x0, f0, x1, f1 = a, fa, b, fb
    if abs(fa) <= abs(fb):
        best_x, best_f = a, fa
    else:
        best_x, best_f = b, fb

    it = 0
    for it in range(1, _MAX_ITER + 1):
        if b - a <= _XTOL * max(1.0, abs(a), abs(b)):
            break
        x_new = None
        if it % 3 != 0 and f1 != f0:
            cand = x1 - f1 * (x1 - x0) / (f1 - f0)
            if a < cand < b:
                x_new = cand
        if x_new is None:
            x_new = 0.5 * (a + b)
        f_new = f(x_new)
        if abs(f_new) < abs(best_f):
            best_x, best_f = x_new, f_new
        if f_new == 0.0:
            a = b = x_new
            break
        if (f_new > 0.0) == (fa > 0.0):
            a, fa = x_new, f_new
        else:
            b, fb = x_new, f_new
        x0, f0, x1, f1 = x1, f1, x_new, f_new

    return RootResult(best_x, best_f, it, (a, b))


def _solve_lanes(f, lo, hi) -> RootResult:
    """solve_bracketed on every lane at once, step for step.

    A lane that has stopped keeps its state; f sees it at its bracket end a,
    a point it has already evaluated, so f never gets an argument the scalar
    solve would not have given it.
    """
    lo, hi = (np.array(x, dtype=float) for x in np.broadcast_arrays(lo, hi))
    if not np.all(lo < hi):
        raise BracketError(f"empty interval in {int(np.sum(~(lo < hi)))} of {lo.size} lanes")
    flo = f(lo)
    # the scalar solve returns at f(lo) = 0 without evaluating f(hi)
    fhi = f(np.where(flo == 0.0, lo, hi))
    at_lo = flo == 0.0
    at_hi = ~at_lo & (fhi == 0.0)
    active = ~(at_lo | at_hi)
    same_sign = active & ((flo > 0.0) == (fhi > 0.0))
    if same_sign.any():
        raise BracketError(f"no sign change in {int(same_sign.sum())} of {lo.size} lanes")

    a, b, fa, fb = lo.copy(), hi.copy(), flo, fhi
    x0, f0, x1, f1 = a, fa, b, fb
    lo_best = np.abs(fa) <= np.abs(fb)
    best_x = np.where(at_lo, lo, np.where(at_hi, hi, np.where(lo_best, a, b)))
    best_f = np.where(active, np.where(lo_best, fa, fb), 0.0)
    iterations = np.zeros(lo.shape, dtype=np.int64)

    for it in range(1, _MAX_ITER + 1):
        narrow = active & (b - a <= _XTOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))
        iterations[narrow] = it
        active &= ~narrow
        if not active.any():
            break
        x_new = 0.5 * (a + b)
        if it % 3 != 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                cand = x1 - f1 * (x1 - x0) / (f1 - f0)
            x_new = np.where((f1 != f0) & (a < cand) & (cand < b), cand, x_new)
        x_new = np.where(active, x_new, a)
        f_new = f(x_new)
        better = active & (np.abs(f_new) < np.abs(best_f))
        best_x = np.where(better, x_new, best_x)
        best_f = np.where(better, f_new, best_f)
        zero = active & (f_new == 0.0)
        iterations[zero] = it
        active &= ~zero
        same = (f_new > 0.0) == (fa > 0.0)
        to_a = (active & same) | zero
        to_b = (active & ~same) | zero
        a, fa = np.where(to_a, x_new, a), np.where(to_a, f_new, fa)
        b, fb = np.where(to_b, x_new, b), np.where(to_b, f_new, fb)
        x0, f0 = np.where(active, x1, x0), np.where(active, f1, f0)
        x1, f1 = np.where(active, x_new, x1), np.where(active, f_new, f1)
    iterations[active] = _MAX_ITER

    return RootResult(best_x, best_f, int(iterations.sum()), (a, b), iterations)
