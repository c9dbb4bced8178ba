"""Bracketed scalar root finding.

Secant steps accelerated inside a maintained sign-change bracket, with a
forced bisection every third iteration so the bracket width shrinks even
when the secant stalls at one endpoint.  Deterministic: no randomness, and
nothing is assumed of the caller's function beyond sign consistency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


@dataclass(frozen=True)
class RootResult:
    root: float
    f_root: float
    iterations: int
    bracket: tuple[float, float]


# a solve stops once the bracket is this narrow relative to max(1, |x|),
# a few ulps, or after this many iterations
_XTOL = 1e-15
_MAX_ITER = 200


def solve_bracketed(f: Callable[[float], float], lo: float, hi: float) -> RootResult:
    """Find x in [lo, hi] with f(x) = 0, given f(lo) and f(hi) of opposite sign.

    Returns the visited point with the smallest |f|.  Stops when the bracket
    width drops below _XTOL * max(1, |x|), when f hits zero exactly, or after
    _MAX_ITER iterations.
    """
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
