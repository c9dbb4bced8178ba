"""Bracketed root finding, one scalar solve or many lanes in lockstep.

Each step is false position between the bracket ends (a, fa) and (b, fb),
with three rules:

- Illinois (Dowell and Jarratt, BIT 11, 1971): an end kept twice in a row
  has its f halved, so the interpolant moves off it and the far end closes
  too, where plain false position keeps one end for good;
- interior step (Brent, Algorithms for Minimization without Derivatives,
  1973): an interpolant within half the stop width of an end moves to that
  distance inside the end with the smaller |f|, or to the midpoint if that
  point is not strictly inside, so a root next to an end is enclosed by
  one more step instead of approached by interpolants that round onto it;
- progress guard: every third iteration bisects unless the bracket has at
  least halved since the last such check, so it at least halves every six
  iterations whatever f does.

Deterministic: no randomness, and nothing is assumed of the caller's
function beyond sign consistency.

Lanes are independent solves advanced together through numpy arrays, each
lane taking exactly the steps its scalar solve takes.  A lane retires as
soon as it stops: f and every later step see only the lanes still running.
The last few lanes finish on the scalar loop, one after another, from the
iteration they have reached: numpy's fixed cost per call makes a lockstep
step on a handful of lanes cost about as much as one on hundreds.

A lane solve may also take a settled(lanes, lo, hi) predicate, for a caller
that needs only part of what each root says.  Each iteration it sees the
running lanes' root enclosures: the bracket widened to the best point so
far, an interval that holds the root the lane's full solve would return.
A lane it accepts is settled: it stops where it is, its root is only known
to lie in that enclosure, and RootResult.settled flags it.  Every other lane
still ends bitwise as its scalar solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


@dataclass(frozen=True)
class RootResult:
    """Solve outcome.  root is the visited point with the smallest |f| (the
    latest of equals), f_root is f there, bracket is the final [a, b] and
    iterations the iteration the solve stopped at.  For lanes, root, f_root
    and the bracket ends are arrays, iterations is the sum over lanes and
    lane_iterations holds each lane's; settled flags the lanes a settled
    predicate stopped, whose root is the best point when they stopped and
    lies, with the full solve's root, in [min(bracket[0], root),
    max(bracket[1], root)]."""

    root: float
    f_root: float
    iterations: int
    bracket: tuple[float, float]
    lane_iterations: np.ndarray | None = None
    settled: np.ndarray | None = None


# a solve stops once the bracket is this narrow relative to max(1, |x|),
# a few ulps, or after this many iterations.  Below |x| = _TINY the width
# is relative to |x| alone, so a tiny bracket is solved, not returned as it
# came.  _TINY lies under every scale the sweeps and the map defaults reach
# (the smallest, 1.8e-4, is a leform1 root), so their solves stop as before
_XTOL = 1e-15
_TINY = 1e-5
_MAX_ITER = 200
# the lockstep solve hands its lanes to the scalar loop once this few still run
_SCALAR_TAIL = 8


def solve_bracketed(
    f: Callable[..., float],
    lo: float,
    hi: float,
    *,
    args: tuple = (),
    settled: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> RootResult:
    """Find x in [lo, hi] with f(x, *args) = 0, given f(lo) and f(hi) of opposite sign.

    Returns the visited point with the smallest |f|.  Stops when the bracket
    width drops below _XTOL * max(1, |x|) (_XTOL * |x| where |x| < _TINY),
    when f hits zero exactly, or after _MAX_ITER iterations.  Each step is
    false position with the Illinois rule, the interior step and the
    progress guard (see the module docstring).  A 1-D array
    lo or hi makes one lane per entry, and f then maps an array of points
    to an array of values; each entry of args is then a column with one
    value per lane (or broadcasts to one), cut together with the points to
    the lanes still running.  Once at most _SCALAR_TAIL lanes run, f also
    gets one lane's point and args as Python scalars, and must return a
    float that is bitwise its array value there.

    settled(lanes, lo, hi), for lanes only, gets each iteration the indices
    of the lockstep lanes still running and their root enclosures
    [min(a, best_x), max(b, best_x)], and returns a mask of the lanes to
    stop there: those lanes are settled (see RootResult).  A scalar solve,
    and a lane of the scalar tail, runs to the end.
    """
    if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
        return _solve_lanes(f, lo, hi, args, settled)
    if not lo < hi:
        raise BracketError(f"empty interval [{lo}, {hi}]")
    flo = f(lo, *args)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0, (lo, hi))
    fhi = f(hi, *args)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0, (lo, hi))
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )

    if abs(flo) <= abs(fhi):
        best_x, best_f = lo, flo
    else:
        best_x, best_f = hi, fhi
    return _iterate(f, args, 1, lo, hi, flo, fhi, flo > 0.0, 2, hi - lo, best_x, best_f)


def _iterate(f, args, it0, a, b, fa, fb, pos, moved, mark, best_x, best_f) -> RootResult:
    """The scalar solve's loop from iteration it0 on, in the state it has there.

    [a, b] is the bracket; fa and fb are f at its ends as the Illinois rule
    has scaled them, and pos says whether f > 0 at a, which holds at every
    a.  moved is the end the last step moved (1 for a, 0 for b, 2 before the
    first step), mark the width at the last guard check (the starting width
    before the first), and best_x, best_f the visited point with the
    smallest |f|.
    An iteration stops at the stop width; else it steps to the midpoint
    when the guard finds the bracket not halved since its last check, and
    to the interpolant otherwise, moved to the interior step's point when
    it lies within half the stop width of an end.
    """
    it = it0
    for it in range(it0, _MAX_ITER + 1):
        scale = max(abs(a), abs(b))
        tol = _XTOL * (scale if scale < _TINY else max(1.0, scale))
        width = b - a
        if width <= tol:
            break
        stalled = False
        if it % 3 == 0:
            stalled, mark = width > 0.5 * mark, width
        if stalled:
            x_new = 0.5 * (a + b)
        else:
            den = fa - fb
            x_new = a + width * (fa / den) if den else math.nan
            d = 0.5 * tol
            if not a + d <= x_new <= b - d:
                x_new = a + d if abs(fa) <= abs(fb) else b - d
                if not a < x_new < b:
                    x_new = 0.5 * (a + b)
        f_new = f(x_new, *args)
        if abs(f_new) <= abs(best_f):
            best_x, best_f = x_new, f_new
        if f_new == 0.0:
            a = b = x_new
            break
        if (f_new > 0.0) == pos:
            a, fa = x_new, f_new
            if moved == 1:
                fb *= 0.5
            moved = 1
        else:
            b, fb = x_new, f_new
            if moved == 0:
                fa *= 0.5
            moved = 0

    return RootResult(best_x, best_f, it, (a, b))


def _solve_lanes(f, lo, hi, args, settled) -> RootResult:
    """solve_bracketed on every lane at once, step for step.

    A lane that stops writes its outcome to the output arrays and is dropped
    from the working state, so each call to f gets only the running lanes,
    with args cut to the same lanes, and never a point the lane's scalar
    solve would not have evaluated.  A lane the settled predicate accepts
    stops so too, at the top of an iteration.  Each lane computes the
    interpolant, the interior step's point and the midpoint and takes the
    one its scalar solve takes; the Illinois halving is a product with 1 or
    0.5, exact either way, so every lane's values are bitwise those of
    _iterate.  Once at most _SCALAR_TAIL lanes run, each finishes through
    _iterate, the scalar solve's own loop, from the state it has reached.
    """
    lo, hi, *args = np.broadcast_arrays(lo, hi, *args)
    lo, hi = (np.array(x, dtype=float) for x in (lo, hi))
    n = lo.size
    if not np.all(lo < hi):
        raise BracketError(f"empty interval in {int(np.sum(~(lo < hi)))} of {n} lanes")
    root, f_root, end_a, end_b = (np.zeros(n) for _ in range(4))
    iterations = np.zeros(n, dtype=np.int64)
    stopped = np.zeros(n, dtype=bool)  # the settled lanes
    lane = np.arange(n)  # each running lane's index into the outputs

    def retire(stop, it, x, fx, a, b):
        # write the outcome of the lanes in stop; give the indices of the rest
        sel = lane[stop]
        root[sel], f_root[sel], end_a[sel], end_b[sel] = x[stop], fx[stop], a[stop], b[stop]
        iterations[sel] = it
        return np.flatnonzero(~stop)

    # the scalar solve returns at f(lo) = 0 without evaluating f(hi), and
    # reports f_root = +0.0 for either endpoint
    flo = f(lo, *args)
    run = retire(flo == 0.0, 0, lo, np.zeros(n), lo, hi)
    lane, lo, hi, flo, *args = (v[run] for v in (lane, lo, hi, flo, *args))
    fhi = f(hi, *args) if lane.size else flo  # no call once every lane has stopped
    run = retire(fhi == 0.0, 0, hi, np.zeros(lane.size), lo, hi)
    lane, lo, hi, flo, fhi, *args = (v[run] for v in (lane, lo, hi, flo, fhi, *args))
    same_sign = (flo > 0.0) == (fhi > 0.0)
    if same_sign.any():
        raise BracketError(f"no sign change in {int(same_sign.sum())} of {n} lanes")

    # _iterate's state, one entry per running lane
    a, b, fa, fb, pos = lo, hi, flo, fhi, flo > 0.0
    moved = np.full(lane.size, 2, dtype=np.int8)
    mark = hi - lo
    lo_best = np.abs(flo) <= np.abs(fhi)
    best_x, best_f = np.where(lo_best, lo, hi), np.where(lo_best, flo, fhi)

    for it in range(1, _MAX_ITER + 1):
        scale = np.maximum(np.abs(a), np.abs(b))
        # scale below _TINY, else max(1, scale): a bool is 0 or 1 here
        tol = _XTOL * np.maximum(scale, scale >= _TINY)
        width = b - a
        narrow = width <= tol
        if narrow.any():
            run = retire(narrow, it, best_x, best_f, a, b)
            lane, a, b, fa, fb, pos, moved, mark, best_x, best_f, tol, width, *args = (
                v[run]
                for v in (lane, a, b, fa, fb, pos, moved, mark, best_x, best_f, tol, width, *args)
            )
        if settled is not None and lane.size:
            done = settled(lane, np.minimum(a, best_x), np.maximum(b, best_x))
            if done.any():
                stopped[lane[done]] = True
                run = retire(done, it, best_x, best_f, a, b)
                lane, a, b, fa, fb, pos, moved, mark, best_x, best_f, tol, width, *args = (
                    v[run]
                    for v in (lane, a, b, fa, fb, pos, moved, mark, best_x, best_f, tol, width, *args)
                )
        if lane.size <= _SCALAR_TAIL:
            # each of the last lanes goes on alone from this iteration
            state = zip(*(v.tolist() for v in (lane, a, b, fa, fb, pos, moved, mark, best_x, best_f)))
            for k, (i, *lane_state) in enumerate(state):
                res = _iterate(f, tuple(v[k].item() for v in args), it, *lane_state)
                root[i], f_root[i], iterations[i] = res.root, res.f_root, res.iterations
                end_a[i], end_b[i] = res.bracket
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = a + width * (fa / (fa - fb))
        d = 0.5 * tol
        in_a, in_b = a + d, b - d
        off = ~((in_a <= x_new) & (x_new <= in_b))
        if off.any():
            end = np.where(np.abs(fa) <= np.abs(fb), in_a, in_b)
            end = np.where((a < end) & (end < b), end, 0.5 * (a + b))
            x_new = np.where(off, end, x_new)
        if it % 3 == 0:
            x_new = np.where(width > 0.5 * mark, 0.5 * (a + b), x_new)
            mark = width
        f_new = f(x_new, *args)
        better = np.abs(f_new) <= np.abs(best_f)
        best_x = np.where(better, x_new, best_x)
        best_f = np.where(better, f_new, best_f)
        zero = f_new == 0.0
        if zero.any():
            run = retire(zero, it, best_x, best_f, x_new, x_new)
            lane, a, b, fa, fb, pos, moved, mark, best_x, best_f, x_new, f_new, *args = (
                v[run]
                for v in (lane, a, b, fa, fb, pos, moved, mark, best_x, best_f, x_new, f_new, *args)
            )
        # the new point replaces a where f there has a's sign; the end a lane
        # keeps has its f halved where its last step moved the same end
        moves_a = (f_new > 0.0) == pos
        step = moves_a.view(np.int8)
        halve = 1.0 - 0.5 * (moved == step)
        a, fa = np.where(moves_a, x_new, a), np.where(moves_a, f_new, fa * halve)
        b, fb = np.where(moves_a, b, x_new), np.where(moves_a, fb * halve, f_new)
        moved = step
    else:
        retire(np.ones(lane.size, dtype=bool), _MAX_ITER, best_x, best_f, a, b)

    return RootResult(
        root, f_root, int(iterations.sum()), (end_a, end_b), iterations,
        stopped if settled is not None else None,
    )
