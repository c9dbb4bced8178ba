"""Double-double arithmetic: about 31 significant decimal digits.

A value is an unevaluated sum hi + lo of two floats with |lo| <= ulp(hi)/2.
Used to re-evaluate inequality margins that land within roundoff of zero in
plain float, so a sign decision is never made from noise.

Core error-free transforms (two_sum, split, two_prod) follow the standard
Dekker/Knuth constructions; exp and log use argument reduction with a short
Taylor tail and Newton refinement against exp.

hi and lo may also be equal-shape float64 arrays, one lane per entry.  The
transforms are plain IEEE operations, so lane i is bitwise the scalar
double-double of its inputs; where the scalar code branches, lanes select
with a mask, and a condition that raises for one value raises if any lane
meets it.

The two evaluation backends, FLOAT and DOUBLE_DOUBLE, share one set of
members, and each takes one value or an array of lanes alike.  A formula
written for any backend mx converts each input once, with mx.num, and
writes its constants as float literals: a literal meets a backend value
through the value's own or reflected operator, and a DD coerces it to
DD(c, 0), the operand mx.num(c) gives, so either order gives the same bits
(two_sum and two_prod are exact).  A backend one is built only for a
constant wider than a float, such as one / 3.0 in double-double.

FLOAT's exp, log and log1p give libm's bits on every entry of an array,
the bits the same call gives on one float, so a margin never depends on
how its points were cut into lanes or on the CPU's numpy dispatch (np.exp,
np.log and np.log1p differ from libm in the last bit on some arguments).
exp runs in one C loop through libm's cexp at x + 0i (_float_exp); log
and log1p call libm once per entry (_each).
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1

# ln 2 to double-double precision
_LN2_HI = 6.931471805599453e-01
_LN2_LO = 2.3190468138462996e-17


def _two_sum(x: float, y: float) -> tuple[float, float]:
    s = x + y
    bb = s - x
    err = (x - (s - bb)) + (y - bb)
    return s, err


def _quick_two_sum(x: float, y: float) -> tuple[float, float]:
    # requires |x| >= |y|
    s = x + y
    err = y - (s - x)
    return s, err


def _split(x: float) -> tuple[float, float]:
    t = _SPLITTER * x
    hi = t - (t - x)
    return hi, x - hi


def _two_prod(x: float, y: float) -> tuple[float, float]:
    p = x * y
    xh, xl = _split(x)
    yh, yl = _split(y)
    err = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, err


def _each(fn, x: np.ndarray) -> np.ndarray:
    """fn by libm on each entry of an array: np.log and np.log1p differ
    from libm in the last bit on some arguments."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _libm(fn, x):
    """fn on a float, or by libm on each entry of an array (_each): FLOAT's
    log and log1p, which have no bitwise C loop as exp has (_float_exp).
    A caller whose entries repeat takes fn once per distinct point itself,
    as the sweeps' product grids do once per base."""
    if type(x) is not np.ndarray:
        return fn(x)
    return _each(fn, x)


# glibc's cexp(x + 0i) is exp(x) * 1.0 up to here; above it, it takes
# exp(709) * exp(x - 709), which can round differently
_CEXP_EXACT = 709.0


def _cexp(x: np.ndarray) -> np.ndarray:
    """exp of each entry of an array, all of them at most _CEXP_EXACT, in
    one C loop: numpy's complex exp calls libm's cexp, whose real part at
    x + 0i is libm's exp(x) (see _float_exp)."""
    c = x.astype(complex)
    np.exp(c, out=c)  # out= keeps a 0-d array an array
    return c.real.copy()


def _float_exp(x):
    """math.exp on a float, and on each entry of an array, bitwise.

    np.exp differs from libm in the last bit on some arguments, but libm's
    cexp at x + 0i returns exp(x) as its real part: glibc computes
    exp(x) * cos(0), and cos(0) is 1.0, and numpy's own cexp, where it
    has no libm one, returns exp(x) outright.  So the entries up to
    _CEXP_EXACT run in one C loop (_cexp), and the rest (NaN, +inf, and
    the entries above 709, which glibc's cexp rescales or which overflow)
    by libm one at a time (_each), which keeps NaN payloads and raises
    OverflowError as math.exp does, without a numpy warning.
    """
    if type(x) is not np.ndarray:
        return math.exp(x)
    if x.max(initial=-math.inf) <= _CEXP_EXACT:
        return _cexp(x)
    rest = ~(x <= _CEXP_EXACT)
    y = np.empty(x.shape)
    y[~rest] = _cexp(x[~rest])
    y[rest] = _each(math.exp, x[rest])
    return y


class DD:
    """One double-double number, or one per lane.  Immutable in practice."""

    __slots__ = ("hi", "lo")
    # numpy defers to DD's reflected operators: array * DD is a DD, not an
    # object array
    __array_ufunc__ = None

    def __init__(self, hi=0.0, lo=0.0):
        self.hi = hi if type(hi) is np.ndarray else float(hi)
        self.lo = lo if type(lo) is np.ndarray else float(lo)

    def __repr__(self) -> str:
        return f"DD({self.hi!r}, {self.lo!r})"

    def __float__(self) -> float:
        return self.hi + self.lo

    def __neg__(self) -> "DD":
        return DD(-self.hi, -self.lo)

    def __add__(self, other) -> "DD":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        s, e = _two_sum(self.hi, o.hi)
        e += self.lo + o.lo
        s, e = _quick_two_sum(s, e)
        return DD(s, e)

    __radd__ = __add__

    def __sub__(self, other) -> "DD":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "DD":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "DD":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        p, e = _two_prod(self.hi, o.hi)
        e += self.hi * o.lo + self.lo * o.hi
        p, e = _quick_two_sum(p, e)
        return DD(p, e)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "DD":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        q1 = self.hi / o.hi
        r = self - o * q1
        q2 = r.hi / o.hi
        r = r - o * q2
        q3 = r.hi / o.hi
        s, e = _quick_two_sum(q1, q2)
        return DD(s, e) + q3

    def __rtruediv__(self, other) -> "DD":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self


def _coerce(x) -> DD | None:
    if isinstance(x, DD):
        return x
    if isinstance(x, (int, float)):
        return DD(float(x), 0.0)
    if isinstance(x, np.ndarray):
        return DD(x.astype(float), 0.0)
    return None


def dd(x) -> DD:
    out = _coerce(x)
    if out is None:
        raise TypeError(f"cannot make a DD from {type(x).__name__}")
    return out


def dd_where(mask, x, y) -> DD:
    """Per lane, x where mask holds and y elsewhere."""
    x, y = dd(x), dd(y)
    return DD(np.where(mask, x.hi, y.hi), np.where(mask, x.lo, y.lo))


def dd_value(x):
    """The nearest float, hi + lo, per lane."""
    x = dd(x)
    return x.hi + x.lo


def dd_sqrt(x) -> DD:
    v = dd(x)
    if np.any(v.hi < 0.0):
        raise ValueError("sqrt of a negative double-double")
    lanes = type(v.hi) is np.ndarray
    if lanes:
        zero = v.hi == 0.0
        # zero lanes run on 1 and are set to 0 at the end
        v = dd_where(zero, 1.0, v)
        y0 = np.sqrt(v.hi)  # correctly rounded, as math.sqrt
    elif v.hi == 0.0:
        return DD(0.0, 0.0)
    else:
        y0 = math.sqrt(v.hi)
    y = DD(y0)
    # one Newton step doubles the correct digits: 16 -> 32
    y = y + (v - y * y) / (2.0 * y0)
    return dd_where(zero, 0.0, y) if lanes else y


def dd_exp(x) -> DD:
    v = dd(x)
    if np.any(v.hi > 709.0):
        raise OverflowError("exp overflow in double-double")
    lanes = type(v.hi) is np.ndarray
    if lanes:
        under = v.hi < -709.0
        # underflowing lanes run on 0 and are set to 0 at the end
        v = dd_where(under, 0.0, v)
        # rint rounds half to even, as round does; + 0.0 turns -0.0 into the
        # +0.0 that float(round(...)) gives
        m = np.rint(v.hi / _LN2_HI) + 0.0
    elif v.hi < -709.0:
        return DD(0.0, 0.0)
    else:
        m = float(round(v.hi / _LN2_HI))
    r = v - DD(_LN2_HI, _LN2_LO) * m
    # scale down by 2**9, Taylor, square back up
    r = r / 512.0
    term = DD(1.0)
    acc = DD(1.0)
    for j in range(1, 14):
        term = term * r / float(j)
        acc = acc + term
    for _ in range(9):
        acc = acc * acc
    if lanes:
        k = m.astype(np.int64)
        return dd_where(under, 0.0, DD(np.ldexp(acc.hi, k), np.ldexp(acc.lo, k)))
    k = int(m)
    return DD(math.ldexp(acc.hi, k), math.ldexp(acc.lo, k))


def dd_log(x) -> DD:
    v = dd(x)
    if np.any(v.hi <= 0.0):
        raise ValueError("log of a non-positive double-double")
    y = DD(_libm(math.log, v.hi))
    # Newton against exp: y <- y + x*exp(-y) - 1
    for _ in range(2):
        y = y + v * dd_exp(-y) - 1.0
    return y


def dd_log1p(x) -> DD:
    v = dd(x)
    if np.any(v.hi <= -1.0):
        raise ValueError("log1p argument at or below -1")
    return dd_log(DD(1.0) + v)


def _float_num(x):
    return np.asarray(x, dtype=float) if type(x) is np.ndarray else float(x)


def _float_sqrt(x):
    if type(x) is not np.ndarray:
        return math.sqrt(x)
    if np.any(x < 0.0):
        raise ValueError("math domain error")
    return np.sqrt(x)  # correctly rounded, as math.sqrt


def _float_where(mask, x, y):
    if type(mask) is np.ndarray:
        return np.where(mask, x, y)
    return x if mask else y


class FloatBackend:
    """Plain float evaluation namespace for margin expressions.

    Every backend has num, exp, log, log1p and sqrt, plus where(mask, x, y),
    which selects per lane, and value(x), the float nearest to x.  Each
    member takes a float or a float64 array, one lane per entry; lane i is
    bitwise the value on its own float: exp takes libm's exp through its
    cexp in one C loop (_float_exp), and log and log1p call libm on each
    entry (_libm), since clog's real part is not libm's log.  A log or
    log1p entry costs a Python call, so a caller takes a quantity of
    repeated points once per point: the sweeps take it once per base of a
    product grid and gather it by the grid's base column.  Generic
    formulas pass each input through num once and meet float literals
    directly (see the module docstring).
    """

    name = "float"

    num = staticmethod(_float_num)
    exp = staticmethod(_float_exp)
    log = staticmethod(partial(_libm, math.log))
    log1p = staticmethod(partial(_libm, math.log1p))
    sqrt = staticmethod(_float_sqrt)
    value = staticmethod(_float_num)
    where = staticmethod(_float_where)


class DDBackend:
    """Double-double evaluation namespace, drop-in for FloatBackend; takes
    single values and lanes alike, as FloatBackend does."""

    name = "dd"

    num = staticmethod(dd)
    exp = staticmethod(dd_exp)
    log = staticmethod(dd_log)
    log1p = staticmethod(dd_log1p)
    sqrt = staticmethod(dd_sqrt)
    value = staticmethod(dd_value)
    where = staticmethod(dd_where)


FLOAT = FloatBackend()
DOUBLE_DOUBLE = DDBackend()
