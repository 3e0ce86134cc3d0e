"""Double-double complex numbers: about 32 significant digits from pairs of
doubles, through the error-free transformations TwoSum (Knuth) and TwoProd
by Dekker's split (Dekker, Numer. Math. 18, 1971; Hida, Li & Bailey,
ARITH-15, 2001).  Python 3.10/3.11 have no ``math.fma``, hence the split.

A value is hi + lo with hi = fl(hi + lo), both parts Python complex.  Complex
addition, and multiplication of a complex by a real double, act on the real
and imaginary parts separately with one rounding each, so TwoSum and the
split run on both parts at once.  Addition is the "sloppy" one of Hida, Li &
Bailey: its error is ~1e-32 relative to the operands, not to the sum, which
is all the ratio kernels need (their inputs are exact).

Only what ``darboux._ratio_run``, ``_cf_m_function`` and ``_tail_seed``
use is provided: ``+ - * /``, ``abs`` (of the leading part), ``** 0.5``,
truth, and ``complex()``; the other operand may be a ``DDComplex``, a
complex, a float or an int.  Overflow shows as inf or nan in the result (the
split overflows beyond about 1e300), never as an exception; ``abs`` and
division by zero raise as they do on complex.
"""
from __future__ import annotations

import cmath

__all__ = ["DDComplex"]

_SPLIT = 134217729.0  # 2**27 + 1


class DDComplex:
    """hi + lo, both complex; DDComplex(z) holds the complex z exactly."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: complex, lo: complex = 0j):
        self.hi = hi
        self.lo = lo

    def __complex__(self) -> complex:
        return self.hi + self.lo

    def __bool__(self) -> bool:
        return bool(self.hi or self.lo)

    def __abs__(self) -> float:
        return abs(self.hi)

    def __add__(self, other) -> DDComplex:
        if type(other) is DDComplex:
            return _add(self.hi, self.lo, other.hi, other.lo)
        return _add(self.hi, self.lo, complex(other), 0j)

    __radd__ = __add__

    def __sub__(self, other) -> DDComplex:
        if type(other) is DDComplex:
            return _add(self.hi, self.lo, -other.hi, -other.lo)
        return _add(self.hi, self.lo, -complex(other), 0j)

    def __rsub__(self, other) -> DDComplex:
        return _add(complex(other), 0j, -self.hi, -self.lo)

    def __mul__(self, other) -> DDComplex:
        if type(other) is DDComplex:
            return _mul(self.hi, self.lo, other.hi, other.lo)
        return _mul(self.hi, self.lo, complex(other), 0j)

    __rmul__ = __mul__

    def __truediv__(self, other) -> DDComplex:
        if type(other) is DDComplex:
            return _div(self.hi, self.lo, other.hi, other.lo)
        return _div(self.hi, self.lo, complex(other), 0j)

    def __rtruediv__(self, other) -> DDComplex:
        return _div(complex(other), 0j, self.hi, self.lo)

    def __pow__(self, exponent) -> DDComplex:
        """Square root only (principal branch): one Newton step from the
        double square root."""
        if exponent != 0.5:
            return NotImplemented
        r = cmath.sqrt(self.hi)
        if not r:
            return DDComplex(0j)
        return _fast_two_sum(r, (self - _mul(r, 0j, r, 0j)).hi / (2 * r))


def _fast_two_sum(s: complex, e: complex) -> DDComplex:
    """s + e renormalised; exact when |s| >= |e| part by part."""
    hi = s + e
    return DDComplex(hi, e - (hi - s))


def _add(ah: complex, al: complex, bh: complex, bl: complex) -> DDComplex:
    s = ah + bh
    bb = s - ah
    e = (ah - (s - bb)) + (bh - bb) + (al + bl)
    hi = s + e
    return DDComplex(hi, e - (hi - s))


def _mul(xh: complex, xl: complex, yh: complex, yl: complex) -> DDComplex:
    """xh yh = (a + ib)(c + id) as p + iq with p = a yh = (ac, ad) and
    q = b yh = (bc, bd), each a real double times a complex, so Dekker's
    TwoProd gives the rounding errors of all four real products."""
    a, b = xh.real, xh.imag
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    t = yh * _SPLIT
    yhh = t - (t - yh)
    yhl = yh - yhh
    p = a * yh
    q = b * yh
    ep = ((ah * yhh - p) + ah * yhl + al * yhh) + al * yhl
    eq = ((bh * yhh - q) + bh * yhl + bl * yhh) + bl * yhl
    q = 1j * q  # (-bd, bc): exact
    s = p + q
    bb = s - p
    e = (p - (s - bb)) + (q - bb) + ep + 1j * eq + xh * yl + xl * yh
    hi = s + e
    return DDComplex(hi, e - (hi - s))


def _div(xh: complex, xl: complex, yh: complex, yl: complex) -> DDComplex:
    """q1 = xh/yh, then one correction from the double-double residual
    x - y q1."""
    q1 = xh / yh
    r = _mul(yh, yl, q1, 0j)
    r = _add(xh, xl, -r.hi, -r.lo)
    return _fast_two_sum(q1, r.hi / yh)
