"""Double-double complex arithmetic on (hi, lo) pairs: about 32 significant
digits from two doubles, through the error-free transformations TwoSum
(Knuth) and TwoProd by Dekker's split (Dekker, Numer. Math. 18, 1971; Hida,
Li & Bailey, ARITH-15, 2001).  Python 3.10/3.11 have no ``math.fma``, hence
the split.

A value is hi + lo with hi = fl(hi + lo).  ``add``, ``mul`` and ``div`` take
the parts of two values and return the pair of the result; each part may be
a Python complex or a numpy complex array (elementwise, broadcasting), so
one function serves the scalars of ``darboux._dd_step`` (offset, eta) and
the pair arrays of its head alike.  A double x is the pair (x, 0) exactly.
Complex addition, and multiplication of a complex by a real double, act on
the real and imaginary parts separately with one rounding each, so TwoSum
and the split run on both parts at once.  Addition is the "sloppy" one of
Hida, Li & Bailey: its error is ~1e-32 relative to the operands, not to the
sum, which is all the head needs (its breakdown test weighs a sum against
its terms).

A result whose lo part falls below the normal range (|hi| below ~1e-290)
keeps fewer digits.  Overflow shows as inf or nan in the result (the split
overflows beyond about 1e300), never as an exception; on arrays numpy's
error state decides whether it warns.  A scalar division by zero raises
ZeroDivisionError as it does on complex.
"""
from __future__ import annotations

__all__ = ["add", "mul", "div"]

_SPLIT = 134217729.0  # 2**27 + 1


def add(ah, al, bh, bl):
    """(ah + al) + (bh + bl): TwoSum of the leading parts, renormalised."""
    s = ah + bh
    bb = s - ah
    e = (ah - (s - bb)) + (bh - bb) + (al + bl)
    hi = s + e
    return hi, e - (hi - s)


def mul(xh, xl, yh, yl):
    """(xh + xl)(yh + yl).  xh yh = (a + ib)(c + id) as p + iq with
    p = a yh = (ac, ad) and q = b yh = (bc, bd), each a real double times a
    complex, so Dekker's TwoProd gives the rounding errors of all four real
    products."""
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
    return hi, e - (hi - s)


def div(xh, xl, yh, yl):
    """(xh + xl)/(yh + yl): q1 = xh/yh, then one correction from the
    residual x - y q1, with y q1 = rh + rl in double-double; xh - rh cancels
    exactly (or to ~1e-32 of x), so the residual needs no TwoSum."""
    q1 = xh / yh
    rh, rl = mul(yh, yl, q1, 0j)
    q2 = ((xh - rh) + (xl - rl)) / yh
    hi = q1 + q2
    return hi, q2 - (hi - q1)
