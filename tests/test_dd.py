"""Tests of the double-double pair arithmetic (``darbouxjac._dd``) and of the
double-double head of the near-Cauchy R-ratio run built on it
(``darboux._cauchy_head``, read off the backward run at the Cauchy value).

The pair functions are checked against mpmath at 60 digits, on Python
complex scalars and on numpy arrays alike, with magnitudes from 1e-150 to
1e150 (results kept above 1e-280, where the lo part of a pair is still a
normal double), and past 1e300, where the header promises inf or nan
instead of an exception.  The head is checked against a 50-digit mpmath
``_ratio_run`` up to the crossover k* at the fl(S) sites of
``test_ratio_kernel``, at offsets down to the _DD_ETA floor, and on a
prefix built to break down at a known index; the double-double continued
fraction and its tails against the 50-digit ones.
"""
import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darbouxjac import _dd as dd
from darbouxjac import darboux
from darbouxjac.core import family_coeffs
from darbouxjac.darboux import TransformPoint, cauchy_s0star
from darbouxjac.errors import ExistenceError
from test_ratio_kernel import (
    CAUCHY_SITES,
    CROSSOVER_SITES,
    PROPERTY,
    geronimus_k_star,
    later_crossover,
)

# error bound of one pair operation, relative to its operands (see exact())
EPS = 2.0**-100

unit = st.floats(-1.0, 1.0)
moduli = st.floats(0.5, 1.0)
angles = st.floats(-math.pi, math.pi)


def pair(mantissa: complex, exponent: float, lo_re: float, lo_im: float) -> tuple:
    """hi = mantissa 10^exponent and a lo part below half an ulp of each part."""
    hi = mantissa * 10.0**exponent
    return hi, complex(hi.real * lo_re * 2.0**-54, hi.imag * lo_im * 2.0**-54)


@st.composite
def operands(draw, op: str, size: int | None):
    """Two pairs (Python complex, or numpy arrays of ``size``), magnitudes
    1e-150..1e150, the exact result between 1e-280 and 1e280."""
    p = draw(st.floats(-150.0, 150.0))
    if op == "mul":
        q = draw(st.floats(max(-150.0, -280.0 - p), min(150.0, 280.0 - p)))
    elif op == "div":
        q = draw(st.floats(max(-150.0, p - 280.0), min(150.0, p + 280.0)))
    else:
        q = draw(st.floats(-150.0, 150.0))
    pairs = []
    for exponent in (p, q):
        terms = [
            pair(draw(moduli) * cmath.exp(1j * draw(angles)), exponent, draw(unit), draw(unit))
            for _ in range(size or 1)
        ]
        hs, ls = (np.array(col) for col in zip(*terms))
        pairs.append((complex(hs[0]), complex(ls[0])) if size is None else (hs, ls))
    return pairs


def exact(op: str, x, y):
    """The result at 60 digits and the scale the error is measured against:
    |x| + |y| for add (the sloppy sum), |x||y| for mul, |x|/|y| for div."""
    with mp.workdps(60):
        a, b = mp.mpc(x[0]) + mp.mpc(x[1]), mp.mpc(y[0]) + mp.mpc(y[1])
        if op == "add":
            return a + b, abs(a) + abs(b)
        if op == "mul":
            return a * b, abs(a) * abs(b)
        return a / b, abs(a) / abs(b)


def check(op: str, x, y) -> None:
    hi, lo = getattr(dd, op)(*x, *y)
    for xh, xl, yh, yl, h, l in zip(*(np.atleast_1d(v) for v in (*x, *y, hi, lo))):
        ref, scale = exact(op, (xh, xl), (yh, yl))
        with mp.workdps(60):
            err = abs(mp.mpc(complex(h)) + mp.mpc(complex(l)) - ref)
        assert err <= EPS * scale, (op, xh, xl, yh, yl, float(err / scale))


@pytest.mark.parametrize("op", ["add", "mul", "div"])
@pytest.mark.parametrize("size", [None, 5])
@PROPERTY
@given(data=st.data())
def test_pair_operations_match_mpmath(op, size, data):
    """hi + lo of add, mul and div is the 60-digit result to 2^-100 of the
    operands, on scalars and on arrays."""
    check(op, *data.draw(operands(op, size)))


@pytest.mark.parametrize("op, x, y, ref", [
    ("add", 0.75 - 0.5j, 0.5 + 0.25j, 1.25 - 0.25j),
    ("mul", 0.75 - 0.5j, 0.5 + 0.25j, 0.5 - 0.0625j),
    ("div", 0.5 - 0.0625j, 0.5 + 0.25j, 0.75 - 0.5j),
])
def test_a_double_result_has_no_lo_part(op, x, y, ref):
    assert getattr(dd, op)(x, 0j, y, 0j) == (ref, 0)


# operands past about 1e300: the Dekker split (or the sum) overflows
BEYOND = [
    ("add", (1e308 + 0j, 0j), (1e308 + 0j, 0j)),
    ("add", (1e308j, 0j), (1e308j, 0j)),
    ("mul", (1e301 + 1j, 0j), (2.0 + 0j, 0j)),
    ("mul", (1.0 + 0j, 0j), (3e300 - 3e300j, 0j)),
    ("mul", (1e200 + 0j, 0j), (1e200 + 0j, 0j)),
    ("div", (1.0 + 0j, 0j), (1e305 + 1e305j, 0j)),
    ("div", (1e305 + 0j, 0j), (1e-10 + 0j, 0j)),
]


@pytest.mark.parametrize("op, x, y", BEYOND)
def test_past_the_split_range_gives_inf_or_nan(op, x, y):
    """No exception, on scalars or (in numpy's ignore state) arrays: the
    result is inf or nan in some part."""
    hi, lo = getattr(dd, op)(*x, *y)
    assert not (math.isfinite(hi.real) and math.isfinite(hi.imag))
    with np.errstate(all="ignore"):
        arrays = getattr(dd, op)(*(np.full(3, v) for v in x), *(np.full(3, v) for v in y))
    assert not np.isfinite(arrays[0]).all()


def test_scalar_division_by_zero_raises_as_on_complex():
    with pytest.raises(ZeroDivisionError):
        dd.div(1 + 0j, 0j, 0j, 0j)


# ---------------------------------------------------------------------------
# the double-double head of the near-Cauchy R-ratio run
# ---------------------------------------------------------------------------

def cauchy_head(kind: str, kappa: complex, monkeypatch):
    """(c, lam, offset pair, (w, e)) of the head geronimus reads at fl(S)."""
    m = family_coeffs(kind, 256)
    site = TransformPoint(kappa, s0star=cauchy_s0star(m, kappa))
    heads, head = [], darboux._cauchy_head
    monkeypatch.setattr(darboux, "_cauchy_head",
                        lambda *args: heads.append(head(*args)) or heads[-1])
    _, k_star = geronimus_k_star(m, site)
    assert len(heads[-1][0]) == k_star
    offset = dd.div(complex(m.s0), 0j, site.s0star, 0j)
    return m.c.tolist(), m.lam.tolist(), offset, heads[-1]


def mp_ratio_run(c, lam, kappa, offset, count: int):
    """``_ratio_run`` on mpc at the working precision."""
    return darboux._ratio_run(
        [mp.mpc(z) for z in c], [mp.mpc(z) for z in lam], mp.mpc(kappa), offset, count, ""
    )


@pytest.mark.parametrize("kind, kappa", list(CAUCHY_SITES.items()) + CROSSOVER_SITES)
def test_cauchy_head_matches_50_digit_ratio_run(kind, kappa, monkeypatch):
    """w and e up to k* within 1e-15 of the mpmath run at the same offset
    (hi + lo exactly), entry by entry.

    Near k* the run crosses from the minimal to the dominant solution, and an
    entry next to a near-zero of R_k moves by up to ~1e-14 when the offset
    moves by 1e-32 relative (chebyshev2 at 1j: w_20, |w_20| = 2e-3).  No run
    that rounds at ~1e-32 per step can do better there, so each entry's
    tolerance adds its own change under a 1e-31 relative move of the offset."""
    c, lam, offset, (w, e) = cauchy_head(kind, kappa, monkeypatch)
    with mp.workdps(50):
        exact_offset = mp.mpc(offset[0]) + mp.mpc(offset[1])
        ref = mp_ratio_run(c, lam, kappa, exact_offset, len(w))
        moved = mp_ratio_run(c, lam, kappa, exact_offset * (1 + mp.mpf(10) ** -31), len(w))
        for got, r, r_moved in zip((w, e), ref, moved):
            assert len(got) == len(r)
            for g, x, y in zip(got, r, r_moved):
                tol = 1e-15 * abs(x) + abs(y - x)
                assert abs(g - x) <= tol, (kind, kappa, float(abs(g - x) / abs(x)))


@pytest.mark.parametrize("kind, kappa", [("chebyshev1", 0.3 + 0.5j), ("chebyshev3", 0.1 - 0.02j)])
@pytest.mark.parametrize("rel", [1e-16, 1e-18])
def test_cauchy_head_holds_down_to_the_floor(kind, kappa, rel):
    """The offset 1/m + delta, |delta| = rel |1/m| down to the _DD_ETA floor
    (a hair above it, so that eta clears it): c and lambda within 1e-12 of
    the 50-digit run at the same offset.  delta is known only to the
    double-double digits of 1/m, so the error grows like 1e-32/rel, and
    below the floor the step goes to mpmath."""
    m = family_coeffs(kind, 256)
    c, lam = m.c.tolist(), m.lam.tolist()
    ts = darboux._tails(c, lam, kappa)
    inv_m, _ = darboux._dd_cf_inverse(c, lam, kappa, ts)
    delta = dd.mul(*inv_m, rel * (1 + 1e-9) * cmath.exp(0.7j), 0j)
    offset = dd.add(*inv_m, *delta)
    c_new, lam_new, _, eta, k_star = darboux._dd_step(c, lam, kappa, offset, ts)
    assert eta >= darboux._DD_ETA
    if kind == "chebyshev3":
        assert k_star == len(c) - 1  # no crossover: the head is the whole run
    with mp.workdps(50):
        mc, mlam = [mp.mpc(z) for z in c], [mp.mpc(z) for z in lam]
        x = mp.mpc(offset[0]) + mp.mpc(offset[1])
        # s0 = 1 and s0star = 1/x: the step's offset is x to 50 digits
        ref = sum(darboux._geronimus_step(mc, mlam, mp.mpc(1), mp.mpc(kappa), 1 / x)[:2], [])
        err = max(float(abs(g - r) / abs(r)) for g, r in zip(c_new + lam_new, ref))
    assert err <= 1e-12, err


@pytest.mark.parametrize(
    "kind, kappa, n_max",
    [(kind, kappa, 256) for kind, kappa in CAUCHY_SITES.items()] + [("chebyshev1", 0.5 + 1e-3j, 64)],
)
def test_dd_continued_fraction_matches_50_digits(kind, kappa, n_max):
    """1/m(J; kappa) and the ratios w^S_k = -t_{k+2} of the minimal solution
    in double-double are the 50-digit ones to 1e-29, also near the support,
    where the backward run hardly damps an error in its tail seed."""
    m = family_coeffs(kind, n_max)
    c, lam = m.c.tolist(), m.lam.tolist()
    (hi, lo), (wh, wl) = darboux._dd_cf_inverse(c, lam, kappa, darboux._tails(c, lam, kappa))
    with mp.workdps(50):
        mc, mlam = [mp.mpc(z) for z in c], [mp.mpc(z) for z in lam]
        ref = 1 / darboux._cf_m_function(mc, mlam, mp.mpc(kappa))
        assert abs(mp.mpc(hi) + mp.mpc(lo) - ref) <= 1e-29 * abs(ref)
        ref_ts = darboux._tails(mc, mlam, mp.mpc(kappa))[:0:-1]  # t_2, ..., t_N
        assert len(wh) == len(wl) == len(ref_ts) == n_max - 1
        for h, l, t in zip(wh.tolist(), wl.tolist(), ref_ts):
            assert abs(mp.mpc(h) + mp.mpc(l) + t) <= 1e-29 * abs(t)


def broken_prefix(j: int, n: int = 48):
    """kappa = (1 + i)/2, offset 1/4 and lam = 1/4: w_k = 1 for k < j, and
    c_j = kappa - 1/4 makes w_j = 0 (y_{j+1}(kappa) = 0).  Past j, c = kappa
    - 5/2 keeps the backward run at kappa clear of a zero denominator."""
    kappa, offset = 0.5 + 0.5j, 0.25 + 0j
    c = [kappa - 1.25] * (j + 1) + [kappa - 2.5] * (n - j - 1)
    c[0] = kappa + offset - 1
    c[j] = kappa + offset if j == 0 else kappa - 0.25
    return c, [0.25 + 0j] * (n - 1), kappa, (offset, 0j)


@pytest.mark.parametrize("j", [0, 1, 2, 7, 40, 46])
def test_cauchy_head_raises_at_the_breakdown_index(j, monkeypatch):
    """The head up to the end of the run (past its crossover) refuses
    R_{j+1}(kappa) = 0 at n = j + 1, as the forward run does."""
    c, lam, kappa, offset = broken_prefix(j)
    ts = darboux._tails(c, lam, kappa)
    darboux._cauchy_run(c, lam, kappa, "", ts)  # no breakdown at the Cauchy value
    later_crossover(monkeypatch, len(c))
    with pytest.raises(ExistenceError) as err:
        darboux._dd_step(c, lam, kappa, offset, ts)
    assert err.value.index == j + 1
    with pytest.raises(ExistenceError) as err:
        darboux._ratio_run(c, lam, kappa, offset[0], len(c) - 1, "")
    assert err.value.index == j + 1
