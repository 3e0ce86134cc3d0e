"""Stable evaluation of first-kind P_n, second-kind Q_n, and R_n polynomials.

All three families satisfy the same second-order difference equation

    y_{n+1} = (z - c_{n+1}) y_n - lambda_{n+1} y_{n-1}

and differ only in initial data: (P_0, P_1) = (1, z - c_1),
(Q_0, Q_1) = (0, s_0), and (R_0, R_1) = (1, z - c_1 + s_0/s0star).

``_scaled_run`` is the library's one double-precision evaluator of this
recurrence.  It runs on an array of points at once, so callers pass all
their points in one call.  Besides the values it can carry the derivative
P'_n (Newton polishing of zeros) and the error envelope E_n (the zero
certificate).  Magnitudes span hundreds of orders of magnitude in n, so each
point keeps a power-of-two scale (``log_scale``), tested against the window
[1e-150, 1e150] only as often as its values can leave it.  The array dtype
follows the inputs: real points (the Gauss nodes of a real prefix) over real
initial data and a real prefix run in float64 and give back the complex
arrays the complex run gives, bit for bit.

``_ratio_run`` is the one forward loop of ratios y_{k+1}/y_k and their
differences: ``ratio_sequence``, the ``darboux`` transforms and the
``factorization`` pivots all read it.
"""
from __future__ import annotations

import math

import numpy as np

from .core import Record, RecurrenceCoeffs, _degrees, _integer
from .errors import (ConfigurationError, EvaluationRangeError, ExistenceError, PrefixError,
                     ZeroHitError)

__all__ = [
    "RatioSequence",
    "eval_P",
    "eval_Q",
    "eval_R",
    "ratio_sequence",
]

# Rescale once max(|y_{k-1}|, |y_k|) leaves this window; generic values grow
# like |z|^n while monic Chebyshev values decay like 2^-n.
_SCALE_HI = 1e150
_SCALE_LO = 1e-150
# max(|y_{k-1}|, |y_k|) below this is a zero hit, not underflow: left unscaled.
_ZERO_HIT = 1e-290
# y_n cancelling to this fraction of its terms is a zero: ``_ratio_run``'s breakdown test.
_BREAKDOWN_RTOL = 1e-13
# Between window tests values may grow to 1e290 (room for y', E) or sink to _ZERO_HIT.
_ROOM = 1e140


class RatioSequence(Record):
    """Consecutive ratios r_n = y_n(z)/y_{n-1}(z) for y in {P, Q, R}.

    ``values[k]`` holds r_{start+k}; P and R sequences start at n = 1,
    the Q sequence at n = 2 (Q_0 = 0 makes r_1 undefined).
    """

    z: complex
    which: str
    start: int
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def r(self, n: int) -> complex:
        """Ratio y_n/y_{n-1} by recurrence index n."""
        k = (n := _integer("n", n)) - self.start
        if not 0 <= k < len(self.values):
            raise PrefixError(f"r_{n} outside computed range")
        return complex(self.values[k])


def _initial_pair(m: RecurrenceCoeffs, which: str, z: complex, s0star: complex | None):
    if which == "P":
        return 1.0 + 0.0j, z - m.c[0]
    if which == "Q":
        return 0.0j, complex(m.s0)
    if which == "R":
        if s0star is None or s0star == 0:
            raise ConfigurationError(
                "R_n requires s0star != 0; the corresponding OPS does not exist for s0star = 0"
            )
        return 1.0 + 0.0j, z - m.c[0] + m.s0 / s0star
    raise ConfigurationError(f"unknown solution family {which!r}")


def _stride(zmax, c, lam) -> int:
    """Steps between window tests: the largest s with g^s <= _ROOM (else 1),
    g >= 2 bounding the factor by which one step can grow (a + max|lambda_k|,
    a = max|z| + max|c_k|) or shrink ((a + 1)/min|lambda_k|) max(|y_{k-1}|, |y_k|)."""
    a, lam = zmax + np.abs(c).max(), np.abs(lam)
    g = a + lam.max(initial=0.0) + (a + 1) / lam.min(initial=np.inf)
    return max(1, int(math.log(_ROOM) // math.log(g))) if 1 < g < math.inf else 1


def _ldexp(arr, e):
    """arr *= 2**e in place, exactly, on real and imaginary parts alike."""
    for part in (arr.real, arr.imag) if np.iscomplexobj(arr) else (arr,):
        np.ldexp(part, e, out=part)


@np.errstate(over="ignore", invalid="ignore")  # a value past the double range ends as NaN
def _scaled_run(m: RecurrenceCoeffs, n: int, z, y0, y1, deriv=False, envelope=False, _stop=None,
                _taps=None):
    """Run the recurrence to degree n >= 1 at every point of z at once (n at
    most m.n_max: the callers check their degrees with ``core._degrees``).

    z is a scalar or an array; y0, y1 broadcast against it.  Returns
    (y_{n-1}, y_n, log_scale), then y'_n if ``deriv`` and the error envelope
    E_n if ``envelope``; the true values are the returned ones times
    exp(log_scale), point by point, and a scalar z gives scalars.  A z of
    real dtype, with y0, y1, c_1..c_n and lambda_2..lambda_n real-valued,
    runs in float64; every other input runs in complex.  Either way y and y'
    come back complex, equal bit for bit (in their real parts) to the complex
    run of the same values.

    ``_stop`` gives each point of an array z its own degree (ascending, each in
    1..n): its outputs are then those of the run to that degree.  Finished
    points are sliced off the front when the step count reaches their degree,
    so a point's values do not depend on the other points in the call, short
    of parts that are subnormal at some scale: the stride follows the call's
    largest |z|, and the scale a part is carried at can change its rounding
    there (such a part is below ~1e-300 of its value).  ``_taps`` (ascending
    distinct degrees, the last n; an array z; values only) keeps y_{k-1}, y_k
    and the scale at each tapped k: output row i is the run to degree _taps[i].

    y' and E start from the P initial data: P'_0 = 0, P'_1 = 1 and E_0 = 1,
    E_1 = max(|z| + |c_1|, 1).  E runs the recurrence on |z| + |c_k| and
    |lambda_k|, so n eps E_n bounds both the rounding error of the forward
    evaluation and the change in P_n when z and the coefficients move by a
    relative eps (a zero cannot be resolved below that).

    Rescale rule: every ``_stride`` steps, each point whose K = max(|y_{k-1}|,
    |y_k|) has left [_SCALE_LO, _SCALE_HI] (below 1e-290 it is a zero hit, left
    alone) has its carried values multiplied by 2^-e, e the exponent of K.
    Short of subnormal parts that is exact, so the steps that test change
    values by a power of two only; at the end they are unscaled when K lies in
    the window and have K in [0.5, 1) otherwise (a call none of whose points
    was scaled or left the window skips this), and log_scale is the exponent
    of the power of two left over times log 2.
    """
    scalar = np.ndim(z) == 0
    c, lam = m.c[:n], m.lam[: n - 1]
    real = not np.iscomplexobj(z) and not any(np.any(np.imag(x)) for x in (y0, y1, c, lam))
    dtype, part = (float, np.real) if real else (complex, np.asarray)
    z = np.atleast_1d(np.asarray(part(z), dtype=dtype))
    prev = np.array(np.broadcast_to(part(y0), z.shape), dtype=dtype)
    cur = np.array(np.broadcast_to(part(y1), z.shape), dtype=dtype)
    scale = np.zeros(z.shape, dtype=int)
    stride = _stride(np.max(np.abs(z), initial=0.0), c, lam)
    c, lam = part(c).tolist(), part(lam).tolist()
    if deriv:
        dprev, dcur = np.zeros_like(z), np.ones_like(z)
    if envelope:
        az = np.abs(z)
        eprev, ecur = np.ones(z.shape), np.maximum(az + abs(c[0]), 1.0)
    # points [done:] are still running; the g-th group of equal degree ends at ends[g]
    if _stop is None:  # a tapped run never reads ends
        ends, next_stop = [len(z)], n if _taps is None else int(_taps[0])
    else:
        ends = (np.flatnonzero(np.diff(_stop)) + 1).tolist() + [len(z)]
        next_stop = int(_stop[0])
    parts, done = [], 0
    for k in range(1, n + 1):
        if k == next_stop and _taps is not None:
            parts.append([arr[None] for arr in (prev, cur, scale)])
            if len(parts) == len(_taps):
                break
            next_stop = int(_taps[len(parts)])
        elif k == next_stop:
            j = ends[len(parts)] - done
            now = [prev, cur, scale] + ([dcur] if deriv else []) + ([ecur] if envelope else [])
            parts.append([arr[:j] for arr in now])
            done += j
            if done == ends[-1]:
                break
            z, prev, cur, scale = z[j:], prev[j:], cur[j:], scale[j:]
            if deriv:
                dprev, dcur = dprev[j:], dcur[j:]
            if envelope:
                az, eprev, ecur = az[j:], eprev[j:], ecur[j:]
            next_stop = int(_stop[done])
        if (k - 1) % stride == 0:
            mag = np.maximum(np.abs(prev), np.abs(cur))
            # the negated test also sends NaN to the exact check below
            if not (mag.max() <= _SCALE_HI and mag.min() >= _SCALE_LO):
                if _taps is not None:  # taps hold views of these: rescale copies
                    prev, cur, scale = prev.copy(), cur.copy(), scale.copy()
                e = np.frexp(mag)[1] * ((mag > _SCALE_HI) | ((mag > _ZERO_HIT) & (mag < _SCALE_LO)))
                scale += e
                carried = [prev, cur] + ([dprev, dcur] if deriv else [])
                for arr in carried + ([eprev, ecur] if envelope else []):
                    _ldexp(arr, -e)
        zc = z - c[k]
        prev, cur = cur, zc * cur - lam[k - 1] * prev
        if deriv:
            dprev, dcur = dcur, prev + zc * dcur - lam[k - 1] * dprev
        if envelope:
            eprev, ecur = ecur, (az + abs(c[k])) * ecur + abs(lam[k - 1]) * eprev
    result = parts[0] if len(parts) == 1 else [np.concatenate(col) for col in zip(*parts)]
    mag, scale = np.maximum(np.abs(result[0]), np.abs(result[1])), result[2]
    # a call with no point scaled and every K in the window is in final form
    if scale.any() or not (mag.max() <= _SCALE_HI and mag.min() >= _SCALE_LO):
        v = np.ldexp(mag, scale)  # K unscaled
        shift = np.where(((v > _SCALE_HI) | (v < _SCALE_LO)) & (0 < mag) & (mag < np.inf),
                         -np.frexp(mag)[1], scale)
        for arr in result[:2] + result[3:]:
            _ldexp(arr, shift)
        scale = scale - shift
    result[2] = scale * math.log(2)
    if real:  # hand back the complex arrays of the complex run
        floats = {2, len(result) - 1} if envelope else {2}
        result = [x if i in floats else x.astype(complex) for i, x in enumerate(result)]
    return tuple(x[0].item() for x in result) if scalar else tuple(result)


def _unscaled(val, log_scale, n: int):
    """val * exp(log_scale); EvaluationRangeError(n) beyond the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = val * np.exp(log_scale)
        if not np.all(np.isfinite(out)):  # exp(log_scale) alone may overflow
            half = np.exp(np.divide(log_scale, 2))
            out = np.where(np.isfinite(out), out, val * half * half)[()]
    if not np.all(np.isfinite(out)):
        raise EvaluationRangeError(n)
    return out


def _eval_scaled(m: RecurrenceCoeffs, which: str, n: int, z, s0star=None):
    (n,) = _degrees(f"{which}_n", [n], m.n_max).tolist()
    y0, y1 = _initial_pair(m, which, z, s0star)
    if n == 0:
        return y0 + 0 * z, 0.0, n
    _, cur, log_scale = _scaled_run(m, n, z, y0, y1)
    return cur, log_scale, n


def eval_P(m: RecurrenceCoeffs, n: int, z: complex) -> complex:
    """Value of the monic degree-n orthogonal polynomial P_n(z); an array z
    gives the values at every point."""
    return _unscaled(*_eval_scaled(m, "P", n, z))


def eval_Q(m: RecurrenceCoeffs, n: int, z: complex) -> complex:
    """Second-kind polynomial Q_n(z); Q_0 = 0, Q_1 = s_0 (1 when normalized)."""
    return _unscaled(*_eval_scaled(m, "Q", n, z))


def eval_R(m: RecurrenceCoeffs, n: int, z: complex, s0star: complex) -> complex:
    """R_n(z) = P_n(z) + Q_n(z)/s0star, the Geronimus denominator polynomial."""
    return _unscaled(*_eval_scaled(m, "R", n, z, s0star))


def _ratio_run(c, lam, kappa, offset, count: int, what: str, head=None, diffs: bool = True):
    """Ratios w[k] = y_{k+1}(kappa)/y_k(kappa) and differences e[k] = w[k] - w[k-1].

    y solves the monic recurrence with y_0 = 1, y_1 = kappa - c[0] + offset
    (offset 0 gives P, offset s0/s0star gives R), so w[0] = y_1 and

        w[k] = kappa - c[k] - lam[k-1]/w[k-1]                 (k >= 1)
        e[k] = (c[k-1] - c[k]) + (lam[k-2] - lam[k-1])/w[k-1]
               + lam[k-2] e[k-1] / (w[k-2] w[k-1])            (k >= 2)

    with e[1] = (c[0] - c[1]) - offset - lam[0]/w[0] and e[0] = 0.  Every input
    of the e-recurrence is exact, so e[k] keeps its relative accuracy however
    small it is.  The same code runs on Python complex and on mpmath mpc (in
    the caller's working precision).  Near the Cauchy value the first ratios
    come in double-double from ``darboux._cauchy_head``, as ``head``.

    ``head = (ws, es)``, the first K >= 2 ratios and differences of the run
    (from a run in another precision), restarts it at k = K: the returned
    lists are copies of ``head`` continued up to ``count``.  With ``diffs``
    False the differences are skipped and e is [0] (or ``head``'s).

    Raises ExistenceError(what, n) when y_n(kappa) cancels to within
    _BREAKDOWN_RTOL of the terms that make it up (n = k + 1), and
    EvaluationRangeError(n) when the modulus of one of those terms is past the
    double range (kappa near 1.8e308).
    """
    k = 0  # the step in progress, for a modulus past the double range
    try:
        if head is None:
            term1 = kappa - c[0]
            w = term1 + offset
            # Without an offset the cancellation at n = 1 is kappa against c_1.
            scale = max(abs(term1), abs(offset)) if offset else max(abs(kappa), abs(c[0]), 1)
            if abs(w) < _BREAKDOWN_RTOL * scale:
                raise ExistenceError(what, 1)
            ws, es = [w], [0 * w]
            inv_prev = e = None
        else:
            ws, es = list(head[0]), list(head[1])
            w, e, inv_prev = ws[-1], es[-1], 1 / ws[-2]
        for k in range(len(ws), count):
            inv = 1 / w  # one division per step: it dominates the mpc cost
            term1 = kappa - c[k]
            term2 = lam[k - 1] * inv
            w = term1 - term2
            scale = max(abs(term1), abs(term2))
            if abs(w) < _BREAKDOWN_RTOL * scale or scale == 0:
                raise ExistenceError(what, k + 1)
            ws.append(w)
            if not diffs:
                continue
            if k == 1:
                e = (c[0] - c[1]) - offset - term2
            else:
                e = (
                    (c[k - 1] - c[k])
                    + (lam[k - 2] - lam[k - 1]) * inv
                    + lam[k - 2] * e * inv_prev * inv
                )
            inv_prev = inv
            es.append(e)
    except OverflowError:  # abs of a Python complex whose modulus is past the double range
        raise EvaluationRangeError(k + 1) from None
    return ws, es


def ratio_sequence(m: RecurrenceCoeffs, z: complex, which: str = "P",
                   s0star: complex | None = None, n_terms: int | None = None) -> RatioSequence:
    """Ratios r_n = y_n/y_{n-1} via r_{n+1} = z - c_{n+1} - lambda_{n+1}/r_n.

    One ``_ratio_run``: P and R at offset 0 and s0/s0star, Q (Q_0 = 0, so it
    starts at r_2 = z - c_2) on the prefix shifted by one.  Raises
    ZeroHitError(n, which) when y_n(z) cancels to within _BREAKDOWN_RTOL of
    its terms, or r_n is not finite.
    """
    _initial_pair(m, which, z, s0star)  # ConfigurationError for a bad which or s0star
    start = 2 if which == "Q" else 1
    count = m.n_max + 1 - start if n_terms is None else _integer("n_terms", n_terms)
    if count < 1:
        raise PrefixError(f"ratio_sequence needs n_terms >= 1 (n_terms={count})")
    last = start - 1 + count
    if last > m.n_max:
        raise PrefixError(f"ratio r_{last} exceeds prefix length {m.n_max}")
    offset = m.s0 / s0star if which == "R" else 0j
    c, lam = (x[start - 1 : start - 1 + count].tolist() for x in (m.c, m.lam))
    try:
        values = np.array(_ratio_run(c, lam, complex(z), offset, count, "", diffs=False)[0][:count])
    except ExistenceError as exc:
        raise ZeroHitError(exc.index + start - 1, which) from None
    if not np.isfinite(values).all():
        raise ZeroHitError(int(np.argmin(np.isfinite(values))) + start, which)
    return RatioSequence(z=z, which=which, start=start, values=values)
