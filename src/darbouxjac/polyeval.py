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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RecurrenceCoeffs
from .errors import ConfigurationError, EvaluationRangeError, PrefixError, ZeroHitError

__all__ = [
    "EvalTriple",
    "RatioSequence",
    "eval_P",
    "eval_Q",
    "eval_R",
    "evaluate",
    "ratio_sequence",
]

# Rescale once max(|y_{k-1}|, |y_k|) leaves this window; generic values grow
# like |z|^n while monic Chebyshev values decay like 2^-n.
_SCALE_HI = 1e150
_SCALE_LO = 1e-150
# |r_n| below this is a genuine zero hit, not underflow.
_ZERO_HIT = 1e-290
# Between window tests values may grow to 1e290 (room for y', E) or sink to _ZERO_HIT.
_ROOM = 1e140


@dataclass(frozen=True)
class EvalTriple:
    """Values of P_n, Q_n (and R_n when s0star is given) at one point."""

    n: int
    value_P: complex
    value_Q: complex
    value_R: complex | None
    ratio_P: complex | None
    log_scale: float


@dataclass(frozen=True)
class RatioSequence:
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
        k = n - self.start
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
def _scaled_run(m: RecurrenceCoeffs, n: int, z, y0, y1, deriv=False, envelope=False, _stop=None):
    """Run the recurrence to degree n >= 1 at every point of z at once.

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
    so a point's values do not depend on the other points in the call.

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
    the window and have K in [0.5, 1) otherwise, and log_scale is the exponent
    of the power of two left over times log 2.
    """
    if n > m.n_max:
        raise PrefixError(f"degree {n} exceeds prefix length {m.n_max}")
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
    if _stop is None:
        ends, next_stop = [len(z)], n
    else:
        ends = (np.flatnonzero(np.diff(_stop)) + 1).tolist() + [len(z)]
        next_stop = int(_stop[0])
    parts, done = [], 0
    for k in range(1, n + 1):
        if k == next_stop:
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
    v = np.ldexp(mag, scale)  # K unscaled
    shift = np.where(((v > _SCALE_HI) | (v < _SCALE_LO)) & (0 < mag) & (mag < np.inf),
                     -np.frexp(mag)[1], scale)
    for arr in result[:2] + result[3:]:
        _ldexp(arr, shift)
    result[2] = (scale - shift) * math.log(2)
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
    y0, y1 = _initial_pair(m, which, z, s0star)
    if n == 0:
        return y0 + 0 * z, 0.0
    _, cur, log_scale = _scaled_run(m, n, z, y0, y1)
    return cur, log_scale


def eval_P(m: RecurrenceCoeffs, n: int, z: complex) -> complex:
    """Value of the monic degree-n orthogonal polynomial P_n(z); an array z
    gives the values at every point."""
    return _unscaled(*_eval_scaled(m, "P", n, z), n)


def eval_Q(m: RecurrenceCoeffs, n: int, z: complex) -> complex:
    """Second-kind polynomial Q_n(z); Q_0 = 0, Q_1 = s_0 (1 when normalized)."""
    return _unscaled(*_eval_scaled(m, "Q", n, z), n)


def eval_R(m: RecurrenceCoeffs, n: int, z: complex, s0star: complex) -> complex:
    """R_n(z) = P_n(z) + Q_n(z)/s0star, the Geronimus denominator polynomial."""
    return _unscaled(*_eval_scaled(m, "R", n, z, s0star), n)


def evaluate(m: RecurrenceCoeffs, n: int, z: complex, s0star: complex | None = None) -> EvalTriple:
    """P_n, Q_n (and R_n if s0star given) at z, sharing one log_scale frame.

    The stored values satisfy true_value = value * exp(log_scale).
    """
    ratio = None
    if n == 0:
        p, lp = 1.0 + 0.0j, 0.0
    else:
        prev, p, lp = _scaled_run(m, n, z, *_initial_pair(m, "P", z, None))
        ratio = p / prev if prev != 0 else complex("inf")
    q, lq = _eval_scaled(m, "Q", n, z)
    r = None
    if s0star is not None:
        rv, lr = _eval_scaled(m, "R", n, z, s0star)
        r = rv * math.exp(lr - lp)
    return EvalTriple(
        n=n,
        value_P=p,
        value_Q=q * math.exp(lq - lp),
        value_R=r,
        ratio_P=ratio,
        log_scale=lp,
    )


def ratio_sequence(
    m: RecurrenceCoeffs,
    z: complex,
    which: str = "P",
    s0star: complex | None = None,
    n_terms: int | None = None,
) -> RatioSequence:
    """Ratios r_n = y_n/y_{n-1} via r_{n+1} = z - c_{n+1} - lambda_{n+1}/r_n.

    Overflow-free: only ratios are propagated.  Raises ZeroHitError when the
    recurrence hits a zero of y_n at z (|r_n| < 1e-290).
    """
    y0, y1 = _initial_pair(m, which, z, s0star)
    if which == "Q":
        # Q_0 = 0: the ratio chain starts at r_2 = Q_2/Q_1 = z - c_2.
        if m.n_max < 2:
            raise PrefixError("Q-ratio sequence needs n_max >= 2")
        start = 2
        r = z - m.c[1]
    else:
        start = 1
        r = y1 / y0
    last = m.n_max if n_terms is None else start - 1 + n_terms
    if last > m.n_max:
        raise PrefixError(f"ratio r_{last} exceeds prefix length {m.n_max}")
    values = np.empty(last - start + 1, dtype=complex)
    c, lam = m.c, m.lam
    for n in range(start, last + 1):
        if n > start:
            r = (z - c[n - 1]) - lam[n - 2] / r
        if abs(r) < _ZERO_HIT or not np.isfinite(r):
            raise ZeroHitError(n, which)
        values[n - start] = r
    return RatioSequence(z=z, which=which, start=start, values=values)
