"""Christoffel and Geronimus transformations of coefficient prefixes.

Christoffel at kappa maps the functional L to L*[p] = L[(z-kappa)p]; its
coefficients follow from the ratios w_n = P_n(kappa)/P_{n-1}(kappa).
Geronimus at (kappa, s0star) inverts it, driven by the ratios of
R_n = P_n + Q_n/s0star.  Both come from one kernel, ``polyeval._ratio_run``
(the library's one forward ratio loop), which carries the ratios *and* their
differences e_n = w_n - w_{n-1} through a recurrence with exact inputs (the
differential-qd idea of Fernando and Parlett); both read their coefficients
off it with one formula, ``_dqd_coeffs``, Christoffel being the Geronimus
step at offset 0: the tiny differences that make up the new diagonal keep
their relative accuracy, and a constant tail comes out exactly.

Which precision runs:

* ``christoffel`` always runs in double: P is the dominant solution off the
  real axis, so the forward ratio map contracts rounding errors.
* ``geronimus`` measures eta = |1 - S/s0star|, with S the continued-fraction
  Cauchy value of the prefix at kappa.  R_n carries weight ~eta on the
  dominant solution, so forward iteration amplifies rounding errors by at
  most ~1/eta.  For eta >= 1e-2 the kernel runs in double.  Below it (this
  includes s0star = fl(S), the CLI default) eta is measured again in
  double-double (the (hi, lo) pair arithmetic of ``_dd``, unit roundoff
  ~1e-32) and, for eta >= 1e-18, the ratios are read off the backward run
  at S while the minimal solution f still carries R_n = f_n (1 + delta g_n),
  delta = s0/s0star - 1/m(J; kappa), g_n = q_n/f_n growing with the
  dominance of a second solution q: up to the first n with
  |delta g_n| >= 1, plus two steps (the crossover k*, ``_crossover``;
  ``_cauchy_head``, numpy pair arrays with no scalar loop).  From there the
  dominant part carries R_n, the forward map contracts again, and the run
  continues in double from the head's last ratios; the result is as
  accurate as on the eta >= 1e-2 route (~1e-13 entrywise).  Closer still,
  when the backward run breaks down, or when the run leaves the double
  range, it runs in mpmath at 30 + log10(1/eta) digits, eta being resolved
  at a precision that can see it and the digits capped by ``_auto_dps``;
  mpmath is imported only there.  The route taken is logged at DEBUG on the
  ``darbouxjac`` logger.
* ``GeronimusChain`` (conjugate-pair chains) and ``geronimus_cauchy`` step
  at the exact Cauchy value S, where R_n is the minimal solution.  There
  ``_cauchy_run`` reads the ratios from the continued-fraction tails and
  runs the differences backward (Pincherle; Gautschi, SIAM Review 9, 1967),
  which is stable, so these steps run in double with no precision budget.

The continued fraction m(J; kappa) is one backward run of its tails,
``_tails``, made once per step: ``geronimus`` reads eta from it and hands it
to ``_dd_cf_inverse``, which refines the tails to pairs.  ``cauchy_s0star``
returns s0 m(J; kappa) for any prefix; one quadrature, ``_cross_check``, checks
it on a preset's weight, as it does the values of ``geronimus_cauchy`` and chains.
"""
from __future__ import annotations

import cmath
import logging
import math
from functools import reduce

import numpy as np

from . import _dd as dd
from ._quadrature import adaptive_integral
from .core import Record, RecurrenceCoeffs, _degrees
from .errors import (
    ConfigurationError,
    EvaluationRangeError,
    ExistenceError,
    PoleError,
    PrefixError,
    QuadratureError,
    ZeroHitError,
)
from .polyeval import _BREAKDOWN_RTOL, _ratio_run, _scaled_run, _unscaled, eval_P, ratio_sequence

__all__ = [
    "TransformPoint",
    "TransformedCoeffs",
    "GeronimusChain",
    "christoffel",
    "kernel_eval",
    "christoffel_two",
    "geronimus",
    "geronimus_eval_from",
    "geronimus_cauchy",
    "cauchy_s0star",
]

_log = logging.getLogger("darbouxjac")

# |z - kappa| below this switches kernel_eval to the transformed recurrence.
_KERNEL_SWITCH = 1e-12


class TransformPoint(Record):
    """A Darboux site: kappa, optional s0star (Geronimus), validity flags."""

    kappa: complex
    s0star: complex | None = None
    allow_real: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kappa", complex(self.kappa))
        if self.s0star is not None:
            object.__setattr__(self, "s0star", complex(self.s0star))
        if self.kappa.imag == 0 and not self.allow_real:
            raise ConfigurationError(
                f"kappa={self.kappa} is real; zero-location and existence guarantees "
                "need a nonreal site (pass allow_real=True to proceed unguaranteed)"
            )

    @property
    def geronimus_guaranteed(self) -> bool:
        """Existence hypothesis: kappa in C+- and s0star in the opposite
        closed half-plane, nonzero."""
        if self.s0star is None or self.s0star == 0 or self.kappa.imag == 0:
            return False
        if self.kappa.imag > 0:
            return self.s0star.imag <= 0
        return self.s0star.imag >= 0


class TransformedCoeffs(Record):
    """Result of one or more Darboux transforms.

    ``coeffs`` is the transformed prefix (its own, shorter n_max), and
    ``ratio_seq[k]`` stores y_{k+1}(kappa)/y_k(kappa) of the *input* prefix's
    ratio run: y = P for a Christoffel step, y = R for a Geronimus step, whose
    A_n is -ratio_seq[n-1].  Either transform's degree-n polynomial is
    P_{n+s} - ratio_seq[n+s-1] P_{n+s-1} over the input, s = 1 for Christoffel
    (it is (z - kappa) P*_n) and s = 0 for Geronimus.
    """

    base: RecurrenceCoeffs
    sites: tuple[TransformPoint, ...]
    kinds: tuple[str, ...]
    coeffs: RecurrenceCoeffs
    ratio_seq: np.ndarray | None = None
    notes: tuple[str, ...] = ()


def _check_steps(what: str, n_max: int, steps: int = 1) -> None:
    """PrefixError before any step when ``steps`` Darboux steps cannot run on
    n_max terms: each step takes 2 and leaves at least 2."""
    if n_max < 2 * steps + 2:
        raise PrefixError(f"{what} needs a prefix of length >= {2 * steps + 2}")


def _leading(m: RecurrenceCoeffs, n: int) -> RecurrenceCoeffs:
    """The leading max(n, 2) + 2 terms of m: all a step reads for n terms of its result."""
    return m.truncated(min(m.n_max, max(n, 2) + 2))


# ---------------------------------------------------------------------------
# Christoffel transformation (double precision; ratios of the dominant P)
# ---------------------------------------------------------------------------

def christoffel(
    m: RecurrenceCoeffs | TransformedCoeffs, site: TransformPoint
) -> TransformedCoeffs:
    """Kernel-polynomial (Christoffel) transform of the prefix at site.kappa.

    With r_n = P_n(k)/P_{n-1}(k), c*_{n+1} = c_{n+2} + (r_{n+2} - r_{n+1}),
    lambda*_{n+1} = lambda_{n+1} r_{n+1}/r_n and s*_0 = (c_1 - k) s_0: the
    Geronimus formula at offset 0 shifted by one index (P_n + A_n P_{n-1} =
    (z - k) P*_{n-1}(k, z)), taken by the same routine in differential-qd
    form, so a constant tail comes out exactly.  The prefix shrinks by 2.

    Accepts a Geronimus ``TransformedCoeffs`` taken at the *same* kappa, in
    which case the coefficients are the Geronimus input prefix and the kernel
    ratios come from the stored R-ratio sequence
    (rho*_1 = -s_0/s0star, rho*_n = lambda_n / w_{n-1}); recomputing them by
    forward recurrence would be exponentially ill-conditioned because kappa
    belongs to the transformed spectrum.
    """
    if isinstance(m, TransformedCoeffs):
        if (m.kinds and m.kinds[-1] == "geronimus" and m.ratio_seq is not None
                and m.sites[-1].kappa == complex(site.kappa)):
            return _christoffel_of_geronimus(m, site)
        m = m.coeffs
    _check_steps("christoffel", m.n_max)
    kappa = site.kappa
    c, lam = m.c.tolist(), m.lam.tolist()
    what = f"kernel polynomials do not exist at kappa={kappa}"
    w, e = _ratio_run(c, lam, kappa, 0j, m.n_max, what)
    c_out, lam_out = _dqd_coeffs(c, lam, w, e, m.n_max - 1)
    coeffs = RecurrenceCoeffs(c=c_out, lam=lam_out, s0=(c[0] - kappa) * m.s0)
    return TransformedCoeffs(base=m, sites=(site,), kinds=("christoffel",), coeffs=coeffs,
                             ratio_seq=np.array(w))


def _dqd_coeffs(c, lam, w, e, count: int):
    """The coefficients of both transforms from a ratio run (w, e) of
    ``_ratio_run``, in the number type of the inputs: c[k] + e[k] (k = 1, ...,
    count - 1) and lam[k-1] w[k]/w[k-1] (k = 1, ..., count - 2) in
    differential-qd form lam[k-1] (1 + e[k]/w[k-1]), so equal ratios (a
    constant tail) give lam[k-1] exactly, not a rounding bias repeated in
    every entry; a sum below 1/4 has cancelled (the ratios swing next to the
    support), and the quotient is taken there.  ``christoffel`` reads its
    P-run with count n_max - 1, each Geronimus route its R-run with count
    n_max - 2, putting c^{-*}_1 and lambda^{-*}_2 in front."""
    terms = zip(lam[: count - 2], w[: count - 2], w[1 : count - 1], e[1 : count - 1])
    return ([c[k] + e[k] for k in range(1, count)],
            [lk * (d if abs(d := 1 + ek / wp) >= 0.25 else wk / wp) for lk, wp, wk, ek in terms])


def _christoffel_of_geronimus(tc: TransformedCoeffs, site: TransformPoint) -> TransformedCoeffs:
    """Christoffel at the kappa of a preceding Geronimus step (inverse pair).

    L^G[(z - kappa) p] = L[p], so the result is the Geronimus input itself,
    returned entry for entry; only the kernel ratios are computed.
    """
    base = tc.base
    gero = tc.coeffs
    n_in = gero.n_max
    w = tc.ratio_seq  # w[n-1] = R_n(kappa)/R_{n-1}(kappa)
    # rho*_n = P^{-*}_n(kappa)/P^{-*}_{n-1}(kappa); need n = 1..n_in-1
    rho = np.empty(n_in - 1, dtype=complex)
    rho[0] = -base.s0 / gero.s0
    rho[1:] = base.lam[: n_in - 2] / w[: n_in - 2]
    out_len = n_in - 2
    # built explicitly: truncated() would carry base.family into the output
    coeffs = RecurrenceCoeffs(c=base.c[:out_len], lam=base.lam[: out_len - 1], s0=base.s0)
    return TransformedCoeffs(
        base=gero,
        sites=(site,),
        kinds=("christoffel",),
        coeffs=coeffs,
        ratio_seq=rho,
        notes=("kernel-ratios-from-geronimus-inverse",),
    )


def kernel_eval(m: RecurrenceCoeffs, site: TransformPoint, n: int, z: complex) -> complex:
    """Monic kernel polynomial P*_n(kappa, z).

    Near z = kappa the two-term form is ill-conditioned; the value is then
    obtained from the transformed recurrence instead, of the leading n + 3
    terms (at least 4): christoffel runs forward, so they give the same entries.
    Both routes take christoffel's prefixes and the degrees 0..n_max - 2 of its result.
    """
    _check_steps("kernel_eval", m.n_max)
    (n,) = _degrees("P*_n", [n], m.n_max, reads=2).tolist()
    if n == 0:
        return 1.0 + 0.0j
    kappa = site.kappa
    if abs(z - kappa) <= _KERNEL_SWITCH:
        return eval_P(christoffel(_leading(m, n + 1), site).coeffs, n, z)
    try:
        rho = ratio_sequence(m, kappa, "P", n_terms=n + 1)
    except ZeroHitError as exc:
        raise ExistenceError(
            f"kernel polynomials do not exist at kappa={kappa}", exc.index
        ) from exc
    p_n, p_n1, log_scale = _scaled_run(m, n + 1, z, 1.0 + 0.0j, z - m.c[0])
    return _unscaled((p_n1 - rho.r(n + 1) * p_n) / (z - kappa), log_scale, n)


def christoffel_two(
    m: RecurrenceCoeffs, k1: TransformPoint, k2: TransformPoint
) -> TransformedCoeffs:
    """Two-point Christoffel transform: the OPS of (x-k1)(x-k2) dmu.

    Implemented as two single-site transforms; existence asks that
    Delta_n = P_{n+1}(k1)P_{n+1}(k2)[P_n(k2)/P_{n+1}(k2) - P_n(k1)/P_{n+1}(k1)]
    stay away from zero for every usable n.  P*_n(k1; k2) = Delta_n/((k1 - k2)
    P_n(k1)), so the second step's breakdown test certifies it: its
    ExistenceError is raised again with the Delta_n message and the same n.
    """
    _check_steps("christoffel_two", m.n_max, steps=2)
    notes = []
    repeated = k1.kappa == k2.kappa
    opposite = k1.kappa.imag * k2.kappa.imag < 0
    if not (opposite or repeated):
        notes.append("hypothesis-unmet:same-half-plane")
    if repeated:
        # Delta_n as stated degenerates for coincident points; the second
        # single-site transform below still certifies P*_n(kappa) != 0.
        notes.append("unverified-existence:repeated-site")
    first = christoffel(m, k1)
    try:
        second = christoffel(first.coeffs, k2)
    except ExistenceError as exc:
        if repeated:
            raise
        raise ExistenceError(
            f"Delta_n vanishes within tolerance for kappa1={k1.kappa}, kappa2={k2.kappa}",
            exc.index,
        ) from exc
    return TransformedCoeffs(
        base=m,
        sites=(k1, k2),
        kinds=("christoffel", "christoffel"),
        coeffs=second.coeffs,
        ratio_seq=first.ratio_seq,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Geronimus transformation (R-ratio runs: double, or double-double and at
# last mpmath near the minimal solution)
# ---------------------------------------------------------------------------

_NO_GERONIMUS = "Geronimus transform does not exist for this (kappa, s0star)"
# eta = |1 - S/s0star| at or above this runs the R-ratio kernel in double:
# rounding errors then grow by at most ~1/eta = 100.
_DOUBLE_ETA = 1e-2
# Below _DOUBLE_ETA and at or above this the R-ratios up to the crossover are
# read off the backward run in double-double (``_cauchy_head``): delta =
# s0/s0star - 1/m is known to the pair digits of 1/m, so the error grows like
# 1e-32/eta, ~1e-14 at the floor.
_DD_ETA = 1e-18
# _BREAKDOWN_RTOL of the double-double head: far from the support at the
# Cauchy value, R_1 = kappa - c_1 + s_0/s0star ~ lambda_1/kappa cancels to
# 1e-14 of its terms at |kappa| = 1e7 and is still resolved.
_DD_BREAKDOWN_RTOL = 1e-29
# Digits kept beyond log10(1/eta) by the extended-precision R-ratio run, and
# the first precision at which eta is resolved.
_GUARD_DIGITS = 30
_ETA_DPS = 40


def _auto_dps(c, lam, s0_over_s0star_mag: float, kappa: complex, length: int) -> int:
    """Precision budget: 1 digit per step per decade of worst-case error growth.

    The ratio map w -> (kappa - c) - lambda/w amplifies perturbations by
    |lambda|/|w|^2 ~ |f|^2/|lambda| when w tracks the minimal solution.
    """
    max_c = float(np.max(np.abs(c))) if len(c) else 0.0
    max_a = float(np.max(np.sqrt(np.abs(lam)))) if len(lam) else 0.0
    min_lam = float(np.min(np.abs(lam))) if len(lam) else 1.0
    bound = abs(kappa) + max_c + 2.0 * max_a + min(s0_over_s0star_mag, 1e3)
    # bound * bound overflows past |kappa| ~ 1e154; the digits cap below anyway
    amp = min(max(bound * bound / max(min_lam, 1e-300), 2.0), 1e308)
    digits = 80 + int(math.ceil(length * math.log10(amp)))
    return int(min(max(digits, 60), 6000))


def _half_disc(c, lam, z):
    """(half, disc) with half +- disc the roots of t^2 - (c-z) t + lambda, the
    discriminant scaled by max(|c-z|/2, |lambda|^(1/2), or 1 if both vanish) so
    that no square leaves the double range however large |z| is; OverflowError
    if the scale itself cannot be represented."""
    half = (c - z) / 2
    scale = max(abs(half), abs(lam) ** 0.5) or 1.0
    h = half / scale
    return half, (h * h - lam / scale / scale) ** 0.5 * scale


def _tail_seed(c_tail, lam_tail, z, depth: int = 0):
    """Smaller-modulus root of t^2 - (c-z) t + lambda: the continued-fraction
    tail value of a constant-coefficient Jacobi matrix.

    Taken as lambda over the larger root from ``_half_disc``;
    EvaluationRangeError(depth) if the root cannot be represented.
    """
    try:
        half, disc = _half_disc(c_tail, lam_tail, z)
    except OverflowError:
        raise EvaluationRangeError(depth) from None
    big = half + disc if abs(half + disc) >= abs(half - disc) else half - disc
    t = lam_tail / big
    if not cmath.isfinite(complex(t)):
        raise EvaluationRangeError(depth)
    return t


def _tails(c, lam, z) -> list:
    """[t_{N+1}, t_N, ..., t_2] (N = len(c)) of the Jacobi continued fraction
    m(J; z) = 1/(c[0] - z - t_2): t_{N+1} = ``_tail_seed`` (exact for constant
    tails), t_j = lam[j-2]/D_j with D_j = (c[j-1] - z) - t_{j+1}.  Python
    complex or mpmath mpc, like ``_ratio_run``; the list stops at t_{j+1}
    when D_j is exactly 0."""
    t = _tail_seed(c[-1], lam[-1], z, len(c))
    ts = [t]
    try:
        for lam_j, c_j in zip(lam[-1::-1], c[-1:0:-1]):
            t = lam_j / ((c_j - z) - t)
            ts.append(t)
    except ZeroDivisionError:
        pass
    return ts


def _cf_m_function(c, lam, z, ts=None):
    """m(J; z) = ((J - z)^{-1} e_0, e_0) from the tails ``ts`` of ``_tails``
    (run here when None); PoleError when a denominator is 0."""
    ts = _tails(c, lam, z) if ts is None else ts
    inv = c[0] - z - ts[-1]
    if len(ts) < len(c) or not inv:
        raise PoleError(f"the continued fraction has a pole at kappa={z}: no Cauchy value")
    return 1 / inv


def _cauchy_run(c, lam, kappa, what: str, ts=None, diffs: bool = True):
    """(w, e, offset) of ``_ratio_run`` at the Cauchy value s0star = s0 m(J; kappa),
    where R_n is the minimal solution: the backward run ``_tails`` (``ts``,
    run here when None), stable in double.

    With the tails t_j and D_j = c[j-1] - kappa - t_{j+1} of ``_tails``,
    w[k] = R_{k+1}/R_k = -t_{k+2}, e[k] = t_{k+1} - t_{k+2} and
    offset = s0/s0star = c[0] - kappa - t_2.  D_j and the breakdown test are
    numpy arrays; the differences d_j = t_j - t_{j+1} run backward from d_N = 0
    (the tail map's fixed point) with exact inputs, as in ``_ratio_run``, in a
    Python loop that ``diffs`` False skips (e is then [0]):

        d_j = ((lam[j-2] - lam[j-1]) + t_{j+1} ((c[j] - c[j-1]) + d_{j+1})) / D_j.

    Raises ExistenceError(what, j - 2) at the largest j where D_j cancels to
    within _BREAKDOWN_RTOL of its terms (R_{j-2}(kappa) = 0), and PoleError
    when the offset is 0 (m(J; kappa) infinite).
    """
    ts = _tails(c, lam, kappa) if ts is None else ts
    n, t = len(c), np.array(ts[: len(c) - 1])  # t_{j+1} for j = n, n - 1, ...
    head = np.array(c[n - len(t) :][::-1]) - kappa  # c[j-1] - kappa
    big = head - t  # D_j
    hit = np.flatnonzero(np.abs(big) < _BREAKDOWN_RTOL * np.maximum(np.abs(head), np.abs(t)))
    if hit.size:
        raise ExistenceError(what, n - int(hit[0]) - 2)
    d, e = 0 * ts[0], []  # from the far end
    for j, t_j, big_j in zip(range(n - 1, 1, -1), ts[1:], big[1:].tolist()) if diffs else ():
        d = ((lam[j - 2] - lam[j - 1]) + t_j * ((c[j] - c[j - 1]) + d)) / big_j
        e.append(d)
    offset = c[0] - kappa - ts[-1]
    if not offset:
        raise PoleError(f"the continued fraction has a pole at kappa={kappa}: no Cauchy value")
    return [-t for t in ts[:0:-1]], [0 * ts[-1]] + e[::-1], offset


def _geronimus_step(c, lam, s0, kappa, s0star=None, ts=None, coeffs: bool = True):
    """One Geronimus step on coefficient lists: (c, lam, s0star, w) of the
    result, w[k] = R_{k+1}(kappa)/R_k(kappa), in the number type of the inputs.
    s0star None steps at the Cauchy value through ``_cauchy_run`` (on ``ts``),
    where ``coeffs`` False gives w and s0star alone (c and lam None).

    c^{-*}_1 = kappa + s_0/s0star (= c_1 + w[0]), c^{-*}_{k+1} = c_{k+1} + e[k],
    lambda^{-*}_2 = -w[0] s_0/s0star, lambda^{-*}_{k+2} = lambda_{k+1} w[k]/w[k-1]
    (past the first entries, ``_dqd_coeffs``).
    """
    if s0star is None:
        w, e, offset = _cauchy_run(c, lam, kappa, _NO_GERONIMUS, ts, diffs=coeffs)
        s0star = s0 * (1 / offset)  # bit for bit cauchy_s0star
        if not coeffs:
            return None, None, s0star, w
        first = c[0] + w[0]
    else:
        offset = s0 / s0star
        w, e = _ratio_run(c, lam, kappa, offset, len(c) - 1, _NO_GERONIMUS)
        first = kappa + offset
    c_new, lam_new = _dqd_coeffs(c, lam, w, e, len(c) - 2)
    return [first] + c_new, [-w[0] * offset] + lam_new, s0star, w


class GeronimusChain:
    """Iterated Geronimus transformations in double precision.

    ``apply(kappa)`` steps at the Cauchy value s0star = integral d(current
    measure)/(t - kappa), where R_n is the minimal solution, through the
    backward run ``_cauchy_run``, with no precision budget and no quadrature;
    it refuses the sites ``geronimus_cauchy`` refuses on the base.  ``steps``
    holds each step's kappa, s0star and ratio_seq, as in ``TransformedCoeffs``.
    """

    def __init__(self, m: RecurrenceCoeffs):
        self.base = m
        self._c, self._lam, self._s0 = m.c.tolist(), m.lam.tolist(), complex(m.s0)
        self.steps: list[dict] = []

    @property
    def n_max(self) -> int:
        return len(self._c)

    def apply(self, kappa: complex) -> None:
        """One Geronimus step at the Cauchy-transform value s0star."""
        kappa = complex(kappa)
        _cauchy_weight(self.base, kappa)
        _check_steps("geronimus", self.n_max)
        c_new, lam_new, s0star, w = _geronimus_step(self._c, self._lam, self._s0, kappa)
        self.steps.append({"kappa": kappa, "s0star": s0star, "ratio_seq": np.array(w)})
        self._c, self._lam, self._s0 = c_new, lam_new, s0star

    def coeffs(self) -> RecurrenceCoeffs:
        return RecurrenceCoeffs(c=self._c, lam=self._lam, s0=self._s0)


def _crossover(lam, ws, delta, count: int) -> int:
    """Where the R-ratio run at offset 1/m(J; kappa) + delta leaves the head:
    the first k with |delta g_k| >= 1, plus two (at most ``count``);
    ``count`` when there is none or g_k leaves the double range first.  g_k
    of ``_cauchy_head`` in double, from the ratios ``ws`` of ``_cauchy_run``.
    """
    ws = np.asarray(ws)
    rho = np.asarray(lam[: count - 2]) / (ws[: count - 2] * ws[1 : count - 1])
    g = np.cumsum(np.cumprod(np.concatenate(([1 / ws[0]], rho))))  # g_1, ..., g_{count-1}
    hit = np.flatnonzero(~(np.abs(delta * g) < 1))
    return min(int(hit[0]) + 3, count) if hit.size and np.isfinite(g[hit[0]]) else count


def _cauchy_head(lam, w_s, e_s, delta, count: int, what: str):
    """(w, e) of ``_ratio_run`` up to ``count`` at the offset 1/m(J; kappa) +
    delta (a pair), read off the backward run at the Cauchy value: its ratios
    w^S (pairs, from ``_dd_cf_inverse``) and differences e^S (``_cauchy_run``).

    R = f + delta q, f the minimal solution (ratios w^S) and q_0 = 0, q_1 = 1,
    so R_k = f_k (1 + delta g_k), g_k = q_k/f_k (Gautschi, SIAM Review 9,
    1967).  The Casoratian f_j q_{j+1} - f_{j+1} q_j = lam_0 ... lam_{j-1}
    makes g the running sum (g_0 = 0) of h_0 = 1/w^S_0, h_k = h_{k-1} lam[k-1]
    /(w^S_{k-1} w^S_k).  Both are pairs: numpy's running product and sum of
    the hi parts, with the rounding of each step found exactly (``dd``) and
    carried in the lo parts (cascaded summation: Ogita, Rump & Oishi, SIAM J.
    Sci. Comput. 26, 2005), so no k* double roundings pile up.  With
    eps_k = delta h_k/(1 + delta g_k),

        w_k = w^S_k (1 + eps_k),  e_k = e^S_k + w^S_k eps_k - w^S_{k-1} eps_{k-1}.

    Past the crossover e_k shrinks below the pair rounding of its terms, so
    the run goes on in double there.  ExistenceError(what, n) when R_n/f_n =
    (1 + delta g_{n-1}) + delta h_{n-1} cancels to _DD_BREAKDOWN_RTOL of its terms.
    """
    wh, wl = w_s[0][:count], w_s[1][:count]
    rho = dd.div(np.asarray(lam[: count - 1]), 0j, *dd.mul(wh[:-1], wl[:-1], wh[1:], wl[1:]))
    h0 = dd.div(*delta, wh[0], wl[0])
    rho_h, rho_l = np.append(h0[0], rho[0]), np.append(h0[1], rho[1])
    # delta h_k (k < count): the relative corrections s of the running product
    # multiply to 1 + S1 + (S1^2 - S2)/2, S1 and S2 the running sums of s and s^2
    dh = np.cumprod(rho_h)
    eh, el = dd.mul(dh[:-1], 0j, rho_h[1:], 0j)
    s = np.append(0j, ((eh - dh[1:]) + el) / dh[1:]) + rho_l / rho_h
    s1 = np.cumsum(s)
    dl = dh * (s1 + (s1 * s1 - np.cumsum(s * s)) / 2)
    gh = np.cumsum(dh)  # delta g_n, n = 1, ..., count
    eh, el = dd.add(gh[:-1], 0j, dh[1:], 0j)
    rh, rl = dd.add(1.0, 0j, gh, np.cumsum(np.append(0j, (eh - gh[1:]) + el) + dl))
    ph, pl = np.append(1.0, rh[:-1]), np.append(0.0, rl[:-1])  # 1 + delta g_{n-1}
    broken = np.flatnonzero(np.abs(rh) < _DD_BREAKDOWN_RTOL * np.maximum(np.abs(ph), np.abs(dh)))
    if broken.size:
        raise ExistenceError(what, int(broken[0]) + 1)
    xh, xl = dd.mul(wh, wl, *dd.div(dh, dl, ph, pl))  # w^S_k eps_k
    w = dd.add(wh, wl, xh, xl)
    e = dd.add(np.asarray(e_s[1:count]), 0j, *dd.add(xh[1:], xl[1:], -xh[:-1], -xl[:-1]))
    return (w[0] + w[1]).tolist(), [0j] + (e[0] + e[1]).tolist()


def _dd_cf_inverse(c, lam, kappa, ts):
    """(1/m(J; kappa), w^S): 1/m = c[0] - kappa - t_2 as a pair, the continued
    fraction whose double tails ``ts`` = [T_{N+1}, ..., T_2] come from
    ``_tails``, refined to double-double, and the pair array of the ratios
    w^S_k = -t_{k+2} (k = 0, ..., N - 2) of the minimal solution, to ~1e-30.

    With D_j = (c[j-1] - kappa) - T_{j+1} a pair, the errors d_j = t_j - T_j
    obey d_j = r_j + (lam[j-2]/D_j^2) d_{j+1} to second order,
    r_j = lam[j-2]/D_j - T_j.  The residuals are numpy pair arrays; the error
    run contracts as the continued fraction does and runs in double.  It
    starts from d_{N+1}, the Newton correction of the tail seed on
    t^2 - (c - kappa) t + lambda = 0.
    """
    lam_rev = np.asarray(lam[-1::-1])  # lam[j-2] for j = N..2
    ch, cl = dd.add(np.asarray(c), 0j, -kappa, 0j)  # c[k] - kappa
    t = ts[0]
    res = dd.add(*dd.mul(t, 0j, *dd.add(t, 0j, -ch[-1], -cl[-1])), lam[-1], 0j)[0]
    d = [-res / (2 * t - ch[-1])]
    ts = np.array(ts)
    dh, dl = dd.add(ch[-1:0:-1], cl[-1:0:-1], -ts[:-1], 0j)  # D_j
    r = dd.add(*dd.div(lam_rev, 0j, dh, dl), -ts[1:], 0j)[0]
    for r_j, g_j in zip(r.tolist(), (lam_rev / (dh * dh)).tolist()):
        d.append(r_j + g_j * d[-1])
    inv_m = dd.add(*dd.add(ch[0], cl[0], -ts[-1], 0j), -d[-1], 0j)
    return inv_m, dd.add(-ts[:0:-1], 0j, -np.array(d[:0:-1]), 0j)


# overflow in the pair arithmetic ends as inf or nan, refused below
@np.errstate(all="ignore")
def _dd_step(c, lam, kappa, offset, ts):
    """(c, lam, w, eta, k*) of a Geronimus step at the offset s0/s0star (a
    pair): ``_cauchy_head`` up to k* (``_crossover``), then double; eta =
    |1 - S/s0star| in double-double from the tails ``ts`` of ``_tails``.  None
    when eta is below _DD_ETA or nan, the backward run breaks down, or an
    output leaves the double range."""
    inv_m, w_s = _dd_cf_inverse(c, lam, kappa, ts)
    ratio = dd.div(*offset, *inv_m)  # s0 m(J; kappa) / s0star
    eta = abs(dd.add(1.0, 0j, -ratio[0], -ratio[1])[0])
    if not eta >= _DD_ETA:
        return None
    try:
        ws, es, _ = _cauchy_run(c, lam, kappa, _NO_GERONIMUS, ts)
    except ExistenceError:
        return None
    count = len(c) - 1
    delta = dd.add(*offset, -inv_m[0], -inv_m[1])
    k_star = _crossover(lam, ws, delta[0] + delta[1], count)
    head = _cauchy_head(lam, w_s, es, delta, k_star, _NO_GERONIMUS)
    first = dd.add(kappa, 0j, *offset)
    offset = offset[0] + offset[1]
    w, e = _ratio_run(c, lam, kappa, offset, count, _NO_GERONIMUS, head=head)
    c_new, lam_new = _dqd_coeffs(c, lam, w, e, len(c) - 2)
    c_new, lam_new = [first[0] + first[1]] + c_new, [-w[0] * offset] + lam_new
    if all(map(cmath.isfinite, c_new + lam_new)):
        return c_new, lam_new, w, eta, k_star
    return None


def _extended_dps(c, lam, s0, kappa, s0star, budget: int) -> int:
    """Digits for an R-ratio run whose eta = |1 - S/s0star| is below
    _DOUBLE_ETA: _GUARD_DIGITS + log10(1/eta), at most ``budget``.

    eta is re-measured with the continued fraction (on the mpc inputs) at
    rising precision until it stands 10 digits clear of that precision's
    resolution.
    """
    import mpmath as mp

    dps = min(_ETA_DPS, budget)
    while True:
        with mp.workdps(dps):
            eta = abs(1 - s0 * _cf_m_function(c, lam, kappa) / s0star)
        if eta > mp.mpf(10) ** (10 - dps) or dps >= budget:
            break
        dps = min(2 * dps, budget)
    if eta == 0:
        return budget
    return min(_GUARD_DIGITS + int(math.ceil(-float(mp.log10(eta)))), budget)


def _mpmath_step(m: RecurrenceCoeffs, kappa: complex, s0star: complex, breaking_down: bool):
    """(c, lam, w, digits) of a Geronimus step in mpmath at ``_extended_dps``
    digits (``_auto_dps`` when the double continued fraction broke down)."""
    import mpmath as mp

    # doubles convert to mpc exactly at any working precision
    args = ([mp.mpc(z) for z in m.c.tolist()], [mp.mpc(z) for z in m.lam.tolist()],
            mp.mpc(m.s0), mp.mpc(kappa), mp.mpc(s0star))
    dps = _auto_dps(m.c, m.lam, abs(m.s0 / s0star), kappa, m.n_max)
    if not breaking_down:
        dps = _extended_dps(*args, dps)
    with mp.workdps(dps):
        c_new, lam_new, _, w = _geronimus_step(*args)
        return [complex(z) for z in c_new], [complex(z) for z in lam_new], w, dps


def geronimus(m: RecurrenceCoeffs, site: TransformPoint) -> TransformedCoeffs:
    """Geronimus transform of the prefix at (site.kappa, site.s0star).

    lambda^{-*}_{n+1} = lambda_n R_n(k)R_{n-2}(k)/R_{n-1}(k)^2 and
    c^{-*}_{n+1} = c_{n+1} - R_n(k)/R_{n-1}(k) + R_{n+1}(k)/R_n(k), with
    c^{-*}_1 = c_1 - A_1 and lambda^{-*}_2 = -R_1(k) s_0/s0star; the result's
    s0 is s0star.  The R-ratio run is double unless s0star lies within
    _DOUBLE_ETA of the Cauchy value; there it is double-double up to the
    dominance crossover k* and double after it, down to eta = _DD_ETA, and
    mpmath below (see module docstring).  The route, eta and k* are logged
    at DEBUG on the ``darbouxjac`` logger (record attributes ``route``,
    ``eta``, ``k_star``).
    """
    if site.s0star is None or site.s0star == 0:
        raise ConfigurationError(
            "Geronimus transform needs s0star != 0: the OPS does not exist otherwise"
        )
    _check_steps("geronimus", m.n_max)
    kappa, s0star = site.kappa, site.s0star
    c, lam = m.c.tolist(), m.lam.tolist()
    ts = _tails(c, lam, kappa)
    try:
        eta = abs(1 - m.s0 * _cf_m_function(c, lam, kappa, ts) / s0star)
    except PoleError:
        eta = math.nan
    k_star = None
    if eta >= _DOUBLE_ETA:
        c_new, lam_new, _, w = _geronimus_step(c, lam, m.s0, kappa, s0star)
        route = "double"
    elif len(ts) == len(c) and (
        step := _dd_step(c, lam, kappa, dd.div(complex(m.s0), 0j, s0star, 0j), ts)
    ):
        c_new, lam_new, w, eta, k_star = step
        route = (f"double-double to k*={k_star} of {len(w)}, then double"
                 if k_star < len(w) else "double-double")
    else:
        c_new, lam_new, w, dps = _mpmath_step(m, kappa, s0star, breaking_down=math.isnan(eta))
        route = f"mpmath at {dps} digits"
    _log.debug("geronimus at kappa=%s: %s (eta=%.3g)", kappa, route, eta,
               extra={"route": route, "eta": eta, "k_star": k_star})
    notes = () if site.geronimus_guaranteed else ("existence-checked-numerically",)
    return TransformedCoeffs(
        base=m,
        sites=(site,),
        kinds=("geronimus",),
        coeffs=RecurrenceCoeffs(c=c_new, lam=lam_new, s0=s0star),
        ratio_seq=np.array(w, dtype=complex),
        notes=notes,
    )


def geronimus_eval_from(tc: TransformedCoeffs, n: int, z: complex) -> complex:
    """P^{-*}_n(kappa, z) from a precomputed Geronimus TransformedCoeffs."""
    if tc.kinds[-1] != "geronimus":
        raise ConfigurationError("transform is not a Geronimus step")
    (n,) = _degrees("P^{-*}_n", [n], len(tc.ratio_seq)).tolist()
    if n == 0:
        return 1.0 + 0.0j
    m = tc.base
    prev, cur, log_scale = _scaled_run(m, n, z, 1.0 + 0.0j, z - m.c[0])
    return _unscaled(cur - tc.ratio_seq[n - 1] * prev, log_scale, n)


def _cauchy_weight(m: RecurrenceCoeffs, kappa: complex):
    """The preset family whose weight cross-checks a Cauchy value of m (None
    without one); ConfigurationError for a real kappa inside its support."""
    if m.family is None or m.family.kind == "custom":
        return None
    lo, hi = m.family.support
    if kappa.imag == 0 and lo <= kappa.real <= hi:
        raise ConfigurationError(f"kappa={kappa} lies inside the support [{lo}, {hi}]")
    return m.family


def _cross_check(family, kappas, value: complex, stop: int = 2048, tol: float = 1e-10) -> None:
    """The Cauchy value of one site, or of a chain of sites, against
    kind-matched Gauss-Chebyshev quadrature of 1/prod_j (t - kappa_j), node
    doubling up to 2 stop nodes, to tol (nothing without a family)."""
    if family is None:
        return
    quad = adaptive_integral(family, lambda t: reduce(lambda acc, k: acc / (t - k), kappas, 1.0),
                             stop=stop)
    if abs(quad - value) > tol * max(1.0, abs(value)):
        raise QuadratureError(
            f"quadrature and continued-fraction Cauchy transforms disagree: "
            f"{quad} vs {value}"
        )


def cauchy_s0star(m: RecurrenceCoeffs, kappa: complex) -> complex:
    """s0star = s0 m(J; kappa) = integral dmu(t)/(t - kappa) of any prefix.

    The Jacobi continued fraction in double (backward evaluation is stable);
    PoleError when one of its denominators is 0.  For a preset family a real
    kappa must lie outside the support, and quadrature must agree to 1e-10.
    """
    kappa = complex(kappa)
    family = _cauchy_weight(m, kappa)
    s0star = _cf_m_function(m.c.tolist(), m.lam.tolist(), kappa) * m.s0
    _cross_check(family, (kappa,), s0star)
    return s0star


def _cauchy_step(m: RecurrenceCoeffs, kappa: complex, coeffs: bool = True):
    """(site, c, lam, w) of ``geronimus_cauchy``, its checks in its order;
    ``coeffs`` False runs no difference loop (c and lam None), as in ``_geronimus_step``."""
    kappa = complex(kappa)
    family = _cauchy_weight(m, kappa)
    _check_steps("geronimus", m.n_max)
    c_new, lam_new, s0star, w = _geronimus_step(m.c.tolist(), m.lam.tolist(), m.s0, kappa,
                                                coeffs=coeffs)
    _cross_check(family, (kappa,), s0star)
    return TransformPoint(kappa, s0star=s0star, allow_real=(kappa.imag == 0)), c_new, lam_new, w


def geronimus_cauchy(m: RecurrenceCoeffs, kappa: complex) -> TransformedCoeffs:
    """Geronimus transform with s0star = integral dmu/(t - kappa).

    This choice makes the result the OPS of the complex measure
    dmu(t)/(t - kappa); applying it again at the conjugate point with
    s0star = integral dmu/|t - kappa|^2 lands on a positive measure.  One
    backward run in double, as in ``GeronimusChain.apply``, for any prefix;
    the s0star it returns is ``cauchy_s0star``'s value, with its checks.
    """
    site, c_new, lam_new, w = _cauchy_step(m, kappa)
    return TransformedCoeffs(base=m, sites=(site,), kinds=("geronimus",),
                             coeffs=RecurrenceCoeffs(c=c_new, lam=lam_new, s0=site.s0star),
                             ratio_seq=np.array(w, dtype=complex),
                             notes=("s0star-from-cauchy-transform",))
