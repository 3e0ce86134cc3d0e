"""Zeros via truncated-matrix eigenproblems, strip/dynamics verification,
m-function identities, Nevai diagnostics, and ratio asymptotics.

Zeros of P_n are the eigenvalues of the n x n truncation of the Jacobi
matrix: for a real prefix with positive lambda the truncation is real
symmetric and its eigenvalues (the Gauss nodes, Golub & Welsch 1969) come
from eigvalsh; any other prefix goes to LAPACK eigvals.  A degree sweep runs
the eigensolver once per degree, then polishes and certifies by the error
envelope, each Newton step and the certificate one run of polyeval's
evaluator over the zeros of every degree at once.  Gauss nodes are perfectly
conditioned, so they take one Newton step, in real arithmetic; eigvals
zeros (kernel and Geronimus transforms, conditioning unknown) take two.
The kernel and Geronimus sweeps build their transform once per site, on
the leading max(n_list) + 3 terms.  On a real base with positive lambda,
their degrees n >= 32 replace eigvals by Aberth iteration on the secular
equation of the base Gauss rule with a moved corner entry
(``_corner_roots``), falling back to eigvals when that run fails a check;
the zeros then take the same two Newton steps and certificate.

Cluster-zero distances |xi_n - kappa| for Geronimus transforms decay far
below double resolution; Newton iteration in the shifted variable
h = z - kappa finds them in double, from ratio differences carried as
products, one transform and one ratio run per degree list (``cluster_sweep``).
"""
from __future__ import annotations

import logging
import math

import numpy as np

from .core import (
    Record,
    RecurrenceCoeffs,
    SymmetricJacobi,
    _degrees,
    _integer,
    moments,
    replace,
    symmetric_jacobi_matrix,
    symmetrize,
)
from .darboux import TransformedCoeffs, TransformPoint, _half_disc, _leading, christoffel, geronimus
from .errors import ConfigurationError, EigenSolverError, EvaluationRangeError, PrefixError
from .polyeval import _SCALE_HI, _SCALE_LO, _scaled_run, _unscaled, ratio_sequence

__all__ = [
    "ZeroCloud",
    "StripReport",
    "NevaiDiagnostics",
    "MIdentityReport",
    "DynamicsReport",
    "RatioAsymptoticReport",
    "zeros",
    "zero_sweep",
    "kernel_zero_cloud",
    "kernel_zero_sweep",
    "geronimus_zero_cloud",
    "geronimus_zero_sweep",
    "strip_check",
    "zero_dynamics",
    "cluster_distance",
    "cluster_sweep",
    "nevai_diagnostics",
    "ratio_limit_f",
    "verify_m_identities",
    "ratio_asymptotic_check",
]

_log = logging.getLogger("darbouxjac")

_RESIDUAL_TOL = 1e-8
_STRIP_SLACK = 1e-9
# Transformed zero sweeps on a real base (``_corner_roots``): degrees below
# this take eigvals, which is the faster of the two up to n = 30 or so.
_SECULAR_MIN_DEGREE = 32
# Aberth iterations before a degree falls back to eigvals.
_ABERTH_MAX_ITER = 50
# An Aberth root has converged once its step is at most this times the scale
# max|x_j| + |delta| of the secular equation.
_ABERTH_TOL = 1e-13
# A secular solve falls back when its root sum misses the trace by more than
# this, relative to sum|roots| + sum|b_k|.
_TRACE_RTOL = 1e-10


class ZeroCloud(Record):
    """Zeros of one degree-n polynomial plus strip metadata."""

    n: int
    zeros: np.ndarray
    max_im: float
    strip_bound: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.zeros, dtype=complex).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "zeros", arr)
        if len(arr) != self.n:
            raise ConfigurationError("zero count must equal the degree")


class StripReport(Record):
    ok: bool
    side: str
    bound: float
    violators: tuple[complex, ...]


class NevaiDiagnostics(Record):
    """Estimated Nevai-class data (lambda_n -> a, c_n -> c) and tail health.

    The ratio limit f(z), the larger-modulus root of w^2 - (z-c) w + a = 0
    (the fixed point of w = z - c - a/w), is ``ratio_limit_f(a_limit, c_limit, z)``.
    """

    a_limit: complex
    c_limit: complex
    tail_residuals: np.ndarray
    is_member: bool


class MIdentityReport(Record):
    kappa: complex
    order: int
    christoffel_residuals: np.ndarray
    geronimus_residuals: np.ndarray | None
    max_residual: float


class DynamicsReport(Record):
    kind: str
    kappa: complex
    n_list: tuple[int, ...]
    max_im: np.ndarray
    cluster_dist: np.ndarray | None = None
    log_cluster_dist: np.ndarray | None = None
    fit_slope: float | None = None
    fit_r2: float | None = None
    strictly_decreasing: bool | None = None
    diagnostics: NevaiDiagnostics | None = None


class RatioAsymptoticReport(Record):
    n_check: int
    z_list: tuple[complex, ...]
    f_values: tuple[complex, ...]
    errors: np.ndarray
    monotone_tail: tuple[bool, ...]


def _real_symmetric(J: SymmetricJacobi, size: int) -> bool:
    """True when the size x size truncation of J has real b and real a (a
    real prefix with positive lambda): a real symmetric matrix."""
    return not (J.b[:size].imag.any() or J.a[: size - 1].imag.any())


def _eigvals(J: SymmetricJacobi, size: int) -> np.ndarray:
    """Eigenvalues of the size x size truncation of J, unsorted, complex.

    A real symmetric truncation has the Gauss nodes as eigenvalues, taken by
    the symmetric solver eigvalsh.  Any other truncation goes to LAPACK eigvals.
    """
    M = symmetric_jacobi_matrix(J, size)
    if _real_symmetric(J, size):
        return np.linalg.eigvalsh(M.real).astype(complex)
    return np.linalg.eigvals(M)


def _eigenvalues(J: SymmetricJacobi, n: int) -> np.ndarray:
    """``_eigvals`` of the n x n truncation, a solver failure raised as
    EigenSolverError naming n."""
    try:
        return _eigvals(J, n)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigensolver failed to converge at degree {n}") from exc


@np.errstate(invalid="ignore")  # a NaN value goes on to fail the certificate
def _newton(m: RecurrenceCoeffs, z: np.ndarray, stop: np.ndarray, weights: bool = False):
    """One Newton step z - P_n(z)/P'_n(z) at every point, n = its stop degree,
    in one evaluator run; a real z stays real.  With ``weights``, also
    P_{n-1}(z)/P'_n(z) from the same run: at the Gauss nodes x_j of a real
    prefix, the residues q_j^2 of P_{n-1}/P_n = sum_j q_j^2/(t - x_j)
    (Christoffel-Darboux), which are positive and sum to 1."""
    prev, p, _, dp = _scaled_run(m, int(stop[-1]), z, 1.0, z - m.c[0], deriv=True, _stop=stop)
    if not np.iscomplexobj(z):
        prev, p, dp = prev.real, p.real, dp.real
    step = np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
    if weights:
        return z - step, np.divide(prev, dp, out=np.zeros_like(prev), where=dp != 0)
    return z - step


def zero_sweep(m: RecurrenceCoeffs, n_list, _starts=None) -> tuple[ZeroCloud, ...]:
    """The zero clouds of P_n for every n in n_list, in the order given.

    Each degree's zeros are the eigenvalues of the n x n truncation of the
    Jacobi matrix (``_eigvals``), polished by Newton steps; each step is one
    run of polyeval's evaluator over the zeros of many degrees, every zero
    read at its own degree.  The Gauss nodes of a real symmetric truncation
    (eigvalsh) are perfectly conditioned and eigvalsh is backward stable, so
    one step, in real arithmetic, takes them to the rounding floor of the
    evaluation (a second only re-rounds there).  The eigenvalues of any other
    truncation (eigvals: kernel and Geronimus transforms, conditioning
    unknown) take two.  The two routes are polished apart, so a zero's value
    depends on neither the other degrees of the sweep nor their route: a
    sweep gives the clouds that one call per degree gives.

    Each refined zero carries the residual certificate
    |P_n(zero)| <= 1e-8 E_n(zero), checked in one more run over every zero,
    E_n being the error envelope of the evaluation (the recurrence run on
    |z| + |c_k| and |lambda_k|): rounding errors of the forward evaluation,
    and the change in P_n when the zero and the coefficients move by a
    relative eps, are bounded by ~n eps E_n, so this is the strongest
    certificate the evaluation itself can support (a zero clustered at a
    spectral point of the prefix cannot beat this floor).  Degree 0 gives an
    empty cloud.

    ``_starts`` maps degrees to eigenvalues of their (not real symmetric)
    truncations found another way (``_corner_roots``), which take the place
    of eigvals and are polished like its output.
    """
    n_list = _degrees("P_n", n_list, m.n_max).tolist()
    degrees = sorted({n for n in n_list if n > 0})
    clouds = {0: ZeroCloud(n=0, zeros=np.empty(0, dtype=complex), max_im=0.0)}
    if degrees:
        J = symmetrize(m)
        starts = _starts or {}
        z = np.concatenate([starts[n] if n in starts else _eigenvalues(J, n) for n in degrees])
        stop = np.repeat(degrees, degrees)
        sym = np.repeat([_real_symmetric(J, n) for n in degrees], degrees)
        if sym.all():  # the certificate then runs in real arithmetic too
            z = _newton(m, z.real, stop)
        else:
            if sym.any():
                z[sym] = _newton(m, z[sym].real, stop[sym])
            rest = ~sym
            z[rest] = _newton(m, _newton(m, z[rest], stop[rest]), stop[rest])
        _, p, _, env = _scaled_run(m, degrees[-1], z, 1.0, z - m.c[0], envelope=True, _stop=stop)
        bad = np.flatnonzero(~(np.abs(p) <= _RESIDUAL_TOL * env))
        if len(bad):
            raise EigenSolverError(
                f"zero residual check failed at degree {stop[bad[0]]}: "
                f"|P_n| too large at {complex(z[bad[0]])}"
            )
        for n, zn in zip(degrees, np.split(z, np.cumsum(degrees)[:-1])):
            zn = zn[np.lexsort((zn.imag, zn.real))]
            clouds[n] = ZeroCloud(n=n, zeros=zn, max_im=float(np.max(zn.imag)))
    return tuple(clouds[n] for n in n_list)


def zeros(m: RecurrenceCoeffs, n: int, _starts=None) -> ZeroCloud:
    """The n zeros of P_n, certified: the one-degree case of ``zero_sweep``."""
    return zero_sweep(m, (n,), _starts)[0]


def _corner(tc: TransformedCoeffs, n: int):
    """(s, r) with P_{n+s} - r P_{n+s-1} over tc.base the degree-n polynomial
    of the transform tc: s = 1 and r = P_{n+1}(kappa)/P_n(kappa) for
    Christoffel, the polynomial being (z - kappa) P*_n(kappa, z); s = 0 and
    r = R_n(kappa)/R_{n-1}(kappa) for Geronimus.  r is tc.ratio_seq[n+s-1]."""
    s = int(tc.kinds[-1] == "christoffel")
    return s, tc.ratio_seq[n + s - 1]


def _with_strip(tc: TransformedCoeffs, cloud: ZeroCloud) -> ZeroCloud:
    """The cloud of the transform's degree-n polynomial with its strip
    half-width |1/Im(1/r)|, (s, r) of ``_corner`` (inf for a real r: a real
    kappa, no strip).

    For a real positive base measure, P_{k-1}/P_k(z) = sum_j w_j/(z - x_j)
    over the zeros x_j of P_k, with w_j > 0 summing to 1.  Every zero z other
    than kappa solves P_{k-1}(z)/P_k(z) = 1/r, k = n + s; taking imaginary
    parts, Im(1/r) = -Im z sum_j w_j/|z - x_j|^2 and |z - x_j| >= |Im z| give
    0 < |Im z| <= |1/Im(1/r)|, on the side of the axis opposite Im(1/r).
    """
    im = float((1.0 / _corner(tc, cloud.n)[1]).imag)
    return replace(cloud, strip_bound=abs(1.0 / im) if im else math.inf)


@np.errstate(all="ignore")  # a run that leaves the double range falls back to eigvals
def _aberth(x, q2, delta, z, known=None):
    """Roots of the secular equation f(t) = 1 + delta sum_j q2_j/(x_j - t) = 0
    by Ehrlich-Aberth iteration from the starts z, all roots at once.

    The roots are those of p(t) = f(t) prod_j (x_j - t), whose logarithmic
    derivative is f'/f - sum_j 1/(x_j - t), f' = delta sum_j q2_j/(x_j - t)^2;
    ``known``, a root of p already known, enters only the Aberth sum over the
    other roots (deflation).  A root stops moving once its step is at most
    _ABERTH_TOL (max|x_j| + |delta|).  Returns (roots, iterations, converged);
    a run that hits _ABERTH_MAX_ITER, or whose step leaves the double range,
    returns converged False.
    """
    z = np.array(z, dtype=complex)
    run = np.arange(len(z))
    tol = _ABERTH_TOL * (np.max(np.abs(x)) + abs(delta))
    for it in range(1, _ABERTH_MAX_ITER + 1):
        zr = z[run]
        d = 1.0 / (x - zr[:, None])
        logd = delta * ((d * d) @ q2) / (1.0 + delta * (d @ q2)) - d.sum(axis=1)
        if known is not None:
            logd -= 1.0 / (zr - known)
        g = zr[:, None] - z
        np.divide(1.0, g, out=g, where=g != 0)  # a root's own (or a coincident) term left out
        step = 1.0 / (logd - g.sum(axis=1))
        z[run] = zr - step
        if not np.isfinite(step).all():
            return z, it, False
        run = run[np.abs(step) > tol]
        if not len(run):
            return z, it, True
    return z, _ABERTH_MAX_ITER, False


def _corner_roots(tc: TransformedCoeffs, degrees):
    """Eigenvalues of the truncations J_n of the transform tc, n in degrees,
    as roots of its base's secular equation, where that route applies.

    The degree-n polynomial of tc is P_{n+s} - r P_{n+s-1} over the base m =
    tc.base, (s, r) of ``_corner``: the characteristic polynomial of the base
    truncation of size k = n + s with its last diagonal entry moved by r.  On
    a real symmetric base truncation with Gauss nodes x_j, its roots solve
    1 + r sum_j q_j^2/(x_j - t) = 0 (Golub, SIAM Review 15, 1973),
    q_j^2 = P_{k-1}(x_j)/P'_k(x_j).  The nodes are the eigvalsh ones after
    the plain sweep's real Newton step, the q_j^2 come from that same run, and
    ``_aberth`` starts each root at x_j + r q_j^2 (the divide-and-conquer
    start of Bini, Gemignani & Tisseur, SIAM J. Matrix Anal. Appl. 27, 2005).
    For Christoffel (s = 1) one root is kappa, not an eigenvalue of J_n: it
    is deflated, and the start nearest it is dropped.

    Returns ({n: roots}, {n: route}, {n: Aberth iterations}).  A degree takes
    eigvals instead below _SECULAR_MIN_DEGREE (the measured crossover), on a
    complex base, when its run does not converge within _ABERTH_MAX_ITER or
    leaves the double range, and when the root sum misses trace(J_n) by more
    than _TRACE_RTOL (sum|roots| + sum|b_k|), as two starts that converge to
    one root would; a real symmetric J_n takes eigvalsh.
    """
    m, J = tc.base, symmetrize(tc.coeffs)
    base = symmetrize(m)
    s = _corner(tc, 1)[0]
    known = tc.sites[-1].kappa if s else None
    roots, routes, iters, todo = {}, {}, {}, []
    for n in degrees:
        if _real_symmetric(J, n):
            routes[n] = "eigvalsh"
        elif n < _SECULAR_MIN_DEGREE:
            routes[n] = "eigvals: below crossover"
        elif not _real_symmetric(base, n + s):
            routes[n] = "eigvals: complex base"
        else:
            todo.append(n)
    if not todo:
        return roots, routes, iters
    sizes = [n + s for n in todo]
    x = np.concatenate([_eigenvalues(base, k).real for k in sizes])
    x, q2 = _newton(m, x, np.repeat(sizes, sizes), weights=True)
    split = np.cumsum(sizes)[:-1]
    for n, xn, qn in zip(todo, np.split(x, split), np.split(q2, split)):
        r = _corner(tc, n)[1]
        start = xn + r * qn
        if known is not None:
            start = np.delete(start, np.argmin(np.abs(start - known)))
        z, iters[n], done = _aberth(xn, qn, r, start, known)
        b = J.b[:n]
        if not done:
            routes[n] = "eigvals: " + ("iteration cap" if np.isfinite(z).all() else "double range")
        elif abs(z.sum() - b.sum()) > _TRACE_RTOL * (np.abs(z).sum() + np.abs(b).sum()):
            routes[n] = "eigvals: trace"
        else:
            routes[n], roots[n] = "secular", z
    return roots, routes, iters


def _secular_starts(tc: TransformedCoeffs, n_list) -> dict:
    """``_corner_roots`` for the degrees of n_list that tc.coeffs holds, as
    the ``_starts`` of ``zero_sweep``, with one DEBUG record on the
    ``darbouxjac`` logger: record attributes ``routes`` and
    ``aberth_iterations`` (by degree) and ``fallbacks`` (the degrees whose
    secular run fell back to eigvals)."""
    kind, kappa = tc.kinds[-1], tc.sites[-1].kappa
    degrees = sorted({n for n in n_list if n > 0})
    roots, routes, iters = _corner_roots(tc, degrees)
    fallbacks = len(iters) - len(roots)
    _log.debug("%s zeros at kappa=%s: %d of %d degrees secular, %d fell back to eigvals",
               kind, kappa, len(roots), len(degrees), fallbacks,
               extra={"routes": routes, "aberth_iterations": iters, "fallbacks": fallbacks})
    return roots


def kernel_zero_cloud(m: RecurrenceCoeffs, site: TransformPoint, n: int) -> ZeroCloud:
    """Zeros of the kernel polynomial P*_n(kappa, .) with the strip bound
    |1/Im(P_n(kappa)/P_{n+1}(kappa))| (derived in ``_with_strip``), by the
    route of ``kernel_zero_sweep`` (the transform of the whole prefix, whose
    leading terms are those of the sweep's)."""
    (n,) = _degrees("P*_n", [n], m.n_max, reads=2).tolist()
    tc = christoffel(m, site)
    return _with_strip(tc, zeros(tc.coeffs, n, _starts=_secular_starts(tc, (n,))))


def kernel_zero_sweep(m: RecurrenceCoeffs, site: TransformPoint, n_list) -> tuple[ZeroCloud, ...]:
    """``kernel_zero_cloud`` for every n in n_list, from one transform of the
    leading terms and one sweep."""
    n_list = _degrees("P*_n", n_list, m.n_max, reads=2).tolist()
    tc = christoffel(_leading(m, max(n_list, default=0) + 1), site)
    clouds = zero_sweep(tc.coeffs, n_list, _secular_starts(tc, n_list))
    return tuple(_with_strip(tc, cloud) for cloud in clouds)


def geronimus_zero_cloud(m: RecurrenceCoeffs, site: TransformPoint, n: int) -> ZeroCloud:
    """The one-degree case of ``geronimus_zero_sweep``: it reads the leading
    n + 3 terms, so the cloud does not depend on the tail of m, not even next
    to the Cauchy value, where ``geronimus`` picks its route from the tail."""
    return geronimus_zero_sweep(m, site, (n,))[0]


def geronimus_zero_sweep(
    m: RecurrenceCoeffs, site: TransformPoint, n_list
) -> tuple[ZeroCloud, ...]:
    """Zeros of P^{-*}_n(kappa, .), n >= 1, with the strip bound
    |1/Im(R_{n-1}(kappa)/R_n(kappa))| (derived in ``_with_strip``), for every
    n in n_list, from one transform of the leading terms and one sweep."""
    n_list = _degrees("P^{-*}_n", n_list, m.n_max, lo=1, reads=2).tolist()
    tc = geronimus(_leading(m, max(n_list, default=0) + 1), site)
    clouds = zero_sweep(tc.coeffs, n_list, _secular_starts(tc, n_list))
    return tuple(_with_strip(tc, cloud) for cloud in clouds)


def strip_check(cloud: ZeroCloud, bound: float, side: str = "upper") -> StripReport:
    """True iff every zero lies strictly inside the half-plane and within the
    strip bound (slack 1e-9); violators are listed otherwise."""
    if side not in ("upper", "lower"):
        raise ConfigurationError("side must be 'upper' or 'lower'")
    violators = []
    for z in cloud.zeros:
        im = z.imag if side == "upper" else -z.imag
        if not (0.0 < im <= bound + _STRIP_SLACK):
            violators.append(complex(z))
    return StripReport(ok=not violators, side=side, bound=float(bound), violators=tuple(violators))


def nevai_diagnostics(m: RecurrenceCoeffs) -> NevaiDiagnostics:
    """Estimate (a, c) from the prefix tail and check residual decay over its
    last 32 terms (half of a prefix shorter than 34).  A one-term prefix,
    which carries no lambda, raises PrefixError."""
    if m.n_max < 2:
        raise PrefixError(f"Nevai diagnostics need two or more terms (n_max={m.n_max})")
    window = 32 if m.n_max >= 34 else max(m.n_max // 2, 2)
    a = complex(m.lam[-1])
    c = complex(m.c[-1])
    lam_tail = m.lam[-window:]
    c_tail = m.c[-window:]
    res = np.abs(lam_tail - a) + np.abs(c_tail[: len(lam_tail)] - c)
    slack = 1e-13 * (1.0 + abs(a) + abs(c))
    member = bool(np.all(np.diff(res) <= slack))
    return NevaiDiagnostics(a_limit=a, c_limit=c, tail_residuals=res, is_member=member)


def ratio_limit_f(a: complex, c: complex, z: complex) -> complex:
    """Ratio-asymptotic limit: the larger-modulus root of w^2-(z-c)w+a = 0.

    Satisfies w = z - c - a/w and w/z -> 1 at infinity (monic normalization).
    w = -t for the roots t of t^2 - (c-z) t + a from darboux's scaled ``_half_disc``.
    """
    half, disc = _half_disc(complex(c), complex(a), complex(z))
    if disc == 0:
        # Branch point: the two roots coincide, so the value is unambiguous.
        return -half
    w1, w2 = disc - half, -half - disc
    if abs(abs(w1) - abs(w2)) <= 1e-12 * (abs(w1) + abs(w2)):
        raise ConfigurationError(
            f"z={z} lies on the boundary arc |w+| = |w-|: no dominant root"
        )
    return w1 if abs(w1) > abs(w2) else w2


def verify_m_identities(m: RecurrenceCoeffs, site: TransformPoint, order: int) -> MIdentityReport:
    """Moment-level residuals of the transform m-function identities.

    Christoffel:  s_{j+1} - kappa s_j = s*_j  (the transformed moments),
    which is the coefficient form of
    m(J_C;z) = [(z-kappa) m(J;z) + 1]/(b_0-kappa).
    Geronimus:  s^G_{j+1} - kappa s^G_j = s_j, the coefficient form of
    m(J_G;z) = m(J;z)/(s0star (z-kappa)) - 1/(z-kappa).
    """
    kappa, order = site.kappa, _integer("order", order)
    if order < 0:
        raise ConfigurationError(f"order={order} must be nonnegative")
    # the moments read the leading order + 2 terms of m and of each transform,
    # whose leading entries are functions of the leading terms of m only
    m = _leading(m, order + 2)
    s = moments(m, order + 1)
    tc = christoffel(m, site)
    s_c = moments(tc.coeffs, order)
    lhs = s[1 : order + 2] - kappa * s[: order + 1]
    scale = np.maximum.reduce([np.abs(lhs), np.abs(s_c), np.ones(order + 1)])
    res_c = np.abs(lhs - s_c) / scale
    res_g = None
    if site.s0star is not None:
        tg = geronimus(m, site)
        s_g = moments(tg.coeffs, order + 1)
        lhs_g = s_g[1 : order + 2] - kappa * s_g[: order + 1]
        scale_g = np.maximum.reduce(
            [np.abs(lhs_g), np.abs(s[: order + 1]), np.ones(order + 1)]
        )
        res_g = np.abs(lhs_g - s[: order + 1]) / scale_g
    max_res = float(np.max(res_c if res_g is None else np.concatenate([res_c, res_g])))
    return MIdentityReport(
        kappa=kappa,
        order=order,
        christoffel_residuals=res_c,
        geronimus_residuals=res_g,
        max_residual=max_res,
    )


def cluster_sweep(
    m: RecurrenceCoeffs, site: TransformPoint, n_list
) -> tuple[tuple[complex, float, float], ...]:
    """(xi_n, |xi_n - kappa|, ln|xi_n - kappa|) of the Geronimus transform per n in n_list.

    xi_n is the zero of P^{-*}_n(kappa, .) nearest kappa, found by Newton
    iteration from kappa in h = z - kappa, in double.  With rho[k] = P_{k+1}/P_k
    and w[k] = R_{k+1}/R_k at kappa (the ``ratio_seq`` of ``geronimus``),
    P^{-*}_n(z)/P_{n-1}(z) = Delta[n-1] + d[n-1], where d = rho - w and
    Delta = rho(z) - rho obey d[0] = -s0/s0star, Delta[0] = h and
    d[k] = lam[k-1] d[k-1] / (rho[k-1] w[k-1]),
    Delta[k] = h + lam[k-1] Delta[k-1] / (rho[k-1] (rho[k-1] + Delta[k-1])).
    d keeps its relative accuracy however small; below |d| = 1e-150 the first-order
    h = -d[n-1]/rho'_{n-1}(kappa) is exact, and under the double range dist is 0.0.
    An iteration that has not converged after 80 steps, or that lands on a pole
    of the ratios, raises EigenSolverError naming n (kappa on a symmetry axis
    of the zeros can hold Newton on it); a single step of d that leaves the
    double range (|kappa| near 1e300) raises EvaluationRangeError.  Every degree
    is checked first; then one ``geronimus`` of the leading max(n_list) + 3
    terms (``_leading``, as in ``geronimus_zero_sweep``) and one ratio run of
    max(n_list) terms serve all of them.
    """
    if site.s0star is None:
        raise ConfigurationError("cluster_sweep needs a Geronimus site with s0star")
    n_list = _degrees("cluster distance", n_list, m.n_max, lo=1, reads=2).tolist()
    if not n_list:
        return ()
    kappa, top = site.kappa, max(n_list)
    w = geronimus(_leading(m, top + 1), site).ratio_seq[: top - 1].tolist()
    rho = ratio_sequence(m, kappa, "P", n_terms=top).values.tolist()
    lam = m.lam[: top - 1].tolist()
    return tuple(_cluster_point(kappa, -m.s0 / site.s0star, rho, w, lam, n) for n in n_list)


def _cluster_point(kappa, d, rho, w, lam, n: int) -> tuple[complex, float, float]:
    """One degree of ``cluster_sweep``, from d[0] and the runs' first n - 1 terms."""
    log_d = 0.0
    for k in range(1, n):
        d = lam[k - 1] * d / (rho[k - 1] * w[k - 1])
        if not _SCALE_LO <= abs(d) <= _SCALE_HI:
            if not 0 < abs(d) < math.inf:  # one step left the double range
                raise EvaluationRangeError(k + 1)
            log_d += math.log(abs(d))
            d /= abs(d)

    def shifted(h):
        """(Delta[n-1], rho'_{n-1}(z), sum over k < n-1 of rho'_k(z)/rho_k(z))."""
        delta, deriv, total = h, 1.0, 0.0
        for k in range(1, n):
            r = rho[k - 1] + delta
            total += deriv / r
            delta = h + lam[k - 1] * delta / (rho[k - 1] * r)
            deriv = 1 + lam[k - 1] * deriv / (r * r)
        return delta, deriv, total

    log_abs = log_d + math.log(abs(d))
    if log_abs < math.log(_SCALE_LO):
        log_h = log_abs - math.log(abs(shifted(0.0)[1]))
        return kappa, math.exp(log_h), log_h
    d = _unscaled(d, log_d, n)
    h, last = 0j, math.inf
    for _ in range(80):
        try:
            delta, deriv, total = shifted(h)
            if delta + d == 0:
                break
            step = 1 / (total + deriv / (delta + d))
        except ZeroDivisionError:  # an iterate on a pole of some rho_k(z)
            raise EigenSolverError(
                f"cluster-distance Newton iteration met a pole (n={n})"
            ) from None
        # past sqrt(eps), a step that does not shrink is rounding noise
        if abs(step) >= last and last <= 1e-8 * abs(h):
            break
        h -= step
        last = abs(step)
        if last <= 1e-14 * abs(h):
            break
    else:
        raise EigenSolverError(f"cluster-distance Newton iteration did not converge (n={n})")
    dist = abs(h)
    return kappa + h, dist, math.log(dist) if dist > 0 else -math.inf


def cluster_distance(m: RecurrenceCoeffs, site: TransformPoint, n: int) -> tuple:
    """The one-degree case of ``cluster_sweep``: (xi_n, dist, log_dist)."""
    return cluster_sweep(m, site, (n,))[0]


def zero_dynamics(
    m: RecurrenceCoeffs,
    site: TransformPoint,
    kind: str,
    n_list,
) -> DynamicsReport:
    """Per-degree zero behavior of a transformed family.

    For Christoffel: max imaginary parts (the collapse toward the real line).
    For Geronimus: additionally the cluster distances |xi_n - kappa|, their
    logs, and a linear fit of ln|xi_n - kappa| against n (two or more distinct n).
    """
    if kind not in ("christoffel", "geronimus"):
        raise ConfigurationError("kind must be 'christoffel' or 'geronimus'")
    diag = nevai_diagnostics(m)
    if not diag.is_member:
        raise ConfigurationError(
            "zero_dynamics requires a base prefix diagnosed in a Nevai class"
        )
    what, lo = ("P*_n", 0) if kind == "christoffel" else ("P^{-*}_n", 1)
    n_list = tuple(_degrees(what, n_list, m.n_max, lo, reads=2).tolist())
    if kind == "christoffel":
        clouds = kernel_zero_sweep(m, site, n_list)
        max_im = np.array([cloud.max_im for cloud in clouds])
        return DynamicsReport(
            kind=kind, kappa=site.kappa, n_list=n_list, max_im=max_im, diagnostics=diag
        )
    if len(set(n_list)) < 2:
        raise ConfigurationError("the cluster-distance fit needs two or more distinct degrees")
    _, dist, log_dist = map(np.array, zip(*cluster_sweep(m, site, n_list)))
    max_im = np.empty(len(n_list))
    for i, cloud in enumerate(geronimus_zero_sweep(m, site, n_list)):
        rest = np.delete(cloud.zeros, np.argmin(np.abs(cloud.zeros - site.kappa)))
        max_im[i] = float(np.max(rest.imag)) if len(rest) else 0.0
    slope, intercept = np.polyfit(np.asarray(n_list, dtype=float), log_dist, 1)
    pred = slope * np.asarray(n_list, dtype=float) + intercept
    ss_res = float(np.sum((log_dist - pred) ** 2))
    ss_tot = float(np.sum((log_dist - np.mean(log_dist)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DynamicsReport(
        kind=kind,
        kappa=site.kappa,
        n_list=n_list,
        max_im=max_im,
        cluster_dist=dist,
        log_cluster_dist=log_dist,
        fit_slope=float(slope),
        fit_r2=float(r2),
        strictly_decreasing=bool(np.all(np.diff(dist) < 0)),
        diagnostics=diag,
    )


def ratio_asymptotic_check(
    coeffs: RecurrenceCoeffs, z_list, n_check: int
) -> RatioAsymptoticReport:
    """Errors |P_{n}/P_{n-1}(z) - f(z)| at n = n_check with a monotone-tail flag.

    The limit data (a, c) is diagnosed from the prefix tail, not assumed.  The
    flag compares the worst error over the last k terms with that over the k
    terms from w back, for w = max(min(30, n_check // 2), 1) and
    k = max(w // 3, 1).  An n_check below 1 raises PrefixError.
    """
    n_check = _integer("n_check", n_check)
    if n_check < 1:
        raise PrefixError(f"ratio asymptotics need n_check >= 1 (n={n_check})")
    diag = nevai_diagnostics(coeffs)
    if not diag.is_member:
        raise ConfigurationError("ratio asymptotics need a Nevai-class prefix")
    z_list = tuple(complex(z) for z in z_list)
    errors = np.empty(len(z_list))
    f_values = []
    monotone = []
    for i, z in enumerate(z_list):
        fz = ratio_limit_f(diag.a_limit, diag.c_limit, z)
        f_values.append(fz)
        rs = ratio_sequence(coeffs, z, "P", n_terms=n_check)
        err = np.abs(rs.values - fz)
        errors[i] = err[-1]
        w = max(min(30, n_check // 2), 1)
        k = max(w // 3, 1)
        head = float(np.max(err[n_check - w : n_check - w + k]))
        tail = float(np.max(err[-k:]))
        monotone.append(tail <= head * 1.01 + 1e-15)
    return RatioAsymptoticReport(
        n_check=n_check,
        z_list=z_list,
        f_values=tuple(f_values),
        errors=errors,
        monotone_tail=tuple(monotone),
    )
