"""R_I / R_II recurrence coefficients, varying-measure polynomials, and
orthogonal rational functions.

The R_I relation couples a quasi-orthogonal polynomial of order 1 (in
particular a Geronimus transform) with the base OPS and a kernel polynomial:

    T_{n+1}(z) - (z - alpha_n) P_n(z) + beta_n (z - kappa) P*_{n-1}(kappa, z) = 0.

The R_II relation does the same one level up, with a quasi-orthogonal
polynomial of order 2 (a conjugate-pair iterated Geronimus transform) and a
two-point kernel polynomial.  Iterating conjugate-pair Geronimus steps at
kappa_1, kappa_2, ... produces polynomials orthogonal to varying measures
dmu / prod |t - kappa_j|^2, whose diagonal satisfies an R_II recurrence and
whose quotients by prod (t - kappa_j) are orthogonal rational functions.

Each relation's coefficients are one formula on arrays over a degree list
(any order, repeats allowed): ``coeffs`` returns them and ``residuals`` checks
them, in one run of polyeval's evaluator over the sample points (plus one for
the R_II kernel), tapped at each degree.  ``r1_general`` and ``r2_coeffs`` are
the one-degree case, verified at sample points.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .core import Record, RecurrenceCoeffs, _degrees, _integer
from .darboux import (GeronimusChain, TransformPoint, _cauchy_step, _cauchy_weight, _check_steps,
                      _cross_check, _geronimus_step, _tails, christoffel, geronimus)
from .errors import (ConfigurationError, DegeneracyError, PoleError, PrefixError,
                     ResidualCheckError)
from .polyeval import _scaled_run, eval_P, ratio_sequence

__all__ = [
    "VaryingMeasureResult",
    "sample_points",
    "r1_general",
    "R1System",
    "r2_coeffs",
    "R2System",
    "leading_r2_system",
    "r2_prefix_length",
    "varying_measure_polys",
    "rational_eval",
]

_CHECK_TOL = 1e-8


def sample_points(count: int) -> np.ndarray:
    """Reproducible sample points in the annulus 1.5 <= |z| <= 3, |Im z| >= 0.5: the
    accepted (radius, angle) pairs of one seeded stream, drawn 2 count at a time."""
    count = _integer("count", count)
    rng, out = np.random.default_rng(0x5EED), np.array([])
    while len(out) < count:
        radius, angle = rng.uniform((1.5, 0.0), (3.0, 2.0 * np.pi), size=(2 * count, 2)).T
        z = radius * np.exp(1j * angle)
        out = np.concatenate((out, z[np.abs(z.imag) >= 0.5]))
    return out[:count]


def _relative(z, total, *terms):
    """|total| / max |term| at each point (0 where every term vanishes); the
    last axis runs over the sample points, dropped when z is a scalar.

    Callers compute the terms on arrays even for one point, so a point gets
    the same rounding alone as in a batch.
    """
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    res = np.divide(np.abs(total), scale, out=np.zeros(scale.shape), where=scale > 0)
    return res if np.ndim(z) else res[..., 0]


def _per_degree(ns: np.ndarray, **data) -> None:
    """ConfigurationError for order-2 data that is neither a scalar (for every
    degree) nor one entry per degree of ns."""
    for name, x in data.items():
        if np.ndim(x) and np.shape(x) != ns.shape:
            raise ConfigurationError(
                f"{name} has shape {np.shape(x)} for a degree list of length {len(ns)}")


def _verified(what: str, res: np.ndarray, n: int, zs: np.ndarray) -> None:
    """ResidualCheckError at the first sample point whose residual passes _CHECK_TOL."""
    bad = np.flatnonzero(res > _CHECK_TOL)
    if len(bad):
        k = bad[0]
        raise ResidualCheckError(f"{what} identity residual {res[k]:.2e} at n={n}, z={zs[k]}")


def _degree_runs(m: RecurrenceCoeffs, ns: np.ndarray, zs: np.ndarray):
    """The points, P_{n-1}, P_n, log scale and P_{n+1} (one more step at the same
    scale; None when a degree reaches the end of the prefix) as (len(ns), len(zs))
    arrays, rows in the order of ns: one _scaled_run over zs to the largest degree,
    tapped at each degree of ns.  The points come as a full array, so a product
    with one point takes the (FMA) numpy loop of a 1-d run, not a broadcast one."""
    z = np.tile(zs, (len(ns), 1))
    if not z.size:
        return [z] * 5
    taps, rows = np.unique(ns, return_inverse=True)
    out = _scaled_run(m, int(taps[-1]), zs, 1.0, zs - m.c[0], _taps=taps)
    p_nm1, p_n, scale = (x[rows] for x in out)
    nxt = None if taps[-1] == m.n_max else (z - m.c[ns, None]) * p_n - m.lam[ns - 1, None] * p_nm1
    return z, p_nm1, p_n, scale, nxt


def _columns(*arrays):
    return [np.asarray(x, dtype=complex).reshape(-1)[:, None] for x in arrays]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a * b rounded as the scalar product is: numpy's array loop fuses it (FMA)
    out = (a.real * b.real - a.imag * b.imag).astype(complex)
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _ri_coeffs(m: RecurrenceCoeffs, n, rho_n, tilde_A):
    """(alpha_n, beta_n) of the R_I relation for T_{n+1} = P_{n+1} + tilde_A P_n,
    with rho_n = P_n(k1)/P_{n-1}(k1), at a degree n or over an array of them:

    beta_n = -lambda_{n+1} P_{n-1}(k1)/P_n(k1),
    alpha_n = c_{n+1} - tilde_A + lambda_{n+1} P_{n-1}(k1)/P_n(k1).

    For the Geronimus transform at k2, -tilde_A = R_{n+1}(k2)/R_n(k2).  (+, -
    and / round alike on arrays and scalars.)
    """
    ratio = m.lam[n - 1] / rho_n
    return m.c[n] - tilde_A + ratio, -ratio


@np.errstate(over="ignore", invalid="ignore")  # past the double range: a NaN residual
def _ri_residuals(m: RecurrenceCoeffs, ns: np.ndarray, z, tilde_A, alpha, beta, rho_n):
    """Relative residuals of T_{n+1} - (z - alpha_n) P_n + beta_n (z - kappa1) P*_{n-1}
    for each degree in ns (rows) at each z, with T_{n+1} = P_{n+1} + tilde_A P_n
    and rho_n = P_n/P_{n-1} at kappa1; the coefficients are scalars or columns.

    (z - kappa1) P*_{n-1}(kappa1, z) = P_n(z) - rho_n P_{n-1}(z), so the
    kernel term needs no division by z - kappa1.
    """
    zs, p_nm1, p_n, _, p_np1 = _degree_runs(m, ns, np.atleast_1d(np.asarray(z, dtype=complex)))
    t1 = p_np1 + tilde_A * p_n
    t2 = (zs - alpha) * p_n
    t3 = beta * (p_n - rho_n * p_nm1)
    return _relative(z, t1 - t2 + t3, t1, t2, t3)


class R1System:
    """The R_I relation of the Geronimus transform at k2 and the kernel family at
    kappa1 (``_coeff_arrays`` is its formula): m, kappa1, k2 with its s0star and
    the step's R-ratios, at the Cauchy value off the backward run alone, so
    nothing on the check path builds the transform.  The P-ratios rho[n-1] =
    P_n/P_{n-1} at kappa1 are a forward run per call, to its largest degree."""

    def __init__(self, m: RecurrenceCoeffs, k1: TransformPoint, k2: TransformPoint):
        self.m = m
        self.kappa1 = complex(k1.kappa)
        # s0star None: the exact Cauchy value, stepped backward in double (its
        # double rounding, eta ~ 1e-16, would need a double-double step)
        self.k2, *_, w = (_cauchy_step(m, k2.kappa, coeffs=False) if k2.s0star is None
                          else (k2, geronimus(m, k2).ratio_seq))
        self._tilde_A = -np.asarray(w, dtype=complex)  # -R_{n+1}(k2)/R_n(k2) at index n

    def _coeff_arrays(self, ns: np.ndarray):
        """tilde_A, alpha, beta and rho_n at the checked degrees ns, in their order."""
        rho = ratio_sequence(self.m, self.kappa1, "P", n_terms=ns.max()).values if len(ns) else ns
        tilde_A, rho_n = self._tilde_A[ns], rho[ns - 1]
        return (tilde_A, *_ri_coeffs(self.m, ns, rho_n, tilde_A), rho_n)

    def coeffs(self, n_list):
        """(alpha, beta): arrays with one entry per degree of n_list (any order,
        repeats allowed)."""
        return self._coeff_arrays(_degrees("R_I", n_list, self.m.n_max, lo=1, reads=3))[1:3]

    def residuals(self, n_list, z):
        """Relative residuals (scale = max term magnitude) for each degree of
        n_list (rows; any order, repeats allowed) at each z (columns; a scalar z
        gives one per degree), in one evaluator run."""
        ns = _degrees("R_I", n_list, self.m.n_max, lo=1, reads=3)
        return _ri_residuals(self.m, ns, z, *_columns(*self._coeff_arrays(ns)))


def r1_general(m: RecurrenceCoeffs, k1: TransformPoint, tilde_A: complex, n: int):
    """Unique (alpha_n, beta_n) for an arbitrary order-1 quasi-orthogonal
    T_{n+1} = P_{n+1} + tilde_A P_n; verified at n+2 sample points."""
    (n,) = _degrees("R_I", [n], m.n_max, lo=1, reads=1).tolist()
    rho_n = ratio_sequence(m, k1.kappa, "P", n_terms=n).values[n - 1]
    alpha, beta = _ri_coeffs(m, n, rho_n, tilde_A)
    zs = sample_points(n + 2)
    res = _ri_residuals(m, np.array([n]), zs, tilde_A, alpha, beta, rho_n)[0]
    _verified("R_I", res, n, zs)
    return alpha, beta


def r2_prefix_length(n: int) -> int:
    """Prefix length that degree n of R_II reads: n + 4, for the pair's A'_{n+1}."""
    return n + 4


class GeronimusPairQuasi:
    """Conjugate-pair iterated Geronimus transform of a base prefix, exposed
    as order-2 quasi-orthogonal data over the base:

    P^{-**}_{n+1}(kappa, conj kappa, z)
        = P_{n+1}(z) + (A_{n+1} + A'_{n+1}) P_n(z) + A'_{n+1} A_n P_{n-1}(z),

    where A_n = -R_n/R_{n-1} (A_0 = 0) is the A-sequence of the first step (at
    kappa, Cauchy s0star) and A' that of the second (at conj kappa, Cauchy s0starstar).
    The arrays ``tilde_C`` and ``tilde_D``, built once, hold those two
    coefficients; ``quasi`` reads them over a degree list.

    The second step reads A', s0starstar and its breakdown test off the backward
    run alone; its coefficients, ``coeffs``, are built on first read.
    """

    def __init__(self, m: RecurrenceCoeffs, kappa: complex):
        kappa = complex(kappa)
        if kappa.imag == 0:
            raise ConfigurationError("conjugate-pair Geronimus needs a nonreal kappa")
        _check_steps("GeronimusPairQuasi", m.n_max, steps=2)
        chain = GeronimusChain(m)
        chain.apply(kappa)
        c, lam, site = chain._c, chain._lam, kappa.conjugate()
        ts = _tails(c, lam, site)
        self.kappa, self._second = kappa, (c, lam, site, ts)
        self.s0star = chain.steps[0]["s0star"]
        _, _, self.s0starstar, w = _geronimus_step(c, lam, self.s0star, site, ts=ts, coeffs=False)
        self.A, self.Ap = (np.concatenate(([0j], -np.asarray(x)))
                           for x in (chain.steps[0]["ratio_seq"], w))
        A, Ap = self.A[:len(self.Ap)], self.Ap  # A' is 2 shorter than A
        self.tilde_C, self.tilde_D = A[1:] + Ap[1:], _mul(Ap[1:], A[:-1])

    @cached_property
    def coeffs(self) -> RecurrenceCoeffs:
        c, lam, site, ts = self._second
        c_new, lam_new, s0star, _ = _geronimus_step(c, lam, self.s0star, site, ts=ts)
        return RecurrenceCoeffs(c=c_new, lam=lam_new, s0=s0star)

    def quasi(self, n_list):
        """(tilde_C, tilde_D): arrays with one entry per degree of n_list (any
        order, repeats allowed), each degree checked in list order."""
        # A' is 2 shorter than the base
        ns = _degrees("conjugate pair", n_list, len(self.Ap) + 2, reads=r2_prefix_length(0))
        return self.tilde_C[ns], self.tilde_D[ns]


class R2System:
    """Precomputed data for the R_II relation at a conjugate kernel pair
    (kappa1, conj kappa1); ``coeffs`` is its formula."""

    def __init__(self, m: RecurrenceCoeffs, kappa1: complex):
        kappa1 = complex(kappa1)
        _check_steps("R2System", m.n_max, steps=2)
        self.m = m
        self.kappa1 = kappa1
        self.kappa1_bar = kappa1.conjugate()
        # the two steps of christoffel_two; their ratio runs are rho and kernel_rho
        self.tc1 = christoffel(m, TransformPoint(kappa1))
        self.tc2 = christoffel(self.tc1.coeffs, TransformPoint(self.kappa1_bar))
        self.rho, self.kernel_rho = self.tc1.ratio_seq, self.tc2.ratio_seq

    def coeffs(self, n_list, tilde_C, tilde_D):
        """(rho, gamma, upsilon): arrays with one entry per degree of n_list (any
        order, repeats allowed), for order-2 data tilde_C, tilde_D (one entry per
        degree, or a scalar for all); DegeneracyError at the first degree whose
        denominator vanishes."""
        ns = _degrees("R_II", n_list, self.m.n_max, lo=1, reads=3)
        _per_degree(ns, tilde_C=tilde_C, tilde_D=tilde_D)
        lam_next, kernel_rho = self.m.lam[ns - 1], self.kernel_rho[ns - 1]
        den = _mul(kernel_rho, self.rho[ns - 1]) - lam_next
        bad = np.flatnonzero(np.abs(den) <= 1e-12 * np.abs(lam_next))
        if len(bad):
            n = ns[bad[0]]
            raise DegeneracyError(f"R_II denominator within tolerance of lambda_{n + 1} at n={n}")
        upsilon = (lam_next - tilde_D) / den
        rho_n = 1 + upsilon
        gamma = _mul(rho_n, self.m.c[ns]) + _mul(upsilon, self.rho[ns] + kernel_rho) - tilde_C
        return rho_n, gamma, upsilon

    def residuals(self, n_list, z, tilde_C, tilde_D):
        """Relative residuals (scale = max term magnitude) for each degree of
        n_list (rows) with its ``coeffs`` at each z (columns; a scalar z gives one
        per degree): one evaluator run for P_n over the degrees, one for the
        kernel P**_{n-1}."""
        ns = _degrees("R_II", n_list, self.m.n_max, lo=1, reads=3)
        coeffs = self.coeffs(ns, tilde_C, tilde_D)
        tilde_C, tilde_D, rho_n, gamma, upsilon = _columns(tilde_C, tilde_D, *coeffs)
        points = np.atleast_1d(np.asarray(z, dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):  # past the double range: a NaN residual
            zs, p_nm1, p_n, log_scale, p_np1 = _degree_runs(self.m, ns, points)
            kernel, kernel_scale = np.ones_like(p_n), np.zeros(p_n.shape)  # degree 0 at n = 1
            if (up := ns > 1).any():
                kernel_runs = _degree_runs(self.tc2.coeffs, ns[up] - 1, points)
                kernel[up], kernel_scale[up] = kernel_runs[2:4]
            t1 = p_np1 + tilde_C * p_n + tilde_D * p_nm1
            t2 = (rho_n * zs - gamma) * p_n
            t3 = upsilon * (zs - self.kappa1) * (zs - self.kappa1_bar) * kernel
            t3 = t3 * np.exp(kernel_scale - log_scale)
            return _relative(z, t1 - t2 + t3, t1, t2, t3)


def leading_r2_system(m: RecurrenceCoeffs, kappa1: complex, n: int) -> R2System:
    """R2System(m, kappa1) for degrees up to n on the leading
    max(r2_prefix_length(n), 6) terms: it runs forward only, so there they give
    the full prefix's values, bit for bit."""
    return R2System(m.truncated(min(m.n_max, max(r2_prefix_length(n), 6))), kappa1)


def r2_coeffs(m: RecurrenceCoeffs, k1: TransformPoint, tilde_C: complex, tilde_D: complex,
              n: int):
    """(rho_n, gamma_n, upsilon_n) of the R_II relation at k1 and k2 = conj(k1)
    for S_{n+1} = P_{n+1} + tilde_C P_n + tilde_D P_{n-1}:

    S_{n+1}(z) - (rho_n z - gamma_n) P_n(z)
        + upsilon_n (z - k1)(z - k2) P**_{n-1}(k1, k2, z) = 0,

    with upsilon_n = (lambda_{n+1} - tilde_D) / (r*_n r_n - lambda_{n+1}) and
    rho_n = 1 + upsilon_n; verified at n+3 sample points.
    """
    (n,) = _degrees("R_II", [n], m.n_max, lo=1, reads=3).tolist()
    sys = leading_r2_system(m, k1.kappa, n)
    (rho_n,), (gamma,), (upsilon,) = sys.coeffs([n], tilde_C, tilde_D)
    zs = sample_points(n + 3)
    _verified("R_II", sys.residuals([n], zs, tilde_C, tilde_D)[0], n, zs)
    return rho_n, gamma, upsilon


class VaryingMeasureResult(Record):
    """Output of iterated conjugate-pair Geronimus steps.

    ``step_prefixes[k]`` is the OPS prefix of dmu / prod_{j<=k} |t-kappa_j|^2
    (k = 0 is the base), ``coeffs`` the final prefix; row j-1 of the complex
    array ``rii`` holds the R_II coefficients (rho, gamma, upsilon) linking
    P_{j+1}, P_j, P_{j-1} of consecutive measures, with the verified relative
    residual alongside.
    """

    kappas: tuple[complex, ...]
    coeffs: RecurrenceCoeffs
    step_prefixes: tuple[RecurrenceCoeffs, ...]
    rii: np.ndarray
    rii_residuals: tuple[float, ...]


def varying_measure_polys(m: RecurrenceCoeffs, kappas, n: int) -> VaryingMeasureResult:
    """Iterated conjugate-pair Geronimus transforms at kappa_1, kappa_2, ...

    Step k maps the current measure nu to nu/|t-kappa_k|^2 via two Geronimus
    applications (at kappa_k then conj kappa_k) whose s0 values are the
    Cauchy transforms of the current measures.  Returns the per-step
    prefixes, the final coefficients, and the diagonal R_II data.

    Each pair takes 4 terms and needs 6, and the last R_II entry evaluates
    P_K of the final measure, so K sites need max(4K + 2, 5K) terms; a shorter
    prefix raises PrefixError before any step.
    """
    n, kappas = _integer("n", n), [complex(k) for k in kappas]
    for kap in kappas:
        if kap.imag == 0:
            raise ConfigurationError(f"kappa={kap} must be nonreal")
    count = len(kappas)
    need, final = max(4 * count + 2, 5 * count), m.n_max - 4 * count
    if count and m.n_max < need:
        raise PrefixError(
            f"a chain of {count} conjugate Geronimus pairs needs a prefix of length >= {need}"
        )
    if not 0 <= n <= final:
        raise ConfigurationError(f"degree n={n} outside 0 to the final prefix length {final}")
    prefixes, pairs, applied = [m], [], []
    for kap in kappas:
        pair = GeronimusPairQuasi(prefixes[-1], kap)
        for site, s0star in ((kap, pair.s0star), (complex(np.conj(kap)), pair.s0starstar)):
            applied.append(site)
            _cross_check(_cauchy_weight(m, site), applied, s0star, stop=4096, tol=1e-9)
        pairs.append(pair)
        prefixes.append(pair.coeffs)
    rii, residuals, zs = np.zeros((max(count - 1, 0), 3), dtype=complex), [], sample_points(8)
    for j in range(1, count):
        sigma, kap = prefixes[j], kappas[j - 1]
        # pairs[j] is the Geronimus pair at kappa_{j+1} applied to sigma
        rii[j - 1] = np.ravel(leading_r2_system(sigma, kap, j).coeffs([j], *pairs[j].quasi([j])))
        rho_n, gamma, upsilon = rii[j - 1]
        t1 = eval_P(prefixes[j + 1], j + 1, zs)
        t2 = (rho_n * zs - gamma) * eval_P(sigma, j, zs)
        t3 = upsilon * (zs - kap) * (zs - np.conj(kap)) * eval_P(prefixes[j - 1], j - 1, zs)
        residuals.append(float(np.max(_relative(zs, t1 - t2 + t3, t1, t2, t3))))
    rii.setflags(write=False)
    return VaryingMeasureResult(
        kappas=tuple(kappas),
        coeffs=prefixes[-1],
        step_prefixes=tuple(prefixes),
        rii=rii,
        rii_residuals=tuple(residuals),
    )


def rational_eval(polys: VaryingMeasureResult, kappas, n: int, t: complex) -> complex:
    """Orthogonal rational function R_n(t) = P_n(t) / prod_{j<=n} (t - kappa_j)."""
    kappas = [complex(k) for k in kappas]
    if tuple(kappas) != polys.kappas[: len(kappas)]:
        raise ConfigurationError("kappas do not match the varying-measure result")
    n = _integer("n", n)
    if n > len(kappas):
        raise ConfigurationError(f"degree {n} needs at least {n} transform points")
    t = complex(t)
    if n == 0:
        return 1.0 + 0.0j
    denom = 1.0 + 0.0j
    for kap in kappas[:n]:
        if abs(t - kap) < 1e-12:
            raise PoleError(f"t={t} is a pole of the rational function")
        denom *= t - kap
    return eval_P(polys.step_prefixes[n], n, t) / denom
