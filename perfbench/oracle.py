"""Extended-precision reference values that the benchmark checks outputs against.

The oracle owns its own formulas and never imports ``darbouxjac.darboux``,
``darbouxjac.spectral`` or ``darbouxjac.rseq``, so rewriting those modules
cannot move the yardstick.  Inputs are IEEE doubles (converted exactly);
every transform is evaluated at two working precisions and escalated until
both agree, so a reference value is never taken on trust from a budget.

Formulas (monic recurrence z P_n = P_{n+1} + c_{n+1} P_n + lambda_{n+1} P_{n-1}):

* Christoffel at kappa is one LR step: J - kappa = L U with unit-lower L,
  then J_C = U L + kappa, i.e. u_1 = c_1 - kappa, l_k = lambda_{k+1}/u_k,
  u_{k+1} = c_{k+1} - kappa - l_k, c*_k = kappa + u_k + l_k,
  lambda*_{k+1} = u_{k+1} l_k, s0* = (c_1 - kappa) s_0.
* Geronimus at (kappa, s0star) is the reverse step J - kappa = U L with
  a_1 = s_0/s0star, b_k = c_k - kappa - a_k, a_{k+1} = lambda_{k+1}/b_k,
  then J_G = L U + kappa: c^G_1 = kappa + a_1, c^G_{k+1} = kappa + b_k +
  a_{k+1}, lambda^G_{k+1} = a_k b_k.
* Cauchy values integral dmu/(t - z) come from the Jacobi continued fraction
  seeded with the exact value of the constant Chebyshev tail (c = 0,
  lambda = 1/4), so they are exact for the presets at any depth.  Integrals
  against dmu / prod (t - a_j) follow by partial fractions.
* A zero z of P_n is certified by the Newton correction P_n(z)/P_n'(z).  Past
  the last coefficient that differs from the Chebyshev tail, P_n is summed in
  closed form from the two roots of t^2 - z t + 1/4, so degree-256 clouds of
  finite perturbations cost O(perturbation length) per zero.
"""
from __future__ import annotations

import math

import mpmath as mp
import numpy as np

# Working-precision guard: the second evaluation runs this many digits above
# the first, and both must agree to AGREE_RTOL.
GUARD_DIGITS = 25
AGREE_RTOL = 1e-22
MAX_DPS = 20000
# Magnitudes below this cannot be represented in a double; relative errors
# are measured against it instead of against a smaller reference value.
TINY = 1e-290
TAIL_C = 0.0
TAIL_LAM = 0.25


class OracleError(RuntimeError):
    """The oracle could not certify a reference value."""


def _mp(v):
    return mp.mpc(v) if isinstance(v, (mp.mpc, mp.mpf)) else mp.mpc(complex(v))


def _mpcs(values):
    return [_mp(v) for v in values]


def preset(kind: str, n_max: int):
    """(c, lam, s0) of the probability-normalized monic Chebyshev presets."""
    c = [0.0] * n_max
    lam = [0.25] * (n_max - 1)
    if kind == "chebyshev1":
        lam[0] = 0.5
    elif kind == "chebyshev3":
        c[0] = 0.5
    elif kind == "chebyshev4":
        c[0] = -0.5
    elif kind != "chebyshev2":
        raise ValueError(f"unknown preset {kind!r}")
    return c, lam, 1.0


def _flat(obj):
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _flat(item)
    else:
        yield obj


def _agree(lo, hi) -> bool:
    for a, b in zip(_flat(lo), _flat(hi)):
        if abs(a - b) > AGREE_RTOL * max(abs(b), TINY):
            return False
    return True


def certified(fn, dps: int):
    """fn() evaluated at dps and dps + GUARD_DIGITS until the two agree.

    fn must rebuild its mp inputs from doubles, so each run sees the inputs
    at its own precision.  Returns the higher-precision result.
    """
    while dps <= MAX_DPS:
        with mp.workdps(dps):
            lo = fn()
        with mp.workdps(dps + GUARD_DIGITS):
            hi = fn()
        if _agree(lo, hi):
            return hi
        dps *= 2
    raise OracleError(f"no agreement up to {MAX_DPS} digits")


def start_dps(kappa: complex, length: int) -> int:
    """First precision to try: two digits per decade of the ratio
    |t_-/t_+| of the Chebyshev tail at kappa, over the prefix length."""
    root = complex(mp.sqrt(complex(kappa) - 1) * mp.sqrt(complex(kappa) + 1))
    t1, t2 = (kappa + root) / 2, (kappa - root) / 2
    small, big = sorted((abs(t1), abs(t2)))
    q = small / big if big > 0 else 1.0
    return 30 + int(math.ceil(2 * length * math.log10(1.0 / max(q, 1e-300))))


# ---------------------------------------------------------------------------
# transforms (inputs and outputs are mp lists at the working precision)
# ---------------------------------------------------------------------------

def christoffel(c, lam, s0, kappa):
    n = len(c)
    u = c[0] - kappa
    us, ls = [u], []
    for k in range(1, n):
        l_k = lam[k - 1] / u
        u = c[k] - kappa - l_k
        ls.append(l_k)
        us.append(u)
    out_len = n - 2
    c_out = [kappa + us[k] + ls[k] for k in range(out_len)]
    lam_out = [us[k + 1] * ls[k] for k in range(out_len - 1)]
    return c_out, lam_out, (c[0] - kappa) * s0


def geronimus(c, lam, s0, kappa, s0star):
    out_len = len(c) - 2
    a = s0 / s0star
    c_out, lam_out = [kappa + a], []
    for k in range(out_len - 1):
        b = c[k] - kappa - a
        lam_out.append(a * b)
        a = lam[k] / b
        c_out.append(kappa + b + a)
    return c_out, lam_out, s0star


def tail_root(z):
    """Smaller root of t^2 + z t + 1/4 = 0: the continued-fraction value of
    the constant tail c = 0, lambda = 1/4 at z (t = lambda / (c - z - t))."""
    root = mp.sqrt(z - 1) * mp.sqrt(z + 1)
    t1, t2 = (-z + root) / 2, (-z - root) / 2
    return t1 if abs(t1) < abs(t2) else t2


def cauchy(c, lam, s0, z):
    """integral dmu/(t - z) = s0 / (c_1 - z - lambda_2/(c_2 - z - ...))."""
    t = tail_root(z)
    for j in range(len(c), 1, -1):
        t = lam[j - 2] / (c[j - 1] - z - t)
    return s0 / (c[0] - z - t)


def cauchy_product(c, lam, s0, points):
    """integral dmu(t) / prod_j (t - a_j) for distinct a_j, by partial fractions."""
    total = mp.mpc(0)
    for j, a in enumerate(points):
        r = mp.mpc(1)
        for i, b in enumerate(points):
            if i != j:
                r /= a - b
        total += r * cauchy(c, lam, s0, a)
    return total


# ---------------------------------------------------------------------------
# reference computations from double inputs
# ---------------------------------------------------------------------------

def ref_christoffel(c, lam, s0, kappa):
    def run():
        return christoffel(_mpcs(c), _mpcs(lam), mp.mpc(complex(s0)), mp.mpc(kappa))

    return certified(run, start_dps(kappa, len(c)))


def ref_geronimus(c, lam, s0, kappa, s0star):
    def run():
        return geronimus(
            _mpcs(c), _mpcs(lam), mp.mpc(complex(s0)), mp.mpc(kappa), mp.mpc(s0star)
        )

    return certified(run, start_dps(kappa, len(c)))


def ref_cauchy(c, lam, s0, z):
    return certified(
        lambda: [cauchy(_mpcs(c), _mpcs(lam), mp.mpc(complex(s0)), mp.mpc(z))], 40
    )[0]


def ref_roundtrip(c, lam, s0, kappa, s0star):
    """Christoffel of Geronimus at the same kappa (the identity, truncated)."""
    def run():
        g = geronimus(
            _mpcs(c), _mpcs(lam), mp.mpc(complex(s0)), mp.mpc(kappa), mp.mpc(s0star)
        )
        return christoffel(*g, mp.mpc(kappa))

    return certified(run, start_dps(kappa, len(c)))


def ref_christoffel_two(c, lam, s0, k1, k2):
    def run():
        first = christoffel(_mpcs(c), _mpcs(lam), mp.mpc(complex(s0)), mp.mpc(k1))
        return christoffel(*first, mp.mpc(k2))

    return certified(run, max(start_dps(k1, len(c)), start_dps(k2, len(c))))


def ref_varying_measure(c, lam, s0, kappas):
    """Prefixes of dmu / prod_{j<=k} |t - kappa_j|^2 for k = 0..len(kappas).

    Each conjugate pair is two Geronimus steps whose s0star values are the
    Cauchy integrals of the current measure, taken by partial fractions from
    the base measure (exact for the presets).
    """
    def run():
        base = (_mpcs(c), _mpcs(lam), mp.mpc(complex(s0)))
        cur = base
        applied = []
        out = [cur]
        for kap in kappas:
            for point in (mp.mpc(kap), mp.mpc(complex(kap).conjugate())):
                applied.append(point)
                s0star = cauchy_product(*base, applied)
                cur = geronimus(*cur, point, s0star)
            out.append(cur)
        return out

    dps = max(start_dps(k, len(c)) for k in kappas) * 2
    return certified(run, dps)


def ref_cluster_distance(c, lam, s0, kappa, s0star, n):
    """|xi_n - kappa| for the zero xi_n of the Geronimus-transformed P_n
    nearest kappa, by Newton iteration from kappa on the transformed
    recurrence."""
    def run():
        kap = mp.mpc(kappa)
        g_c, g_lam, _ = geronimus(
            _mpcs(c[: n + 2]), _mpcs(lam[: n + 1]), mp.mpc(complex(s0)), kap, mp.mpc(s0star)
        )
        z = kap
        for _ in range(200):
            p, dp = p_and_derivative(g_c, g_lam, n, z)
            step = p / dp
            z -= step
            if abs(step) <= 1e-30 * abs(z - kap):
                return [abs(z - kap)]
        raise OracleError(f"cluster Newton did not converge at n={n}")

    return certified(run, start_dps(kappa, n + 2) + 60)[0]


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

def p_and_derivative(c, lam, n, z):
    """(P_n(z), P_n'(z)) by the joint three-term recurrence."""
    p_prev, p = mp.mpc(1), z - c[0]
    d_prev, d = mp.mpc(0), mp.mpc(1)
    for k in range(1, n):
        zc = z - c[k]
        p_prev, p, d_prev, d = p, zc * p - lam[k - 1] * p_prev, d, p + zc * d - lam[k - 1] * d_prev
    return p, d


def tail_start(c, lam, n):
    """Smallest M >= 1 with c[k] = 0 and lam[k-1] = 1/4 for M <= k < n."""
    m = n
    while m > 1 and complex(c[m - 1]) == TAIL_C and complex(lam[m - 2]) == TAIL_LAM:
        m -= 1
    return m


def p_value(c, lam, n, z, m):
    """P_n(z): recurrence up to P_m, then the closed form of the constant tail."""
    p_prev, p = mp.mpc(1), z - c[0]
    for k in range(1, min(n, m)):
        p_prev, p = p, (z - c[k]) * p - lam[k - 1] * p_prev
    if n <= m:
        return p
    root = mp.sqrt(z - 1) * mp.sqrt(z + 1)
    t1, t2 = (z + root) / 2, (z - root) / 2
    a = (t1 * p - p_prev / 4) / root
    j = n - m
    return a * t1**j + (p - a) * t2**j


def _newton_steps(c, lam, n, zs, m):
    out = []
    if m >= n:
        for z in zs:
            p, dp = p_and_derivative(c, lam, n, z)
            out.append(p / dp)
        return out
    h_rel = mp.mpf(10) ** (-(mp.mp.dps // 2))
    for z in zs:
        h = h_rel * max(abs(z), 1)
        p = p_value(c, lam, n, z, m)
        dp = (p_value(c, lam, n, z + h, m) - p) / h
        out.append(p / dp)
    return out


def zero_errors(c, lam, n, zeros, dps: int = 30):
    """Certified error estimates |z - xi| / max(|z|, 1) for each zero z of P_n.

    Newton corrections at two precisions must agree to three digits.  Returns
    (errors, separated): ``separated`` is False when two corrected zeros lie
    closer than four times the largest correction, i.e. the cloud does not
    certifiably hold n distinct zeros.
    """
    m = tail_start(c, lam, n)

    def run():
        cm, lm = _mpcs(c[:n]), _mpcs(lam[: max(n - 1, 0)])
        return _newton_steps(cm, lm, n, [_mp(z) for z in zeros], m)

    with mp.workdps(dps):
        lo = run()
    with mp.workdps(dps + 15):
        hi = run()
    errs = []
    fixed = []
    floor = mp.mpf(10) ** (-dps + 5)
    for z, a, b in zip(zeros, lo, hi):
        if abs(a - b) > 1e-3 * abs(b) + floor:
            raise OracleError(f"zero correction unresolved at degree {n}, z={z}")
        z = complex(z)
        errs.append(float(abs(b)) / max(abs(z), 1.0))
        fixed.append(z - complex(b))
    pts = np.array(fixed)
    gaps = np.abs(pts[:, None] - pts[None, :])
    np.fill_diagonal(gaps, np.inf)
    sep = float(gaps.min()) if len(pts) > 1 else math.inf
    largest = max((e * max(abs(z), 1.0) for e, z in zip(errs, zeros)), default=0.0)
    return errs, sep > 4 * largest

