"""Property tests of the ratio-and-difference kernel behind christoffel and
geronimus, against a small mpmath LR/UL reference evaluated at two
precisions.

Prefixes are the four presets and seeded finite Nevai-class perturbations
of them; sites are nonreal with Re kappa in [-1.5, 1.5] and |Im kappa| down
to 1e-3.  Geronimus is checked with s0star drawn in the closed half-plane
opposite kappa (the double-precision route when eta = |1 - S/s0star| >=
1e-2), with the double-rounded Cauchy value from cauchy_s0star and with
s0star a few ulps from it (read off the backward run in double-double up
to the dominance crossover, then double; eta >= 1e-18), with the switch
moved later, and with it forced down to its mpmath fallback.  The
GeronimusChain step at the Cauchy value (the backward run) is checked
against the UL step taken at the reference's own Cauchy value.  Cluster
distances (the double shifted Newton of spectral.cluster_distance) are
checked against an mpmath Newton iteration on the UL step's output, also
with s0star near the Cauchy value, and spectral.cluster_sweep against them
degree by degree.
"""
import cmath
import logging
import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, reject, settings
from hypothesis import strategies as st

from darbouxjac import darboux, factorization, polyeval
from darbouxjac.core import CHEBYSHEV_KINDS, RecurrenceCoeffs, family_coeffs, symmetrize
from darbouxjac.darboux import (
    GeronimusChain,
    TransformPoint,
    cauchy_s0star,
    christoffel,
    christoffel_two,
    geronimus,
    geronimus_cauchy,
    kernel_eval,
)
from darbouxjac.errors import (
    EigenSolverError,
    EvaluationRangeError,
    ExistenceError,
    FactorBreakdownError,
    PoleError,
    ZeroHitError,
)
from darbouxjac.factorization import lu_factor, ul_factor
from darbouxjac.polyeval import ratio_sequence
from darbouxjac.rseq import R2System
from darbouxjac.spectral import cluster_distance, cluster_sweep

N_MAX = 48
TOL = 1e-12
TINY = 1e-290
# reference: two precisions this far apart must agree to AGREE
GUARD = 20
AGREE = 1e-20

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def nevai_prefix(kind: str, seed: int | None, n_max: int = N_MAX) -> RecurrenceCoeffs:
    """The preset, or a real perturbation of its first 12 coefficients that
    decays like 0.7^k (lambda stays positive, so the measure stays positive)."""
    base = family_coeffs(kind, n_max)
    if seed is None:
        return base
    rng = np.random.default_rng(seed)
    k = np.arange(12)
    c = base.c.copy()
    lam = base.lam.copy()
    c[:12] += 0.3 * 0.7**k * rng.uniform(-1, 1, 12)
    lam[:12] *= 1 + 0.3 * 0.7**k * rng.uniform(-1, 1, 12)
    return RecurrenceCoeffs(c=c, lam=lam, s0=base.s0)


prefixes = st.builds(
    nevai_prefix,
    st.sampled_from(CHEBYSHEV_KINDS),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)


@st.composite
def kappas(draw):
    re = draw(st.floats(-1.5, 1.5))
    im = 10.0 ** draw(st.floats(-3.0, 0.0))
    return complex(re, draw(st.sampled_from((1.0, -1.0))) * im)


@st.composite
def opposite_s0star(draw, kappa: complex) -> complex:
    """|s0star| log-uniform on [0.5, 2], in the closed half-plane opposite kappa."""
    mod = 10.0 ** draw(st.floats(math.log10(0.5), math.log10(2.0)))
    angle = draw(st.floats(0.0, math.pi))
    return mod * complex(math.cos(angle), -math.copysign(1.0, kappa.imag) * math.sin(angle))


def log_radius(kappa: complex) -> float:
    """log of the Bernstein-ellipse parameter of kappa around [-1, 1]."""
    root = cmath.sqrt(kappa - 1) * cmath.sqrt(kappa + 1)
    return math.log(max(abs(kappa + root), abs(kappa - root)))


# ---------------------------------------------------------------------------
# mpmath reference: one LR (Christoffel) or UL (Geronimus) step
# ---------------------------------------------------------------------------

def lr_step(c, lam, s0, kappa):
    """J - kappa = L U, J_C = U L + kappa; the prefix shrinks by 2."""
    u, ls, us = c[0] - kappa, [], []
    us.append(u)
    for k in range(1, len(c)):
        ls.append(lam[k - 1] / u)
        u = c[k] - kappa - ls[-1]
        us.append(u)
    out = len(c) - 2
    c_out = [kappa + us[k] + ls[k] for k in range(out)]
    lam_out = [us[k + 1] * ls[k] for k in range(out - 1)]
    return c_out + lam_out + [(c[0] - kappa) * s0]


def ul_step(c, lam, s0, kappa, s0star):
    """J - kappa = U L with a_1 = s0/s0star, J_G = L U + kappa."""
    out = len(c) - 2
    a = s0 / s0star
    c_out, lam_out = [kappa + a], []
    for k in range(out - 1):
        b = c[k] - kappa - a
        lam_out.append(a * b)
        a = lam[k] / b
        c_out.append(kappa + b + a)
    return c_out + lam_out + [s0star]


def cluster_step(n: int):
    """Step giving [|xi - kappa|], xi the zero of ul_step's P_n reached by
    Newton iteration from kappa, stopped once a step is below 1e-30 |xi - kappa|;
    [nan] (no agreement) when the working precision cannot get there."""
    def step(c, lam, s0, kappa, s0star):
        out = ul_step(c, lam, s0, kappa, s0star)
        g_c, g_lam = out[: len(c) - 2], out[len(c) - 2 : -1]
        z = kappa
        for _ in range(100):
            p_prev, p, d_prev, d = 1, z - g_c[0], 0, 1
            for k in range(1, n):
                zc = z - g_c[k]
                p_prev, p, d_prev, d = (
                    p, zc * p - g_lam[k - 1] * p_prev, d, p + zc * d - g_lam[k - 1] * d_prev
                )
            dz = p / d
            z -= dz
            if abs(dz) <= 1e-30 * abs(z - kappa):
                return [abs(z - kappa)]
        return [mp.nan]

    return step


def ul_cauchy_step(c, lam, s0, kappa):
    """ul_step at s0star = s0 m(J; kappa), the continued fraction taken at
    the working precision."""
    return ul_step(c, lam, s0, kappa, s0 * darboux._cf_m_function(c, lam, kappa))


def ul_cauchy_pair(c, lam, s0, kappa):
    """ul_cauchy_step at kappa, then at conj kappa on its output."""
    out = ul_cauchy_step(c, lam, s0, kappa)
    n = len(c) - 2
    return ul_cauchy_step(out[:n], out[n:-1], out[-1], mp.conj(kappa))


def reference(step, m: RecurrenceCoeffs, *site, dps: int = 30):
    """step on the exact double inputs at two precisions GUARD digits apart,
    starting at dps and doubled until they agree to AGREE; the higher one is
    returned."""
    def run():
        args = [[mp.mpc(z) for z in m.c], [mp.mpc(z) for z in m.lam], mp.mpc(m.s0)]
        return step(*args, *(mp.mpc(v) for v in site))

    while dps <= 4000:
        with mp.workdps(dps):
            lo = run()
        with mp.workdps(dps + GUARD):
            hi = run()
            if all(abs(a - b) <= AGREE * max(abs(b), TINY) for a, b in zip(lo, hi)):
                return hi
        dps *= 2
    raise AssertionError("reference did not settle")


def resolving_dps(kappa: complex) -> int:
    """30 digits beyond those that resolve kappa's smaller part against
    max(1, |kappa|).  An exactly vanishing entry such as kappa + t_2 + lam/t_2
    otherwise comes out as Re kappa = 1e-150 at 60 and at 80 digits alike,
    the parts that cancel it being below both precisions."""
    small = min((abs(x) for x in (kappa.real, kappa.imag) if x), default=1.0)
    return 30 + max(0, math.ceil(math.log10(max(1.0, abs(kappa))) - math.log10(small)))


@st.composite
def near_cauchy_s0star(draw, m: RecurrenceCoeffs, kappa: complex) -> complex:
    """S (1 + eta e^{i theta}), S the prefix's Cauchy value, eta log-uniform
    on [1e-8, 1e-3]: geronimus's extended-precision route."""
    s = m.s0 * darboux._cf_m_function(m.c.tolist(), m.lam.tolist(), kappa)
    eta = 10.0 ** draw(st.floats(-8.0, -3.0))
    return s * (1 + eta * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))))


def assert_entrywise(tc, ref) -> None:
    got = list(tc.coeffs.c) + list(tc.coeffs.lam) + [tc.coeffs.s0]
    assert len(got) == len(ref)
    err = max(float(abs(g - r) / max(abs(r), TINY)) for g, r in zip(got, ref))
    assert err <= TOL, err


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@PROPERTY
@given(prefixes, kappas())
def test_christoffel_matches_lr_reference(m, kappa):
    tc = christoffel(m, TransformPoint(kappa))
    assert_entrywise(tc, reference(lr_step, m, kappa, dps=resolving_dps(kappa)))


def double_route(m: RecurrenceCoeffs, kappa: complex, s0star: complex) -> bool:
    """geronimus's own routing test: eta = |1 - S/s0star| >= 1e-2."""
    s = m.s0 * darboux._cf_m_function(m.c.tolist(), m.lam.tolist(), kappa)
    return abs(1 - s / s0star) >= darboux._DOUBLE_ETA


@PROPERTY
@given(prefixes, kappas(), st.data())
def test_geronimus_opposite_s0star_matches_ul_reference(m, kappa, data):
    s0star = data.draw(opposite_s0star(kappa))
    event("double route" if double_route(m, kappa, s0star) else "extended route")
    tc = geronimus(m, TransformPoint(kappa, s0star=s0star))
    assert_entrywise(tc, reference(ul_step, m, kappa, s0star, dps=resolving_dps(kappa)))


@PROPERTY
@given(st.sampled_from(CHEBYSHEV_KINDS), kappas())
def test_geronimus_cauchy_s0star_matches_ul_reference(kind, kappa):
    # the quadrature cross-check inside cauchy_s0star cannot resolve the
    # pole closer to the support than this
    assume(log_radius(kappa) >= 0.01)
    m = family_coeffs(kind, N_MAX)
    s0star = cauchy_s0star(m, kappa)
    assert not double_route(m, kappa, s0star)
    tc = geronimus(m, TransformPoint(kappa, s0star=s0star))
    assert_entrywise(tc, reference(ul_step, m, kappa, s0star, dps=resolving_dps(kappa)))


@PROPERTY
@given(st.builds(nevai_prefix, st.sampled_from(CHEBYSHEV_KINDS),
                 st.one_of(st.none(), st.integers(0, 2**32 - 1)), st.just(256)),
       kappas(), st.data())
def test_transformed_tails_reach_the_base_limits(m, kappa, data):
    """Nevai invariance: past the perturbation the prefix is constant, so the
    tails of both transforms approach its limits (c, lambda) = (0, 1/4) like
    |phi(kappa)|^(-2n); at 256 terms and |phi| >= 1.25 the last entries
    of christoffel, geronimus (s0star opposite kappa) and geronimus_cauchy
    lie within 1e-30 of them, where a rounding bias would stop at ~1e-17."""
    assume(log_radius(kappa) >= math.log(1.25))
    site = TransformPoint(kappa, s0star=data.draw(opposite_s0star(kappa)))
    for tc in (christoffel(m, site), geronimus(m, site), geronimus_cauchy(m, kappa)):
        assert abs(tc.coeffs.c[-1]) <= 1e-30, tc.kinds
        assert abs(tc.coeffs.lam[-1] - 0.25) <= 1e-30, tc.kinds


@PROPERTY
@given(prefixes, kappas(), st.integers(1, N_MAX - 2), st.booleans(), st.data())
def test_breakdown_raises_existence_error_at_its_index(m, kappa, n, is_christoffel, data):
    """Setting c_n so that y_n(kappa) = 0 makes the transform fail at n."""
    s0star = None if is_christoffel else data.draw(opposite_s0star(kappa))
    offset = 0j if is_christoffel else m.s0 / s0star
    c = m.c.copy()
    w = kappa - c[0] + offset
    for k in range(1, n - 1):
        w = kappa - c[k] - m.lam[k - 1] / w
    c[n - 1] = kappa + offset if n == 1 else kappa - m.lam[n - 2] / w
    broken = RecurrenceCoeffs(c=c, lam=m.lam, s0=m.s0)
    with pytest.raises(ExistenceError) as err:
        if is_christoffel:
            christoffel(broken, TransformPoint(kappa))
        else:
            geronimus(broken, TransformPoint(kappa, s0star=s0star))
    assert err.value.index == n


@PROPERTY
@given(prefixes, kappas(), st.integers(1, N_MAX - 2), st.booleans(), st.data())
def test_cluster_distance_matches_newton_reference(m, kappa, n, near_cauchy, data):
    s0star = data.draw(near_cauchy_s0star(m, kappa) if near_cauchy else opposite_s0star(kappa))
    event("near-Cauchy s0star" if near_cauchy else "opposite s0star")
    xi, dist, log_dist = cluster_distance(m, TransformPoint(kappa, s0star=s0star), n)
    try:
        ref = reference(cluster_step(n), m.truncated(n + 2), kappa, s0star,
                        dps=resolving_dps(kappa))[0]
    except AssertionError:
        # Newton from kappa converges at no precision: no zero attracts it
        # (kappa on the symmetry axis of a symmetric prefix, small n)
        reject()
    assert abs(dist - ref) <= TOL * ref, float(abs(dist - ref) / ref)
    assert log_dist == math.log(dist)
    assert abs(abs(xi - kappa) - dist) <= 1e-15 * max(abs(kappa), dist)


@PROPERTY
@given(prefixes, kappas(), st.lists(st.integers(1, N_MAX - 2), min_size=1, max_size=5),
       st.booleans(), st.data())
def test_cluster_sweep_is_the_per_degree_distance(m, kappa, degrees, near_cauchy, data):
    """cluster_sweep gives each degree's cluster_distance in n_list order,
    unsorted and repeated degrees included, bit for bit wherever the sweep's
    transform of max(n_list) + 3 terms has the ratios w of the degree's own
    transform of n + 3 terms: always on the double route.  Near the Cauchy
    value geronimus takes its route and crossover from the eta and tails of
    the prefix it is given, so a shorter prefix can move the last bits of w;
    there the two agree to TOL."""
    s0star = data.draw(near_cauchy_s0star(m, kappa) if near_cauchy else opposite_s0star(kappa))
    site = TransformPoint(kappa, s0star=s0star)

    def outcome(f):
        try:
            return f()
        except (EigenSolverError, EvaluationRangeError) as exc:
            return type(exc), str(exc)

    want = outcome(lambda: [cluster_distance(m, site, n) for n in degrees])
    got = outcome(lambda: list(cluster_sweep(m, site, degrees)))
    if isinstance(want, tuple):
        assert got == want
        return
    top = geronimus(m.truncated(min(m.n_max, max(max(degrees) + 3, 4))), site).ratio_seq
    for n, (xi, dist, log_dist), ref in zip(degrees, got, want):
        w = geronimus(m.truncated(min(m.n_max, max(n + 3, 4))), site).ratio_seq
        if np.array_equal(w[: n - 1], top[: n - 1]):
            assert (xi, dist, log_dist) == ref
            continue
        event("near-Cauchy: the shorter prefix moves w")
        assert near_cauchy
        assert abs(dist - ref[1]) <= TOL * ref[1] and abs(log_dist - ref[2]) <= TOL * abs(ref[2])
        assert abs(xi - ref[0]) <= TOL * ref[1] + 1e-15 * abs(kappa)


def test_cluster_distance_below_double_range():
    """|xi_300 - kappa| ~ e^-753 underflows; its log stays exact."""
    m = family_coeffs("chebyshev1", 1024)
    kappa, n = 1.5 + 1j, 300
    xi, dist, log_dist = cluster_distance(m, TransformPoint(kappa, s0star=1.0), n)
    # 400 digits resolve e^-753 = 1e-327 against |kappa| from the start
    ref = reference(cluster_step(n), m.truncated(n + 2), kappa, 1.0, dps=400)[0]
    assert dist == 0.0 and xi == kappa
    assert abs(log_dist - mp.log(ref)) <= TOL * abs(mp.log(ref))


@PROPERTY
@given(prefixes, kappas())
def test_chain_cauchy_step_matches_ul_reference(m, kappa):
    chain = GeronimusChain(m)
    chain.apply(kappa)
    ref = reference(ul_cauchy_step, m, kappa, dps=resolving_dps(kappa))
    assert_entrywise(SimpleNamespace(coeffs=chain.coeffs()), ref)


@PROPERTY
@given(prefixes, kappas())
def test_chain_conjugate_pair_keeps_lambda_real_positive(m, kappa):
    """Steps at kappa and conj kappa give the positive measure dmu/|t - kappa|^2."""
    chain = GeronimusChain(m)
    chain.apply(kappa)
    chain.apply(kappa.conjugate())
    lam = chain.coeffs().lam
    assert np.all(np.abs(lam.imag) <= 1e-10 * np.abs(lam))
    assert np.all(lam.real > 0)


@PROPERTY
@given(prefixes, kappas(), st.integers(2, N_MAX - 1))
def test_chain_breakdown_raises_existence_error_at_its_index(m, kappa, j):
    """Setting c_j so that D_j = c_j - kappa - t_{j+1} vanishes in the backward
    run makes the Cauchy step fail at n = j - 2 (R_{j-2}(kappa) = 0)."""
    c, lam = m.c.tolist(), m.lam.tolist()
    t = darboux._tail_seed(c[-1], lam[-1], kappa)
    for i in range(N_MAX, j, -1):  # t_i = lam_i / (c_i - kappa - t_{i+1})
        t = lam[i - 2] / (c[i - 1] - kappa - t)
    c[j - 1] = kappa + t
    broken = RecurrenceCoeffs(c=c, lam=m.lam, s0=m.s0)
    with pytest.raises(ExistenceError) as err:
        GeronimusChain(broken).apply(kappa)
    assert err.value.index == j - 2


@pytest.mark.parametrize("kind", CHEBYSHEV_KINDS)
def test_chain_conjugate_pair_near_support_matches_ul_reference(kind):
    """256 terms at |Im kappa| = 1e-3: the second step's continued fraction
    sums the first step's rounding over the whole prefix, so a bias that is
    the same in every entry (lambda_k w_k / w_{k-1} with w_k = w_{k-1} on a
    constant tail) would cost 6e-12.

    lambda and s0 never vanish and are compared entrywise; c is compared
    against its largest entry, since some c_k are exactly 0 (c_2 of the
    chebyshev2 pair, a Bernstein-Szego weight) and come out at 1e-16.
    """
    m = family_coeffs(kind, 256)
    kappa = 0.5 - 1e-3j
    chain = GeronimusChain(m)
    chain.apply(kappa)
    chain.apply(kappa.conjugate())
    got = chain.coeffs()
    ref = reference(ul_cauchy_pair, m, kappa)
    ref_c, ref_rest = ref[: got.n_max], ref[got.n_max :]
    err = max(float(abs(g - r) / abs(r)) for g, r in zip([*got.lam, got.s0], ref_rest))
    assert err <= TOL, err
    err_c = max(float(abs(g - r)) for g, r in zip(got.c, ref_c)) / max(abs(r) for r in ref_c)
    assert err_c <= TOL, err_c


# ---------------------------------------------------------------------------
# the double-double route: s0star at or a few ulps from fl(S)
# ---------------------------------------------------------------------------

def forbid_mpmath(monkeypatch) -> None:
    def fail(*args, **kwargs):
        raise AssertionError("geronimus fell back to mpmath")

    monkeypatch.setattr(darboux, "_mpmath_step", fail)


@st.composite
def ulps_from_cauchy(draw, m: RecurrenceCoeffs, kappa: complex) -> complex:
    """fl(S) itself, or fl(S)(1 + eta e^{i theta}) with eta log-uniform on
    [1e-16, 1e-14]: eta about 1e-17..1e-14."""
    s = m.s0 * darboux._cf_m_function(m.c.tolist(), m.lam.tolist(), kappa)
    if draw(st.booleans()):
        return s
    eta = 10.0 ** draw(st.floats(-16.0, -14.0))
    return s * (1 + eta * cmath.exp(1j * draw(st.floats(0.0, 2 * math.pi))))


@PROPERTY
@given(prefixes, kappas(), st.data())
def test_geronimus_within_ulps_of_cauchy_matches_ul_reference(m, kappa, data):
    s0star = data.draw(ulps_from_cauchy(m, kappa))
    assert not double_route(m, kappa, s0star)
    tc = geronimus(m, TransformPoint(kappa, s0star=s0star))
    assert_entrywise(tc, reference(ul_step, m, kappa, s0star, dps=resolving_dps(kappa)))


# kappa per preset: away from the support, close to it, and off the axis
CAUCHY_SITES = {
    "chebyshev1": 0.3 + 0.5j,
    "chebyshev2": 1j,
    "chebyshev3": -0.7 + 0.05j,
    "chebyshev4": 1.2 + 0.3j,
}


@pytest.mark.parametrize("n_max", [256, 1024])
@pytest.mark.parametrize("kind", CHEBYSHEV_KINDS)
def test_geronimus_at_rounded_cauchy_value_long_prefix(kind, n_max, monkeypatch):
    """fl(S) on the presets, the CLI default: double-double, no fallback."""
    forbid_mpmath(monkeypatch)
    m = family_coeffs(kind, n_max)
    kappa = CAUCHY_SITES[kind]
    s0star = cauchy_s0star(m, kappa)
    tc = geronimus(m, TransformPoint(kappa, s0star=s0star))
    assert_entrywise(tc, reference(ul_step, m, kappa, s0star, dps=resolving_dps(kappa)))


@pytest.mark.parametrize("kind", CHEBYSHEV_KINDS)
def test_geronimus_mpmath_fallback_matches_double_double(kind, monkeypatch):
    """Raising _DD_ETA above every eta sends fl(S) to the mpmath route."""
    m = family_coeffs(kind, 256)
    kappa = CAUCHY_SITES[kind]
    site = TransformPoint(kappa, s0star=cauchy_s0star(m, kappa))
    dd = geronimus(m, site)
    monkeypatch.setattr(darboux, "_DD_ETA", 1.0)
    calls = []
    real_step = darboux._mpmath_step
    monkeypatch.setattr(
        darboux, "_mpmath_step", lambda *a, **k: calls.append(1) or real_step(*a, **k)
    )
    fallback = geronimus(m, site)
    assert calls
    assert_entrywise(
        fallback, list(dd.coeffs.c) + list(dd.coeffs.lam) + [dd.coeffs.s0]
    )
    w = dd.ratio_seq
    assert np.max(np.abs(fallback.ratio_seq - w) / np.maximum(np.abs(w), TINY)) <= TOL


# ---------------------------------------------------------------------------
# the crossover: double-double up to k*, double after it
# ---------------------------------------------------------------------------

def later_crossover(monkeypatch, steps: int) -> None:
    """Move the switch from the head (``darboux._cauchy_head``) to double
    ``steps`` steps past k*, at most to the end of the run."""
    crossover = darboux._crossover
    monkeypatch.setattr(darboux, "_crossover", lambda lam, ws, delta, count: min(
        crossover(lam, ws, delta, count) + steps, count))


def geronimus_k_star(m: RecurrenceCoeffs, site: TransformPoint) -> tuple:
    """geronimus's output and the k* it reports at DEBUG."""
    tc, record = geronimus_logged(m, site)
    return tc, record.k_star


def geronimus_logged(m: RecurrenceCoeffs, site: TransformPoint) -> tuple:
    """geronimus's output and the record it logs at DEBUG."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("darbouxjac")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        tc = geronimus(m, site)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return tc, records[-1]


# fl(S) sites whose crossover falls late in a 256-term run (k* = 163, 130)
# and early (k* = 27)
CROSSOVER_SITES = [
    ("chebyshev1", -0.800117 + 0.0698723j),
    ("chebyshev3", 0.928724 + 0.0559869j),
    ("chebyshev4", 1.2 + 0.3j),
]
# k* at fl(S) for 256 and 1024 terms; close to the support (the last site)
# the 256-term run never crosses (k* = 255 = n_max - 1)
K_STAR = {
    CROSSOVER_SITES[0]: (163, 162),
    CROSSOVER_SITES[1]: (130, 130),
    CROSSOVER_SITES[2]: (27, 27),
    ("chebyshev3", CAUCHY_SITES["chebyshev3"]): (255, 263),
}


@pytest.mark.parametrize("n_max", [256, 1024])
@pytest.mark.parametrize("kind, kappa", list(K_STAR))
def test_crossover_at_rounded_cauchy_value_matches_ul_reference(kind, kappa, n_max, monkeypatch):
    """fl(S): the run leaves double-double at the pinned k*, and the double
    tail keeps 1e-12 entrywise."""
    forbid_mpmath(monkeypatch)
    m = family_coeffs(kind, n_max)
    site = TransformPoint(kappa, s0star=cauchy_s0star(m, kappa))
    tc, k_star = geronimus_k_star(m, site)
    assert k_star == K_STAR[kind, kappa][n_max == 1024]
    assert_entrywise(tc, reference(ul_step, m, kappa, site.s0star, dps=resolving_dps(kappa)))


# the early crossover site is CAUCHY_SITES["chebyshev4"]
@pytest.mark.parametrize("kind, kappa", CROSSOVER_SITES[:2] + list(CAUCHY_SITES.items()))
def test_crossover_moved_later_changes_no_entry(kind, kappa, monkeypatch):
    """Moving the switch eight steps later changes no entry by 1e-12: the
    head and the double run agree where both hold.  (Far past k* the head's
    differences e_k shrink below the pair rounding of the w^S_k eps_k they
    are taken from, so the switch cannot move to the end of the run.)"""
    m = family_coeffs(kind, 256)
    site = TransformPoint(kappa, s0star=cauchy_s0star(m, kappa))
    switched = geronimus(m, site)
    later_crossover(monkeypatch, 8)
    later = geronimus(m, site)
    c, lam = later.coeffs.c, later.coeffs.lam
    assert_entrywise(switched, [*c, *lam, later.coeffs.s0])
    w = later.ratio_seq
    assert np.max(np.abs(switched.ratio_seq - w) / np.maximum(np.abs(w), TINY)) <= TOL


def loop_crossover(lam, ws, delta, count: int) -> int:
    """``darboux._crossover`` as the scalar loop it replaced: g_k summed in
    Python complex, stopping at the first k with |delta g_k| >= 1."""
    h, g = 1 / ws[0], 0j
    for k in range(1, count):
        g += h  # g_k
        if not cmath.isfinite(g):
            return count
        if abs(delta * g) >= 1:
            return min(k + 2, count)
        h *= lam[k - 1] / (ws[k - 1] * ws[k])
    return count


@pytest.mark.parametrize("n_max", [128, 256])
@pytest.mark.parametrize("kind, kappa", list(K_STAR) + [
    ("chebyshev1", -1.279524 + 0.00207089j), ("chebyshev2", -0.370027 - 0.761941j),
    ("chebyshev4", 0.767104 + 0.00775566j), ("chebyshev2", 1j),
])
def test_crossover_matches_the_scalar_loop(kind, kappa, n_max):
    """The numpy products and sums place k* where the scalar loop did, at
    fl(S) and at offsets 1e-16..1e-12 of 1/m from it."""
    m = family_coeffs(kind, n_max)
    c, lam = m.c.tolist(), m.lam.tolist()
    ts = darboux._tails(c, lam, kappa)
    ws = darboux._cauchy_run(c, lam, kappa, "", ts)[0]
    inv_m = darboux._dd_cf_inverse(c, lam, kappa, ts)[0]
    offset = m.s0 / cauchy_s0star(m, kappa)
    for delta in [offset - inv_m[0] - inv_m[1]] + [inv_m[0] * 10.0**-p for p in (12, 14, 16)]:
        assert darboux._crossover(lam, ws, delta, len(c) - 1) == loop_crossover(
            lam, ws, delta, len(c) - 1)


def broken_at(c: list, lam: list, kappa: complex, j: int) -> None:
    """Set c_j (in place) so that D_j = c_j - kappa - t_{j+1} vanishes in the
    backward run at kappa: the Cauchy step breaks down at n = j - 2."""
    t = darboux._tail_seed(c[-1], lam[-1], kappa)
    for i in range(len(c), j, -1):
        t = lam[i - 2] / (c[i - 1] - kappa - t)
    c[j - 1] = kappa + t


def test_cauchy_run_breakdown_takes_the_mpmath_route():
    """A prefix whose backward run at kappa hits D_j = 0 gives no w^S to
    read the head from: the step runs in mpmath, and matches the UL
    reference."""
    m = family_coeffs("chebyshev1", 64)
    kappa, j = 0.3 + 0.5j, 20
    c, lam = m.c.tolist(), m.lam.tolist()
    broken_at(c, lam, kappa, j)
    with pytest.raises(ExistenceError):
        darboux._cauchy_run(c, lam, kappa, "")
    broken = RecurrenceCoeffs(c=c, lam=lam, s0=m.s0)
    s0star = m.s0 * darboux._cf_m_function(c, lam, kappa)  # fl(S)
    tc, record = geronimus_logged(broken, TransformPoint(kappa, s0star=s0star))
    assert record.route.startswith("mpmath at ")
    assert_entrywise(tc, reference(ul_step, broken, kappa, s0star, dps=resolving_dps(kappa)))


def loop_cauchy_run(c, lam, kappa, what: str, ts):
    """``darboux._cauchy_run`` as the scalar loop it replaced: D_j, the
    breakdown test and the differences in one Python pass."""
    n = len(c)
    d = 0 * ts[0]
    e = []  # from the far end
    for j, t in zip(range(n, 1, -1), ts):  # t = t_{j+1}
        head = c[j - 1] - kappa
        big = head - t  # D_j
        if abs(big) < polyeval._BREAKDOWN_RTOL * max(abs(head), abs(t)):
            raise ExistenceError(what, j - 2)
        if j < n:
            d = ((lam[j - 2] - lam[j - 1]) + t * ((c[j] - c[j - 1]) + d)) / big
            e.append(d)
    offset = c[0] - kappa - ts[-1]
    if not offset:
        raise PoleError(f"the continued fraction has a pole at kappa={kappa}: no Cauchy value")
    return [-t for t in ts[:0:-1]], [0 * ts[-1]] + e[::-1], offset


@PROPERTY
@given(prefixes, kappas())
def test_cauchy_run_is_the_scalar_loop(m, kappa):
    """The numpy breakdown scan leaves every ratio, difference and the offset
    as the one-pass loop gave them; without differences e is [0]."""
    c, lam = m.c.tolist(), m.lam.tolist()
    ts = darboux._tails(c, lam, kappa)
    w, e, offset = loop_cauchy_run(c, lam, kappa, "", ts)
    assert darboux._cauchy_run(c, lam, kappa, "", ts) == (w, e, offset)
    assert darboux._cauchy_run(c, lam, kappa, "", ts, diffs=False) == (w, [0j], offset)


@pytest.mark.parametrize("diffs", [True, False])
@pytest.mark.parametrize("js", [(20,), (40,), (20, 40), (62,)], ids=lambda js: "+".join(map(str, js)))
def test_cauchy_run_breakdown_index_is_the_scalar_loop(diffs, js):
    """At the site of test_cauchy_run_breakdown_takes_the_mpmath_route (D_j = 0
    at each j in js) the scan raises the loop's ExistenceError: the largest j,
    at n = j - 2, with the same message."""
    m = family_coeffs("chebyshev1", 64)
    kappa = 0.3 + 0.5j
    c, lam = m.c.tolist(), m.lam.tolist()
    for j in sorted(js, reverse=True):
        broken_at(c, lam, kappa, j)
    ts = darboux._tails(c, lam, kappa)
    with pytest.raises(ExistenceError) as ref:
        loop_cauchy_run(c, lam, kappa, "no step", ts)
    with pytest.raises(ExistenceError) as got:
        darboux._cauchy_run(c, lam, kappa, "no step", ts, diffs=diffs)
    assert got.value.index == ref.value.index == max(js) - 2
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("diffs", [True, False])
def test_cauchy_run_zero_offset_is_a_pole(diffs):
    """t_2 = c_1 - kappa (the tails read c_2 onward) makes s0/s0star exactly 0."""
    m = family_coeffs("chebyshev1", 64)
    kappa = 0.3 + 0.5j
    c, lam = m.c.tolist(), m.lam.tolist()
    ts = darboux._tails(c, lam, kappa)
    ts[-1] = c[0] - kappa
    with pytest.raises(PoleError, match="pole at kappa"):
        loop_cauchy_run(c, lam, kappa, "", ts)
    with pytest.raises(PoleError, match="pole at kappa"):
        darboux._cauchy_run(c, lam, kappa, "", ts, diffs=diffs)


long_prefixes = st.builds(
    nevai_prefix,
    st.sampled_from(CHEBYSHEV_KINDS),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.just(128),
)


@PROPERTY
@given(long_prefixes, kappas(), st.data())
def test_crossover_within_ulps_of_cauchy_matches_ul_reference(m, kappa, data):
    """128-term Nevai prefixes, where the crossover falls inside the prefix
    for most sites away from the support."""
    site = TransformPoint(kappa, s0star=data.draw(ulps_from_cauchy(m, kappa)))
    tc, k_star = geronimus_k_star(m, site)
    event("switched to double" if k_star < m.n_max - 1 else "double-double throughout")
    assert_entrywise(tc, reference(ul_step, m, kappa, site.s0star, dps=resolving_dps(kappa)))


@pytest.mark.parametrize("kappa", [1e7 + 1j, 3e6 + 2j, 1e10 + 1j])
def test_geronimus_at_cauchy_value_far_from_support(kappa, monkeypatch):
    """R_1 = kappa - c_1 + s_0/s0star ~ lambda_1/kappa is 1e-14..1e-21 of its
    terms here: resolved in double-double, not a breakdown at n = 1."""
    forbid_mpmath(monkeypatch)
    m = family_coeffs("chebyshev1", 16)
    site = TransformPoint(kappa, s0star=cauchy_s0star(m, kappa))
    tc = geronimus(m, site)
    assert_entrywise(tc, reference(ul_step, m, kappa, site.s0star, dps=resolving_dps(kappa)))


# ---------------------------------------------------------------------------
# the one forward ratio run: ratio sequences, LDL^T/UDU^T pivots, transforms
# ---------------------------------------------------------------------------

def test_near_zero_is_refused_at_its_index_by_every_reader():
    """c = 0, lambda_2 = -1 + 1e-15 at kappa = i: P_2(i) = -1e-15 cancels to
    1e-15 of its terms, so every reader of the ratio run refuses n = 2 (the
    ratio sequence and the kernel values once went on past it)."""
    m, site = RecurrenceCoeffs(c=np.zeros(8), lam=[-1 + 1e-15] + [0.25] * 6), TransformPoint(1j)
    for call in (lambda: christoffel(m, site), lambda: kernel_eval(m, site, 4, 0.5 + 0.5j)):
        with pytest.raises(ExistenceError) as err:
            call()
        assert err.value.index == 2
    with pytest.raises(ZeroHitError) as err:
        ratio_sequence(m, 1j)
    assert (err.value.index, err.value.which) == (2, "P")
    with pytest.raises(FactorBreakdownError) as err:
        lu_factor(symmetrize(m), 1j)
    assert (err.value.index, err.value.which) == (1, "d")


@PROPERTY
@given(prefixes, kappas(), st.data())
def test_ratio_sequence_and_pivots_are_the_transform_ratio_run(m, kappa, data):
    """christoffel's ratios are ratio_sequence's bit for bit; the pivots
    -d_j and -t_j are the P and R ratios on J's monic form c = b, lambda = a^2."""
    s0star = data.draw(opposite_s0star(kappa))
    rho = ratio_sequence(m, kappa).values
    assert np.array_equal(christoffel(m, TransformPoint(kappa)).ratio_seq, rho)
    r = ratio_sequence(m, kappa, "R", s0star=s0star).values
    J = symmetrize(m)
    for got, ref in ((-lu_factor(J, kappa).d, rho), (-ul_factor(J, kappa, s0star / m.s0).t[1:], r[:-1])):
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


def _complex_prefix(n_max: int = N_MAX) -> RecurrenceCoeffs:
    rng = np.random.default_rng(7)
    c = 0.3 * (rng.uniform(-1, 1, n_max) + 1j * rng.uniform(-1, 1, n_max))
    lam = 0.25 + 0.1 * (rng.uniform(-1, 1, n_max - 1) + 1j * rng.uniform(-1, 1, n_max - 1))
    return RecurrenceCoeffs(c=c, lam=lam)


@pytest.mark.parametrize(
    "m", [family_coeffs("chebyshev2", N_MAX), nevai_prefix("chebyshev1", 11), _complex_prefix()],
    ids=["preset", "nevai", "complex"],
)
@pytest.mark.parametrize("offset", [0j, 0.4 - 0.7j])
def test_ratio_run_without_differences_keeps_the_ratios_bit_for_bit(m, offset):
    """diffs=False (ratio_sequence, lu_factor, ul_factor) skips e[k] and
    changes no bit of w[k]."""
    args = (m.c.tolist(), m.lam.tolist(), 0.3 + 0.5j, offset, m.n_max, "")
    w, e = polyeval._ratio_run(*args)
    w_only, e_only = polyeval._ratio_run(*args, diffs=False)
    assert np.array(w_only).tobytes() == np.array(w).tobytes() and len(w) == m.n_max
    assert e_only == e[:1]


def test_two_point_transforms_take_one_ratio_run_per_site(monkeypatch):
    run, calls = polyeval._ratio_run, []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return run(*args, **kwargs)

    for module in (polyeval, darboux, factorization):
        monkeypatch.setattr(module, "_ratio_run", counted)
    m = family_coeffs("chebyshev1", N_MAX)
    christoffel_two(m, TransformPoint(0.3 + 1j), TransformPoint(0.3 - 1j))
    assert calls == [0.3 + 1j, 0.3 - 1j]
    calls.clear()
    R2System(m, 0.3 + 1j)
    assert calls == [0.3 + 1j, 0.3 - 1j]
