"""Property tests of the zero sweep and of the two strip bounds.

Prefixes and sites come from the strategies of test_ratio_kernel: the four
presets and seeded real Nevai-class perturbations of them, kappa nonreal
with |Im kappa| down to 1e-3, and s0star in the closed half-plane opposite
kappa (where the Geronimus transform exists).

The two polishing routes are checked against the two-pass loop that polished
every zero before the symmetric route took one pass in real arithmetic
(``two_pass``, kept here): symmetric-route zeros against an mpmath
reference, nonsymmetric-route zeros bit for bit, and the real run of the
evaluator bit for bit against its complex run.
"""
import contextlib
import io
import json
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from darbouxjac import cli, spectral
from darbouxjac.core import (
    CHEBYSHEV_KINDS,
    RecurrenceCoeffs,
    family_coeffs,
    symmetric_jacobi_matrix,
    symmetrize,
)
from darbouxjac.darboux import TransformPoint, christoffel, christoffel_two, geronimus
from darbouxjac.polyeval import _scaled_run, ratio_sequence
from darbouxjac.spectral import (
    geronimus_zero_sweep,
    kernel_zero_sweep,
    strip_check,
    zero_sweep,
    zeros,
)
from test_ratio_kernel import (
    N_MAX,
    PROPERTY,
    double_route,
    kappas,
    nevai_prefix,
    opposite_s0star,
    prefixes,
)

long_prefixes = st.builds(
    nevai_prefix,
    st.sampled_from(CHEBYSHEV_KINDS),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    st.just(256),
)


def two_pass(m, degrees) -> dict:
    """{n: zeros} from the eigenvalues and two batched Newton steps in complex
    arithmetic over every degree, sorted as ZeroCloud sorts them."""
    degrees = sorted({n for n in degrees if n > 0})
    J = symmetrize(m)
    z = np.concatenate([spectral._eigvals(J, n) for n in degrees])
    stop = np.repeat(degrees, degrees)
    for _ in range(2):
        _, p, _, dp = _scaled_run(m, degrees[-1], z, 1.0, z - m.c[0], deriv=True, _stop=stop)
        z = z - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
    blocks = np.split(z, np.cumsum(degrees)[:-1])
    return {n: zn[np.lexsort((zn.imag, zn.real))] for n, zn in zip(degrees, blocks)}


def mp_zeros(m, n, points) -> list:
    """The zeros of P_n next to real points: one Newton step at 32 digits."""
    c, lam = [mp.mpf(float(x)) for x in m.c[:n].real], [mp.mpf(float(x)) for x in m.lam.real]
    out = []
    with mp.workdps(32):
        for x in map(mp.mpf, points):
            p_prev, p, d_prev, d = mp.mpf(1), x - c[0], mp.mpf(0), mp.mpf(1)
            for k in range(1, n):
                zc = x - c[k]
                p_prev, p, d_prev, d = (
                    p, zc * p - lam[k - 1] * p_prev, d, p + zc * d - lam[k - 1] * d_prev
                )
            out.append(x - p / d)
    return out


@PROPERTY
@given(prefixes, kappas(), st.data())
def test_zeros_lie_in_both_strips(m, kappa, data):
    """0 < ±Im z <= bound for every zero of P*_n and P^{-*}_n, n = 1..30."""
    s0star = data.draw(opposite_s0star(kappa))
    side = "upper" if kappa.imag > 0 else "lower"
    degrees = range(1, 31)
    for clouds in (
        kernel_zero_sweep(m, TransformPoint(kappa), degrees),
        geronimus_zero_sweep(m, TransformPoint(kappa, s0star=s0star), degrees),
    ):
        for cloud in clouds:
            rep = strip_check(cloud, cloud.strip_bound, side)
            assert rep.ok, (cloud.n, cloud.strip_bound, rep.violators)


@PROPERTY
@given(prefixes, kappas(), st.data(), st.lists(st.integers(1, N_MAX - 3), min_size=1, max_size=4))
def test_strip_bounds_follow_one_index_rule(m, kappa, data, degrees):
    """Both sweeps' strip bound is |1/Im(1/r)| bit for bit, with r of the
    degree-n polynomial P_{n+s} - r P_{n+s-1} read off ratio_sequence: r_{n+1}
    of P at kappa for the kernel (s = 1), r_n of R at (kappa, s0star) for
    Geronimus (s = 0).  s0star lies opposite kappa, on geronimus's double route."""
    s0star = data.draw(opposite_s0star(kappa))
    assume(double_route(m, kappa, s0star))
    p = ratio_sequence(m, kappa, "P").values  # p[k] = r_{k+1}
    r = ratio_sequence(m, kappa, "R", s0star=s0star).values

    def bound(ratio):
        return abs(1.0 / float((1.0 / ratio).imag))

    kernel = kernel_zero_sweep(m, TransformPoint(kappa), degrees)
    gero = geronimus_zero_sweep(m, TransformPoint(kappa, s0star=s0star), degrees)
    for n, k_cloud, g_cloud in zip(degrees, kernel, gero):
        assert k_cloud.strip_bound == bound(p[n])
        assert g_cloud.strip_bound == bound(r[n - 1])


@PROPERTY
@given(prefixes, kappas(), st.lists(st.integers(0, N_MAX - 2), min_size=1, max_size=8))
def test_sweep_is_bitwise_one_call_per_degree(m, kappa, degrees):
    """A degree's cloud does not depend on the other degrees of its sweep,
    on a real prefix (symmetric solver) and a transformed one (eigvals)."""
    for prefix in (m, christoffel(m, TransformPoint(kappa)).coeffs):
        for n, cloud in zip(degrees, zero_sweep(prefix, degrees)):
            one = zeros(prefix, n)
            assert cloud.n == n
            assert np.array_equal(cloud.zeros, one.zeros)
            assert cloud.max_im == one.max_im


@pytest.mark.parametrize("kind", CHEBYSHEV_KINDS)
@pytest.mark.parametrize("seed", [None, 11, 12])
def test_real_and_complex_routes_agree(kind, seed, monkeypatch):
    """On a real prefix, zeros from eigvalsh and from LAPACK eigvals agree
    within 1e-14 after the polish."""
    m = family_coeffs(kind, 256) if seed is None else nevai_prefix(kind, seed)
    degrees = [1, 2, 17, m.n_max // 2, m.n_max]
    real = zero_sweep(m, degrees)
    monkeypatch.setattr(
        spectral, "_eigvals", lambda J, size: np.linalg.eigvals(symmetric_jacobi_matrix(J, size))
    )
    general = zero_sweep(m, degrees)
    for a, b in zip(real, general):
        assert np.max(np.abs(a.zeros - b.zeros)) <= 1e-14


@PROPERTY
@given(long_prefixes, st.lists(st.integers(1, 256), min_size=1, max_size=3))
def test_symmetric_route_zeros_reach_the_two_pass_floor(m, degrees):
    """One real Newton step from the Gauss nodes is as accurate as the two
    complex steps before it, within 1 ulp of the largest zero: checked on up
    to 12 zeros per degree against a 32-digit reference."""
    before = two_pass(m, degrees)
    for n, cloud in zip(degrees, zero_sweep(m, degrees)):
        assert spectral._real_symmetric(symmetrize(m), n)
        assert not cloud.zeros.imag.any()
        pick = np.unique(np.linspace(0, n - 1, 12).round().astype(int))
        one, two = cloud.zeros.real[pick], before[n].real[pick]
        ref = mp_zeros(m, n, one)
        err_one = max(float(abs(mp.mpf(float(a)) - x)) for a, x in zip(one, ref))
        err_two = max(float(abs(mp.mpf(float(a)) - x)) for a, x in zip(two, ref))
        assert err_one <= err_two + np.spacing(np.max(np.abs(one))), (n, err_one, err_two)


@PROPERTY
@given(
    long_prefixes,
    st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=24),
    st.lists(st.integers(1, 256), min_size=24, max_size=24),
    st.booleans(),
    st.booleans(),
)
def test_real_run_is_bitwise_the_complex_run(m, logs, stops, deriv, envelope):
    """A real z over a real prefix runs in float64 and returns what the complex
    run returns: values, P', envelope and log_scale, bit for bit in every real
    part (|z| from 1e-8 to 1e8, so values decay and grow past the rescale
    window; signs alternate)."""
    z = np.array([(-1) ** i * 10.0**t for i, t in enumerate(logs)])
    stop = np.sort(stops[: len(z)])
    runs = [
        _scaled_run(m, int(stop[-1]), x, 1.0, x - m.c[0], deriv, envelope, _stop=stop)
        for x in (z, z.astype(complex))
    ]
    for real, cplx in zip(*runs):
        assert real.dtype == cplx.dtype
        assert np.array_equal(np.real(real).view(np.int64), np.real(cplx).view(np.int64))
        assert not np.imag(real).any() and not np.imag(cplx).any()


@PROPERTY
@given(prefixes, kappas(), st.data(), st.lists(st.integers(0, N_MAX - 4), min_size=1, max_size=6))
def test_nonsymmetric_route_keeps_two_passes(m, kappa, data, degrees):
    """Kernel and Geronimus sweeps (eigvals) equal the two-pass loop bit for bit."""
    s0star = data.draw(opposite_s0star(kappa))
    for tc in (christoffel(m, TransformPoint(kappa)), geronimus(m, TransformPoint(kappa, s0star))):
        before = two_pass(tc.coeffs, degrees) if any(degrees) else {}
        for n, cloud in zip(degrees, zero_sweep(tc.coeffs, degrees)):
            if n:
                assert not spectral._real_symmetric(symmetrize(tc.coeffs), n)
                assert np.array_equal(cloud.zeros, before[n])


def test_mixed_routes_polish_apart():
    """On a prefix whose leading block is real, the real degrees take one pass
    and the others two, each as if swept alone."""
    m = family_coeffs("chebyshev2", 40)
    c = m.c.copy()
    c[12:] += 0.1j
    mixed = RecurrenceCoeffs(c=c, lam=m.lam, s0=m.s0)
    sweep = zero_sweep(mixed, [5, 12, 13, 30])
    assert np.array_equal(sweep[0].zeros, zeros(m, 5).zeros)
    assert np.array_equal(sweep[1].zeros, zeros(m, 12).zeros)
    for cloud in sweep[2:]:
        assert np.array_equal(cloud.zeros, two_pass(mixed, [cloud.n])[cloud.n])


@pytest.mark.parametrize(
    "route, runs",
    [("plain", [False] * 2), ("transformed", [True] * 3), ("kernel", [False] + [True] * 3)],
)
def test_evaluator_runs_per_sweep(route, runs, monkeypatch):
    """Gauss nodes: one Newton run and the certificate; eigvals zeros: two and
    the certificate, whatever the number of degrees.  A kernel sweep on a real
    base adds one real run, the base rule of its secular degrees (40, 62)."""
    m = family_coeffs("chebyshev3", 64)
    site = TransformPoint(0.3 + 0.5j)
    if route == "transformed":
        m = christoffel(m, site).coeffs
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.iscomplexobj(args[2]))
        return _scaled_run(*args, **kwargs)

    monkeypatch.setattr(spectral, "_scaled_run", counted)
    if route == "kernel":
        kernel_zero_sweep(m, site, [3, 17, 40, 62])
    else:
        zero_sweep(m, [3, 17, 40, 62])
    assert calls == runs


def transformed_sweeps(m, kappa, s0star, degrees):
    """(sweep clouds, transform) for the kernel and the Geronimus sweep."""
    kernel = TransformPoint(kappa)
    gero = TransformPoint(kappa, s0star=s0star)
    return (
        (kernel_zero_sweep(m, kernel, degrees), christoffel(m, kernel)),
        (geronimus_zero_sweep(m, gero, degrees), geronimus(m, gero)),
    )


def newton_floor(m, n, zeros) -> float:
    """The largest step one more Newton step would take from these polished
    zeros of P_n: the rounding floor of the polish at degree n."""
    _, p, _, dp = _scaled_run(m, n, zeros, 1.0, zeros - m.c[0], deriv=True)
    return float(np.max(np.abs(p / dp)))


def assert_same_set(zeros_a, zeros_b, atol=0.0):
    """Each zero of a has its own nearest zero of b within
    1e-14 max(1, |z|) + atol."""
    dist = np.abs(zeros_a[:, None] - zeros_b[None, :])
    near = dist.argmin(axis=1)
    assert len(set(near.tolist())) == len(zeros_a)
    gap = dist[np.arange(len(zeros_a)), near] - 1e-14 * np.maximum(1.0, np.abs(zeros_a))
    assert gap.max(initial=0.0) <= atol, (gap.max(), atol)


def sweep_records(caplog) -> list:
    """The DEBUG records of the transformed sweeps, in order."""
    return [r for r in caplog.records if hasattr(r, "routes")]


secular_degrees = st.lists(st.integers(1, 128), min_size=1, max_size=2)


@PROPERTY
@given(long_prefixes, kappas(), st.data(), secular_degrees)
def test_secular_route_matches_eigvals(m, kappa, data, degrees):
    """Kernel and Geronimus zeros from the corner-modified secular solve
    equal the eigvals ones (two_pass) as sets, within 1e-14 max(1, |z|) plus
    four times the floor of the Newton polish that both routes end with.
    That floor is below 1e-15 away from the support, but next to it the
    polish cannot do better than ~1e-12 from any start: at kappa = 0.001i,
    chebyshev1, degree 32, the kernel zeros of both routes are off by up to
    1.1e-12 from a 40-digit Newton run on the same coefficients (the floor
    here is 7.4e-13 and the two routes differ by 6.2e-13)."""
    s0star = data.draw(opposite_s0star(kappa))
    for clouds, tc in transformed_sweeps(m, kappa, s0star, degrees):
        before = two_pass(tc.coeffs, degrees)
        for cloud in clouds:
            floor = newton_floor(tc.coeffs, cloud.n, before[cloud.n])
            assert_same_set(cloud.zeros, before[cloud.n], 4 * floor)


@PROPERTY
@given(long_prefixes, kappas(), st.data(), secular_degrees)
def test_one_degree_clouds_are_the_sweeps(m, kappa, data, degrees):
    s0star = data.draw(opposite_s0star(kappa))
    site = TransformPoint(kappa, s0star=s0star)
    for sweep, single in (
        (kernel_zero_sweep, spectral.kernel_zero_cloud),
        (geronimus_zero_sweep, spectral.geronimus_zero_cloud),
    ):
        for n, cloud in zip(degrees, sweep(m, site, degrees)):
            one = single(m, site, n)
            assert np.array_equal(cloud.zeros, one.zeros)
            assert cloud.strip_bound == one.strip_bound


@PROPERTY
@given(long_prefixes, kappas(), st.data(), secular_degrees)
def test_a_transform_is_swept_by_its_steps(m, kappa, data, degrees):
    """A one-step transform of the leading max(n_list) + 3 terms gives the
    kernel and Geronimus sweeps' clouds bit for bit, strip bounds included,
    and Geronimus degree 0, which has no corner, no strip bound.  A two-step
    transform is swept as its coeffs, with no strip bound: its ratio_seq is
    its first step's."""
    site = TransformPoint(kappa, s0star=data.draw(opposite_s0star(kappa)))
    lead = m.truncated(max(degrees) + 3)
    for sweep, step in ((kernel_zero_sweep, christoffel), (geronimus_zero_sweep, geronimus)):
        for cloud, want in zip(zero_sweep(step(lead, site), degrees), sweep(m, site, degrees)):
            assert np.array_equal(cloud.zeros, want.zeros)
            assert cloud.max_im == want.max_im and cloud.strip_bound == want.strip_bound
    assert zeros(geronimus(lead, site), 0).strip_bound is None
    two = christoffel_two(m, site, TransformPoint(kappa.conjugate()))
    for cloud, want in zip(zero_sweep(two, degrees), zero_sweep(two.coeffs, degrees)):
        assert cloud.strip_bound is None and np.array_equal(cloud.zeros, want.zeros)


def test_geronimus_cloud_is_the_sweeps_next_to_the_cauchy_value():
    """geronimus takes its route and crossover from the whole prefix it is
    given, so next to the Cauchy value a transform of all 48 terms and one of
    the leading n + 3 differ in their last bits; the one-degree cloud reads
    the sweep's leading terms, and so has its zeros bit for bit."""
    m = family_coeffs("chebyshev1", 48)
    site = TransformPoint(0.915 - 0.2654j, s0star=-0.7254846054581703 - 1.1531464994394058j)
    one = spectral.geronimus_zero_cloud(m, site, 23)
    swept = geronimus_zero_sweep(m, site, [9, 23])[1]
    assert np.array_equal(one.zeros, swept.zeros)
    assert one.strip_bound == swept.strip_bound


@PROPERTY
@given(long_prefixes, kappas(), st.data(), st.lists(st.integers(1, 64), min_size=1, max_size=3))
def test_iteration_cap_zero_gives_the_eigvals_clouds(m, kappa, data, degrees):
    """With no Aberth iteration allowed every degree falls back, and the
    clouds are the two-pass eigvals clouds bit for bit."""
    s0star = data.draw(opposite_s0star(kappa))
    with pytest.MonkeyPatch.context() as mp_:
        mp_.setattr(spectral, "_ABERTH_MAX_ITER", 0)
        for clouds, tc in transformed_sweeps(m, kappa, s0star, degrees):
            before = two_pass(tc.coeffs, degrees)
            for cloud in clouds:
                assert np.array_equal(cloud.zeros, before[cloud.n])


@pytest.mark.parametrize("real_base", [True, False])
def test_real_base_takes_the_secular_route(real_base, monkeypatch, caplog):
    """On a real base the degrees from 32 up call no eigvals; on a complex
    base every degree does."""
    m = family_coeffs("chebyshev1", 256)
    if not real_base:
        m = christoffel(m, TransformPoint(2 + 1j)).coeffs
    degrees = [10, 40, 90]
    calls = []

    def counted(a):
        calls.append(len(a))
        return eigvals(a)

    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    caplog.set_level("DEBUG", logger="darbouxjac")
    site = TransformPoint(0.3 + 0.5j, s0star=0.8 - 0.4j)
    for sweep in (kernel_zero_sweep, geronimus_zero_sweep):
        calls.clear()
        sweep(m, site, degrees)
        record = sweep_records(caplog)[-1]
        if real_base:
            assert calls == [10]
            assert record.routes == {
                10: "eigvals: below crossover", 40: "secular", 90: "secular"}
            assert record.fallbacks == 0 and set(record.aberth_iterations) == {40, 90}
        else:
            assert calls == degrees
            assert record.routes == {10: "eigvals: below crossover",
                                     40: "eigvals: complex base", 90: "eigvals: complex base"}
            assert record.aberth_iterations == {}


def test_equal_starts_trip_the_trace_check(monkeypatch, caplog):
    """Two roots started together converge to one zero; the root sum then
    misses the trace, and the degree falls back to eigvals."""
    m = family_coeffs("chebyshev2", 256)
    site = TransformPoint(-0.4 + 0.3j, s0star=1.0 - 0.5j)
    aberth = spectral._aberth

    def equal_starts(x, q2, delta, z, known=None):
        z = z.copy()
        z[1] = z[0]
        return aberth(x, q2, delta, z, known)

    monkeypatch.setattr(spectral, "_aberth", equal_starts)
    caplog.set_level("DEBUG", logger="darbouxjac")
    sweeps = transformed_sweeps(m, site.kappa, site.s0star, [48, 96])
    assert [r.routes for r in sweep_records(caplog)] == [
        {48: "eigvals: trace", 96: "eigvals: trace"}] * 2
    for clouds, tc in sweeps:
        before = two_pass(tc.coeffs, [48, 96])
        for cloud in clouds:
            assert np.array_equal(cloud.zeros, before[cloud.n])


def test_a_capped_degree_sends_the_larger_ones_to_eigvals(monkeypatch, caplog):
    """Far from the support Aberth iterations grow with n, and at 1000i degree
    32 already hits the cap: the larger degrees then run no Aberth iteration,
    and every cloud is the two-pass eigvals cloud bit for bit."""
    m, site, degrees = family_coeffs("chebyshev1", 256), TransformPoint(1000j), [32, 64, 96, 128]
    aberth, sizes = spectral._aberth, []

    def counted(x, *args):
        sizes.append(len(x))
        return aberth(x, *args)

    monkeypatch.setattr(spectral, "_aberth", counted)
    caplog.set_level("DEBUG", logger="darbouxjac")
    clouds = kernel_zero_sweep(m, site, degrees)
    assert sizes == [33]
    record = sweep_records(caplog)[-1]
    assert record.routes == {32: "eigvals: iteration cap",
                             **dict.fromkeys([64, 96, 128], "eigvals: above a capped degree")}
    assert record.aberth_iterations == {32: spectral._ABERTH_MAX_ITER} and record.fallbacks == 1
    before = two_pass(christoffel(m, site).coeffs, degrees)
    for cloud in clouds:
        assert np.array_equal(cloud.zeros, before[cloud.n])


@pytest.mark.parametrize("kappa", [1000j, 0.5 + 0.001j, 1.2 + 1e-6j])
def test_far_and_near_support_sites_warn_nothing(kappa):
    """Sites far from and next to the support: no RuntimeWarning, whichever
    route each degree takes, and the eigvals zeros as sets (with the floor of
    ``test_secular_route_matches_eigvals``)."""
    m = family_coeffs("chebyshev3", 256)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sweeps = transformed_sweeps(m, kappa, 0.8 - 0.4j, [40, 120])
    for clouds, tc in sweeps:
        before = two_pass(tc.coeffs, [40, 120])
        for cloud in clouds:
            floor = newton_floor(tc.coeffs, cloud.n, before[cloud.n])
            assert_same_set(cloud.zeros, before[cloud.n], 4 * floor)


def old_zeros_text(clouds, extras, cluster_cols: bool, fmt: str) -> str:
    """The zeros output as cmd_zeros formatted it row by row."""
    rows = [
        [cloud.n, float(z.real), float(z.imag), *extra]
        for cloud, extra in zip(clouds, extras)
        for z in cloud.zeros
    ]
    header = ["n", "re", "im"] + (["cluster_dist", "ln_cluster_dist"] if cluster_cols else [])
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"
    return json.dumps({"v": 1, "columns": header, "rows": rows}, sort_keys=True) + "\n"


@PROPERTY
@given(
    st.sampled_from(CHEBYSHEV_KINDS),
    st.sampled_from(("plain", "christoffel", "geronimus")),
    kappas(),
    st.data(),
    st.lists(st.integers(1, N_MAX - 2), min_size=1, max_size=4),
    st.sampled_from(("csv", "json")),
)
def test_zeros_output_bytes_are_the_old_formatter(kind, what, kappa, data, degrees, fmt):
    s0star = data.draw(opposite_s0star(kappa))
    m = family_coeffs(kind, N_MAX)
    argv = ["zeros", f"--family={kind}", f"--n-max={N_MAX}", f"--kind={what}",
            f"--kappa={kappa.real!r}{'-' if kappa.imag < 0 else '+'}{abs(kappa.imag)!r}i",
            f"--s0star={s0star.real!r}{'-' if s0star.imag < 0 else '+'}{abs(s0star.imag)!r}i",
            f"--n-list={','.join(map(str, degrees))}", f"--format={fmt}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    extras = [()] * len(degrees)
    if what == "plain":
        clouds = zero_sweep(m, degrees)
    elif what == "christoffel":
        clouds = kernel_zero_sweep(m, TransformPoint(kappa), degrees)
    else:
        site = TransformPoint(kappa, s0star=s0star)
        extras = [spectral.cluster_distance(m, site, n)[1:] for n in degrees]
        clouds = geronimus_zero_sweep(m, site, degrees)
    assert out.getvalue() == old_zeros_text(clouds, extras, what == "geronimus", fmt)
