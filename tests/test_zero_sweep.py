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

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darbouxjac import cli, spectral
from darbouxjac.core import (
    CHEBYSHEV_KINDS,
    RecurrenceCoeffs,
    family_coeffs,
    symmetric_jacobi_matrix,
    symmetrize,
)
from darbouxjac.darboux import TransformPoint, christoffel, geronimus
from darbouxjac.polyeval import _scaled_run
from darbouxjac.spectral import (
    geronimus_zero_sweep,
    kernel_zero_sweep,
    strip_check,
    zero_sweep,
    zeros,
)
from test_ratio_kernel import N_MAX, PROPERTY, kappas, nevai_prefix, opposite_s0star, prefixes

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


@pytest.mark.parametrize("transformed, runs", [(False, 2), (True, 3)])
def test_evaluator_runs_per_sweep(transformed, runs, monkeypatch):
    """Gauss nodes: one Newton run and the certificate; eigvals zeros: two and
    the certificate, whatever the number of degrees."""
    m = family_coeffs("chebyshev3", 64)
    if transformed:
        m = christoffel(m, TransformPoint(0.3 + 0.5j)).coeffs
    calls = []

    def counted(*args, **kwargs):
        calls.append(np.iscomplexobj(args[2]))
        return _scaled_run(*args, **kwargs)

    monkeypatch.setattr(spectral, "_scaled_run", counted)
    zero_sweep(m, [3, 17, 40, 62])
    assert calls == [transformed] * runs


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
