"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s or -rP to see them).
The ratio-asymptotics criterion reads its site and tolerance from the
constants of ``darbouxjac.cli``, which ``verify`` checks at, so the two cannot
drift apart.
"""
import time

import numpy as np
import pytest

from darbouxjac import cli
from darbouxjac._quadrature import gauss_nodes
from darbouxjac.core import CHEBYSHEV_KINDS, family_coeffs, symmetrize
from darbouxjac.darboux import (
    TransformPoint,
    cauchy_s0star,
    christoffel,
    christoffel_two,
    geronimus,
)
from darbouxjac.factorization import build_JC, build_JG, lu_factor, ul_factor
from darbouxjac.polyeval import eval_P
from darbouxjac.rseq import (
    GeronimusPairQuasi,
    R1System,
    R2System,
    sample_points,
    varying_measure_polys,
)
from darbouxjac.spectral import (
    geronimus_zero_cloud,
    kernel_zero_cloud,
    ratio_asymptotic_check,
    strip_check,
    verify_m_identities,
    zero_dynamics,
    zeros,
)

REPORT = []


def record(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    REPORT.append(line)
    print(line)
    assert ok, line


def test_criterion_01_fibonacci_closed_form(cheb2):
    start = time.perf_counter()
    tc = christoffel(cheb2, TransformPoint(0.5j))
    fib = [1, 1]
    while len(fib) < 45:
        fib.append(fib[-1] + fib[-2])
    worst = 0.0
    for n in range(1, 41):
        lam_expect = (-1) ** (n - 1) / (4 * fib[n] ** 2) + 0.25
        c_expect = 1j * (-1) ** n / (2 * fib[n] * fib[n + 1])
        worst = max(worst, abs(tc.coeffs.lam_n(n + 1) - lam_expect) / abs(lam_expect))
        worst = max(worst, abs(tc.coeffs.c_n(n + 1) - c_expect) / abs(c_expect))
    elapsed = time.perf_counter() - start
    record(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"Fibonacci-Christoffel closed form: rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_zero_strips(cheb1):
    start = time.perf_counter()
    worst_note = "all strips hold"
    ok = True
    for kappa in (1j, 1 + 1j):
        site_c = TransformPoint(kappa)
        site_g = TransformPoint(kappa, s0star=1.0)
        for n in range(1, 31):
            for cloud in (
                kernel_zero_cloud(cheb1, site_c, n),
                geronimus_zero_cloud(cheb1, site_g, n),
            ):
                rep = strip_check(cloud, cloud.strip_bound, "upper")
                if not rep.ok:
                    ok = False
                    worst_note = f"violation at kappa={kappa}, n={n}"
    elapsed = time.perf_counter() - start
    record(2, ok and elapsed < 10.0, f"zero strips n<=30: {worst_note}, {elapsed:.2f}s")


def test_criterion_03_zero_collapse(cheb1):
    tc = christoffel(cheb1, TransformPoint(1j))
    m10 = zeros(tc.coeffs, 10).max_im
    m60 = zeros(tc.coeffs, 60).max_im
    record(
        3,
        m60 < m10 and m60 < 0.05,
        f"kernel zero collapse: max Im {m10:.4f} (n=10) -> {m60:.4f} (n=60)",
    )


def test_criterion_04_geronimus_cluster(cheb1):
    site = TransformPoint(1j, s0star=1.0)
    rep = zero_dynamics(cheb1, site, "geronimus", range(10, 101))
    ok = bool(rep.strictly_decreasing and rep.fit_r2 > 0.9)
    record(
        4,
        ok,
        f"cluster |xi_n - i| strictly decreasing n=10..100, "
        f"ln fit R^2={rep.fit_r2:.6f}, slope={rep.fit_slope:.3f}",
    )


def test_criterion_05_matrix_polynomial_agreement(presets):
    worst = 0.0
    nb = 50
    for m in presets.values():
        J = symmetrize(m)
        for kappa in (1j, 1 + 1j, -2j):
            JC = build_JC(lu_factor(J, kappa))
            S = symmetrize(christoffel(m, TransformPoint(kappa)).coeffs)
            worst = max(worst, float(np.max(np.abs(JC.b[:nb] - S.b[:nb]))))
            worst = max(
                worst,
                float(
                    np.max(
                        np.minimum(
                            np.abs(JC.a[:nb] - S.a[:nb]), np.abs(JC.a[:nb] + S.a[:nb])
                        )
                    )
                ),
            )
            JG = build_JG(ul_factor(J, kappa, 1.0))
            SG = symmetrize(geronimus(m, TransformPoint(kappa, s0star=1.0)).coeffs)
            worst = max(worst, float(np.max(np.abs(JG.b[:nb] - SG.b[:nb]))))
            worst = max(
                worst,
                float(
                    np.max(
                        np.minimum(
                            np.abs(JG.a[:nb] - SG.a[:nb]), np.abs(JG.a[:nb] + SG.a[:nb])
                        )
                    )
                ),
            )
    record(5, worst <= 1e-10, f"J_C/J_G vs symmetrized transforms: max diff {worst:.2e}")


def test_criterion_06_m_function_identities(cheb1, cheb2):
    worst = 0.0
    for m in (cheb1, cheb2):
        rep = verify_m_identities(m, TransformPoint(1j, s0star=1.0), 20)
        worst = max(worst, rep.max_residual)
    record(6, worst <= 1e-9, f"m-function identities order 20: max residual {worst:.2e}")


def test_criterion_07_truncation_spectra(cheb1):
    J = symmetrize(cheb1)
    ev_c = zeros(build_JC(lu_factor(J, 1j)).to_monic(), 100).zeros
    dist_c = np.sqrt(np.maximum(np.abs(ev_c.real) - 1, 0) ** 2 + ev_c.imag**2)
    ev_g = zeros(build_JG(ul_factor(J, 1j, 1.0)).to_monic(), 100).zeros
    near = np.abs(ev_g - 1j)
    k = int(np.argmin(near))
    rest = np.delete(ev_g, k)
    dist_g = np.sqrt(np.maximum(np.abs(rest.real) - 1, 0) ** 2 + rest.imag**2)
    ok = float(np.max(dist_c)) < 0.05 and near[k] < 1e-3 and float(np.max(dist_g)) < 0.05
    record(
        7,
        ok,
        f"size-100 truncation proxies: J_C within {np.max(dist_c):.3f} of [-1,1], "
        f"J_G eigenvalue at distance {near[k]:.1e} from i",
    )


def test_criterion_08_r1_r2_identities(cheb1):
    zs = sample_points(20)
    worst = 0.0
    ns = np.arange(1, 41)
    for kappa2 in (-1j, 1 - 1j):
        sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(kappa2))
        worst = max(worst, float(np.max(sys1.residuals(ns, zs))))
    for kappa2 in (-1j, 1 - 1j):
        pair = GeronimusPairQuasi(cheb1, kappa2)
        sys2 = R2System(cheb1, 1j)
        worst = max(worst, float(np.max(sys2.residuals(ns, zs, *pair.quasi(ns)))))
    record(8, worst <= 1e-9, f"R_I/R_II identities n<=40, 20 points: max residual {worst:.2e}")


def test_criterion_09_inverse_pair_roundtrip(presets):
    worst = 0.0
    for m in presets.values():
        for s0star in (1.0, cauchy_s0star(m, 1j)):
            g = geronimus(m, TransformPoint(1j, s0star=s0star))
            rt = christoffel(g, TransformPoint(1j))
            L = rt.coeffs.n_max
            worst = max(worst, float(np.max(np.abs(rt.coeffs.c - m.c[:L]))))
            worst = max(worst, float(np.max(np.abs(rt.coeffs.lam - m.lam[: L - 1]))))
    record(9, worst <= 1e-10, f"christoffel(geronimus(m)) = m: max entry diff {worst:.2e}")


def test_criterion_10_two_point_christoffel(cheb1):
    k1, k2 = 1j, -1j
    tc = christoffel_two(cheb1, TransformPoint(k1), TransformPoint(k2))
    imag_part = max(
        float(np.max(np.abs(tc.coeffs.c.imag))), float(np.max(np.abs(tc.coeffs.lam.imag)))
    )
    rng = np.random.default_rng(0x5EED)
    zs = rng.standard_normal(10) + 1j * (rng.standard_normal(10) + 1.5)
    worst = 0.0
    for n in (1, 3, 7, 12):
        p = [eval_P(cheb1, n + j, k1) for j in (2, 1, 0)]
        q = [eval_P(cheb1, n + j, k2) for j in (2, 1, 0)]
        delta = p[1] * q[2] - q[1] * p[2]
        for z in zs:
            row = [eval_P(cheb1, n + j, z) for j in (2, 1, 0)]
            det3 = np.linalg.det(np.array([p, q, row]))
            expect = det3 / ((z - k1) * (z - k2) * delta)
            got = eval_P(tc.coeffs, n, z)
            worst = max(worst, abs(got - expect) / max(1.0, abs(expect)))
    ok = worst <= 1e-10 and imag_part <= 1e-12
    record(
        10,
        ok,
        f"two-point Christoffel: determinant formula rel err {worst:.2e}, "
        f"prefix imag {imag_part:.2e}",
    )


def test_criterion_11_ratio_asymptotics(cheb1):
    z, n_check, tol = cli.RATIO_Z, cli.RATIO_N, cli.RATIO_TOL
    assert tol <= 1e-12
    tc = christoffel(cheb1, TransformPoint(cli.RATIO_KAPPA))
    err_c = float(ratio_asymptotic_check(tc.coeffs, [z], n_check).errors[0])
    tg = geronimus(cheb1, TransformPoint(cli.RATIO_KAPPA, s0star=cli.RATIO_S0STAR))
    err_g = float(ratio_asymptotic_check(tg.coeffs, [z], n_check).errors[0])
    record(
        11,
        err_c <= tol and err_g <= tol,
        f"ratio asymptotics at n={n_check}, z={z}: christoffel {err_c:.2e}, "
        f"geronimus {err_g:.2e} (<= {tol:.1e})",
    )


def test_criterion_12_varying_measure_orthogonality(cheb1):
    out = varying_measure_polys(cheb1, [1j, 1 + 1j], 5)
    x, w = gauss_nodes("chebyshev1", 4096)
    dens = w / (np.abs(x - 1j) ** 2 * np.abs(x - (1 + 1j)) ** 2)
    p5 = np.array([eval_P(out.coeffs, 5, t) for t in x])
    worst = max(abs(np.sum(p5 * x**mdeg * dens)) for mdeg in range(5))
    record(12, worst <= 1e-8, f"varying-measure P_5 orthogonality: max residual {worst:.2e}")


@pytest.fixture(scope="session", autouse=True)
def summary():
    yield
    if REPORT:
        print("\n" + "\n".join(REPORT))
