import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import darbouxjac
from darbouxjac import rseq
from darbouxjac._quadrature import gauss_nodes
from darbouxjac.cli import _suite_r2
from darbouxjac.core import RecurrenceCoeffs, family_coeffs
from darbouxjac import darboux
from darbouxjac.darboux import (GeronimusChain, TransformPoint, cauchy_s0star, christoffel,
                                geronimus, geronimus_cauchy)
from darbouxjac.errors import (
    ConfigurationError,
    DegeneracyError,
    ExistenceError,
    PoleError,
    PrefixError,
    QuadratureError,
    ResidualCheckError,
)
from darbouxjac.polyeval import _scaled_run, eval_P, ratio_sequence
from darbouxjac.rseq import (
    GeronimusPairQuasi,
    R1System,
    R2System,
    r1_general,
    r2_coeffs,
    rational_eval,
    sample_points,
    varying_measure_polys,
)
from test_ratio_kernel import (
    N_MAX,
    PROPERTY,
    broken_at,
    kappas,
    nevai_prefix,
    opposite_s0star,
    prefixes,
)
from test_zero_sweep import long_prefixes

ZS = sample_points(20)


def gero_ratios(m, k2: TransformPoint) -> np.ndarray:
    """The R-ratios of the Geronimus step at k2 from the full transform, the
    reference for R1System's: geronimus_cauchy when k2 has no s0star."""
    return (geronimus(m, k2) if k2.s0star is not None else geronimus_cauchy(m, k2.kappa)).ratio_seq


def p_ratios(m, kappa1: complex) -> np.ndarray:
    """rho[n-1] = P_n/P_{n-1} at kappa1 over the whole prefix, the reference
    for the P-ratios R1System reads."""
    return ratio_sequence(m, kappa1, "P").values


class TestSamplePoints:
    def test_reproducible(self):
        a = sample_points(10)
        b = sample_points(10)
        assert np.all(a == b)

    def test_annulus_off_axis(self):
        zs = sample_points(50)
        assert np.all(np.abs(zs) >= 1.5) and np.all(np.abs(zs) <= 3.0)
        assert np.all(np.abs(zs.imag) >= 0.5)

    def test_same_points_as_the_scalar_draws(self):
        """The batched draws read the generator stream the one-pair-at-a-time
        loop read: the same points, bit for bit, and for no points the empty
        float64 array the loop returned."""

        def loop(count):
            rng = np.random.default_rng(0x5EED)
            out = []
            while len(out) < count:
                radius = rng.uniform(1.5, 3.0)
                angle = rng.uniform(0.0, 2.0 * np.pi)
                z = radius * np.exp(1j * angle)
                if abs(z.imag) >= 0.5:
                    out.append(z)
            return np.array(out)

        for count in range(121):
            got, ref = sample_points(count), loop(count)
            assert got.dtype == ref.dtype and got.shape == (count,), count
            assert got.tobytes() == ref.tobytes(), count
        assert sample_points(0).dtype == np.float64


class TestR1:
    def test_beta1(self, cheb1):
        sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(-1j, s0star=1.0))
        _, (beta,) = sys1.coeffs([1])
        assert abs(beta - 0.5j) < 1e-14

    def test_residuals_conjugate_pair(self, cheb1):
        sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(-1j))
        assert np.all(sys1.residuals(range(1, 41), ZS) <= 1e-9)

    def test_residuals_mixed_point(self, cheb1):
        sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(1 - 1j))
        assert np.all(sys1.residuals([1, 10, 25, 40], ZS) <= 1e-9)

    def test_uniqueness_perturbation(self, cheb1):
        k2 = TransformPoint(-1j, s0star=1.0)
        sys1 = R1System(cheb1, TransformPoint(1j), k2)
        n = 12
        (alpha,), (beta,) = sys1.coeffs([n])
        tilde_A, rho_n = -gero_ratios(cheb1, k2)[n], p_ratios(cheb1, 1j)[n - 1]
        res = rseq._ri_residuals(cheb1, np.array([n]), ZS[:10], tilde_A, alpha + 1e-6, beta, rho_n)
        assert res.max() >= 1e-7

    def test_nevai_limits(self, cheb1):
        # alpha_n -> c + f(kappa2) + a/f(kappa1), beta_n -> -a/f(kappa1);
        # the convergence itself plus the limit-value cross-check
        from darbouxjac.spectral import ratio_limit_f

        k1, k2 = 1j, -1j
        sys1 = R1System(cheb1, TransformPoint(k1), TransformPoint(k2, s0star=1.0))
        a, c = 0.25, 0.0
        alpha_lim = c + ratio_limit_f(a, c, k2) + a / ratio_limit_f(a, c, k1)
        beta_lim = -a / ratio_limit_f(a, c, k1)
        (alpha150, alpha200), (beta150, beta200) = sys1.coeffs([150, 200])
        assert abs(alpha200 - alpha150) < 1e-6
        assert abs(beta200 - beta150) < 1e-6
        assert abs(alpha200 - alpha_lim) < 1e-8
        assert abs(beta200 - beta_lim) < 1e-8

    def test_general_reduces_to_geronimus_choice(self, cheb1):
        k1 = TransformPoint(1j)
        k2 = TransformPoint(-1j, s0star=1.0)
        sys1 = R1System(cheb1, k1, k2)
        ns = [1, 5, 17]
        for n, alpha, beta in zip(ns, *sys1.coeffs(ns)):
            gen_alpha, gen_beta = r1_general(cheb1, k1, -gero_ratios(cheb1, k2)[n], n)
            assert abs(gen_alpha - alpha) < 1e-12
            assert abs(gen_beta - beta) < 1e-12

    def test_general_zero_tilde(self, cheb1):
        # tilde_A = 0 means T_{n+1} = P_{n+1}: the relation still closes
        _, beta = r1_general(cheb1, TransformPoint(1j), 0.0, 8)
        assert beta != 0

    def test_general_random_tilde(self, cheb1):
        rng = np.random.default_rng(11)
        for n in (3, 9, 21):
            tilde = complex(rng.normal(), rng.normal())
            r1_general(cheb1, TransformPoint(1j), tilde, n)  # its n+2-point verification must pass


class TestR2:
    def test_rho_is_one_plus_upsilon(self, cheb1):
        pair = GeronimusPairQuasi(cheb1, -1j)
        sys2 = R2System(cheb1, 1j)
        ns = [1, 4, 12]
        rho, _, upsilon = sys2.coeffs(ns, *pair.quasi(ns))
        assert np.all(rho == 1 + upsilon)

    def test_tilde_D_equal_lambda_gives_upsilon_zero(self, cheb1):
        sys2 = R2System(cheb1, 1j)
        n = 6
        (rho,), _, (upsilon,) = sys2.coeffs([n], 0.3 - 0.2j, cheb1.lam_n(n + 1))
        assert upsilon == 0
        assert rho == 1

    def test_conjugate_pair_residuals(self, cheb1):
        pair = GeronimusPairQuasi(cheb1, -1j)
        sys2 = R2System(cheb1, 1j)
        ns = np.arange(1, 31)
        assert np.all(sys2.residuals(ns, ZS, *pair.quasi(ns)) <= 1e-9)

    def test_mixed_pair_residuals(self, cheb1):
        # kappa2 = 1-i: Geronimus pair at (1-i, 1+i), kernel pair at (i, -i)
        pair = GeronimusPairQuasi(cheb1, 1 - 1j)
        sys2 = R2System(cheb1, 1j)
        ns = [1, 8, 20, 30]
        assert np.all(sys2.residuals(ns, ZS, *pair.quasi(ns)) <= 1e-9)

    def test_r2_coeffs_public_wrapper(self, cheb1):
        (tilde_C,), (tilde_D,) = GeronimusPairQuasi(cheb1, -1j).quasi([5])
        rho, _, upsilon = r2_coeffs(cheb1, TransformPoint(1j), tilde_C, tilde_D, 5)
        assert rho == 1 + upsilon

    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_r2_coeffs_transforms_only_the_leading_terms(self, cheb1, monkeypatch, n):
        """r2_coeffs at degree n transforms the leading max(n + 4, 6) terms,
        and its coefficients and residuals are the full prefix's, bit for bit."""
        (tilde_C,), (tilde_D,) = GeronimusPairQuasi(cheb1, -1j).quasi([n])
        full = R2System(cheb1, 1j)
        sizes = []

        def spy(m, site):
            sizes.append(m.n_max)
            return christoffel(m, site)

        monkeypatch.setattr(rseq, "christoffel", spy)
        rc = r2_coeffs(cheb1, TransformPoint(1j), tilde_C, tilde_D, n)
        assert sizes == [max(n + 4, 6), max(n + 4, 6) - 2]
        assert rc == tuple(x[0] for x in full.coeffs([n], tilde_C, tilde_D))
        zs = sample_points(n + 3)
        lead = rseq.leading_r2_system(cheb1, 1j, n)
        assert np.array_equal(lead.residuals([n], zs, tilde_C, tilde_D),
                              full.residuals([n], zs, tilde_C, tilde_D))


def chain_pair(m, kappa):
    """The conjugate pair's two steps as GeronimusChain takes them."""
    chain = GeronimusChain(m)
    chain.apply(kappa)
    chain.apply(np.conj(kappa))
    return chain


class TestGeronimusPair:
    @PROPERTY
    @given(prefixes, kappas())
    def test_pair_is_bitwise_the_chain(self, m, kappa):
        """A, A' and both Cauchy values are the two chain steps', and the step
        prefix of varying_measure_polys (on m without its weight, so with no
        quadrature) is the chain's result, bit for bit."""
        pair, chain = GeronimusPairQuasi(m, kappa), chain_pair(m, kappa)
        assert pair.s0star == chain.steps[0]["s0star"]
        assert pair.s0starstar == chain.steps[1]["s0star"]
        for got, step in zip((pair.A, pair.Ap), chain.steps):
            assert np.array_equal(got, np.concatenate(([0j], -step["ratio_seq"])))
        ref = chain.coeffs()
        got = varying_measure_polys(RecurrenceCoeffs(c=m.c, lam=m.lam, s0=m.s0), [kappa], 0)
        got = got.step_prefixes[1]
        assert np.array_equal(got.c, ref.c) and np.array_equal(got.lam, ref.lam)
        assert got.s0 == ref.s0

    def test_second_step_breakdown_raises_at_construction(self):
        """A prefix whose first step lands on one that breaks down at conj kappa
        (the Christoffel transform at kappa of such a prefix) is refused when
        the pair is made, at the chain's index."""
        kappa, j = 0.3 + 0.5j, 20
        base = family_coeffs("chebyshev1", 128)
        c, lam = base.c.tolist(), base.lam.tolist()
        broken_at(c, lam, kappa.conjugate(), j)
        m = christoffel(RecurrenceCoeffs(c=c, lam=lam, s0=base.s0), TransformPoint(kappa)).coeffs
        with pytest.raises(ExistenceError) as ref:
            chain_pair(m, kappa)
        with pytest.raises(ExistenceError) as got:
            GeronimusPairQuasi(m, kappa)
        assert got.value.index == ref.value.index == j - 2
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("n_max", [4, 5])
    def test_prefix_too_short_for_the_second_step(self, n_max):
        with pytest.raises(PrefixError, match="GeronimusPairQuasi needs a prefix of length >= 6"):
            GeronimusPairQuasi(family_coeffs("chebyshev1", n_max), 0.3 + 0.5j)
        GeronimusPairQuasi(family_coeffs("chebyshev1", 6), 0.3 + 0.5j)

    def test_second_step_forms_no_coefficients(self, cheb1, monkeypatch):
        """The pair's second step runs no difference loop and makes no
        ``_dqd_coeffs`` call: the quasi-orthogonal data needs none of its
        coefficients.  varying_measure_polys takes the same pair with them."""
        diffs, dqd, run, coeffs = [], [], darboux._cauchy_run, darboux._dqd_coeffs
        monkeypatch.setattr(darboux, "_cauchy_run",
                            lambda *a, **kw: diffs.append(kw["diffs"]) or run(*a, **kw))
        monkeypatch.setattr(darboux, "_dqd_coeffs", lambda c, *a: dqd.append(len(c)) or coeffs(c, *a))
        n = cheb1.n_max
        GeronimusPairQuasi(cheb1, 0.3 - 0.5j)
        assert (diffs, dqd) == ([True, False], [n])
        diffs.clear()
        dqd.clear()
        varying_measure_polys(cheb1, [0.3 - 0.5j], 0)
        assert (diffs, dqd) == ([True, True], [n, n - 2])


def test_one_r2_length_rule(monkeypatch):
    """The r2 suite's prefix check, the pair's quasi data and leading_r2_system
    all read r2_prefix_length, a public rseq name that the package does not
    re-export."""
    assert rseq.r2_prefix_length(30) == 34 and "r2_prefix_length" in rseq.__all__
    assert not hasattr(darbouxjac, "r2_prefix_length")
    monkeypatch.setattr(rseq, "r2_prefix_length", lambda n: n + 5)
    m = family_coeffs("chebyshev2", 34)
    with pytest.raises(PrefixError, match="the r2 suite needs a prefix of length >= 35, got 34"):
        _suite_r2(m, 0.3 + 0.5j, None)
    with pytest.raises(PrefixError, match="n=30 needs a prefix of length >= 35"):
        GeronimusPairQuasi(m, 0.3 - 0.5j).quasi([30])
    assert rseq.leading_r2_system(family_coeffs("chebyshev2", 64), 0.3 + 0.5j, 30).m.n_max == 35


class TestVaryingMeasure:
    def test_empty_kappas_identity(self, cheb1):
        out = varying_measure_polys(cheb1, [], 4)
        assert out.coeffs is cheb1
        assert out.rii.shape == (0, 3)

    def test_single_pair_positive_real(self, cheb1):
        out = varying_measure_polys(cheb1, [1j], 3)
        assert np.max(np.abs(out.coeffs.c.imag)) <= 1e-12
        assert np.max(np.abs(out.coeffs.lam.imag)) <= 1e-12
        assert np.all(out.coeffs.lam.real > 0)

    def test_single_pair_commutes_with_chain(self, cheb1):
        out = varying_measure_polys(cheb1, [1j], 3)
        chain = GeronimusChain(cheb1)
        chain.apply(1j)
        chain.apply(-1j)
        direct = chain.coeffs()
        assert np.array_equal(out.coeffs.c, direct.c)
        assert np.array_equal(out.coeffs.lam, direct.lam)
        assert out.coeffs.s0 == direct.s0

    def test_orthogonality_oracle(self, cheb1):
        out = varying_measure_polys(cheb1, [1j, 1 + 1j], 5)
        x, w = gauss_nodes("chebyshev1", 4096)
        dens = w / (np.abs(x - 1j) ** 2 * np.abs(x - (1 + 1j)) ** 2)
        p5 = np.array([eval_P(out.coeffs, 5, t) for t in x])
        for mdeg in range(5):
            assert abs(np.sum(p5 * x**mdeg * dens)) <= 1e-8

    def test_rii_residuals(self, cheb1):
        out = varying_measure_polys(cheb1, [1j, 1 + 1j, 0.5 + 0.8j], 4)
        assert out.rii.shape == (2, 3) and not out.rii.flags.writeable
        assert all(res <= 1e-8 for res in out.rii_residuals)

    def test_rii_matches_linear_solve_oracle(self, cheb1):
        # independent route: solve for (gamma, upsilon) from two sample
        # points of the relation and compare with the formula values
        out = varying_measure_polys(cheb1, [1j, 1 + 1j], 3)
        j = 1
        kap = out.kappas[j - 1]
        s_prev, s_mid, s_next = out.step_prefixes[j - 1 : j + 2]
        z1, z2, z3 = 2.1 + 1.3j, -1.8 + 0.9j, 1.1 - 2.2j

        def terms(z):
            pj = eval_P(s_mid, j, z)
            rhs = z * pj - eval_P(s_next, j + 1, z)
            col_g = pj
            col_u = (z - kap) * (z - np.conj(kap)) * eval_P(s_prev, j - 1, z) - z * pj
            return [col_g, col_u], rhs

        A = np.zeros((2, 2), dtype=complex)
        b = np.zeros(2, dtype=complex)
        A[0], b[0] = terms(z1)
        A[1], b[1] = terms(z2)
        gamma, upsilon = np.linalg.solve(A, b)
        _, rc_gamma, rc_upsilon = out.rii[j - 1]
        assert abs(gamma - rc_gamma) < 1e-9
        assert abs(upsilon - rc_upsilon) < 1e-9
        row, rhs = terms(z3)
        assert abs(row[0] * gamma + row[1] * upsilon - rhs) < 1e-9

    def test_real_kappa_rejected(self, cheb1):
        with pytest.raises(ConfigurationError):
            varying_measure_polys(cheb1, [2.0], 2)

    def test_degree_guard(self, cheb1):
        m = family_coeffs("chebyshev1", 12)
        with pytest.raises(ConfigurationError):
            varying_measure_polys(m, [1j, 2j], 30)

    @pytest.mark.parametrize("sites", [[], [1j]])
    def test_degree_guard_covers_the_empty_list(self, sites):
        m = family_coeffs("chebyshev1", 12)
        final = m.n_max - 4 * len(sites)
        with pytest.raises(ConfigurationError, match=f"final prefix length {final}"):
            varying_measure_polys(m, sites, 10**6)
        out = varying_measure_polys(m, sites, final)  # for [] the base itself
        assert out.step_prefixes[0] is m and out.coeffs is out.step_prefixes[-1]

    @pytest.mark.parametrize("sites", [[], [1j]])
    def test_negative_degree_is_refused_naming_it(self, sites):
        m = family_coeffs("chebyshev1", 12)
        with pytest.raises(ConfigurationError, match="degree n=-2 "):
            varying_measure_polys(m, sites, -2)

    @pytest.mark.parametrize("count, need", [(1, 6), (2, 10), (3, 15), (4, 20), (5, 25)])
    def test_prefix_guard_refuses_before_any_step(self, monkeypatch, count, need):
        """K sites need max(4K + 2, 5K) terms; one term less, or a degree past
        the final length, is refused with no Geronimus step taken."""
        sites = [1j, 2j, 1 + 1j, -1 + 1j, 0.5 + 0.5j][:count]
        base = family_coeffs("chebyshev1", need)
        bare = RecurrenceCoeffs(c=base.c, lam=base.lam)
        steps, step = [], rseq._cauchy_step

        def counted(base, m, kappa, *args):
            steps.append(kappa)
            return step(base, m, kappa, *args)

        monkeypatch.setattr(rseq, "_cauchy_step", counted)
        assert len(varying_measure_polys(bare, sites, 0).step_prefixes) == count + 1
        assert len(steps) == 2 * count  # the hook sees every step
        steps.clear()
        with pytest.raises(PrefixError, match=f"needs a prefix of length >= {need}$"):
            varying_measure_polys(bare.truncated(need - 1), sites, 0)
        final = need - 4 * count
        with pytest.raises(ConfigurationError, match=f"final prefix length {final}$"):
            varying_measure_polys(bare, sites, final + 1)
        assert steps == []


@st.composite
def pair_sites(draw):
    """A nonreal site at log-radius 0.05..1.5 around [-1, 1]: the Joukowski
    image (w + 1/w)/2 of w = rho e^{i theta}, off the real axis."""
    w = cmath.rect(math.exp(draw(st.floats(0.05, 1.5))), draw(st.floats(0.05, math.pi - 0.05)))
    return complex(np.conj((w + 1 / w) / 2)) if draw(st.booleans()) else (w + 1 / w) / 2


def chain_varying_measure(m, kappas):
    """The step prefixes, R_II data and residuals of varying_measure_polys built
    from one GeronimusChain, the order-2 quasi formula written out, and
    R2System on the full step prefix (no quadrature cross-check)."""
    chain, prefixes, seqs = GeronimusChain(m), [m], []
    for kap in kappas:
        chain.apply(kap)
        chain.apply(np.conj(kap))
        prefixes.append(chain.coeffs())
        seqs.append((-chain.steps[-2]["ratio_seq"], -chain.steps[-1]["ratio_seq"]))
    rii, residuals, zs = [], [], sample_points(8)
    for j in range(1, len(kappas)):
        A, Ap = seqs[j]  # A[n - 1] = A_n
        coeffs = R2System(prefixes[j], kappas[j - 1]).coeffs([j], A[j] + Ap[j], Ap[j] * A[j - 1])
        rho_n, gamma, upsilon = (x[0] for x in coeffs)
        t1 = eval_P(prefixes[j + 1], j + 1, zs)
        t2 = (rho_n * zs - gamma) * eval_P(prefixes[j], j, zs)
        kap = kappas[j - 1]
        t3 = upsilon * (zs - kap) * (zs - np.conj(kap)) * eval_P(prefixes[j - 1], j - 1, zs)
        rii.append((rho_n, gamma, upsilon))
        residuals.append(float(np.max(relative(t1 - t2 + t3, t1, t2, t3))))
    return prefixes, rii, residuals


@PROPERTY
@given(prefixes, st.lists(pair_sites(), min_size=1, max_size=3))
def test_varying_measure_is_bitwise_the_chain(m, kappas):
    out = varying_measure_polys(m, kappas, 1)
    steps, rii, residuals = chain_varying_measure(m, kappas)
    assert len(out.step_prefixes) == len(steps)
    for got, ref in zip(out.step_prefixes, steps):
        assert np.array_equal(got.c, ref.c) and np.array_equal(got.lam, ref.lam)
        assert got.s0 == ref.s0
    assert out.rii.shape == (len(kappas) - 1, 3)
    for got, ref in zip(out.rii, rii):
        assert np.array_equal(got, ref)
    assert np.array_equal(out.rii_residuals, residuals, equal_nan=True)


class TestRationalEval:
    def test_degree_zero(self, cheb1):
        out = varying_measure_polys(cheb1, [1j, 1 + 1j], 2)
        assert rational_eval(out, [1j, 1 + 1j], 0, 0.3) == 1

    def test_pole_error(self, cheb1):
        out = varying_measure_polys(cheb1, [1j, 1 + 1j], 2)
        with pytest.raises(PoleError):
            rational_eval(out, [1j, 1 + 1j], 2, 1j)

    def test_orthogonality(self, cheb1):
        kappas = [1j, 1 + 1j]
        out = varying_measure_polys(cheb1, kappas, 2)
        x, w = gauss_nodes("chebyshev1", 4096)
        r2 = np.array([rational_eval(out, kappas, 2, t) for t in x])
        for kap in kappas:
            val = np.sum(w * r2 / (x - np.conj(kap)))
            assert abs(val) <= 1e-8

    def test_conjugation(self, cheb1):
        kappas = [1j, 1 + 1j]
        out = varying_measure_polys(cheb1, kappas, 2)
        conj_out = varying_measure_polys(cheb1, [np.conj(k) for k in kappas], 2)
        t = 0.7 + 0.4j
        a = rational_eval(out, kappas, 2, t)
        b = rational_eval(conj_out, [np.conj(k) for k in kappas], 2, np.conj(t))
        assert abs(a - np.conj(b)) < 1e-10

    def test_kappa_mismatch(self, cheb1):
        out = varying_measure_polys(cheb1, [1j], 1)
        with pytest.raises(ConfigurationError):
            rational_eval(out, [2j], 1, 0.5)


def test_cauchy_default_for_r1_kappa2(cheb1):
    # omitting s0star defaults to the Cauchy transform at kappa2
    sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(-1j))
    expect = cauchy_s0star(cheb1, -1j)
    assert abs(sys1.k2.s0star - expect) < 1e-12


@pytest.mark.parametrize("kind", ["chebyshev1", "chebyshev2", "chebyshev3", "chebyshev4"])
def test_cauchy_default_without_a_preset_weight(kind):
    """A prefix with no family (a coefficient file) steps at its
    continued-fraction Cauchy value: the step of the preset, bit for bit,
    without the quadrature cross-check that needs the weight."""
    m = family_coeffs(kind, 64)
    bare = RecurrenceCoeffs(c=m.c, lam=m.lam, s0=m.s0)
    k1, k2 = TransformPoint(0.3 + 0.5j), TransformPoint(0.3 - 0.5j)
    preset, custom = geronimus_cauchy(m, k2.kappa), geronimus_cauchy(bare, k2.kappa)
    assert np.array_equal(custom.ratio_seq, preset.ratio_seq)
    assert np.array_equal(custom.coeffs.c, preset.coeffs.c)
    custom = R1System(bare, k1, k2)
    assert abs(custom.k2.s0star - cauchy_s0star(m, k2.kappa)) <= 1e-15
    assert np.max(custom.residuals(range(1, 41), ZS)) <= 1e-9


def test_cauchy_default_on_a_nevai_prefix():
    m = nevai_prefix("chebyshev2", 3, 64)
    sys1 = R1System(m, TransformPoint(0.3 + 0.5j), TransformPoint(0.3 - 0.5j))
    assert np.max(sys1.residuals(range(1, 41), ZS)) <= 1e-9


# ---------------------------------------------------------------------------
# the R_I check at the Cauchy value reads the backward run alone
# ---------------------------------------------------------------------------

def without_family(m: RecurrenceCoeffs) -> RecurrenceCoeffs:
    return RecurrenceCoeffs(c=m.c, lam=m.lam, s0=m.s0)


R1_PREFIXES = {
    **{kind: family_coeffs(kind, 64) for kind in
       ("chebyshev1", "chebyshev2", "chebyshev3", "chebyshev4")},
    "nevai": nevai_prefix("chebyshev2", 3, 64),
    "family-less": without_family(family_coeffs("chebyshev3", 64)),
}


@pytest.mark.parametrize("name", R1_PREFIXES)
def test_cauchy_r1_is_the_full_transform_bit_for_bit(name):
    """Over the r1 suite's degrees, R1System's coefficients and residuals are
    those built from the full geronimus_cauchy transform and a full P-ratio
    run, bit for bit."""
    m, kappa, ns = R1_PREFIXES[name], 0.3 + 0.5j, np.arange(1, 41)
    sys1 = R1System(m, TransformPoint(kappa), TransformPoint(np.conj(kappa)))
    tilde_A, rho_n = -geronimus_cauchy(m, np.conj(kappa)).ratio_seq[ns], p_ratios(m, kappa)[ns - 1]
    alpha, beta = rseq._ri_coeffs(m, ns, rho_n, tilde_A)
    ref = rseq._ri_residuals(m, ns, ZS, *rseq._columns(tilde_A, alpha, beta, rho_n))
    for got, want in zip((*sys1.coeffs(range(1, 41)), sys1.residuals(range(1, 41), ZS)),
                         (alpha, beta, ref)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_cauchy_r1_check_path_builds_no_coefficients(monkeypatch, capsys):
    """Neither R1System at the Cauchy value nor the CLI's r1 suite reads the
    transform's coefficients off the ratio run."""
    def refuse(*args):
        raise AssertionError("_dqd_coeffs called")

    monkeypatch.setattr(darboux, "_dqd_coeffs", refuse)
    m = family_coeffs("chebyshev1", 64)
    sys1 = R1System(m, TransformPoint(1j), TransformPoint(-1j))
    assert np.max(sys1.residuals(range(1, 41), ZS)) <= 1e-9
    assert len(sys1.coeffs([3, 40])[0]) == 2
    argv = ["verify", "--suite=r1", "--family=chebyshev1", "--kappa=0+1i"]
    assert darbouxjac.cli.main(argv) == 0 and capsys.readouterr().out


def test_p_ratios_run_to_the_largest_checked_degree(monkeypatch):
    """Each P-ratio run asks for the largest degree of its call and no more;
    an empty list, and making the system, run none."""
    calls, real = [], rseq.ratio_sequence
    monkeypatch.setattr(rseq, "ratio_sequence",
                        lambda *a, **kw: calls.append(kw.get("n_terms")) or real(*a, **kw))
    sys1 = R1System(family_coeffs("chebyshev2", 64), TransformPoint(0.3 + 0.5j),
                    TransformPoint(0.3 - 0.5j))
    assert calls == []
    for degrees, top in (([3, 17, 5], 17), (range(1, 41), 40), ([2, 2], 2), ([], None)):
        calls.clear()
        sys1.coeffs(degrees)
        sys1.residuals(degrees, ZS[:3])
        assert calls == ([top] * 2 if top else []), degrees


def cauchy_failures():
    """(prefix, site, quadrature patch, error) of each way the Cauchy-value
    step fails: a short prefix, a real kappa inside the support, a quadrature
    mismatch, a backward-run breakdown and a pole of the continued fraction."""
    cheb1 = family_coeffs("chebyshev1", 64)
    c, lam = cheb1.c.tolist(), cheb1.lam.tolist()
    broken_at(c, lam, 0.3 - 0.5j, 20)
    off = lambda *args, **kwargs: 1.0 + 2.0j  # noqa: E731
    return [
        pytest.param(family_coeffs("chebyshev1", 3), TransformPoint(-1j), None, PrefixError,
                     id="short"),
        pytest.param(cheb1, TransformPoint(0.5, allow_real=True), None, ConfigurationError,
                     id="inside"),
        pytest.param(cheb1, TransformPoint(-1j), off, QuadratureError, id="quadrature"),
        pytest.param(RecurrenceCoeffs(c=c, lam=lam), TransformPoint(0.3 - 0.5j), None,
                     ExistenceError, id="breakdown"),
        pytest.param(RecurrenceCoeffs(c=[2, 0, 0, 0, 0, 0], lam=[2] * 5),
                     TransformPoint(3, allow_real=True), None, PoleError, id="pole"),
    ]


@pytest.mark.parametrize("m, k2, patch, error", cauchy_failures())
def test_cauchy_r1_fails_as_the_transform_does(monkeypatch, m, k2, patch, error):
    """R1System at the Cauchy value fails where geronimus_cauchy does, with its
    error type and message (the P-ratios at kappa1 run fine on each)."""
    if patch is not None:
        monkeypatch.setattr(darboux, "adaptive_integral", patch)
    with pytest.raises(error) as ref:
        geronimus_cauchy(m, k2.kappa)
    with pytest.raises(type(ref.value)) as got:
        R1System(m, TransformPoint(0.5j), k2)
    assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)
    assert ratio_sequence(m, 0.5j, "P").values.size == m.n_max


@pytest.mark.parametrize("bad", [1.7, 2.9, float("nan"), 0.5])
def test_fractional_degrees_are_refused_naming_them(cheb1, bad):
    """A degree whose value is not an integer is a ConfigurationError naming
    it, not the degree a cast truncates it to; an integral float is its int."""
    sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(-1j))
    pair, sys2 = GeronimusPairQuasi(cheb1, -1j), R2System(cheb1, 1j)
    message = f"degree n={bad} is not an integer"
    calls = (lambda: sys1.coeffs([bad]), lambda: sys1.residuals([2, bad], ZS),
             lambda: sys2.coeffs([bad], 0.1, 0.2), lambda: sys2.residuals([3, bad], ZS, 0.1, 0.2),
             lambda: pair.quasi([4, bad]), lambda: r1_general(cheb1, TransformPoint(1j), 0.3j, bad),
             lambda: r2_coeffs(cheb1, TransformPoint(1j), 0.1, 0.2, bad))
    for call in calls:
        with pytest.raises(ConfigurationError, match=message):
            call()
    for got, want in ((sys1.coeffs([2.0, 5]), sys1.coeffs([2, 5])),
                      (pair.quasi(np.array([3.0])), pair.quasi([3]))):
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def test_degrees_are_checked_in_list_order(cheb1):
    sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(-1j))
    pair = GeronimusPairQuasi(cheb1, -1j)
    for call, first, second in ((sys1.coeffs, "n=0", "n=1.7"), (pair.quasi, "n=-1", "n=1.7")):
        with pytest.raises((ConfigurationError, PrefixError), match=first):
            call([int(first[2:]), 1.7])
        with pytest.raises(ConfigurationError, match=second):
            call([1.7, int(first[2:])])


def old_suite_r2(m, kappa):
    """cli._suite_r2 as a per-degree loop of R2System on the full prefix."""
    pair = GeronimusPairQuasi(m, np.conj(kappa))
    sys2 = R2System(m, kappa)
    res = np.array([sys2.residuals([n], sample_points(20), *pair.quasi([n]))[0]
                    for n in range(1, 31)])
    worst = max(0.0, *map(float, res.max(axis=1)))
    return {"pass": worst <= 1e-9, "max_residual": worst}


@PROPERTY
@given(long_prefixes, kappas())
def test_r2_suite_on_the_short_prefix_is_the_full_one(m, kappa):
    """The r2 suite builds R2System on the 34 terms it reads; its report is
    the one of the full 256-term prefix, bit for bit."""
    if kappa.imag < 0:
        kappa = kappa.conjugate()
    assert _suite_r2(m, kappa, None) == old_suite_r2(m, kappa)


class TestBatchedResiduals:
    def test_r1_array_equals_points(self, cheb1):
        sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(1 - 1j))
        for n in (1, 10, 40):
            (batch,) = sys1.residuals([n], ZS)
            assert batch.shape == ZS.shape
            assert list(batch) == [sys1.residuals([n], z)[0] for z in ZS]
            assert isinstance(sys1.residuals([n], ZS[0])[0], float)

    def test_r2_array_equals_points(self, cheb1):
        pair = GeronimusPairQuasi(cheb1, 1 - 1j)
        sys2 = R2System(cheb1, 1j)
        for n in (1, 8, 30):
            q = pair.quasi([n])
            (batch,) = sys2.residuals([n], ZS, *q)
            assert batch.shape == ZS.shape
            assert list(batch) == [sys2.residuals([n], z, *q)[0] for z in ZS]
            assert isinstance(sys2.residuals([n], ZS[0], *q)[0], float)


# ---------------------------------------------------------------------------
# degree sweeps against the per-degree loop
# ---------------------------------------------------------------------------

def relative(total, *terms):
    scale = np.maximum.reduce([np.abs(t) for t in terms])
    return np.divide(np.abs(total), scale, out=np.zeros(scale.shape), where=scale > 0)


def loop_r1(sys1: R1System, n: int, zs, ratio_seq, rho):
    """The R_I residual at degree n alone: one evaluator run to n, with the
    Geronimus and P-ratios of the full runs."""
    m, ((alpha,), (beta,)) = sys1.m, sys1.coeffs([n])
    p_nm1, p_n, _ = _scaled_run(m, n, zs, 1.0, zs - m.c[0])
    p_np1 = (zs - m.c[n]) * p_n - m.lam[n - 1] * p_nm1
    t1 = p_np1 - ratio_seq[n] * p_n
    t2 = (zs - alpha) * p_n
    t3 = beta * (p_n - rho[n - 1] * p_nm1)
    return relative(t1 - t2 + t3, t1, t2, t3)


def loop_r2(sys2: R2System, n: int, tilde_C, tilde_D, zs):
    """The R_II residual at degree n alone: one evaluator run to n and one
    to n - 1 for the kernel (none at n = 1, where the kernel is 1)."""
    m, kern = sys2.m, sys2.tc2.coeffs
    (rho_n,), (gamma,), (upsilon,) = sys2.coeffs([n], tilde_C, tilde_D)
    p_nm1, p_n, log_scale = _scaled_run(m, n, zs, 1.0, zs - m.c[0])
    p_np1 = (zs - m.c[n]) * p_n - m.lam[n - 1] * p_nm1
    if n == 1:
        kernel, kernel_scale = np.ones_like(zs), 0.0
    else:
        _, kernel, kernel_scale = _scaled_run(kern, n - 1, zs, 1.0, zs - kern.c[0])
    t1 = p_np1 + tilde_C * p_n + tilde_D * p_nm1
    t2 = (rho_n * zs - gamma) * p_n
    t3 = (
        upsilon * (zs - sys2.kappa1) * (zs - sys2.kappa1_bar) * kernel
        * np.exp(kernel_scale - log_scale)
    )
    return relative(t1 - t2 + t3, t1, t2, t3)


def assert_degree_runs_are_the_one_degree_runs(m, degrees, zs):
    """Each row of ``_degree_runs`` (one evaluator run tapped at every degree)
    is the run to that degree alone at the same points, bit for bit, and so
    is the one further step; returns the log scales."""
    ns = np.array(degrees, dtype=int)
    z, p_nm1, p_n, scale, nxt = rseq._degree_runs(m, ns, zs)
    for arr in (z, p_nm1, p_n, scale):
        assert arr.shape == (len(degrees), len(zs))
    assert np.array_equal(z, np.tile(zs, (len(degrees), 1)))
    if not (degrees and len(zs)):
        return scale
    assert (nxt is None) == (max(degrees) == m.n_max)
    for i, n in enumerate(degrees):
        prev, cur, log_scale = _scaled_run(m, n, zs, 1.0, zs - m.c[0])
        for got, ref in ((p_nm1[i], prev), (p_n[i], cur), (scale[i], log_scale)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), n
        if nxt is not None:
            step = (zs - m.c[n]) * cur - m.lam[n - 1] * prev
            assert nxt[i].tobytes() == step.tobytes(), n
    return scale


@PROPERTY
@given(prefixes, st.lists(st.integers(1, N_MAX), max_size=8), st.integers(0, 6),
       st.floats(-3.0, 3.0))
@example(family_coeffs("chebyshev1", N_MAX), [N_MAX, 3, 17, 3, N_MAX, 1], 5, 3.0)
@example(family_coeffs("chebyshev2", N_MAX), [9, 2, 9], 4, -3.0)
@example(family_coeffs("chebyshev3", N_MAX), [], 4, 0.0)
@example(family_coeffs("chebyshev4", N_MAX), [5, 2], 0, 0.0)
def test_degree_runs_are_the_one_degree_runs(m, degrees, count, decade):
    """Presets and Nevai prefixes, degree lists in any order with repeats (up
    to n_max, where there is no further step), sample points scaled by
    10^-3..10^3 so that the runs rescale, and empty lists of either."""
    zs = sample_points(count).astype(complex) * 10.0**decade
    assert_degree_runs_are_the_one_degree_runs(m, degrees, zs)


def test_degree_runs_rescale_and_stay_the_one_degree_runs():
    """At |z| ~ 10^3 on 256 terms the run rescales in flight (first past degree
    74, at the window test of step 75) and its last values are still scaled:
    the rows tapped before and after, and at that step, are the one-degree runs."""
    m = family_coeffs("chebyshev1", 256)
    scale = assert_degree_runs_are_the_one_degree_runs(
        m, [256, 74, 75, 3, 200, 75, 76, 1], sample_points(5) * 1e3)
    assert np.all(scale[[0, 4]] > 0) and np.all(scale[[3, 7]] == 0)


def assert_r1_sweep_is_the_loop(sys1: R1System, k2: TransformPoint, degrees, zs):
    sweep = sys1.residuals(degrees, zs)
    assert sweep.shape == (len(degrees), len(zs))
    refs = gero_ratios(sys1.m, k2), p_ratios(sys1.m, sys1.kappa1)
    for n, row in zip(degrees, sweep):
        assert np.array_equal(row, loop_r1(sys1, n, zs, *refs)), n
        assert np.array_equal(row, sys1.residuals([n], zs)[0]), n
    # one point alone gets the rounding it gets in the batch
    single = sys1.residuals(degrees, zs[0])
    assert single.shape == (len(degrees),)
    assert np.array_equal(single, sweep[:, 0])
    assert all(sys1.residuals([n], zs[0])[0] == row[0] for n, row in zip(degrees, sweep))


def assert_r2_sweep_is_the_loop(sys2: R2System, degrees, tilde_C, tilde_D, zs):
    sweep = sys2.residuals(degrees, zs, tilde_C, tilde_D)
    assert sweep.shape == (len(degrees), len(zs))
    data = list(zip(degrees, tilde_C, tilde_D, sweep))
    for n, c, d, row in data:
        assert np.array_equal(row, loop_r2(sys2, n, c, d, zs)), n
        assert np.array_equal(row, sys2.residuals([n], zs, c, d)[0]), n
    single = sys2.residuals(degrees, zs[0], tilde_C, tilde_D)
    assert single.shape == (len(degrees),)
    assert np.array_equal(single, sweep[:, 0])
    assert all(sys2.residuals([n], zs[0], c, d)[0] == row[0] for n, c, d, row in data)


def pair_data(m, kappa: complex, degrees):
    """The CLI r2 suite's setup: kernel pair at kappa, Geronimus pair at its
    conjugate, and the pair's order-2 data at each degree."""
    return R2System(m, kappa), degrees, *GeronimusPairQuasi(m, np.conj(kappa)).quasi(degrees)


# 1 to 6 points in sample_points' annulus, 1.5 <= |z| <= 3 with |Im z| >= 0.5
points = st.lists(
    st.builds(cmath.rect, st.floats(1.5, 3.0), st.floats(0.0, 2 * math.pi)).filter(
        lambda z: abs(z.imag) >= 0.5),
    min_size=1, max_size=6,
).map(np.array)


@PROPERTY
@given(prefixes, kappas(), kappas(), st.lists(st.integers(1, N_MAX - 3), min_size=1, max_size=8),
       points, st.data())
def test_r1_sweep_is_bitwise_the_per_degree_loop(m, k1, k2, degrees, zs, data):
    # s0star given: the Cauchy default cross-checks by quadrature, on presets only
    k2 = TransformPoint(k2, s0star=data.draw(opposite_s0star(k2)))
    assert_r1_sweep_is_the_loop(R1System(m, TransformPoint(k1), k2), k2, degrees, zs)


@PROPERTY
@given(prefixes, kappas(), st.lists(st.integers(1, N_MAX - 5), min_size=1, max_size=8), points)
def test_r2_sweep_is_bitwise_the_per_degree_loop(m, kappa, degrees, zs):
    assert_r2_sweep_is_the_loop(*pair_data(m, kappa, degrees), zs)


class TestSweeps:
    def test_r1_unsorted_and_repeated_degrees(self, cheb1):
        k2 = TransformPoint(0.3 - 0.5j)
        sys1 = R1System(cheb1, TransformPoint(0.3 + 0.5j), k2)
        assert_r1_sweep_is_the_loop(sys1, k2, [17, 3, 40, 3, 1, 17, 2], ZS)

    def test_r2_unsorted_and_repeated_degrees(self, cheb2):
        degrees = [12, 1, 30, 12, 2, 1]
        assert_r2_sweep_is_the_loop(*pair_data(cheb2, -0.4 + 0.2j, degrees), ZS)

    def test_r2_at_degree_one_has_a_kernel_of_degree_zero(self, cheb3):
        for degrees in ([1], [1, 1], [4, 1]):
            assert_r2_sweep_is_the_loop(*pair_data(cheb3, 0.5 + 0.3j, degrees), ZS)

    def test_empty_degree_list(self, cheb1):
        sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(-1j))
        assert sys1.residuals([], ZS).shape == (0, len(ZS))
        assert R2System(cheb1, 1j).residuals([], ZS, [], []).shape == (0, len(ZS))

    def test_r1_top_degree_and_one_past_it(self):
        m = family_coeffs("chebyshev4", 24)
        k2 = TransformPoint(0.2 - 0.7j)
        sys1 = R1System(m, TransformPoint(0.2 + 0.7j), k2)
        top = m.n_max - 3
        assert_r1_sweep_is_the_loop(sys1, k2, [top, 1, top], ZS[:5])
        for degrees in ([top + 1], [2, top + 1, top]):
            with pytest.raises(PrefixError, match=f"n={top + 1}"):
                sys1.residuals(degrees, ZS)
        with pytest.raises(PrefixError, match=f"n={top + 1}"):
            sys1.coeffs([top + 1])

    def test_r2_top_degree_and_one_past_it(self):
        m = family_coeffs("chebyshev2", 24)
        sys2 = R2System(m, 0.1 + 0.6j)
        top = m.n_max - 3  # beyond what a GeronimusPairQuasi of this prefix reaches
        c, d = 0.2 - 0.1j, 0.3 + 0.05j
        assert_r2_sweep_is_the_loop(sys2, [top], [c], [d], ZS[:5])
        with pytest.raises(PrefixError, match=f"n={top + 1}"):
            sys2.coeffs([top + 1], c, d)
        with pytest.raises(PrefixError, match=f"n={top + 1}"):
            sys2.residuals([top + 1], ZS, c, d)
        with pytest.raises(PrefixError, match=f"n={top + 1}"):
            sys2.residuals([top, top + 1], ZS, [c] * 2, [d] * 2)

    @pytest.mark.parametrize("n", [0, -1, -5])
    def test_degrees_below_one_raise_prefix_error(self, cheb1, n):
        sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(-1j))
        for call in (lambda: sys1.coeffs([n]), lambda: sys1.residuals([2, n], ZS)):
            with pytest.raises(PrefixError, match=f"n={n}"):
                call()
        sys2 = R2System(cheb1, 1j)
        with pytest.raises(PrefixError, match=f"n={n}"):
            sys2.coeffs([n], 0.1, 0.2)
        with pytest.raises(PrefixError, match=f"n={n}"):
            sys2.residuals([n], ZS, 0.1, 0.2)
        with pytest.raises(PrefixError, match=f"n={n}"):
            sys2.residuals([2, n], ZS, [0.1] * 2, [0.2] * 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_r1_general_below_degree_one(self, cheb1, n):
        with pytest.raises(PrefixError, match=f"n={n}"):
            r1_general(cheb1, TransformPoint(1j), 0.3j, n)

    @pytest.mark.parametrize("n", [-1, -3, -64])
    def test_quasi_below_zero_raises_prefix_error(self, cheb1, n):
        with pytest.raises(PrefixError, match=f"n={n}"):
            GeronimusPairQuasi(cheb1, 1j).quasi([3, n])

    def test_quasi_names_the_prefix_length_it_needs(self):
        with pytest.raises(PrefixError, match=r"n=30 needs a prefix of length >= 34"):
            GeronimusPairQuasi(family_coeffs("chebyshev2", 33), 0.3 - 0.5j).quasi([30])
        pair = GeronimusPairQuasi(family_coeffs("chebyshev2", 34), 0.3 - 0.5j)
        assert np.array_equal(pair.quasi([30]), [[pair.tilde_C[30]], [pair.tilde_D[30]]])

    def test_quasi_checks_its_degrees_in_list_order(self):
        pair = GeronimusPairQuasi(family_coeffs("chebyshev2", 33), 0.3 - 0.5j)
        for degrees, match in (([30, -1], "n=30 needs"), ([-1, 30], "n=-1 < 0")):
            with pytest.raises(PrefixError, match=match):
                pair.quasi(degrees)

    def test_scalar_point_gives_a_float_per_degree(self, cheb1):
        sys1 = R1System(cheb1, TransformPoint(1j), TransformPoint(-1j))
        res = sys1.residuals([5, 7], ZS[3])
        assert res.shape == (2,) and res.dtype == float
        sys2, q = R2System(cheb1, 1j), GeronimusPairQuasi(cheb1, -1j).quasi([5, 7])
        res = sys2.residuals([5, 7], ZS[3], *q)
        assert res.shape == (2,) and res.dtype == float

    def test_order_two_data_of_another_length_is_a_configuration_error(self):
        """Order-2 data is one entry per degree or a scalar for all of them;
        any other shape is named along with the degree list's length."""
        m = family_coeffs("chebyshev1", 64)
        pair, sys2 = GeronimusPairQuasi(m, 0.3 - 0.5j), R2System(m, 0.3 + 0.5j)
        ns = [1, 2, 3]
        tilde_C, tilde_D = pair.quasi(ns)
        for c, d, message in ((tilde_C[:2], tilde_D[:2], r"tilde_C has shape \(2,\)"),
                              (tilde_C, tilde_D[:, None], r"tilde_D has shape \(3, 1\)"),
                              (0.1, [0.2] * 4, r"tilde_D has shape \(4,\)")):
            message += " for a degree list of length 3"
            with pytest.raises(ConfigurationError, match=message):
                sys2.coeffs(ns, c, d)
            with pytest.raises(ConfigurationError, match=message):
                sys2.residuals(ns, 2j, c, d)
        with pytest.raises(ConfigurationError, match=r"\(2,\) for a degree list of length 1"):
            r2_coeffs(m, TransformPoint(0.3 + 0.5j), tilde_C[:2], tilde_D[0], 3)
        scalar = sys2.residuals(ns, ZS, 0.1, tilde_D)
        assert np.array_equal(scalar, sys2.residuals(ns, ZS, [0.1] * 3, tilde_D))


# ---------------------------------------------------------------------------
# the degree-list interface: every entry point takes a list of degrees and
# returns arrays with one entry (coefficients) or one row (residuals) per degree
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def systems(cheb2):
    """The CLI suites' setup on chebyshev2 at kappa = 0.3 + 0.5j: the R_I
    system with the Cauchy Geronimus transform at conj kappa, the Geronimus
    pair at conj kappa and the R_II system at kappa."""
    kappa = 0.3 + 0.5j
    k1, k2 = TransformPoint(kappa), TransformPoint(np.conj(kappa))
    return R1System(cheb2, k1, k2), GeronimusPairQuasi(cheb2, np.conj(kappa)), R2System(cheb2, kappa)


def _r2_coeffs(systems, ns):
    _, pair, sys2 = systems
    return sys2.coeffs(ns, *pair.quasi(ns))


def _r2_residuals(systems, ns):
    _, pair, sys2 = systems
    return (sys2.residuals(ns, ZS[:4], *pair.quasi(ns)),)


# name: (call on a degree list returning a tuple of arrays, dtype, row shape)
DEGREE_LIST_CALLS = {
    "R1System.coeffs": (lambda s, ns: s[0].coeffs(ns), complex, ()),
    "R1System.residuals": (lambda s, ns: (s[0].residuals(ns, ZS[:4]),), float, (4,)),
    "GeronimusPairQuasi.quasi": (lambda s, ns: s[1].quasi(ns), complex, ()),
    "R2System.coeffs": (_r2_coeffs, complex, ()),
    "R2System.residuals": (_r2_residuals, float, (4,)),
}


@pytest.mark.parametrize("name", DEGREE_LIST_CALLS)
class TestDegreeLists:
    def test_one_entry_per_degree_with_its_dtype(self, systems, name):
        call, dtype, row = DEGREE_LIST_CALLS[name]
        for degrees in ([], [7], [12, 1, 30]):
            for out in call(systems, degrees):
                assert out.shape == (len(degrees), *row) and out.dtype == dtype, degrees

    def test_each_entry_is_its_degree_alone(self, systems, name):
        call = DEGREE_LIST_CALLS[name][0]
        degrees = [12, 1, 30, 12, 2]
        outs = call(systems, degrees)
        for i, n in enumerate(degrees):
            for out, alone in zip(outs, call(systems, [n])):
                assert out[i].tobytes() == alone[0].tobytes(), n

    def test_any_integer_sequence_gives_the_same_arrays(self, systems, name):
        call = DEGREE_LIST_CALLS[name][0]
        ref = call(systems, [12, 1, 30, 12, 2])
        for degrees in ((12, 1, 30, 12, 2), np.array([12, 1, 30, 12, 2], dtype=np.int32),
                        np.array([[12, 1, 30, 12, 2]]), [np.int64(n) for n in (12, 1, 30, 12, 2)]):
            for out, want in zip(call(systems, degrees), ref):
                assert out.tobytes() == want.tobytes(), type(degrees)

    def test_returned_arrays_belong_to_the_caller(self, systems, name):
        """Writing into the arrays a call returns changes neither the system
        nor what the next call returns."""
        call = DEGREE_LIST_CALLS[name][0]
        degrees = [3, 9, 3]
        first = call(systems, degrees)
        ref = [out.copy() for out in first]
        for out in first:
            out[...] = np.nan
        for out, want in zip(call(systems, degrees), ref):
            assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_rii_has_one_read_only_row_per_consecutive_pair(cheb1, count):
    """K sites give K + 1 prefixes and max(K - 1, 0) rows (rho, gamma, upsilon)
    of R_II data, each with its residual; the rows cannot be written."""
    out = varying_measure_polys(cheb1, [1j, 1 + 1j, 0.5 + 0.8j][:count], 0)
    rows = max(count - 1, 0)
    assert len(out.step_prefixes) == count + 1
    assert out.rii.shape == (rows, 3) and out.rii.dtype == complex
    assert len(out.rii_residuals) == rows
    assert not out.rii.flags.writeable
    with pytest.raises(ValueError):
        out.rii[...] = 0
    assert np.all(out.rii[:, 0] == 1 + out.rii[:, 2])  # rho = 1 + upsilon


# ---------------------------------------------------------------------------
# one coefficient formula per relation
# ---------------------------------------------------------------------------

def same(a, b) -> bool:
    return np.complex128(a).tobytes() == np.complex128(b).tobytes()


def scalar_r1(m, n: int, ratio_seq, rho):
    """alpha_n and beta_n of the R_I relation with the Geronimus tilde_A, in
    complex scalars, from the Geronimus and P-ratios of the full runs."""
    tilde_A = -ratio_seq[n]
    ratio = m.lam_n(n + 1) / rho[n - 1]
    return m.c_n(n + 1) - tilde_A + ratio, -ratio


def scalar_r2(sys2: R2System, pair: GeronimusPairQuasi, n: int):
    """The pair's order-2 data and the R_II coefficients at degree n, in
    complex scalars: the rounding of numpy's unfused scalar product."""
    rho, kernel_rho, m = sys2.rho, sys2.kernel_rho, sys2.m
    tilde_C, tilde_D = pair.A[n + 1] + pair.Ap[n + 1], pair.Ap[n + 1] * pair.A[n]
    upsilon = (m.lam_n(n + 1) - tilde_D) / (kernel_rho[n - 1] * rho[n - 1] - m.lam_n(n + 1))
    gamma = (1 + upsilon) * m.c_n(n + 1) + upsilon * (rho[n] + kernel_rho[n - 1]) - tilde_C
    return tilde_C, tilde_D, 1 + upsilon, gamma, upsilon


@PROPERTY
@given(prefixes, kappas(), st.lists(st.integers(1, N_MAX - 5), min_size=1, max_size=8),
       st.floats(0.5, 2.0))
@example(family_coeffs("chebyshev1", N_MAX), 0.3 + 0.5j, [12, 1, 30, 12, 2, 1], 1.0)
def test_one_degree_coeffs_are_the_sweep_entries(m, kappa, degrees, s0):
    """Presets and Nevai prefixes, degrees unsorted and repeated: the entries
    of the ``coeffs`` and ``quasi`` arrays, and the one-degree ``r1_general``
    and ``r2_coeffs`` tuples, are the scalar formulas' values, bit for bit."""
    # s0star in the half-plane opposite conj kappa, the Geronimus site
    s0star = complex(0.0, math.copysign(s0, kappa.imag))
    k1, k2 = TransformPoint(kappa), TransformPoint(np.conj(kappa), s0star=s0star)
    sys1 = R1System(m, k1, k2)
    ratio_seq, p_rho = gero_ratios(m, k2), p_ratios(m, kappa)
    pair, sys2 = GeronimusPairQuasi(m, np.conj(kappa)), R2System(m, kappa)
    alpha, beta = sys1.coeffs(degrees)
    tilde_C, tilde_D = pair.quasi(degrees)
    rho, gamma, upsilon = sys2.coeffs(degrees, tilde_C, tilde_D)
    for i, n in enumerate(degrees):
        ref = scalar_r1(m, n, ratio_seq, p_rho)
        for got in ((alpha[i], beta[i]), r1_general(m, k1, -ratio_seq[n], n)):
            assert all(map(same, got, ref)), n
        ref, data = scalar_r2(sys2, pair, n), (tilde_C[i], tilde_D[i])
        for got in ((rho[i], gamma[i], upsilon[i]), r2_coeffs(m, k1, *data, n)):
            assert all(map(same, (*data, *got), ref)), n


def test_degeneracy_names_the_first_degenerate_degree_in_list_order(cheb2, monkeypatch):
    """A kernel ratio that zeroes the R_II denominator at degrees 5 and 12:
    the sweep names whichever comes first in its list, with the one-degree
    message, and the degrees between are unaffected."""
    pair, sys2 = GeronimusPairQuasi(cheb2, 0.3 - 0.5j), R2System(cheb2, 0.3 + 0.5j)
    kernel_rho = sys2.kernel_rho.copy()
    for n in (5, 12):
        kernel_rho[n - 1] = cheb2.lam[n - 1] / sys2.rho[n - 1]
    monkeypatch.setattr(sys2, "kernel_rho", kernel_rho)

    def sweep(degrees):
        ns = np.array(degrees)
        return sys2.residuals(ns, ZS, pair.tilde_C[ns], pair.tilde_D[ns])

    for degrees, n in (([12, 3, 5], 12), ([3, 5, 12], 5), ([1, 12, 2, 5], 12)):
        with pytest.raises(DegeneracyError) as err:
            sweep(degrees)
        assert str(err.value) == f"R_II denominator within tolerance of lambda_{n + 1} at n={n}"
        for ns in (degrees, [n]):
            with pytest.raises(DegeneracyError, match=f"^{err.value}$"):
                sys2.coeffs(ns, *pair.quasi(ns))
    assert np.max(sweep([3, 4, 6, 11, 13])) <= 1e-9


def test_r1_general_refuses_coefficients_that_fail_the_identity(cheb1, monkeypatch):
    """r1_general's one check: alpha_n off by 1 leaves a residual of order 1
    at every sample point, and the first is named with the degree."""
    real, n = rseq._ri_coeffs, 3
    monkeypatch.setattr(rseq, "_ri_coeffs", lambda *args: (real(*args)[0] + 1, real(*args)[1]))
    with pytest.raises(ResidualCheckError, match=r"^R_I identity residual \S+ at n=3, z=") as exc:
        r1_general(cheb1, TransformPoint(1j), 0.3j, n)
    assert str(exc.value).endswith(f"z={sample_points(n + 2)[0]}")


def test_r2_coeffs_names_the_first_point_past_the_tolerance(cheb1, monkeypatch):
    """r2_coeffs' one check, with every residual past a negative tolerance."""
    monkeypatch.setattr(rseq, "_CHECK_TOL", -1.0)
    with pytest.raises(ResidualCheckError, match=r"^R_II identity residual \S+ at n=2, z=") as exc:
        r2_coeffs(cheb1, TransformPoint(1j), 0.1, 0.2, 2)
    assert str(exc.value).endswith(f"z={sample_points(5)[0]}")


@pytest.mark.parametrize("kappa", [0.5, 2.0, -3 + 0j])
def test_the_pair_refuses_a_real_kappa_before_any_step(cheb1, monkeypatch, kappa):
    def tripwire(*args, **kwargs):
        raise AssertionError("a Geronimus step ran before the site check")

    monkeypatch.setattr(rseq, "_cauchy_step", tripwire)
    with pytest.raises(ConfigurationError, match="^conjugate-pair Geronimus needs a nonreal kappa$"):
        GeronimusPairQuasi(cheb1, kappa)
    with pytest.raises(AssertionError, match="before the site check"):  # the wire is live
        GeronimusPairQuasi(cheb1, kappa + 0.5j)
