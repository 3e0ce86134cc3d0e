import logging

import mpmath as mp
import numpy as np
import pytest

from darbouxjac import cli, darboux
from darbouxjac.core import RecurrenceCoeffs, family_coeffs
from darbouxjac.darboux import (
    GeronimusChain,
    TransformPoint,
    cauchy_s0star,
    christoffel,
    christoffel_two,
    geronimus,
    geronimus_cauchy,
    geronimus_eval_from,
    kernel_eval,
)
from darbouxjac.errors import (
    ConfigurationError,
    EvaluationRangeError,
    ExistenceError,
    PoleError,
    PrefixError,
)
from darbouxjac.spectral import verify_m_identities
from darbouxjac.polyeval import eval_P, eval_Q, eval_R, ratio_sequence
from darbouxjac.rseq import R1System
from test_ratio_kernel import nevai_prefix

RNG = np.random.default_rng(0x5EED)

FIB = [1, 1]
while len(FIB) < 60:
    FIB.append(FIB[-1] + FIB[-2])


class TestTransformPoint:
    def test_real_kappa_rejected(self):
        with pytest.raises(ConfigurationError):
            TransformPoint(2.0)
        TransformPoint(2.0, allow_real=True)

    def test_geronimus_guarantee(self):
        assert TransformPoint(1j, s0star=1.0).geronimus_guaranteed
        assert TransformPoint(1j, s0star=1 - 2j).geronimus_guaranteed
        assert not TransformPoint(1j, s0star=1j).geronimus_guaranteed
        assert TransformPoint(-1j, s0star=1j).geronimus_guaranteed
        assert not TransformPoint(1j, s0star=0.0).geronimus_guaranteed


class TestChristoffel:
    def test_fibonacci_entry_n1(self, cheb2):
        tc = christoffel(cheb2, TransformPoint(0.5j))
        assert abs(tc.coeffs.lam_n(2) - 0.5) < 1e-15
        assert abs(tc.coeffs.c_n(2) - (-0.25j)) < 1e-15

    def test_fibonacci_entry_n3(self, cheb2):
        tc = christoffel(cheb2, TransformPoint(0.5j))
        assert abs(tc.coeffs.lam_n(4) - (1.0 / 36.0 + 0.25)) < 1e-14

    def test_nevai_invariance_tail(self, presets):
        # transformed entries converge to the base Nevai data (1/4, 0)
        for m in presets.values():
            tc = christoffel(m, TransformPoint(1j))
            assert abs(tc.coeffs.lam_n(200) - 0.25) < 1e-6
            assert abs(tc.coeffs.c_n(200)) < 1e-6

    def test_boundedness(self, presets):
        for m in presets.values():
            for kappa in (1j, 1 + 1j, 2j):
                tc = christoffel(m, TransformPoint(kappa))
                max_c, max_l = np.max(np.abs(m.c)), np.max(np.abs(m.lam))
                ratio_bound = abs(kappa) + max_c + max_l / kappa.imag
                assert np.max(np.abs(tc.coeffs.lam)) <= max_l * ratio_bound / kappa.imag
                assert np.max(np.abs(tc.coeffs.c)) <= max_c + 2 * ratio_bound

    def test_prefix_shrinks_by_two(self, cheb1):
        tc = christoffel(cheb1, TransformPoint(1j))
        assert tc.coeffs.n_max == cheb1.n_max - 2

    def test_s0_of_result(self, cheb3):
        tc = christoffel(cheb3, TransformPoint(1j))
        assert abs(tc.coeffs.s0 - (cheb3.c_n(1) - 1j)) < 1e-15

    def test_zero_hit_inside_support(self, cheb2):
        # U_1(0) = 0: the kernel family does not exist at kappa = 0
        with pytest.raises(ExistenceError):
            christoffel(cheb2, TransformPoint(0.0, allow_real=True))


class TestKernelEval:
    def test_degree_zero(self, cheb1):
        assert kernel_eval(cheb1, TransformPoint(1j), 0, 0.3) == 1

    def test_explicit_value(self, cheb1):
        # (1/(0-i)) [T_2(0) - (T_2(i)/T_1(i)) T_1(0)] = -i/2
        got = kernel_eval(cheb1, TransformPoint(1j), 1, 0.0)
        assert abs(got - (-0.5j)) < 1e-15

    def test_near_kappa_fallback_consistent(self, cheb1):
        site = TransformPoint(1j)
        z_close = 1j + 1e-13
        z_near = 1j + 1e-9
        direct = kernel_eval(cheb1, site, 6, z_near)
        fallback = kernel_eval(cheb1, site, 6, z_close)
        # both approximate P*_6(kappa, kappa)
        assert abs(direct - fallback) < 1e-6 * max(1.0, abs(direct))

    @pytest.mark.parametrize("kind", ["chebyshev1", "chebyshev4"])
    def test_near_kappa_reads_the_leading_terms_only(self, kind):
        """The transform of the leading n + 3 terms gives the whole prefix's
        value bit for bit, up to the top degree of the whole transform."""
        m = nevai_prefix(kind, 7, 64)
        for kappa in (1j, 0.3 + 0.5j):
            site, z = TransformPoint(kappa), kappa + 1e-13
            whole = christoffel(m, site).coeffs
            for n in (1, 2, 5, 30, 61, 62):
                assert kernel_eval(m, site, n, z) == eval_P(whole, n, z)

    def test_matches_transformed_recurrence(self, cheb1):
        site = TransformPoint(1j)
        tc = christoffel(cheb1, site)
        for z in (0.3, 1.2 - 0.8j, 2j):
            for n in (1, 5, 12):
                a = kernel_eval(cheb1, site, n, z)
                b = eval_P(tc.coeffs, n, z)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))

    @pytest.mark.parametrize("z", [0.1 + 0.1j, 0.3 + 0.5j], ids=["two-term", "near-kappa"])
    def test_both_routes_take_the_transformed_degrees(self, z):
        """Away from kappa and at it, n runs over 0..n_max - 2, the degrees of
        the transformed prefix: n_max - 2 gives its value, n_max - 1 a
        PrefixError naming the degree (chebyshev1, 16 terms)."""
        m, site = family_coeffs("chebyshev1", 16), TransformPoint(0.3 + 0.5j)
        want = eval_P(christoffel(m, site).coeffs, 14, z)
        assert abs(kernel_eval(m, site, 14, z) - want) <= 1e-12 * max(1.0, abs(want))
        with pytest.raises(PrefixError, match="n=15 needs a prefix of length >= 17"):
            kernel_eval(m, site, 15, z)


class TestChristoffelTwo:
    def test_conjugate_pair_real_prefix(self, cheb1):
        tc = christoffel_two(cheb1, TransformPoint(1j), TransformPoint(-1j))
        assert np.max(np.abs(tc.coeffs.c.imag)) <= 1e-12
        assert np.max(np.abs(tc.coeffs.lam.imag)) <= 1e-12

    def test_determinant_formula(self, cheb1):
        k1, k2 = 1j, -1j
        tc = christoffel_two(cheb1, TransformPoint(k1), TransformPoint(k2))
        for n in (1, 2, 5, 11):
            p = [eval_P(cheb1, n + j, k1) for j in (2, 1, 0)]
            q = [eval_P(cheb1, n + j, k2) for j in (2, 1, 0)]
            delta = p[1] * q[2] - q[1] * p[2]
            for z in RNG.standard_normal(3) + 1j * (RNG.standard_normal(3) + 1.5):
                row = [eval_P(cheb1, n + j, z) for j in (2, 1, 0)]
                det3 = np.linalg.det(np.array([p, q, row]))
                expect = det3 / ((z - k1) * (z - k2) * delta)
                got = eval_P(tc.coeffs, n, z)
                assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))

    def test_vanishing_delta_raises_at_its_index(self):
        # P_2/P_1 = 3i at both i and 2i, so Delta_1 = 0 exactly: the second
        # step's breakdown test refuses it with the Delta_n message
        m = RecurrenceCoeffs(c=np.zeros(8), lam=[2.0] + [0.25] * 6)
        with pytest.raises(ExistenceError, match="Delta_n vanishes") as err:
            christoffel_two(m, TransformPoint(1j), TransformPoint(2j))
        assert err.value.index == 1

    def test_repeated_site_flagged(self, cheb1):
        tc = christoffel_two(cheb1, TransformPoint(2j), TransformPoint(2j))
        assert any("repeated-site" in note for note in tc.notes)

    def test_same_half_plane_noted(self, cheb1):
        tc = christoffel_two(cheb1, TransformPoint(1j), TransformPoint(2j))
        assert any("same-half-plane" in note for note in tc.notes)


class TestGeronimus:
    def test_A1(self, cheb1):
        g = geronimus(cheb1, TransformPoint(1j, s0star=1.0))
        assert abs(g.ratio_seq[0] - (1 + 1j)) < 1e-15  # A_1 = -(1 + i)

    def test_missing_s0star(self, cheb1):
        with pytest.raises(ConfigurationError):
            geronimus(cheb1, TransformPoint(1j))

    def test_roundtrip_all_presets(self, presets):
        for m in presets.values():
            for s0star in (1.0, cauchy_s0star(m, 1j)):
                g = geronimus(m, TransformPoint(1j, s0star=s0star))
                rt = christoffel(g, TransformPoint(1j))
                L = rt.coeffs.n_max
                assert np.max(np.abs(rt.coeffs.c - m.c[:L])) <= 1e-10
                assert np.max(np.abs(rt.coeffs.lam - m.lam[: L - 1])) <= 1e-10

    def test_roundtrip_is_exact(self, presets):
        # L^G[(z - kappa) p] = L[p]: the inverse pair returns the base prefix
        for m in presets.values():
            g = geronimus(m, TransformPoint(0.3 + 0.5j, s0star=1.0))
            rt = christoffel(g, TransformPoint(0.3 + 0.5j)).coeffs
            L = rt.n_max
            assert L == m.n_max - 4
            assert np.array_equal(rt.c, m.c[:L])
            assert np.array_equal(rt.lam, m.lam[: L - 1])
            assert rt.s0 == m.s0 and rt.family is None

    def test_hypothesis_violation_checked_numerically(self, cheb1):
        # Im kappa > 0 with s0star in the upper half plane: outside the
        # guarantee, so the numerical existence path runs (and succeeds here)
        site = TransformPoint(1j, s0star=0.5 + 0.5j)
        assert not site.geronimus_guaranteed
        g = geronimus(cheb1, site)
        assert "existence-checked-numerically" in g.notes

    def test_r_zero_hit_names_index(self, cheb1):
        # s0star = 1/(c_1 - kappa) makes R_1(kappa) = 0: no transform exists
        with pytest.raises(ExistenceError) as err:
            geronimus(cheb1, TransformPoint(1j, s0star=1j))
        assert err.value.index == 1

    def test_result_s0(self, cheb1):
        g = geronimus(cheb1, TransformPoint(1j, s0star=2 - 1j))
        assert abs(g.coeffs.s0 - (2 - 1j)) < 1e-15

    def test_transformed_recurrence_residual(self, cheb1):
        # z P^-*_n = P^-*_{n+1} + c^-*_{n+1} P^-*_n + lambda^-*_{n+1} P^-*_{n-1}
        site = TransformPoint(1j, s0star=1.0)
        tc = geronimus(cheb1, site)
        zs = RNG.standard_normal(20) + 1j * RNG.standard_normal(20)
        for z in zs:
            for n in (1, 4, 9, 20):
                vals = [geronimus_eval_from(tc, n + d, z) for d in (-1, 0, 1)]
                resid = (
                    z * vals[1]
                    - vals[2]
                    - tc.coeffs.c_n(n + 1) * vals[1]
                    - tc.coeffs.lam_n(n + 1) * vals[0]
                )
                scale = max(abs(v) for v in vals) * max(1.0, abs(z))
                assert abs(resid) <= 1e-9 * scale

    def test_route_logged_at_debug(self, cheb4, caplog, monkeypatch):
        """double far from S, double-double then double at fl(S), mpmath when
        _DD_ETA is raised past eta; stdout is not touched."""
        kappa = 1.2 + 0.3j
        cauchy = cauchy_s0star(cheb4, kappa)
        caplog.set_level(logging.DEBUG, logger="darbouxjac")
        geronimus(cheb4, TransformPoint(kappa, s0star=1 - 1j))
        geronimus(cheb4, TransformPoint(kappa, s0star=cauchy))
        monkeypatch.setattr(darboux, "_DD_ETA", 1.0)
        geronimus(cheb4.truncated(32), TransformPoint(kappa, s0star=cauchy))
        double, crossover, fallback = caplog.records
        assert all(r.name == "darbouxjac" and r.levelno == logging.DEBUG for r in caplog.records)
        assert double.route == "double" and double.k_star is None and double.eta >= 1e-2
        assert 3 <= crossover.k_star < cheb4.n_max - 1 and crossover.eta < 1e-14
        assert crossover.route == f"double-double to k*={crossover.k_star} of 255, then double"
        assert fallback.route.startswith("mpmath at ") and fallback.k_star is None
        assert f"k*={crossover.k_star}" in crossover.getMessage()

    def test_geronimus_eval_degree_zero(self, cheb1):
        site = TransformPoint(1j, s0star=1.0)
        assert geronimus_eval_from(geronimus(cheb1.truncated(4), site), 0, 0.4) == 1

    def test_geronimus_eval_matches_recurrence(self, cheb1):
        site = TransformPoint(1j, s0star=1.0)
        tc = geronimus(cheb1, site)
        for n in (1, 3, 8):
            a = geronimus_eval_from(geronimus(cheb1.truncated(max(n + 2, 4)), site), n, 0.7 - 0.3j)
            b = eval_P(tc.coeffs, n, 0.7 - 0.3j)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestGeronimusCauchy:
    def test_real_kappa_outside_support(self, cheb1):
        s = cauchy_s0star(cheb1, 2.0)
        assert abs(s - (-1 / np.sqrt(3))) < 1e-12

    def test_real_kappa_inside_support_rejected(self, cheb1):
        with pytest.raises(ConfigurationError):
            cauchy_s0star(cheb1, 0.5)

    def test_upper_half_plane_lands_upper(self, cheb1):
        tc = geronimus_cauchy(cheb1, 1j)
        assert tc.sites[0].s0star.imag > 0

    def test_conjugate_double_application_positive(self, cheb1):
        chain = GeronimusChain(cheb1)
        chain.apply(1j)
        chain.apply(-1j)
        out = chain.coeffs()
        assert np.max(np.abs(out.c.imag)) <= 1e-10
        assert np.max(np.abs(out.lam.imag)) <= 1e-10
        assert np.all(out.lam.real > 0)
        # s0'' = integral dmu/|t-i|^2 is a positive real number
        assert abs(out.s0.imag) < 1e-15
        assert out.s0.real > 0

    def test_needs_no_family(self, cheb1):
        """A preset copy without its family (no weight, no quadrature
        cross-check) gets the preset's transform bit for bit."""
        bare = RecurrenceCoeffs(c=cheb1.c, lam=cheb1.lam)
        got, want = geronimus_cauchy(bare, 1j), geronimus_cauchy(cheb1, 1j)
        assert got.sites == want.sites
        assert np.array_equal(got.coeffs.c, want.coeffs.c)
        assert np.array_equal(got.coeffs.lam, want.coeffs.lam)
        assert got.coeffs.s0 == want.coeffs.s0 == cauchy_s0star(bare, 1j)
        assert np.array_equal(got.ratio_seq, want.ratio_seq)

    def test_matches_plain_geronimus_with_same_s0star(self, cheb2):
        # the double-rounded s0star perturbs entry n by ~(|f|^2/lambda)^n eps,
        # so agreement only holds on the leading entries
        m = family_coeffs("chebyshev2", 24)
        s0 = cauchy_s0star(m, 1j)
        a = geronimus_cauchy(m, 1j).coeffs
        b = geronimus(m, TransformPoint(1j, s0star=s0)).coeffs
        assert np.max(np.abs(a.c[:6] - b.c[:6])) < 1e-10
        assert np.max(np.abs(a.lam[:5] - b.lam[:5])) < 1e-10

    def test_pole_of_the_continued_fraction(self):
        """c = 2, 0, 0, ..., lambda = 2 at kappa = 3: every tail is -1 and
        the last denominator c_1 - kappa - t_2 is exactly 0."""
        m = RecurrenceCoeffs(c=[2, 0, 0, 0, 0, 0], lam=[2] * 5)
        for run in (cauchy_s0star, geronimus_cauchy):
            with pytest.raises(PoleError):
                run(m, 3)


def test_one_continued_fraction_run_per_step(monkeypatch, capsys):
    """A Geronimus step runs the continued fraction once (one tail seed): the
    near-Cauchy step hands its tails to the double-double refinement and the
    crossover, and the Cauchy-value step reads its s0star from its own run.
    Without --s0star the CLI runs it twice, for cauchy_s0star and the step."""
    m, kappa = family_coeffs("chebyshev1", 64), 0.3 + 0.5j
    near = TransformPoint(kappa, s0star=cauchy_s0star(m, kappa))  # eta ~ 1e-16
    seeds = []
    tail_seed = darboux._tail_seed
    monkeypatch.setattr(darboux, "_tail_seed", lambda *a: seeds.append(a) or tail_seed(*a))

    def runs(f, *args) -> int:
        seeds.clear()
        f(*args)
        return len(seeds)

    assert runs(geronimus, m, near) == 1
    assert runs(geronimus_cauchy, m, kappa) == 1
    assert runs(R1System, m, TransformPoint(0.5j), TransformPoint(kappa)) == 1
    argv = ["transform", "--family=chebyshev1", "--n-max=64", "--geronimus=0.3+0.5i"]
    assert runs(cli.main, argv) == 2
    assert capsys.readouterr().out


def test_geronimus_nevai_invariance(cheb1):
    tc = geronimus(cheb1, TransformPoint(1j, s0star=1.0))
    assert abs(tc.coeffs.lam_n(200) - 0.25) < 1e-6
    assert abs(tc.coeffs.c_n(200)) < 1e-6


class TestEvaluationRange:
    def test_kernel_eval_beyond_double_range_raises(self, cheb1):
        with pytest.raises(EvaluationRangeError) as err:
            kernel_eval(cheb1, TransformPoint(1j), 200, 1e8j)
        assert err.value.index == 200

    def test_geronimus_eval_from_beyond_double_range_raises(self, cheb1):
        tc = geronimus(cheb1, TransformPoint(1j, s0star=1.0))
        with pytest.raises(EvaluationRangeError) as err:
            geronimus_eval_from(tc, 200, 1e8j)
        assert err.value.index == 200


Z = 0.3 + 0.2j
DEGREE_CALLS = {
    "eval_P": (lambda m, tc: eval_P(m, -1, Z), "n=-1 < 0"),
    "eval_Q": (lambda m, tc: eval_Q(m, -1, Z), "n=-1 < 0"),
    "eval_R": (lambda m, tc: eval_R(m, -1, Z, -1j), "n=-1 < 0"),
    "kernel_eval": (lambda m, tc: kernel_eval(m, TransformPoint(0.3 + 0.5j), -1, Z), "n=-1 < 0"),
    "geronimus_eval_from": (lambda m, tc: geronimus_eval_from(tc, -1, Z), "n=-1 < 0"),
    "geronimus_eval_from-past-ratio_seq": (lambda m, tc: geronimus_eval_from(tc, 16, Z), "n=16 needs"),
    "ratio_sequence-0": (lambda m, tc: ratio_sequence(m, Z, n_terms=0), r"\(n_terms=0\)"),
    "ratio_sequence-neg": (lambda m, tc: ratio_sequence(m, Z, n_terms=-3), r"\(n_terms=-3\)"),
}


@pytest.mark.parametrize("name", DEGREE_CALLS)
def test_degree_out_of_range_raises_prefix_error_naming_it(name):
    """A negative degree, a degree past the A-sequence and fewer than one
    ratio are PrefixErrors naming the degree, not a bare IndexError or an
    empty sequence (chebyshev1, 16 terms)."""
    m = family_coeffs("chebyshev1", 16)
    tc = geronimus(m, TransformPoint(0.3 + 0.5j, s0star=-1j))
    call, match = DEGREE_CALLS[name]
    with pytest.raises(PrefixError, match=match):
        call(m, tc)


class TestTailSeedFarFromSupport:
    """The tail seed lam/(larger root) never squares (c - z)/2, which
    overflowed the double range once |kappa| passed ~1.3e154."""

    @pytest.mark.parametrize("kappa", [1e100 + 1j, 1e160 + 1j, -1e300 - 1e300j, 0.3 + 0.5j])
    def test_smaller_root_matches_extended_precision(self, kappa):
        got = darboux._tail_seed(0.0, 0.25, kappa)
        with mp.workdps(50):
            half = -mp.mpc(kappa) / 2
            disc = mp.sqrt(half * half - mp.mpf(0.25))
            ref = mp.mpf(0.25) / max(half + disc, half - disc, key=abs)  # no cancellation
            assert abs(got - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("kappa", [1e160 + 1j, -1e300 - 1e300j])
    def test_geronimus_cauchy_and_chain_at_far_site(self, kappa):
        m = family_coeffs("chebyshev1", 8)
        tc = geronimus(m, TransformPoint(kappa, s0star=1 - 1j))
        assert np.all(np.isfinite(tc.coeffs.c)) and np.all(np.isfinite(tc.coeffs.lam))
        assert abs(cauchy_s0star(m, kappa) + 1 / kappa) <= 1e-15 / abs(kappa)
        chain = GeronimusChain(m)
        chain.apply(kappa)
        assert abs(chain.steps[0]["s0star"] + 1 / kappa) <= 1e-15 / abs(kappa)

    @pytest.mark.parametrize(
        "c_tail, lam_tail", [(1.5e308, 0.25), (0.0, 1.5e308 + 1.5e308j)]
    )
    def test_unrepresentable_root_raises(self, c_tail, lam_tail):
        with pytest.raises(EvaluationRangeError):
            darboux._tail_seed(c_tail, lam_tail, -1.5e308 if lam_tail == 0.25 else 1j)


def test_christoffel_two_second_step_breakdown_at_a_repeated_site(cheb1, monkeypatch):
    """A breakdown of the second step at a repeated site is raised as it
    came, at the same index: Delta_n degenerates there, so it certifies nothing."""
    k1 = TransformPoint(0.3 + 0.5j)
    real, calls = darboux.christoffel, []

    def second_breaks(m, site):
        calls.append(site)
        if len(calls) == 2:
            raise ExistenceError("kernel polynomials do not exist at the second site", 7)
        return real(m, site)

    monkeypatch.setattr(darboux, "christoffel", second_breaks)
    with pytest.raises(ExistenceError) as exc:
        christoffel_two(cheb1, k1, k1)
    assert exc.value.index == 7 and calls == [k1, k1]
    assert str(exc.value) == "kernel polynomials do not exist at the second site (n=7)"


def test_geronimus_at_a_pole_of_the_continued_fraction(caplog):
    """Tails t_j = -1 throughout and c_1 = -1 put the continued fraction's
    pole at kappa = 0 (c_1 - kappa - t_2 = 0 exactly): eta is NaN, and the
    step runs in mpmath at the length-sized budget, as on a backward run
    that breaks down.  The transform satisfies its m-function identity."""
    m = RecurrenceCoeffs(c=[-1.0] + [0.0] * 5, lam=[-1.0] * 5)
    site = TransformPoint(0j, s0star=1.0, allow_real=True)
    with pytest.raises(PoleError, match="pole at kappa=0j"):
        cauchy_s0star(m, 0j)
    with caplog.at_level(logging.DEBUG, logger="darbouxjac"):
        tc = geronimus(m, site)
    (rec,) = [r for r in caplog.records if hasattr(r, "route")]
    assert np.isnan(rec.eta)
    assert rec.route == f"mpmath at {darboux._auto_dps(m.c, m.lam, 1.0, 0j, m.n_max)} digits"
    assert np.isfinite(tc.coeffs.c).all() and np.isfinite(tc.coeffs.lam).all()
    assert verify_m_identities(m, site, 1).max_residual <= 1e-14
