import numpy as np
import pytest

from darbouxjac.core import family_coeffs, symmetrize
from darbouxjac.darboux import TransformPoint, christoffel, geronimus
from darbouxjac.errors import ConfigurationError, EigenSolverError, PrefixError
from darbouxjac.factorization import build_JC, build_JG, lu_factor, ul_factor
from darbouxjac.polyeval import eval_P
from darbouxjac import spectral
from darbouxjac.spectral import (
    ZeroCloud,
    cluster_distance,
    geronimus_zero_cloud,
    kernel_zero_cloud,
    mfunction_series,
    nevai_diagnostics,
    ratio_asymptotic_check,
    ratio_limit_f,
    strip_check,
    truncation_spectrum,
    verify_m_identities,
    zero_dynamics,
    zeros,
)


def dist_to_segment(z):
    return np.sqrt(np.maximum(np.abs(z.real) - 1.0, 0.0) ** 2 + z.imag**2)


class TestZeros:
    def test_T2(self, cheb1):
        cloud = zeros(cheb1, 2)
        expect = np.array([-1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.max(np.abs(cloud.zeros - expect)) < 1e-12

    def test_U1(self, cheb2):
        assert abs(zeros(cheb2, 1).zeros[0]) < 1e-14

    def test_kernel_zeros_upper_half_plane(self, cheb1):
        tc = christoffel(cheb1, TransformPoint(1j))
        cloud = zeros(tc.coeffs, 10)
        assert np.all(cloud.zeros.imag > 0)

    def test_residual_certificate(self, cheb3):
        for n in (5, 20, 60):
            cloud = zeros(cheb3, n)
            for z in cloud.zeros:
                scale = max(1.0, abs(z)) ** n
                assert abs(eval_P(cheb3, n, z)) <= 1e-8 * scale

    def test_certificate_rejects_a_bad_eigenvalue(self, cheb1, monkeypatch):
        eigvals = np.linalg.eigvals

        def one_wrong(a):
            vals = eigvals(a)
            vals[3] = 3 + 3j
            return vals

        monkeypatch.setattr(spectral.np.linalg, "eigvals", one_wrong)
        with pytest.raises(EigenSolverError, match="at degree 10"):
            zeros(cheb1, 10)

    def test_count_equals_degree(self, cheb4):
        assert len(zeros(cheb4, 17).zeros) == 17

    def test_real_simple_interlacing(self, presets):
        for m in presets.values():
            for n in (5, 12):
                low = zeros(m, n).zeros
                high = zeros(m, n + 1).zeros
                assert np.max(np.abs(low.imag)) <= 1e-10
                assert np.max(np.abs(high.imag)) <= 1e-10
                lo, hi = np.sort(low.real), np.sort(high.real)
                assert np.min(np.diff(hi)) > 1e-9
                # interlacing: hi_j < lo_j < hi_{j+1}
                assert np.all(hi[:-1] < lo) and np.all(lo < hi[1:])

    def test_prefix_guard(self):
        m = family_coeffs("chebyshev1", 8)
        with pytest.raises(PrefixError):
            zeros(m, 9)

    def test_conjugation_symmetry(self, cheb1):
        up = zeros(christoffel(cheb1, TransformPoint(1j)).coeffs, 12).zeros
        down = zeros(christoffel(cheb1, TransformPoint(-1j)).coeffs, 12).zeros
        down_sorted = np.sort_complex(np.conj(down))
        up_sorted = np.sort_complex(up)
        assert np.max(np.abs(up_sorted - down_sorted)) < 1e-10


class TestStrips:
    @pytest.mark.parametrize("kappa", [1j, 1 + 1j])
    def test_kernel_strip(self, cheb1, kappa):
        site = TransformPoint(kappa)
        for n in (1, 7, 15, 30):
            cloud = kernel_zero_cloud(cheb1, site, n)
            assert strip_check(cloud, cloud.strip_bound, "upper").ok

    @pytest.mark.parametrize("kappa", [1j, 1 + 1j])
    def test_geronimus_strip(self, cheb1, kappa):
        site = TransformPoint(kappa, s0star=1.0)
        for n in (1, 7, 15, 30):
            cloud = geronimus_zero_cloud(cheb1, site, n)
            assert strip_check(cloud, cloud.strip_bound, "upper").ok

    def test_lower_half_plane(self, cheb1):
        site = TransformPoint(-1j)
        cloud = kernel_zero_cloud(cheb1, site, 15)
        assert strip_check(cloud, cloud.strip_bound, "lower").ok

    def test_negative_control(self, cheb1):
        cloud = kernel_zero_cloud(cheb1, TransformPoint(1j), 15)
        flipped = ZeroCloud(
            n=cloud.n,
            zeros=np.conj(cloud.zeros),
            max_im=float(np.max(np.conj(cloud.zeros).imag)),
            strip_bound=cloud.strip_bound,
        )
        rep = strip_check(flipped, cloud.strip_bound, "upper")
        assert not rep.ok
        assert len(rep.violators) == cloud.n

    def test_bad_side(self, cheb1):
        cloud = zeros(cheb1, 3)
        with pytest.raises(ConfigurationError):
            strip_check(cloud, 1.0, "sideways")


class TestZeroDynamics:
    def test_christoffel_collapse(self, cheb1):
        rep = zero_dynamics(cheb1, TransformPoint(1j), "christoffel", [10, 20, 40, 60])
        assert np.all(np.diff(rep.max_im) < 0)
        assert rep.max_im[-1] < 0.05

    def test_geronimus_cluster(self, cheb1):
        site = TransformPoint(1j, s0star=1.0)
        rep = zero_dynamics(cheb1, site, "geronimus", range(10, 51, 10))
        assert rep.strictly_decreasing
        assert rep.fit_r2 > 0.9
        assert rep.fit_slope < 0

    def test_cluster_at_one_plus_i(self, cheb1):
        site = TransformPoint(1 + 1j, s0star=1.0)
        cloud = geronimus_zero_cloud(cheb1, site, 40)
        assert abs(cloud.cluster_candidate - (1 + 1j)) < 1e-2

    def test_requires_nevai_base(self):
        rng = np.random.default_rng(7)
        m_bad = family_coeffs("chebyshev1", 64)
        from darbouxjac.core import RecurrenceCoeffs

        noisy = RecurrenceCoeffs(
            c=m_bad.c + rng.normal(0, 0.3, 64),
            lam=m_bad.lam + rng.uniform(0.1, 0.5, 63),
        )
        with pytest.raises(ConfigurationError):
            zero_dynamics(noisy, TransformPoint(1j), "christoffel", [4, 8])

    def test_cluster_distance_below_double_resolution(self, cheb1):
        site = TransformPoint(1j, s0star=1.0)
        _, d60, ld60 = cluster_distance(cheb1, site, 60)
        assert 0 < d60 < 1e-40
        assert abs(ld60 - np.log(d60)) < 1e-6

    # P^{-*}_0 = 1 has no zero, and degree n needs n + 2 coefficients
    @pytest.mark.parametrize("n", [0, -1, 63, 65])
    def test_cluster_distance_degree_out_of_range(self, n):
        cheb1_64 = family_coeffs("chebyshev1", 64)
        with pytest.raises(PrefixError, match=f"n={n}"):
            cluster_distance(cheb1_64, TransformPoint(1j, s0star=1.0), n)

    def test_cluster_distance_top_degree(self):
        cheb1_64 = family_coeffs("chebyshev1", 64)
        _, dist, log_dist = cluster_distance(cheb1_64, TransformPoint(1j, s0star=1.0), 62)
        assert 0 < dist < 1e-40 and abs(log_dist - np.log(dist)) < 1e-12

    def test_geronimus_dynamics_degree_zero(self, cheb1):
        with pytest.raises(PrefixError, match="n=0"):
            zero_dynamics(cheb1, TransformPoint(1j, s0star=1.0), "geronimus", [0, 5])


class TestRatioLimit:
    def test_at_one(self):
        assert abs(ratio_limit_f(0.25, 0.0, 1.0) - 0.5) < 1e-15

    def test_at_two(self):
        assert abs(ratio_limit_f(0.25, 0.0, 2.0) - (2 + np.sqrt(3)) / 2) < 1e-15

    def test_monic_at_infinity(self):
        z = 1e8 + 1e8j
        assert abs(ratio_limit_f(0.25, 0.0, z) / z - 1.0) < 1e-8

    def test_fixed_point_property(self):
        z = 0.3 + 2j
        w = ratio_limit_f(0.25, 0.1j, z)
        assert abs(w - (z - 0.1j - 0.25 / w)) < 1e-14

    def test_boundary_arc_rejected(self):
        with pytest.raises(ConfigurationError):
            ratio_limit_f(0.25, 0.0, 0.5)

    def test_oracle_ratio_sequence(self, cheb1):
        from darbouxjac.polyeval import ratio_sequence

        for z in (2.0, 1.4 + 0.5j):
            lim = ratio_limit_f(0.25, 0.0, z)
            rs = ratio_sequence(cheb1, z, "P", n_terms=200)
            assert abs(rs.r(200) - lim) < 1e-12


class TestMFunction:
    def test_low_order_coefficients(self, cheb1):
        ms = mfunction_series(cheb1, 2)
        assert np.allclose(ms.moments, [1, 0, 0.5])
        z = 40.0
        expect = -1 / z - 0.5 / z**3
        assert abs(ms(z) - expect) < 1e-12

    def test_value_at_two(self, cheb1):
        ms = mfunction_series(cheb1, 40)
        assert abs(ms(2.0) - (-1 / np.sqrt(3))) < 1e-9

    def test_order_zero(self, cheb1):
        ms = mfunction_series(cheb1, 0)
        assert abs(ms(5.0) - (-1 / 5.0)) < 1e-15

    def test_validity_radius(self, cheb1):
        ms = mfunction_series(cheb1, 4)
        assert ms.validity_radius >= 1.0


class TestMIdentities:
    @pytest.mark.parametrize("kappa", [1j, 1 + 1j, -2j])
    def test_presets(self, presets, kappa):
        for m in presets.values():
            rep = verify_m_identities(m, TransformPoint(kappa, s0star=1.0), 20)
            assert rep.max_residual <= 1e-9

    def test_j0_exact(self, cheb1):
        rep = verify_m_identities(cheb1, TransformPoint(1j, s0star=1.0), 0)
        assert rep.christoffel_residuals[0] <= 1e-15

    def test_christoffel_only_without_s0star(self, cheb1):
        rep = verify_m_identities(cheb1, TransformPoint(1j), 10)
        assert rep.geronimus_residuals is None


class TestTruncationSpectrum:
    def test_size_one(self, cheb3):
        J = symmetrize(cheb3)
        vals = truncation_spectrum(J, 1)
        assert vals[0] == J.b[0]

    def test_matches_zeros_two_paths(self, cheb1):
        tc = christoffel(cheb1, TransformPoint(1j))
        J = symmetrize(tc.coeffs)
        for size in (6, 25):
            ev = truncation_spectrum(J, size)
            zs = zeros(tc.coeffs, size).zeros
            assert np.max(np.abs(np.sort_complex(ev) - np.sort_complex(zs))) <= 1e-9

    def test_JC_proxy(self, cheb1):
        JC = build_JC(lu_factor(symmetrize(cheb1), 1j))
        ev = truncation_spectrum(JC, 100)
        assert np.max(dist_to_segment(ev)) < 0.05

    def test_JG_proxy(self, cheb1):
        JG = build_JG(ul_factor(symmetrize(cheb1), 1j, 1.0))
        ev = truncation_spectrum(JG, 100)
        near = np.abs(ev - 1j)
        k = int(np.argmin(near))
        assert near[k] < 1e-3
        assert np.max(dist_to_segment(np.delete(ev, k))) < 0.05


class TestNevaiDiagnostics:
    def test_presets_members(self, presets):
        for m in presets.values():
            diag = nevai_diagnostics(m)
            assert diag.is_member
            assert abs(diag.a_limit - 0.25) < 1e-15
            assert abs(diag.c_limit) < 1e-15

    def test_non_member(self):
        from darbouxjac.core import RecurrenceCoeffs

        rng = np.random.default_rng(3)
        m = RecurrenceCoeffs(c=rng.normal(0, 1, 64), lam=rng.uniform(0.5, 2.0, 63))
        assert not nevai_diagnostics(m).is_member


class TestRatioAsymptoticCheck:
    def test_transformed_families(self, cheb1):
        tc = christoffel(cheb1, TransformPoint(1j))
        rep = ratio_asymptotic_check(tc.coeffs, [2j, 1 + 2j], 200)
        assert np.all(rep.errors <= 1e-6)
        assert all(rep.monotone_tail)

    def test_geronimus_excludes_kappa_by_caller(self, cheb1):
        tg = geronimus(cheb1, TransformPoint(1j, s0star=1.0))
        rep = ratio_asymptotic_check(tg.coeffs, [2j], 200)
        assert rep.errors[0] <= 1e-6
