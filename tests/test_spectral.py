import numpy as np
import pytest

from darbouxjac.core import family_coeffs, moments, symmetric_jacobi_matrix, symmetrize
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
    nevai_diagnostics,
    ratio_asymptotic_check,
    ratio_limit_f,
    strip_check,
    verify_m_identities,
    geronimus_zero_sweep,
    kernel_zero_sweep,
    zero_dynamics,
    zero_sweep,
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

    @staticmethod
    def spoil_eigenvalue(monkeypatch, degrees):
        """Make the eigen helper return one wrong eigenvalue at these degrees."""
        eigvals = spectral._eigvals

        def one_wrong(J, size):
            vals = eigvals(J, size)
            if size in degrees:
                vals[3] = 3 + 3j
            return vals

        monkeypatch.setattr(spectral, "_eigvals", one_wrong)

    def test_certificate_rejects_a_bad_eigenvalue(self, cheb1, monkeypatch):
        self.spoil_eigenvalue(monkeypatch, {10})
        with pytest.raises(EigenSolverError, match="at degree 10"):
            zeros(cheb1, 10)

    def test_certificate_rejects_a_bad_eigenvalue_complex_prefix(self, cheb1, monkeypatch):
        tc = christoffel(cheb1, TransformPoint(0.3 + 0.5j))
        self.spoil_eigenvalue(monkeypatch, {10})
        with pytest.raises(EigenSolverError, match="at degree 10"):
            zeros(tc.coeffs, 10)

    def test_sweep_names_the_lowest_failing_degree(self, cheb1, monkeypatch):
        self.spoil_eigenvalue(monkeypatch, {10, 20})
        with pytest.raises(EigenSolverError, match="at degree 10"):
            zero_sweep(cheb1, [30, 20, 10, 5])

    def test_certificate_accepts_a_zero_next_to_a_diagonal_entry(self):
        # chebyshev1 kernel polynomials at kappa = 0.001i: P*_3 has a zero about
        # 9e-9 from c_3 = 166.67i, where z - c_3 cancels; |P_3| there is set by
        # the rounding of z, which the envelope covers through |z| + |c_3|
        tc = christoffel(family_coeffs("chebyshev1", 48), TransformPoint(0.001j))
        cloud = zeros(tc.coeffs, 3)
        assert abs(cloud.zeros[1] - tc.coeffs.c[2]) < 1e-8

    def test_certificate_at_a_zero_hit_of_the_recurrence(self):
        # chebyshev2 kernel polynomials at kappa = 5.25e-304+1i: at the zero
        # 0.0202i of P_21, |P_21| is about 1e-300, which must not be taken
        # for decay and divided out (the envelope overflowed to inf)
        m = family_coeffs("chebyshev2", 48)
        tc = christoffel(m, TransformPoint(5.253335446131127e-304 + 1j))
        with np.errstate(over="raise"):
            cloud = zeros(tc.coeffs, 21)
        assert np.min(np.abs(cloud.zeros - 0.020229691768502152j)) < 1e-15

    def test_real_prefix_takes_the_symmetric_solver(self, cheb1, monkeypatch):
        def refuse(a):
            raise AssertionError("eigvals called on a real symmetric truncation")

        monkeypatch.setattr(spectral.np.linalg, "eigvals", refuse)
        assert len(zeros(cheb1, 40).zeros) == 40
        with pytest.raises(AssertionError):
            zeros(christoffel(cheb1, TransformPoint(1j)).coeffs, 40)

    def test_sweep_keeps_the_order_given(self, cheb1):
        clouds = zero_sweep(cheb1, [7, 0, 3, 7])
        assert [c.n for c in clouds] == [7, 0, 3, 7]
        assert np.array_equal(clouds[0].zeros, clouds[3].zeros)
        assert len(clouds[1].zeros) == 0

    @pytest.mark.parametrize("n", [-1, -5])
    def test_negative_degree(self, cheb1, n):
        with pytest.raises(PrefixError, match=f"n={n}"):
            zeros(cheb1, n)
        with pytest.raises(PrefixError, match=f"n={n}"):
            zero_sweep(cheb1, [4, n])
        with pytest.raises(PrefixError, match=f"n={n}"):
            kernel_zero_cloud(cheb1, TransformPoint(1j), n)

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

    # sites where the strip bound -1/Im(P_{n-1}(kappa)/P_n(kappa)), one degree
    # too low, was violated at these degrees
    @pytest.mark.parametrize(
        "kind, kappa, degrees",
        [("chebyshev1", 0.3 + 0.5j, [1]), ("chebyshev2", 0.1 + 0.01j, [12, 14, 16, 18, 27, 29])],
    )
    def test_kernel_strip_at_sites_of_the_shifted_bound(self, presets, kind, kappa, degrees):
        for n in degrees:
            cloud = kernel_zero_cloud(presets[kind], TransformPoint(kappa), n)
            assert strip_check(cloud, cloud.strip_bound, "upper").ok

    def test_kernel_strip_bound_degree_one(self, cheb1):
        # P*_1(kappa, z) = z + 1/(2 kappa) for Chebyshev T, and P_1/P_2 = 2z/(2z^2 - 1)
        kappa = 0.3 + 0.5j
        cloud = kernel_zero_cloud(cheb1, TransformPoint(kappa), 1)
        assert abs(cloud.zeros[0] + 1 / (2 * kappa)) < 1e-15
        assert abs(cloud.strip_bound + 1 / (2 * kappa / (2 * kappa**2 - 1)).imag) < 1e-14

    def test_sweeps_match_single_clouds(self, cheb1):
        site = TransformPoint(0.3 + 0.5j, s0star=0.8 - 0.4j)
        degrees = [9, 1, 30]
        for sweep, single in (
            (kernel_zero_sweep, kernel_zero_cloud),
            (geronimus_zero_sweep, geronimus_zero_cloud),
        ):
            for n, cloud in zip(degrees, sweep(cheb1, site, degrees)):
                one = single(cheb1, site, n)
                assert np.array_equal(cloud.zeros, one.zeros)
                assert cloud.strip_bound == one.strip_bound

    @pytest.mark.parametrize("n", [0, -1])
    def test_geronimus_degree_below_one(self, cheb1, n):
        site = TransformPoint(1j, s0star=1.0)
        with pytest.raises(PrefixError, match=f"n={n}"):
            geronimus_zero_cloud(cheb1, site, n)
        with pytest.raises(PrefixError, match=f"n={n}"):
            geronimus_zero_sweep(cheb1, site, [5, n])

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

    @pytest.mark.parametrize("kind, kappa", [
        ("chebyshev1", 0.3 + 0.5j),
        ("chebyshev3", 1.2 + 0.3j),
        ("chebyshev4", -0.7 - 0.6j),
        ("chebyshev2", 0.5 + 1j),
    ])
    def test_geronimus_cluster_slope_is_predicted(self, kind, kappa):
        """ln|xi_n - kappa| falls like -2 ln|phi(kappa)| per degree, phi = 2 f(kappa)
        with f the ratio limit of the Chebyshev tail (lambda -> 1/4, c -> 0).
        s0star lies in the half-plane opposite kappa, away from the Cauchy
        value.  Sites near the support wait on a tolerance that widens with
        the tail's distance from its limits: chebyshev2 at -0.9+0.05i is
        1.6 % off over these degrees."""
        site = TransformPoint(kappa, s0star=kappa.conjugate())
        rep = zero_dynamics(family_coeffs(kind), site, "geronimus", range(10, 111, 10))
        predicted = -2 * np.log(abs(2 * ratio_limit_f(0.25, 0, kappa)))
        assert abs(rep.fit_slope / predicted - 1) <= 1e-4
        assert rep.fit_r2 > 1 - 1e-6

    def test_cluster_at_one_plus_i(self, cheb1):
        site = TransformPoint(1 + 1j, s0star=1.0)
        cloud = geronimus_zero_cloud(cheb1, site, 40)
        assert np.min(np.abs(cloud.zeros - (1 + 1j))) < 1e-2

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

    def test_cluster_distance_raises_when_newton_does_not_converge(self):
        # kappa on the symmetry axis of the zeros +-0.699-0.106i: the iteration
        # cannot leave the axis
        cheb1_4 = family_coeffs("chebyshev1", 4)
        site = TransformPoint(1j, s0star=-4.5e-53 + 0.70781j)
        with pytest.raises(EigenSolverError, match="n=2"):
            cluster_distance(cheb1_4, site, 2)

    def test_cluster_distance_top_degree(self):
        cheb1_64 = family_coeffs("chebyshev1", 64)
        _, dist, log_dist = cluster_distance(cheb1_64, TransformPoint(1j, s0star=1.0), 62)
        assert 0 < dist < 1e-40 and abs(log_dist - np.log(dist)) < 1e-12

    def test_geronimus_dynamics_degree_zero(self, cheb1):
        with pytest.raises(PrefixError, match="n=0"):
            zero_dynamics(cheb1, TransformPoint(1j, s0star=1.0), "geronimus", [0, 5])

    # a line through one point (or none) is no fit: polyfit raised TypeError
    # on [] and fitted [8] and [8, 8] exactly, under numpy's RankWarning
    @pytest.mark.parametrize("n_list", [[], [8], [8, 8]])
    def test_geronimus_dynamics_needs_two_distinct_degrees(self, cheb1, n_list):
        with pytest.raises(ConfigurationError, match="two or more distinct degrees"):
            zero_dynamics(cheb1, TransformPoint(1j, s0star=1.0), "geronimus", n_list)


class TestClusterSweep:
    @staticmethod
    def count_runs(monkeypatch) -> list:
        """Names of the geronimus and ratio_sequence calls spectral makes."""
        calls = []
        for name in ("geronimus", "ratio_sequence"):
            f = getattr(spectral, name)
            monkeypatch.setattr(spectral, name,
                                lambda *a, _f=f, _n=name, **k: calls.append(_n) or _f(*a, **k))
        return calls

    def test_one_transform_and_one_ratio_run_per_sweep(self, monkeypatch, cheb1):
        calls = self.count_runs(monkeypatch)
        site = TransformPoint(0.3 + 0.5j, s0star=0.8 - 0.4j)
        assert len(spectral.cluster_sweep(cheb1, site, [40, 5, 20, 5])) == 4
        assert sorted(calls) == ["geronimus", "ratio_sequence"]
        calls.clear()
        assert spectral.cluster_sweep(cheb1, site, []) == () and calls == []
        zero_dynamics(cheb1, site, "geronimus", [10, 20, 30])
        assert calls.count("geronimus") == 2  # the sweep's and the zero sweep's
        assert calls.count("ratio_sequence") == 1

    def test_out_of_range_degree_raises_before_any_transform(self, monkeypatch):
        cheb1_64 = family_coeffs("chebyshev1", 64)
        calls = self.count_runs(monkeypatch)
        with pytest.raises(PrefixError, match="n=63 needs a prefix of length >= 65"):
            spectral.cluster_sweep(cheb1_64, TransformPoint(1j, s0star=1.0), [5, 63, 0])
        assert calls == []

    def test_needs_s0star(self, cheb1):
        with pytest.raises(ConfigurationError,
                           match="^cluster_sweep needs a Geronimus site with s0star$"):
            spectral.cluster_sweep(cheb1, TransformPoint(1j), [5])


class TestRatioLimit:
    def test_at_one(self):
        assert abs(ratio_limit_f(0.25, 0.0, 1.0) - 0.5) < 1e-15
        assert ratio_limit_f(0.0, 0.3, 0.3) == 0  # a double root with nothing to scale by

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

    @pytest.mark.parametrize("z", [1e160j, 1e200 + 1j])
    def test_far_from_the_support(self, z):
        # (z - c)^2 leaves the double range past |z - c| ~ 1e154
        w = ratio_limit_f(0.25, 0.0, z)
        assert abs(w / z - 1.0) < 1e-12
        assert abs(w - (z - 0.25 / w)) <= 1e-12 * abs(w)

    def test_oracle_ratio_sequence(self, cheb1):
        from darbouxjac.polyeval import ratio_sequence

        for z in (2.0, 1.4 + 0.5j):
            lim = ratio_limit_f(0.25, 0.0, z)
            rs = ratio_sequence(cheb1, z, "P", n_terms=200)
            assert abs(rs.r(200) - lim) < 1e-12


def m_series(m, order, z):
    """m(J;z) = -sum_j s_j / z^(j+1), truncated after s_order."""
    s = moments(m, order)
    return -np.sum(s / z ** np.arange(1, order + 2))


class TestMFunction:
    def test_low_order_coefficients(self, cheb1):
        assert np.allclose(moments(cheb1, 2), [1, 0, 0.5])
        z = 40.0
        expect = -1 / z - 0.5 / z**3
        assert abs(m_series(cheb1, 2, z) - expect) < 1e-12

    def test_value_at_two(self, cheb1):
        assert abs(m_series(cheb1, 40, 2.0) - (-1 / np.sqrt(3))) < 1e-9

    def test_order_zero(self, cheb1):
        assert abs(m_series(cheb1, 0, 5.0) - (-1 / 5.0)) < 1e-15

    def test_validity_radius(self, presets):
        """|s_j| <= |s_0| R^j with R = max|b| + 2 max|a| >= ||J||, so the
        series converges for |z| > R."""
        for m in presets.values():
            J = symmetrize(m)
            radius = np.max(np.abs(J.b)) + 2 * np.max(np.abs(J.a))
            s = moments(m, 30)
            assert np.all(np.abs(s) <= abs(m.s0) * radius ** np.arange(31) * (1 + 1e-12))


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


class TestMatrixSpectra:
    """The spectrum of a matrix-level transform is the zero set of its monic
    reduction."""

    def test_size_one(self, cheb3):
        J = symmetrize(cheb3)
        vals = zeros(J.to_monic(), 1).zeros
        assert vals[0] == J.b[0]

    def test_matches_zeros_two_paths(self, cheb1):
        tc = christoffel(cheb1, TransformPoint(1j))
        J = symmetrize(tc.coeffs)
        for size in (6, 25):
            ev = np.linalg.eigvals(symmetric_jacobi_matrix(J, size))
            zs = zeros(J.to_monic(), size).zeros
            assert np.max(np.abs(np.sort_complex(ev) - np.sort_complex(zs))) <= 1e-9

    def test_JC_proxy(self, cheb1):
        JC = build_JC(lu_factor(symmetrize(cheb1), 1j))
        ev = zeros(JC.to_monic(), 100).zeros
        assert np.max(dist_to_segment(ev)) < 0.05

    def test_JG_proxy(self, cheb1):
        JG = build_JG(ul_factor(symmetrize(cheb1), 1j, 1.0))
        ev = zeros(JG.to_monic(), 100).zeros
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

    def test_one_term_prefix_raises_prefix_error(self):
        with pytest.raises(PrefixError, match=r"\(n_max=1\)"):
            nevai_diagnostics(family_coeffs("chebyshev1", 2).truncated(1))


class TestRatioAsymptoticCheck:
    def test_transformed_families(self, cheb1):
        tc = christoffel(cheb1, TransformPoint(1j))
        rep = ratio_asymptotic_check(tc.coeffs, [2j, 1 + 2j], 200)
        assert np.all(rep.errors <= 1e-6)
        assert all(rep.monotone_tail)

    @pytest.mark.parametrize("n_check", range(6))
    @pytest.mark.parametrize("terms", [1, 2, 3, 256])
    def test_short_runs_report_or_raise_prefix_error(self, terms, n_check):
        """n_check = 0, a one-term prefix and a run past the prefix raise
        PrefixError naming n; every other run reports its last error, and the
        monotone flag reads windows of one entry or more (n_check = 2, 3 once
        read an empty one)."""
        m = family_coeffs("chebyshev1", 256).truncated(terms)
        if n_check == 0 or terms == 1 or n_check > terms:
            match = (r"\(n=0\)" if n_check == 0 else r"\(n_max=1\)" if terms == 1
                     else f"r_{n_check} exceeds prefix length {terms}")
            with pytest.raises(PrefixError, match=match):
                ratio_asymptotic_check(m, [2j], n_check)
            return
        rep = ratio_asymptotic_check(m, [2j], n_check)
        diag = nevai_diagnostics(m)
        fz = ratio_limit_f(diag.a_limit, diag.c_limit, 2j)
        r = spectral.ratio_sequence(m, 2j, "P", n_terms=n_check).values[-1]
        assert rep.errors.tolist() == [abs(r - fz)]
        assert rep.monotone_tail in ((True,), (False,))

    def test_geronimus_excludes_kappa_by_caller(self, cheb1):
        tg = geronimus(cheb1, TransformPoint(1j, s0star=1.0))
        rep = ratio_asymptotic_check(tg.coeffs, [2j], 200)
        assert rep.errors[0] <= 1e-6


def test_an_eigensolver_failure_names_the_degree(monkeypatch):
    def no_convergence(J, size):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(spectral, "_eigvals", no_convergence)
    with pytest.raises(EigenSolverError, match="^eigensolver failed to converge at degree 7$") as exc:
        zeros(family_coeffs("chebyshev1", 16), 7)
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)
