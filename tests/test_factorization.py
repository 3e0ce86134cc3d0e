import numpy as np
import pytest

from darbouxjac.core import RecurrenceCoeffs, family_coeffs, symmetric_jacobi_matrix, symmetrize
from darbouxjac.darboux import TransformPoint, christoffel, geronimus
from darbouxjac.errors import ConfigurationError, FactorBreakdownError
from darbouxjac.factorization import build_JC, build_JG, lower_from_upper, lu_factor, ul_factor
from darbouxjac.polyeval import ratio_sequence

KAPPAS = (1j, 1 + 1j, -2j)


def branch_insensitive_diff(a, b):
    return np.max(np.minimum(np.abs(a - b), np.abs(a + b)))


class TestLuFactor:
    def test_cheb1_first_entries(self, cheb1):
        f = lu_factor(symmetrize(cheb1), 1j)
        assert abs(f.d[0] - (-1j)) < 1e-15
        assert abs(f.v[0] - 1j / np.sqrt(2)) < 1e-15
        assert abs(f.d[1] - (-1.5j)) < 1e-15

    def test_d0_is_b0_minus_kappa(self, cheb3):
        J = symmetrize(cheb3)
        for kappa in KAPPAS:
            assert lu_factor(J, kappa).d[0] == J.b[0] - kappa

    def test_reconstruction(self, presets):
        for m in presets.values():
            J = symmetrize(m)
            scale = 1 + float(np.max(np.abs(J.b)) + np.max(np.abs(J.a)))
            for kappa in KAPPAS:
                f = lu_factor(J, kappa)
                diag, off = f.reconstruct()
                assert np.max(np.abs(diag - (J.b - kappa))) <= 1e-12 * scale
                assert np.max(np.abs(off - J.a)) <= 1e-12 * scale

    def test_entries_match_ratio_forms(self, cheb1):
        # d_j = -P_{j+1}(kappa)/P_j(kappa), v_j = -a_j P_j/P_{j+1}
        J = symmetrize(cheb1)
        for kappa in KAPPAS:
            f = lu_factor(J, kappa)
            rho = ratio_sequence(cheb1, kappa, "P").values
            assert np.max(np.abs(f.d + rho)) <= 1e-10
            assert np.max(np.abs(f.v + J.a[: len(f.v)] / rho[: len(f.v)])) <= 1e-10

    def test_sqrt_roundtrip(self, cheb2):
        f = lu_factor(symmetrize(cheb2), 1 + 1j)
        assert np.max(np.abs(f.sqrt_d**2 - f.d) / np.abs(f.d)) < 1e-13

    def test_breakdown_real_kappa(self, cheb1):
        # kappa = b_0 = 0 makes d_0 = 0 exactly
        with pytest.raises(FactorBreakdownError) as err:
            lu_factor(symmetrize(cheb1), 0.0)
        assert err.value.index == 0

    def test_breakdown_at_the_last_pivot(self, cheb1):
        # c_12 = kappa - lambda_12 P_10/P_11 at kappa makes P_12(kappa) = 0:
        # d_11, the last pivot of the 12-term factorization, collapses
        kappa, m = 1j, cheb1.truncated(12)
        w = ratio_sequence(m, kappa).values
        c = m.c.copy()
        c[-1] = kappa - m.lam[-1] / w[-2]
        with pytest.raises(FactorBreakdownError) as err:
            lu_factor(symmetrize(RecurrenceCoeffs(c=c, lam=m.lam)), kappa)
        assert (err.value.index, err.value.which) == (11, "d")


class TestBuildJC:
    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matches_symmetrized_christoffel(self, presets, kappa):
        for m in presets.values():
            JC = build_JC(lu_factor(symmetrize(m), kappa))
            S = symmetrize(christoffel(m, TransformPoint(kappa)).coeffs)
            nb = 50
            assert np.max(np.abs(JC.b[:nb] - S.b[:nb])) <= 1e-10
            assert branch_insensitive_diff(JC.a[:nb], S.a[:nb]) <= 1e-10

    def test_monic_reduction_fibonacci(self, cheb2):
        JC = build_JC(lu_factor(symmetrize(cheb2), 0.5j))
        mon = JC.to_monic()
        fib = [1, 1]
        for _ in range(40):
            fib.append(fib[-1] + fib[-2])
        for n in range(1, 30):
            lam_star = (-1) ** (n - 1) / (4 * fib[n] ** 2) + 0.25
            c_star = 1j * (-1) ** n / (2 * fib[n] * fib[n + 1])
            assert abs(mon.lam_n(n + 1) - lam_star) <= 1e-11
            assert abs(mon.c_n(n + 1) - c_star) <= 1e-11

    def test_output_complex_symmetric(self, cheb1):
        JC = build_JC(lu_factor(symmetrize(cheb1), 1j))
        M = symmetric_jacobi_matrix(JC, 20)
        assert np.max(np.abs(M - M.T)) == 0.0

    def test_commutation_identity(self, cheb1):
        # J^{k+1} - kappa J^k = L J_C^k L^T on truncations, window away from
        # the boundary so bandwidth growth cannot reach it
        kappa = 1j
        J = symmetrize(cheb1)
        f = lu_factor(J, kappa)
        Jd = symmetric_jacobi_matrix(J, 64)
        JCd = symmetric_jacobi_matrix(build_JC(f), 64)
        L = f.dense_L(64)
        w = 40
        for k in range(11):
            lhs = np.linalg.matrix_power(Jd, k + 1) - kappa * np.linalg.matrix_power(Jd, k)
            rhs = L @ np.linalg.matrix_power(JCd, k) @ L.T
            scale = max(1.0, float(np.max(np.abs(lhs[:w, :w]))))
            assert np.max(np.abs(lhs[:w, :w] - rhs[:w, :w])) <= 1e-9 * scale


class TestUlFactor:
    def test_initial_convention(self, cheb1):
        f = ul_factor(symmetrize(cheb1), 1j, 2.0)
        assert f.t[0] == 1.0
        assert abs(f.u[0] ** 2 - 0.5) < 1e-15

    def test_t1(self, cheb1):
        f = ul_factor(symmetrize(cheb1), 1j, 1.0)
        assert abs(f.t[1] - (-1 - 1j)) < 1e-15

    def test_reconstruction(self, presets):
        for m in presets.values():
            J = symmetrize(m)
            scale = 1 + float(np.max(np.abs(J.b)) + np.max(np.abs(J.a)))
            for kappa in KAPPAS:
                f = ul_factor(J, kappa, 1.0)
                diag, off = f.reconstruct()
                n = len(diag)
                assert np.max(np.abs(diag - (J.b[:n] - kappa))) <= 1e-12 * scale
                assert np.max(np.abs(off - J.a[: n - 1])) <= 1e-12 * scale

    def test_entries_match_R_ratio_forms(self, cheb1):
        # t_j = -R_j(kappa)/R_{j-1}(kappa), u_j = -a_{j-1} R_{j-1}/R_j
        kappa, s0star = 1j, 1.0
        J = symmetrize(cheb1)
        f = ul_factor(J, kappa, s0star)
        w = ratio_sequence(cheb1, kappa, "R", s0star=s0star).values
        n = 200
        assert np.max(np.abs(f.t[1 : n + 1] + w[:n])) <= 1e-10
        assert np.max(np.abs(f.u[1 : n + 1] + J.a[:n] / w[:n])) <= 1e-10

    def test_s0star_zero_rejected(self, cheb1):
        with pytest.raises(ConfigurationError):
            ul_factor(symmetrize(cheb1), 1j, 0.0)

    def test_breakdown(self, cheb1):
        # t_1 = b_0 - kappa - 1/s0star = 0 for kappa = -1, s0star = 1
        with pytest.raises(FactorBreakdownError) as err:
            ul_factor(symmetrize(cheb1), -1.0, 1.0)
        assert err.value.index == 1 and err.value.which == "t"

    def test_u0_sign_insensitivity(self, cheb1):
        # only u_0^2 is pinned; flipping the root leaves the monic reduction
        # of J_G unchanged
        J = symmetrize(cheb1)
        f = ul_factor(J, 1j, 1.0)
        flipped = type(f)(
            kappa=f.kappa, s0star=f.s0star, t=f.t, u=np.concatenate([[-f.u[0]], f.u[1:]]),
            sqrt_t=f.sqrt_t,
        )
        a = build_JG(f).to_monic()
        b = build_JG(flipped).to_monic()
        assert np.max(np.abs(a.c - b.c)) <= 1e-14
        assert np.max(np.abs(a.lam - b.lam)) <= 1e-14


    @pytest.mark.parametrize("kappa", [1j, 0.3 + 0.5j])
    def test_dense_U(self, cheb1, kappa):
        # U U^T = J - kappa I on the rows the 64 leading pivots determine,
        # and U^T U + kappa I = J_G(kappa)
        J = symmetrize(cheb1)
        f = ul_factor(J, kappa, 1.0)
        U, eye, w = f.dense_U(64), np.eye(64), 63
        lhs = symmetric_jacobi_matrix(J, 64) - kappa * eye
        assert np.max(np.abs((U @ U.T - lhs)[:w, :w])) <= 1e-14
        JGd = symmetric_jacobi_matrix(build_JG(f), 64)
        assert np.max(np.abs(U.T @ U + kappa * eye - JGd)) <= 1e-14


class TestBuildJG:
    def test_b0(self, cheb1):
        for kappa in KAPPAS:
            JG = build_JG(ul_factor(symmetrize(cheb1), kappa, 1.0))
            assert abs(JG.b[0] - (kappa + 1.0)) < 1e-14

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_matches_symmetrized_geronimus(self, presets, kappa):
        for m in presets.values():
            JG = build_JG(ul_factor(symmetrize(m), kappa, 1.0))
            S = symmetrize(geronimus(m, TransformPoint(kappa, s0star=1.0)).coeffs)
            nb = 50
            assert np.max(np.abs(JG.b[:nb] - S.b[:nb])) <= 1e-10
            assert branch_insensitive_diff(JG.a[:nb], S.a[:nb]) <= 1e-10

    def test_factor_roundtrip_closed_form(self, cheb1):
        # J_G - kappa I = U^T U, so its lower factor is U^T itself and
        # rebuilding J_C gives back U U^T + kappa I = J exactly
        kappa = 1j
        J = symmetrize(cheb1)
        f = ul_factor(J, kappa, 1.0)
        low = lower_from_upper(f)
        JG = build_JG(f)
        diag, off = low.reconstruct()
        assert np.max(np.abs(diag - (JG.b - kappa))) <= 1e-13
        assert np.max(np.abs(off - JG.a)) <= 1e-13
        back = build_JC(low)
        nb = back.n_max
        assert np.max(np.abs(back.b[:nb] - J.b[:nb])) <= 1e-9
        assert branch_insensitive_diff(back.a[: nb - 1], J.a[: nb - 1]) <= 1e-9

    def test_factor_roundtrip_recomputed_pivots(self, cheb1):
        # re-deriving the pivots from the assembled J_G doubles is only
        # conditioned on the leading window: entry j degrades like
        # (|f|^2/lambda)^j eps because kappa sits in sigma(J_G)
        kappa = 1j
        J = symmetrize(cheb1)
        JG = build_JG(ul_factor(J, kappa, 1.0))
        back = build_JC(lu_factor(JG, kappa))
        nb = 8
        assert np.max(np.abs(back.b[:nb] - J.b[:nb])) <= 1e-9
        assert branch_insensitive_diff(back.a[:nb], J.a[:nb]) <= 1e-9


def test_boundedness_proxy(presets):
    for m in presets.values():
        J = symmetrize(m)
        norm = float(np.max(np.abs(J.b)) + 2 * np.max(np.abs(J.a)))
        for kappa in (1j, 1 + 1j):
            s0star = 1.0
            f = lu_factor(J, kappa)
            u = ul_factor(J, kappa, s0star)
            bound = 10.0 * (norm + abs(kappa) + abs(1 / s0star) + 1.0)
            worst = max(
                np.max(np.abs(f.d[:200])),
                np.max(np.abs(f.v[:200])),
                np.max(np.abs(u.t[:200])),
                np.max(np.abs(u.u[:200])),
            )
            assert worst <= bound
