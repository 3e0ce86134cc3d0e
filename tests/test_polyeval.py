import numpy as np
import pytest

from darbouxjac.core import RecurrenceCoeffs, family_coeffs
from darbouxjac.errors import ConfigurationError, EvaluationRangeError, ZeroHitError
from darbouxjac.polyeval import (
    _scaled_run,
    _unscaled,
    eval_P,
    eval_Q,
    eval_R,
    evaluate,
    ratio_sequence,
)

RNG = np.random.default_rng(0x5EED)


def naive_eval(m, which, n, z, s0star=None):
    """Plain unscaled recurrence, used as the independent oracle."""
    if which == "P":
        prev, cur = 1.0 + 0j, z - m.c[0]
    elif which == "Q":
        prev, cur = 0.0j, complex(m.s0)
    else:
        prev, cur = 1.0 + 0j, z - m.c[0] + m.s0 / s0star
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, (z - m.c[k]) * cur - m.lam[k - 1] * prev
    return cur


class TestEvalP:
    def test_T2_at_half(self, cheb1):
        assert abs(eval_P(cheb1, 2, 0.5) - (-0.25)) < 1e-15

    def test_degree_zero(self, cheb1):
        assert eval_P(cheb1, 0, 7 + 3j) == 1

    def test_fibonacci_value(self, cheb2):
        # F_n = 2^n U_n(i/2) / i^n with F_3 = 3, so U_3(i/2) = i^3 3/8 = -3i/8
        assert abs(eval_P(cheb2, 3, 0.5j) - (-0.375j)) < 1e-15

    def test_scaled_matches_naive_n30(self, cheb1):
        for z in (0.3 + 0.7j, 2.5, -1.2 + 0.1j):
            for n in (5, 17, 30):
                a = eval_P(cheb1, n, z)
                b = naive_eval(cheb1, "P", n, z)
                assert abs(a - b) <= 1e-12 * max(abs(b), 1e-300)

    def test_scaling_handles_large_degree(self, cheb1):
        # monic Chebyshev values decay like 2^{1-n}; no underflow to zero
        val = eval_P(cheb1, 200, 0.3)
        assert val != 0
        assert abs(val) < 1e-50


class TestEvalQ:
    def test_initial_data(self, cheb1):
        assert eval_Q(cheb1, 0, 2.2 + 1j) == 0
        assert eval_Q(cheb1, 1, 2.2 + 1j) == 1

    def test_Q2_is_z(self, cheb1):
        for z in (0.5, 1j, 2 - 3j):
            assert abs(eval_Q(cheb1, 2, z) - z) < 1e-15

    def test_Q3_at_two(self, cheb1):
        assert abs(eval_Q(cheb1, 3, 2.0) - 3.75) < 1e-15

    def test_scales_with_s0(self, cheb1):
        m = RecurrenceCoeffs(c=cheb1.c, lam=cheb1.lam, s0=3.0)
        assert abs(eval_Q(m, 3, 2.0) - 3 * 3.75) < 1e-14


class TestEvalR:
    def test_degree_zero(self, cheb1):
        assert eval_R(cheb1, 0, 5j, 2.0) == 1

    def test_R1(self, cheb1):
        assert abs(eval_R(cheb1, 1, 1j, 1.0) - (1j + 1)) < 1e-15
        assert abs(eval_R(cheb1, 1, 0.0, 2.0) - 0.5) < 1e-15

    def test_s0star_zero_rejected(self, cheb1):
        with pytest.raises(ConfigurationError):
            eval_R(cheb1, 3, 1j, 0.0)

    def test_large_s0star_limit(self, cheb1):
        for n in (3, 10, 25):
            p = eval_P(cheb1, n, 0.7 + 0.2j)
            r = eval_R(cheb1, n, 0.7 + 0.2j, 1e12)
            assert abs(r - p) <= 1e-3 * abs(p)


class TestWronskian:
    def test_Dn_recurrence(self, presets):
        # D_n = P_{n+1} Q_n - P_n Q_{n+1} satisfies D_n = lambda_{n+1} D_{n-1},
        # D_0 = -s_0: verified numerically for random z
        for m in presets.values():
            for z in RNG.standard_normal(4) + 1j * RNG.standard_normal(4):
                d_prev = -complex(m.s0)
                for n in range(1, 25):
                    t1 = eval_P(m, n + 1, z) * eval_Q(m, n, z)
                    t2 = eval_P(m, n, z) * eval_Q(m, n + 1, z)
                    d = t1 - t2
                    expected = m.lam_n(n + 1) * d_prev
                    # scale includes the products: the difference cancels them
                    # down to ~4^-n, so "relative to D_n" would measure only
                    # floating-point conditioning, not the identity
                    scale = max(abs(t1), abs(t2), abs(expected))
                    assert abs(d - expected) <= 1e-11 * scale
                    d_prev = expected


class TestRatioSequence:
    def test_fibonacci_ratios(self, cheb2):
        rs = ratio_sequence(cheb2, 0.5j, "P", n_terms=10)
        assert abs(rs.r(2) - 1j) < 1e-15
        fib = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        for n in range(2, 10):
            expect = 0.5j * fib[n] / fib[n - 1]
            assert abs(rs.r(n) - expect) < 1e-13

    def test_imaginary_part_bound(self, presets):
        # 0 > Im(P_{n-1}/P_n) >= -1/Im z for positive-definite coefficients
        z = 2j
        for m in presets.values():
            rs = ratio_sequence(m, z, "P", n_terms=100)
            inv = 1.0 / rs.values
            assert np.all(inv.imag < 0)
            assert np.all(inv.imag >= -1 / z.imag - 1e-14)

    def test_cheb1_ratio_limit_at_one(self, cheb1):
        rs = ratio_sequence(cheb1, 1.0, "P", n_terms=200)
        assert abs(rs.r(200) - 0.5) < 1e-12

    def test_zero_hit(self, cheb2):
        with pytest.raises(ZeroHitError) as err:
            ratio_sequence(cheb2, 0.0, "P", n_terms=5)
        assert err.value.index == 1

    def test_q_sequence_starts_at_two(self, cheb1):
        rs = ratio_sequence(cheb1, 1.7j, "Q", n_terms=5)
        assert rs.start == 2
        assert abs(rs.r(2) - 1.7j) < 1e-15  # Q_2/Q_1 = z - c_2

    def test_r_sequence(self, cheb1):
        rs = ratio_sequence(cheb1, 1j, "R", s0star=1.0, n_terms=5)
        assert abs(rs.r(1) - (1j + 1)) < 1e-15

    def test_conjugate_reflection(self, cheb3):
        z = 0.4 + 1.3j
        up = ratio_sequence(cheb3, z, "P", n_terms=50).values
        down = ratio_sequence(cheb3, np.conj(z), "P", n_terms=50).values
        assert np.max(np.abs(up - np.conj(down))) < 1e-13


class TestEvaluate:
    def test_ratio_reconstructs(self, cheb1):
        z = 1.1 + 0.4j
        for n in (1, 7, 40):
            t = evaluate(cheb1, n, z)
            p_prev = eval_P(cheb1, n - 1, z)
            p_n = eval_P(cheb1, n, z)
            assert abs(t.ratio_P * p_prev - p_n) <= 1e-12 * abs(p_n)

    def test_r_field_present_only_with_s0star(self, cheb1):
        assert evaluate(cheb1, 3, 1j).value_R is None
        t = evaluate(cheb1, 3, 1j, s0star=1.0)
        assert t.value_R is not None
        expect = eval_R(cheb1, 3, 1j, 1.0)
        got = t.value_R * np.exp(t.log_scale)
        assert abs(got - expect) < 1e-13 * max(1.0, abs(expect))


def naive_run(m, n, z):
    """Unscaled (P_n, P'_n, E_n) by the plain loop, the reference for the
    batched evaluator."""
    p_prev, p = 1.0 + 0j, z - m.c[0]
    d_prev, d = 0j, 1.0 + 0j
    e_prev, e = 1.0, max(abs(z) + abs(m.c[0]), 1.0)
    for k in range(1, n):
        zc = z - m.c[k]
        p_prev, p = p, zc * p - m.lam[k - 1] * p_prev
        d_prev, d = d, p_prev + zc * d - m.lam[k - 1] * d_prev
        e_prev, e = e, abs(zc) * e + abs(m.lam[k - 1]) * e_prev
    return p, d, e


class TestBatchedRun:
    # |z| = 1e8 leaves the rescale window within 19 steps; the others never do
    ZS = np.array([1e8 * np.exp(0.3j), 0.3 + 0.2j, -0.7 + 0j, 1e8j, 2 + 1j])

    def run(self, m, n, z):
        return _scaled_run(m, n, z, 1.0, z - m.c[0], deriv=True, envelope=True)

    def test_batch_equals_points_alone(self, cheb1):
        m = cheb1
        batch = self.run(m, 256, self.ZS)
        assert batch[2][0] > 1000 and batch[2][1] == 0  # one rescaled, one not
        for i, z in enumerate(self.ZS):
            alone = self.run(m, 256, complex(z))
            assert all(type(x) in (complex, float) for x in alone)
            assert tuple(x[i] for x in batch) == alone

    def test_matches_scalar_eval_P_and_reference(self, cheb1):
        m = cheb1
        for n in (1, 2, 30, 256):
            prev, cur, log_scale, dcur, ecur = self.run(m, n, self.ZS)
            for i, z in enumerate(self.ZS):
                if log_scale[i] < 700:  # P_n(z) is a finite double
                    expect = eval_P(m, n, complex(z))
                    assert abs(cur[i] * np.exp(log_scale[i]) - expect) <= 1e-13 * abs(expect)
            if n <= 30:  # the unscaled reference is finite up to here
                for i, z in enumerate(self.ZS):
                    p, d, e = naive_run(m, n, complex(z))
                    f = np.exp(log_scale[i])
                    assert abs(cur[i] * f - p) <= 1e-13 * abs(p)
                    assert abs(dcur[i] * f - d) <= 1e-13 * abs(d)
                    assert abs(ecur[i] * f - e) <= 1e-13 * e

    def test_eval_P_accepts_arrays(self, cheb1):
        zs = np.array([0.3 + 0.7j, 2.5, -1.2 + 0.1j])
        got = eval_P(cheb1, 17, zs)
        assert np.array_equal(got, [eval_P(cheb1, 17, z) for z in zs])


class TestEvaluationRange:
    @pytest.mark.parametrize(
        "evaluate_at",
        [
            lambda m, z: eval_P(m, 256, z),
            lambda m, z: eval_Q(m, 256, z),
            lambda m, z: eval_R(m, 256, z, 1.0),
            lambda m, z: eval_P(m, 256, np.array([0.3, z])),
        ],
    )
    def test_value_beyond_double_range_raises(self, cheb1, evaluate_at):
        # |P_256(1e8 i)| ~ 1e2048: no inf/nan and no numpy warning
        with np.errstate(all="raise"):
            with pytest.raises(EvaluationRangeError) as err:
                evaluate_at(cheb1, 1e8j)
        assert err.value.index == 256
        assert isinstance(err.value, OverflowError)

    def test_large_value_inside_range_is_returned(self, cheb1):
        val = eval_P(cheb1, 100, 1e3)
        assert abs(val / naive_eval(cheb1, "P", 100, 1e3 + 0j) - 1) < 1e-13

    def test_scale_factor_overflow_alone_is_not_an_error(self):
        # exp(750) overflows on its own, 1e-150 exp(750) ~ 5.3e175 does not
        assert abs(_unscaled(1e-150 + 0j, 750.0, 5) / 5.258494541454803e175 - 1) < 1e-12
