import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darbouxjac import polyeval
from darbouxjac.core import CHEBYSHEV_KINDS, RecurrenceCoeffs, family_coeffs
from darbouxjac.darboux import TransformPoint, christoffel
from darbouxjac.errors import ConfigurationError, EvaluationRangeError, ZeroHitError
from darbouxjac.polyeval import (
    _scaled_run,
    _stride,
    _unscaled,
    eval_P,
    eval_Q,
    eval_R,
    ratio_sequence,
)
from test_ratio_kernel import PROPERTY, kappas, nevai_prefix

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

    @pytest.mark.parametrize("which", ["P", "R"])
    def test_ratio_reconstructs(self, cheb1, which):
        """r_n P_{n-1} = P_n, and likewise for R: the ratios rebuild the values."""
        z = 1.1 + 0.4j
        s0star = 1.0 if which == "R" else None

        def value(n):
            return eval_P(cheb1, n, z) if s0star is None else eval_R(cheb1, n, z, s0star)

        rs = ratio_sequence(cheb1, z, which, s0star=s0star, n_terms=40)
        for n in (1, 7, 40):
            assert abs(rs.r(n) * value(n - 1) - value(n)) <= 1e-12 * abs(value(n))

    def test_conjugate_reflection(self, cheb3):
        z = 0.4 + 1.3j
        up = ratio_sequence(cheb3, z, "P", n_terms=50).values
        down = ratio_sequence(cheb3, np.conj(z), "P", n_terms=50).values
        assert np.max(np.abs(up - np.conj(down))) < 1e-13


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


def per_step_run(m, n, z, deriv, envelope):
    """Reference loop: the window tested after every step on |y_n| alone, and
    every carried value divided by it."""
    z = np.asarray(z, dtype=complex)
    prev, cur, log_scale = np.ones_like(z), z - m.c[0], np.zeros(z.shape)
    dprev, dcur = np.zeros_like(z), np.ones_like(z)
    az = np.abs(z)
    eprev, ecur = np.ones(z.shape), np.maximum(az + abs(m.c[0]), 1.0)
    for k in range(1, n):
        zc = z - m.c[k]
        prev, cur = cur, zc * cur - m.lam[k - 1] * prev
        dprev, dcur = dcur, prev + zc * dcur - m.lam[k - 1] * dprev
        eprev, ecur = ecur, (az + abs(m.c[k])) * ecur + abs(m.lam[k - 1]) * eprev
        mag = np.abs(cur)
        out = (mag > 1e150) | ((mag > 1e-290) & (mag < 1e-150))
        if out.any():
            s = np.where(out, mag, 1.0)
            log_scale += np.log(s)
            for arr in (prev, cur, dprev, dcur, eprev, ecur):
                arr /= s
    return (prev, cur, log_scale) + ((dcur,) if deriv else ()) + ((ecur,) if envelope else ())


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_normalised(result) -> None:
    """The final normalisation of ``_scaled_run``, applied to its own output,
    changes no bit: values and P' are unscaled with log_scale 0 when K =
    max(|y_{n-1}|, |y_n|) lies in [1e-150, 1e150], else K is in [0.5, 1) (0,
    inf and nan are left unscaled).  A run that skips the normalisation
    returns such a fixed point, so it returns what the full rule would."""
    out = [np.array(x, ndmin=1) for x in result]
    mag = np.maximum(np.abs(out[0]), np.abs(out[1]))
    scale = np.rint(out[2] / math.log(2)).astype(int)
    with np.errstate(over="ignore"):
        v = np.ldexp(mag, scale)
    shift = np.where(((v > 1e150) | (v < 1e-150)) & (0 < mag) & (mag < np.inf),
                     -np.frexp(mag)[1], scale)
    again = [x.copy() for x in out]
    for arr in again[:2] + again[3:]:
        polyeval._ldexp(arr, shift)
    again[2] = (scale - shift) * math.log(2)
    assert all(same_bits(a, b) for a, b in zip(again, out))


# at least 1e-8 off the axes: a part of z^k below 1e-300 |z^k| is subnormal
# at the unit scale the stride-1 run keeps, and its bits follow the scale
angles = st.floats(-math.pi, math.pi).filter(lambda t: abs(math.sin(2 * t)) > 1e-8)


class TestRescaleStride:
    @pytest.mark.parametrize("deriv, envelope", [(True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("kind", CHEBYSHEV_KINDS)
    def test_points_inside_the_window_match_the_per_step_loop(self, kind, deriv, envelope):
        """Values that never leave [1e-150, 1e150] are never scaled: the run is
        the per-step loop bit for bit, with log_scale 0."""
        m = nevai_prefix(kind, 5, 256)
        z = np.array([0.3 + 0.2j, -0.7 + 0j, 2 + 1j, 0.5j, -1.1 - 0.05j, 1e-8])
        assert _stride(np.max(np.abs(z)), m.c, m.lam) > 100
        for n in (1, 2, 40, 256):
            expect = per_step_run(m, n, z, deriv, envelope)
            assert not expect[2].any()  # the loop never rescaled these points
            got = _scaled_run(m, n, z, 1.0, z - m.c[0], deriv, envelope)
            assert all(same_bits(a, b) for a, b in zip(got, expect))
            assert_normalised(got)

    @PROPERTY
    @given(
        st.sampled_from(CHEBYSHEV_KINDS),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        st.one_of(st.none(), kappas()),
        st.sampled_from(("none", "one", "all")),
        st.floats(0.0, 300.0),
        st.floats(-8.0, 200.0),
        st.lists(st.tuples(st.floats(0.0, 1.0), angles), min_size=1, max_size=12),
        st.booleans(),
        st.data(),
    )
    def test_default_stride_is_bitwise_stride_one(
        self, kind, seed, kappa, shrink, decades, top, points, real, data
    ):
        """Values, P', E and log_scale do not depend on the stride (|z| from
        1e-8 to 1e200, lambda scaled down to 1e-300, real and transformed
        prefixes, each point stopping at its own degree up to 256)."""
        m = nevai_prefix(kind, seed, 256)
        if kappa is not None:
            m = christoffel(m, TransformPoint(kappa)).coeffs
        lam = m.lam.copy()
        if shrink == "one":
            lam[data.draw(st.integers(0, len(lam) - 1))] *= 10.0**-decades
        elif shrink == "all":
            lam *= 10.0**-decades
        m = RecurrenceCoeffs(c=m.c, lam=lam, s0=m.s0)
        mods = np.array([10.0 ** (-8.0 + f * (top + 8.0)) for f, _ in points])
        if real:
            z = mods * np.sign([phase for _, phase in points])
        else:
            z = mods * np.exp(1j * np.array([phase for _, phase in points]))
        degrees = st.lists(st.integers(1, m.n_max), min_size=len(z), max_size=len(z))
        stop = np.sort(data.draw(degrees))
        args = (m, int(stop[-1]), z, 1.0, z - m.c[0], True, True)
        default = _scaled_run(*args, _stop=stop)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyeval, "_ROOM", 1.0)
            one = _scaled_run(*args, _stop=stop)
        assert all(same_bits(a, b) for a, b in zip(default, one))
        assert_normalised(default)

    def test_batch_rescaled_at_other_steps(self, cheb1):
        """|z| = 10 alone tests every 80 steps, next to |z| = 1e60 every other
        step: the values rescale at other steps and come back the same."""
        z = np.array([10 * np.exp(0.3j), 1e60j, -12.0 + 0j])
        assert _stride(10.0, cheb1.c, cheb1.lam) > 40 and _stride(1e60, cheb1.c, cheb1.lam) == 2
        batch = _scaled_run(cheb1, 256, z, 1.0, z - cheb1.c[0], True, True)
        for i in (0, 2):
            alone = _scaled_run(cheb1, 256, z[i], 1.0, z[i] - cheb1.c[0], True, True)
            assert batch[2][i] > 500 and all(same_bits(x[i], a) for x, a in zip(batch, alone))
            assert_normalised(alone)
        assert_normalised(batch)

    @PROPERTY
    @given(
        st.sampled_from(CHEBYSHEV_KINDS),
        st.one_of(st.none(), st.integers(0, 2**32 - 1)),
        st.one_of(st.none(), kappas()),
        st.floats(-8.0, 300.0),
        st.floats(0.0, 300.0),
        st.integers(2, 256),
    )
    def test_stride_is_the_longest_the_bound_allows(self, kind, seed, kappa, zlog, decades, n):
        """g^stride <= _ROOM < g^(stride + 1), or stride 1 when g > _ROOM, where g =
        a + max|lambda| + (a + 1)/min|lambda| and a = max|z| + max|c|: one step
        grows max(|y_{k-1}|, |y_k|) by at most a + max|lambda| and shrinks it by
        at most (a + 1)/min|lambda|."""
        m = nevai_prefix(kind, seed, 256)
        if kappa is not None:
            m = christoffel(m, TransformPoint(kappa)).coeffs
        n = min(n, m.n_max)
        c, lam = m.c[:n], m.lam[: n - 1] * 10.0**-decades
        a = 10.0**zlog + np.max(np.abs(c))
        with np.errstate(over="ignore"):  # as inside _scaled_run: g = inf gives 1
            g = a + np.max(np.abs(lam)) + (a + 1) / np.min(np.abs(lam))
            stride = _stride(10.0**zlog, c, lam)
        log_room = math.log(polyeval._ROOM)
        assert stride == 1 or stride * math.log(g) <= log_room
        assert (stride + 1) * math.log(g) > log_room

    @pytest.mark.parametrize("n, z", [(1, 1e200j), (2, 1e100 + 1e100j), (3, np.array([0.3, 1e90j]))])
    def test_unscaled_values_outside_the_window_are_normalised(self, cheb1, n, z):
        """No window test sees the last step, so a run that never rescaled
        can still end with K outside the window: it is normalised then."""
        out = _scaled_run(cheb1, n, z, 1.0, z - cheb1.c[0], True, True)
        assert np.max(out[2]) > 300
        assert_normalised(out)

    @pytest.mark.parametrize("zmax, entries", [(1.0, 1e300), (1e150, 0.25)])
    def test_no_headroom_tests_every_step(self, zmax, entries):
        """The fuzz's +-1e300 coefficients and |z| ~ 1e150 leave no room."""
        c = np.full(48, entries)
        assert _stride(zmax, c, np.full(47, entries)) == 1


def test_a_ratio_past_the_double_range_is_a_zero_hit():
    """c_4 = 1e308 at z = -1e308 sends r_4 to -inf with no cancellation for
    the breakdown test to see; the non-finite ratio is the zero hit, at n = 4."""
    c = [0.0] * 8
    c[3] = 1e308
    with pytest.raises(ZeroHitError) as exc:
        ratio_sequence(RecurrenceCoeffs(c=c, lam=[0.25] * 7), -1e308 + 0j)
    assert exc.value.index == 4 and str(exc.value) == "P_4 vanishes at the evaluation point"
