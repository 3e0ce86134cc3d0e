"""One degree rule across the library.

Every evaluator, sweep and relation takes its degrees through
``core._degrees``: an integer (an integral float and a numpy int are their
int) in the range that the call reads, checked before any transform.  A
non-integer is a ConfigurationError naming it, a degree out of range a
PrefixError naming n= (and the prefix length it needs); nothing else
escapes.  Counts (``n_terms``, ``count``, ``order``, ...) and sizes (of a
preset, a dense matrix or factor, a set of sample points) share the integer
check, each with its own range check.
"""
import re

import numpy as np
import pytest

from darbouxjac import darboux, rseq, spectral
from darbouxjac.core import (Record, RecurrenceCoeffs, family_coeffs, moments,
                             monic_jacobi_matrix, symmetric_jacobi_matrix, symmetrize)
from darbouxjac.darboux import (TransformPoint, cauchy_s0star, geronimus, geronimus_eval_from,
                                kernel_eval)
from darbouxjac.errors import ConfigurationError, DarbouxError, PrefixError
from darbouxjac.factorization import lu_factor, ul_factor
from darbouxjac.polyeval import eval_P, eval_Q, eval_R, ratio_sequence
from darbouxjac.rseq import (GeronimusPairQuasi, R1System, R2System, r1_general, r2_coeffs,
                             r2_prefix_length, rational_eval, sample_points,
                             varying_measure_polys)
from darbouxjac.spectral import (cluster_distance, cluster_sweep, geronimus_zero_cloud,
                                 geronimus_zero_sweep, kernel_zero_cloud, kernel_zero_sweep,
                                 ratio_asymptotic_check, verify_m_identities, zero_dynamics,
                                 zero_sweep, zeros)

N = 16
Z = 0.3 + 0.2j
ZS = sample_points(4)
KAPPA = 0.3 + 0.5j


def same(a, b) -> bool:
    """a and b agree in type and bit for bit, records and containers entry by entry."""
    if isinstance(a, Record):
        return type(a) is type(b) and same(a._values(), b._values())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


def build():
    """{name: (call of one degree, lowest degree, highest degree)} on 16 terms
    of chebyshev1: every public function that takes a degree or a degree list."""
    m = family_coeffs("chebyshev1", N)
    site = TransformPoint(KAPPA, s0star=cauchy_s0star(m, KAPPA))
    tc = geronimus(m, TransformPoint(KAPPA, s0star=-1j))
    k1, k2 = TransformPoint(1j), TransformPoint(-1j)
    sys1, sys2, pair = R1System(m, k1, k2), R2System(m, 1j), GeronimusPairQuasi(m, -1j)
    quasi_top = len(pair.Ap) + 2 - r2_prefix_length(0)
    return {
        "eval_P": (lambda n: eval_P(m, n, Z), 0, N),
        "eval_Q": (lambda n: eval_Q(m, n, Z), 0, N),
        "eval_R": (lambda n: eval_R(m, n, Z, -1j), 0, N),
        "kernel_eval": (lambda n: kernel_eval(m, site, n, Z), 0, N - 2),
        "kernel_eval-near-kappa": (lambda n: kernel_eval(m, site, n, KAPPA), 0, N - 2),
        "geronimus_eval_from": (lambda n: geronimus_eval_from(tc, n, Z), 0, len(tc.ratio_seq)),
        "R1System.coeffs": (lambda n: sys1.coeffs([n]), 1, N - 3),
        "R1System.residuals": (lambda n: sys1.residuals([2, n], ZS), 1, N - 3),
        "r1_general": (lambda n: r1_general(m, k1, 0.3j, n), 1, N - 1),
        "GeronimusPairQuasi.quasi": (lambda n: pair.quasi([4, n]), 0, quasi_top),
        "R2System.coeffs": (lambda n: sys2.coeffs([n], 0.1, 0.2), 1, N - 3),
        "R2System.residuals": (lambda n: sys2.residuals([3, n], ZS, 0.1, 0.2), 1, N - 3),
        "r2_coeffs": (lambda n: r2_coeffs(m, TransformPoint(1j), 0.1, 0.2, n), 1, N - 3),
        "zeros": (lambda n: zeros(m, n), 0, N),
        "zero_sweep": (lambda n: zero_sweep(m, [5, n]), 0, N),
        "kernel_zero_cloud": (lambda n: kernel_zero_cloud(m, site, n), 0, N - 2),
        "kernel_zero_sweep": (lambda n: kernel_zero_sweep(m, site, [n, 5]), 0, N - 2),
        "geronimus_zero_cloud": (lambda n: geronimus_zero_cloud(m, site, n), 1, N - 2),
        "geronimus_zero_sweep": (lambda n: geronimus_zero_sweep(m, site, [n, 5]), 1, N - 2),
        "cluster_distance": (lambda n: cluster_distance(m, site, n), 1, N - 2),
        "cluster_sweep": (lambda n: cluster_sweep(m, site, [5, n]), 1, N - 2),
        "zero_dynamics-christoffel": (lambda n: zero_dynamics(m, site, "christoffel", [n]),
                                      0, N - 2),
        "zero_dynamics-geronimus": (lambda n: zero_dynamics(m, site, "geronimus", [n, 5]),
                                    1, N - 2),
    }


CALLS = build()
DEGREES = {"in-range": 3, "zero": 0, "negative": -1, "past-prefix": None, "fraction": 2.5,
           "nan": float("nan"), "inf": float("inf"), "list": [3], "pair": [3, 4],
           "numpy-int": np.int64(3), "float": 3.0}
NOT_INTEGERS = ("fraction", "nan", "inf", "list", "pair")


@pytest.fixture
def no_transform(monkeypatch):
    """Every transform a degree check must come before raises AssertionError,
    which is no DarbouxError."""
    def tripwire(*args, **kwargs):
        raise AssertionError("a transform ran before the degree check")

    for module in (darboux, spectral, rseq):
        for name in ("christoffel", "geronimus"):
            monkeypatch.setattr(module, name, tripwire)


@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("name", CALLS)
def test_degree_rule(name, degree, request):
    call, lo, top = CALLS[name]
    n = top + 1 if degree == "past-prefix" else DEGREES[degree]
    if degree in NOT_INTEGERS:  # a list is no degree, nor an entry of a degree list
        request.getfixturevalue("no_transform")
        with pytest.raises(ConfigurationError, match=re.escape(f"n={n} is not an integer")):
            call(n)
    elif n < lo or n > top:
        request.getfixturevalue("no_transform")
        need = " needs a prefix of length >= " if n > top else " "
        with pytest.raises(PrefixError, match=re.escape(f"n={n}{need}")):
            call(n)
    else:
        # an integral float or a numpy int gives the output of the int call, bit for bit
        assert same(call(n), call(int(n)))


@pytest.mark.parametrize("n_list", [[2.7, 3.0], [3, float("nan")], [float("inf"), 2]])
def test_a_fractional_degree_in_a_sweep_is_refused_not_truncated(n_list):
    """The first non-integer of the list is named, not cast to a smaller degree."""
    m = family_coeffs("chebyshev1", N)
    bad = next(x for x in n_list if not float(x).is_integer())
    with pytest.raises(ConfigurationError, match=re.escape(f"degree n={bad} is not an integer")):
        zero_sweep(m, n_list)


def test_zero_dynamics_refuses_a_fractional_degree():
    m = family_coeffs("chebyshev1", N)
    site = TransformPoint(KAPPA, s0star=cauchy_s0star(m, KAPPA))
    with pytest.raises(ConfigurationError, match=re.escape("degree n=3.5 is not an integer")):
        zero_dynamics(m, site, "geronimus", [3.5, 6])
    report = zero_dynamics(m, site, "geronimus", [3.0, np.int64(6)])
    assert report.n_list == (3, 6) and all(type(n) is int for n in report.n_list)


def test_degrees_are_checked_in_list_order():
    m = family_coeffs("chebyshev1", N)
    for n_list, match in (([-1, 2.5], "n=-1 "), ([2.5, -1], "n=2.5 "), ([17, 2.5], "n=17 "),
                          ([0.5, 17], "n=0.5 ")):
        with pytest.raises(DarbouxError, match=re.escape(match)):
            zero_sweep(m, n_list)


def test_a_degree_list_is_any_iterable():
    m = family_coeffs("chebyshev1", N)
    want = zero_sweep(m, [3, 5])
    for n_list in ((3, 5), range(3, 6, 2), np.array([3, 5]), (n for n in [3, 5])):
        assert same(zero_sweep(m, n_list), want)


def counts():
    """{name: (call of one count, a valid count)} for the functions that take
    a count, not a degree."""
    m = family_coeffs("chebyshev1", N)
    site = TransformPoint(KAPPA, s0star=cauchy_s0star(m, KAPPA))
    polys = varying_measure_polys(m, [KAPPA], 1)
    J, ratios = symmetrize(m), ratio_sequence(m, Z)
    lower, upper = lu_factor(J, KAPPA), ul_factor(J, KAPPA, 1)
    return {
        "n_terms": (lambda k: ratio_sequence(m, Z, n_terms=k), 3),
        "count": (lambda k: moments(m, k), 3),
        "n_max": (lambda k: m.truncated(k), 3),
        "n_check": (lambda k: ratio_asymptotic_check(m, [2j], k), 3),
        "order": (lambda k: verify_m_identities(m, site, order=k), 3),
        "n": (lambda k: rational_eval(polys, [KAPPA], k, 0.2 + 0.1j), 1),
        "n-varying": (lambda k: varying_measure_polys(m, [KAPPA], k), 1),
        "n_max-family_coeffs": (lambda k: family_coeffs("chebyshev1", k), 4),
        "n-RatioSequence.r": (lambda k: ratios.r(k), 2),
        "n-c_n": (lambda k: m.c_n(k), 2),
        "n-lam_n": (lambda k: m.lam_n(k), 2),
        "count-sample_points": (lambda k: sample_points(k), 3),
        "size-monic_jacobi_matrix": (lambda k: monic_jacobi_matrix(m, k), 3),
        "size-symmetric_jacobi_matrix": (lambda k: symmetric_jacobi_matrix(J, k), 3),
        "size-dense_L": (lambda k: lower.dense_L(k), 3),
        "size-dense_U": (lambda k: upper.dense_U(k), 3),
    }


COUNTS = counts()


@pytest.mark.parametrize("name", COUNTS)
def test_counts_share_the_integer_check(name):
    """A count that is not an integer (a valid one plus 0.5) is a
    ConfigurationError naming it, not a bare TypeError or a silent cast; an
    integral float is its int."""
    call, k = COUNTS[name]
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"{name.split('-')[0]}={k + 0.5} is not an integer")):
        call(k + 0.5)
    assert same(call(float(k)), call(k))


def sizes():
    """{name: (call of one size, smallest size, largest size, the errors and
    messages below and past that range)}: a dense truncation of a prefix
    holds 0 to n_max rows, a dense factor 1 to its length."""
    m = family_coeffs("chebyshev1", N)
    J = symmetrize(m)
    lower, upper = lu_factor(J, KAPPA), ul_factor(J, KAPPA, 1)
    negative = (ConfigurationError, "size=-1 must be nonnegative")
    factor, past = "size={} outside the factor's rows 1..{}", f"truncation size {N + 1} exceeds"
    return {
        "monic_jacobi_matrix": (lambda k: monic_jacobi_matrix(m, k), 0, N, negative,
                                (PrefixError, f"{past} prefix length {N}")),
        "symmetric_jacobi_matrix": (lambda k: symmetric_jacobi_matrix(J, k), 0, N, negative,
                                    (PrefixError, f"{past} stored length {N}")),
        "dense_L": (lambda k: lower.dense_L(k), 1, len(lower.d),
                    (PrefixError, factor.format(0, len(lower.d))),
                    (PrefixError, factor.format(len(lower.d) + 1, len(lower.d)))),
        "dense_U": (lambda k: upper.dense_U(k), 1, len(upper.t),
                    (PrefixError, factor.format(0, len(upper.t))),
                    (PrefixError, factor.format(len(upper.t) + 1, len(upper.t)))),
    }


SIZES = sizes()


@pytest.mark.parametrize("name", SIZES)
def test_sizes_keep_their_range(name):
    """A size below the range or past the stored data is a typed error naming
    it (it was a numpy ValueError, or a broadcast one past a factor); the
    ends of the range give a square matrix of that size."""
    call, lo, top, below, past = SIZES[name]
    for size, (error, message) in ((lo - 1, below), (top + 1, past)):
        with pytest.raises(error, match=re.escape(message)):
            call(size)
    for size in (lo, top):
        assert call(size).shape == (size, size)


def layouts():
    """{name: (call of one size, smallest size, largest size, (diagonal,
    superdiagonal, subdiagonal) of one size)} on a complex prefix; None is a
    zero band.  Each entry is computed as its builder computes it."""
    rng = np.random.default_rng(11)
    m = RecurrenceCoeffs(c=rng.normal(size=N) + 1j * rng.normal(size=N),
                         lam=rng.normal(size=N - 1) + 1j * rng.normal(size=N - 1))
    J = symmetrize(m)
    lower, upper = lu_factor(J, KAPPA), ul_factor(J, KAPPA, 1)
    return {
        "monic_jacobi_matrix": (lambda k: monic_jacobi_matrix(m, k), 0, N,
                                lambda k: (m.c[:k], [1.0] * N, m.lam)),
        "symmetric_jacobi_matrix": (lambda k: symmetric_jacobi_matrix(J, k), 0, N,
                                    lambda k: (J.b[:k], J.a, J.a)),
        "dense_L": (lambda k: lower.dense_L(k), 1, len(lower.d),
                    lambda k: (lower.sqrt_d[:k], None, lower.v[: k - 1] * lower.sqrt_d[: k - 1])),
        "dense_U": (lambda k: upper.dense_U(k), 1, len(upper.t),
                    lambda k: (upper.u[:k] * upper.sqrt_t[:k], upper.sqrt_t[1:], None)),
    }


LAYOUTS = layouts()


@pytest.mark.parametrize("name", LAYOUTS)
def test_dense_builders_lay_out_their_bands(name):
    """Sizes 0 (where the range has it), 1, 2 and the largest give the matrix
    laid out here entry by entry, bit for bit."""
    call, lo, top, bands = LAYOUTS[name]
    for size in sorted({lo, 1, 2, top}):
        diag, upper, lower = bands(size)
        want = np.zeros((size, size), dtype=complex)
        for i in range(size):
            want[i, i] = diag[i]
            if i + 1 < size:
                want[i, i + 1] = 0 if upper is None else upper[i]
                want[i + 1, i] = 0 if lower is None else lower[i]
        got = call(size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (name, size)


def test_a_negative_order_is_named():
    m = family_coeffs("chebyshev1", N)
    site = TransformPoint(KAPPA, s0star=cauchy_s0star(m, KAPPA))
    with pytest.raises(ConfigurationError, match=re.escape("order=-1 must be nonnegative")):
        verify_m_identities(m, site, order=-1)


def test_a_negative_sample_count_is_named():
    """It returned an empty array."""
    with pytest.raises(ConfigurationError, match=re.escape("count=-1 must be nonnegative")):
        sample_points(-1)
    assert sample_points(0).shape == (0,)
