"""Property tests of the zero sweep and of the two strip bounds.

Prefixes and sites come from the strategies of test_ratio_kernel: the four
presets and seeded real Nevai-class perturbations of them, kappa nonreal
with |Im kappa| down to 1e-3, and s0star in the closed half-plane opposite
kappa (where the Geronimus transform exists).
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from darbouxjac import spectral
from darbouxjac.core import CHEBYSHEV_KINDS, family_coeffs, symmetric_jacobi_matrix
from darbouxjac.darboux import TransformPoint, christoffel
from darbouxjac.spectral import (
    geronimus_zero_sweep,
    kernel_zero_sweep,
    strip_check,
    zero_sweep,
    zeros,
)
from test_ratio_kernel import N_MAX, PROPERTY, kappas, nevai_prefix, opposite_s0star, prefixes


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
