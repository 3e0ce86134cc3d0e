"""The input rules of a Darboux step, each decided once in ``darboux``.

* Prefix: ``steps`` steps take 2 terms each and leave at least 2, so they
  need 2 steps + 2 terms (``_check_steps``).  Every caller refuses a shorter
  prefix with one PrefixError message, before any step runs.
* Leading terms: the first n terms of the result of a forward step read the
  leading max(n, 2) + 2 terms of the input (``_leading``).
* Cauchy value: a real kappa inside a preset's support has none, and every
  Cauchy step refuses it; one quadrature (``_cross_check``) checks the value
  of one site or of a chain of sites against the preset's weight.
"""
import re

import numpy as np
import pytest

from darbouxjac import darboux, polyeval, rseq
from darbouxjac._quadrature import gauss_nodes
from darbouxjac.core import family_coeffs
from darbouxjac.darboux import (GeronimusChain, TransformPoint, cauchy_s0star, christoffel,
                                christoffel_two, geronimus, geronimus_cauchy, kernel_eval)
from darbouxjac.errors import ConfigurationError, PrefixError, QuadratureError
from darbouxjac.rseq import GeronimusPairQuasi, R2System, varying_measure_polys
from test_quadrature_crosscheck import bare

KAPPA = 0.3 + 0.5j


@pytest.fixture
def runs(monkeypatch):
    """The names of the forward ratio runs and backward tail runs made, at
    every binding of the two kernels."""
    made = []
    for module, name in ((polyeval, "_ratio_run"), (darboux, "_ratio_run"), (darboux, "_tails"),
                         (rseq, "_tails")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            made.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return made


ONE_STEP = {
    "christoffel": (lambda m: christoffel(m, TransformPoint(KAPPA)), "christoffel"),
    "geronimus": (lambda m: geronimus(m, TransformPoint(KAPPA, s0star=-1j)), "geronimus"),
    "geronimus_cauchy": (lambda m: geronimus_cauchy(m, KAPPA), "geronimus"),
    "GeronimusChain.apply": (lambda m: GeronimusChain(m).apply(KAPPA), "geronimus"),
    "kernel_eval": (lambda m: kernel_eval(m, TransformPoint(KAPPA), 1, 0.5), "kernel_eval"),
}
TWO_STEPS = {
    "christoffel_two": lambda m: christoffel_two(m, TransformPoint(KAPPA),
                                                 TransformPoint(KAPPA.conjugate())),
    "R2System": lambda m: R2System(m, KAPPA),
    "GeronimusPairQuasi": lambda m: GeronimusPairQuasi(m, KAPPA),
}


@pytest.mark.parametrize("name", ONE_STEP)
def test_one_step_needs_four_terms(runs, name):
    call, what = ONE_STEP[name]
    with pytest.raises(PrefixError, match=re.escape(f"{what} needs a prefix of length >= 4")):
        call(family_coeffs("chebyshev1", 3))
    assert runs == []
    call(family_coeffs("chebyshev1", 4))


@pytest.mark.parametrize("n_max", [4, 5])
@pytest.mark.parametrize("name", TWO_STEPS)
def test_two_steps_need_six_terms_before_the_first_step(runs, name, n_max):
    """The two-step callers used to run the first step on 4 or 5 terms and
    fail in the second, naming the one-step length."""
    with pytest.raises(PrefixError, match=re.escape(f"{name} needs a prefix of length >= 6")):
        TWO_STEPS[name](family_coeffs("chebyshev1", n_max))
    assert runs == []


@pytest.mark.parametrize("name", TWO_STEPS)
def test_two_steps_run_on_six_terms(name):
    TWO_STEPS[name](family_coeffs("chebyshev1", 6))


def test_a_chain_names_the_step_that_runs_out():
    chain = GeronimusChain(family_coeffs("chebyshev1", 5))
    chain.apply(KAPPA)
    with pytest.raises(PrefixError, match=re.escape("geronimus needs a prefix of length >= 4")):
        chain.apply(KAPPA.conjugate())
    assert len(chain.steps) == 1


@pytest.mark.parametrize("n", [0, 1])
def test_kernel_eval_takes_the_same_prefixes_on_both_routes(n):
    """On 3 terms the route near kappa (a Christoffel step) and the two-term
    route away from it (no step) refuse alike; on 4 both give a value."""
    site = TransformPoint(KAPPA)
    for n_max, raises in ((3, True), (4, False)):
        m = family_coeffs("chebyshev1", n_max)
        for z in (KAPPA, 0.5):
            if raises:
                with pytest.raises(PrefixError,
                                   match=re.escape("kernel_eval needs a prefix of length >= 4")):
                    kernel_eval(m, site, n, z)
            else:
                assert np.isfinite(kernel_eval(m, site, n, z))


def test_leading_terms():
    """A step reads max(n + 2, 4) terms for n terms of its result."""
    m = family_coeffs("chebyshev1", 64)
    for n in range(12):
        assert darboux._leading(m, n).n_max == max(n + 2, 4)
    assert darboux._leading(m, 63).n_max == 64


@pytest.mark.parametrize("kind", ["chebyshev1", "chebyshev3"])
@pytest.mark.parametrize("kappa", [0.5, -1.0, 1.0])
def test_a_chain_refuses_a_site_inside_the_support(runs, kind, kappa):
    m = family_coeffs(kind, 64)
    with pytest.raises(ConfigurationError) as want:
        geronimus_cauchy(m, kappa)
    chain = GeronimusChain(m)
    with pytest.raises(ConfigurationError) as got:
        chain.apply(kappa)
    assert str(got.value) == str(want.value) == (
        f"kappa={complex(kappa)} lies inside the support [-1.0, 1.0]")
    assert chain.steps == [] and runs == []


def test_a_chain_steps_outside_the_support_and_without_a_family(monkeypatch):
    """Off the support the chain's s0star is cauchy_s0star's, bit for bit; a
    prefix with no family has no support to refuse.  Neither runs a quadrature."""
    m = family_coeffs("chebyshev1", 64)
    want = cauchy_s0star(m, 2.0)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a chain step ran a quadrature")

    monkeypatch.setattr(darboux, "adaptive_integral", no_quadrature)
    chain = GeronimusChain(m)
    chain.apply(2.0)
    assert chain.steps[0]["s0star"] == want
    GeronimusChain(bare(m)).apply(0.5)


@pytest.fixture
def quadratures(monkeypatch):
    """(integrand at the 256 nodes of the family's rule, stop) of each
    quadrature darboux runs, the integrand evaluated when it runs."""
    seen, real = [], darboux.adaptive_integral

    def spy(family, f, stop):
        seen.append((f(gauss_nodes(family.kind, 256)[0]), stop))
        return real(family, f, stop=stop)

    monkeypatch.setattr(darboux, "adaptive_integral", spy)
    return seen


def test_one_site_integrates_one_over_t_minus_kappa(quadratures):
    cauchy_s0star(family_coeffs("chebyshev2", 64), KAPPA)
    ((values, stop),) = quadratures
    t = gauss_nodes("chebyshev2", 256)[0]
    assert stop == 2048 and values.tobytes() == (1.0 / (t - KAPPA)).tobytes()


def test_a_chain_integrates_one_over_the_product(quadratures):
    """varying_measure_polys checks the value after each of its Geronimus
    steps, on 1/prod (t - kappa_j) over the sites stepped so far."""
    sites = [KAPPA, -0.2 + 0.7j]
    varying_measure_polys(family_coeffs("chebyshev1", 64), sites, 1)
    stepped = [KAPPA, KAPPA.conjugate(), sites[1], sites[1].conjugate()]
    t = gauss_nodes("chebyshev1", 256)[0]
    assert [stop for _, stop in quadratures] == [4096] * 4
    for j, (values, _) in enumerate(quadratures, 1):
        want = 1.0
        for kappa in stepped[:j]:
            want = want / (t - kappa)
        assert values.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, refused", [
    ("cauchy_s0star", True), ("geronimus_cauchy", True), ("varying_measure_polys", False)])
def test_each_call_site_keeps_its_tolerance(monkeypatch, name, refused):
    """A quadrature 5e-10 off fails a single site's 1e-10 and passes a
    chain's 1e-9."""
    real = darboux.adaptive_integral
    monkeypatch.setattr(darboux, "adaptive_integral", lambda *a, **k: real(*a, **k) + 5e-10)
    m = family_coeffs("chebyshev1", 64)
    call = {"cauchy_s0star": lambda: cauchy_s0star(m, KAPPA),
            "geronimus_cauchy": lambda: geronimus_cauchy(m, KAPPA),
            "varying_measure_polys": lambda: varying_measure_polys(m, [KAPPA], 1)}[name]
    if refused:
        with pytest.raises(QuadratureError, match="Cauchy transforms disagree"):
            call()
    else:
        call()
