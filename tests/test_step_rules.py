"""The input rules of a Darboux step, each decided once in ``darboux``.

* Prefix: ``steps`` steps take 2 terms each and leave at least 2, so they
  need 2 steps + 2 terms (``step_prefix_length``, which ``_check_steps`` and
  ``darbouxjac transform`` read).  Every caller refuses a shorter prefix with
  one PrefixError message, before any step runs.
* Leading terms: the first n terms of the result of a forward step read the
  leading max(n, 2) + 2 terms of the input (``_leading``).
* Cauchy value: every Geronimus step at it is one routine,
  ``darboux._cauchy_step``.  A real kappa inside a preset's support has
  none, and the step refuses it, as it refuses a continued-fraction tail
  that left the double range; one quadrature (``_cross_check``) checks the
  value of one site or of a chain of sites against the preset's weight.
"""
import json
import re

import numpy as np
import pytest

import darbouxjac
from darbouxjac import cli, darboux, polyeval, rseq
from darbouxjac._quadrature import gauss_nodes
from darbouxjac.core import RecurrenceCoeffs, family_coeffs
from darbouxjac.darboux import (GeronimusChain, TransformPoint, cauchy_s0star, christoffel,
                                christoffel_two, geronimus, geronimus_cauchy, kernel_eval)
from darbouxjac.errors import (ConfigurationError, EvaluationRangeError, PrefixError,
                               QuadratureError)
from darbouxjac.rseq import GeronimusPairQuasi, R1System, R2System, varying_measure_polys
from test_quadrature_crosscheck import bare

KAPPA = 0.3 + 0.5j


@pytest.fixture
def runs(monkeypatch):
    """The names of the forward ratio runs and backward tail runs made, at
    every binding of the two kernels, and of the backward runs of the one
    Cauchy step (``_cauchy_run``, which only ``darboux`` binds)."""
    made = []
    for module, name in ((polyeval, "_ratio_run"), (darboux, "_ratio_run"), (darboux, "_tails"),
                         (darboux, "_cauchy_run")):
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


def _chain(m, kappa):
    GeronimusChain(m).apply(kappa)


CAUCHY_STEPS = {
    "geronimus_cauchy": (geronimus_cauchy, [True]),
    "GeronimusChain.apply": (_chain, [True]),
    "R1System": (lambda m, kappa: R1System(m, TransformPoint(0.5j), TransformPoint(kappa)),
                 [False]),
    "GeronimusPairQuasi": (GeronimusPairQuasi, [True, False]),
    "varying_measure_polys": (lambda m, kappa: varying_measure_polys(m, [kappa, 2 * kappa], 0),
                              [True] * 4),
}


@pytest.fixture
def cauchy_steps(monkeypatch):
    """The ``coeffs`` flag of each call of the one Cauchy step, at both of its
    bindings, and the number of backward runs (``_cauchy_run``) made."""
    steps, backward = [], []
    real, run = darboux._cauchy_step, darboux._cauchy_run

    def step(base, m, kappa, coeffs=True):
        steps.append(coeffs)
        return real(base, m, kappa, coeffs)

    for module in (darboux, rseq):
        monkeypatch.setattr(module, "_cauchy_step", step)
    monkeypatch.setattr(darboux, "_cauchy_run", lambda *a, **kw: backward.append(1) or run(*a, **kw))
    return steps, backward


@pytest.mark.parametrize("name", CAUCHY_STEPS)
def test_every_cauchy_value_step_is_the_one_routine(cauchy_steps, name):
    """Each caller takes its Geronimus steps at the Cauchy value through
    ``_cauchy_step``, one call per step, and runs no backward run of its own;
    R1System and the second step of GeronimusPairQuasi form no coefficients."""
    call, want = CAUCHY_STEPS[name]
    call(family_coeffs("chebyshev1", 64), KAPPA)
    steps, backward = cauchy_steps
    assert steps == want and len(backward) == len(want)


FAR = 1e308 + 1e308j  # every tail of a preset's continued fraction underflows to 0 here


@pytest.mark.parametrize("name", CAUCHY_STEPS)
def test_a_tail_past_the_double_range_is_refused_before_any_coefficient(monkeypatch, name):
    """Complex division overflowed its scaled denominator, so every tail and
    the Cauchy value came out 0: the pair's first step divided by zero in
    ``_dqd_coeffs``, and R1System checked with -t_2 = 0.  One tail that
    underflows (a c entry of 1e308 + 1e308i) is named by its degree."""
    def no_coefficients(*args):
        raise AssertionError("a coefficient was formed")

    monkeypatch.setattr(darboux, "_dqd_coeffs", no_coefficients)
    call = CAUCHY_STEPS[name][0]
    m = family_coeffs("chebyshev1", 64)
    c = m.c.copy()
    c[10] = FAR
    for prefix, kappa, degree in ((m, FAR, 0), (RecurrenceCoeffs(c=c, lam=m.lam), KAPPA, 10)):
        with pytest.raises(EvaluationRangeError) as exc:
            call(prefix, kappa)
        assert exc.value.index == degree


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


def test_step_prefix_length_is_the_rule_every_caller_names():
    """One public function in darboux, not re-exported by the package."""
    assert [darboux.step_prefix_length(k) for k in (1, 2, 3)] == [4, 6, 8]
    assert "step_prefix_length" in darboux.__all__
    assert "step_prefix_length" not in darbouxjac.__all__


@pytest.fixture
def cli_steps(monkeypatch):
    """The Darboux calls that ``cli`` makes, by name."""
    made = []
    for name in ("christoffel", "geronimus", "cauchy_s0star"):
        def counted(*args, _real=getattr(cli, name), _name=name, **kwargs):
            made.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    return made


TWO_STEP_CHAINS = [("--geronimus=0+1i", "--then-geronimus=0-1i"),
                   ("--christoffel=0+1i", "--then-christoffel=0-1i"),
                   ("--geronimus=0+1i", "--s0star=1+0i", "--then-christoffel=0+1i")]


def transform(argv, capsys) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``darbouxjac transform`` on chebyshev1."""
    code = cli.main(["transform", "--family=chebyshev1", *argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("n_max", [4, 5])
@pytest.mark.parametrize("chain", TWO_STEP_CHAINS)
def test_transform_refuses_a_chain_before_its_first_step(cli_steps, capsys, chain, n_max):
    """A two-step chain on 4 or 5 terms ran its first step and then failed
    naming the one-step length 4; the inverse pair wrote a 1-term file."""
    code, out, err = transform([f"--n-max={n_max}", *chain], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: a 2-step transform needs a prefix of length >= 6, got {n_max}\n"
    assert cli_steps == []
    code, out, _ = transform(["--n-max=6", *chain], capsys)
    assert code == 0 and json.loads(out)["n_max"] == 2
    assert cli_steps.count("christoffel") + cli_steps.count("geronimus") == 2


@pytest.mark.parametrize("steps, n, out_len", [(("--christoffel=0+1i",), 255, 254),
                                               (("--christoffel=0+1i",), 0, 254),
                                               (TWO_STEP_CHAINS[0], 253, 252)])
def test_transform_refuses_an_n_past_the_chain_output(cli_steps, capsys, steps, n, out_len):
    """--n=255 transformed all 256 terms, then failed to truncate 254 to 255."""
    code, out, err = transform([*steps, f"--n={n}"], capsys)
    k = len(steps)
    assert (code, out, cli_steps) == (1, "", [])
    assert err == (f"error: --n={n} is outside 1..{out_len}: a {k}-step transform of 256 "
                   f"terms leaves {out_len}\n")
    code, out, _ = transform([*steps, f"--n={out_len}"], capsys)
    assert code == 0 and json.loads(out)["n_max"] == out_len


@pytest.mark.parametrize("argv, flag", [
    (("--christoffel=0+1i", "--s0star=1+0i"), "--s0star"),
    (("--christoffel=0+1i", "--then-christoffel=0-1i", "--then-s0star=1+0i"), "--then-s0star"),
    (("--geronimus=0+1i", "--then-s0star=1+0i"), "--then-s0star"),
])
def test_transform_refuses_an_s0star_with_no_geronimus_step(cli_steps, capsys, argv, flag):
    """The option was ignored, and the command exited 0."""
    code, out, err = transform(argv, capsys)
    assert (code, out, cli_steps) == (2, "", [])
    assert err == f"error: {flag} needs {flag.replace('s0star', 'geronimus')}\n"


@pytest.mark.parametrize("n_max", [4, 5])
def test_the_inverse_pair_takes_the_forward_prefixes(runs, n_max):
    """Christoffel at the kappa of a 2- or 3-term Geronimus result took the
    inverse-pair branch before the step rule: on 2 terms it raised a
    ConfigurationError of inconsistent lengths, on 3 it returned 1 term."""
    tc = geronimus(family_coeffs("chebyshev1", n_max), TransformPoint(1j, s0star=1.0))
    assert tc.coeffs.n_max == n_max - 2
    runs.clear()
    for m in (tc, tc.coeffs):
        with pytest.raises(PrefixError, match=re.escape("christoffel needs a prefix of length >= 4")):
            christoffel(m, TransformPoint(1j))
    assert runs == []


def test_the_inverse_pair_returns_the_base_on_four_terms():
    base = family_coeffs("chebyshev1", 6)
    back = christoffel(geronimus(base, TransformPoint(1j, s0star=1.0)), TransformPoint(1j))
    assert back.notes == ("kernel-ratios-from-geronimus-inverse",)
    assert back.coeffs.c.tolist() == base.c[:2].tolist()
    assert back.coeffs.lam.tolist() == base.lam[:1].tolist()
