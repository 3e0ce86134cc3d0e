"""The quadrature cross-checks of the Cauchy values.

cauchy_s0star, geronimus_cauchy and varying_measure_polys compare the Cauchy
value they step with a kind-matched quadrature of the preset's weight, and
raise QuadratureError, naming both values, when the two disagree; the CLI
turns that into exit 1.  A prefix with no family has no weight to integrate.
"""
import pytest

from darbouxjac import darboux
from darbouxjac.cli import main
from darbouxjac.core import CHEBYSHEV_KINDS, RecurrenceCoeffs, family_coeffs
from darbouxjac.darboux import cauchy_s0star, geronimus_cauchy
from darbouxjac.errors import QuadratureError
from darbouxjac.rseq import GeronimusPairQuasi, varying_measure_polys

KAPPA = 0.3 + 0.5j
CALLS = {
    "cauchy_s0star": lambda m: cauchy_s0star(m, KAPPA),
    "geronimus_cauchy": lambda m: geronimus_cauchy(m, KAPPA),
    "varying_measure_polys": lambda m: varying_measure_polys(m, [KAPPA], 1),
}


def bare(m: RecurrenceCoeffs) -> RecurrenceCoeffs:
    return RecurrenceCoeffs(c=m.c, lam=m.lam, s0=m.s0)


def checked_value(name: str, m: RecurrenceCoeffs) -> complex:
    """The first Cauchy value the call checks: its s0star, or the pair's."""
    if name == "varying_measure_polys":
        return GeronimusPairQuasi(m, KAPPA).s0star
    return cauchy_s0star(bare(m), KAPPA)


@pytest.fixture
def off_by_1e8(monkeypatch):
    """adaptive_integral, as darboux's one cross-check calls it for a site or a
    chain of sites, returning the true value plus 1e-8 (well past both
    tolerances); the list of what it returned."""
    quads, real = [], darboux.adaptive_integral

    def off(*args, **kwargs):
        quads.append(real(*args, **kwargs) + 1e-8)
        return quads[-1]

    monkeypatch.setattr(darboux, "adaptive_integral", off)
    return quads


@pytest.mark.parametrize("kind", CHEBYSHEV_KINDS)
@pytest.mark.parametrize("name", CALLS)
def test_disagreement_raises_naming_both_values(off_by_1e8, name, kind):
    m = family_coeffs(kind, 64)
    value = checked_value(name, m)
    with pytest.raises(QuadratureError) as exc:
        CALLS[name](m)
    assert len(off_by_1e8) == 1
    assert f"{off_by_1e8[0]}" in str(exc.value) and f"{value}" in str(exc.value)


@pytest.mark.parametrize("name", CALLS)
def test_a_nan_quadrature_fails(monkeypatch, name):
    """The integrand runs with numpy's warnings off (past the double range it
    overflows), so a nan it leaves fails the comparison, as a number off by
    1e-8 does."""
    monkeypatch.setattr(darboux, "adaptive_integral", lambda *a, **kw: complex("nan"))
    with pytest.raises(QuadratureError, match="disagree: \\(nan"):
        CALLS[name](family_coeffs("chebyshev1", 64))


@pytest.mark.parametrize("name", CALLS)
def test_prefix_without_a_family_integrates_nothing(off_by_1e8, name):
    CALLS[name](bare(family_coeffs("chebyshev2", 64)))
    assert off_by_1e8 == []


@pytest.mark.parametrize("kind", CHEBYSHEV_KINDS)
@pytest.mark.parametrize("name", CALLS)
def test_presets_pass_the_true_quadrature(name, kind):
    CALLS[name](family_coeffs(kind, 64))


def test_cli_exits_1_with_one_error_line(off_by_1e8, capsys):
    assert main(["transform", "--family=chebyshev1", "--geronimus=0.3+0.5i"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: quadrature and continued-fraction Cauchy transforms disagree")
    assert len(off_by_1e8) == 1
