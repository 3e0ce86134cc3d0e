"""Tests of the benchmark's own parts: oracle, request generator, checks, spans.

Run with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CLOSED_FORM_ZEROS = {
    "chebyshev1": lambda k, n: np.cos((2 * k - 1) * np.pi / (2 * n)),
    "chebyshev2": lambda k, n: np.cos(k * np.pi / (n + 1)),
    "chebyshev3": lambda k, n: np.cos((2 * k - 1) * np.pi / (2 * n + 1)),
    "chebyshev4": lambda k, n: np.cos(2 * k * np.pi / (2 * n + 1)),
}


@pytest.mark.parametrize(
    "kind, n", [(k, n) for k in sorted(CLOSED_FORM_ZEROS) for n in (7, 100)] + [("chebyshev4", 256)]
)
def test_oracle_certifies_chebyshev_closed_form_zeros(kind, n):
    c, lam, _ = oracle.preset(kind, 256)
    k = np.arange(1, n + 1)
    zs = CLOSED_FORM_ZEROS[kind](k, n)
    errs, separated = oracle.zero_errors(c, lam, n, zs)
    assert separated
    assert max(errs) < 1e-15
    # a zero moved by 1e-9 is reported as 1e-9 off
    moved = zs.copy()
    moved[n // 2] += 1e-9
    errs, _ = oracle.zero_errors(c, lam, n, moved)
    assert errs[n // 2] == pytest.approx(1e-9, rel=1e-3)


def test_oracle_flags_a_missing_zero():
    c, lam, _ = oracle.preset("chebyshev2", 32)
    zs = np.cos(np.arange(1, 21) * np.pi / 21)
    zs[1] = zs[0]  # duplicate: the cloud no longer holds 20 distinct zeros
    _, separated = oracle.zero_errors(c, lam, 20, zs)
    assert not separated


@pytest.mark.parametrize("kind", workloads.PRESETS)
@pytest.mark.parametrize("kappa", [0.3 + 0.5j, -1.4 - 0.9j, 0.5 + 0.001j])
def test_oracle_geronimus_then_christoffel_returns_the_base(kind, kappa):
    c, lam, s0 = oracle.preset(kind, 128)
    s0star = complex(0.8, -np.sign(kappa.imag) * 0.4)
    rc, rlam, rs0 = oracle.ref_roundtrip(c, lam, s0, kappa, s0star)
    assert len(rc) == 124 and len(rlam) == 123
    assert max(abs(a - b) for a, b in zip(rc, c)) < 1e-30
    assert max(abs(a - b) for a, b in zip(rlam, lam)) < 1e-30
    assert abs(rs0 - s0) < 1e-30


@pytest.mark.parametrize("z", [0.3 + 0.5j, -1.4 - 0.9j, 0.5 + 0.001j, 2.0 - 0.1j])
def test_oracle_cauchy_matches_closed_forms(z):
    with mp.workdps(60):
        zm = mp.mpc(z)
        root = mp.sqrt(zm - 1) * mp.sqrt(zm + 1)
        closed = {"chebyshev1": -1 / root, "chebyshev2": -2 * (zm - root)}
        for kind, ref in closed.items():
            got = oracle.ref_cauchy(*oracle.preset(kind, 8), z)
            assert abs(got - ref) < 1e-30 * abs(ref)


def test_oracle_presets_match_the_library():
    from darbouxjac import family_coeffs

    for kind in workloads.PRESETS:
        c, lam, s0 = oracle.preset(kind, 16)
        m = family_coeffs(kind, 16)
        assert list(m.c) == c and list(m.lam) == lam and m.s0 == s0


def test_oracle_does_not_import_the_modules_it_checks():
    source = (HERE / "oracle.py").read_text()
    for module in ("darboux", "spectral", "rseq"):
        assert f"darbouxjac.{module}" not in source.replace(f"``darbouxjac.{module}``", "")
        assert f"from darbouxjac import" not in source


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_no_generated_argv_is_a_usage_error(workload, seed, tmp_path):
    from darbouxjac import cli

    requests, files = workloads.build(workload, seed, tmp_path)
    assert requests
    parser = cli.build_parser()
    for req in requests:
        if req.argv is None:
            continue
        assert all(not a.startswith("--") or "=" in a for a in req.argv[1:]), req.argv
        args = parser.parse_args(list(req.argv))  # SystemExit(2) fails the test
        assert args.family or args.coeff_file


def test_space_separated_negative_literal_is_the_usage_error_avoided():
    from darbouxjac import cli

    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["transform", "--family", "chebyshev1",
                                       "--christoffel", "-0.8-0.2i"])
    assert exc.value.code == 2


def test_requests_follow_the_seed(tmp_path):
    a, fa = workloads.build("transform", 3, tmp_path)
    b, fb = workloads.build("transform", 3, tmp_path)
    c, _ = workloads.build("transform", 4, tmp_path)
    assert [(r.op, r.argv, r.params) for r in a] == [(r.op, r.argv, r.params) for r in b]
    assert [r.argv for r in a] != [r.argv for r in c]
    z1, f1 = workloads.build("zeros", 3, tmp_path)
    z2, f2 = workloads.build("zeros", 3, tmp_path)
    assert f1 == f2 and [r.argv for r in z1] == [r.argv for r in z2]


def test_sites_follow_the_stated_distribution():
    rng = np.random.default_rng(0)
    sites = workloads.draw_sites(rng, 400)
    kappa = np.array([k for k, _ in sites])
    s0star = np.array([s for _, s in sites])
    assert np.all(np.abs(kappa.real) <= 1.5)
    assert np.all((1e-3 <= np.abs(kappa.imag)) & (np.abs(kappa.imag) <= 1.0))
    assert np.sum(kappa.imag > 0) == 200
    # s0star in the closed half-plane opposite kappa
    assert np.all(s0star.imag * np.sign(kappa.imag) <= 0)


def _log_radius(kappa: complex) -> float:
    """Log-radius of the Bernstein ellipse around [-1, 1] through kappa."""
    w = abs(kappa + np.sqrt(kappa - 1) * np.sqrt(kappa + 1))
    return abs(np.log(w))


def test_ellipse_half_height_is_on_the_ellipse():
    for x in (0.0, 0.5, -0.99, 1.0):
        h = workloads.ellipse_half_height(x, 0.3)
        assert _log_radius(complex(x, h)) == pytest.approx(0.3, rel=1e-9)
    assert workloads.ellipse_half_height(1.2, 0.3) == 0.0


@pytest.mark.parametrize(
    "radius", [workloads.CAUCHY_MIN_LOG_RADIUS, workloads.VERIFY_MIN_LOG_RADIUS]
)
def test_sites_stay_outside_the_ellipse(radius):
    rng = np.random.default_rng(0)
    sites = workloads.draw_sites(rng, 400, radius)
    kappa = np.array([k for k, _ in sites])
    # kappa is rounded to 6 digits after the draw
    assert min(_log_radius(k) for k in kappa) >= radius * (1 - 1e-5)
    assert np.all(np.abs(kappa.real) <= 1.5) and np.all(np.abs(kappa.imag) <= 1.0)
    assert np.sum(kappa.imag > 0) == 200
    # beyond the ellipse's ends the floor is still 1e-3
    assert np.min(np.abs(kappa.imag)) < 1e-2


def test_verify_ellipse_holds_the_degree_one_strip_failures():
    # chebyshev1, degree 1: strips fails inside |kappa - i r| < r, r = 1/(2 sqrt 2)
    r = 1 / (2 * np.sqrt(2))
    disk = 1j * r + r * np.exp(1j * np.linspace(0, np.pi, 201))
    assert max(map(_log_radius, disk)) < workloads.VERIFY_MIN_LOG_RADIUS


def test_timed_requests_need_no_cauchy_s0star_near_the_support(tmp_path):
    for seed in range(5):
        requests, _ = workloads.build("transform", seed, tmp_path)
        for req in requests:
            if req.op == "transform/geronimus-cauchy":
                assert _log_radius(req.params["kappa"]) >= 0.99 * workloads.CAUCHY_MIN_LOG_RADIUS
            if req.op == "lib/varying_measure_polys":
                assert min(map(_log_radius, req.params["kappas"])) >= (
                    0.99 * workloads.CAUCHY_MIN_LOG_RADIUS)
        requests, _ = workloads.build("verify", seed, tmp_path)
        assert min(_log_radius(r.params["kappa"]) for r in requests) >= (
            0.99 * workloads.VERIFY_MIN_LOG_RADIUS)


def test_known_defects_are_valid_requests():
    from darbouxjac import cli

    parser = cli.build_parser()
    for req in workloads.KNOWN_DEFECTS:
        if req.argv is not None:
            parser.parse_args(list(req.argv))
        assert _log_radius(req.params.get("kappa", 0.5 + 0.001j)) < workloads.VERIFY_MIN_LOG_RADIUS


def test_outcomes_are_classified():
    req = workloads.Request("verify/strips", ("verify",), {"suite": "strips"})
    out = workloads.Outcome(rc=1, stdout='{"pass": false, "suites": {"strips": {"pass": false}}}')
    assert check.check(req, out, {}).reasons == ["suite:strips"]
    req = workloads.Request("transform/christoffel", ("transform",), {})
    out = workloads.Outcome(rc=1, stderr="error: quadrature did not converge: 2.1e-02 at 4096 nodes")
    assert check.check(req, out, {}).reasons == ["exit1:quadrature did not converge: # at # nodes"]
    out = workloads.Outcome(error="ValueError")
    assert check.check(req, out, {}).reasons == ["exception:ValueError"]


def test_interior_calibrations_are_left_out_of_the_time():
    import signal

    import run

    def busy(seconds):
        t0 = run.CLOCK()
        while run.CLOCK() - t0 < seconds:
            pass
        return "done"

    clock = run.NormalisedClock(interior=True)
    before = signal.getsignal(signal.SIGALRM)
    t0 = run.CLOCK()
    out, normalised, raw = clock.time(busy, 4 * run.TICK_S)
    total = run.CLOCK() - t0
    assert out == "done" and clock.ticks >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # busy() counted the calibrations that interrupted it; raw does not
    assert 3 * run.TICK_S < raw < 4 * run.TICK_S < total and normalised > 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_outer_self_time_excludes_child_span():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.now += 3.0

    traced_inner = tracer.wrap("darboux.christoffel", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 2.0

    tracer.wrap("spectral.kernel_zero_cloud", outer)()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["darboux.christoffel"].self_s == 3.0
    assert by_name["spectral.kernel_zero_cloud"].self_s == 3.0
    assert by_name["darboux.christoffel"].parent == by_name["spectral.kernel_zero_cloud"].id
    metrics = tracer.pass_metrics(0)
    assert metrics["spectral.self_s"] == 3.0 and metrics["darboux.self_s"] == 3.0


def test_install_wraps_every_binding_and_attributes_nested_calls():
    import darbouxjac
    from darbouxjac import cli, darboux, spectral

    originals = (darboux.christoffel, cli.christoffel, spectral.christoffel, darbouxjac.christoffel)
    tracer = spans.Tracer(typed_error=darbouxjac.DarbouxError)
    uninstall = spans.install(tracer)
    try:
        wrapped = {darboux.christoffel, cli.christoffel, spectral.christoffel, darbouxjac.christoffel}
        assert len(wrapped) == 1 and wrapped.isdisjoint(originals)
        m = darbouxjac.family_coeffs("chebyshev1", 16)
        site = darbouxjac.TransformPoint(0.3 + 0.5j)
        spectral.kernel_zero_cloud(m, site, 5)
        spectral.kernel_zero_cloud(m, site, 6)
    finally:
        uninstall()
    assert (darboux.christoffel, cli.christoffel, spectral.christoffel,
            darbouxjac.christoffel) == originals
    by_id = {s.id: s for s in tracer.spans}
    inner = [s for s in tracer.spans if s.name == "darboux.christoffel"]
    assert len(inner) == 2
    assert all(by_id[s.parent].name == "spectral.kernel_zero_cloud" for s in inner)
    metrics = tracer.pass_metrics(0)
    assert metrics["darboux.terms"] == 32
    assert metrics["darboux.unique_ratio"] == 0.5
    assert metrics["spectral.zeros.degree_sum"] == 11
