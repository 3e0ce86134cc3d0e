"""Fuzz of the command line, in process: every argv exits 0, 1, 2 or 3
(SystemExit included), no other exception escapes ``cli.main`` and no
RuntimeWarning is raised (numpy overflow or division warnings would reach
stderr).

Inputs: the three subcommands on a preset, a missing --coeff-file or one
of four coefficient files (a real Nevai perturbation of 48 terms, whose
zeros take the symmetric route and whose r1 suite steps at the Cauchy value
without a preset weight; 48 entries of magnitude 1e299..1e300 with either
sign; six terms whose continued fraction has a pole at kappa = 3; a
malformed document), --n-max in 2..16 or 30..48 (where the r2 and
r1 verify suites, which need 34 and 43 terms, pass from PrefixError to their
degree sweeps), --n / --n-list values in -2..20, complex literals
whose parts have magnitude 1e-300..1e300 (or are 0) with either sign,
optional --then-* steps, and verify suites, and an optional --output: a
writable file (which must then hold exactly the bytes the same argv writes
to stdout), a directory, or a path under a missing directory.
"""
import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from darbouxjac import cli
from darbouxjac.core import CHEBYSHEV_KINDS, RecurrenceCoeffs
from test_ratio_kernel import nevai_prefix

COEFF_FILES = ("nevai", "huge", "pole", "malformed")
OUTPUTS = ("file", "dir", "missing")

FUZZ = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

parts = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from((1.0, -1.0)), st.floats(-300, 300)),
)


@st.composite
def literals(draw) -> str:
    re, im = draw(parts), draw(parts)
    return f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


@st.composite
def argvs(draw) -> list[str]:
    cmd = draw(st.sampled_from(("transform", "zeros", "verify")))
    pick = draw(st.integers(0, 9))
    if pick == 0:
        base = "--coeff-file=does-not-exist/coeffs.json"
    elif pick <= 3:  # a placeholder for the path of a session file
        base = f"--coeff-file={{{draw(st.sampled_from(COEFF_FILES))}}}"
    else:
        base = f"--family={draw(st.sampled_from(CHEBYSHEV_KINDS))}"
    n_max = draw(st.one_of(st.integers(2, 16), st.integers(30, 48)))
    argv = [cmd, base, f"--n-max={n_max}"]

    def maybe(flag):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(literals())}")

    if cmd == "transform":
        for flag in ("--christoffel", "--geronimus", "--s0star",
                     "--then-christoffel", "--then-geronimus", "--then-s0star"):
            maybe(flag)
        if draw(st.booleans()):
            argv.append(f"--n={draw(st.integers(-2, 20))}")
    elif cmd == "zeros":
        argv.append(f"--kind={draw(st.sampled_from(('plain', 'christoffel', 'geronimus')))}")
        maybe("--kappa")
        maybe("--s0star")
        ns = draw(st.lists(st.integers(-2, 20), min_size=1, max_size=3))
        listed = ",".join(map(str, ns)) if draw(st.booleans()) else f"{ns[0]}:{ns[-1]}"
        argv.append(f"--n-list={listed}")
    else:
        for suite in draw(st.lists(st.sampled_from(sorted(cli._SUITES)), max_size=2)):
            argv.append(f"--suite={suite}")
        maybe("--kappa")
        maybe("--s0star")
    if draw(st.integers(0, 3)) == 0:  # a placeholder for an --output path
        argv.append(f"--output={{{draw(st.sampled_from(OUTPUTS))}}}")
    return argv


@pytest.fixture(scope="session")
def coeff_files(tmp_path_factory) -> dict[str, str]:
    """Paths of the four coefficient files, by name."""
    rng = np.random.default_rng(7)
    signs = rng.choice((-1.0, 1.0), 95)
    huge = RecurrenceCoeffs(c=signs[:48] * 10.0 ** rng.uniform(299, 300, 48),
                            lam=signs[48:] * 10.0 ** rng.uniform(299, 300, 47))
    docs = {
        "nevai": json.dumps(nevai_prefix("chebyshev2", 3).to_dict()),
        "huge": json.dumps(huge.to_dict()),
        # every tail of the continued fraction at kappa = 3 is -1, and its
        # last denominator c_1 - kappa - t_2 is exactly 0
        "pole": json.dumps(RecurrenceCoeffs(c=[2, 0, 0, 0, 0, 0], lam=[2] * 5).to_dict()),
        "malformed": '{"v": 1, "kind": "recurrence", "c": [[0.0, 0.0], [0.0]], "lambda": "x"}',
    }
    root = tmp_path_factory.mktemp("coeff-files")
    for name, text in docs.items():
        (root / f"{name}.json").write_text(text, encoding="utf-8")
    return {name: str(root / f"{name}.json") for name in docs}


def run(argv) -> tuple[int, str]:
    """Exit code and stdout of cli.main, any RuntimeWarning an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (code, argv)
    return code, out.getvalue()


def test_r1_on_coefficients_past_the_sample_scale_fails(coeff_files, capsys):
    """On the +-1e300 file z - c_k rounds to -c_k at every sample point, so
    every r1 residual is 0.0; the suite reports that its points cannot
    resolve the prefix instead of passing."""
    argv = ["verify", f"--coeff-file={coeff_files['huge']}", "--suite=r1", "--kappa=0.3+0.5i"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    entry = json.loads(out)["suites"]["r1"]
    assert entry["pass"] is False and entry["max_residual"] == 0.0
    assert entry["unresolved_scale"] > 1e299
    assert "Traceback" not in err


HUGE_KAPPA = "1.7e308+1.7e308i"  # finite, with a modulus past the double range
# a modulus within it, but every continued-fraction tail and the Cauchy value
# underflow to 0: the Cauchy step divided by zero, R1System's cross-check
# and its R_I coefficients overflowed with numpy warnings
FAR_KAPPA = "1e308+1e308i"


@pytest.mark.parametrize("argv", [
    ["transform", f"--christoffel={HUGE_KAPPA}"],
    ["transform", f"--christoffel={HUGE_KAPPA}", "--then-geronimus=0+1i", "--then-s0star=1-1i"],
    ["transform", f"--geronimus={HUGE_KAPPA}"],
    ["transform", f"--geronimus={HUGE_KAPPA}", "--s0star=1-1i"],
    ["zeros", "--kind=christoffel", f"--kappa={HUGE_KAPPA}", "--n-list=5"],
    ["zeros", "--kind=geronimus", f"--kappa={HUGE_KAPPA}", "--n-list=5"],
    *(["verify", f"--suite={suite}", f"--kappa={HUGE_KAPPA}"]
      for suite in ("strips", "m-identities", "r1", "r2", "factorization")),
    ["transform", f"--geronimus={FAR_KAPPA}"],
    *(["verify", f"--suite={suite}", f"--kappa={FAR_KAPPA}"] for suite in ("r1", "r2")),
])
def test_a_kappa_past_the_double_range_is_one_error_line(argv, capsys):
    """|kappa| overflowed in the breakdown scale of the ratio run and in the
    tail seed of the continued fraction, and escaped as a bare OverflowError;
    at FAR_KAPPA the tails underflow (see there)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main([*argv, "--family=chebyshev1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@FUZZ
@given(argv=argvs())
# far from the support at the Cauchy value (once a false breakdown at n = 1)
@example(["transform", "--family=chebyshev1", "--n-max=16", "--geronimus=1e7+1i"])
# once numpy warnings: an overflowing Christoffel s0, a real kernel site
@example(["transform", "--family=chebyshev4", "--n-max=13", "--geronimus=0.0-1.0i",
          "--s0star=0.0-1.5e+120i", "--then-christoffel=-8.3e+265-1.6e-158i"])
@example(["zeros", "--family=chebyshev3", "--n-max=12", "--kind=christoffel",
          "--kappa=0.0+0.0i", "--n-list=4"])
# the r1 and r2 suites one term short of their degree sweeps, and on them
@example(["verify", "--family=chebyshev2", "--n-max=42", "--suite=r1", "--kappa=0.3+0.5i"])
@example(["verify", "--family=chebyshev2", "--n-max=33", "--suite=r2", "--kappa=0.3+0.5i"])
@example(["verify", "--family=chebyshev2", "--n-max=43", "--suite=r1", "--suite=r2",
          "--kappa=0.3+0.5i"])
# the r1 suite at the Cauchy value of a prefix with no preset weight (exit 1
# before it took the continued-fraction value); values past the double range
@example(["verify", "--coeff-file={nevai}", "--suite=r1", "--kappa=0.3+0.5i"])
@example(["zeros", "--coeff-file={huge}", "--n-list=1:10"])
@example(["verify", "--coeff-file={huge}", "--suite=r1", "--suite=r2"])
@example(["transform", "--coeff-file={huge}", "--christoffel=0.0+1.0i"])
# a pole of the continued fraction (once a ZeroDivisionError out of cli.main)
@example(["transform", "--coeff-file={pole}", "--geronimus=3+0i"])
# --output: a file, a directory, a path under a missing directory
@example(["zeros", "--family=chebyshev1", "--n-list=1:10", "--output={file}"])
@example(["verify", "--family=chebyshev1", "--suite=r1", "--kappa=0.3+0.5i", "--output={file}"])
@example(["transform", "--family=chebyshev2", "--geronimus=0.0+1.0i", "--output={dir}"])
@example(["zeros", "--family=chebyshev3", "--n-list=2", "--output={missing}"])
def test_cli_exits_with_a_documented_code(coeff_files, tmp_path_factory, argv):
    argv = [argv[0], argv[1].format(**coeff_files), *argv[2:]]
    if not argv[-1].startswith("--output="):
        run(argv)
        return
    output = argv[-1][len("--output={") : -1]
    root = tmp_path_factory.getbasetemp() / "cli-output"
    root.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(dir=root)
    os.close(fd)
    try:
        where = {"file": path, "dir": str(root), "missing": str(root / "missing" / "out")}
        code, stdout = run(argv[:-1] + [f"--output={where[output]}"])
        if output != "file":
            return
        with open(path, "rb") as fh:
            written = fh.read()
        code_stdout, to_stdout = run(argv[:-1])
        assert stdout == "" and code == code_stdout and written == to_stdout.encode("utf-8")
    finally:
        os.remove(path)
