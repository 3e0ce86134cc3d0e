"""spectral, rseq and factorization execute on first use.

The package registers the three modules in sys.modules as lazy modules and
serves their names through a module ``__getattr__``.  Each cold-start case
runs in a fresh interpreter, so that no other test has loaded a module
first; ``type()`` of a lazy module does not load it.
"""
import importlib
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import darbouxjac

LAZY = ("spectral", "rseq", "factorization")

# the public names of `import darbouxjac`, by the module that defines them
PUBLIC = {
    "core": ("CHEBYSHEV_KINDS", "DEFAULT_N_MAX", "Family", "RecurrenceCoeffs",
             "SymmetricJacobi", "family_coeffs", "moments", "symmetrize"),
    "darboux": ("GeronimusChain", "TransformPoint", "TransformedCoeffs", "cauchy_s0star",
                "christoffel", "christoffel_two", "geronimus", "geronimus_cauchy",
                "geronimus_eval_from", "kernel_eval"),
    "errors": ("ConfigurationError", "DarbouxError", "DegeneracyError", "EigenSolverError",
               "EvaluationRangeError", "ExistenceError", "FactorBreakdownError", "PoleError",
               "PrefixError", "QuadratureError", "QuasiDefinitenessError",
               "ResidualCheckError", "ZeroHitError"),
    "factorization": ("LowerFactor", "UpperFactor", "build_JC", "build_JG",
                      "lower_from_upper", "lu_factor", "ul_factor"),
    "polyeval": ("RatioSequence", "eval_P", "eval_Q", "eval_R", "ratio_sequence"),
    "rseq": ("r1_general", "r2_coeffs", "rational_eval", "varying_measure_polys"),
    "spectral": ("NevaiDiagnostics", "ZeroCloud", "nevai_diagnostics",
                 "ratio_asymptotic_check", "ratio_limit_f", "strip_check",
                 "verify_m_identities", "zero_dynamics", "zero_sweep", "zeros"),
}
NAMES = {name for names in PUBLIC.values() for name in names}

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# run first in every fresh interpreter: which of the three modules have executed
PRELUDE = f"""
import importlib.util, sys
import darbouxjac.cli as cli

def loaded():
    return sorted(name for name in {LAZY!r}
                  if type(sys.modules["darbouxjac." + name]) is not importlib.util._LazyModule)

assert loaded() == [], loaded()
"""


def run_fresh(code: str, tmp_path) -> None:
    """Run PRELUDE and code in a fresh interpreter, with ``out`` the test's tmp_path."""
    code = f"{PRELUDE}out = {str(tmp_path)!r}\n{code}"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_import_and_transform_leave_the_three_modules_unexecuted(tmp_path):
    run_fresh(
        "assert cli.main(['transform', '--family', 'chebyshev2', '--christoffel', '0+0.5i',\n"
        "                 '--n', '64', '--output', f'{out}/c.json']) == 0\n"
        "import darbouxjac\n"
        f"assert set(dir(darbouxjac)) >= {NAMES!r}\n"
        "assert loaded() == [], loaded()\n",
        tmp_path,
    )


def test_plain_zeros_execute_spectral_only(tmp_path):
    run_fresh(
        "assert cli.main(['zeros', '--family', 'chebyshev1', '--kind', 'plain',\n"
        "                 '--n-list', '5:20:5', '--output', f'{out}/z.csv']) == 0\n"
        "assert loaded() == ['spectral'], loaded()\n",
        tmp_path,
    )


def test_verify_executes_all_three(tmp_path):
    run_fresh(
        "assert cli.main(['verify', '--family', 'chebyshev1', '--kappa', '0+1i',\n"
        "                 '--output', f'{out}/v.json']) == 0\n"
        "assert loaded() == ['factorization', 'rseq', 'spectral'], loaded()\n",
        tmp_path,
    )


def test_tracer_installs_after_a_transform_and_spans_a_lazy_layer(tmp_path):
    """The benchmark's tracer indexes sys.modules for every layer; the lazy
    modules are there from the first import, and it wraps their entry points."""
    run_fresh(
        "assert cli.main(['transform', '--family', 'chebyshev2', '--christoffel', '0+0.5i',\n"
        "                 '--n', '64', '--output', f'{out}/c.json']) == 0\n"
        f"spec = importlib.util.spec_from_file_location('spans', {str(SPANS)!r})\n"
        "spans = sys.modules['spans'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "tracer = spans.Tracer()\n"
        "uninstall = spans.install(tracer)\n"
        "try:\n"
        "    import darbouxjac\n"
        "    darbouxjac.zeros(darbouxjac.family_coeffs('chebyshev1', 16), 8)\n"
        "finally:\n"
        "    uninstall()\n"
        "by_name = {s.name: s for s in tracer.spans}\n"
        "assert sorted(by_name) == ['core.family_coeffs', 'core.symmetrize', 'spectral.zeros']\n"
        "assert by_name['core.symmetrize'].parent == by_name['spectral.zeros'].id\n"
        "assert tracer.pass_metrics(0)['spectral.zeros.degree_sum'] == 8\n",
        tmp_path,
    )


def test_a_lazy_name_read_under_the_tracer_is_its_module_value_after_uninstall(tmp_path):
    """The package serves a lazy module's name on every read, uncached: a name
    first read while the tracer is installed reads the tracer's wrapper then,
    and the module's own function once it is uninstalled."""
    run_fresh(
        f"spec = importlib.util.spec_from_file_location('spans', {str(SPANS)!r})\n"
        "spans = sys.modules['spans'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "import darbouxjac\n"
        "uninstall = spans.install(spans.Tracer())\n"
        "try:\n"
        "    assert darbouxjac.zeros is darbouxjac.spectral.zeros\n"
        "    wrapped = darbouxjac.zeros\n"
        "finally:\n"
        "    uninstall()\n"
        "assert darbouxjac.zeros is darbouxjac.spectral.zeros is not wrapped\n",
        tmp_path,
    )


def test_public_names_are_those_of_their_modules():
    public = {name for name in dir(darbouxjac)
              if not name.startswith("_") and not isinstance(getattr(darbouxjac, name), ModuleType)}
    assert public == NAMES and len(NAMES) == 57
    assert sorted(darbouxjac.__all__) == sorted(NAMES)
    for module, names in PUBLIC.items():
        owner = importlib.import_module(f"darbouxjac.{module}")
        for name in names:
            assert getattr(darbouxjac, name) is getattr(owner, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from darbouxjac import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == NAMES
    assert all(namespace[name] is getattr(darbouxjac, name) for name in NAMES)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        darbouxjac.no_such_name
