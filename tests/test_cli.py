import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from darbouxjac import rseq
from darbouxjac.cli import main, parse_complex, parse_n_list
from darbouxjac.core import RecurrenceCoeffs, family_coeffs
from darbouxjac.darboux import TransformPoint, _cf_m_function, cauchy_s0star, geronimus
from test_ratio_kernel import (
    assert_entrywise,
    nevai_prefix,
    reference,
    resolving_dps,
    ul_step,
)


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "darbouxjac.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestComplexLiteral:
    def test_valid(self):
        assert parse_complex("0+0.5i") == 0.5j
        assert parse_complex("1+0i") == 1.0
        assert parse_complex("-1.5-2e-3i") == complex(-1.5, -0.002)

    @pytest.mark.parametrize("bad", ["abc", "1", "i", "1+i", "2j", "1 + 2i"])
    def test_invalid(self, bad):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(bad)


class TestNList:
    def test_range(self):
        assert parse_n_list("5:60:5") == list(range(5, 61, 5))

    def test_commas(self):
        assert parse_n_list("1,2,3") == [1, 2, 3]

    def test_empty_exits_2(self):
        proc = run_cli(["zeros", "--family", "chebyshev1", "--n-list", ""])
        assert proc.returncode == 2


class TestTransform:
    def test_fibjac_entry(self, tmp_path):
        out = tmp_path / "c.json"
        rc = main(
            [
                "transform",
                "--family",
                "chebyshev2",
                "--christoffel",
                "0+0.5i",
                "--n",
                "64",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["lambda"][0] == [0.5, 0.0]
        assert doc["n_max"] == 64
        assert doc["provenance"]["sites"][0]["kind"] == "christoffel"

    def test_geronimus_then_christoffel_roundtrip(self, tmp_path):
        out = tmp_path / "rt.json"
        rc = main(
            [
                "transform",
                "--family",
                "chebyshev1",
                "--geronimus",
                "0+1i",
                "--s0star",
                "1+0i",
                "--then-christoffel",
                "0+1i",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        back = RecurrenceCoeffs.loads(out.read_text())
        base = family_coeffs("chebyshev1")
        L = back.n_max
        assert np.max(np.abs(back.c - base.c[:L])) <= 1e-10
        assert np.max(np.abs(back.lam - base.lam[: L - 1])) <= 1e-10

    def test_invalid_literal_exit_2(self):
        proc = run_cli(["transform", "--family", "chebyshev1", "--christoffel", "abc"])
        assert proc.returncode == 2

    def test_roundtrips_through_schema_parser(self, tmp_path):
        out = tmp_path / "c.json"
        main(
            [
                "transform",
                "--family",
                "chebyshev3",
                "--christoffel",
                "0+1i",
                "--output",
                str(out),
            ]
        )
        coeffs = RecurrenceCoeffs.loads(out.read_text())
        assert coeffs.n_max == 254

    def test_missing_op(self, capsys):
        assert main(["transform", "--family", "chebyshev1"]) == 2

    def test_nan_coeff_file_exits_1_without_traceback(self, tmp_path):
        doc = family_coeffs("chebyshev1", 8).to_dict()
        doc["c"][3] = [float("nan"), 0.0]
        src = tmp_path / "nan.json"
        src.write_text(json.dumps(doc))
        proc = run_cli(["transform", "--coeff-file", str(src), "--christoffel", "0+1i"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "c_4" in proc.stderr and "not finite" in proc.stderr

    @pytest.mark.parametrize("s0star", [["--s0star=1-1i"], []])
    def test_far_site_exits_without_traceback(self, s0star):
        """|kappa| past 1.3e154 used to overflow squaring (c - kappa)/2 in the
        continued-fraction tail seed."""
        proc = run_cli(
            ["transform", "--family=chebyshev1", "--n-max=8", "--geronimus=1e160+1i", *s0star]
        )
        assert proc.returncode in (0, 1)
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kappa", ["1e7+1i", "3e6+2i", "1e10+1i"])
    def test_geronimus_at_cauchy_value_far_from_support(self, kappa):
        """R_1 = kappa - c_1 + s_0/s0star ~ lambda_1/kappa cancels to 1e-14 of
        its terms and less here; that once read as a breakdown at n = 1."""
        proc = run_cli(["transform", "--family=chebyshev1", "--n-max=16", f"--geronimus={kappa}"])
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        m, k = family_coeffs("chebyshev1", 16), parse_complex(kappa)
        ref = reference(ul_step, m, k, cauchy_s0star(m, k), dps=resolving_dps(k))
        assert_entrywise(SimpleNamespace(coeffs=RecurrenceCoeffs.loads(proc.stdout)), ref)

    def test_geronimus_at_the_cauchy_value_of_a_coeff_file(self, tmp_path, capsys):
        """Without --s0star a prefix with no preset weight steps at s0 m(J; kappa)
        from the continued fraction (exit 1 before: the quadrature cross-check
        of cauchy_s0star needs the weight)."""
        m, kappa = nevai_prefix("chebyshev2", 3), 0.3 + 0.5j
        path = tmp_path / "nevai.json"
        path.write_text(json.dumps(m.to_dict()))
        assert main(["transform", f"--coeff-file={path}", "--geronimus=0.3+0.5i"]) == 0
        doc = json.loads(capsys.readouterr().out)
        s0star = _cf_m_function(m.c.tolist(), m.lam.tolist(), kappa) * m.s0
        assert doc.pop("provenance")["sites"][0]["s0star"] == [s0star.real, s0star.imag]
        assert doc == geronimus(m, TransformPoint(kappa, s0star=s0star)).coeffs.to_dict()

    def test_christoffel_s0_beyond_double_range_warns_nothing(self, capsys):
        """s0 = (c_1 - kappa) s0star overflows: exit 1 on the non-finite s0,
        without a numpy overflow warning."""
        argv = ["transform", "--family=chebyshev4", "--n-max=13", "--geronimus=0.0-1.0i",
                "--s0star=0.0-1.5e+120i", "--then-christoffel=-8.3e+265-1.6e-158i"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        assert "not finite" in capsys.readouterr().err

    def test_missing_coeff_file_exits_3(self, tmp_path, capsys):
        rc = main(["transform", f"--coeff-file={tmp_path / 'nope.json'}", "--christoffel=0+1i"])
        assert rc == 3
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["not json", "[1, 2]", '{"v": 1, "c": [1]}', '{"v": 1, "c": [[0, 0]]}']
    )
    def test_malformed_coeff_file_exits_1(self, tmp_path, capsys, text):
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert main(["transform", f"--coeff-file={src}", "--christoffel=0+1i"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_import_and_christoffel_leave_mpmath_unloaded(self, tmp_path):
        """mpmath is only loaded by the Geronimus fallback below eta = 1e-18."""
        code = (
            "import sys, darbouxjac\n"
            "from darbouxjac import cli\n"
            f"rc = cli.main(['transform', '--family=chebyshev1', '--christoffel=0+1i', "
            f"'--output={tmp_path / 'c.json'}'])\n"
            "assert rc == 0, rc\n"
            "assert 'mpmath' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestZeros:
    def test_kernel_csv(self, tmp_path):
        out = tmp_path / "z.csv"
        rc = main(
            [
                "zeros",
                "--family",
                "chebyshev1",
                "--kind",
                "christoffel",
                "--kappa",
                "0+1i",
                "--n-list",
                "5:15:5",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,re,im"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 5 + 10 + 15
        assert all(float(r[2]) > 0 for r in rows)

    def test_kernel_at_real_kappa_warns_nothing(self, capsys):
        """A real kappa has no strip (bound inf), found without dividing by 0."""
        argv = ["zeros", "--family=chebyshev3", "--n-max=12", "--kind=christoffel",
                "--kappa=0.0+0.0i", "--n-list=4"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,re,im"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert np.all(rows[:, 0] == 4) and np.all(rows[:, 2] == 0)
        expected = [-0.9510565162951535, -0.5877852522924731, 0.5877852522924731, 0.9510565162951535]
        assert np.allclose(rows[:, 1], expected, rtol=0, atol=1e-12)

    def test_rows_sorted(self, tmp_path):
        out = tmp_path / "z.csv"
        main(
            [
                "zeros",
                "--family",
                "chebyshev2",
                "--n-list",
                "8",
                "--output",
                str(out),
            ]
        )
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        res = [float(r[1]) for r in rows]
        assert res == sorted(res)

    def test_geronimus_cluster_columns(self, tmp_path):
        out = tmp_path / "g.csv"
        main(
            [
                "zeros",
                "--family",
                "chebyshev1",
                "--kind",
                "geronimus",
                "--kappa",
                "0+1i",
                "--s0star",
                "1+0i",
                "--n-list",
                "4,6",
                "--output",
                str(out),
            ]
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,re,im,cluster_dist,ln_cluster_dist"
        first = lines[1].split(",")
        assert abs(np.log(float(first[3])) - float(first[4])) < 1e-9

    @pytest.mark.parametrize("n_list", ["0", "-1", "63"])
    def test_geronimus_degree_out_of_range_exits_1(self, n_list):
        proc = run_cli(
            ["zeros", "--family", "chebyshev1", "--n-max", "64", "--kind", "geronimus",
             "--kappa", "0+1i", "--s0star", "1+0i", f"--n-list={n_list}"]
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"n={n_list}" in proc.stderr

    @pytest.mark.parametrize("kind", ["plain", "christoffel"])
    def test_negative_degree_exits_1(self, kind):
        proc = run_cli(
            ["zeros", "--family", "chebyshev1", "--n-max", "64", f"--kind={kind}",
             "--kappa", "0+1i", "--n-list=4,-1"]
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "n=-1" in proc.stderr

    def test_json_format(self, tmp_path):
        out = tmp_path / "z.json"
        main(
            [
                "zeros",
                "--family",
                "chebyshev1",
                "--n-list",
                "3",
                "--format",
                "json",
                "--output",
                str(out),
            ]
        )
        doc = json.loads(out.read_text())
        assert doc["columns"] == ["n", "re", "im"]
        assert len(doc["rows"]) == 3


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            [
                "verify",
                "--family",
                "chebyshev1",
                "--kappa",
                "0+1i",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["pass"] is True
        assert set(doc["suites"]) == {
            "strips",
            "m-identities",
            "r1",
            "r2",
            "factorization",
            "ratio-asymptotics",
        }

    def test_single_suite(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(
            [
                "verify",
                "--suite",
                "m-identities",
                "--family",
                "chebyshev1",
                "--kappa",
                "0+1i",
                "--output",
                str(out),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert list(doc["suites"]) == ["m-identities"]
        assert doc["suites"]["m-identities"]["max_residual"] <= 1e-9

    def test_r1_suite_on_a_coeff_file(self, tmp_path, capsys):
        # the Cauchy value of a prefix with no preset weight (exit 1 before:
        # the quadrature cross-check of cauchy_s0star needs the weight)
        path = tmp_path / "nevai.json"
        path.write_text(json.dumps(nevai_prefix("chebyshev2", 3, 64).to_dict()))
        for suite in ("r1", "r2"):
            argv = ["verify", f"--coeff-file={path}", f"--suite={suite}", "--kappa=0.3+0.5i"]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["suites"][suite]["pass"]

    def test_nonfinite_residual_is_null_with_its_degree(self, monkeypatch, capsys):
        """A residual past the double range fails its suite in strict JSON:
        null, and the first degree where one occurs."""
        residuals = rseq.R1System.residuals

        def nan_from_degree_7(self, ns, z, coeffs=None):
            res = residuals(self, ns, z, coeffs)
            res[6:, 3] = np.nan
            return res

        monkeypatch.setattr(rseq.R1System, "residuals", nan_from_degree_7)
        assert main(["verify", "--family=chebyshev1", "--suite=r1", "--kappa=0.3+0.5i"]) == 1

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["suites"]["r1"] == {"pass": False, "max_residual": None, "nonfinite_degree": 7}

    def test_missing_fixtures_exit_3(self, tmp_path):
        rc = main(
            [
                "verify",
                "--family",
                "chebyshev1",
                "--fixtures",
                str(tmp_path / "nope.json"),
            ]
        )
        assert rc == 3

    def test_family_without_thresholds_exit_3(self, tmp_path, capsys):
        from importlib import resources

        ref = resources.files("darbouxjac").joinpath("fixtures/thresholds.json")
        doc = json.loads(ref.read_text())
        del doc["ratio_asymptotic"]["chebyshev2"]
        fixtures = tmp_path / "partial.json"
        fixtures.write_text(json.dumps(doc))
        argv = ["verify", "--family", "chebyshev2", "--fixtures", str(fixtures)]
        rc = main(argv + ["--suite", "m-identities", "--suite", "ratio-asymptotics"])
        out = capsys.readouterr()
        assert rc == 3
        assert out.out == ""
        assert "no thresholds for family 'chebyshev2'" in out.err
        assert main(argv + ["--suite", "m-identities"]) == 0

    def test_tampered_fixtures_fail(self, tmp_path):
        from importlib import resources

        ref = resources.files("darbouxjac").joinpath("fixtures/thresholds.json")
        doc = json.loads(ref.read_text())
        for entry in doc["ratio_asymptotic"].values():
            entry["christoffel_threshold"] = 0.0
            entry["geronimus_threshold"] = 0.0
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        rc = main(
            [
                "verify",
                "--suite",
                "ratio-asymptotics",
                "--family",
                "chebyshev1",
                "--fixtures",
                str(bad),
                "--output",
                str(tmp_path / "r.json"),
            ]
        )
        assert rc == 1

    def test_env_var_fixture_override(self, tmp_path):
        env = dict(os.environ)
        env["DARBOUX_FIXTURES"] = str(tmp_path / "missing.json")
        proc = run_cli(
            ["verify", "--suite", "m-identities", "--family", "chebyshev1"], env=env
        )
        assert proc.returncode == 3


class TestDeterminism:
    def test_byte_identical(self, tmp_path):
        args = [
            "zeros",
            "--family",
            "chebyshev1",
            "--kind",
            "christoffel",
            "--kappa",
            "0+1i",
            "--n-list",
            "5,10",
        ]
        a = run_cli(args)
        b = run_cli(args)
        assert a.stdout == b.stdout

    def test_transform_byte_identical(self):
        args = [
            "transform",
            "--family",
            "chebyshev1",
            "--geronimus",
            "0+1i",
            "--n",
            "32",
        ]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0
        assert a.stdout == b.stdout
