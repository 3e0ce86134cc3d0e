import argparse
import json
import os
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from darbouxjac import cli, rseq, spectral
from darbouxjac.cli import main, parse_complex, parse_n_list
from darbouxjac.core import RecurrenceCoeffs, family_coeffs
from darbouxjac.darboux import TransformPoint, cauchy_s0star, geronimus
from test_ratio_kernel import (
    PROPERTY,
    assert_entrywise,
    kappas,
    nevai_prefix,
    opposite_s0star,
    reference,
    resolving_dps,
    ul_step,
)
from test_zero_sweep import long_prefixes


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

    @pytest.mark.parametrize("text, degrees", [
        ("1:5", [1, 2, 3, 4, 5]), ("2:9:3", [2, 5, 8]), ("5:1:-1", [5, 4, 3, 2, 1]),
        ("10:1:-3", [10, 7, 4, 1]), ("9:2:-3", [9, 6, 3]), ("3:3:-1", [3])])
    def test_a_range_includes_its_stop_in_both_directions(self, text, degrees):
        assert parse_n_list(text) == degrees

    def test_descending_zeros_print_every_degree(self, capsys):
        assert main(["zeros", "--family=chebyshev1", "--n-list=4:1:-1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert list(dict.fromkeys(int(row.split(",")[0]) for row in rows)) == [4, 3, 2, 1]

    @pytest.mark.parametrize("text", ["1:5:0", "5:1:0", "5:1", "1:5:-1"])
    def test_a_zero_step_or_an_empty_range_exits_2(self, text, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zeros", "--family=chebyshev1", f"--n-list={text}"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_empty_exits_2(self):
        proc = run_cli(["zeros", "--family", "chebyshev1", "--n-list", ""])
        assert proc.returncode == 2


class TestParser:
    OPTIONS = {
        "transform": {"--christoffel", "--geronimus", "--s0star", "--then-christoffel",
                      "--then-geronimus", "--then-s0star", "--n"},
        "zeros": {"--kind", "--kappa", "--s0star", "--n-list", "--format"},
        "verify": {"--suite", "--kappa", "--s0star"},
    }
    BASE = {"-h", "--help", "--family", "--coeff-file", "--n-max", "--output"}

    @staticmethod
    def subcommands(parser):
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return {
            name: {s for a in p._actions for s in a.option_strings}
            for name, p in sub.choices.items()
        }

    COMPLEX = [("transform", o) for o in ("--christoffel", "--geronimus", "--s0star",
                                          "--then-christoffel", "--then-geronimus",
                                          "--then-s0star")]
    COMPLEX += [(c, o) for c in ("zeros", "verify") for o in ("--kappa", "--s0star")]

    @pytest.mark.parametrize("literal", ["1e400+0i", "0-1e999i"])
    @pytest.mark.parametrize("command, option", COMPLEX)
    def test_overflowing_literal_is_a_usage_error(self, capsys, command, option, literal):
        """A part past the double range is refused as the option's value (it
        once reached the transform as inf and failed there as a bad s0)."""
        argv = [command, "--family=chebyshev1", f"{option}={literal}"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n-list=5"] * (command == "zeros"))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        (line,) = [ln for ln in err.splitlines() if "error:" in ln]
        assert f"argument {option}: complex literal {literal!r} overflows" in line
        assert "Traceback" not in err

    def test_largest_double_parses(self):
        top = np.finfo(float).max
        assert parse_complex("1.7976931348623157e308+0i") == complex(top, 0.0)
        assert parse_complex("0-1.7976931348623157e308i") == complex(0.0, -top)

    @pytest.mark.parametrize("command, option", COMPLEX)
    def test_leading_minus_parses_in_the_equals_form(self, command, option):
        """After a space, argparse takes -0.4+0.3i for an option (exit 2, as
        perfbench pins); joined by '=' it is the value, and --help says so."""
        parser = cli.build_parser(command)
        argv = [command, "--family=chebyshev4", f"{option}=-0.4+0.3i"]
        args = parser.parse_args(argv + ["--n-list=5"] * (command == "zeros"))
        assert getattr(args, option[2:].replace("-", "_")) == complex(-0.4, 0.3)
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        (action,) = [a for a in sub.choices[command]._actions if option in a.option_strings]
        assert f"{option}=-a+bi" in action.help

    def test_full_parser_holds_every_subcommand(self):
        full = self.subcommands(cli.build_parser())
        assert list(full) == ["transform", "zeros", "verify"]
        assert full == {name: self.BASE | opts for name, opts in self.OPTIONS.items()}
        for name in self.OPTIONS:
            assert self.subcommands(cli.build_parser(name)) == {name: full[name]}

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["-h"], ["-h", "transform"], ["bogus"], ["--", "transform"],
            ["transform", "-h"], ["zeros", "-h"], ["verify", "-h"],
            ["zeros", "--family", "legendre", "--n-list", "3"],
            ["transform", "--family", "chebyshev1", "--christoffel", "1i"],
            ["transform", "--family", "chebyshev1", "--christoffel", "-0.8-0.2i"],
            ["zeros", "--family", "chebyshev1"],
            ["verify", "--family", "chebyshev1", "--coeff-file", "c.json"],
            ["transform", "--christoffel", "0+1i"],
            ["transform", "--family", "chebyshev1", "--christoffel", "0+1i", "zeros"],
            ["transform", "--family", "chebyshev2", "--christoffel", "0.3-0.5i", "--n", "6"],
            ["zeros", "--family", "chebyshev3", "--n-list", "2,5", "--format", "json"],
            ["verify", "--family", "chebyshev4", "--suite", "m-identities"],
        ],
    )
    def test_one_subcommand_parser_prints_as_the_full_one(self, monkeypatch, capsys, argv):
        """main builds only the subcommand argv[0] names; exit code, stdout and
        stderr are those of the full parser, help and usage errors included."""
        monkeypatch.setenv("COLUMNS", "80")
        build, built = cli.build_parser, []

        def run():
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            return rc, *capsys.readouterr()

        def spy(command=None):
            built.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", spy)
        shipped = run()
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
        assert run() == shipped
        assert built == [argv[0] if argv and argv[0] in self.OPTIONS else None]


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
        """Without --s0star a prefix with no preset weight steps at
        cauchy_s0star's continued-fraction value s0 m(J; kappa) (it once exited
        1: the quadrature cross-check needed the weight)."""
        m, kappa = nevai_prefix("chebyshev2", 3), 0.3 + 0.5j
        path = tmp_path / "nevai.json"
        path.write_text(json.dumps(m.to_dict()))
        assert main(["transform", f"--coeff-file={path}", "--geronimus=0.3+0.5i"]) == 0
        doc = json.loads(capsys.readouterr().out)
        s0star = cauchy_s0star(m, kappa)
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

    @pytest.mark.parametrize(
        "argv", [["transform", "--christoffel=0+1i"], ["zeros", "--kappa=0+1i", "--n-list=5"],
                 ["verify", "--kappa=0+1i"]], ids=lambda argv: argv[0]
    )
    def test_non_utf8_coeff_file_exits_1(self, tmp_path, capsys, argv):
        src = tmp_path / "bad.json"
        src.write_bytes(b"\xff\xfe\x7b")
        assert main([*argv, f"--coeff-file={src}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: coefficient file is not UTF-8") and err.count("\n") == 1

    def test_import_and_christoffel_leave_mpmath_unloaded(self, tmp_path):
        """mpmath is only loaded by the Geronimus fallback below eta = 1e-18;
        the result records are not dataclasses, so dataclasses is never loaded."""
        code = (
            "import sys, darbouxjac\n"
            "from darbouxjac import cli\n"
            f"rc = cli.main(['transform', '--family=chebyshev1', '--christoffel=0+1i', "
            f"'--output={tmp_path / 'c.json'}'])\n"
            "assert rc == 0, rc\n"
            "assert 'mpmath' not in sys.modules\n"
            "assert 'dataclasses' not in sys.modules\n"
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

    def test_geronimus_cluster_columns_and_zeros_share_one_truncation(self, monkeypatch, capsys):
        """The cluster columns and the zeros of a row come from transforms of
        the same leading max(n_list) + 3 terms: near the Cauchy value
        geronimus picks its route from the prefix it is given."""
        lengths = []

        def recording(m, site):
            lengths.append(m.n_max)
            return geronimus(m, site)

        monkeypatch.setattr(spectral, "geronimus", recording)
        argv = ["zeros", "--family=chebyshev1", "--kind=geronimus", "--kappa=0.3+0.5i",
                "--s0star=1+0i", "--n-list=10,40,20"]
        assert main(argv) == 0
        assert lengths == [43, 43]
        capsys.readouterr()

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

    def test_factorization_suite_on_a_coeff_file_with_s0(self, tmp_path, capsys):
        # a Christoffel transform carries s0 = (c_1 - kappa) s_0 = -i; the UDU^T
        # factor takes the Geronimus offset s0/s0star (it once took 1/s0star)
        path = tmp_path / "kernel.json"
        argv = ["transform", "--family=chebyshev1", "--christoffel=0+1i", "--n=64"]
        assert main(argv + [f"--output={path}"]) == 0
        assert complex(*json.loads(path.read_text())["s0"]) == -1j
        argv = ["verify", f"--coeff-file={path}", "--suite=factorization", "--kappa=0.3+0.5i"]
        assert main(argv) == 0
        entry = json.loads(capsys.readouterr().out)["suites"]["factorization"]
        assert entry["pass"] and entry["agreement_error"] <= 1e-10

    def test_strips_scores_a_wrong_side_zero_by_its_distance(self, tmp_path, capsys):
        """On the kernel polynomials of chebyshev1 at 0.2+0.3i, the degree-1
        kernel zero at 0.1+0.05i lies below the real axis, inside the strip
        bound: it scores |Im z|, where |Im z| - bound once read a failing
        suite as max_violation 0.0."""
        path = tmp_path / "k2.json"
        assert main(["transform", "--family=chebyshev1", "--christoffel=0.2+0.3i",
                     f"--output={path}"]) == 0
        argv = ["verify", f"--coeff-file={path}", "--suite=strips", "--kappa=0.1+0.05i"]
        assert main(argv) == 1
        entry = json.loads(capsys.readouterr().out)["suites"]["strips"]
        m = RecurrenceCoeffs.loads(path.read_text())
        (cloud,) = spectral.kernel_zero_sweep(m, TransformPoint(0.1 + 0.05j), [1])
        (z,) = cloud.zeros
        assert -cloud.strip_bound < z.imag < 0
        assert entry["pass"] is False and entry["max_violation"] >= -z.imag > 0

    def test_r1_suite_on_a_coeff_file(self, tmp_path, capsys):
        # the Cauchy value of a prefix with no preset weight (it once exited 1:
        # the quadrature cross-check needed the weight)
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

        def nan_from_degree_7(self, ns, z):
            res = residuals(self, ns, z)
            res[6:, 3] = np.nan
            return res

        monkeypatch.setattr(rseq.R1System, "residuals", nan_from_degree_7)
        assert main(["verify", "--family=chebyshev1", "--suite=r1", "--kappa=0.3+0.5i"]) == 1

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["suites"]["r1"] == {"pass": False, "max_residual": None, "nonfinite_degree": 7}

    @PROPERTY
    @given(long_prefixes, kappas(), st.data())
    def test_suites_on_leading_terms_report_as_on_the_full_prefix(self, m, kappa, data):
        """m-identities and factorization build their transforms on the 24 and
        53 leading terms they read; with truncation made the identity they run
        on the full prefix, and every entry of both reports is the same."""
        s0star = data.draw(opposite_s0star(kappa))
        suites = (cli._suite_m_identities, cli._suite_factorization)
        lead = [suite(m, kappa, s0star) for suite in suites]
        with pytest.MonkeyPatch.context() as mp_:
            mp_.setattr(RecurrenceCoeffs, "truncated", lambda self, n_max: self)
            assert [suite(m, kappa, s0star) for suite in suites] == lead

    def test_coeff_file_runs_every_suite(self, tmp_path, capsys):
        """The two-point Christoffel transform of chebyshev1 at (i, -i) is a
        real positive prefix of 252 terms; verify on it without --suite runs
        all six suites, ratio-asymptotics at its fixed site (it once exited 3:
        the thresholds table had no entry for a coefficient file)."""
        path = tmp_path / "pair.json"
        argv = ["transform", "--family", "chebyshev1", "--christoffel", "0+1i",
                "--then-christoffel", "0-1i", f"--output={path}"]
        assert main(argv) == 0
        assert json.loads(path.read_text())["n_max"] == 252
        assert main(["verify", "--coeff-file", str(path), "--kappa", "0.3+0.5i"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True and set(doc["suites"]) == set(cli._SUITES)
        assert all(entry["pass"] for entry in doc["suites"].values())
        entry = doc["suites"]["ratio-asymptotics"]
        assert entry["christoffel_threshold"] == entry["geronimus_threshold"] == cli.RATIO_TOL

    def test_tolerance_below_the_errors_fails(self, monkeypatch, capsys):
        """chebyshev1's Geronimus error at the site is 6.8e-17 (its Christoffel
        error 0.0): at a zero tolerance the suite fails and verify exits 1."""
        monkeypatch.setattr(cli, "RATIO_TOL", 0.0)
        assert main(["verify", "--family=chebyshev1", "--suite=ratio-asymptotics"]) == 1
        entry = json.loads(capsys.readouterr().out)["suites"]["ratio-asymptotics"]
        assert entry["pass"] is False and entry["geronimus_error"] > 0.0

    def test_breakdown_at_the_ratio_site_exits_1(self, tmp_path, capsys):
        """The Christoffel transform of chebyshev1 at i has P_1(i) = 0, so the
        suite's own Christoffel step at i breaks down: one typed error line."""
        path = tmp_path / "kernel.json"
        assert main(["transform", "--family=chebyshev1", "--christoffel=0+1i",
                     f"--output={path}"]) == 0
        argv = ["verify", f"--coeff-file={path}", "--suite=ratio-asymptotics"]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: P_1 vanishes at the evaluation point\n"

    @pytest.mark.parametrize("suite, length", [
        ("strips", 32), ("m-identities", 23), ("r1", 43), ("r2", 34), ("ratio-asymptotics", 202),
    ])
    def test_short_prefix_names_the_suite_and_its_length(self, monkeypatch, capsys, suite, length):
        """The shortest prefix a suite reads passes; one term less exits 1 with
        one line naming the suite, the length it needs and the length given,
        before any transform."""
        argv = ["verify", "--family=chebyshev1", f"--suite={suite}"]
        assert main(argv + [f"--n-max={length}"]) == 0
        capsys.readouterr()

        def no_transform(*args, **kwargs):
            raise AssertionError("transform before the prefix check")

        for module, name in ((cli, "christoffel"), (cli, "geronimus"), (spectral, "christoffel"),
                             (spectral, "geronimus"), (rseq, "R1System"),
                             (rseq, "GeronimusPairQuasi")):
            monkeypatch.setattr(module, name, no_transform)
        assert main(argv + [f"--n-max={length - 1}"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"error: the {suite} suite needs a prefix of length >= {length}, got {length - 1}\n"
        )

    @pytest.mark.parametrize("suites", [
        (), ("strips",), ("m-identities",), ("r1",), ("r2",), ("factorization",),
        ("ratio-asymptotics", "r1"),
    ], ids=lambda suites: "+".join(suites) or "all")
    def test_real_kappa_exits_1_naming_the_option(self, capsys, suites):
        """A real --kappa once reached the library's hint to pass allow_real=True,
        which the CLI cannot pass."""
        argv = ["verify", "--family=chebyshev1", "--kappa=2+0i", *(f"--suite={s}" for s in suites)]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: --kappa=2+0i is real: every suite that reads --kappa needs a nonreal site\n"
        )

    def test_ratio_asymptotics_alone_runs_at_a_real_kappa(self, capsys):
        """The suite checks its own fixed site, so --kappa does not reach it."""
        argv = ["verify", "--family=chebyshev1", "--kappa=2+0i", "--suite=ratio-asymptotics"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_fixtures_option_exits_2(self):
        proc = run_cli(["verify", "--family=chebyshev1", "--fixtures=thresholds.json"])
        assert proc.returncode == 2
        assert "--fixtures" in proc.stderr

    def test_fixtures_variable_is_not_read(self, tmp_path):
        argv = ["verify", "--family=chebyshev1", "--suite=ratio-asymptotics"]
        plain = run_cli(argv)
        env = dict(os.environ, DARBOUX_FIXTURES=str(tmp_path / "missing.json"))
        proc = run_cli(argv, env=env)
        assert plain.returncode == proc.returncode == 0
        assert proc.stdout == plain.stdout


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
