"""Command-line front end: transform / zeros / verify.

Exit codes: 0 pass, 1 check or existence failure (a malformed --coeff-file
included), 2 usage error, 3 fixtures/environment error (an unreadable
--coeff-file included).  Complex literals must carry both parts ("0+1i",
"1.5-2i"); outputs are deterministic for a fixed configuration.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial
from importlib import resources

import numpy as np

from . import rseq, spectral
from .core import (
    CHEBYSHEV_KINDS,
    DEFAULT_N_MAX,
    RecurrenceCoeffs,
    family_coeffs,
    symmetric_jacobi_matrix,
    symmetrize,
)
from .darboux import TransformPoint, _cf_m_function, cauchy_s0star, christoffel, geronimus
from .errors import DarbouxError
from .factorization import build_JC, build_JG, lu_factor, ul_factor

_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' with both parts mandatory."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"invalid complex literal {text!r} (expected a+bi with both parts)"
        )
    return complex(float(m.group(1)), float(m.group(2)))


def parse_n_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        raise argparse.ArgumentTypeError("empty degree list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise argparse.ArgumentTypeError(f"bad range {text!r} (use start:stop[:step])")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        values = list(range(start, stop + 1, step))
    else:
        values = [int(p) for p in text.split(",") if p]
    if not values:
        raise argparse.ArgumentTypeError("empty degree list")
    return values


def _fmt_c(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _load_base(args) -> RecurrenceCoeffs:
    if args.coeff_file:
        with open(args.coeff_file, "r", encoding="utf-8") as fh:
            return RecurrenceCoeffs.loads(fh.read())
    return family_coeffs(args.family, args.n_max)


def _write_out(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonable(obj):
    """Coerce numpy scalars so the report serializes deterministically."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):  # strict JSON: no NaN or Infinity
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def _resolve_fixtures(path_arg: str | None) -> str:
    if path_arg:
        return path_arg
    env = os.environ.get("DARBOUX_FIXTURES")
    if env:
        return env
    ref = resources.files("darbouxjac").joinpath("fixtures/thresholds.json")
    return str(ref)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def cmd_transform(args) -> int:
    base = _load_base(args)
    current: RecurrenceCoeffs | object = base
    provenance = {"base": args.family or args.coeff_file, "sites": []}
    steps = []
    if args.christoffel is not None:
        steps.append(("christoffel", args.christoffel, None))
    if args.geronimus is not None:
        steps.append(("geronimus", args.geronimus, args.s0star))
    if not steps:
        print("error: transform needs --christoffel or --geronimus", file=sys.stderr)
        return 2
    if args.then_christoffel is not None:
        steps.append(("christoffel", args.then_christoffel, None))
    if args.then_geronimus is not None:
        steps.append(("geronimus", args.then_geronimus, args.then_s0star))
    for kind, kappa, s0star in steps:
        allow_real = kappa.imag == 0
        if kind == "christoffel":
            current = christoffel(current, TransformPoint(kappa, allow_real=allow_real))
            provenance["sites"].append(
                {"kind": kind, "kappa": _fmt_c(kappa), "s0star": None}
            )
        else:
            coeffs_in = current.coeffs if hasattr(current, "coeffs") else current
            if s0star is None and (coeffs_in.family is None or coeffs_in.family.kind == "custom"):
                # no weight to cross-check by quadrature: the continued fraction alone
                s0star = _cf_m_function(coeffs_in.c.tolist(), coeffs_in.lam.tolist(), kappa)
                s0star *= coeffs_in.s0
            elif s0star is None:
                s0star = cauchy_s0star(coeffs_in, kappa)
            site = TransformPoint(kappa, s0star=s0star, allow_real=allow_real)
            current = geronimus(coeffs_in, site)
            provenance["sites"].append(
                {"kind": kind, "kappa": _fmt_c(kappa), "s0star": _fmt_c(s0star)}
            )
    coeffs = current.coeffs
    if args.n is not None:
        coeffs = coeffs.truncated(args.n)
    doc = coeffs.to_dict()
    doc["provenance"] = provenance
    _write_out(json.dumps(doc, sort_keys=True) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------

def cmd_zeros(args) -> int:
    base = _load_base(args)
    cluster_cols = args.kind == "geronimus"
    s0star = args.s0star if cluster_cols else None
    site = TransformPoint(args.kappa, s0star=s0star, allow_real=(args.kappa.imag == 0))
    extras = [()] * len(args.n_list)
    if args.kind == "plain":
        clouds = spectral.zero_sweep(base, args.n_list)
    elif args.kind == "christoffel":
        clouds = spectral.kernel_zero_sweep(base, site, args.n_list)
    else:
        # first: it raises PrefixError for a degree outside 1..n_max-2
        extras = [spectral.cluster_distance(base, site, n)[1:] for n in args.n_list]
        clouds = spectral.geronimus_zero_sweep(base, site, args.n_list)
    parts = [
        (cloud.n, cloud.zeros.real.tolist(), cloud.zeros.imag.tolist(), extra)
        for cloud, extra in zip(clouds, extras)
    ]
    header = ["n", "re", "im"] + (["cluster_dist", "ln_cluster_dist"] if cluster_cols else [])
    if args.format == "csv":
        lines = [",".join(header)]
        for n, res, ims, extra in parts:
            tail = "".join(f",{v!r}" for v in extra)
            lines += [f"{n},{re!r},{im!r}{tail}" for re, im in zip(res, ims)]
        _write_out("\n".join(lines) + "\n", args.output)
    else:
        rows = [[n, re, im, *extra] for n, res, ims, extra in parts for re, im in zip(res, ims)]
        doc = {"v": 1, "columns": header, "rows": rows}
        _write_out(json.dumps(doc, sort_keys=True) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_strips(m, kappa, s0star):
    side = "upper" if kappa.imag > 0 else "lower"
    degrees = range(1, 31)
    kernel = spectral.kernel_zero_sweep(m, TransformPoint(kappa), degrees)
    gero = spectral.geronimus_zero_sweep(m, TransformPoint(kappa, s0star=s0star), degrees)
    worst = 0.0
    ok = True
    for cloud in kernel + gero:
        rep = spectral.strip_check(cloud, cloud.strip_bound, side)
        ok = ok and rep.ok
        if rep.violators:
            worst = max(worst, max(abs(v.imag) - cloud.strip_bound for v in rep.violators))
    return {"pass": ok, "max_violation": worst}


def _suite_m_identities(m, kappa, s0star):
    rep = spectral.verify_m_identities(m, TransformPoint(kappa, s0star=s0star), order=20)
    return {"pass": rep.max_residual <= 1e-9, "max_residual": rep.max_residual}


def _residual_entry(degrees, res) -> dict:
    """Pass and worst of (degrees x points) residuals; a worst past the double
    range is written null, with the first degree where one occurs."""
    rows = res.max(axis=1, initial=0.0)
    entry, bad = {"pass": rows.max() <= 1e-9, "max_residual": rows.max()}, ~np.isfinite(rows)
    return {**entry, "nonfinite_degree": degrees[np.argmax(bad)]} if bad.any() else entry


def _suite_r1(m, kappa, s0star):
    sys1 = rseq.R1System(m, TransformPoint(kappa), TransformPoint(np.conj(kappa)))
    return _residual_entry(range(1, 41), sys1.residuals(range(1, 41), rseq.sample_points(20)))


def _suite_r2(m, kappa, s0star):
    kappa = complex(kappa)
    if kappa.imag < 0:
        kappa = complex(np.conj(kappa))
    pair = rseq.GeronimusPairQuasi(m, complex(np.conj(kappa)))  # its Cauchy value reads the tail
    # R2System runs forward recurrences only: on the 34 terms that degrees up
    # to 31 read, its leading entries are those of the full prefix
    sys2 = rseq.R2System(m.truncated(min(m.n_max, 34)), kappa)
    qs, rcs = [], []
    for n in range(1, 31):
        qs.append(pair.quasi(n))
        rcs.append(sys2.coeffs(qs[-1], n))
    return _residual_entry(range(1, 31), sys2.residuals(qs, rcs, rseq.sample_points(20)))


def _leading_gap(J, S, nb: int = 50) -> float:
    """Largest entry gap between the leading nb entries of J and S that both
    carry (off-diagonals up to sign)."""
    nd, na = min(nb, len(J.b), len(S.b)), min(nb, len(J.a), len(S.a))
    gap_a = np.minimum(np.abs(J.a[:na] - S.a[:na]), np.abs(J.a[:na] + S.a[:na]))
    return float(max(np.max(np.abs(J.b[:nd] - S.b[:nd])), np.max(gap_a, initial=0.0)))


def _suite_factorization(m, kappa, s0star):
    # the transforms first: they raise PrefixError on a prefix too short
    S = symmetrize(christoffel(m, TransformPoint(kappa)).coeffs)
    SG = symmetrize(geronimus(m, TransformPoint(kappa, s0star=s0star)).coeffs)
    J = symmetrize(m)
    f = lu_factor(J, kappa)
    diag, off = f.reconstruct()
    scale = 1.0 + float(np.max(np.abs(J.b))) + float(np.max(np.abs(J.a)))
    err = max(
        float(np.max(np.abs(diag - (J.b - kappa)))), float(np.max(np.abs(off - J.a)))
    )
    u = ul_factor(J, kappa, s0star)
    gdiag, goff = u.reconstruct()
    nrows = len(gdiag)
    err = max(
        err,
        float(np.max(np.abs(gdiag - (J.b[:nrows] - kappa)))),
        float(np.max(np.abs(goff - J.a[: nrows - 1]))),
    )
    agree = max(_leading_gap(build_JC(f), S), _leading_gap(build_JG(u), SG))
    ok = err <= 1e-12 * scale and agree <= 1e-10
    return {"pass": ok, "reconstruction_error": err, "agreement_error": agree}


def _suite_ratio_asymptotics(m, kappa, s0star, entry):
    z = complex(*entry["z"])
    n_check = int(entry["n_check"])
    kap = complex(*entry["kappa"])
    s0 = complex(*entry["s0star"])
    tc = christoffel(m, TransformPoint(kap))
    rep_c = spectral.ratio_asymptotic_check(tc.coeffs, [z], n_check)
    tg = geronimus(m, TransformPoint(kap, s0star=s0))
    rep_g = spectral.ratio_asymptotic_check(tg.coeffs, [z], n_check)
    err_c = float(rep_c.errors[0])
    err_g = float(rep_g.errors[0])
    ok = err_c <= entry["christoffel_threshold"] and err_g <= entry["geronimus_threshold"]
    return {
        "pass": ok,
        "christoffel_error": err_c,
        "geronimus_error": err_g,
        "christoffel_threshold": entry["christoffel_threshold"],
        "geronimus_threshold": entry["geronimus_threshold"],
    }


_SUITES = {
    "strips": _suite_strips,
    "m-identities": _suite_m_identities,
    "r1": _suite_r1,
    "r2": _suite_r2,
    "factorization": _suite_factorization,
    "ratio-asymptotics": _suite_ratio_asymptotics,  # needs its fixture entry
}


def cmd_verify(args) -> int:
    fixtures_path = _resolve_fixtures(args.fixtures)
    if not os.path.exists(fixtures_path):
        print(f"error: fixtures file not found: {fixtures_path}", file=sys.stderr)
        return 3
    with open(fixtures_path, "r", encoding="utf-8") as fh:
        fixtures = json.load(fh)
    m = _load_base(args)
    kappa = args.kappa
    s0star = args.s0star
    suites = args.suite or list(_SUITES)
    run = dict(_SUITES)
    if "ratio-asymptotics" in suites:
        entry = fixtures.get("ratio_asymptotic", {}).get(args.family or "custom")
        if entry is None:
            print(
                f"error: fixtures carry no thresholds for family {args.family!r}",
                file=sys.stderr,
            )
            return 3
        run["ratio-asymptotics"] = partial(_suite_ratio_asymptotics, entry=entry)
    report = {"v": 1, "kappa": _fmt_c(kappa), "suites": {}}
    all_pass = True
    for name in suites:
        res = run[name](m, kappa, s0star)
        report["suites"][name] = res
        all_pass = bool(all_pass and res["pass"])
    report["pass"] = all_pass
    _write_out(json.dumps(_jsonable(report), sort_keys=True) + "\n", args.output)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darbouxjac",
        description="Christoffel/Geronimus transformations of complex Jacobi matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_base(p):
        src = p.add_mutually_exclusive_group(required=False)
        src.add_argument("--family", choices=CHEBYSHEV_KINDS)
        src.add_argument("--coeff-file")
        p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
        p.add_argument("--output")

    p_tr = sub.add_parser("transform", help="write a transformed coefficient file")
    add_base(p_tr)
    p_tr.add_argument("--christoffel", type=parse_complex, metavar="KAPPA")
    p_tr.add_argument("--geronimus", type=parse_complex, metavar="KAPPA")
    p_tr.add_argument("--s0star", type=parse_complex)
    p_tr.add_argument("--then-christoffel", type=parse_complex, metavar="KAPPA")
    p_tr.add_argument("--then-geronimus", type=parse_complex, metavar="KAPPA")
    p_tr.add_argument("--then-s0star", type=parse_complex)
    p_tr.add_argument("--n", type=int, help="output prefix length")

    p_z = sub.add_parser("zeros", help="emit zero clouds as CSV/JSON")
    add_base(p_z)
    p_z.add_argument("--kind", choices=("plain", "christoffel", "geronimus"), default="plain")
    p_z.add_argument("--kappa", type=parse_complex, default=complex(0, 1))
    p_z.add_argument("--s0star", type=parse_complex, default=complex(1, 0))
    p_z.add_argument("--n-list", type=parse_n_list, required=True)
    p_z.add_argument("--format", choices=("csv", "json"), default="csv")

    p_v = sub.add_parser("verify", help="run invariant suites against fixtures")
    add_base(p_v)
    p_v.add_argument("--suite", action="append", choices=_SUITES)
    p_v.add_argument("--kappa", type=parse_complex, default=complex(0, 1))
    p_v.add_argument("--s0star", type=parse_complex, default=complex(1, 0))
    p_v.add_argument("--fixtures")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (args.family or args.coeff_file):
        parser.error("one of --family or --coeff-file is required")
    try:
        if args.command == "transform":
            return cmd_transform(args)
        if args.command == "zeros":
            return cmd_zeros(args)
        return cmd_verify(args)
    except DarbouxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an unreadable --coeff-file or unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
