"""Command-line front end: transform / zeros / verify.

``main`` builds only the subcommand that argv[0] names, else the full parser.

Exit codes: 0 pass, 1 check or existence failure (a malformed --coeff-file
included), 2 usage error, 3 environment error (an unreadable --coeff-file or
an unwritable --output).  Complex literals must carry both parts, each
finite ("0+1i", "1.5-2i"), and one with a leading minus needs the '=' form
("--kappa=-0.4+0.3i"); outputs are deterministic for a fixed configuration.
"""
from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from . import factorization, rseq, spectral
from .core import (
    CHEBYSHEV_KINDS,
    DEFAULT_N_MAX,
    RecurrenceCoeffs,
    family_coeffs,
    symmetrize,
)
from .darboux import TransformPoint, cauchy_s0star, christoffel, geronimus
from .errors import ConfigurationError, DarbouxError, PrefixError

_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def parse_complex(text: str) -> complex:
    """Parse 'a+bi' / 'a-bi' with both parts mandatory and finite."""
    m = _COMPLEX_RE.match(text.strip())
    if not m:
        raise argparse.ArgumentTypeError(
            f"invalid complex literal {text!r} (expected a+bi with both parts)"
        )
    value = complex(float(m.group(1)), float(m.group(2)))
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"complex literal {text!r} overflows the double range")
    return value


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
        values = list(range(start, stop + (1 if step > 0 else -1), step))  # stop included
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
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"coefficient file is not UTF-8: {exc}") from None
        return RecurrenceCoeffs.loads(text)
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
            if s0star is None:
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
        extras = [point[1:] for point in spectral.cluster_sweep(base, site, args.n_list)]
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

def _need(m, suite: str, length: int) -> None:
    """PrefixError, before any transform, for a suite that reads more terms than m has."""
    if m.n_max < length:
        raise PrefixError(f"the {suite} suite needs a prefix of length >= {length}, got {m.n_max}")


def _suite_strips(m, kappa, s0star):
    degrees = range(1, 31)
    _need(m, "strips", degrees[-1] + 2)
    side = "upper" if kappa.imag > 0 else "lower"
    kernel = spectral.kernel_zero_sweep(m, TransformPoint(kappa), degrees)
    gero = spectral.geronimus_zero_sweep(m, TransformPoint(kappa, s0star=s0star), degrees)
    worst = 0.0
    ok = True
    for cloud in kernel + gero:
        rep = spectral.strip_check(cloud, cloud.strip_bound, side)
        ok = ok and rep.ok
        for v in rep.violators:
            # a zero on the wrong side is |Im z| from the correct half-plane,
            # one on the right side is |Im z| - bound outside the strip
            im = v.imag if side == "upper" else -v.imag
            worst = max(worst, -im if im <= 0 else im - cloud.strip_bound)
    return {"pass": ok, "max_violation": worst}


def _suite_m_identities(m, kappa, s0star):
    order = 20
    # the Geronimus transform keeps n_max - 2 terms, and its moments read order + 1
    _need(m, "m-identities", order + 3)
    rep = spectral.verify_m_identities(m, TransformPoint(kappa, s0star=s0star), order)
    return {"pass": rep.max_residual <= 1e-9, "max_residual": rep.max_residual}


def _residual_entry(degrees, res, lead, z) -> dict:
    """Pass and worst of (degrees x points) residuals; a worst past the double
    range is written null, with the first degree where one occurs.  Sample
    points absorbed by the coefficient scale of the terms ``lead`` the check
    reads (max|z| <= eps max(|c_k|, |lambda_k|^1/2): z - c_k rounds to -c_k,
    and every residual is that of one point) fail the check, the scale written
    as ``unresolved_scale``."""
    rows = res.max(axis=1, initial=0.0)
    entry, bad = {"pass": rows.max() <= 1e-9, "max_residual": rows.max()}, ~np.isfinite(rows)
    if bad.any():
        entry["nonfinite_degree"] = degrees[np.argmax(bad)]
    scale = max(np.abs(lead.c).max(), np.sqrt(np.abs(lead.lam).max(initial=0.0)))
    if np.abs(z).max() <= np.finfo(float).eps * scale:
        entry.update({"pass": False, "unresolved_scale": scale})
    return entry


def _suite_r1(m, kappa, s0star):
    z, degrees = rseq.sample_points(20), range(1, 41)
    # the R_I coefficients at degree n read n + 3 terms
    _need(m, "r1", degrees[-1] + 3)
    sys1 = rseq.R1System(m, TransformPoint(kappa), TransformPoint(np.conj(kappa)))
    # degree n reads c_{n+1} and lambda_{n+1}
    return _residual_entry(degrees, sys1.residuals(degrees, z), m.truncated(41), z)


def _suite_r2(m, kappa, s0star):
    ns = np.arange(1, 31)
    _need(m, "r2", rseq.r2_prefix_length(ns[-1]))
    kappa = complex(kappa).conjugate() if kappa.imag < 0 else complex(kappa)
    pair = rseq.GeronimusPairQuasi(m, kappa.conjugate())  # its Cauchy value reads the tail
    sys2, z = rseq.leading_r2_system(m, kappa, ns[-1]), rseq.sample_points(20)
    return _residual_entry(ns, sys2.residuals(ns, z, *pair.quasi(ns)), sys2.m, z)


def _leading_gap(J, S) -> float:
    """Largest entry gap between the leading 50 entries of J and S that both
    carry (off-diagonals up to sign)."""
    nd, na = min(50, len(J.b), len(S.b)), min(50, len(J.a), len(S.a))
    gap_a = np.minimum(np.abs(J.a[:na] - S.a[:na]), np.abs(J.a[:na] + S.a[:na]))
    return float(max(np.max(np.abs(J.b[:nd] - S.b[:nd])), np.max(gap_a, initial=0.0)))


def _suite_factorization(m, kappa, s0star):
    # the transforms first: they raise PrefixError on a prefix too short; the
    # 50 leading entries _leading_gap reads are functions of 53 terms of m
    lead = m.truncated(min(m.n_max, 53))
    S = symmetrize(christoffel(lead, TransformPoint(kappa)).coeffs)
    SG = symmetrize(geronimus(lead, TransformPoint(kappa, s0star=s0star)).coeffs)
    J = symmetrize(m)
    f = factorization.lu_factor(J, kappa)
    diag, off = f.reconstruct()
    scale = 1.0 + float(np.max(np.abs(J.b))) + float(np.max(np.abs(J.a)))
    err = max(
        float(np.max(np.abs(diag - (J.b - kappa)))), float(np.max(np.abs(off - J.a)))
    )
    # u_0^2 = 1/s0star is the Geronimus offset s0/s0star for s0 = 1
    u = factorization.ul_factor(J, kappa, s0star / m.s0)
    gdiag, goff = u.reconstruct()
    nrows = len(gdiag)
    err = max(
        err,
        float(np.max(np.abs(gdiag - (J.b[:nrows] - kappa)))),
        float(np.max(np.abs(goff - J.a[: nrows - 1]))),
    )
    agree = max(_leading_gap(factorization.build_JC(f), S),
                _leading_gap(factorization.build_JG(u), SG))
    ok = err <= 1e-12 * scale and agree <= 1e-10
    return {"pass": ok, "reconstruction_error": err, "agreement_error": agree}


# the ratio-asymptotics suite's one site, whatever --kappa and --s0star say:
# the Christoffel transform at kappa and the Geronimus one at (kappa, s0star),
# each checked at z after n terms
RATIO_KAPPA, RATIO_S0STAR, RATIO_Z, RATIO_N = 1j, 1 + 0j, 2j, 200
RATIO_TOL = 1e-12


def _suite_ratio_asymptotics(m, kappa, s0star):
    _need(m, "ratio-asymptotics", RATIO_N + 2)
    tc = christoffel(m, TransformPoint(RATIO_KAPPA))
    rep_c = spectral.ratio_asymptotic_check(tc.coeffs, [RATIO_Z], RATIO_N)
    tg = geronimus(m, TransformPoint(RATIO_KAPPA, s0star=RATIO_S0STAR))
    rep_g = spectral.ratio_asymptotic_check(tg.coeffs, [RATIO_Z], RATIO_N)
    err_c, err_g = float(rep_c.errors[0]), float(rep_g.errors[0])
    return {
        "pass": err_c <= RATIO_TOL and err_g <= RATIO_TOL,
        "christoffel_error": err_c,
        "geronimus_error": err_g,
        "christoffel_threshold": RATIO_TOL,
        "geronimus_threshold": RATIO_TOL,
    }


_SUITES = {
    "strips": _suite_strips,
    "m-identities": _suite_m_identities,
    "r1": _suite_r1,
    "r2": _suite_r2,
    "factorization": _suite_factorization,
    "ratio-asymptotics": _suite_ratio_asymptotics,
}


def cmd_verify(args) -> int:
    m = _load_base(args)
    suites = args.suite or _SUITES
    # ratio-asymptotics checks its own site; every other suite transforms at --kappa
    if args.kappa.imag == 0 and set(suites) != {"ratio-asymptotics"}:
        raise ConfigurationError(
            f"--kappa={args.kappa.real:g}{args.kappa.imag:+g}i is real: "
            "every suite that reads --kappa needs a nonreal site"
        )
    report = {"v": 1, "kappa": _fmt_c(args.kappa), "suites": {}}
    all_pass = True
    for name in suites:
        res = _SUITES[name](m, args.kappa, args.s0star)
        report["suites"][name] = res
        all_pass = bool(all_pass and res["pass"])
    report["pass"] = all_pass
    _write_out(json.dumps(_jsonable(report), sort_keys=True) + "\n", args.output)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _complex_option(p, flag: str, **kw) -> None:
    """A complex option whose help names the '=' form that a leading minus needs."""
    p.add_argument(flag, type=parse_complex, help=f"a+bi; a leading minus needs {flag}=-a+bi", **kw)


def _transform_args(p) -> None:
    _complex_option(p, "--christoffel", metavar="KAPPA")
    _complex_option(p, "--geronimus", metavar="KAPPA")
    _complex_option(p, "--s0star")
    _complex_option(p, "--then-christoffel", metavar="KAPPA")
    _complex_option(p, "--then-geronimus", metavar="KAPPA")
    _complex_option(p, "--then-s0star")
    p.add_argument("--n", type=int, help="output prefix length")


def _zeros_args(p) -> None:
    p.add_argument("--kind", choices=("plain", "christoffel", "geronimus"), default="plain")
    _complex_option(p, "--kappa", default=complex(0, 1))
    _complex_option(p, "--s0star", default=complex(1, 0))
    p.add_argument("--n-list", type=parse_n_list, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _verify_args(p) -> None:
    p.add_argument("--suite", action="append", choices=_SUITES)
    _complex_option(p, "--kappa", default=complex(0, 1))
    _complex_option(p, "--s0star", default=complex(1, 0))


# name: (help, options, handler), in the order the usage lists them
_COMMANDS = {
    "transform": ("write a transformed coefficient file", _transform_args, cmd_transform),
    "zeros": ("emit zero clouds as CSV/JSON", _zeros_args, cmd_zeros),
    "verify": ("run the invariant suites", _verify_args, cmd_verify),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names
    one.  The top-level usage lists all subcommands either way, so a parser
    built for argv[0] prints what the full one does."""
    parser = argparse.ArgumentParser(
        prog="darbouxjac",
        description="Christoffel/Geronimus transformations of complex Jacobi matrices",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, add_options, _) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            src = p.add_mutually_exclusive_group(required=False)
            src.add_argument("--family", choices=CHEBYSHEV_KINDS)
            src.add_argument("--coeff-file")
            p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
            p.add_argument("--output")
            add_options(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    if not (args.family or args.coeff_file):
        parser.error("one of --family or --coeff-file is required")
    try:
        return _COMMANDS[args.command][2](args)
    except DarbouxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an unreadable --coeff-file or unwritable --output
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
