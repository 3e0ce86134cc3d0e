"""Classify request outcomes and check outputs against the oracle.

A request fails for one of four reasons, tallied separately: an exception
escaped (``exception:<type>``), the exit code was not the one the command
promises (``exit<code>:<message>``), a verify suite reported ``"pass":
false`` (``suite:<name>``), or a checked value deviated from the oracle by
more than its tolerance (``oracle:<quantity>``).

Accuracy contracts, chosen from what each path claims, not from what it
achieves:

* single-site transforms run in extended precision and are exported as
  doubles, so every coefficient is compared elementwise (relative to its own
  magnitude, floored at oracle.TINY);
* the Geronimus->Christoffel round trip and ``christoffel_two`` hand a
  double-rounded intermediate to their second step, and the varying-measure
  chain certifies its Cauchy s0star values only to its quadrature
  cross-check (1e-9), which the minimal-solution tail amplifies without
  bound entrywise; these are compared normwise (relative to the largest
  coefficient of the reference prefix);
* a zero z is compared through its certified distance to the true zero,
  relative to max(|z|, 1); cluster distances relative to themselves.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import mpmath as mp

import oracle
from workloads import SUITES

TOL = {
    "coeff": 1e-10,
    "coeff_normwise": 1e-10,
    "cauchy": 1e-10,
    "zero": 1e-10,
    "cluster": 1e-8,
}


@dataclass
class Verdict:
    """Failure reasons of one request and the largest relative deviation of
    each checked quantity."""

    reasons: list[str] = field(default_factory=list)
    errors: dict[str, float] = field(default_factory=dict)

    def record(self, quantity: str, err: float) -> None:
        err = float(err)
        self.errors[quantity] = max(self.errors.get(quantity, 0.0), err)
        if not err <= TOL[quantity]:
            reason = f"oracle:{quantity}"
            if reason not in self.reasons:
                self.reasons.append(reason)


def _message(text: str) -> str:
    """Last stderr line without numbers, for tallying."""
    line = text.strip().splitlines()[-1] if text.strip() else "no message"
    line = line.removeprefix("error: ")
    line = re.sub(r"[-+]?\(?[-+0-9.eij]*[0-9][-+0-9.eij]*\)?", "#", line)
    return line[:80]


def _elementwise(values, refs) -> float:
    if len(values) != len(refs):
        return float("inf")
    return max(
        (float(abs(complex(v) - r) / max(abs(r), oracle.TINY)) for v, r in zip(values, refs)),
        default=0.0,
    )


def _prefix_errors(verdict, quantity, got, ref) -> None:
    """got = (c, lam, s0) doubles, ref = (c, lam, s0) mp values.  Normwise
    errors are relative to the largest entry of the whole prefix."""
    (c, lam, s0), (rc, rlam, rs0) = got, ref
    if len(c) != len(rc) or len(lam) != len(rlam):
        verdict.record(quantity, float("inf"))
        return
    if quantity == "coeff_normwise":
        scale = max(max(abs(r) for r in list(rc) + list(rlam)), oracle.TINY)
        err = max(float(abs(complex(v) - r) / scale) for v, r in zip(list(c) + list(lam), list(rc) + list(rlam)))
    else:
        err = max(_elementwise(c, rc), _elementwise(lam, rlam))
    verdict.record(quantity, max(err, _elementwise([s0], [rs0])))


def _doc_prefix(doc: dict):
    return (
        [complex(*z) for z in doc["c"]],
        [complex(*z) for z in doc["lambda"]],
        complex(*doc["s0"]),
    )


def _base(params: dict, coeff_files: dict, n_max: int = 256):
    if "family" in params:
        return oracle.preset(params["family"], params.get("n_max", n_max))
    return _doc_prefix(coeff_files[params["coeff_file"]])


def _check_transform(req, doc, verdict) -> None:
    p = req.params
    base = _base(p, {})
    got = _doc_prefix(doc)
    kappa = p["kappa"]
    if req.op == "transform/christoffel":
        _prefix_errors(verdict, "coeff", got, oracle.ref_christoffel(*base, kappa))
    elif req.op == "transform/geronimus":
        _prefix_errors(verdict, "coeff", got, oracle.ref_geronimus(*base, kappa, p["s0star"]))
    elif req.op == "transform/geronimus-cauchy":
        s0star = complex(*doc["provenance"]["sites"][0]["s0star"])
        ref = oracle.ref_cauchy(*base, kappa)
        verdict.record("cauchy", float(abs(s0star - ref) / abs(ref)))
        # the CLI transforms with the double it reports; check that map exactly
        _prefix_errors(verdict, "coeff", got, oracle.ref_geronimus(*base, kappa, s0star))
    elif req.op == "transform/roundtrip":
        ref = oracle.ref_roundtrip(*base, kappa, p["s0star"])
        _prefix_errors(verdict, "coeff_normwise", got, ref)


def _parse_csv(text: str):
    """{n: (zeros, cluster_dist, ln_cluster_dist)} from zeros CSV output."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    out: dict[int, tuple[list, float | None, float | None]] = {}
    for line in lines[1:]:
        row = line.split(",")
        n = int(row[0])
        zs, _, _ = out.setdefault(n, ([], None, None))
        zs.append(complex(float(row[1]), float(row[2])))
        if len(header) == 5:
            out[n] = (zs, float(row[3]), float(row[4]))
    return out


def _n_list(argv) -> list[int]:
    text = next(a for a in argv if a.startswith("--n-list=")).split("=", 1)[1]
    if ":" in text:
        start, stop, step = (int(x) for x in text.split(":"))
        return list(range(start, stop + 1, step))
    return [int(x) for x in text.split(",")]


_ZERO_ERRORS: dict = {}


def _zero_errors(prefix_key, c, lam, n, zs):
    """oracle.zero_errors, computed once per distinct (prefix, degree, zeros):
    requests that repeat a source and degree repeat its output exactly."""
    key = (prefix_key, n, tuple(zs))
    if key not in _ZERO_ERRORS:
        _ZERO_ERRORS[key] = oracle.zero_errors(c, lam, n, zs)
    return _ZERO_ERRORS[key]


def _check_zeros(req, text, coeff_files, verdict) -> None:
    p = req.params
    clouds = _parse_csv(text)
    degrees = _n_list(req.argv)
    if sorted(clouds) != degrees or any(len(clouds[n][0]) != n for n in degrees):
        verdict.reasons.append("oracle:zero-count")
        return
    kind = req.op.split("/")[1]
    prefix_key = (kind, p.get("family"), p.get("coeff_file"), p.get("kappa"), p.get("s0star"))
    c, lam, s0 = _base(p, coeff_files)
    if kind == "christoffel":
        c, lam, _ = oracle.ref_christoffel(c, lam, s0, p["kappa"])
    elif kind == "geronimus":
        g_c, g_lam, _ = oracle.ref_geronimus(c, lam, s0, p["kappa"], p["s0star"])
    for n in degrees:
        zs, dist, ln_dist = clouds[n]
        if kind == "geronimus":
            errs, separated = _zero_errors(prefix_key, g_c, g_lam, n, zs)
            ref = oracle.ref_cluster_distance(c, lam, s0, p["kappa"], p["s0star"], n)
            verdict.record("cluster", float(abs(dist - ref) / ref))
            verdict.record("cluster", abs(ln_dist - float(mp.log(ref))) / abs(float(mp.log(ref))))
        else:
            errs, separated = _zero_errors(prefix_key, c, lam, n, zs)
        verdict.record("zero", max(errs))
        if not separated and "oracle:zero-separation" not in verdict.reasons:
            verdict.reasons.append("oracle:zero-separation")


def _check_verify(req, out, verdict) -> None:
    report = json.loads(out.stdout)
    suite = req.params["suite"]
    wanted = list(SUITES) if suite == "all" else [suite]
    if sorted(report["suites"]) != sorted(wanted):
        verdict.reasons.append("oracle:suite-list")
        return
    for name in wanted:
        if not report["suites"][name]["pass"]:
            verdict.reasons.append(f"suite:{name}")
    if (out.rc == 0) != bool(report["pass"]) or report["pass"] != (not verdict.reasons):
        verdict.reasons.append(f"exit{out.rc}:inconsistent pass flag")


def _check_library(req, value, verdict) -> None:
    p = req.params
    base = oracle.preset(p["family"], p["n_max"])
    if req.op == "lib/christoffel_two":
        k = p["kappa"]
        ref = oracle.ref_christoffel_two(*base, k, k.conjugate())
        _prefix_errors(verdict, "coeff_normwise", value, ref)
    else:
        refs = oracle.ref_varying_measure(*base, p["kappas"])
        if len(refs) != len(value):
            verdict.reasons.append("oracle:step-count")
            return
        for got, ref in zip(value, refs):
            _prefix_errors(verdict, "coeff_normwise", got, ref)


def check(req, out, coeff_files: dict) -> Verdict:
    """Classify one outcome and, when it produced output, check it."""
    verdict = Verdict()
    if out.error is not None:
        verdict.reasons.append(f"exception:{out.error}")
        return verdict
    if req.argv is None:
        _check_library(req, out.value, verdict)
        return verdict
    command = req.argv[0]
    if command == "verify" and out.rc in (0, 1) and out.stdout:
        _check_verify(req, out, verdict)
        return verdict
    if out.rc != 0:
        verdict.reasons.append(f"exit{out.rc}:{_message(out.stderr)}")
        return verdict
    if command == "transform":
        _check_transform(req, json.loads(out.stdout), verdict)
    elif command == "zeros":
        _check_zeros(req, out.stdout, coeff_files, verdict)
    return verdict
