"""darbouxjac benchmark: one command, one process, one thread.

    python3 perfbench/run.py --workload {transform,zeros,verify} --seed N \
        --seconds S --trace {0,1}

One client sends the workload's fixed, seeded request list in a closed loop
(each request after the previous one completes), repeating the list in
passes for about S seconds (at least MIN_PASSES passes).  Every output of
the first pass is checked against the mpmath oracle after the timed region,
and every later pass must reproduce it exactly.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass,
then traced passes, and prints the per-layer metrics (per pass) together
with the tracing overhead.  The last stdout line is the JSON result.
"""
from __future__ import annotations

import os

# One BLAS thread: eigvals would otherwise start up to nproc threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import mpmath as mp

import check
import spans
import workloads

# Timing.  Every time is CPU time of this single-threaded process (nothing in
# the program waits on I/O or a queue), normalised to a reference core speed:
# a request's time is multiplied by CAL_REF_S over the CPU time of the
# benchmark-owned calibration() loop, measured right before and after it
# and, in untraced runs, every TICK_S of real time inside it (NormalisedClock).
# On a shared machine a core's speed swings by tens of percent within
# seconds; the ratio cancels that, since calibration() runs the same kind of
# interpreter-bound complex and mpmath arithmetic as the workloads.  The
# scale CAL_REF_S is calibration()'s time on an unloaded core of the machine
# the baseline was recorded on.  Run length is kept by the real clock.
CLOCK = time.process_time
CAL_REF_S = 0.0075
TICK_S = 0.5


def calibration():
    """Fixed work: a double-precision complex recurrence like the Newton and
    ratio loops, and a 400-digit mpmath ratio run like the transforms."""
    z, p_prev, p = 0.3 + 0.2j, 1.0 + 0.0j, 0.3 + 0.2j
    for _ in range(6000):
        p_prev, p = p, (z - 0.01) * p - 0.25 * p_prev
    with mp.workdps(400):
        w, kappa, lam = mp.mpc(1), mp.mpc(0.3, 0.5), mp.mpf(0.25)
        for _ in range(250):
            w = kappa - lam / w
    return p, w


class NormalisedClock:
    """Times blocks of work in reference-core seconds (see CAL_REF_S).

    A stretch of CPU time is scaled by CAL_REF_S over the mean of the
    calibrations at its two ends.  With interior=True a real-time timer also
    calibrates every TICK_S inside the timed block, so a request that runs
    for seconds is normalised piece by piece instead of by its two ends
    alone; the calibrations' own time is left out of the result.  (A
    CPU-time timer would not do: while one is armed, Linux reads the process
    CPU clock at scheduler-tick resolution.)"""

    def __init__(self, interior: bool = False):
        self.interior = interior
        self.ticks = 0
        self.last = self._calibrate()

    @staticmethod
    def _calibrate() -> float:
        t0 = CLOCK()
        calibration()
        return CLOCK() - t0

    def time(self, fn, *args):
        """(fn(*args), normalised seconds, raw CPU seconds)."""
        total = {"raw": 0.0, "normalised": 0.0}
        start = [CLOCK()]

        def close_piece():
            raw = CLOCK() - start[0]
            cal = self._calibrate()
            total["raw"] += raw
            total["normalised"] += raw * CAL_REF_S / (0.5 * (self.last + cal))
            self.last = cal

        def tick(signum, frame):
            close_piece()
            self.ticks += 1
            start[0] = CLOCK()

        if self.interior:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start[0] = CLOCK()
        try:
            out = fn(*args)
        finally:
            if self.interior:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
            close_piece()
        return out, total["normalised"], total["raw"]


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 7
MIN_PASSES = 1
TAIL_BEYOND = 10


def coeff_dir() -> Path:
    """Per-process directory for the --coeff-file inputs, removed at exit."""
    return OUT / f"coeffs-{os.getpid()}"


def setup(requests, files):
    """Import the package afresh, load presets and fixtures, write the
    --coeff-file inputs.  Returns (package, presets)."""
    for name in [m for m in sys.modules if m == "darbouxjac" or m.startswith("darbouxjac.")]:
        del sys.modules[name]
    pkg = importlib.import_module("darbouxjac")
    importlib.import_module("darbouxjac.cli")
    wanted = {(f, 256) for f in workloads.PRESETS}
    wanted |= {(r.params["family"], r.params["n_max"]) for r in requests if r.argv is None}
    presets = {key: pkg.family_coeffs(*key) for key in sorted(wanted)}
    json.loads(resources.files("darbouxjac").joinpath("fixtures/thresholds.json").read_text())
    workloads.write_coeff_files(coeff_dir(), files)
    return pkg, presets


@dataclass
class Passes:
    """Results of run_passes: reference outcomes, per-request times (pass
    after pass) normalised and raw, and the requests whose output changed."""

    first: list
    lat: list = field(default_factory=list)
    raw: list = field(default_factory=list)
    changed: set = field(default_factory=set)

    def walls(self, per_pass: int, raw: bool = False) -> list[float]:
        times = self.raw if raw else self.lat
        return [sum(times[k:k + per_pass]) for k in range(0, len(times), per_pass)]


def run_passes(clock, pkg, presets, requests, seconds, min_passes, tracer=None, reference=None):
    """Closed-loop passes over the request list.

    The reference outcomes are the first pass's unless given; every other
    outcome is compared with them.  A new pass starts only if it is expected
    to end within ``seconds`` of real time, once ``min_passes`` have run.
    """
    res = Passes(first=list(reference) if reference is not None else [None] * len(requests))
    begin = time.perf_counter()
    passes = 0
    while True:
        if tracer is not None:
            tracer.pass_index = passes
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = i
            out, normalised, raw = clock.time(workloads.execute, pkg, presets, req)
            res.lat.append(normalised)
            res.raw.append(raw)
            if res.first[i] is None:
                res.first[i] = out
            elif not workloads.same_output(res.first[i], out):
                res.changed.add(i)
        passes += 1
        elapsed = time.perf_counter() - begin
        if passes >= min_passes and elapsed * (1 + 1 / passes) > seconds:
            return res


def verdicts(requests, outcomes, changed, files):
    out = []
    for i, (req, outcome) in enumerate(zip(requests, outcomes)):
        v = check.check(req, outcome, files)
        if i in changed:
            v.reasons.append("nondeterministic")
        out.append(v)
    return out


def summarize(vs, passes):
    """(failed, correct, reason tally, max relative error per quantity)."""
    tally, errors = Counter(), {}
    failed = 0
    for v in vs:
        if v.reasons:
            failed += passes
        for r in v.reasons:
            tally[r] += passes
        for q, e in v.errors.items():
            errors[q] = max(errors.get(q, 0.0), e)
    correct = not any(r.startswith("oracle:") or r == "nondeterministic" for r in tally)
    return failed, correct, tally, errors


def tail(latencies, per_pass):
    """Highest percentile with at least TAIL_BEYOND requests beyond it in
    one pass of the request list.  It is fixed per workload, so it does not
    move when a faster program fits more passes into the run."""
    pct = 100.0 * (1.0 - TAIL_BEYOND / per_pass)
    ordered = sorted(latencies)
    rank = max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)
    return pct, ordered[rank]


def report_checks(tally, errors, attempted, failed):
    print(f"requests attempted={attempted} failed={failed} fail_frac={failed / attempted:.4f}")
    for reason, n in sorted(tally.items()):
        print(f"  fail {reason}: {n}")
    for q, e in sorted(errors.items()):
        print(f"  max_rel_err[{q}] = {e:.3e} (tolerance {check.TOL[q]:.0e})")


def known_defects(pkg) -> bool:
    """Run workloads.KNOWN_DEFECTS once, after the traced passes, and print
    how each ends.  They stay out of attempted and failed; False if one now
    returns a wrong value."""
    presets = {(r.params["family"], r.params["n_max"]): None
               for r in workloads.KNOWN_DEFECTS if r.argv is None}
    presets = {key: pkg.family_coeffs(*key) for key in presets}
    print("known defects at the seed (untimed, not counted):")
    right = True
    for req in workloads.KNOWN_DEFECTS:
        v = check.check(req, workloads.execute(pkg, presets, req), {})
        right = right and not any(r.startswith("oracle:") for r in v.reasons)
        what = " ".join(req.argv) if req.argv else f"{req.op} {req.params}"
        print(f"  {what}: {', '.join(v.reasons) or 'no longer fails'}")
    return right


def untraced(args, requests, files):
    clock = NormalisedClock(interior=True)
    times = []
    for _ in range(SETUPS):
        (pkg, presets), t, _ = clock.time(setup, requests, files)
        times.append(t)
    res = run_passes(clock, pkg, presets, requests, args.seconds, MIN_PASSES)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat, walls = res.lat, res.walls(len(requests))
    passes = len(walls)
    failed, correct, tally, errors = summarize(
        verdicts(requests, res.first, res.changed, files), passes
    )
    attempted = passes * len(requests)
    pct, tail_s = tail(lat, len(requests))
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"workload={args.workload} seed={args.seed} requests/pass={len(requests)} "
          f"passes={passes} samples={len(lat)} interior calibrations={clock.ticks}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  op_tail_ms is p{pct:.1f} over {len(lat)} samples")
    print("  pass walls (normalised): " + " ".join(f"{w:.3f}" for w in walls))
    print("  pass walls (raw CPU):    " + " ".join(f"{w:.3f}" for w in res.walls(len(requests), raw=True)))
    report_checks(tally, errors, attempted, failed)
    print(f"  max_rel_err = {max(errors.values(), default=0.0):.3e}")
    return correct, attempted, failed, metrics


def traced(args, requests, files):
    clock = NormalisedClock()
    pkg, presets = setup(requests, files)
    begin = time.perf_counter()
    base = run_passes(clock, pkg, presets, requests, 0, 1)
    remaining = args.seconds - (time.perf_counter() - begin)
    # spans use raw CPU time; the overhead compares normalised pass times
    tracer = spans.Tracer(typed_error=pkg.DarbouxError, clock=CLOCK)
    uninstall = spans.install(tracer)
    try:
        res = run_passes(clock, pkg, presets, requests, remaining, 1, tracer, base.first)
    finally:
        uninstall()
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    walls = res.walls(len(requests))
    passes = len(walls)
    per_pass = [tracer.pass_metrics(p) for p in range(passes)]
    metrics = {name: statistics.fmean(pm[name] for pm in per_pass) for name in per_pass[0]}
    failed, correct, tally, errors = summarize(
        verdicts(requests, base.first, base.changed | res.changed, files), passes + 1
    )
    attempted = (passes + 1) * len(requests)
    base_wall = base.walls(len(requests))[0]
    metrics["trace.wall_s"] = statistics.median(res.walls(len(requests), raw=True))
    metrics["trace.overhead_s"] = statistics.median(walls) - base_wall
    metrics["check.max_rel_err"] = max(errors.values(), default=0.0)
    metrics["check.fail_frac"] = failed / attempted
    print(f"workload={args.workload} seed={args.seed} traced passes={passes} "
          f"normalised pass wall untraced={base_wall:.4f} s traced={statistics.median(walls):.4f} s "
          f"overhead_s={metrics['trace.overhead_s']:.4f}; traced raw CPU wall "
          f"{metrics['trace.wall_s']:.4f} s (per-layer times are raw CPU)")
    wall = metrics["trace.wall_s"]
    for layer in spans.LAYERS:
        name = f"{spans.metric_layer(layer)}.self_s"
        print(f"  {name:<28} {metrics[name]:10.4f} s  ({100 * metrics[name] / wall:5.1f}% of wall)")
    for name in spans.entry_names():
        if metrics[f"{name}.calls"]:
            print(f"    {name:<36} calls={metrics[name + '.calls']:<8g} "
                  f"self_s={metrics[name + '.self_s']:.4f} fail={metrics[name + '.fail']:g}")
    for name in spans.COUNTERS:
        print(f"  {name} = {metrics[name]:.6g}")
    report_checks(tally, errors, attempted, failed)
    correct = known_defects(pkg) and correct
    units = {n: per_layer_unit(n) for n in metrics}
    return correct, attempted, failed, {n: (v, units[n]) for n, v in metrics.items()}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_err", "_frac")):
        return "1"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "darbouxjac" / "__init__.py").is_file():
        print(f"error: no darbouxjac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    requests, files = workloads.build(args.workload, args.seed, coeff_dir())
    run = traced if args.trace else untraced
    try:
        correct, attempted, failed, metrics = run(args, requests, files)
    finally:
        shutil.rmtree(coeff_dir(), ignore_errors=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
