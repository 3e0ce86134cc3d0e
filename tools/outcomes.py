#!/usr/bin/env python3
"""One digest per benchmark outcome, to compare two checkouts byte for byte.

Usage: tools/outcomes.py [--seeds 1-10] [--workloads transform zeros verify]

Runs every request of the chosen workloads at each seed, then each request of
``workloads.KNOWN_DEFECTS``, through ``perfbench/workloads.execute`` on the
package of the checkout this file lives in, and prints one line per outcome:

    workload seed index op sha256

The digest covers the exit code, stdout, stderr, the error name and the bytes
of a library value, dtype included.  Two checkouts give the same outputs on
every request when their printouts are equal, e.g.

    diff <(python a/tools/outcomes.py) <(python b/tools/outcomes.py)

perfbench/ is imported, never written to (no bytecode either).
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
COEFFS = "<coeff-dir>"  # stands for the temporary --coeff-file directory


def _import_checkout():
    """The checkout's darbouxjac (with its cli) and perfbench/workloads.py."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        workloads = importlib.import_module("workloads")
        pkg = importlib.import_module("darbouxjac")
        importlib.import_module("darbouxjac.cli")
    finally:
        sys.dont_write_bytecode = bytecode
    return pkg, workloads


def _value_bytes(value) -> bytes:
    if value is None:
        return b"None"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_value_bytes(v) for v in value) + b"]"
    arr = np.asarray(value)
    return f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()


def digest(outcome, coeff_dir: str) -> str:
    """SHA-256 of one outcome; the --coeff-file directory reads as COEFFS."""
    h = hashlib.sha256()
    for part in (repr(outcome.rc), outcome.stdout, outcome.stderr, repr(outcome.error)):
        h.update(part.replace(coeff_dir, COEFFS).encode() + b"\0")
    h.update(_value_bytes(outcome.value))
    return h.hexdigest()


def outcome_lines(names, seeds) -> list[str]:
    """The lines of every request of each workload in ``names`` at each seed,
    then of each known defect (workload ``known``, seed ``-``)."""
    pkg, workloads = _import_checkout()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for seed in seeds:
                coeff_dir = Path(tmp) / f"{name}-{seed}"
                requests, files = workloads.build(name, seed, coeff_dir)
                workloads.write_coeff_files(coeff_dir, files)
                runs.append((name, seed, requests, str(coeff_dir)))
        runs.append(("known", "-", list(workloads.KNOWN_DEFECTS), tmp))
        keys = {(f, 256) for f in workloads.PRESETS}
        keys |= {(r.params["family"], r.params["n_max"])
                 for *_, requests, _ in runs for r in requests if r.argv is None}
        presets = {key: pkg.family_coeffs(*key) for key in sorted(keys)}
        return [
            f"{name} {seed} {i} {req.op} {digest(workloads.execute(pkg, presets, req), where)}"
            for name, seed, requests, where in runs
            for i, req in enumerate(requests)
        ]


def parse_seeds(text: str) -> list[int]:
    """'3', '1-10' or a comma list of either."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default="1-10", help="e.g. 1-10 or 1,4")
    parser.add_argument("--workloads", nargs="+", default=["transform", "zeros", "verify"],
                        choices=("transform", "zeros", "verify"))
    args = parser.parse_args(argv)
    print("\n".join(outcome_lines(args.workloads, args.seeds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
