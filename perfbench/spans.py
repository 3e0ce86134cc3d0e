"""Spans around the calls into each layer's public entry points.

The tracer wraps each entry point at every binding it has in the loaded
package: the module attribute and every ``from .x import f`` copy (in
``cli``, ``spectral``, ``rseq``, ``darboux`` and the package namespace), so a
nested call such as ``kernel_zero_cloud -> christoffel`` lands in the inner
layer.  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the time covered by its child spans.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

LAYERS = ("cli", "core", "polyeval", "darboux", "factorization", "spectral", "rseq", "_quadrature")

ENTRY_POINTS = {
    "cli": ("main",),
    "core": ("family_coeffs", "symmetrize", "moments"),
    "polyeval": ("ratio_sequence", "eval_P"),
    "darboux": (
        "christoffel",
        "geronimus",
        "geronimus_cauchy",
        "cauchy_s0star",
        "christoffel_two",
        "GeronimusChain.apply",
    ),
    "factorization": ("lu_factor", "ul_factor", "build_JC", "build_JG"),
    "spectral": (
        "zeros",
        "kernel_zero_cloud",
        "geronimus_zero_cloud",
        "cluster_distance",
        "verify_m_identities",
        "ratio_asymptotic_check",
    ),
    "rseq": ("R1System", "R2System", "GeronimusPairQuasi", "varying_measure_polys"),
    "_quadrature": ("adaptive_integral",),
}

# Work counters and what they count.
COUNTERS = {
    "darboux.terms": "sum of prefix lengths transformed (christoffel, GeronimusChain.apply)",
    "darboux.transforms": "transform calls (christoffel, GeronimusChain.apply)",
    "darboux.unique_ratio": "distinct (base coefficients, kind, kappa, s0star, n_max) per transform call",
    "spectral.zeros.degree_sum": "sum of degrees passed to spectral.zeros",
    "quadrature.nodes": "sum of quadrature rule sizes evaluated",
}


def metric_layer(layer: str) -> str:
    """Metric names start with a letter: ``_quadrature`` reports as ``quadrature``."""
    return layer.lstrip("_")


def entry_names() -> list[str]:
    return [f"{metric_layer(layer)}.{fn}" for layer in LAYERS for fn in ENTRY_POINTS[layer]]


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    self_s: float
    failed: bool
    pass_index: int
    request: int


class Tracer:
    """In-memory span recorder with per-pass work counters."""

    def __init__(self, typed_error=Exception, clock=time.perf_counter):
        self.typed_error = typed_error
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self.pass_index = 0
        self.request = 0
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.unique: dict[int, set] = defaultdict(set)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.pass_index][name] += amount

    def call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        failed = False
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except self.typed_error:
            failed = True
            raise
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append(
                Span(span_id, parent, name, start, end, duration - frame[1], failed,
                     self.pass_index, self.request)
            )

    def wrap(self, name, fn, before=None):
        """fn wrapped in a span; ``before(tracer, args, kwargs)`` counts work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            return tracer.call(name, fn, args, kwargs)

        return traced

    def pass_metrics(self, pass_index: int) -> dict[str, float]:
        """calls / self_s / fail per entry point and self_s per layer, for one pass."""
        out: dict[str, float] = {}
        for name in entry_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.fail"] = 0
        for layer in LAYERS:
            out[f"{metric_layer(layer)}.self_s"] = 0.0
        for span in self.spans:
            if span.pass_index != pass_index:
                continue
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.self_s
            out[f"{span.name}.fail"] += int(span.failed)
            out[f"{span.name.split('.')[0]}.self_s"] += span.self_s
        counts = self.counts[pass_index]
        for name in COUNTERS:
            out[name] = counts.get(name, 0)
        transforms = counts.get("darboux.transforms", 0)
        out["darboux.unique_ratio"] = (
            len(self.unique[pass_index]) / transforms if transforms else 0.0
        )
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _count_christoffel(tracer, args, kwargs):
    m, site = args[0], args[1] if len(args) > 1 else kwargs["site"]
    coeffs = getattr(m, "coeffs", m)
    tracer.count("darboux.terms", coeffs.n_max)
    tracer.count("darboux.transforms")
    key = ("christoffel", coeffs.c.tobytes(), coeffs.lam.tobytes(), coeffs.s0, site.kappa,
           None, coeffs.n_max)
    tracer.unique[tracer.pass_index].add(key)


def _count_apply(tracer, args, kwargs):
    chain, kappa = args[0], args[1] if len(args) > 1 else kwargs["kappa"]
    s0star = args[2] if len(args) > 2 else kwargs.get("s0star")
    tracer.count("darboux.terms", len(chain._c))
    tracer.count("darboux.transforms")
    # mpmath numbers hash by their binary value, so this keys on the prefix
    # without a decimal conversion
    key = ("geronimus", hash((tuple(chain._c), tuple(chain._lam), chain._s0)), complex(kappa),
           None if s0star is None else complex(s0star), len(chain._c))
    tracer.unique[tracer.pass_index].add(key)


def _count_zeros(tracer, args, kwargs):
    tracer.count("spectral.zeros.degree_sum", args[1] if len(args) > 1 else kwargs["n"])


def _count_nodes(tracer, args, kwargs):
    tracer.count("quadrature.nodes", args[2] if len(args) > 2 else kwargs["n"])


_BEFORE = {
    "darboux.christoffel": _count_christoffel,
    "darboux.GeronimusChain.apply": _count_apply,
    "spectral.zeros": _count_zeros,
}


def install(tracer: Tracer, package: str = "darbouxjac"):
    """Wrap every entry point at all of its bindings; returns an undo function."""
    modules = {
        name: mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    }
    undo = []

    def rebind(orig, replacement):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, orig))

    for layer in LAYERS:
        mod = modules[f"{package}.{layer}"]
        for fn_name in ENTRY_POINTS[layer]:
            name = f"{metric_layer(layer)}.{fn_name}"
            owner, _, attr = fn_name.rpartition(".")
            target = getattr(mod, owner) if owner else getattr(mod, attr)
            if owner or isinstance(target, type):
                # methods and classes: wrap on the class (a class's span is
                # its construction), so every binding sees the wrapper
                cls, attr = (target, attr) if owner else (target, "__init__")
                orig = vars(cls)[attr]
                setattr(cls, attr, tracer.wrap(name, orig, _BEFORE.get(name)))
                undo.append((cls, attr, orig))
            else:
                rebind(target, tracer.wrap(name, target, _BEFORE.get(name)))
    # quadrature rule sizes are counted, not spanned
    quad = modules[f"{package}._quadrature"]
    integrate = quad.integrate

    def counted(kind, f, n):
        _count_nodes(tracer, (kind, f, n), {})
        return integrate(kind, f, n)

    rebind(integrate, counted)

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return uninstall
