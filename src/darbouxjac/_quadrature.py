"""Gauss-Chebyshev quadrature for the four probability-normalized presets.

Closed-form nodes and weights exist for every kind; weights are divided by
the total mass (pi, or pi/2 for the second kind) so each rule integrates
against a probability measure.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .core import Family
from .errors import ConfigurationError, QuadratureError

__all__ = ["gauss_nodes", "integrate", "adaptive_integral"]


def gauss_nodes(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and probability-normalized weights of the n-point rule."""
    k = np.arange(1, n + 1, dtype=float)
    if kind == "chebyshev1":
        x = np.cos((2 * k - 1) * np.pi / (2 * n))
        w = np.full(n, 1.0 / n)
    elif kind == "chebyshev2":
        theta = k * np.pi / (n + 1)
        x = np.cos(theta)
        w = (2.0 / (n + 1)) * np.sin(theta) ** 2
    elif kind == "chebyshev3":
        theta = (2 * k - 1) * np.pi / (2 * n + 1)
        x = np.cos(theta)
        w = (2.0 / (2 * n + 1)) * (1.0 + x)
    elif kind == "chebyshev4":
        theta = 2 * k * np.pi / (2 * n + 1)
        x = np.cos(theta)
        w = (2.0 / (2 * n + 1)) * (1.0 - x)
    else:
        raise ConfigurationError(f"no quadrature rule for family kind {kind!r}")
    return x, w


def integrate(kind: str, f: Callable[[np.ndarray], np.ndarray], n: int) -> complex:
    """Integral of f against the kind's probability measure, n nodes."""
    x, w = gauss_nodes(kind, n)
    return complex(np.sum(w * f(x)))


def adaptive_integral(
    family: Family | str, f: Callable[[np.ndarray], np.ndarray], stop: int = 4096
) -> complex:
    """Node-doubling integral with convergence check.

    Doubles the node count from 256 until two successive rules agree to
    1e-11 (relative to scale); raises QuadratureError if the rules at
    ``stop`` and 2 ``stop`` nodes still disagree by more than 1e-10.
    """
    kind = family.kind if isinstance(family, Family) else family
    n = 256
    prev = integrate(kind, f, n)
    while n < stop:
        n *= 2
        cur = integrate(kind, f, n)
        if abs(cur - prev) <= 1e-11 * max(1.0, abs(cur)):
            return cur
        prev = cur
    cur = integrate(kind, f, stop * 2)
    if abs(cur - prev) > 1e-10 * max(1.0, abs(cur)):
        raise QuadratureError(
            f"quadrature did not converge: node-doubling disagreement "
            f"{abs(cur - prev):.3e} at {stop * 2} nodes"
        )
    return cur
