"""LDL^T / UDU^T factorizations of J - kappa I and the matrix-level Darboux
transforms J_C(kappa) = L^T L + kappa I and J_G(kappa) = U^T U + kappa I.

Entry recurrences (lower):  d_0 = b_0 - kappa,  d_j v_j = a_j,
d_{j+1} = b_{j+1} - kappa - d_j v_j^2.  Upper:  t_0 = 1, u_0^2 = 1/s0star
(the free parameter; this choice pins one factorization),
t_{j+1} = b_j - kappa - t_j u_j^2,  t_{j+1} u_{j+1} = a_j.

The pivots are ratios of the monic polynomials of J (c = b, lambda = a^2),
d_j = -P_{j+1}(kappa)/P_j(kappa) and t_j = -R_j(kappa)/R_{j-1}(kappa) (R at
offset 1/s0star): one ``polyeval._ratio_run`` each, with its breakdown test.
"""
from __future__ import annotations

import numpy as np

from .core import Record, SymmetricJacobi, _integer, _tridiagonal
from .errors import ConfigurationError, ExistenceError, FactorBreakdownError, PrefixError
from .polyeval import _ratio_run

__all__ = [
    "LowerFactor",
    "UpperFactor",
    "lu_factor",
    "ul_factor",
    "lower_from_upper",
    "build_JC",
    "build_JG",
]

class LowerFactor(Record):
    """J - kappa I = (script-L) D (script-L)^T with unit lower bidiagonal
    script-L (subdiagonal v) and D = diag(d); sqrt_d holds the chosen roots
    for L = script-L D^(1/2)."""

    kappa: complex
    d: np.ndarray
    v: np.ndarray
    sqrt_d: np.ndarray

    def dense_L(self, size: int | None = None) -> np.ndarray:
        size = len(self.d) if size is None else _integer("size", size)
        if not 1 <= size <= len(self.d):
            raise PrefixError(f"size={size} outside the factor's rows 1..{len(self.d)}")
        return _tridiagonal(self.sqrt_d[:size],
                            lower=self.v[: size - 1] * self.sqrt_d[: size - 1])

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) of L D L^T; should equal J - kappa I."""
        diag = self.d.copy()
        diag[1:] += self.d[:-1] * self.v**2
        off = self.d[:-1] * self.v
        return diag, off


class UpperFactor(Record):
    """J - kappa I = (script-U) D (script-U)^T with upper bidiagonal script-U
    (diagonal u, unit superdiagonal) and D = diag(t)."""

    kappa: complex
    s0star: complex
    t: np.ndarray
    u: np.ndarray
    sqrt_t: np.ndarray

    def dense_U(self, size: int | None = None) -> np.ndarray:
        size = len(self.t) if size is None else _integer("size", size)
        if not 1 <= size <= len(self.t):
            raise PrefixError(f"size={size} outside the factor's rows 1..{len(self.t)}")
        return _tridiagonal(self.u[:size] * self.sqrt_t[:size], upper=self.sqrt_t[1:size])

    def reconstruct(self) -> tuple[np.ndarray, np.ndarray]:
        """(diagonal, off-diagonal) of U D U^T on the rows it determines."""
        n = len(self.t) - 1
        diag = self.t[:n] * self.u[:n] ** 2 + self.t[1 : n + 1]
        off = self.t[1 : n + 1][: n - 1] * self.u[1:n]
        return diag, off


def _pivots(J: SymmetricJacobi, kappa: complex, offset, count: int, which: str) -> np.ndarray:
    """Pivots d (offset 0) or t_1.. (offset 1/s0star): -w of the ratio run; a
    breakdown at y_n is FactorBreakdownError at d_{n-1} or t_n."""
    try:
        w = _ratio_run(J.b.tolist(), (J.a**2).tolist(), kappa, offset, count, "", diffs=False)[0]
    except ExistenceError as exc:
        raise FactorBreakdownError(exc.index - (which == "d"), which) from None
    return -np.array(w[:count], dtype=complex)


def lu_factor(J: SymmetricJacobi, kappa: complex) -> LowerFactor:
    """LDL^T data of J - kappa I.

    Exists whenever the underlying polynomials do not vanish at kappa
    (guaranteed for real J and nonreal kappa); a pivot collapse raises
    FactorBreakdownError naming the index.
    """
    kappa = complex(kappa)
    d = _pivots(J, kappa, 0j, J.n_max, "d")
    return LowerFactor(kappa=kappa, d=d, v=J.a / d[:-1], sqrt_d=np.sqrt(d))


def ul_factor(J: SymmetricJacobi, kappa: complex, s0star: complex) -> UpperFactor:
    """UDU^T data of J - kappa I with the convention t_0 = 1, u_0^2 = 1/s0star."""
    kappa, s0star = complex(kappa), complex(s0star)
    if s0star == 0:
        raise ConfigurationError("ul_factor needs s0star != 0")
    t = np.concatenate(([1.0 + 0j], _pivots(J, kappa, 1 / s0star, J.n_max - 1, "t")))
    u = np.concatenate(([np.sqrt(1.0 / (s0star + 0j))], J.a / t[1:]))
    return UpperFactor(kappa=kappa, s0star=s0star, t=t, u=u, sqrt_t=np.sqrt(t))


def build_JC(f: LowerFactor) -> SymmetricJacobi:
    """J_C(kappa) = L^T L + kappa I, assembled entrywise from the factors.

    b^C_j = d_j (1 + v_j^2) + kappa and a^C_j = v_j sqrt(d_j d_{j+1}); the
    monic reduction reproduces the Christoffel-transformed coefficients.
    """
    n = len(f.d) - 1
    b = f.d[:n] * (1.0 + f.v[:n] ** 2) + f.kappa
    a = f.v[: n - 1] * f.sqrt_d[: n - 1] * f.sqrt_d[1:n]
    return SymmetricJacobi(b=b, a=a)


def lower_from_upper(f: UpperFactor) -> LowerFactor:
    """Closed-form lower factor of J_G(kappa) - kappa I.

    J_G - kappa I = U^T U by definition, and U^T is already lower bidiagonal,
    so d_j = t_j u_j^2 and v_j = sqrt(t_{j+1})/(u_j sqrt(t_j)) exactly.
    Re-deriving the pivots from the assembled J_G entries is exponentially
    ill-conditioned (kappa lies in the spectrum of J_G); this route is not.
    """
    n = len(f.t) - 1
    d = f.t[:n] * f.u[:n] ** 2
    v = f.sqrt_t[1:n] / (f.u[: n - 1] * f.sqrt_t[: n - 1])
    sqrt_d = f.u[:n] * f.sqrt_t[:n]
    return LowerFactor(kappa=f.kappa, d=d, v=v, sqrt_d=sqrt_d)


def build_JG(f: UpperFactor) -> SymmetricJacobi:
    """J_G(kappa) = U^T U + kappa I, assembled entrywise from the factors.

    b^G_0 = kappa + 1/s0star, b^G_j = t_j (1 + u_j^2) + kappa for j >= 1, and
    a^G_j = u_j sqrt(t_j t_{j+1}); the monic reduction reproduces the
    Geronimus-transformed coefficients.
    """
    n = len(f.t) - 1
    b = np.empty(n, dtype=complex)
    b[0] = f.t[0] * f.u[0] ** 2 + f.kappa
    b[1:] = f.t[1:n] * (1.0 + f.u[1:n] ** 2) + f.kappa
    a = f.u[: n - 1] * f.sqrt_t[: n - 1] * f.sqrt_t[1:n]
    return SymmetricJacobi(b=b, a=a)
