"""Coefficient data model, classical family presets, symmetrization, moments.

Index conventions follow the monic three-term recurrence

    z P_n(z) = P_{n+1}(z) + c_{n+1} P_n(z) + lambda_{n+1} P_{n-1}(z),

with P_0 = 1 and P_1 = z - c_1.  A finite prefix stores c_1..c_N in ``c``
(0-based: ``c[k] == c_{k+1}``) and lambda_2..lambda_N in ``lam``
(``lam[k] == lambda_{k+2}``).  lambda_1 plays no role in the recurrence; the
functional normalization L(1) is carried separately as ``s0``.
"""
from __future__ import annotations

import json
import operator

import numpy as np

from .errors import ConfigurationError, EvaluationRangeError, PrefixError, QuasiDefinitenessError

__all__ = [
    "CHEBYSHEV_KINDS",
    "DEFAULT_N_MAX",
    "Family",
    "RecurrenceCoeffs",
    "SymmetricJacobi",
    "family_coeffs",
    "symmetrize",
    "moments",
    "monic_jacobi_matrix",
    "symmetric_jacobi_matrix",
]

DEFAULT_N_MAX = 256

CHEBYSHEV_KINDS = ("chebyshev1", "chebyshev2", "chebyshev3", "chebyshev4")


def _integer(name: str, x) -> int:
    """x as an int (3.0 and numpy ints are their int); ConfigurationError
    "<name>=<x> is not an integer" for 2.5, nan, inf or a non-number."""
    try:
        return operator.index(x)
    except TypeError:
        if isinstance(x, (float, np.floating)) and float(x).is_integer():
            return int(x)
    raise ConfigurationError(f"{name}={x} is not an integer")


def _degrees(what: str, n_list, n_max: int, lo: int = 0, reads: int = 0) -> np.ndarray:
    """The degrees a call may read: n_list (a degree, an iterable of them in
    any order or an array of any shape, read flat) as a 1-d int array in list
    order, each entry checked in that order.  A non-integer (a list among the
    entries too) raises ConfigurationError, n < lo and n + reads > n_max a
    PrefixError naming n (and the prefix length n needs)."""
    if isinstance(n_list, np.ndarray):
        n_list = n_list.reshape(-1).tolist()
    try:
        xs = list(n_list)
    except TypeError:  # one degree
        xs = [n_list]
    ns, name = [], f"{what} degree n"
    for x in xs:
        ns.append(n := _integer(name, x))
        if n < lo:
            raise PrefixError(f"{what} has no degree n={n} < {lo}")
        if n + reads > n_max:
            raise PrefixError(f"{what} at n={n} needs a prefix of length >= {n + reads}")
    return np.array(ns, dtype=int)


class Record:
    """Read-only result record: the annotated class attributes are its fields,
    in order, and their class-level values their defaults.  Only ``__init__``
    (store the fields, run ``__post_init__``) is generated per subclass; repr,
    value equality and hashing are shared, and ``eq=False`` keeps identity's.
    """

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__annotations__)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
        ns = {"_set": object.__setattr__, "_defaults": defaults}
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
        body = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        exec(f"def __init__(self, {params}):{body}{post}", ns)
        ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = ns["__init__"]

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__qualname__}.{name} is read-only")

    __delattr__ = __setattr__


def replace(record: Record, **changes) -> Record:
    """A copy of ``record`` with ``changes`` applied, validated again by ``__init__``."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


class Family(Record):
    """An orthogonality-measure preset (or ``custom``) with known support."""

    kind: str
    support: tuple[float, float] | None = (-1.0, 1.0)

    def __post_init__(self):
        if self.kind not in CHEBYSHEV_KINDS + ("custom",):
            raise ConfigurationError(f"unknown family kind {self.kind!r}")


def _as_complex_readonly(x) -> np.ndarray:
    arr = np.asarray(x, dtype=complex).copy()
    arr.setflags(write=False)
    return arr


class RecurrenceCoeffs(Record, eq=False):
    """Finite prefix of monic recurrence coefficients (a monic Jacobi matrix).

    Attributes
    ----------
    c : ndarray
        ``c[k] == c_{k+1}``, k = 0..n_max-1.
    lam : ndarray
        ``lam[k] == lambda_{k+2}``, k = 0..n_max-2; all entries nonzero.
    s0 : complex
        Normalization L(1) of the underlying functional (1 for presets).
    family : Family or None
        Set for presets; enables quadrature against the known weight.
    """

    c: np.ndarray
    lam: np.ndarray
    s0: complex = 1.0 + 0.0j
    family: Family | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", _as_complex_readonly(self.c))
        object.__setattr__(self, "lam", _as_complex_readonly(self.lam))
        object.__setattr__(self, "s0", complex(self.s0))
        if self.c.ndim != 1 or self.lam.ndim != 1:
            raise ConfigurationError("c and lam must be one-dimensional")
        if len(self.c) < 1 or len(self.lam) != len(self.c) - 1:
            raise ConfigurationError(
                f"inconsistent prefix lengths: len(c)={len(self.c)}, "
                f"len(lam)={len(self.lam)} (expected len(c)-1)"
            )
        for name, attr, first in (("c", "c", 1), ("lambda", "lam", 2)):
            values = getattr(self, attr)
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                k = int(bad[0])
                raise ConfigurationError(
                    f"{name}_{k + first} ({attr}[{k}]) = {values[k]} is not finite"
                )
        if not np.isfinite(self.s0):
            raise ConfigurationError(f"s0 = {self.s0} is not finite")
        if np.any(self.lam == 0):
            k = int(np.flatnonzero(self.lam == 0)[0])
            raise QuasiDefinitenessError(f"lambda_{k + 2} = 0: functional is not quasi-definite")

    @property
    def n_max(self) -> int:
        return len(self.c)

    def c_n(self, n: int) -> complex:
        """c_n by its 1-based recurrence index (n = 1..n_max)."""
        if not 1 <= (n := _integer("n", n)) <= self.n_max:
            raise PrefixError(f"c_{n} outside stored prefix (n_max={self.n_max})")
        return complex(self.c[n - 1])

    def lam_n(self, n: int) -> complex:
        """lambda_n by its recurrence index (n = 2..n_max)."""
        if not 2 <= (n := _integer("n", n)) <= self.n_max:
            raise PrefixError(f"lambda_{n} outside stored prefix (n_max={self.n_max})")
        return complex(self.lam[n - 2])

    def truncated(self, n_max: int) -> "RecurrenceCoeffs":
        n_max = _integer("n_max", n_max)
        if not 1 <= n_max <= self.n_max:
            raise PrefixError(f"cannot truncate prefix of length {self.n_max} to {n_max}")
        return replace(self, c=self.c[:n_max], lam=self.lam[: n_max - 1])

    def to_dict(self) -> dict:
        d = {
            "v": 1,
            "kind": "recurrence",
            "n_max": self.n_max,
            "s0": [self.s0.real, self.s0.imag],
            "c": self.c.view(np.float64).reshape(-1, 2).tolist(),
            "lambda": self.lam.view(np.float64).reshape(-1, 2).tolist(),
        }
        if self.family is not None:
            d["family"] = self.family.kind
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RecurrenceCoeffs":
        schema = (d.get("v"), d.get("kind", "recurrence")) if isinstance(d, dict) else None
        if schema != (1, "recurrence"):
            raise ConfigurationError("unsupported coefficient schema")
        try:
            c = [complex(re, im) for re, im in d["c"]]
            lam = [complex(re, im) for re, im in d["lambda"]]
            s0 = complex(*d["s0"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed coefficient data: {exc!r}") from None
        fam = d.get("family")
        return cls(c=c, lam=lam, s0=s0, family=Family(fam) if fam else None)

    def dumps(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def loads(cls, text: str) -> "RecurrenceCoeffs":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"coefficient file is not JSON: {exc}") from None
        return cls.from_dict(d)


class SymmetricJacobi(Record, eq=False):
    """Complex-symmetric Jacobi data: b_k diagonal, a_k off-diagonal.

    ``b[k] == c_{k+1}`` and ``a[k]`` is a square root of ``lambda_{k+2}``.
    """

    b: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", _as_complex_readonly(self.b))
        object.__setattr__(self, "a", _as_complex_readonly(self.a))
        if len(self.a) != len(self.b) - 1:
            raise ConfigurationError("a must be one entry shorter than b")
        if np.any(self.a == 0):
            raise QuasiDefinitenessError("off-diagonal entry a_k = 0")

    @property
    def n_max(self) -> int:
        return len(self.b)

    def to_monic(self) -> RecurrenceCoeffs:
        """Monic reduction: c_{k+1} = b_k, lambda_{k+2} = a_k^2."""
        return RecurrenceCoeffs(c=self.b, lam=self.a**2)


def family_coeffs(kind: str | Family, n_max: int = DEFAULT_N_MAX) -> RecurrenceCoeffs:
    """Monic recurrence prefix of a classical Chebyshev family.

    All four kinds are normalized to probability measures on [-1, 1] so that
    s_0 = 1:  dx/(pi sqrt(1-x^2)) for the first kind, (2/pi) sqrt(1-x^2) dx
    for the second, (1/pi) sqrt((1+x)/(1-x)) dx and its mirror for the third
    and fourth.
    """
    if isinstance(kind, Family):
        family = kind
        kind = family.kind
    else:
        family = Family(kind)
    if kind == "custom":
        raise ConfigurationError("custom family has no preset coefficients")
    if (n_max := _integer("n_max", n_max)) < 2:
        raise ConfigurationError("n_max must be at least 2")

    c = np.zeros(n_max, dtype=complex)
    lam = np.full(n_max - 1, 0.25, dtype=complex)
    if kind == "chebyshev1":
        lam[0] = 0.5  # T_2 = z^2 - 1/2 forces lambda_2 = 1/2
    elif kind == "chebyshev3":
        c[0] = 0.5
    elif kind == "chebyshev4":
        c[0] = -0.5
    return RecurrenceCoeffs(c=c, lam=lam, s0=1.0, family=family)


def symmetrize(m: RecurrenceCoeffs) -> SymmetricJacobi:
    """Symmetric Jacobi data b_k = c_{k+1}, a_k = principal sqrt(lambda_{k+2})."""
    return SymmetricJacobi(b=m.c, a=np.sqrt(m.lam))


def monic_jacobi_matrix(m: RecurrenceCoeffs, size: int) -> np.ndarray:
    """Dense size x size truncation of the monic Jacobi matrix (1's above)."""
    if (size := _integer("size", size)) < 0:
        raise ConfigurationError(f"size={size} must be nonnegative")
    if size > m.n_max:
        raise PrefixError(f"truncation size {size} exceeds prefix length {m.n_max}")
    J = np.zeros((size, size), dtype=complex)
    idx = np.arange(size)
    J[idx, idx] = m.c[:size]
    if size > 1:
        J[idx[:-1], idx[:-1] + 1] = 1.0
        J[idx[:-1] + 1, idx[:-1]] = m.lam[: size - 1]
    return J


def symmetric_jacobi_matrix(J: SymmetricJacobi, size: int) -> np.ndarray:
    """Dense size x size truncation of a complex-symmetric Jacobi matrix."""
    if (size := _integer("size", size)) < 0:
        raise ConfigurationError(f"size={size} must be nonnegative")
    if size > J.n_max:
        raise PrefixError(f"truncation size {size} exceeds stored length {J.n_max}")
    M = np.zeros((size, size), dtype=complex)
    idx = np.arange(size)
    M[idx, idx] = J.b[:size]
    if size > 1:
        M[idx[:-1], idx[:-1] + 1] = J.a[: size - 1]
        M[idx[:-1] + 1, idx[:-1]] = J.a[: size - 1]
    return M


def moments(m: RecurrenceCoeffs, count: int) -> np.ndarray:
    """Moments s_0..s_count, s_j = (J^j e_0, e_0) * s0.

    Computed by repeated tridiagonal matrix-vector products on a truncation
    large enough that the boundary is never reached (a length-j path from
    index 0 back to 0 visits indices <= j/2).  A moment beyond the double
    range raises EvaluationRangeError(j).
    """
    count = _integer("count", count)
    if count < 0:
        raise ConfigurationError("count must be nonnegative")
    if count > m.n_max:
        raise PrefixError(
            f"count={count} exceeds prefix length {m.n_max}: "
            "truncation would corrupt the requested moments"
        )
    size = min(count + 1, m.n_max)
    out = np.empty(count + 1, dtype=complex)
    out[0] = m.s0
    if count == 0:
        return out
    diag = m.c[:size]
    sub = m.lam[: size - 1]
    v = np.zeros(size, dtype=complex)
    v[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, count + 1):
            w = diag * v
            w[:-1] += v[1:]          # superdiagonal of ones
            w[1:] += sub * v[:-1]    # subdiagonal lambda
            v = w
            out[j] = v[0] * m.s0
    bad = np.flatnonzero(~np.isfinite(out))
    if len(bad):
        raise EvaluationRangeError(int(bad[0]))
    return out
