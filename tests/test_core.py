import copy
import inspect
import json
import pickle
import re

import numpy as np
import pytest

from darbouxjac._quadrature import gauss_nodes
from darbouxjac.core import (
    CHEBYSHEV_KINDS,
    Family,
    RecurrenceCoeffs,
    SymmetricJacobi,
    family_coeffs,
    moments,
    replace,
    symmetrize,
)
from darbouxjac.darboux import TransformedCoeffs, TransformPoint, christoffel, geronimus
from darbouxjac.errors import ConfigurationError, PrefixError, QuasiDefinitenessError
from darbouxjac.factorization import LowerFactor, UpperFactor
from darbouxjac.polyeval import RatioSequence
from darbouxjac.rseq import VaryingMeasureResult
from darbouxjac.spectral import (
    DynamicsReport,
    MIdentityReport,
    NevaiDiagnostics,
    RatioAsymptoticReport,
    StripReport,
    ZeroCloud,
)


class TestFamilyCoeffs:
    def test_chebyshev2_prefix(self):
        m = family_coeffs("chebyshev2", 5)
        assert np.all(m.c == 0)
        assert np.all(m.lam == 0.25)
        assert m.s0 == 1

    def test_chebyshev1_lambda2(self):
        # T_2 = z^2 - 1/2 = (z - c_2) T_1 - lambda_2 T_0 forces lambda_2 = 1/2
        m = family_coeffs("chebyshev1", 3)
        assert m.lam_n(2) == 0.5
        assert m.lam_n(3) == 0.25

    def test_chebyshev3_c1(self):
        assert family_coeffs("chebyshev3", 2).c_n(1) == 0.5

    def test_chebyshev4_c1(self):
        assert family_coeffs("chebyshev4", 2).c_n(1) == -0.5

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            family_coeffs("legendre")

    def test_deterministic_bits(self):
        a = family_coeffs("chebyshev3", 64)
        b = family_coeffs("chebyshev3", 64)
        assert a.c.tobytes() == b.c.tobytes()
        assert a.lam.tobytes() == b.lam.tobytes()

    def test_n_max_too_small(self):
        with pytest.raises(ConfigurationError):
            family_coeffs("chebyshev1", 1)


class TestRecurrenceCoeffs:
    def test_length_consistency(self):
        with pytest.raises(ConfigurationError):
            RecurrenceCoeffs(c=[0.0, 0.0], lam=[0.25, 0.25])

    def test_quasi_definiteness(self):
        with pytest.raises(QuasiDefinitenessError):
            RecurrenceCoeffs(c=[0.0, 0.0, 0.0], lam=[0.25, 0.0])

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("c", [0.0, complex("nan"), float("inf")], "c_2 (c[1])"),
            ("lam", [0.25, complex(0.25, float("-inf"))], "lambda_3 (lam[1])"),
            ("s0", float("nan"), "s0"),
        ],
    )
    def test_non_finite_rejected_with_index(self, field, value, name):
        kwargs = {"c": [0.0, 0.0, 0.0], "lam": [0.25, 0.25], "s0": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=re.escape(name)):
            RecurrenceCoeffs(**kwargs)

    def test_paper_index_accessors(self, cheb1):
        assert cheb1.c_n(1) == cheb1.c[0]
        assert cheb1.lam_n(2) == cheb1.lam[0]
        with pytest.raises(PrefixError):
            cheb1.lam_n(1)

    def test_truncated(self, cheb1):
        t = cheb1.truncated(10)
        assert t.n_max == 10
        assert np.all(t.lam == cheb1.lam[:9])

    def test_immutable(self, cheb1):
        with pytest.raises(ValueError):
            cheb1.c[0] = 1.0


class TestSymmetrize:
    def test_chebyshev2(self, cheb2):
        J = symmetrize(cheb2)
        assert np.all(J.b == 0)
        assert np.allclose(J.a, 0.5)

    def test_chebyshev1_a0(self, cheb1):
        J = symmetrize(cheb1)
        assert abs(J.a[0] - 1 / np.sqrt(2)) < 1e-15
        assert np.allclose(J.a[1:], 0.5)

    def test_principal_branch_negative_lambda(self):
        m = RecurrenceCoeffs(c=np.zeros(4), lam=[0.25, -1.0, 0.25])
        J = symmetrize(m)
        assert J.a[1] == 1j

    def test_square_roundtrip(self, presets):
        for m in presets.values():
            J = symmetrize(m)
            assert np.max(np.abs(J.a**2 - m.lam) / np.abs(m.lam)) < 1e-13

    def test_zero_offdiagonal_rejected(self):
        with pytest.raises(QuasiDefinitenessError):
            SymmetricJacobi(b=[0.0, 0.0], a=[0.0])


class TestMoments:
    def test_first_moments(self, cheb1):
        s = moments(cheb1, 1)
        assert s[0] == 1
        assert s[1] == 0

    def test_cheb1_s2(self, cheb1):
        # integral x^2 dx/(pi sqrt(1-x^2)) = 1/2 (Gauss-Chebyshev oracle)
        x, w = gauss_nodes("chebyshev1", 4096)
        oracle = np.sum(w * x**2)
        s = moments(cheb1, 2)
        assert abs(s[2] - oracle) < 1e-14
        assert abs(s[2] - 0.5) < 1e-14

    def test_cheb2_s2_matrix_oracle(self, cheb2):
        # (J^2 e_0, e_0) = a_0^2 = 1/4 by direct matrix multiplication
        from darbouxjac.core import monic_jacobi_matrix

        J = monic_jacobi_matrix(cheb2, 3)
        assert abs((J @ J)[0, 0] - 0.25) < 1e-15
        assert abs(moments(cheb2, 2)[2] - 0.25) < 1e-15

    @pytest.mark.parametrize("kind", CHEBYSHEV_KINDS)
    def test_quadrature_agreement_k20(self, presets, kind):
        m = presets[kind]
        s = moments(m, 20)
        x, w = gauss_nodes(kind, 4096)
        for j in range(21):
            oracle = np.sum(w * x**j)
            assert abs(s[j] - oracle) <= 1e-10 * max(1.0, abs(oracle))

    def test_count_exceeds_prefix(self):
        m = family_coeffs("chebyshev1", 8)
        with pytest.raises(PrefixError):
            moments(m, 9)
        moments(m, 8)  # boundary allowed


class TestJsonSchema:
    def test_roundtrip(self, cheb3):
        text = cheb3.truncated(6).dumps()
        doc = json.loads(text)
        assert doc["v"] == 1
        back = RecurrenceCoeffs.loads(text)
        assert np.all(back.c == cheb3.c[:6])
        assert np.all(back.lam == cheb3.lam[:5])
        assert back.s0 == cheb3.s0
        assert back.family.kind == "chebyshev3"

    def test_complex_as_pairs(self, cheb1):
        doc = cheb1.truncated(4).to_dict()
        assert doc["s0"] == [1.0, 0.0]
        assert all(len(pair) == 2 for pair in doc["c"])

    @pytest.mark.parametrize("case", ["preset", "christoffel", "geronimus", "signed_zero_huge"])
    def test_pairs_serialize_as_per_element(self, case):
        """to_dict writes each array as a float64 view: json bytes equal those
        of [[z.real, z.imag] for z in arr], -0.0 parts and 1e300 entries included."""
        m = family_coeffs("chebyshev1")
        if case == "christoffel":
            m = christoffel(m, TransformPoint(0.3 + 0.5j)).coeffs
        elif case == "geronimus":
            m = geronimus(m, TransformPoint(1j, s0star=1 + 0j)).coeffs
        elif case == "signed_zero_huge":
            m = RecurrenceCoeffs(
                c=[complex(-0.0, 0.0), complex(1e300, -0.0), complex(-1e300, 1e300), -0.0j],
                lam=[complex(-0.0, -1e300), complex(1e300, 0.0), complex(-1e-300, -0.0)],
            )
        per_element = dict(m.to_dict(), **{
            key: [[z.real, z.imag] for z in arr] for key, arr in (("c", m.c), ("lambda", m.lam))
        })
        assert json.dumps(m.to_dict(), sort_keys=True) == json.dumps(per_element, sort_keys=True)

    def test_bad_schema_version(self):
        with pytest.raises(ConfigurationError):
            RecurrenceCoeffs.from_dict({"v": 2, "c": [], "lambda": [], "s0": [1, 0]})


def test_family_support():
    fam = Family("chebyshev1")
    assert fam.support == (-1.0, 1.0)
    with pytest.raises(ConfigurationError):
        Family("hermite")


# ---------------------------------------------------------------------------
# the read-only result records (core.Record)
# ---------------------------------------------------------------------------

_M = RecurrenceCoeffs(c=[0.1, 0.2, 0.3], lam=[0.25, 0.5])

# record: (field names in order, sample values for a leading run of them,
# the class-level defaults)
RECORDS = {
    Family: (("kind", "support"), ("chebyshev2",), {"support": (-1.0, 1.0)}),
    RecurrenceCoeffs: (
        ("c", "lam", "s0", "family"), ([0.1, 0.2], [0.5]), {"s0": 1 + 0j, "family": None}
    ),
    SymmetricJacobi: (("b", "a"), ([0.0, 0.1], [0.5j]), {}),
    TransformPoint: (
        ("kappa", "s0star", "allow_real"), (0.3 + 0.5j,), {"s0star": None, "allow_real": False}
    ),
    TransformedCoeffs: (
        ("base", "sites", "kinds", "coeffs", "ratio_seq", "notes"),
        (_M, (TransformPoint(1j),), ("christoffel",), _M),
        {"ratio_seq": None, "notes": ()},
    ),
    LowerFactor: (
        ("kappa", "d", "v", "sqrt_d"),
        (0.5j, np.array([1.0, 2.0]), np.array([0.5]), np.array([1.0, 1.5])),
        {},
    ),
    UpperFactor: (
        ("kappa", "s0star", "t", "u", "sqrt_t"),
        (0.5j, -1j, np.array([1.0, 2.0]), np.array([0.5, 0.25]), np.array([1.0, 1.5])),
        {},
    ),
    RatioSequence: (("z", "which", "start", "values"), (0.5j, "P", 1, [1.0, 2.0j]), {}),
    VaryingMeasureResult: (
        ("kappas", "coeffs", "step_prefixes", "rii", "rii_residuals"),
        ((1j,), _M, (_M, _M), np.array([[1.5 + 0j, 2j, 0.5 + 0j]]), (1e-15,)),
        {},
    ),
    ZeroCloud: (
        ("n", "zeros", "max_im", "strip_bound"),
        (2, [0.1 + 0.2j, -0.1 + 0.2j], 0.2),
        {"strip_bound": None},
    ),
    StripReport: (("ok", "side", "bound", "violators"), (True, "upper", 1.5, ()), {}),
    NevaiDiagnostics: (
        ("a_limit", "c_limit", "tail_residuals", "is_member"),
        (0.25 + 0j, 0j, np.array([1e-3, 1e-4]), True),
        {},
    ),
    MIdentityReport: (
        ("kappa", "order", "christoffel_residuals", "geronimus_residuals", "max_residual"),
        (1j, 3, np.array([1e-16]), None, 1e-16),
        {},
    ),
    DynamicsReport: (
        ("kind", "kappa", "n_list", "max_im", "cluster_dist", "log_cluster_dist", "fit_slope",
         "fit_r2", "strictly_decreasing", "diagnostics"),
        ("christoffel", 1j, (5, 10), np.array([0.1, 0.05])),
        dict.fromkeys(("cluster_dist", "log_cluster_dist", "fit_slope", "fit_r2",
                       "strictly_decreasing", "diagnostics")),
    ),
    RatioAsymptoticReport: (
        ("n_check", "z_list", "f_values", "errors", "monotone_tail"),
        (100, (2j,), (1 + 2j,), np.array([1e-14]), (True,)),
        {},
    ),
}


def _same(x, y) -> bool:
    """Field-by-field equality: arrays by value, records of any eq by their fields."""
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    if type(x) in RECORDS:
        fields = RECORDS[type(x)][0]
        return type(y) is type(x) and all(_same(getattr(x, f), getattr(y, f)) for f in fields)
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    return x == y


def _sample(cls):
    return cls(*RECORDS[cls][1])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_signature_lists_the_fields_and_their_defaults(self, cls):
        fields, _, defaults = RECORDS[cls]
        params = inspect.signature(cls).parameters
        assert tuple(params) == fields
        assert {n: p.default for n, p in params.items() if p.default is not p.empty} == defaults
        for name, default in defaults.items():  # class-level, as written in the class body
            assert _same(getattr(cls, name), default)

    def test_positional_and_keyword_construction_agree(self, cls):
        fields, values, defaults = RECORDS[cls]
        by_position = cls(*values)
        by_keyword = cls(**dict(reversed(list(zip(fields, values)))))
        for name, value in zip(fields, values):
            assert _same(getattr(by_position, name), value)
        for name in fields:
            assert _same(getattr(by_position, name), getattr(by_keyword, name))
        for name in fields[len(values):]:
            assert _same(getattr(by_position, name), defaults[name])

    def test_fields_are_read_only(self, cls):
        record = _sample(cls)
        for name in RECORDS[cls][0] + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_repr_names_the_fields_in_order(self, cls):
        record = _sample(cls)
        fields = ", ".join(f"{n}={getattr(record, n)!r}" for n in RECORDS[cls][0])
        assert repr(record) == f"{cls.__name__}({fields})"

    def test_replace_returns_a_revalidated_read_only_copy(self, cls):
        record = _sample(cls)
        name = RECORDS[cls][0][-1]
        copied = replace(record)
        assert type(copied) is cls and copied is not record and _same(copied, record)
        changed = replace(record, **{name: getattr(record, name)})
        assert _same(changed, record)
        with pytest.raises(AttributeError):
            setattr(changed, name, None)
        with pytest.raises(TypeError):
            replace(record, not_a_field=1)

    def test_pickle_and_copy_round_trip(self, cls):
        record = _sample(cls)
        for other in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert type(other) is cls and _same(other, record)
            with pytest.raises(AttributeError):
                setattr(other, RECORDS[cls][0][0], None)


def test_record_repr_reads_like_the_class_statement():
    assert repr(Family("chebyshev1")) == "Family(kind='chebyshev1', support=(-1.0, 1.0))"
    assert repr(TransformPoint(1j)) == "TransformPoint(kappa=1j, s0star=None, allow_real=False)"


@pytest.mark.parametrize(
    "make, other",
    [
        (lambda: Family("chebyshev1"), Family("chebyshev1", None)),
        (lambda: TransformPoint(0.3 + 1j, 2j), TransformPoint(0.3 + 1j, -2j)),
    ],
)
def test_value_records_compare_and_hash_by_their_fields(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("make", [lambda: _M.truncated(3), lambda: symmetrize(_M)])
def test_prefix_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b and hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize(
    "make, exc, match",
    [
        (lambda: RecurrenceCoeffs([0.1, 0.2], [0.5, 0.5]), ConfigurationError,
         r"inconsistent prefix lengths: len\(c\)=2, len\(lam\)=2"),
        (lambda: RecurrenceCoeffs([0.1, 0.2], [0.0]), QuasiDefinitenessError, "lambda_2 = 0"),
        (lambda: Family("hermite"), ConfigurationError, "unknown family kind 'hermite'"),
        (lambda: SymmetricJacobi([0.0], [0.5]), ConfigurationError, "one entry shorter"),
        (lambda: TransformPoint(0.5), ConfigurationError, "is real"),
        (lambda: ZeroCloud(3, [0.1j], 0.1), ConfigurationError, "zero count"),
        (lambda: replace(_M, lam=[0.25]), ConfigurationError, "inconsistent prefix lengths"),
        (lambda: replace(TransformPoint(1j), kappa=0.5), ConfigurationError, "is real"),
    ],
)
def test_post_init_errors_are_raised_on_construction_and_replace(make, exc, match):
    with pytest.raises(exc, match=match):
        make()


def test_replace_and_truncated_return_read_only_revalidated_copies():
    m = replace(_M, c=[1.0, 2.0, 3.0], s0=2)
    assert m.c.dtype == complex and not m.c.flags.writeable and m.s0 == 2 + 0j
    assert np.array_equal(m.lam, _M.lam)
    t = _M.truncated(2)
    assert type(t) is RecurrenceCoeffs and t.c.tolist() == [0.1, 0.2] and not t.lam.flags.writeable
    cloud = replace(_sample(ZeroCloud), strip_bound=0.5)
    assert cloud.strip_bound == 0.5 and not cloud.zeros.flags.writeable
    with pytest.raises(AttributeError):
        cloud.strip_bound = 1.0
