import json
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
    symmetrize,
)
from darbouxjac.darboux import TransformPoint, christoffel, geronimus
from darbouxjac.errors import ConfigurationError, PrefixError, QuasiDefinitenessError


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
        assert np.all(J.sqrt_branch == 1)

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

    def test_symmetric_roundtrip(self, cheb1):
        J = symmetrize(cheb1.truncated(6))
        back = SymmetricJacobi.from_dict(J.to_dict())
        assert np.all(back.b == J.b)
        assert np.all(back.a == J.a)
        assert np.all(back.sqrt_branch == J.sqrt_branch)

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
        J = symmetrize(m)
        for obj, arrays in ((m, {"c": m.c, "lambda": m.lam}), (J, {"b": J.b, "a": J.a})):
            per_element = dict(obj.to_dict(), **{
                key: [[z.real, z.imag] for z in arr] for key, arr in arrays.items()
            })
            assert json.dumps(obj.to_dict(), sort_keys=True) == json.dumps(
                per_element, sort_keys=True
            )

    def test_bad_schema_version(self):
        with pytest.raises(ConfigurationError):
            RecurrenceCoeffs.from_dict({"v": 2, "c": [], "lambda": [], "s0": [1, 0]})


def test_family_support():
    fam = Family("chebyshev1")
    assert fam.support == (-1.0, 1.0)
    with pytest.raises(ConfigurationError):
        Family("hermite")
