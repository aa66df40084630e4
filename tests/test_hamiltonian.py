import math
import re

import numpy as np
import pytest

from qesbethe.errors import (
    InexactDivision,
    InversionAsymmetry,
    QesError,
    SubspaceLeak,
    UnsupportedFamily,
)
from qesbethe import hamiltonian
from qesbethe.hamiltonian import (
    LEAK_TOL,
    apply_htilde,
    apply_htilde_z,
    basis_rows,
    build_matrix,
    matrix_dump_dict,
)
from qesbethe.models import model_spec, sector_dimension
from qesbethe.numerics import PolynomialC

import reference_algebra
from conftest import ALL_FAMILIES, draw_params, spec_for
from reference_algebra import poly_monomial

# small q: the Laurent image of column 4 loses its z -> 1/z symmetry
SMALL_Q = {
    "a": -0.9398719807268364, "b": -0.3818273713280253, "c": -0.5078527658045231,
    "d": 0.34278857787486716, "e": -0.25879689678089307, "q": 0.027745383598455645,
}


class TestApply:
    def test_constant_maps_to_compensation(self):
        spec = model_spec("mp-crossed", M=3, a1=1, a2=1, beta=0.7)
        out = apply_htilde(spec, PolynomialC((1,), "x"))
        np.testing.assert_allclose(
            out.coeffs, [0, -2 * 3 * math.sin(0.7)], atol=1e-14
        )

    def test_hand_worked_linear_state(self):
        # a1 = a2 = 1, beta = pi/2, M = 1: H~ x = -2 exactly
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        out = apply_htilde(spec, poly_monomial(1, "x"))
        assert abs(out(0.0) + 2.0) < 1e-14
        assert out.degree <= 1
        if out.degree == 1:
            assert abs(out.coeffs[1]) < 1e-14

    def test_out_of_sector_leaks_with_known_coefficient(self):
        # applying to x^(M+1) leaves the subspace: the top of the image sits
        # two degrees higher with coefficient 2(M - n) = -2
        spec = model_spec("sextic-i", M=4, sector="even", a=1.0, b=2.0, c=0.7)
        out = apply_htilde(spec, poly_monomial(5, "x"))
        assert out.degree == 7
        np.testing.assert_allclose(out.coeffs[-1], -2.0, atol=1e-12)

    def test_trig_requires_z_form(self):
        spec = model_spec("trig-q", M=1, a=0.1, b=0, c=0, d=0, e=0, q=0.5)
        with pytest.raises(UnsupportedFamily):
            apply_htilde(spec, poly_monomial(1, "x"))

    def test_centrifugal_odd_input_fails_division(self):
        spec = model_spec("centrifugal-i", M=2, b=1.2, c=0.7, d=2.2, e=0.9, f=1.6)
        with pytest.raises(InexactDivision):
            apply_htilde(spec, poly_monomial(3, "x"))


class TestBuildMatrix:
    def test_m_zero_is_null(self):
        spec = model_spec("mp-crossed", M=0, a1=1, a2=1, beta=0.9)
        om = build_matrix(spec)
        assert om.dim == 1
        np.testing.assert_allclose(om.matrix, [[0.0]], atol=1e-14)

    def test_hand_worked_two_by_two(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        om = build_matrix(spec)
        np.testing.assert_allclose(om.matrix, [[0, -2], [-2, 0]], atol=1e-14)

    def test_trig_exactly_solvable_diagonal(self):
        spec = model_spec("trig-q", M=2, a=0, b=0, c=0, d=0, e=0, q=0.5)
        om = build_matrix(spec)
        np.testing.assert_allclose(np.diag(om.matrix), [0, 1, 3], atol=1e-13)
        assert abs(om.matrix[1, 0]) < 1e-13 and abs(om.matrix[2, 0]) < 1e-13

    def test_invariance_sweep_never_leaks(self, rng):
        for family in ALL_FAMILIES:
            for M in (0, 1, 2, 3, 5, 8, 12):
                spec = spec_for(family, M, rng)
                build_matrix(spec)  # SubspaceLeak would raise

    def test_parity_block_structure(self, rng):
        # on the full monomial span the matrix splits into even/odd blocks
        for family in ("sextic-i", "sextic-ii"):
            spec = model_spec(
                family,
                M=6,
                sector="even",
                **draw_params(family, rng),
            )
            scale = 0.0
            off = 0.0
            for n in range(7):
                out = apply_htilde(spec, poly_monomial(n, "x"))
                for k, c in enumerate(out.coeffs):
                    scale = max(scale, abs(c))
                    if (k - n) % 2 == 1:
                        off = max(off, abs(c))
            assert off <= 1e-12 * scale

    def test_exactly_solvable_degenerations_are_triangular(self):
        spec = model_spec("mp-crossed", M=5, a1=1.2 + 0.1j, a2=0.8 - 0.3j, beta=0.0)
        mat = build_matrix(spec).matrix
        scale = np.max(np.abs(mat))
        low = max(abs(mat[i, j]) for i in range(6) for j in range(i))
        assert low <= 1e-10 * scale
        spec = model_spec("trig-q", M=5, a=0.0, b=0.3, c=-0.2, d=0.5, e=0.25, q=0.5)
        mat = build_matrix(spec).matrix
        low = max(abs(mat[i, j]) for i in range(6) for j in range(i))
        assert low <= 1e-10 * max(1.0, np.max(np.abs(mat)))

    def test_formal_limit_matrix_identity(self):
        # 4 x (centrifugal type II at e=0, f=1/2, degree M) equals the
        # sextic type II matrix at degree 2M on the even sector
        a, b, c, d = 1.1, 0.6, 2.0, 0.9
        for M in (1, 2, 4):
            cent = model_spec(
                "centrifugal-ii", M=M, a=a, b=b, c=c, d=d, e=0.0, f=0.5, validate=False
            )
            sext = model_spec("sextic-ii", M=2 * M, sector="even", a=a, b=b, c=c, d=d)
            lhs = 4.0 * build_matrix(cent).matrix
            rhs = build_matrix(sext).matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-9 * np.max(np.abs(rhs))

    def test_odd_sector_basis_carries_prefactor(self):
        spec = model_spec("sextic-i", M=5, sector="odd", a=1, b=1, c=1)
        rows, lo = basis_rows(spec, 3)
        assert lo == 0
        np.testing.assert_array_equal(rows[2], [0, 0, 0, 0, 0, 1])

    def test_trig_asymmetric_image_raises_typed_error(self):
        # small q: the Laurent image of column 4 loses its z -> 1/z symmetry
        with pytest.raises(InversionAsymmetry) as exc:
            build_matrix(model_spec("trig-q", M=4, **SMALL_Q))
        assert isinstance(exc.value, QesError) and isinstance(exc.value, ValueError)
        message = str(exc.value)
        assert "trig-q" in message and "M=4" in message
        assert "q=0.027745383598455645" in message and "z -> 1/z" in message


_NUMBER = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")


def assert_same_message(got: Exception, want: Exception) -> None:
    """Same type and wording; the %.3e figures agree to their printed digits."""
    assert type(got) is type(want)
    assert _NUMBER.sub("#", str(got)) == _NUMBER.sub("#", str(want))
    np.testing.assert_allclose(
        [float(v) for v in _NUMBER.findall(str(got))],
        [float(v) for v in _NUMBER.findall(str(want))],
        rtol=1e-2,
    )


def raised(call, *args) -> Exception:
    with pytest.raises(QesError) as exc:
        call(*args)
    return exc.value


class TestAgainstPerColumnReference:
    """The batched build against the per-column PolynomialC/Laurent algebra
    of ``reference_algebra``."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_matrix_matches_reference(self, family, rng):
        # 1e-12 * max|entry|.  For trig-q the change to eta sums the
        # coefficients of T_k, whose absolute sum is |T_M(i)| at k = M, so
        # rounding in the Laurent image (a few ulp, in a different order on
        # each side) grows by up to that factor; both sides are only that
        # accurate (about 1e-11 at M = 10 against a 60-digit evaluation).
        # trig-q stops at M = 10: from M = 11 both sides fail their own
        # leak, symmetry or division checks on several percent of the
        # draws, not always on the same draws.
        trig = family == "trig-q"
        for M in (0, 1, 2, 5, 8, 10) if trig else (0, 1, 2, 5, 10, 16, 24, 32):
            growth = abs(np.polynomial.chebyshev.Chebyshev.basis(M)(1j)) if trig else 1.0
            for _ in range(3):
                spec = spec_for(family, M, rng)
                want = reference_algebra.build_matrix(spec)
                got = build_matrix(spec).matrix
                assert got.shape == want.shape
                tol = 1e-12 * growth * np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= tol, (family, M, spec.sector)

    def test_one_column_calls_match_reference(self, rng):
        for family in ALL_FAMILIES:
            spec = spec_for(family, 6, rng)
            for k in range(4):
                psi = reference_algebra.basis_polynomial(spec, k)
                if family == "trig-q":
                    got, want = apply_htilde_z(spec, psi), reference_algebra.apply_htilde_z(spec, psi)
                    span = range(min(got.lo, want.lo), max(got.hi, want.hi) + 1)
                    diff = max(abs(got.coeff(e) - want.coeff(e)) for e in span)
                else:
                    got, want = apply_htilde(spec, psi), reference_algebra.apply_htilde(spec, psi)
                    assert got.degree == want.degree
                    diff = float(np.max(np.abs(np.subtract(got.coeffs, want.coeffs))))
                assert diff <= 1e-12 * want.inf_norm()

    def test_inexact_division_names_first_odd_column(self):
        spec = model_spec("centrifugal-i", M=2, b=1.2, c=0.7, d=2.2, e=0.9, f=1.6)
        degrees = (0, 2, 3, 4, 5)  # x^3 is the first column the division rejects
        columns = [poly_monomial(n, "x") for n in degrees]
        for k, psi in enumerate(columns):
            if k in (2, 4):
                assert_same_message(
                    raised(apply_htilde, spec, psi),
                    raised(reference_algebra.apply_htilde, spec, psi),
                )
        rows = np.eye(6)[list(degrees)]
        _, _, inexact = hamiltonian._images(spec, rows, 0)
        assert sorted(inexact) == [2, 4]
        assert_same_message(
            raised(hamiltonian._subspace_matrix, spec, rows, 0, 3, LEAK_TOL),
            raised(reference_algebra.subspace_matrix, spec, columns, 3),
        )

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_leak_names_out_of_sector_column(self, family, rng):
        spec = spec_for(family, 4, rng)
        dim = sector_dimension(spec)
        rows, lo = basis_rows(spec, dim + 1)  # the last one lies outside the sector
        columns = [reference_algebra.basis_polynomial(spec, k) for k in range(dim + 1)]
        got = raised(hamiltonian._subspace_matrix, spec, rows, lo, dim, LEAK_TOL)
        want = raised(reference_algebra.subspace_matrix, spec, columns, dim)
        assert isinstance(got, SubspaceLeak)
        assert str(got).startswith(f"column {dim} of {family} (M=4) leaks")
        assert_same_message(got, want)

    def test_inversion_asymmetry_names_same_column(self):
        spec = model_spec("trig-q", M=4, **SMALL_Q)
        got = raised(build_matrix, spec)
        want = raised(reference_algebra.build_matrix, spec)
        assert isinstance(got, InversionAsymmetry) and isinstance(want, InversionAsymmetry)
        head = re.compile(r"^(column \d+ of .*?): .*\|k\|=(\d+):")
        assert head.match(str(got)).groups() == head.match(str(want)).groups()


class TestDump:
    def test_row_major_pairs(self):
        spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
        doc = matrix_dump_dict(build_matrix(spec))
        assert doc["dim"] == 2
        assert len(doc["entries"]) == 4
        np.testing.assert_allclose(doc["entries"][1], [-2.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(doc["entries"][2], [-2.0, 0.0], atol=1e-14)
