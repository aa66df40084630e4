"""Exact action of the similarity-transformed Hamiltonian on polynomials,
and its finite matrix on the invariant subspace.

For the x-based families

    H~ psi = V(x) (psi(x-i) - psi(x)) + V*(x) (psi(x+i) - psi(x))
             + alpha_M(x) psi(x),

evaluated entirely by exact shift/convolution algebra.  The centrifugal
families carry the kinematic denominators 2ix(2ix+1) and its conjugate;
the two shift terms are put over the common denominator first and the
division performed exactly (the poles cancel between the terms for any
even polynomial, so a non-trivial remainder means the input was not
admissible).  The trigonometric family works in z = e^{ix}: shifts become
z -> qz and z -> z/q on Laurent polynomials, the denominator is
(1-z^2)(1-qz^2) times its z -> 1/z image, and results are re-expressed in
powers of eta = (z+1/z)/2 through the Chebyshev change of basis.

Matrix assembly is by exact polynomial algebra, never numerical sampling:
the subspace-invariance check is then a true bug detector rather than a
conditioning artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InversionAsymmetry, SubspaceLeak, UnsupportedFamily
from .models import (
    Coordinate,
    ModelSpec,
    Sector,
    compensation_coefficient,
    numerator_constants,
    sector_dimension,
    v_phase,
)
from .numerics import (
    LaurentC,
    PolynomialC,
    eta_power_as_laurent,
    laurent_divide_exact,
    laurent_mul,
    laurent_one,
    laurent_scale_arg,
    poly_divide_exact,
    poly_monomial,
    poly_mul,
    poly_shift,
    symmetric_laurent_to_eta,
)

DIVIDE_TOL = 1e-9
LEAK_TOL = 1e-10


def v_numerator_poly(spec: ModelSpec) -> PolynomialC:
    """Numerator of V as a polynomial in x (phase included)."""
    out = PolynomialC((v_phase(spec),), "x")
    for p in numerator_constants(spec):
        out = poly_mul(out, PolynomialC((p, 1j), "x"))
    return out


def v_star_numerator_poly(spec: ModelSpec) -> PolynomialC:
    out = PolynomialC((v_phase(spec).conjugate(),), "x")
    for p in numerator_constants(spec):
        out = poly_mul(out, PolynomialC((p.conjugate(), -1j), "x"))
    return out


# kinematic denominators 2ix(2ix+1) = 2ix - 4x^2 and its analytic conjugate
_DEN = PolynomialC((0, 2j, -4), "x")
_DEN_STAR = PolynomialC((0, -2j, -4), "x")


def apply_htilde(spec: ModelSpec, psi: PolynomialC) -> PolynomialC:
    """H~ acting on a polynomial in x (not available for trig-q; see
    :func:`apply_htilde_z`)."""
    if spec.info.coordinate is Coordinate.COS:
        raise UnsupportedFamily("use apply_htilde_z for the trigonometric family")
    if psi.var != "x":
        raise ValueError("psi must be a polynomial in x")
    dm = poly_shift(psi, -1j) - psi
    dp = poly_shift(psi, +1j) - psi
    num = v_numerator_poly(spec)
    num_star = v_star_numerator_poly(spec)
    if spec.info.kinematic_denominator:
        total = poly_mul(poly_mul(num, dm), _DEN_STAR) + poly_mul(
            poly_mul(num_star, dp), _DEN
        )
        shift_part = poly_divide_exact(total, poly_mul(_DEN, _DEN_STAR), DIVIDE_TOL)
    else:
        shift_part = poly_mul(num, dm) + poly_mul(num_star, dp)
    alpha_poly = _alpha_times(spec, psi)
    return shift_part + alpha_poly


def _alpha_times(spec: ModelSpec, psi: PolynomialC) -> PolynomialC:
    coef = compensation_coefficient(spec)
    if coef == 0:
        return PolynomialC((), "x")
    if spec.info.coordinate is Coordinate.X:
        eta_poly = PolynomialC((0, 1), "x")
    else:
        eta_poly = PolynomialC((0, 0, 1), "x")
    return poly_mul(psi, eta_poly).scale(coef)


def _z_numerator(spec: ModelSpec) -> LaurentC:
    out = laurent_one()
    for p in numerator_constants(spec):
        out = laurent_mul(out, LaurentC(0, (1.0, -p)))
    return out


def _z_numerator_star(spec: ModelSpec) -> LaurentC:
    out = laurent_one()
    for p in numerator_constants(spec):
        out = laurent_mul(out, LaurentC(-1, (-p.conjugate(), 1.0)))
    return out


def _z_denominators(spec: ModelSpec) -> tuple[LaurentC, LaurentC]:
    q = spec.real_param("q")
    den = laurent_mul(LaurentC(0, (1.0, 0.0, -1.0)), LaurentC(0, (1.0, 0.0, -q)))
    den_star = laurent_mul(LaurentC(-2, (-1.0, 0.0, 1.0)), LaurentC(-2, (-q, 0.0, 1.0)))
    return den, den_star


def apply_htilde_z(spec: ModelSpec, f: LaurentC) -> LaurentC:
    """H~ acting on a z-inversion-symmetric Laurent polynomial (trig-q)."""
    if spec.info.coordinate is not Coordinate.COS:
        raise UnsupportedFamily("apply_htilde_z is defined for trig-q only")
    q = spec.real_param("q")
    dm = laurent_scale_arg(f, q) - f
    dp = laurent_scale_arg(f, 1.0 / q) - f
    num = _z_numerator(spec)
    num_star = _z_numerator_star(spec)
    den, den_star = _z_denominators(spec)
    total = laurent_mul(laurent_mul(num, dm), den_star) + laurent_mul(
        laurent_mul(num_star, dp), den
    )
    shift_part = laurent_divide_exact(total, laurent_mul(den, den_star), DIVIDE_TOL)
    coef = compensation_coefficient(spec)
    if coef != 0:
        eta_l = LaurentC(-1, (0.5, 0.0, 0.5))
        shift_part = shift_part + laurent_mul(f, eta_l).scale(coef)
    return shift_part


@dataclass(frozen=True)
class OperatorMatrix:
    """H~ restricted to the invariant subspace, in the monomial eta-basis.

    Column k holds the eta-coordinates of H~ applied to basis_k, where
    basis_k = eta^k (times a prefactor x in the odd sextic sector).
    """

    spec: ModelSpec
    dim: int
    matrix: np.ndarray


def basis_polynomial(spec: ModelSpec, k: int) -> PolynomialC | LaurentC:
    """basis_k in the computational variable (x-polynomial or Laurent)."""
    coordinate = spec.info.coordinate
    if coordinate is Coordinate.COS:
        return eta_power_as_laurent(k)
    if coordinate is Coordinate.X:
        return poly_monomial(k, "x")
    if spec.sector is Sector.ODD:
        return poly_monomial(2 * k + 1, "x")
    return poly_monomial(2 * k, "x")


def _eta_coordinates(spec: ModelSpec, out, dim: int) -> tuple[np.ndarray, float]:
    """Project the image of a basis vector onto the eta-basis; returns the
    coordinate column and the largest out-of-subspace coefficient."""
    col = np.zeros(dim, dtype=complex)
    overflow = 0.0
    coordinate = spec.info.coordinate
    if coordinate is Coordinate.COS:
        eta_coeffs = symmetric_laurent_to_eta(out)
        for j, c in enumerate(eta_coeffs):
            if j < dim:
                col[j] = c
            else:
                overflow = max(overflow, abs(c))
        return col, overflow
    coeffs = out.coeffs
    if coordinate is Coordinate.X:
        for j, c in enumerate(coeffs):
            if j < dim:
                col[j] = c
            else:
                overflow = max(overflow, abs(c))
        return col, overflow
    offset = 1 if spec.sector is Sector.ODD else 0
    for n, c in enumerate(coeffs):
        if (n - offset) % 2 == 0 and 0 <= (j := (n - offset) // 2) < dim:
            col[j] = c
        else:
            overflow = max(overflow, abs(c))
    return col, overflow


def build_matrix(spec: ModelSpec, leak_tol: float = LEAK_TOL) -> OperatorMatrix:
    """Assemble the matrix of H~ on the invariant subspace, verifying that
    no column leaks outside it."""
    dim = sector_dimension(spec)
    matrix = np.zeros((dim, dim), dtype=complex)
    apply = apply_htilde_z if spec.info.coordinate is Coordinate.COS else apply_htilde
    for k in range(dim):
        psi = basis_polynomial(spec, k)
        out = apply(spec, psi)
        try:
            col, overflow = _eta_coordinates(spec, out, dim)
        except InversionAsymmetry as exc:
            raise InversionAsymmetry(
                f"column {k} of {spec.family.value} (M={spec.M}, "
                f"q={spec.real_param('q')!r}): {exc}"
            ) from exc
        scale = max(float(np.max(np.abs(col))), out.inf_norm(), 1e-300)
        if overflow > leak_tol * scale:
            raise SubspaceLeak(
                f"column {k} of {spec.family.value} (M={spec.M}) leaks "
                f"{overflow:.3e} > {leak_tol:.1e} * {scale:.3e}"
            )
        matrix[:, k] = col
    return OperatorMatrix(spec, dim, matrix)


def matrix_dump_dict(om: OperatorMatrix) -> dict:
    """Row-major [re, im] dump used by the CLI golden-file regression."""
    entries = [
        [float(om.matrix[i, j].real), float(om.matrix[i, j].imag)]
        for i in range(om.dim)
        for j in range(om.dim)
    ]
    return {"dim": om.dim, "entries": entries}
