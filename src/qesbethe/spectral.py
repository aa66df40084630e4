"""Brute-force spectral oracle: diagonalize the subspace matrix, rebuild
monic eigen-polynomials in eta, and extract candidate Bethe roots.

Eigenpairs are sorted by (Re, Im) of the eigenvalue; that order is the
canonical one everywhere downstream, including JSON output.  Root
representatives are fixed once and for all: for the x^2-based families the
sign gauge is resolved to Re x > 0 (or Re x = 0, Im x >= 0), and for the
trigonometric family to |z| <= 1 with ties broken by Im z >= 0.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .models import (
    Coordinate,
    ModelSpec,
    Sector,
    bethe_root_count,
    compensation_vanishes,
)
from .hamiltonian import OperatorMatrix
from .numerics import PolynomialC, eig_general, poly_roots

DEGENERATE_EIG_TOL = 1e-8
DEGENERATE_ROOT_TOL = 1e-8
TRIM_TOL = 1e-10
NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class OracleEigenpair:
    """One eigenpair of the subspace matrix.

    ``eigenpoly`` is monic in eta; its degree equals the Bethe root count
    except at exactly solvable parameter points, where eigenfunctions of
    lower degree appear (the missing roots having escaped to infinity).
    ``truncated`` marks a deformed-model state whose top coefficients fell
    below the double-precision noise floor (far-out roots spanning too many
    orders of magnitude); the representable part is kept and the caller is
    expected to complete the root set.  ``prefactor_parity`` marks the odd
    sextic sector, whose eigenfunctions carry an overall factor x.
    """

    eigenvalue: complex
    eigenpoly: PolynomialC
    prefactor_parity: bool = False
    degenerate: bool = False
    truncated: bool = False


@dataclass(frozen=True)
class RootSet:
    """Bethe root multiset in every useful coordinate.

    roots_eta are the zeros of the eigen-polynomial; roots_x the canonical
    representatives with eta(x_l) = eta_l; roots_z (trig-q only) the z
    representatives with |z| <= 1.
    """

    roots_x: tuple[complex, ...]
    roots_eta: tuple[complex, ...]
    roots_z: tuple[complex, ...] | None = None
    degenerate: bool = False

    def __len__(self) -> int:
        return len(self.roots_eta)


def oracle_spectrum(om: OperatorMatrix) -> list[OracleEigenpair]:
    """All eigenpairs of the operator matrix, sorted by (Re, Im) and
    converted to monic eta-polynomials.

    For a deformed model every eigenfunction has full degree dim-1, so the
    eigenvector's top component is kept however small it is (a weak
    deformation legitimately produces a tiny leading coefficient together
    with far-out roots).  At exactly solvable parameter points the spectrum
    is graded instead; there the components above each state's true degree
    are pure rounding noise and get trimmed.
    """
    decomp = eig_general(om.matrix)
    order = sorted(
        range(om.dim), key=lambda k: (decomp.eigenvalues[k].real, decomp.eigenvalues[k].imag)
    )
    values = [decomp.eigenvalues[k] for k in order]
    scale = max(1.0, max(abs(v) for v in values))
    flags = [False] * om.dim
    for i in range(om.dim - 1):
        if abs(values[i + 1] - values[i]) < DEGENERATE_EIG_TOL * scale:
            flags[i] = flags[i + 1] = True
    odd = om.spec.sector is Sector.ODD
    graded = compensation_vanishes(om.spec)
    ladder_family = om.spec.info.coordinate is Coordinate.COS
    diag = np.diag(om.matrix)
    pairs = []
    for rank, k in enumerate(order):
        vec = decomp.eigenvectors[k]
        poly = PolynomialC(tuple(vec), "eta")
        truncated = False
        if graded:
            # the matrix is graded triangular: the eigenvalue sits on the
            # diagonal and its index is the state's polynomial degree, so
            # everything above that index is rounding noise
            m = int(np.argmin(np.abs(diag - decomp.eigenvalues[k])))
            poly = PolynomialC(poly.coeffs[: m + 1], "eta")
            if abs(poly.coeffs[-1]) == 0:
                poly = poly.trimmed(TRIM_TOL)
        elif ladder_family and abs(poly.coeffs[-1]) < NOISE_FLOOR * poly.inf_norm():
            # geometric root ladders push true top coefficients below the
            # double-precision noise floor; keep the representable part
            truncated = True
            poly = poly.trimmed(NOISE_FLOOR)
        elif poly.coeffs[-1] == 0:
            truncated = True
            poly = poly.trimmed(0.0)
        top = poly.coeffs[-1]
        poly = poly.scale(1.0 / top)
        # exact monic top coefficient
        poly = PolynomialC(poly.coeffs[:-1] + (1.0 + 0j,), "eta")
        pairs.append(
            OracleEigenpair(
                eigenvalue=values[rank],
                eigenpoly=poly,
                prefactor_parity=odd,
                degenerate=flags[rank],
                truncated=truncated,
            )
        )
    return pairs


def canonical_x_from_eta(spec: ModelSpec, eta_l: complex) -> complex:
    """Representative x with eta(x) = eta_l, resolving the gauge freedom."""
    coordinate = spec.info.coordinate
    if coordinate is Coordinate.X:
        return eta_l
    if coordinate is Coordinate.COS:
        z = canonical_z_from_eta(eta_l)
        return -1j * cmath.log(z)
    x = cmath.sqrt(eta_l)
    if x.real < 0 or (x.real == 0 and x.imag < 0):
        x = -x
    return x


def canonical_z_from_eta(eta_l: complex) -> complex:
    """Solve z + 1/z = 2 eta for the representative with |z| <= 1."""
    # stable branch: form the larger root first, invert for the smaller
    s = cmath.sqrt(eta_l - 1.0) * cmath.sqrt(eta_l + 1.0)
    big = eta_l + s if abs(eta_l + s) >= abs(eta_l - s) else eta_l - s
    if abs(big) < 1e-300:
        raise ValueError("degenerate eta: no z representative")
    z = 1.0 / big
    if abs(abs(z) - 1.0) < 1e-12 and z.imag < 0:
        z = z.conjugate()  # tie on the unit circle: prefer Im z >= 0
    return z


def roots_of_eta_poly(spec: ModelSpec, poly: PolynomialC) -> RootSet:
    """Root set of a monic eta-polynomial, sorted by (Re, Im) of eta, with
    canonical representatives in every coordinate and the close-pair
    flag."""
    eta_roots = []
    if poly.degree >= 1:
        eta_roots = poly_roots(poly)
        eta_roots.sort(key=lambda r: (r.real, r.imag))
    xs = tuple(canonical_x_from_eta(spec, r) for r in eta_roots)
    zs = None
    if spec.info.coordinate is Coordinate.COS:
        zs = tuple(canonical_z_from_eta(r) for r in eta_roots)
    degenerate = False
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            scale = max(abs(xs[i]), abs(xs[j]), 1e-300)
            if abs(xs[i] - xs[j]) < DEGENERATE_ROOT_TOL * max(1.0, scale):
                degenerate = True
    return RootSet(xs, tuple(eta_roots), zs, degenerate)


def extract_roots(
    pair: OracleEigenpair,
    spec: ModelSpec,
    expected: int | None = None,
) -> RootSet:
    """Roots of the eigen-polynomial with canonical representatives.

    ``expected`` defaults to the sector's Bethe root count; pass the actual
    eigen-polynomial degree when working with exactly solvable restrictions.
    """
    if expected is None:
        expected = bethe_root_count(spec)
    if pair.eigenpoly.degree != expected:
        raise ValueError(
            f"eigenpolynomial degree {pair.eigenpoly.degree} != expected root "
            f"count {expected}"
        )
    return roots_of_eta_poly(spec, pair.eigenpoly)
