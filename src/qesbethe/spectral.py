"""Brute-force spectral oracle: diagonalize the subspace matrix, rebuild
monic eigen-polynomials in eta, and extract candidate Bethe roots.

Eigenpairs are sorted by (Re, Im) of the eigenvalue; that order is the
canonical one everywhere downstream, including JSON output.

Every root set is built by ``root_set`` from the sector's Newton variable
(``models.native_variable``), whether it comes from an eigenpolynomial, a
Newton polish, a trigonometric ladder completion or a continuation leg.
It fixes the representatives once and for all: for the x^2-based families
the sign gauge is resolved to Re x > 0 (or Re x = 0, Im x >= 0), and for
the trigonometric family to |z| <= 1 with ties on the unit circle broken by
Im z >= 0, and x = -i log z to Re x in (-pi, pi] with ties on the negative
real z axis broken by Re x = +pi; the roots are sorted by (Re, Im) of eta.

Eigenpolynomials, like every polynomial in the package, are arrays of
ascending complex coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import (
    Coordinate,
    ModelSpec,
    bethe_root_count,
    compensation_vanishes,
    native_variable,
)
from .hamiltonian import OperatorMatrix
from .numerics import eig_general, poly_roots

DEGENERATE_EIG_TOL = 1e-8
DEGENERATE_ROOT_TOL = 1e-8  # root_set's close-pair flag, a min_separation bound
NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class OracleEigenpair:
    """One eigenpair of the subspace matrix.

    ``eigenpoly`` holds the ascending eta-coefficients of the monic
    eigenpolynomial, read-only, its top one exactly 1.0; its degree equals
    the Bethe root count except at exactly solvable parameter points, where
    eigenfunctions of lower degree appear (the missing roots having escaped
    to infinity).  ``truncated`` marks a deformed-model state whose top
    coefficients fell below the double-precision noise floor (far-out roots
    spanning too many orders of magnitude); the representable part is kept
    and the caller is expected to complete the root set.
    """

    eigenvalue: complex
    eigenpoly: np.ndarray
    degenerate: bool = False
    truncated: bool = False

    @property
    def degree(self) -> int:
        return self.eigenpoly.size - 1


@dataclass(frozen=True)
class RootSet:
    """Bethe root multiset in every useful coordinate.

    roots_eta are the zeros of the eigen-polynomial; roots_x the canonical
    representatives with eta(x_l) = eta_l; roots_z (trig-q only) the z
    representatives with |z| <= 1.  ``degenerate`` flags a close pair.
    Built by ``root_set`` only.
    """

    roots_x: tuple[complex, ...]
    roots_eta: tuple[complex, ...]
    roots_z: tuple[complex, ...] | None = None
    degenerate: bool = False

    def __len__(self) -> int:
        return len(self.roots_eta)


def _without_top(coeffs: np.ndarray, cut: float = 0.0) -> np.ndarray:
    """``coeffs`` without its top entries of modulus <= cut."""
    n = coeffs.size
    while n and abs(coeffs[n - 1]) <= cut:
        n -= 1
    return coeffs[:n]


def oracle_spectrum(om: OperatorMatrix) -> list[OracleEigenpair]:
    """All eigenpairs of the operator matrix, sorted by (Re, Im) and
    converted to monic eta-polynomials.

    For a deformed model every eigenfunction has full degree dim-1, so the
    eigenvector's top component is kept however small it is (a weak
    deformation legitimately produces a tiny leading coefficient together
    with far-out roots); only exact zeros on top are dropped.  At exactly
    solvable parameter points the spectrum is graded instead; there the
    components above each state's true degree are pure rounding noise and
    get cut.
    """
    w, v = eig_general(om.matrix)
    values = [complex(x) for x in w]
    order = sorted(range(om.dim), key=lambda k: (values[k].real, values[k].imag))
    values = [values[k] for k in order]
    scale = max(1.0, max(abs(x) for x in values))
    flags = [False] * om.dim
    for i in range(om.dim - 1):
        if abs(values[i + 1] - values[i]) < DEGENERATE_EIG_TOL * scale:
            flags[i] = flags[i + 1] = True
    graded = compensation_vanishes(om.spec)
    ladder_family = om.spec.info.coordinate is Coordinate.COS
    diag = np.diag(om.matrix)
    pairs = []
    for rank, k in enumerate(order):
        vec = v[:, k]
        truncated = False
        if graded:
            # the matrix is graded triangular: the eigenvalue sits on the
            # diagonal and its index is the state's polynomial degree, so
            # everything above that index is rounding noise
            vec = vec[: int(np.argmin(np.abs(diag - w[k]))) + 1]
        vec = _without_top(vec)
        if ladder_family and not graded:
            big = np.abs(vec).max()
            if abs(vec[-1]) < NOISE_FLOOR * big:
                # geometric root ladders push true top coefficients below
                # the double-precision noise floor; keep the representable
                # part
                truncated = True
                vec = _without_top(vec, NOISE_FLOOR * big)
        # Python complex products: numpy's complex multiply rounds the last
        # digit differently for a large share of products
        coeffs = vec.tolist()
        s = 1.0 / coeffs[-1]
        poly = np.array([c * s for c in coeffs[:-1]] + [1.0 + 0j])
        poly.flags.writeable = False
        pairs.append(OracleEigenpair(values[rank], poly, flags[rank], truncated))
    return pairs


def min_separation(values: Sequence[complex]) -> float:
    """Smallest relative pairwise distance |v_i - v_j| / max(|v_i|, |v_j|)
    (roots legitimately span many orders of magnitude, so an absolute gap
    would misfire near zero); inf for fewer than two values."""
    v = np.asarray(values, dtype=complex)
    if v.size < 2:
        return math.inf
    a = np.abs(v)
    gap = np.abs(v[:, None] - v) / np.maximum(np.maximum.outer(a, a), 1e-300)
    gap.flat[:: v.size + 1] = math.inf  # each value's distance to itself
    return float(gap.min())


def _gauge_x(x: complex) -> complex:
    """The sign representative of +-x with Re x > 0, or Re x = 0, Im x >= 0."""
    return -x if x.real < 0 or (x.real == 0 and x.imag < 0) else x


def _gauge_z(z: complex) -> complex:
    """The representative of z, 1/z with |z| <= 1, ties on the unit circle
    broken by Im z >= 0."""
    if abs(z) > 1.0:
        z = 1.0 / z
    if abs(abs(z) - 1.0) < 1e-12 and z.imag < 0:
        z = z.conjugate()
    return z


def _x_from_z(z: complex) -> complex:
    """x = -i log z with Re x in (-pi, pi], ties on the negative real z axis
    broken by Re x = +pi as ``_gauge_z`` breaks ties on the unit circle."""
    x = -1j * cmath.log(z)
    if z.real < 0 and abs(z.imag) < 1e-12 * abs(z):
        x = complex(abs(x.real), x.imag)
    return x


def canonical_x_from_eta(spec: ModelSpec, eta_l: complex) -> complex:
    """Representative x with eta(x) = eta_l, resolving the gauge freedom."""
    coordinate = spec.info.coordinate
    if coordinate is Coordinate.X:
        return eta_l
    if coordinate is Coordinate.COS:
        return _x_from_z(canonical_z_from_eta(eta_l))
    return _gauge_x(cmath.sqrt(eta_l))


def canonical_z_from_eta(eta_l: complex) -> complex:
    """Solve z + 1/z = 2 eta for the representative with |z| <= 1."""
    # stable branch: form the larger root first, invert for the smaller
    s = cmath.sqrt(eta_l - 1.0) * cmath.sqrt(eta_l + 1.0)
    big = eta_l + s if abs(eta_l + s) >= abs(eta_l - s) else eta_l - s
    if abs(big) < 1e-300:
        raise ValueError("degenerate eta: no z representative")
    return _gauge_z(1.0 / big)


def root_set(spec: ModelSpec, native: Sequence[complex]) -> RootSet:
    """The root set whose Newton variables (``models.native_variable``)
    are ``native``: gauge-fixed representatives in every coordinate, sorted
    by (Re, Im) of eta, with the close-pair flag."""
    variable = native_variable(spec)
    values = [complex(v) for v in native]
    if variable == "z":
        zs = [_gauge_z(z) for z in values]
        rows = [(0.5 * (z + 1.0 / z), _x_from_z(z), z) for z in zs]
    elif variable == "eta":
        rows = [(e, _gauge_x(cmath.sqrt(e)), None) for e in values]
    elif spec.info.coordinate is Coordinate.X:
        rows = [(x, x, None) for x in values]
    else:
        rows = [(x * x, _gauge_x(x), None) for x in values]
    rows.sort(key=lambda r: (r[0].real, r[0].imag))  # (eta, x, z) per root
    etas = tuple(r[0] for r in rows)
    xs = tuple(r[1] for r in rows)
    zs = tuple(r[2] for r in rows) if variable == "z" else None
    close = min_separation({"x": xs, "eta": etas, "z": zs}[variable]) < DEGENERATE_ROOT_TOL
    return RootSet(xs, etas, zs, close)


def native_values(spec: ModelSpec, roots: RootSet) -> np.ndarray:
    """The Newton variables of ``roots``, the inverse of ``root_set``."""
    return np.asarray(getattr(roots, f"roots_{native_variable(spec)}"), dtype=complex)


def roots_of_eta_poly(spec: ModelSpec, coeffs: np.ndarray) -> RootSet:
    """Root set of the monic eta-polynomial with ascending coefficients
    ``coeffs`` (see ``root_set``)."""
    eta_roots = poly_roots(coeffs) if len(coeffs) > 1 else []
    variable = native_variable(spec)
    if variable == "z":
        return root_set(spec, [canonical_z_from_eta(r) for r in eta_roots])
    if variable == "x":
        return root_set(spec, [canonical_x_from_eta(spec, r) for r in eta_roots])
    return root_set(spec, eta_roots)


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
    if pair.degree != expected:
        raise ValueError(
            f"eigenpolynomial degree {pair.degree} != expected root "
            f"count {expected}"
        )
    return roots_of_eta_poly(spec, pair.eigenpoly)
