"""Brute-force spectral oracle: diagonalize the subspace matrix, rebuild
monic eigen-polynomials in eta, and extract candidate Bethe roots.

Eigenpairs are sorted by (Re, Im) of the eigenvalue; that order is the
canonical one everywhere downstream, including JSON output.

Every root set is built by ``root_set`` from the Newton variables of the
model's chart (``models.Chart``), whether it comes from an eigenpolynomial,
a Newton polish or a continuation leg.  The chart fixes the representatives
once and for all: for the x^2-based families the sign gauge is resolved to
Re x > 0 (or Re x = 0, Im x >= 0), and for the trigonometric family to
|z| <= 1 with ties on the unit circle broken by Im z >= 0, and x = -i log z
to Re x in (-pi, pi] with ties on the negative real z axis broken by
Re x = +pi; ``root_set`` sorts the roots by (Re, Im) of eta.

Eigenpolynomials, like every polynomial in the package, are arrays of
ascending complex coefficients.  ``extract_roots`` finds the roots of a
model's eigenpolynomials together, in one ``numerics.poly_roots`` batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .models import ModelSpec, compensation_vanishes
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
        if om.spec.chart.trigonometric and not graded:
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


def root_set(spec: ModelSpec, native: Sequence[complex]) -> RootSet:
    """The root set whose Newton variables (``models.Chart.variable``) are
    ``native``: gauge-fixed representatives in every coordinate, sorted by
    (Re, Im) of eta, with the close-pair flag."""
    chart = spec.chart
    etas, xs, zs = chart.representatives([complex(v) for v in native])
    order = sorted(range(len(etas)), key=lambda k: (etas[k].real, etas[k].imag))
    xs, etas, zs = (None if col is None else tuple(col[k] for k in order) for col in (xs, etas, zs))
    roots = RootSet(xs, etas, zs)
    if min_separation(chart.newton(roots)) < DEGENERATE_ROOT_TOL:
        return replace(roots, degenerate=True)
    return roots


def extract_roots(pairs: Sequence[OracleEigenpair], spec: ModelSpec) -> list[RootSet]:
    """Root sets of the eigenpolynomials of ``pairs``, each of its own
    degree, with canonical representatives (see ``root_set``); the roots
    of all of them come from one ``numerics.poly_roots`` call."""
    from_eta = spec.chart.from_eta
    return [
        root_set(spec, [from_eta(r) for r in eta_roots])
        for eta_roots in poly_roots([pair.eigenpoly for pair in pairs])
    ]
