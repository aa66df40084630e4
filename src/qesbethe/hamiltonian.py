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

H~ acts on all basis columns at once, held as the rows of one coefficient
array: each shift is one binomial matrix of (x +- i)^n or one diagonal q^n
scaling, V and V* one convolution each, the exact division one synthetic
division over every row, and the change to eta one Chebyshev matrix.  The
algebra is exact polynomial algebra, never numerical sampling, so for the
x-families and small M the subspace-invariance check detects operator
bugs.  It is not a pure bug detector: for trig-q from M ~ 10 the monomial
eta route loses digits, and the division, symmetry and leak checks fail
on a growing share of draws (11-13% at M = 12) although the operator is
exact there at 60 digits, so such a failure is a conditioning artifact.
Every column is checked on its own (finiteness, division remainder, z -> 1/z
symmetry, then leak), and a failure names the lowest failing column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InexactDivision, InversionAsymmetry, NonFiniteEntries, SubspaceLeak
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
    binomial_shift,
    convolve_rows,
    divide_rows_exact,
    symmetric_rows_to_eta,
)

DIVIDE_TOL = 1e-9
LEAK_TOL = 1e-10

# kinematic denominators 2ix(2ix+1) = 2ix - 4x^2, its analytic conjugate
# and their product
_DEN = np.array([0, 2j, -4])
_DEN_STAR = np.array([0, -2j, -4])
_DEN_PRODUCT = np.convolve(_DEN, _DEN_STAR)
# eta = (z + 1/z)/2, from z^-1 up
_ETA_Z = np.array([0.5, 0.0, 0.5])


def _plus(a: np.ndarray, a_lo: int, b: np.ndarray, b_lo: int) -> tuple[np.ndarray, int]:
    """Sum of two blocks of rows whose first columns hold exponents a_lo
    and b_lo, on the window that covers both."""
    lo = min(a_lo, b_lo)
    hi = max(a_lo + a.shape[1], b_lo + b.shape[1])
    out = np.zeros((a.shape[0], hi - lo), dtype=complex)
    out[:, a_lo - lo : a_lo - lo + a.shape[1]] += a
    out[:, b_lo - lo : b_lo - lo + b.shape[1]] += b
    return out, lo


def _shift_rows(rows: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Row i moved by[i] places up (down when negative), in the same width
    and zero-filled."""
    n_rows, n = rows.shape
    pad = np.zeros((n_rows, n + int(np.abs(by).max(initial=0))))
    padded = np.concatenate([pad, rows, pad], axis=1)
    return padded[np.arange(n_rows)[:, None], pad.shape[1] + np.arange(n) - by[:, None]]


def _product(lead: complex, factors) -> np.ndarray:
    """Ascending coefficients of lead * prod (a + b t) over the (a, b)."""
    out = [lead]
    for a, b in factors:
        out = [a * c + b * prev for c, prev in zip(out + [0j], [0j] + out)]
    return np.array(out, dtype=complex)


def _images_x(spec: ModelSpec, rows: np.ndarray) -> tuple[np.ndarray, int, dict]:
    """H~ on every row of x-coefficients: the image rows (from x^0), 0, and
    the rows whose exact division left a remainder."""
    n = rows.shape[1]
    dm = rows @ binomial_shift(n, -1j) - rows
    dp = rows @ binomial_shift(n, 1j) - rows
    constants = numerator_constants(spec)
    num = _product(v_phase(spec), [(p, 1j) for p in constants])
    num_star = _product(v_phase(spec).conjugate(), [(p.conjugate(), -1j) for p in constants])
    inexact: dict[int, InexactDivision] = {}
    if spec.info.kinematic_denominator:
        total = convolve_rows(dm, np.convolve(num, _DEN_STAR)) + convolve_rows(
            dp, np.convolve(num_star, _DEN)
        )
        shifts, inexact = divide_rows_exact(total, _DEN_PRODUCT, DIVIDE_TOL)
    else:
        shifts = convolve_rows(dm, num) + convolve_rows(dp, num_star)
    eta_degree = 1 if spec.info.coordinate is Coordinate.X else 2
    image, _ = _plus(shifts, 0, compensation_coefficient(spec) * rows, eta_degree)
    return image, 0, inexact


def _images_z(spec: ModelSpec, rows: np.ndarray, lo: int) -> tuple[np.ndarray, int, dict]:
    """H~ on every row of z-coefficients (exponents lo, lo+1, ...): the image
    rows, the exponent of their first column, and the rows whose exact
    division left a remainder."""
    q = spec.real_param("q")
    exponents = range(lo, lo + rows.shape[1])
    dm = rows * np.array([q**e for e in exponents]) - rows
    dp = rows * np.array([(1.0 / q) ** e for e in exponents]) - rows
    constants = numerator_constants(spec)
    num = _product(1.0, [(1.0, -p) for p in constants])  # from z^0
    num_star = _product(1.0, [(-p.conjugate(), 1.0) for p in constants])  # from z^-N
    den = np.convolve([1.0, 0.0, -1.0], [1.0, 0.0, -q])  # from z^0
    den_star = np.convolve([-1.0, 0.0, 1.0], [-q, 0.0, 1.0])  # from z^-4
    # Numerator first, then denominator: from M ~ 11 the division, symmetry
    # and leak checks work at rounding level, and in this order they fail
    # about as often as with one column at a time (with premultiplied
    # kernels, 8% more often over 3,600 draws at M = 10..12).
    total, total_lo = _plus(
        convolve_rows(convolve_rows(dm, num), den_star),
        lo - 4,
        convolve_rows(convolve_rows(dp, num_star), den),
        lo - len(constants),
    )
    # Divide each row from its lowest non-zero coefficient, as a Laurent
    # polynomial is divided: the remainder, and so the exactness check,
    # depends on that alignment.  The quotient's top `low` entries are zero
    # and drop out when it is moved back.
    low = (total != 0).argmax(axis=1)
    quot, inexact = divide_rows_exact(
        _shift_rows(total, -low), np.convolve(den, den_star), DIVIDE_TOL
    )
    quot = _shift_rows(quot, low)
    image, image_lo = _plus(
        quot,
        total_lo + 4,
        compensation_coefficient(spec) * convolve_rows(rows, _ETA_Z),
        lo - 1,
    )
    return image, image_lo, inexact


def _images(spec: ModelSpec, rows: np.ndarray, lo: int) -> tuple[np.ndarray, int, dict]:
    if spec.info.coordinate is Coordinate.COS:
        return _images_z(spec, rows, lo)
    return _images_x(spec, rows)


def apply_htilde(spec: ModelSpec, coeffs, lo: int = 0) -> tuple[np.ndarray, int]:
    """H~ on one polynomial, given by its ascending coefficients in the
    computational variable (x, or z from the exponent ``lo`` for trig-q):
    the image's coefficients and the exponent of the first of them."""
    if lo and spec.info.coordinate is not Coordinate.COS:
        raise ValueError("a polynomial in x starts at x^0")
    image, image_lo, inexact = _images(spec, np.array([coeffs], dtype=complex), lo)
    if inexact:
        raise inexact[0]
    return image[0], image_lo


@dataclass(frozen=True)
class OperatorMatrix:
    """H~ restricted to the invariant subspace, in the monomial eta-basis.

    Column k holds the eta-coordinates of H~ applied to basis_k, where
    basis_k = eta^k (times a prefactor x in the odd sextic sector).
    """

    spec: ModelSpec
    dim: int
    matrix: np.ndarray


@functools.lru_cache(maxsize=128)
def _basis(coordinate: Coordinate, odd: bool, dim: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Read-only rows of basis_0 .. basis_{dim-1} in the computational
    variable, the exponent of their first column, and the index of basis_k's
    coefficient in an image (the power of x, or of eta for trig-q)."""
    if coordinate is Coordinate.X_SQUARED:
        positions = int(odd) + 2 * np.arange(dim)
    else:
        positions = np.arange(dim)
    if coordinate is Coordinate.COS:
        # eta^k = 2^-k z^-k (1 + z^2)^k on the window z^(1-dim) .. z^(dim-1);
        # the binomial table's zeros above the diagonal land past each row's
        # own terms
        k = positions[:, None]
        wide = np.zeros((dim, 3 * dim), dtype=complex)
        wide[k, dim - 1 - k + 2 * positions] = binomial_shift(dim, 1.0) * 0.5**k
        rows, lo = wide[:, : 2 * dim - 1].copy(), 1 - dim
    else:
        rows, lo = np.zeros((dim, positions[-1] + 1), dtype=complex), 0
        rows[np.arange(dim), positions] = 1.0
    rows.flags.writeable = False
    positions.flags.writeable = False
    return rows, lo, positions


def basis_rows(spec: ModelSpec, dim: int) -> tuple[np.ndarray, int]:
    """basis_0 .. basis_{dim-1} (basis_k = eta^k, times x in the odd sextic
    sector) as read-only coefficient rows in the computational variable (x,
    or z for trig-q), and the exponent of the first column."""
    rows, lo, _ = _basis(spec.info.coordinate, spec.sector is Sector.ODD, dim)
    return rows, lo


def _subspace_matrix(spec: ModelSpec, rows: np.ndarray, lo: int, dim: int) -> np.ndarray:
    """(dim x rows) coordinates of H~ on each coefficient row in the first
    ``dim`` basis vectors.

    A row with a non-finite image raises first; then each row is checked for
    exact division, z -> 1/z symmetry (trig-q) and leaks out of the subspace,
    and the lowest failing row raises the error of the first check it fails.
    """
    image, image_lo, inexact = _images(spec, rows, lo)
    bad = np.flatnonzero(~np.isfinite(image).all(axis=1))
    if bad.size:
        raise NonFiniteEntries(
            f"column {bad[0]} of {spec.family.value} (M={spec.M}): entries left the double range"
        )
    if spec.info.coordinate is Coordinate.COS:
        coeffs, asymmetric = symmetric_rows_to_eta(image, image_lo)
    else:
        coeffs, asymmetric = image, {}
    positions = _basis(spec.info.coordinate, spec.sector is Sector.ODD, dim)[2]
    if coeffs.shape[1] <= positions[-1]:
        coeffs = _plus(coeffs, 0, np.zeros((len(coeffs), positions[-1] + 1)), 0)[0]
    outside = np.abs(coeffs)
    outside[:, positions] = 0.0
    overflow = outside.max(axis=1)
    cols = coeffs[:, positions]
    scale = np.maximum(np.abs(cols).max(axis=1), np.abs(image).max(axis=1, initial=1e-300))
    leaking = np.flatnonzero(overflow > LEAK_TOL * scale).tolist()
    failing = set(inexact) | set(asymmetric) | set(leaking)
    if failing:
        k = min(failing)
        if k in inexact:
            raise inexact[k]
        if k in asymmetric:
            raise InversionAsymmetry(
                f"column {k} of {spec.family.value} (M={spec.M}, "
                f"q={spec.real_param('q')!r}): {asymmetric[k]}"
            ) from asymmetric[k]
        raise SubspaceLeak(
            f"column {k} of {spec.family.value} (M={spec.M}) leaks "
            f"{overflow[k]:.3e} > {LEAK_TOL:.1e} * {scale[k]:.3e}"
        )
    return np.ascontiguousarray(cols.T)


def build_matrix(spec: ModelSpec) -> OperatorMatrix:
    """Assemble the matrix of H~ on the invariant subspace, verifying that
    no column leaks outside it."""
    dim = sector_dimension(spec)
    rows, lo = basis_rows(spec, dim)
    # entries that leave the double range are reported by the finiteness
    # check in _subspace_matrix, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = _subspace_matrix(spec, rows, lo, dim)
    return OperatorMatrix(spec, dim, matrix)


def matrix_dump_dict(om: OperatorMatrix) -> dict:
    """Row-major [re, im] dump used by the CLI golden-file regression."""
    entries = [
        [float(om.matrix[i, j].real), float(om.matrix[i, j].imag)]
        for i in range(om.dim)
        for j in range(om.dim)
    ]
    return {"dim": om.dim, "entries": entries}
