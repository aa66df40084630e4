"""Per-column polynomial/Laurent algebra: the independent reference that
the batched ``qesbethe.hamiltonian.build_matrix`` is tested against, and
the paper's closed-form eigenvalue-from-roots expressions that the
eigen-equation route of ``qesbethe.bethe.eigenvalue_from_roots`` is tested
against.

This is the straightforward formulation of H~: every basis vector is one
``PolynomialC`` (x-families) or ``LaurentC`` (trig-q), shifted by the
Ruffini-Horner cascade or by z -> qz, multiplied out by convolution,
divided exactly by the kinematic denominators and re-expressed in powers of
eta, one column at a time.  It shares no arithmetic with the batched
kernel beyond the model formulas; the two coefficient containers live here
only, since the package itself holds every polynomial as a coefficient
array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from qesbethe.errors import (
    InexactDivision,
    InversionAsymmetry,
    SubspaceLeak,
    UnsupportedFamily,
)
from qesbethe.hamiltonian import DIVIDE_TOL, LEAK_TOL
from qesbethe.models import (
    ModelFamily,
    ModelSpec,
    Sector,
    compensation_coefficient,
    sector_degrees,
    sector_dimension,
)
from qesbethe.spectral import RootSet

# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolynomialC:
    """Dense complex polynomial sum_k coeffs[k] * var**k.

    The zero polynomial is the empty coefficient tuple; otherwise the top
    coefficient is non-zero (exact zeros are trimmed on construction).
    ``var`` tags which variable the coefficients refer to ("x", "eta" or
    "z") so basis bookkeeping errors fail loudly instead of silently.
    """

    coeffs: tuple[complex, ...]
    var: str = "x"

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        for c in coeffs:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("non-finite polynomial coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "PolynomialC") -> "PolynomialC":
        _check_var(self, other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        for k, c in enumerate(other.coeffs):
            a[k] += c
        return PolynomialC(tuple(a), self.var)

    def __sub__(self, other: "PolynomialC") -> "PolynomialC":
        return self + other.scale(-1)

    def scale(self, s: complex) -> "PolynomialC":
        return PolynomialC(tuple(s * c for c in self.coeffs), self.var)

    def inf_norm(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)

    def trimmed(self, tol: float) -> "PolynomialC":
        """Drop top coefficients below tol * inf-norm (noise trimming)."""
        cut = tol * self.inf_norm()
        coeffs = list(self.coeffs)
        while coeffs and abs(coeffs[-1]) <= cut:
            coeffs.pop()
        return PolynomialC(tuple(coeffs), self.var)


def _check_var(p: PolynomialC, q: PolynomialC) -> None:
    if p.var != q.var:
        raise ValueError(f"variable mismatch: {p.var!r} vs {q.var!r}")



def poly_monomial(k: int, var: str = "x", coeff: complex = 1.0) -> PolynomialC:
    return PolynomialC((0,) * k + (coeff,), var)


def poly_shift(p: PolynomialC, c: complex) -> PolynomialC:
    """Taylor shift: return q with q(x) = p(x + c), by the Ruffini-Horner
    cascade (Pascal recurrence)."""
    n = len(p.coeffs)
    if n <= 1 or c == 0:
        return p
    b = list(p.coeffs)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[j] = b[j] + c * b[j + 1]
    return PolynomialC(tuple(b), p.var)


def poly_mul(p: PolynomialC, q: PolynomialC) -> PolynomialC:
    """Convolution product."""
    if p.var != q.var:
        raise ValueError(f"variable mismatch: {p.var!r} vs {q.var!r}")
    if not p.coeffs or not q.coeffs:
        return PolynomialC((), p.var)
    out = np.convolve(np.asarray(p.coeffs), np.asarray(q.coeffs))
    return PolynomialC(tuple(out), p.var)


def poly_divide_exact(p: PolynomialC, d: PolynomialC, tol: float = 1e-9) -> PolynomialC:
    """Synthetic division p / d whose remainder must vanish: a remainder
    above ``tol * inf_norm(p)`` raises InexactDivision."""
    if p.var != d.var:
        raise ValueError(f"variable mismatch: {p.var!r} vs {d.var!r}")
    if not d.coeffs:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p.coeffs:
        return PolynomialC((), p.var)
    dd = d.degree
    rem = list(p.coeffs)
    lead = d.coeffs[-1]
    qdeg = p.degree - dd
    quot = [0j] * max(qdeg + 1, 0)
    for k in range(qdeg, -1, -1):
        q_k = rem[k + dd] / lead
        quot[k] = q_k
        for j in range(dd + 1):
            rem[k + j] -= q_k * d.coeffs[j]
    rnorm = max(abs(r) for r in rem)
    if rnorm > tol * p.inf_norm():
        raise InexactDivision(
            f"division remainder {rnorm:.3e} exceeds {tol:.1e} * |p| = "
            f"{tol * p.inf_norm():.3e}"
        )
    return PolynomialC(tuple(quot), p.var)


def poly_from_roots(roots: Sequence[complex], var: str = "x") -> PolynomialC:
    """Monic polynomial prod (var - r)."""
    out = PolynomialC((1,), var)
    for r in roots:
        out = poly_mul(out, PolynomialC((-r, 1), var))
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentC:
    """Dense complex Laurent polynomial sum_k coeffs[k - lo] * z**k,
    exponents running lo .. lo + len(coeffs) - 1."""

    lo: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        lo = self.lo
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        while coeffs and coeffs[0] == 0:
            coeffs = coeffs[1:]
            lo += 1
        if not coeffs:
            lo = 0
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "lo", lo)

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * z + c
        return out * z**self.lo

    def coeff(self, k: int) -> complex:
        if self.lo <= k <= self.hi:
            return self.coeffs[k - self.lo]
        return 0j

    def __add__(self, other: "LaurentC") -> "LaurentC":
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = [0j] * (hi - lo + 1)
        for k, c in enumerate(self.coeffs):
            out[self.lo - lo + k] += c
        for k, c in enumerate(other.coeffs):
            out[other.lo - lo + k] += c
        return LaurentC(lo, tuple(out))

    def __sub__(self, other: "LaurentC") -> "LaurentC":
        return self + other.scale(-1)

    def scale(self, s: complex) -> "LaurentC":
        return LaurentC(self.lo, tuple(s * c for c in self.coeffs))

    def inf_norm(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)



def laurent_one() -> LaurentC:
    return LaurentC(0, (1,))


def laurent_mul(p: LaurentC, q: LaurentC) -> LaurentC:
    if not p.coeffs or not q.coeffs:
        return LaurentC(0, ())
    out = np.convolve(np.asarray(p.coeffs), np.asarray(q.coeffs))
    return LaurentC(p.lo + q.lo, tuple(out))


def laurent_scale_arg(p: LaurentC, s: complex) -> LaurentC:
    """Return q with q(z) = p(s * z): coefficient of z^k picks up s^k."""
    return LaurentC(p.lo, tuple(c * s ** (p.lo + k) for k, c in enumerate(p.coeffs)))


def laurent_divide_exact(p: LaurentC, d: LaurentC, tol: float = 1e-9) -> LaurentC:
    """Exact Laurent division: both operands become plain polynomials from
    their lowest non-zero coefficient, and the exponent offset is tracked."""
    if not d.coeffs:
        raise ZeroDivisionError("division by the zero Laurent polynomial")
    if not p.coeffs:
        return LaurentC(0, ())
    q = poly_divide_exact(PolynomialC(p.coeffs, "z"), PolynomialC(d.coeffs, "z"), tol)
    return LaurentC(p.lo - d.lo, q.coeffs)


def chebyshev_t_coefficients(n: int) -> list[tuple[float, ...]]:
    """Coefficient rows of T_0 .. T_n (ascending powers), from the
    recurrence T_{k+1} = 2 x T_k - T_{k-1}."""
    rows: list[tuple[float, ...]] = [(1.0,), (0.0, 1.0)]
    while len(rows) <= n:
        prev, last = rows[-2], rows[-1]
        nxt = [0.0] + [2.0 * c for c in last]
        for k, c in enumerate(prev):
            nxt[k] -= c
        rows.append(tuple(nxt))
    return rows[: n + 1]


def symmetric_laurent_to_eta(f: LaurentC, asym_tol: float = 1e-10) -> tuple[complex, ...]:
    """Ascending eta-coefficients of a z -> 1/z symmetric Laurent polynomial
    (eta = (z + 1/z)/2, z^k + z^-k = 2 T_k(eta)); InversionAsymmetry if
    f(z) != f(1/z) beyond ``asym_tol`` relative."""
    if not f.coeffs:
        return ()
    norm = f.inf_norm()
    top = max(f.hi, -f.lo)
    sym = []
    for k in range(top + 1):
        up, dn = f.coeff(k), f.coeff(-k)
        if abs(up - dn) > asym_tol * norm:
            raise InversionAsymmetry(
                f"Laurent polynomial not z -> 1/z symmetric at |k|={k}: "
                f"{up} vs {dn}"
            )
        sym.append(0.5 * (up + dn))
    rows = chebyshev_t_coefficients(top)
    out = [0j] * (top + 1)
    out[0] += sym[0]
    for k in range(1, top + 1):
        for j, c in enumerate(rows[k]):
            out[j] += 2.0 * c * sym[k]
    return tuple(out)


def eta_power_as_laurent(k: int) -> LaurentC:
    """eta^k with eta = (z + 1/z)/2, as a Laurent polynomial in z."""
    base = LaurentC(-1, (0.5, 0.0, 0.5))
    out = laurent_one()
    for _ in range(k):
        out = laurent_mul(out, base)
    return out


# ---------------------------------------------------------------------------
# H~ one column at a time
# ---------------------------------------------------------------------------

# kinematic denominators 2ix(2ix+1) = 2ix - 4x^2 and its analytic conjugate
_DEN = PolynomialC((0, 2j, -4), "x")
_DEN_STAR = PolynomialC((0, -2j, -4), "x")
_KINEMATIC = (ModelFamily.CENTRIFUGAL_I, ModelFamily.CENTRIFUGAL_II)
# the parameters that are not numerator constants
_NOT_FACTORS = {"beta", "q"}


def _v_lead(spec: ModelSpec) -> complex:
    """u of V = u * prod_k (p_k + ix): e^{-i beta} for the crossed family."""
    if spec.family is ModelFamily.MP_CROSSED:
        return cmath.exp(-1j * spec.params["beta"].real)
    return 1.0 + 0j


def _v_constants(spec: ModelSpec) -> tuple[complex, ...]:
    """The p_k of V's numerator factors p_k + ix (or 1 - p_k z), from the
    parameters in order, dropped factors left out."""
    return tuple(
        v for n, v in spec.params.items() if n not in _NOT_FACTORS and n not in spec.dropped
    )


def _v_numerators(spec: ModelSpec) -> tuple[PolynomialC, PolynomialC]:
    num = PolynomialC((_v_lead(spec),), "x")
    num_star = PolynomialC((_v_lead(spec).conjugate(),), "x")
    for p in _v_constants(spec):
        num = poly_mul(num, PolynomialC((p, 1j), "x"))
        num_star = poly_mul(num_star, PolynomialC((p.conjugate(), -1j), "x"))
    return num, num_star


def apply_htilde(spec: ModelSpec, psi: PolynomialC) -> PolynomialC:
    """H~ on one polynomial in x (x-families)."""
    if spec.family is ModelFamily.TRIG_Q:
        raise UnsupportedFamily("use apply_htilde_z for the trigonometric family")
    dm = poly_shift(psi, -1j) - psi
    dp = poly_shift(psi, +1j) - psi
    num, num_star = _v_numerators(spec)
    if spec.family in _KINEMATIC:
        total = poly_mul(poly_mul(num, dm), _DEN_STAR) + poly_mul(
            poly_mul(num_star, dp), _DEN
        )
        shift_part = poly_divide_exact(total, poly_mul(_DEN, _DEN_STAR), DIVIDE_TOL)
    else:
        shift_part = poly_mul(num, dm) + poly_mul(num_star, dp)
    coef = compensation_coefficient(spec)
    if coef == 0:
        return shift_part
    eta_degree = 1 if spec.family is ModelFamily.MP_CROSSED else 2
    return shift_part + poly_mul(psi, poly_monomial(eta_degree, "x")).scale(coef)


def apply_htilde_z(spec: ModelSpec, f: LaurentC) -> LaurentC:
    """H~ on one z-inversion-symmetric Laurent polynomial (trig-q)."""
    q = spec.real_param("q")
    dm = laurent_scale_arg(f, q) - f
    dp = laurent_scale_arg(f, 1.0 / q) - f
    num = laurent_one()
    num_star = laurent_one()
    for p in _v_constants(spec):
        num = laurent_mul(num, LaurentC(0, (1.0, -p)))
        num_star = laurent_mul(num_star, LaurentC(-1, (-p.conjugate(), 1.0)))
    den = laurent_mul(LaurentC(0, (1.0, 0.0, -1.0)), LaurentC(0, (1.0, 0.0, -q)))
    den_star = laurent_mul(LaurentC(-2, (-1.0, 0.0, 1.0)), LaurentC(-2, (-q, 0.0, 1.0)))
    total = laurent_mul(laurent_mul(num, dm), den_star) + laurent_mul(
        laurent_mul(num_star, dp), den
    )
    shift_part = laurent_divide_exact(total, laurent_mul(den, den_star), DIVIDE_TOL)
    coef = compensation_coefficient(spec)
    if coef != 0:
        shift_part = shift_part + laurent_mul(f, LaurentC(-1, (0.5, 0.0, 0.5))).scale(coef)
    return shift_part


def basis_polynomial(spec: ModelSpec, k: int) -> PolynomialC | LaurentC:
    """basis_k = eta^k (times x in the odd sextic sector) in the
    computational variable."""
    if spec.family is ModelFamily.TRIG_Q:
        return eta_power_as_laurent(k)
    if spec.family is ModelFamily.MP_CROSSED:
        return poly_monomial(k, "x")
    return poly_monomial(2 * k + (1 if spec.sector is Sector.ODD else 0), "x")


def _eta_coordinates(spec: ModelSpec, out, dim: int) -> tuple[np.ndarray, float]:
    """The first ``dim`` basis coordinates of an image and its largest
    coefficient outside them."""
    col = np.zeros(dim, dtype=complex)
    overflow = 0.0
    if spec.family is ModelFamily.TRIG_Q:
        coeffs, step, offset = symmetric_laurent_to_eta(out), 1, 0
    elif spec.family is ModelFamily.MP_CROSSED:
        coeffs, step, offset = out.coeffs, 1, 0
    else:
        coeffs, step, offset = out.coeffs, 2, 1 if spec.sector is Sector.ODD else 0
    for n, c in enumerate(coeffs):
        j, r = divmod(n - offset, step)
        if r == 0 and 0 <= j < dim:
            col[j] = c
        else:
            overflow = max(overflow, abs(c))
    return col, overflow


def subspace_matrix(
    spec: ModelSpec,
    columns: Sequence[PolynomialC | LaurentC],
    dim: int,
    leak_tol: float = LEAK_TOL,
) -> np.ndarray:
    """(dim x len(columns)) coordinates of H~ on each column, checked column
    by column in order: exact division, then z -> 1/z symmetry, then leak."""
    apply = apply_htilde_z if spec.family is ModelFamily.TRIG_Q else apply_htilde
    matrix = np.zeros((dim, len(columns)), dtype=complex)
    for k, psi in enumerate(columns):
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
    return matrix


def build_matrix(spec: ModelSpec) -> np.ndarray:
    """The subspace matrix, one basis column at a time."""
    dim = sector_dimension(spec)
    return subspace_matrix(spec, [basis_polynomial(spec, k) for k in range(dim)], dim)


# ---------------------------------------------------------------------------
# The paper's closed-form eigenvalues
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricCoefficients:
    """Delta_j with V-numerator(x) = sum_j Delta_j (i x)^j, i.e. Delta_j is
    the elementary symmetric polynomial e_{deg-j} of the parameters."""

    deltas: tuple[complex, ...]

    def __getitem__(self, j: int) -> complex:
        return self.deltas[j]


def symmetric_coefficients(spec: ModelSpec) -> SymmetricCoefficients:
    if spec.family not in (ModelFamily.SEXTIC_II, ModelFamily.CENTRIFUGAL_II):
        raise UnsupportedFamily(
            f"symmetric coefficients are defined for the type-II families, "
            f"not {spec.family.value}"
        )
    coeffs = [1.0 + 0j]  # expand prod (p_k + t) in powers of t = ix
    for p in spec.params.values():
        nxt = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * p
            nxt[k + 1] += c
        coeffs = nxt
    return SymmetricCoefficients(tuple(coeffs))


def _binom(n: int, k: int) -> float:
    if k < 0 or k > n or n < 0:
        return 0.0
    return float(math.comb(n, k))


def restricted_eigenvalue(spec: ModelSpec, m: int) -> complex:
    """Degree-m eigenvalue of a factor-deleted (exactly solvable) model.

    Supported restrictions: one linear factor deleted from the crossed
    Meixner-Pollaczek model; the top factor (Wilson) or the top two
    (continuous dual Hahn) deleted from a centrifugal model.  For these,
    the deleted-factor potential has low enough growth that the eigenvalue
    no longer depends on the Bethe roots.
    """
    if not spec.dropped:
        raise ValueError("spec has no deleted factors")
    kept = _v_constants(spec)
    if spec.family is ModelFamily.MP_CROSSED and len(kept) == 1:
        return complex(2.0 * m * math.cos(spec.real_param("beta")))
    if spec.family in _KINEMATIC:
        if len(kept) == 4:
            s = sum(p.real for p in kept)
            return complex(m * (m + s - 1.0))
        if len(kept) == 3:
            return complex(m)
    raise UnsupportedFamily(
        f"no closed form for {spec.family.value} with factors {spec.dropped} deleted"
    )


def paper_eigenvalue(spec: ModelSpec, roots: RootSet, degree: int | None = None) -> complex:
    """The paper's closed-form E({x_l}) for the family.

    ``degree`` overrides the subspace degree entering the formula; at
    exactly solvable parameter points, where eigenfunctions of every lower
    degree coexist in the subspace, it is the degree of the state.
    """
    m = spec.M if degree is None else degree
    expected = sector_degrees(spec).index(m)
    if len(roots) != expected:
        raise ValueError(f"expected {expected} roots for degree {m}, got {len(roots)}")
    if spec.dropped:
        return restricted_eigenvalue(spec, m)
    fam = spec.family
    eta_sum = sum(roots.roots_eta)
    if fam is ModelFamily.MP_CROSSED:
        beta = spec.real_param("beta")
        a1, a2 = spec.param("a1"), spec.param("a2")
        forward = (a1 + a2) * cmath.exp(-1j * beta)
        backward = (a1.conjugate() + a2.conjugate()) * cmath.exp(1j * beta)
        return (
            m * (m - 1) * math.cos(beta)
            + m * (forward + backward)
            + 2.0 * math.sin(beta) * eta_sum
        )
    if fam is ModelFamily.SEXTIC_I:
        a, b, c = (spec.real_param(n) for n in ("a", "b", "c"))
        return (
            m * (m - 1) * (m - 2) / 3.0
            + (a + b + c) * m * (m - 1)
            + 2.0 * (a * b + a * c + b * c) * m
            - 4.0 * eta_sum
        )
    if fam is ModelFamily.SEXTIC_II:
        d = symmetric_coefficients(spec)
        const = 2.0 * sum(_binom(m, j) * d[j] for j in range(1, 5))
        return const - (4.0 * d[3] + (4.0 * m - 6.0)) * eta_sum
    if fam is ModelFamily.CENTRIFUGAL_I:
        ps = [spec.real_param(n) for n in ("b", "c", "d", "e", "f")]
        e2 = sum(ps[i] * ps[j] for i in range(5) for j in range(i + 1, 5))
        return (
            2.0 * m * (m - 1) * (m - 2) / 3.0
            + (sum(ps) + 0.5) * m * (m - 1)
            + e2 * m
            - eta_sum
        )
    if fam is ModelFamily.CENTRIFUGAL_II:
        d = symmetric_coefficients(spec)
        return (
            d[3] * _binom(m, 1)
            + (2.0 * d[4] + d[5]) * _binom(m, 2)
            + 4.0 * (d[5] + 1.0) * _binom(m, 3)
            + 8.0 * _binom(m, 4)
            - (d[5] + 2.0 * (m - 1)) * eta_sum
        )
    if fam is ModelFamily.TRIG_Q:
        q = spec.real_param("q")
        ps = [spec.real_param(n) for n in ("a", "b", "c", "d", "e")]
        e5 = math.prod(ps)
        e4 = sum(
            math.prod(ps[:k] + ps[k + 1 :]) for k in range(5)
        )
        return (
            e4 * (q**m - 1.0) / q
            + q ** (-m)
            - 1.0
            - 2.0 * e5 * q ** (m - 1) * (1.0 - 1.0 / q) * eta_sum
        )
    raise UnsupportedFamily(fam.value)
