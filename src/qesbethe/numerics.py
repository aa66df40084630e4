"""Numerical substrate: complex polynomial algebra, a dense complex
eigensolver, damped Newton iteration and the two special functions
(complex log-gamma, q-Pochhammer) the model layer is built from.

Polynomials are dense complex coefficient sequences in a single variable,
stored in ascending powers; many polynomials that undergo the same
operation are the rows of one 2-D array.  Degrees stay small (a few tens),
so every operation is the straightforward O(n^2) algorithm; no FFT or
sparse paths.  All public functions here are pure: they never mutate their
arguments, and the only state they keep is a bounded memo of read-only
integer tables (binomial and Chebyshev coefficients).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DivergentProduct,
    InexactDivision,
    InversionAsymmetry,
    NoConvergence,
    PoleOfGamma,
    SingularJacobian,
)

MAX_EIG_DIM = 256
EIG_RESIDUAL_TOL = 1e-10  # ||A v - lambda v|| / ||A||_F accepted per eigenpair
ASYM_TOL = 1e-10  # relative z^k vs z^-k mismatch tolerated in a symmetric row
FD_SCALE = 1e-6  # finite-difference step, relative to max(1, |x_k|)
MAX_HALVINGS = 20  # damping halvings of one Newton step
COND_LIMIT = 1e12  # largest Jacobian condition estimate Newton steps with

# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def poly_roots(coeffs) -> list[complex]:
    """All roots, with multiplicity, of the polynomial with ascending
    coefficients ``coeffs``, via balanced companion-matrix eigenvalues.
    The leading coefficient is taken as exact, however small against the
    others: eigenpolynomials are monic by construction, and their wide
    coefficient range is genuine, not cancellation debris."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size < 2:
        raise ValueError("root finding needs degree >= 1")
    return [complex(r) for r in np.roots(coeffs[::-1])]


# ---------------------------------------------------------------------------
# Coefficient rows: one operation applied to many polynomials at once
# ---------------------------------------------------------------------------
#
# A 2-D complex array holds one polynomial per row, ascending coefficients
# along the row.  Laurent rows share one window; the caller tracks the
# exponent of its first column.


@functools.lru_cache(maxsize=128)
def binomial_shift(n: int, c: complex) -> np.ndarray:
    """Read-only n x n matrix whose row k holds the ascending coefficients
    of (x + c)^k, so that ``rows @ binomial_shift(n, c)`` is every row
    polynomial p(x) turned into p(x + c).

    Built by the Pascal recurrence; for |c| = 1 on the axes (c = 1, +-i)
    every entry is exact while the binomial coefficients stay below 2^53.
    """
    out = np.zeros((n, n), dtype=complex)
    if n:
        out[0, 0] = 1.0
    for k in range(1, n):
        out[k, 1 : k + 1] = out[k - 1, :k]
        out[k, :k] += c * out[k - 1, :k]
    out.flags.writeable = False
    return out


def convolve_rows(rows: np.ndarray, kernel) -> np.ndarray:
    """Every row multiplied by one polynomial (row-wise convolution), as one
    product with the banded Toeplitz matrix of the kernel."""
    kernel = np.asarray(kernel, dtype=complex)
    n = rows.shape[1]
    width = n + kernel.size - 1
    # row i of the band starts i*(width + 1) into the flat buffer, which is
    # column i of row i once the buffer is read with rows of `width`
    flat = np.zeros(n * (width + 1), dtype=complex)
    flat.reshape(n, width + 1)[:, : kernel.size] = kernel
    return rows @ flat[: n * width].reshape(n, width)


def divide_rows_exact(
    rows: np.ndarray, divisor, tol: float
) -> tuple[np.ndarray, dict[int, InexactDivision]]:
    """Synthetic division of every row by one divisor whose remainder must
    vanish.

    Returns the quotient rows and, for each row whose remainder exceeds
    ``tol`` times the row's largest coefficient, the InexactDivision that
    names it (a zero row divides exactly).  The divisor's top coefficient
    must be non-zero.
    """
    d = np.asarray(divisor, dtype=complex)
    dd = d.size - 1
    # In place, one coefficient of every row at a time (rows along the
    # contiguous axis): position k + dd turns into the quotient coefficient
    # q_k, and the positions below it keep the running remainder.
    rem = np.array(np.transpose(rows), dtype=complex)
    lead, low = d[-1], d[:-1, None]
    for k in range(rem.shape[0] - dd - 1, -1, -1):
        q_k = rem[k + dd]
        q_k /= lead
        rem[k : k + dd] -= low * q_k
    quot = rem[dd:].T.copy()
    rnorm = np.abs(rem[:dd]).max(axis=0, initial=0.0)
    pnorm = np.abs(rows).max(axis=1, initial=0.0)
    errors = {
        int(i): InexactDivision(
            f"division remainder {rnorm[i]:.3e} exceeds {tol:.1e} * |p| = "
            f"{tol * pnorm[i]:.3e}"
        )
        for i in np.flatnonzero(rnorm > tol * pnorm)
    }
    return quot, errors


@functools.lru_cache(maxsize=64)
def chebyshev_matrix(n: int) -> np.ndarray:
    """Read-only n x n matrix taking the symmetric parts (c_k + c_-k)/2,
    k < n, of a z -> 1/z symmetric Laurent polynomial to its ascending
    coefficients in eta = (z + 1/z)/2: row 0 is T_0 and row k >= 1 is
    2 T_k, because z^k + z^-k = 2 T_k(eta)."""
    t = np.zeros((n, n))
    t[:2, :2] = np.eye(min(n, 2))
    for k in range(2, n):
        t[k, 1:] = 2.0 * t[k - 1, :-1]
        t[k] -= t[k - 2]
    t[1:] *= 2.0
    t.flags.writeable = False
    return t


def symmetric_rows_to_eta(
    rows: np.ndarray, lo: int
) -> tuple[np.ndarray, dict[int, InversionAsymmetry]]:
    """Ascending eta-coefficients of every Laurent row (exponents lo, lo+1,
    ...), each of which must satisfy f(z) = f(1/z).

    Returns the eta rows and, for each row whose coefficients of z^k and
    z^-k differ by more than ASYM_TOL times its largest coefficient,
    the InversionAsymmetry that names the lowest such |k|.
    """
    n_rows, n = rows.shape
    top = max(lo + n - 1, -lo, 0)
    full = np.zeros((n_rows, 2 * top + 1), dtype=complex)
    full[:, top + lo : top + lo + n] = rows
    up = full[:, top:]
    dn = full[:, top::-1]
    norm = np.abs(rows).max(axis=1, initial=0.0)
    bad = np.abs(up - dn) > ASYM_TOL * norm[:, None]
    errors = {}
    for i in np.flatnonzero(bad.any(axis=1)):
        k = int(bad[i].argmax())
        errors[int(i)] = InversionAsymmetry(
            f"Laurent polynomial not z -> 1/z symmetric at |k|={k}: "
            f"{complex(up[i, k])} vs {complex(dn[i, k])}"
        )
    return (0.5 * (up + dn)) @ chebyshev_matrix(top + 1), errors

# ---------------------------------------------------------------------------
# Dense eigensolver
# ---------------------------------------------------------------------------


def eig_general(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and unit eigenvector columns v of a general
    (non-normal) complex matrix, via LAPACK's balanced Hessenberg +
    shifted-QR driver.

    Every pair is checked for ||A v - w v|| <= EIG_RESIDUAL_TOL * ||A||_F,
    taken on A / max|A| so that no entry range overflows the check; a
    non-finite pair fails it.  The Frobenius norm bounds the 2-norm from
    above and costs no SVD.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n < 1 or n > MAX_EIG_DIM:
        raise ValueError(f"dimension {n} outside 1..{MAX_EIG_DIM}")
    try:
        w, v = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigensolver failed for dim {n}: {exc}") from exc
    a_max = float(np.abs(a).max()) or 1.0
    unit = a / a_max
    scale = np.linalg.norm(unit)
    v = v / np.linalg.norm(v, axis=0)
    resid = np.linalg.norm(unit @ v - v * (w / a_max), axis=0)
    bad = np.flatnonzero(~(resid <= EIG_RESIDUAL_TOL * max(scale, 1e-300)))
    if bad.size:
        raise NoConvergence(
            f"eigenpair residual {resid[bad[0]] * a_max:.3e} above "
            f"{EIG_RESIDUAL_TOL:.1e} * ||A||_F (dim {n})"
        )
    return w, v


# ---------------------------------------------------------------------------
# Newton iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-11
    max_iter: int = 100


@dataclass(frozen=True)
class NewtonReport:
    """Result of ``newton_solve``: the root, the last Jacobian the iteration
    stepped with (the supplied one if no step was needed; None when there
    was neither), in the caller's variables, the Newton iterations taken
    and how many of them built a finite-difference Jacobian."""

    x: np.ndarray
    jacobian: np.ndarray | None
    iterations: int
    fd_jacobians: int


def _fd_jacobian(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Jacobian, per-component step
    FD_SCALE * max(1, |x_k|)."""
    n = x.size
    jac = np.empty((n, n), dtype=complex)
    for k in range(n):
        h = FD_SCALE * max(1.0, abs(x[k]))
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        jac[:, k] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return jac


def _inverse(jac: np.ndarray) -> np.ndarray | None:
    """Complex inverse of a Jacobian to hold (Broyden updates it in place),
    or None when it is exactly singular."""
    try:
        return np.linalg.inv(np.asarray(jac, dtype=complex))
    except np.linalg.LinAlgError:
        return None


def _broyden_update(inv: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    """Broyden's "good" rank-one update of a held inverse Jacobian, in
    place, by Sherman-Morrison: afterwards inv @ y = s (the secant
    condition for the step s that changed the residual by y).  Skipped
    when the update's denominator is 0."""
    s_inv = s.conj() @ inv
    den = s_inv @ y
    if den != 0:
        inv += np.outer(s - inv @ y, s_inv / den)


def newton_solve(
    f: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[complex],
    opts: NewtonOptions = NewtonOptions(),
    jacobian: np.ndarray | None = None,
) -> NewtonReport:
    """Damped Newton iteration on a residual map C^N -> C^N.

    The iteration runs in coordinates relative to the start: it solves for
    w with x = x0 + units * w from w = 0, units_k = |x0_k| (1 where
    |x0_k| <= 1e-250), so that unknowns spanning many orders of magnitude
    (the q-family's geometric root ladders) keep a well-scaled Jacobian
    (Deuflhard, *Newton Methods for Nonlinear Problems*, Springer 2004).
    The finite-difference steps, the halvings and the condition check all
    act on w; ``jacobian`` is taken, and the report's Jacobian returned, in
    the caller's variables x.

    Without ``jacobian`` every iteration builds a central finite-difference
    Jacobian (step FD_SCALE * max(1, |w_k|)) and halves the update (at most
    MAX_HALVINGS times) whenever the full step fails to reduce
    ||f||_inf.  A Jacobian with a non-finite entry, or a condition
    estimate above COND_LIMIT, raises SingularJacobian.

    With ``jacobian`` (quasi-Newton, for a sequence of nearby problems;
    Allgower & Georg, *Introduction to Numerical Continuation Methods*,
    SIAM 2003, ch. 6-7): the held Jacobian is inverted once, and an
    iteration holding the inverse takes the full step s = -J^-1 f(x), one
    residual evaluation and no linear solve, keeping it only if ||f||_inf
    at least halves or meets ``tol``.  A kept step refines the held inverse
    by Broyden's "good" rank-one update (Sherman-Morrison form,
    ``_broyden_update``; Broyden, Math. Comp. 19 (1965) 577), after which
    it maps the step's change of f onto s (the secant condition).  Otherwise
    the step is discarded, a fresh finite-difference Jacobian is built
    (with the same checks), the damped step above is taken with it, and
    that Jacobian is inverted and held from then on under the same rule.
    A held Jacobian that is stale, or singular, never raises on its own (a
    singular one goes straight to the refresh): ``max_iter`` bounds the
    iterations that build a Jacobian, and the held steps between them
    number at most log2(||f(x0)||_inf / tol) + 1 because each one halves
    ||f||_inf.  The report carries the last Jacobian that was supplied or
    built, never the Broyden-updated inverse.
    """
    v0 = np.asarray(list(x0), dtype=complex)
    if v0.size == 0:
        return NewtonReport(v0, jacobian, 0, 0)
    units = np.where(np.abs(v0) > 1e-250, np.abs(v0), 1.0)

    def g(w: np.ndarray) -> np.ndarray:
        return np.asarray(f(v0 + units * w), dtype=complex)

    hold = jacobian is not None
    jac = jacobian * units if hold else None
    inv = _inverse(jac) if hold else None
    iterations = fd_jacobians = 0
    w = np.zeros_like(v0)
    fx = g(w)
    fnorm = float(np.abs(fx).max())
    while True:
        if fnorm <= opts.tol:  # a NaN norm goes on, to raise below
            jac = None if jac is None else jac / units
            return NewtonReport(v0 + units * w, jac, iterations, fd_jacobians)
        iterations += 1
        if inv is not None:
            s = -(inv @ fx)
            wn = w + s
            fn = g(wn)
            fnew = float(np.abs(fn).max())
            if fnew <= 0.5 * fnorm or fnew <= opts.tol:
                _broyden_update(inv, s, fn - fx)
                w, fx, fnorm = wn, fn, fnew
                continue
        if fd_jacobians == opts.max_iter:
            raise NoConvergence(
                f"Newton did not reach tol {opts.tol:.1e} within {opts.max_iter} "
                f"iterations (||f|| = {fnorm:.3e})"
            )
        jac = _fd_jacobian(g, w)
        fd_jacobians += 1
        bad = np.flatnonzero(~np.isfinite(jac).all(axis=0))
        if bad.size:
            raise SingularJacobian(f"Jacobian column {bad[0]} is not finite")
        cond = np.linalg.cond(jac)
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise SingularJacobian(f"Jacobian condition estimate {cond:.3e}")
        step = np.linalg.solve(jac, -fx)
        if hold:
            inv = _inverse(jac)
        lam = 1.0
        for _halving in range(MAX_HALVINGS + 1):
            wn = w + lam * step
            fn = g(wn)
            fnew = float(np.abs(fn).max())
            if fnew < fnorm or fnew <= opts.tol:
                break
            lam *= 0.5
        else:
            raise NoConvergence(
                f"Newton stalled at ||f|| = {fnorm:.3e} after "
                f"{MAX_HALVINGS} halvings"
            )
        w, fx, fnorm = wn, fn, fnew


# ---------------------------------------------------------------------------
# Special functions
# ---------------------------------------------------------------------------


# Stirling series of log Gamma: B_2k / (2k (2k - 1)) for k = 1..8.  Once
# Re z >= LOG_GAMMA_SHIFT the first omitted term is below 1e-17.
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400,
)
LOG_GAMMA_SHIFT = 10.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
MAX_Q_TERMS = 1_000_000
_Q_BUDGET = 4096  # elements of one q-Pochhammer broadcast temporary


def scalar_or_array(out: np.ndarray):
    """A 0-d result as a Python scalar, any other as the array."""
    return out.item() if out.ndim == 0 else out


def gamma_poles(z) -> np.ndarray:
    """Mask of the entries of z that are poles of Gamma (0, -1, -2, ...)."""
    z = np.asarray(z, dtype=complex)
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))


def log_gamma(z):
    """Principal branch of log Gamma(z), elementwise.

    Arguments are shifted up by n = ceil(LOG_GAMMA_SHIFT - Re z) where that
    is positive, evaluated by the Stirling series, and the shift is undone
    by subtracting sum_{k<n} log(z + k).  That sum of principal logarithms
    is analytic on C minus (-inf, 0], so the result is the principal branch
    there (Hare, J. Algorithms 25 (1997) 221); on the cut itself it is the
    limit from Im z = +0 (or -0, following the sign of the zero).
    A scalar argument gives a Python complex.
    """
    z = np.asarray(z, dtype=complex)
    poles = gamma_poles(z)
    if poles.any():
        raise PoleOfGamma(f"log-gamma pole at z = {z[poles].flat[0].real:g}")
    shift = np.ceil(np.maximum(LOG_GAMMA_SHIFT - z.real, 0.0))
    w = z + shift
    inv = 1.0 / w
    inv2 = inv * inv
    series = np.zeros_like(w)
    for c in reversed(_STIRLING):
        series = series * inv2 + c
    out = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + series * inv
    n_max = int(shift.max(initial=0.0))
    if n_max:
        k = np.arange(n_max)
        logs = np.log(z[..., None] + k)
        out = out - np.where(k < shift[..., None], logs, 0.0).sum(axis=-1)
    return scalar_or_array(out)


def q_pochhammer_inf(a, q: float):
    """(a; q)_infinity = prod_{n >= 0} (1 - a q^n), elementwise over a.

    The product is truncated once max|a| q^n < 1e-17; the term count is
    fixed up front from max|a| and q, and the factors are multiplied as one
    broadcast over (a, n), in blocks of terms sized so that each broadcast
    temporary holds at most _Q_BUDGET elements (one term per block once
    a.size exceeds it).  Requires 0 < q < 1 and |a| <= 1/q; the boundary
    |a| = 1/q is admitted because half-step shifts of unit-modulus
    arguments land exactly there.  A scalar argument gives a Python
    complex.
    """
    if not (0.0 < q < 1.0):
        raise DivergentProduct(f"q = {q!r} outside (0, 1)")
    a = np.asarray(a, dtype=complex)
    a_max = float(np.abs(a).max(initial=0.0))
    if a_max > (1.0 + 1e-9) / q:
        raise DivergentProduct(f"|a| = {a_max:.6g} exceeds 1/q = {1.0 / q:.6g}")
    terms = math.ceil(math.log(1e-17 / a_max) / math.log(q)) if a_max >= 1e-17 else 0
    if terms > MAX_Q_TERMS:
        raise DivergentProduct(f"q-Pochhammer needs {terms} factors at q = {q!r}")
    out = np.ones_like(a)
    block = max(1, _Q_BUDGET // max(a.size, 1))
    for start in range(0, terms, block):
        powers = q ** np.arange(start, min(start + block, terms), dtype=float)
        out = out * np.prod(1.0 - a[..., None] * powers, axis=-1)
    return scalar_or_array(out)
