"""Pseudo-ground-state evaluation and pointwise residual checks.

Only the *square* of the pseudo ground state is ever computed: products of
Gamma functions via exp(sum log-gamma) for the shift-by-i families, ratios
of q-Pochhammer symbols for the trigonometric one.  Working with the square
removes every square-root branch decision while still validating the
factorized structure of the Hamiltonian through the zero-mode identity

    V*(x - s/2) phi0^2(x - s/2) = V(x + s/2) phi0^2(x + s/2),

s the step of H~ (``models.step``): i, or i ln q in the trigonometric case.

The Schroedinger residual below re-evaluates the transformed Hamiltonian
pointwise, shift by shift, with no polynomial algebra involved; it is an
intentionally independent code path from the matrix construction, so that
a common-mode bug in one of them cannot hide in both.

Every check takes an array of points (a scalar works too) and evaluates
them in one batch: all Gamma (or q-Pochhammer) arguments of a call go
through a single kernel call, and the shifted wavefunctions are one product
over (points x roots).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bethe import BetheSolution
from .errors import PoleOfGamma, PoleOfPotential, QesError
from .models import (
    Coordinate,
    ModelSpec,
    Sector,
    compensation_alpha,
    eta,
    numerator_constants,
    potential_v,
    potential_v_star,
    step,
    v_phase,
)
from .numerics import gamma_poles, log_gamma, q_pochhammer_inf, scalar_or_array

EPS = 1e-300
GRID_COLUMNS = ("x_re", "x_im", "phi0sq_re", "phi0sq_im", "psi_re", "psi_im", "residual")


@dataclass(frozen=True)
class GridSpec:
    """Sample points for pointwise checks, kept clear of potential poles."""

    points: tuple[complex, ...]


def default_grid(spec: ModelSpec, n: int = 20) -> GridSpec:
    """Deterministic admissible grid honoring the family's domain:
    the half line Re x > 0 for the centrifugal families, (0, pi) for the
    trigonometric one, a symmetric real window otherwise."""
    if n < 1:
        raise ValueError(f"a grid needs at least one point, got n = {n}")
    lo, hi = spec.info.grid_window
    pts = tuple(complex(lo + (hi - lo) * k / (n - 1)) for k in range(n)) if n > 1 else (complex(lo),)
    return GridSpec(pts)


def _points(x) -> np.ndarray:
    """The points of x as a flat complex array."""
    return np.asarray(x, dtype=complex).ravel()


def _shaped(values: np.ndarray, x):
    """Values at the flattened points of x, back in the shape of x (a
    Python scalar for a scalar x)."""
    return scalar_or_array(values.reshape(np.shape(x)))


def _raise_at(error: type, bad: np.ndarray, arg: np.ndarray, x: np.ndarray, what: str) -> None:
    """Raise ``error`` naming the first bad argument and its grid point;
    ``bad`` and ``arg`` have the points along their last axis."""
    if bad.any():
        k = tuple(np.argwhere(bad)[0])
        raise error(f"{what} at {arg[k]} (grid point x = {x[k[-1]]})")


def _log_potential(spec: ModelSpec, x: np.ndarray, shift: complex, conjugated: bool) -> np.ndarray:
    """log V(x + shift), or log V*(x + shift), as a sum of logs of linear
    factors; 2 pi i ambiguities cancel once the difference of two such logs
    is exponentiated."""
    name = "V*" if conjugated else "V"
    y = x + shift
    p = np.asarray(numerator_constants(spec), dtype=complex)[:, None]
    factors = p.conj() - 1j * y if conjugated else p + 1j * y
    _raise_at(PoleOfPotential, (factors == 0).any(axis=0), y, x, f"{name} numerator factor vanishes")
    phase = v_phase(spec)
    out = cmath.log(phase.conjugate() if conjugated else phase) + np.log(factors).sum(axis=0)
    if spec.info.kinematic_denominator:
        t = -2j * y if conjugated else 2j * y
        den = t * (t + 1.0)
        _raise_at(PoleOfPotential, np.abs(den) < EPS, y, x, f"{name} pole")
        out = out - np.log(den)
    return out


def _log_phi0_squared_x(spec: ModelSpec, x: np.ndarray, shifts: tuple[complex, ...]) -> np.ndarray:
    """log phi0^2 at x + s for each shift s, shape (len(shifts), x.size);
    every Gamma argument of the call goes through one log_gamma call.

    The phase u of V (``models.v_phase``; e^{-i beta} for the crossed
    family, 1 otherwise) fixes the linear term c y: a factor e^{c y} of
    phi0^2 turns the zero-mode identity's ratio V* phi0^2 / V phi0^2 by
    e^{-i c}, which must cancel the phases' ratio conj(u) / u, so
    c = -2 arg u (= 2 beta)."""
    p = np.asarray(numerator_constants(spec), dtype=complex)[:, None, None]
    y = np.stack([x + s for s in shifts])
    iy = 1j * y
    parts = [p + iy, p.conj() - iy]
    if spec.info.kinematic_denominator:
        parts += [2.0 * iy[None], -2.0 * iy[None]]
    args = np.concatenate(parts)
    _raise_at(PoleOfGamma, gamma_poles(args), args, x, "phi0^2 meets a Gamma pole")
    terms = log_gamma(args)
    n = 2 * len(p)
    out = terms[:n].sum(axis=0) - terms[n:].sum(axis=0)
    return out - 2.0 * cmath.phase(v_phase(spec)) * y


def phi0_squared(spec: ModelSpec, x):
    """Square of the pseudo ground state at x (a point or an array)."""
    pts = _points(x)
    if spec.info.coordinate is Coordinate.COS:
        return _shaped(phi0_squared_z(spec, np.exp(1j * pts)), x)
    return _shaped(np.exp(_log_phi0_squared_x(spec, pts, (0.0,))[0]), x)


def zero_mode_residual(spec: ModelSpec, x):
    """Relative violation of the squared zero-mode identity at x (a point
    or an array).

    Both sides are combined in log space, so overflow-scale Gamma products
    cancel before exponentiation.
    """
    pts = _points(x)
    half = step(spec) / 2
    if spec.info.coordinate is Coordinate.COS:
        minus, plus = pts - half, pts + half
        phi_minus, phi_plus = phi0_squared_z(spec, np.exp(1j * np.stack([minus, plus])))
        lhs = potential_v_star(spec, minus) * phi_minus
        rhs = potential_v(spec, plus) * phi_plus
        res = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), EPS)
        return _shaped(res, x)
    log_v_star = _log_potential(spec, pts, -half, conjugated=True)
    log_v = _log_potential(spec, pts, half, conjugated=False)
    log_phi = _log_phi0_squared_x(spec, pts, (-half, half))
    delta = np.exp((log_v_star + log_phi[0]) - (log_v + log_phi[1]))
    return _shaped(np.abs(delta - 1.0) / np.maximum(1.0, np.abs(delta)), x)


def phi0_squared_z(spec: ModelSpec, z):
    """Trigonometric phi0^2 directly in the z variable (|z| need not be 1),
    at a point or an array of them; every q-Pochhammer argument goes
    through one q_pochhammer_inf call."""
    q = spec.real_param("q")
    w = np.asarray(z, dtype=complex)
    p = np.asarray(numerator_constants(spec), dtype=complex).reshape((-1,) + (1,) * w.ndim)
    w2 = w * w
    poch = q_pochhammer_inf(np.concatenate([[w2, 1.0 / w2], p * w, p / w]), q)
    num = poch[0] * poch[1]
    den = np.prod(poch[2:], axis=0)
    small = np.abs(den) < EPS
    if small.any():
        raise QesError(f"pseudo-ground-state denominator vanished at z = {w[small].flat[0]}")
    return scalar_or_array(num / den)


def eigenfunction_value(spec: ModelSpec, sol: BetheSolution, x):
    """Polynomial part Psi(x) = prod (eta(x) - eta_l), times x in the odd
    sextic sector, evaluated from the Bethe roots at a point or an array."""
    pts = np.asarray(x, dtype=complex)
    roots = np.asarray(sol.roots.roots_eta, dtype=complex)
    out = np.prod(np.asarray(eta(spec, pts))[..., None] - roots, axis=-1)
    if spec.sector is Sector.ODD:
        out = out * pts
    return scalar_or_array(out)


def schrodinger_residual(spec: ModelSpec, sol: BetheSolution, x):
    """Pointwise |H~ Psi - E Psi| / scale at x (a point or an array), by
    direct evaluation of the shifted wavefunction (independent of the
    matrix construction)."""
    pts = _points(x)
    s = step(spec)
    psi, psi_m, psi_p = eigenfunction_value(spec, sol, np.stack([pts, pts - s, pts + s]))
    v = potential_v(spec, pts)
    vs = potential_v_star(spec, pts)
    t1 = v * (psi_m - psi)
    t2 = vs * (psi_p - psi)
    t3 = compensation_alpha(spec, pts) * psi
    lhs = t1 + t2 + t3
    rhs = sol.E_formula * psi
    scale = np.maximum(np.abs(np.stack([rhs, t1, t2, t3])).max(axis=0), EPS)
    return _shaped(np.abs(lhs - rhs) / scale, x)


def grid_rows(spec: ModelSpec, sol: BetheSolution, grid: GridSpec) -> list[dict]:
    """CSV-ready rows keyed by ``GRID_COLUMNS``: point, phi0^2, Psi and the
    pointwise residual."""
    pts = np.asarray(grid.points, dtype=complex)
    columns = zip(
        grid.points,
        phi0_squared(spec, pts).tolist(),
        eigenfunction_value(spec, sol, pts).tolist(),
        schrodinger_residual(spec, sol, pts).tolist(),
    )
    return [
        dict(zip(GRID_COLUMNS, (x.real, x.imag, p2.real, p2.imag, psi.real, psi.imag, res)))
        for x, p2, psi, res in columns
    ]
