"""Pseudo-ground-state evaluation and pointwise residual checks.

Only the *square* of the pseudo ground state is ever computed: products of
Gamma functions via exp(sum log-gamma) for the shift-by-i families, ratios
of q-Pochhammer symbols for the trigonometric one.  Working with the square
removes every square-root branch decision while still validating the
factorized structure of the Hamiltonian through the zero-mode identity

    V*(x - i/2) phi0^2(x - i/2) = V(x + i/2) phi0^2(x + i/2)

(with half q-steps z -> q^(+-1/2) z in the trigonometric case).

The Schroedinger residual below re-evaluates the transformed Hamiltonian
pointwise, shift by shift, with no polynomial algebra involved; it is an
intentionally independent code path from the matrix construction, so that
a common-mode bug in one of them cannot hide in both.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .bethe import BetheSolution
from .errors import PoleOfPotential, QesError
from .models import (
    Coordinate,
    ModelFamily,
    ModelSpec,
    Sector,
    compensation_alpha,
    eta,
    numerator_constants,
    potential_v,
    potential_v_star,
    potential_v_star_z,
    potential_v_z,
    v_phase,
)
from .numerics import log_gamma, q_pochhammer_inf

EPS = 1e-300


@dataclass(frozen=True)
class GridSpec:
    """Sample points for pointwise checks, kept clear of potential poles."""

    points: tuple[complex, ...]


def default_grid(spec: ModelSpec, n: int = 20) -> GridSpec:
    """Deterministic admissible grid honoring the family's domain:
    the half line Re x > 0 for the centrifugal families, (0, pi) for the
    trigonometric one, a symmetric real window otherwise."""
    lo, hi = spec.info.grid_window
    pts = tuple(complex(lo + (hi - lo) * k / (n - 1)) for k in range(n)) if n > 1 else (complex(lo),)
    return GridSpec(pts)


def _log_linear_factors(spec: ModelSpec, x: complex, conjugated: bool) -> complex:
    """log of the numerator of V (or V*) as a sum of logs of linear factors;
    2 pi i ambiguities cancel once the difference of two such logs is
    exponentiated."""
    out = cmath.log(v_phase(spec).conjugate() if conjugated else v_phase(spec))
    for p in numerator_constants(spec):
        term = (p.conjugate() - 1j * x) if conjugated else (p + 1j * x)
        if term == 0:
            raise PoleOfPotential(f"numerator factor vanishes at x = {x}")
        out += cmath.log(term)
    return out


def _log_phi0_squared_x(spec: ModelSpec, x: complex) -> complex:
    fam = spec.family
    out = 0j
    if fam is ModelFamily.MP_CROSSED:
        beta = spec.real_param("beta")
        out += 2.0 * beta * x
        for p in numerator_constants(spec):
            out += log_gamma(p + 1j * x) + log_gamma(p.conjugate() - 1j * x)
        return out
    for p in numerator_constants(spec):
        out += log_gamma(p + 1j * x) + log_gamma(p - 1j * x)
    if spec.info.kinematic_denominator:
        out -= log_gamma(2j * x) + log_gamma(-2j * x)
    return out


def phi0_squared(spec: ModelSpec, x: complex) -> complex:
    """Square of the pseudo ground state at x."""
    x = complex(x)
    if spec.info.coordinate is Coordinate.COS:
        return phi0_squared_z(spec, cmath.exp(1j * x))
    return cmath.exp(_log_phi0_squared_x(spec, x))


def zero_mode_residual(spec: ModelSpec, x: complex) -> float:
    """Relative violation of the squared zero-mode identity at x.

    Both sides are combined in log space, so overflow-scale Gamma products
    cancel before exponentiation.
    """
    x = complex(x)
    if spec.info.coordinate is Coordinate.COS:
        q = spec.real_param("q")
        z = cmath.exp(1j * x)
        sq = math.sqrt(q)
        lhs = potential_v_star_z(spec, sq * z) * phi0_squared_z(spec, sq * z)
        rhs = potential_v_z(spec, z / sq) * phi0_squared_z(spec, z / sq)
        return abs(lhs - rhs) / max(abs(lhs), abs(rhs), EPS)
    xm = x - 0.5j
    xp = x + 0.5j
    w_lhs = _log_v_star(spec, xm) + _log_phi0_squared_x(spec, xm)
    w_rhs = _log_v(spec, xp) + _log_phi0_squared_x(spec, xp)
    delta = cmath.exp(w_lhs - w_rhs)
    return abs(delta - 1.0) / max(1.0, abs(delta))


def phi0_squared_z(spec: ModelSpec, z: complex) -> complex:
    """Trigonometric phi0^2 directly in the z variable (|z| need not be 1)."""
    q = spec.real_param("q")
    num = q_pochhammer_inf(z * z, q) * q_pochhammer_inf(1.0 / (z * z), q)
    den = 1.0 + 0j
    for p in numerator_constants(spec):
        den *= q_pochhammer_inf(p * z, q) * q_pochhammer_inf(p / z, q)
    if abs(den) < EPS:
        raise QesError(f"pseudo-ground-state denominator vanished at z = {z}")
    return num / den


def _log_v(spec: ModelSpec, x: complex) -> complex:
    out = _log_linear_factors(spec, x, conjugated=False)
    if spec.info.kinematic_denominator:
        den = 2j * x * (2j * x + 1.0)
        if abs(den) < EPS:
            raise PoleOfPotential(f"V pole at x = {x}")
        out -= cmath.log(den)
    return out


def _log_v_star(spec: ModelSpec, x: complex) -> complex:
    out = _log_linear_factors(spec, x, conjugated=True)
    if spec.info.kinematic_denominator:
        den = -2j * x * (-2j * x + 1.0)
        if abs(den) < EPS:
            raise PoleOfPotential(f"V* pole at x = {x}")
        out -= cmath.log(den)
    return out


def eigenfunction_value(spec: ModelSpec, sol: BetheSolution, x: complex) -> complex:
    """Polynomial part Psi(x) = prod (eta(x) - eta_l), times x in the odd
    sextic sector, evaluated from the Bethe roots."""
    out = 1.0 + 0j
    ex = eta(spec, x)
    for eta_l in sol.roots.roots_eta:
        out *= ex - eta_l
    if spec.sector is Sector.ODD:
        out *= x
    return out


def schrodinger_residual(spec: ModelSpec, sol: BetheSolution, x: complex) -> float:
    """Pointwise |H~ Psi - E Psi| / scale at x, by direct evaluation of the
    shifted wavefunction (independent of the matrix construction)."""
    x = complex(x)
    e_val = sol.E_formula
    psi = eigenfunction_value(spec, sol, x)
    if spec.info.coordinate is Coordinate.COS:
        q = spec.real_param("q")
        z = cmath.exp(1j * x)
        psi_m = _trig_psi_shift(spec, sol, q * z)
        psi_p = _trig_psi_shift(spec, sol, z / q)
        v = potential_v_z(spec, z)
        vs = potential_v_star_z(spec, z)
    else:
        psi_m = eigenfunction_value(spec, sol, x - 1j)
        psi_p = eigenfunction_value(spec, sol, x + 1j)
        v = potential_v(spec, x)
        vs = potential_v_star(spec, x)
    t1 = v * (psi_m - psi)
    t2 = vs * (psi_p - psi)
    t3 = compensation_alpha(spec, x) * psi
    lhs = t1 + t2 + t3
    rhs = e_val * psi
    scale = max(abs(rhs), abs(t1), abs(t2), abs(t3), EPS)
    return abs(lhs - rhs) / scale


def _trig_psi_shift(spec: ModelSpec, sol: BetheSolution, z: complex) -> complex:
    ez = 0.5 * (z + 1.0 / z)
    out = 1.0 + 0j
    for eta_l in sol.roots.roots_eta:
        out *= ez - eta_l
    return out


def grid_rows(spec: ModelSpec, sol: BetheSolution, grid: GridSpec) -> list[dict]:
    """CSV-ready rows: point, phi0^2, Psi and the pointwise residual."""
    rows = []
    for x in grid.points:
        p2 = phi0_squared(spec, x)
        psi = eigenfunction_value(spec, sol, x)
        rows.append(
            {
                "x_re": x.real,
                "x_im": x.imag,
                "phi0sq_re": p2.real,
                "phi0sq_im": p2.imag,
                "psi_re": psi.real,
                "psi_im": psi.imag,
                "residual": schrodinger_residual(spec, sol, x),
            }
        )
    return rows
