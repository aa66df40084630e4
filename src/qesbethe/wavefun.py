"""Pseudo-ground-state evaluation and pointwise residual checks.

Only the *square* of the pseudo ground state is ever computed, as the exp
of its log: a sum of log-gamma terms for the shift-by-i families, of logs
of q-Pochhammer symbols for the trigonometric one.  Working with the
square removes every square-root branch decision while still validating
the factorized structure of the Hamiltonian through the zero-mode identity

    V*(x - s/2) phi0^2(x - s/2) = V(x + s/2) phi0^2(x + s/2),

s the step of H~ (``models.step``): i, or i ln q in the trigonometric case.
V, V* = V-bar(-x) and the factors of phi0^2 come from ``models.Potential``.

The Schroedinger residual below re-evaluates H~ Psi / Psi pointwise from
the roots through ``models.shift_ratios``, as the eigenvalue does, with no
polynomial algebra involved; it is an intentionally independent code path
from the matrix construction, so that a common-mode bug in one of them
cannot hide in both.

Every check takes an array of points (a scalar works too) and evaluates
them in one batch: all Gamma (or q-Pochhammer) arguments of a call go
through a single kernel call.  The Schroedinger check takes all of a
model's solutions at once: V, V* and alpha_M are evaluated once per call,
and the shift ratios once per root count.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bethe import BetheSolution
from .errors import PoleOfGamma, PoleOfPotential, QesError
from .models import (
    ModelSpec,
    Potential,
    compensation_alpha,
    eta,
    potential_v,
    potential_v_star,
    shift_ratios,
    step,
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


def _log_potential(v: Potential, at: np.ndarray, y: np.ndarray, x: np.ndarray, name: str):
    """log of ``v`` at ``at`` (z = e^{i at} for trig-q), which is ``name`` (V
    or V*) at y, as a sum of logs of linear factors; 2 pi i ambiguities
    cancel once the difference of two such logs is exponentiated."""
    t = np.exp(1j * at) if v.trigonometric else at
    factors = v.factors_at(t)
    _raise_at(PoleOfPotential, (factors == 0).any(axis=0), y, x, f"{name} numerator factor vanishes")
    out = cmath.log(v.lead) + np.log(factors).sum(axis=0)
    if v.denominator is not None:
        den = v.denominator_at(t)
        _raise_at(PoleOfPotential, np.abs(den) < EPS, y, x, f"{name} pole")
        out = out - np.log(den)
    return out


def _log_phi0_squared(spec: ModelSpec, x: np.ndarray, shifts: tuple[complex, ...]) -> np.ndarray:
    """log phi0^2 at x + s for each shift s, shape (len(shifts), x.size), all
    its q-Pochhammer (or Gamma) arguments in one call: for trig-q (z^2; q)
    (z^-2; q) over (p z; q)(p / z; q) per factor 1 - p z of V, z = e^{iy};
    else Gamma of V's linear factors at y and V-bar's at -y over Gamma of the
    kinematic 2iy and -2iy.  The lead u of V (e^{-i beta} for mp-crossed)
    fixes the linear term c y: a factor e^{c y} of phi0^2 turns the zero-mode
    identity's ratio V* phi0^2 / V phi0^2 by e^{-i c}, which must cancel
    conj(u) / u, so c = -2 arg u (= 2 beta)."""
    v = spec.potential
    y = np.stack([x + s for s in shifts])
    if spec.chart.trigonometric:
        z, p = np.exp(1j * y), np.asarray(v.constants, dtype=complex)[:, None, None]
        args = np.concatenate([[z * z, 1.0 / (z * z)], p * z, p / z])
        poch = q_pochhammer_inf(args, spec.real_param("q"))
        _raise_at(QesError, (np.abs(poch[2:]) < EPS).any(axis=0), z, x, "phi0^2 pole")
        with np.errstate(divide="ignore"):  # phi0^2 = 0 at z^2 = 1
            return np.log(poch[0]) + np.log(poch[1]) - np.log(poch[2:]).sum(axis=0)
    parts = [v.factors_at(y), v.bar.factors_at(-y)]
    if v.denominator is not None:
        iy = 1j * y
        parts += [2.0 * iy[None], -2.0 * iy[None]]
    args = np.concatenate(parts)
    _raise_at(PoleOfGamma, gamma_poles(args), args, x, "phi0^2 meets a Gamma pole")
    terms = log_gamma(args)
    n = 2 * len(v.constants)
    out = terms[:n].sum(axis=0) - terms[n:].sum(axis=0)
    return out - 2.0 * cmath.phase(v.lead) * y


def phi0_squared(spec: ModelSpec, x):
    """Square of the pseudo ground state at x (a point or an array)."""
    return _shaped(np.exp(_log_phi0_squared(spec, _points(x), (0.0,))[0]), x)


def zero_mode_residual(spec: ModelSpec, x):
    """Relative violation |delta - 1| / max(1, |delta|) of the squared
    zero-mode identity at x (a point or an array), delta = V* phi0^2 at
    x - s/2 over V phi0^2 at x + s/2, formed in log space so that
    overflow-scale Gamma or q-Pochhammer products cancel before exp."""
    pts = _points(x)
    half = step(spec) / 2
    minus, plus = pts - half, pts + half
    log_v_star = _log_potential(spec.potential.bar, -minus, minus, pts, "V*")
    log_v = _log_potential(spec.potential, plus, plus, pts, "V")
    log_phi = _log_phi0_squared(spec, pts, (-half, half))
    delta = np.exp((log_v_star + log_phi[0]) - (log_v + log_phi[1]))
    return _shaped(np.abs(delta - 1.0) / np.maximum(1.0, np.abs(delta)), x)


def _polynomial_part(spec: ModelSpec, roots_eta: Sequence[complex], pts: np.ndarray) -> np.ndarray:
    """Psi from the roots at the points ``pts``."""
    out = np.prod(np.asarray(eta(spec, pts))[..., None] - np.asarray(roots_eta), axis=-1)
    return out * pts if spec.chart.odd else out


def eigenfunction_value(spec: ModelSpec, sol: BetheSolution, x):
    """Polynomial part Psi(x) = prod (eta(x) - eta_l), times x in the odd
    sextic sector, evaluated from the Bethe roots at a point or an array."""
    pts = np.asarray(x, dtype=complex)
    return scalar_or_array(_polynomial_part(spec, sol.roots.roots_eta, pts))


def schrodinger_residual(spec: ModelSpec, solutions: Sequence[BetheSolution], x) -> list:
    """Pointwise |H~ Psi - E Psi| over the largest of its terms, Psi(x)
    divided out, at x (a point or an array) for each of a model's solutions,
    each in the shape of x: |V rho- + V* rho+ + alpha_M - E| / max(|V rho-|,
    |V* rho+|, |alpha_M|, |E|), rho-+ = Psi(x -+ s)/Psi(x) - 1 from
    ``models.shift_ratios``.  Where Psi(x) = 0, alpha_M and E drop out."""
    pts = _points(x)
    v = potential_v(spec, pts)
    vs = potential_v_star(spec, pts)
    alpha = compensation_alpha(spec, pts)
    groups: dict = {}  # solutions with as many roots go through one call
    for k, sol in enumerate(solutions):
        groups.setdefault(len(sol.roots), []).append(k)
    out: list = [None] * len(solutions)
    for members in groups.values():
        roots = np.reshape([solutions[k].roots.roots_eta for k in members], (len(members), 1, -1))
        energy = np.reshape([solutions[k].E_formula for k in members], (-1, 1))
        r_minus, r_plus, at_x = shift_ratios(spec, pts, roots)
        terms = np.stack([v * r_minus, vs * r_plus, alpha * at_x, -energy * at_x])
        scale = np.maximum(np.abs(terms).max(axis=0), EPS)
        for k, residual in zip(members, np.abs(terms.sum(axis=0)) / scale):
            out[k] = _shaped(residual, x)
    return out


def grid_rows(spec: ModelSpec, sol: BetheSolution, grid: GridSpec) -> list[dict]:
    """CSV-ready rows keyed by ``GRID_COLUMNS``: point, phi0^2, Psi and the
    pointwise residual."""
    pts = np.asarray(grid.points, dtype=complex)
    columns = zip(
        grid.points,
        phi0_squared(spec, pts).tolist(),
        eigenfunction_value(spec, sol, pts).tolist(),
        schrodinger_residual(spec, [sol], pts)[0].tolist(),
    )
    return [
        dict(zip(GRID_COLUMNS, (x.real, x.imag, p2.real, p2.imag, psi.real, psi.imag, res)))
        for x, p2, psi, res in columns
    ]
