"""Continuation seeding: solve the Bethe equations by tracking root sets
from an exactly solvable parameter point, without using the deformed
model's oracle eigenvectors.

Supported paths:

* crossed Meixner-Pollaczek family, continuation in beta from 0;
* trigonometric family, continuation in the deformation parameter a from 0.

At the start point the degree-m eigenfunction carries only m finite roots;
the remaining M - m roots of the deformed state sit at infinity.  For the
crossed family the first-order balance of the Bethe equations puts those
escaped roots at x ~ -u/(2 beta) with u running over the zeros of a
generalized Laguerre polynomial of degree M - m and parameter
2m + 2 Re(a1 + a2) - 1, which seeds the first continuation step exactly.
The trigonometric escaped roots are seeded on a geometric q-ladder
z ~ -(abcde) q^{2m + 2k}.

Each leg takes CONTINUATION_STEPS equal steps in the continuation
parameter.  Every step is a Newton correction that starts from the last
step's Jacobian, rescaled to the new relative units, and holds it while
||f|| keeps at least halving (simplified Newton, ``numerics.newton_solve``);
a fresh finite-difference Jacobian is built only when it does not.

Start states come from the same oracle and root extraction as every other
solve: ``oracle_spectrum`` of the start model's matrix, whose graded branch
gives each exactly solvable state its true degree m, then ``extract_roots``.
A start spectrum the oracle flags degenerate seeds no leg at all.

A leg that fails anywhere (roots of its start eigenpolynomial, a Newton
correction, the eigenvalue formula) or lands on no oracle eigenvalue is
dropped on its own; the caller seeds that state from the oracle instead.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from .bethe import eigenvalue_from_roots, residual_map, trig_far_ladder
from .errors import QesError
from .hamiltonian import build_matrix
from .models import Coordinate, ModelSpec
from .numerics import NewtonOptions, newton_solve
from .spectral import (
    OracleEigenpair,
    RootSet,
    extract_roots,
    native_values,
    oracle_spectrum,
    root_set,
)

CONTINUATION_STEPS = 12
STEP_TOL = 1e-10


def _continued(spec: ModelSpec, value: float) -> ModelSpec:
    """The model with its continuation parameter set to ``value``."""
    return dc_replace(spec, params={**spec.params, spec.info.continuation: value})


def _far_seeds(spec: ModelSpec, m: int, t1: float) -> list[complex]:
    """First-step positions of the M - m roots that the degree-m start
    state has at infinity, for the continuation parameter at t1."""
    n = spec.M - m
    if n == 0:
        return []
    if spec.info.coordinate is Coordinate.COS:
        return trig_far_ladder(_continued(spec, t1), list(range(m, spec.M)))
    sum_re = 2.0 * (spec.param("a1").real + spec.param("a2").real)
    alpha = 2.0 * m + sum_re - 1.0
    return [complex(-u / (2.0 * t1)) for u in laguerre_nodes(n, alpha)]


def laguerre_nodes(n: int, alpha: float) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_n^(alpha), alpha > -1,
    ascending: eigenvalues of its symmetric tridiagonal Jacobi matrix
    (Golub & Welsch, Math. Comp. 23 (1969) 221)."""
    k = np.arange(n)
    jacobi = np.diag(2.0 * k + alpha + 1.0)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    return np.linalg.eigvalsh(jacobi + np.diag(off, 1) + np.diag(off, -1))


def _step_newton(
    spec: ModelSpec, native: np.ndarray, tol: float, jacobian: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray | None]:
    """One continuation step: Newton-correct ``native`` onto the Bethe
    equations of ``spec``, in units relative to ``native``.

    ``jacobian`` is the previous step's final Jacobian in the native
    variables (None on a leg's first step); it is rescaled to this step's
    units and held by simplified Newton.  Returns the corrected variables
    and this step's final Jacobian, again in the native variables.
    """
    g = residual_map(spec)
    units = np.where(np.abs(native) > 1e-250, np.abs(native), 1.0)
    report = newton_solve(
        lambda t: g(native + units * t),
        np.zeros_like(native),
        NewtonOptions(tol=tol, max_iter=60),
        jacobian=None if jacobian is None else jacobian * units,
    )
    return native + units * report.x, (
        None if report.jacobian is None else report.jacobian / units
    )


def _continuation_leg(
    spec: ModelSpec, start: ModelSpec, pair: OracleEigenpair, target: float
) -> np.ndarray:
    """Native Bethe variables of the deformed state that continues the
    start eigenpair ``pair``; raises QesError when the leg fails."""
    m = pair.degree
    native = native_values(spec, extract_roots(pair, start, expected=m))
    if target == 0.0:
        return native
    far = _far_seeds(spec, m, target / CONTINUATION_STEPS)
    native = np.asarray(list(native) + far, dtype=complex)
    jacobian = None
    for k in range(CONTINUATION_STEPS):
        spec_t = _continued(spec, (k + 1) / CONTINUATION_STEPS * target)
        tol = STEP_TOL if k + 1 < CONTINUATION_STEPS else 0.1 * STEP_TOL
        native, jacobian = _step_newton(spec_t, native, tol, jacobian)
    return native


def homotopy_root_sets(
    spec: ModelSpec, oracle_eigenvalues: list[complex]
) -> dict[int, RootSet]:
    """Root sets obtained by continuation, keyed by the index of the oracle
    eigenvalue each one reproduces.  States whose continuation fails, from
    the start roots on, are left out."""
    if spec.info.continuation is None:
        return {}
    target = spec.real_param(spec.info.continuation)
    start = _continued(spec, 0.0)
    try:
        states = oracle_spectrum(build_matrix(start))
    except QesError:
        return {}
    if any(pair.degenerate for pair in states):
        return {}
    out: dict[int, RootSet] = {}
    taken: dict[int, float] = {}
    for pair in states:
        try:
            roots = root_set(spec, _continuation_leg(spec, start, pair, target))
            e_val = eigenvalue_from_roots(spec, roots)
        except (ValueError, QesError):
            continue
        gaps = [abs(e_val - ev) for ev in oracle_eigenvalues]
        idx = int(np.argmin(gaps))
        # a leg may land on a Bethe configuration not realized by this
        # state (the equations admit more solutions than the spectrum);
        # only keep legs that reproduce an oracle eigenvalue
        if gaps[idx] > 1e-6 * max(1.0, abs(e_val)):
            continue
        if idx in taken and taken[idx] <= gaps[idx]:
            continue
        out[idx] = roots
        taken[idx] = gaps[idx]
    return out
