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
parameter t.  Every root has a leading-order law: 1 for the near roots and
``_far_seeds`` for the escaped ones (x ~ 1/beta for the crossed family,
z ~ a for the trigonometric one).  The predictor works on each root's
ratio to its law: the second step starts every root at the ratio the first
step ended with, and every later step extrapolates the ratio linearly in t
from the last two steps (the steps are equal), an error second order in
the step length.  The corrector is one ``numerics.newton_solve`` call on
``bethe.residual_map`` of the step's model, in coordinates relative to the
predicted roots, started from the last step's Jacobian: that Jacobian is
inverted once, the inverse is held while ||f|| keeps at least halving and
is refined after each held step by Broyden's rank-one update, and a fresh
finite-difference Jacobian is built only when a held step fails to halve
||f||.  The steps before the last are corrected only to INTERMEDIATE_TOL,
far below the predictor's error; the last one is corrected to
0.1 * STEP_TOL.

Start states come from the same oracle and root extraction as every other
solve: ``oracle_spectrum`` of the start model's matrix, whose graded branch
gives each exactly solvable state its true degree m, then ``extract_roots``.
A start spectrum the oracle flags degenerate seeds no leg at all.

A leg that fails anywhere (roots of its start eigenpolynomial, escaped
roots that the leading-order law puts at 0, a Newton correction, the
eigenvalue formula) or lands on no oracle eigenvalue is dropped on its
own; the caller seeds that state from the oracle instead.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np

from .bethe import eigenvalue_from_roots, residual_map, trig_far_ladder
from .errors import DegenerateRoots, QesError
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
STEP_TOL = 1e-10  # a leg's last step is corrected to 0.1 * STEP_TOL
INTERMEDIATE_TOL = 1e-6  # every earlier step: well below the predictor's error


def _continued(spec: ModelSpec, value: float) -> ModelSpec:
    """The model with its continuation parameter set to ``value``."""
    return dc_replace(spec, params={**spec.params, spec.info.continuation: value})


def _far_seeds(spec: ModelSpec, m: int, t: float) -> list[complex]:
    """Leading-order positions, at the continuation parameter t, of the
    M - m roots that the degree-m start state has at infinity: x ~ -u/(2t)
    for the crossed family, z ~ -(abcde) q^(2k) with a = t for the
    trigonometric one.  This is the one home of the escaped-root law; it
    seeds a leg's first step and predicts every later one."""
    n = spec.M - m
    if n == 0:
        return []
    if spec.info.coordinate is Coordinate.COS:
        return trig_far_ladder(_continued(spec, t), list(range(m, spec.M)))
    sum_re = 2.0 * (spec.param("a1").real + spec.param("a2").real)
    alpha = 2.0 * m + sum_re - 1.0
    return [complex(-u / (2.0 * t)) for u in laguerre_nodes(n, alpha)]


def laguerre_nodes(n: int, alpha: float) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_n^(alpha), alpha > -1,
    ascending: eigenvalues of its symmetric tridiagonal Jacobi matrix
    (Golub & Welsch, Math. Comp. 23 (1969) 221)."""
    k = np.arange(n)
    jacobi = np.diag(2.0 * k + alpha + 1.0)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    return np.linalg.eigvalsh(jacobi + np.diag(off, 1) + np.diag(off, -1))


def _continuation_leg(
    spec: ModelSpec, start: ModelSpec, pair: OracleEigenpair, target: float
) -> np.ndarray:
    """Native Bethe variables of the deformed state that continues the
    start eigenpair ``pair``; raises QesError when the leg fails."""
    m = pair.degree
    native = native_values(spec, extract_roots(pair, start, expected=m))
    if target == 0.0:
        return native
    ts = [(k + 1) / CONTINUATION_STEPS * target for k in range(CONTINUATION_STEPS)]
    far = np.array([_far_seeds(spec, m, t) for t in ts], dtype=complex)
    if not far.all():
        raise DegenerateRoots(
            f"the leading-order law puts escaped roots of the degree-{m} start state at 0"
        )
    # every root's leading-order law: 1 for the near roots, _far_seeds for
    # the escaped ones; the predictor extrapolates each root's ratio to it
    law = np.ones((CONTINUATION_STEPS, spec.M), dtype=complex)
    law[:, m:] = far
    native = np.concatenate([native, far[0]])
    r_prev = r_last = None
    jacobian = None
    for k, t in enumerate(ts):
        if k:
            # linear in t, since the steps are equal; the second step has
            # one ratio to go on and just follows the law
            r = r_last if k == 1 else 2.0 * r_last - r_prev
            native = law[k] * r
        tol = INTERMEDIATE_TOL if k + 1 < CONTINUATION_STEPS else 0.1 * STEP_TOL
        report = newton_solve(
            residual_map(_continued(spec, t)),
            native,
            NewtonOptions(tol=tol, max_iter=60),
            jacobian,
        )
        native, jacobian = report.x, report.jacobian
        r_prev, r_last = r_last, native / law[k]
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
