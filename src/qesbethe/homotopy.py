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

A leg walks a real path variable t from 0 to its target in steps whose
length is controlled (Allgower & Georg, *Introduction to Numerical
Continuation Methods*, SIAM 2003, ch. 6), each at the continuation
parameter a(t) (``_on_path``): t itself for the crossed family, and for the
trigonometric one a detour through complex a, real again on the target, as
a real leg can end with a root on the fixed point eta = +-1 and a complex
path misses any given point with probability one (the gamma trick:
Sommese & Wampler 2005, ch. 7; Hao, Nepomechie & Sommese, PRE 88 (2013)
052113).  Every root has a leading-order law (``_law``) in a: 1 for the
near roots, x ~ 1/beta for the crossed family's escaped roots and z ~ a
for the trigonometric ones.  The predictor works on each root's ratio to
its law: the first step starts every root on its law, and every later one
extrapolates the ratios by the Lagrange polynomial in t through the last
three accepted steps (fewer at the start).  The corrector is one
``numerics.newton_solve`` call on ``bethe.residual_map`` of the step's
model, in coordinates relative to the predicted roots, started from the
inverse Jacobian the last accepted step ended with, carried in the roots'
law frame: a row of the inverse maps residuals to one root's move, which
scales like that root's law, so its rows are multiplied by
law(a_new) / law(a_old) (1 for the near roots).  That inverse is held, and
refined by Broyden's rank-one update, while ||f|| keeps at least halving
(``numerics.newton_solve``).

The first step is FIRST_STEP of the leg, or 2/M if that is shorter, as
the first step's largest root move grows about like M.  A step is
accepted only if its corrector converges and no root moves, in eta, by
more than MAX_MOVE of its distance to the nearest other predicted root.
A leg's first step leaves the escaped roots out of that test unless
their law is exact at leading order (``_law`` says which): the
trigonometric q-ladder is off by O(q^2) relative at every t.  An
accepted step scales the next step's length by sqrt(MOVE_GOAL / move),
clamped to [0.5, 2] and to at least MIN_STEP of the leg; a rejected one
is retried at half the length, and fails the leg when that is below
MIN_STEP.  The steps before the last are corrected only to
INTERMEDIATE_TOL, far below the predictor's error; the last one, which
ends exactly on the target, to the polish tolerance, 0.1 *
``bethe.POLISH_TARGET``, so the polish of a continuation seed takes no
Newton iteration.

Start states come from the same oracle and root extraction as every other
solve: ``oracle_spectrum`` of the start model's matrix, whose graded branch
gives each exactly solvable state its true degree m, then ``extract_roots``.
A start spectrum the oracle flags degenerate seeds no leg at all.

The caller names the states it wants (all of them, or the oracle mode's
truncated trigonometric ones).  Legs run in ascending start degree, as the
fewer roots a start state has the longer its deformed state's ladder of
escaped roots, and stop as soon as every wanted state has a seed.

A leg that fails anywhere (roots of its start eigenpolynomial, escaped
roots that the leading-order law puts at 0, a step rejected near MIN_STEP,
the eigenvalue formula) or lands on no wanted oracle eigenvalue is dropped on
its own; the caller seeds that state from the oracle instead or, for a
truncated trigonometric state, returns its representable roots unpolished.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import Callable

import numpy as np

from .bethe import POLISH_TARGET, eigenvalue_from_roots, residual_map
from .errors import DegenerateRoots, NoConvergence, QesError
from .hamiltonian import build_matrix
from .models import ModelSpec
from .numerics import NewtonOptions, newton_solve
from .spectral import (
    OracleEigenpair,
    RootSet,
    extract_roots,
    oracle_spectrum,
    root_set,
)

INTERMEDIATE_TOL = 1e-6  # every earlier step: well below the predictor's error
# step-length control, in units of the leg's length |target|
FIRST_STEP = 1 / 8  # up to M = 16; 2/M beyond, as the first move grows like M
MIN_STEP = 1 / 512  # the shortest step; no step is retried below it
MAX_MOVE = 0.25  # largest accepted root move, in nearest-neighbour distances
MOVE_GOAL = 0.05  # the move that the next step's length aims at


def _continued(spec: ModelSpec, value: complex) -> ModelSpec:
    """The model with its continuation parameter set to ``value``."""
    return dc_replace(spec, params={**spec.params, spec.info.continuation: value})


def _on_path(spec: ModelSpec, t: float, target: float) -> complex:
    """The continuation parameter at path variable t: t + i detour |target|
    4 s (1 - s), s = t / target (``FamilyInfo.detour``); t if that is 0."""
    if not spec.info.detour or t == target:
        return t
    s = t / target
    return t + 1j * spec.info.detour * abs(target) * 4.0 * s * (1.0 - s)


def trig_far_ladder(spec: ModelSpec, exponents: list[int]) -> list[complex]:
    """Estimated z-positions of the trigonometric family's far-out roots.

    The weakly-coupled rungs of a deformed state sit near
    z = -(abcde) q^(2k), with k = d, d+1, ..., M-1 for a state that keeps
    d roots finite (the start degree of a continuation leg).
    """
    q = spec.real_param("q")
    prod = math.prod(spec.potential.constants, start=1.0 + 0j)
    return [-prod * q ** (2 * k) for k in exponents]


def _law(spec: ModelSpec, m: int) -> tuple[Callable[[complex], np.ndarray], bool]:
    """Every root's leading-order law as a function of the continuation
    parameter t: 1 for the m near roots of the degree-m start state and,
    for the M - m it has at infinity, x ~ -u/(2t) for the crossed family,
    z ~ -(abcde) q^(2k) with a = t for the trigonometric one; and whether
    the escaped roots' law is exact at leading order, which the Laguerre
    law is and the q-ladder, off by O(q^2) relative, is not.  This is the
    one home of the escaped-root law; it seeds a leg's first step and
    frames every later prediction."""
    near = np.ones(m, dtype=complex)
    if spec.chart.trigonometric:
        ladder = list(range(m, spec.M))
        return lambda t: np.concatenate([near, trig_far_ladder(_continued(spec, t), ladder)]), False
    sum_re = 2.0 * sum(p.real for p in spec.potential.constants)
    nodes = laguerre_nodes(spec.M - m, 2.0 * m + sum_re - 1.0) if m < spec.M else np.zeros(0)
    return lambda t: np.concatenate([near, -nodes / (2.0 * t)]), True


def laguerre_nodes(n: int, alpha: float) -> np.ndarray:
    """Zeros of the generalized Laguerre polynomial L_n^(alpha), alpha > -1,
    ascending: eigenvalues of its symmetric tridiagonal Jacobi matrix
    (Golub & Welsch, Math. Comp. 23 (1969) 221)."""
    k = np.arange(n)
    jacobi = np.diag(2.0 * k + alpha + 1.0)
    off = np.sqrt(k[1:] * (k[1:] + alpha))
    return np.linalg.eigvalsh(jacobi + np.diag(off, 1) + np.diag(off, -1))


def _lagrange_weights(ts: list[float], t: float) -> list[float]:
    """Weights of the values at the points ``ts`` in the Lagrange
    polynomial through them, evaluated at ``t``."""
    return [
        math.prod((t - tk) / (tj - tk) for k, tk in enumerate(ts) if k != j)
        for j, tj in enumerate(ts)
    ]


def _largest_move(spec: ModelSpec, before: np.ndarray, after: np.ndarray, judged: int) -> float:
    """Largest move in eta of the first ``judged`` roots from ``before`` to
    ``after``, each against its distance to the nearest other root before;
    the roots are given in the chart's Newton variable."""
    before, after = spec.chart.eta_of(before), spec.chart.eta_of(after)
    gaps = np.abs(before[:, None] - before)
    np.fill_diagonal(gaps, np.inf)
    moves = np.abs(after - before) / gaps.min(axis=1, initial=np.inf)
    return float(moves[:judged].max(initial=0.0))


def _continuation_leg(
    spec: ModelSpec, start: ModelSpec, pair: OracleEigenpair, target: float
) -> np.ndarray:
    """Native Bethe variables of the deformed state that continues the
    start eigenpair ``pair``; raises QesError when the leg fails."""
    m = pair.degree
    (start_roots,) = extract_roots([pair], start)
    native = np.asarray(spec.chart.newton(start_roots), dtype=complex)
    if target == 0.0 or spec.M == 0:  # nothing to continue
        return native
    law, exact_law = _law(spec, m)
    first_ratio = np.concatenate([native, np.ones(spec.M - m)])
    ts: list[float] = []  # the last three accepted t's, and each root's
    ratios: list[np.ndarray] = []  # ratio to its law there
    done, step, law_t, inverse = 0.0, min(FIRST_STEP, 2.0 / spec.M), None, None  # of target
    while True:
        step = min(step, 1.0 - done)
        last = step == 1.0 - done
        t = target if last else (done + step) * target
        at = _on_path(spec, t, target)
        law_t_new = law(at)
        if not law_t_new.all():
            raise DegenerateRoots(
                f"the leading-order law puts escaped roots of the degree-{m} start state at 0"
            )
        weights = _lagrange_weights(ts, t)
        predicted = law_t_new * (sum(w * r for w, r in zip(weights, ratios)) if ts else first_ratio)
        # a row of the inverse moves one root, which scales like its law
        carried = None if inverse is None else (law_t_new / law_t)[:, None] * inverse
        # the escaped roots' first step is judged only where their law is
        # exact at leading order
        judged = spec.M if ts or exact_law else m
        try:
            report = newton_solve(
                residual_map(_continued(spec, at)),
                predicted,
                NewtonOptions(tol=0.1 * POLISH_TARGET if last else INTERMEDIATE_TOL, max_iter=60),
                carried,
            )
        except QesError:  # the corrector failed: reject the step
            move = math.inf
        else:
            move = _largest_move(spec, predicted, report.x, judged)
        if not move <= MAX_MOVE:
            step /= 2.0
            if step < MIN_STEP:
                raise NoConvergence(f"continuation step below {MIN_STEP} of the leg at t = {t:.6g}")
            continue
        if last:
            return report.x
        done, law_t, inverse = done + step, law_t_new, report.inverse
        ts, ratios = [*ts[-2:], t], [*ratios[-2:], report.x / law_t]
        factor = min(2.0, max(0.5, math.sqrt(MOVE_GOAL / max(move, 1e-300))))
        step = max(MIN_STEP, step * factor)


def homotopy_root_sets(
    spec: ModelSpec,
    oracle_eigenvalues: list[complex],
    wanted: set[int],
    equations: dict | None = None,
) -> dict[int, RootSet]:
    """Root sets obtained by continuation, keyed by the index of the oracle
    eigenvalue each one reproduces, for the indices in ``wanted`` only.
    Legs run in ascending start degree and stop once every wanted state has
    a seed.  States whose continuation fails, from the start roots on, are
    left out.  Each leg's eigenvalue reads the eigen-equation terms kept in
    ``equations`` (``bethe.eigenvalue_from_roots``), so that V, V* and
    alpha_M are evaluated once per model, not once per leg."""
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
    found: dict[int, tuple[float, RootSet]] = {}  # state -> (eigenvalue gap, roots)
    for pair in sorted(states, key=lambda p: p.degree):
        if found.keys() >= wanted:
            break
        try:
            roots = root_set(spec, _continuation_leg(spec, start, pair, target))
            (e_val,) = eigenvalue_from_roots(spec, [roots], equations)
        except (ValueError, QesError):
            continue
        gaps = [abs(e_val - ev) for ev in oracle_eigenvalues]
        idx = int(np.argmin(gaps))
        # a leg may land on a Bethe configuration not realized by this
        # state (the equations admit more solutions than the spectrum);
        # only keep legs that reproduce an oracle eigenvalue
        if idx not in wanted or gaps[idx] > 1e-6 * max(1.0, abs(e_val)):
            continue
        if idx in found and found[idx][0] <= gaps[idx]:
            continue
        found[idx] = (gaps[idx], roots)
    return {idx: roots for idx, (_, roots) in found.items()}
