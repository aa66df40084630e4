"""Bethe ansatz equations in cross-multiplied form, Newton polishing of
root sets, and the eigenvalue read off the roots through the eigen-equation,
as H~ Psi / Psi at an anchor point (``models.operator_at``).

Each family's equation is evaluated as a pair (L_j, R_j) of denominator-free
products; the reported residual is |L_j - R_j| / max(|L_j|, |R_j|, eps).
Cross-multiplication removes every kinematic pole and all branch-cut
ambiguity, which keeps the Newton iteration smooth in the Newton variables
of the model's chart (``models.Chart``), which also says at which points,
x or z, the two sides are evaluated.  Polished roots go back through
``spectral.root_set``, like every other root set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateRoots, NoConvergence, SingularJacobian
from .hamiltonian import build_matrix
from .models import (
    ModelSpec,
    bethe_root_count,
    compensation_vanishes,
    eta,
    operator_at,
)
from .numerics import NewtonOptions, newton_solve
from .spectral import (
    RootSet,
    extract_roots,
    min_separation,
    oracle_spectrum,
    root_set,
)

ROOT_SEPARATION_TOL = 1e-10
POLISH_TARGET = 1e-11
EPS = 1e-300
# Points at which eigenvalue_from_roots reads the eigen-equation: off the
# real default_grid windows and off the potentials' poles (x = 0, +-i/2;
# z = +-1, +-q^(+-1/2)).  The fallback serves root sets with a root within
# ANCHOR_CLEARANCE (relative) of eta(ANCHOR).
ANCHOR = 0.37 + 0.11j
FALLBACK_ANCHOR = 0.53 + 0.29j
ANCHOR_CLEARANCE = 1e-8
FIXED_POINT_TOL = 1e-10  # |eta - eta_fixed| of a root on a reflection fixed point


@dataclass(frozen=True)
class SolutionFlags:
    polished: bool = False
    degenerate: bool = False
    jacobian_singular: bool = False


@dataclass(frozen=True)
class BetheSolution:
    """One eigenstate: roots, both eigenvalue routes, and their gap."""

    spec: ModelSpec
    roots: RootSet
    E_formula: complex
    E_oracle: complex
    residuals: tuple[float, ...]
    flags: SolutionFlags
    seed_source: str = "oracle"

    @property
    def residual_max(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def discrepancy(self) -> float:
        return abs(self.E_formula - self.E_oracle)


# ---------------------------------------------------------------------------
# Cross-multiplied residuals
# ---------------------------------------------------------------------------


_Sides = Callable[[Sequence[complex]], list[tuple[complex, complex]]]


def _sides_x(spec: ModelSpec) -> _Sides:
    """(L_j, R_j) of the x-based families as a function of the roots x_j;
    the family facts are read here, once per map."""
    v = spec.potential
    conj_pairs = list(zip(v.constants, v.bar.constants))  # p, conj(p)
    # eta = x^2: eta(x_j -+ i) - eta_l factors into (x_j - x_l -+ i)(x_j + x_l -+ i)
    pair_product = spec.chart.eta_degree == 2
    # the l = j pair factor (2x_j - i)/(2x_j + i) cancels against the
    # kinematic denominator where V carries one, and stays otherwise
    self_pair = pair_product and v.denominator is None
    odd = spec.chart.odd
    phase2 = v.bar.lead**2  # conj(u)/u, e^{2 i beta} for the crossed model

    def sides(xs: Sequence[complex]) -> list[tuple[complex, complex]]:
        out = []
        for j, xj in enumerate(xs):
            lhs_num = 1.0 + 0j
            lhs_den = 1.0 + 0j
            for l, xl in enumerate(xs):
                if l == j:
                    continue
                if pair_product:
                    lhs_num *= (xj - xl - 1j) * (xj + xl - 1j)
                    lhs_den *= (xj - xl + 1j) * (xj + xl + 1j)
                else:
                    lhs_num *= xj - xl - 1j
                    lhs_den *= xj - xl + 1j
            if odd:
                lhs_num *= xj - 1j
                lhs_den *= xj + 1j
            rhs_num = phase2
            rhs_den = 1.0 + 0j
            for p, p_star in conj_pairs:
                rhs_num *= p_star - 1j * xj
                rhs_den *= p + 1j * xj
            if self_pair:
                rhs_num *= 2.0 * xj + 1j
                rhs_den *= 2.0 * xj - 1j
            out.append((lhs_num * rhs_den, rhs_num * lhs_den))
        return out

    return sides


def _sides_z(spec: ModelSpec) -> _Sides:
    """(L_j, R_j) of the trigonometric family as a function of the z_j."""
    q = spec.real_param("q")
    consts = spec.potential.constants

    def sides(zs: Sequence[complex]) -> list[tuple[complex, complex]]:
        etas = [0.5 * (z + 1.0 / z) for z in zs]
        out = []
        for j, zj in enumerate(zs):
            cos_minus = 0.5 * (q * zj + 1.0 / (q * zj))
            cos_plus = 0.5 * (zj / q + q / zj)
            lhs_num = 1.0 + 0j
            lhs_den = 1.0 + 0j
            for l in range(len(zs)):
                if l == j:
                    continue
                lhs_num *= cos_minus - etas[l]
                lhs_den *= cos_plus - etas[l]
            rhs_num = 1.0 + 0j
            rhs_den = zj
            for p in consts:
                rhs_num *= zj - p
                rhs_den *= 1.0 - p * zj
            out.append((lhs_num * rhs_den, rhs_num * lhs_den))
        return out

    return sides


def _sides(spec: ModelSpec) -> _Sides:
    """(L_j, R_j) as a function of the chart's points (``Chart.points_of``):
    the z_j for eta = cos x, the x_j for every other coordinate."""
    return _sides_z(spec) if spec.chart.trigonometric else _sides_x(spec)


def bae_residual(
    spec: ModelSpec,
    roots: RootSet,
    allow_degenerate: bool = False,
) -> tuple[float, ...]:
    """Normalized cross-multiplied residual of every Bethe equation."""
    if len(roots) == 0:
        return ()
    chart = spec.chart
    native = chart.newton(roots)
    if native is None:
        raise ValueError(f"root set is missing its {chart.variable} representatives")
    if not allow_degenerate and min_separation(native) < ROOT_SEPARATION_TOL:
        raise DegenerateRoots(
            f"roots closer than {ROOT_SEPARATION_TOL:.1e}; the ansatz assumes "
            "distinct roots"
        )
    out = []
    for lhs, rhs in _sides(spec)(chart.points_of(native)):
        out.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), EPS))
    return tuple(out)


# ---------------------------------------------------------------------------
# Newton polish in sector-native variables
# ---------------------------------------------------------------------------


def residual_map(spec: ModelSpec) -> Callable[[np.ndarray], np.ndarray]:
    """Residual G_j(v) = L_j / R_j - 1 on the native variables.

    The ratio form is scale invariant, which matters: the difference
    L_j - R_j has spurious zeros out at infinity where both products decay
    together, and a frozen-scale Newton would happily drift there.  No
    re-sorting happens inside, so G stays smooth for the Jacobian.  The
    family facts are read once, here, not on every evaluation.
    """
    sides_of = _sides(spec)
    points_of = spec.chart.points_of

    def g(v: np.ndarray) -> np.ndarray:
        sides = sides_of(points_of(v.tolist()))
        return np.asarray(
            [lhs / rhs - 1.0 if rhs != 0 else lhs - rhs for lhs, rhs in sides],
            dtype=complex,
        )

    return g


def newton_polish(
    spec: ModelSpec, seed: RootSet
) -> tuple[RootSet, SolutionFlags, tuple[float, ...]]:
    """Drive the seed roots onto the Bethe equations, to POLISH_TARGET.

    Returns the root set, its flags and its Bethe residuals (as
    ``bae_residual(spec, roots, allow_degenerate=True)``).  Newton runs in
    the native variables, in coordinates relative to the seed
    (``numerics.newton_solve``).  Never fatal: on singular Jacobians,
    non-convergence or a root that ends on one of the family's reflection
    fixed points (``FamilyInfo.fixed_points``, where its equation holds
    whatever the other roots are) the seed comes back unchanged with
    ``polished`` false and the corresponding flag set.
    """
    if len(seed) == 0:
        return seed, SolutionFlags(polished=True, degenerate=seed.degenerate), ()

    def unpolished(degenerate: bool = seed.degenerate, jacobian_singular: bool = False):
        flags = SolutionFlags(degenerate=degenerate, jacobian_singular=jacobian_singular)
        return seed, flags, bae_residual(spec, seed, allow_degenerate=True)

    try:
        solved = newton_solve(
            residual_map(spec),
            spec.chart.newton(seed),
            NewtonOptions(tol=0.1 * POLISH_TARGET),
        ).x
    except SingularJacobian:
        return unpolished(jacobian_singular=True)
    except NoConvergence:
        return unpolished()
    polished = root_set(spec, solved)
    fixed = spec.info.fixed_points
    if any(abs(e - p) <= FIXED_POINT_TOL for e in polished.roots_eta for p in fixed):
        return unpolished()
    try:
        # root_set measured the gaps already: only a flagged set can be
        # closer than ROOT_SEPARATION_TOL
        res = bae_residual(spec, polished, allow_degenerate=not polished.degenerate)
    except DegenerateRoots:
        return unpolished(degenerate=True)
    if max(res, default=0.0) <= POLISH_TARGET:
        return polished, SolutionFlags(polished=True, degenerate=polished.degenerate), res
    return unpolished()


# ---------------------------------------------------------------------------
# Eigenvalue from the eigen-equation
# ---------------------------------------------------------------------------


def eigenvalue_from_roots(
    spec: ModelSpec, root_sets: Sequence[RootSet], equations: dict | None = None
) -> list[complex]:
    """E({eta_l}) of each root set, read off the eigen-equation H~ Psi = E
    Psi (Baxter's T-Q relation) at one point x0 off every grid and pole:
    E = V rho- + V* rho+ + alpha_M, the first three terms of
    ``models.operator_at`` at x0, where Psi(x0) != 0.

    Fewer roots than the subspace degree carries are allowed: at exactly
    solvable parameter points eigenfunctions of every lower degree coexist
    in the subspace, and the same equation holds for them.  The second
    anchor is used for a root set with a root on eta at the first, where Psi
    vanishes.  V, V* and alpha_M at an anchor are evaluated once for all the
    root sets, and at the second anchor only if some root set needs it.
    ``equations`` keeps each anchor's ``operator_at`` for later calls on the
    same model: ``solve`` shares one dict between its continuation legs and
    its own call.
    """
    expected = bethe_root_count(spec)
    for roots in root_sets:
        if len(roots) > expected:
            raise ValueError(f"expected at most {expected} roots, got {len(roots)}")
    eta0 = eta(spec, ANCHOR)
    clearance = ANCHOR_CLEARANCE * abs(eta0)
    equations = {} if equations is None else equations
    groups: dict = {}  # the root sets of one size at one anchor go through one call
    for k, roots in enumerate(root_sets):
        near = any(abs(e - eta0) <= clearance for e in roots.roots_eta)
        groups.setdefault((FALLBACK_ANCHOR if near else ANCHOR, len(roots)), []).append(k)
    energies = [0j] * len(root_sets)
    for (x0, _), members in groups.items():
        if x0 not in equations:
            equations[x0] = operator_at(spec, x0)
        etas = np.reshape([root_sets[k].roots_eta for k in members], (len(members), -1))
        minus, plus, alpha, _ = equations[x0](etas)
        for k, e in zip(members, (minus + plus + alpha).tolist()):
            energies[k] = e
    return energies


# ---------------------------------------------------------------------------
# End-to-end solve
# ---------------------------------------------------------------------------


def solve(spec: ModelSpec, seed_mode: str = "oracle") -> list[BetheSolution]:
    """Oracle -> roots -> polish -> formula, one solution per eigenpair,
    sorted by (Re, Im) of the oracle eigenvalue.

    ``seed_mode="oracle"`` seeds each state from its oracle eigenvector,
    except a truncated trigonometric one (``OracleEigenpair.truncated``):
    that is seeded in both modes by parameter continuation from the exactly
    solvable point, the only route to its underflowed roots; one that no
    leg reproduces comes back with its representable roots, unpolished.
    ``seed_mode="homotopy"`` seeds every crossed Meixner-Pollaczek and
    trigonometric state by continuation, falling back to the oracle seed,
    flagged per solution, if its leg fails.
    """
    from .homotopy import homotopy_root_sets

    if seed_mode not in ("oracle", "homotopy"):
        raise ValueError(f"unknown seed mode {seed_mode!r}")
    pairs = oracle_spectrum(build_matrix(spec))
    expected = bethe_root_count(spec)
    wanted = {idx for idx, pair in enumerate(pairs) if seed_mode == "homotopy" or pair.truncated}
    eigenvalues = [p.eigenvalue for p in pairs]
    equations: dict = {}  # H~ at each anchor, models.operator_at
    homotopy_seeds = homotopy_root_sets(spec, eigenvalues, wanted, equations) if wanted else {}
    unseeded = [idx for idx in range(len(pairs)) if idx not in homotopy_seeds]
    oracle_seeds = dict(zip(unseeded, extract_roots([pairs[idx] for idx in unseeded], spec)))
    polished = []  # (roots, flags, residuals, seed source) per pair
    for idx, pair in enumerate(pairs):
        anomalous = False
        seed = homotopy_seeds.get(idx)
        source = "homotopy"
        if seed is None:
            source = "oracle"
            seed = oracle_seeds[idx]
            # a lower-degree eigenpolynomial is a state of its own at an
            # exactly solvable point, and an anomaly anywhere else
            anomalous = pair.degree != expected and (
                pair.truncated or not compensation_vanishes(spec)
            )
        if source == "oracle" and pair.truncated:
            # no leg reproduced the state: a polish of its representable
            # roots, too few, can land on a Bethe solution of no state
            roots, flags = seed, SolutionFlags()
            residuals = bae_residual(spec, seed, allow_degenerate=True)
        else:
            roots, flags, residuals = newton_polish(spec, seed)
        if flags.degenerate or anomalous:
            flags = replace(flags, degenerate=True)
        polished.append((roots, flags, residuals, source))
    energies = eigenvalue_from_roots(spec, [roots for roots, *_ in polished], equations)
    return [
        BetheSolution(
            spec=spec,
            roots=roots,
            E_formula=e_formula,
            E_oracle=pair.eigenvalue,
            residuals=residuals,
            flags=flags,
            seed_source=source,
        )
        for pair, e_formula, (roots, flags, residuals, source) in zip(pairs, energies, polished)
    ]
