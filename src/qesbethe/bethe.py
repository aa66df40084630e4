"""Bethe ansatz equations in cross-multiplied form, Newton polishing of
root sets, and the eigenvalue read off the roots through the eigen-equation.

Each family's equation is evaluated as a pair (L_j, R_j) of denominator-free
products; the reported residual is |L_j - R_j| / max(|L_j|, |R_j|, eps).
Cross-multiplication removes every kinematic pole and all branch-cut
ambiguity, which keeps the Newton iteration smooth in the sector-native
variables (``models.native_variable``).  Polished roots go back through
``spectral.root_set``, like every other root set.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateRoots, NoConvergence, SingularJacobian
from .hamiltonian import build_matrix
from .models import (
    Coordinate,
    ModelSpec,
    Sector,
    bethe_root_count,
    compensation_alpha,
    compensation_vanishes,
    eta,
    native_variable,
    numerator_constants,
    potential_v,
    potential_v_star,
    step,
    v_phase,
)
from .numerics import NewtonOptions, newton_solve
from .spectral import (
    RootSet,
    extract_roots,
    min_separation,
    native_values,
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
    consts = numerator_constants(spec)
    pair_product = spec.info.coordinate is Coordinate.X_SQUARED
    # the l = j pair factor (2x_j - i)/(2x_j + i) cancels against the
    # kinematic denominator where V carries one, and stays otherwise
    self_pair = pair_product and not spec.info.kinematic_denominator
    odd = spec.sector is Sector.ODD
    phase2 = v_phase(spec).conjugate() ** 2  # e^{2 i beta} for the crossed model

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
            for p in consts:
                rhs_num *= p.conjugate() - 1j * xj
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
    consts = numerator_constants(spec)

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
    """(L_j, R_j) as a function of the z_j (trigonometric family) or the
    x_j (every other family)."""
    return _sides_z(spec) if native_variable(spec) == "z" else _sides_x(spec)


def bae_residual(
    spec: ModelSpec,
    roots: RootSet,
    allow_degenerate: bool = False,
) -> tuple[float, ...]:
    """Normalized cross-multiplied residual of every Bethe equation."""
    if len(roots) == 0:
        return ()
    variable = native_variable(spec)
    native = getattr(roots, f"roots_{variable}")
    if native is None:
        raise ValueError(f"root set is missing its {variable} representatives")
    if not allow_degenerate and min_separation(native) < ROOT_SEPARATION_TOL:
        raise DegenerateRoots(
            f"roots closer than {ROOT_SEPARATION_TOL:.1e}; the ansatz assumes "
            "distinct roots"
        )
    out = []
    for lhs, rhs in _sides(spec)(roots.roots_x if variable == "eta" else native):
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
    on_eta = native_variable(spec) == "eta"

    def g(v: np.ndarray) -> np.ndarray:
        vals = v.tolist()
        if on_eta:
            vals = [cmath.sqrt(e) for e in vals]
        sides = sides_of(vals)
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
    (``numerics.newton_solve``).  Never fatal: on singular Jacobians or
    non-convergence the seed comes back unchanged with the corresponding
    flag set.
    """
    if len(seed) == 0:
        return seed, SolutionFlags(polished=True, degenerate=seed.degenerate), ()
    seed_res = bae_residual(spec, seed, allow_degenerate=True)
    try:
        solved = newton_solve(
            residual_map(spec),
            native_values(spec, seed),
            NewtonOptions(tol=0.1 * POLISH_TARGET),
        ).x
    except SingularJacobian:
        flags = SolutionFlags(
            polished=False, degenerate=seed.degenerate, jacobian_singular=True
        )
        return seed, flags, seed_res
    except NoConvergence:
        return seed, SolutionFlags(polished=False, degenerate=seed.degenerate), seed_res
    polished = root_set(spec, solved)
    try:
        # root_set measured the gaps already: only a flagged set can be
        # closer than ROOT_SEPARATION_TOL
        res = bae_residual(spec, polished, allow_degenerate=not polished.degenerate)
    except DegenerateRoots:
        return seed, SolutionFlags(polished=False, degenerate=True), seed_res
    if max(res, default=0.0) <= max(POLISH_TARGET, max(seed_res, default=0.0)):
        flags = SolutionFlags(polished=True, degenerate=polished.degenerate)
        return polished, flags, res
    return seed, SolutionFlags(polished=False, degenerate=seed.degenerate), seed_res


# ---------------------------------------------------------------------------
# Eigenvalue from the eigen-equation
# ---------------------------------------------------------------------------


def _eigen_equation_at(spec: ModelSpec, roots_eta: Sequence[complex], x0: complex) -> complex:
    """E from H~ Psi = E Psi at the point x0, Psi built from the roots.

    The shifted wavefunctions enter as Psi(x0 -+ s)/Psi(x0), s the step of
    H~ (``models.step``), each a product of per-root ratios, so that no
    product of far-out roots over- or underflows."""
    s = step(spec)
    eta0, eta_minus, eta_plus = eta(spec, np.array([x0, x0 - s, x0 + s])).tolist()
    r_minus = r_plus = 1.0
    for e in roots_eta:
        r_minus *= (eta_minus - e) / (eta0 - e)
        r_plus *= (eta_plus - e) / (eta0 - e)
    if spec.sector is Sector.ODD:
        r_minus *= (x0 - s) / x0
        r_plus *= (x0 + s) / x0
    return (
        potential_v(spec, x0) * (r_minus - 1.0)
        + potential_v_star(spec, x0) * (r_plus - 1.0)
        + compensation_alpha(spec, x0)
    )


def eigenvalue_from_roots(spec: ModelSpec, roots: RootSet) -> complex:
    """E({eta_l}) read off the eigen-equation H~ Psi = E Psi (Baxter's T-Q
    relation) at one point off every grid and pole.

    Fewer roots than the subspace degree carries are allowed: at exactly
    solvable parameter points eigenfunctions of every lower degree coexist
    in the subspace, and the same equation holds for them.  The second
    anchor is used when a root sits on eta at the first, where Psi vanishes.
    """
    expected = bethe_root_count(spec)
    if len(roots) > expected:
        raise ValueError(f"expected at most {expected} roots, got {len(roots)}")
    eta0 = eta(spec, ANCHOR)
    clearance = ANCHOR_CLEARANCE * abs(eta0)
    on_anchor = any(abs(e - eta0) <= clearance for e in roots.roots_eta)
    return _eigen_equation_at(spec, roots.roots_eta, FALLBACK_ANCHOR if on_anchor else ANCHOR)


def trig_far_ladder(spec: ModelSpec, exponents: list[int]) -> list[complex]:
    """Estimated z-positions of the trigonometric family's far-out roots.

    The weakly-coupled rungs of a deformed state sit near
    z = -(abcde) q^(2k); the exponent k runs over the combined (near count
    + rung index), so a state whose representable part has degree d is
    completed with k = d, d+1, ..., M-1.
    """
    q = spec.real_param("q")
    prod = 1.0
    for name in ("a", "b", "c", "d", "e"):
        prod *= spec.real_param(name)
    return [complex(-prod * q ** (2 * k)) for k in exponents]


def _chain_near_roots(spec: ModelSpec, level: int) -> RootSet:
    """Near (physical) roots of the level-th state of a trigonometric model.

    A weakly deformed level is its Askey-Wilson-like level plus far rungs;
    the near part coincides with the top state of the same model truncated
    to subspace degree ``level``, whose eigenvector is fully representable.
    """
    if level == 0:
        return root_set(spec, ())
    sub = replace(spec, M=level)
    pairs = oracle_spectrum(build_matrix(sub))
    top = pairs[-1]
    if top.truncated or top.degree != level:
        raise NoConvergence(
            f"top state of the degree-{level} model is not representable"
        )
    return extract_roots(top, sub, expected=level)


def _complete_truncated_roots(spec: ModelSpec, near: RootSet) -> RootSet | None:
    """Fill in the far-root rungs that underflowed the oracle eigenvector.

    Only the trigonometric family develops these ladders.  The representable
    roots are completed with the analytic rung estimates (``trig_far_ladder``),
    whose O(q^2)-relative errors the full polish in ``solve`` removes.
    Returns None when no completion is available.
    """
    if spec.info.coordinate is not Coordinate.COS:
        return None
    deg_rep = len(near)
    if spec.M <= deg_rep:
        return None
    far = trig_far_ladder(spec, list(range(deg_rep, spec.M)))
    if any(abs(z) < 1e-280 for z in far):
        return None
    return root_set(spec, np.concatenate([native_values(spec, near), far]))


# ---------------------------------------------------------------------------
# End-to-end solve
# ---------------------------------------------------------------------------


def solve(spec: ModelSpec, seed_mode: str = "oracle") -> list[BetheSolution]:
    """Oracle -> roots -> polish -> formula, one solution per eigenpair,
    sorted by (Re, Im) of the oracle eigenvalue.

    ``seed_mode="homotopy"`` seeds the crossed Meixner-Pollaczek and
    trigonometric families by parameter continuation from their exactly
    solvable points instead of from oracle eigenvectors (falling back to
    the oracle seed, flagged per solution, if a continuation leg fails).
    """
    if seed_mode not in ("oracle", "homotopy"):
        raise ValueError(f"unknown seed mode {seed_mode!r}")
    om = build_matrix(spec)
    pairs = oracle_spectrum(om)
    expected = bethe_root_count(spec)
    homotopy_seeds: dict[int, RootSet] = {}
    if seed_mode == "homotopy":
        from .homotopy import homotopy_root_sets

        homotopy_seeds = homotopy_root_sets(spec, [p.eigenvalue for p in pairs])
    solutions = []
    for idx, pair in enumerate(pairs):
        actual = pair.degree
        anomalous = False
        seed = homotopy_seeds.get(idx)
        source = "homotopy"
        if seed is None or len(seed) != expected:
            source, seed = "oracle", None
            if pair.truncated:
                try:
                    seed = _complete_truncated_roots(spec, _chain_near_roots(spec, idx))
                except (NoConvergence, SingularJacobian):
                    pass
            if seed is None:
                # a lower-degree eigenpolynomial is a state of its own at an
                # exactly solvable point, and an anomaly anywhere else
                seed = extract_roots(pair, spec, expected=actual)
                anomalous = actual != expected and (
                    pair.truncated or not compensation_vanishes(spec)
                )
        roots, flags, residuals = newton_polish(spec, seed)
        if flags.degenerate or anomalous:
            flags = replace(flags, degenerate=True)
        e_formula = eigenvalue_from_roots(spec, roots)
        solutions.append(
            BetheSolution(
                spec=spec,
                roots=roots,
                E_formula=e_formula,
                E_oracle=pair.eigenvalue,
                residuals=residuals,
                flags=flags,
                seed_source=source,
            )
        )
    return solutions
