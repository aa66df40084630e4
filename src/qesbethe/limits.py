"""Exactly solvable limits and restrictions of the six families, checked
against their closed-form spectra and reduced Bethe equations.

Exact cases (beta = 0; vanishing q-deformation parameters; factor-deleted
potentials) must reproduce the closed forms to 1e-9 relative.  Asymptotic
cases (one or two parameters driven to a large finite value) are compared
at first order: the gap is required to fit inside C / large for a generous
budget constant, and to shrink by close to a factor of ten when the large
parameter grows tenfold, which is the operative test of O(1/large) scaling.

Note on the Askey-Wilson line: the restriction e = 0 turns the
trigonometric Hamiltonian into the standard Askey-Wilson q-difference
operator whose degree-m eigenvalue is (q^-m - 1)(1 - abcd q^(m-1)); this is
what the general eigenvalue-from-roots expression reduces to at e = 0, and
the spectrum checks below enforce it.  An exponent m+1 in that second
factor circulates in print but fails the spectrum by O(abcd (1 - q^2) q);
see the regression test that documents the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .bethe import bae_residual, newton_polish, solve
from .config import Tolerances
from .errors import LimitViolation, MissingLimitParameter, UnsupportedFamily
from .hamiltonian import build_matrix
from .models import (
    ModelFamily,
    ModelSpec,
    drop_factors,
    model_spec,
    sector_degrees,
)
from .spectral import extract_roots, oracle_spectrum

BUDGET_CONSTANT = 100.0


class LimitTag(Enum):
    CH_FROM_MP = "ch-from-mp"
    MP_FROM_MP = "mp-from-mp"
    CH_FROM_SEXTIC = "ch-from-sextic"
    MP_FROM_SEXTIC = "mp-from-sextic"
    WILSON = "wilson"
    CDH = "cdh"
    AW = "aw"
    Q_UNIVERSAL = "q-universal"


EXACT_TAGS = frozenset({LimitTag.CH_FROM_MP, LimitTag.AW, LimitTag.Q_UNIVERSAL})
RESTRICTION_TAGS = frozenset(
    {LimitTag.MP_FROM_MP, LimitTag.WILSON, LimitTag.CDH, LimitTag.AW, LimitTag.Q_UNIVERSAL}
)

# The parameters each case reads; q-universal also takes optional a, b, c
# (default 0), which leave its spectrum unchanged.
REQUIRED_PARAMS: dict[LimitTag, tuple[str, ...]] = {
    LimitTag.CH_FROM_MP: ("a1", "a2"),
    LimitTag.MP_FROM_MP: ("a1", "beta"),
    LimitTag.CH_FROM_SEXTIC: ("b", "c"),
    LimitTag.MP_FROM_SEXTIC: ("c",),
    LimitTag.WILSON: ("b", "c", "d", "e"),
    LimitTag.CDH: ("b", "c", "d"),
    LimitTag.AW: ("a", "b", "c", "d", "q"),
    LimitTag.Q_UNIVERSAL: ("q",),
}


@dataclass(frozen=True)
class LimitCase:
    """One limit statement: which family degenerates, with what base
    parameters, at which subspace degree."""

    tag: LimitTag
    M: int
    params: dict[str, Any]


@dataclass(frozen=True)
class LimitReport:
    tag: LimitTag
    M: int
    large: float | None
    rows: tuple[dict[str, Any], ...]
    max_gap: float
    budget: float | None
    passed: bool


def limit_case(tag: LimitTag | str, M: int, **params: Any) -> LimitCase:
    """The limit statement; raises MissingLimitParameter when a parameter
    that the tag requires is absent."""
    if isinstance(tag, str):
        tag = LimitTag(tag)
    missing = [name for name in REQUIRED_PARAMS[tag] if name not in params]
    if missing:
        raise MissingLimitParameter(f"limit case {tag.value} requires parameters {missing}")
    return LimitCase(tag, int(M), dict(params))


def closed_form_E(case: LimitCase, m: int) -> complex:
    """Closed-form degree-m eigenvalue of the limiting model."""
    if m > case.M:
        raise ValueError(f"degree {m} exceeds the subspace degree {case.M}")
    p = case.params
    tag = case.tag
    if tag is LimitTag.CH_FROM_MP:
        a1, a2 = complex(p["a1"]), complex(p["a2"])
        return m * (m + a1 + a2 + a1.conjugate() + a2.conjugate() - 1.0)
    if tag is LimitTag.MP_FROM_MP:
        return complex(2.0 * m * math.cos(p["beta"]))
    if tag is LimitTag.CH_FROM_SEXTIC:
        return complex(m * (m + 2.0 * (p["b"] + p["c"]) - 1.0))
    if tag is LimitTag.MP_FROM_SEXTIC:
        return complex(2.0 * m)
    if tag is LimitTag.WILSON:
        return complex(m * (m + p["b"] + p["c"] + p["d"] + p["e"] - 1.0))
    if tag is LimitTag.CDH:
        return complex(m)
    if tag is LimitTag.AW:
        q = p["q"]
        abcd = p["a"] * p["b"] * p["c"] * p["d"]
        return complex((q ** (-m) - 1.0) * (1.0 - abcd * q ** (m - 1)))
    if tag is LimitTag.Q_UNIVERSAL:
        q = p["q"]
        return complex(q ** (-m) - 1.0)
    raise UnsupportedFamily(tag.value)


def _limit_spec(case: LimitCase, large: float | None) -> tuple[ModelSpec, float]:
    """Concrete model at the limit point, plus the eigenvalue divisor."""
    p = case.params
    tag = case.tag
    if tag is LimitTag.CH_FROM_MP:
        return (
            model_spec(ModelFamily.MP_CROSSED, M=case.M, a1=p["a1"], a2=p["a2"], beta=0.0),
            1.0,
        )
    if tag is LimitTag.AW:
        return (
            model_spec(
                ModelFamily.TRIG_Q,
                M=case.M,
                a=p["a"], b=p["b"], c=p["c"], d=p["d"], e=0.0, q=p["q"],
            ),
            1.0,
        )
    if tag is LimitTag.Q_UNIVERSAL:
        spec = model_spec(
            ModelFamily.TRIG_Q,
            M=case.M,
            a=p.get("a", 0.0), b=p.get("b", 0.0), c=p.get("c", 0.0),
            d=0.0, e=0.0, q=p["q"],
        )
        return spec, 1.0
    if large is None:
        raise ValueError(f"{tag.value} is an asymptotic case and needs `large`")
    if tag is LimitTag.MP_FROM_MP:
        return (
            model_spec(
                ModelFamily.MP_CROSSED, M=case.M, a1=p["a1"], a2=large, beta=p["beta"]
            ),
            large,
        )
    if tag is LimitTag.CH_FROM_SEXTIC:
        return (
            model_spec(ModelFamily.SEXTIC_I, M=case.M, a=large, b=p["b"], c=p["c"]),
            large,
        )
    if tag is LimitTag.MP_FROM_SEXTIC:
        return (
            model_spec(ModelFamily.SEXTIC_I, M=case.M, a=large, b=large, c=p["c"]),
            large * large,
        )
    if tag is LimitTag.WILSON:
        return (
            model_spec(
                ModelFamily.CENTRIFUGAL_I, M=case.M,
                b=p["b"], c=p["c"], d=p["d"], e=p["e"], f=large,
            ),
            large,
        )
    if tag is LimitTag.CDH:
        return (
            model_spec(
                ModelFamily.CENTRIFUGAL_I, M=case.M,
                b=p["b"], c=p["c"], d=p["d"], e=large, f=large,
            ),
            large * large,
        )
    raise UnsupportedFamily(tag.value)


def restricted_spec(case: LimitCase) -> ModelSpec:
    """Factor-deleted (or zero-parameter) model realizing the restriction
    exactly, for the reduced Bethe-equation checks."""
    p = case.params
    tag = case.tag
    if tag is LimitTag.MP_FROM_MP:
        base = model_spec(
            ModelFamily.MP_CROSSED, M=case.M, a1=p["a1"], a2=1.0, beta=p["beta"]
        )
        return drop_factors(base, ("a2",))
    if tag is LimitTag.WILSON:
        base = model_spec(
            ModelFamily.CENTRIFUGAL_I, M=case.M,
            b=p["b"], c=p["c"], d=p["d"], e=p["e"], f=1.0,
        )
        return drop_factors(base, ("f",))
    if tag is LimitTag.CDH:
        base = model_spec(
            ModelFamily.CENTRIFUGAL_I, M=case.M,
            b=p["b"], c=p["c"], d=p["d"], e=1.0, f=1.0,
        )
        return drop_factors(base, ("e", "f"))
    if tag in (LimitTag.AW, LimitTag.Q_UNIVERSAL):
        spec, _ = _limit_spec(case, None)
        return spec
    raise UnsupportedFamily(f"{tag.value} has no exact restriction point")


def verify_limit(
    case: LimitCase, large: float | None = 1e4, tols: Tolerances = Tolerances()
) -> LimitReport:
    """Compare the computed spectrum of the (possibly rescaled) model with
    the closed-form limit values, degree by degree: to ``tols.exact_limit``
    for the exact cases, to the first-order budget for the asymptotic ones."""
    if case.tag in EXACT_TAGS:
        large = None
    spec, scale = _limit_spec(case, large)
    solutions = solve(spec)
    degrees = sector_degrees(spec)
    if len(solutions) != len(degrees):
        raise LimitViolation(
            f"{case.tag.value}: got {len(solutions)} eigenvalues for "
            f"{len(degrees)} expected degrees"
        )
    expected = sorted(
        (closed_form_E(case, m) for m in degrees), key=lambda v: (v.real, v.imag)
    )
    rows = []
    max_gap = 0.0
    budget = None if large is None else BUDGET_CONSTANT / large
    passed = True
    for sol, m, exp in zip(solutions, degrees, expected):
        computed = sol.E_oracle / scale
        gap = abs(computed - exp) / max(1.0, abs(exp))
        max_gap = max(max_gap, gap)
        tol = tols.exact_limit if large is None else budget
        ok = gap <= tol
        passed = passed and ok
        rows.append(
            {
                "m": m,
                "computed": computed,
                "expected": exp,
                "gap": gap,
                "passed": ok,
            }
        )
    return LimitReport(case.tag, case.M, large, tuple(rows), max_gap, budget, passed)


def convergence_ratio(case: LimitCase, large_lo: float = 1e4, large_hi: float = 1e5) -> float:
    """max-gap(large_lo) / max-gap(large_hi); close to large_hi/large_lo for
    a first-order limit."""
    lo = verify_limit(case, large_lo)
    hi = verify_limit(case, large_hi)
    floor = 1e-12
    if hi.max_gap < floor:
        return math.inf
    return lo.max_gap / hi.max_gap


def reduced_bae_check(case: LimitCase, tols: Tolerances = Tolerances()) -> dict[str, Any]:
    """Verify that the polynomial zeros of the restricted model satisfy the
    reduced Bethe equations to ``tols.reduced_bae`` (the general residual
    specializes by itself, since the restricted potential carries the
    deleted factors)."""
    spec = restricted_spec(case)
    om = build_matrix(spec)
    pairs = oracle_spectrum(om)
    worst = 0.0
    rows = []
    for pair in pairs:
        degree = pair.eigenpoly.degree
        roots = extract_roots(pair, spec, expected=degree)
        roots, _flags = newton_polish(spec, roots)
        res = bae_residual(spec, roots, allow_degenerate=True)
        worst_here = max(res, default=0.0)
        worst = max(worst, worst_here)
        rows.append({"degree": degree, "residual_max": worst_here})
    passed = worst <= tols.reduced_bae
    if not passed:
        raise LimitViolation(
            f"reduced Bethe equations violated for {case.tag.value}: worst "
            f"residual {worst:.3e}"
        )
    return {"tag": case.tag.value, "M": case.M, "rows": rows, "residual_max": worst,
            "passed": passed}
