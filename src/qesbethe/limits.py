"""Exactly solvable limits and restrictions of the six families, checked
against their closed-form spectra and reduced Bethe equations.

Exact cases (beta = 0; vanishing q-deformation parameters; factor-deleted
potentials) must reproduce the closed forms to 1e-9 relative.  Asymptotic
cases (one or two parameters driven to a large finite value) are compared
at first order: the gap is required to fit inside C / large for a generous
budget constant, and to shrink by close to a factor of ten when the large
parameter grows tenfold, which is the operative test of O(1/large) scaling.

Each tag's facts (family, parameters read, pinned and sent to ``large``,
whether an exact restriction exists) live in one ``LIMITS`` record, from
which the limit-point and restricted models are built; only the closed-form
eigenvalues are a per-tag formula.  The spectrum check reads the oracle
eigenvalues alone; the reduced Bethe-equation check is an ordinary
``solve`` of the restricted model, read off per solution.

Note on the Askey-Wilson line: the restriction e = 0 turns the
trigonometric Hamiltonian into the standard Askey-Wilson q-difference
operator whose degree-m eigenvalue is (q^-m - 1)(1 - abcd q^(m-1)); this is
what the paper's general eigenvalue-from-roots expression reduces to at
e = 0, and the spectrum checks below enforce it.  An exponent m+1 in that second
factor circulates in print but fails the spectrum by O(abcd (1 - q^2) q);
see the regression test that documents the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any

from .bethe import solve
from .config import Tolerances
from .errors import LimitViolation, MissingLimitParameter, UnsupportedFamily
from .hamiltonian import build_matrix
from .spectral import oracle_spectrum

# The benchmark's span recorder (bench/spans.py) wraps these names in this
# module, as it does build_matrix and oracle_spectrum above; nothing here
# calls them, but the names stay bound until the recorder's target list
# drops them.
from .bethe import bae_residual, newton_polish  # noqa: F401
from .spectral import extract_roots  # noqa: F401
from .models import (
    ModelFamily,
    ModelSpec,
    drop_factors,
    model_spec,
    sector_degrees,
)

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


@dataclass(frozen=True)
class LimitInfo:
    """Everything about one limit case but its closed form: the family
    that degenerates, the parameters the case reads (``optional`` ones
    default to 0), the parameters pinned at the limit point, those sent to
    ``large`` (none for an exact case; the computed eigenvalue is divided
    by ``large`` once per name), and whether a factor-deleted or
    zero-parameter model realizes the limit exactly for the reduced
    Bethe-equation check."""

    family: ModelFamily
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    pinned: tuple[tuple[str, float], ...] = ()
    large: tuple[str, ...] = ()
    restricted: bool = False


LIMITS: dict[LimitTag, LimitInfo] = {
    LimitTag.CH_FROM_MP: LimitInfo(
        ModelFamily.MP_CROSSED, ("a1", "a2"), pinned=(("beta", 0.0),)
    ),
    LimitTag.MP_FROM_MP: LimitInfo(
        ModelFamily.MP_CROSSED, ("a1", "beta"), large=("a2",), restricted=True
    ),
    LimitTag.CH_FROM_SEXTIC: LimitInfo(ModelFamily.SEXTIC_I, ("b", "c"), large=("a",)),
    LimitTag.MP_FROM_SEXTIC: LimitInfo(ModelFamily.SEXTIC_I, ("c",), large=("a", "b")),
    LimitTag.WILSON: LimitInfo(
        ModelFamily.CENTRIFUGAL_I, ("b", "c", "d", "e"), large=("f",), restricted=True
    ),
    LimitTag.CDH: LimitInfo(
        ModelFamily.CENTRIFUGAL_I, ("b", "c", "d"), large=("e", "f"), restricted=True
    ),
    LimitTag.AW: LimitInfo(
        ModelFamily.TRIG_Q, ("a", "b", "c", "d", "q"), pinned=(("e", 0.0),), restricted=True
    ),
    LimitTag.Q_UNIVERSAL: LimitInfo(
        ModelFamily.TRIG_Q,
        ("q",),
        optional=("a", "b", "c"),
        pinned=(("d", 0.0), ("e", 0.0)),
        restricted=True,
    ),
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
    missing = [name for name in LIMITS[tag].required if name not in params]
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
    info = LIMITS[case.tag]
    if info.large and large is None:
        raise ValueError(f"{case.tag.value} is an asymptotic case and needs `large`")
    params = {name: case.params[name] for name in info.required}
    params.update({name: case.params.get(name, 0.0) for name in info.optional})
    params.update(info.pinned)
    params.update({name: large for name in info.large})
    spec = model_spec(info.family, M=case.M, **params)
    return spec, math.prod([large] * len(info.large), start=1.0)


def restricted_spec(case: LimitCase) -> ModelSpec:
    """Factor-deleted (or zero-parameter) model realizing the restriction
    exactly, for the reduced Bethe-equation checks: the large parameters
    are set to 1 and then deleted from the potential."""
    info = LIMITS[case.tag]
    if not info.restricted:
        raise UnsupportedFamily(f"{case.tag.value} has no exact restriction point")
    spec, _ = _limit_spec(case, 1.0)
    return drop_factors(spec, info.large) if info.large else spec


def verify_limit(
    case: LimitCase, large: float | None = 1e4, tols: Tolerances = Tolerances()
) -> LimitReport:
    """Compare the oracle spectrum of the (possibly rescaled) model with
    the closed-form limit values, degree by degree: to ``tols.exact_limit``
    for the exact cases, to the first-order budget for the asymptotic ones.
    No Bethe roots are solved for: only the eigenvalues are compared."""
    if not LIMITS[case.tag].large:
        large = None
    spec, scale = _limit_spec(case, large)
    eigenvalues = [pair.eigenvalue for pair in oracle_spectrum(build_matrix(spec))]
    degrees = sector_degrees(spec)
    if len(eigenvalues) != len(degrees):
        raise LimitViolation(
            f"{case.tag.value}: got {len(eigenvalues)} eigenvalues for "
            f"{len(degrees)} expected degrees"
        )
    expected = sorted(
        (closed_form_E(case, m) for m in degrees), key=lambda v: (v.real, v.imag)
    )
    rows = []
    max_gap = 0.0
    budget = None if large is None else BUDGET_CONSTANT / large
    passed = True
    for e_oracle, m, exp in zip(eigenvalues, degrees, expected):
        computed = e_oracle / scale
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
    """Verify that the solved roots of the restricted model satisfy the
    reduced Bethe equations to ``tols.reduced_bae`` (the general residual
    specializes by itself, since the restricted potential carries the
    deleted factors)."""
    solutions = solve(restricted_spec(case))
    rows = [{"degree": len(s.roots), "residual_max": s.residual_max} for s in solutions]
    worst = max((s.residual_max for s in solutions), default=0.0)
    passed = worst <= tols.reduced_bae
    if not passed:
        raise LimitViolation(
            f"reduced Bethe equations violated for {case.tag.value}: worst "
            f"residual {worst:.3e}"
        )
    return {"tag": case.tag.value, "M": case.M, "rows": rows, "residual_max": worst,
            "passed": passed}
