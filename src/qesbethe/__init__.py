"""Bethe-ansatz solver and verifier for quasi-exactly-solvable difference
operators on invariant polynomial subspaces."""

__version__ = "0.1.0"

from .bethe import (
    BetheSolution,
    SolutionFlags,
    bae_residual,
    eigenvalue_from_roots,
    newton_polish,
    solve,
)
from .config import Tolerances
from .hamiltonian import OperatorMatrix, apply_htilde, build_matrix
from .limits import (
    LimitCase,
    LimitReport,
    LimitTag,
    closed_form_E,
    limit_case,
    reduced_bae_check,
    verify_limit,
)
from .models import (
    ModelFamily,
    ModelSpec,
    Sector,
    compensation_alpha,
    drop_factors,
    eta,
    model_spec,
    mp_conjugate_pair,
    potential_v,
    potential_v_star,
    sector_dimension,
    spec_from_json,
)
from .spectral import OracleEigenpair, RootSet, extract_roots, oracle_spectrum
from .wavefun import (
    GridSpec,
    default_grid,
    phi0_squared,
    schrodinger_residual,
    zero_mode_residual,
)

__all__ = [
    "BetheSolution",
    "GridSpec",
    "LimitCase",
    "LimitReport",
    "LimitTag",
    "ModelFamily",
    "ModelSpec",
    "OperatorMatrix",
    "OracleEigenpair",
    "RootSet",
    "Sector",
    "SolutionFlags",
    "Tolerances",
    "apply_htilde",
    "bae_residual",
    "build_matrix",
    "closed_form_E",
    "compensation_alpha",
    "default_grid",
    "drop_factors",
    "eigenvalue_from_roots",
    "eta",
    "extract_roots",
    "limit_case",
    "model_spec",
    "mp_conjugate_pair",
    "newton_polish",
    "oracle_spectrum",
    "phi0_squared",
    "potential_v",
    "potential_v_star",
    "reduced_bae_check",
    "schrodinger_residual",
    "sector_dimension",
    "solve",
    "spec_from_json",
    "verify_limit",
    "zero_mode_residual",
]
