"""Catalog of the six model families.

Each family is defined by a potential function V(x), a sinusoidal coordinate
eta(x), and a linear-in-eta compensation term alpha_M(x) that carves out the
degree-M invariant polynomial subspace:

    MP_CROSSED      V = (a1+ix)(a2+ix) e^{-i beta}          eta = x
    SEXTIC_I        V = (a+ix)(b+ix)(c+ix)                  eta = x^2
    SEXTIC_II       V = (a+ix)(b+ix)(c+ix)(d+ix)            eta = x^2
    CENTRIFUGAL_I   V = (b..f factors) / (2ix(2ix+1))       eta = x^2
    CENTRIFUGAL_II  V = (a..f factors) / (2ix(2ix+1))       eta = x^2
    TRIG_Q          V = (1-az)..(1-ez) / ((1-z^2)(1-qz^2))  eta = cos x, z = e^{ix}

``FAMILIES`` holds one record per family with the facts the pipeline
branches on; only the formulas that define a model (validation, the phase
of V, the compensation coefficient) dispatch on the family itself.

Every family is one difference operator, H~ Psi = V(x) [Psi(x - s) - Psi(x)]
+ V*(x) [Psi(x + s) - Psi(x)] + alpha_M(x) Psi(x), whose step s (``step``) is
i for the x-families and i ln q for trig-q, where x - s is z -> qz.

The conjugate potential V*(x) is the *analytic* conjugate: parameters are
conjugated while x stays a free complex variable.  This convention is
load-bearing: Bethe roots are generally complex, and every residual below
relies on it.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .errors import PoleOfPotential, SectorMismatch, UnsupportedFamily
from .numerics import scalar_or_array

HALF_EXCLUSION = 1e-6  # centrifugal families reject parameters this close to 1/2
POLE_TOL = 1e-12


class ModelFamily(Enum):
    MP_CROSSED = "mp-crossed"
    SEXTIC_I = "sextic-i"
    SEXTIC_II = "sextic-ii"
    CENTRIFUGAL_I = "centrifugal-i"
    CENTRIFUGAL_II = "centrifugal-ii"
    TRIG_Q = "trig-q"


class Sector(Enum):
    FULL = "full"
    EVEN = "even"
    ODD = "odd"


class Coordinate(Enum):
    """The sinusoidal coordinate eta.  It also fixes the subspace basis
    (powers of eta), the root representatives (x, x with Re x >= 0, or z =
    e^{ix} with |z| <= 1) and, with the sector, the Newton variable
    (``native_variable``)."""

    X = "x"
    X_SQUARED = "x^2"
    COS = "cos x"


@dataclass(frozen=True)
class FamilyInfo:
    """The structural facts of one family that the pipeline branches on."""

    param_names: tuple[str, ...]
    coordinate: Coordinate
    parity_sectors: bool = False  # the subspace splits into even/odd sectors
    kinematic_denominator: bool = False  # V carries 1/(2ix(2ix+1))
    continuation: str | None = None  # homotopy parameter, continued from 0
    grid_window: tuple[float, float] = (-3.0, 3.0)  # real x range of default_grid


_X2 = Coordinate.X_SQUARED
_HALF_LINE = (0.2, 4.0)
FAMILIES: dict[ModelFamily, FamilyInfo] = {
    ModelFamily.MP_CROSSED: FamilyInfo(("a1", "a2", "beta"), Coordinate.X, continuation="beta"),
    ModelFamily.SEXTIC_I: FamilyInfo(("a", "b", "c"), _X2, parity_sectors=True),
    ModelFamily.SEXTIC_II: FamilyInfo(("a", "b", "c", "d"), _X2, parity_sectors=True),
    ModelFamily.CENTRIFUGAL_I: FamilyInfo(
        ("b", "c", "d", "e", "f"), _X2, kinematic_denominator=True, grid_window=_HALF_LINE
    ),
    ModelFamily.CENTRIFUGAL_II: FamilyInfo(
        ("a", "b", "c", "d", "e", "f"), _X2, kinematic_denominator=True, grid_window=_HALF_LINE
    ),
    ModelFamily.TRIG_Q: FamilyInfo(
        ("a", "b", "c", "d", "e", "q"), Coordinate.COS,
        continuation="a", grid_window=(0.15, math.pi - 0.15),
    ),
}


@dataclass(frozen=True)
class ModelSpec:
    """Full problem statement: family, parameters, subspace degree, sector.

    ``dropped`` lists numerator factors deleted to realize an exactly
    solvable restriction (Meixner-Pollaczek, Wilson, continuous dual Hahn);
    such specs also run without the compensation term.  Production specs are
    built through :func:`model_spec`, which validates parameter ranges.
    """

    family: ModelFamily
    params: Mapping[str, complex]
    M: int
    sector: Sector = Sector.FULL
    dropped: tuple[str, ...] = ()
    compensated: bool = True

    def param(self, name: str) -> complex:
        return self.params[name]

    def real_param(self, name: str) -> float:
        return float(complex(self.params[name]).real)

    @property
    def info(self) -> FamilyInfo:
        """The family's structural record."""
        return FAMILIES[self.family]


def _as_complex(v: Any) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, complex):
        return v
    raise TypeError(f"expected a number, got {type(v).__name__}")


def _validate(family: ModelFamily, params: dict[str, complex]) -> None:
    if family is ModelFamily.MP_CROSSED:
        for name in ("a1", "a2"):
            if params[name].real <= 0:
                raise ValueError(f"{name} must have positive real part")
        if params["beta"].imag != 0:
            raise ValueError("beta must be real")
    elif family is ModelFamily.TRIG_Q:
        for name in ("a", "b", "c", "d", "e"):
            v = params[name]
            if v.imag != 0 or not -1.0 < v.real < 1.0:
                raise ValueError(f"{name} must be a real in (-1, 1)")
        qv = params["q"]
        if qv.imag != 0 or not 0.0 < qv.real < 1.0:
            raise ValueError("q must be a real in (0, 1)")
    else:
        info = FAMILIES[family]
        for name in info.param_names:
            v = params[name]
            if v.imag != 0 or v.real <= 0:
                raise ValueError(f"{name} must be a positive real")
            if info.kinematic_denominator and abs(v.real - 0.5) <= HALF_EXCLUSION:
                raise ValueError(
                    f"{name} = {v.real!r} is within {HALF_EXCLUSION:g} of 1/2, "
                    "which cancels the kinematic denominator"
                )


def _validate_sector(family: ModelFamily, M: int, sector: Sector) -> None:
    if M < 0:
        raise ValueError("M must be a non-negative integer")
    if FAMILIES[family].parity_sectors:
        if sector is Sector.FULL:
            raise SectorMismatch("sextic families need an even or odd sector")
        if sector is Sector.EVEN and M % 2 != 0:
            raise SectorMismatch(f"even sector requires even M, got M = {M}")
        if sector is Sector.ODD and M % 2 != 1:
            raise SectorMismatch(f"odd sector requires odd M, got M = {M}")
    elif sector is not Sector.FULL:
        raise SectorMismatch(f"{family.value} admits only the full sector")


def model_spec(
    family: ModelFamily | str,
    *,
    M: int,
    sector: Sector | str | None = None,
    validate: bool = True,
    **params: complex,
) -> ModelSpec:
    """Build and validate a model specification.

    ``validate=False`` bypasses the parameter-range checks (needed by the
    formal-limit tests that pin parameters at excluded values); the
    finiteness and sector consistency checks always run.
    """
    if not isinstance(family, ModelFamily):
        family = ModelFamily(family)
    if sector is None:
        if FAMILIES[family].parity_sectors:
            sector = Sector.EVEN if M % 2 == 0 else Sector.ODD
        else:
            sector = Sector.FULL
    elif not isinstance(sector, Sector):
        sector = Sector(sector.lower() if isinstance(sector, str) else sector)
    names = FAMILIES[family].param_names
    unknown = set(params) - set(names)
    if unknown:
        raise ValueError(f"unknown parameters for {family.value}: {sorted(unknown)}")
    missing = set(names) - set(params)
    if missing:
        raise ValueError(f"missing parameters for {family.value}: {sorted(missing)}")
    cparams = {name: _as_complex(params[name]) for name in names}
    for name, v in cparams.items():
        if not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    _validate_sector(family, M, sector)
    if validate:
        _validate(family, cparams)
    return ModelSpec(family, cparams, int(M), sector)


def mp_conjugate_pair(a1: complex, beta: float, M: int) -> ModelSpec:
    """Crossed Meixner-Pollaczek model with a2 = conj(a1), the configuration
    under which the Hamiltonian is hermitian and the spectrum real."""
    a1 = complex(a1)
    return model_spec(ModelFamily.MP_CROSSED, M=M, a1=a1, a2=a1.conjugate(), beta=beta)


def drop_factors(spec: ModelSpec, names: tuple[str, ...] | list[str]) -> ModelSpec:
    """Exactly solvable restriction: delete numerator factors from V and
    switch the compensation term off.

    Realizes the one- and two-parameter infinite limits (Meixner-Pollaczek
    from the crossed model, Wilson and continuous dual Hahn from the
    centrifugal models) without catastrophically large parameters.
    """
    names = tuple(names)
    for n in names:
        if n not in spec.info.param_names or n in ("beta", "q"):
            raise ValueError(f"cannot drop {n!r} from {spec.family.value}")
    return replace(spec, dropped=tuple(sorted(set(spec.dropped) | set(names))), compensated=False)


def spec_from_json(doc: str | bytes | Mapping[str, Any] | Path) -> ModelSpec:
    """Parse the JSON model document {"family", "params", "M", "sector"?}.

    Complex parameters are [re, im] pairs, real ones plain numbers.
    Unknown keys are rejected at both levels.
    """
    if isinstance(doc, Path):
        doc = doc.read_text()
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, Mapping):
        raise ValueError("model document must be a JSON object")
    allowed = {"family", "params", "M", "sector"}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown keys in model document: {sorted(unknown)}")
    for key in ("family", "params", "M"):
        if key not in doc:
            raise ValueError(f"model document is missing {key!r}")
    params_doc = doc["params"]
    if not isinstance(params_doc, Mapping):
        raise ValueError("params must be a JSON object")
    params: dict[str, complex] = {}
    for name, val in params_doc.items():
        parts = val if isinstance(val, (list, tuple)) else [val]
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
            raise ValueError(f"parameter {name!r} must be a number or [re, im], got {val!r}")
        if not isinstance(val, (int, float)) and len(val) != 2:
            raise ValueError(f"parameter {name!r} must be a number or [re, im]")
        try:
            params[name] = complex(*map(float, parts))
        except OverflowError:
            raise ValueError(f"parameter {name!r} is beyond the double range") from None
    m = doc["M"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError("M must be an integer")
    return model_spec(doc["family"], M=m, sector=doc.get("sector"), **params)


def spec_to_json_dict(spec: ModelSpec) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for name, val in spec.params.items():
        v = complex(val)
        params[name] = v.real if v.imag == 0.0 else [v.real, v.imag]
    return {
        "family": spec.family.value,
        "params": params,
        "M": spec.M,
        "sector": spec.sector.value,
    }


# ---------------------------------------------------------------------------
# Structure helpers shared by the operator / Bethe / wavefunction layers
# ---------------------------------------------------------------------------


def numerator_constants(spec: ModelSpec) -> tuple[complex, ...]:
    """Constants p_k with V-numerator = prod_k (p_k + i x) (x-based families)
    or prod_k (1 - p_k z) (trigonometric family), dropped factors omitted."""
    names = [n for n in spec.info.param_names if n not in ("beta", "q")]
    return tuple(spec.params[n] for n in names if n not in spec.dropped)


def v_phase(spec: ModelSpec) -> complex:
    """Constant phase multiplying the numerator of V (only the crossed
    Meixner-Pollaczek model carries one)."""
    if spec.family is ModelFamily.MP_CROSSED:
        return cmath.exp(-1j * spec.params["beta"].real)
    return 1.0 + 0j


def eta(spec: ModelSpec, x):
    """Sinusoidal coordinate: x, x^2 or cos x depending on the family.
    Elementwise over an array of points; a scalar gives a Python complex."""
    x = np.asarray(x, dtype=complex)
    coordinate = spec.info.coordinate
    if coordinate is Coordinate.X:
        out = x
    elif coordinate is Coordinate.COS:
        out = np.cos(x)
    else:
        out = x * x
    return scalar_or_array(out)


def step(spec: ModelSpec) -> complex:
    """The step s of H~ (module docstring): i for the x-families, i ln q
    for trig-q, so that x - s is the q-shift z -> qz."""
    if spec.info.coordinate is Coordinate.COS:
        return 1j * math.log(spec.real_param("q"))
    return 1j


def _potential(spec: ModelSpec, x, conjugated: bool):
    """V(x), or its analytic conjugate V*(x), elementwise; raises
    PoleOfPotential on denominator zeros, naming the first such x."""
    x = np.asarray(x, dtype=complex)
    if spec.info.coordinate is Coordinate.COS:
        # V*(z) = V(1/z) for real parameters: V* at x is V at z = e^{-ix}
        z = np.exp(-1j * x if conjugated else 1j * x)
        num = np.ones_like(z)
        for p in numerator_constants(spec):
            num = num * (1.0 - p * z)
        den = (1.0 - z * z) * (1.0 - spec.real_param("q") * z * z)
    else:
        phase = v_phase(spec)
        num = np.full_like(x, phase.conjugate() if conjugated else phase)
        for p in numerator_constants(spec):
            num = num * (p.conjugate() - 1j * x if conjugated else p + 1j * x)
        if not spec.info.kinematic_denominator:
            return scalar_or_array(num)
        t = -2j * x if conjugated else 2j * x
        den = t * (t + 1.0)
    pole = np.abs(den) < POLE_TOL
    if pole.any():
        raise PoleOfPotential(f"{'V*' if conjugated else 'V'}(x) pole at x = {x[pole].flat[0]}")
    return scalar_or_array(num / den)


def potential_v(spec: ModelSpec, x):
    """V(x), elementwise over an array of points; raises PoleOfPotential on
    denominator zeros, naming the first such point."""
    return _potential(spec, x, conjugated=False)


def potential_v_star(spec: ModelSpec, x):
    """Analytic conjugate V(x)*: parameters conjugated, x left free."""
    return _potential(spec, x, conjugated=True)


def compensation_coefficient(spec: ModelSpec) -> complex:
    """Coefficient multiplying eta(x) in the compensation term alpha_M."""
    if not spec.compensated:
        return 0j
    m = spec.M
    fam = spec.family
    if fam is ModelFamily.MP_CROSSED:
        return complex(-2.0 * m * math.sin(spec.real_param("beta")))
    if fam is ModelFamily.SEXTIC_I:
        return complex(2.0 * m)
    if fam is ModelFamily.SEXTIC_II:
        s = sum(spec.real_param(n) for n in ("a", "b", "c", "d"))
        return complex(m * (m - 1 + 2.0 * s))
    if fam is ModelFamily.CENTRIFUGAL_I:
        return complex(m)
    if fam is ModelFamily.CENTRIFUGAL_II:
        s = sum(spec.real_param(n) for n in ("a", "b", "c", "d", "e", "f"))
        return complex(m * (m - 1 + s))
    if fam is ModelFamily.TRIG_Q:
        q = spec.real_param("q")
        prod = 1.0
        for n in ("a", "b", "c", "d", "e"):
            prod *= spec.real_param(n)
        return complex(-2.0 * prod * (1.0 - q**m) / q)
    raise UnsupportedFamily(fam.value)


def compensation_alpha(spec: ModelSpec, x):
    """alpha_M(x) = compensation_coefficient * eta(x), elementwise."""
    return compensation_coefficient(spec) * eta(spec, x)


def compensation_vanishes(spec: ModelSpec) -> bool:
    """True when the deformation is switched off and the model is exactly
    solvable (restricted specs, beta = 0, or a vanishing q-deformation)."""
    return abs(compensation_coefficient(spec)) < 1e-14 * max(1.0, spec.M)


def native_variable(spec: ModelSpec) -> str:
    """The Newton variable of the Bethe equations, named like the
    ``spectral.RootSet`` field that holds it: "z" for eta = cos x, "x" for
    eta = x and the odd sector, "eta" for the other x^2 sectors."""
    coordinate = spec.info.coordinate
    if coordinate is Coordinate.COS:
        return "z"
    if coordinate is Coordinate.X or spec.sector is Sector.ODD:
        return "x"
    return "eta"


def sector_degrees(spec: ModelSpec) -> range:
    """Polynomial degrees of the sector's eigenfunctions, ascending: 0..M,
    or only those of the sector's parity for the parity-split families.
    The k-th of them carries k Bethe roots."""
    if spec.info.parity_sectors:
        return range(1 if spec.sector is Sector.ODD else 0, spec.M + 1, 2)
    return range(spec.M + 1)


def sector_dimension(spec: ModelSpec) -> int:
    """dim V_M: M+1 except for the parity-split sextic sectors."""
    _validate_sector(spec.family, spec.M, spec.sector)
    return len(sector_degrees(spec))


def bethe_root_count(spec: ModelSpec) -> int:
    """Number of Bethe roots of a degree-M eigenfunction in this sector."""
    degrees = sector_degrees(spec)
    return (spec.M - degrees.start) // degrees.step
