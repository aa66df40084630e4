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
branches on; only the formulas that define a model (validation, the
compensation coefficient) dispatch on the family itself.

The coordinate and the sector fix the model's ``Chart`` (``ModelSpec.chart``),
one of four module constants: eta, the basis, the root representatives and
the Newton variable.  No other module branches on the coordinate.  Nor
does any spell V: it is one ``Potential`` record (``ModelSpec.potential``).

Every family is one difference operator, H~ Psi = V(x) [Psi(x - s) - Psi(x)]
+ V*(x) [Psi(x + s) - Psi(x)] + alpha_M(x) Psi(x), whose step s (``step``) is
i for the x-families and i ln q for trig-q, where x - s is z -> qz.
The eigenvalue and the pointwise check both read H~ Psi / Psi at a point
through ``operator_at``: V, V* and alpha_M there, and ``shift_ratios``, the
one evaluation of Psi(x -+ s)/Psi(x) - 1.  ``potential_v`` and
``potential_v_star`` hold the one pole rule: |denominator| < ``POLE_TOL``
raises PoleOfPotential.

The conjugate potential V*(x) is the *analytic* conjugate: parameters are
conjugated while x stays a free complex variable, V*(x) = V-bar(-x).  This
convention is load-bearing: Bethe roots are generally complex, and every
residual below relies on it.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import PoleOfPotential, SectorMismatch, SubspaceTooLarge, UnsupportedFamily
from .numerics import MAX_EIG_DIM, binomial_shift, complex_log1p, scalar_or_array

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


def _same(values):
    return values


def _gauge_x(x: complex) -> complex:
    """The sign representative of +-x with Re x > 0, or Re x = 0, Im x >= 0."""
    return -x if x.real < 0 or (x.real == 0 and x.imag < 0) else x


def _gauge_z(z: complex) -> complex:
    """The representative of z, 1/z with |z| <= 1, ties on the unit circle
    broken by Im z >= 0."""
    if abs(z) > 1.0:
        z = 1.0 / z
    if abs(abs(z) - 1.0) < 1e-12 and z.imag < 0:
        z = z.conjugate()
    return z


def _x_from_z(z: complex) -> complex:
    """x = -i log z with Re x in (-pi, pi], ties on the negative real z axis
    broken by Re x = +pi as ``_gauge_z`` breaks ties on the unit circle."""
    x = -1j * cmath.log(z)
    if z.real < 0 and abs(z.imag) < 1e-12 * abs(z):
        x = complex(abs(x.real), x.imag)
    return x


def _z_from_eta(eta_l: complex) -> complex:
    """Solve z + 1/z = 2 eta for the representative with |z| <= 1."""
    # stable branch: form the larger root first, invert for the smaller
    s = cmath.sqrt(eta_l - 1.0) * cmath.sqrt(eta_l + 1.0)
    big = eta_l + s if abs(eta_l + s) >= abs(eta_l - s) else eta_l - s
    if abs(big) < 1e-300:
        raise ValueError("degenerate eta: no z representative")
    return _gauge_z(1.0 / big)


def _representatives_cos(values: list[complex]) -> tuple:
    zs = [_gauge_z(z) for z in values]
    return [0.5 * (z + 1.0 / z) for z in zs], [_x_from_z(z) for z in zs], zs


@dataclass(frozen=True, eq=False)
class Chart:
    """The sinusoidal coordinate eta(x) in one sector, and what it fixes.

    The subspace basis is eta^k, times x where ``odd``.  Bethe root l is
    eta_l, with representatives x_l (eta(x_l) = eta_l) and, for eta = cos x,
    z_l = e^{i x_l}, gauge-fixed by ``representatives`` (the sign of x, or
    z -> 1/z).  Newton solves the Bethe equations in ``variable``: eta for
    the x^2 full and even sectors, x for eta = x and the odd sector, z for
    eta = cos x.  ``eta`` and ``eta_of`` act on numpy arrays elementwise,
    the other maps on Python complex numbers or lists of them.
    """

    variable: str
    eta: Callable[[np.ndarray], np.ndarray]  # eta(x)
    eta_degree: int  # of eta in the computational variable, x or z
    odd: bool
    trigonometric: bool  # x -> z = e^{ix}: Laurent algebra, q-shifts, q-Pochhammer phi0^2
    representatives: Callable[[list], tuple]  # Newton values -> gauge-fixed (etas, xs, zs | None)
    newton: Callable[[Any], Sequence[complex]]  # a RootSet's Newton values
    from_eta: Callable[[complex], complex]  # eta_l -> its gauge-fixed Newton value
    points_of: Callable[[list], list]  # Newton values -> x (or z), where Bethe sides are read
    eta_of: Callable[[np.ndarray], np.ndarray]  # eta of Newton values

    @functools.lru_cache(maxsize=128)
    def basis(self, dim: int) -> tuple[np.ndarray, int, np.ndarray]:
        """Read-only rows of basis_0 .. basis_{dim-1} in the computational
        variable (x, or z), the exponent of their first column, and the
        index of basis_k's coefficient in an image (the power of x, or of
        eta for eta = cos x)."""
        positions = int(self.odd) + self.eta_degree * np.arange(dim)
        if self.trigonometric:
            # eta^k = 2^-k z^-k (1 + z^2)^k on the window z^(1-dim) .. z^(dim-1);
            # the binomial table's zeros above the diagonal land past each row's
            # own terms
            k = positions[:, None]
            wide = np.zeros((dim, 3 * dim), dtype=complex)
            wide[k, dim - 1 - k + 2 * positions] = binomial_shift(dim, 1.0) * 0.5**k
            rows, lo = wide[:, : 2 * dim - 1].copy(), 1 - dim
        else:
            rows, lo = np.zeros((dim, positions[-1] + 1), dtype=complex), 0
            rows[np.arange(dim), positions] = 1.0
        rows.flags.writeable = False
        positions.flags.writeable = False
        return rows, lo, positions


X_CHART = Chart(
    variable="x", eta=_same, eta_degree=1, odd=False, trigonometric=False,
    representatives=lambda xs: (xs, xs, None),
    newton=lambda roots: roots.roots_x,
    from_eta=_same,
    points_of=_same,
    eta_of=_same,
)
X2_CHART = Chart(
    variable="eta", eta=lambda x: x * x, eta_degree=2, odd=False, trigonometric=False,
    representatives=lambda etas: (etas, [_gauge_x(cmath.sqrt(e)) for e in etas], None),
    newton=lambda roots: roots.roots_eta,
    from_eta=_same,
    points_of=lambda etas: [cmath.sqrt(e) for e in etas],
    eta_of=_same,
)
X2_ODD_CHART = Chart(
    variable="x", eta=lambda x: x * x, eta_degree=2, odd=True, trigonometric=False,
    representatives=lambda xs: ([x * x for x in xs], [_gauge_x(x) for x in xs], None),
    newton=lambda roots: roots.roots_x,
    from_eta=lambda eta_l: _gauge_x(cmath.sqrt(eta_l)),
    points_of=_same,
    eta_of=lambda x: x * x,
)
COS_CHART = Chart(
    variable="z", eta=np.cos, eta_degree=1, odd=False, trigonometric=True,
    representatives=_representatives_cos,
    newton=lambda roots: roots.roots_z,
    from_eta=_z_from_eta,
    points_of=_same,
    eta_of=lambda z: 0.5 * (z + 1.0 / z),
)


@dataclass(frozen=True, eq=False)
class Potential:
    """V = u prod_k (a_k + b_k t) / D(t), t = x or z = e^{ix}, one factor per p_k
    (``FamilyInfo.factor_params`` less ``ModelSpec.dropped``), D as coefficients and
    as an evaluator.  V*(x) = V-bar(-x): ``bar`` conjugates u and the p_k; -x is 1/z."""

    lead: complex  # u
    constants: tuple[complex, ...]  # the p_k
    trigonometric: bool  # factors 1 - p_k z, else p_k + ix
    denominator: np.ndarray | None = None
    denominator_at: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def factors(self) -> list[tuple[complex, complex]]:
        return [(1.0, -p) if self.trigonometric else (p, 1j) for p in self.constants]

    @functools.cached_property
    def bar(self) -> Potential:
        constants = tuple(p.conjugate() for p in self.constants)
        return replace(self, lead=self.lead.conjugate(), constants=constants)

    def factors_at(self, t: np.ndarray) -> np.ndarray:
        """a_k + b_k t at the points t, factor k along a new first axis."""
        ab = np.array(self.factors, dtype=complex).reshape((-1, 2) + (1,) * np.ndim(t))
        return ab[:, 0] + ab[:, 1] * t


@dataclass(frozen=True)
class FamilyInfo:
    """The structural facts of one family that the pipeline branches on."""

    factor_params: tuple[str, ...]  # the p_k of V's numerator factors (``Potential``)
    chart: Chart  # of the full or even sector; the odd one is X2_ODD_CHART
    other_params: tuple[str, ...] = ()  # the rest: beta (V's lead) or q (the q-shift)
    parity_sectors: bool = False  # the subspace splits into even/odd sectors
    kinematic_denominator: bool = False  # V carries 1/(2ix(2ix+1))
    continuation: str | None = None  # homotopy parameter, continued from 0
    detour: float = 0.0  # height of a leg's complex path, in units of |target|
    # eta of the reflection fixed points (z = 1/z, or x = -x), where a root's
    # Bethe equation holds whatever the other roots are
    fixed_points: tuple[float, ...] = ()
    grid_window: tuple[float, float] = (-3.0, 3.0)  # real x range of default_grid

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.factor_params + self.other_params


# the kinematic denominator, the x -> -x fixed point and the half-line window
_CENTRIFUGAL = dict(kinematic_denominator=True, fixed_points=(0.0,), grid_window=(0.2, 4.0))
FAMILIES: dict[ModelFamily, FamilyInfo] = {
    ModelFamily.MP_CROSSED: FamilyInfo(("a1", "a2"), X_CHART, ("beta",), continuation="beta"),
    ModelFamily.SEXTIC_I: FamilyInfo(("a", "b", "c"), X2_CHART, parity_sectors=True),
    ModelFamily.SEXTIC_II: FamilyInfo(("a", "b", "c", "d"), X2_CHART, parity_sectors=True),
    ModelFamily.CENTRIFUGAL_I: FamilyInfo(("b", "c", "d", "e", "f"), X2_CHART, **_CENTRIFUGAL),
    ModelFamily.CENTRIFUGAL_II: FamilyInfo(("a", "b", "c", "d", "e", "f"), X2_CHART, **_CENTRIFUGAL),
    ModelFamily.TRIG_Q: FamilyInfo(
        ("a", "b", "c", "d", "e"), COS_CHART, ("q",), continuation="a", detour=0.3,
        fixed_points=(-1.0, 1.0), grid_window=(0.15, math.pi - 0.15),
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

    @property
    def chart(self) -> Chart:
        """The coordinate chart of this family and sector."""
        return X2_ODD_CHART if self.sector is Sector.ODD else FAMILIES[self.family].chart

    @functools.cached_property
    def potential(self) -> Potential:
        """V of this model (the table above), dropped factors left out."""
        constants = tuple(self.params[n] for n in self.info.factor_params if n not in self.dropped)
        if self.chart.trigonometric:  # a real lead, like the parameters
            q = self.real_param("q")
            den = np.convolve([1.0, 0.0, -1.0], [1.0, 0.0, -q])
            return Potential(1.0, constants, True, den, lambda z: (1.0 - z * z) * (1.0 - q * z * z))
        lead = cmath.exp(-1j * self.params["beta"].real) if "beta" in self.params else 1.0 + 0j
        if self.info.kinematic_denominator:  # 2ix(2ix+1) = 2ix - 4x^2
            den = np.array([0, 2j, -4])
            return Potential(lead, constants, False, den, lambda x: 2j * x * (2j * x + 1.0))
        return Potential(lead, constants, False)


def _as_complex(v: Any) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, complex):
        return v
    raise TypeError(f"expected a number, got {type(v).__name__}")


def _validate(family: ModelFamily, params: dict[str, complex]) -> None:
    info = FAMILIES[family]
    if family is ModelFamily.MP_CROSSED:
        for name in info.factor_params:
            if params[name].real <= 0:
                raise ValueError(f"{name} must have positive real part")
        if params["beta"].imag != 0:
            raise ValueError("beta must be real")
    elif family is ModelFamily.TRIG_Q:
        for name in info.factor_params:
            v = params[name]
            if v.imag != 0 or not -1.0 < v.real < 1.0:
                raise ValueError(f"{name} must be a real in (-1, 1)")
        qv = params["q"]
        if qv.imag != 0 or not 0.0 < qv.real < 1.0:
            raise ValueError("q must be a real in (0, 1)")
    else:
        for name in info.factor_params:
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
    finiteness and sector consistency checks always run, and so does the
    size check: a subspace of more than ``numerics.MAX_EIG_DIM`` states,
    which the oracle cannot diagonalize, raises SubspaceTooLarge before
    anything is built.
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
    spec = ModelSpec(family, cparams, int(M), sector)
    dim = len(sector_degrees(spec))
    if dim > MAX_EIG_DIM:
        raise SubspaceTooLarge(
            f"M = {M} gives a subspace of dimension {dim}, above the limit of {MAX_EIG_DIM}"
        )
    if validate:
        _validate(family, cparams)
    return spec


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
        if n not in spec.info.factor_params:
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


def eta(spec: ModelSpec, x):
    """The sinusoidal coordinate of the model's chart: x, x^2 or cos x.
    Elementwise over an array of points; a scalar gives a Python complex."""
    return scalar_or_array(spec.chart.eta(np.asarray(x, dtype=complex)))


def step(spec: ModelSpec) -> complex:
    """The step s of H~ (module docstring): i for the x-families, i ln q
    for trig-q, so that x - s is the q-shift z -> qz."""
    if spec.chart.trigonometric:
        return 1j * math.log(spec.real_param("q"))
    return 1j


def shift_ratios(spec: ModelSpec, x, roots_eta: Sequence[complex]):
    """(Psi(x - s) - Psi(x), Psi(x + s) - Psi(x), Psi(x)) / Psi'(x) at x, s the
    step of H~ and Psi' Psi less its factors that vanish at x: Psi(x -+ s) /
    Psi(x) - 1 and 1 wherever Psi(x) != 0.  The one place Psi is formed at a
    shifted point.  ``roots_eta`` holds Psi's Bethe roots on its last axis;
    its other axes (root sets of one size) broadcast against those of x.
    Psi is the product of f(y) = eta(y) - eta_l, and y in the odd sector;
    each ratio is expm1 of sum_f log1p((f(x -+ s) - f(x)) / f(x)), with
    f(x -+ s) - f(x) = eta(x -+ s) - eta(x) (or -+s), so it neither over- nor
    underflows, nor cancels as the roots recede (beta -> 0 in mp-crossed).
    A factor that vanishes at x enters as log f(x -+ s)."""
    s, chart = step(spec), spec.chart
    roots = np.asarray(roots_eta, dtype=complex)
    pts = np.asarray(x, dtype=complex)[..., None]
    eta_x = chart.eta(pts)
    gaps = eta_x - roots  # the f(x)
    shifts = np.array([-s, s]).reshape((2,) + (1,) * gaps.ndim)
    steps = chart.eta(pts + shifts) - eta_x  # f(x -+ s) - f(x)
    if chart.odd:
        gaps = np.concatenate([gaps, np.broadcast_to(pts, gaps.shape[:-1] + (1,))], axis=-1)
        steps = np.where(np.arange(gaps.shape[-1]) < roots.shape[-1], steps, shifts)
    if gaps.all():
        logs, apart = complex_log1p(steps / gaps), np.zeros(gaps.shape[:-1], dtype=bool)
    else:
        vanish = gaps == 0
        apart = vanish.any(axis=-1)
        with np.errstate(divide="ignore"):  # log 0: a root on x -+ s as well
            logs = np.where(vanish, np.log(steps), complex_log1p(steps / np.where(vanish, 1.0, gaps)))
    minus, plus = np.expm1(logs.sum(axis=-1)) + apart
    return scalar_or_array(minus), scalar_or_array(plus), scalar_or_array(1.0 - apart)


def operator_at(spec: ModelSpec, x) -> Callable:
    """H~ Psi / Psi' at x as a function of Psi's roots ``roots_eta``, taken
    as ``shift_ratios`` takes them: the terms V rho-, V* rho+, alpha_M Psi/Psi'
    and Psi/Psi', with rho-+ = (Psi(x -+ s) - Psi(x)) / Psi' and Psi' from
    ``shift_ratios``.  On an eigenstate the first three sum to E Psi/Psi'.
    V, V* and alpha_M, which no root enters, are evaluated here, once; a
    pole of V or V* raises PoleOfPotential."""
    v, v_star = potential_v(spec, x), potential_v_star(spec, x)
    alpha = compensation_alpha(spec, x)

    def terms(roots_eta):
        minus, plus, at_x = shift_ratios(spec, x, roots_eta)
        return v * minus, v_star * plus, alpha * at_x, at_x

    return terms


def _potential(potential: Potential, at: np.ndarray, x: np.ndarray, name: str):
    """``potential`` at ``at``, ``name`` (V or V*) at x; a pole raises, naming x."""
    t = np.exp(1j * at) if potential.trigonometric else at
    num = np.full_like(t, potential.lead)
    for factor in potential.factors_at(t):
        num = num * factor
    if potential.denominator is None:
        return scalar_or_array(num)
    den = potential.denominator_at(t)
    pole = np.abs(den) < POLE_TOL
    if pole.any():
        raise PoleOfPotential(f"{name}(x) pole at x = {x[pole].flat[0]}")
    return scalar_or_array(num / den)


def potential_v(spec: ModelSpec, x):
    """V(x), elementwise over an array of points; raises PoleOfPotential on
    denominator zeros, naming the first such point."""
    at = np.asarray(x, dtype=complex)
    return _potential(spec.potential, at, at, "V")


def potential_v_star(spec: ModelSpec, x):
    """Analytic conjugate V*(x) = V-bar(-x): parameters conjugated, x free."""
    at = np.asarray(x, dtype=complex)
    return _potential(spec.potential.bar, -at, at, "V*")


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
        return complex(m * (m - 1 + 2.0 * sum(p.real for p in spec.potential.constants)))
    if fam is ModelFamily.CENTRIFUGAL_I:
        return complex(m)
    if fam is ModelFamily.CENTRIFUGAL_II:
        return complex(m * (m - 1 + sum(p.real for p in spec.potential.constants)))
    if fam is ModelFamily.TRIG_Q:
        q, prod = spec.real_param("q"), math.prod(p.real for p in spec.potential.constants)
        return complex(-2.0 * prod * (1.0 - q**m) / q)
    raise UnsupportedFamily(fam.value)


def compensation_alpha(spec: ModelSpec, x):
    """alpha_M(x) = compensation_coefficient * eta(x), elementwise."""
    return compensation_coefficient(spec) * eta(spec, x)


def compensation_vanishes(spec: ModelSpec) -> bool:
    """True when the deformation is switched off and the model is exactly
    solvable (restricted specs, beta = 0, or a vanishing q-deformation)."""
    return abs(compensation_coefficient(spec)) < 1e-14 * max(1.0, spec.M)


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
