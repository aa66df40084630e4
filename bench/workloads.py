"""Seeded input generators for the benchmark workloads.

Every workload is a repeating schedule of cells (family, M, command kind);
each cell draws fresh parameters from a ``numpy`` generator seeded by the
workload seed, so the same seed gives the same inputs.  The schedule fixes
the mix of model sizes, which keeps medians comparable across seeds; only
the order inside a cycle and the parameter values change with the seed.

``envelope`` draws come from the parameter ranges of the acceptance sweep,
narrowed for trig-q and for the mp-crossed beta where those ranges hold
measured holes (see ``MP_BETA_MIN`` and the
``TRIG_Q_*`` constants); the program passes every check on them.
``full`` draws cover the whole domain ``model_spec`` accepts (beta in
(-pi, pi), q in (0.02, 0.98), parameters near the validation boundaries);
they reach the known envelope holes and feed only the failure probe of the
traced run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

X_FAMILIES = ("mp-crossed", "sextic-i", "sextic-ii", "centrifugal-i", "centrifugal-ii")
ALL_FAMILIES = X_FAMILIES + ("trig-q",)
# Smallest |beta| of timed mp-crossed draws (the acceptance sweep draws beta
# uniform in (-1.2, 1.2)).  For 0 < |beta| below about 2e-3 the pointwise
# Schroedinger residual of verify reaches 1e-8..3e-5 (1e-7 at |beta| = 1e-3,
# M = 10) and fails its check, while beta = 0 itself passes.
MP_BETA_MIN = 0.05
# Largest trig-q subspace degree in the timed loops.  Acceptance-range draws
# fail on roughly 0.3-1% of trig-q models at M = 7..10 (SubspaceLeak, a
# tolerance miss, an eigenvalue mismatch), which would fail timed runs at
# random; those degrees, and M up to 16, belong to the failure probe.
TRIG_Q_MAX_M = 6
# |a|..|e| of timed trig-q draws (the acceptance sweep uses (0.1, 0.85)).
# With all five of one sign and near 0.7, Newton polish lands on another
# Bethe solution (eigenvalue gap ~0.8) already at M = 6; with all five near
# 0.15 the ground-state eigenvalue is ~1e-5 and the pointwise Schroedinger
# check, relative to that scale, misses 1e-8.
TRIG_Q_PARAM_RANGE = (0.2, 0.6)
# q of timed trig-q draws (the acceptance sweep uses (0.3, 0.8)).  For q in
# about (0.43, 0.49) the pointwise Schroedinger residual of verify reaches
# 1e-8..2e-7 at M = 5..7 and fails its check.
TRIG_Q_Q_RANGE = (0.5, 0.8)
LIMIT_TAGS = (
    "ch-from-mp", "mp-from-mp", "ch-from-sextic", "mp-from-sextic",
    "wilson", "cdh", "aw", "q-universal",
)


@dataclass(frozen=True)
class Job:
    """One unit of work the benchmark times: a model solved through the
    library (``solve``/``homotopy``) or a CLI command (``verify``/``limits``)."""

    kind: str
    family: str
    M: int
    params: dict[str, Any] = field(default_factory=dict)
    name: str = ""

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.family}:M{self.M}" + (f":{self.name}" if self.name else "")


def _sym(rng: np.random.Generator, lo: float, hi: float) -> float:
    """Uniform magnitude in (lo, hi) with a random sign."""
    return float(rng.uniform(lo, hi)) * float(rng.choice([-1.0, 1.0]))


def _away_from_half(rng: np.random.Generator, lo: float, hi: float, gap: float) -> float:
    v = 0.5
    while abs(v - 0.5) < gap:
        v = float(rng.uniform(lo, hi))
    return v


def draw_params(family: str, rng: np.random.Generator, domain: str) -> dict[str, Any]:
    """Model parameters; ``domain`` is ``envelope`` or ``full``."""
    full = domain == "full"
    if family == "mp-crossed":
        re_lo, re_hi, im = (0.02, 3.0, 2.0) if full else (0.4, 2.5, 1.0)
        return {
            "a1": complex(rng.uniform(re_lo, re_hi), rng.uniform(-im, im)),
            "a2": complex(rng.uniform(re_lo, re_hi), rng.uniform(-im, im)),
            "beta": (float(rng.uniform(-math.pi * 0.999, math.pi * 0.999)) if full
                     else _sym(rng, MP_BETA_MIN, 1.2)),
        }
    if family in ("sextic-i", "sextic-ii"):
        names = "abc" if family == "sextic-i" else "abcd"
        lo, hi = (0.02, 4.0) if full else (0.3, 3.0)
        return {n: float(rng.uniform(lo, hi)) for n in names}
    if family in ("centrifugal-i", "centrifugal-ii"):
        names = "bcdef" if family == "centrifugal-i" else "abcdef"
        lo, hi, gap = (0.02, 4.0, 1e-3) if full else (0.3, 3.0, 0.05)
        return {n: _away_from_half(rng, lo, hi, gap) for n in names}
    if family == "trig-q":
        lo, hi = (0.01, 0.98) if full else TRIG_Q_PARAM_RANGE
        params: dict[str, Any] = {n: _sym(rng, lo, hi) for n in "abcde"}
        params["q"] = float(rng.uniform(0.02, 0.98) if full else rng.uniform(*TRIG_Q_Q_RANGE))
        return params
    raise ValueError(f"unknown family {family!r}")


def draw_limit_params(tag: str, rng: np.random.Generator) -> dict[str, Any]:
    """Base parameters of a limit case, in the ranges the acceptance limit
    checks use (the asymptotic budgets are tuned for them)."""
    u = rng.uniform
    if tag == "ch-from-mp":
        return {"a1": complex(u(0.6, 1.6), u(-0.7, 0.7)), "a2": complex(u(0.6, 1.6), u(-0.7, 0.7))}
    if tag == "mp-from-mp":
        return {"a1": float(u(0.8, 1.4)), "beta": float(u(0.2, 0.6))}
    if tag == "ch-from-sextic":
        return {"b": float(u(0.6, 1.2)), "c": float(u(1.0, 1.8))}
    if tag == "mp-from-sextic":
        return {"c": float(u(0.8, 1.6))}
    if tag == "wilson":
        return {"b": float(u(0.6, 1.0)), "c": float(u(1.0, 1.6)), "d": float(u(1.6, 2.4)),
                "e": float(u(0.55, 0.9))}
    if tag == "cdh":
        return {"b": float(u(0.6, 1.0)), "c": float(u(1.0, 1.6)), "d": float(u(1.6, 2.4))}
    if tag == "aw":
        return {n: _sym(rng, 0.2, 0.6) for n in "abcd"} | {"q": float(u(0.4, 0.7))}
    if tag == "q-universal":
        return {n: _sym(rng, 0.2, 0.5) for n in "abc"} | {"q": float(u(0.4, 0.6))}
    raise ValueError(f"unknown limit tag {tag!r}")


WORKLOADS = ("solve-large", "verify-sweep", "homotopy-seed")


def _cells(workload: str, smoke: bool = False) -> list[tuple[str, str, int]]:
    """One cycle of (kind, family-or-tag, M) cells."""
    if workload == "solve-large":
        if smoke:
            return [("solve", f, 4) for f in ALL_FAMILIES]
        # seven cells per cycle put the median inside one cell's timings
        # (sextic-ii) and p90 a third of the way into the slowest cell's,
        # not on the edge between two cells
        return [("solve", f, 24) for f in X_FAMILIES] + [("solve", "trig-q", TRIG_Q_MAX_M)] * 2
    if workload == "verify-sweep":
        cells = [
            ("verify", f, m)
            for f in ALL_FAMILIES
            for m in ((1, 2) if smoke else range((TRIG_Q_MAX_M if f == "trig-q" else 10) + 1))
        ]
        # the eight limit tags ride along, one per eight-odd verify commands
        return cells + [("limits", t, 0) for t in LIMIT_TAGS]
    if workload == "homotopy-seed":
        ms = (2,) if smoke else (4, 6, 8)
        return [("homotopy", f, m) for f in ("mp-crossed", "trig-q") for m in ms]
    raise ValueError(f"unknown workload {workload!r}")


def _probe_cells(workload: str, smoke: bool = False) -> list[tuple[str, str, int]]:
    """Cells of the failure probe (full-domain draws, traced run only)."""
    if workload == "solve-large":
        ms = (4,) if smoke else (8, 10, 12, 14, 16)
        return [("solve", "trig-q", m) for m in ms]
    if workload == "verify-sweep":
        ms = (2,) if smoke else (2, 5, 8, 10)
        return [("verify", f, m) for f in ALL_FAMILIES for m in ms]
    if workload == "homotopy-seed":
        ms = (2,) if smoke else (4, 6, 8)
        return [("homotopy", f, m) for f in ("mp-crossed", "trig-q") for m in ms]
    raise ValueError(f"unknown workload {workload!r}")


def cycle_length(workload: str, smoke: bool = False) -> int:
    return len(_cells(workload, smoke))


def _job(kind: str, name: str, M: int, rng: np.random.Generator, domain: str) -> Job:
    if kind == "limits":
        return Job(kind, name, int(rng.integers(0, 9)), draw_limit_params(name, rng))
    return Job(kind, name, M, draw_params(name, rng, domain))


def _rng(workload: str, seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream])


def jobs(workload: str, seed: int, smoke: bool = False):
    """Endless stream of envelope jobs: cycles of the workload's cells, each
    cycle in a seeded order."""
    rng = _rng(workload, seed, 0)
    cells = _cells(workload, smoke)
    while True:
        for i in rng.permutation(len(cells)):
            yield _job(*cells[i], rng, "envelope")


# Envelope holes inside the acceptance ranges, each failing at the commit
# that introduced the benchmark: name -> (family, M, params).
_HOLES: dict[str, tuple[str, int, dict[str, Any]]] = {
    # ground-state polish lands on another Bethe solution (eigenvalue gap 0.78)
    "same-sign": ("trig-q", 6, {"a": 0.684, "b": 0.668, "c": 0.849, "d": 0.707, "e": 0.596,
                                "q": 0.405}),
    # pointwise Schroedinger residual 1.8e-7
    "q0.48": ("trig-q", 6, {"a": 0.322, "b": -0.148, "c": -0.21, "d": 0.113, "e": -0.118,
                            "q": 0.48}),
    # ground-state eigenvalue -5.6e-6; pointwise Schroedinger residual 1.3e-8
    "small": ("trig-q", 6, {"a": -0.1331172491348974, "b": -0.13919460414384335,
                            "c": -0.12113935740585571, "d": 0.13098219095714073,
                            "e": 0.1860518478159062, "q": 0.7018425744386362}),
    # InexactDivision in build_matrix
    "q0.05": ("trig-q", 8, {"a": 0.3, "b": -0.2, "c": 0.25, "d": 0.4, "e": -0.35, "q": 0.05}),
    # SubspaceLeak in build_matrix
    "M18": ("trig-q", 18, {"a": 0.3, "b": -0.2, "c": 0.25, "d": 0.4, "e": -0.35, "q": 0.6}),
    # InexactDivision in build_matrix
    "M24": ("trig-q", 24, {"a": 0.3, "b": -0.2, "c": 0.25, "d": 0.4, "e": -0.35, "q": 0.6}),
    # beta just off 0: pointwise Schroedinger residual 1.7e-7
    "beta-near-0": ("mp-crossed", 7, {"a1": complex(2.4382823351740726, 0.7119514191580878),
                                      "a2": complex(0.7125707424400739, -0.745496478313193),
                                      "beta": -0.0004886281286418104}),
}
_NAMED_PROBES: dict[str, tuple[tuple[str, str], ...]] = {
    "solve-large": (("solve", "same-sign"), ("solve", "q0.05"), ("solve", "M18"), ("solve", "M24")),
    "verify-sweep": (("verify", "same-sign"), ("verify", "q0.48"), ("verify", "small"),
                     ("verify", "beta-near-0")),
    "homotopy-seed": (("homotopy", "same-sign"),),
}


def probe_jobs(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    """The failure probe: the named envelope holes of the workload's kind,
    then one full-domain draw per probe cell."""
    rng = _rng(workload, seed, 1)
    named = [] if smoke else [
        Job(kind, _HOLES[hole][0], _HOLES[hole][1], dict(_HOLES[hole][2]), hole)
        for kind, hole in _NAMED_PROBES[workload]
    ]
    return named + [_job(*cell, rng, "full") for cell in _probe_cells(workload, smoke)]


def warmup_job(workload: str, seed: int) -> Job:
    """A small model of the workload's kind, run once before timing."""
    rng = _rng(workload, seed, 2)
    kind = {"solve-large": "solve", "verify-sweep": "verify", "homotopy-seed": "homotopy"}[workload]
    family = "trig-q" if kind == "homotopy" else "mp-crossed"
    return Job(kind, family, 4, draw_params(family, rng, "envelope"))
