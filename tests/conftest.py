"""Shared draw helpers for the randomized sweeps, and the environment for
tests that run the command line in a child process."""

import os
from pathlib import Path

import numpy as np
import pytest

import qesbethe
from qesbethe import model_spec
from qesbethe.limits import LIMITS, LimitTag, limit_case, restricted_spec

ALL_FAMILIES = (
    "mp-crossed",
    "sextic-i",
    "sextic-ii",
    "centrifugal-i",
    "centrifugal-ii",
    "trig-q",
)


def draw_params(family: str, rng: np.random.Generator) -> dict:
    """Random valid parameters, kept away from validation boundaries."""
    if family == "mp-crossed":
        return {
            "a1": complex(rng.uniform(0.4, 2.5), rng.uniform(-1.0, 1.0)),
            "a2": complex(rng.uniform(0.4, 2.5), rng.uniform(-1.0, 1.0)),
            "beta": float(rng.uniform(-1.2, 1.2)),
        }
    if family == "sextic-i":
        return {n: float(rng.uniform(0.3, 3.0)) for n in "abc"}
    if family == "sextic-ii":
        return {n: float(rng.uniform(0.3, 3.0)) for n in "abcd"}
    if family in ("centrifugal-i", "centrifugal-ii"):
        names = "bcdef" if family == "centrifugal-i" else "abcdef"
        params = {}
        for n in names:
            v = 0.5
            while abs(v - 0.5) < 0.05:
                v = float(rng.uniform(0.3, 3.0))
            params[n] = v
        return params
    if family == "trig-q":
        params = {
            n: float(rng.uniform(0.1, 0.85)) * float(rng.choice([-1.0, 1.0]))
            for n in "abcde"
        }
        params["q"] = float(rng.uniform(0.3, 0.8))
        return params
    raise ValueError(family)


def spec_for(family: str, M: int, rng: np.random.Generator):
    if family.startswith("sextic"):
        sector = "even" if M % 2 == 0 else "odd"
    else:
        sector = "full"
    return model_spec(family, M=M, sector=sector, **draw_params(family, rng))


# the limit tags with an exact restriction point (limits.restricted_spec):
# factor-deleted (mp-from-mp, wilson, cdh) or zero-parameter (aw, q-universal)
RESTRICTED_TAGS = ("mp-from-mp", "wilson", "cdh", "aw", "q-universal")


def restricted_for(tag: str, M: int, rng: np.random.Generator):
    """``limits.restricted_spec`` of the tag at M, the parameters it reads
    drawn as for its family."""
    info = LIMITS[LimitTag(tag)]
    params = draw_params(info.family.value, rng)
    return restricted_spec(limit_case(tag, M, **{n: params[n] for n in info.required + info.optional}))


def specs_with_restricted(M: int, rng: np.random.Generator):
    """``spec_for`` of every family, then ``restricted_for`` of every tag in
    RESTRICTED_TAGS, each drawn when it is reached."""
    for family in ALL_FAMILIES:
        yield spec_for(family, M, rng)
    for tag in RESTRICTED_TAGS:
        yield restricted_for(tag, M, rng)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def child_env():
    """Environment for a child ``python -m qesbethe``: the inherited one, with
    the source root of the package under test ahead of PYTHONPATH so the
    child runs the same code without an install."""
    env = dict(os.environ)
    root = str(Path(qesbethe.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env
