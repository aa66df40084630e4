"""Continuation coverage sweep: which states ``solve`` seeds by
continuation, which it leaves unpolished or gets wrong, and what its legs
cost.

Five samples, each drawn from its own ``numpy.random.default_rng(11)``:

* ``--seed homotopy``, 20 models per M at M = 4, 6, 8, 10 in that order:
  mp-crossed full-domain draws (``bench/workloads.draw_params(..., "full")``),
  trig-q acceptance-range draws (``tests/conftest.spec_for``) and trig-q
  full-domain draws;
* ``--seed oracle``, 30 models per M at M = 11, 12, 13, 14, where the
  trig-q ladders outgrow the eigenvector and every truncated state needs
  its continuation leg: trig-q acceptance-range and full-domain draws.

Every state of every model that builds is solved in the sample's seed mode.
The script prints, per sample, the models built, the states, how many of
them are continuation-seeded, how many come back unpolished, how many are
wrong (``polished`` but missing criterion 1: residual <= 1e-9 and
eigenvalue gap <= 1e-8 max(1, |E|)) and the residual evaluations of the
continuation legs.  ``--out`` writes each state's ``seed_source`` to JSON;
``--compare OLD.json`` lists the states that OLD seeded by continuation and
this tree does not (lost) and the reverse (gained).

Run from the repository root with numpy and pytest (``tests/conftest``
imports it) installed, no install of the package needed:

    python3 tools/continuation_sweep.py --out new.json --compare old.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import conftest  # noqa: E402
import workloads  # noqa: E402
from qesbethe import homotopy, model_spec  # noqa: E402
from qesbethe.bethe import solve  # noqa: E402
from qesbethe.errors import QesError  # noqa: E402

SMALL, LARGE = (4, 6, 8, 10), (11, 12, 13, 14)
# family, domain, seed mode, the M's and the draws per M
SAMPLES = (
    ("mp-crossed", "full", "homotopy", SMALL, 20),
    ("trig-q", "conftest", "homotopy", SMALL, 20),
    ("trig-q", "full", "homotopy", SMALL, 20),
    ("trig-q", "conftest", "oracle", LARGE, 30),
    ("trig-q", "full", "oracle", LARGE, 30),
)
SEED = 11


def _spec(family: str, domain: str, M: int, rng: np.random.Generator):
    if domain == "conftest":
        return conftest.spec_for(family, M, rng)
    return model_spec(family, M=M, **workloads.draw_params(family, rng, "full"))


def _is_wrong(sol) -> bool:
    return sol.flags.polished and not (
        sol.residual_max <= 1e-9 and sol.discrepancy <= 1e-8 * max(1.0, abs(sol.E_oracle))
    )


def sweep() -> tuple[dict[str, str], list[dict]]:
    """Each state's seed source, keyed family/domain/M/draw/state, and one
    summary row per sample."""
    evaluations = 0
    real_map = homotopy.residual_map

    def counted_map(spec):
        f = real_map(spec)

        def g(v):
            nonlocal evaluations
            evaluations += 1
            return f(v)

        return g

    sources: dict[str, str] = {}
    rows = []
    homotopy.residual_map = counted_map
    try:
        for family, domain, mode, ms, draws in SAMPLES:
            rng = np.random.default_rng(SEED)
            evaluations = 0
            row = {"sample": f"{family}/{domain}/{mode}", "models": 0, "states": 0,
                   "continued": 0, "unpolished": 0, "wrong": 0}
            for M in ms:
                for draw in range(draws):
                    spec = _spec(family, domain, M, rng)
                    try:
                        sols = solve(spec, seed_mode=mode)
                    except QesError:
                        continue
                    row["models"] += 1
                    for k, sol in enumerate(sols):
                        # the two modes sweep disjoint M's
                        sources[f"{family}/{domain}/{M}/{draw}/{k}"] = sol.seed_source
                        row["states"] += 1
                        row["continued"] += sol.seed_source == "homotopy"
                        row["unpolished"] += not sol.flags.polished
                        row["wrong"] += _is_wrong(sol)
            row["leg_residual_evals"] = evaluations
            rows.append(row)
    finally:
        homotopy.residual_map = real_map
    return sources, rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write each state's seed_source to this JSON file")
    parser.add_argument("--compare", help="an earlier --out file to report lost and gained states")
    args = parser.parse_args(argv)
    sources, rows = sweep()
    print(f"{'sample':<25} {'models':>6} {'states':>6} {'continued':>9} {'unpolished':>10} "
          f"{'wrong':>5} {'leg evals':>10}")
    for r in rows:
        print(f"{r['sample']:<25} {r['models']:>6} {r['states']:>6} {r['continued']:>9} "
              f"{r['unpolished']:>10} {r['wrong']:>5} {r['leg_residual_evals']:>10}")
    if args.out:
        Path(args.out).write_text(json.dumps(sources, indent=0, sort_keys=True) + "\n")
    if args.compare:
        old = json.loads(Path(args.compare).read_text())
        was = {k for k, v in old.items() if v == "homotopy"}
        now = {k for k, v in sources.items() if v == "homotopy"}
        lost, gained = sorted(was - now), sorted(now - was)
        print(f"against {args.compare}: {len(lost)} lost, {len(gained)} gained")
        for key in lost:
            print(f"  lost   {key}")
        for key in gained:
            print(f"  gained {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
