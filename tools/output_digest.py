"""Output digest: run a fixed, seeded list of command lines in-process and
print one sha256 per command, then one over the whole list.

Each command's digest covers its exit code, or the exception that left
``cli.main``, its stdout and its stderr, so
two trees that print the same digests wrote the same bytes for every
command.  Use it to show that a change which should not alter any output
does not:

    python3 tools/output_digest.py > new.txt          # in each tree
    diff old.txt new.txt

The list, from ``numpy.random.default_rng(--seed)`` (one parameter draw per
family and size, in list order):

* ``solve --seed oracle``, ``solve --seed homotopy``, ``verify``, ``grid``
  and ``dump-matrix`` for each of the six families at M in {0, 1, 2, 4, 8,
  12}, and at M = 24 for the x-families (trig-q matrices stop building
  there); the sextic families also run at M + 1, so both of their sectors
  run at every size;
* ``limits`` for each of the eight limit tags, at M = 4.

``--smoke`` keeps M in {0, 1, 2} and the limits at M = 2 (about a second).
Run from the repository root; it needs numpy and no install of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qesbethe import cli  # noqa: E402

SIZES = (0, 1, 2, 4, 8, 12, 24)
SMOKE_SIZES = (0, 1, 2)
X_ONLY_FROM = 24  # the trigonometric family stops here
FAMILY_COMMANDS = (
    ["solve", "--seed", "oracle"],
    ["solve", "--seed", "homotopy"],
    ["verify"],
    ["grid"],
    ["dump-matrix"],
)
LIMITS = {
    "ch-from-mp": {"a1": (0.8, 0.3), "a2": (1.3, -0.2)},
    "mp-from-mp": {"a1": (0.9, 0.4), "beta": 0.7},
    "ch-from-sextic": {"b": 0.7, "c": 1.4},
    "mp-from-sextic": {"c": 1.1},
    "wilson": {"b": 0.8, "c": 1.3, "d": 0.6, "e": 1.7},
    "cdh": {"b": 0.8, "c": 1.3, "d": 0.6},
    "aw": {"a": 0.3, "b": -0.4, "c": 0.2, "d": 0.5, "q": 0.6},
    "q-universal": {"q": 0.55, "a": 0.2, "b": -0.3},
}


def _away_from_half(rng: np.random.Generator) -> float:
    v = 0.5
    while abs(v - 0.5) < 0.05:
        v = float(rng.uniform(0.3, 3.0))
    return v


def draw_params(family: str, rng: np.random.Generator) -> dict:
    """Valid parameters of one model of ``family``, as real numbers or
    (re, im) pairs."""
    if family == "mp-crossed":
        return {
            "a1": (float(rng.uniform(0.4, 2.5)), float(rng.uniform(-1.0, 1.0))),
            "a2": (float(rng.uniform(0.4, 2.5)), float(rng.uniform(-1.0, 1.0))),
            "beta": float(rng.uniform(-1.2, 1.2)),
        }
    if family in ("sextic-i", "sextic-ii"):
        return {n: float(rng.uniform(0.3, 3.0)) for n in "abcd"[: 3 if family == "sextic-i" else 4]}
    if family in ("centrifugal-i", "centrifugal-ii"):
        return {n: _away_from_half(rng) for n in ("bcdef" if family == "centrifugal-i" else "abcdef")}
    params = {n: float(rng.uniform(0.1, 0.85)) * float(rng.choice([-1.0, 1.0])) for n in "abcde"}
    params["q"] = float(rng.uniform(0.3, 0.8))
    return params


def _flags(params: dict) -> list[str]:
    out = []
    for name, value in params.items():
        re_part, im_part = value if isinstance(value, tuple) else (value, 0.0)
        out.append(f"--{name}={re_part!r},{im_part!r}")
    return out


def commands(seed: int, smoke: bool = False) -> list[list[str]]:
    """The command lines, in the order they run."""
    rng = np.random.default_rng(seed)
    families = ("mp-crossed", "sextic-i", "sextic-ii", "centrifugal-i", "centrifugal-ii", "trig-q")
    out = []
    for M in SMOKE_SIZES if smoke else SIZES:
        for family in families:
            if family == "trig-q" and M >= X_ONLY_FROM:
                continue
            for m in (M, M + 1) if family.startswith("sextic") else (M,):
                model = ["--family", family, "--M", str(m), *_flags(draw_params(family, rng))]
                out += [[*command, *model] for command in FAMILY_COMMANDS]
    for tag, params in LIMITS.items():
        out.append(["limits", "--case", tag, "--M", "2" if smoke else "4", *_flags(params)])
    return out


def digest(argv: list[str]) -> str:
    """sha256 of one command's exit code (or the exception that escaped
    the command line), stdout and stderr."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an escaped exception is output too
            code = f"{type(exc).__name__}: {exc}"
    text = f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def run(seed: int, smoke: bool = False) -> tuple[list[tuple[str, str]], str]:
    """(digest, command line) per command, and the digest of those lines."""
    lines = [(digest(argv), " ".join(argv)) for argv in commands(seed, smoke)]
    total = hashlib.sha256("".join(f"{d}  {c}\n" for d, c in lines).encode()).hexdigest()
    return lines, total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed of the parameter draws")
    parser.add_argument("--smoke", action="store_true", help="the small sizes only")
    args = parser.parse_args()
    lines, total = run(args.seed, args.smoke)
    for d, command in lines:
        print(f"{d}  {command}")
    print(f"{total}  total")


if __name__ == "__main__":
    main()
