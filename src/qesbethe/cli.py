"""Command-line front end.

Subcommands: solve, verify, limits, grid, dump-matrix.  Machine output
(JSON, or CSV for grid) goes to stdout or --output; diagnostics go to
stderr.  Output is deterministic byte for byte for a fixed command line:
floats are serialized by Python's shortest-roundtrip repr and every list is
canonically ordered.  Exit codes: 0 success, 2 check failures (report still
emitted), 1 usage or I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from .bethe import BetheSolution, solve
from .config import Tolerances
from .errors import LimitViolation, QesError
from .hamiltonian import build_matrix, matrix_dump_dict
from .limits import LIMITS, LimitTag, limit_case, reduced_bae_check, verify_limit
from .models import FAMILIES, ModelFamily, ModelSpec, model_spec, spec_from_json, spec_to_json_dict
from .wavefun import (
    GRID_COLUMNS,
    default_grid,
    grid_rows,
    schrodinger_residual,
    zero_mode_residual,
)

# every family's parameters, one flag each: the one-letter names, then the rest
_ALL_PARAM_FLAGS = tuple(
    sorted({n for info in FAMILIES.values() for n in info.param_names}, key=lambda n: (len(n), n))
)
# verify's checks: (check name, tolerance name, worst value over the model's
# solutions and grid points); a check passes when its value is at most the
# tolerance
VERIFY_CHECKS = (
    ("bae_residual", "bae_residual",
     lambda spec, sols, pts: max((s.residual_max for s in sols), default=0.0)),
    ("eigenvalue_match", "eigenvalue_match",
     lambda spec, sols, pts: max(
         (s.discrepancy / max(1.0, abs(s.E_oracle)) for s in sols), default=0.0)),
    ("zero_mode", "zero_mode",
     lambda spec, sols, pts: float(zero_mode_residual(spec, pts).max())),
    ("schrodinger_pointwise", "schrodinger",
     lambda spec, sols, pts: max(
         (float(schrodinger_residual(spec, s, pts).max()) for s in sols), default=0.0)),
)
VERIFY_TOLERANCES = tuple(tol for _, tol, _ in VERIFY_CHECKS)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only -5 and -.5 style words as values and takes a
        # negative number in exponent notation (-1e-5), -inf or -nan, or an
        # RE,IM pair starting with a minus sign (-1.2,0.4), for an option.
        # No option starts with a digit, inf or nan, so every word opening
        # with -digit, -.digit, -inf or -nan (any case, as float() reads
        # them) is a value; a malformed one fails in _parse_complex.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"cannot parse complex number from {text!r}")


def _pair(v: complex) -> list[float]:
    v = complex(v)
    return [v.real, v.imag]


def _add_spec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="path to a JSON model document")
    p.add_argument("--family", choices=sorted(f.value for f in ModelFamily))
    p.add_argument("--M", type=int)
    p.add_argument("--sector", choices=["full", "even", "odd"])
    for name in _ALL_PARAM_FLAGS:
        p.add_argument(f"--{name}", type=str)


def _add_common_flags(p: argparse.ArgumentParser, tol: bool = False) -> None:
    p.add_argument("--output", help="write machine output here instead of stdout")
    if tol:
        p.add_argument(
            "--tol",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a check threshold (repeatable)",
        )


def _spec_from_args(args: argparse.Namespace) -> ModelSpec:
    if args.spec:
        return spec_from_json(Path(args.spec))
    if not args.family or args.M is None:
        raise ValueError("either --spec or --family plus --M are required")
    params = {}
    for name in FAMILIES[ModelFamily(args.family)].param_names:
        raw = getattr(args, name)
        if raw is None:
            raise ValueError(f"--{name} is required for family {args.family}")
        params[name] = _parse_complex(raw)
    return model_spec(args.family, M=args.M, sector=args.sector, **params)


def _tolerances_from_args(
    args: argparse.Namespace, applied: tuple[str, ...], where: str
) -> Tolerances:
    """Defaults with the --tol overrides, which may name only the
    thresholds ``applied`` by this document."""
    overrides = {}
    for item in args.tol:
        if "=" not in item:
            raise ValueError(f"--tol expects NAME=VALUE, got {item!r}")
        name, value = item.split("=", 1)
        overrides[name.strip()] = float(value)
    unknown = sorted(set(overrides) - set(applied))
    if unknown:
        raise ValueError(f"{where} applies no tolerance {unknown}, only {list(applied)}")
    return Tolerances().override(**overrides)


def _meta(tolerances: dict[str, float]) -> dict[str, Any]:
    return {"tolerances": tolerances, "version": __version__}


def _solution_dict(index: int, sol: BetheSolution) -> dict[str, Any]:
    return {
        "index": index,
        "eigenvalue": _pair(sol.E_formula),
        "eigenvalue_oracle": _pair(sol.E_oracle),
        "discrepancy": sol.discrepancy,
        "roots_x": [_pair(r) for r in sol.roots.roots_x],
        "roots_eta": [_pair(r) for r in sol.roots.roots_eta],
        "residual_max": sol.residual_max,
        "flags": {
            "polished": sol.flags.polished,
            "degenerate": sol.flags.degenerate,
            "jacobian_singular": sol.flags.jacobian_singular,
            "seed_source": sol.seed_source,
        },
    }


def _solve_document(spec: ModelSpec, solutions: list[BetheSolution]) -> dict:
    return {
        "spec": spec_to_json_dict(spec),
        "solutions": [_solution_dict(i, s) for i, s in enumerate(solutions)],
        "meta": _meta({}),
    }


def _verify_document(spec: ModelSpec, tols: Tolerances) -> dict:
    solutions = solve(spec)
    points = default_grid(spec, 12).points
    checks = []
    for name, tol, worst in VERIFY_CHECKS:
        value = worst(spec, solutions, points)
        checks.append({"name": name, "value": value, "passed": value <= getattr(tols, tol)})
    return {
        "spec": spec_to_json_dict(spec),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "meta": _meta(tols.as_dict(VERIFY_TOLERANCES)),
    }


def _limit_document(args: argparse.Namespace) -> dict:
    tag = LimitTag(args.case)
    info = LIMITS[tag]
    applied = (() if info.large else ("exact_limit",)) + (
        ("reduced_bae",) if info.restricted else ()
    )
    tols = _tolerances_from_args(args, applied, f"limits --case {tag.value}")
    params: dict[str, Any] = {}
    for name in _ALL_PARAM_FLAGS:
        raw = getattr(args, name)
        if raw is not None:
            val = _parse_complex(raw)
            params[name] = val if val.imag != 0 else val.real
    if args.M is None:
        raise ValueError("--M is required for limits")
    case = limit_case(tag, args.M, **params)
    report = verify_limit(case, args.large, tols)
    doc: dict[str, Any] = {
        "case": report.tag.value,
        "M": report.M,
        "large": report.large,
        "rows": [
            {
                "m": r["m"],
                "computed": _pair(r["computed"]),
                "expected": _pair(r["expected"]),
                "gap": r["gap"],
                "passed": r["passed"],
            }
            for r in report.rows
        ],
        "max_gap": report.max_gap,
        "budget": report.budget,
        "passed": report.passed,
        "meta": _meta(tols.as_dict(applied)),
    }
    if info.restricted:
        try:
            reduced = reduced_bae_check(case, tols)
            doc["reduced_bae"] = {
                "residual_max": reduced["residual_max"],
                "passed": reduced["passed"],
            }
        except LimitViolation as exc:
            doc["reduced_bae"] = {"residual_max": None, "passed": False, "error": str(exc)}
            doc["passed"] = False
    return doc


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    ``main`` call (parsing leaves it unchanged)."""
    parser = _Parser(prog="qesbethe")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="Bethe solutions for one model")
    _add_spec_flags(p_solve)
    _add_common_flags(p_solve)
    p_solve.add_argument("--seed", choices=["oracle", "homotopy"], default="oracle")

    p_verify = sub.add_parser("verify", help="machine-check one model end to end")
    _add_spec_flags(p_verify)
    _add_common_flags(p_verify, tol=True)

    p_lim = sub.add_parser("limits", help="closed-form limit verification")
    p_lim.add_argument("--case", required=True, choices=[t.value for t in LimitTag])
    p_lim.add_argument("--M", type=int)
    p_lim.add_argument("--large", type=float, default=1e4)
    for name in _ALL_PARAM_FLAGS:
        p_lim.add_argument(f"--{name}", type=str)
    _add_common_flags(p_lim, tol=True)

    p_grid = sub.add_parser("grid", help="pointwise wavefunction data as CSV")
    _add_spec_flags(p_grid)
    _add_common_flags(p_grid)
    p_grid.add_argument("--n", type=int, default=20)
    p_grid.add_argument("--solution", type=int, default=0)
    p_grid.add_argument("--format", choices=["csv"], default="csv")

    p_dump = sub.add_parser("dump-matrix", help="subspace matrix as JSON")
    _add_spec_flags(p_dump)
    _add_common_flags(p_dump)
    return parser


def _to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            spec = _spec_from_args(args)
            solutions = solve(spec, seed_mode=args.seed)
            _emit(_to_json(_solve_document(spec, solutions)), args.output)
            return 0
        if args.command == "verify":
            tols = _tolerances_from_args(args, VERIFY_TOLERANCES, "verify")
            spec = _spec_from_args(args)
            doc = _verify_document(spec, tols)
            _emit(_to_json(doc), args.output)
            return 0 if doc["passed"] else 2
        if args.command == "limits":
            doc = _limit_document(args)
            _emit(_to_json(doc), args.output)
            return 0 if doc["passed"] else 2
        if args.command == "grid":
            if args.n < 1:
                raise ValueError(f"--n must be at least 1, got {args.n}")
            spec = _spec_from_args(args)
            solutions = solve(spec)
            if not 0 <= args.solution < len(solutions):
                raise ValueError(
                    f"--solution must be in 0..{len(solutions) - 1} for this model"
                )
            rows = grid_rows(spec, solutions[args.solution], default_grid(spec, args.n))
            lines = [",".join(GRID_COLUMNS)]
            lines += [",".join(repr(r[k]) for k in GRID_COLUMNS) for r in rows]
            _emit("\n".join(lines) + "\n", args.output)
            return 0
        if args.command == "dump-matrix":
            spec = _spec_from_args(args)
            _emit(_to_json(matrix_dump_dict(build_matrix(spec))), args.output)
            return 0
        raise ValueError(f"unknown command {args.command!r}")
    except (QesError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"qesbethe: error: {exc}", file=sys.stderr)
        return 1
