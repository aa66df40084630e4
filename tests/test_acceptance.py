"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from qesbethe.bethe import solve
from qesbethe.hamiltonian import apply_htilde, build_matrix
from qesbethe.limits import (
    LimitTag,
    convergence_ratio,
    limit_case,
    reduced_bae_check,
    verify_limit,
)
from qesbethe.models import model_spec
from qesbethe.wavefun import (
    default_grid,
    phi0_squared,
    schrodinger_residual,
    zero_mode_residual,
)

from conftest import ALL_FAMILIES, draw_params, spec_for
from reference_algebra import poly_monomial

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/qesbethe/schema/result.schema.json").read_text()
)


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} {name}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def test_criterion_1_oracle_consistency_sweep():
    """Every family x sector x M in 0..10 x 3 random draws: each eigenpair's
    Bethe residual stays below 1e-9 and the two eigenvalue routes agree to
    1e-8 relative, inside a 60 s budget."""
    rng = np.random.default_rng(987654321)
    t0 = time.time()
    worst_res = 0.0
    worst_gap = 0.0
    count = 0
    for family in ALL_FAMILIES:
        for M in range(11):
            for _ in range(3):
                spec = spec_for(family, M, rng)
                for sol in solve(spec):
                    count += 1
                    worst_res = max(worst_res, sol.residual_max)
                    worst_gap = max(
                        worst_gap, sol.discrepancy / max(1.0, abs(sol.E_oracle))
                    )
    elapsed = time.time() - t0
    ok = worst_res <= 1e-9 and worst_gap <= 1e-8 and elapsed <= 60.0
    report(
        1,
        "oracle-consistency sweep",
        ok,
        f"{count} eigenpairs, residual {worst_res:.2e}, gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_hand_derived_pair():
    """The fully hand-solved configuration: eigenvalues exactly +-2 with
    roots +-1, independent of the eigensolver path."""
    spec = model_spec("mp-crossed", M=1, a1=1, a2=1, beta=math.pi / 2)
    sols = solve(spec)
    ok = (
        len(sols) == 2
        and abs(sols[0].E_formula + 2.0) <= 1e-12
        and abs(sols[1].E_formula - 2.0) <= 1e-12
        and abs(sols[0].roots.roots_x[0] + 1.0) <= 1e-12
        and abs(sols[1].roots.roots_x[0] - 1.0) <= 1e-12
        and max(s.residual_max for s in sols) <= 1e-12
    )
    report(2, "hand-derived pair", ok)


def test_criterion_3_exact_limits():
    """Exact degenerations reproduce closed-form spectra to 1e-9 relative
    for M <= 10: the beta = 0 crossing, the vanished q-deformation (whose
    second eigenvalue factor is 1 - abcd q^(m-1), the form the master
    eigenvalue expression degenerates to), and the deeper q-restrictions."""
    worst = 0.0
    cases = [
        limit_case(LimitTag.CH_FROM_MP, 10, a1=1.0, a2=1.0),
        limit_case(LimitTag.CH_FROM_MP, 7, a1=1.2 + 0.7j, a2=0.9 - 0.4j),
        limit_case(LimitTag.AW, 10, a=0.3, b=0.3, c=0.3, d=0.3, q=0.5),
        limit_case(LimitTag.AW, 8, a=0.45, b=-0.3, c=0.2, d=0.6, q=0.65),
        limit_case(LimitTag.Q_UNIVERSAL, 10, a=0.4, b=-0.3, c=0.2, q=0.5),
        limit_case(LimitTag.Q_UNIVERSAL, 10, a=0.4, b=-0.3, q=0.45),
        limit_case(LimitTag.Q_UNIVERSAL, 10, a=0.4, q=0.45),
        limit_case(LimitTag.Q_UNIVERSAL, 10, q=0.45),
    ]
    ok = True
    for case in cases:
        rep = verify_limit(case)
        worst = max(worst, rep.max_gap)
        ok = ok and rep.passed
    report(3, "exact limits", ok and worst <= 1e-9, f"max gap {worst:.2e}")


def test_criterion_4_asymptotic_limits():
    """One- and two-parameter infinite limits hold at large = 1e4 within a
    first-order budget, and the gap shrinks by at least 8x at large = 1e5."""
    cases = [
        limit_case(LimitTag.MP_FROM_MP, 4, a1=1.1, beta=0.3),
        limit_case(LimitTag.CH_FROM_SEXTIC, 4, b=0.8, c=1.4),
        limit_case(LimitTag.MP_FROM_SEXTIC, 4, c=1.2),
        limit_case(LimitTag.WILSON, 4, b=0.8, c=1.3, d=2.0, e=0.6),
        limit_case(LimitTag.CDH, 4, b=0.8, c=1.3, d=2.0),
    ]
    ok = True
    details = []
    for case in cases:
        rep = verify_limit(case, 1e4)
        ratio = convergence_ratio(case, 1e4, 1e5)
        ok = ok and rep.passed and ratio >= 8.0
        details.append(f"{case.tag.value}:gap={rep.max_gap:.1e},ratio={ratio:.1f}")
    report(4, "asymptotic limits", ok, " ".join(details))


def test_criterion_5_reduced_bethe_equations():
    """Oracle polynomial zeros of the restricted models satisfy the reduced
    equations to 1e-9 for M <= 8."""
    worst = 0.0
    ok = True
    for M in (1, 4, 8):
        for case in (
            limit_case(LimitTag.MP_FROM_MP, M, a1=1.1, beta=0.4),
            limit_case(LimitTag.WILSON, M, b=0.8, c=1.3, d=2.0, e=0.6),
            limit_case(LimitTag.CDH, M, b=0.8, c=1.3, d=2.0),
            limit_case(LimitTag.AW, M, a=0.3, b=0.25, c=-0.4, d=0.5, q=0.6),
        ):
            rep = reduced_bae_check(case)
            worst = max(worst, rep["residual_max"])
            ok = ok and rep["passed"]
    report(5, "reduced Bethe equations", ok and worst <= 1e-9, f"max residual {worst:.2e}")


def test_criterion_6_operator_identities():
    """Subspace invariance never leaks, the sextic matrix splits into parity
    blocks, and the quadruple of the centrifugal type-II operator pinned at
    e = 0, f = 1/2 equals the sextic type-II operator at doubled degree."""
    rng = np.random.default_rng(24680)
    ok = True
    # invariance (build_matrix raises SubspaceLeak past 1e-10 relative)
    for family in ALL_FAMILIES:
        for M in (0, 3, 7, 12):
            build_matrix(spec_for(family, M, rng))
    # parity decoupling on the full monomial span
    for family in ("sextic-i", "sextic-ii"):
        spec = model_spec(family, M=6, sector="even", **draw_params(family, rng))
        scale, off = 0.0, 0.0
        for n in range(7):
            out, _ = apply_htilde(spec, poly_monomial(n, "x").coeffs)
            for k, c in enumerate(out):
                scale = max(scale, abs(c))
                if (k - n) % 2 == 1:
                    off = max(off, abs(c))
        ok = ok and off <= 1e-12 * scale
    # formal-limit operator identity
    worst = 0.0
    for M in (1, 2, 3, 5):
        cent = model_spec(
            "centrifugal-ii", M=M, a=1.1, b=0.6, c=2.0, d=0.9, e=0.0, f=0.5,
            validate=False,
        )
        sext = model_spec("sextic-ii", M=2 * M, sector="even", a=1.1, b=0.6, c=2.0, d=0.9)
        lhs = 4.0 * build_matrix(cent).matrix
        rhs = build_matrix(sext).matrix
        worst = max(worst, np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
    ok = ok and worst <= 1e-9
    report(6, "operator identities", ok, f"formal-limit gap {worst:.2e}")


def test_criterion_7_wavefunction_layer():
    """Squared zero-mode identity at 1e-10 on 20 random points per family,
    pointwise difference-equation residual at 1e-8 for every accepted
    solution, and a real positive pseudo-ground-state square on real grids."""
    rng = np.random.default_rng(13579)
    ok = True
    worst_zero, worst_schro = 0.0, 0.0
    for family in ALL_FAMILIES:
        params = draw_params(family, rng)
        if family == "mp-crossed":
            params["a1"], params["a2"] = abs(params["a1"]), abs(params["a2"])
        for M in (2, 5):
            sector = ("even" if M % 2 == 0 else "odd") if family.startswith("sextic") else "full"
            spec = model_spec(family, M=M, sector=sector, **params)
            grid = default_grid(spec, 24)
            lo, hi = grid.points[0].real, grid.points[-1].real
            pts = [complex(rng.uniform(lo, hi)) for _ in range(20)]
            for x in pts:
                worst_zero = max(worst_zero, zero_mode_residual(spec, x))
            for sol in solve(spec):
                for x in pts:
                    worst_schro = max(worst_schro, schrodinger_residual(spec, sol, x))
            for x in pts:
                v = phi0_squared(spec, x)
                ok = ok and v.real > 0 and abs(v.imag) <= 1e-10 * abs(v)
    ok = ok and worst_zero <= 1e-10 and worst_schro <= 1e-8
    report(
        7,
        "wavefunction layer",
        ok,
        f"zero-mode {worst_zero:.2e}, pointwise {worst_schro:.2e}",
    )


def test_criterion_8_determinism_and_schema(child_env):
    """Re-running a command yields byte-identical output, and every machine
    document validates against the shipped schema."""
    commands = [
        ["solve", "--family", "mp-crossed", "--a1", "1.2,0.4", "--a2", "0.8,-0.2",
         "--beta", "0.7", "--M", "4"],
        ["verify", "--family", "sextic-ii", "--a", "1.1", "--b", "0.6", "--c", "2.0",
         "--d", "0.9", "--M", "4", "--sector", "even"],
        ["limits", "--case", "aw", "--q", "0.5", "--a", "0.3", "--b", "0.3",
         "--c", "0.3", "--d", "0.3", "--M", "2"],
        ["dump-matrix", "--family", "trig-q", "--a", "0.3", "--b", "-0.2", "--c", "0.25",
         "--d", "0.4", "--e", "-0.35", "--q", "0.6", "--M", "3"],
    ]
    ok = True
    for args in commands:
        outs = [
            subprocess.run(
                [sys.executable, "-m", "qesbethe", *args], capture_output=True, env=child_env
            ).stdout
            for _ in range(2)
        ]
        ok = ok and outs[0] == outs[1] and len(outs[0]) > 0
        jsonschema.validate(json.loads(outs[0]), SCHEMA)
    # golden fixtures revalidate
    for name in ("solve_mp_m1.json", "limits_aw_m1.json", "dump_matrix_m1.json"):
        doc = json.loads((Path(__file__).parent / "golden" / name).read_text())
        jsonschema.validate(doc, SCHEMA)
    report(8, "determinism and schema", ok)
